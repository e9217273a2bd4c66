"""File formats: query streams, group maps, run files, and reports.

Stream files are UTF-8 JSON lines, one query per line::

    {"query_id": "q0001", "t": 1, "polarity": [1.0], "relevance": {"a": 0.5, ...}}

Timesteps must be strictly increasing; every query must rank the same set
of individuals; relevance must be normalized within 1e-6 (pass ``raw=True``
to renormalize arbitrary non-negative scores with a warning). Serialization
is canonical (fixed key order, relevance keys sorted, shortest round-trip
floats), so ``generate -> load -> save`` is byte-identical.

Group files are CSV with the header ``individual_id,group_id``.

Run files are self-contained single-line JSON: the config echo, the
stream as one columnar block, and the emitted orderings. The block holds the
query ids, timesteps and polarity vectors as JSON arrays, the sorted
individual ids, and the T x n relevance matrix as base64 of its
little-endian float64 bytes (row-major, columns in individual order), so
replay reads back every relevance value bit for bit without parsing text
floats. Evaluation replays a run exactly and checks each query's stored
nDCG and fallback flag against the replayed ordering. Indented run files
load the same way; run files whose stream is a list of stream lines (the
earlier layout) are rejected.

Report files are JSON with deterministic key order and every number
serialized at 12 significant digits; non-finite sentinels use the
``Infinity``/``NaN`` tokens (readable by Python's json module).
"""

import base64
import csv
import hashlib
import json
import math
import operator
import warnings
from pathlib import Path

import numpy as np

from .core import (
    Assignment,
    AttentionModel,
    Dataset,
    Ledger,
    QueryEvent,
    ideal_ranking,
    ndcg_at_k,
)
from .errors import (
    CoverageError,
    LengthMismatchError,
    ParseError,
    StreamOrderError,
    ValidationError,
)
from .rerank import RerankConfig, RunResult, validate_stream

STREAM_SUM_TOL = 1e-6
EXACT_SUM_TOL = 1e-9


def stream_line(query: QueryEvent) -> str:
    """Canonical one-line serialization of a query."""
    record = {
        "query_id": query.query_id,
        "t": query.t,
        "polarity": list(query.polarity),
        "relevance": {k: query.relevance[k] for k in sorted(query.relevance)},
    }
    return json.dumps(record, ensure_ascii=False)


def save_stream(path, stream) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for query in stream:
            fh.write(stream_line(query) + "\n")


def _number_types(values, what: str, lineno: int | None) -> set:
    """The types of ``values``; raises ParseError unless all are JSON numbers.

    JSON strings and booleans are not numbers (``bool`` is its own type, so
    ``true`` fails here although it is an ``int`` to ``isinstance``).
    """
    types = set(map(type, values))
    if not types <= {float, int}:
        bad = next(v for v in values if type(v) not in (float, int))
        raise ParseError(f"{what} value {bad!r} is not a number", lineno)
    return types


def _check_step(t, polarity, lineno: int | None, prefix: str = "") -> None:
    """Reject a timestep that is not an integer and a polarity that is not a
    non-empty array of numbers."""
    if type(t) is not int:
        raise ParseError(f"{prefix}timestep must be an integer, got {t!r}", lineno)
    if not isinstance(polarity, list) or not polarity:
        raise ParseError(f"{prefix}polarity must be a non-empty array", lineno)
    _number_types(polarity, f"{prefix}polarity", lineno)


def _parse_query(record: dict, lineno: int, raw: bool) -> QueryEvent:
    try:
        query_id = str(record["query_id"])
        t = record["t"]
        polarity = record["polarity"]
        values = record["relevance"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field ({exc})", lineno) from None
    _check_step(t, polarity, lineno)
    if not isinstance(values, dict) or not values:
        raise ParseError("relevance must be a non-empty object", lineno)
    # JSON object keys are strings already; only integer values need casting
    if int in _number_types(values.values(), "relevance", lineno):
        values = {k: float(v) for k, v in values.items()}
    total = math.fsum(values.values())
    if abs(total - 1.0) > STREAM_SUM_TOL:
        if not raw:
            raise ValidationError(
                f"line {lineno}: relevance sums to {total!r}; "
                "not normalized within 1e-6 (use raw mode to renormalize)"
            )
        warnings.warn(
            f"stream line {lineno}: renormalizing raw relevance (sum {total!r})",
            stacklevel=3,
        )
        values = {k: v / total for k, v in values.items()}
    elif abs(total - 1.0) > EXACT_SUM_TOL:
        # inside the file tolerance but outside the in-memory one
        values = {k: v / total for k, v in values.items()}
    return QueryEvent(query_id, t, tuple(polarity), values)


def load_stream(path, raw: bool = False) -> tuple[tuple[str, ...], list[QueryEvent]]:
    """Parse and validate a stream file.

    Returns the inferred individual set (sorted) and the query list. Raises
    ParseError (with line number, also for a repeated query id),
    StreamOrderError, ValidationError, or CoverageError when queries rank
    different individual sets.
    """
    path = Path(path)
    stream: list[QueryEvent] = []
    first: dict[str, float] | None = None
    seen_ids: set[str] = set()
    prev_t = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            query = _parse_query(record, lineno, raw)
            if query.query_id in seen_ids:
                raise ParseError(f"duplicate query_id {query.query_id!r}", lineno)
            seen_ids.add(query.query_id)
            if query.t <= prev_t:
                raise StreamOrderError(
                    f"line {lineno}: timestep {query.t} not greater than {prev_t}"
                )
            prev_t = query.t
            if first is None:
                first = query.relevance
            elif query.relevance.keys() != first.keys():
                raise CoverageError(
                    f"line {lineno}: query {query.query_id!r} ranks a different "
                    "individual set than earlier queries"
                )
            stream.append(query)
    if not stream:
        raise ValidationError(f"stream file {path} contains no queries")
    return tuple(sorted(first)), stream


def save_groups(path, dataset: Dataset) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["individual_id", "group_id"])
        for ind in dataset.individuals:
            writer.writerow([ind, dataset.group_of[ind]])


def load_groups(path) -> dict[str, str]:
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["individual_id", "group_id"]:
            raise ParseError(
                f"groups file must start with header 'individual_id,group_id', got {header}",
                1,
            )
        group_of: dict[str, str] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected two columns, got {len(row)}", lineno)
            ind, group = row[0].strip(), row[1].strip()
            if ind in group_of:
                raise ParseError(f"duplicate individual {ind!r}", lineno)
            group_of[ind] = group
    if not group_of:
        raise ValidationError(f"groups file {path} contains no rows")
    return group_of


def build_dataset(individuals, group_of: dict[str, str] | None) -> Dataset:
    """Combine a stream's individual set with an optional group map."""
    if group_of is None:
        return Dataset.single_group(individuals)
    missing = [i for i in individuals if i not in group_of]
    if missing:
        raise ValidationError(
            f"groups file misses {len(missing)} individual(s), e.g. {missing[:3]}"
        )
    return Dataset(tuple(individuals), {i: group_of[i] for i in individuals})


def split_by_query_id(stream, fraction: float = 0.5, salt: str = ""):
    """Deterministic tuning/test split by hashing query identifiers.

    A query lands in the first (tuning) part when the leading 8 bytes of
    sha256(salt + ":" + query_id) fall below ``fraction`` of the hash range;
    both parts keep their original timesteps (still strictly increasing).
    No tuning protocol is prescribed on top of this.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"split fraction must be in [0, 1], got {fraction}")
    threshold = int(fraction * 2**64)
    tuning, test = [], []
    for query in stream:
        digest = hashlib.sha256(f"{salt}:{query.query_id}".encode()).digest()
        bucket = int.from_bytes(digest[:8], "big")
        (tuning if bucket < threshold else test).append(query)
    return tuning, test


# -- reports -------------------------------------------------------------------


def _round_floats(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return obj
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: 12-significant-digit floats, 2-space indent."""
    return json.dumps(_round_floats(obj), indent=2, ensure_ascii=False)


def save_report(path, report_dict: dict) -> None:
    Path(path).write_text(canonical_json(report_dict) + "\n", encoding="utf-8")


# -- run files -------------------------------------------------------------------

_BLOCK_KEYS = ("query_ids", "t", "polarity", "individuals", "relevance")


def _encode_stream(stream) -> dict:
    """The stream as one columnar block.

    Relevance is the T x n matrix (rows in stream order, columns in
    ``individuals`` order) as base64 of its little-endian float64 bytes, so
    every value, ``-0.0`` and subnormals included, comes back bit for bit.
    """
    if not stream:
        raise ValidationError("empty query stream")
    keys = stream[0].relevance.keys()
    individuals = sorted(keys)
    gather = operator.itemgetter(*individuals)
    matrix = np.empty((len(stream), len(individuals)), dtype="<f8")
    for row, query in enumerate(stream):
        if query.relevance.keys() != keys:
            query.validate_coverage(individuals)
        matrix[row] = gather(query.relevance)
    return {
        "query_ids": [q.query_id for q in stream],
        "t": [q.t for q in stream],
        "polarity": [list(q.polarity) for q in stream],
        "individuals": individuals,
        "relevance": base64.b64encode(matrix.tobytes()).decode("ascii"),
    }


def _decode_stream(block) -> tuple[list[str], list[QueryEvent], np.ndarray]:
    """Individuals, queries and the (T, n) relevance matrix of a block
    written by ``_encode_stream``.

    Each query goes through ``QueryEvent``'s checks; order, coverage and
    polarity arity are left to ``rerank.validate_stream``.
    """
    if isinstance(block, list):
        raise ValidationError(
            "run file was written by an earlier version (stream lines); "
            "re-run `fairrank rank`"
        )
    if not isinstance(block, dict):
        raise ValidationError("run file stream must be an object")
    missing = [key for key in _BLOCK_KEYS if key not in block]
    if missing:
        raise ValidationError(f"run file stream block is missing {missing[0]!r}")
    query_ids, ts, polarity, individuals, encoded = map(block.__getitem__, _BLOCK_KEYS)
    if not all(isinstance(c, list) for c in (query_ids, ts, polarity, individuals)):
        raise ValidationError("run file stream block columns must be arrays")
    if not len(query_ids) == len(ts) == len(polarity):
        raise LengthMismatchError(
            f"run file stream block has {len(query_ids)} query ids, {len(ts)} "
            f"timesteps and {len(polarity)} polarity vectors"
        )
    if not individuals or not all(type(i) is str for i in individuals):
        raise ValidationError("run file stream block needs a non-empty list of ids")
    if len(set(individuals)) != len(individuals):
        raise ValidationError("run file stream block repeats an individual")
    try:
        data = base64.b64decode(encoded, validate=True)
    except (TypeError, ValueError):
        raise ParseError("run file relevance block is not valid base64") from None
    shape = (len(query_ids), len(individuals))
    if len(data) != 8 * shape[0] * shape[1]:
        raise ValidationError(
            f"run file relevance block has {len(data)} bytes, "
            f"expected 8 x {shape[0]} queries x {shape[1]} individuals"
        )
    relevance = np.frombuffer(data, dtype="<f8").reshape(shape)
    stream = []
    for query_id, t, eta, row in zip(query_ids, ts, polarity, relevance.tolist()):
        _check_step(t, eta, None, f"run file query {query_id!r}: ")
        stream.append(QueryEvent(str(query_id), t, tuple(eta), dict(zip(individuals, row))))
    return individuals, stream, relevance


_RUN_KEYS = (
    "config", "stream", "query_ids", "orderings", "ndcg", "fallback", "objective_trace", "sweeps"
)


def save_run(path, result: RunResult, stream) -> None:
    """Self-contained run file: config echo, the stream as one columnar block
    (relevance as exact float64 bytes, see ``_encode_stream``), and the
    emitted orderings with their nDCG, fallback flags and objective trace.

    Written as one compact line (no indent, so the C encoder serializes it).
    """
    payload = {
        "config": result.config.to_dict(),
        "stream": _encode_stream(stream),
        "query_ids": list(result.query_ids),
        "orderings": [list(a.ordering) for a in result.assignments],
        "ndcg": list(result.ndcg),
        "fallback": [bool(f) for f in result.fallback],
        "objective_trace": list(result.objective_trace),
        "sweeps": result.sweeps,
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")


def load_run(path) -> dict:
    """A run file's payload; raises ValidationError unless it carries every
    key ``save_run`` writes."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"run file is not valid JSON ({exc.msg})") from None
    for key in _RUN_KEYS:
        if key not in payload:
            raise ValidationError(f"run file {path} is missing {key!r}")
    return payload


def replay_run(payload: dict, group_of: dict[str, str] | None = None) -> RunResult:
    """Rebuild a RunResult (ledger included) from a saved run file.

    The stream block is decoded straight into arrays; a run file whose
    stream is the older list of stream lines raises ValidationError. Raises
    LengthMismatchError when a per-query list (orderings, fallback flags,
    nDCG, objective trace, query ids, or a column of the stream block) is not
    one entry per query, and ValidationError when the stream block is
    malformed, an ordering is not a permutation of the stream's individuals,
    a stored nDCG differs from the one its ordering gives, a step flagged
    as a fallback does not carry the ideal ordering, or the config echo does
    not have exactly the keys ``RerankConfig.to_dict`` writes.
    """
    fields = RerankConfig().to_dict().keys()
    if not isinstance(payload["config"], dict) or payload["config"].keys() != fields:
        raise ValidationError(
            f"run file config echo must have exactly the keys {sorted(fields)}; "
            "re-run `fairrank rank` to rewrite it"
        )
    config = RerankConfig(**payload["config"])
    individuals, stream, relevance = _decode_stream(payload["stream"])
    for key in ("orderings", "fallback", "ndcg", "objective_trace", "query_ids"):
        if len(payload[key]) != len(stream):
            raise LengthMismatchError(
                f"run file has {len(payload[key])} {key} entries "
                f"for {len(stream)} queries"
            )
    dataset = build_dataset(tuple(sorted(individuals)), group_of)
    validate_stream(dataset, stream)
    attention = AttentionModel(config.k_att)
    ledger = Ledger(dataset, stream[0].components)
    # map each ordering onto the dataset's own id strings, not fresh copies
    own_id = {ind: ind for ind in dataset.individuals}
    stored_ndcg = payload["ndcg"]
    # the ideal DCG needs only each query's k_eval largest relevance values,
    # in descending order; which of equal values comes first cannot change it
    n = len(individuals)
    k = min(config.k_eval, n)
    top = np.argpartition(relevance, n - k, axis=1)[:, n - k :]
    top = np.take_along_axis(
        top, np.argsort(-np.take_along_axis(relevance, top, axis=1), axis=1), axis=1
    )
    ideal_heads = [[individuals[i] for i in row] for row in top.tolist()]
    del relevance, top  # the decoded block is not kept while the ledger grows
    assignments = []
    for step0, (query, ordering) in enumerate(zip(stream, payload["orderings"])):
        try:
            assignment = Assignment(tuple(map(own_id.__getitem__, ordering)))
        except (KeyError, TypeError):
            raise ValidationError(
                f"run file query {query.query_id!r}: ordering ranks an unknown individual"
            ) from None
        ledger.update(query, assignment, attention)
        assignments.append(assignment)
        if payload["fallback"][step0] and assignment.ordering != ideal_ranking(query):
            raise ValidationError(
                f"run file query {query.query_id!r}: flagged as a fallback "
                "but not ranked in the ideal order"
            )
        if stored_ndcg[step0] != ndcg_at_k(
            assignment.ordering, ideal_heads[step0], query.relevance, config.k_eval
        ):
            raise ValidationError(
                f"run file query {query.query_id!r}: stored nDCG "
                f"{stored_ndcg[step0]!r} does not match its ordering"
            )
    return RunResult(
        config=config,
        query_ids=list(payload["query_ids"]),
        assignments=assignments,
        ndcg=[float(x) for x in stored_ndcg],
        fallback=[bool(f) for f in payload["fallback"]],
        objective_trace=[
            math.nan if x is None else float(x) for x in payload["objective_trace"]
        ],
        ledger=ledger,
        sweeps=int(payload["sweeps"]),
    )
