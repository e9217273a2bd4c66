"""File formats: query streams, group maps, run files, and reports.

Stream files are UTF-8 JSON lines, one query per line::

    {"query_id": "q0001", "t": 1, "polarity": [1.0], "relevance": {"a": 0.5, ...}}

Timesteps must be strictly increasing integers that fit in int64; every
query must rank the same set of individuals; relevance must be normalized
within 1e-6 (pass ``raw=True`` to renormalize arbitrary non-negative scores
with a warning). Serialization is canonical (fixed key order, relevance keys
sorted, shortest round-trip floats), so ``generate -> load -> save`` is
byte-identical.

Each line is parsed by ``orjson``. A line it rejects (``NaN``/``Infinity``
tokens, a literal past the float range such as ``1e400``, a lone-surrogate
escape, a BOM), or one it reads as no valid query (not an object, a
non-string query id, a timestep that is not an integer: ``orjson`` reads
an integer literal past 64 bits as a float), is parsed again by the stdlib
``json`` module, whose value then meets the same checks (or whose error
becomes the ParseError), so such lines load or fail exactly as with the
stdlib alone. A valid line is parsed once. One difference remains: a
relevance or polarity integer literal past 64 bits reaches the checks as
the float it rounds to, so a raw-mode negative-score error prints that
float; the loaded ``Stream`` is the same.

Group files are CSV with the header ``individual_id,group_id``.

Streams load into and save from a ``core.Stream``, the package's only
in-memory stream: every line's relevance values go into one (T, n) matrix,
with no per-query object. Query ids must be JSON strings.

Run files are self-contained: one JSON header line, then two raw binary
blocks. The header is ASCII-only JSON (non-ASCII ids escaped, so its first
newline ends it), padded with spaces so the body starts at a multiple of 8
bytes; ``head -n 1 run.json`` is the run's metadata. It holds the layout
name (``format``), the config echo, the stream block (query ids, timesteps,
polarity vectors and the sorted individual ids), the query ids, nDCG,
fallback flags, objective trace and sweep count. With T query ids and n
individuals, the body is the T x n relevance matrix as little-endian
float64 (row-major, columns in individual order), so replay reads back
every value bit for bit, then the T x n orderings as little-endian int32
positions into the individuals, row ``s`` ranking step ``s`` best first:
12 x T x n bytes, nothing after. ``load_run`` views both blocks in the
file's bytes without copying. Evaluation replays a run exactly: it checks
each row is a permutation and each query's stored nDCG and fallback flag
against it, and fills the ledger in one write. Run files of earlier
versions (one JSON document, compact or indented) are rejected.

Report files are JSON with deterministic key order and every number
serialized at 12 significant digits; non-finite sentinels use the
``Infinity``/``NaN`` tokens (readable by Python's json module).
"""

import csv
import hashlib
import json
import math
import sys
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import orjson

from .core import (
    AttentionModel, Dataset, Ledger, Stream, _dcg_rows, _fsum, _ndcg_rows, ideal_order
)
from .errors import (
    CoverageError,
    LengthMismatchError,
    ParseError,
    StreamOrderError,
    ValidationError,
)
from .rerank import RerankConfig, RunResult

STREAM_SUM_TOL = 1e-6
EXACT_SUM_TOL = 1e-9
_INT64_MAX = 2**63 - 1


def _write_text(path, text: str, ids) -> None:
    """Write ``text`` as UTF-8, every byte built before the file is opened,
    so a save that raises leaves an existing file as it was. Raises
    ValidationError naming the first of ``ids`` that has no UTF-8 form (a
    lone surrogate, which a JSON stream line can spell as ``"\\ud800"``)."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        for ident in ids:
            try:
                ident.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"id {ident!r} is not valid UTF-8 text") from None
        raise
    Path(path).write_bytes(data)


def save_stream(path, stream: Stream) -> None:
    """Write a ``Stream`` one canonical line per query."""
    lines = []
    for query_id, t, polarity, row in zip(
        stream.query_ids, stream.t.tolist(), stream.polarity.tolist(), stream.relevance.tolist()
    ):
        relevance = dict(zip(stream.individuals, row))
        record = {"query_id": query_id, "t": t, "polarity": polarity, "relevance": relevance}
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    _write_text(path, "".join(lines), stream.query_ids + stream.individuals)


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


def _parse_json(line: str, lineno: int):
    """One stream line's JSON value: ``orjson``'s, unless it rejects the line
    or reads it as no valid query, in which case the stdlib's value or its
    error as a ParseError (see the module docstring)."""
    try:
        record = orjson.loads(line)
    except orjson.JSONDecodeError:
        pass
    else:
        if (
            type(record) is dict
            and type(record.get("t")) is int
            and type(record.get("query_id")) is str
        ):
            return record
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None


def _parse_line(record, lineno: int):
    """The query id, timestep, polarity and relevance object of one line,
    with the query id, timestep and polarity type-checked."""
    try:
        query_id = record["query_id"]
        t = record["t"]
        polarity = record["polarity"]
        values = record["relevance"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field ({exc})", lineno) from None
    if type(query_id) is not str:
        raise ParseError(f"query_id must be a string, got {query_id!r}", lineno)
    _check_step(t, polarity, lineno)
    if not isinstance(values, dict) or not values:
        raise ParseError("relevance must be a non-empty object", lineno)
    return query_id, t, polarity, values


def _check_raw(values: dict, total: float, lineno: int) -> None:
    """Raw scores must be non-negative with a positive, finite sum."""
    if not min(values.values()) >= 0:
        for ind, score in values.items():
            if score < 0:
                raise ParseError(f"negative relevance score {score!r} for {ind!r}", lineno)
    if total == 0.0:
        raise ParseError("all relevance scores are zero; nothing to renormalize", lineno)
    if not math.isfinite(total):
        raise ParseError(f"relevance scores sum to {total!r}; cannot renormalize", lineno)


def load_stream(path, raw: bool = False) -> tuple[tuple[str, ...], Stream]:
    """Parse and validate a stream file.

    Returns the inferred individual set (sorted) and the ``Stream``: every
    line's values are gathered into one list, in the first line's key order,
    and converted to the relevance matrix once. Raises ParseError (with line
    number, also for a query id that is not a string or repeats and, in raw
    mode, for a negative score or a sum that is zero or not finite),
    StreamOrderError, ValidationError, CoverageError when queries rank
    different individual sets, or LengthMismatchError when their polarity
    vectors differ in length.
    """
    path = Path(path)
    query_ids, ts, polarity = [], [], []
    values_flat: list = []  # every line's values, one row after another
    rescale: list[tuple[int, float]] = []  # (row, sum) of rows to renormalize
    order = keys = components = None
    seen_ids: set[str] = set()
    prev_t = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            query_id, t, eta, values = _parse_line(_parse_json(line, lineno), lineno)
            if t < 1:
                raise ValidationError(f"line {lineno}: timestep must be >= 1, got {t}")
            if t > _INT64_MAX:
                raise ValidationError(f"line {lineno}: timestep {t} does not fit in int64")
            if query_id in seen_ids:
                raise ParseError(f"duplicate query_id {query_id!r}", lineno)
            seen_ids.add(query_id)
            if t <= prev_t:
                raise StreamOrderError(f"line {lineno}: timestep {t} not greater than {prev_t}")
            prev_t = t
            # rows hold the first line's key order; the columns are sorted once
            # at the end, and a line listing its keys in that order is read as is
            line_order = tuple(values)
            if order is None:
                order, keys, components = line_order, values.keys(), len(eta)
            same_order = line_order == order
            if not same_order and values.keys() != keys:
                raise CoverageError(
                    f"line {lineno}: query {query_id!r} ranks a different "
                    "individual set than earlier queries"
                )
            if len(eta) != components:
                raise LengthMismatchError(
                    f"line {lineno}: query {query_id!r} has {len(eta)} polarity "
                    f"component(s), expected {components}"
                )
            _number_types(values.values(), "relevance", lineno)
            values_flat.extend(values.values() if same_order else map(values.__getitem__, order))
            total = _fsum(values.values())
            if raw:
                _check_raw(values, total, lineno)
            if abs(total - 1.0) > STREAM_SUM_TOL:
                if not raw:
                    raise ValidationError(
                        f"line {lineno}: relevance sums to {total!r}; "
                        "not normalized within 1e-6 (use raw mode to renormalize)"
                    )
                warnings.warn(
                    f"stream line {lineno}: renormalizing raw relevance (sum {total!r})",
                    stacklevel=2,
                )
                rescale.append((len(query_ids), total))
            elif abs(total - 1.0) > EXACT_SUM_TOL:
                # inside the file tolerance but outside the in-memory one
                rescale.append((len(query_ids), total))
            query_ids.append(query_id)
            ts.append(t)
            polarity.append(eta)
    if not query_ids:
        raise ValidationError(f"stream file {path} contains no queries")
    individuals = tuple(sorted(order))
    # a value past the float range has already failed its line's sum check
    relevance = np.array(values_flat, dtype=np.float64).reshape(len(query_ids), -1)
    for row, total in rescale:
        relevance[row] /= total
    if individuals != order:
        relevance = relevance[:, sorted(range(len(order)), key=order.__getitem__)]
    return individuals, Stream(query_ids, ts, polarity, individuals, relevance)


def save_groups(path, dataset: Dataset) -> None:
    text = StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["individual_id", "group_id"])
    for ind in dataset.individuals:
        writer.writerow([ind, dataset.group_of[ind]])
    _write_text(path, text.getvalue(), dataset.individuals + tuple(dataset.groups))


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


def split_by_query_id(stream: Stream, fraction: float = 0.5, salt: str = ""):
    """Deterministic tuning/test split by hashing query identifiers.

    A query lands in the first (tuning) part when the leading 8 bytes of
    sha256(salt + ":" + query_id) fall below ``fraction`` of the hash range.
    Returns the two parts as ``Stream``s, ``None`` for an empty one; both
    keep their original timesteps (still strictly increasing). No tuning
    protocol is prescribed on top of this.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"split fraction must be in [0, 1], got {fraction}")
    threshold = int(fraction * 2**64)
    tuning = np.array([
        int.from_bytes(hashlib.sha256(f"{salt}:{q}".encode()).digest()[:8], "big") < threshold
        for q in stream.query_ids
    ])

    def part(keep: np.ndarray) -> Stream | None:
        if not keep.any():
            return None
        return Stream(
            [q for q, k in zip(stream.query_ids, keep.tolist()) if k],
            stream.t[keep],
            stream.polarity[keep],
            stream.individuals,
            stream.relevance[keep],
        )

    return part(tuning), part(~tuning)


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

RUN_FORMAT = "fairrank-run/json-header+blocks"
_HEADER_KEYS = ("config", "stream", "query_ids", "ndcg", "fallback", "objective_trace", "sweeps")
_BLOCK_KEYS = ("query_ids", "t", "polarity", "individuals", "relevance")


def _block(value, what: str, dtype: str, shape: tuple[int, int]) -> np.ndarray:
    """``value``, a block as ``load_run`` reads it; raises ValidationError
    unless it is a ``shape`` array of ``dtype``."""
    if isinstance(value, np.ndarray) and value.dtype == dtype and value.shape == shape:
        return value
    got = f"{value.dtype} {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
    raise ValidationError(
        f"run file {what} block is {got}, expected {np.dtype(dtype).name} "
        f"{shape[0]} queries x {shape[1]} individuals"
    )


def _decode_stream(block) -> Stream:
    """The ``Stream`` of a run file's stream block; the Stream checks values,
    order and coverage."""
    if not isinstance(block, dict):
        raise ValidationError("run file stream must be an object")
    missing = [key for key in _BLOCK_KEYS if key not in block]
    if missing:
        raise ValidationError(f"run file stream block is missing {missing[0]!r}")
    query_ids, ts, polarity, individuals, relevance = map(block.__getitem__, _BLOCK_KEYS)
    if not all(isinstance(c, list) for c in (query_ids, ts, polarity, individuals)):
        raise ValidationError("run file stream block columns must be arrays")
    if not all(type(q) is str for q in query_ids):
        raise ValidationError("run file stream block query ids must be strings")
    if not len(query_ids) == len(ts) == len(polarity):
        raise LengthMismatchError(
            f"run file stream block has {len(query_ids)} query ids, {len(ts)} "
            f"timesteps and {len(polarity)} polarity vectors"
        )
    if not individuals or not all(type(i) is str for i in individuals):
        raise ValidationError("run file stream block needs a non-empty list of ids")
    if len(set(individuals)) != len(individuals):
        raise ValidationError("run file stream block repeats an individual")
    relevance = _block(relevance, "relevance", "<f8", (len(query_ids), len(individuals)))
    for query_id, t, eta in zip(query_ids, ts, polarity):
        _check_step(t, eta, None, f"run file query {query_id!r}: ")
        if not -_INT64_MAX - 1 <= t <= _INT64_MAX:
            raise ValidationError(
                f"run file query {query_id!r}: timestep {t} does not fit in int64"
            )
        if len(eta) != len(polarity[0]):
            raise LengthMismatchError(
                f"run file query {query_id!r} has {len(eta)} polarity "
                f"component(s), expected {len(polarity[0])}"
            )
    return Stream(query_ids, ts, polarity, individuals, relevance)


def _decode_orderings(positions, stream: Stream) -> np.ndarray:
    """The (T, n) orderings of a run file as positions into the stream's
    individuals; raises ValidationError, naming the first query whose row is
    not a permutation (a row sorts to 0..n-1 exactly when it is one)."""
    T, n = stream.relevance.shape
    positions = _block(positions, "orderings", "<i4", (T, n))
    bad = (np.sort(positions, axis=1) != np.arange(n)).any(axis=1)
    if bad.any():
        step = int(np.argmax(bad))
        row = positions[step]
        problem = (
            f"holds a position outside 0..{n - 1}"
            if ((row < 0) | (row >= n)).any()
            else "repeats a position"
        )
        raise ValidationError(f"run file query {stream.query_ids[step]!r}: ordering {problem}")
    return positions


def save_run(path, result: RunResult, stream: Stream) -> None:
    """Write a self-contained run file in the layout the module docstring
    describes: the header line (``format``, config echo, stream block
    without its relevance, query ids, nDCG, fallback flags, objective trace
    and sweeps), then the relevance and the orderings blocks, the orderings
    as positions into the stream's sorted individuals. Every byte is built
    before the file is opened, so a save that raises leaves an existing file
    as it was.
    """
    dataset = result.ledger.dataset
    if dataset.individuals == stream.individuals:
        positions = result.orderings  # dataset rows are already positions
    else:
        positions = stream.columns(dataset)[result.orderings]
    header = {
        "format": RUN_FORMAT,
        "config": result.config.to_dict(),
        "stream": {
            "query_ids": list(stream.query_ids),
            "t": stream.t.tolist(),
            "polarity": stream.polarity.tolist(),
            "individuals": list(stream.individuals),
        },
        "query_ids": list(result.query_ids),
        "ndcg": list(result.ndcg),
        "fallback": [bool(f) for f in result.fallback],
        "objective_trace": list(result.objective_trace),
        "sweeps": result.sweeps,
    }
    line = json.dumps(header).encode("ascii")
    line += b" " * (-(len(line) + 1) % 8) + b"\n"
    blocks = (line, np.ascontiguousarray(stream.relevance, "<f8"), positions.astype("<i4"))
    with Path(path).open("wb") as fh:
        fh.writelines(blocks)


def load_run(path) -> dict:
    """A run file's payload: the header's keys, with the stream block's
    ``relevance`` and the ``orderings`` as read-only (T, n) arrays viewing
    the file's bytes (T query ids and n individuals, both from the header).

    Raises ParseError when the file has no newline or its first line is not
    a JSON object, and ValidationError when the header lacks a key
    ``save_run`` writes, names another layout (run files of earlier
    versions are one JSON document: re-run ``fairrank rank``), or the body
    is not exactly 12 x T x n bytes.
    """
    path = Path(path)
    data = path.read_bytes()
    end = data.find(b"\n")
    if end < 0:
        raise ParseError(f"run file {path} has no header line")
    try:
        payload = json.loads(data[:end])
    except ValueError as exc:
        # an indented JSON document (an earlier layout) opens with a lone brace
        if data[:end].strip() != b"{":
            raise ParseError(f"run file {path} header is not valid JSON ({exc})") from None
        payload = {}
    if not isinstance(payload, dict):
        raise ParseError(f"run file {path} header must be a JSON object")
    layout = payload.pop("format", None)
    if layout != RUN_FORMAT:
        raise ValidationError(
            f"run file {path} has 'format' {layout!r}, not {RUN_FORMAT!r} (earlier "
            "versions wrote one JSON document); re-run `fairrank rank`"
        )
    for key in _HEADER_KEYS:
        if key not in payload:
            raise ValidationError(f"run file {path} is missing {key!r}")
    block = payload["stream"]
    if not isinstance(block, dict):
        raise ValidationError(f"run file {path} stream must be an object")
    for key in ("query_ids", "individuals"):
        if not isinstance(block.get(key), list):
            raise ValidationError(f"run file {path} stream block needs a {key!r} array")
    T, n = len(block["query_ids"]), len(block["individuals"])
    body, start = len(data) - end - 1, end + 1
    if body != 12 * T * n:
        raise ValidationError(
            f"run file {path} body has {body} bytes, expected {12 * T * n} "
            f"(12 x {T} queries x {n} individuals)"
        )
    block["relevance"] = np.frombuffer(data, "<f8", T * n, start).reshape(T, n)
    payload["orderings"] = np.frombuffer(data, "<i4", T * n, start + 8 * T * n).reshape(T, n)
    return payload


def _replay_config(echo) -> RerankConfig:
    """The config of a run file's echo; raises ValidationError unless it has
    exactly the keys ``RerankConfig.to_dict`` writes, each of the JSON type of
    its default (a float may be written as an integer, and ``bool`` is not
    an integer here), and valid values."""
    defaults = RerankConfig().to_dict()
    if not isinstance(echo, dict) or echo.keys() != defaults.keys():
        raise ValidationError(
            f"run file config echo must have exactly the keys {sorted(defaults)}; "
            "re-run `fairrank rank` to rewrite it"
        )
    for key, default in defaults.items():
        types = (float, int) if type(default) is float else (type(default),)
        if type(echo[key]) not in types:
            raise ValidationError(
                f"run file config echo: {key} is {echo[key]!r}, "
                f"expected {' or '.join(t.__name__ for t in types)}"
            )
    return RerankConfig(**echo)


def replay_run(payload: dict, group_of: dict[str, str] | None = None) -> RunResult:
    """Rebuild a RunResult (ledger included) from a ``load_run`` payload.

    The relevance and orderings arrays are checked with array operations
    and used as they are, and the ledger is filled in one write. Raises
    LengthMismatchError when a per-query list (fallback flags, nDCG,
    objective trace, query ids, or a column of the stream block) is not one
    entry per query, and ValidationError when the stream block is malformed,
    a block is not a T x n array of its dtype (little-endian float64
    relevance, int32 orderings), the query ids differ from the stream
    block's, a value has the wrong JSON type (see ``_replay_config`` for the
    config echo), an ordering is not a permutation, a stored nDCG differs
    from the one its ordering gives, a step flagged as a fallback does
    not carry the ideal ordering, or the objective trace is not NaN exactly
    on the fallback steps (every step when the objective is ``none``) and a
    finite number >= 0 elsewhere.
    """
    config = _replay_config(payload["config"])
    stream = _decode_stream(payload["stream"])
    T = len(stream)
    for key in ("fallback", "ndcg", "objective_trace", "query_ids"):
        if not isinstance(payload[key], list):
            raise ValidationError(f"run file {key} must be an array")
        if len(payload[key]) != T:
            raise LengthMismatchError(
                f"run file has {len(payload[key])} {key} entries for {T} queries"
            )
    if payload["query_ids"] != list(stream.query_ids):
        raise ValidationError("run file query_ids differ from its stream block's")
    if not all(type(f) is bool for f in payload["fallback"]):
        raise ValidationError("run file fallback flags must be true or false")
    _number_types(payload["ndcg"], "run file ndcg", None)
    trace = [math.nan if x is None else x for x in payload["objective_trace"]]
    _number_types(trace, "run file objective_trace", None)
    if type(payload["sweeps"]) is not int or payload["sweeps"] < 0:
        raise ValidationError(
            f"run file sweeps must be a non-negative integer, got {payload['sweeps']!r}"
        )
    # the dataset lists the block's (sorted) individuals in order, so the
    # stored positions are dataset rows and relevance rows are in dataset order
    orderings = _decode_orderings(payload["orderings"], stream)
    dataset = build_dataset(stream.individuals, group_of)
    relevance = stream.relevance
    for step in np.flatnonzero(payload["fallback"]).tolist():
        if not np.array_equal(orderings[step], ideal_order(dataset.id_order, relevance[step])):
            raise ValidationError(
                f"run file query {stream.query_ids[step]!r}: "
                "flagged as a fallback but not ranked in the ideal order"
            )
    # NaN exactly on the steps that solved no matching, a float >= 0
    # elsewhere (compared in Python, so a huge int is not read as finite)
    unsolved = payload["fallback"] if config.objective != "none" else [True] * T
    for query_id, value, no_match in zip(stream.query_ids, trace, unsolved):
        if no_match != (value != value) or not (no_match or 0 <= value <= sys.float_info.max):
            want = "NaN" if no_match else "a finite number >= 0"
            raise ValidationError(
                f"run file query {query_id!r}: objective trace {value!r}, expected {want}"
            )
    # the ideal DCG needs only each query's k_eval largest relevance values,
    # in descending order; which of equal values comes first cannot change it
    n = len(stream.individuals)
    k = min(config.k_eval, n)
    ideal_heads = np.sort(np.partition(relevance, n - k, axis=1)[:, n - k :], axis=1)[:, ::-1]
    heads = np.take_along_axis(relevance, orderings[:, :k], axis=1)
    ndcg = _ndcg_rows(heads, _dcg_rows(ideal_heads)).tolist()
    # compared in Python, so an int or a huge int entry compares exactly
    for query_id, stored, value in zip(stream.query_ids, payload["ndcg"], ndcg):
        if stored != value:
            raise ValidationError(
                f"run file query {query_id!r}: stored nDCG {stored!r} "
                "does not match its ordering"
            )
    attention = AttentionModel(config.k_att)
    ledger = Ledger(dataset, stream)
    ledger._fill(orderings, attention)
    return RunResult(
        config=config,
        query_ids=list(payload["query_ids"]),
        orderings=orderings,
        ndcg=[float(x) for x in payload["ndcg"]],
        fallback=list(payload["fallback"]),
        objective_trace=[float(x) for x in trace],
        ledger=ledger,
        sweeps=payload["sweeps"],
    )
