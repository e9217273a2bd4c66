"""The columnar query stream: construction, access, and its boundary checks."""

import json
import math

import numpy as np
import pytest

from fairrank import io as fio
from fairrank.core import AttentionModel, Dataset, Ledger, Stream
from fairrank.errors import (
    CoverageError,
    LengthMismatchError,
    ParseError,
    StreamOrderError,
    ValidationError,
)
from fairrank.rerank import RerankConfig, rerank_online
from fairrank.synth import SynthSpec, gen_random_instance, gen_synth_cont

IDS = ("a", "b", "c")


def _records():
    """Three valid stream lines as dicts."""
    values = [(0.5, 0.3, 0.2), (0.25, 0.25, 0.5), (0.0, 0.75, 0.25)]
    return [
        {"query_id": f"q{t}", "t": t, "polarity": [1.0 if t % 2 else -1.0],
         "relevance": dict(zip(IDS, row))}
        for t, row in enumerate(values, start=1)
    ]


def _sum_edge(tol: float) -> float:
    """The largest float whose distance from 1.0 is at most ``tol``."""
    return 1.0 + math.floor(tol / 2.0**-52) * 2.0**-52


def _summing_to(total: float) -> dict:
    # 0.5 + 0.25 + (total - 0.75) is exact, so fsum gives ``total`` itself
    return {"a": 0.5, "b": 0.25, "c": total - 0.75}


def _set(key, value, step=1):
    def edit(records):
        records[step][key] = value
    return edit


def _relevance(**values):
    def edit(records):
        records[1]["relevance"].update(values)
    return edit


def _drop_c(records):
    rel = records[1]["relevance"]
    rel["b"] += rel.pop("c")


MEMORY_EDGE = _sum_edge(1e-9)
FILE_EDGE = _sum_edge(1e-6)

# (edit, error in memory, error from a stream file, expressible as columns);
# None accepts. A query with another individual set or polarity arity cannot
# be put in one Stream, so only files are checked for those.
CASES = {
    "nan-relevance": (_relevance(b=math.nan), ValidationError, ValidationError, True),
    "inf-relevance": (_relevance(b=math.inf), ValidationError, ValidationError, True),
    "negative-relevance": (_relevance(a=0.45, b=-0.2, c=0.75), ValidationError, ValidationError, True),
    "sum-at-memory-tolerance": (_set("relevance", _summing_to(MEMORY_EDGE)), None, None, True),
    "sum-past-memory-tolerance": (
        _set("relevance", _summing_to(math.nextafter(MEMORY_EDGE, 2.0))), ValidationError, None, True
    ),
    "sum-at-file-tolerance": (_set("relevance", _summing_to(FILE_EDGE)), ValidationError, None, True),
    "sum-past-file-tolerance": (
        _set("relevance", _summing_to(math.nextafter(FILE_EDGE, 2.0))),
        ValidationError, ValidationError, True,
    ),
    "repeated-timestep": (_set("t", 1), StreamOrderError, StreamOrderError, True),
    "decreasing-timestep": (_set("t", 4), StreamOrderError, StreamOrderError, True),
    "timestep-zero": (_set("t", 0, step=0), ValidationError, ValidationError, True),
    "coverage": (_drop_c, CoverageError, CoverageError, False),
    "arity": (_set("polarity", [1.0, -1.0]), LengthMismatchError, LengthMismatchError, False),
    "nan-polarity": (_set("polarity", [math.nan]), ValidationError, ValidationError, True),
    "inf-polarity": (_set("polarity", [-math.inf]), ValidationError, ValidationError, True),
    "empty-polarity": (_set("polarity", []), ValidationError, ParseError, False),
}


def _check(error, build):
    """``build()`` raises exactly ``error``, or returns when it is None."""
    if error is None:
        return build()
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_rejects_what_queries_and_files_rejected(case, tmp_path):
    edit, memory_error, file_error, columnar = CASES[case]
    records = _records()
    edit(records)
    dataset = Dataset.single_group(IDS)
    if columnar:
        _check(memory_error, lambda: Stream(
            [r["query_id"] for r in records],
            [r["t"] for r in records],
            [r["polarity"] for r in records],
            IDS,
            [[r["relevance"][i] for i in IDS] for r in records],
        ))
    path = tmp_path / "stream.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    loaded = _check(file_error, lambda: fio.load_stream(path)[1])
    if file_error is None:
        assert loaded.relevance_in(dataset) is loaded.relevance and loaded.components == 1


class TestStream:
    @pytest.fixture()
    def stream(self):
        return gen_random_instance(6, 2, 5, "signed", seed=3, components=2)[1]

    def test_generated_columns_are_sorted_by_id(self):
        dataset, stream = gen_synth_cont(SynthSpec(variant="continuous", n=8, T=4, seed=2))
        assert stream.individuals == tuple(sorted(dataset.individuals))
        assert stream.query_ids == ("q0001", "q0002", "q0003", "q0004")
        assert stream.t.tolist() == [1, 2, 3, 4] and stream.t.dtype == np.int64
        # the relevance in dataset order, whose ids are not sorted here
        in_dataset = stream.relevance_in(dataset)
        for j, ind in enumerate(dataset.individuals):
            column = stream.relevance[:, stream.individuals.index(ind)]
            assert in_dataset[:, j].tobytes() == column.tobytes()

    def test_index_iteration_and_slices(self, stream):
        assert len(stream) == 5 and stream.components == 2
        part = stream[1:3]
        assert isinstance(part, Stream) and part.query_ids == stream.query_ids[1:3]
        assert part.relevance.tobytes() == stream.relevance[1:3].tobytes()
        assert part.t.tolist() == [2, 3] and part.individuals == stream.individuals
        with pytest.raises(ValidationError, match="empty"):
            stream[3:1]
        with pytest.raises(TypeError, match="slices"):
            stream[0]
        with pytest.raises(TypeError):
            list(stream)

    def test_columns_are_read_only(self, stream):
        for column in (stream.t, stream.polarity, stream.relevance):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_repeated_query_ids_are_allowed(self, stream):
        again = Stream(["q"] * len(stream), stream.t, stream.polarity,
                       stream.individuals, stream.relevance)
        assert again.query_ids == ("q",) * len(stream)

    def test_individuals_must_be_sorted_and_distinct(self, stream):
        for ids in (stream.individuals[::-1], stream.individuals[:1] * len(stream.individuals)):
            with pytest.raises(ValidationError, match="ascending"):
                Stream(stream.query_ids, stream.t, stream.polarity, ids, stream.relevance)

    def test_mismatched_columns_rejected(self, stream):
        with pytest.raises(LengthMismatchError):
            Stream(stream.query_ids, stream.t[:-1], stream.polarity,
                   stream.individuals, stream.relevance)
        with pytest.raises(LengthMismatchError):
            Stream(stream.query_ids, stream.t, stream.polarity,
                   stream.individuals[:-1], stream.relevance)

    def test_fractional_timesteps_rejected(self, stream):
        with pytest.raises(ValidationError, match="integers"):
            Stream(stream.query_ids, stream.t + 0.5, stream.polarity,
                   stream.individuals, stream.relevance)

    @pytest.mark.parametrize(
        "t", [[True, 2], (1, np.True_), np.array([False, True])],
        ids=["mixed-list", "numpy-bool-in-tuple", "bool-array"],
    )
    def test_boolean_timesteps_rejected(self, t):
        with pytest.raises(ValidationError, match="timesteps must be integers, got bool"):
            Stream(["a", "b"], t, [[1.0]] * 2, ("x", "y"), [[0.5, 0.5]] * 2)

    def test_error_names_the_first_bad_query(self, stream):
        relevance = stream.relevance.copy()
        relevance[3, 1] = -relevance[3, 1] - 0.01
        with pytest.raises(ValidationError, match=f"{stream.query_ids[3]!r}: negative"):
            Stream(stream.query_ids, stream.t, stream.polarity, stream.individuals, relevance)

    def test_dataset_with_other_individuals_rejected(self, stream):
        dataset = Dataset.single_group(stream.individuals[:-1] + ("zz",))
        with pytest.raises(CoverageError, match=stream.query_ids[0]):
            stream.relevance_in(dataset)

    def test_assignments_name_the_orderings_rows(self):
        dataset, stream = gen_synth_cont(SynthSpec(variant="continuous", n=10, T=6, seed=4))
        config = RerankConfig(k_re=6, k_att=3, k_eval=4, polarity_mode="aware")
        run = rerank_online(dataset, stream, config)
        assert run.query_ids == list(stream.query_ids)
        assert [x.ordering for x in run.assignments] == [
            tuple(dataset.individuals[i] for i in row) for row in run.orderings.tolist()
        ]


def test_fill_matches_recording_query_by_query():
    """Replay's bulk write leaves the ledger the engine built step by step."""
    dataset, stream = gen_random_instance(7, 2, 6, "signed", seed=5, components=2)
    config = RerankConfig(k_re=5, k_att=3, k_eval=3, polarity_mode="aware")
    run = rerank_online(dataset, stream, config)
    filled = Ledger(dataset, stream)
    filled._fill(run.orderings, AttentionModel(config.k_att))
    assert filled.t == run.ledger.t == len(stream)
    for channel in ("attention", "relevance"):
        for mode in ("aware", "agnostic"):
            got = filled._moment_matrices(channel, mode)
            want = run.ledger._moment_matrices(channel, mode)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert (filled.values_at(slice(None), channel, mode).tobytes()
                    == run.ledger.values_at(slice(None), channel, mode).tobytes())
