"""File formats and the command-line interface."""

import base64
import json
import math
import re

import numpy as np
import pytest

from fairrank import io as fio
from fairrank.cli import _bootstrap, main, sweep_table
from fairrank.core import Dataset, Stream
from fairrank.errors import (
    CoverageError,
    LengthMismatchError,
    ParseError,
    StreamOrderError,
    ValidationError,
)
from fairrank.rerank import RerankConfig, rerank_online
from fairrank.synth import SynthSpec, gen_synth_binary, gen_synth_cont
from oracles import relevance_dicts, stream_of


def block_matrix(payload) -> np.ndarray:
    """The (T, n) relevance of a loaded run file's stream block."""
    return payload["stream"]["relevance"]


def block_relevance(payload) -> list[dict]:
    """Per-query relevance of a loaded run file's stream block."""
    individuals = payload["stream"]["individuals"]
    return [dict(zip(individuals, row)) for row in block_matrix(payload).tolist()]


def block_orderings(payload) -> np.ndarray:
    """A loaded run file's orderings as a writable (T, n) array of positions
    into the stream block's individuals."""
    return payload["orderings"].copy()


def set_orderings(payload, positions) -> None:
    """Put ``positions`` in a loaded run file's payload as its orderings."""
    payload["orderings"] = np.asarray(positions, dtype="<i4")


def read_run(path) -> tuple[dict, bytes]:
    """A run file's header, parsed independently of ``load_run``, and its body."""
    header, body = path.read_bytes().split(b"\n", 1)
    return json.loads(header), body


def write_run(path, header: dict, body: bytes) -> None:
    """Write ``header`` (compact, ASCII-only) as a run file's first line, then ``body``."""
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)


def earlier_layout(payload) -> dict:
    """A loaded run file's payload in the layout written before run files
    had a binary body: one JSON document, both blocks base64 strings."""
    def b64(array):
        return base64.b64encode(array.tobytes()).decode("ascii")

    stream = {**payload["stream"], "relevance": b64(payload["stream"]["relevance"])}
    return {**payload, "stream": stream, "orderings": b64(payload["orderings"])}


@pytest.fixture()
def binary_files(tmp_path):
    dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4))
    stream_path = tmp_path / "stream.jsonl"
    groups_path = tmp_path / "groups.csv"
    fio.save_stream(stream_path, stream)
    fio.save_groups(groups_path, dataset)
    return dataset, stream, stream_path, groups_path


class TestStreamFiles:
    def test_round_trip_is_byte_identical(self, binary_files, tmp_path):
        _, _, stream_path, _ = binary_files
        individuals, stream = fio.load_stream(stream_path)
        second = tmp_path / "again.jsonl"
        fio.save_stream(second, stream)
        assert second.read_bytes() == stream_path.read_bytes()

    def test_individuals_inferred_sorted(self, binary_files):
        dataset, _, stream_path, _ = binary_files
        individuals, _ = fio.load_stream(stream_path)
        assert individuals == tuple(sorted(dataset.individuals))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 1.0}}\nnot json\n')
        with pytest.raises(ParseError) as err:
            fio.load_stream(path)
        assert err.value.line == 2

    def test_non_increasing_timestep(self, tmp_path):
        lines = [
            '{"query_id": "q1", "t": 2, "polarity": [1.0], "relevance": {"a": 1.0}}',
            '{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {"a": 1.0}}',
        ]
        path = tmp_path / "order.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamOrderError):
            fio.load_stream(path)

    def test_duplicate_query_id_rejected_with_line_number(self, tmp_path):
        lines = [
            '{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 1.0}}',
            '{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {"a": 1.0}}',
            '',
            '{"query_id": "q1", "t": 3, "polarity": [1.0], "relevance": {"a": 1.0}}',
        ]
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            fio.load_stream(path)
        assert err.value.line == 4
        assert "q1" in str(err.value)

    @pytest.mark.parametrize("query_id", ["null", "7", "1.5", "true", '["q2"]', '{"q": 2}'])
    def test_query_id_must_be_a_string(self, tmp_path, query_id):
        path = tmp_path / "ids.jsonl"
        path.write_text(
            '{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 0.5, "b": 0.5}}\n'
            f'{{"query_id": {query_id}, "t": 2, "polarity": [1.0], "relevance": {{"a": 0.5, "b": 0.5}}}}\n'
        )
        with pytest.raises(ParseError, match="query_id must be a string") as err:
            fio.load_stream(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "line",
        [
            '{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {"a": "0.5", "b": 0.5}}',
            '{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {"a": true, "b": 0.0}}',
            '{"query_id": "q2", "t": 2, "polarity": ["1.0"], "relevance": {"a": 0.5, "b": 0.5}}',
            '{"query_id": "q2", "t": 2, "polarity": [false], "relevance": {"a": 0.5, "b": 0.5}}',
            '{"query_id": "q2", "t": true, "polarity": [1.0], "relevance": {"a": 0.5, "b": 0.5}}',
        ],
    )
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, line):
        path = tmp_path / "types.jsonl"
        first = '{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 0.5, "b": 0.5}}'
        path.write_text(first + "\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            fio.load_stream(path)
        assert err.value.line == 2

    def test_integer_values_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"query_id": "q1", "t": 1, "polarity": [-1], "relevance": {"a": 1, "b": 0}}\n')
        _, stream = fio.load_stream(path)
        assert stream.polarity.tolist() == [[-1.0]]
        assert stream.relevance.tolist() == [[1.0, 0.0]]
        assert stream.polarity.dtype == stream.relevance.dtype == np.float64

    def test_key_order_within_a_line_does_not_matter(self, tmp_path):
        lines = [
            '{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"c": 0.5, "a": 0.25, "b": 0.25}}',
            '{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {"b": 0.5, "c": 0.125, "a": 0.375}}',
            '{"query_id": "q3", "t": 3, "polarity": [1.0], "relevance": {"c": 0.75, "a": 0.0, "b": 0.25}}',
        ]
        path = tmp_path / "order.jsonl"
        path.write_text("\n".join(lines) + "\n")
        individuals, stream = fio.load_stream(path)
        assert individuals == ("a", "b", "c")
        assert relevance_dicts(stream) == [json.loads(line)["relevance"] for line in lines]
        again = tmp_path / "again.jsonl"
        fio.save_stream(again, stream)
        assert [json.loads(line) for line in again.read_text().splitlines()] == [
            json.loads(line) for line in lines
        ]
        assert all(list(json.loads(line)["relevance"]) == ["a", "b", "c"]
                   for line in again.read_text().splitlines())

    def test_coverage_must_match_across_queries(self, tmp_path):
        lines = [
            '{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 0.5, "b": 0.5}}',
            '{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {"a": 1.0}}',
        ]
        path = tmp_path / "coverage.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CoverageError):
            fio.load_stream(path)

    def test_unnormalized_rejected_without_raw(self, tmp_path):
        path = tmp_path / "sum.jsonl"
        path.write_text('{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 0.7, "b": 0.7}}\n')
        with pytest.raises(ValidationError):
            fio.load_stream(path)

    def test_raw_mode_renormalizes_with_warning(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 3.0, "b": 1.0}}\n')
        with pytest.warns(UserWarning):
            _, stream = fio.load_stream(path, raw=True)
        assert stream.relevance.tolist() == [[0.75, 0.25]]

    def test_small_drift_within_file_tolerance_is_fixed_silently(self, tmp_path):
        value = 0.5 + 2e-8
        path = tmp_path / "drift.jsonl"
        path.write_text(
            json.dumps({"query_id": "q1", "t": 1, "polarity": [1.0],
                        "relevance": {"a": value, "b": 0.5}}) + "\n"
        )
        _, stream = fio.load_stream(path)
        assert abs(math.fsum(stream.relevance[0].tolist()) - 1.0) <= 1e-12


    @pytest.mark.parametrize(
        "relevance, match",
        [
            ('{"a": 0.0, "b": 0.0}', "all relevance scores are zero"),
            # the raw score, not the -0.5 it would normalize to
            ('{"a": -1.0, "b": 3.0}', r"negative relevance score -1\.0 for 'a'"),
            ('{"a": 1e308, "b": 1e308}', "sum to inf"),
        ],
        ids=["all-zero", "negative", "overflowing-sum"],
    )
    def test_raw_mode_rejects_unusable_scores_by_line(self, tmp_path, relevance, match):
        path = tmp_path / "raw.jsonl"
        path.write_text(
            '{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 0.75, "b": 0.25}}\n'
            f'{{"query_id": "q2", "t": 2, "polarity": [1.0], "relevance": {relevance}}}\n'
        )
        with pytest.raises(ParseError, match=match) as err:
            fio.load_stream(path, raw=True)
        assert err.value.line == 2
        code = main(["rank", "--stream", str(path), "--raw", "--out", str(tmp_path / "run.json")])
        assert code == 1


class TestGroupsFiles:
    def test_round_trip(self, binary_files):
        dataset, _, _, groups_path = binary_files
        assert fio.load_groups(groups_path) == dataset.group_of

    def test_header_required(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,male\n")
        with pytest.raises(ParseError):
            fio.load_groups(path)

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("individual_id,group_id\na,male\na,female\n")
        with pytest.raises(ParseError):
            fio.load_groups(path)

    def test_missing_individual_detected(self, binary_files):
        dataset, _, stream_path, _ = binary_files
        individuals, _ = fio.load_stream(stream_path)
        with pytest.raises(ValidationError):
            fio.build_dataset(individuals, {individuals[0]: "g"})


class TestSplit:
    def test_partition_is_deterministic_and_order_preserving(self, binary_files):
        _, stream, _, _ = binary_files
        tuning, test = fio.split_by_query_id(stream, 0.5, salt="s")
        again_tuning, again_test = fio.split_by_query_id(stream, 0.5, salt="s")
        assert isinstance(tuning, Stream) and isinstance(test, Stream)
        assert tuning.query_ids == again_tuning.query_ids
        assert len(tuning) + len(test) == len(stream)
        assert sorted(tuning.query_ids + test.query_ids) == sorted(stream.query_ids)
        for part in (tuning, test):
            ts = part.t.tolist()
            assert ts == sorted(ts)
            rows = [stream.query_ids.index(q) for q in part.query_ids]
            assert part.relevance.tobytes() == stream.relevance[rows].tobytes()
            assert part.polarity.tobytes() == stream.polarity[rows].tobytes()
            assert part.individuals == stream.individuals

    def test_fraction_extremes(self, binary_files):
        _, stream, _, _ = binary_files
        all_tuning, none = fio.split_by_query_id(stream, 1.0)
        assert all_tuning.query_ids == stream.query_ids and none is None
        none, all_test = fio.split_by_query_id(stream, 0.0)
        assert none is None and all_test.query_ids == stream.query_ids
        with pytest.raises(ValidationError):
            fio.split_by_query_id(stream, 1.5)

    def test_salt_changes_the_partition(self):
        dataset, stream = gen_synth_binary(SynthSpec(n=4, T=16))
        a, _ = fio.split_by_query_id(stream, 0.5, salt="one")
        b, _ = fio.split_by_query_id(stream, 0.5, salt="two")
        assert a.query_ids != b.query_ids


class TestReports:
    def test_floats_rounded_to_12_significant_digits(self):
        text = fio.canonical_json({"x": 0.123456789012345678, "y": 1.0 / 3.0})
        doc = json.loads(text)
        assert doc["x"] == 0.123456789012
        assert doc["y"] == 0.333333333333

    def test_non_finite_sentinels_survive(self):
        text = fio.canonical_json({"washing": math.inf, "eur": math.nan})
        loaded = json.loads(text)
        assert loaded["washing"] == math.inf
        assert math.isnan(loaded["eur"])

    def test_deterministic_bytes(self, tmp_path):
        doc = {"b": 1.0, "a": {"nested": [1.5, math.inf]}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        fio.save_report(p1, doc)
        fio.save_report(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()


class TestRunFiles:
    def test_replay_reproduces_the_ledger_exactly(self, binary_files, tmp_path):
        dataset, stream, stream_path, groups_path = binary_files
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9)
        run = rerank_online(dataset, stream, config)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, run, stream)
        replayed = fio.replay_run(fio.load_run(run_path), dataset.group_of)
        # replay infers a sorted individual order; compare per individual
        for ind in dataset.individuals:
            got_row = [replayed.ledger.dataset.index[ind]]
            want_row = [run.ledger.dataset.index[ind]]
            for channel in ("attention", "relevance"):
                for mode in ("aware", "agnostic"):
                    got_mean, got_var = replayed.ledger.moments_at(got_row, channel, mode)
                    want_mean, want_var = run.ledger.moments_at(want_row, channel, mode)
                    np.testing.assert_array_equal(got_mean, want_mean)
                    np.testing.assert_array_equal(got_var, want_var)
                    np.testing.assert_array_equal(
                        replayed.ledger.values_at(got_row, channel, mode),
                        run.ledger.values_at(want_row, channel, mode),
                    )
        assert replayed.ndcg == run.ndcg
        assert replayed.fallback == run.fallback

    @pytest.mark.parametrize(
        "key, error",
        [
            # a block one row short has the wrong byte length
            ("orderings", ValidationError),
            ("fallback", LengthMismatchError),
            ("ndcg", LengthMismatchError),
            ("objective_trace", LengthMismatchError),
            ("query_ids", LengthMismatchError),
        ],
        ids=["orderings", "fallback", "ndcg", "objective_trace", "query_ids"],
    )
    def test_per_query_list_of_wrong_length_rejected(self, binary_files, tmp_path, key, error):
        dataset, stream, _, _ = binary_files
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        payload = fio.load_run(run_path)
        if key == "orderings":
            set_orderings(payload, np.delete(block_orderings(payload), 2, axis=0))
        else:
            del payload[key][2]
        with pytest.raises(error):
            fio.replay_run(payload, dataset.group_of)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        write_run(path, {"format": fio.RUN_FORMAT, "config": {}}, b"")
        with pytest.raises(ValidationError, match="missing 'stream'"):
            fio.load_run(path)

    @pytest.mark.parametrize(
        "key",
        ["format", "config", "stream", "query_ids", "ndcg", "fallback",
         "objective_trace", "sweeps"],
    )
    def test_every_saved_key_is_required(self, binary_files, tmp_path, key):
        dataset, stream, _, _ = binary_files
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        header, body = read_run(run_path)
        assert key in header
        del header[key]
        write_run(run_path, header, body)
        with pytest.raises(ValidationError, match=repr(key)):
            fio.load_run(run_path)

    @pytest.mark.parametrize("key", ["query_ids", "individuals"])
    def test_stream_block_without_its_shape_rejected(self, binary_files, tmp_path, key):
        dataset, stream, _, _ = binary_files
        run_path = tmp_path / "run.json"
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3))
        fio.save_run(run_path, run, stream)
        header, body = read_run(run_path)
        for value in (None, "abc"):
            header["stream"][key] = value
            write_run(run_path, header, body)
            with pytest.raises(ValidationError, match=repr(key)):
                fio.load_run(run_path)
        del header["stream"][key]
        write_run(run_path, header, body)
        with pytest.raises(ValidationError, match=repr(key)):
            fio.load_run(run_path)


class TestConfigEcho:
    """replay_run takes the config echo only with exactly the keys
    ``RerankConfig.to_dict`` writes."""

    @pytest.fixture()
    def payload(self, binary_files, tmp_path):
        dataset, stream, _, _ = binary_files
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        return fio.load_run(run_path), dataset.group_of

    @pytest.mark.parametrize("key", sorted(RerankConfig().to_dict()))
    def test_missing_key_rejected(self, payload, key):
        payload, group_of = payload
        del payload["config"][key]
        with pytest.raises(ValidationError, match="config"):
            fio.replay_run(payload, group_of)

    @pytest.mark.parametrize("extra", [("seed", 0), ("note", "x")])
    def test_extra_key_rejected(self, payload, extra):
        payload, group_of = payload
        payload["config"][extra[0]] = extra[1]
        with pytest.raises(ValidationError, match="re-run `fairrank rank`"):
            fio.replay_run(payload, group_of)

    def test_extra_key_exits_1_from_evaluate(self, binary_files, tmp_path, capsys):
        dataset, stream, _, groups_path = binary_files
        run_path = tmp_path / "run.json"
        config = RerankConfig(k_re=8, k_att=3, k_eval=3)
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        header, body = read_run(run_path)
        header["config"]["seed"] = 0
        write_run(run_path, header, body)
        code = main(["evaluate", "--run", str(run_path), "--groups", str(groups_path),
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert "re-run `fairrank rank`" in capsys.readouterr().err


class TestReplayChecks:
    """replay_run checks each ordering against what the file claims for it."""

    @pytest.fixture()
    def payload(self, tmp_path):
        dataset, stream = gen_synth_cont(SynthSpec(variant="continuous", n=8, T=4, seed=2))
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.8)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        return fio.load_run(run_path), dataset.group_of

    def test_untouched_file_replays(self, payload):
        payload, group_of = payload
        fio.replay_run(payload, group_of)

    def test_swapped_head_entries_rejected(self, payload):
        payload, group_of = payload
        step = 1
        relevance = block_matrix(payload)[step]
        positions = block_orderings(payload)
        row = positions[step]
        j = next(j for j in range(1, 3) if relevance[row[j]] != relevance[row[0]])
        row[[0, j]] = row[[j, 0]]
        set_orderings(payload, positions)
        payload["fallback"][step] = False
        with pytest.raises(ValidationError, match="q0002.*nDCG"):
            fio.replay_run(payload, group_of)

    def test_tampered_ndcg_in_the_middle_of_the_stream_named(self, payload):
        payload, group_of = payload
        stored = payload["ndcg"][2]
        payload["ndcg"][2] = math.nextafter(stored, 0.0)
        with pytest.raises(ValidationError, match="q0003.*nDCG"):
            fio.replay_run(payload, group_of)
        payload["ndcg"][2] = 10**400  # a huge int compares, never overflows
        with pytest.raises(ValidationError, match="q0003.*nDCG"):
            fio.replay_run(payload, group_of)

    def test_integral_ndcg_entries_compare_by_value(self, payload):
        payload, group_of = payload
        ndcg = payload["ndcg"]
        ones = [t for t, value in enumerate(ndcg) if value == 1.0]
        assert ones
        for t in ones:
            ndcg[t] = 1
        assert fio.replay_run(payload, group_of).ndcg == [float(x) for x in ndcg]

    def test_edited_k_eval_rejected(self, payload):
        payload, group_of = payload
        payload["config"]["k_eval"] = 2
        with pytest.raises(ValidationError, match="nDCG"):
            fio.replay_run(payload, group_of)

    def test_non_ideal_step_flagged_as_fallback_rejected(self, payload):
        payload, group_of = payload
        # positions index the sorted ids, so ties break by ascending position
        ideal = [
            sorted(range(len(rel)), key=lambda i: (-rel[i], i))
            for rel in block_matrix(payload).tolist()
        ]
        positions = block_orderings(payload).tolist()
        step = next(t for t, row in enumerate(positions) if row != ideal[t])
        payload["fallback"][step] = True
        with pytest.raises(ValidationError, match="fallback"):
            fio.replay_run(payload, group_of)

    @pytest.fixture()
    def tied_payload(self, tmp_path):
        """A pass-through run of a binary stream: every row ties, and every
        ordering is the ideal one."""
        dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4))
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.8, objective="none")
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        return fio.load_run(run_path), dataset.group_of

    def test_flagged_tied_step_in_ascending_id_order_replays(self, tied_payload):
        payload, group_of = tied_payload
        step = 1
        relevance = block_matrix(payload)[step]
        row = block_orderings(payload)[step]
        # positions index the sorted ids, so each tie lists them ascending
        for value in np.unique(relevance):
            tie = row[relevance[row] == value]
            assert len(tie) == 4 and (np.diff(tie) > 0).all()
        payload["fallback"][step] = True
        fio.replay_run(payload, group_of)

    def test_flagged_tied_step_with_two_tied_ids_swapped_rejected(self, tied_payload):
        payload, group_of = tied_payload
        step = 1
        relevance = block_matrix(payload)[step]
        positions = block_orderings(payload)
        row = positions[step]
        # the last two entries tie below the k_eval cut: the nDCG stays exact
        # and the swapped file replays unless the step is flagged
        assert relevance[row[-1]] == relevance[row[-2]]
        row[[-2, -1]] = row[[-1, -2]]
        set_orderings(payload, positions)
        fio.replay_run(payload, group_of)
        payload["fallback"][step] = True
        with pytest.raises(ValidationError, match="q0002.*fallback"):
            fio.replay_run(payload, group_of)

    @pytest.mark.parametrize(
        "value", [math.nan, None, -5.0, -1e-300, math.inf, 10**400],
        ids=["nan", "null", "negative", "tiny-negative", "inf", "huge-int"],
    )
    def test_trace_of_a_solved_step_must_be_finite_and_non_negative(self, payload, value):
        payload, group_of = payload
        assert not payload["fallback"][2]
        payload["objective_trace"][2] = value
        with pytest.raises(ValidationError, match="q0003.*objective trace .*, expected a finite"):
            fio.replay_run(payload, group_of)
        payload["objective_trace"][2] = 0  # an integral entry counts by value
        assert fio.replay_run(payload, group_of).objective_trace[2] == 0.0

    def test_trace_is_nan_exactly_where_no_matching_was_solved(self, tied_payload):
        payload, group_of = tied_payload
        # the objective is none, so no step solved a matching
        payload["objective_trace"][1] = 0.5
        with pytest.raises(ValidationError, match="q0002.*objective trace 0.5, expected NaN"):
            fio.replay_run(payload, group_of)
        # a minmax run: every step ranked in the ideal order may be a fallback
        payload["objective_trace"][1] = None
        payload["config"]["objective"] = "minmax"
        payload["fallback"] = [True] * len(payload["fallback"])
        fio.replay_run(payload, group_of)
        payload["fallback"][2] = False
        with pytest.raises(ValidationError, match="q0003.*objective trace nan, expected a finite"):
            fio.replay_run(payload, group_of)
        payload["objective_trace"][2] = 0.25
        fio.replay_run(payload, group_of)
        payload["fallback"][2] = True
        with pytest.raises(ValidationError, match="q0003.*objective trace 0.25, expected NaN"):
            fio.replay_run(payload, group_of)

    def test_unknown_id_in_an_ordering_rejected(self, payload):
        payload, group_of = payload
        positions = block_orderings(payload)
        positions[2][4] = positions.shape[1]  # one past the last individual
        set_orderings(payload, positions)
        with pytest.raises(ValidationError, match="q0003"):
            fio.replay_run(payload, group_of)

    @pytest.mark.parametrize("k_eval", [3, 4, 5, 7])
    def test_ties_across_the_k_eval_cut_replay_exactly(self, tmp_path, k_eval):
        """Replay takes the ideal DCG from the k_eval largest relevance
        values; ties straddling the cut (0.1 four times, 0.05 twice) leave
        the stored nDCG exact."""
        ids = tuple(f"d{k}" for k in range(8))
        values = [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]
        stream = stream_of(
            [dict(zip(ids, values[t:] + values[:t])) for t in range(1, 6)],
            [(1.0 if t % 2 else -1.0,) for t in range(1, 6)],
        )
        dataset = Dataset.single_group(ids)
        config = RerankConfig(k_re=8, k_att=3, k_eval=k_eval, theta=0.8)
        run = rerank_online(dataset, stream, config)
        assert any(x < 1.0 for x in run.ndcg)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, run, stream)
        replayed = fio.replay_run(fio.load_run(run_path))
        assert replayed.ndcg == run.ndcg

    def test_replayed_orderings_use_the_dataset_ids(self, payload):
        payload, group_of = payload
        result = fio.replay_run(payload, group_of)
        own = {id(i) for i in result.ledger.dataset.individuals}
        assert all(id(i) in own for a in result.assignments for i in a.ordering)

    @pytest.mark.parametrize("edit", [
        lambda ids: ids.__setitem__(slice(None), ["x"] * len(ids)),
        lambda ids: ids.__setitem__(2, "q9999"),
        lambda ids: ids.reverse(),
    ], ids=["all-x", "one-renamed", "reversed"])
    def test_query_ids_must_match_the_stream_block(self, payload, edit):
        payload, group_of = payload
        edit(payload["query_ids"])
        with pytest.raises(ValidationError, match="query_ids"):
            fio.replay_run(payload, group_of)


class TestMistypedRunValues:
    """A run-file value of the wrong JSON type raises ValidationError, never a
    TypeError or ValueError from deep inside the replay."""

    @pytest.fixture()
    def saved(self, binary_files, tmp_path):
        dataset, stream, _, groups_path = binary_files
        run_path = tmp_path / "run.json"
        config = RerankConfig(k_re=8, k_att=3, k_eval=3)
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        return run_path, groups_path, dataset.group_of

    @pytest.mark.parametrize("edit", [
        lambda p: p["config"].__setitem__("k_att", "3"),
        lambda p: p["config"].__setitem__("k_re", 8.0),
        lambda p: p["config"].__setitem__("k_eval", True),
        lambda p: p["config"].__setitem__("theta", "0.8"),
        lambda p: p["config"].__setitem__("kind", "L3"),
        lambda p: p["config"].__setitem__("polarity_mode", None),
        lambda p: p.__setitem__("sweeps", "abc"),
        lambda p: p.__setitem__("sweeps", "3"),
        lambda p: p.__setitem__("sweeps", -1),
        lambda p: p["objective_trace"].__setitem__(1, "zz"),
        lambda p: p["objective_trace"].__setitem__(1, "0.5"),
        lambda p: p["fallback"].__setitem__(0, "false"),
        lambda p: p["ndcg"].__setitem__(0, "1.0"),
        lambda p: p.__setitem__("ndcg", 1.0),
        lambda p: p.__setitem__("orderings", "abc"),
        lambda p: p["stream"].__setitem__("relevance", "abc"),
    ], ids=[
        "k_att-string", "k_re-float", "k_eval-bool", "theta-string", "kind-unknown",
        "mode-null", "sweeps-abc", "sweeps-string", "sweeps-negative", "trace-zz",
        "trace-string", "fallback-string", "ndcg-string", "ndcg-not-a-list",
        "orderings-string", "relevance-string",
    ])
    def test_mistyped_value_raises_validation_error(self, saved, edit):
        run_path, _, group_of = saved
        payload = fio.load_run(run_path)
        edit(payload)
        with pytest.raises(ValidationError):
            fio.replay_run(payload, group_of)

    def test_mistyped_config_echo_exits_1_from_evaluate(self, saved, tmp_path, capsys):
        run_path, groups_path, _ = saved
        header, body = read_run(run_path)
        header["config"]["k_att"] = "3"
        write_run(run_path, header, body)
        code = main(["evaluate", "--run", str(run_path), "--groups", str(groups_path),
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert "k_att" in capsys.readouterr().err

    def test_run_file_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("5\n")
        with pytest.raises(ParseError, match="object"):
            fio.load_run(path)


class TestRunFileLayout:
    def test_run_file_is_a_header_line_and_two_blocks(self, binary_files, tmp_path):
        dataset, stream, _, _ = binary_files
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3))
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, run, stream)
        data = run_path.read_bytes()
        line, body = data.split(b"\n", 1)
        header = json.loads(line)
        # compact ASCII JSON, padded with spaces so the body is 8-byte aligned
        assert line.rstrip(b" ") == json.dumps(header).encode("ascii")
        assert (len(line) + 1) % 8 == 0 and len(line) - len(line.rstrip(b" ")) < 8
        assert header["format"] == fio.RUN_FORMAT and "orderings" not in header
        assert "relevance" not in header["stream"]
        T, n = len(stream), len(stream.individuals)
        positions = stream.columns(dataset)[run.orderings]
        assert body == stream.relevance.astype("<f8").tobytes() + positions.astype("<i4").tobytes()
        assert len(body) == 12 * T * n

    def test_saving_twice_gives_identical_bytes(self, binary_files, tmp_path):
        dataset, _, stream_path, _ = binary_files
        _, stream = fio.load_stream(stream_path)
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        fio.save_run(first, run, stream)
        fio.save_run(second, run, stream)
        assert first.read_bytes() == second.read_bytes()
        again = tmp_path / "again.jsonl"
        fio.save_stream(again, stream)
        assert again.read_bytes() == stream_path.read_bytes()

    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
    def test_earlier_json_layouts_rejected(self, tmp_path, capsys, indent):
        data = tmp_path / "data"
        assert main(["generate", "--variant", "continuous", "--n", "12", "--T", "6",
                     "--seed", "4", "--out", str(data)]) == 0
        run = tmp_path / "run.json"
        assert main(["rank", "--stream", str(data / "stream.jsonl"), "--kind", "W1",
                     "--theta", "0.8", "--out", str(run)]) == 0
        doc = earlier_layout(fio.load_run(run))
        run.write_text(json.dumps(doc, indent=indent, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="re-run `fairrank rank`"):
            fio.load_run(run)
        capsys.readouterr()
        code = main(["evaluate", "--run", str(run), "--out", str(tmp_path / "report.json")])
        assert code == 1 and "re-run `fairrank rank`" in capsys.readouterr().err

    def test_unknown_format_rejected(self, binary_files, tmp_path):
        dataset, stream, _, _ = binary_files
        run_path = tmp_path / "run.json"
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3))
        fio.save_run(run_path, run, stream)
        header, body = read_run(run_path)
        header["format"] = "fairrank-run/0"
        write_run(run_path, header, body)
        with pytest.raises(ValidationError, match="'format' 'fairrank-run/0'"):
            fio.load_run(run_path)


class TestRunFileContainer:
    """The container: a header line that must be a JSON object, then a body
    of exactly 12 x T x n bytes."""

    @pytest.fixture()
    def saved(self, binary_files, tmp_path):
        dataset, stream, _, _ = binary_files
        run_path = tmp_path / "run.json"
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3))
        fio.save_run(run_path, run, stream)
        return dataset, stream, run_path

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"", "no header line"),
            (b'{"format": "x"}', "no header line"),
            (b"not json\n", "not valid JSON"),
            (b'{"format": \n{}', "not valid JSON"),
            (b"\xff\xfe{}\n", "not valid JSON"),
            (b"[1, 2]\n", "object"),
            (b'"run"\n', "object"),
        ],
        ids=["empty", "no-newline", "not-json", "cut-header", "not-utf8", "array", "string"],
    )
    def test_malformed_header_raises_parse_error(self, tmp_path, data, match):
        path = tmp_path / "run.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=match):
            fio.load_run(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda b: b[:-1], lambda b: b + b"\0", lambda b: b[:-12], lambda b: b""],
        ids=["one-byte-short", "one-byte-long", "one-cell-short", "empty"],
    )
    def test_body_of_the_wrong_size_rejected(self, saved, edit):
        _, stream, path = saved
        line, body = path.read_bytes().split(b"\n", 1)
        path.write_bytes(line + b"\n" + edit(body))
        want = 12 * len(stream) * len(stream.individuals)
        with pytest.raises(ValidationError, match=f"has {len(edit(body))} bytes, expected {want}"):
            fio.load_run(path)

    def test_loaded_blocks_are_read_only_views(self, saved):
        dataset, stream, path = saved
        payload = fio.load_run(path)
        T, n = len(stream), len(stream.individuals)
        for block in (payload["stream"]["relevance"], payload["orderings"]):
            assert block.shape == (T, n) and not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 0
        assert payload["stream"]["relevance"].flags.aligned
        replayed = fio.replay_run(payload, dataset.group_of)
        assert not replayed.orderings.flags.writeable
        assert np.shares_memory(replayed.orderings, payload["orderings"])

    def test_failed_save_leaves_the_target_untouched(self, saved, tmp_path):
        dataset, stream, _ = saved
        path = tmp_path / "kept.json"
        path.write_bytes(b"previous contents")
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3))
        other = stream_of([{"x": 0.5, "y": 0.5}])
        with pytest.raises(CoverageError):
            fio.save_run(path, run, other)
        assert path.read_bytes() == b"previous contents"

    def test_non_ascii_ids_round_trip(self, tmp_path):
        ids = ("a", "é", "日本", "\U0001f600", "\ud800b", "z\nq")
        stream = stream_of(
            [dict(zip(ids, [0.3, 0.2, 0.2, 0.1, 0.1, 0.1])),
             dict(zip(ids, [0.1, 0.1, 0.1, 0.2, 0.2, 0.3]))],
            [(1.0,), (-1.0,)],
            query_ids=("q-ü", "\udcffq"),
        )
        dataset = Dataset.single_group(stream.individuals)
        run = rerank_online(dataset, stream, RerankConfig(k_re=6, k_att=2, k_eval=2))
        path = tmp_path / "run.json"
        fio.save_run(path, run, stream)
        line = path.read_bytes().split(b"\n", 1)[0]
        assert line.isascii()
        payload = fio.load_run(path)
        assert payload["stream"]["individuals"] == sorted(ids)
        assert payload["query_ids"] == payload["stream"]["query_ids"] == ["q-ü", "\udcffq"]
        replayed = fio.replay_run(payload)
        assert replayed.ledger.dataset.individuals == stream.individuals
        assert [a.ordering for a in replayed.assignments] == [a.ordering for a in run.assignments]

    def test_stream_with_an_id_that_is_not_utf8_saves_and_replays(self, tmp_path):
        """A relevance key of ``"\\ud800b"`` is valid JSON that loads as a lone
        surrogate; the run file must still save, load and replay it."""
        path = tmp_path / "stream.jsonl"
        path.write_text(
            '{"query_id": "q1", "t": 1, "polarity": [1.0], '
            '"relevance": {"\\ud800b": 0.75, "a": 0.25}}\n'
            '{"query_id": "q2", "t": 2, "polarity": [-1.0], '
            '"relevance": {"\\ud800b": 0.5, "a": 0.5}}\n',
            encoding="utf-8",
        )
        individuals, stream = fio.load_stream(path)
        assert individuals == ("a", "\ud800b")
        dataset = fio.build_dataset(individuals, None)
        run = rerank_online(dataset, stream, RerankConfig(k_re=2, k_att=1, k_eval=1))
        run_path = tmp_path / "run.json"
        run_path.write_bytes(b"previous contents")
        fio.save_run(run_path, run, stream)
        payload = fio.load_run(run_path)
        assert payload["stream"]["individuals"] == ["a", "\ud800b"]
        replayed = fio.replay_run(payload)
        assert replayed.ledger.dataset.individuals == ("a", "\ud800b")
        assert [a.ordering for a in replayed.assignments] == [a.ordering for a in run.assignments]
        assert replayed.ndcg == run.ndcg

    def test_stream_and_groups_with_an_id_that_is_not_utf8_leave_the_target_untouched(
        self, tmp_path
    ):
        """A stream file may load an id with no UTF-8 form; writing it back
        raises, naming the id, before the target is opened."""
        source = tmp_path / "stream.jsonl"
        source.write_text(
            '{"query_id": "q1", "t": 1, "polarity": [1.0], '
            '"relevance": {"\\ud800b": 0.5, "a": 0.5}}\n',
            encoding="utf-8",
        )
        individuals, stream = fio.load_stream(source)
        dataset = Dataset(individuals, {"a": "g1", "\ud800b": "g2"})
        named = re.escape(repr("\ud800b"))
        for save, value in ((fio.save_stream, stream), (fio.save_groups, dataset)):
            target = tmp_path / f"{save.__name__}.out"
            target.write_bytes(b"previous contents")
            with pytest.raises(ValidationError, match=named):
                save(target, value)
            assert target.read_bytes() == b"previous contents"


def _awkward_stream():
    """Relevance an encoding must keep bit for bit: -0.0, the smallest
    subnormal, and rows whose sums sit off 1 by less than 1e-9 (which replay
    must not renormalize)."""
    rng = np.random.default_rng(7)
    ids = [f"i{k}" for k in range(6)]
    relevance = []
    for t in range(1, 6):
        raw = rng.random(len(ids))
        raw[:2] = 0.0
        values = (raw / raw.sum()).tolist()
        values[0] = -0.0
        values[1] = 5e-324 if t % 2 else values[2] * 1e-3
        values[2] += 6e-10 if t % 2 else -values[1] - 6e-10
        relevance.append(dict(zip(ids, values)))
    polarity = [(1.0 if t % 2 else -0.5,) for t in range(1, 6)]
    return Dataset.single_group(ids), stream_of(relevance, polarity)


class TestRunFileBlock:
    """The run file's stream block: exact float64 relevance, loud failures."""

    @pytest.fixture()
    def saved(self, tmp_path):
        dataset, stream = _awkward_stream()
        run = rerank_online(dataset, stream, RerankConfig(k_re=6, k_att=3, k_eval=3, theta=0.9))
        path = tmp_path / "run.json"
        fio.save_run(path, run, stream)
        return dataset, stream, run, path

    def test_round_trip_is_bit_exact(self, saved):
        dataset, stream, run, path = saved
        payload = fio.load_run(path)
        block = payload["stream"]
        assert (block["query_ids"], block["t"]) == (list(stream.query_ids), stream.t.tolist())
        for want, got in zip(relevance_dicts(stream), block_relevance(payload)):
            assert list(got) == sorted(want)
            for ind, value in want.items():
                assert np.float64(got[ind]).tobytes() == np.float64(value).tobytes()
        replayed = fio.replay_run(payload, dataset.group_of)
        for channel in ("attention", "relevance"):
            for mode in ("aware", "agnostic"):
                assert (replayed.ledger.values_at(slice(None), channel, mode).tobytes()
                        == run.ledger.values_at(slice(None), channel, mode).tobytes())
        assert [a.ordering for a in replayed.assignments] == [a.ordering for a in run.assignments]

    def test_run_file_is_smaller_than_its_stream_file(self, tmp_path):
        dataset, stream = gen_synth_cont(SynthSpec(variant="continuous", n=60, T=8, seed=1))
        stream_path, run_path = tmp_path / "stream.jsonl", tmp_path / "run.json"
        fio.save_stream(stream_path, stream)
        fio.save_run(run_path, rerank_online(dataset, stream, RerankConfig(k_re=10, k_att=3, k_eval=3)), stream)
        assert run_path.stat().st_size < stream_path.stat().st_size

    def test_old_list_of_lines_layout_rejected(self, saved):
        _, stream, _, path = saved
        doc = earlier_layout(fio.load_run(path))
        lines = path.with_name("stream.jsonl")
        fio.save_stream(lines, stream)
        doc["stream"] = lines.read_text().splitlines()
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="earlier version"):
            fio.load_run(path)

    @staticmethod
    def _set_row(block, step, scale=1.0, index=None, value=None):
        rows = block["relevance"].copy()
        rows[step] *= scale
        if index is not None:
            rows[step, index] = value
        block["relevance"] = rows

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda b: b.pop("query_ids"), ValidationError, "missing 'query_ids'"),
            (lambda b: b.pop("relevance"), ValidationError, "missing 'relevance'"),
            (lambda b: b["t"].pop(), LengthMismatchError, "timesteps"),
            (lambda b: b["polarity"].pop(0), LengthMismatchError, "polarity"),
            (lambda b: b["individuals"].__setitem__(1, b["individuals"][0]),
             ValidationError, "repeats"),
            (lambda b: b.__setitem__("individuals", []), ValidationError, "non-empty"),
            (lambda b: b.__setitem__("relevance", b["relevance"].tolist()),
             ValidationError, "relevance block is list"),
            (lambda b: b.__setitem__("relevance", b["relevance"].astype("<f4")),
             ValidationError, "relevance block is float32"),
            (lambda b: b.__setitem__("relevance", b["relevance"].astype(">f8")),
             ValidationError, "relevance block is >f8"),
            (lambda b: b.__setitem__("relevance", np.pad(b["relevance"], ((0, 0), (0, 1)))),
             ValidationError, "relevance block is float64 \\(5, 7\\)"),
            (lambda b: b.__setitem__("relevance", b["relevance"][:-1]),
             ValidationError, "relevance block is float64 \\(4, 6\\)"),
            (lambda b: b.__setitem__("relevance", b["relevance"].ravel()),
             ValidationError, "relevance block is float64 \\(30,\\)"),
            (lambda b: b["t"].__setitem__(0, True), ParseError, "timestep"),
            (lambda b: b["polarity"].__setitem__(1, ["1.0"]), ParseError, "polarity"),
            (lambda b: b["polarity"].__setitem__(1, [False]), ParseError, "polarity"),
            (lambda b: b["polarity"].__setitem__(1, []), ParseError, "polarity"),
            (lambda b: b["polarity"].__setitem__(1, [math.inf]), ValidationError, "non-finite"),
            (lambda b: TestRunFileBlock._set_row(b, 2, index=3, value=-0.25),
             ValidationError, "negative"),
            (lambda b: TestRunFileBlock._set_row(b, 2, index=3, value=math.nan),
             ValidationError, "sums to"),
            (lambda b: TestRunFileBlock._set_row(b, 2, scale=1.0 + 1e-8),
             ValidationError, "sums to"),
            (lambda b: b["t"].__setitem__(1, 1), StreamOrderError, "timestep"),
            (lambda b: b["t"].__setitem__(4, 2**63), ValidationError,
             f"^run file query 'q5': timestep {2**63} does not fit in int64$"),
            (lambda b: b["t"].__setitem__(4, 2**64), ValidationError,
             f"^run file query 'q5': timestep {2**64} does not fit in int64$"),
            (lambda b: b["t"].__setitem__(0, -(2**63) - 1), ValidationError,
             f"^run file query 'q1': timestep {-(2**63) - 1} does not fit in int64$"),
            (lambda b: b["polarity"].__setitem__(1, [1.0, 1.0]), LengthMismatchError,
             "component"),
            (lambda b: b["query_ids"].__setitem__(1, None), ValidationError, "strings"),
            (lambda b: b["query_ids"].__setitem__(1, 7), ValidationError, "strings"),
        ],
    )
    def test_malformed_block_rejected(self, saved, edit, error, match):
        dataset, _, _, path = saved
        payload = fio.load_run(path)
        edit(payload["stream"])
        with pytest.raises(error, match=match):
            fio.replay_run(payload, dataset.group_of)

    def test_int64_maximum_timestep_accepted(self, saved):
        dataset, _, run, path = saved
        payload = fio.load_run(path)
        payload["stream"]["t"][-1] = 2**63 - 1
        assert fio.replay_run(payload, dataset.group_of).ndcg == run.ndcg


class TestOrderingBlock:
    """The run file's orderings: one block of little-endian int32 positions
    into the stream block's individuals."""

    @pytest.fixture()
    def saved(self, tmp_path):
        # the dataset lists its ids unsorted (m* before f*), the block sorted
        dataset, stream = gen_synth_cont(SynthSpec(variant="continuous", n=8, T=4, seed=2))
        run = rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3))
        path = tmp_path / "run.json"
        fio.save_run(path, run, stream)
        return dataset, stream, run, path

    def test_positions_name_the_emitted_orderings(self, saved):
        dataset, _, run, path = saved
        payload = fio.load_run(path)
        individuals = payload["stream"]["individuals"]
        assert list(dataset.individuals) != individuals == sorted(individuals)
        decoded = [tuple(individuals[p] for p in row) for row in block_orderings(payload).tolist()]
        assert decoded == [a.ordering for a in run.assignments]

    def test_save_load_save_is_byte_identical(self, saved, tmp_path):
        dataset, stream, _, path = saved
        replayed = fio.replay_run(fio.load_run(path), dataset.group_of)
        again = tmp_path / "again.json"
        fio.save_run(again, replayed, stream)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.__setitem__(1, p[1][[1, 1, 2, 3, 4, 5, 6, 7]]), "q0002.*repeats"),
            (lambda p: p[2].__setitem__(0, -1), "q0003.*outside"),
            (lambda p: p[3].__setitem__(5, 8), "q0004.*outside"),
            (lambda p: p[0].__setitem__(7, 2**31 - 1), "q0001.*outside"),
        ],
        ids=["repeated", "negative", "one-past-the-end", "int32-max"],
    )
    def test_position_defects_rejected_by_query(self, saved, edit, match):
        dataset, _, _, path = saved
        payload = fio.load_run(path)
        positions = block_orderings(payload)
        edit(positions)
        set_orderings(payload, positions)
        with pytest.raises(ValidationError, match=match):
            fio.replay_run(payload, dataset.group_of)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: (p[1].__setitem__(0, p[1][1]), p[3].__setitem__(5, 8)), "q0002.*repeats"),
            (lambda p: (p[0].__setitem__(2, -1), p[2].__setitem__(0, p[2][1])), "q0001.*outside"),
            (lambda p: p[2].__setitem__(slice(0, 2), [9, 9]), "q0003.*outside"),
        ],
        ids=["repeat-before-outside", "outside-before-repeat", "both-in-one-row"],
    )
    def test_first_bad_query_is_named(self, saved, edit, match):
        """A file with several bad rows names the first, with its own
        defect; a row both out of range and repeating reads as out of range."""
        dataset, _, _, path = saved
        payload = fio.load_run(path)
        positions = block_orderings(payload)
        edit(positions)
        set_orderings(payload, positions)
        with pytest.raises(ValidationError, match=match):
            fio.replay_run(payload, dataset.group_of)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p[:, :-1],
            lambda p: np.pad(p, ((0, 0), (0, 1))),
            lambda p: p[:-1],
            lambda p: p.ravel(),
            lambda p: p.astype("<i8"),
            lambda p: p.astype(">i4"),
        ],
        ids=["one-position-short", "one-position-long", "one-row-short", "flat", "int64",
             "big-endian"],
    )
    def test_block_of_the_wrong_shape_or_dtype_rejected(self, saved, edit):
        dataset, _, _, path = saved
        payload = fio.load_run(path)
        payload["orderings"] = edit(payload["orderings"])
        match = "orderings block is .*, expected int32 4 queries x 8 individuals"
        with pytest.raises(ValidationError, match=match):
            fio.replay_run(payload, dataset.group_of)

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, {"q0001": "AAAA"}, "AAAA"],
                             ids=["null", "int", "float", "bool", "object", "string"])
    def test_non_array_block_rejected(self, saved, value):
        dataset, _, _, path = saved
        payload = fio.load_run(path)
        payload["orderings"] = value
        with pytest.raises(ValidationError, match="orderings block is"):
            fio.replay_run(payload, dataset.group_of)

    def test_old_list_of_ids_layout_rejected(self, saved, capsys, tmp_path):
        _, _, run, path = saved
        doc = earlier_layout(fio.load_run(path))
        doc["orderings"] = [list(a.ordering) for a in run.assignments]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="re-run `fairrank rank`"):
            fio.load_run(path)
        code = main(["evaluate", "--run", str(path), "--out", str(tmp_path / "report.json")])
        assert code == 1 and "re-run `fairrank rank`" in capsys.readouterr().err


class TestCli:
    def test_generate_rank_evaluate_pipeline(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--variant", "binary", "--n", "12", "--T", "4",
                     "--out", str(data)]) == 0
        assert (data / "stream.jsonl").exists() and (data / "groups.csv").exists()

        base_run = tmp_path / "base.json"
        assert main(["rank", "--stream", str(data / "stream.jsonl"),
                     "--groups", str(data / "groups.csv"),
                     "--objective", "none", "--out", str(base_run)]) == 0

        run = tmp_path / "run.json"
        assert main(["rank", "--stream", str(data / "stream.jsonl"),
                     "--groups", str(data / "groups.csv"),
                     "--kind", "L1", "--objective", "minmax", "--theta", "0.8",
                     "--out", str(run)]) == 0

        report = tmp_path / "report.json"
        assert main(["evaluate", "--run", str(run), "--baseline-run", str(base_run),
                     "--groups", str(data / "groups.csv"),
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert "improvement" in doc and "fairwashing" in doc
        assert doc["config"]["objective"] == "minmax"

    def test_baseline_run_of_another_stream_exits_1(self, tmp_path, capsys):
        runs = {}
        for name, T, seed in (("a", "4", "1"), ("b", "6", "2")):
            data = tmp_path / name
            assert main(["generate", "--variant", "continuous", "--n", "10", "--T", T,
                         "--seed", seed, "--out", str(data)]) == 0
            runs[name] = tmp_path / f"{name}.json"
            assert main(["rank", "--stream", str(data / "stream.jsonl"),
                         "--out", str(runs[name])]) == 0
        code = main(["evaluate", "--run", str(runs["a"]), "--baseline-run", str(runs["b"]),
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert "error: baseline run ranks another stream" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_divergence_kind_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["generate", "--n", "6", "--T", "2", "--out", str(data)])
        code = main(["sweep", "--stream", str(data / "stream.jsonl"), "--kinds", "L3",
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kind must be one of ('L1', 'L2var', 'W1')")
        assert "Traceback" not in err

    def test_rank_is_bit_reproducible(self, tmp_path):
        data = tmp_path / "data"
        main(["generate", "--variant", "continuous", "--n", "10", "--T", "4",
              "--seed", "3", "--out", str(data)])
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["rank", "--stream", str(data / "stream.jsonl"), "--kind", "W1",
                "--theta", "0.9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_offline_flag(self, tmp_path):
        data = tmp_path / "data"
        main(["generate", "--n", "6", "--T", "2", "--out", str(data)])
        out = tmp_path / "off.json"
        assert main(["rank", "--stream", str(data / "stream.jsonl"),
                     "--offline", "--max-sweeps", "2", "--k-re", "3",
                     "--out", str(out)]) == 0
        assert read_run(out)[0]["sweeps"] >= 1

    def test_sweep_writes_grid_rows(self, tmp_path):
        data = tmp_path / "data"
        main(["generate", "--n", "10", "--T", "4", "--out", str(data)])
        table = tmp_path / "sweep.csv"
        assert main(["sweep", "--stream", str(data / "stream.jsonl"),
                     "--groups", str(data / "groups.csv"),
                     "--theta-grid", "0.7,1.0", "--kinds", "L1",
                     "--objectives", "minmax", "--repeats", "2",
                     "--out", str(table)]) == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("theta,kind,objective,repeat,polarity_mode")
        assert len(lines) == 1 + 2 * 1 * 1 * 2 * 2

    @pytest.mark.parametrize("flags, flag", [
        (["--theta-grid", "0.5,abc"], "--theta-grid"),
        (["--repeats", "0"], "--repeats"),
        (["--repeats", "-1"], "--repeats"),
    ], ids=["theta-not-a-number", "zero-repeats", "negative-repeats"])
    def test_sweep_rejects_a_bad_grid(self, tmp_path, capsys, flags, flag):
        data = tmp_path / "data"
        main(["generate", "--n", "6", "--T", "2", "--out", str(data)])
        capsys.readouterr()
        table = tmp_path / "sweep.csv"
        code = main(["sweep", "--stream", str(data / "stream.jsonl"), *flags,
                     "--out", str(table)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and "Traceback" not in err
        assert not table.exists()

    def test_negative_max_sweeps_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["generate", "--n", "6", "--T", "2", "--out", str(data)])
        out = tmp_path / "off.json"
        code = main(["rank", "--stream", str(data / "stream.jsonl"), "--offline",
                     "--max-sweeps", "-2", "--k-re", "3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: max_sweeps must be an integer >= 0")
        assert not out.exists()

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"query_id": "q1", "t": 1, "polarity": [1.0], "relevance": {"a": 0.9}}\n')
        code = main(["rank", "--stream", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_exits_1_cleanly(self, tmp_path, capsys):
        code = main(["rank", "--stream", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_all_fallback_exits_2(self, tmp_path, monkeypatch):
        import fairrank.cli as cli
        from fairrank.rerank import RunResult

        def fake_online(dataset, stream, config):
            run = rerank_online(dataset, stream, RerankConfig(
                objective="none", k_re=config.k_re, k_att=config.k_att,
                k_eval=config.k_eval))
            return RunResult(config, run.query_ids, run.orderings, run.ndcg,
                             [True] * len(stream), run.objective_trace, run.ledger)

        monkeypatch.setattr(cli, "rerank_online", fake_online)
        data = tmp_path / "data"
        main(["generate", "--n", "6", "--T", "2", "--out", str(data)])
        code = main(["rank", "--stream", str(data / "stream.jsonl"),
                     "--out", str(tmp_path / "run.json")])
        assert code == 2

    def test_verify_suite_pass_and_fail_codes(self, monkeypatch, capsys):
        assert main(["verify", "--suite", "w1", "--instances", "40"]) == 0
        assert "[w1]" in capsys.readouterr().out

        import fairrank.cli as cli
        from fairrank.verify import VerifyReport

        def failing(name, instances, seed):
            return VerifyReport(name=name, checks=1, failures=["boom"])

        monkeypatch.setattr(cli, "run_suite", failing)
        assert main(["verify", "--suite", "w1"]) == 3

    def test_seed_env_default(self, tmp_path, monkeypatch):
        def generate(name, *flags):
            out = tmp_path / name
            assert main(["generate", "--variant", "continuous", "--n", "6", "--T", "2",
                         *flags, "--out", str(out)]) == 0
            return (out / "stream.jsonl").read_bytes()

        monkeypatch.delenv("FAIRRANK_SEED", raising=False)
        default = generate("default")
        flagged = generate("flagged", "--seed", "99")
        monkeypatch.setenv("FAIRRANK_SEED", "99")
        assert generate("env") == flagged != default

    def test_rank_has_no_seed_option(self, tmp_path):
        data = tmp_path / "data"
        main(["generate", "--n", "6", "--T", "2", "--out", str(data)])
        with pytest.raises(SystemExit):
            main(["rank", "--stream", str(data / "stream.jsonl"), "--seed", "1",
                  "--out", str(tmp_path / "run.json")])


class TestSweepTable:
    def test_rows_cover_grid_and_carry_quality_vectors(self):
        dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4))
        rows = sweep_table(dataset, stream, theta_grid=[0.8, 1.0], kinds=["L1"],
                           objectives=["minmax"], repeats=2, seed=1,
                           k_re=8, k_att=3, k_eval=3)
        assert len(rows) == 2 * 1 * 1 * 2 * 2
        for row in rows:
            assert len(row["per_query_ndcg"]) == len(stream)
            for ndcg, fell_back in zip(row["per_query_ndcg"], row["fallback_flags"]):
                if not fell_back:
                    assert ndcg >= row["theta"] - 1e-9

    def test_bootstrap_repeats_rank_streams_with_repeated_ids(self):
        # resampled streams repeat query ids by design; only files reject them
        dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4))
        resampled = _bootstrap(stream, [0, 1])
        assert len(set(resampled.query_ids)) < len(resampled)
        config = RerankConfig(k_re=8, k_att=3, k_eval=3)
        run = rerank_online(dataset, resampled, config)
        assert run.query_ids == list(resampled.query_ids)
