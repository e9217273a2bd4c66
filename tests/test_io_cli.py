"""File formats and the command-line interface."""

import base64
import json
import math

import numpy as np
import pytest

from fairrank import io as fio
from fairrank.cli import _bootstrap, main, sweep_table
from fairrank.core import Dataset, QueryEvent
from fairrank.errors import (
    CoverageError,
    LengthMismatchError,
    ParseError,
    StreamOrderError,
    ValidationError,
)
from fairrank.rerank import RerankConfig, rerank_online
from fairrank.synth import SynthSpec, gen_synth_binary, gen_synth_cont


def block_relevance(payload) -> list[dict]:
    """Per-query relevance of a run file's stream block, decoded independently."""
    block = payload["stream"]
    rows = np.frombuffer(base64.b64decode(block["relevance"]), dtype="<f8")
    rows = rows.reshape(len(block["t"]), len(block["individuals"]))
    return [dict(zip(block["individuals"], row.tolist())) for row in rows]


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
        assert stream[0].polarity == (-1.0,)
        assert stream[0].relevance == {"a": 1.0, "b": 0.0}
        assert all(type(v) is float for v in stream[0].relevance.values())

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
        assert stream[0].relevance == {"a": 0.75, "b": 0.25}

    def test_small_drift_within_file_tolerance_is_fixed_silently(self, tmp_path):
        value = 0.5 + 2e-8
        path = tmp_path / "drift.jsonl"
        path.write_text(
            json.dumps({"query_id": "q1", "t": 1, "polarity": [1.0],
                        "relevance": {"a": value, "b": 0.5}}) + "\n"
        )
        _, stream = fio.load_stream(path)
        assert abs(math.fsum(stream[0].relevance.values()) - 1.0) <= 1e-12


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
        assert [q.query_id for q in tuning] == [q.query_id for q in again_tuning]
        assert len(tuning) + len(test) == len(stream)
        for part in (tuning, test):
            ts = [q.t for q in part]
            assert ts == sorted(ts)

    def test_fraction_extremes(self, binary_files):
        _, stream, _, _ = binary_files
        all_tuning, none = fio.split_by_query_id(stream, 1.0)
        assert len(all_tuning) == len(stream) and none == []
        with pytest.raises(ValidationError):
            fio.split_by_query_id(stream, 1.5)

    def test_salt_changes_the_partition(self):
        dataset, stream = gen_synth_binary(SynthSpec(n=4, T=16))
        a, _ = fio.split_by_query_id(stream, 0.5, salt="one")
        b, _ = fio.split_by_query_id(stream, 0.5, salt="two")
        assert [q.query_id for q in a] != [q.query_id for q in b]


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
            for channel in ("attention", "relevance"):
                for mode in ("aware", "agnostic"):
                    got_mean, got_var = replayed.ledger.moments(ind, channel, mode)
                    want_mean, want_var = run.ledger.moments(ind, channel, mode)
                    np.testing.assert_array_equal(got_mean, want_mean)
                    np.testing.assert_array_equal(got_var, want_var)
                    np.testing.assert_array_equal(
                        replayed.ledger.sequence(ind, channel, mode),
                        run.ledger.sequence(ind, channel, mode),
                    )
        assert replayed.ndcg == run.ndcg
        assert replayed.fallback == run.fallback

    @pytest.mark.parametrize(
        "key", ["orderings", "fallback", "ndcg", "objective_trace", "query_ids"]
    )
    def test_per_query_list_of_wrong_length_rejected(self, binary_files, tmp_path, key):
        dataset, stream, _, _ = binary_files
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        payload = fio.load_run(run_path)
        del payload[key][2]
        with pytest.raises(LengthMismatchError):
            fio.replay_run(payload, dataset.group_of)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"config": {}}')
        with pytest.raises(ValidationError):
            fio.load_run(path)

    @pytest.mark.parametrize(
        "key",
        ["config", "stream", "query_ids", "orderings", "ndcg", "fallback",
         "objective_trace", "sweeps"],
    )
    def test_every_saved_key_is_required(self, binary_files, tmp_path, key):
        dataset, stream, _, _ = binary_files
        config = RerankConfig(k_re=8, k_att=3, k_eval=3, theta=0.9)
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, config), stream)
        payload = json.loads(run_path.read_text())
        assert key in payload
        del payload[key]
        run_path.write_text(json.dumps(payload))
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
        payload = json.loads(run_path.read_text())
        payload["config"]["seed"] = 0
        run_path.write_text(json.dumps(payload))
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
        relevance = block_relevance(payload)[step]
        ordering = payload["orderings"][step]
        j = next(j for j in range(1, 3) if relevance[ordering[j]] != relevance[ordering[0]])
        ordering[0], ordering[j] = ordering[j], ordering[0]
        payload["fallback"][step] = False
        with pytest.raises(ValidationError, match="q0002.*nDCG"):
            fio.replay_run(payload, group_of)

    def test_edited_k_eval_rejected(self, payload):
        payload, group_of = payload
        payload["config"]["k_eval"] = 2
        with pytest.raises(ValidationError, match="nDCG"):
            fio.replay_run(payload, group_of)

    def test_non_ideal_step_flagged_as_fallback_rejected(self, payload):
        payload, group_of = payload
        ideal = [
            sorted(rel, key=lambda i: (-rel[i], i))
            for rel in block_relevance(payload)
        ]
        step = next(t for t, o in enumerate(payload["orderings"]) if o != ideal[t])
        payload["fallback"][step] = True
        with pytest.raises(ValidationError, match="fallback"):
            fio.replay_run(payload, group_of)

    def test_unknown_id_in_an_ordering_rejected(self, payload):
        payload, group_of = payload
        payload["orderings"][2][4] = "nobody"
        with pytest.raises(ValidationError, match="q0003"):
            fio.replay_run(payload, group_of)

    @pytest.mark.parametrize("k_eval", [3, 4, 5, 7])
    def test_ties_across_the_k_eval_cut_replay_exactly(self, tmp_path, k_eval):
        """Replay takes the ideal DCG from the k_eval largest relevance
        values; ties straddling the cut (0.1 four times, 0.05 twice) leave
        the stored nDCG exact."""
        ids = tuple(f"d{k}" for k in range(8))
        values = [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]
        stream = [
            QueryEvent(f"q{t}", t, (1.0 if t % 2 else -1.0,), dict(zip(ids, values[t:] + values[:t])))
            for t in range(1, 6)
        ]
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


class TestRunFileLayout:
    def test_run_file_is_one_compact_line(self, binary_files, tmp_path):
        dataset, stream, _, _ = binary_files
        run_path = tmp_path / "run.json"
        fio.save_run(run_path, rerank_online(dataset, stream, RerankConfig(k_re=8, k_att=3, k_eval=3)), stream)
        text = run_path.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        assert text == json.dumps(json.loads(text), ensure_ascii=False) + "\n"

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

    def test_indented_run_files_evaluate_identically(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--variant", "continuous", "--n", "12", "--T", "6",
                     "--seed", "4", "--out", str(data)]) == 0
        common = ["--stream", str(data / "stream.jsonl"), "--groups", str(data / "groups.csv")]
        base, run = tmp_path / "base.json", tmp_path / "run.json"
        assert main(["rank", *common, "--objective", "none", "--out", str(base)]) == 0
        assert main(["rank", *common, "--kind", "W1", "--theta", "0.8", "--out", str(run)]) == 0
        old_base, old_run = tmp_path / "old_base.json", tmp_path / "old_run.json"
        for new, old in ((base, old_base), (run, old_run)):
            payload = json.loads(new.read_text(encoding="utf-8"))
            # the layout written before run files became one compact line
            old.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                           encoding="utf-8")
            assert old.read_bytes() != new.read_bytes()
        reports = []
        for r, b in ((run, base), (old_run, old_base)):
            out = tmp_path / f"report-{r.stem}.json"
            assert main(["evaluate", "--run", str(r), "--baseline-run", str(b),
                         "--groups", str(data / "groups.csv"), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _awkward_stream():
    """Relevance an encoding must keep bit for bit: -0.0, the smallest
    subnormal, and rows whose sums sit off 1 by less than 1e-9 (which replay
    must not renormalize)."""
    rng = np.random.default_rng(7)
    ids = [f"i{k}" for k in range(6)]
    stream = []
    for t in range(1, 6):
        raw = rng.random(len(ids))
        raw[:2] = 0.0
        values = (raw / raw.sum()).tolist()
        values[0] = -0.0
        values[1] = 5e-324 if t % 2 else values[2] * 1e-3
        values[2] += 6e-10 if t % 2 else -values[1] - 6e-10
        stream.append(QueryEvent(f"q{t}", t, (1.0 if t % 2 else -0.5,), dict(zip(ids, values))))
    return Dataset.single_group(ids), stream


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
        assert (block["query_ids"], block["t"]) == ([q.query_id for q in stream], [q.t for q in stream])
        for want, got in zip(stream, block_relevance(payload)):
            assert list(got) == sorted(want.relevance)
            for ind, value in want.relevance.items():
                assert np.float64(got[ind]).tobytes() == np.float64(value).tobytes()
        replayed = fio.replay_run(payload, dataset.group_of)
        for channel in ("attention", "relevance"):
            for mode in ("aware", "agnostic"):
                assert (replayed.ledger.sequences(channel, mode).tobytes()
                        == run.ledger.sequences(channel, mode).tobytes())
        assert [a.ordering for a in replayed.assignments] == [a.ordering for a in run.assignments]

    def test_run_file_is_smaller_than_its_stream_file(self, tmp_path):
        dataset, stream = gen_synth_cont(SynthSpec(variant="continuous", n=60, T=8, seed=1))
        stream_path, run_path = tmp_path / "stream.jsonl", tmp_path / "run.json"
        fio.save_stream(stream_path, stream)
        fio.save_run(run_path, rerank_online(dataset, stream, RerankConfig(k_re=10, k_att=3, k_eval=3)), stream)
        assert run_path.stat().st_size < stream_path.stat().st_size

    def test_old_list_of_lines_layout_rejected(self, saved):
        dataset, stream, _, path = saved
        payload = fio.load_run(path)
        payload["stream"] = [fio.stream_line(q) for q in stream]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match="earlier version"):
            fio.replay_run(fio.load_run(path), dataset.group_of)

    @staticmethod
    def _set_row(block, step, scale=1.0, index=None, value=None):
        rows = np.frombuffer(base64.b64decode(block["relevance"]), dtype="<f8")
        rows = rows.reshape(len(block["t"]), -1).copy()
        rows[step] *= scale
        if index is not None:
            rows[step, index] = value
        block["relevance"] = base64.b64encode(rows.tobytes()).decode("ascii")

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
            (lambda b: b.__setitem__("relevance", b["relevance"][:-4] + "*AAA"),
             ParseError, "base64"),
            # without validation the stray character would be skipped silently
            (lambda b: b.__setitem__("relevance", b["relevance"][:8] + "*" + b["relevance"][8:]),
             ParseError, "base64"),
            (lambda b: b.__setitem__("relevance", b["relevance"] + "AAAAAAAAAAA="),
             ValidationError, "bytes"),
            (lambda b: b.__setitem__("relevance", b["relevance"][:-12]),
             ValidationError, "bytes"),
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
            (lambda b: b["polarity"].__setitem__(1, [1.0, 1.0]), LengthMismatchError,
             "component"),
        ],
    )
    def test_malformed_block_rejected(self, saved, edit, error, match):
        dataset, _, _, path = saved
        payload = fio.load_run(path)
        edit(payload["stream"])
        with pytest.raises(error, match=match):
            fio.replay_run(payload, dataset.group_of)


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
        assert json.loads(out.read_text())["sweeps"] >= 1

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
            return RunResult(config, run.query_ids, run.assignments, run.ndcg,
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
        assert len({q.query_id for q in resampled}) < len(resampled)
        config = RerankConfig(k_re=8, k_att=3, k_eval=3)
        run = rerank_online(dataset, resampled, config)
        assert run.query_ids == [q.query_id for q in resampled]
