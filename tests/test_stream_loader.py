"""The stream-file loader: ``orjson`` with a stdlib fallback, checked line for
line against the stdlib-only loader in ``tests/oracles.py``, and timesteps
past int64 rejected by line."""

import json
import math
import struct
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fairrank import io as fio
from fairrank.core import POLARITY_LIMIT, Stream
from fairrank.errors import ParseError, ValidationError
from fairrank.synth import SynthSpec, gen_random_instance, gen_synth

from oracles import load_stream_oracle

IDS = ("a", "b", "c")


def _outcome(load, path, raw):
    """What ``load`` makes of ``path``: the Stream's ids and bytes, or the
    exception's type and message; with the warnings' messages either way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            individuals, stream = load(path, raw=raw)
        except Exception as exc:  # the oracle's own exception, whatever it is
            result = (type(exc), str(exc))
        else:
            result = (
                individuals,
                stream.individuals,
                stream.query_ids,
                stream.t.dtype.str,
                stream.t.tobytes(),
                stream.polarity.shape,
                stream.polarity.tobytes(),
                stream.relevance.shape,
                stream.relevance.tobytes(),
            )
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_as_oracle(path, raw=False):
    """``load_stream`` and the stdlib-only oracle agree on ``path``; returns
    the loader's outcome."""
    got = _outcome(fio.load_stream, path, raw)
    assert got == _outcome(load_stream_oracle, path, raw)
    return got


def _line(query_id="q1", t=1, polarity=(1.0,), relevance=None) -> str:
    relevance = dict(zip(IDS, (0.5, 0.3, 0.2))) if relevance is None else relevance
    return json.dumps(
        {"query_id": query_id, "t": t, "polarity": list(polarity), "relevance": relevance}
    )


def _write(path, lines, newline="\n"):
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8", "surrogatepass"))
    return path


def _generated():
    """Seeded streams from both generators, P = 1 to 3."""
    for variant in ("binary", "continuous"):
        for seed in (1, 2):
            yield f"{variant}-{seed}", gen_synth(SynthSpec(n=12, T=6, seed=seed, variant=variant))[1]
    for components in (1, 2, 3):
        for law in ("unit", "signed", "continuous"):
            name = f"random-P{components}-{law}"
            yield name, gen_random_instance(9, 3, 7, law, seed=components, components=components)[1]


GENERATED = dict(_generated())


class TestSameAsOracle:
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_streams(self, name, tmp_path):
        path = tmp_path / "stream.jsonl"
        fio.save_stream(path, GENERATED[name])
        (individuals, *_), caught = assert_same_as_oracle(path)
        assert individuals == GENERATED[name].individuals and not caught

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_reordered_keys_blank_lines_and_line_endings(self, newline, tmp_path):
        stream = GENERATED["random-P2-signed"]
        rng = np.random.default_rng(11)
        lines = []
        for query_id, t, eta, row in zip(
            stream.query_ids, stream.t.tolist(), stream.polarity.tolist(), stream.relevance.tolist()
        ):
            order = rng.permutation(len(row)).tolist()
            relevance = {stream.individuals[j]: row[j] for j in order}
            record = {"relevance": relevance, "t": t, "query_id": query_id, "polarity": eta}
            lines += [json.dumps(record), "", " \t"]
        path = _write(tmp_path / "stream.jsonl", lines, newline)
        (_, _, _, _, _, _, _, _, relevance), _ = assert_same_as_oracle(path)
        assert relevance == stream.relevance.tobytes()

    def test_raw_mode_renormalized_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = []
        for t in range(1, 9):
            scores = rng.random(len(IDS)) * [7.0, 1.0, 1.0 + 1e-7, 1.0 + 5e-10][t % 4]
            if t % 4 in (2, 3):  # near 1: inside the file tolerance, one outside the exact one
                scores = scores / math.fsum(scores.tolist()) * [1.0 + 1e-7, 1.0 + 5e-10][t % 4 - 2]
            lines.append(_line(f"q{t}", t, relevance=dict(zip(IDS, scores.tolist()))))
        # integers, some past 64 bits, renormalize to the same Stream
        lines.append(_line("q9", 9, relevance={"a": 2**64 + 1, "b": 3 * 2**70 + 12345, "c": 7}))
        path = _write(tmp_path / "raw.jsonl", lines)
        _, caught = assert_same_as_oracle(path, raw=True)
        assert caught and all(category is UserWarning for category, _ in caught)

    def test_float_stress(self, tmp_path):
        """About 20k doubles, each written three ways, plus subnormals,
        halfway cases and literals that under- or overflow."""
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
        doubles = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
        literals = []
        for x in doubles:
            literals += [repr(x), "%.17g" % x, "%.25e" % x]
        subnormals = [struct.unpack("<d", struct.pack("<Q", int(b)))[0]
                      for b in rng.integers(1, 2**52, size=500).tolist()]
        literals += [repr(x) for x in subnormals]
        literals += ["5e-324", "-4.9406564584124654e-324", "2.2250738585072011e-308",
                     "2.2250738585072014e-308", "1.7976931348623157e308", "1e-400", "-1e-400",
                     "2.4703282292062327e-324", "2.4703282292062328e-324", "0", "-0", "-0.0",
                     "1E+2", "1e0", "9007199254740993", "18446744073709551615"]
        with localcontext() as ctx:
            ctx.prec = 1200
            for x in doubles[:2000] + subnormals[:200] + [1.0, 0.1, 5e-324, 1e308]:
                above = math.nextafter(x, math.inf)
                if not math.isfinite(above):
                    continue
                middle = (Decimal(x) + Decimal(above)) / 2  # exact: a halfway case
                literals += [str(middle), format(middle, "e")]
        # polarity within POLARITY_LIMIT is read back as is; a query holding
        # components beyond it is rejected, and the message both loaders must
        # agree on lists every parsed component by repr
        width = 500
        inside = [v for v in literals if abs(float(json.loads(v))) <= POLARITY_LIMIT]
        beyond = [v for v in literals if abs(float(json.loads(v))) > POLARITY_LIMIT]
        assert len(inside) > 40_000 and len(beyond) > 20_000
        inside += ["1.0"] * (-len(inside) % width)

        def polarity_lines(values):
            return [
                '{"query_id": "q%d", "t": %d, "polarity": [%s], "relevance": {"a": 0.5, "b": 0.5}}'
                % (i + 1, i + 1, ", ".join(values[i * width:(i + 1) * width]))
                for i in range(-(-len(values) // width))
            ]

        lines = polarity_lines(inside)
        path = _write(tmp_path / "polarity.jsonl", lines)
        (_, _, _, _, _, shape, polarity, _, _), _ = assert_same_as_oracle(path)
        assert shape == (len(lines), width)
        expected = np.array([float(json.loads(v)) for v in inside]).reshape(shape)
        assert polarity == expected.tobytes()
        for i, line in enumerate(polarity_lines(beyond)):
            (error, message), _ = assert_same_as_oracle(_write(tmp_path / f"beyond{i}.jsonl", [line]))
            assert error is ValidationError and message.endswith(f"beyond ±{POLARITY_LIMIT:g}")
        # relevance in raw mode: the magnitudes, renormalized
        magnitudes = [v.lstrip("-") for v in literals]
        names = [f"i{j:03d}" for j in range(width)]
        lines = [
            '{"query_id": "q%d", "t": %d, "polarity": [1.0], "relevance": {%s}}'
            % (i + 1, i + 1, ", ".join(
                f'"{name}": {value}'
                for name, value in zip(names, magnitudes[i * width:(i + 1) * width])
            ))
            for i in range(len(magnitudes) // width)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_same_as_oracle(_write(tmp_path / "relevance.jsonl", lines), raw=True)


def _nested(depth):
    return "[" * depth + "]" * depth


VALID = _line("q1", 1)
MALFORMED = {
    "not-json": ["{", VALID],
    "trailing-garbage": [VALID + " x"],
    "nan-relevance": [_line(relevance={"a": math.nan, "b": 0.5, "c": 0.5})],
    "infinity-relevance": [VALID, _line("q2", 2, relevance={"a": math.inf, "b": 0.0, "c": 0.0})],
    "minus-infinity-polarity": [_line(polarity=(-math.inf,))],
    "nan-polarity": [_line(polarity=(math.nan,))],
    "overflowing-literal": [VALID.replace("0.5", "1e400")],
    "overflowing-polarity": [VALID.replace("[1.0]", "[-1e400]")],
    "overflowing-integer": [VALID.replace("[1.0]", "[" + "9" * 400 + "]")],
    "lone-surrogate-id": [VALID.replace('"q1"', '"\\ud800"')],
    "lone-surrogate-individual": [VALID.replace('"a"', '"\\udfff"')],
    "bom": ["\ufeff" + VALID],
    "bom-second-line": [VALID, "\ufeff" + _line("q2", 2)],
    "float-timestep": [_line(t=1.0)],
    "exponent-timestep": [VALID.replace('"t": 1', '"t": 1e0')],
    "bool-timestep": [_line(t=True)],
    "string-timestep": [_line(t="1")],
    "null-timestep": [_line(t=None)],
    "missing-timestep": [VALID.replace('"t": 1, ', "")],
    "missing-relevance": ['{"query_id": "q1", "t": 1, "polarity": [1.0]}'],
    "zero-timestep": [_line(t=0)],
    "negative-wide-timestep": [_line(t=-(2**64))],
    "integer-query-id": [_line(query_id=7)],
    "wide-integer-query-id": [_line(query_id=2**70)],
    "null-query-id": [_line(query_id=None)],
    "top-level-array": ["[1, 2]"],
    "top-level-string": ['"q1"'],
    "top-level-wide-integer": [str(2**70)],
    "top-level-float": ["0.5"],
    "deep-nesting": [_nested(5000)],
    "string-score": [_line(relevance={"a": "0.5", "b": 0.3, "c": 0.2})],
    "bool-score": [_line(relevance={"a": True, "b": 0.0, "c": 0.0})],
    "null-score": [_line(relevance={"a": None, "b": 0.5, "c": 0.5})],
    "list-score": [_line(relevance={"a": [0.5], "b": 0.3, "c": 0.2})],
    "empty-relevance": [_line(relevance={})],
    "relevance-array": [_line(relevance=[0.5, 0.5])],
    "empty-polarity": [_line(polarity=())],
    "string-polarity": [_line(polarity=("1",))],
    "polarity-object": [VALID.replace("[1.0]", '{"x": 1.0}')],
    "wide-integer-polarity": [_line(polarity=(2**70,))],
    "duplicate-query-id": [VALID, _line("q1", 2)],
    "decreasing-timestep": [_line("q1", 2), _line("q2", 1)],
    "coverage": [VALID, _line("q2", 2, relevance={"a": 0.5, "b": 0.5})],
    "extra-individual": [VALID, _line("q2", 2, relevance={"a": 0.5, "b": 0.3, "c": 0.1, "d": 0.1})],
    "arity": [VALID, _line("q2", 2, polarity=(1.0, -1.0))],
    "sum-off": [VALID, _line("q2", 2, relevance={"a": 0.5, "b": 0.5, "c": 0.5})],
    "wide-integer-score": [_line(relevance={"a": 2**70, "b": 0, "c": 0})],
    "duplicate-key": [VALID.replace('"a": 0.5', '"a": 0.9, "b": 0.1, "a": 0.5')],
    "duplicate-field": [VALID.replace('"t": 1', '"t": 1.5, "t": 1')],
    "empty-file": [],
    "blank-file": ["", "  "],
}
RAW_MALFORMED = {
    "negative": [_line(relevance={"a": -1.0, "b": 3.0, "c": 0.0})],
    "negative-integer": [_line(relevance={"a": -1, "b": 3, "c": 0})],
    "all-zero": [VALID, _line("q2", 2, relevance={"a": 0.0, "b": 0, "c": -0.0})],
    "overflowing-sum": [_line(relevance={"a": 1e308, "b": 1e308, "c": 0.0})],
    "nan-score": [_line(relevance={"a": math.nan, "b": 1.0, "c": 1.0})],
    "infinite-score": [_line(relevance={"a": math.inf, "b": 1.0, "c": 1.0})],
    "overflowing-literal": [VALID.replace("0.5", "1e400")],
}


class TestMalformedSameAsOracle:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("raw", [False, True], ids=["checked", "raw"])
    def test_malformed(self, case, raw, tmp_path):
        assert_same_as_oracle(_write(tmp_path / "bad.jsonl", MALFORMED[case]), raw=raw)

    @pytest.mark.parametrize("case", sorted(RAW_MALFORMED))
    def test_raw_malformed(self, case, tmp_path):
        (error, _), _ = assert_same_as_oracle(
            _write(tmp_path / "bad.jsonl", RAW_MALFORMED[case]), raw=True
        )
        assert error is ParseError

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(VALID.encode() + b"\n" + _line("q2", 2).encode().replace(b"q2", b"q\xff") + b"\n")
        (error, _), _ = assert_same_as_oracle(path)
        assert error is UnicodeDecodeError

    def test_wide_negative_raw_score_prints_as_a_float(self, tmp_path):
        """The one known difference: ``orjson`` reads an integer literal past
        64 bits as a float, so a raw-mode negative-score message prints that
        float where the stdlib-only loader printed the integer."""
        path = _write(tmp_path / "raw.jsonl", [_line(relevance={"a": -(2**64), "b": 3.0, "c": 0.0})])
        with pytest.raises(ParseError) as new:
            fio.load_stream(path, raw=True)
        with pytest.raises(ParseError) as old:
            load_stream_oracle(path, raw=True)
        assert str(new.value) == "line 1: negative relevance score -1.8446744073709552e+19 for 'a'"
        assert str(old.value) == "line 1: negative relevance score -18446744073709551616 for 'a'"


class TestParserPaths:
    """Valid lines are parsed by ``orjson`` alone; the stdlib parser sees
    exactly the lines ``orjson`` rejects or may read differently."""

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_valid_lines_never_reach_the_stdlib(self, name, tmp_path, monkeypatch):
        path = tmp_path / "stream.jsonl"
        fio.save_stream(path, GENERATED[name])
        expected = _outcome(load_stream_oracle, path, False)

        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib parser was called")

        monkeypatch.setattr(fio.json, "loads", refuse)
        assert _outcome(fio.load_stream, path, False) == expected

    TRIGGERS = {
        "nan": _line(relevance={"a": math.nan, "b": 0.5, "c": 0.5}),
        "minus-infinity": _line(polarity=(-math.inf,)),
        "1e400": VALID.replace("0.5", "1e400"),
        "lone-surrogate": VALID.replace('"q1"', '"\\ud800"'),
        "t-2**64": _line(t=2**64),
        "float-t": _line(t=2.0),
        "bom": "\ufeff" + VALID,
    }

    @pytest.mark.parametrize("case", sorted(TRIGGERS))
    def test_each_trigger_takes_the_stdlib_path(self, case, tmp_path, monkeypatch):
        line = self.TRIGGERS[case]
        path = _write(tmp_path / "stream.jsonl", [line])
        expected = _outcome(load_stream_oracle, path, False)
        seen = []
        stdlib = json.loads

        def spy(text, *args, **kwargs):
            seen.append(text)
            return stdlib(text, *args, **kwargs)

        monkeypatch.setattr(fio.json, "loads", spy)
        outcome = _outcome(fio.load_stream, path, False)
        assert seen == [line + "\n"]
        if case == "t-2**64":  # the stdlib reads the integer, which the loader rejects
            expected = (ValidationError, f"line 1: timestep {2**64} does not fit in int64"), []
        assert outcome == expected


class TestWideTimesteps:
    """A timestep must fit in int64; larger ones used to reach the Stream as
    float64, object or uint64 columns."""

    @pytest.mark.parametrize(
        "ts, lineno",
        [([1, 2**63], 2), ([1, 2**64], 2), ([2**63], 1), ([3, 2**100], 2)],
        ids=["2**63", "2**64", "one-line-2**63", "2**100"],
    )
    def test_file_rejects_them_by_line(self, ts, lineno, tmp_path):
        path = _write(tmp_path / "stream.jsonl", [_line(f"q{i}", t) for i, t in enumerate(ts)])
        with pytest.raises(ValidationError) as caught:
            fio.load_stream(path)
        assert type(caught.value) is ValidationError
        assert str(caught.value) == f"line {lineno}: timestep {ts[-1]} does not fit in int64"

    def test_file_accepts_the_int64_maximum(self, tmp_path):
        path = _write(tmp_path / "stream.jsonl", [_line("q0", 1), _line("q1", 2**63 - 1)])
        _, stream = fio.load_stream(path)
        assert stream.t.dtype == np.int64 and stream.t.tolist() == [1, 2**63 - 1]

    @pytest.mark.parametrize(
        "ts, step",
        [([1, 2**63], 1), ([1, 2**64], 1), ([2**63], 0), ([-(2**63) - 1, 1], 0),
         (np.array([1, 2**63], dtype=np.uint64), 1), (np.array([1, 2**64], dtype=object), 1)],
        ids=["float64", "object", "uint64", "below", "uint64-array", "object-array"],
    )
    def test_stream_rejects_them(self, ts, step):
        query_ids = [f"q{i}" for i in range(len(ts))]
        with pytest.raises(ValidationError) as caught:
            Stream(query_ids, ts, [[1.0]] * len(ts), ("x",), [[1.0]] * len(ts))
        assert str(caught.value) == f"query 'q{step}': timestep {int(ts[step])} does not fit in int64"

    def test_stream_accepts_the_int64_maximum_and_still_rejects_fractions(self):
        stream = Stream(["q0", "q1"], [1, 2**63 - 1], [[1.0]] * 2, ("x",), [[1.0]] * 2)
        assert stream.t.dtype == np.int64
        with pytest.raises(ValidationError, match="integers, got float64"):
            Stream(["q0", "q1"], [1, 2.5], [[1.0]] * 2, ("x",), [[1.0]] * 2)
