"""The package's public surface: what ``fairrank`` exports, and the names
that streams-as-columns removed."""

import importlib

import fairrank
from fairrank.core import Assignment, Ledger, Stream

MODULES = ("core", "io", "rerank", "synth", "cli", "verify", "metrics", "divergence")
REMOVED = (
    "QueryEvent",
    "as_stream",
    "validate_stream",
    "normalize_relevance",
    "dcg_at_k",
    "ndcg_at_k",
    "ideal_ranking",
    "stream_line",
    "NegativeScoreError",
    "AllZeroError",
)


def test_every_exported_name_resolves():
    assert len(set(fairrank.__all__)) == len(fairrank.__all__)
    for name in fairrank.__all__:
        assert getattr(fairrank, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fairrank import *", namespace)
    assert set(fairrank.__all__) <= set(namespace)
    for name in ("Stream", "Ledger", "ideal_order"):
        assert name in namespace


def test_removed_names_are_absent():
    modules = [fairrank, fairrank.errors] + [importlib.import_module(f"fairrank.{m}") for m in MODULES]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(Stream, "__iter__")
    assert not hasattr(Assignment, "position_of")
    for name in ("_record", "_ordering_rows", "attention_values", "replace_attention"):
        assert not hasattr(Ledger, name), name


def test_ledger_writes_only_through_update():
    public = {name for name in vars(Ledger) if not name.startswith("_")}
    assert public == {
        "update", "memo", "stored", "values_at", "moments_at", "moments",
        "sequence", "mean_matrix", "var_matrix", "sequences",
    }
