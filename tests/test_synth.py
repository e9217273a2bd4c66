"""Synthetic dataset generators."""

import numpy as np
import pytest

from fairrank.core import AttentionModel, Ledger, Stream
from fairrank.divergence import DivergenceKind
from fairrank.errors import SpecError
from fairrank.metrics import group_unfairness, individual_unfairness, metrics_panel
from fairrank.synth import (
    SynthSpec,
    fairwashing_scenario,
    gen_random_instance,
    gen_synth_binary,
    gen_synth_cont,
)


class TestSpecValidation:
    def test_odd_sizes_rejected(self):
        with pytest.raises(SpecError):
            SynthSpec(n=201)
        with pytest.raises(SpecError):
            SynthSpec(T=15)
        with pytest.raises(SpecError):
            SynthSpec(variant="gaussian")

    def test_variant_mismatch(self):
        with pytest.raises(SpecError):
            gen_synth_binary(SynthSpec(variant="continuous"))
        with pytest.raises(SpecError):
            gen_synth_cont(SynthSpec(variant="binary"))


class TestBinary:
    def test_four_individuals_two_queries(self):
        dataset, stream = gen_synth_binary(SynthSpec(n=4, T=2))
        positive, negative = stream.relevance_in(dataset)
        assert stream.polarity.tolist() == [[1.0], [-1.0]]
        # raw {1.01, 1.01, 0.99, 0.99} normalized by 4.00
        male = np.array([dataset.group_of[i] == "male" for i in dataset.individuals])
        np.testing.assert_allclose(positive[male], 0.2525, rtol=0, atol=1e-12)
        np.testing.assert_allclose(positive[~male], 0.2475, rtol=0, atol=1e-12)
        np.testing.assert_allclose(negative[male], 0.2475, rtol=0, atol=1e-12)

    def test_default_group_sizes(self):
        dataset, stream = gen_synth_binary(SynthSpec())
        assert dataset.n == 200 and len(stream) == 16
        sizes = {g: len(members) for g, members in dataset.groups.items()}
        assert sizes == {"male": 100, "female": 100}

    def test_polarity_multiset_balanced_and_alternating(self):
        _, stream = gen_synth_binary(SynthSpec(T=16))
        polarities = stream.polarity[:, 0].tolist()
        assert polarities.count(1.0) == 8 and polarities.count(-1.0) == 8
        assert polarities[0] == 1.0
        assert all(a == -b for a, b in zip(polarities, polarities[1:]))

    def test_stream_passes_validation(self):
        dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4))
        assert stream.relevance_in(dataset).shape == (4, 8) and stream.components == 1

    def test_all_positive_polarity_override_closes_the_mode_gap(self):
        dataset, stream = gen_synth_binary(SynthSpec(n=8, T=4))
        positive = Stream(stream.query_ids, stream.t, np.ones((4, 1)),
                          stream.individuals, stream.relevance)
        ledger = Ledger(dataset, positive)
        attention = AttentionModel(3)
        for _ in range(len(positive)):
            ledger.update(range(dataset.n), attention)
        assert metrics_panel(ledger, "aware", dataset).to_dict() == metrics_panel(
            ledger, "agnostic", dataset
        ).to_dict()


class TestContinuous:
    def test_deterministic_in_seed(self):
        a = gen_synth_cont(SynthSpec(n=20, T=4, seed=5, variant="continuous"))[1]
        b = gen_synth_cont(SynthSpec(n=20, T=4, seed=5, variant="continuous"))[1]
        assert a.relevance.tobytes() == b.relevance.tobytes()
        c = gen_synth_cont(SynthSpec(n=20, T=4, seed=6, variant="continuous"))[1]
        assert not np.array_equal(a.relevance, c.relevance)

    def test_zero_variance_override_gives_uniform_scores(self):
        dataset, stream = gen_synth_cont(
            SynthSpec(n=6, T=2, variant="continuous"), std_a=0.0, std_b=0.0
        )
        np.testing.assert_allclose(stream.relevance, 1.0 / 6.0, rtol=0, atol=1e-12)

    def test_group_spreads_approximate_the_generator(self):
        # raw ~ normalized * n up to the per-query sum wobble (~1%)
        spec = SynthSpec(n=200, T=16, seed=0, variant="continuous")
        dataset, stream = gen_synth_cont(spec)
        male = np.array([dataset.group_of[i] == "male" for i in dataset.individuals])
        relevance = stream.relevance_in(dataset)
        raw_a = relevance[:, male] * spec.n
        raw_b = relevance[:, ~male] * spec.n
        assert abs(raw_a.std() - 0.2) < 0.02
        assert abs(raw_b.std() - 0.1) < 0.01
        assert raw_a.min() > 0.0

    def test_stream_passes_validation(self):
        dataset, stream = gen_synth_cont(SynthSpec(n=10, T=4, variant="continuous"))
        assert stream.relevance_in(dataset).shape == (4, 10) and stream.components == 1


class TestRandomInstance:
    def test_every_group_non_empty(self):
        for seed in range(10):
            dataset, _ = gen_random_instance(7, 4, 3, "signed", seed=seed)
            assert len(dataset.groups) == 4
            assert all(len(m) >= 1 for m in dataset.groups.values())

    def test_singleton_groups_collapse_group_metrics(self):
        dataset, stream = gen_random_instance(5, 5, 4, "signed", seed=2)
        ledger = Ledger(dataset, stream)
        attention = AttentionModel(3)
        for _ in range(len(stream)):
            ledger.update(range(dataset.n), attention)
        for kind in DivergenceKind:
            assert group_unfairness(ledger, kind, "aware", dataset) == pytest.approx(
                individual_unfairness(ledger, kind, "aware"), abs=1e-15
            )

    def test_single_group_is_global_average(self):
        dataset, stream = gen_random_instance(6, 1, 3, "unit", seed=3)
        assert set(dataset.group_of.values()) == {"g0"}

    def test_unit_law_aligns_modes(self):
        dataset, stream = gen_random_instance(6, 2, 5, "unit", seed=4)
        ledger = Ledger(dataset, stream)
        attention = AttentionModel(2)
        for _ in range(len(stream)):
            ledger.update(range(dataset.n), attention)
        assert metrics_panel(ledger, "aware", dataset).to_dict() == metrics_panel(
            ledger, "agnostic", dataset
        ).to_dict()

    def test_polarity_laws(self):
        _, signed = gen_random_instance(4, 2, 20, "signed", seed=5)
        assert set(signed.polarity.ravel().tolist()) <= {-1.0, 1.0}
        _, cont = gen_random_instance(4, 2, 20, "continuous", seed=5)
        assert np.all((-1.0 <= cont.polarity) & (cont.polarity <= 1.0))
        _, multi = gen_random_instance(4, 2, 5, "signed", seed=5, components=3)
        assert multi.polarity.shape == (5, 3)

    def test_generation_is_pure(self):
        a = gen_random_instance(6, 3, 4, "continuous", seed=9)
        b = gen_random_instance(6, 3, 4, "continuous", seed=9)
        assert a[0] == b[0]
        assert a[1].relevance.tobytes() == b[1].relevance.tobytes()

    def test_spec_errors(self):
        with pytest.raises(SpecError):
            gen_random_instance(2, 3, 1)
        with pytest.raises(SpecError):
            gen_random_instance(3, 1, 0)
        with pytest.raises(SpecError):
            gen_random_instance(3, 1, 1, "weird")


def test_fairwashing_scenario_shape():
    dataset, stream, orderings, attention = fairwashing_scenario()
    assert dataset.individuals == stream.individuals == ("a", "b")
    assert stream.polarity.tolist() == [[1.0], [-1.0]]
    assert stream.relevance.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert attention.weights(2)[0] == 1.0 and attention.weights(2)[1] == 0.0
    assert orderings.tolist() == [[0, 1], [1, 0]]
