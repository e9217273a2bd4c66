#!/usr/bin/env python3
"""A first tour: position-bias attention, the cumulative ledger, and the
three divergence measures.

Six individuals answer four queries. Attention falls off as 1/log2(rank+1)
down to a cutoff; relevance is a probability distribution per query. The
ledger accumulates both, and each divergence compares an individual's
cumulative attention distribution against their cumulative relevance
distribution.
"""

import math

import numpy as np

from fairrank import (
    AttentionModel,
    Dataset,
    DivergenceKind,
    Ledger,
    Stream,
    attention_weights,
    ideal_order,
)
from fairrank.metrics import individual_divergences

rng = np.random.default_rng(0)

# -- the attention model -------------------------------------------------------
print("attention weights for 6 positions, cutoff 4:")
w = attention_weights(6, cutoff=4)
for j, wj in enumerate(w, start=1):
    print(f"  position {j}: {wj:.4f}")
print(f"  (sums to {w.sum():.12f}; positions past the cutoff get exactly 0)\n")

# -- a small dataset and stream ------------------------------------------------
ids = tuple(f"doc{k}" for k in range(6))
dataset = Dataset.single_group(ids)
attention = AttentionModel(cutoff=4)

# raw scores normalized per query; one row per query, columns in id order
raw = rng.random((4, 6))
relevance = raw / np.array([math.fsum(row) for row in raw.tolist()])[:, None]
stream = Stream(["q1", "q2", "q3", "q4"], [1, 2, 3, 4], [[1.0]] * 4, ids, relevance)
ledger = Ledger(dataset, stream)
for rel in ledger.relevance:
    # rank by relevance: the "system" ranking, as dataset rows
    ledger.update(ideal_order(dataset.id_order, rel), attention)

# -- reading the ledger ---------------------------------------------------------
print("after 4 relevance-ranked queries:")
print(f"{'individual':>10} {'cum attn':>9} {'cum rel':>9} {'L1':>7} {'L2var':>8} {'W1':>7}")
divergences = [
    individual_divergences(ledger, kind)
    for kind in (DivergenceKind.L1, DivergenceKind.L2VAR, DivergenceKind.W1)
]
for ind in ids:
    row = [dataset.index[ind]]
    mean_a, _ = ledger.moments_at(row, "attention")
    mean_r, _ = ledger.moments_at(row, "relevance")
    values = [by_individual[ind] for by_individual in divergences]
    print(f"{ind:>10} {mean_a[0, 0]:9.4f} {mean_r[0, 0]:9.4f} "
          f"{values[0]:7.4f} {values[1]:8.4f} {values[2]:7.4f}")

print("""
Ranking purely by relevance concentrates attention at the top: individuals
who often rank first accrue far more attention than relevance (positive L1
gap), the tail accrues less, and the W1 column shows the mismatch between
the full per-query value profiles, not just the totals.""")
