#!/usr/bin/env python3
"""Fairwashing: a ranking that looks perfectly fair until query polarity
is taken into account.

Two equally relevant individuals, two queries: one flattering, one
defamatory (polarity +1 / -1). The top slot receives all attention. The
system gives individual `a` the top slot on the positive query and
individual `b` the top slot on the negative one. Counting raw attention,
both received exactly what their relevance promised. Counting the
real-world value of that attention, `a` banked +1 while `b` banked -1.
"""

import math

from fairrank import DivergenceKind, Ledger, fairwashing_delta, iaa, individual_unfairness
from fairrank.synth import fairwashing_scenario

dataset, stream, orderings, attention = fairwashing_scenario()

ledger = Ledger(dataset, stream)
for query_id, polarity, rows in zip(stream.query_ids, stream.polarity, orderings):
    ranked = tuple(dataset.individuals[i] for i in rows)
    print(f"query {query_id!r} (polarity {polarity[0]:+.0f}): ranked {ranked}")
    ledger.update(rows, attention)

print()
for row, ind in enumerate(dataset.individuals):
    raw_attn = ledger.moments_at([row], "attention", "agnostic")[0][0, 0]
    raw_rel = ledger.moments_at([row], "relevance", "agnostic")[0][0, 0]
    val_attn = ledger.moments_at([row], "attention", "aware")[0][0, 0]
    val_rel = ledger.moments_at([row], "relevance", "aware")[0][0, 0]
    print(f"  {ind}: raw attention {raw_attn:+.1f} vs relevance {raw_rel:+.1f}   "
          f"| polarity-weighted {val_attn:+.1f} vs {val_rel:+.1f}")

agnostic = individual_unfairness(ledger, DivergenceKind.L1, "agnostic")
aware = individual_unfairness(ledger, DivergenceKind.L1, "aware")
print(f"""
polarity-agnostic unfairness (L1): {agnostic}
polarity-aware unfairness    (L1): {aware}
fairwashing delta                : {fairwashing_delta(aware, agnostic)}
polarity-aware inequity (IAA)    : {iaa(ledger, 'aware')}
""")

assert agnostic == 0.0 and aware == 1.0
assert math.isinf(fairwashing_delta(aware, agnostic))
print("The agnostic books balance exactly; the aware books are maximally "
      "unfair -- infinite fairwashing.")
