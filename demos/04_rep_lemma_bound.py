"""The finite-group side: commuting order-p generators and the
fixed-dimension lower bound dim V^G >= dim V / p^r.

First on hand-built Jordan data, then on the shifted-quotient chain
that the fixed-point pipeline produces for the three-component cascade,
where the growth table realizes the bound with exact fractions.  Run
with

    python3 demos/04_rep_lemma_bound.py
"""

import random

from equifix.action import ActionSpec, build_action
from equifix.fixpoint import default_window, lemma_chain_from_action, m_ell_chain
from equifix.linalg import FpMatrix
from equifix.replab import (
    FiniteRep,
    dichotomy_probe,
    fixed_bound_check,
    fixed_space,
    kernel_filtration,
    random_commuting_rep,
)
from equifix.taps import SparsePerturbation, TapEntry

print("one unipotent generator at p = 3 (a 3x3 Jordan block)")
g = FpMatrix(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
rep = FiniteRep(3, 3, [g])
flt = kernel_filtration(g, 3)
print(f"  kernel filtration d(i) = {list(flt.dims)}  (differences {list(flt.differences)})")
print(f"  fixed dim {fixed_space(rep).dim} >= 3 / 3^1 -> {fixed_bound_check(rep).ok}")

print("\nrandom commuting tuples keep the bound (200 draws)")
rng = random.Random(42)
worst = None
for _ in range(200):
    p = rng.choice([2, 3, 5])
    r = rng.randint(1, 3)
    rep = random_commuting_rep(rng, p, rng.randint(1, 24), r)
    check = fixed_bound_check(rep)
    assert check.ok
    slack = check.fixed_dim - check.lower_bound
    if worst is None or slack < worst[0]:
        worst = (slack, rep.p, rep.r, rep.dim, check)
slack, p, r, dim, check = worst
print(f"  all hold; tightest case p={p}, r={r}, dim={dim}: "
      f"fixed {check.fixed_dim} vs bound {check.lower_bound}")

print("\ngrowth table for the cascade action (p = 3, three components)")
seed = SparsePerturbation(3, 3, [TapEntry(1, 0, 2, 0, 1), TapEntry(2, 0, 3, 0, 1)])
action = build_action(ActionSpec(p=3, d=3, seed=seed, label="chain-3"))
w = default_window(action, 4, 3, n_max=3)
lemma = lemma_chain_from_action(action, m_ell_chain(action, 3, w), 3)
probe = dichotomy_probe(lemma.rep, lemma.nested)
print(f"  quotient slices on window [{w.lo}, {w.hi}), {lemma.rep.r} generator(s)")
for row in probe.rows:
    print(f"  depth {row.n}: dim {row.total_dim}, fixed {row.fixed_dim}, "
          f"bound {row.lower_bound} -> {'ok' if row.ok else 'VIOLATED'}")
print(f"  bound holds along the whole chain: {probe.ok}")
print("done")
