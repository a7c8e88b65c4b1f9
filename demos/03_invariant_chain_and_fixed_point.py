"""The two-step pipeline: shrink to an invariant core, then pick a
certified fixed vector out of it.

Step 1 intersects, level by level, the largest subspaces of the lattice
image that every deeper generator family preserves.  Step 2 intersects
the resulting core with the space of vectors fixed by all visible
generators and extracts a canonical nonzero witness.  The dropping tap
is the interesting family: its level-0 generator pushes part of the
lattice below exponent 0, so the core is strictly smaller than the
lattice image.  Run with

    python3 demos/03_invariant_chain_and_fixed_point.py
"""

from equifix.action import ActionSpec, apply_phi, build_action
from equifix.fixpoint import (
    default_window,
    extract_witness,
    find_fixed_point,
    m_ell_chain,
    window_b_image,
)
from equifix.laurent import format_vector, parse_series
from equifix.taps import SparsePerturbation, TapEntry


def mk(label, p, d, taps):
    seed = SparsePerturbation(p, d, [TapEntry(*t) for t in taps])
    return build_action(ActionSpec(p=p, d=d, seed=seed, label=label))


tap = mk("tap", 2, 2, [(1, 0, 2, 0, 1)])
drop = mk("dropping-tap", 2, 2, [(1, 0, 2, -1, 1)])

for action in (tap, drop):
    w = default_window(action, 4, 3)
    chain = m_ell_chain(action, 3, w)
    b_dim = window_b_image(w).dim
    note = "whole lattice image survives" if chain.m_hat.dim == b_dim else \
        f"strictly smaller than the lattice image (dim {b_dim})"
    print(f"{action.spec.label}: window [{w.lo}, {w.hi})")
    print(f"  per-level core dims {chain.dims()}, stable from level {chain.l_stable}")
    print(f"  final core dim {chain.m_hat.dim}: {note}")
    if chain.m_hat.dim < b_dim:
        print("  core basis rows (window coordinates):")
        for row in chain.m_hat.row_strings():
            print(f"    {row}")

print("\nwitness extraction on the dropping tap")
chain = m_ell_chain(drop, 3, default_window(drop, 4, 3))
cert = extract_witness(drop, chain)
print(f"  witness  {format_vector(cert.witness)}")
print(f"  inside the core: {cert.in_m_hat}; outside t * core: {cert.outside_t_m_hat}")
ks = [k for k, _ in cert.checked_generators]
print(f"  re-checked against generators k = {ks}: "
      f"{all(flag for _, flag in cert.checked_generators)}")

print("\nindependent confirmation, straight through the action")
for k in (0, 1, 2):
    x = parse_series(f"t^{k}", 2, 9)
    moved = apply_phi(drop, x, cert.witness, out_prec=cert.precision - drop.drop)
    same = moved == cert.witness.truncate(cert.precision - drop.drop)
    print(f"  phi(t^{k})(witness) == witness up to O(t^{moved.prec}): {same}")

print("\none-call form (policy window, doubled when the certificate cannot read there)")
chain, cert = find_fixed_point(drop, 4, 3)
print(f"  find_fixed_point -> {format_vector(cert.witness)}, certified: {cert.ok}")
print("done")
