#!/usr/bin/env python3
"""Freeness of extended Shi cones over arbitrary root subsets, rank 2.

Adding the level -k planes of a subset (sign +) or removing its level k
planes (sign -) preserves freeness, and a rank-2 cone is free exactly when
the subset is empty or meets the simple roots.  The ambient-3 criterion
decides each case exactly: compare chi_0 at zero with the product of the
exponents of the multirestriction onto {z = 0}.
"""

from idealshi import (
    ExponentMultiset,
    build,
    charpoly_mobius,
    exp_rank2_multi,
    mask_of,
    root_arrangement,
    root_covector,
    roots_of,
    shi_arrangement,
    shift_predict,
    yoshinaga_check,
    z_covector,
    ziegler_multiplicity,
)

rs = build("B2")
hz = z_covector(rs)
base = root_arrangement(rs)
k = 1
h = rs.coxeter_number

print(f"{rs.type}, k = {k}: freeness of both signs over all subsets\n")
print(f"{'subset':<22} {'+':<34} {'-':<34}")
for mask in range(1 << rs.n_positive):
    label = ",".join(r.name for r in roots_of(rs, mask)) or "(empty)"
    cells = []
    for sign in "+-":
        arr = shi_arrangement(rs, k, mask, sign)
        cells.append(str(yoshinaga_check(*ziegler_multiplicity(arr, hz), charpoly_mobius(arr))))
    print(f"{label:<22} {cells[0]:<34} {cells[1]:<34}")

print("\nwhen free, the exponents follow the shift law k*h +/- m_i,")
print("with (m_1, m_2) the exponents of the 0/1 multiplicity on the base roots:")
sigma = [rs.positive_roots[0], rs.root_at((1, 1))]
indicator = {root_covector(rs, r): (1 if r in sigma else 0) for r in rs.positive_roots}
m = exp_rank2_multi(base, indicator)
print("  sigma = {a1, a1+a2}, base exponents:", m)
for sign in "+-":
    arr = shi_arrangement(rs, k, mask_of(rs, sigma), sign)
    v = yoshinaga_check(*ziegler_multiplicity(arr, hz), charpoly_mobius(arr))
    predicted = shift_predict(ExponentMultiset(m), k, h, sign)
    print(f"  sign {sign}: verdict {v}  (shift law gives {predicted})")
