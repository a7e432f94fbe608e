#!/usr/bin/env python3
"""Grow the coned affine Weyl arrangement one plane at a time.

The chain adds the level 0 planes along a prefix-ideal order, then level 1
in reverse, then level -1, level 2, and so on.  At every step the
characteristic polynomial splits with the dual-partition exponents, and
full rounds land exactly on the extended Shi cones.
"""

from idealshi import (
    build,
    charpoly_mobius,
    filtration_cone,
    shi_arrangement,
    shi_exponents_dp,
    terao_check,
)

rs = build("B2")
n = rs.n_positive

print(f"{rs.type}: 2n = {2 * n} planes per round\n")
prev = None
for i in range(1, 2 * 2 * n + 2):
    step = filtration_cone(rs, i)  # (k, ideal, sign): each step is an ideal-Shi cone
    arr = shi_arrangement(rs, *step)
    exps = shi_exponents_dp(rs, *step)
    verdict = terao_check(charpoly_mobius(arr), exps)
    nested = "" if prev is None else ("  nested" if set(prev.covectors) <= set(arr.covectors) else "  BROKEN")
    mark = ""
    for k in (1, 2):
        if set(arr.covectors) == set(shi_arrangement(rs, k, 0, "+").covectors):
            mark = f"   <- Shi cone, k = {k}"
    status = "ok" if verdict.passed else "MISMATCH"
    print(f"step {i:>2}  |A| = {arr.size:>2}  exponents {str(exps):<14} {status}{nested}{mark}")
    prev = arr

print("\nchi at the second full round:", charpoly_mobius(shi_arrangement(rs, *filtration_cone(rs, 4 * n + 1))))
