#!/usr/bin/env python3
"""Ideal-extended Shi cones and their characteristic polynomials, three ways.

The Mobius sum over the intersection lattice is the authoritative method;
a signed subset sum and finite-field point counting confirm it.  For each
ideal the polynomial splits over the integers, with roots predicted by the
dual partition of the extended heights.
"""

from idealshi import (
    build,
    charpoly_finite_field,
    charpoly_mobius,
    charpoly_whitney,
    enumerate_ideals,
    roots_of,
    shi_arrangement,
    shi_exponents_dp,
    terao_check,
    try_factor_exponents,
)

rs = build("A2")

print("the plain Shi cone, the Catalan cone, and everything between:")
for mask in enumerate_ideals(rs):
    arr = shi_arrangement(rs, 1, mask, "+")
    chi = charpoly_mobius(arr)
    label = ",".join(r.name for r in roots_of(rs, mask)) or "empty"
    print(f"  +{{{label:<14}}} |A| = {arr.size:>2}   chi = {chi}   roots {try_factor_exponents(chi)}")

print("\nthree methods on the k = 2 Shi cone of B2:")
b2 = build("B2")
arr = shi_arrangement(b2, 2, 0, "+")
print("   mobius      :", charpoly_mobius(arr))
print("   subset sum  :", charpoly_whitney(arr))
print("   finite field:", charpoly_finite_field(arr))

print("\npredicted vs computed exponents over every ideal of G2, k = 1:")
g2 = build("G2")
for mask in enumerate_ideals(g2):
    predicted = shi_exponents_dp(g2, 1, mask, "+")
    verdict = terao_check(charpoly_mobius(shi_arrangement(g2, 1, mask, "+")), predicted)
    label = ",".join(r.name for r in roots_of(g2, mask)) or "empty"
    status = "ok" if verdict.passed else "MISMATCH"
    print(f"  +{{{label:<22}}} predicted {predicted}  {status}")
