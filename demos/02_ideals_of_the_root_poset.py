#!/usr/bin/env python3
"""Walk the ideals of a root poset and their exponent multisets.

An ideal is a downward-closed set of positive roots.  The number of ideals
is the Weyl-Catalan number, and each ideal's subarrangement has exponents
given by the dual partition of the ideal's heights.
"""

from idealshi import build, enumerate_ideals, ideal_exponents, roots_of, weyl_catalan_number

rs = build("B3")
ideals = enumerate_ideals(rs)
print(f"B3 has {len(ideals)} ideals (Weyl-Catalan number {weyl_catalan_number(rs)})\n")

for i, mask in enumerate(ideals):
    roots = roots_of(rs, mask)
    names = ", ".join(r.name for r in roots) or "(empty)"
    print(f"{i:>3}  size {len(roots)}  exponents {ideal_exponents(rs, mask)}  {{{names}}}")

print("\nlinear extension (every prefix is an ideal):")
print("  " + " < ".join(r.name for r in rs.positive_roots))

print("\nideal counts across small systems:")
for name in ["A2", "B2", "G2", "A3", "B3", "A4", "B4", "D4", "F4"]:
    print(f"  {name}: {weyl_catalan_number(build(name))}")
