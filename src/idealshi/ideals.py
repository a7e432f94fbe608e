"""The root poset: ideals, their enumeration and their exponents.

An ideal is a downward-closed subset of the positive roots under dominance
(alpha dominates beta when alpha - beta has nonnegative coefficients).
Ideals are stored as bitmasks over the canonical root order of their root
system, which makes enumeration, deduplication and reporting cheap and
reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .rootsys import RootSystem, weyl_exponents


def weyl_catalan_number(rs: RootSystem) -> int:
    """prod (e_i + h + 1) / (e_i + 1) over the Weyl exponents."""
    h = rs.coxeter_number
    out = Fraction(1)
    for e in weyl_exponents(rs):
        out *= Fraction(e + h + 1, e + 1)
    if out.denominator != 1:
        raise AssertionError(f"Weyl-Catalan product is not an integer for {rs.type}")
    return out.numerator


def enumerate_ideals(rs: RootSystem, max_rank: int = 4) -> tuple[int, ...]:
    """The masks of all ideals, sorted by (size, mask), from one sweep of the
    root order.

    The canonical order is a linear extension of dominance, so every root
    below root i comes before it: each ideal of the first i + 1 roots leaves
    root i out, or adds it to an ideal of the first i roots that already
    holds every root strictly below it.  The count is cross-checked against
    the Weyl-Catalan product, which counts ideals independently of this
    construction; an order that is not a linear extension would lose ideals.
    """
    if rs.rank > max_rank:
        raise ValueError(f"rank {rs.rank} exceeds the enumeration bound {max_rank}")
    masks = [0]
    for i, below in enumerate(rs.below_masks):
        masks += [m | 1 << i for m in masks if not below & ~m & ~(1 << i)]
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    if len(masks) != weyl_catalan_number(rs):
        raise AssertionError(
            f"ideal count {len(masks)} for {rs.type} disagrees with the Weyl-Catalan number"
        )
    return tuple(masks)
