"""Rank-2 multiarrangement exponents and the ambient-3 freeness criterion.

A derivation on the plane is a pair (P, Q) of homogeneous degree-d
polynomials; it respects a line with form a*x + b*y and multiplicity m
when a*P + b*Q is divisible by (a*x + b*y)^m.  Divisibility is linear in
the coefficients of (P, Q): substitute coordinates in which the form is a
variable and kill the m lowest coefficients.  Every rank-2 multiarrangement
is free (an external fact this module leans on), so the exponent pair is
(d1, |m| - d1) with d1 the least degree carrying a nonzero derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping, Optional, Sequence

from . import linalg
from .arrangement import Arrangement, LatticeCache, ziegler_multiplicity
from .charpoly import chi0_at_zero
from .linalg import Vec
from .rootsys import ExponentMultiset

Multiplicity = Mapping[Vec, int]


def _line_conditions(a: int, b: int, m: int, d: int) -> list[list[int]]:
    """Rows forcing (a*x + b*y)^m to divide a*P + b*Q, P, Q of degree d.

    Unknown layout: p_0..p_d then q_0..q_d, where P = sum p_s x^s y^(d-s).
    With u = a*x + b*y and w = x (b != 0), the coefficient of u^t w^(d-t)
    in b^d * (a*P + b*Q) is sum_s r_s b^s C(d-s, t) (-a)^(d-s-t), where
    r_s = a*p_s + b*q_s; the first m of these must vanish.
    """
    rows = []
    for t in range(min(m, d + 1)):
        row = [0] * (2 * (d + 1))
        if b == 0:
            # form is a*x: kill the x^t y^(d-t) coefficient directly
            row[t] = a
        else:
            for s in range(0, d - t + 1):
                coef = (b**s) * comb(d - s, t) * ((-a) ** (d - s - t))
                if coef:
                    row[s] += a * coef
                    row[d + 1 + s] += b * coef
        rows.append(row)
    return rows


def derivation_space_dim(arr2: Arrangement, mult: Multiplicity, degree: int) -> int:
    """Dimension of the degree-d part of the constrained derivation module."""
    if arr2.dim != 2:
        raise ValueError("multiarrangement exponents are computed in 2 coordinates")
    rows: list[list[int]] = []
    for cov in arr2.covectors:
        m = mult.get(cov, 0)
        if m < 0:
            raise ValueError(f"negative multiplicity on {cov}")
        if m:
            rows.extend(_line_conditions(cov[0], cov[1], m, degree))
    unknowns = 2 * (degree + 1)
    return unknowns - linalg.rank(rows)


def exp_rank2_multi(arr2: Arrangement, mult: Multiplicity) -> tuple[int, int]:
    """Exponent pair (d1, d2) of a rank-2 multiarrangement, d1 <= d2.

    d1 is found by exact linear algebra degree by degree; d2 = |m| - d1 by
    the degree sum of the (always existing) free basis.
    """
    if arr2.size < 1:
        raise ValueError("need at least one line")
    for cov in mult:
        if cov not in set(arr2.covectors):
            raise ValueError(f"multiplicity assigned to a line {cov} outside the arrangement")
    total = sum(mult.get(cov, 0) for cov in arr2.covectors)
    for d in range(total + 1):
        if derivation_space_dim(arr2, mult, d) > 0:
            d1 = d
            break
    else:
        raise AssertionError("no nonzero derivation up to the total multiplicity")
    d2 = total - d1
    if d1 > d2:
        raise AssertionError(f"minimal degree {d1} exceeds its complement {d2}")
    return d1, d2


def shift_predict(base_exp: ExponentMultiset, k: int, h: int, sign: str) -> ExponentMultiset:
    """Exponents after shifting a 0/1 multiplicity by the constant 2k:
    componentwise k*h + m_i (sign '+') or k*h - m_i (sign '-')."""
    if sign == "+":
        return ExponentMultiset(tuple(k * h + m for m in base_exp))
    if sign == "-":
        return ExponentMultiset(tuple(k * h - m for m in base_exp))
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


@dataclass(frozen=True)
class FreenessVerdict:
    """Outcome of the complete ambient-3 freeness test.

    ``restriction_exponents`` is the exponent pair of the multirestriction
    onto the chosen hyperplane; the arrangement is free exactly when their
    product matches chi_0 at zero, and then the exponents are (1, d1, d2).
    """

    free: bool
    exponents: Optional[ExponentMultiset]
    chi0_zero: int
    restriction_exponents: tuple[int, int]

    def __str__(self) -> str:
        d1, d2 = self.restriction_exponents
        if self.free:
            return f"free, exponents {self.exponents}"
        return f"not free: chi0(0) = {self.chi0_zero} != {d1 * d2} = {d1}*{d2}"


def yoshinaga_check(
    arr3: Arrangement,
    h0: Sequence[int],
    cache: Optional[LatticeCache] = None,
    **bounds,
) -> FreenessVerdict:
    """Complete freeness test for central arrangements in 3 coordinates.

    Compares chi_0 at zero with the product of the exponents of the
    multirestriction onto ``h0``; equality is equivalent to freeness.
    ``bounds`` are the size guards of :func:`charpoly.charpoly_mobius`.
    """
    if arr3.dim != 3:
        raise ValueError("this criterion applies in ambient dimension 3 only")
    restricted, mult = ziegler_multiplicity(arr3, h0)
    d1, d2 = exp_rank2_multi(restricted, mult)
    czero = chi0_at_zero(arr3, cache, **bounds)
    if czero == d1 * d2:
        return FreenessVerdict(True, ExponentMultiset((1, d1, d2)), czero, (d1, d2))
    return FreenessVerdict(False, None, czero, (d1, d2))
