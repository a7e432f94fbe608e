"""Rank-2 multiarrangement exponents and the ambient-3 freeness criterion.

A derivation on the plane is a pair (P, Q) of homogeneous degree-d
polynomials; it respects a line with form a*x + b*y and multiplicity m
when a*P + b*Q is divisible by (a*x + b*y)^m, a linear condition on the
coefficients of (P, Q).  For basis degrees d1 <= d2 (d1 + d2 = |m|),
degree d* = ceil(|m|/2) - 1 < d2 has dimension max(0, d* - d1 + 1): one
rank there gives d1, the kernels at d1 and d2 a basis, and Saito's
criterion (Ziegler 1989) checks it on every row.  The rank and kernels
first drop the rows of the lines x and y, which each pin an unknown to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import comb
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import linalg
from .arrangement import Arrangement, LatticeCache, ziegler_multiplicity
from .charpoly import chi0_at_zero
from .linalg import Vec
from .rootsys import ExponentMultiset

Multiplicity = Mapping[Vec, int]
Rows = Callable[[int], list[list[int]]]  # degree -> the condition rows a caller built
_PRIME = 2147483629  # below 2**31, so products of residues fit in int64


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


def _conditions(arr2: Arrangement, mult: Multiplicity, degree: int) -> list[list[int]]:
    if arr2.dim != 2 or arr2.size < 1:
        raise ValueError("multiarrangement exponents need at least one line in 2 coordinates")
    if min(mult.values(), default=0) < 0 or not set(mult) <= set(arr2.covectors):
        raise ValueError(f"multiplicities must be nonnegative and on lines of the arrangement: {dict(mult)}")
    return [row for cov in arr2.covectors for row in _line_conditions(*cov, mult.get(cov, 0), degree)]


def _unpinned(rows: list[list[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """The rows and columns left after dropping each row with one nonzero
    entry, which pins its unknown to 0, and that unknown's column."""
    pinned = {linalg.first_nonzero(r) for r in rows if sum(map(bool, r)) == 1}
    cols = [j for j in range(n) if j not in pinned]
    return [[r[j] for j in cols] for r in rows if sum(map(bool, r)) > 1], cols


def _kernel(rows: list[list[int]], n: int) -> list[Vec]:
    """:func:`linalg.nullspace` of ``rows``, eliminated on the unpinned unknowns
    only.  Pivot columns do not depend on row order, so the basis is the same."""
    kept, cols = _unpinned(rows, n)
    lifted = [dict(zip(cols, v)) for v in linalg.nullspace(kept, len(cols))]
    return [tuple(x.get(j, 0) for j in range(n)) for x in lifted]


def derivation_space_dim(
    arr2: Arrangement, mult: Multiplicity, degree: int, prime: Optional[int] = None, rows: Optional[Rows] = None
) -> int:
    """Dimension of the degree-d part of the constrained derivation module,
    or with ``prime`` of its reduction mod ``prime`` (< 2**31), never less."""
    conditions, n = (rows or partial(_conditions, arr2, mult))(degree), 2 * (degree + 1)
    if prime is None:
        return n - linalg.rank(conditions)
    kept, cols = _unpinned(conditions, n)
    a, dim = np.array([[x % prime for x in r] for r in kept], dtype=np.int64).reshape(len(kept), len(cols)), len(cols)
    for c in range(len(cols)):
        if (nz := np.flatnonzero(a[:, c])).size:  # clear column c with row nz[0], zeroing that row
            a, dim = (a[nz[0], c] * a - a[:, c, None] * a[nz[0]]) % prime, dim - 1
    return dim


def saito_certified(
    arr2: Arrangement, mult: Multiplicity, theta1: Sequence[int], theta2: Sequence[int], rows: Optional[Rows] = None
) -> bool:
    """Saito's criterion: do theta1, theta2 (unknowns as in :func:`_line_conditions`)
    meet every line condition, with det[theta1 theta2] = c * prod alpha_H^(m_H),
    c != 0?  Both sides are forms of degree |m|, compared at y = 1."""
    rows = rows or partial(_conditions, arr2, mult)
    if any(linalg.dot(r, t) for t in (theta1, theta2) for r in rows(len(t) // 2 - 1)):
        return False
    (p1, q1), (p2, q2) = (np.array(t, dtype=object).reshape(2, -1) for t in (theta1, theta2))
    det, target = np.convolve(p1, q2) - np.convolve(p2, q1), np.ones(1, dtype=object)
    for a, b in arr2.covectors:
        for _ in range(mult.get((a, b), 0)):
            target = np.convolve(target, np.array([b, a], dtype=object))
    j = linalg.first_nonzero(target)
    return len(det) == len(target) and det[j] != 0 and all(det * target[j] == target * det[j])


def exp_rank2_multi(arr2: Arrangement, mult: Multiplicity) -> tuple[int, int]:
    """Exponent pair (d1, d2), d1 <= d2, of a basis passing Saito's criterion.
    A prime that overstates dim D_{d*} guesses d1 too low, where the exact
    kernel is empty; the exact rank is then taken instead."""
    rows = cache(partial(_conditions, arr2, mult))  # each degree's rows, built once
    total = sum(mult.get(cov, 0) for cov in arr2.covectors)
    dstar = (total + 1) // 2 - 1
    for prime in (_PRIME, None):
        dim = derivation_space_dim(arr2, mult, dstar, prime, rows)
        d1 = dstar + 1 - dim if dim else total // 2
        if first := _kernel(rows(d1), 2 * d1 + 2):
            break
    d2 = total - d1
    second = first[1:] if d1 == d2 else _kernel(rows(d2), 2 * d2 + 2)
    if not first or not any(saito_certified(arr2, mult, first[0], theta2, rows) for theta2 in second):
        raise AssertionError(f"no derivation basis of degrees ({d1}, {d2}) passes Saito's criterion")
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
    czero = chi0_at_zero(arr3, cache, **bounds)  # first: it applies the size guards
    d1, d2 = exp_rank2_multi(*ziegler_multiplicity(arr3, h0))
    if czero == d1 * d2:
        return FreenessVerdict(True, ExponentMultiset((1, d1, d2)), czero, (d1, d2))
    return FreenessVerdict(False, None, czero, (d1, d2))
