"""Exact integer linear algebra: primitive vectors and fraction-free elimination.

Everything here works over arbitrary-precision Python integers.  The
program needs primitive covectors and fraction-free row reduction.  The
canonical "integer RREF" (distinct pivot columns, zeros above and below
every pivot, each row primitive with a positive pivot, rows sorted by
pivot) remains for :func:`rank` and for the tests' brute-force lattice
oracle, which compares row spaces by their canonical forms.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


def content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def first_nonzero(v: Sequence[int]) -> int:
    """Index of the first nonzero entry, or -1 for the zero vector."""
    for i, x in enumerate(v):
        if x:
            return i
    return -1


def normalize_primitive(v: Sequence[int]) -> Optional[Vec]:
    """Scale to a primitive vector with positive first nonzero entry.

    Returns None for the zero vector.
    """
    p = first_nonzero(v)
    if p < 0:
        return None
    g = content(v)
    if v[p] < 0:
        g = -g
    return tuple(x // g for x in v)


def reduce_row(v: Sequence[int], rows: Sequence[Vec], pivots: Sequence[int]) -> list[int]:
    """Eliminate the pivot entries of ``rows``, an echelon basis, from ``v``.

    Fraction-free: the result is an integer multiple of the rational
    reduction, which is all callers need (zero test, span building).
    """
    out = list(v)
    for r, p in zip(rows, pivots):
        b = out[p]
        if b:
            a = r[p]
            out = [a * x - b * y for x, y in zip(out, r)]
    return out


def _insert(rows: list[list[int]], pivots: list[int], v: Sequence[int]) -> bool:
    """Extend a canonical row set, held in lists, by one vector in place.

    Returns False when ``v`` already lies in the row space.  The update is
    incremental: reduce ``v``, normalize, then clear the new pivot column
    from the old rows (whose leading entries stay positive).  Rows keep
    insertion order; callers sort them by pivot.
    """
    new = normalize_primitive(reduce_row(v, rows, pivots))
    if new is None:
        return False
    piv = first_nonzero(new)
    for i, r in enumerate(rows):
        b = r[piv]
        if b:
            r = [new[piv] * x - b * y for x, y in zip(r, new)]
            g = content(r)
            rows[i] = [x // g for x in r]
    rows.append(list(new))
    pivots.append(piv)
    return True


def rref(vectors: Iterable[Sequence[int]]) -> tuple[Vec, ...]:
    """Canonical integer RREF of the span of ``vectors``."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        _insert(rows, pivots, v)
    return tuple(tuple(r) for _, r in sorted(zip(pivots, rows)))


def rank(vectors: Iterable[Sequence[int]]) -> int:
    return len(rref(vectors))
