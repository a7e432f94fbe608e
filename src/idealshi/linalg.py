"""Exact integer linear algebra: primitive vectors and fraction-free forward elimination.

Everything here works over arbitrary-precision Python integers.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


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
    g = gcd(*v)
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


def echelon(vectors: Iterable[Sequence[int]]) -> tuple[list[Vec], list[int]]:
    """Primitive echelon rows spanning ``vectors``, kept in insertion order,
    and their pivots: each row's first nonzero column, zero in later rows."""
    rows: list[Vec] = []
    pivots: list[int] = []
    for v in vectors:
        new = normalize_primitive(reduce_row(v, rows, pivots))
        if new is not None:
            rows.append(new)
            pivots.append(first_nonzero(new))
    return rows, pivots


def rank(vectors: Iterable[Sequence[int]]) -> int:
    return len(echelon(vectors)[0])
