"""Exact integer linear algebra: canonical row spaces and kernel lattices.

Everything here works over arbitrary-precision Python integers.  A linear
subspace of Q^n is represented by the unique "integer RREF" of a spanning
set of row vectors: rows have distinct pivot columns, zeros above and below
every pivot, each row is primitive (content 1) with a positive pivot, and
rows are sorted by pivot column.  Two row sets span the same subspace if
and only if their canonical forms are equal.
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
    """Eliminate the pivot entries of ``rows`` from ``v``.

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


def _insert(rows: list[list[int]], pivots: list[int], v: Sequence[int], clear: bool = True) -> bool:
    """Extend a canonical row set, held in lists, by one vector in place.

    Returns False when ``v`` already lies in the row space.  The update is
    incremental: reduce ``v``, normalize, then clear the new pivot column
    from the old rows (whose leading entries stay positive).  Rows keep
    insertion order; callers sort them by pivot.  ``clear=False`` keeps the
    old rows, so each row is zero only at the pivots of the rows before it.
    """
    new = reduce_row(v, rows, pivots)
    piv = first_nonzero(new)
    if piv < 0:
        return False
    g = content(new) if new[piv] > 0 else -content(new)
    new = [x // g for x in new]
    for i, r in enumerate(rows if clear else ()):
        b = r[piv]
        if b:
            r = [new[piv] * x - b * y for x, y in zip(r, new)]
            g = content(r)
            rows[i] = [x // g for x in r]
    rows.append(new)
    pivots.append(piv)
    return True


def insert_row(
    rows: tuple[Vec, ...], pivots: tuple[int, ...], v: Sequence[int]
) -> Optional[tuple[tuple[Vec, ...], tuple[int, ...]]]:
    """The canonical (rows, pivots) of the span of ``rows`` and ``v``, or
    None when ``v`` already lies in the row space."""
    new_rows, new_pivots = list(rows), list(pivots)
    if not _insert(new_rows, new_pivots, v):
        return None
    ordered = sorted(zip(new_pivots, new_rows))
    return tuple(tuple(r) for _, r in ordered), tuple(p for p, _ in ordered)


def rref(vectors: Iterable[Sequence[int]]) -> tuple[Vec, ...]:
    """Canonical integer RREF of the span of ``vectors``."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        _insert(rows, pivots, v)
    return tuple(tuple(r) for _, r in sorted(zip(pivots, rows)))


def rank(vectors: Iterable[Sequence[int]]) -> int:
    return len(rref(vectors))


def nullspace(rows: Iterable[Sequence[int]], n: int) -> list[Vec]:
    """Primitive integer basis of {x in Q^n : r.x = 0 for all rows r}, one vector
    per free column: an echelon form not cleared above its pivots (unlike
    :func:`rref`), then back-substitution scaling by each pivot, not dividing."""
    echelon: list[list[int]] = []
    pivots: list[int] = []
    for v in rows:
        _insert(echelon, pivots, v, clear=False)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        x = [int(j == free) for j in range(n)]
        for r, p in zip(reversed(echelon), reversed(pivots)):
            s = dot(r[p + 1 :], x[p + 1 :])
            if s:
                g = gcd(s, r[p])
                x = [xi * (r[p] // g) for xi in x]
                x[p] = -s // g
        basis.append(normalize_primitive(x))
    return basis


def hermite_normal_form(vectors: Iterable[Sequence[int]]) -> tuple[Vec, ...]:
    """Row-style Hermite normal form of the lattice generated by ``vectors``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Unlike :func:`rref` this is a canonical basis of the integer row
    *lattice*, so rows are never rescaled.
    """
    mat = [list(v) for v in vectors]
    mat = [m for m in mat if any(m)]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: (abs(mat[i][c]), i))
            i0 = nz[0]
            for i in nz[1:]:
                q = mat[i][c] // mat[i0][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        nz = [i for i in range(r, len(mat)) if mat[i][c]]
        if not nz:
            continue
        i0 = nz[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(m) for m in mat[:r] if any(m))


def kernel_basis(v: Sequence[int]) -> tuple[Vec, ...]:
    """Basis of the saturated integer kernel lattice {x : x.v = 0}.

    Requires a nonzero vector; returns n-1 rows in Hermite normal form.
    """
    n = len(v)
    if not any(v):
        raise ValueError("kernel of the zero covector is the whole space")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vals = list(v)
    while True:
        nz = [i for i in range(n) if vals[i]]
        if len(nz) == 1:
            break
        nz.sort(key=lambda i: (abs(vals[i]), i))
        i0 = nz[0]
        for i in nz[1:]:
            q = vals[i] // vals[i0]
            vals[i] -= q * vals[i0]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
    keep = [rows[i] for i in range(n) if not vals[i]]
    return hermite_normal_form(keep)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))
