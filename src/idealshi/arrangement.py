"""Central arrangements of integer covectors and their intersection lattices.

A hyperplane {alpha - j*z = 0} in the coned space is the covector
(c_1, ..., c_l, -j) over the basis (simple roots, z); {z = 0} is
(0, ..., 0, 1).  Only the linear matroid of these vectors matters for the
lattice, the Mobius function and the characteristic polynomial, so no inner
product or Gram matrix ever enters: everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .linalg import Vec
from .rootsys import Root, RootSystem, shi_planes


class SizeBoundError(RuntimeError):
    """A computation was refused because it exceeds a configured size guard."""


def covector(entries: Sequence[int]) -> Vec:
    """Normalize to a primitive covector with positive first nonzero entry."""
    v = linalg.normalize_primitive(entries)
    if v is None:
        raise ValueError("the zero vector does not define a hyperplane")
    return v


@dataclass(frozen=True)
class Arrangement:
    """A deduplicated set of hyperplanes through the origin."""

    dim: int
    covectors: tuple[Vec, ...]

    @classmethod
    def of(cls, dim: int, vectors: Iterable[Sequence[int]]) -> "Arrangement":
        normed = set()
        for v in vectors:
            if len(v) != dim:
                raise ValueError(f"covector length {len(v)} != ambient dimension {dim}")
            normed.add(covector(v))
        return cls(dim, tuple(sorted(normed)))

    @property
    def size(self) -> int:
        return len(self.covectors)

    def delete(self, v: Sequence[int]) -> "Arrangement":
        cov = covector(v)
        if cov not in self.covectors:
            raise ValueError("hyperplane not in arrangement")
        return Arrangement(self.dim, tuple(c for c in self.covectors if c != cov))


# ---------------------------------------------------------------------------
# construction of the arrangements attached to a root system


def root_covector(rs: RootSystem, root: Root, j: int = 0, coned: bool = False) -> Vec:
    """Covector of {root - j*z = 0}; plain root hyperplane when not coned."""
    if root.coeffs not in rs.index:
        raise ValueError(f"{root} is not a positive root of {rs.type}")
    if coned:
        return root.coeffs + (-j,)  # a positive root is already primitive and nonnegative
    if j != 0:
        raise ValueError("unconed hyperplanes only exist at level 0")
    return root.coeffs


def z_covector(rs: RootSystem) -> Vec:
    return (0,) * rs.rank + (1,)


def root_arrangement(rs: RootSystem, roots: Optional[Iterable[Root]] = None) -> Arrangement:
    """The arrangement {root = 0 : root in subset} in rank-many coordinates."""
    chosen = rs.positive_roots if roots is None else tuple(roots)
    return Arrangement(rs.rank, tuple(sorted({root_covector(rs, r) for r in chosen})))


def shi_arrangement(rs: RootSystem, k: int, sigma: Iterable[Root], sign: str) -> Arrangement:
    """Coned k-extended Shi arrangement plus the level -k planes of sigma
    (sign '+') or minus the level k planes of sigma (sign '-')."""
    covs = {root_covector(rs, root, j, coned=True) for root, j in shi_planes(rs, k, sigma, sign)}
    return Arrangement(rs.rank + 1, tuple(sorted(covs | {z_covector(rs)})))  # already normalized


def filtration_cone(rs: RootSystem, i: int) -> tuple[int, tuple[Root, ...], str]:
    """Step i of the saturated chain as the ideal-Shi cone (k, ideal, sign).

    With n positive roots and q, r = divmod(i - 1, 2n), round q first adds
    level -q along the canonical root order, giving (q, first r roots, '+'),
    then level q+1 in reverse order, giving (q+1, first 2n-r roots, '-').
    Height never decreases along that order, so every prefix is an ideal;
    at q = 0 the cone is {z = 0} plus the planes {root = 0} of the ideal.
    """
    if i < 1:
        raise ValueError("filtration steps are indexed from 1")
    n = rs.n_positive
    q, r = divmod(i - 1, 2 * n)
    if r <= n:
        return q, rs.positive_roots[:r], "+"
    return q + 1, rs.positive_roots[: 2 * n - r], "-"


# ---------------------------------------------------------------------------
# intersection lattice


@dataclass(frozen=True)
class IntersectionLattice:
    arrangement: Arrangement
    # levels[c] holds the flats of codim c in a structured array with fields
    # "mask" (uint64 words, bit i set when covectors[i] contains the flat) and "mu"
    levels: tuple[np.ndarray, ...]

    def charpoly_coeffs(self) -> tuple[int, ...]:
        """Coefficients (ascending degree) of sum mu(X) t^dim(X)."""
        n = self.arrangement.dim
        coeffs = [0] * (n + 1)
        for codim, level in enumerate(self.levels):
            coeffs[n - codim] += int(level["mu"].sum())
        return tuple(coeffs)


_BLOCK = 128  # parent flats restricted per batch: keeps the temporaries small
_INT64_SAFE = 1 << 62


def _exact(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as int64 when ``bound`` caps every entry of the product
    about to be taken, else as Python integers, so results stay exact."""
    dtype = np.int64 if bound < _INT64_SAFE else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _maxabs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _primitive(rows: np.ndarray) -> np.ndarray:
    """Divide each row (last axis) by its content and make its first
    nonzero entry positive; zero rows stay zero."""
    g = np.abs(np.gcd.reduce(rows, axis=-1))  # a lone entry reduces to itself
    flat = rows.reshape(-1, rows.shape[-1])
    lead = flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)].reshape(g.shape)
    g = np.where(lead < 0, -g, g)
    g[g == 0] = 1
    return rows // g[..., None]


def _restricted_basis(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """For each g, rows spanning the x in rowspace(basis[g]) whose
    coordinates are orthogonal to v[g]: the vectors v_p e_j - v_j e_p
    (p the first nonzero entry of v[g], j != p) taken through basis[g]."""
    g, d = v.shape
    p = np.argmax(v != 0, axis=1)[:, None]
    at_p = np.arange(d) == p
    u = v[at_p][:, None, None] * np.eye(d, dtype=v.dtype) - v[:, :, None] * at_p[:, None, :]
    u, basis = _exact(_maxabs(v) * _maxabs(basis) * d, u[~at_p].reshape(g, d - 1, d), basis)
    return _primitive(np.matmul(u, basis))


def _sorted_groups(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by ``columns`` (the last is the primary key); return the
    sort order and a flag marking the first row of each run of equal rows."""
    order = np.lexsort(columns)
    keys = np.stack([col[order] for col in columns])
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return order, first


def _merge(masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each distinct mask, and ``values`` summed per mask."""
    order, first = _sorted_groups(masks.view(np.int64).T)
    return order[first], np.add.reduceat(values[order], np.flatnonzero(first))


def _children(
    covs: np.ndarray, start: int, masks: np.ndarray, bases: np.ndarray, mus: np.ndarray, lows: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Flats one codimension below a block of flats, whose first flat is
    flat ``start`` of its level: one per parallel class of each flat's
    restricted forms, merged on their masks.  Each (flat Y, class) pair is
    a cover edge Y -> X.  Beside X's mask and lowest plane come a class
    representative and Y's index in its level, from which the caller makes
    X's basis when another level follows, and the sum of mu(Y) over the
    edges whose class holds X's lowest plane, i.e. lies below every plane
    of Y."""
    n = bases.shape[2]
    c, b = _exact(_maxabs(covs) * _maxabs(bases) * n, covs, bases)
    forms = _primitive(np.matmul(c, b.transpose(0, 2, 1)))  # (flat, hyperplane, coord)
    flat, hyp = np.nonzero((forms != 0).any(axis=2))
    rows = forms[flat, hyp]
    # primitive sign-fixed forms of one flat are parallel iff equal; the
    # sort is stable, so each class starts at its lowest plane
    order, first = _sorted_groups([*rows.T, flat])
    reps = order[first]
    parent = flat[reps]
    low = np.minimum(hyp[reps], lows[parent])
    child = masks[parent]
    hyp = hyp[order]
    bits = np.uint64(1) << (hyp & 63).astype(np.uint64)
    np.bitwise_or.at(child, (np.cumsum(first) - 1, hyp >> 6), bits)
    keep, sums = _merge(child, np.where(low < lows[parent], mus[parent], 0))
    return child[keep], rows[reps[keep]], start + parent[keep], low[keep], sums


def _below(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j < m in np.triu_indices order; triu_indices
    itself is slower and pages in numpy code the build otherwise never runs."""
    return np.nonzero(np.arange(m)[:, None] < np.arange(m))


def _pairs(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The codim-2 flats: the plane pairs i < j grouped on the primitive
    wedge c_i ^ c_j (its entries c_i[a] c_j[b] - c_i[b] c_j[a], a < b).
    Returns each group's pairs (in their triu order, which the stable sort
    keeps, so a group's first pair holds its lowest plane) and group starts."""
    m, n = covs.shape
    i, j = _below(m)
    a, b = _below(n)
    ci, cj = _exact(2 * _maxabs(covs) ** 2, covs[i], covs[j])
    wedge = ci[:, a] * cj[:, b] - ci[:, b] * cj[:, a]
    if not (wedge != 0).any(axis=1).all():
        raise ValueError("two covectors define the same hyperplane")
    order, first = _sorted_groups([*_primitive(wedge).T])
    return i[order], j[order], np.flatnonzero(first)


# Default size guards.  A campaign's largest cone, (k, all roots, '+'), has
# |Phi+|(2k+1) + 1 planes in rank + 1 coordinates, so every case is admitted
# for A2 k <= 11, B2 k <= 8, G2 k <= 5, A3 k <= 5, B3/C3/A4 k <= 3, D4 k <= 2
# and B4/C4/F4 k = 1.
MAX_HYPERPLANES = 73
MAX_DIM = 5


def intersection_lattice(arr: Arrangement) -> IntersectionLattice:
    """Build the full intersection lattice, level by level.

    A flat X carries the mask of the hyperplanes containing it, its lowest
    plane and mu(X).  Levels 1 and 2 come straight from the planes: each
    plane is an atom with mu = -1, and the plane pairs, grouped on their
    wedge, are the codim-2 flats, with mu(X) = |A_X| - 1 (Weisner's
    theorem with X's lowest plane; Orlik-Terao, section 2.3).  In at most
    3 coordinates only the top is left: one codim-2 flat means rank 2,
    more mean rank 3.  From codim 3 on, a flat also carries an integer
    basis B of X.  The hyperplanes not containing X restrict to the
    nonzero rows of C.B^T (C the covectors); each parallel class of those
    rows is a cover edge to a flat one codimension down, with mask
    mask(X) | class.  Flats merge on their masks, so no row reduction
    happens inside the build.  By Weisner's theorem mu(X) = -sum mu(Y)
    over the edges Y -> X whose class holds X's lowest plane.  The top
    flat is unique, so it is written down directly, with mu from the
    coatoms that miss plane 0; sum mu = 0 is checked apart.
    """
    n, m = arr.dim, arr.size
    words = max(1, -(-m // 64))
    levels = [(np.zeros((1, words), dtype=np.uint64), np.ones(1, dtype=np.int64))]
    if m:
        widest = max(abs(x) for cov in arr.covectors for x in cov)
        covs = np.array(arr.covectors, dtype=np.int64 if widest < _INT64_SAFE else object)
        planes = np.arange(m)
        atoms = np.zeros((m, words), dtype=np.uint64)
        atoms[planes, planes >> 6] = np.uint64(1) << (planes & 63).astype(np.uint64)
        levels.append((atoms, np.full(m, -1, dtype=np.int64)))
    if m > 1:
        i, j, starts = _pairs(covs)
        masks = np.bitwise_or.reduceat(atoms[i] | atoms[j], starts)
        mus = np.unpackbits(masks.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64) - 1
        levels.append((masks, mus))
        rank = 2 if len(masks) == 1 else 3 if n <= 3 else linalg.rank(arr.covectors)
        lows = i[starts]
        if rank > 3:  # each flat's basis: the kernel of its first pair's second plane traced on the first
            kernel = _restricted_basis(covs[lows], np.eye(n, dtype=np.int64)[None])
            c, b = _exact(_maxabs(covs) * _maxabs(kernel) * n, covs[j[starts]], kernel)
            bases = _restricted_basis(_primitive(np.matmul(b, c[:, :, None])[..., 0]), kernel)
        for codim in range(3, rank):
            found = [
                _children(covs, s, *(a[s : s + _BLOCK] for a in (masks, bases, mus, lows)))
                for s in range(0, len(masks), _BLOCK)
            ]
            masks, forms, parents, lows, sums = (np.concatenate(part) for part in zip(*found))
            keep, sums = _merge(masks, sums)
            masks, lows, mus = masks[keep], lows[keep], -sums
            levels.append((masks, mus))
            if codim + 1 < rank:  # the top needs no basis
                bases = _restricted_basis(forms[keep], bases[parents[keep]])
        if rank > 2:
            top = np.frombuffer(((1 << m) - 1).to_bytes(8 * words, "little"), dtype="<u8")[None]
            levels.append((top, -mus[lows > 0].sum(keepdims=True)))

    flats = np.dtype([("mask", np.uint64, (words,)), ("mu", np.int64)])
    lattice = IntersectionLattice(arr, tuple(np.empty(len(mus), dtype=flats) for _, mus in levels))
    for level, (masks, mus) in zip(lattice.levels, levels):
        level["mask"], level["mu"] = masks, mus
    if m and sum(lattice.charpoly_coeffs()) != 0:
        raise AssertionError("Mobius values of a nonempty central arrangement must sum to 0")
    return lattice


# ---------------------------------------------------------------------------
# restriction and Ziegler multiplicities


def _trace_kernel(h0: Vec, planes: list[Vec]) -> list[Vec]:
    """The primitive forms on h0 of ``planes``, in one batch, in the basis
    that :func:`_restricted_basis` gives h0 (e_1 ... e_{n-1} when h0 is a
    coordinate plane)."""
    vecs = np.array([h0, *planes], dtype=object)
    eye = np.eye(len(h0), dtype=np.int64)[None]
    basis = _restricted_basis(*_exact(_maxabs(vecs), vecs[:1], eye))[0]
    covs, basis = _exact(_maxabs(vecs) * _maxabs(basis) * len(h0), vecs[1:], basis)
    traces = covs @ basis.T
    if not traces.any(axis=1).all():
        raise ValueError("the zero vector does not define a hyperplane")
    return [tuple(row) for row in _primitive(traces).tolist()]


def _traces(arr: Arrangement, h0: Vec, table: Optional[dict] = None) -> list[Vec]:
    """The traces on h0 of the hyperplanes other than h0.  ``table`` maps
    each h0 to {plane: trace}; only the planes it lacks go through the
    kernel, and their traces are stored there."""
    known = {} if table is None else table.setdefault(h0, {})
    others = [c for c in arr.covectors if c != h0]
    new = [c for c in others if c not in known]
    if new:
        known.update(zip(new, _trace_kernel(h0, new)))
    return [known[c] for c in others]


def restriction(arr: Arrangement, h0: Sequence[int], table: Optional[dict] = None) -> Arrangement:
    """The arrangement {K cap H0 : K != H0} inside H0.

    H0 may be any hyperplane, member of the arrangement or not.  Its basis
    comes from the lattice build's kernel rule, so restricted arrangements
    are canonical, and {z = 0} keeps the first n-1 coordinates.  ``table``
    keeps the traces for later calls (:func:`_traces`).
    """
    return Arrangement(arr.dim - 1, tuple(sorted(set(_traces(arr, covector(h0), table)))))


def ziegler_multiplicity(
    arr: Arrangement, h0: Sequence[int], table: Optional[dict] = None
) -> tuple[Arrangement, dict[Vec, int]]:
    """Restriction onto h0 with each trace weighted by how many
    hyperplanes of the arrangement cut it out."""
    h0v = covector(h0)
    if h0v not in set(arr.covectors):
        raise ValueError("restriction hyperplane must belong to the arrangement")
    mult: dict[Vec, int] = {}
    for t in _traces(arr, h0v, table):
        mult[t] = mult.get(t, 0) + 1
    return Arrangement(arr.dim - 1, tuple(sorted(mult))), mult


# ---------------------------------------------------------------------------
# lattice cache


def is_central_charpoly(arr: Arrangement, coeffs: Sequence[int]) -> bool:
    """Whether ``coeffs`` (ascending degree) meet the identities of every
    characteristic polynomial of ``arr``: monic of degree dim, -|A| as the
    t^(dim-1) coefficient, and chi(1) = 0 unless the arrangement is empty."""
    top = (-arr.size, 1) if arr.dim else (1,)
    return len(coeffs) == arr.dim + 1 and tuple(coeffs[-2:]) == top and sum(coeffs) == (0 if arr.size else 1)


class LatticeCache:
    """Characteristic polynomials of arrangements, in memory for one command
    (one campaign, or one worker of it).  The table carries the size guards
    of the lattices built to fill it, and a read refuses an arrangement
    beyond them, so a warm table refuses exactly what a cold one does.
    Beside chi it keeps, for the command only, the rank-2 derivation bases
    and the traces of each plane on each restriction plane."""

    def __init__(self, *, max_hyperplanes: int = MAX_HYPERPLANES, max_dim: int = MAX_DIM):
        self.max_hyperplanes, self.max_dim = max_hyperplanes, max_dim
        self._memory: dict[Arrangement, tuple[int, ...]] = {}
        self.rank2_bases: dict = {}  # multiarr.exp_rank2_multi's bases, kept for the command like chi
        self.traces: dict[Vec, dict[Vec, Vec]] = {}  # restriction plane -> {plane: primitive trace}

    def admit(self, dim: int, size: int) -> None:
        """Refuse a cone of ``size`` planes in ``dim`` coordinates: the one size guard, asked before any build."""
        if dim > self.max_dim:
            raise SizeBoundError(f"ambient dimension {dim} exceeds bound {self.max_dim}")
        if size > self.max_hyperplanes:
            raise SizeBoundError(f"{size} hyperplanes exceed bound {self.max_hyperplanes}")

    def get_charpoly(self, arr: Arrangement) -> Optional[tuple[int, ...]]:
        self.admit(arr.dim, arr.size)
        return self._memory.get(arr)

    def put_charpoly(self, arr: Arrangement, coeffs: Sequence[int]) -> None:
        self._memory[arr] = tuple(coeffs)
