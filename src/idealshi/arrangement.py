"""Central arrangements of integer covectors and their intersection lattices.

A hyperplane {alpha - j*z = 0} in the coned space is the covector
(c_1, ..., c_l, -j) over the basis (simple roots, z); {z = 0} is
(0, ..., 0, 1).  Only the linear matroid of these vectors matters for the
lattice, the Mobius function and the characteristic polynomial, so no inner
product or Gram matrix ever enters: everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .linalg import Vec
from .rootsys import Root, RootSystem, roots_of, shi_levels, shi_plane_count


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


def root_covector(rs: RootSystem, root: Root) -> Vec:
    """Covector of the root hyperplane {root = 0}: a positive root is already primitive and nonnegative."""
    if root.coeffs not in rs.index:
        raise ValueError(f"{root} is not a positive root of {rs.type}")
    return root.coeffs


def z_covector(rs: RootSystem) -> Vec:
    return (0,) * rs.rank + (1,)


def root_arrangement(rs: RootSystem, mask: Optional[int] = None) -> Arrangement:
    """The arrangement {root = 0 : root in mask, or any root without one} in rank-many coordinates."""
    chosen = rs.positive_roots if mask is None else roots_of(rs, mask)
    return Arrangement(rs.rank, tuple(sorted({root_covector(rs, r) for r in chosen})))


def shi_arrangement(rs: RootSystem, k: int, mask: int, sign: str) -> Arrangement:
    """Coned k-extended Shi arrangement plus the level -k planes of the
    roots in ``mask`` (sign '+') or minus their level k planes (sign '-')."""
    # positive roots are primitive and nonnegative, and each root's levels are distinct
    covs = [root.coeffs + (-j,) for root, js in zip(rs.positive_roots, shi_levels(rs, k, mask, sign)) for j in js]
    return Arrangement(rs.rank + 1, tuple(sorted(covs + [z_covector(rs)])))


def chain_parent(rs: RootSystem, k: int, mask: int, sign: str) -> Optional[tuple[int, str, Vec]]:
    """The parent of the ideal-Shi cone (k, mask, sign) on its chain, as (its
    mask, its sign, the covector the cone adds to it); None at an anchor.

    The parent of (k, I, '+') is (k, I - its last root, '+'), without
    {last = -k*z}; that of (k, I, '-') is (k, I + its first missing root,
    '-'), without {that root = k*z}.  The canonical order is a linear
    extension, so the parents of an ideal are ideals.  (k, {}, '+') is the
    cone (k, {}, '-'), so at k >= 1 an emptied '+' chain goes on down the
    '-' chain.  The anchors are (k, all roots, '-') for k >= 1, which is
    the cone (k - 1, all roots, '+'), and {z = 0} at k = 0.
    """
    levels = shi_levels(rs, k, mask, sign)  # refuses exactly the triples that name no cone
    if sign == "+" and not mask and k:
        sign = "-"  # the same cone, so the same levels
    if mask == (0 if sign == "+" else (1 << rs.n_positive) - 1):
        return None
    # the plane is the last root's lowest level under '+', the first missing root's highest under '-'
    i, end = (mask.bit_length() - 1, 0) if sign == "+" else ((~mask & (mask + 1)).bit_length() - 1, -1)
    return mask ^ 1 << i, sign, rs.positive_roots[i].coeffs + (-levels[i][end],)


def filtration_cone(rs: RootSystem, i: int) -> tuple[int, int, str]:
    """Step i of the saturated chain as the ideal-Shi cone (k, ideal mask, sign).

    With n positive roots and q, r = divmod(i - 1, 2n), round q is
    (q, first r roots, '+') for r <= n, then (q+1, first 2n-r roots, '-'):
    the chains of :func:`chain_parent` read upward, so step i adds to step
    i - 1 the plane that ``chain_parent(rs, *filtration_cone(rs, i))`` names.
    Height never decreases along the canonical order, so every prefix is an
    ideal, and the mask of the first r roots is (1 << r) - 1.
    """
    if i < 1:
        raise ValueError("filtration steps are indexed from 1")
    n = rs.n_positive
    q, r = divmod(i - 1, 2 * n)
    if r <= n:
        return q, (1 << r) - 1, "+"
    return q + 1, (1 << 2 * n - r) - 1, "-"


# ---------------------------------------------------------------------------
# intersection lattice


@dataclass(frozen=True)
class IntersectionLattice:
    arrangement: Arrangement
    # levels[c] holds the masks of the flats of codim c, one row of uint64
    # words per flat: bit i set when covectors[i] contains the flat
    levels: tuple[np.ndarray, ...]
    # edges[c - 3], for each level c >= 3 below the top: the cover edges
    # Y -> X into it, sorted by X, as (index of Y in level c - 1, the bounds
    # of each X's run of edges); the top's covers are every coatom, which mobius reads off their level
    edges: tuple[tuple[np.ndarray, np.ndarray], ...]

    def mobius(self, within: int) -> list[np.ndarray]:
        """mu_B of each flat, level by level, for B the planes whose bits
        ``within`` sets.

        L(B) is the set of flats X of L(A) with rank(B_X) = codim X, where B_X
        is the set of planes of B through X, and its covers are the covers of
        L(A) between its flats.  Weisner's theorem in L(B) (Orlik-Terao,
        section 2.3), with a_X the lowest plane of B_X, gives mu_B(X) =
        -sum mu_B(Y) over the covers Y -> X with a_X not through Y.  A flat
        with B_X empty gets 0; a flat X with B_X nonempty but outside L(B)
        also gets 0, since such a Y of L(B) would give X = Y cap a_X in L(B).
        So a flat lies in L(B) exactly when its sum has a nonzero term, and
        mu_B vanishes off L(B).  On atoms this is -1 on B, and on codim 2 it
        is |B_X| - 1 when |B_X| >= 2, a popcount.  Codim 3 to the coatoms run
        over the recorded edges; the top lies on every plane, so B_top = B,
        its a is the lowest bit of ``within``, and its covers are every
        coatom.  The values must sum to 0 when B is nonempty, checked always.
        """
        if not 0 <= within < 1 << self.arrangement.size:
            raise ValueError(f"within {within} is not a subset of the {self.arrangement.size} planes")
        masks, edges = self.levels, self.edges
        bits = _words(within, masks[0].shape[1])
        mus = [np.ones(1, dtype=np.int64)]
        if len(masks) > 1:
            mus.append(-(masks[1] & bits).any(axis=1).astype(np.int64))
        if len(masks) > 2:
            size = np.bitwise_count(masks[2] & bits).sum(axis=1, dtype=np.int64)
            mus.append(np.where(size > 1, size - 1, 0))
        for codim, (parents, bounds) in enumerate(edges, 3):
            a = np.repeat(_lowest(masks[codim] & bits), np.diff(bounds))
            off = (a >= 0) & ~_through(masks[codim - 1], parents, a)
            mus.append(-np.add.reduceat(np.where(off, mus[-1][parents], 0), bounds[:-1]))
        if len(masks) > 3:  # a top at codim >= 3; with B empty, every mu is 0 whichever column a = -1 reads
            a = (within & -within).bit_length() - 1
            off = masks[-2][:, a >> 6] >> np.uint64(a & 63) & np.uint64(1) == 0
            mus.append(-mus[-1].sum(where=off, keepdims=True))
        if within and sum(int(mu.sum()) for mu in mus) != 0:
            raise AssertionError("Mobius values of a nonempty central arrangement must sum to 0")
        return mus

    def charpoly_coeffs(self, within: Optional[int] = None) -> tuple[int, ...]:
        """Coefficients (ascending degree) of sum mu(X) t^dim(X): the
        polynomial of the arrangement, or of its planes in ``within``."""
        n = self.arrangement.dim
        coeffs = [0] * (n + 1)
        for codim, mu in enumerate(self.mobius((1 << self.arrangement.size) - 1 if within is None else within)):
            coeffs[n - codim] += int(mu.sum())
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


def _words(mask: int, words: int) -> np.ndarray:
    """``mask`` as ``words`` little-endian uint64 words, lowest first."""
    return np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")


def _lowest(masks: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each mask, -1 for an empty one."""
    low = np.full(len(masks), -1, dtype=np.int64)
    for w in range(masks.shape[1] - 1, -1, -1):
        word = masks[:, w]
        trailing = np.bitwise_count(word ^ (word - np.uint64(1))).astype(np.int64) - 1
        low = np.where(word != 0, 64 * w + trailing, low)
    return low


def _through(masks: np.ndarray, flats: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Whether each of ``flats`` (rows of ``masks``) lies on the plane of the same entry of ``planes``."""
    return (masks[flats, planes >> 6] >> (planes & 63).astype(np.uint64) & np.uint64(1)).astype(bool)


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


def _children(covs: np.ndarray, start: int, masks: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cover edges out of a block of flats, whose first flat is flat
    ``start`` of its level: one per parallel class of each flat Y's
    restricted forms, to the flat X one codimension below with mask
    mask(Y) | class.  Returns, per edge, X's mask, a class representative
    and Y's index in its level, from which the caller makes X's basis when
    another level follows."""
    n = bases.shape[2]
    c, b = _exact(_maxabs(covs) * _maxabs(bases) * n, covs, bases)
    forms = _primitive(np.matmul(c, b.transpose(0, 2, 1)))  # (flat, hyperplane, coord)
    flat, hyp = np.nonzero((forms != 0).any(axis=2))
    rows = forms[flat, hyp]
    # primitive sign-fixed forms of one flat are parallel iff equal
    order, first = _sorted_groups([*rows.T, flat])
    reps = order[first]
    parent = flat[reps]
    child = masks[parent]
    hyp = hyp[order]
    bits = np.uint64(1) << (hyp & 63).astype(np.uint64)
    np.bitwise_or.at(child, (np.cumsum(first) - 1, hyp >> 6), bits)
    return child, rows[reps], start + parent


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
    """Build the full intersection lattice, level by level, with its cover
    edges from codim 3 to the coatoms.

    A flat X is named by the mask of the hyperplanes containing it.
    Levels 1 and 2 come straight from the planes: each plane is an atom,
    and the plane pairs, grouped on their wedge, are the codim-2 flats; in
    2 coordinates the one codim-2 flat is the origin, on every plane.  In
    at most 3 coordinates only the top is left: one codim-2 flat means
    rank 2, more mean rank 3.  From codim 3 on, a flat also carries an
    integer basis B of X.  The hyperplanes not containing X restrict to
    the nonzero rows of C.B^T (C the covectors); each parallel class of
    those rows is a cover edge to a flat one codimension down, with mask
    mask(X) | class.  Flats merge on their masks, so no row reduction
    happens inside the build.  The top flat is unique, so it is written
    down directly; its covers are every coatom.  No mu is stored:
    :meth:`IntersectionLattice.mobius` reads it off the edges when asked.
    """
    n, m = arr.dim, arr.size
    words = max(1, -(-m // 64))
    top = _words((1 << m) - 1, words)[None]
    levels, edges = [np.zeros((1, words), dtype=np.uint64)], []
    if m:
        covs = np.array(arr.covectors, dtype=object).reshape(m, n)
        covs, = _exact(_maxabs(covs), covs)
        planes = np.arange(m)
        atoms = np.zeros((m, words), dtype=np.uint64)
        atoms[planes, planes >> 6] = np.uint64(1) << (planes & 63).astype(np.uint64)
        levels.append(atoms)
    if m > 1 and n == 2:
        if not _sorted_groups([*_primitive(covs).T])[1].all():
            raise ValueError("two covectors define the same hyperplane")
        levels.append(top)
    elif m > 1:
        i, j, starts = _pairs(covs)
        masks = np.bitwise_or.reduceat(atoms[i] | atoms[j], starts)
        levels.append(masks)
        rank = 2 if len(masks) == 1 else 3 if n <= 3 else linalg.rank(arr.covectors)
        if rank > 3:  # each flat's basis: the kernel of its first pair's second plane traced on the first
            kernel = _restricted_basis(covs[i[starts]], np.eye(n, dtype=np.int64)[None])
            c, b = _exact(_maxabs(covs) * _maxabs(kernel) * n, covs[j[starts]], kernel)
            bases = _restricted_basis(_primitive(np.matmul(b, c[:, :, None])[..., 0]), kernel)
        for codim in range(3, rank):
            found = [
                _children(covs, s, masks[s : s + _BLOCK], bases[s : s + _BLOCK]) for s in range(0, len(masks), _BLOCK)
            ]
            masks, forms, parents = (np.concatenate(part) for part in zip(*found))
            order, first = _sorted_groups(masks.view(np.int64).T)
            keep = order[first]
            masks = masks[keep]
            levels.append(masks)
            edges.append((parents[order].astype(np.int32), np.append(np.flatnonzero(first), len(order))))
            if codim + 1 < rank:  # the top needs no basis
                bases = _restricted_basis(forms[keep], bases[parents[keep]])
        if rank > 2:
            levels.append(top)

    return IntersectionLattice(arr, tuple(levels), tuple(edges))


# ---------------------------------------------------------------------------
# restriction and Ziegler multiplicities


def _trace_kernel(h0s: Sequence[Vec], planes: Sequence[Vec]) -> list[list[Vec]]:
    """The primitive forms of ``planes`` on each restriction plane of
    ``h0s``, in one batch, in the basis that :func:`_restricted_basis`
    gives that plane (e_1 ... e_{n-1} when it is a coordinate plane).  A
    plane traces to zero on itself, which the callers skip; any other zero
    trace is refused."""
    n = len(h0s[0])
    vecs = np.array([*h0s, *planes], dtype=object).reshape(-1, n)
    vecs, = _exact(_maxabs(vecs), vecs)
    h0s, planes = vecs[: len(h0s)], vecs[len(h0s) :]
    bases = _restricted_basis(h0s, np.eye(n, dtype=np.int64)[None])
    covs, bases = _exact(_maxabs(vecs) * _maxabs(bases) * n, planes, bases)
    traces = _primitive(np.matmul(covs, bases.transpose(0, 2, 1)))  # (h0, plane, coord)
    itself = (h0s[:, None] == planes[None]).all(axis=2)
    if (~traces.any(axis=2) & ~itself).any():
        raise ValueError("the zero vector does not define a hyperplane")
    return [[tuple(row) for row in rows] for rows in traces.tolist()]


def _traces(arr: Arrangement, h0: Vec, table: Optional[dict] = None) -> list[Vec]:
    """The traces on h0 of the hyperplanes other than h0.  ``table`` maps
    each h0 to {plane: trace}; only the planes it lacks go through the
    kernel, and their traces are stored there."""
    known = {} if table is None else table.setdefault(h0, {})
    try:
        return [known[c] for c in arr.covectors if c != h0]
    except KeyError:
        new = [c for c in arr.covectors if c != h0 and c not in known]
        [traced] = _trace_kernel([h0], new)
        known.update(zip(new, traced))
        return [known[c] for c in arr.covectors if c != h0]


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
    if h0v not in arr.covectors:
        raise ValueError("restriction hyperplane must belong to the arrangement")
    mult = Counter(_traces(arr, h0v, table))
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
    """Characteristic polynomials of arrangements, in memory for one command:
    of cones, anchors and subset arrangements, never of a restriction.
    The table carries the size guards of the lattices built to fill it, and
    a read refuses an arrangement beyond them, so a warm table refuses
    exactly what a cold one does.
    Beside chi it keeps, for the command only, the rank-2 derivation bases,
    the traces of each plane on each restriction plane and, per
    restriction plane, one restriction onto it, which :meth:`hold` seeds with
    a campaign's largest cone and the walk fills (:meth:`restricted_coeffs`);
    equal restrictions share one lattice and the bit of each trace in it."""

    def __init__(self, *, max_hyperplanes: int = MAX_HYPERPLANES, max_dim: int = MAX_DIM):
        self.max_hyperplanes, self.max_dim = max_hyperplanes, max_dim
        self._memory: dict[Arrangement, tuple[int, ...]] = {}
        self.rank2_bases: dict = {}  # multiarr.exp_rank2_multi's bases, kept for the command like chi
        self.traces: dict[Vec, dict[Vec, Vec]] = {}  # restriction plane -> {plane: primitive trace}
        self.restricted: dict[Vec, Arrangement] = {}  # restriction plane -> the restriction stored onto it
        # restriction -> {trace: its bit}, and its lattice once read, kept for the command so none is built twice
        self._bits: dict[Arrangement, dict[Vec, int]] = {}
        self._lattices: dict[Arrangement, IntersectionLattice] = {}

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

    def hold(self, rs: RootSystem, k: int, signs: Sequence[str]) -> None:
        """Hold the largest cone of a campaign at level k, which holds every
        cone of it, when the guards admit it: (k, all roots, '+') when '+' is
        among ``signs``, the campaign's, else (k, {}, '-').  One kernel call
        traces its planes onto {z = 0}, for the multirestrictions, and onto
        each plane of its walk under :func:`chain_parent`; each of those
        keeps the held cone's restriction onto it."""
        mask, sign = ((1 << rs.n_positive) - 1, "+") if "+" in signs else (0, "-")
        try:
            self.admit(rs.rank + 1, shi_plane_count(rs, k, mask, sign))
        except SizeBoundError:
            return
        held = shi_arrangement(rs, k, mask, sign)
        chain = []  # a '+' walk goes on down the whole '-' chain, so this walk holds every plane
        while (parent := chain_parent(rs, k, mask, sign)) is not None:
            mask, sign, plane = parent
            chain.append(plane)
        planes = [*chain, z_covector(rs)]
        for h0, traced in zip(planes, _trace_kernel(planes, held.covectors)):
            self.traces.setdefault(h0, {}).update((c, t) for c, t in zip(held.covectors, traced) if c != h0)
        for h0 in chain:
            self.restricted[h0] = restriction(held, h0, self.traces)

    def restricted_coeffs(self, cone: Arrangement, h0: Vec) -> tuple[int, ...]:
        """chi(cone^h0), masked (:meth:`IntersectionLattice.mobius`) out of the
        lattice of the restriction stored for h0: the cone's own when none is
        stored or the stored one lacks one of its traces.  Planes with one
        trace share its bit, so bits are or-ed, not summed."""
        traces = _traces(cone, h0, self.traces)
        arr = self.restricted.get(h0)
        if arr is None or (within := self._within(arr, traces)) is None:
            arr = self.restricted[h0] = restriction(cone, h0, self.traces)
            within = self._within(arr, traces)
        if (lattice := self._lattices.get(arr)) is None:
            lattice = self._lattices[arr] = intersection_lattice(arr)
        return lattice.charpoly_coeffs(within)

    def _within(self, arr: Arrangement, traces: list[Vec]) -> Optional[int]:
        """The bits of ``traces`` among the planes of ``arr``; None when it lacks one."""
        if (bits := self._bits.get(arr)) is None:
            bits = self._bits[arr] = {t: 1 << i for i, t in enumerate(arr.covectors)}
        try:
            return reduce(or_, map(bits.__getitem__, traces), 0)
        except KeyError:
            return None
