"""The root poset: ideals, their exponents, linear extensions, localization.

An ideal is a downward-closed subset of the positive roots under dominance
(alpha dominates beta when alpha - beta has nonnegative coefficients).
Ideals are stored as bitmasks over the canonical root order of their root
system, which makes enumeration, deduplication and reporting cheap and
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .rootsys import ExponentMultiset, Root, RootSystem, dual_partition, is_ideal, mask_of, weyl_exponents


def dominance_leq(rs: RootSystem, beta: Root, alpha: Root) -> bool:
    """True when ``alpha - beta`` has all-nonnegative coefficients."""
    if beta.coeffs not in rs.index or alpha.coeffs not in rs.index:
        raise ValueError("both roots must be positive roots of the given system")
    return all(a - b >= 0 for a, b in zip(alpha.coeffs, beta.coeffs))


@dataclass(frozen=True)
class Ideal:
    """A downward-closed set of positive roots, as a bitmask."""

    rs: RootSystem
    mask: int

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def roots(self) -> tuple[Root, ...]:
        return tuple(r for i, r in enumerate(self.rs.positive_roots) if self.mask >> i & 1)

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(r.height for r in self.roots)

    def contains(self, root: Root) -> bool:
        idx = self.rs.index.get(root.coeffs)
        return idx is not None and bool(self.mask >> idx & 1)

    def __iter__(self):
        return iter(self.roots)

    def __len__(self) -> int:
        return self.size

    def __str__(self) -> str:
        return "{" + ", ".join(r.name for r in self.roots) + "}"


def ideal_from_roots(rs: RootSystem, roots: Iterable[Root]) -> Ideal:
    mask = mask_of(rs, roots)
    if not is_ideal(rs, mask):
        raise ValueError("subset is not downward closed under dominance")
    return Ideal(rs, mask)


def empty_ideal(rs: RootSystem) -> Ideal:
    return Ideal(rs, 0)


def full_ideal(rs: RootSystem) -> Ideal:
    return Ideal(rs, (1 << rs.n_positive) - 1)


def weyl_catalan_number(rs: RootSystem) -> int:
    """prod (e_i + h + 1) / (e_i + 1) over the Weyl exponents."""
    h = rs.coxeter_number
    out = Fraction(1)
    for e in weyl_exponents(rs):
        out *= Fraction(e + h + 1, e + 1)
    if out.denominator != 1:
        raise AssertionError(f"Weyl-Catalan product is not an integer for {rs.type}")
    return out.numerator


def enumerate_ideals(rs: RootSystem, max_rank: int = 4) -> tuple[Ideal, ...]:
    """All ideals, BFS over the lattice of downward-closed sets.

    Grows each ideal by one addable root (a root whose strict lower set is
    already inside).  The count is cross-checked against the Weyl-Catalan
    product, which counts ideals independently of this construction.
    """
    if rs.rank > max_rank:
        raise ValueError(
            f"rank {rs.rank} exceeds the enumeration bound {max_rank}; "
            "raise max_rank explicitly if you mean it"
        )
    below = rs.below_masks
    n = rs.n_positive
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for i in range(n):
                if mask >> i & 1:
                    continue
                if below[i] & ~mask & ~(1 << i):
                    continue
                child = mask | (1 << i)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    masks = sorted(seen, key=lambda m: (bin(m).count("1"), m))
    if len(masks) != weyl_catalan_number(rs):
        raise AssertionError(
            f"ideal count {len(masks)} for {rs.type} disagrees with the Weyl-Catalan number"
        )
    return tuple(Ideal(rs, m) for m in masks)


def ideal_exponents(ideal: Ideal) -> ExponentMultiset:
    """Dual partition of the ideal's height multiset, padded to the rank."""
    return dual_partition(ideal.heights, ideal.rs.rank)


@dataclass(frozen=True)
class LinearExtension:
    """An ordering of the positive roots whose every prefix is an ideal."""

    order: tuple[Root, ...]

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


def linear_extension(rs: RootSystem) -> LinearExtension:
    """The canonical root order itself; height never decreases along it."""
    return LinearExtension(rs.positive_roots)


def rank2_localizations(rs: RootSystem) -> tuple[tuple[Root, ...], ...]:
    """All rank-2 root subsystems cut out by codimension-2 flats.

    Each returned tuple is the full set of positive roots lying in the span
    of some independent pair, deduplicated and canonically ordered.
    """
    vectors = [r.coeffs for r in rs.positive_roots]
    seen: dict[tuple, tuple[Root, ...]] = {}
    n = len(vectors)
    for i in range(n):
        for j in range(i + 1, n):
            rows = linalg.rref([vectors[i], vectors[j]])
            if len(rows) != 2:
                continue
            pivots = tuple(linalg.first_nonzero(r) for r in rows)
            members = tuple(
                rs.positive_roots[t]
                for t in range(n)
                if linalg.in_rowspace(vectors[t], rows, pivots)
            )
            seen.setdefault(rows, members)
    return tuple(seen[k] for k in sorted(seen))


def subsystem_simple_roots(psi_plus: Sequence[Root]) -> tuple[Root, Root]:
    """The two roots of a rank-2 positive system not expressible as sums."""
    coeff_set = {r.coeffs for r in psi_plus}
    simples = []
    for r in psi_plus:
        decomposable = any(
            tuple(a - b for a, b in zip(r.coeffs, s)) in coeff_set
            for s in coeff_set
            if s != r.coeffs and all(a - b >= 0 for a, b in zip(r.coeffs, s))
        )
        if not decomposable:
            simples.append(r)
    if len(simples) != 2:
        raise ValueError(f"expected 2 simple roots in a rank-2 subsystem, found {len(simples)}")
    return simples[0], simples[1]


def _nonneg_integer_combination(target: Root, g1: Root, g2: Root) -> bool:
    """Solve target = x*g1 + y*g2 exactly; accept x, y in Z>=0."""
    rows = linalg.rref([g1.coeffs, g2.coeffs])
    pivots = tuple(linalg.first_nonzero(r) for r in rows)
    if len(rows) != 2 or not linalg.in_rowspace(target.coeffs, rows, pivots):
        return False
    c1, c2 = pivots
    det = g1.coeffs[c1] * g2.coeffs[c2] - g1.coeffs[c2] * g2.coeffs[c1]
    x = Fraction(target.coeffs[c1] * g2.coeffs[c2] - target.coeffs[c2] * g2.coeffs[c1], det)
    y = Fraction(g1.coeffs[c1] * target.coeffs[c2] - g1.coeffs[c2] * target.coeffs[c1], det)
    if x.denominator != 1 or y.denominator != 1 or x < 0 or y < 0:
        return False
    return all(t == x * a + y * b for t, a, b in zip(target.coeffs, g1.coeffs, g2.coeffs))


def is_subsystem_ideal(subset: Iterable[Root], psi_plus: Sequence[Root]) -> bool:
    """Downward-closure test inside a rank-2 subsystem's own poset."""
    g1, g2 = subsystem_simple_roots(psi_plus)
    chosen = {r.coeffs for r in subset}
    members = list(psi_plus)
    if not chosen <= {r.coeffs for r in members}:
        raise ValueError("subset is not contained in the subsystem")
    for alpha in members:
        if alpha.coeffs not in chosen:
            continue
        for beta in members:
            if beta.coeffs in chosen or beta.coeffs == alpha.coeffs:
                continue
            diff = Root(tuple(a - b for a, b in zip(alpha.coeffs, beta.coeffs)))
            if all(c >= 0 for c in diff.coeffs) and _nonneg_integer_combination(diff, g1, g2):
                return False
    return True


def localize_ideal(ideal: Ideal, psi_plus: Sequence[Root]) -> tuple[Root, ...]:
    """Intersect an ideal with a rank-2 localization of the root system.

    Validates that ``psi_plus`` really is the full set of positive roots in
    a 2-dimensional span; the result is then downward closed in the
    subsystem's own poset.
    """
    rs = ideal.rs
    vectors = [r.coeffs for r in psi_plus]
    rows = linalg.rref(vectors)
    pivots = tuple(linalg.first_nonzero(r) for r in rows)
    if len(rows) != 2:
        raise ValueError("localization must span exactly 2 dimensions")
    closure = {
        r.coeffs for r in rs.positive_roots if linalg.in_rowspace(r.coeffs, rows, pivots)
    }
    if closure != set(vectors):
        raise ValueError("subset is not a rank-2 localization (span closure differs)")
    return tuple(r for r in psi_plus if ideal.contains(r))
