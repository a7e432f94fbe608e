"""Irreducible crystallographic root systems in simple-root coordinates.

A positive root is stored as its integer coefficient vector over the simple
basis, so heights, dominance and hyperplane covectors are all exact integer
computations.  Cartan matrices follow the Bourbaki numbering; in particular
B and C chains end in the short and long root respectively, which matters
because their root posets differ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import Vec

_RANK_RULES = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


class DualPartitionError(ValueError):
    """The level-count profile of a multiset is not weakly decreasing.

    Raised instead of clamping: a malformed profile signals a bug in the
    caller, not a degenerate input.
    """


def _parse_type(name: str) -> tuple[str, int]:
    """A type name such as ``B3`` -> (family, rank), checking the rank."""
    m = re.fullmatch(r"([A-Ga-g])(\d+)", name.strip())
    if not m:
        raise ValueError(f"cannot parse root system type {name!r} (expected e.g. 'B3')")
    family, rank = m.group(1).upper(), int(m.group(2))
    if not _RANK_RULES[family](rank):
        raise ValueError(f"invalid rank {rank} for family {family}")
    return family, rank


def _cartan_matrix(family: str, r: int) -> tuple[Vec, ...]:
    """Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> (Bourbaki numbering)."""
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if family in ("A", "B", "C"):
        for i in range(r - 1):
            bond(i, i + 1)
        if family == "B" and r >= 2:
            bond(r - 2, r - 1, -2, -1)  # short root last
        if family == "C" and r >= 2:
            bond(r - 2, r - 1, -1, -2)  # long root last
    elif family == "D":
        for i in range(r - 3):
            bond(i, i + 1)
        bond(r - 3, r - 2)
        bond(r - 3, r - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7(-8)), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in c)


_TERM = re.compile(r"(\d*)a(\d+)")


@dataclass(frozen=True)
class Root:
    """A positive root as its coefficient vector over the simple basis."""

    coeffs: Vec

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @cached_property
    def name(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            terms.append(f"a{i}" if c == 1 else f"{c}a{i}")
        return "+".join(terms)

    @classmethod
    def parse(cls, text: str, rank: int) -> "Root":
        """Parse names like ``a1``, ``a1+a2``, ``3a1+2a2``."""
        coeffs = [0] * rank
        body = text.strip().replace(" ", "")
        if not body:
            raise ValueError("empty root name")
        for term in body.split("+"):
            m = _TERM.fullmatch(term)
            if not m:
                raise ValueError(f"cannot parse root term {term!r} in {text!r}")
            idx = int(m.group(2))
            if not 1 <= idx <= rank:
                raise ValueError(f"simple-root index {idx} out of range 1..{rank}")
            coeffs[idx - 1] += int(m.group(1) or 1)
        if not any(coeffs):
            raise ValueError(f"zero vector is not a root: {text!r}")
        return cls(tuple(coeffs))

    def __str__(self) -> str:
        return self.name


class RootSystem:
    """Positive roots of an irreducible crystallographic root system.

    Built by :func:`build`.  ``type`` is the canonical name, such as ``B3``.
    Roots are kept in the canonical order (ascending height, then descending
    lexicographic on coefficients), so every structure indexed by root
    position is reproducible.
    """

    def __init__(self, name: str, rank: int, positive_roots: Sequence[Root]):
        self.type = name
        self.rank = rank
        self.positive_roots: tuple[Root, ...] = tuple(positive_roots)
        self.index: dict[Vec, int] = {r.coeffs: i for i, r in enumerate(self.positive_roots)}
        self.n_positive = len(self.positive_roots)
        self.highest_root = max(self.positive_roots, key=lambda r: r.height)
        self.coxeter_number = self.highest_root.height + 1
        h = self.coxeter_number
        counts = [0] * h
        for r in self.positive_roots:
            counts[r.height - 1] += 1
        self.height_counts: tuple[int, ...] = tuple(counts)  # index i-1 holds |Ht^-1(i)|
        self._check_invariants()

    def _check_invariants(self) -> None:
        ell, h, g = self.rank, self.coxeter_number, self.height_counts
        if 2 * self.n_positive != ell * h:
            raise AssertionError(f"{self.type}: 2|roots| != rank * coxeter number")
        if g[0] != ell or g[h - 1] != 0:
            raise AssertionError(f"{self.type}: bad height count boundary {g}")
        if any(g[i] < g[i + 1] for i in range(h - 1)):
            raise AssertionError(f"{self.type}: height counts not weakly decreasing {g}")
        if any(g[i - 1] + g[h - i] != ell for i in range(1, h + 1)):
            raise AssertionError(f"{self.type}: height counts fail the mirror identity {g}")

    @cached_property
    def below_masks(self) -> tuple[int, ...]:
        """For each root index, the bitmask of the roots it dominates (itself
        included): alpha dominates beta when alpha - beta is nonnegative."""
        masks = []
        for alpha in self.positive_roots:
            m = 0
            for j, beta in enumerate(self.positive_roots):
                if all(a - b >= 0 for a, b in zip(alpha.coeffs, beta.coeffs)):
                    m |= 1 << j
            masks.append(m)
        return tuple(masks)

    def root_at(self, coeffs: Sequence[int]) -> Root:
        key = tuple(coeffs)
        if key not in self.index:
            raise ValueError(f"{key} is not a positive root of {self.type}")
        return self.positive_roots[self.index[key]]

    def __repr__(self) -> str:
        return f"RootSystem({self.type}, {self.n_positive} positive roots)"


def _canon_key(coeffs: Vec) -> tuple[int, tuple[int, ...]]:
    return (sum(coeffs), tuple(-c for c in coeffs))


def build(name: str) -> RootSystem:
    """Construct a root system, named like ``B3``, by reflection closure of
    the simple basis.

    Applies every simple reflection to every known vector and keeps the
    results with all-nonnegative coefficients, until stable.
    """
    family, r = _parse_type(name)
    cartan = _cartan_matrix(family, r)
    found: set[Vec] = {tuple(1 if i == j else 0 for j in range(r)) for i in range(r)}
    frontier = list(found)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(r):
                pairing = sum(v[i] * cartan[i][j] for i in range(r))
                w = list(v)
                w[j] -= pairing
                if all(x >= 0 for x in w):
                    wt = tuple(w)
                    if wt not in found:
                        found.add(wt)
                        nxt.append(wt)
        frontier = nxt
    roots = [Root(c) for c in sorted(found, key=_canon_key)]
    return RootSystem(f"{family}{r}", r, roots)


@dataclass(frozen=True)
class ExponentMultiset:
    """A sorted multiset of nonnegative integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))
        if any(p < 0 for p in self.parts):
            raise ValueError(f"negative part in exponent multiset {self.parts}")

    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def dual_partition(values: Iterable[int], d: int) -> ExponentMultiset:
    """Conjugate the level counts of a multiset of positive integers.

    With f_i the multiplicity of i, returns (0)^(d-f_1) (1)^(f_1-f_2) ...
    The profile must satisfy f_1 <= d and f_i <= f_{i-1}; violations raise
    :class:`DualPartitionError`.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    vals = list(values)
    if any(v < 1 for v in vals):
        raise DualPartitionError(f"values must be positive integers, got {sorted(vals)[:5]}...")
    top = max(vals, default=0)
    f = [0] * (top + 2)
    for v in vals:
        f[v] += 1
    if top and f[1] > d:
        raise DualPartitionError(f"level count f_1 = {f[1]} exceeds dimension {d}")
    for i in range(2, top + 1):
        if f[i] > f[i - 1]:
            raise DualPartitionError(f"level counts increase at {i}: f = {f[1:top + 1]}")
    parts = [0] * (d - (f[1] if top else 0))
    for i in range(1, top + 1):
        parts.extend([i] * (f[i] - f[i + 1]))
    return ExponentMultiset(tuple(parts))


def mask_of(rs: RootSystem, roots: Iterable[Root]) -> int:
    """Bitmask of a subset of the positive roots, by canonical index."""
    mask = 0
    for r in roots:
        idx = rs.index.get(r.coeffs)
        if idx is None:
            raise ValueError(f"{r} is not a positive root of {rs.type}")
        mask |= 1 << idx
    return mask


def mask_bits(rs: RootSystem, mask: int) -> list[int]:
    """Each positive root's bit in ``mask``, refusing a mask outside 0 <= mask < 2^|Phi+|."""
    if not 0 <= mask < 1 << rs.n_positive:
        raise ValueError(f"mask {mask} is not a subset of the {rs.n_positive} positive roots of {rs.type}")
    return [mask >> i & 1 for i in range(rs.n_positive)]


def roots_of(rs: RootSystem, mask: int) -> tuple[Root, ...]:
    """The positive roots in a bitmask, in canonical order: the inverse of :func:`mask_of`."""
    return tuple(r for r, bit in zip(rs.positive_roots, mask_bits(rs, mask)) if bit)


def ideal_exponents(rs: RootSystem, mask: int) -> ExponentMultiset:
    """e(I): the dual partition of the heights of the roots in ``mask``, padded to the rank."""
    return dual_partition((r.height for r in roots_of(rs, mask)), rs.rank)


def weyl_exponents(rs: RootSystem) -> ExponentMultiset:
    """Exponents of the Weyl arrangement: e(I) of the ideal of all positive roots."""
    return ideal_exponents(rs, (1 << rs.n_positive) - 1)


def is_ideal(rs: RootSystem, mask: int) -> bool:
    """Downward-closure test under dominance."""
    return not any(bit and below & ~mask for bit, below in zip(mask_bits(rs, mask), rs.below_masks))


def _check_cone(k: int, sign: str) -> None:
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if k < 0 or (k == 0 and sign == "-"):
        raise ValueError("k must be a positive integer, or 0 with sign '+'")


def shi_levels(rs: RootSystem, k: int, mask: int, sign: str) -> list[range]:
    """For each positive root, the levels j of the planes {root = j*z} of
    the ideal-Shi cone (k, mask, sign).

    Sign '+': levels 1-k..k for all roots, plus level -k on the subset.
    Sign '-': levels 1-k..k with level k removed on the subset.
    At k = 0 only sign '+' is defined: the subset's planes {root = 0}.
    """
    _check_cone(k, sign)
    members = mask_bits(rs, mask)
    if sign == "+":
        return [range(1 - k - m, k + 1) for m in members]
    return [range(1 - k, k - m + 1) for m in members]


def shi_plane_count(rs: RootSystem, k: int, mask: int, sign: str) -> int:
    """Hyperplanes of the ideal-Shi cone, {z = 0} included, without listing them."""
    return 1 + sum(js.stop - js.start for js in shi_levels(rs, k, mask, sign))  # len() overflows at 2^63 levels


def shift_predict(base_exp: ExponentMultiset, k: int, h: int, sign: str) -> ExponentMultiset:
    """Exponents after shifting a 0/1 multiplicity by the constant 2k:
    componentwise k*h + m_i (sign '+') or k*h - m_i (sign '-')."""
    if sign == "+":
        return ExponentMultiset(tuple(k * h + m for m in base_exp))
    if sign == "-":
        return ExponentMultiset(tuple(k * h - m for m in base_exp))
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def shi_exponents_dp(rs: RootSystem, k: int, mask: int, sign: str) -> ExponentMultiset:
    """Predicted ideal-Shi exponents (1, kh +/- e_i(I)): the shift law applied
    to e(I) (:func:`ideal_exponents`)."""
    if not is_ideal(rs, mask):
        raise ValueError("subset is not downward closed under dominance")
    _check_cone(k, sign)
    return ExponentMultiset((1,) + shift_predict(ideal_exponents(rs, mask), k, rs.coxeter_number, sign).parts)
