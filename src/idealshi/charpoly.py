"""Exact characteristic polynomials by three independent routes.

The Mobius-function sum over the intersection lattice is authoritative.
The signed subset sum (Whitney) and finite-field point counting are
consistency oracles: divergence means a bug or a bad prime, never
something to hide.  Ideal-Shi cones also get the Mobius polynomial by
deletion-restriction down the chains of :func:`arrangement.chain_parent`,
from one anchor lattice per level and the restrictions that the table
stores per plane; the chi table holds no restriction polynomials.

The subset sum uses no lattice, table or point count.  Dependent subsets
cancel in pairs, so it sums over the broken-circuit-free sets only, built
plane by plane in one numpy pass over all live prefixes, each held as an
integer annihilator; batches are capped at _FRONTIER entries, and
coloops are factored out as (t - 1)/t each.  A prefix costs n^2 entries,
so many such sets in many coordinates cost memory per set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from math import isqrt, prod
from typing import Optional, Sequence, Union

import numpy as np

from .arrangement import (
    _INT64_SAFE,
    Arrangement,
    LatticeCache,
    SizeBoundError,
    _exact,
    _maxabs,
    _primitive,
    chain_parent,
    intersection_lattice,
    is_central_charpoly,
    shi_arrangement,
)
from .rootsys import ExponentMultiset, RootSystem


@dataclass(frozen=True)
class CharPoly:
    """Dense integer polynomial, coefficients in ascending degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError(f"characteristic polynomials are monic, got {self.coeffs}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    @classmethod
    def from_roots(cls, roots: Sequence[int]) -> "CharPoly":
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return cls(tuple(coeffs))

    def __str__(self) -> str:
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mono = "" if d == 0 else ("t" if d == 1 else f"t^{d}")
            body = mono if abs(c) == 1 and d else f"{abs(c)}{mono}"
            terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms) if terms else "0"
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


class NotDivisibleError(ValueError):
    """(t - 1) does not divide the polynomial; the input was not central."""


class BadReductionError(RuntimeError):
    """Finite-field counts were inconsistent across the prime set."""


def charpoly_mobius(arr: Arrangement, cache: Optional[LatticeCache] = None) -> CharPoly:
    """Mobius-weighted sum of t^dim(X) over the intersection lattice, built
    under the size guards of ``cache`` (default ones without it)."""
    cache = LatticeCache() if cache is None else cache
    hit = cache.get_charpoly(arr)
    if hit is not None:
        return CharPoly(hit)
    poly = CharPoly(intersection_lattice(arr).charpoly_coeffs())
    cache.put_charpoly(arr, poly.coeffs)
    return poly


def shi_charpoly(
    rs: RootSystem,
    k: int,
    mask: int,
    sign: str,
    cache: Optional[LatticeCache] = None,
    *,
    cone: Optional[Arrangement] = None,
) -> CharPoly:
    """Polynomial of the ideal-Shi cone (k, mask, sign) by deletion-restriction,
    chi(A) = chi(A - H) - chi(A^H), deleting the plane that
    :func:`arrangement.chain_parent` names, parent after parent, down to a
    cone the cache holds or to an anchor, whose polynomial comes from its
    own lattice; ``cone`` is the cone when the caller has already built it.

    No walk builds the k-Shi cone's lattice, the largest of its level.  Each
    step reads chi(A^H) off the restriction that the table stores for H
    (:meth:`LatticeCache.restricted_coeffs`), of a cone inside the case or of
    the cone it holds, so the guards, which the table's first read applies
    to the case, bound all of its work; the table keeps chi(A), not chi(A^H).
    Each step's result must vanish at t = 1 and have -|A| as its t^(n-1)
    coefficient, as every central polynomial does.
    """
    arr = shi_arrangement(rs, k, mask, sign) if cone is None else cone
    cache = LatticeCache() if cache is None else cache
    chain = []  # (cone, the plane its parent lacks), the case first
    while (hit := cache.get_charpoly(arr)) is None and (parent := chain_parent(rs, k, mask, sign)) is not None:
        mask, sign, plane = parent
        chain.append((arr, plane))
        arr = arr.delete(plane)
    poly = charpoly_mobius(arr, cache) if hit is None else CharPoly(hit)
    for cone, plane in reversed(chain):
        restricted = cache.restricted_coeffs(cone, plane)
        poly = CharPoly(tuple(c - r for c, r in zip(poly.coeffs, restricted + (0,))))
        if not is_central_charpoly(cone, poly.coeffs):
            raise AssertionError(
                f"deletion-restriction gave chi(1) = {poly(1)} and a t^(n-1) coefficient "
                f"{poly.coeffs[-2]} for {cone.size} central planes"
            )
        cache.put_charpoly(cone, poly.coeffs)
    return poly


_WHITNEY_MAX = 22  # charpoly_whitney refuses arrangements with more planes


def whitney_admit(size: int) -> None:
    """Refuse a subset sum over ``size`` planes: the fixed bound of :func:`charpoly_whitney`, asked before any build."""
    if size > _WHITNEY_MAX:
        raise SizeBoundError(f"{size} hyperplanes exceed the subset-sum bound {_WHITNEY_MAX}")


_FRONTIER = 1 << 16  # annihilator entries one batch of the subset sum may reach


def _annihilate(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a batch of annihilators ``w`` (element, row, coordinate) on
    the form ``v``: the elements with s = w.v nonzero, and each of them
    made to vanish on v too, as s_p w - s w_p with p the first nonzero
    entry of s, which zeroes row p.  Rows are divided by their content
    once the step could pass int64."""
    bound = 2 * w.shape[2] * _maxabs(w) ** 2 * _maxabs(v)
    if bound >= _INT64_SAFE:
        w = _primitive(w)
        bound = 2 * w.shape[2] * _maxabs(w) ** 2 * _maxabs(v)
    w, v = _exact(bound, w, v)
    s = w @ v
    live = (s != 0).any(axis=1)
    w, s = w[live], s[live]
    at = np.arange(len(s)), np.argmax(s != 0, axis=1)
    return w, s[at][:, None, None] * w - s[:, :, None] * w[at][:, None, :]


def _coloops(covs: np.ndarray) -> np.ndarray:
    """Mask of the planes outside the span of the others.  The rows of
    [covs | I] are made to vanish on each coordinate of covs in turn; what
    is left spans the linear relations among the covectors, and a coloop
    is a plane that none of them involves."""
    m, n = covs.shape
    rows = np.concatenate([covs, np.eye(m, dtype=covs.dtype)], axis=1)[None]
    for e in np.eye(n + m, dtype=np.int64)[:n]:
        hit, made = _annihilate(rows, e)
        rows = made if len(hit) else rows
    return ~(rows[0, :, n:] != 0).any(axis=0)


def charpoly_whitney(arr: Arrangement) -> CharPoly:
    """Signed sum of t^(dim - rank B) over subsets B of the arrangement.

    Taken over the planes in order, a subset whose next plane depends on
    the ones already chosen cancels against the same subset without that
    plane, so only independent prefixes live on: after plane i, exactly
    the broken-circuit-free sets of the first i planes (for the order that
    breaks a circuit at its highest plane), never more of them than the
    sum of |coefficients| of chi.  Each prefix is held as an integer
    annihilator, an n x n matrix whose nonzero rows span the vectors on
    which its forms vanish, and all prefixes take a plane in one numpy
    step (:func:`_annihilate`); at the end, a prefix with d nonzero rows
    adds (-1)^(n-d) to the coefficient of t^d.  The prefixes are batched
    depth-first, and a batch is halved before its next step could pass
    _FRONTIER entries, so no temporary grows with the number of sets.

    A coloop, a plane outside the span of the others, doubles every prefix
    but only multiplies chi by (t - 1)/t, so coloops are peeled off first.
    A prefix costs n^2 array entries against about rank * n Python steps
    in a recursive walk, so many broken-circuit-free sets in many
    coordinates cost more memory per set, and each numpy step has a fixed
    cost that a walk over a handful of planes does not pay.
    """
    whitney_admit(arr.size)
    n = arr.dim
    covs = np.array(arr.covectors, dtype=object).reshape(arr.size, n)
    covs, = _exact(_maxabs(covs), covs)
    coloop = _coloops(covs) if arr.size else np.zeros(0, dtype=bool)
    counts = np.zeros(n + 1, dtype=np.int64)  # live prefixes at the end, by nonzero rows
    stack = [(0, np.eye(n, dtype=np.int64)[None])]
    covs, cap = covs[~coloop], max(1, _FRONTIER // (2 * n * n))
    while stack:
        i, w = stack.pop()
        if i == len(covs):
            counts += np.bincount((w != 0).any(axis=2).sum(axis=1), minlength=n + 1)
        elif len(w) > cap:
            stack += [(i, w[len(w) // 2 :]), (i, w[: len(w) // 2])]
        else:
            stack.append((i + 1, np.concatenate(_annihilate(w, covs[i]))))
    coeffs = [(-1) ** (n - d) * int(c) for d, c in enumerate(counts)]
    for _ in range(int(coloop.sum())):  # times (1 - 1/t)
        coeffs = [a - b for a, b in zip(coeffs, coeffs[1:] + [0])]
    return CharPoly(tuple(coeffs))


def _primes_from(start: int):
    return (q for q in count(max(5, start)) if all(q % p for p in range(2, isqrt(q) + 1)))


def count_free_points(arr: Arrangement, q: int) -> int:
    """Points of the affine space over F_q on no hyperplane, exactly.

    F_q^* scales {h.x = 1} onto the rest of the complement of the first
    plane h.  That slice is counted fibre by fibre over y in F_q^(n-2),
    solving for the last coordinate t, with y streamed in blocks of at
    most 2^20 plane values, so no temporary grows with the plane count.
    """
    n = arr.dim
    if not arr.covectors:
        return q**n
    rows = np.array([[e % q for e in c] for c in arr.covectors], dtype=np.int64)
    if not rows.any(axis=1).all():
        return 0  # a covector that vanishes mod q contains every point
    j = int(np.flatnonzero(rows[0])[0])  # h.x = 1 fixes x_j
    const = rows[1:, j] * pow(int(rows[0, j]), -1, q) % q
    coef = np.delete(rows[1:] - np.outer(const, rows[0]), j, axis=1) % q
    # a form a.y + b.t + c forbids one t when b != 0, else every t or none;
    # for n = 1 there is no t and the fibre is the one point of F_q^0
    fibre, slope, base = (q, coef[:, -1], coef[:, :-1]) if n > 1 else (1, np.zeros_like(const), coef)
    tilted = slope != 0
    scale = np.array([pow(int(b), -1, q) for b in slope[tilted]], dtype=np.int64)
    tilt_a, tilt_c = base[tilted] * scale[:, None] % q, const[tilted] * scale % q  # forbid t = -(a.y+c)
    radix = q ** np.arange(max(n - 2, 0), dtype=np.int64)
    block, total = max(1, min(1 << 13, (1 << 20) // len(rows))), 0
    for start in range(0, q ** len(radix), block):
        y = np.arange(start, min(start + block, q ** len(radix)), dtype=np.int64)[:, None] // radix % q
        blocked = ((y @ base[~tilted].T + const[~tilted]) % q == 0).any(axis=1)
        forbidden = np.sort((y @ tilt_a.T + tilt_c) % q, axis=1)
        distinct = (np.diff(forbidden, axis=1) != 0).sum(axis=1) + (forbidden.shape[1] > 0)
        total += int(np.where(blocked, 0, fibre - distinct).sum())
    return (q - 1) * total


_RANGE = 16  # windows are tried until the smallest prime passes this multiple of the floor


def charpoly_finite_field(arr: Arrangement) -> CharPoly:
    """Interpolate the polynomial from point counts over prime fields.

    Primes above every covector entry and dim+1 are counted in ascending
    order, each once.  A window of dim+3 of them is accepted when the
    interpolant of its first dim+1 counts is integral and central and the
    last two counts agree with it; otherwise it drops its smallest prime,
    until that prime passes _RANGE times the floor.  If every prime of a
    window reduces the planes badly in one way, the window can still fit a
    wrong central polynomial: the Mobius route is the authority.
    """
    n = arr.dim
    max_entry = max((abs(e) for c in arr.covectors for e in c), default=0)
    floor = max(max_entry, n + 1) + 1
    window: deque[tuple[int, int]] = deque(maxlen=n + 3)  # (prime, count), oldest first
    for q in _primes_from(floor):
        window.append((q, count_free_points(arr, q)))
        if len(window) == n + 3 and (poly := _interpolate(arr, list(window))) is not None:
            return poly
        if window[0][0] > _RANGE * floor:  # only a full window has slid this far
            break
    raise BadReductionError(f"no consistent prime batch found among the primes from {floor} to {q}")


def _interpolate(arr: Arrangement, window: Sequence[tuple[int, int]]) -> Optional[CharPoly]:
    n = arr.dim
    xs, ys = zip(*window[: n + 1])
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        others = xs[:i] + xs[i + 1 :]  # Lagrange basis: prod (t - xj) / (xi - xj) over j != i
        denom = prod(xi - xj for xj in others)
        for d, c in enumerate(CharPoly.from_roots(others).coeffs):
            coeffs[d] += Fraction(yi * c, denom)
    chi = tuple(int(c) for c in coeffs)
    if chi != tuple(coeffs) or not is_central_charpoly(arr, chi):  # a fraction truncates to another value
        return None
    poly = CharPoly(chi)
    return poly if all(poly(q) == cnt for q, cnt in window[n + 1 :]) else None


def _divide(coeffs: Sequence[int], r: int) -> tuple[list[int], int]:
    """Quotient (ascending degree) and remainder of a division by (t - r),
    by synthetic division."""
    out = list(accumulate(reversed(coeffs), lambda carry, c: carry * r + c))
    return out[-2::-1], out[-1]


def chi0(p: CharPoly) -> CharPoly:
    """Exact quotient by (t - 1)."""
    quot, rem = _divide(p.coeffs, 1)
    if rem:
        raise NotDivisibleError("(t - 1) does not divide; arrangement was empty or not central")
    return CharPoly(tuple(quot))


@dataclass(frozen=True)
class FactorFailure:
    """Witness that a polynomial does not split over the nonnegative integers."""

    roots_found: tuple[int, ...]
    residual: CharPoly

    def __str__(self) -> str:
        return f"no split: residual {self.residual} after roots {self.roots_found}"


def try_factor_exponents(p: CharPoly) -> Union[ExponentMultiset, FactorFailure]:
    """Extract all nonnegative integer roots by synthetic division.

    Returns the full multiset when the polynomial splits completely, else
    a :class:`FactorFailure` carrying the non-splitting residual.  Failure
    is an ordinary value: non-free arrangements are expected witnesses.
    """
    roots: list[int] = []
    current = list(p.coeffs)
    bound = 1 + max(abs(c) for c in p.coeffs)
    r = 0
    while len(current) > 1 and r <= bound:
        quot, rem = _divide(current, r)
        if rem == 0:  # take the root, and try r again for its multiplicity
            roots.append(r)
            current = quot
        else:
            r += 1
    if len(current) == 1:
        return ExponentMultiset(tuple(roots))
    return FactorFailure(tuple(roots), CharPoly(tuple(current)))


@dataclass(frozen=True)
class TeraoVerdict:
    passed: bool
    computed: CharPoly
    predicted: ExponentMultiset

    def __str__(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag}: chi = {self.computed}, predicted roots {self.predicted}"


def terao_check(chi: CharPoly, predicted: ExponentMultiset) -> TeraoVerdict:
    """Exact test that the polynomial ``chi`` of an arrangement equals the
    product of (t - e) over the predicted exponents.  A pass is necessary
    for freeness with those exponents; in ambient dimension 3 see the
    complete criterion in :mod:`idealshi.multiarr`."""
    if len(predicted) != chi.degree:
        raise ValueError(f"predicted multiset has {len(predicted)} parts, chi has degree {chi.degree}")
    return TeraoVerdict(chi.coeffs == CharPoly.from_roots(tuple(predicted)).coeffs, chi, predicted)
