"""Rank-2 multiarrangement exponents and the ambient-3 freeness criterion.

A derivation on the plane is a pair (P, Q) of homogeneous degree-d
polynomials; it respects a line with form a*x + b*y and multiplicity m
when a*P + b*Q is divisible by (a*x + b*y)^m, a linear condition on the
coefficients of (P, Q).  A basis of the derivation module is built by
raising the multiplicities one unit at a time from d/dx, d/dy at m = 0,
each step in closed form (the rank-2 case of the Abe-Terao-Wakefield
addition).  Saito's criterion (Ziegler 1989) certifies the finished pair
apart from the step rule: the determinant against the target, both packed
at x = 2^K, and membership from the low digits of a*P + b*Q at x = 2^K - b,
y = a (its Taylor coefficients at the line).  No linear system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Mapping, Optional, Sequence

from . import linalg
from .arrangement import Arrangement
from .charpoly import CharPoly, chi0
from .linalg import Vec
from .rootsys import ExponentMultiset

Multiplicity = Mapping[Vec, int]


def _condition_row(a: int, b: int, t: int, d: int) -> list[int]:
    """Row t of the conditions that (a*x + b*y)^m, m > t, divide a*P + b*Q of degree d.

    Unknown layout: p_0..p_d then q_0..q_d, where P = sum p_s x^s y^(d-s).
    Row t is the coefficient of u^t w^(d-t), u = a*x + b*y and w = x, in
    b^d * (a*P + b*Q): sum_s r_s b^s C(d-s, t) (-a)^(d-s-t), r_s = a*p_s +
    b*q_s; or of x^t y^(d-t) in a*P when b = 0.  Rows 0..m-1 must vanish.
    """
    row = [0] * (2 * (d + 1))
    weights = [b**s * comb(d - s, t) * (-a) ** (d - s - t) for s in range(d - t + 1)] if b else [0] * t + [1]
    for s, w in enumerate(weights):
        row[s], row[d + 1 + s] = a * w, b * w
    return row


def _validate(arr2: Arrangement, mult: Multiplicity) -> None:
    if arr2.dim != 2 or arr2.size < 1:
        raise ValueError("multiarrangement exponents need at least one line in 2 coordinates")
    if min(mult.values(), default=0) < 0 or not set(mult) <= set(arr2.covectors):
        raise ValueError(f"multiplicities must be nonnegative and on lines of the arrangement: {dict(mult)}")


def _conditions(arr2: Arrangement, mult: Multiplicity, degree: int) -> list[list[int]]:
    _validate(arr2, mult)
    return [_condition_row(*cov, t, degree) for cov in arr2.covectors for t in range(min(mult.get(cov, 0), degree + 1))]


def derivation_space_dim(arr2: Arrangement, mult: Multiplicity, degree: int) -> int:
    """Dimension of the degree-d part of the constrained derivation module."""
    return 2 * (degree + 1) - linalg.rank(_conditions(arr2, mult, degree))


def _packed_taylor(a: int, b: int, theta: Sequence[int], m: int) -> tuple[int, int]:
    """(h, K): h = sum_t T_t 2^(K t) mod 2^(K m), for the Taylor coefficients
    T_t of :func:`_respects`, reduced after each Horner step."""
    g = [a * p + b * q for p, q in zip(*_halves(theta))]
    a, b, g = (b, a, g) if b else (a, b, g[::-1])  # top degree in x first, once swapped
    k = (max(map(abs, g)) * len(g) * max(abs(a), abs(b) + 1) ** (len(g) - 1)).bit_length() + 1
    low = (1 << k * m) - 1
    h, power = 0, 1
    for c in g:  # Horner in u = 2^k: h = h*(u - b) + c*a^s
        h = ((h << k) - h * b + c * power) & low
        power = power * a & low
    return h, k


def _respects(a: int, b: int, m: int, theta: Sequence[int]) -> bool:
    """Does alpha^m divide g = a*P + b*Q, alpha = a*x + b*y primitive?

    When b != 0, swap x and y (and a, b), so that a != 0.  Then x = u - b,
    y = a takes alpha to a*u and g of degree d to sum_t T_t u^t, T_t = sum_s
    g_s a^(d-s) C(s, t) (-b)^(s-t) (g_s at x^s y^(d-s); row t of
    :func:`_condition_row` dotted with theta, if a > 0 when b = 0), so
    alpha^m | g iff T_t = 0 for t < m.  A Horner pass at U = 2^K, K =
    bit_length(|g|_inf (d+1) M^d) + 1, M = max(|a|, |b| + 1), gives
    h = sum_t T_t U^t.  As sum_t |T_t| <= |g|_inf sum_s |a|^(d-s) (|b|+1)^s
    <= |g|_inf (d+1) M^d < U/2, S = sum_(t<m) T_t U^t has |S| < U^m/2.

    The pass keeps h, and the power a^s, reduced modulo U^m = 2^(K m):
    - reduction modulo 2^(K m) respects + and x, so the reduced h equals
      h mod U^m, whatever the sizes of the unreduced terms;
    - h mod U^m = S mod U^m, and |S| < U^m/2, so it is 0 iff S = 0, iff
      T_0 .. T_(m-1) all vanish (|T_t| < U/2 makes the digits of S unique).
    So the test reads only the low K*m bits, exactly; no approximation."""
    return _packed_taylor(a, b, theta, m)[0] == 0


def _pack(coeffs: Sequence[int], k: int) -> int:
    """sum_s c_s 2^(k s): the polynomial at x = 2^k, by Horner with shifts."""
    h = 0
    for c in reversed(coeffs):
        h = (h << k) + c
    return h


def _at(form: Sequence[int], x: int, y: int) -> int:
    """The form sum_s c_s x^s y^(d-s) at the point (x, y), by Horner."""
    value, power = 0, 1
    for c in reversed(form):
        value, power = value * x + c * power, power * y
    return value


def saito_certified(arr2: Arrangement, mult: Multiplicity, theta1: Sequence[int], theta2: Sequence[int]) -> bool:
    """Saito's criterion: is det[theta1 theta2] = c * prod alpha_H^(m_H),
    c != 0, with theta1, theta2 (unknowns as in :func:`_condition_row`)
    in D(A, m)?  Nothing here reads the step rule.

    Determinant: both sides are forms of degree |m| = d1 + d2, compared at
    y = 1.  The target's lowest nonzero coefficient is t_j = prod (b or
    a)^(m_H), j the multiplicity of x; with d_j the determinant's, the
    identity is det * t_j = d_j * target, d_j != 0.  Its sides have
    coefficients at most 2 min(n1, n2) |theta1|_inf |theta2|_inf |t_j|
    (n_i = d_i + 1) and prod (|a| + |b|)^(m_H) |d_j|; K = bit_length of
    the sum, plus 1, puts the difference's below U/2, U = 2^K, so it is 0
    iff it is 0 at x = U, where two big products give det.

    Membership: :func:`_respects` tests theta1 on every line.  On H, with
    m = m_H > 0 and beta = x if b != 0 else y, theta1(alpha) theta2(beta) -
    theta1(beta) theta2(alpha) is -b det (a det if beta = y), a multiple of
    alpha^m by the identity; alpha^m divides theta1(alpha), so it divides
    theta1(beta) theta2(alpha).  alpha is prime, so when theta1(beta) is
    nonzero at the point (b, -a) of H, alpha^m divides theta2(alpha); only
    on the other lines does :func:`_respects` test theta2."""
    lines = [(a, b, mult.get((a, b), 0)) for a, b in arr2.covectors]
    (p1, q1), (p2, q2) = _halves(theta1), _halves(theta2)
    n1, n2 = len(p1), len(p2)
    j, t_j = sum(m for _, b, m in lines if not b), prod((b or a) ** m for a, b, m in lines)
    d_j = sum(p1[s] * q2[j - s] - p2[j - s] * q1[s] for s in range(max(0, j - n2 + 1), min(j, n1 - 1) + 1))
    bound = 2 * min(n1, n2) * max(map(abs, theta1)) * max(map(abs, theta2)) * abs(t_j)
    k = (bound + prod((abs(a) + abs(b)) ** m for a, b, m in lines) * abs(d_j)).bit_length() + 1
    det = _pack(p1, k) * _pack(q2, k) - _pack(p2, k) * _pack(q1, k)
    target = prod(((a << k) + b) ** m for a, b, m in lines)
    if n1 + n2 - 2 != sum(m for *_, m in lines) or d_j == 0 or det * t_j != d_j * target:
        return False
    return all(
        _respects(a, b, m, theta1) and (_at(p1 if b else q1, b, -a) or _respects(a, b, m, theta2))
        for a, b, m in lines
        if m
    )


def _step_coefficient(a: int, b: int, j: int, theta: Vec) -> int:
    """Row j of the line's conditions (:func:`_condition_row`) at theta's
    degree d, dotted with theta: the form sum_s r_s C(d-s, j) x^s y^(d-j-s),
    r_s = a*p_s + b*q_s, at (b, -a), by one Horner pass; a*p_j when b = 0.
    Both are 0 when j > d (theta(alpha_H) = 0)."""
    p, q = _halves(theta)
    d = len(p) - 1
    if not b:
        return a * p[j] if j <= d else 0
    return _at([(a * p[s] + b * q[s]) * comb(d - s, j) for s in range(d - j + 1)], b, -a)


def _halves(theta: Vec) -> tuple[Vec, Vec]:
    n = len(theta) // 2
    return theta[:n], theta[n:]


def _times_line(a: int, b: int, theta: Vec) -> Vec:
    """(a*x + b*y) * theta: coefficient s of each half is a*c_(s-1) + b*c_s."""
    return tuple([b * hi + a * lo for half in _halves(theta) for hi, lo in zip(half + (0,), (0,) + half)])


def _raise(a: int, b: int, j: int, theta1: Vec, theta2: Vec) -> tuple[Vec, Vec]:
    """A basis of D(A, m + delta_H) from a basis (theta1, theta2) of D(A, m),
    deg theta1 <= deg theta2, where m_H = j and alpha_H = a*x + b*y."""
    c1, c2 = _step_coefficient(a, b, j, theta1), _step_coefficient(a, b, j, theta2)
    if c1 == 0:
        pair = theta1, _times_line(a, b, theta2)
    elif c2 == 0:
        pair = _times_line(a, b, theta1), theta2
    else:
        delta = len(theta2) // 2 - len(theta1) // 2
        p1, q1 = ((0,) * delta + h if b else h + (0,) * delta for h in _halves(theta1))  # x^delta or y^delta times theta1
        scale = c1 * b**delta if b else c1
        combined = [scale * u - c2 * v for u, v in zip(theta2, p1 + q1)]
        pair = _times_line(a, b, theta1), linalg.normalize_primitive(combined)
    return tuple(sorted(pair, key=len))


def exp_rank2_multi(arr2: Arrangement, mult: Multiplicity, bases: Optional[dict] = None) -> tuple[int, int]:
    """Exponent pair (d1, d2), d1 <= d2, of a basis passing Saito's criterion.

    The basis starts as d/dx, d/dy at m = 0, and the lines are raised
    round-robin, one unit per step.  Raising H = {a*x + b*y = 0} from
    m_H = j: with f_i = theta_i(alpha_H) / alpha_H^j, D(A, m + delta_H) is
    the set of g1*theta1 + g2*theta2 with alpha_H | g1*f1 + g2*f2.  On H,
    at s*(b, -a), f_i = C_i s^(d_i - j) and theta_i's row-j coefficient is
    c_i = b^j C_i, so those (g1, g2) are generated by (alpha_H, 0) and
    (-C2 w^delta, C1), with w = s = x/b on H and delta = d2 - d1.  The new
    pair is (theta1, alpha_H*theta2) if c1 = 0, (alpha_H*theta1, theta2) if
    c2 = 0, and otherwise (alpha_H*theta1, c1 b^delta theta2 - c2 x^delta
    theta1), made primitive.  On the line x, s*(0, 1), w = y and c_i = a C_i,
    so the last is c1 theta2 - c2 y^delta theta1.  Each step multiplies the
    determinant by a nonzero multiple of alpha_H.

    After j rounds the pair is the one raised for min(m_H, j).  ``bases``
    maps (lines, multiplicities in line order) to such pairs; the raising
    resumes from the deepest round it holds and records each one it makes.
    Each step computes its coefficients c_i directly (:func:`_step_coefficient`).
    """
    _validate(arr2, mult)
    ms = tuple(mult.get(c, 0) for c in arr2.covectors)
    keys = [(arr2.covectors, tuple([m if m < j else j for m in ms])) for j in range(max(ms) + 1)]  # keys[j]: after j rounds
    bases = {} if bases is None else bases
    done = max((j for j, key in enumerate(keys) if key in bases), default=0)
    theta1, theta2 = bases.get(keys[done], ((1, 0), (0, 1)))  # d/dx, d/dy at m = 0
    for j in range(done, len(keys) - 1):
        for (a, b), m in zip(arr2.covectors, ms):
            if m > j:
                theta1, theta2 = _raise(a, b, j, theta1, theta2)
        bases[keys[j + 1]] = theta1, theta2
    d1, d2 = len(theta1) // 2 - 1, len(theta2) // 2 - 1
    if not saito_certified(arr2, mult, theta1, theta2):
        raise AssertionError(f"no derivation basis of degrees ({d1}, {d2}) passes Saito's criterion")
    return d1, d2


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


def yoshinaga_check(arr2: Arrangement, mult: Multiplicity, chi: CharPoly, bases: Optional[dict] = None) -> FreenessVerdict:
    """Complete freeness test for central arrangements in 3 coordinates.

    Compares chi_0 at zero, read from ``chi``, the characteristic polynomial,
    with the product of the exponents of ``(arr2, mult)``, its Ziegler
    multirestriction onto one of its planes; equality is equivalent to
    freeness.  The caller computes both, so size guards apply there, before
    the rank-2 solve runs; ``bases`` goes to :func:`exp_rank2_multi`.
    """
    if (arr2.dim, chi.degree) != (2, 3):
        raise ValueError(f"need 2 coordinates and chi of degree 3, got {arr2.dim} and chi of degree {chi.degree}")
    czero = chi0(chi).coeffs[0]
    d1, d2 = exp_rank2_multi(arr2, mult, bases=bases)
    if czero == d1 * d2:
        return FreenessVerdict(True, ExponentMultiset((1, d1, d2)), czero, (d1, d2))
    return FreenessVerdict(False, None, czero, (d1, d2))
