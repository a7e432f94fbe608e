"""Rank-2 multiarrangement exponents and the ambient-3 freeness criterion."""

import random
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import idealshi.multiarr
from idealshi import (
    Arrangement,
    CharPoly,
    ExponentMultiset,
    LatticeCache,
    build,
    charpoly_mobius,
    derivation_space_dim,
    enumerate_ideals,
    exp_rank2_multi,
    linalg,
    mask_of,
    root_arrangement,
    root_covector,
    roots_of,
    shi_arrangement,
    shi_exponents_dp,
    shift_predict,
    try_factor_exponents,
    yoshinaga_check,
    z_covector,
    ziegler_multiplicity,
)
from idealshi.cli import SubsetFacts
from idealshi.multiarr import _packed_taylor, saito_certified
from saito_division import _respects as divides, saito_divided, target_by_convolution


def dot(row, theta):
    return sum(x * y for x, y in zip(row, theta))


def line_conditions(a, b, m, d):
    """The rows forcing (a*x + b*y)^m to divide a*P + b*Q, P, Q of degree d."""
    return [idealshi.multiarr._condition_row(a, b, t, d) for t in range(min(m, d + 1))]


def _digits(h, k, count):
    """h = sum_(t < count) d_t 2^(k t) as balanced digits d_t in [-2^(k-1), 2^(k-1))."""
    half = 1 << k - 1
    h += half * ((1 << k * count) - 1) // ((1 << k) - 1)  # every digit + half, now in [0, 2^k)
    return [(h >> k * t & (1 << k) - 1) - half for t in range(count)]


def a2_lines():
    rs = build("A2")
    base = root_arrangement(rs)
    a1 = root_covector(rs, rs.positive_roots[0])
    a2r = root_covector(rs, rs.positive_roots[1])
    a12 = root_covector(rs, rs.root_at((1, 1)))
    return base, a1, a2r, a12


def test_exponent_pair_examples():
    base, a1, a2r, a12 = a2_lines()
    assert exp_rank2_multi(base, {c: 2 for c in base.covectors}) == (3, 3)
    single = Arrangement.of(2, [(1, 0)])
    assert exp_rank2_multi(single, {(1, 0): 5}) == (0, 5)
    assert exp_rank2_multi(base, {a1: 1}) == (0, 1)
    assert exp_rank2_multi(base, {a1: 3, a2r: 2, a12: 2}) == (3, 4)
    assert exp_rank2_multi(base, {}) == (0, 0)


def test_indicator_multiplicity_exponents():
    # 0/1 multiplicities behave like the simple subarrangement
    base, a1, a2r, a12 = a2_lines()
    assert exp_rank2_multi(base, {a1: 1, a2r: 1}) == (1, 1)
    assert exp_rank2_multi(base, {a1: 1, a2r: 1, a12: 1}) == (1, 2)
    assert exp_rank2_multi(base, {a12: 1}) == (0, 1)


def test_degree_sum_and_dimension_law():
    # the graded dimensions must match a free pair (d1, d2)
    base, a1, a2r, a12 = a2_lines()
    cases = [
        {a1: 3, a2r: 3, a12: 2},
        {a1: 2, a2r: 2, a12: 2},
        {a1: 4, a2r: 1, a12: 1},
        {a1: 5, a2r: 0, a12: 0},
        {a1: 1, a2r: 1, a12: 4},
    ]
    for mult in cases:
        total = sum(mult.values())
        d1, d2 = exp_rank2_multi(base, mult)
        assert d1 + d2 == total and d1 <= d2
        for d in range(total + 2):
            want = max(0, d - d1 + 1) + max(0, d - d2 + 1)
            assert derivation_space_dim(base, mult, d) == want, (mult, d)


def ladder_exponents(arr2, mult):
    """The degree ladder: d1 is the first degree carrying a nonzero
    derivation, found by exact rank degree after degree."""
    total = sum(mult.values())
    d1 = next(d for d in range(total + 1) if derivation_space_dim(arr2, mult, d) > 0)
    return d1, total - d1


@st.composite
def multiarrangements(draw):
    """Any nonempty subset of the A2, B2 or G2 lines and the non-root line
    x - y, with multiplicities 0..12.  A subset holds none, one or both of
    the coordinate lines x and y, whose condition rows pin unknowns."""
    lines = root_arrangement(build(draw(st.sampled_from(["A2", "B2", "G2"])))).covectors + ((1, -1),)
    chosen = draw(st.lists(st.sampled_from(lines), min_size=1, unique=True))
    return Arrangement.of(2, chosen), {cov: draw(st.integers(0, 12)) for cov in chosen}


@settings(max_examples=60, deadline=None)
@given(multiarrangements())
def test_one_solve_matches_degree_ladder(case):
    arr2, mult = case
    assert exp_rank2_multi(arr2, mult) == ladder_exponents(arr2, mult)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_one_solve_matches_degree_ladder_edge_cases(name):
    lines = root_arrangement(build(name)).covectors
    cases = [(lines, {}), (lines, {cov: 0 for cov in lines})]
    cases += [((cov,), {cov: m}) for cov in lines for m in (0, 1, 12)]
    for covs, mult in cases:
        arr2 = Arrangement.of(2, covs)
        assert exp_rank2_multi(arr2, mult) == ladder_exponents(arr2, mult), (covs, mult)


def certified_basis(monkeypatch, arr2, mult):
    """The basis (theta1, theta2) that exp_rank2_multi certified."""
    passed = []
    original = idealshi.multiarr.saito_certified

    def spy(*args):
        if original(*args):
            passed.append(args[2:4])
            return True
        return False

    with monkeypatch.context() as patch:
        patch.setattr(idealshi.multiarr, "saito_certified", spy)
        d1, d2 = exp_rank2_multi(arr2, mult)
    ((theta1, theta2),) = passed
    assert (len(theta1), len(theta2)) == (2 * d1 + 2, 2 * d2 + 2)
    return theta1, theta2


def multiarrangement_cases():
    base, a1, a2r, a12 = a2_lines()
    g2 = root_arrangement(build("G2"))
    return [
        (base, {a1: 3, a2r: 2, a12: 2}),  # exponents (3, 4)
        (base, {c: 2 for c in base.covectors}),  # (3, 3)
        (g2, {c: 10 + (i == 5) for i, c in enumerate(g2.covectors)}),  # (30, 31)
    ]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_certified_basis_meets_every_row(monkeypatch, name, m):
    arr2 = root_arrangement(build(name))
    mult = {cov: m + (i == 0) for i, cov in enumerate(arr2.covectors)}
    for theta in certified_basis(monkeypatch, arr2, mult):
        rows = idealshi.multiarr._conditions(arr2, mult, len(theta) // 2 - 1)
        assert len(rows) == sum(min(e, len(theta) // 2) for e in mult.values())
        assert not any(dot(row, theta) for row in rows)


@pytest.mark.parametrize("index", range(3))
def test_pinned_kernel_matches_full_nullspace(monkeypatch, index):
    # the coordinate lines pin unknowns to zero; the kernel of the other rows
    # on the unpinned unknowns has the full nullspace's dimension, and the
    # certified basis is zero on the pinned ones
    arr2, mult = multiarrangement_cases()[index]
    for d, theta in zip(exp_rank2_multi(arr2, mult), certified_basis(monkeypatch, arr2, mult)):
        rows = idealshi.multiarr._conditions(arr2, mult, d)
        pins = [row for row in rows if sum(map(bool, row)) == 1]
        assert pins  # the coordinate lines pin unknowns
        pinned = {next(j for j, c in enumerate(row) if c) for row in pins}
        free = [j for j in range(2 * d + 2) if j not in pinned]
        reduced = [[row[j] for j in free] for row in rows if row not in pins]
        assert len(free) - linalg.rank(reduced) == derivation_space_dim(arr2, mult, d)
        assert not any(theta[j] for j in pinned)


@pytest.mark.parametrize("index", range(3))
def test_no_derivation_below_the_first_exponent(index):
    arr2, mult = multiarrangement_cases()[index]
    d1, d2 = exp_rank2_multi(arr2, mult)
    assert derivation_space_dim(arr2, mult, d1 - 1) == 0
    assert derivation_space_dim(arr2, mult, d1) == 1 + (d1 == d2)


def test_large_multiplicity_follows_the_shift_law():
    # 40 + indicator on the G2 lines: the shift by 2k = 40 of the indicator's
    # exponents (k = 20, h = 6)
    g2 = root_arrangement(build("G2"))
    indicator = {cov: i % 2 for i, cov in enumerate(g2.covectors)}
    shifted = {cov: 40 + e for cov, e in indicator.items()}
    base = ExponentMultiset(exp_rank2_multi(g2, indicator))
    assert exp_rank2_multi(g2, shifted) == (121, 122) == shift_predict(base, 20, 6, "+").parts


@pytest.mark.parametrize("index", range(2))
def test_corrupted_step_fails_the_certificate(monkeypatch, index):
    # every step's coefficient off by one; not on the G2 case, whose 61
    # wrong combinations have no content to divide out and grow too large
    arr2, mult = multiarrangement_cases()[index]
    original = idealshi.multiarr._step_coefficient
    monkeypatch.setattr(idealshi.multiarr, "_step_coefficient", lambda *args: original(*args) + 1)
    with pytest.raises(AssertionError, match="passes Saito's criterion"):
        exp_rank2_multi(arr2, mult)


@pytest.mark.parametrize("index", range(3))
def test_tampered_basis_fails_the_certificate(monkeypatch, index):
    arr2, mult = multiarrangement_cases()[index]
    theta1, theta2 = certified_basis(monkeypatch, arr2, mult)
    assert saito_certified(arr2, mult, theta1, theta2)
    # theta2 replaced by 2 x^(d2 - d1) * theta1: still a derivation of the
    # right degree, but the determinant vanishes
    d1, d2 = len(theta1) // 2 - 1, len(theta2) // 2 - 1
    pad = (0,) * (d2 - d1)
    multiple = tuple(2 * c for c in pad + theta1[: d1 + 1] + pad + theta1[d1 + 1 :])
    conditions = idealshi.multiarr._conditions(arr2, mult, d2)
    assert not any(dot(row, multiple) for row in conditions)
    assert not saito_certified(arr2, mult, theta1, multiple)
    # one perturbed coefficient, anywhere in either derivation
    for theta, other in ((theta1, theta2), (theta2, theta1)):
        for i in range(len(theta)):
            bumped = tuple(c + (j == i) for j, c in enumerate(theta))
            assert not saito_certified(arr2, mult, bumped, other), i


def test_certificate_checks_membership_and_degree():
    axes = Arrangement.of(2, [(1, 0), (0, 1)])
    mult = {(1, 0): 1, (0, 1): 1}  # basis x d/dx, y d/dy in the layout p_0, p_1, q_0, q_1
    theta1, theta2 = (0, 1, 0, 0), (0, 0, 1, 0)
    assert saito_certified(axes, mult, theta1, theta2)
    # y d/dx, x d/dy: determinant x*y, but x does not divide y
    assert not saito_certified(axes, mult, (1, 0, 0, 0), (0, 0, 0, 1))
    # (x + y) * theta2 is a derivation, but the degrees sum to |m| + 1
    assert not saito_certified(axes, mult, theta1, (0, 0, 0, 1, 1, 0))


def test_theta2_is_tested_where_theta1_of_beta_vanishes_on_the_line():
    # m = {x: 1}, (x d/dy, d/dx): the degrees sum to |m|, det = -x, and x
    # divides theta1(x) = 0, but not theta2(x) = 1.  On the line x, beta = y
    # and theta1(y) = x vanishes at (0, -1), so the determinant says nothing
    # about theta2 there: only the direct test refuses it
    axes = Arrangement.of(2, [(1, 0), (0, 1)])
    mult = {(1, 0): 1}
    theta1, theta2 = (0, 0, 0, 1), (1, 0)
    assert divides(1, 0, 1, theta1) and not divides(1, 0, 1, theta2)
    assert not saito_divided(axes, mult, theta1, theta2)
    assert not saito_certified(axes, mult, theta1, theta2)
    assert not saito_certified(axes, mult, theta2, theta1)


@st.composite
def line_memberships(draw):
    """A primitive line, a derivation theta of degree d as in line_conditions,
    and a multiplicity m up to d + 3.  Half of the draws make a*P + b*Q a
    multiple of alpha^m (theta = alpha^m * theta'), or zero, so that the
    positive answer is exercised too."""
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    a, b = linalg.normalize_primitive((a, b))
    m = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["random", "multiple", "zero"]))
    if kind == "random":
        d = draw(st.integers(0, 8))
        m = min(m, d + 3)
        theta = tuple(draw(st.lists(st.integers(-5, 5), min_size=2 * d + 2, max_size=2 * d + 2)))
    elif kind == "multiple":
        e = draw(st.integers(0, 4))
        theta = tuple(draw(st.lists(st.integers(-5, 5), min_size=2 * e + 2, max_size=2 * e + 2)))
        m = min(m, 6)
        for _ in range(m):
            theta = idealshi.multiarr._times_line(a, b, theta)
    else:  # P = b*R, Q = -a*R: a*P + b*Q = 0, so every m > d + 1 holds too
        r = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=9))
        theta = tuple(b * c for c in r) + tuple(-a * c for c in r)
    return a, b, m, theta, kind


@settings(max_examples=300, deadline=None)
@given(line_memberships())
def test_division_matches_condition_rows(case):
    # exact division by alpha^m decides what the condition rows decide
    a, b, m, theta, kind = case
    d = len(theta) // 2 - 1
    rows = line_conditions(a, b, m, d)
    by_rows = not any(dot(row, theta) for row in rows)
    assert idealshi.multiarr._respects(a, b, m, theta) == by_rows
    if kind != "random":
        assert by_rows
    # the step rule reads row j of the same conditions
    for j in range(d + 2):
        want = dot(line_conditions(a, b, j + 1, d)[j], theta) if j <= d else 0
        assert idealshi.multiarr._step_coefficient(a, b, j, theta) == want


def test_division_examples():
    # theta = (p_0, .., p_d, q_0, .., q_d), P = sum p_s x^s y^(d-s)
    respects = idealshi.multiarr._respects
    # x - y: P = (x - y)^2, Q = 0; (x - y)^2 divides P - Q, (x - y)^3 does not
    assert respects(1, -1, 2, (1, -2, 1, 0, 0, 0)) and not respects(1, -1, 3, (1, -2, 1, 0, 0, 0))
    # y (a = 0): y^2 divides Q = y^2, y does not divide Q = x^2
    assert respects(0, 1, 2, (0, 0, 0, 1, 0, 0)) and not respects(0, 1, 1, (0, 0, 0, 0, 0, 1))
    # 2x + 3y: P = x, Q = y gives 2P + 3Q = 2x + 3y
    assert respects(2, 3, 1, (0, 1, 1, 0))
    # 2x + y: P = x, Q = x + 2y gives 3x + 2y, whose first quotient 3/2 is
    # not an integer; rounded down, the remainder y would divide to 1/2 -> 0
    assert not respects(2, 1, 1, (0, 1, 2, 1))
    # x (b = 0): x^2 divides P = x^2; a nonzero form of degree 2 is never
    # divisible by x^3
    assert respects(1, 0, 2, (0, 0, 1, 0, 0, 0)) and not respects(1, 0, 3, (0, 0, 1, 0, 0, 0))


def taylor_rows(a, b, theta):
    """Every row of the line's conditions at theta's degree, dotted with theta."""
    d = len(theta) // 2 - 1
    return [dot(row, theta) for row in line_conditions(a, b, d + 1, d)]


@st.composite
def wide_lines(draw):
    """A primitive line with |a|, |b| <= 9 and a derivation theta of degree up
    to 40 with entries up to 2^80 in absolute value."""
    a, b = linalg.normalize_primitive(draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)))
    d = draw(st.integers(0, 40))
    theta = draw(st.lists(st.integers(-(2**80), 2**80), min_size=2 * d + 2, max_size=2 * d + 2))
    return a, b, tuple(theta)


@settings(max_examples=150, deadline=None)
@given(wide_lines())
@example((1, 0, tuple(range(-2**80, -2**80 + 82))))
@example((0, 1, tuple(2**80 - i for i in range(82))))
@example((9, -8, (2**80,) * 82))
def test_packed_digits_are_the_condition_rows(case):
    # the unpacked digits are the rows' exact values, so the bound holds and
    # the signs are read right; membership agrees with synthetic division
    a, b, theta = case
    d = len(theta) // 2 - 1
    h, k = _packed_taylor(a, b, theta, d + 1)  # every digit
    assert _digits(h, k, d + 1) == taylor_rows(a, b, theta)
    for m in sorted({0, 1, d // 2, d, d + 1, d + 2, d + 10}):
        assert idealshi.multiarr._respects(a, b, m, theta) == divides(a, b, m, theta), m


@settings(max_examples=100, deadline=None)
@given(wide_lines(), st.integers(0, 45))
def test_reduced_horner_pass_is_the_low_digits(case, m):
    # reducing modulo 2^(K m) after each step gives the full h modulo 2^(K m)
    a, b, theta = case
    d = len(theta) // 2 - 1
    h, k = _packed_taylor(a, b, theta, max(m, d + 1))
    low, k_low = _packed_taylor(a, b, theta, m)
    assert k_low == k and 0 <= low < 1 << k * m
    assert low == h % (1 << k * m)


@settings(max_examples=100, deadline=None)
@given(wide_lines(), st.integers(1, 12))
def test_near_miss_is_refused(case, m):
    # theta = alpha^(m-1) theta', alpha not dividing theta'(alpha): only digit
    # m - 1 of the packed value is nonzero, and alpha^m is refused
    a, b, theta = case
    assume(len(theta) // 2 + m - 1 <= 41 and taylor_rows(a, b, theta)[0] != 0)
    for _ in range(m - 1):
        theta = idealshi.multiarr._times_line(a, b, theta)
    d = len(theta) // 2 - 1
    digits = _digits(*_packed_taylor(a, b, theta, d + 1), d + 1)
    assert digits == taylor_rows(a, b, theta)
    assert not any(digits[: m - 1]) and digits[m - 1] != 0
    assert idealshi.multiarr._respects(a, b, m - 1, theta) and divides(a, b, m - 1, theta)
    assert not idealshi.multiarr._respects(a, b, m, theta) and not divides(a, b, m, theta)


@pytest.mark.parametrize("line", [(1, 0), (0, 1), (1, -1), (2, 3), (-1, 0), (0, -1), (-2, 3), (9, -7)])
def test_membership_edges(line):
    # m = 0 always holds, m > d + 1 only for g = 0, and g = 0 for every m;
    # unnormalized signs decide the same divisibility
    a, b = line
    rng = random.Random(sum(line))
    for d in (0, 1, 5, 40):
        theta = tuple(rng.randint(-(2**80), 2**80) for _ in range(2 * d + 2))
        r = [rng.randint(-(2**80), 2**80) for _ in range(d + 1)]
        zero = tuple(b * c for c in r) + tuple(-a * c for c in r)  # a*P + b*Q = 0
        for m in (0, 1, d + 1, d + 2, 3 * d + 5):
            assert idealshi.multiarr._respects(a, b, m, theta) == divides(a, b, m, theta) == (m == 0), (d, m)
            assert idealshi.multiarr._respects(a, b, m, zero) and divides(a, b, m, zero), (d, m)


def bump(theta, i):
    """theta with coefficient i raised by one."""
    return tuple(c + (j == i) for j, c in enumerate(theta))


@st.composite
def weighted_lines(draw):
    """Distinct primitive lines, |a|, |b| <= 9, one of them x (b = 0), each
    with a multiplicity 0..15."""
    pairs = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any), max_size=8))
    lines = sorted({(1, 0)} | {linalg.normalize_primitive(v) for v in pairs})
    return {cov: draw(st.integers(0, 15)) for cov in lines}


@settings(max_examples=100, deadline=None)
@given(weighted_lines())
def test_packed_target_matches_repeated_convolution(mult):
    # prod alpha_H^(m_H) from one big product at U = 2^K, K as the certificate
    # packs at, has the digits of one convolution per unit; with membership
    # waved through, (target, 0) and d/dy have det = target
    arr2 = Arrangement.of(2, mult)
    want = list(target_by_convolution(arr2.covectors, mult))
    widths = []
    real_pack = idealshi.multiarr._pack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(idealshi.multiarr, "_respects", lambda *args: True)
        patch.setattr(idealshi.multiarr, "_pack", lambda coeffs, k: widths.append(k) or real_pack(coeffs, k))
        assert saito_certified(arr2, mult, tuple(want) + (0,) * len(want), (0, 1))
        k = widths[-1]
        assert _digits(prod(((a << k) + b) ** m for (a, b), m in mult.items()), k, len(want)) == want
        assert saito_certified(arr2, mult, tuple(-3 * c for c in want) + (0,) * len(want), (0, 1))
        bumped = bump(want, 0 if want[0] == 0 else len(want) - 1)  # not the only nonzero entry, unless |m| = 0
        assert saito_certified(arr2, mult, bumped + (0,) * len(want), (0, 1)) == (len(want) == 1)


def campaign_inputs(name, k):
    """Per ideal, the 0/1 indicator on the root lines and the multirestriction
    of each sign's cone onto {z = 0}, the rank-2 input of ``verify NAME -k K
    --all-ideals``."""
    rs = build(name)
    base, hz = root_arrangement(rs), z_covector(rs)
    inputs = []
    for mask in enumerate_ideals(rs):
        roots = roots_of(rs, mask)
        inputs.append((base, {root_covector(rs, r): r in roots for r in rs.positive_roots}))
        inputs += [ziegler_multiplicity(shi_arrangement(rs, k, mask, s), hz) for s in "+-"]
    return inputs


def campaign_bases(name, k):
    """The rank-2 inputs of ``verify NAME -k K --all-ideals``, each with the
    basis exp_rank2_multi certified for it."""
    bases, out = {}, []
    for arr2, mult in campaign_inputs(name, k):
        exp_rank2_multi(arr2, mult, bases=bases)
        key = (arr2.covectors, tuple(mult.get(c, 0) for c in arr2.covectors))
        out.append((arr2, mult, bases.get(key, ((1, 0), (0, 1)))))
    return out


@pytest.mark.parametrize("name,k", [("G2", 1), ("G2", 5), ("G2", 12), ("G2", 20), ("B2", 1), ("B2", 8), ("A2", 1), ("A2", 11)])
def test_certificate_matches_synthetic_division_on_campaigns(name, k):
    # every (line, theta, m), at m_H and m_H + 1, and every verdict of the
    # campaign's certificates, on each basis and on it with one coefficient
    # bumped, agrees with the synthetic-division oracle
    rng = random.Random(f"{name}{k}")
    verdicts = []
    for arr2, mult, (theta1, theta2) in campaign_bases(name, k):
        bumped1, bumped2 = (bump(t, rng.randrange(len(t))) for t in (theta1, theta2))
        for pair in ((theta1, theta2), (bumped1, theta2), (theta1, bumped2)):
            for a, b in arr2.covectors:
                for m in (mult.get((a, b), 0), mult.get((a, b), 0) + 1):
                    for theta in pair:
                        assert idealshi.multiarr._respects(a, b, m, theta) == divides(a, b, m, theta), (a, b, m)
            verdicts.append(saito_certified(arr2, mult, *pair))
            assert verdicts[-1] == saito_divided(arr2, mult, *pair)
    # the certified bases pass; most bumps are refused (a bump of a low-degree
    # basis can leave another basis of the same module)
    assert all(verdicts[::3]) and verdicts.count(False) > len(verdicts) // 3


def certificate_mutations(arr2, mult, theta1, theta2, rng):
    """(mult, theta1, theta2) for the certified pair and its mutations: one
    coefficient bumped in either derivation, one line's m_H raised or
    lowered by one, the pair swapped, and theta2 + 5 x^delta theta1."""
    out = [(mult, theta1, theta2), (mult, bump(theta1, rng.randrange(len(theta1))), theta2)]
    out += [(mult, theta1, bump(theta2, rng.randrange(len(theta2)))), (mult, theta2, theta1)]
    out += [({**mult, cov: mult.get(cov, 0) + e}, theta1, theta2) for cov in arr2.covectors for e in (1, -1)]
    delta = len(theta2) // 2 - len(theta1) // 2
    p1, q1 = idealshi.multiarr._halves(theta1)
    shifted = (0,) * delta + p1 + (0,) * delta + q1
    out.append((mult, theta1, tuple(u + 5 * v for u, v in zip(theta2, shifted))))
    return [(m, t1, t2) for m, t1, t2 in out if min(m.values(), default=0) >= 0]


@pytest.mark.parametrize("name,k", [("A2", 11), ("B2", 7), ("G2", 5), ("G2", 10)])
def test_certificate_matches_saito_divided_on_mutations(name, k):
    # the packed determinant and the theta1-only membership decide what
    # synthetic division and repeated convolution decide, on every basis a
    # campaign certifies and on each of its mutations
    rng, bases, verdicts = random.Random(f"mutations {name}{k}"), campaign_bases(name, k), []
    for arr2, mult, (theta1, theta2) in bases:
        for case in certificate_mutations(arr2, mult, theta1, theta2, rng):
            verdicts.append(saito_certified(arr2, *case))
            assert verdicts[-1] == saito_divided(arr2, *case), case
    assert verdicts.count(True) >= len(bases) and verdicts.count(False) > len(verdicts) // 2


def test_shared_bases_match_cold_calls(monkeypatch):
    inputs = campaign_inputs("G2", 5)
    assert len(inputs) == 24
    cold = [exp_rank2_multi(arr2, mult) for arr2, mult in inputs]
    steps = []
    original = idealshi.multiarr._raise
    monkeypatch.setattr(idealshi.multiarr, "_raise", lambda *args: steps.append(args) or original(*args))
    order, counts = list(range(len(inputs))), []
    for seed in range(3):
        random.Random(seed).shuffle(order)
        bases, steps[:] = {}, []
        warm = {i: exp_rank2_multi(*inputs[i], bases=bases) for i in order}
        assert [warm[i] for i in range(len(inputs))] == cold
        counts.append(len(steps))
        # a full table raises nothing more
        assert all(exp_rank2_multi(*inputs[i], bases=bases) == cold[i] for i in order)
        assert len(steps) == counts[-1]
    # each round that any input reaches is raised once, whatever the order;
    # one step raises one unit of one line, so the cold calls take sum |m| steps
    assert len(set(counts)) == 1 and counts[0] < sum(sum(mult.values()) for _, mult in inputs) // 4


def times_x(theta):
    """x * theta, each half shifted up one power of x."""
    n = len(theta) // 2
    return (0,) + theta[:n] + (0,) + theta[n:]


@pytest.mark.parametrize("depth", ["last", "middle"])
def test_tampered_bases_fail_the_certificate(depth):
    # the raising resumes from the deepest round held, so the "middle" table
    # drops the rounds after the tampered one
    g2 = root_arrangement(build("G2"))
    mult = {c: 10 + (i == 5) for i, c in enumerate(g2.covectors)}
    bases = {}
    assert exp_rank2_multi(g2, mult, bases=bases) == (30, 31)
    keys = sorted(bases, key=lambda key: sum(key[1]))
    assert len(keys) == 11 and all(key[0] == g2.covectors for key in keys)
    kept = keys if depth == "last" else keys[:6]
    theta1, theta2 = bases[kept[-1]]
    for tampered in ((theta1, times_x(theta2)), (theta1[:-1] + (theta1[-1] + 1,), theta2)):
        bad = {**{key: bases[key] for key in kept}, kept[-1]: tampered}
        with pytest.raises(AssertionError, match="passes Saito's criterion"):
            exp_rank2_multi(g2, mult, bases=bad)
    # the untouched table still certifies
    assert exp_rank2_multi(g2, mult, bases=bases) == (30, 31)


def test_dimension_nondecreasing():
    base, a1, a2r, a12 = a2_lines()
    mult = {a1: 3, a2r: 2, a12: 3}
    dims = [derivation_space_dim(base, mult, d) for d in range(10)]
    assert dims == sorted(dims)


def test_shift_predict():
    assert shift_predict(ExponentMultiset((1, 2)), 1, 3, "+").parts == (4, 5)
    assert shift_predict(ExponentMultiset((0, 0)), 2, 4, "-").parts == (8, 8)
    assert shift_predict(ExponentMultiset((0, 1)), 1, 3, "-").parts == (2, 3)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_indicator_exponents_equal_the_subset_chi_split(systems, name):
    # the 0/1 indicator on the root lines and the subset arrangement's own
    # chi give the same base exponents, on every subset
    rs = systems[name]
    base = root_arrangement(rs)
    for mask in range(1 << rs.n_positive):
        indicator = {root_covector(rs, r): mask >> i & 1 == 1 for i, r in enumerate(rs.positive_roots)}
        split = try_factor_exponents(charpoly_mobius(root_arrangement(rs, mask)))
        assert ExponentMultiset(exp_rank2_multi(base, indicator)) == split, (name, mask)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "D4", "F4"])
def test_subset_shift_law_equals_dual_partition_exponents(systems, name):
    rs, cache = systems[name], LatticeCache()
    ideals = enumerate_ideals(rs)
    for i, mask in enumerate(ideals):
        law = SubsetFacts(rs, 1, "both", mask, i, (), cache).shift_law
        for sign in "+-":
            assert law[sign] == shi_exponents_dp(rs, 1, mask, sign), (name, i, sign)


def test_yoshinaga_examples():
    rs = build("A2")
    hz = z_covector(rs)
    verdicts = []
    for sigma in ([rs.root_at((1, 1))], [rs.positive_roots[0]], []):
        arr = shi_arrangement(rs, 1, mask_of(rs, sigma), "+")
        verdicts.append(yoshinaga_check(*ziegler_multiplicity(arr, hz), charpoly_mobius(arr)))
    witness, simple, empty = verdicts
    assert not witness.free and witness.chi0_zero == 13 and witness.restriction_exponents == (3, 4)
    assert simple.free and simple.exponents.parts == (1, 3, 4)
    assert empty.free and empty.exponents.parts == (1, 3, 3)


def test_yoshinaga_requires_dimension_3():
    a3 = build("A3")
    arr3 = shi_arrangement(a3, 1, 0, "+")
    with pytest.raises(ValueError):
        yoshinaga_check(*ziegler_multiplicity(arr3, z_covector(a3)), charpoly_mobius(arr3))
    # chi must be the polynomial of an arrangement in 3 coordinates too
    a2 = build("A2")
    arr = shi_arrangement(a2, 1, 0, "+")
    with pytest.raises(ValueError, match="chi of degree 4"):
        yoshinaga_check(*ziegler_multiplicity(arr, z_covector(a2)), charpoly_mobius(arr3))
    with pytest.raises(ValueError, match="chi of degree 2"):
        yoshinaga_check(*ziegler_multiplicity(arr, z_covector(a2)), charpoly_mobius(root_arrangement(a2)))


def freeness_survey(rs, k):
    """Free or not, both signs, for every subset of the positive roots."""
    hz = z_covector(rs)
    base = root_arrangement(rs)
    simple_mask = sum(1 << rs.index[r.coeffs] for r in rs.positive_roots if r.height == 1)
    h = rs.coxeter_number
    rows = []
    for mask in range(1 << rs.n_positive):
        expect_free = mask == 0 or bool(mask & simple_mask)
        indicator = {
            root_covector(rs, r): 1 if mask >> i & 1 else 0
            for i, r in enumerate(rs.positive_roots)
        }
        base_exp = exp_rank2_multi(base, indicator)
        verdicts = {}
        for sign in "+-":
            arr = shi_arrangement(rs, k, mask, sign)
            v = yoshinaga_check(*ziegler_multiplicity(arr, hz), charpoly_mobius(arr))
            verdicts[sign] = v
            if v.free:
                want = tuple(
                    sorted((1,) + shift_predict(ExponentMultiset(base_exp), k, h, sign).parts)
                )
                assert v.exponents.parts == want, (rs.type, k, mask, sign)
                d1, d2 = v.restriction_exponents
                assert charpoly_mobius(arr).coeffs == CharPoly.from_roots((1, d1, d2)).coeffs
        assert verdicts["+"].free == verdicts["-"].free == expect_free, (rs.type, k, mask)
        rows.append(mask)
    return rows


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_sign_symmetry_complete_small(systems, name):
    rs = systems[name]
    assert len(freeness_survey(rs, 1)) == 1 << rs.n_positive


def test_sign_symmetry_g2_k1(systems):
    assert len(freeness_survey(systems["G2"], 1)) == 64
