"""Characteristic polynomials: frozen values, oracle agreement, chi_0,
factorization, deletion-restriction and the ideal-Shi chain."""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealshi
from idealshi import (
    Arrangement,
    BadReductionError,
    CharPoly,
    FactorFailure,
    LatticeCache,
    NotDivisibleError,
    SizeBoundError,
    build,
    charpoly_finite_field,
    charpoly_mobius,
    charpoly_whitney,
    chi0,
    count_free_points,
    enumerate_ideals,
    filtration_cone,
    intersection_lattice,
    restriction,
    root_arrangement,
    shi_arrangement,
    shi_charpoly,
    terao_check,
    try_factor_exponents,
)
from idealshi.rootsys import ExponentMultiset, Root, mask_of, shi_plane_count
from whitney_walk import whitney_walk


def poly_of_roots(*roots):
    return CharPoly.from_roots(roots).coeffs


def test_frozen_polynomials():
    a2 = build("A2")
    b2 = build("B2")
    assert charpoly_mobius(shi_arrangement(a2, 1, 0, "+")).coeffs == poly_of_roots(1, 3, 3)
    assert charpoly_mobius(shi_arrangement(a2, 1, mask_of(a2, a2.positive_roots), "+")).coeffs == poly_of_roots(1, 4, 5)
    assert charpoly_mobius(shi_arrangement(a2, 1, mask_of(a2, a2.positive_roots), "-")).coeffs == poly_of_roots(1, 1, 2)
    assert charpoly_mobius(shi_arrangement(b2, 1, 0, "+")).coeffs == poly_of_roots(1, 4, 4)
    assert charpoly_mobius(root_arrangement(a2)).coeffs == poly_of_roots(1, 2)
    boolean = Arrangement.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert charpoly_mobius(boolean).coeffs == poly_of_roots(1, 1, 1)
    single = Arrangement.of(2, [(1, 0)])
    assert charpoly_mobius(single).coeffs == (0, -1, 1)  # t^2 - t
    empty = Arrangement.of(2, [])
    assert charpoly_mobius(empty).coeffs == (0, 0, 1)


def test_whitney_matches_hand_values():
    a2 = build("A2")
    assert charpoly_whitney(shi_arrangement(a2, 1, 0b111, "-")).coeffs == poly_of_roots(1, 1, 2)
    b2 = build("B2")
    assert charpoly_whitney(shi_arrangement(b2, 1, 0, "+")).coeffs == poly_of_roots(1, 4, 4)
    single = Arrangement.of(2, [(1, 0)])
    assert charpoly_whitney(single).coeffs == (0, -1, 1)


def test_whitney_size_guard():
    g2 = build("G2")
    big = shi_arrangement(g2, 2, mask_of(g2, g2.positive_roots), "+")  # 31 planes
    with pytest.raises(SizeBoundError):
        charpoly_whitney(big)


# every G2 cone at k = 3 has at least 31 planes, past the subset-sum bound
WHITNEY_CAMPAIGNS = [(name, k) for name in ("A2", "B2", "G2") for k in (0, 1, 2, 3) if (name, k) != ("G2", 3)]
WHITNEY_CAMPAIGNS += [(name, 1) for name in ("A3", "B3", "C3", "A4")]


@pytest.mark.parametrize("name,k", WHITNEY_CAMPAIGNS)
def test_whitney_pass_matches_the_walk_on_ideal_shi_cones(systems, name, k):
    rs = systems[name]
    table = LatticeCache()
    checked = 0
    for mask in enumerate_ideals(rs):
        for sign in "+" if k == 0 else "+-":
            if shi_plane_count(rs, k, mask, sign) > 22:
                continue
            arr = shi_arrangement(rs, k, mask, sign)
            chi = charpoly_whitney(arr)
            assert chi == whitney_walk(arr) == charpoly_mobius(arr, table), (mask, sign)
            checked += 1
    assert checked


def random_covectors(rng, dim, reach):
    """Up to 12 nonzero covectors with entries in [-reach, reach]; some are
    sums of earlier ones, so that dependent prefixes cancel."""
    out = []
    for _ in range(rng.randrange(13)):
        if len(out) > 1 and rng.random() < 0.3:
            u, v = rng.sample(out, 2)
            out.append([a + rng.choice((-1, 1)) * b for a, b in zip(u, v)])
        else:
            out.append([rng.randint(-reach, reach) for _ in range(dim)])
    return [v for v in out if any(v)]


def test_whitney_pass_matches_the_walk_on_random_arrangements(monkeypatch):
    dtypes = set()
    exact = idealshi.charpoly._exact
    monkeypatch.setattr(idealshi.charpoly, "_exact", lambda *a: [dtypes.add(x.dtype) or x for x in exact(*a)])
    rng = random.Random(24)
    for _ in range(300):
        dim = rng.randint(1, 8)
        arr = Arrangement.of(dim, random_covectors(rng, dim, rng.choice((1, 2, 9, 10**12))))
        chi = charpoly_whitney(arr)
        assert chi == whitney_walk(arr), arr
        if dim <= 5:
            assert chi.coeffs == intersection_lattice(arr).charpoly_coeffs(), arr
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}  # the object path ran


E8_SUBSET = "a1,a2,a3,a4,a5,a6,a7,a8,a1+a3,a2+a4,a3+a4,a4+a5,a5+a6,a6+a7,a7+a8,a1+a3+a4,a2+a3+a4,a2+a4+a5,a3+a4+a5,a4+a5+a6,a5+a6+a7,a6+a7+a8"


def test_whitney_pass_matches_the_walk_on_root_arrangements():
    arrs = [root_arrangement(build(name)) for name in ("A5", "A6", "B4", "D5")]
    e8 = build("E8")
    arrs.append(root_arrangement(e8, mask_of(e8, [Root.parse(r, 8) for r in E8_SUBSET.split(",")])))
    table = LatticeCache()
    for arr in arrs:
        chi = charpoly_whitney(arr)
        assert chi == whitney_walk(arr)
        if arr.dim <= table.max_dim and arr.size <= table.max_hyperplanes:
            assert chi == charpoly_mobius(arr, table)
    assert chi.coeffs == poly_of_roots(1, *[3] * 7)  # the E8 subset: 32,768 broken-circuit-free sets


def test_whitney_temporaries_are_bounded():
    n = 16
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert charpoly_whitney(Arrangement.of(n, axes)).coeffs == poly_of_roots(*[1] * n)
    # with the plane x_1 + ... + x_16 no plane is a coloop: 2^16 live prefixes
    # before the last step, 134 MB of annihilators in one frontier
    tracemalloc.start()
    try:
        chi = charpoly_whitney(Arrangement.of(n, axes + [(1,) * n]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    power = poly_of_roots(*[1] * (n + 1))  # chi = ((t - 1)^17 + 1) / t - 1
    assert chi.coeffs == (power[1] - 1, *power[2:])
    assert peak < 32 << 20


def test_whitney_needs_no_lattice_table_or_point_count(systems, monkeypatch):
    arr = shi_arrangement(systems["B3"], 1, 0, "+")
    want = charpoly_mobius(arr)

    def refuse(*args, **kwargs):
        raise AssertionError("the subset sum is a route of its own")

    for module in (idealshi.charpoly, idealshi.arrangement):
        monkeypatch.setattr(module, "intersection_lattice", refuse)
    monkeypatch.setattr(LatticeCache, "get_charpoly", refuse)
    monkeypatch.setattr(idealshi.charpoly, "count_free_points", refuse)
    with pytest.raises(AssertionError):
        charpoly_mobius(arr)
    assert charpoly_whitney(arr) == want


def brute_force_count(arr, q):
    """Reference count: test every point of F_q^n against every plane."""
    n = arr.dim
    if not arr.covectors:
        return q**n
    mat = np.array(arr.covectors, dtype=np.int64)
    pts = np.indices((q,) * n).reshape(n, -1)
    total = 0
    chunk = 1 << 16
    for start in range(0, pts.shape[1], chunk):
        block = pts[:, start : start + chunk]
        dots = (mat @ block) % q
        total += int((dots != 0).all(axis=0).sum())
    return total


def test_finite_field_counts():
    a2 = build("A2")
    shi = shi_arrangement(a2, 1, 0, "+")
    assert count_free_points(shi, 7) == 96  # (7-1)(7-3)^2
    boolean = Arrangement.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert count_free_points(boolean, 5) == 64
    empty = Arrangement.of(2, [])
    assert count_free_points(empty, 5) == 25
    assert charpoly_finite_field(empty).coeffs == (0, 0, 1)
    assert count_free_points(Arrangement.of(1, [(1,)]), 5) == 4
    assert count_free_points(Arrangement(2, ((3, 0),)), 3) == 0  # not primitive: vanishes mod 3


def test_point_count_memory_is_bounded_in_the_plane_count():
    # A2 (1000, {}, '+') has 6,001 planes; at q = 3k + 1 it has (q - 1)(q - 3k)^2 = 3000 free points
    arr = shi_arrangement(build("A2"), 1000, 0, "+")
    tracemalloc.start()
    try:
        assert count_free_points(arr, 3001) == 3000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.size == 6001 and peak < 64 << 20


def logged_counts(monkeypatch, corrupt=None):
    """Record the prime of each point count; ``corrupt`` names one prime
    whose count is off by one."""
    exact, primes = count_free_points, []

    def counted(arr, q):
        primes.append(q)
        return exact(arr, q) + (q == corrupt)

    monkeypatch.setattr(idealshi.charpoly, "count_free_points", counted)
    return primes


def test_prime_stream_counts_each_prime_once(monkeypatch):
    # 7 and 11 are bad for this cone, so its first window slides twice
    rs = build("B3")
    cone = shi_arrangement(rs, 2, 0, "+")
    primes = logged_counts(monkeypatch)
    assert charpoly_finite_field(cone) == charpoly_mobius(cone)
    assert primes == [7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_prime_stream_range_cap():
    # the twenty primes 53 to 149 above this cone's floor of 51 are all bad
    assert charpoly_finite_field(shi_arrangement(build("A2"), 50, 0, "+")) == CharPoly.from_roots((1, 150, 150))


def test_window_steps_past_a_bad_prime_inside_it(monkeypatch):
    # 13 is the third prime of the first window, so three windows fail
    rs = build("A3")
    cone = shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots), "+")
    primes = logged_counts(monkeypatch, corrupt=13)
    assert charpoly_finite_field(cone) == charpoly_mobius(cone)
    assert len(primes) == len(set(primes))


@pytest.mark.parametrize(
    "lines",
    [
        # each prime of the first window makes one pair of lines coincide
        ((1, 3), (2, 1), (3, -7), (3, -4), (3, 1), (4, -7), (4, 3), (6, -7)),
        ((1, 3), (2, 5), (4, -3), (11, -13), (13, 12), (23, -5), (25, 8)),
    ],
)
def test_finite_field_refuses_a_non_central_interpolant(lines):
    arr = Arrangement.of(2, lines)
    assert charpoly_finite_field(arr) == charpoly_mobius(arr)


@pytest.mark.parametrize(
    "method",
    [
        charpoly_whitney,
        pytest.param(
            charpoly_finite_field,
            marks=pytest.mark.xfail(
                strict=True,
                reason="open FOUND line in CHANGES.md: at each prime 23..61 the count is chi(q) - (q - 1), "
                "so the accepted window fits t^3 - 7t^2 + 20t - 14",
            ),
        ),
    ],
    ids=["whitney", "finite-field"],
)
def test_finite_field_bad_reduction_is_known(method):
    arr = Arrangement.of(3, ((3, -3, -4), (3, 1, 0), (3, 1, 5), (4, -7, 2), (5, 0, 3), (9, 4, -1), (9, 6, 4)))
    chi = CharPoly((-15, 21, -7, 1))  # t^3 - 7t^2 + 21t - 15
    assert charpoly_mobius(arr) == chi
    assert method(arr) == chi


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
GRID_LIMIT = 300_000  # keeps the brute-force reference to a few hundred thousand points


def small_prime(data, dim):
    return data.draw(st.sampled_from([q for q in PRIMES if q**dim <= GRID_LIMIT]), label="q")


@given(
    case=st.sampled_from([(n, k) for n in ("A2", "B2", "G2", "A3", "B3") for k in (1, 2)] + [("B4", 1)]),
    sign=st.sampled_from("+-"),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_counts_match_brute_force_on_shi_cones(systems, case, sign, data):
    name, k = case
    rs = systems[name]
    cone = shi_arrangement(rs, k, mask_of(rs, rs.positive_roots), sign)
    size = data.draw(st.integers(1, cone.size), label="size")
    chosen = data.draw(st.permutations(cone.covectors), label="order")[:size]
    arr = Arrangement(cone.dim, tuple(sorted(chosen)))
    q = small_prime(data, arr.dim)
    assert count_free_points(arr, q) == brute_force_count(arr, q)


@given(dim=st.integers(1, 5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_counts_match_brute_force_on_random_arrangements(dim, data):
    z = (0,) * (dim - 1) + (1,)
    vectors = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).filter(any), max_size=10),
        label="covectors",
    )
    arr = Arrangement.of(dim, vectors)
    arr = Arrangement(dim, tuple(c for c in arr.covectors if c != z))  # not a cone over {z = 0}
    q = small_prime(data, dim)
    assert count_free_points(arr, q) == brute_force_count(arr, q)
    assert charpoly_whitney(arr).coeffs == intersection_lattice(arr).charpoly_coeffs()


def test_rank4_finite_field_memory():
    # B4 k=1 in a fresh process, so the peak resident set is this count's own
    script = """
import json, resource, sys
from idealshi import build, charpoly_finite_field, charpoly_mobius, shi_arrangement
rs = build("B4")
polys = []
for mask in (0, (1 << rs.n_positive) - 1):
    arr = shi_arrangement(rs, 1, mask, "+")
    polys.append([charpoly_finite_field(arr).coeffs, charpoly_mobius(arr).coeffs])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
print(json.dumps({"polys": polys, "peak_mb": peak / (1 << (20 if sys.platform == "darwin" else 10))}))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(idealshi.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    for finite_field, mobius in out["polys"]:
        assert finite_field == mobius
    assert out["peak_mb"] < 200


def corpus():
    out = []
    for name in ("A2", "B2", "G2"):
        rs = build(name)
        out.append(shi_arrangement(rs, 1, 0, "+"))
        out.append(shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots), "+"))
        out.append(shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots), "-"))
        out.append(root_arrangement(rs))
    a3 = build("A3")
    out.append(shi_arrangement(a3, 1, 0, "+"))
    out.append(shi_arrangement(a3, 1, mask_of(a3, a3.positive_roots), "-"))
    return out


def test_three_way_oracle_agreement():
    for arr in corpus():
        mob = charpoly_mobius(arr)
        assert charpoly_finite_field(arr).coeffs == mob.coeffs
        if arr.size <= 22:
            assert charpoly_whitney(arr).coeffs == mob.coeffs


def test_deletion_restriction_sampled():
    rng = random.Random(23)
    pool = corpus()
    for _ in range(20):
        arr = rng.choice(pool)
        if arr.size < 2:
            continue
        h = rng.choice(arr.covectors)
        whole = charpoly_mobius(arr).coeffs
        deleted = charpoly_mobius(arr.delete(h)).coeffs
        restricted = charpoly_mobius(restriction(arr, h)).coeffs
        want = list(deleted)
        for d, c in enumerate(restricted):
            want[d] -= c
        assert tuple(want) == whole


CHAIN_CAMPAIGNS = [(name, k) for name in ("A2", "B2", "G2") for k in (1, 2, 3)]
CHAIN_CAMPAIGNS += [(name, k) for name in ("A3", "B3", "C3") for k in (1, 2)]
CHAIN_CAMPAIGNS += [("A4", 1), ("D4", 1)]


@pytest.mark.parametrize("name,k", CHAIN_CAMPAIGNS)
def test_shi_chain_matches_the_lattice(systems, name, k, monkeypatch):
    # a campaign's walk: ideals in enumeration order, both signs, one table
    rs = systems[name]
    cases = [(mask, sign) for mask in enumerate_ideals(rs) for sign in "+-"]
    want = [charpoly_mobius(shi_arrangement(rs, k, mask, sign)) for mask, sign in cases]
    builds = []
    build_lattice = idealshi.arrangement.intersection_lattice
    for module in (idealshi.arrangement, idealshi.charpoly):
        monkeypatch.setattr(module, "intersection_lattice", lambda arr: builds.append(arr) or build_lattice(arr))
    table = LatticeCache()
    got = [shi_charpoly(rs, k, mask, sign, table) for mask, sign in cases]
    assert got == want
    # parents of ideals are ideals: each cone costs one lattice (its own at
    # an anchor, else one restriction), and nothing is built twice
    cones = {shi_arrangement(rs, k, mask, sign) for mask, sign in cases}
    assert len(builds) == len(set(builds)) <= len(cones)


def recorded_steps(monkeypatch, rs, table, cases):
    """Every chain step of the walks of ``cases``, (k, mask, sign) cones
    that the guards of ``table`` admit, in order, all sharing ``table``:
    (cone, plane, the restriction polynomial read off the plane's store);
    and the planes whose store the walks filled or replaced, in order."""
    steps, stored = [], []
    read, restrict = LatticeCache.restricted_coeffs, idealshi.arrangement.restriction
    monkeypatch.setattr(
        idealshi.arrangement, "restriction", lambda cone, plane, traces: stored.append(plane) or restrict(cone, plane, traces)
    )
    monkeypatch.setattr(
        LatticeCache, "restricted_coeffs",
        lambda cache, cone, plane: steps.append((cone, plane, read(cache, cone, plane))) or steps[-1][2],
    )
    for k, mask, sign in cases:
        if shi_plane_count(rs, k, mask, sign) <= table.max_hyperplanes:
            shi_charpoly(rs, k, mask, sign, table)
    monkeypatch.undo()
    return steps, stored


def held_steps(monkeypatch, rs, k, signs="+-"):
    """Every chain step of a campaign of ``signs`` as ``verify --all-ideals``
    runs it, with the table holding the campaign's largest cone: (cone,
    plane, the restriction polynomial read off the plane's lattice), in
    campaign order."""
    table = LatticeCache()
    table.hold(rs, k, signs)
    steps, stored = recorded_steps(monkeypatch, rs, table, [(k, m, s) for m in enumerate_ideals(rs) for s in signs])
    assert stored == []  # every step reads a held store, never one of its own
    return steps


HELD_CAMPAIGNS = [(name, k, 1) for name in ("A3", "B3", "C3") for k in (1, 2)]
HELD_CAMPAIGNS += [(name, k, 1) for name in ("A2", "B2", "G2") for k in range(1, 6)]
HELD_CAMPAIGNS += [(name, 1, 1) for name in ("A4", "B4", "D4")] + [("F4", 1, 5)]


@pytest.mark.parametrize("name,k,every", HELD_CAMPAIGNS)
def test_masked_reads_match_fresh_restriction_lattices(systems, monkeypatch, name, k, every):
    # each chain step's chi(cone^H), read off the lattice of ambient^H
    # masked to the cone's traces, equals the lattice of cone^H itself
    rs = systems[name]
    steps = held_steps(monkeypatch, rs, k)
    # every cone but the one anchor (k, all roots, '-'): the walk from
    # (k, {}, '+') goes on down the '-' chain, and (k, {}, '-') is that cone
    assert len(steps) == 2 * len(enumerate_ideals(rs)) - 2
    [empty] = [step for step in steps if step[0] == shi_arrangement(rs, k, 0, "+")]
    for cone, plane, got in steps[::every] + [empty]:
        assert got == intersection_lattice(restriction(cone, plane)).charpoly_coeffs(), (cone.size, plane)


FILLINGS = [(filling, name, k) for filling in ("held", "cold", "refused") for name, k in [("B3", 2), ("D4", 1), ("G2", 5)]]
FILLINGS += [("minus-held", name, k) for name, k in [("B3", 2), ("D4", 1), ("G2", 5)]]


@pytest.mark.parametrize("filling,name,k", FILLINGS + [pytest.param("filtration", "B3", None, id="filtration-B3")])
def test_every_filling_of_the_store_reads_the_fresh_restriction(systems, monkeypatch, name, k, filling):
    # a plane's store is seeded by hold, with (k, all, '+') (held) or, in a
    # '-'-only campaign, (k, {}, '-') (minus-held); filled, and replaced when it
    # lacks a trace of a later cone, by the single-subset walks of every
    # ideal under both signs sharing one cold table in a shuffled order
    # (cold); filled by a campaign whose guard refuses the ambient cone
    # (refused); or filled once per step by the admitted steps of
    # ``filtration B3 --steps 120`` (filtration).  Every read equals the
    # lattice of the step's own restriction
    rs = systems[name]
    if filling.endswith("held"):
        steps = held_steps(monkeypatch, rs, k, "-" if filling == "minus-held" else "+-")
    elif filling == "filtration":
        table = LatticeCache()
        steps, stored = recorded_steps(monkeypatch, rs, table, [filtration_cone(rs, i) for i in range(1, 121)])
        # step i has i planes: steps 2..73 each add one plane to the step before
        assert len(steps) == len(stored) == len(set(stored)) == len(table.restricted) == table.max_hyperplanes - 1
    else:
        cases = [(k, mask, sign) for mask in enumerate_ideals(rs) for sign in "+-"]
        ambient = shi_plane_count(rs, k, (1 << rs.n_positive) - 1, "+")
        table = LatticeCache(max_hyperplanes=ambient - (filling == "refused"))
        if filling == "cold":
            random.Random(3).shuffle(cases)  # an order that replaces a store in each system
        else:
            table.hold(rs, k, "+-")
        assert table.restricted == {}
        steps, stored = recorded_steps(monkeypatch, rs, table, cases)
        assert len(stored) > len(set(stored)) == len(table.restricted)  # some plane's store is replaced
    assert steps
    fresh = {}
    for cone, plane, got in steps:
        arr = restriction(cone, plane)
        if arr not in fresh:
            fresh[arr] = intersection_lattice(arr).charpoly_coeffs()
        assert got == fresh[arr], (cone.size, plane)


def test_a_table_held_at_level_zero_keeps_the_plus_anchor(systems):
    # (0, I, '+') is the coned ideal subarrangement, and level 0 has no '-'
    # chain: the emptied '+' walk stops at {z = 0} even under a held table
    rs = systems["B3"]
    table = LatticeCache()
    table.hold(rs, 0, "+")
    for mask in enumerate_ideals(rs):
        assert shi_charpoly(rs, 0, mask, "+", table) == charpoly_mobius(shi_arrangement(rs, 0, mask, "+"))


def _flats_within(lattice, within):
    """{mask of the flat in B's own plane order: mu_B}, level by level, over the flats of L(B)."""
    bits = [i for i in range(lattice.arrangement.size) if within >> i & 1]
    levels = []
    for level, mus in zip(lattice.levels, lattice.mobius(within)):
        found = {}
        for mask, mu in zip(level, mus):
            if mu:
                whole = int.from_bytes(mask.astype("<u8").tobytes(), "little")
                found[sum(1 << j for j, i in enumerate(bits) if whole >> i & 1)] = int(mu)
        levels.append(found)
    return levels


def _flats_of(lattice):
    return [
        {int.from_bytes(mask.astype("<u8").tobytes(), "little"): int(mu) for mask, mu in zip(level, mus)}
        for level, mus in zip(lattice.levels, lattice.mobius((1 << lattice.arrangement.size) - 1))
    ]


_AMBIENT_LATTICES = {}


def _ambient_lattice(rs, k, i):
    """The lattice of the ambient cone (k, all roots, '+') restricted onto its i-th plane, built once per session."""
    key = (rs.type, k, i)
    if key not in _AMBIENT_LATTICES:
        ambient = shi_arrangement(rs, k, mask_of(rs, rs.positive_roots), "+")
        _AMBIENT_LATTICES[key] = intersection_lattice(restriction(ambient, ambient.covectors[i % ambient.size]))
    return _AMBIENT_LATTICES[key]


@given(
    name=st.sampled_from(["A2", "B2", "G2", "A3", "B3", "A4"]),
    k=st.integers(1, 2),
    plane=st.integers(0, 200),
    through=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_masked_reader_matches_the_subarrangement_lattice(systems, name, k, plane, through, rng):
    # B is a random subset of ambient^H, or one of the planes through a
    # random flat (rank-deficient); many flats then have B_X empty.  The
    # flats with mu_B != 0 are exactly those of L(B), with B's own mu
    if name == "A4" and k == 2:
        k = 1  # 41 planes in 5 coordinates: keep the draw cheap
    lattice = _ambient_lattice(systems[name], k, plane)
    restricted = lattice.arrangement
    if through:
        level = lattice.levels[rng.randrange(1, len(lattice.levels))]
        pool = int.from_bytes(rng.choice(level).astype("<u8").tobytes(), "little")
    else:
        pool = (1 << restricted.size) - 1
    members = [i for i in range(restricted.size) if pool >> i & 1]
    chosen = sorted(rng.sample(members, rng.randint(1, len(members))))
    within = sum(1 << i for i in chosen)
    sub = Arrangement(restricted.dim, tuple(restricted.covectors[i] for i in chosen))
    fresh = intersection_lattice(sub)
    assert lattice.charpoly_coeffs(within) == fresh.charpoly_coeffs()
    masked = _flats_within(lattice, within)
    assert masked[len(fresh.levels) :] == [{}] * (len(masked) - len(fresh.levels))  # past the rank of B
    assert masked[: len(fresh.levels)] == _flats_of(fresh)


@pytest.mark.parametrize("name,k,names", [("B3", 2, ["a2", "a3", "a1+a2"]), ("A3", 1, ["a1+a2"]), ("G2", 2, ["3a1+2a2"])])
def test_shi_chain_on_a_non_ideal_subset(systems, name, k, names):
    rs = systems[name]
    mask = mask_of(rs, [Root.parse(n, rs.rank) for n in names])
    table = LatticeCache()
    for sign in "+-":
        want = charpoly_mobius(shi_arrangement(rs, k, mask, sign))
        assert shi_charpoly(rs, k, mask, sign, table) == want


@pytest.mark.parametrize("name,k", [("B3", 2), ("C3", 1), ("D4", 1)])
def test_shi_chain_from_a_cold_table(systems, name, k):
    # a single case walks the whole chain to its anchor
    rs = systems[name]
    ideals = enumerate_ideals(rs)
    middle = ideals[len(ideals) // 2]
    for sign in "+-":
        want = charpoly_mobius(shi_arrangement(rs, k, middle, sign))
        assert shi_charpoly(rs, k, middle, sign) == want


def test_shi_chain_checks_every_step(systems):
    # a wrong parent polynomial that still vanishes at t = 1, as a sign
    # slip in the subtraction would give
    rs = systems["A2"]
    parent = shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots[:2]), "+")
    c0, c1, c2, c3 = charpoly_mobius(parent).coeffs
    table = LatticeCache()
    table.put_charpoly(parent, (c0, c1 - 1, c2 + 1, c3))
    with pytest.raises(AssertionError, match=r"t\^\(n-1\) coefficient -9 for 10 central planes"):
        shi_charpoly(rs, 1, mask_of(rs, rs.positive_roots), "+", table)


def test_shi_chain_refuses_before_reading_the_table(systems):
    # a table filled with the cone's chi, then read under guards that refuse the cone
    rs = systems["B3"]
    full = mask_of(rs, rs.positive_roots)
    cone = shi_arrangement(rs, 2, full, "+")
    table = LatticeCache(max_hyperplanes=40)
    table.put_charpoly(cone, charpoly_mobius(cone).coeffs)
    for read in (lambda: shi_charpoly(rs, 2, full, "+", table), lambda: charpoly_mobius(cone, table)):
        with pytest.raises(SizeBoundError, match="46 hyperplanes exceed bound 40"):
            read()


def test_chi0_examples():
    a2 = build("A2")
    shi = shi_arrangement(a2, 1, 0, "+")
    q = chi0(charpoly_mobius(shi))
    assert q.coeffs == (9, -6, 1)  # (t-3)^2
    assert q.coeffs[0] == 9
    assert chi0(charpoly_mobius(shi_arrangement(a2, 1, mask_of(a2, [a2.root_at((1, 1))]), "+"))).coeffs[0] == 13
    assert chi0(charpoly_mobius(shi_arrangement(a2, 1, mask_of(a2, [a2.positive_roots[0]]), "+"))).coeffs[0] == 12


def test_chi0_rejects_non_divisible():
    with pytest.raises(NotDivisibleError):
        chi0(CharPoly((0, 0, 1)))  # t^2, the empty arrangement


def chi0_zero_formula(rs, k, sigma_mask):
    """Closed form for chi_0 at zero of the extended arrangement, rank 2."""
    h = rs.coxeter_number
    size = bin(sigma_mask).count("1")
    simple_mask = sum(1 << rs.index[r.coeffs] for r in rs.positive_roots if r.height == 1)
    if sigma_mask == 0:
        return (k * h) ** 2
    if sigma_mask & simple_mask:
        return (k * h) ** 2 + k * h + (k * h + 1) * (size - 1)
    return (k * h) ** 2 + (k * h + 1) * size


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("k", [1, 2])
def test_chi0_zero_closed_form(systems, name, k):
    rs = systems[name]
    for mask in range(1 << rs.n_positive):
        got = chi0(charpoly_mobius(shi_arrangement(rs, k, mask, "+"))).coeffs[0]
        assert got == chi0_zero_formula(rs, k, mask), (name, k, mask)


def test_try_factor_exponents():
    assert try_factor_exponents(CharPoly.from_roots([1, 3, 3])).parts == (1, 3, 3)
    assert try_factor_exponents(CharPoly.from_roots([1, 4, 5])).parts == (1, 4, 5)
    failure = try_factor_exponents(CharPoly((1, 0, 1)))  # t^2 + 1
    assert isinstance(failure, FactorFailure)
    assert failure.residual.coeffs == (1, 0, 1)
    # negative roots stay in the residual
    mixed = try_factor_exponents(CharPoly((-2, -1, 1)))  # (t+1)(t-2)
    assert isinstance(mixed, FactorFailure)
    assert mixed.roots_found == (2,)
    assert mixed.residual.coeffs == (1, 1)


def test_terao_check_examples():
    a2 = build("A2")
    assert terao_check(charpoly_mobius(shi_arrangement(a2, 1, 0, "+")), ExponentMultiset((1, 3, 3))).passed
    cat = charpoly_mobius(shi_arrangement(a2, 1, mask_of(a2, a2.positive_roots), "+"))
    verdict = terao_check(cat, ExponentMultiset((1, 4, 5)))
    assert verdict.passed and verdict.computed == cat
    assert not terao_check(cat, ExponentMultiset((1, 3, 3))).passed
    with pytest.raises(ValueError):
        terao_check(cat, ExponentMultiset((1, 2)))
    # a chi whose degree is not the number of exponents: the wrong arrangement's
    with pytest.raises(ValueError, match="chi has degree 2"):
        terao_check(charpoly_mobius(root_arrangement(a2)), ExponentMultiset((1, 4, 5)))
    with pytest.raises(ValueError, match="chi has degree 4"):
        terao_check(charpoly_mobius(shi_arrangement(build("A3"), 1, 0, "+")), ExponentMultiset((1, 4, 5)))


def test_root_sums_track_sizes():
    # when chi splits, the roots add up to the number of hyperplanes
    for arr in corpus():
        split = try_factor_exponents(charpoly_mobius(arr))
        if not isinstance(split, FactorFailure):
            assert split.total() == arr.size
