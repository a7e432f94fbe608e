"""Arrangement construction, intersection lattices vs a subset-sweep oracle,
restriction counts, Ziegler multiplicities, and the rank-2 intersection
point geometry."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealshi
from idealshi import (
    Arrangement,
    CharPoly,
    LatticeCache,
    SizeBoundError,
    build,
    chain_parent,
    charpoly_finite_field,
    charpoly_mobius,
    charpoly_whitney,
    dual_partition,
    enumerate_ideals,
    filtration_cone,
    intersection_lattice,
    restriction,
    root_arrangement,
    root_covector,
    shi_arrangement,
    shi_charpoly,
    shi_exponents_dp,
    z_covector,
    ziegler_multiplicity,
)
from idealshi import linalg
from idealshi.arrangement import _lowest, _primitive, _restricted_basis, _through, _trace_kernel, _words, covector
from idealshi.report import Report
from idealshi.rootsys import ExponentMultiset, is_ideal, mask_of, roots_of, shi_plane_count, shift_predict

from extended_heights import ext_height, ext_height_z, shi_planes


# --- independent oracle: sweep all subsets, Mobius by definition -----------


def in_rowspace(v, rows, pivots):
    return not any(linalg.reduce_row(v, rows, pivots))


def brute_force_lattice(arr, max_size=None):
    """Map each flat's mask -> (codim, mu), via the definition only.

    A flat of codimension c is cut out by c independent hyperplanes, so
    subsets of at most ``max_size = arr.dim`` planes already give them all.
    A dependent subset gives a flat that a smaller independent subset has
    given already, so it is skipped.  A flat is named, as in the lattice
    build, by the mask of the planes containing it: those in its subset's
    span.
    """
    codim = {}
    top = len(arr.covectors) if max_size is None else max_size
    for size in range(top + 1):
        for chosen in itertools.combinations(arr.covectors, size):
            rows, pivots = linalg.echelon(chosen)
            if len(rows) == size:
                mask = sum(1 << i for i, c in enumerate(arr.covectors) if in_rowspace(c, rows, pivots))
                codim[mask] = size
    mu = {}
    for mask in sorted(codim, key=codim.get):
        # Y lies above X iff mask(Y) is a proper subset of mask(X)
        mu[mask] = -sum(mu[other] for other in mu if other & mask == other) if mask else 1
    return {mask: (codim[mask], value) for mask, value in mu.items()}


def flats(lattice, codim):
    """The (int mask, mu) pair of each flat of codim ``codim``; bit i of
    the mask is set when covectors[i] contains the flat."""
    masks, mus = lattice.levels[codim], lattice.mobius((1 << lattice.arrangement.size) - 1)[codim]
    return [(int.from_bytes(mask.astype("<u8").tobytes(), "little"), int(mu)) for mask, mu in zip(masks, mus)]


def all_flats(lattice):
    return [flat for codim in range(len(lattice.levels)) for flat in flats(lattice, codim)]


def lattice_charpoly(arr):
    return intersection_lattice(arr).charpoly_coeffs()


SMALL_CORPUS = []


def _small_corpus():
    if SMALL_CORPUS:
        return SMALL_CORPUS
    a2 = build("A2")
    b2 = build("B2")
    SMALL_CORPUS.extend(
        [
            Arrangement.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),  # boolean
            shi_arrangement(a2, 1, 0b111, "-"),  # coned Weyl A2
            shi_arrangement(a2, 1, 0, "+"),
            shi_arrangement(a2, 1, 0b001, "+"),
            shi_arrangement(a2, 1, 0b111, "+"),
            shi_arrangement(b2, 1, 0b1111, "-"),
            root_arrangement(b2),
            Arrangement.of(3, [(1, 1, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1), (2, 1, 1)]),
            Arrangement.of(4, [(1, 0, 0, 0), (0, 1, -1, 0), (1, 1, 1, 1), (0, 0, 1, -1), (1, 0, 1, 0), (0, 1, 0, 1)]),
        ]
    )
    return SMALL_CORPUS


@pytest.mark.parametrize("idx", range(9))
def test_lattice_matches_brute_force(idx):
    arr = _small_corpus()[idx]
    lattice = intersection_lattice(arr)
    oracle = brute_force_lattice(arr)
    assert dict(all_flats(lattice)) == {mask: mu for mask, (_, mu) in oracle.items()}
    assert sum(len(level) for level in lattice.levels) == len(oracle)


def test_boolean_lattice_levels():
    arr = Arrangement.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lattice = intersection_lattice(arr)
    assert [len(lv) for lv in lattice.levels] == [1, 3, 3, 1]


def test_coned_weyl_a2_lattice_structure():
    a2 = build("A2")
    arr = shi_arrangement(a2, 1, 0b111, "-")  # {z, a1, a2, a1+a2} coned
    lattice = intersection_lattice(arr)
    assert [len(lv) for lv in lattice.levels] == [1, 4, 4, 1]
    level2 = sorted(mu for _, mu in flats(lattice, 2))
    assert level2 == [1, 1, 1, 2]  # three double points and one triple line
    assert flats(lattice, 3) == [((1 << arr.size) - 1, -2)]


def assert_levels_match_brute_force(arr):
    lattice = intersection_lattice(arr)
    oracle = brute_force_lattice(arr, max_size=arr.dim)
    for codim in range(len(lattice.levels)):
        want = {mask: mu for mask, (c, mu) in oracle.items() if c == codim}
        assert dict(flats(lattice, codim)) == want
    assert sum(len(level) for level in lattice.levels) == len(oracle)
    return lattice


@given(
    name=st.sampled_from(["A2", "B2", "G2", "A3", "B3"]),
    k=st.integers(1, 2),
    size=st.integers(1, 22),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_random_shi_subarrangements_match_oracles(systems, name, k, size, rng):
    cone = shi_arrangement(systems[name], k, (1 << systems[name].n_positive) - 1, "+")
    # sampled planes keep their drawn order, which Arrangement.of never
    # produces, so the lowest-plane rule of the build runs under any order
    chosen = rng.sample(cone.covectors, min(size, cone.size))
    arr = Arrangement(cone.dim, tuple(chosen))
    lattice = assert_levels_match_brute_force(arr)
    assert lattice.charpoly_coeffs() == charpoly_whitney(arr).coeffs


def test_wide_entries_stay_exact(systems):
    # A unimodular change of coordinates keeps the matroid of a Shi cone
    # but pushes its covector entries past 2^31, so products of covectors
    # and flat bases no longer fit in int64 and must run on Python integers.
    a3 = systems["A3"]
    cone = shi_arrangement(a3, 1, mask_of(a3, a3.positive_roots[:2]), "+")
    t = 2**16 + 3
    lower = [[1, 0, 0, 0], [t, 1, 0, 0], [0, t, 1, 0], [0, 0, t, 1]]
    upper = [[1, t, 0, 0], [0, 1, t, 0], [0, 0, 1, t], [0, 0, 0, 1]]
    unimodular = [[sum(lower[i][k] * upper[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    mapped = [[sum(c[i] * unimodular[i][j] for i in range(4)) for j in range(4)] for c in cone.covectors]
    arr = Arrangement.of(4, mapped)
    assert max(abs(x) for c in arr.covectors for x in c) >= 2**31
    lattice = assert_levels_match_brute_force(arr)
    sizes = [len(level) for level in intersection_lattice(cone).levels]
    assert [len(level) for level in lattice.levels] == sizes
    assert lattice.charpoly_coeffs() == lattice_charpoly(cone)


def test_wide_wedges_stay_exact(systems):
    # Levels 1 and 2 come from wedges of plane pairs.  Here the covectors
    # still fit in int64 but their pair products pass 2^62, so the wedges
    # must run on Python integers.
    a2 = systems["A2"]
    cone = shi_arrangement(a2, 2, mask_of(a2, a2.positive_roots[:2]), "+")
    t = 2**20 + 3  # wrapped int64 wedges would split some codim-2 flats here
    lower = [[1, 0, 0], [t, 1, 0], [0, t, 1]]
    upper = [[1, t, 0], [0, 1, t], [0, 0, 1]]
    unimodular = [[sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    mapped = [[sum(c[i] * unimodular[i][j] for i in range(3)) for j in range(3)] for c in cone.covectors]
    arr = Arrangement.of(3, mapped)
    widest = max(abs(x) for c in arr.covectors for x in c)
    assert widest < 2**62 <= widest**2
    lattice = assert_levels_match_brute_force(arr)
    assert [len(level) for level in lattice.levels] == [len(level) for level in intersection_lattice(cone).levels]
    assert lattice.charpoly_coeffs() == lattice_charpoly(cone)


def _edge_case(kind, n):
    pad = (0,) * (n - 2)
    return {
        "empty": [],
        "one plane": [(1, 2) + pad],
        # four planes through the codim-2 flat {x_0 = x_1 = 0}
        "pencil": [(1, 0) + pad, (0, 1) + pad, (1, 1) + pad, (1, -1) + pad],
        # rank 3, so in 4 coordinates the top still comes straight from level 2
        "three coordinate planes": [tuple(int(i == j) for j in range(n)) for i in range(3)],
    }[kind]


@pytest.mark.parametrize(
    "kind, sizes, n",
    [
        (kind, sizes, n)
        for kind, sizes in [
            ("empty", [1]),
            ("one plane", [1, 1]),
            ("pencil", [1, 4, 1]),
            ("three coordinate planes", [1, 3, 3, 1]),
        ]
        for n in (2, 3, 4)
        if len(sizes) - 1 <= n
    ],
)
def test_degenerate_lattices_match_brute_force(kind, sizes, n):
    lattice = assert_levels_match_brute_force(Arrangement.of(n, _edge_case(kind, n)))
    assert [len(level) for level in lattice.levels] == sizes


@given(
    lines=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any), min_size=0, max_size=9),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_two_coordinate_lattices_match_brute_force(lines, rng):
    # in 2 coordinates the one codim-2 flat, the origin, is written down
    # directly: on every line, with mu = m - 1; the lines keep a drawn order
    covs = list({covector(v) for v in lines})
    rng.shuffle(covs)
    lattice = assert_levels_match_brute_force(Arrangement(2, tuple(covs)))
    assert [len(level) for level in lattice.levels] == [1, len(covs), 1][: min(len(covs), 2) + 1]


def test_rank2_restrictions_match_brute_force(systems):
    # every line arrangement a G2 k=2 campaign reads its chain steps off
    g2 = systems["G2"]
    ambient = shi_arrangement(g2, 2, mask_of(g2, g2.positive_roots), "+")
    for h in ambient.covectors:
        assert_levels_match_brute_force(restriction(ambient, h))


def assert_edges_are_the_cover_relation(lattice):
    # every level c >= 3 below the top has its edges; each flat's run of
    # parents is the set of flats of level c - 1 strictly above it
    levels, edges = lattice.levels, lattice.edges
    assert len(edges) == max(0, len(levels) - 4)
    for codim, (parents, bounds) in enumerate(edges, 3):
        above, below = levels[codim - 1], levels[codim]
        assert len(bounds) == len(below) + 1 and bounds[-1] == len(parents)
        for x, mask in enumerate(below):
            covered = ((above & mask) == above).all(axis=1) & (above != mask).any(axis=1)
            assert set(parents[bounds[x] : bounds[x + 1]].tolist()) == set(np.flatnonzero(covered).tolist())


@pytest.mark.parametrize("name", ["B3", "A4"])
def test_recorded_edges_are_the_cover_relation(systems, name):
    lattice = intersection_lattice(shi_arrangement(systems[name], 1, 0, "+"))
    assert len(lattice.levels) == systems[name].rank + 2  # the top lies at codim rank + 1 >= 4
    assert_edges_are_the_cover_relation(lattice)


def test_a_held_restriction_records_no_edges(systems):
    # in 3 coordinates the top lies at codim 3, so no level is left between
    # codim 2 and the top; mobius reads the top's covers off the coatoms
    table = LatticeCache()
    table.hold(systems["B3"], 2, "+-")
    plane = systems["B3"].positive_roots[0].coeffs + (2,)
    lattice = intersection_lattice(table.restricted[plane])
    assert lattice.arrangement.dim == len(lattice.levels) - 1 == 3  # 3 coordinates, the top at codim 3
    assert lattice.edges == ()
    assert_edges_are_the_cover_relation(lattice)
    assert lattice.charpoly_coeffs() == charpoly_finite_field(lattice.arrangement).coeffs


@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in ("A2", "B2", "G2") for k in (1, 2, 3)]
    + [(name, k) for name in ("A3", "B3", "C3") for k in (1, 2)]
    + [(name, 1) for name in ("D4", "B4", "F4")],
)
@pytest.mark.parametrize("signs", ["+-", "+", "-"])
def test_hold_restricts_the_campaigns_largest_cone(systems, monkeypatch, name, k, signs):
    # hold restricts one cone, a case of the campaign, and every cone on every
    # chain_parent walk from every case lies inside it: (k, all, '+') when the
    # campaign has a '+' case, else (k, {}, '-')
    rs, restricted = systems[name], set()
    restrict = idealshi.arrangement.restriction
    monkeypatch.setattr(
        idealshi.arrangement, "restriction", lambda cone, h0, traces: restricted.add(cone) or restrict(cone, h0, traces)
    )
    LatticeCache().hold(rs, k, signs)
    [held] = restricted
    cases = [(mask, sign) for mask in enumerate_ideals(rs) for sign in signs]
    assert held in {shi_arrangement(rs, k, mask, sign) for mask, sign in cases}
    for mask, sign in cases:
        while True:
            assert set(shi_arrangement(rs, k, mask, sign).covectors) <= set(held.covectors), (mask, sign)
            if (parent := chain_parent(rs, k, mask, sign)) is None:
                break
            mask, sign, _ = parent


def test_a_store_with_every_trace_is_kept(systems, monkeypatch):
    # on H = {a1 = -2z}, P2 = {a1 + a2 = -z} traces onto the line of
    # P1 = {a2 = z}, since P2 = P1 + H.  The store holds the restriction of
    # S, the cone (2, {a1}, '+') without P2; the cone C + P2, for C = S
    # without Q = {a2 = -z}, adds a plane S lacks but no trace, so its read
    # masks the stored lattice and builds none
    a2 = systems["A2"]
    h, p1, p2, q = (1, 0, 2), (0, 1, -1), (1, 1, 1), (0, 1, 1)
    full = shi_arrangement(a2, 2, mask_of(a2, [a2.root_at((1, 0))]), "+")
    assert {h, p1, p2, q} <= set(full.covectors)
    stored, read = full.delete(p2), full.delete(q)
    table = LatticeCache()
    table.restricted_coeffs(stored, h)
    builds = []
    build_lattice = idealshi.arrangement.intersection_lattice
    monkeypatch.setattr(idealshi.arrangement, "intersection_lattice", lambda arr: builds.append(arr) or build_lattice(arr))
    got = table.restricted_coeffs(read, h)
    monkeypatch.undo()
    assert builds == []
    assert table.restricted[h] == restriction(stored, h) != restriction(read, h)
    assert got == intersection_lattice(restriction(read, h)).charpoly_coeffs()


def test_a_store_lacking_a_trace_is_replaced_unbuilt(systems, monkeypatch):
    # on H = {a1 = -2z}, Q = {a2 = -z} has a trace no other plane of the
    # cone (2, {a1}, '+') has.  A store restricted from the cone without Q,
    # as hold leaves one, is never read; the cone's read finds Q's trace
    # missing and replaces the store, building only the new one's lattice
    a2 = systems["A2"]
    h, q = (1, 0, 2), (0, 1, 1)
    full = shi_arrangement(a2, 2, mask_of(a2, [a2.root_at((1, 0))]), "+")
    table = LatticeCache()
    table.restricted[h] = restriction(full.delete(q), h, table.traces)
    builds = []
    build_lattice = idealshi.arrangement.intersection_lattice
    monkeypatch.setattr(idealshi.arrangement, "intersection_lattice", lambda arr: builds.append(arr) or build_lattice(arr))
    got = table.restricted_coeffs(full, h)
    monkeypatch.undo()
    assert builds == [restriction(full, h)] == [table.restricted[h]] != [restriction(full.delete(q), h)]
    assert got == intersection_lattice(restriction(full, h)).charpoly_coeffs()


@given(
    rows=st.integers(2, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any), min_size=1, max_size=9)
    )
)
@settings(max_examples=100, deadline=None)
def test_random_lattices_record_the_cover_relation(rows):
    arr = Arrangement.of(len(rows[0]), rows)
    assert_edges_are_the_cover_relation(intersection_lattice(arr))


def test_parallel_lines_are_refused():
    with pytest.raises(ValueError, match="two covectors define the same hyperplane"):
        intersection_lattice(Arrangement(2, ((1, 2), (0, 1), (-2, -4))))


def test_parallel_covectors_are_refused():
    # (2, 0, 0) is the plane (1, 0, 0) unnormalized: their wedge is zero
    with pytest.raises(ValueError, match="two covectors define the same hyperplane"):
        intersection_lattice(Arrangement(3, ((1, 0, 0), (2, 0, 0), (0, 1, 0))))


def walked_arrangements(monkeypatch, rs, k):
    """Every arrangement whose lattice the shi_charpoly walks of a campaign
    build, all cases sharing one table as in ``verify --all-ideals``: the
    anchors, and the restrictions that the table stores per plane."""
    met = []
    build_lattice = idealshi.arrangement.intersection_lattice
    for module in (idealshi.arrangement, idealshi.charpoly):
        monkeypatch.setattr(module, "intersection_lattice", lambda arr: met.append(arr) or build_lattice(arr))
    table = LatticeCache()
    for mask in enumerate_ideals(rs):
        for sign in "+-" if k else "+":
            shi_charpoly(rs, k, mask, sign, table)
    monkeypatch.undo()
    return met


@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in ("A2", "B2", "G2") for k in (0, 1, 2)] + [("A3", 1), ("B3", 1), ("C3", 1)],
)
def test_campaign_lattices_match_brute_force(systems, monkeypatch, name, k):
    # the restrictions of the rank-3 walks and every lattice of the rank-2
    # ones: arrangements in at most 3 coordinates
    small = [arr for arr in walked_arrangements(monkeypatch, systems[name], k) if arr.dim <= 3]
    assert small
    for arr in small:
        assert_levels_match_brute_force(arr)


@pytest.mark.parametrize("name, k", [("A2", 11), ("G2", 5), ("B3", 2)])
def test_large_campaign_lattices_match_point_counts(systems, monkeypatch, name, k):
    # up to 67 planes in 3 coordinates: past the brute-force oracle's reach
    small = [arr for arr in walked_arrangements(monkeypatch, systems[name], k) if arr.dim <= 3]
    assert max(arr.size for arr in small) > 28
    for arr in small:
        assert lattice_charpoly(arr) == charpoly_finite_field(arr).coeffs


@pytest.mark.parametrize(
    "sign, sizes", [("+", [1, 49, 674, 2898, 2897, 1]), ("-", [1, 17, 74, 98, 41, 1])]
)
def test_b4_full_ideal_level_sizes(systems, sign, sizes):
    # golden counts from the earlier row-reduction engine
    b4 = systems["B4"]
    lattice = intersection_lattice(shi_arrangement(b4, 1, mask_of(b4, b4.positive_roots), sign))
    assert [len(level) for level in lattice.levels] == sizes


def test_masks_wider_than_one_word(systems):
    # 67 planes: masks take two 64-bit words.  In rank 3, a point X has
    # mu(X) = |A_X| - 1 and chi must split as the dual partition predicts.
    g2 = systems["G2"]
    arr = shi_arrangement(g2, 5, mask_of(g2, g2.positive_roots), "+")
    assert arr.size > 64
    lattice = intersection_lattice(arr)
    assert all(mu == -1 for _, mu in flats(lattice, 1))
    assert all(mu == bin(mask).count("1") - 1 for mask, mu in flats(lattice, 2))
    assert flats(lattice, 3)[0][0] == (1 << arr.size) - 1
    predicted = shi_exponents_dp(g2, 5, mask_of(g2, g2.positive_roots), "+")
    assert lattice.charpoly_coeffs() == CharPoly.from_roots(tuple(predicted)).coeffs


def test_mu_invariants_across_corpus():
    for arr in _small_corpus():
        lattice = intersection_lattice(arr)
        assert flats(lattice, 0)[0][1] == 1
        assert all(mu == -1 for _, mu in flats(lattice, 1))
        assert sum(abs(mu) for _, mu in flats(lattice, 1)) == arr.size
        assert sum(mu for _, mu in all_flats(lattice)) == 0


# --- shi construction sizes and identities ---------------------------------


def test_shi_sizes(systems):
    for name in ("A2", "B2", "G2", "A3", "B3"):
        rs = systems[name]
        n = rs.n_positive
        for k in (1, 2):
            assert shi_arrangement(rs, k, 0, "+").size == 2 * k * n + 1
            assert shi_arrangement(rs, k, (1 << n) - 1, "+").size == 2 * k * n + 1 + n
            assert shi_arrangement(rs, k, (1 << n) - 1, "-").size == 2 * k * n + 1 - n


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2"])
def test_plane_count_matches_the_cone(systems, name):
    rs = systems[name]
    n = rs.n_positive
    # beyond rank 1, non-ideals: the highest root alone, all roots but the first, every other root
    others = [1 << (n - 1), (1 << n) - 2, int("01" * n, 2) & ((1 << n) - 1)]
    masks = list(enumerate_ideals(rs)) + others
    assert rs.rank == 1 or not any(is_ideal(rs, m) for m in others)
    for mask in masks:
        for k, sign in ((0, "+"), (1, "+"), (1, "-"), (2, "+"), (2, "-"), (5, "+"), (5, "-")):
            count = shi_plane_count(rs, k, mask, sign)
            assert count == len(shi_planes(rs, k, mask, sign)) + 1 == shi_arrangement(rs, k, mask, sign).size


def test_shi_minus_full_is_coned_weyl(systems):
    a2 = systems["A2"]
    arr = shi_arrangement(a2, 1, 0b111, "-")
    want = {z_covector(a2)} | {r.coeffs + (0,) for r in a2.positive_roots}
    assert set(arr.covectors) == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cones_with_two_names(systems, k):
    # the empty ideal adds and removes nothing, and removing level k from
    # the full ideal leaves the level k - 1 cone with every level -(k - 1)
    # plane added: filtration finds its step (q + 1, all roots, '-') in the
    # chi table as the (q, all roots, '+') it has just computed
    for rs in systems.values():
        full = (1 << rs.n_positive) - 1
        for (k1, mask1, sign1), (k2, mask2, sign2) in [
            ((k, 0, "+"), (k, 0, "-")),
            ((k, full, "-"), (k - 1, full, "+")),
        ]:
            assert shi_arrangement(rs, k1, mask1, sign1) == shi_arrangement(rs, k2, mask2, sign2)
            assert shi_exponents_dp(rs, k1, mask1, sign1) == shi_exponents_dp(rs, k2, mask2, sign2)


def test_shi_rejects_bad_input(systems):
    a2 = systems["A2"]
    for k, sign in ((-1, "+"), (-1, "-"), (0, "-")):
        with pytest.raises(ValueError):
            shi_arrangement(a2, k, 0, sign)
    b2 = systems["B2"]
    with pytest.raises(ValueError):
        mask_of(a2, [b2.positive_roots[3]])  # a root of another system has no bit of a mask
    # k = 0 with '+' is the coned ideal subarrangement
    ideal = a2.positive_roots[:2]
    want = {z_covector(a2)} | {r.coeffs + (0,) for r in ideal}
    assert set(shi_arrangement(a2, 0, mask_of(a2, ideal), "+").covectors) == want


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_covectors_are_already_primitive(name):
    # root_covector returns a root's coefficients without normalizing them
    rs = build(name)
    for r in rs.positive_roots:
        assert linalg.normalize_primitive(r.coeffs) == r.coeffs
        assert root_covector(rs, r) == covector(r.coeffs)
        for j in range(-2, 3):
            assert r.coeffs + (-j,) == covector(r.coeffs + (-j,))


# --- filtration -------------------------------------------------------------


def chain_planes(rs, i):
    """Reference chain rule: the (root, level) pairs of the first i-1
    planes.  Within each full round of 2n planes the chain first lays down
    level -q along the canonical root order, then level q+1 in reverse."""
    order = rs.positive_roots
    n = len(order)
    out = []
    for p in range(1, i):
        q, r = divmod(p - 1, 2 * n)
        r += 1
        if r <= n:
            out.append((order[r - 1], -q))
        else:
            out.append((order[2 * n - r], q + 1))
    return out


def test_filtration_steps_follow_the_chain_rule(systems):
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        rs = systems[name]
        for i in range(1, 4 * rs.n_positive + 2):
            planes = chain_planes(rs, i)
            covs = [z_covector(rs)] + [root.coeffs + (-j,) for root, j in planes]
            assert shi_arrangement(rs, *filtration_cone(rs, i)) == Arrangement.of(rs.rank + 1, covs)
            values = [ext_height_z()] + [ext_height(rs, root, j) for root, j in planes]
            assert shi_exponents_dp(rs, *filtration_cone(rs, i)) == dual_partition(values, rs.rank + 1)


def test_filtration_is_the_chains_read_upward(systems):
    # step i adds to step i - 1 the plane that chain_parent names, and its
    # parent is step i - 1: across (k, {}, '+') = (k, {}, '-') and
    # (k, all roots, '-') = (k - 1, all roots, '+')
    for rs in systems.values():
        for i in range(2, 4 * rs.n_positive + 2):
            k, mask, sign = filtration_cone(rs, i)
            parent_mask, parent_sign, plane = chain_parent(rs, k, mask, sign)
            previous = shi_arrangement(rs, *filtration_cone(rs, i - 1))
            assert shi_arrangement(rs, k, mask, sign).delete(plane) == previous, (rs.type, i)
            assert shi_arrangement(rs, k, parent_mask, parent_sign) == previous, (rs.type, i)


def test_chain_parent_stops_only_at_the_anchors(systems):
    for rs in systems.values():
        full = (1 << rs.n_positive) - 1
        for mask in enumerate_ideals(rs):
            for k, sign in ((0, "+"), (1, "+"), (1, "-"), (2, "+"), (2, "-")):
                anchor = (mask, sign) == ((full, "-") if k else (0, "+"))
                assert (chain_parent(rs, k, mask, sign) is None) == anchor, (rs.type, k, mask, sign)


def test_filtration_first_steps_a2(systems):
    a2 = systems["A2"]
    assert shi_arrangement(a2, *filtration_cone(a2, 1)).covectors == (z_covector(a2),)
    step4 = shi_arrangement(a2, *filtration_cone(a2, 4))
    want = {z_covector(a2)} | {r.coeffs + (0,) for r in a2.positive_roots}
    assert set(step4.covectors) == want
    assert set(shi_arrangement(a2, *filtration_cone(a2, 7)).covectors) == set(shi_arrangement(a2, 1, 0, "+").covectors)


def test_filtration_saturated_and_nested(systems):
    for name in ("A2", "B2"):
        rs = systems[name]
        prev = None
        for i in range(1, 30):
            arr = shi_arrangement(rs, *filtration_cone(rs, i))
            assert arr.size == i
            if prev is not None:
                assert set(prev.covectors) <= set(arr.covectors)
            prev = arr


def test_filtration_exponent_edge_cases(systems):
    a2 = systems["A2"]
    assert shi_exponents_dp(a2, *filtration_cone(a2, 1)).parts == (0, 0, 1)
    assert shi_exponents_dp(a2, *filtration_cone(a2, 7)).parts == (1, 3, 3)


def test_filtration_rounds_hit_shi_arrangements(systems):
    for name in ("A2", "B2"):
        rs = systems[name]
        n = rs.n_positive
        for k in (1, 2):
            arr = shi_arrangement(rs, *filtration_cone(rs, 2 * n * k + 1))
            assert set(arr.covectors) == set(shi_arrangement(rs, k, 0, "+").covectors)


def test_a_corrupted_lattice_fails_its_check():
    # drop a coatom X on plane 0 with its run of cover edges; the top's
    # covers are then every coatom left.  For any B that holds plane 0 and
    # every plane through X, plane 0 is the top's a, so the top's Weisner
    # sum skips X; mu_B(X) =
    # mu(X) != 0 then goes missing from the total, which no longer sums to 0,
    # on the full and the masked read
    arr = shi_arrangement(build("B3"), 1, 0, "+")
    lattice = intersection_lattice(arr)
    full = (1 << arr.size) - 1
    coatoms, (parents, bounds) = lattice.levels[-2], lattice.edges[-1]
    assert len(lattice.levels) == 4 + len(lattice.edges)  # edges[-1] run into the coatoms
    x = int(np.flatnonzero(coatoms[:, 0] & np.uint64(1))[0])
    assert lattice.mobius(full)[-2][x] != 0
    runs = np.delete(np.diff(bounds), x)
    edges = np.delete(parents, np.arange(bounds[x], bounds[x + 1])), np.append(0, np.cumsum(runs))
    broken = dataclasses.replace(
        lattice,
        levels=(*lattice.levels[:-2], np.delete(coatoms, x, axis=0), lattice.levels[-1]),
        edges=(*lattice.edges[:-1], edges),
    )
    through = int.from_bytes(coatoms[x].astype("<u8").tobytes(), "little")
    off = max(i for i in range(arr.size) if not through >> i & 1)
    for within in (None, full & ~(1 << off)):
        with pytest.raises(AssertionError, match="must sum to 0"):
            broken.charpoly_coeffs(within)


def generic_mobius(lattice, within):
    """The Weisner pass with the top read like every level from codim 3 on:
    a_top the lowest plane of B_top, and the covers a run of every coatom."""
    masks = lattice.levels
    bits = _words(within, masks[0].shape[1])
    mus = [np.ones(1, dtype=np.int64)]
    if len(masks) > 1:
        mus.append(-(masks[1] & bits).any(axis=1).astype(np.int64))
    if len(masks) > 2:
        size = np.bitwise_count(masks[2] & bits).sum(axis=1, dtype=np.int64)
        mus.append(np.where(size > 1, size - 1, 0))
    top = [(np.arange(len(masks[-2])), np.array([0, len(masks[-2])]))] if len(masks) > 3 else []
    for codim, (parents, bounds) in enumerate([*lattice.edges, *top], 3):
        a = np.repeat(_lowest(masks[codim] & bits), np.diff(bounds))
        off = (a >= 0) & ~_through(masks[codim - 1], parents, a)
        mus.append(-np.add.reduceat(np.where(off, mus[-1][parents], 0), bounds[:-1]))
    return mus


@pytest.mark.parametrize(
    "name, k, ambient, restricted",
    [("B3", 1, False, False), ("B3", 2, True, True), ("F4", 1, True, True), ("G2", 5, True, False)],
    ids=["B3 k=1 cone", "B3 k=2 restriction", "F4 k=1 restriction", "G2 k=5 cone"],
)
def test_the_top_step_matches_the_generic_pass(systems, name, k, ambient, restricted):
    # the top lies on every plane, so mobius reads its a off the lowest bit
    # of within and sums over every coatom; the generic pass reads the same
    # top as a run of edges from every coatom.  Masks: empty, each single
    # plane, every lowest bit (past 64 on G2's two words) under all planes
    # above it and under random ones, sparse random subsets, and the
    # rank-deficient planes through one flat
    rs = systems[name]
    arr = shi_arrangement(rs, k, (1 << rs.n_positive) - 1 if ambient else 0, "+")
    if restricted:
        arr = restriction(arr, rs.positive_roots[0].coeffs + (k,))
    lattice, m, rng = intersection_lattice(arr), arr.size, random.Random(f"{name} {k}")
    assert len(lattice.levels) == arr.dim + 1  # the top at codim dim: F4's restriction has codim 3 under it
    masks = [0, (1 << m) - 1] + [1 << i for i in range(m)]
    masks += [(1 << m) - (1 << p) for p in range(m)] + [(rng.getrandbits(m - p) | 1) << p for p in range(m)]
    masks += [sum(1 << i for i in rng.sample(range(m), rng.randint(2, min(m, 22)))) for _ in range(25)]
    masks += [mask for codim in range(2, len(lattice.levels) - 1) for mask, _ in flats(lattice, codim)[:8]]
    if m > 64:
        assert any(mask and (mask & -mask).bit_length() > 64 for mask in masks)
    for within in masks:
        got, want = lattice.mobius(within), generic_mobius(lattice, within)
        assert [mu.tolist() for mu in got] == [mu.tolist() for mu in want], within
        if bin(within).count("1") <= 22:
            sub = Arrangement(arr.dim, tuple(c for i, c in enumerate(arr.covectors) if within >> i & 1))
            assert lattice.charpoly_coeffs(within) == charpoly_whitney(sub).coeffs, within


def test_a_within_outside_the_planes_is_refused():
    # a stray bit past the planes, or a negative mask, would become the top's a
    lattice = intersection_lattice(shi_arrangement(build("B3"), 1, 0, "+"))
    assert lattice.arrangement.size == 19
    for within in (1 << 19, (1 << 19) | 1, -1):
        with pytest.raises(ValueError, match="not a subset of the 19 planes"):
            lattice.charpoly_coeffs(within)


# --- localization: the hyperplanes in a flat's mask -------------------------


def test_localization_examples(systems):
    arr = shi_arrangement(systems["A2"], 1, 0, "+")
    lattice = intersection_lattice(arr)
    assert flats(lattice, 0)[0][0] == 0  # no hyperplane contains the whole space
    assert sorted(mask for mask, _ in flats(lattice, 1)) == [1 << i for i in range(arr.size)]


def test_localization_through_z_is_a_sub_shi(systems):
    a2 = systems["A2"]
    arr = shi_arrangement(a2, 1, 0, "+")
    localizations = [
        {c for i, c in enumerate(arr.covectors) if mask >> i & 1}
        for mask, _ in flats(intersection_lattice(arr), 2)
    ]
    # the planes through {z = a1 = 0}: H_z and both levels of a1
    assert {z_covector(a2), (1, 0, 0), covector((1, 0, -1))} in localizations


# --- matroid invariance under unimodular maps -------------------------------


def random_unimodular(n, rng):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for col in range(n):
            m[i][col] += c * m[j][col]
    return m


def test_charpoly_invariant_under_unimodular_change():
    rng = random.Random(7)
    for arr in _small_corpus()[:6]:
        u = random_unimodular(arr.dim, rng)
        mapped = Arrangement.of(
            arr.dim,
            [tuple(sum(c[i] * u[i][j] for i in range(arr.dim)) for j in range(arr.dim)) for c in arr.covectors],
        )
        assert lattice_charpoly(arr) == lattice_charpoly(mapped)
        ours = [len(lv) for lv in intersection_lattice(arr).levels]
        theirs = [len(lv) for lv in intersection_lattice(mapped).levels]
        assert ours == theirs


# --- restriction and counts --------------------------------------------------


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(any))
@settings(max_examples=300, deadline=None)
def test_restricted_basis_spans_the_kernel(v):
    basis = _restricted_basis(np.array([v]), np.eye(len(v), dtype=np.int64)[None])[0].tolist()
    assert len(basis) == len(v) - 1
    for row in basis:
        assert sum(x * y for x, y in zip(row, v)) == 0
    assert linalg.rank(basis) == len(v) - 1


def integer_rows(width):
    """Rows with entries in -9..9: plain, scaled by a common factor, or zero."""
    plain = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    scaled = st.tuples(st.lists(st.integers(-3, 3), min_size=width, max_size=width), st.integers(2, 3))
    zero = st.just([0] * width)
    return st.one_of(plain, scaled.map(lambda rc: [rc[1] * x for x in rc[0]]), zero)


@given(st.integers(1, 5).flatmap(lambda w: st.lists(integer_rows(w), min_size=1, max_size=8)))
@settings(max_examples=300, deadline=None)
def test_batch_primitive_matches_covector_rule(rows):
    # restriction relies on the two normalizers agreeing row by row
    for dtype in (np.int64, object):
        out = _primitive(np.array(rows, dtype=dtype)).tolist()
        for row, got in zip(rows, out):
            assert tuple(got) == (linalg.normalize_primitive(row) or tuple(row))


@pytest.mark.parametrize("shape", [(6, 1), (9, 4), (3, 5, 1), (4, 6, 3)])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_primitive_matches_normalize_primitive_row_by_row(shape, dtype):
    # random rows scaled by a common factor, a zero row and a row with one
    # nonzero entry in each batch; object rows are pushed past int64
    rng = np.random.default_rng(sum(shape))
    rows = rng.integers(-6, 7, size=shape) * rng.integers(1, 4, size=shape[:-1])[..., None]
    rows[..., 0, :] = 0
    rows[..., 1, :] = 0
    rows[..., 1, -1] = -rng.integers(1, 9)
    rows = rows.astype(dtype) * (1 << 70 if dtype is object else 1)
    out = _primitive(rows)
    assert out.shape == rows.shape and out.dtype == rows.dtype
    for row, got in zip(rows.reshape(-1, shape[-1]).tolist(), out.reshape(-1, shape[-1]).tolist()):
        assert tuple(got) == (linalg.normalize_primitive(row) or tuple(row))


def walked_restrictions(monkeypatch, rs, k):
    """Every (cone, restriction plane) pair of a campaign, in campaign
    order: each case's cone onto {z = 0}, then each restriction that the
    steps of its chi walk store, all cases sharing one table."""
    met = []
    restrict = idealshi.arrangement.restriction
    monkeypatch.setattr(
        idealshi.arrangement, "restriction", lambda arr, h, table: met.append((arr, h)) or restrict(arr, h, table)
    )
    table = LatticeCache()
    for mask in enumerate_ideals(rs):
        for sign in "+-":
            cone = shi_arrangement(rs, k, mask, sign)
            met.append((cone, z_covector(rs)))
            shi_charpoly(rs, k, mask, sign, table, cone=cone)
    monkeypatch.undo()
    return met


@pytest.mark.parametrize("name, k", [(name, k) for name in ("A3", "B3", "C3") for k in (1, 2)] + [("G2", 5)])
def test_shared_trace_table_matches_fresh_traces(systems, monkeypatch, name, k):
    walked = walked_restrictions(monkeypatch, systems[name], k)
    table = {}
    for cone, h in walked:
        assert restriction(cone, h, table) == restriction(cone, h)
        assert ziegler_multiplicity(cone, h, table) == ziegler_multiplicity(cone, h)
    # the campaign restricts onto far fewer planes than it has steps
    assert len(table) < len(walked)


@pytest.mark.parametrize("name, k", [("F4", 1), ("G2", 5), ("B3", 2)])
def test_batched_traces_match_one_plane_at_a_time(systems, name, k):
    # one kernel call over every restriction plane of the ambient cone, as a
    # campaign's table is filled, against one call per plane
    rs = systems[name]
    ambient = shi_arrangement(rs, k, mask_of(rs, rs.positive_roots), "+")
    planes = [r.coeffs + (-j,) for r in rs.positive_roots for j in (-k, k)] + [z_covector(rs)]
    batched = _trace_kernel(planes, ambient.covectors)
    assert len(batched) == len(planes)
    for h0, traced in zip(planes, batched):
        others = [c for c in ambient.covectors if c != h0]
        [alone] = _trace_kernel([h0], others)
        assert [t for c, t in zip(ambient.covectors, traced) if c != h0] == alone
        assert traced[ambient.covectors.index(h0)] == (0,) * rs.rank  # a plane traces to zero on itself
        assert Arrangement(rs.rank, tuple(sorted(set(alone)))) == restriction(ambient, h0)


def test_a_zero_trace_is_refused():
    # (2, 0, 0) is the plane (1, 0, 0) unnormalized, so its trace on it is 0
    arr = Arrangement(3, ((1, 0, 0), (2, 0, 0), (0, 1, 0)))
    for restrict in (restriction, ziegler_multiplicity):
        with pytest.raises(ValueError, match="zero vector does not define a hyperplane"):
            restrict(arr, (1, 0, 0))


def test_restriction_onto_a_coordinate_plane_keeps_coordinates():
    eye = np.eye(3, dtype=np.int64)[None]
    assert _restricted_basis(np.array([[0, 0, 1]]), eye)[0].tolist() == [[1, 0, 0], [0, 1, 0]]
    arr = Arrangement.of(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1), (0, 0, 1)])
    assert restriction(arr, (0, 0, 1)).covectors == ((0, 1), (1, 0), (1, 2))


def test_restriction_count_examples(systems):
    a2 = systems["A2"]
    shi = shi_arrangement(a2, 1, 0, "+")
    a1, a2r, a12 = a2.positive_roots
    assert restriction(shi, a1.coeffs + (1,)).size == 4
    assert restriction(shi, a12.coeffs + (1,)).size == 5
    arr = shi_arrangement(a2, 1, mask_of(a2, [a1]), "+")
    assert restriction(arr, a2r.coeffs + (1,)).size == 5
    assert restriction(Arrangement.of(1, [(1,)]), (1,)) == Arrangement(0, ())  # a line to its point


def count_table(systems):
    """All rank-2 cases of the boundary-plane count table."""
    cases = []
    for rs in (systems["A2"], systems["B2"], systems["G2"]):
        h = rs.coxeter_number
        simple = {r for r in rs.positive_roots if r.height == 1}
        for k in (1, 2, 3):
            for bits in range(1 << rs.n_positive):
                sigma_set = set(roots_of(rs, bits))
                for alpha in rs.positive_roots:
                    if alpha in sigma_set:
                        continue
                    boundary_case = alpha in simple and not (sigma_set & simple)
                    plus = shi_arrangement(rs, k, bits, "+")
                    got_plus = restriction(plus, alpha.coeffs + (k,)).size
                    want_plus = k * h + 1 if boundary_case else k * h + 2
                    minus = shi_arrangement(rs, k, bits, "-")
                    got_minus = restriction(minus, alpha.coeffs + (-k,)).size
                    want_minus = k * h + 1 if boundary_case else k * h
                    cases.append((got_plus == want_plus) and (got_minus == want_minus))
    return cases


def test_count_table_complete(systems):
    results = count_table(systems)
    assert results and all(results)


# --- Ziegler multiplicities ---------------------------------------------------


def test_ziegler_examples(systems):
    a2 = systems["A2"]
    arr = shi_arrangement(a2, 1, 0b001, "+")
    restricted, mult = ziegler_multiplicity(arr, z_covector(a2))
    assert restricted.covectors == root_arrangement(a2).covectors
    assert sorted(mult.values()) == [2, 2, 3]
    arr2 = shi_arrangement(a2, 1, 0b111, "-")
    assert sorted(ziegler_multiplicity(arr2, z_covector(a2))[1].values()) == [1, 1, 1]
    boolean = Arrangement.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    restricted, mult = ziegler_multiplicity(boolean, (0, 0, 1))
    assert restricted.size == 2 and set(mult.values()) == {1}


def test_ziegler_requires_membership(systems):
    a2 = systems["A2"]
    arr = shi_arrangement(a2, 1, 0, "+")
    with pytest.raises(ValueError):
        ziegler_multiplicity(arr, a2.positive_roots[0].coeffs + (1,))


def test_malformed_library_calls_are_refused(systems):
    a2 = systems["A2"]
    arr = shi_arrangement(a2, 1, 0, "+")
    calls = {
        "filtration steps are indexed from 1": lambda: filtration_cone(a2, 0),
        "unknown format 'xml'": lambda: Report(command="verify", tool_version="0", cases=[]).render("xml"),
        r"sign must be '\+' or '-', got 'x'": lambda: shift_predict(ExponentMultiset((1, 2)), 1, 3, "x"),
        "covector length 2 != ambient dimension 3": lambda: Arrangement.of(3, [(1, 0, 0), (1, 0)]),
        "hyperplane not in arrangement": lambda: arr.delete(a2.positive_roots[0].coeffs + (2,)),
    }
    for match, call in calls.items():
        with pytest.raises(ValueError, match=match):
            call()


def test_ziegler_matches_2k_plus_indicator(systems):
    for name in ("A2", "B2", "G2", "A3", "B3"):
        rs = systems[name]
        base = root_arrangement(rs)
        rng = random.Random(11)
        masks = [0, (1 << rs.n_positive) - 1] + [
            rng.randrange(1 << rs.n_positive) for _ in range(6)
        ]
        for k in (1, 2):
            for mask in masks:
                for sign in "+-":
                    arr = shi_arrangement(rs, k, mask, sign)
                    restricted, mult = ziegler_multiplicity(arr, z_covector(rs))
                    assert restricted.covectors == base.covectors
                    delta = 1 if sign == "+" else -1
                    want = {
                        root_covector(rs, r): 2 * k + (delta if mask >> i & 1 else 0)
                        for i, r in enumerate(rs.positive_roots)
                    }
                    assert mult == want


# --- size guards --------------------------------------------------------------


def test_lattice_bounds():
    # the chi table is the one size guard: it refuses the cone before its lattice is built
    a2 = build("A2")
    arr = shi_arrangement(a2, 1, 0, "+")
    with pytest.raises(SizeBoundError, match="7 hyperplanes exceed bound 3"):
        charpoly_mobius(arr, LatticeCache(max_hyperplanes=3))
    with pytest.raises(SizeBoundError, match="ambient dimension 3 exceeds bound 2"):
        charpoly_mobius(arr, LatticeCache(max_dim=2))


# --- rank-2 boundary intersection points -------------------------------------


def point_containment_cases(rs, k):
    """For each pair of distinct roots, which planes of level |s| <= k pass
    through the common point of their level k (and -k) planes."""
    results = []
    simple = {r for r in rs.positive_roots if r.height == 1}
    for alpha, beta in itertools.combinations(rs.positive_roots, 2):
        for level in (k, -k):
            point, pivots = linalg.echelon(
                [alpha.coeffs + (-level,), beta.coeffs + (-level,)]
            )
            through = {
                (gamma, s)
                for gamma in rs.positive_roots
                for s in range(-k, k + 1)
                if in_rowspace(gamma.coeffs + (-s,), point, pivots)
            }
            results.append((alpha, beta, level, through))
    return results, simple


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_boundary_points(systems, name, k):
    rs = systems[name]
    cases, simple = point_containment_cases(rs, k)
    for alpha, beta, level, through in cases:
        if {alpha, beta} == simple:
            assert through == {(alpha, level), (beta, level)}
        else:
            assert any(s == 0 for _, s in through)
