"""Root system construction, heights, dual partitions, extended heights."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealshi import (
    DualPartitionError,
    Root,
    build,
    chain_parent,
    dual_partition,
    enumerate_ideals,
    mask_of,
    shi_arrangement,
    shi_charpoly,
    shi_exponents_dp,
    weyl_exponents,
)
from idealshi.rootsys import is_ideal, roots_of, shi_levels, shi_plane_count

from extended_heights import ext_height, ext_height_z, shi_defining_values

# hand-checked root lists for the small systems
A2_ROOTS = {(1, 0), (0, 1), (1, 1)}
B2_ROOTS = {(1, 0), (0, 1), (1, 1), (1, 2)}
G2_ROOTS = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_small_closures_match_known_lists(systems):
    assert {r.coeffs for r in systems["A2"].positive_roots} == A2_ROOTS
    assert {r.coeffs for r in systems["B2"].positive_roots} == B2_ROOTS
    assert {r.coeffs for r in systems["G2"].positive_roots} == G2_ROOTS


def test_height_multisets():
    assert sorted(r.height for r in build("B2").positive_roots) == [1, 1, 2, 3]
    assert sorted(r.height for r in build("G2").positive_roots) == [1, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "name,count",
    [("A2", 3), ("A3", 6), ("A4", 10), ("B3", 9), ("C3", 9), ("D4", 12), ("F4", 24), ("G2", 6)],
)
def test_positive_root_counts(systems, name, count):
    # counts follow the classical closed forms per family
    assert systems[name].n_positive == count


def test_b_and_c_have_different_posets(systems):
    # same height multiset but different coefficient vectors
    b3 = {r.coeffs for r in systems["B3"].positive_roots}
    c3 = {r.coeffs for r in systems["C3"].positive_roots}
    assert b3 != c3
    assert sorted(r.height for r in systems["B3"].positive_roots) == sorted(
        r.height for r in systems["C3"].positive_roots
    )


@pytest.mark.parametrize("name,h", [("A2", 3), ("G2", 6), ("B3", 6), ("A3", 4), ("F4", 12)])
def test_coxeter_number(systems, name, h):
    rs = systems[name]
    assert rs.coxeter_number == h
    assert 2 * rs.n_positive == rs.rank * h


def test_invalid_types_rejected():
    for bad in ["Z9", "E5", "F3", "G3", "B1", "D2", "A0"]:
        with pytest.raises(ValueError):
            build(bad)
    with pytest.raises(ValueError):
        build("E9")


def test_canonical_order_heights_then_reverse_lex(systems):
    a2 = systems["A2"]
    assert [r.coeffs for r in a2.positive_roots] == [(1, 0), (0, 1), (1, 1)]
    for rs in systems.values():
        heights = [r.height for r in rs.positive_roots]
        assert heights == sorted(heights)


def test_root_name_roundtrip(systems):
    for rs in systems.values():
        for r in rs.positive_roots:
            assert Root.parse(r.name, rs.rank) == r


# --- dual partition -------------------------------------------------------


def test_dual_partition_hand_examples():
    assert dual_partition([1, 1, 2], 2).parts == (1, 2)
    assert dual_partition([], 2).parts == (0, 0)
    assert dual_partition([1, 1, 2, 3, 4, 5], 2).parts == (1, 5)


def test_dual_partition_rejects_bad_profiles():
    with pytest.raises(DualPartitionError):
        dual_partition([1, 2, 2], 2)  # f_2 > f_1
    with pytest.raises(DualPartitionError):
        dual_partition([1, 1, 1], 2)  # f_1 > d
    with pytest.raises(DualPartitionError):
        dual_partition([0, 1], 2)  # values must be positive


@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.integers(1, d), min_size=0, max_size=8),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_dual_partition_shape(args):
    d, profile = args
    profile = sorted(profile, reverse=True)
    values = [i + 1 for i, f in enumerate(profile) for _ in range(f)]
    out = dual_partition(values, d)
    assert len(out) == d
    assert out.total() == len(values)


# --- Weyl exponents -------------------------------------------------------

WEYL_EXPONENTS = {
    "A2": (1, 2),
    "B2": (1, 3),
    "G2": (1, 5),
    "A3": (1, 2, 3),
    "B3": (1, 3, 5),
    "B4": (1, 3, 5, 7),
    "F4": (1, 5, 7, 11),
    "A4": (1, 2, 3, 4),
    "D4": (1, 3, 3, 5),
    "C3": (1, 3, 5),
}


@pytest.mark.parametrize("name,parts", sorted(WEYL_EXPONENTS.items()))
def test_weyl_exponents(systems, name, parts):
    rs = systems[name]
    exps = weyl_exponents(rs)
    assert exps.parts == parts
    assert exps.total() == rs.n_positive
    assert max(exps) == rs.coxeter_number - 1


# --- extended height ------------------------------------------------------


def test_ext_height_examples(systems):
    g2 = systems["G2"]
    assert ext_height(g2, g2.highest_root, 1) == 2  # -5 + 6 + 1
    a2 = systems["A2"]
    for r in a2.positive_roots:
        assert ext_height(a2, r, 0) == r.height
    alpha = a2.positive_roots[0]
    for k in range(1, 4):
        assert ext_height(a2, alpha, -k) == 1 + k * a2.coxeter_number
    assert ext_height_z() == 1


def test_ext_height_ranges_all_small_systems(systems):
    for rs in systems.values():
        h = rs.coxeter_number
        for k in (1, 2, 3):
            for root in rs.positive_roots:
                for j in range(1 - k, k + 1):
                    assert 1 <= ext_height(rs, root, j) <= k * h
                assert k * h + 1 <= ext_height(rs, root, -k) <= (k + 1) * h - 1


def test_mirror_identity_of_height_counts(systems):
    for rs in systems.values():
        g, h, ell = rs.height_counts, rs.coxeter_number, rs.rank
        for i in range(1, h + 1):
            assert g[i - 1] + g[h - i] == ell


# --- Shi exponent prediction ----------------------------------------------


def test_shi_exponents_hand_examples(systems):
    a2 = systems["A2"]
    assert shi_exponents_dp(a2, 1, 0, "+").parts == (1, 3, 3)
    assert shi_exponents_dp(a2, 1, 0b111, "+").parts == (1, 4, 5)
    assert shi_exponents_dp(a2, 1, 0b111, "-").parts == (1, 1, 2)


def test_shi_exponent_sums_match_arrangement_sizes(systems):
    for name in ("A2", "B2", "G2", "A3", "B3"):
        rs = systems[name]
        n = rs.n_positive
        for k in (1, 2):
            full = (1 << n) - 1
            assert shi_exponents_dp(rs, k, 0, "+").total() == 2 * k * n + 1
            assert shi_exponents_dp(rs, k, full, "+").total() == 2 * k * n + 1 + n
            assert shi_exponents_dp(rs, k, full, "-").total() == 2 * k * n + 1 - n
            assert len(shi_defining_values(rs, k, full, "+")) == 2 * k * n + 1 + n


def test_shi_exponents_reject_non_ideals(systems):
    a2 = systems["A2"]
    highest = a2.root_at((1, 1))
    with pytest.raises(ValueError):
        shi_exponents_dp(a2, 1, mask_of(a2, [highest]), "+")


@pytest.mark.parametrize(
    "k, sign, match",
    [(-1, "+", "k must be"), (-2, "-", "k must be"), (0, "-", "k must be"), (1, "*", "sign must be")],
    ids=["k<0", "k<0 sign -", "k=0 sign -", "bad sign"],
)
def test_shi_exponents_refuse_undefined_cones(systems, k, sign, match):
    a2 = systems["A2"]
    with pytest.raises(ValueError, match=match):
        shi_exponents_dp(a2, k, mask_of(a2, [a2.positive_roots[0]]), sign)
    with pytest.raises(ValueError, match=match):
        shi_exponents_dp(a2, k, 0, sign)  # the empty ideal too, whose e(I) is all zeros


@pytest.mark.parametrize("mask", [0b1000, -1], ids=["past the roots", "negative"])
def test_masks_outside_the_root_system_are_refused(systems, mask):
    # A2 has 3 positive roots: 0b1000 names a fourth one, and -1 every bit;
    # each subset function refuses them rather than read only the low bits
    a2 = systems["A2"]
    calls = {
        "is_ideal": lambda: is_ideal(a2, mask),
        "roots_of": lambda: roots_of(a2, mask),
        "shi_levels": lambda: shi_levels(a2, 1, mask, "+"),
        "shi_plane_count": lambda: shi_plane_count(a2, 1, mask, "-"),
        "shi_arrangement": lambda: shi_arrangement(a2, 1, mask, "+"),
        "shi_exponents_dp": lambda: shi_exponents_dp(a2, 1, mask, "+"),
        "chain_parent +": lambda: chain_parent(a2, 1, mask, "+"),
        "chain_parent -": lambda: chain_parent(a2, 1, mask, "-"),
        "shi_charpoly": lambda: shi_charpoly(a2, 1, mask, "+"),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"mask {mask} is not a subset of the 3 positive roots of A2"):
            call()
            pytest.fail(f"{name} accepted mask {mask}")


@pytest.mark.parametrize(
    "k, mask, sign, match",
    [(0, 0, "-", "k must be"), (1, 0, "x", "sign must be"), (-1, 1, "+", "k must be")],
    ids=["k=0 sign -", "bad sign", "k<0"],
)
def test_chain_parent_refuses_what_the_cone_refuses(systems, k, mask, sign, match):
    # chain_parent names a plane only of a cone that shi_arrangement builds
    a2 = systems["A2"]
    with pytest.raises(ValueError, match=match):
        shi_arrangement(a2, k, mask, sign)
    with pytest.raises(ValueError, match=match):
        chain_parent(a2, k, mask, sign)


ORACLE_CORPUS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2")


def test_shift_law_matches_the_extended_height_oracle(systems):
    # (1, kh +/- e_i(I)) against the dual partition of the extended heights,
    # on every ideal at k = 0, 1, 2, 7, both signs (only '+' at k = 0)
    cases = 0
    for name in ORACLE_CORPUS:
        rs = systems[name]
        for mask in enumerate_ideals(rs):
            for k, sign in [(0, "+")] + [(k, s) for k in (1, 2, 7) for s in "+-"]:
                oracle = dual_partition(shi_defining_values(rs, k, mask, sign), rs.rank + 1)
                assert shi_exponents_dp(rs, k, mask, sign) == oracle, (name, mask, k, sign)
                cases += 1
    assert cases == 2884
