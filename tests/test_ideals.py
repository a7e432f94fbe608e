"""Ideal enumeration against brute force, dominance and exponents."""

import itertools

import pytest

from idealshi import (
    enumerate_ideals,
    ideal_exponents,
    is_ideal,
    mask_of,
    roots_of,
    weyl_catalan_number,
    weyl_exponents,
)


def brute_force_ideal_masks(rs):
    """Independent oracle: filter all subsets by the closure definition."""
    n = rs.n_positive
    roots = rs.positive_roots
    out = []
    for bits in range(1 << n):
        ok = True
        for i in range(n):
            if not bits >> i & 1:
                continue
            for j in range(n):
                if bits >> j & 1 or i == j:
                    continue
                diff = [a - b for a, b in zip(roots[i].coeffs, roots[j].coeffs)]
                if all(d >= 0 for d in diff):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(bits)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_enumeration_matches_brute_force(systems, name):
    rs = systems[name]
    assert list(enumerate_ideals(rs)) == brute_force_ideal_masks(rs)


@pytest.mark.parametrize(
    "name,count", [("A2", 5), ("B2", 6), ("G2", 8), ("A3", 14), ("B3", 20), ("A4", 42), ("B4", 70), ("D4", 50), ("F4", 105)]
)
def test_ideal_counts(systems, name, count):
    rs = systems[name]
    assert weyl_catalan_number(rs) == count
    assert len(enumerate_ideals(rs)) == count


def test_enumeration_guard():
    import idealshi

    rs = idealshi.build("B4")
    with pytest.raises(ValueError):
        enumerate_ideals(rs, max_rank=3)
    assert len(enumerate_ideals(rs, max_rank=4)) == 70


def test_e6_enumeration_past_the_default_bound():
    import idealshi

    rs = idealshi.build("E6")
    masks = list(enumerate_ideals(rs, max_rank=8))
    assert len(masks) == 833
    assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))
    assert all(is_ideal(rs, m) for m in masks)


def test_dominance(systems):
    def dominates(rs, alpha, beta):
        return bool(rs.below_masks[rs.index[alpha.coeffs]] >> rs.index[beta.coeffs] & 1)

    a2 = systems["A2"]
    a1, a2r, a12 = a2.positive_roots
    assert dominates(a2, a12, a1) and dominates(a2, a1, a1)
    assert not dominates(a2, a2r, a1)
    g2 = systems["G2"]
    assert dominates(g2, g2.root_at((3, 2)), g2.root_at((1, 1)))


def test_is_ideal_examples(systems):
    a2 = systems["A2"]
    a1, a2r, a12 = a2.positive_roots
    assert not is_ideal(a2, mask_of(a2, [a12]))
    assert is_ideal(a2, mask_of(a2, [a1, a2r]))
    assert is_ideal(a2, 0)


def test_ideal_exponents_examples(systems):
    a2 = systems["A2"]
    assert ideal_exponents(a2, 0).parts == (0, 0)
    assert ideal_exponents(a2, 0b111).parts == weyl_exponents(a2).parts
    assert ideal_exponents(a2, 0b001).parts == (0, 1)


def test_ideal_height_profiles_weakly_decreasing(systems):
    # the dual partition presupposes this; check it across every ideal
    for name in ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"):
        rs = systems[name]
        for mask in enumerate_ideals(rs):
            profile = [0] * rs.coxeter_number
            for r in roots_of(rs, mask):
                profile[r.height - 1] += 1
            assert all(profile[i] >= profile[i + 1] for i in range(len(profile) - 1)), (
                name,
                mask,
            )


def test_linear_extension_prefixes_are_ideals(systems):
    for rs in systems.values():
        order = rs.positive_roots
        for cut in range(len(order) + 1):
            assert is_ideal(rs, mask_of(rs, order[:cut]))


def test_linear_extension_a2(systems):
    a2 = systems["A2"]
    assert [r.coeffs for r in a2.positive_roots] == [(1, 0), (0, 1), (1, 1)]
