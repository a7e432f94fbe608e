"""End-to-end acceptance checks.

Every check is an exact integer identity (no tolerances anywhere).  Each
test prints one summary line; run with ``pytest -s`` to see them even on
success.
"""

import itertools
import random

import pytest

from idealshi import (
    Arrangement,
    CharPoly,
    ExponentMultiset,
    FactorFailure,
    build,
    charpoly_finite_field,
    charpoly_mobius,
    charpoly_whitney,
    enumerate_ideals,
    exp_rank2_multi,
    filtration_cone,
    ideal_exponents,
    mask_of,
    restriction,
    root_arrangement,
    root_covector,
    roots_of,
    shi_arrangement,
    shi_exponents_dp,
    shift_predict,
    terao_check,
    weyl_exponents,
    yoshinaga_check,
    z_covector,
    ziegler_multiplicity,
)

from extended_heights import ext_height

CAMPAIGN_SYSTEMS = ("A2", "B2", "G2", "A3", "B3")
RANK2 = ("A2", "B2", "G2")


def _report(index, slug, ok, detail):
    print(f"criterion {index:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {index:02d} {slug}: {detail}"


def test_c01_weyl_exponents_dual_partition(systems):
    frozen = {
        "A2": (1, 2),
        "B2": (1, 3),
        "G2": (1, 5),
        "A3": (1, 2, 3),
        "B3": (1, 3, 5),
        "B4": (1, 3, 5, 7),
        "F4": (1, 5, 7, 11),
    }
    bad = []
    for name, parts in frozen.items():
        rs = systems[name]
        got = weyl_exponents(rs)
        if got.parts != parts:
            bad.append((name, got.parts))
        if max(got) != rs.coxeter_number - 1 or got.total() != rs.n_positive:
            bad.append((name, "cross-check"))
    _report(1, "weyl-exponents", not bad, f"{len(frozen)} systems checked{bad or ''}")


def test_c02_shi_charpoly_product_form(systems):
    checked = 0
    bad = []
    for name in CAMPAIGN_SYSTEMS:
        rs = systems[name]
        h, ell = rs.coxeter_number, rs.rank
        for k in (1, 2):
            got = charpoly_mobius(shi_arrangement(rs, k, 0, "+"))
            want = CharPoly.from_roots([1] + [k * h] * ell)
            checked += 1
            if got.coeffs != want.coeffs:
                bad.append((name, k))
    _report(2, "shi-charpoly-product", not bad, f"{checked} polynomials{bad or ''}")


def test_c03_ideal_shi_exponent_campaign(systems):
    checked = 0
    bad = []
    ideal_total = 0
    for name in CAMPAIGN_SYSTEMS:
        rs = systems[name]
        ideals = enumerate_ideals(rs)
        ideal_total += len(ideals)
        for k in (1, 2):
            for mask in ideals:
                for sign in "+-":
                    arr = shi_arrangement(rs, k, mask, sign)
                    predicted = shi_exponents_dp(rs, k, mask, sign)
                    verdict = terao_check(charpoly_mobius(arr), predicted)
                    checked += 1
                    if not verdict.passed:
                        bad.append((name, k, mask, sign))
    ok = not bad and ideal_total == 53 and checked == 212
    _report(3, "ideal-shi-exponents", ok, f"{checked} identities over {ideal_total} ideals{bad or ''}")


def test_c04_rank2_sign_symmetry_complete(systems):
    checked = 0
    bad = []
    for name in RANK2:
        rs = systems[name]
        hz = z_covector(rs)
        base = root_arrangement(rs)
        h = rs.coxeter_number
        simple_mask = sum(1 << rs.index[r.coeffs] for r in rs.positive_roots if r.height == 1)
        for k in (1, 2):
            for mask in range(1 << rs.n_positive):
                expected_free = mask == 0 or bool(mask & simple_mask)
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
                    checked += 1
                    if v.free:
                        want = tuple(
                            sorted(
                                (1,)
                                + shift_predict(ExponentMultiset(base_exp), k, h, sign).parts
                            )
                        )
                        if v.exponents.parts != want:
                            bad.append((name, k, mask, sign, "exponents"))
                if not (verdicts["+"].free == verdicts["-"].free == expected_free):
                    bad.append((name, k, mask, "freeness"))
    # the explicit witness: Sigma = {a1+a2} in A2 at k = 1
    a2 = systems["A2"]
    witness_arr = shi_arrangement(a2, 1, mask_of(a2, [a2.root_at((1, 1))]), "+")
    witness = yoshinaga_check(*ziegler_multiplicity(witness_arr, z_covector(a2)), charpoly_mobius(witness_arr))
    if witness.free or witness.chi0_zero != 13 or witness.restriction_exponents != (3, 4):
        bad.append(("A2", "witness"))
    _report(4, "rank2-sign-symmetry", not bad, f"{checked} freeness verdicts{bad or ''}")


def test_c05_ideal_subarrangement_exponents(systems):
    checked = 0
    bad = []
    for name in ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3"):
        rs = systems[name]
        for mask in enumerate_ideals(rs):
            arr = root_arrangement(rs, mask)
            want = CharPoly.from_roots(tuple(ideal_exponents(rs, mask)))
            got = charpoly_mobius(arr)
            checked += 1
            if got.coeffs != want.coeffs:
                bad.append((name, mask))
    _report(5, "ideal-subarrangement-exponents", not bad, f"{checked} ideals{bad or ''}")


def test_c06_boundary_restriction_counts(systems):
    checked = 0
    bad = []
    for name in RANK2:
        rs = systems[name]
        h = rs.coxeter_number
        simple = {r for r in rs.positive_roots if r.height == 1}
        for k in (1, 2, 3):
            for mask in range(1 << rs.n_positive):
                sigma_set = set(roots_of(rs, mask))
                plus = shi_arrangement(rs, k, mask, "+")
                minus = shi_arrangement(rs, k, mask, "-")
                for alpha in rs.positive_roots:
                    if alpha in sigma_set:
                        continue
                    low = alpha in simple and not (sigma_set & simple)
                    got_p = restriction(plus, alpha.coeffs + (k,)).size
                    got_m = restriction(minus, alpha.coeffs + (-k,)).size
                    checked += 2
                    if got_p != (k * h + 1 if low else k * h + 2):
                        bad.append((name, k, mask, alpha.name, "+"))
                    if got_m != (k * h + 1 if low else k * h):
                        bad.append((name, k, mask, alpha.name, "-"))
    _report(6, "boundary-restriction-counts", not bad, f"{checked} counts{bad or ''}")


def test_c07_saturated_filtration(systems):
    checked = 0
    bad = []
    for name in ("A2", "B2"):
        rs = systems[name]
        prev = None
        for i in range(1, 41):
            arr = shi_arrangement(rs, *filtration_cone(rs, i))
            if arr.size != i:
                bad.append((name, i, "size"))
            if prev is not None and not set(prev.covectors) <= set(arr.covectors):
                bad.append((name, i, "nesting"))
            verdict = terao_check(charpoly_mobius(arr), shi_exponents_dp(rs, *filtration_cone(rs, i)))
            checked += 1
            if not verdict.passed:
                bad.append((name, i, "exponents"))
            prev = arr
    _report(7, "saturated-free-filtration", not bad, f"{checked} steps{bad or ''}")


def test_c08_extended_height_ranges(systems):
    checked = 0
    bad = []
    rank_le_4 = [n for n, rs in systems.items() if rs.rank <= 4]
    for name in sorted(rank_le_4):
        rs = systems[name]
        h, ell = rs.coxeter_number, rs.rank
        g = rs.height_counts
        for i in range(1, h + 1):
            checked += 1
            if g[i - 1] + g[h - i] != ell:
                bad.append((name, i, "mirror"))
        for k in (1, 2, 3):
            for root in rs.positive_roots:
                for j in range(1 - k, k + 1):
                    checked += 1
                    if not 1 <= ext_height(rs, root, j) <= k * h:
                        bad.append((name, k, root.name, j))
                checked += 1
                if not k * h + 1 <= ext_height(rs, root, -k) <= (k + 1) * h - 1:
                    bad.append((name, k, root.name, -k))
    _report(8, "extended-height-ranges", not bad, f"{checked} range checks over {len(rank_le_4)} systems{bad or ''}")


def _oracle_corpus(systems):
    corpus = []
    for name in RANK2:
        rs = systems[name]
        corpus.append(shi_arrangement(rs, 1, 0, "+"))
        corpus.append(shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots), "+"))
        corpus.append(shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots), "-"))
        corpus.append(shi_arrangement(rs, 1, mask_of(rs, [rs.positive_roots[0]]), "+"))
        corpus.append(root_arrangement(rs))
    for name in ("A3", "B3"):
        rs = systems[name]
        corpus.append(shi_arrangement(rs, 1, 0, "+"))
        corpus.append(shi_arrangement(rs, 1, mask_of(rs, rs.positive_roots), "-"))
        corpus.append(root_arrangement(rs))
    a2 = systems["A2"]
    corpus.extend(shi_arrangement(a2, *filtration_cone(a2, i)) for i in (2, 5, 9))
    corpus.append(Arrangement.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    return corpus


def test_c09_oracle_agreement(systems):
    corpus = _oracle_corpus(systems)
    checked_ff = checked_wh = 0
    bad = []
    mobius = {}
    for idx, arr in enumerate(corpus):
        mob = charpoly_mobius(arr)
        mobius[idx] = mob
        if charpoly_finite_field(arr).coeffs != mob.coeffs:
            bad.append((idx, "finite-field"))
        checked_ff += 1
        if arr.size <= 22:
            if charpoly_whitney(arr).coeffs != mob.coeffs:
                bad.append((idx, "whitney"))
            checked_wh += 1
    rng = random.Random(2024)
    pairs = 0
    while pairs < 100:
        idx = rng.randrange(len(corpus))
        arr = corpus[idx]
        if arr.size < 2:
            continue
        h = arr.covectors[rng.randrange(arr.size)]
        whole = mobius[idx].coeffs
        deleted = charpoly_mobius(arr.delete(h)).coeffs
        restricted = charpoly_mobius(restriction(arr, h)).coeffs
        want = list(deleted)
        for d, c in enumerate(restricted):
            want[d] -= c
        if tuple(want) != whole:
            bad.append((idx, "deletion-restriction"))
        pairs += 1
    ok = not bad
    _report(
        9,
        "charpoly-oracle-agreement",
        ok,
        f"{checked_ff} finite-field, {checked_wh} subset-sum, {pairs} deletion-restriction{bad or ''}",
    )


def test_c10_ziegler_multirestriction(systems):
    checked = 0
    bad = []
    for name in CAMPAIGN_SYSTEMS:
        rs = systems[name]
        base = root_arrangement(rs)
        hz = z_covector(rs)
        for k in (1, 2):
            for mask in range(1 << rs.n_positive):
                for sign, delta in (("+", 1), ("-", -1)):
                    arr = shi_arrangement(rs, k, mask, sign)
                    restricted, mult = ziegler_multiplicity(arr, hz)
                    want = {
                        root_covector(rs, r): 2 * k + (delta if mask >> i & 1 else 0)
                        for i, r in enumerate(rs.positive_roots)
                    }
                    checked += 1
                    if restricted.covectors != base.covectors or mult != want:
                        bad.append((name, k, mask, sign))
    _report(10, "ziegler-multirestriction", not bad, f"{checked} restrictions{bad or ''}")
