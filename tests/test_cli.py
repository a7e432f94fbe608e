"""CLI behavior: subcommands, exit codes, report formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import idealshi.arrangement
import idealshi.cli
import idealshi.multiarr
import idealshi.rootsys
from idealshi.cli import main
from idealshi.charpoly import CharPoly
from idealshi.rootsys import DualPartitionError, ExponentMultiset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_details(out) -> list[tuple[str, str, str, str]]:
    """(verdict, check name, status, detail) of each check of each record of a JSON report."""
    cases = json.loads(out)["cases"]
    return [(case["verdict"], c["name"], c["status"], c["detail"]) for case in cases for c in case["checks"]]


def test_roots_table(capsys):
    code, out, _ = run(capsys, "roots", "A2")
    assert code == 0
    assert out.count("\n") >= 4  # header, rule, three roots
    assert "a1+a2" in out


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "G2")
    assert code == 0
    assert "3a1+2a2" in out and "coxeter number 6" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "roots", "Z9")
    assert code == 2 and "cannot parse" in err
    code, _, err = run(capsys, "verify", "A2", "-k", "1", "--all-ideals", "--subset", "a1")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "A2", "-k", "1", "--subset", "2a1"),
        ("verify", "A2", "-k", "1", "--subset", "ideal:x"),
        ("verify", "A2", "-k", "0", "--subset", "none"),
        ("charpoly", "A2", "-k", "-1"),
        ("exponents", "E6", "-k", "1", "--all-ideals"),
        ("ideals", "E6"),
        ("verify", "A2", "-k", "1", "--subset", "ideal:"),
        ("verify", "A2", "-k", "1", "--subset", "none", "--max-hyperplanes", "-1"),
        ("verify", "A2", "-k", "1", "--subset", "none", "--max-dim", "-5"),
        ("filtration", "A2", "--steps", "3", "--max-hyperplanes", "-1"),
        ("filtration", "A2", "--steps", "3", "--max-dim", "-5"),
        ("charpoly", "A2", "-k", "1", "--max-hyperplanes", "-1"),
        ("charpoly", "A2", "-k", "1", "--max-dim", "-5"),
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    if argv[-1].startswith("ideal:"):
        assert f"ideal:IDX needs an integer index, got {argv[-1][len('ideal:'):]!r}" in err
    if "E6" in argv:
        # the CLI has no max_rank option, so the message names only the rank and the bound
        assert "rank 6 exceeds the enumeration bound 4" in err and "max_rank" not in err
    if argv[-2].startswith("--max-"):
        # a negative guard would otherwise SKIP every case
        assert err == f"error: {argv[-2]} must not be negative\n"


@pytest.mark.parametrize(
    "subset, message",
    [
        ("a1,,a2", "empty root name"),
        ("0a1", "zero vector is not a root: '0a1'"),
        ("a3", "simple-root index 3 out of range 1..2"),
        ("b1", "cannot parse root term 'b1' in 'b1'"),
        ("a1+x", "cannot parse root term 'x' in 'a1+x'"),
    ],
)
def test_malformed_subset_is_a_usage_error(capsys, subset, message):
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", subset)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_charpoly_rejects_all_ideals(capsys):
    code, out, err = run(capsys, "charpoly", "A2", "-k", "1", "--all-ideals")
    assert code == 2 and out == "" and "unrecognized arguments: --all-ideals" in err


@pytest.mark.parametrize("grid", [("--subset", "a1"), ("--all-ideals",)])
def test_exponents_subsets_need_k(capsys, grid):
    code, out, err = run(capsys, "exponents", "A2", *grid)
    assert code == 2 and out == "" and "need -k" in err


@pytest.mark.parametrize(
    "argv", [("exponents", "A2", "--sign", "+"), ("charpoly", "A2", "--sign", "-", "--method", "mobius")]
)
def test_sign_needs_k(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--sign needs -k" in err


def test_charpoly_rejects_sign_both(capsys):
    code, out, err = run(capsys, "charpoly", "A2", "-k", "1", "--sign", "both")
    assert code == 2 and out == "" and "--sign takes + or -" in err


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_filtration_needs_a_step(capsys, steps):
    code, out, err = run(capsys, "filtration", "A2", "--steps", steps)
    assert code == 2 and out == "" and "--steps" in err


def test_ideals_listing(capsys):
    code, out, _ = run(capsys, "ideals", "A2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 5


def test_exponents_weyl(capsys):
    code, out, _ = run(capsys, "exponents", "B3")
    assert code == 0 and "(1, 3, 5)" in out


def test_exponents_shi(capsys):
    code, out, _ = run(capsys, "exponents", "A2", "-k", "1", "--subset", "all", "--sign", "+")
    assert code == 0 and "(1, 4, 5)" in out


def test_verify_all_ideals_passes(capsys):
    code, out, _ = run(capsys, "verify", "A2", "-k", "1", "--all-ideals", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["pass"] == 10 and doc["summary"]["fail"] == 0
    assert len(doc["cases"]) == 10
    for case in doc["cases"]:
        assert case["verdict"] in ("PASS", "NOT_FREE_CONFIRMED")
        assert "timing_ms" not in case


def test_verify_non_free_witness(capsys):
    # {a1+a2} is no ideal and misses every simple root: neither sign's cone is free
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", "a1+a2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["not_free_confirmed"] == 2
    ziegler = ("NOT_FREE_CONFIRMED", "ziegler", "PASS", "multirestriction equals base roots with 2k +/- indicator")
    duality = ("NOT_FREE_CONFIRMED", "duality", "PASS", "both signs not free")
    not_free = ("not free: chi0(0) = 13 != 12 = 3*4", "not free: chi0(0) = 7 != 6 = 2*3")
    yoshinaga = [("NOT_FREE_CONFIRMED", "yoshinaga", "NOT_FREE_CONFIRMED", detail) for detail in not_free]
    assert _check_details(out) == [ziegler, yoshinaga[0], duality, ziegler, yoshinaga[1], duality]


def test_verify_json_deterministic(capsys):
    args = ("verify", "B2", "-k", "1", "--all-ideals", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_csv_one_row_per_case(capsys):
    code, out, _ = run(capsys, "verify", "A2", "-k", "1", "--all-ideals", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 10


CSV_HEADER = (
    "system,k,sign,subset_kind,subset_index,subset_roots,"
    "arrangement_size,predicted_exponents,chi_coeffs,verdict,checks"
)


@pytest.mark.parametrize(
    "argv,row",
    [
        (
            ("verify", "A2", "-k", "1", "--subset", "none", "--sign", "+"),
            "A2,1,+,ideal,,,7,1 3 3,-9 15 -7 1,PASS,terao=PASS; ziegler=PASS; yoshinaga=PASS",
        ),
        (
            ("verify", "A2", "-k", "1", "--subset", "a1+a2", "--sign", "+", "--checks", "ziegler,yoshinaga"),
            "A2,1,+,roots,,a1+a2,8,,,NOT_FREE_CONFIRMED,ziegler=PASS; yoshinaga=NOT_FREE_CONFIRMED",
        ),
        (("filtration", "A2", "--steps", "1"), "A2,,,step,1,,1,0 0 1,0 0 -1 1,PASS,saturated=PASS; terao=PASS"),
    ],
    ids=["ideal", "roots", "step"],
)
def test_csv_columns_are_the_record_fields(capsys, argv, row):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out == f"{CSV_HEADER}\n{row}\n"
    code, out, _ = run(capsys, *argv, "--format", "csv", "--timings")
    header, timed = out.splitlines()
    assert code == 0 and header == CSV_HEADER + ",timing_ms"
    assert timed.startswith(row + ",") and float(timed[len(row) + 1:]) >= 0


@pytest.mark.parametrize("checks", ["", "terao,terao"], ids=["empty", "repeated"])
def test_checks_name_each_check_once(tmp_path, capsys, checks):
    argv = ("verify", "A2", "-k", "1", "--subset", "none", "--checks", checks)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    target = tmp_path / "r.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


def test_verify_pretty_sorted_exponents(capsys):
    code, out, _ = run(capsys, "verify", "A2", "-k", "1", "--subset", "none", "--format", "pretty")
    assert code == 0 and "(1,3,3)" in out


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "A2", "-k", "1", "--subset", "none", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == 1


def test_verify_size_guard_skips(capsys):
    code, out, _ = run(
        capsys,
        "verify", "A2", "-k", "1", "--subset", "none", "--format", "json", "--max-hyperplanes", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["skipped"] == 2


def _refusals(case) -> list[tuple[str, str]]:
    """The (name, detail) of each check of a JSON case record, all of which must be SKIPPED."""
    assert all(c["status"] == "SKIPPED" for c in case["checks"])
    return [(c["name"], c["detail"]) for c in case["checks"]]


def test_verify_size_guard_ignores_warm_cache(capsys):
    # an earlier unguarded run in the same process must not admit an arrangement the guards refuse
    base = ("verify", "A2", "-k", "1", "--subset", "none")
    guarded = (*base, "--max-hyperplanes", "3", "--format", "json")
    _, cold, _ = run(capsys, *guarded)
    refused = "7 hyperplanes exceed bound 3"
    for case in json.loads(cold)["cases"]:
        assert _refusals(case) == [(name, refused) for name in ("terao", "ziegler", "yoshinaga", "duality")]
    assert run(capsys, *base)[0] == 0
    _, warm, _ = run(capsys, *guarded)
    assert warm == cold


@pytest.mark.parametrize("check", ["yoshinaga", "duality"])
def test_verify_size_guard_covers_freeness_checks(capsys, check):
    code, out, _ = run(
        capsys, "verify", "A2", "-k", "1", "--subset", "none", "--checks", check,
        "--max-hyperplanes", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["skipped"] == 2
    for case in doc["cases"]:
        assert _refusals(case) == [(check, "7 hyperplanes exceed bound 3")]


def _replace_everywhere(monkeypatch, original, replacement):
    """Put ``replacement`` in place of ``original`` in every idealshi module that imported it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "idealshi" or mod_name.startswith("idealshi.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def _count_calls(monkeypatch, owner, name):
    """Record the arguments of every call to ``owner.name``, through every
    idealshi module that imported it."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _replace_everywhere(monkeypatch, original, counted)
    return calls


def test_refused_case_builds_no_cone(capsys, monkeypatch):
    # the guards refuse chi from the plane count, so no cone's levels are
    # listed for its covectors; the prediction needs no cone.  Only the
    # arrangement module's name is counted: the count itself reads shi_levels
    cones = _count_calls(monkeypatch, idealshi.arrangement, "shi_arrangement")
    planes = []
    levels = idealshi.arrangement.shi_levels
    monkeypatch.setattr(idealshi.arrangement, "shi_levels", lambda *args: planes.append(args) or levels(*args))
    code, out, _ = run(capsys, "verify", "A2", "-k", "1000000", "--subset", "none", "--sign", "+", "--format", "json")
    assert code == 0
    [case] = json.loads(out)["cases"]
    assert case["arrangement_size"] == 6000001
    refused = "6000001 hyperplanes exceed bound 73"
    assert _refusals(case) == [("terao", refused), ("ziegler", refused), ("yoshinaga", refused)]
    assert case["verdict"] == "SKIPPED" and case["chi_coeffs"] is None
    assert case["predicted_exponents"] == [1, 3000000, 3000000]
    assert cones == planes == []


def test_refused_ziegler_builds_no_cone(capsys, monkeypatch):
    # a non-ideal subset runs ziegler first; its 600,002 planes are refused from the count
    cones = _count_calls(monkeypatch, idealshi.arrangement, "shi_arrangement")
    code, out, _ = run(capsys, "verify", "A2", "-k", "100000", "--subset", "a1+a2", "--sign", "+", "--format", "json")
    assert code == 0
    [case] = json.loads(out)["cases"]
    assert case["verdict"] == "SKIPPED" and case["arrangement_size"] == 600002
    refused = "600002 hyperplanes exceed bound 73"
    assert _refusals(case) == [("ziegler", refused), ("yoshinaga", refused)]
    assert cones == []


def test_verify_computes_shared_work_once(capsys, monkeypatch):
    # B2 has 6 ideals; both signs of the empty ideal are the same arrangement.
    rank2 = _count_calls(monkeypatch, idealshi.multiarr, "exp_rank2_multi")
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    code, out, _ = run(capsys, "verify", "B2", "-k", "1", "--all-ideals", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["cases"]) == 12
    assert len(rank2) == 2 * 6  # one multirestriction per sign; the shift-law base comes from chi
    # the one anchor's own lattice, (k, all roots, '-'); one lattice per
    # distinct restriction of the ambient cone (k, all roots, '+') onto the 8
    # planes the chains delete, which every other cone's step reads; and the
    # 6 subset arrangements, whose chi splits into the shift-law base
    rs = idealshi.cli.build("B2")
    ambient = idealshi.arrangement.shi_arrangement(rs, 1, (1 << rs.n_positive) - 1, "+")
    steps = [r.coeffs + (-j,) for r in rs.positive_roots for j in (-1, 1)]
    restricted = {idealshi.arrangement.restriction(ambient, h) for h in steps}
    assert len(restricted) == 3
    arrangements = [args[0] for args in lattices]
    assert len(arrangements) == len(set(arrangements)) == 1 + len(restricted) + 6


@pytest.mark.parametrize("system, k, builds, reads", [("B3", "2", 8, 39), ("F4", "1", 23, 209)])
def test_a_campaign_builds_reads_and_traces_a_pinned_count(capsys, monkeypatch, system, k, builds, reads):
    # the lattices a campaign builds, the chi reads made off them and the one
    # kernel call of hold: a cheaper read or record must not move any of them
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    kernel = _count_calls(monkeypatch, idealshi.arrangement, "_trace_kernel")
    read, seen = idealshi.arrangement.IntersectionLattice.charpoly_coeffs, []
    monkeypatch.setattr(
        idealshi.arrangement.IntersectionLattice, "charpoly_coeffs", lambda *args: seen.append(args) or read(*args)
    )
    code, out, _ = run(capsys, "verify", system, "-k", k, "--all-ideals", "--format", "json")
    assert code == 0 and json.loads(out)["summary"]["fail"] == 0
    assert (len(lattices), len(seen), len(kernel)) == (builds, reads, 1)


def test_rank2_campaign_restricts_each_cone_once(capsys, monkeypatch):
    # G2 has 8 ideals: one multirestriction and one rank-2 solve per cone
    restrictions = _count_calls(monkeypatch, idealshi.arrangement, "ziegler_multiplicity")
    rank2 = _count_calls(monkeypatch, idealshi.multiarr, "exp_rank2_multi")
    code, out, _ = run(capsys, "verify", "G2", "-k", "5", "--all-ideals", "--format", "json")
    assert code == 0 and len(json.loads(out)["cases"]) == 16
    assert len(restrictions) == len(rank2) == 16


def test_campaign_chi_stays_inside_the_guards(capsys, monkeypatch):
    # the case has 28 planes and passes a guard of 30; the k-Shi cone (37
    # planes) does not, so the chain must not build it
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    tables = _tables(monkeypatch)
    code, out, _ = run(
        capsys, "verify", "B3", "-k", "2", "--subset", "all", "--sign", "-",
        "--max-hyperplanes", "30", "--format", "json",
    )
    assert code == 0
    [case] = json.loads(out)["cases"]
    assert case["verdict"] == "PASS" and case["arrangement_size"] == 28
    assert case["chi_coeffs"] == ["693", "-932", "266", "-28", "1"]
    assert lattices and max(args[0].size for args in lattices) <= 28
    # one subset holds nothing, so every stored restriction is of a cone
    # inside the case; this case is its level's anchor, so its walk stores none
    [table] = tables
    assert table.restricted == {}


def test_no_table_outlives_a_call(capsys, monkeypatch):
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    counts = []
    for _ in range(2):
        assert run(capsys, "verify", "B3", "-k", "2", "--all-ideals", "--format", "json")[0] == 0
        counts.append(len(lattices))
        lattices.clear()
    assert counts[0] == counts[1] > 0


def test_no_rank2_basis_outlives_a_call(capsys, monkeypatch):
    # the bases of a campaign live in its table: its 16 cones resume the
    # rounds raised before them, 102 steps in all instead of 960 from m = 0,
    # and a second run in the same process raises exactly as many
    steps = _count_calls(monkeypatch, idealshi.multiarr, "_raise")
    for _ in range(2):
        assert run(capsys, "verify", "G2", "-k", "5", "--all-ideals", "--format", "json")[0] == 0
        assert len(steps) == 102
        steps.clear()


def test_each_plane_is_traced_once_per_command(capsys, monkeypatch):
    # the 40 multirestrictions onto {z = 0} and the chain steps share the
    # campaign's trace table, which one kernel call fills: every plane of the
    # ambient cone on each of its 19 restriction planes.  No (restriction
    # plane, plane) pair is traced twice, and a second run in the same
    # process traces as much
    kernel = _count_calls(monkeypatch, idealshi.arrangement, "_trace_kernel")
    counts = []
    for _ in range(2):
        assert run(capsys, "verify", "B3", "-k", "2", "--all-ideals", "--format", "json")[0] == 0
        assert len(kernel) == 1
        pairs = [(h0, plane) for h0s, planes in kernel for h0 in h0s for plane in planes if plane != h0]
        assert len(pairs) == len(set(pairs)) == 19 * 45
        counts.append(len(pairs))
        kernel.clear()
    assert counts[0] == counts[1] > 0


def test_campaign_tests_each_subset_is_ideal_once(capsys, monkeypatch):
    # one SubsetFacts per ideal, whose one ideal test also picks the default checks; the
    # other two calls per ideal are shi_exponents_dp's own input check, one per sign
    facts = _count_calls(monkeypatch, idealshi.cli, "SubsetFacts")
    ideal_tests = _count_calls(monkeypatch, idealshi.rootsys, "is_ideal")
    assert run(capsys, "verify", "B3", "-k", "2", "--all-ideals", "--format", "json")[0] == 0
    assert len(facts) == 20 and len(ideal_tests) == 60


def test_verify_passes_masks_not_roots(capsys, monkeypatch):
    # the subset mask that SubsetFacts holds is what the cone, its plane
    # count, its chi and its prediction read: no root list is turned back into a mask
    masks = _count_calls(monkeypatch, idealshi.rootsys, "mask_of")
    assert run(capsys, "verify", "B3", "-k", "2", "--all-ideals", "--format", "json")[0] == 0
    assert masks == []


def _tables(monkeypatch):
    """The chi tables that the commands run in this test make, in order."""
    table, made = idealshi.cli._table, []
    monkeypatch.setattr(idealshi.cli, "_table", lambda args: made.append(table(args)) or made[-1])
    return made


def _restricted_reads(monkeypatch):
    """(table, cone, plane) of every chain step's read of chi(cone^plane) off the table's per-plane store."""
    read = idealshi.arrangement.LatticeCache.restricted_coeffs
    reads = []

    def counted(self, cone, h0):
        reads.append((self, cone, h0))
        return read(self, cone, h0)

    monkeypatch.setattr(idealshi.arrangement.LatticeCache, "restricted_coeffs", counted)
    return reads


def _stored_restrictions(monkeypatch):
    """(cone, plane) of every restriction that a table stores for a plane, in order."""
    restrict, stored = idealshi.arrangement.restriction, []
    monkeypatch.setattr(
        idealshi.arrangement, "restriction", lambda cone, h0, traces: stored.append((cone, h0)) or restrict(cone, h0, traces)
    )
    return stored


@pytest.mark.parametrize("name, planes, most", [("B3", 18, 1 + 18), ("F4", 48, 1 + 48)])
def test_campaign_builds_one_lattice_per_restriction_plane(capsys, monkeypatch, name, planes, most):
    # every chain step restricts onto one of the 2|Phi+| planes {root = -+k*z}
    # of the ambient cone; each plane's lattice is built once (planes whose
    # restrictions are equal share one), and the one anchor has its own
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    reads, k = _restricted_reads(monkeypatch), "1" if name == "F4" else "2"
    code, out, _ = run(capsys, "verify", name, "-k", k, "--all-ideals", "--format", "json")
    assert code == 0
    per_plane = {table.restricted[h0] for table, _, h0 in reads}
    assert len(per_plane) <= planes
    arrangements = [args[0] for args in lattices]
    assert len(arrangements) == len(set(arrangements)) == 1 + len(per_plane) <= most
    # every cone but the anchor reads its step off a per-plane lattice, and
    # the empty ideal's two signs are one cone
    assert len(reads) == len(json.loads(out)["cases"]) - 2
    # a '-'-only campaign holds (k, {}, '-'), whose restrictions onto the
    # |Phi+| planes of the '-' chain differ: B3 k=2 builds 10, F4 k=1 builds 25
    lattices.clear()
    assert run(capsys, "verify", name, "-k", k, "--all-ideals", "--sign", "-")[0] == 0
    assert len(lattices) == len(set(args[0] for args in lattices)) == 1 + planes // 2


def _anchors(lattices, rs):
    """The arrangements of the recorded lattice builds in the cone's rank + 1 coordinates."""
    return [args[0] for args in lattices if args[0].dim == rs.rank + 1]


@pytest.mark.parametrize("name, k", [("B3", 2), ("G2", 5), ("F4", 1)])
def test_held_level_has_one_anchor(capsys, monkeypatch, name, k):
    # (k, {}, '+') is (k, {}, '-'): a held campaign walks its '+' chain on
    # down the '-' chain to (k, all roots, '-'), and never builds the k-Shi cone
    rs = idealshi.cli.build(name)
    anchor = idealshi.arrangement.shi_arrangement(rs, k, (1 << rs.n_positive) - 1, "-")
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    assert run(capsys, "verify", name, "-k", str(k), "--all-ideals", "--format", "json")[0] == 0
    assert _anchors(lattices, rs) == [anchor]
    # one subset holds nothing, and its walk still goes on down the '-'
    # chain to the campaign's anchor, restricting each cone itself
    lattices.clear()
    assert run(capsys, "verify", name, "-k", str(k), "--subset", "none", "--sign", "+", "--format", "json")[0] == 0
    assert _anchors(lattices, rs) == [anchor]


def test_unheld_campaign_has_one_anchor(capsys, monkeypatch):
    # the guard of 40 planes refuses B4's ambient cone (49 planes): nothing is
    # held, and the '+' walks still go on down the '-' chain to its anchor
    rs = idealshi.cli.build("B4")
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    argv = ("verify", "B4", "-k", "1", "--all-ideals", "--max-hyperplanes", "40", "--format", "json")
    assert run(capsys, *argv)[0] == 0
    want = idealshi.arrangement.shi_arrangement(rs, 1, (1 << rs.n_positive) - 1, "-")
    assert _anchors(lattices, rs) == [want] and want.size == 17


@pytest.mark.parametrize(
    "argv, builds, anchor",
    [
        (("verify", "D4", "-k", "1", "--subset", "ideal:20", "--sign", "+"), 17, 13),
        (("verify", "B3", "-k", "2", "--subset", "ideal:7"), 13, 28),
        (("filtration", "B3", "--steps", "60"), 56, 1),
        (("filtration", "F4", "--steps", "300"), 72, 1),
    ],
    ids=["verify-D4-ideal20-plus", "verify-B3-ideal7", "filtration-B3-60", "filtration-F4-300"],
)
def test_one_anchor_per_level_on_every_route(capsys, monkeypatch, argv, builds, anchor):
    # a walk ends at a cone the table holds, at (k, all roots, '-') or at
    # {z = 0}, and never builds a k-Shi cone's lattice: one subset's walk
    # ends at its level's anchor, and a filtration's at the step before
    rs = idealshi.cli.build(argv[1])
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    assert run(capsys, *argv, "--format", "json")[0] == 0
    assert len(lattices) == builds
    if argv[0] == "verify":
        want = idealshi.arrangement.shi_arrangement(rs, int(argv[3]), (1 << rs.n_positive) - 1, "-")
    else:
        want = idealshi.arrangement.Arrangement(rs.rank + 1, (idealshi.arrangement.z_covector(rs),))
    assert _anchors(lattices, rs) == [want] and want.size == anchor


@pytest.mark.parametrize("sign, planes", [("+", 48), ("-", 24), ("both", 48)])
def test_one_sign_campaign_reads_its_chain_planes(capsys, monkeypatch, sign, planes):
    # hold restricts the campaign's largest cone of F4 k=1 onto the planes of
    # its own walk, and a campaign reads every one of them: all 48 when it
    # walks '+', since its empty ideal walks on down the '-' chain, and the 24
    # of the '-' chain alone under --sign -
    reads, tables, stored = _restricted_reads(monkeypatch), _tables(monkeypatch), _stored_restrictions(monkeypatch)
    assert run(capsys, "verify", "F4", "-k", "1", "--all-ideals", "--sign", sign, "--format", "json")[0] == 0
    rs = idealshi.cli.build("F4")
    levels = (1,) if sign == "-" else (-1, 1)
    want = {r.coeffs + (-j,) for r in rs.positive_roots for j in levels}
    assert {h0 for _, _, h0 in reads} == want and len(want) == planes
    # what the table stores: a restriction per chain plane, and traces onto those planes and {z = 0}
    [table] = tables
    assert set(table.restricted) == want
    assert set(table.traces) == want | {idealshi.arrangement.z_covector(rs)}
    # hold stores the restrictions of (1, all, '+'), or of (1, {}, '-') under
    # --sign -, and no walk replaces one
    held = idealshi.arrangement.shi_arrangement(rs, 1, *((0, "-") if sign == "-" else ((1 << rs.n_positive) - 1, "+")))
    assert len(stored) == planes and {cone for cone, _ in stored} == {held}


@pytest.mark.parametrize(
    "argv",
    [
        ("B4", "-k", "1", "--all-ideals", "--max-hyperplanes", "40"),  # the ambient cone has 49 planes
        ("B3", "-k", "2", "--subset", "ideal:7"),  # one subset
        ("G2", "-k", "5", "--subset", "all"),
    ],
)
def test_per_case_restrictions_outside_campaigns(capsys, monkeypatch, argv):
    # nothing is held: every stored restriction is of a cone inside a case
    # that the guards admit, so the guards still bound all work
    tables, stored = _tables(monkeypatch), _stored_restrictions(monkeypatch)
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    [table] = tables
    rs, cones = idealshi.cli.build(argv[0]), []
    for case in json.loads(out)["cases"]:
        spec, roots = case["case"], case["case"]["subset"]["roots"]
        if case["arrangement_size"] <= table.max_hyperplanes:
            mask = idealshi.rootsys.mask_of(rs, [idealshi.rootsys.Root.parse(r, rs.rank) for r in roots])
            cones.append(set(idealshi.arrangement.shi_arrangement(rs, spec["k"], mask, spec["sign"]).covectors))
    assert table.restricted and {h0 for _, h0 in stored} == set(table.restricted)
    for cone, _ in stored:
        assert any(set(cone.covectors) <= case for case in cones)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "B3", "-k", "2", "--all-ideals"),
        ("verify", "B4", "-k", "1", "--all-ideals", "--max-hyperplanes", "40"),
        ("verify", "F4", "-k", "1", "--subset", "ideal:50"),
        ("filtration", "B3", "--steps", "60"),
    ],
)
def test_no_restriction_polynomial_enters_the_table(capsys, monkeypatch, argv):
    # every chain step reads chi(cone^H) off the table's store for H, so
    # charpoly_mobius sees only cones, in rank + 1 coordinates, and the
    # subset arrangements of the shift law, never a restriction
    polys = _count_calls(monkeypatch, idealshi.charpoly, "charpoly_mobius")
    reads = _restricted_reads(monkeypatch)
    assert run(capsys, *argv, "--format", "json")[0] == 0
    rs = idealshi.cli.build(argv[1])
    subsets = {idealshi.arrangement.root_arrangement(rs, mask) for mask in idealshi.cli.enumerate_ideals(rs)}
    assert reads and polys
    assert all(args[0].dim == rs.rank + 1 or args[0] in subsets for args in polys)


def test_tampered_rank2_basis_is_an_internal_error(capsys, monkeypatch):
    # the G2 k=1 multirestrictions put 2 on each line; their first round,
    # with theta2 replaced by x * theta2, sits in the campaign's table
    g2 = idealshi.arrangement.root_arrangement(idealshi.cli.build("G2"))
    bases = {}
    idealshi.multiarr.exp_rank2_multi(g2, dict.fromkeys(g2.covectors, 1), bases=bases)
    key = (g2.covectors, (1,) * 6)
    theta1, theta2 = bases[key]
    n = len(theta2) // 2
    tampered = {key: (theta1, (0,) + theta2[:n] + (0,) + theta2[n:])}
    table = idealshi.cli._table

    def tampered_table(args):
        cache = table(args)
        cache.rank2_bases.update(tampered)
        return cache

    monkeypatch.setattr(idealshi.cli, "_table", tampered_table)
    code, out, err = run(capsys, "verify", "G2", "-k", "1", "--all-ideals", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: no derivation basis of degrees")


def test_charpoly_mobius_builds_the_case_lattice(capsys, monkeypatch):
    lattices = _count_calls(monkeypatch, idealshi.arrangement, "intersection_lattice")
    assert run(capsys, "charpoly", "B3", "-k", "1", "--method", "mobius")[0] == 0
    rs = idealshi.cli.build("B3")
    assert [args[0] for args in lattices] == [idealshi.arrangement.shi_arrangement(rs, 1, 0, "+")]


def test_campaign_reads_mu_once_per_chi(capsys, monkeypatch):
    # a lattice stores no mu: B3 k=2 reads it once per chi, for the one anchor
    # and the 38 chain steps read off a plane's lattice, and never in a build
    build, mobius = idealshi.arrangement.intersection_lattice, idealshi.arrangement.IntersectionLattice.mobius
    building, reads, builds = [False], [], []

    def read(self, within):
        reads.append(building[0])
        return mobius(self, within)

    def built(arr):
        builds.append(arr)
        building[0] = True
        try:
            return build(arr)
        finally:
            building[0] = False

    monkeypatch.setattr(idealshi.arrangement.IntersectionLattice, "mobius", read)
    _replace_everywhere(monkeypatch, build, built)
    assert run(capsys, "verify", "B3", "-k", "2", "--all-ideals", "--format", "json")[0] == 0
    assert len(builds) == 8
    assert reads == [False] * 39


def test_guard_refusal_makes_the_case_skipped(capsys):
    # ziegler and terao both need the cone, which the guards refuse: the case checked nothing
    code, out, _ = run(
        capsys, "verify", "G2", "-k", "3", "--subset", "none", "--sign", "+",
        "--checks", "ziegler,terao", "--max-hyperplanes", "30", "--format", "json",
    )
    assert code == 0
    [case] = json.loads(out)["cases"]
    refused = "37 hyperplanes exceed bound 30"
    assert _refusals(case) == [("ziegler", refused), ("terao", refused)]
    assert case["verdict"] == "SKIPPED"
    # a filtration step whose chi check is refused is no pass either
    code, out, _ = run(capsys, "filtration", "A2", "--steps", "80")
    assert code == 0
    assert out.count("terao:SKIPPED") == 7
    assert "summary: pass=73 fail=0 not_free_confirmed=0 skipped=7" in out


def test_non_ideal_terao_skip_still_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "A3", "-k", "1", "--subset", "a1+a2", "--checks", "terao,ziegler", "--format", "json"
    )
    assert code == 0
    for case in json.loads(out)["cases"]:
        assert [(c["name"], c["status"]) for c in case["checks"]] == [("terao", "SKIPPED"), ("ziegler", "PASS")]
        assert case["verdict"] == "PASS"


@pytest.mark.parametrize("argv", [("--subset", "none", "--checks", "yoshinaga"), ("--subset", "3a1+2a2")])
def test_refused_case_skips_the_rank2_solve(capsys, monkeypatch, argv):
    rank2 = _count_calls(monkeypatch, idealshi.multiarr, "exp_rank2_multi")
    code, out, _ = run(
        capsys, "verify", "G2", "-k", "2", "--sign", "+", "--max-hyperplanes", "20", *argv, "--format", "json"
    )
    assert code == 0
    [case] = json.loads(out)["cases"]
    refusals = {
        "none": [("yoshinaga", "25 hyperplanes exceed bound 20")],
        "3a1+2a2": [("ziegler", "26 hyperplanes exceed bound 20"), ("yoshinaga", "26 hyperplanes exceed bound 20")],
    }
    assert _refusals(case) == refusals[argv[1]] and case["verdict"] == "SKIPPED"
    assert rank2 == []


def test_verify_timings_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "A2", "-k", "1", "--subset", "none", "--sign", "+",
        "--format", "json", "--timings",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"][0]["timing_ms"] is not None


def test_filtration_report(capsys):
    code, out, _ = run(capsys, "filtration", "A2", "--steps", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cases"]) == 7
    assert doc["cases"][0]["predicted_exponents"] == [0, 0, 1]
    assert doc["cases"][6]["predicted_exponents"] == [1, 3, 3]


def test_filtration_pretty(capsys):
    code, out, _ = run(capsys, "filtration", "B2", "--steps", "10", "--format", "pretty")
    assert code == 0 and "pass=10" in out


def test_charpoly_all_methods_agree(capsys):
    code, out, _ = run(capsys, "charpoly", "A2", "-k", "1")
    assert code == 0
    assert out.count("t^3 - 7t^2 + 15t - 9") == 3
    assert "(1, 3, 3)" in out


def test_charpoly_reports_a_method_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(idealshi.cli, "charpoly_whitney", lambda arr: CharPoly.from_roots((1, 2, 4)))
    code, out, err = run(capsys, "charpoly", "A2", "-k", "1", "--subset", "none")
    assert (code, err) == (1, "")
    assert "whitney: t^3 - 7t^2 + 14t - 8" in out
    assert out.splitlines()[-1] == "METHOD DISAGREEMENT" and "integer roots" not in out


def test_charpoly_reports_a_polynomial_that_does_not_split(capsys):
    code, out, err = run(capsys, "charpoly", "A3", "-k", "1", "--subset", "a1+a2", "--method", "all")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "A3 Shi k=1 sign + subset {a1+a2}: 14 hyperplanes",
        *(f"{method}: t^4 - 14t^3 + 70t^2 - 141t + 84" for method in ("mobius", "whitney", "finite-field")),
        "integer roots: no split: residual t^2 - 9t + 21 after roots (1, 4)",
    ]


HUGE_K = str(1 << 62)  # the level ranges of its cones hold 2^63 + 1 levels, past what len() returns


def test_huge_k_is_refused_by_the_guards(capsys):
    code, out, err = run(capsys, "verify", "A2", "-k", HUGE_K, "--all-ideals", "--format", "json")
    assert (code, err) == (0, "")
    cases = json.loads(out)["cases"]
    assert len(cases) == 10
    for plus, minus in zip(cases[::2], cases[1::2]):
        # duality asks the '+' cone first, so both records' duality names its size
        duality = ("duality", f"{plus['arrangement_size']} hyperplanes exceed bound 73")
        for case in (plus, minus):
            refused = f"{case['arrangement_size']} hyperplanes exceed bound 73"
            assert case["verdict"] == "SKIPPED" and case["predicted_exponents"] is not None
            assert _refusals(case) == [(name, refused) for name in ("terao", "ziegler", "yoshinaga")] + [duality]
    assert cases[0]["arrangement_size"] == 27670116110564327425
    assert cases[0]["predicted_exponents"] == [1, 13835058055282163712, 13835058055282163712]
    code, out, err = run(capsys, "charpoly", "A2", "-k", HUGE_K, "--subset", "none")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "mobius: skipped (27670116110564327425 hyperplanes exceed bound 73)",
        "whitney: skipped (27670116110564327425 hyperplanes exceed the subset-sum bound 22)",
        "finite-field: skipped (27670116110564327425 hyperplanes exceed bound 73)",
        f"A2 Shi k={HUGE_K} sign + subset {{}}: 27670116110564327425 hyperplanes",
    ]


def test_charpoly_refuses_a_huge_cone_on_every_route(capsys, monkeypatch):
    # all three routes ask the guards from the plane count, so the 120,001 planes are never built
    cones = _count_calls(monkeypatch, idealshi.arrangement, "shi_arrangement")
    code, out, _ = run(capsys, "charpoly", "A2", "-k", "20000", "--subset", "none")
    assert code == 0 and cones == []
    assert out.splitlines() == [
        "mobius: skipped (120001 hyperplanes exceed bound 73)",
        "whitney: skipped (120001 hyperplanes exceed the subset-sum bound 22)",
        "finite-field: skipped (120001 hyperplanes exceed bound 73)",
        "A2 Shi k=20000 sign + subset {}: 120001 hyperplanes",
    ]


def test_finite_field_route_obeys_the_hyperplane_guard(capsys):
    argv = ("charpoly", "A2", "-k", "50", "--subset", "none", "--method", "finite-field")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "finite-field: skipped (301 hyperplanes exceed bound 73)" in out
    code, out, _ = run(capsys, *argv, "--max-hyperplanes", "301")
    assert code == 0
    assert "finite-field: t^3 - 301t^2 + 22800t - 22500" in out and "(1, 150, 150)" in out


def test_whitney_runs_beyond_the_dimension_guard(capsys):
    # the subset sum has its own fixed bound of 22 planes, not the table's guards
    code, out, _ = run(capsys, "charpoly", "A6")
    assert code == 0
    assert "finite-field: skipped (ambient dimension 6 exceeds bound 5)" in out
    assert "whitney: t^6 - 21t^5 + 175t^4" in out


def test_filtration_reports_an_unsaturated_step(capsys, monkeypatch):
    original = idealshi.cli.filtration_cone
    # the cone of step i-1 in place of step i, so |A_i| < i from the second step on
    monkeypatch.setattr(idealshi.cli, "filtration_cone", lambda rs, i: original(rs, max(i - 1, 1)))
    code, out, _ = run(capsys, "filtration", "A2", "--steps", "3")
    assert code == 1
    assert "saturated:FAIL" in out


def test_filtration_reports_a_step_that_drops_a_plane(capsys, monkeypatch):
    original = idealshi.cli.filtration_cone

    # steps 3 and 4 of A3 through other ideals of the right sizes: {a1, a3}, then
    # {a1, a2, a1+a2}, which lacks the plane {a3 = 0} of step 3
    def swapped(rs, i):
        a1, a2, a3, a12 = rs.positive_roots[:4]
        mask = idealshi.rootsys.mask_of
        return {3: (0, mask(rs, (a1, a3)), "+"), 4: (0, mask(rs, (a1, a2, a12)), "+")}.get(i) or original(rs, i)

    monkeypatch.setattr(idealshi.cli, "filtration_cone", swapped)
    code, out, _ = run(capsys, "filtration", "A3", "--steps", "5")
    assert code == 1
    assert out.count("nested:FAIL") == 1 and "saturated:FAIL" not in out and "terao:FAIL" not in out


def test_filtration_builds_each_step_once(capsys, monkeypatch):
    cones = _count_calls(monkeypatch, idealshi.arrangement, "shi_arrangement")
    code, out, _ = run(capsys, "filtration", "B3", "--steps", "40", "--format", "json")
    assert code == 0 and len(json.loads(out)["cases"]) == 40
    assert len(cones) == 40


def test_filtration_refuses_a_step_before_building_its_cone(capsys, monkeypatch):
    # steps beyond 73 planes are refused from their plane count, and keep their prediction
    cones = _count_calls(monkeypatch, idealshi.arrangement, "shi_arrangement")
    code, out, _ = run(capsys, "filtration", "A2", "--steps", "200", "--format", "json")
    assert code == 0
    cases = json.loads(out)["cases"]
    verdicts = [c["verdict"] for c in cases]
    assert verdicts.count("PASS") == 73 and verdicts.count("SKIPPED") == 127
    assert len(cones) == 73
    refused = cases[73]
    assert refused["checks"][-1] == {"name": "terao", "status": "SKIPPED", "detail": "74 hyperplanes exceed bound 73"}
    assert refused["chi_coeffs"] is None and len(refused["predicted_exponents"]) == 3


@pytest.mark.parametrize("system, steps", [("A2", 80), ("B3", 40), ("G2", 60)])
def test_filtration_step_is_its_verify_case(capsys, system, steps):
    # a step is the verify case (k, prefix, sign) of its cone with the chain checks in front
    code, out, _ = run(capsys, "filtration", system, "--steps", str(steps), "--format", "json")
    assert code == 0
    rs, table = idealshi.rootsys.build(system), idealshi.arrangement.LatticeCache()
    verdicts = []
    for i, step in enumerate(json.loads(out)["cases"], start=1):
        k, mask, sign = idealshi.arrangement.filtration_cone(rs, i)
        [case] = idealshi.cli.run_case(idealshi.cli.SubsetFacts(rs, k, sign, mask, i, ("terao",), table))
        want = case.to_dict(with_timings=False)
        chain = ["saturated"] if i == 1 else ["saturated", "nested"]
        assert [c["name"] for c in step["checks"][: len(chain)]] == chain
        want["case"] = {"system": system, "k": None, "sign": None, "subset": {"kind": "step", "index": i, "roots": []}}
        want["checks"] = step["checks"][: len(chain)] + want["checks"]
        assert step == want
        verdicts.append(step["verdict"])
    # A2's steps past 73 planes are refused by the guards
    assert verdicts.count("SKIPPED") == (7 if system == "A2" else 0)


def test_refused_check_does_not_hide_a_later_failure(capsys, monkeypatch):
    def refused(facts, sign):
        raise idealshi.arrangement.SizeBoundError("refused for the test")

    def failed(facts, sign):
        return idealshi.cli.CheckResult("ziegler", "FAIL", "no")

    # the refused check comes first, and the failure after it must still decide the case
    monkeypatch.setitem(idealshi.cli.CHECKS, "terao", refused)
    monkeypatch.setitem(idealshi.cli.CHECKS, "ziegler", failed)
    argv = ("verify", "A2", "-k", "1", "--subset", "none", "--sign", "+", "--checks", "terao,ziegler")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    [case] = json.loads(out)["cases"]
    assert case["verdict"] == "FAIL"
    assert [(c["name"], c["status"], c["detail"]) for c in case["checks"]] == [
        ("terao", "SKIPPED", "refused for the test"),
        ("ziegler", "FAIL", "no"),
    ]


def _patch_facts(monkeypatch, name, change):
    """Pass what ``SubsetFacts.<name>(sign)`` returns through ``change(sign, result)``."""
    original = getattr(idealshi.cli.SubsetFacts, name)
    monkeypatch.setattr(idealshi.cli.SubsetFacts, name, lambda facts, sign: change(sign, original(facts, sign)))


WRONG_EXPONENTS = ExponentMultiset((1, 2, 4))


@pytest.mark.parametrize(
    "name, change, checks, sign, details",
    [
        ("yoshinaga", lambda s, v: replace(v, free=False), "yoshinaga", "+", ["freeness False, expected True"]),
        (
            "yoshinaga", lambda s, v: replace(v, exponents=WRONG_EXPONENTS), "yoshinaga", "+",
            ["exponents (1, 2, 4) != shift law (1, 3, 3)"],
        ),
        (
            "multirestriction", lambda s, m: (m[0], {**m[1], (1, 0): 1}), "ziegler", "+",
            ["multirestriction onto {z=0} differs from 2k +/- indicator"],
        ),
        (
            "yoshinaga", lambda s, v: replace(v, free=s == "+"), "duality", "both",
            ["freeness differs between signs"] * 2,
        ),
        (
            "yoshinaga", lambda s, v: replace(v, exponents=WRONG_EXPONENTS) if s == "-" else v, "duality", "both",
            ["sign - exponents break the shift law"] * 2,
        ),
    ],
    ids=["yoshinaga freeness", "yoshinaga exponents", "ziegler", "duality freeness", "duality exponents"],
)
def test_a_counterexample_fails_its_check(capsys, monkeypatch, name, change, checks, sign, details):
    # each check's FAIL arm, forced on the free cones of A2 k=1: a genuine
    # counterexample must come back as a FAIL record and exit 1, not exit 3
    _patch_facts(monkeypatch, name, change)
    argv = ("verify", "A2", "-k", "1", "--subset", "none", "--sign", sign, "--checks", checks, "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert _check_details(out) == [("FAIL", checks, "FAIL", detail) for detail in details]


def test_duality_skips_when_the_signs_disagree_at_the_polynomial_level(capsys, monkeypatch):
    # in rank 3, one sign off the shifted base exponents but still split proves nothing either way
    _patch_facts(monkeypatch, "chi", lambda s, chi: CharPoly.from_roots((1, 2, 3, 4)) if s == "+" else chi)
    argv = ("verify", "B3", "-k", "1", "--subset", "a1,a2,a3", "--checks", "duality", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    detail = "inconclusive at the polynomial level in this rank"
    assert _check_details(out) == [("SKIPPED", "duality", "SKIPPED", detail)] * 2


def test_yoshinaga_outside_rank_2_is_skipped(capsys):
    argv = ("verify", "A3", "-k", "1", "--subset", "a1", "--checks", "yoshinaga", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    detail = "complete criterion needs ambient dimension 3"
    assert _check_details(out) == [("SKIPPED", "yoshinaga", "SKIPPED", detail)] * 2


@pytest.mark.parametrize("option", [("--out", "{missing}/r.json")], ids=["out"])
def test_unwritable_path_is_a_usage_error(tmp_path, capsys, monkeypatch, option):
    option = [a.format(missing=tmp_path / "missing") for a in option]
    cases = _count_calls(monkeypatch, idealshi.cli, "run_case")
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--all-ideals", *option)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert cases == []  # refused before any case ran


def test_no_chi_store_is_read_or_written(tmp_path, capsys, monkeypatch):
    # a chi that meets the central identities but is wrong, under the name an on-disk store once gave the + cone
    rs = idealshi.rootsys.build("A2")
    cone = idealshi.arrangement.shi_arrangement(rs, 1, (1 << rs.n_positive) - 1, "+")
    payload = json.dumps([cone.dim, [list(c) for c in cone.covectors]], separators=(",", ":"))
    entry = tmp_path / (hashlib.sha256(payload.encode()).hexdigest() + ".json")
    entry.write_text(json.dumps({"chi": ["-18", "27", "-10", "1"], "dim": 3, "size": 10, "version": 1}))
    monkeypatch.setenv("IDEALSHI_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "verify", "A2", "-k", "1", "--subset", "ideal:4", "--sign", "+", "--format", "json")
    assert code == 0
    assert [case["verdict"] for case in json.loads(out)["cases"]] == ["PASS"]
    assert list(tmp_path.iterdir()) == [entry]
    for command in (
        ("verify", "A2", "-k", "1", "--subset", "none"),
        ("filtration", "A2", "--steps", "3"),
        ("charpoly", "A2", "-k", "1", "--subset", "none"),
    ):
        code, _, err = run(capsys, *command, "--cache-dir", str(tmp_path / "chi"))
        assert code == 2 and "unrecognized arguments: --cache-dir" in err
    assert list(tmp_path.iterdir()) == [entry]


def test_filtration_checks_out_before_any_step(tmp_path, capsys, monkeypatch):
    steps = _count_calls(monkeypatch, idealshi.arrangement, "filtration_cone")
    code, out, err = run(capsys, "filtration", "A2", "--steps", "3", "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2 and out == "" and err.startswith("error: cannot write --out")
    assert steps == []


def test_charpoly_rejects_report_options(tmp_path, capsys):
    out = tmp_path / "chi.txt"
    for option in (("--out", str(out)), ("--format", "json"), ("--timings",)):
        code, _, err = run(capsys, "charpoly", "A2", "-k", "1", *option)
        assert code == 2 and "unrecognized arguments" in err
    assert not out.exists()


def test_charpoly_base_arrangement(capsys):
    code, out, _ = run(capsys, "charpoly", "B2", "--method", "mobius")
    assert code == 0 and "t^2 - 4t + 3" in out


def test_verify_rank3_duality_semantics(capsys):
    # ideal: both signs match the shifted base exponents
    code, out, _ = run(
        capsys, "verify", "B3", "-k", "1", "--subset", "a1,a2,a3",
        "--checks", "duality", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["verdict"] == "PASS" for c in doc["cases"])
    # non-ideal singleton: provably not free on both sides, still symmetric
    code, out, _ = run(
        capsys, "verify", "B3", "-k", "1", "--subset", "a1+a2+2a3",
        "--checks", "duality", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    details = [c["checks"][0]["detail"] for c in doc["cases"]]
    assert all("not free" in d for d in details)


@pytest.mark.parametrize(
    "name,k,census",
    [("A3", 1, (37, 24, 3)), ("A3", 2, (37, 24, 3)), ("C3", 1, (144, 238, 130))],
)
def test_rank3_duality_census(name, k, census):
    # every subset lands in one of three conclusive outcomes; none is inconclusive
    rs, table = idealshi.rootsys.build(name), idealshi.arrangement.LatticeCache()
    details = []
    for mask in range(1 << rs.n_positive):
        [case] = idealshi.cli.run_case(idealshi.cli.SubsetFacts(rs, k, "+", mask, None, ("duality",), table))
        details.append(case.checks[0].detail)
    outcomes = (
        "both signs match the shifted base exponents",
        "both signs provably not free (chi does not split)",
        "subset arrangement chi does not split",
    )
    assert tuple(details.count(d) for d in outcomes) == census
    assert not any("inconclusive" in d for d in details)


def test_verify_b2_k2_all_ideals(capsys):
    code, out, _ = run(capsys, "verify", "B2", "-k", "2", "--all-ideals", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert len(doc["cases"]) == 12


def test_internal_error_exit_code(capsys, monkeypatch):
    import idealshi.charpoly

    def broken(*args, **kwargs):
        raise AssertionError("Mobius values of a nonempty central arrangement must sum to 0")

    monkeypatch.setattr(idealshi.charpoly, "intersection_lattice", broken)
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", "none", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: Mobius values")


@pytest.mark.parametrize("exc", [MemoryError, IndexError, KeyError, TypeError])
def test_out_of_memory_is_an_internal_error(capsys, monkeypatch, exc):
    # exit 1 means a mismatch, so no other exception may reach it as a traceback
    import idealshi.charpoly

    def exhausted(*args, **kwargs):
        raise exc("Unable to allocate 12.2 GiB for an array")

    monkeypatch.setattr(idealshi.charpoly, "intersection_lattice", exhausted)
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", "none", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "Unable to allocate" in err and "Traceback" not in err


def test_broken_chain_step_is_an_internal_error(capsys, monkeypatch):
    import idealshi.charpoly

    # an empty restriction has chi = t^(n-1), so the step's chi(1) is -1
    monkeypatch.setattr(idealshi.arrangement.LatticeCache, "restricted_coeffs", lambda self, cone, h: (0,) * (cone.dim - 1) + (1,))
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", "all", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: deletion-restriction gave chi(1) = -1")


def test_internal_value_error_is_an_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise DualPartitionError("level-count profile is not weakly decreasing")

    monkeypatch.setattr(idealshi.cli, "shi_exponents_dp", broken)
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", "none", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: level-count profile")


def test_bad_reduction_is_an_internal_error(capsys, monkeypatch):
    import idealshi.charpoly

    exact = idealshi.charpoly.count_free_points
    monkeypatch.setattr(idealshi.charpoly, "count_free_points", lambda arr, q: exact(arr, q) + q % 3)
    code, out, err = run(capsys, "charpoly", "A2", "-k", "1", "--subset", "none", "--method", "finite-field")
    assert code == 3 and out == ""
    assert err.startswith("internal error: no consistent prime batch")


def test_failed_saito_certificate_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(idealshi.multiarr, "saito_certified", lambda *args: False)
    code, out, err = run(capsys, "verify", "A2", "-k", "1", "--subset", "none", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: no derivation basis of degrees")


def test_corrupted_rank2_step_is_an_internal_error(capsys, monkeypatch):
    original = idealshi.multiarr._step_coefficient
    monkeypatch.setattr(idealshi.multiarr, "_step_coefficient", lambda *args: original(*args) + 1)
    code, out, err = run(capsys, "verify", "G2", "-k", "1", "--subset", "none", "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: no derivation basis of degrees")


JOBS_COMMANDS = {
    "verify": ("verify", "A2", "-k", "1", "--subset", "none"),
    "filtration": ("filtration", "A2", "--steps", "3"),
    "charpoly": ("charpoly", "A2", "-k", "1", "--subset", "none"),
}


@pytest.mark.parametrize("command", sorted(JOBS_COMMANDS))
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_must_be_positive(capsys, command, jobs):
    code, out, err = run(capsys, *JOBS_COMMANDS[command], "--jobs", jobs)
    assert code == 2 and out == "" and f"--jobs: invalid choice: {jobs}" in err


@pytest.mark.parametrize("command", sorted(JOBS_COMMANDS))
def test_jobs_above_one_only_for_verify(capsys, command):
    """No command runs in parallel any more, verify included: `--jobs 2` is a
    usage error everywhere and `--jobs 1` changes no output byte."""
    argv = JOBS_COMMANDS[command]
    code, out, err = run(capsys, *argv, "--jobs", "2")
    assert code == 2 and out == "" and "--jobs: invalid choice: 2" in err
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and plain
    assert run(capsys, *argv, "--jobs", "1") == (0, plain, "")


def test_every_main_call_reuses_one_parser(capsys):
    idealshi.cli.build_parser.cache_clear()
    for argv in (("roots", "A2"), ("exponents", "A2"), ("verify", "A2", "-k", "1", "--subset", "none")):
        assert run(capsys, *argv)[0] == 0
    info = idealshi.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_shared_parser_prints_what_fresh_processes_print(capsys, monkeypatch):
    """A usage error, then --version, then a valid run, all in this process:
    each prints what a fresh process prints, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    src = os.path.dirname(os.path.dirname(os.path.abspath(idealshi.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, code in (
        (("verify", "A2", "-k", "1", "--jobs", "2"), 2),
        (("--version",), 0),
        (("verify", "A2", "-k", "1", "--all-ideals", "--format", "json"), 0),
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "idealshi", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert fresh.returncode == code and fresh.stdout + fresh.stderr
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_helpers_patched_after_the_first_call_take_effect(capsys, monkeypatch):
    argv = ("verify", "A2", "-k", "1", "--subset", "none")
    assert run(capsys, *argv)[0] == 0  # the parser, with cmd_verify bound, exists from here on
    made, table = [], idealshi.cli._table
    monkeypatch.setattr(idealshi.cli, "_table", lambda args: made.append(table(args)) or made[-1])
    assert run(capsys, *argv)[0] == 0
    assert len(made) == 1
