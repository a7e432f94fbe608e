"""Self-tests of the benchmark harness (not of idealshi itself).

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
from idealshi import cli  # noqa: E402
from idealshi.charpoly import CharPoly  # noqa: E402

from run import run_command  # noqa: E402

VERIFY = ["verify", "A2", "-k", "1", "--all-ideals", "--format", "json", "--jobs", "1"]
CHARPOLY = ["charpoly", "A2", "-k", "1", "--subset", "none", "--method", "all"]


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "case": None}


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 12.0, 0)]
    # children cover [1, 10] once the second is clipped to its parent
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def verify_run():
    outcome = run_command(cli, VERIFY)
    assert outcome.rc == 0
    return outcome, {check.command_key(VERIFY): check.summarize(VERIFY, outcome.stdout)}


def test_checker_accepts_the_reference_output(verify_run):
    outcome, reference = verify_run
    results = check.check_command(VERIFY, outcome, reference)
    assert results and all(r.ok for r in results)


def _edit_first_case(outcome, edit):
    doc = json.loads(outcome.stdout)
    edit(doc["cases"][0])
    return check.CommandOutcome(0, json.dumps(doc))


def test_checker_flags_one_corrupted_chi_coefficient(verify_run):
    outcome, reference = verify_run

    def corrupt(case):
        case["chi_coeffs"][1] = str(int(case["chi_coeffs"][1]) + 1)

    results = check.check_command(VERIFY, _edit_first_case(outcome, corrupt), reference)
    failed = [r for r in results if not r.ok]
    assert len(failed) == 1 and "chi" in failed[0].reason


def test_checker_flags_a_skipped_verdict(verify_run):
    outcome, reference = verify_run

    def skip(case):
        case["verdict"] = "SKIPPED"

    results = check.check_command(VERIFY, _edit_first_case(outcome, skip), reference)
    failed = [r for r in results if not r.ok]
    assert len(failed) == 1 and "SKIPPED" in failed[0].reason


def test_checker_flags_a_check_that_did_not_run(verify_run):
    outcome, reference = verify_run

    def drop_check(case):
        del case["checks"][0]

    results = check.check_command(VERIFY, _edit_first_case(outcome, drop_check), reference)
    failed = [r for r in results if not r.ok]
    assert len(failed) == 1 and "checks" in failed[0].reason


def test_checker_fails_every_case_of_a_crashed_command(verify_run):
    _, reference = verify_run
    results = check.check_command(VERIFY, check.CommandOutcome(2, ""), reference)
    assert len(results) == len(reference[check.command_key(VERIFY)]["cases"])
    assert not any(r.ok for r in results)


def test_checker_flags_a_charpoly_disagreement():
    outcome = run_command(cli, CHARPOLY)
    reference = {check.command_key(CHARPOLY): check.summarize(CHARPOLY, outcome.stdout)}
    assert all(r.ok for r in check.check_command(CHARPOLY, outcome, reference))
    lines = outcome.stdout.splitlines()
    wrong = [ln.replace("t^2", "2t^2", 1) if ln.startswith("finite-field") else ln for ln in lines]
    bad = check.CommandOutcome(0, "\n".join(wrong) + "\n")
    [result] = check.check_command(CHARPOLY, bad, reference)
    assert not result.ok and "finite-field" in result.reason


@pytest.mark.parametrize("roots", [(1, 2, 3), (0, 5), (7,), (1, 1, 1, 12)])
def test_parse_poly_inverts_charpoly_str(roots):
    poly = CharPoly.from_roots(roots)
    assert check.parse_poly(str(poly)) == list(poly.coeffs)


def _namespace_snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "idealshi" or name.startswith("idealshi.")
        for attr, value in vars(mod).items()
    }


def test_wrapped_attributes_are_restored():
    before = _namespace_snapshot()
    render = cli.Report.__dict__["render"]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            import idealshi.charpoly

            # every namespace that imported a traced function sees the wrapper
            assert cli.run_case is not before[("idealshi.cli", "run_case")]
            assert idealshi.charpoly.intersection_lattice.__wrapped__ is (
                before[("idealshi.arrangement", "intersection_lattice")]
            )
            assert run_command(cli, CHARPOLY).rc == 0
            raise RuntimeError("boom")
    assert _namespace_snapshot() == before
    assert cli.Report.__dict__["render"] is render
    names = {s["name"] for s in tracer.spans}
    assert {"charpoly.count_free_points", "arrangement.intersection_lattice"} <= names


def test_compare_rule():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(parent, [v * 0.8 for v in parent], "lower", 0.1)["verdict"] == "improved"
    assert compare.judge(parent, [v * 1.2 for v in parent], "lower", 0.1)["verdict"] == "REGRESSED"
    assert compare.judge(parent, [v * 1.02 for v in parent], "lower", 0.1)["verdict"] == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.judge(noisy, [v * 1.05 for v in noisy], "lower", 0.1)["verdict"] == "unresolved"
