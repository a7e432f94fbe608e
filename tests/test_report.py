"""The JSON report encoder: the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealshi.report import PASS, SKIPPED, CaseRecord, CheckResult, Report, _json

TEXT = st.text(st.characters(exclude_categories=()))  # every code point, lone surrogates included
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT
)
DOCS = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4))


@settings(max_examples=300, deadline=None)
@given(DOCS, st.sampled_from(["", "    "]))
@example({"q\"b\\c": ['"\\\x00\x1f\x7f \U0001f600', -0.0, 0.0, 2**100, True, False, None, [], {}]}, "")
def test_encoder_writes_what_json_dumps_writes(doc, indent):
    assert _json(doc, indent) == json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n" + indent)


@pytest.mark.parametrize("value", [(1, 2), {1, 2}, frozenset(), b"x", {"a": [("name", "PASS")]}])
def test_encoder_refuses_what_to_dict_never_gives(value):
    with pytest.raises(TypeError):
        _json(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), [float("-inf")]])
def test_encoder_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        _json(value)


def record(**fields):
    base = dict(
        system="A2", k=1, sign="+", subset_kind="ideal", subset_index=4, subset_roots=("a1", "a2", "a1+a2"),
        arrangement_size=10, predicted_exponents=(1, 4, 5), chi_coeffs=(-20, 29, -10, 1), verdict=PASS,
        checks=[CheckResult("terao", PASS, "chi = t^3 - 10t^2 + 29t - 20")], timing_ms=None,
    )
    return CaseRecord(**{**base, **fields})


SHAPES = {
    "filtration step": record(
        k=None, sign=None, subset_kind="step", subset_index=7, subset_roots=(), arrangement_size=7,
        checks=[CheckResult("saturated", PASS, "|A_7| = 7"), CheckResult("nested", PASS, "previous step contained")],
    ),
    "refused case": record(
        chi_coeffs=None, verdict=SKIPPED, checks=[CheckResult("terao", SKIPPED, "80 hyperplanes exceed bound 73")]
    ),
    "empty ideal": record(subset_index=0, subset_roots=(), predicted_exponents=(1, 3, 3)),
    "timings": record(timing_ms=0.1 + 0.2),
    "no timing taken": record(),
    "no checks": record(checks=[]),
}


def parent_json(report: Report, with_timings: bool) -> str:
    doc = {
        "schema_version": 1,
        "command": report.command,
        "summary": report.summary(),
        "cases": [c.to_dict(with_timings) for c in report.cases],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("with_timings", [False, True], ids=["plain", "timings"])
@pytest.mark.parametrize("shapes", [[name] for name in SHAPES] + [[], list(SHAPES)], ids=lambda s: "+".join(s) or "none")
def test_report_shapes_are_byte_identical(shapes, with_timings):
    report = Report(command="verify", tool_version="0.1.0", cases=[SHAPES[name] for name in shapes])
    assert report.to_json(with_timings) == parent_json(report, with_timings)
    assert report.render("json", with_timings) == report.to_json(with_timings)


def test_json_dumps_is_off_the_report_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    report = Report(command="filtration", tool_version="0.1.0", cases=list(SHAPES.values()))
    want = parent_json(report, True)
    monkeypatch.setattr(json, "dumps", refuse)
    assert report.render("json", with_timings=True) == want
