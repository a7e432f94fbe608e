"""Reference checker: turns every output that differs from the stored
reference into a failed case.

It compares semantic fields only (verdicts, check statuses, characteristic
polynomial coefficients), never report bytes, so a report schema change
that keeps the meaning does not fail a case.

A case fails when its command raises or exits nonzero, prints
``METHOD DISAGREEMENT``, reports a ``SKIPPED`` or ``FAIL`` verdict or check,
or its verdict, its set of checks and their statuses, or its polynomial
differs from the reference.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

BAD_STATUSES = ("FAIL", "SKIPPED")
METHODS = ("mobius", "whitney", "finite-field")
_METHOD_LINE = re.compile(r"^(mobius|whitney|finite-field): (.*)$")
_TERM = re.compile(r"^([+-]?)(\d*)(t(?:\^(\d+))?)?$")


@dataclass
class CommandOutcome:
    """What one CLI command returned: exit code, captured stdout, and the
    exception text when it raised instead of returning."""

    rc: Optional[int]
    stdout: str
    error: Optional[str] = None


@dataclass
class CaseResult:
    key: str
    ok: bool
    reason: str = ""


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def parse_poly(text: str) -> list[int]:
    """Ascending coefficients of a polynomial printed like
    ``t^4 - 37t^3 + 468t^2 - 2160t + 1728``."""
    coeffs: dict[int, int] = {}
    for tok in text.replace("- ", "-").replace("+ ", "+").split():
        m = _TERM.match(tok)
        if m is None or (not m.group(2) and not m.group(3)):
            raise ValueError(f"unparseable polynomial term {tok!r} in {text!r}")
        sign, digits, mono, power = m.groups()
        coef = int(digits) if digits else 1
        degree = (int(power) if power else 1) if mono else 0
        coeffs[degree] = coeffs.get(degree, 0) + (-coef if sign == "-" else coef)
    if not coeffs:
        raise ValueError(f"empty polynomial {text!r}")
    return [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]


def verify_case_key(case: dict) -> str:
    c = case["case"]
    sub = c["subset"]
    return f"{c['system']} k={c['k']} sign={c['sign']} {sub['kind']}:{sub['index']}"


def summarize_verify(stdout: str) -> dict:
    """Reference form of a ``verify --format json`` report."""
    doc = json.loads(stdout)
    out = {}
    for case in doc["cases"]:
        chi = case.get("chi_coeffs")
        out[verify_case_key(case)] = {
            "verdict": case["verdict"],
            "checks": {c["name"]: c["status"] for c in case["checks"]},
            "chi_coeffs": None if chi is None else [int(x) for x in chi],
        }
    return {"cases": out}


def summarize_charpoly(stdout: str) -> dict:
    """Reference form of a ``charpoly`` printout: one polynomial per method,
    ``None`` for a method that was skipped."""
    polys: dict[str, Optional[list[int]]] = {}
    for line in stdout.splitlines():
        m = _METHOD_LINE.match(line)
        if m is None:
            continue
        method, body = m.groups()
        polys[method] = None if body.startswith("skipped") else parse_poly(body)
    return {"polys": polys, "disagreement": "METHOD DISAGREEMENT" in stdout}


def summarize(argv: list[str], stdout: str) -> dict:
    return summarize_verify(stdout) if argv[0] == "verify" else summarize_charpoly(stdout)


def expected_cases(argv: list[str], reference: dict) -> int:
    ref = reference[command_key(argv)]
    return len(ref["cases"]) if "cases" in ref else 1


def check_command(argv: list[str], outcome: CommandOutcome, reference: dict) -> list[CaseResult]:
    """One CaseResult per case the command should have produced."""
    key = command_key(argv)
    ref = reference[key]
    if outcome.error is not None or outcome.rc != 0:
        why = outcome.error or f"exit code {outcome.rc}"
        if "cases" in ref:
            return [CaseResult(k, False, why) for k in ref["cases"]]
        return [CaseResult(key, False, why)]
    try:
        got = summarize(argv, outcome.stdout)
    except (ValueError, KeyError, TypeError) as err:
        n = expected_cases(argv, reference)
        return [CaseResult(key, False, f"unreadable output: {err}")] * n
    if "cases" in ref:
        return _check_verify(ref["cases"], got["cases"])
    return [_check_charpoly(key, ref["polys"], got)]


def _check_verify(ref_cases: dict, got_cases: dict) -> list[CaseResult]:
    results = []
    for key, want in ref_cases.items():
        have = got_cases.get(key)
        if have is None:
            results.append(CaseResult(key, False, "case missing from report"))
            continue
        bad = [f"{n}={s}" for n, s in have["checks"].items() if s in BAD_STATUSES]
        if have["verdict"] in BAD_STATUSES:
            results.append(CaseResult(key, False, f"verdict {have['verdict']}"))
        elif bad:
            results.append(CaseResult(key, False, "check " + ", ".join(bad)))
        elif have["checks"] != want["checks"]:
            results.append(CaseResult(key, False, f"checks {have['checks']} != {want['checks']}"))
        elif have["verdict"] != want["verdict"]:
            results.append(CaseResult(key, False, f"verdict {have['verdict']} != {want['verdict']}"))
        elif have["chi_coeffs"] != want["chi_coeffs"]:
            results.append(CaseResult(key, False, f"chi {have['chi_coeffs']} != {want['chi_coeffs']}"))
        else:
            results.append(CaseResult(key, True))
    for key in got_cases.keys() - ref_cases.keys():
        results.append(CaseResult(key, False, "case not in reference"))
    return results


def _check_charpoly(key: str, ref_polys: dict, got: dict) -> CaseResult:
    if got["disagreement"]:
        return CaseResult(key, False, "METHOD DISAGREEMENT")
    for method in METHODS:
        want, have = ref_polys.get(method), got["polys"].get(method)
        if have != want:
            return CaseResult(key, False, f"{method}: {have} != reference {want}")
    return CaseResult(key, True)
