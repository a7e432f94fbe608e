"""Machine-readable campaign reports: JSON, CSV and terminal tables.

JSON output is deterministic byte for byte for a given tool version and
case set: keys are sorted, fields are stable, and wall-clock timings are
only included on request.  Characteristic-polynomial coefficients are
serialized as decimal strings so arbitrary precision survives any JSON
reader.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _string
from typing import Optional, Sequence

SCHEMA_VERSION = 1

PASS = "PASS"
FAIL = "FAIL"
NOT_FREE_CONFIRMED = "NOT_FREE_CONFIRMED"
SKIPPED = "SKIPPED"


@dataclass
class CheckResult:
    name: str
    status: str  # PASS / FAIL / NOT_FREE_CONFIRMED / SKIPPED
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class CaseRecord:
    system: str
    k: Optional[int]
    sign: Optional[str]
    subset_kind: str  # "ideal" | "roots" | "step"
    subset_index: Optional[int]
    subset_roots: tuple[str, ...]
    arrangement_size: int
    predicted_exponents: Optional[tuple[int, ...]]
    chi_coeffs: Optional[tuple[int, ...]]
    verdict: str
    checks: list[CheckResult] = field(default_factory=list)
    timing_ms: Optional[float] = None

    def to_dict(self, with_timings: bool) -> dict:
        out = {
            "case": {
                "system": self.system,
                "k": self.k,
                "sign": self.sign,
                "subset": {
                    "kind": self.subset_kind,
                    "index": self.subset_index,
                    "roots": list(self.subset_roots),
                },
            },
            "arrangement_size": self.arrangement_size,
            "predicted_exponents": None if self.predicted_exponents is None else list(self.predicted_exponents),
            "chi_coeffs": None if self.chi_coeffs is None else [str(c) for c in self.chi_coeffs],
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
        }
        if with_timings:
            out["timing_ms"] = self.timing_ms
        return out


@dataclass
class Report:
    command: str
    tool_version: str
    cases: list[CaseRecord]

    def summary(self) -> dict:
        verdicts = [c.verdict for c in self.cases]
        return {
            "pass": verdicts.count(PASS),
            "fail": verdicts.count(FAIL),
            "not_free_confirmed": verdicts.count(NOT_FREE_CONFIRMED),
            "skipped": verdicts.count(SKIPPED),
            "tool_version": self.tool_version,
            "seed": 0,
        }

    @property
    def ok(self) -> bool:
        return all(c.verdict != FAIL for c in self.cases)

    def to_json(self, with_timings: bool = False) -> str:
        """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, each record joined as it is encoded."""
        rest = _json({"command": self.command, "schema_version": SCHEMA_VERSION, "summary": self.summary()})
        pieces = ['{\n  "cases": [']  # "cases" sorts first; rest[1:] goes on after it
        for i, case in enumerate(self.cases):
            pieces += (",\n    " if i else "\n    ", _json(case.to_dict(with_timings), "    "))
        pieces.append(("\n  ]," if self.cases else "],") + rest[1:] + "\n")
        return "".join(pieces)

    def to_csv(self, with_timings: bool = False) -> str:
        """One row per case; the columns are the record's fields in order."""
        names = [f.name for f in fields(CaseRecord) if with_timings or f.name != "timing_ms"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_csv_cell(getattr(c, name)) for name in names] for c in self.cases)
        return buf.getvalue()

    def to_pretty(self) -> str:
        lines = []
        for c in self.cases:
            subset = ",".join(c.subset_roots) or "(empty)"
            if c.subset_kind == "step":
                head = f"{c.system} step {c.subset_index}"
            else:
                sign = c.sign or ""
                head = f"{c.system} k={c.k} {sign}{{{subset}}}"
            exps = "(" + ",".join(map(str, c.predicted_exponents)) + ")" if c.predicted_exponents else "-"
            checks = " ".join(f"{r.name}:{r.status}" for r in c.checks)
            lines.append(f"{head:<42} |A|={c.arrangement_size:<4} exp={exps:<18} {c.verdict:<19} {checks}")
        s = self.summary()
        lines.append(
            f"summary: pass={s['pass']} fail={s['fail']} "
            f"not_free_confirmed={s['not_free_confirmed']} skipped={s['skipped']}"
        )
        return "\n".join(lines) + "\n"

    def render(self, fmt: str, with_timings: bool = False) -> str:
        if fmt == "json":
            return self.to_json(with_timings)
        if fmt == "csv":
            return self.to_csv(with_timings)
        if fmt == "pretty":
            return self.to_pretty()
        raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(value):
    """Tuples space-joined, checks as ``name=status; ...``, anything else
    as is (the csv writer leaves None empty)."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    if isinstance(value, list):
        return "; ".join(f"{r.name}={r.status}" for r in value)
    return value


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, each line after the first indented by ``indent`` more."""
    pieces: list[str] = []
    _encode(value, indent, pieces)
    return "".join(pieces)


def _encode(value, indent: str, out: list[str]) -> None:
    """Append ``value``'s pieces to ``out``.  Only the types that ``to_dict``
    gives are accepted, so a tuple or a set raises TypeError."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} has no JSON form")
        out.append(float.__repr__(value))
    elif isinstance(value, list):
        inner = indent + "  "
        for i, item in enumerate(value):
            out.append(",\n" + inner if i else "[\n" + inner)
            _encode(item, inner, out)
        out.append("\n" + indent + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        for i, key in enumerate(sorted(value)):
            out.append((",\n" if i else "{\n") + inner + _string(key) + ": ")
            _encode(value[key], inner, out)
        out.append("\n" + indent + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def text_table(rows: Sequence[tuple], headers: Sequence[str]) -> str:
    widths = [len(h) for h in headers]
    str_rows = [[str(x) for x in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(r) for r in str_rows)
    return "\n".join(out) + "\n"
