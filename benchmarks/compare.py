"""Compare two result sets (parent and change) of the benchmark.

For every (workload, end-to-end metric) pair it applies:

* improved   -- the change wins at least 9/10 of the run pairs (ties count
  for neither) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
* unresolved -- the parent's own spread (IQR / median) exceeds the metric's
  bound, unless every change run reads better than every parent run;
* REGRESSED  -- the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
* ok         -- otherwise.

Runs are paired by seed order.  Only untraced runs (``--trace 0``) carry
end-to-end metrics.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9


def load_results(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("trace") == 0 and "metrics" in doc:
            runs.append(doc)
    return runs


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, direction) for p, c in pairs)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    worse = (med_c - med_p) / med_p if direction == "lower" else (med_p - med_c) / med_p
    all_better = all(_better(c, p, direction) for p in parent for c in change)
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(med_c - med_p) > iqr and worse < 0:
        verdict = "improved"
    elif iqr / med_p > bound:
        verdict = "improved" if all_better else "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    else:
        verdict = "ok"
    return {
        "parent_median": med_p,
        "parent_iqr": iqr,
        "change_median": med_c,
        "worse_share": worse,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": verdict,
    }


def _error_rate(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> dict[str, dict]:
    """{workload: {metric: judgement}} for workloads present on both sides."""
    out: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs}):
        p_runs = sorted((r for r in parent_runs if r["workload"] == workload), key=lambda r: r["seed"])
        c_runs = sorted((r for r in change_runs if r["workload"] == workload), key=lambda r: r["seed"])
        row = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row[name] = judge(
                [r["metrics"][name] for r in p_runs],
                [r["metrics"][name] for r in c_runs],
                metric["better"],
                metric["bound"],
            )
        row["error_rate"] = {"parent": _error_rate(p_runs), "change": _error_rate(c_runs)}
        out[workload] = row
    return out


def format_rows(result: dict[str, dict], spec: dict) -> str:
    names = [m["name"] for m in spec["end_to_end"]]
    lines = ["workload           " + "  ".join(f"{n:<34}" for n in names) + "  error_rate"]
    for workload, row in result.items():
        cells = []
        for n in names:
            j = row[n]
            cells.append(
                f"{j['parent_median']:.4g}->{j['change_median']:.4g} "
                f"{j['change_median'] / j['parent_median'] - 1:+.1%} {j['verdict']} ({j['wins']}/{j['pairs']})"
            )
        err = row["error_rate"]
        lines.append(
            f"{workload:<18} " + "  ".join(f"{c:<34}" for c in cells)
            + f"  {err['parent']:.3g}->{err['change']:.3g}"
        )
    return "\n".join(lines)
