"""Spans around the public functions of each idealshi module.

The program itself carries no instrumentation: the tracer replaces each
traced function, in every ``idealshi`` module namespace that holds it, by a
wrapper that records a span ``{name, start, end, parent, case}`` plus a few
counts taken from the arguments and the result.  ``Tracer.installed()``
restores every original attribute on exit, so nothing leaks into an
untraced pass.  A layer's self time is its span minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _lattice_counts(args, kwargs, result) -> dict:
    arr = args[0]
    return {
        "key": hash((arr.dim, arr.covectors)),
        "flats": sum(len(level) for level in result.levels),
    }


def _points_counts(args, kwargs, result) -> dict:
    arr, q = args[0], args[1]
    return {"points": q**arr.dim}


def _finite_field_counts(args, kwargs, result) -> dict:
    # One batch is dim+1 interpolation primes plus two witness primes; every
    # count beyond one batch comes from a retry.
    return {"needed": args[0].dim + 3}


def _rank2_counts(args, kwargs, result) -> dict:
    arr2, mult = args[0], args[1]
    return {"key": hash((arr2.covectors, tuple(sorted(mult.items()))))}


def _run_case_label(args, kwargs) -> str:
    spec = args[0]
    return f"{spec.system} k={spec.k} sign={spec.sign} ideal:{spec.subset_index}"


@dataclass(frozen=True)
class Layer:
    module: str  # submodule of idealshi
    attr: str  # function name, or Class.method
    counts: Optional[Callable] = None
    case_label: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("arrangement", "intersection_lattice", _lattice_counts),
    Layer("arrangement", "shi_arrangement"),
    Layer("arrangement", "ziegler_multiplicity"),
    Layer("charpoly", "charpoly_mobius"),
    Layer("charpoly", "charpoly_whitney"),
    Layer("charpoly", "charpoly_finite_field", _finite_field_counts),
    Layer("charpoly", "count_free_points", _points_counts),
    Layer("charpoly", "try_factor_exponents"),
    Layer("multiarr", "exp_rank2_multi", _rank2_counts),
    Layer("multiarr", "derivation_space_dim"),
    Layer("multiarr", "yoshinaga_check"),
    Layer("rootsys", "build"),
    Layer("rootsys", "shi_exponents_dp"),
    Layer("ideals", "enumerate_ideals"),
    Layer("report", "Report.render"),
    Layer("cli", "run_case", case_label=_run_case_label),
)


class Tracer:
    """Collects spans in memory while installed; write them out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.case: Optional[str] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        spans, stack, name = self.spans, self._stack, layer.name

        def traced(*args, **kwargs):
            outer_case = self.case
            if layer.case_label is not None:
                self.case = layer.case_label(args, kwargs)
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": stack[-1] if stack else None,
                "case": self.case,
            }
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.case = outer_case
            if layer.counts is not None:
                span.update(layer.counts(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        return traced

    def _namespaces(self) -> list[object]:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "idealshi" or name.startswith("idealshi."))
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for layer in LAYERS:
            owner = sys.modules[f"idealshi.{layer.module}"]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(owner, layer.attr)
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((hi - lo) - covered)
    return out


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per layer name: calls, total_s, self_s and the summed counts."""
    table = {
        layer.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "keys": set(), "flats": 0,
                     "points": 0, "needed": 0, "counted": 0}
        for layer in LAYERS
    }
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        row = table[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[i]
        for count in ("flats", "points", "needed"):
            row[count] += span.get(count, 0)
        if "key" in span:
            row["keys"].add(span["key"])
        if span["name"] == "charpoly.count_free_points" and span["parent"] is not None:
            parent = spans[span["parent"]]
            if parent["name"] == "charpoly.charpoly_finite_field":
                table[parent["name"]]["counted"] += 1
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: dict[str, dict], traced_wall: float, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics that BENCHMARK.json names, as plain numbers.

    ``traced_wall`` is the wall time of the traced region the spans came
    from.  A layer that never ran reports 0 for its counts, times and ratios.
    """
    lat = table["arrangement.intersection_lattice"]
    pts = table["charpoly.count_free_points"]
    ff = table["charpoly.charpoly_finite_field"]
    r2 = table["multiarr.exp_rank2_multi"]
    named_self = sum(row["self_s"] for row in table.values())
    return {
        "arrangement.intersection_lattice.calls": lat["calls"],
        "arrangement.intersection_lattice.self_s": lat["self_s"],
        "arrangement.intersection_lattice.flats": lat["flats"],
        "arrangement.intersection_lattice.flats_per_s": _ratio(lat["flats"], lat["self_s"]),
        "arrangement.intersection_lattice.distinct_ratio": _ratio(len(lat["keys"]), lat["calls"]),
        "arrangement.shi_arrangement.self_s": table["arrangement.shi_arrangement"]["self_s"],
        "arrangement.ziegler_multiplicity.self_s": table["arrangement.ziegler_multiplicity"]["self_s"],
        "charpoly.charpoly_mobius.calls": table["charpoly.charpoly_mobius"]["calls"],
        "charpoly.count_free_points.calls": pts["calls"],
        "charpoly.count_free_points.self_s": pts["self_s"],
        "charpoly.count_free_points.points": pts["points"],
        "charpoly.count_free_points.points_per_s": _ratio(pts["points"], pts["self_s"]),
        "charpoly.charpoly_finite_field.useful_ratio": _ratio(ff["needed"], ff["counted"]),
        "charpoly.charpoly_whitney.self_s": table["charpoly.charpoly_whitney"]["self_s"],
        "charpoly.try_factor_exponents.self_s": table["charpoly.try_factor_exponents"]["self_s"],
        "multiarr.exp_rank2_multi.calls": r2["calls"],
        "multiarr.exp_rank2_multi.self_s": r2["self_s"],
        "multiarr.exp_rank2_multi.distinct_ratio": _ratio(len(r2["keys"]), r2["calls"]),
        "multiarr.derivation_space_dim.calls": table["multiarr.derivation_space_dim"]["calls"],
        "multiarr.derivation_space_dim.self_s": table["multiarr.derivation_space_dim"]["self_s"],
        "multiarr.yoshinaga_check.calls": table["multiarr.yoshinaga_check"]["calls"],
        "rootsys.build.self_s": table["rootsys.build"]["self_s"],
        "ideals.enumerate_ideals.self_s": table["ideals.enumerate_ideals"]["self_s"],
        "rootsys.shi_exponents_dp.self_s": table["rootsys.shi_exponents_dp"]["self_s"],
        "report.Report.render.self_s": table["report.Report.render"]["self_s"],
        "cli.run_case.calls": table["cli.run_case"]["calls"],
        "cli.run_case.self_s": table["cli.run_case"]["self_s"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.coverage": _ratio(named_self, traced_wall),
    }


def format_table(table: dict[str, dict], traced_wall: float) -> str:
    lines = [f"{'layer':<40} {'calls':>7} {'total_s':>9} {'self_s':>9} {'share':>7}  counts"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        counts = []
        if row["keys"]:
            counts.append(f"distinct={len(row['keys'])}")
        for count in ("flats", "points", "needed", "counted"):
            if row[count]:
                counts.append(f"{count}={row[count]}")
        share = _ratio(row["self_s"], traced_wall)
        lines.append(
            f"{name:<40} {row['calls']:>7} {row['total_s']:>9.4f} {row['self_s']:>9.4f} {share:>7.1%}"
            f"  {' '.join(counts)}"
        )
    return "\n".join(lines)
