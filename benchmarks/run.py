"""Benchmark of idealshi verification campaigns.

Run one workload::

    python3 benchmarks/run.py --workload rank3_campaign --seed 1 --seconds 20 --trace 0

It drives ``idealshi.cli.main`` in this process (``--jobs 1``) over the
workload's command list from ``workloads.json``, in an order permuted by
``--seed``.  Every output is checked against ``reference.json``.

The number of whole passes is fixed before the first one, so it never
depends on how fast the host happens to be: ``--seconds`` divided by the
workload's ``pass_s`` (its pass time on the reference host, in
``workloads.json``), rounded, and at least ``MIN_PASSES``.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
  wall time), ``case_p50_ms`` and ``case_tail_ms`` (per-case latency over
  all passes), ``peak_rss_mb`` (``ru_maxrss`` of this process) and
  ``setup_s`` (median over fresh interpreters that import idealshi and
  build the workload's root systems and ideal lists).
* ``--trace 1`` runs one untraced pass, then one traced pass with spans
  around each module's public functions (see ``tracing.py``), and reports
  the per-layer metrics.  Spans are written as JSONL.

A fixed kernel (``calibrate.py``) is timed before and after every command,
and set-up is sampled before the first pass and after each one.  The
timings in ``metrics`` are divided by the host's slowness around them, so
they read as seconds on the reference host; the raw timings are kept under
``raw`` in the result file and printed alongside.

Every run writes a result file with provenance and every per-run sample to
``benchmarks/results/``.  The last line of stdout is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.

Other modes::

    python3 benchmarks/run.py --compare PARENT_DIR CHANGE_DIR
    python3 benchmarks/run.py --write-reference

The first applies the comparison rule of ``compare.py`` to two directories
of result files; the second regenerates ``reference.json`` from the
current program and refuses when any case fails its own checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import check
import compare
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())
REFERENCE_PATH = BENCH_DIR / "reference.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Set-up is sampled this many times before the first pass and after each
# one, so the samples spread over the run instead of one moment of load.
SETUP_PER_SLOT = 2
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import idealshi\n"
    "for name in sys.argv[2:]: idealshi.enumerate_ideals(idealshi.build(name))\n"
)
MIN_PASSES = 2
# The tail is the highest percentile with at least this many of one pass's
# cases beyond it, never below the median.  It is fixed per workload so a
# parent and a change always compare the same percentile.
TAIL_BEYOND = 10


def import_program():
    """Import idealshi from this checkout's ``src``, or exit 2."""
    if not (SRC / "idealshi" / "__init__.py").is_file():
        sys.stderr.write(f"error: no idealshi sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import idealshi
    import idealshi.cli

    if Path(idealshi.__file__).resolve().parent != SRC / "idealshi":
        sys.stderr.write(f"error: imported idealshi from {idealshi.__file__}, not {SRC}\n")
        sys.exit(2)
    return idealshi


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pass_count(seconds: float, pass_s: float) -> int:
    return max(MIN_PASSES, int(seconds / pass_s + 0.5))


def tail_percentile(cases_per_pass: int) -> float:
    return max(50.0, 100.0 * (1 - TAIL_BEYOND / cases_per_pass))


def measure_setup(systems: list[str]) -> list[float]:
    samples = []
    for _ in range(SETUP_PER_SLOT):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which quantizes the measurement.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *systems],
            check=True,
            stdin=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def run_command(cli, argv: list[str]) -> check.CommandOutcome:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed case, not a benchmark abort
        return check.CommandOutcome(None, buf.getvalue(), traceback.format_exc())
    return check.CommandOutcome(rc, buf.getvalue())


def run_pass(cli, commands: list[list[str]], reference: dict, clock: calibrate.Clock) -> dict:
    """One pass over the command list, calibrating after each command (the
    caller calibrates before the first).  Records each command's time and
    per-case latency samples, and the checker's verdict on every case."""
    timed = []
    for argv in commands:
        cal = len(clock.samples) - 1
        t0 = time.perf_counter()
        outcome = run_command(cli, argv)
        seconds = time.perf_counter() - t0
        clock.calibrate()
        timed.append((argv, outcome, seconds, cal))
    records = []
    failures = []
    attempted = 0
    for argv, outcome, seconds, cal in timed:
        results = check.check_command(argv, outcome, reference)
        attempted += len(results)
        failures.extend(f"{r.key}: {r.reason}" for r in results if not r.ok)
        if argv[0] != "verify":
            case_ms = [seconds * 1000.0]
        elif outcome.rc == 0:
            case_ms = [c["timing_ms"] for c in json.loads(outcome.stdout)["cases"]]
        else:
            case_ms = []
        records.append(
            {"command": check.command_key(argv), "seconds": seconds, "cal": cal, "case_ms": case_ms}
        )
    return {"commands": records, "attempted": attempted, "failures": failures}


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "argv": sys.argv,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["commands"]


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def end_to_end_metrics(
    passes: list[dict], setups: list[dict], clock: calibrate.Clock, cases_per_pass: int, *, raw: bool
) -> dict:
    """The end-to-end metrics, host-speed normalized unless ``raw``."""
    def around(cmd: dict) -> float:
        return 1.0 if raw else clock.around(cmd["cal"])

    walls = [sum(c["seconds"] / around(c) for c in p["commands"]) for p in passes]
    samples = [ms / around(c) for p in passes for c in p["commands"] for ms in c["case_ms"]]
    setup = [t / (1.0 if raw else clock.slowness(s["cal"])) for s in setups for t in s["setup_s"]]
    return {
        "wall_s": statistics.median(walls),
        "case_p50_ms": statistics.median(samples),
        "case_tail_ms": percentile(samples, tail_percentile(cases_per_pass)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def traced_region(
    idealshi, cli, workload: dict, commands, reference, clock: calibrate.Clock, untraced_wall: float
):
    """One traced setup plus pass; returns the pass, tracer, layer table,
    metrics and the traced wall time (calibration excluded)."""
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        tracer.case = "setup"
        for name in workload["systems"]:
            idealshi.ideals.enumerate_ideals(idealshi.rootsys.build(name))
        tracer.case = None
        setup_wall = time.perf_counter() - t0
        traced = run_pass(cli, commands, reference, clock)
    traced_wall = setup_wall + sum(c["seconds"] for c in traced["commands"])
    table = tracing.layer_table(tracer.spans)
    normalized = sum(c["seconds"] / clock.around(c["cal"]) for c in traced["commands"])
    metrics = tracing.layer_metrics(table, traced_wall, normalized / untraced_wall)
    return traced, tracer, table, metrics, traced_wall


def run(args) -> int:
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}\n")
        return 2
    idealshi = import_program()
    os.environ.pop("IDEALSHI_CACHE", None)  # never read an on-disk chi cache
    spec = load_spec()
    reference = load_reference()
    workload = WORKLOADS[args.workload]
    commands = [list(c) for c in workload["commands"]]
    random.Random(args.seed).shuffle(commands)
    cases_per_pass = sum(check.expected_cases(c, reference) for c in commands)

    for name in workload["systems"]:  # finish lazy set-up before timing
        idealshi.enumerate_ideals(idealshi.build(name))
    cli = idealshi.cli

    clock = calibrate.Clock()
    passes: list[dict] = []
    setups: list[dict] = []

    def sample_setup() -> None:
        setups.append({"cal": len(clock.samples) - 1, "setup_s": measure_setup(workload["systems"])})

    n_passes = 1 if args.trace else pass_count(args.seconds, workload["pass_s"])
    clock.calibrate()
    sample_setup()
    for _ in range(n_passes):
        passes.append(run_pass(cli, commands, reference, clock))
        sample_setup()
    e2e = end_to_end_metrics(passes, setups, clock, cases_per_pass, raw=False)
    raw = end_to_end_metrics(passes, setups, clock, cases_per_pass, raw=True)
    every_pass = list(passes)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "commands": [check.command_key(c) for c in commands],
        "cases_per_pass": cases_per_pass,
        "tail_percentile": tail_percentile(cases_per_pass),
        "passes": [p["commands"] for p in passes],
        "setup": setups,
        "end_to_end": e2e,
        "raw": raw,
    }
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    RESULTS_DIR.mkdir(exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.trace:
        traced, tracer, table, layer, traced_wall = traced_region(
            idealshi, cli, workload, commands, reference, clock, e2e["wall_s"]
        )
        every_pass.append(traced)
        spans_path = RESULTS_DIR / f"{stamp}.spans.jsonl"
        tracer.write_jsonl(str(spans_path))
        result.update(
            traced_pass=traced["commands"],
            traced_wall_s=traced_wall,
            spans_file=spans_path.name,
            layers={k: {**v, "keys": len(v["keys"])} for k, v in table.items()},
        )
        print(f"per-layer table ({args.workload}, traced wall {traced_wall:.3f} s):")
        print(tracing.format_table(table, traced_wall))
        metrics = layer
    else:
        metrics = e2e

    result["calibrations_s"] = clock.samples
    attempted = sum(p["attempted"] for p in every_pass)
    failures = [f for p in every_pass for f in p["failures"]]
    result.update(
        attempted=attempted,
        failed=len(failures),
        error_rate=len(failures) / attempted,
        failures=failures,
        metrics=metrics,
    )
    (RESULTS_DIR / f"{stamp}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        f"{args.workload}: {len(every_pass)} passes, {attempted} cases, error_rate "
        f"{len(failures) / attempted:.4g}, tail = p{tail_percentile(cases_per_pass):g} "
        f"of {sum(len(c['case_ms']) for p in passes for c in p['commands'])} samples"
    )
    for name, value in metrics.items():
        unraw = f"  (raw {raw[name]:.6g})" if name in raw and not args.trace else ""
        print(f"  {name}: {value:.6g} {units.get(name, '')}{unraw}")
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                    if name in units},
    }
    print(json.dumps(summary))
    return 0


def write_reference() -> int:
    idealshi = import_program()
    os.environ.pop("IDEALSHI_CACHE", None)
    commands_ref = {}
    for workload in WORKLOADS.values():
        for argv in workload["commands"]:
            key = check.command_key(argv)
            outcome = run_command(idealshi.cli, argv)
            if outcome.error is not None or outcome.rc != 0:
                sys.stderr.write(f"error: {key} failed: {outcome.error or outcome.rc}\n")
                return 1
            ref = {key: check.summarize(argv, outcome.stdout)}
            # Checking the output against itself still flags FAIL/SKIPPED
            # verdicts and method disagreements: refuse such a reference.
            bad = [r for r in check.check_command(argv, outcome, ref) if not r.ok]
            if bad:
                sys.stderr.write(f"error: {key}: {bad[0].key}: {bad[0].reason}\n")
                return 1
            commands_ref.update(ref)
    doc = {"provenance": provenance(0), "commands": commands_ref}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)} with {len(commands_ref)} commands")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.compare:
        spec = load_spec()
        result = compare.compare(
            compare.load_results(args.compare[0]), compare.load_results(args.compare[1]), spec
        )
        print(compare.format_rows(result, spec))
        regressed = any(
            j.get("verdict") == "REGRESSED" for row in result.values() for j in row.values()
        )
        return 1 if regressed else 0
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
