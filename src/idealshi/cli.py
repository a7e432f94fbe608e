"""Command-line driver: verification campaigns over (type, k, subset, sign) grids.

Subcommands: roots, ideals, exponents, verify, filtration, charpoly.
Exit codes: 0 all expectations met, 1 at least one mismatch (a genuine
counterexample would land here, so it normally means an implementation
bug), 2 usage error (bad arguments), 3 internal error (a broken invariant,
or any other exception).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import cache, cached_property
from typing import Optional, Sequence

from . import __version__
from .arrangement import (
    MAX_DIM,
    MAX_HYPERPLANES,
    Arrangement,
    LatticeCache,
    SizeBoundError,
    filtration_cone,
    root_arrangement,
    shi_arrangement,
    z_covector,
    ziegler_multiplicity,
)
from .charpoly import (
    CharPoly,
    FactorFailure,
    TeraoVerdict,
    charpoly_finite_field,
    charpoly_mobius,
    charpoly_whitney,
    shi_charpoly,
    terao_check,
    try_factor_exponents,
    whitney_admit,
)
from .ideals import enumerate_ideals
from .multiarr import FreenessVerdict, yoshinaga_check
from .report import (
    FAIL,
    NOT_FREE_CONFIRMED,
    PASS,
    SKIPPED,
    CaseRecord,
    CheckResult,
    Report,
    text_table,
)
from .rootsys import (
    ExponentMultiset,
    Root,
    RootSystem,
    build,
    ideal_exponents,
    is_ideal,
    mask_of,
    roots_of,
    shi_exponents_dp,
    shi_levels,
    shi_plane_count,
    shift_predict,
    weyl_exponents,
)

class UsageError(Exception):
    pass


def _parse_subset(rs: RootSystem, spec: str) -> tuple[int, Optional[int]]:
    """Subset descriptor -> (bitmask, ideal index if given by index)."""
    spec = spec.strip()
    if spec in ("none", "empty"):
        return 0, None
    if spec == "all":
        return (1 << rs.n_positive) - 1, None
    if spec.startswith("ideal:"):
        try:
            idx = int(text := spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"ideal:IDX needs an integer index, got {text!r}") from None
        ideals = enumerate_ideals(rs)
        if not 0 <= idx < len(ideals):
            raise UsageError(f"ideal index {idx} out of range 0..{len(ideals) - 1}")
        return ideals[idx], idx
    roots = [Root.parse(tok, rs.rank) for tok in spec.split(",")]
    return mask_of(rs, roots), None


class SubsetFacts:
    """One subset of a campaign, checked under each sign of ``sign`` ('+', '-'
    or 'both'), and what its checks share across both signs, each computed at
    most once: the ideal test, the cones, their multirestrictions and
    verdicts, and the shift law.  Empty ``checks`` means the defaults for the
    subset.  The characteristic polynomials live in ``cache``, the campaign's table."""

    def __init__(
        self, rs: RootSystem, k: int, sign: str, mask: int, index: Optional[int], checks: tuple[str, ...], cache: LatticeCache
    ):
        self.rs, self.k, self.sign, self.mask, self.subset_index = rs, k, sign, mask, index
        self.system = rs.type
        self.ideal = is_ideal(rs, mask)
        self.checks = checks or _default_checks(self)
        self.cache = cache
        self.sizes: dict[str, int] = {}
        self.arrangements: dict[str, Arrangement] = {}
        self.multirestrictions: dict[str, tuple[Arrangement, dict]] = {}
        self.predictions: dict[str, ExponentMultiset] = {}
        self.terao_verdicts: dict[str, TeraoVerdict] = {}
        self.yoshinaga_verdicts: dict[str, FreenessVerdict] = {}

    def arrangement(self, sign: str) -> Arrangement:
        """This sign's cone, built only once the size guards admit it."""
        if sign not in self.arrangements:
            self.cache.admit(self.rs.rank + 1, self.size(sign))
            self.arrangements[sign] = shi_arrangement(self.rs, self.k, self.mask, sign)
        return self.arrangements[sign]

    def size(self, sign: str) -> int:
        """Planes of this sign's cone, counted once without building it."""
        if sign not in self.sizes:
            self.sizes[sign] = shi_plane_count(self.rs, self.k, self.mask, sign)
        return self.sizes[sign]

    def chi(self, sign: str) -> CharPoly:
        """The polynomial of this sign's cone, by deletion-restriction through the table."""
        return shi_charpoly(self.rs, self.k, self.mask, sign, self.cache, cone=self.arrangement(sign))

    def multirestriction(self, sign: str) -> tuple[Arrangement, dict]:
        """Ziegler's multirestriction of this sign's cone onto {z = 0}."""
        if sign not in self.multirestrictions:
            cone, z = self.arrangement(sign), z_covector(self.rs)
            self.multirestrictions[sign] = ziegler_multiplicity(cone, z, self.cache.traces)
        return self.multirestrictions[sign]

    def yoshinaga(self, sign: str) -> FreenessVerdict:
        if sign not in self.yoshinaga_verdicts:
            chi = self.chi(sign)
            self.yoshinaga_verdicts[sign] = yoshinaga_check(*self.multirestriction(sign), chi, bases=self.cache.rank2_bases)
        return self.yoshinaga_verdicts[sign]

    @cached_property
    def shift_law(self) -> Optional[dict[str, ExponentMultiset]]:
        """Exponents (z included) that the shift law predicts for each sign:
        the split of chi of the subset arrangement, shifted by 2k; None when
        it does not split.  In 2 coordinates every arrangement is free, so
        there the split is exactly the subset's exponent pair."""
        split = try_factor_exponents(charpoly_mobius(root_arrangement(self.rs, self.mask), self.cache))
        if isinstance(split, FactorFailure):
            return None
        return {s: ExponentMultiset((1,) + shift_predict(split, self.k, self.rs.coxeter_number, s).parts) for s in "+-"}


def _check_terao(facts: SubsetFacts, sign: str) -> CheckResult:
    if not facts.ideal:
        return CheckResult("terao", SKIPPED, "dual-partition prediction needs an ideal")
    # the prediction first: the record keeps it even when the guards refuse chi
    predicted = facts.predictions[sign] = shi_exponents_dp(facts.rs, facts.k, facts.mask, sign)
    verdict = facts.terao_verdicts[sign] = terao_check(facts.chi(sign), predicted)
    return CheckResult("terao", PASS if verdict.passed else FAIL, f"chi = {verdict.computed}")


def _check_yoshinaga(facts: SubsetFacts, sign: str) -> CheckResult:
    if facts.rs.rank != 2:
        return CheckResult("yoshinaga", SKIPPED, "complete criterion needs ambient dimension 3")
    verdict = facts.yoshinaga(sign)
    # the canonical order ascends in height: the rank simple roots come first, as filtration_cone relies on
    expected_free = facts.mask == 0 or bool(facts.mask & ((1 << facts.rs.rank) - 1))
    if verdict.free != expected_free:
        return CheckResult("yoshinaga", FAIL, f"freeness {verdict.free}, expected {expected_free}")
    if not verdict.free:
        return CheckResult("yoshinaga", NOT_FREE_CONFIRMED, str(verdict))
    want = facts.shift_law[sign]
    if verdict.exponents != want:
        return CheckResult("yoshinaga", FAIL, f"exponents {verdict.exponents} != shift law {want}")
    return CheckResult("yoshinaga", PASS, str(verdict))


def _check_ziegler(facts: SubsetFacts, sign: str) -> CheckResult:
    rs, step = facts.rs, 1 if sign == "+" else -1
    want = {r.coeffs: 2 * facts.k + step * (facts.mask >> i & 1) for i, r in enumerate(rs.positive_roots)}
    if facts.multirestriction(sign)[1] != want:
        return CheckResult("ziegler", FAIL, "multirestriction onto {z=0} differs from 2k +/- indicator")
    return CheckResult("ziegler", PASS, "multirestriction equals base roots with 2k +/- indicator")


def _check_duality(facts: SubsetFacts, sign: str) -> CheckResult:
    """Sign symmetry of the subset; the same verdict for either ``sign``."""
    if facts.rs.rank == 2:
        plus, minus = facts.yoshinaga("+"), facts.yoshinaga("-")
        if plus.free != minus.free:
            return CheckResult("duality", FAIL, "freeness differs between signs")
        if not plus.free:
            return CheckResult("duality", PASS, "both signs not free")
        for s, verdict in (("+", plus), ("-", minus)):
            if verdict.exponents != facts.shift_law[s]:
                return CheckResult("duality", FAIL, f"sign {s} exponents break the shift law")
        return CheckResult("duality", PASS, "freeness and exponents symmetric across signs")
    # In a rank other than 2 freeness is not certified here, so only the
    # polynomial-level consequences are judged: both signs matching the
    # shifted base exponents, or both provably non-free (chi not split).
    if facts.shift_law is None:
        return CheckResult("duality", SKIPPED, "subset arrangement chi does not split")
    verdicts = [terao_check(facts.chi(s), facts.shift_law[s]) for s in "+-"]
    if all(v.passed for v in verdicts):
        return CheckResult("duality", PASS, "both signs match the shifted base exponents")
    if all(isinstance(try_factor_exponents(v.computed), FactorFailure) for v in verdicts):
        return CheckResult("duality", PASS, "both signs provably not free (chi does not split)")
    return CheckResult("duality", SKIPPED, "inconclusive at the polynomial level in this rank")


CHECKS = {
    "terao": _check_terao,
    "ziegler": _check_ziegler,
    "yoshinaga": _check_yoshinaga,
    "duality": _check_duality,
}


def _verdict(checks: Sequence[CheckResult], refused: bool) -> str:
    """The case verdict; ``refused`` when the size guards turned a check
    away, which leaves the case SKIPPED unless another check failed."""
    statuses = [c.status for c in checks]
    if FAIL in statuses:
        return FAIL
    if refused or (statuses and all(s == SKIPPED for s in statuses)):
        return SKIPPED
    if NOT_FREE_CONFIRMED in statuses:
        return NOT_FREE_CONFIRMED
    return PASS


def run_case(facts: SubsetFacts) -> list[CaseRecord]:
    """One record per sign of the subset, in sign order.  A check that the size
    guards refuse reports SKIPPED under its own name with the guard's message,
    and the later checks still run.  Work that both signs, or several subsets
    of the campaign, share through the chi table ``facts.cache`` is done once,
    and its time is charged to the first record that needs it."""
    t0 = time.perf_counter()
    names = tuple(r.name for r in roots_of(facts.rs, facts.mask))
    records = []
    for sign in _signs(facts.sign):
        checks, refused = [], False
        for name in facts.checks:
            try:
                checks.append(CHECKS[name](facts, sign))
            except SizeBoundError as err:
                checks.append(CheckResult(name, SKIPPED, str(err)))
                refused = True
        predicted, terao = facts.predictions.get(sign), facts.terao_verdicts.get(sign)
        t1 = time.perf_counter()
        records.append(
            CaseRecord(
                system=facts.system,
                k=facts.k,
                sign=sign,
                subset_kind="ideal" if facts.ideal else "roots",
                subset_roots=names,
                subset_index=facts.subset_index,
                arrangement_size=facts.size(sign),
                predicted_exponents=predicted and predicted.parts,
                chi_coeffs=terao and terao.computed.coeffs,
                verdict=_verdict(checks, refused),
                checks=checks,
                timing_ms=(t1 - t0) * 1000.0,
            )
        )
        t0 = t1
    return records


# ---------------------------------------------------------------------------
# subcommands


def cmd_roots(args) -> int:
    rs, _ = _read(args)
    rows = [(i, r.name, r.coeffs, r.height) for i, r in enumerate(rs.positive_roots)]
    sys.stdout.write(text_table(rows, ["idx", "root", "coeffs", "height"]))
    sys.stdout.write(
        f"{rs.type}: {rs.n_positive} positive roots, coxeter number {rs.coxeter_number}\n"
    )
    return 0


def cmd_ideals(args) -> int:
    rs, grid = _read(args)
    rows = []
    for mask, i in grid:
        roots = roots_of(rs, mask)
        rows.append((i, len(roots), ideal_exponents(rs, mask), ", ".join(r.name for r in roots)))
    sys.stdout.write(text_table(rows, ["idx", "size", "exponents", "roots"]))
    return 0


def cmd_exponents(args) -> int:
    rs, grid = _read(args)
    if args.k is None:
        if args.subset is not None or args.all_ideals:
            raise UsageError("--subset and --all-ideals need -k")
        exps = weyl_exponents(rs)
        sys.stdout.write(f"{rs.type}: exponents {exps}, coxeter number {rs.coxeter_number}\n")
        return 0
    rows = []
    for mask, idx in grid:
        if not is_ideal(rs, mask):
            raise UsageError("dual-partition exponents are defined for ideals only")
        label = ",".join(r.name for r in roots_of(rs, mask)) or "(empty)"
        for sign in _signs(args.sign or "both"):
            exps = shi_exponents_dp(rs, args.k, mask, sign)
            rows.append((idx if idx is not None else "-", sign, label, exps))
    sys.stdout.write(text_table(rows, ["ideal", "sign", "roots", "exponents"]))
    return 0


def _signs(sign: str) -> tuple[str, ...]:
    return ("+", "-") if sign == "both" else (sign,)


def _read(args) -> tuple[RootSystem, list[tuple[int, Optional[int]]]]:
    """The root system and the (subset mask, ideal index) grid that the
    arguments name.  Only user input is read here, so a ValueError is a
    usage error: a bad name, a bad subset or the ideal-enumeration bound."""
    try:
        rs = build(args.system)
        if getattr(args, "all_ideals", False):
            return rs, [(mask, i) for i, mask in enumerate(enumerate_ideals(rs))]
        spec = getattr(args, "subset", None)
        return rs, [(0, None) if spec is None else _parse_subset(rs, spec)]
    except ValueError as err:
        raise UsageError(str(err)) from err


def _default_checks(facts: SubsetFacts) -> tuple[str, ...]:
    checks = []
    if facts.ideal:
        checks.append("terao")
    checks.append("ziegler")
    if facts.rs.rank == 2:
        checks.append("yoshinaga")
        if facts.sign == "both":
            checks.append("duality")
    return tuple(checks)


def cmd_verify(args) -> int:
    rs, grid = _read(args)
    checks = () if args.checks is None else tuple(args.checks.split(","))
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; known: {', '.join(CHECKS)}")
    if len(set(checks)) < len(checks):
        raise UsageError(f"--checks {args.checks} names a check more than once")
    _emit("", args, "a")
    sign = args.sign or "both"
    cache = _table(args)
    if len(grid) > 1:  # a campaign holds its largest case, whose restrictions every chain step reads
        cache.hold(rs, args.k, _signs(sign))
    # one subset's facts at a time, so its cones are freed once its records are made
    cases = [c for mask, idx in grid for c in run_case(SubsetFacts(rs, args.k, sign, mask, idx, checks, cache))]
    report = Report(command="verify", tool_version=__version__, cases=cases)
    _emit(report.render(args.format, with_timings=args.timings), args)
    return 0 if report.ok else 1


def _table(args) -> LatticeCache:
    """A fresh in-memory chi table under the size guards the arguments name."""
    return LatticeCache(max_hyperplanes=args.max_hyperplanes, max_dim=args.max_dim)


def cmd_filtration(args) -> int:
    rs, _ = _read(args)
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    _emit("", args, "a")
    cache = _table(args)
    cases = []
    previous: Optional[list[range]] = None
    for i in range(1, args.steps + 1):
        k, mask, sign = filtration_cone(rs, i)  # each step is an ideal-Shi cone, checked as in verify
        [case] = run_case(SubsetFacts(rs, k, sign, mask, i, ("terao",), cache))
        levels, size = shi_levels(rs, k, mask, sign), case.arrangement_size
        chain = [CheckResult("saturated", PASS if size == i else FAIL, f"|A_{i}| = {size}")]
        if previous is not None:
            # each root's levels hold the previous step's; an empty range (k = 0) lies in any range
            nested = all(
                not was or now.start <= was.start and was.stop <= now.stop for was, now in zip(previous, levels)
            )
            chain.append(CheckResult("nested", PASS if nested else FAIL, "previous step contained"))
        verdict = FAIL if any(c.status == FAIL for c in chain) else case.verdict
        cases.append(replace(
            case, k=None, sign=None, subset_kind="step", subset_roots=(), checks=chain + case.checks, verdict=verdict
        ))
        previous = levels
    report = Report(command="filtration", tool_version=__version__, cases=cases)
    _emit(report.render(args.format, with_timings=args.timings), args)
    return 0 if report.ok else 1


def cmd_charpoly(args) -> int:
    rs, [(mask, _)] = _read(args)
    if args.sign == "both":
        raise UsageError("charpoly computes one polynomial: --sign takes + or -")
    sign = args.sign or "+"  # by default the polynomial of the cone adding planes
    if args.k is None:
        arr = root_arrangement(rs, mask if args.subset is not None else None)
        dim, size = arr.dim, arr.size
        label = f"A({args.subset or 'all roots'}) in {arr.dim} coordinates"
    else:
        arr, dim, size = None, rs.rank + 1, shi_plane_count(rs, args.k, mask, sign)  # built once a route admits it
        label = f"Shi k={args.k} sign {sign} subset {{{','.join(r.name for r in roots_of(rs, mask))}}}"
    cache = _table(args)
    polys = {}
    methods = ("mobius", "whitney", "finite-field") if args.method == "all" else (args.method,)
    for method in methods:
        try:
            if method == "whitney":
                whitney_admit(size)
            else:
                cache.admit(dim, size)
            if arr is None:
                arr = shi_arrangement(rs, args.k, mask, sign)
            if method == "mobius":
                polys[method] = charpoly_mobius(arr, cache)
            elif method == "whitney":
                polys[method] = charpoly_whitney(arr)
            else:
                polys[method] = charpoly_finite_field(arr)
        except SizeBoundError as err:
            sys.stdout.write(f"{method}: skipped ({err})\n")
    sys.stdout.write(f"{rs.type} {label}: {size} hyperplanes\n")
    for method, poly in polys.items():
        sys.stdout.write(f"{method}: {poly}\n")
    if len(set(p.coeffs for p in polys.values())) > 1:
        sys.stdout.write("METHOD DISAGREEMENT\n")
        return 1
    if polys:
        split = try_factor_exponents(next(iter(polys.values())))
        sys.stdout.write(f"integer roots: {split}\n")
    return 0


def _emit(text: str, args, mode: str = "w") -> None:
    """Write ``text`` to ``--out``, or to stdout without it.  The report
    commands first append "" to ``--out``, so a path that cannot be
    written is a usage error before any case runs."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, mode) as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write --out {args.out}: {err.strerror}") from err


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, k_required: bool = False, all_ideals: bool = True) -> None:
    p.add_argument("system", help="root system type, e.g. A2, B3, F4")
    p.add_argument("-k", type=int, required=k_required, default=None, help="Shi extension level")
    p.add_argument("--sign", choices=["+", "-", "both"], help="Shi sign, with -k (default both)")
    subsets = p.add_mutually_exclusive_group()
    subsets.add_argument("--subset", help="comma-separated roots (a1,a1+a2), ideal:IDX, none, all")
    if all_ideals:
        subsets.add_argument("--all-ideals", action="store_true", help="run over every ideal")


def _add_limits(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, choices=[1], default=1, help="accepted only as 1, for scripts that pass it")
    p.add_argument("--max-hyperplanes", type=int, default=MAX_HYPERPLANES)
    p.add_argument("--max-dim", type=int, default=MAX_DIM)


def _add_report(p: argparse.ArgumentParser) -> None:
    """Options of the subcommands that emit a Report."""
    _add_limits(p)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--timings", action="store_true", help="include wall-clock fields")


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process, shared by every ``main`` call.  It binds each
    ``cmd_*`` through ``set_defaults``, so tests patch helpers, not ``cmd_*``."""
    parser = argparse.ArgumentParser(
        prog="idealshi",
        description="Exact verification of ideal-Shi arrangement exponent and freeness identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="positive roots with heights")
    p.add_argument("system")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("ideals", help="enumerate ideals of the root poset")
    p.add_argument("system")
    p.set_defaults(func=cmd_ideals, all_ideals=True)

    p = sub.add_parser("exponents", help="Weyl or ideal-Shi dual-partition exponents")
    _add_common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("verify", help="run the freeness/exponent check matrix")
    _add_common(p, k_required=True)
    p.add_argument("--checks", help="comma list naming each check once: terao,ziegler,yoshinaga,duality")
    _add_report(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("filtration", help="saturated chain of the coned affine Weyl arrangement")
    p.add_argument("system")
    p.add_argument("--steps", type=int, required=True)
    _add_report(p)
    p.set_defaults(func=cmd_filtration)

    p = sub.add_parser("charpoly", help="characteristic polynomial by chosen method")
    _add_common(p, all_ideals=False)
    p.add_argument("--method", choices=["mobius", "whitney", "finite-field", "all"], default="all")
    _add_limits(p)
    p.set_defaults(func=cmd_charpoly)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if getattr(args, "k", None) is not None and args.k < 1:
            raise UsageError("k must be a positive integer")
        for guard in ("max_hyperplanes", "max_dim"):
            if getattr(args, guard, 0) < 0:
                raise UsageError(f"--{guard.replace('_', '-')} must not be negative")
        if getattr(args, "sign", None) is not None and args.k is None:
            raise UsageError("--sign needs -k")
        return args.func(args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except Exception as err:
        sys.stderr.write(f"internal error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
