"""Workload definitions, output checks and the child-process side of the benchmark.

Every measured pass runs in a fresh process, so that its wall time, CPU time
and peak RSS belong to it alone.  `run.py` starts these processes; this file
is what they run:

    python3 bench/workloads.py setup --workload NAME --seed N [--smoke]
        import tradeoff, build the ensemble and its stats, print the time
    python3 bench/workloads.py pass --workload NAME --seed N [--workers W] [--smoke]
        one untraced pass, its outputs checked
    python3 bench/workloads.py trace --workload NAME --seed N [--smoke]
        one traced pass at one worker plus the side measurements

Each mode prints one JSON object as its last line.  Only the package's public
functions are called; tracing wraps them from here, never from `src/`.

The inputs are the fixed built-in ensembles and the solver seed is fixed at
SOLVER_SEED; the workload seed only labels the run and its files.  Every
variation tried changed the solver's path, so the spread between runs would
measure the seed rather than the program: solver seeds 0, 6, 8 and 13 ran
464 to 500 starts on uq24-surface, and turning zero-plus by a random unitary
on B (which leaves every curve unchanged in exact arithmetic) moved the
zp-cli oracle between 674 and 724 cloud points and its pass between 20 and
31 s.  The reference-point check also needs the solver seed its reference
was made with.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH / "reference.json"

# Why each workload is here is written down in bench/README.md.
WORKLOADS = {
    "zp-cli": {"ensemble": "zero-plus", "multistarts": 16, "workers": 2,
               "grid": (16, 16), "verify": True, "cli": True},
    "bb84-oracle": {"ensemble": "bb84", "multistarts": 8, "workers": 1,
                    "grid": (32, 32), "verify": True, "cli": False},
    "uq24-surface": {"ensemble": "uniform-qubit-24", "multistarts": 4,
                     "workers": 1, "grid": (33, 33), "verify": False,
                     "cli": False},
}
RESOLUTION = 40
SOLVER_SEED = 0
# Tiny settings for bench/smoke.py: every code path, in seconds.
SMOKE = {"resolution": 10, "multistarts": 4, "grid": (4, 4)}

# Reference curves (bench/make_reference.py) on REFERENCE_POINTS rates per
# curve: at production settings, and at each workload's own settings.
PRODUCTION_SETTINGS = {"resolution": 40, "multistarts": 32, "seed": 0}
REFERENCE_POINTS = 41
# The README's certified per-segment gap target (optimizer.REFINE_TARGET).
# Computed curves, like the references, are chords over achievable points,
# so they lie on or above the true convex curve; a curve within the target of
# the truth is within it of any reference.  A reference point fails when the
# curve lies above the workload-settings reference by more than CURVE_TOL;
# the distance above the production reference is reported as curve_excess.
CURVE_TOL = 2e-3
ENDPOINT_TOL = 1e-9
LANDMARK_TOL = 5e-2
# (R, Q, E*) landmarks of the nearly uniform 24-state ensemble (README).
UQ24_LANDMARKS = ((1.0, 0.0, 1.0), (0.0, 0.5, 0.5))
# Side measurements of one scalarized solve: a critical and a far slope.
MU_CRITICAL = 0.62
MU_FAR = 0.05
SOLVE_REPEATS = 3
# The oracle is not part of uq24-surface; the trace measures it beside the
# pass on this grid, so that its layer numbers exist on every workload.
SIDE_ORACLE_GRID = (8, 8)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metrics printed by a traced run, with their units.  Times are
# self times: a span's duration minus that of the wrapped calls inside it,
# so that they add up to trace.accounted_s.
PER_LAYER = {
    "setup.import_s": "s",
    "ensembles.load_s": "s",
    "states.stats_s": "s",
    "optimizer.qct_s": "s",
    "optimizer.rsp_s": "s",
    "optimizer.critical_s": "s",
    "optimizer.solve_crit_ms": "ms",
    "optimizer.solve_far_ms": "ms",
    "optimizer.starts": "count",
    "optimizer.refine_starts": "count",
    "optimizer.support_points": "count",
    "optimizer.pools": "count",
    "optimizer.curve_excess": "bits",
    "profiles.time_s": "s",
    "surface.grid_s": "s",
    "surface.cells_qct": "count",
    "surface.cells_low": "count",
    "surface.cells_high": "count",
    "surface.cells_forbidden": "count",
    "achievability.primitive_s": "s",
    "achievability.build_s": "s",
    "achievability.cloud_points": "count",
    "achievability.mixes": "count",
    "achievability.verify_s": "s",
    "achievability.query_s": "s",
    "achievability.queries": "count",
    "achievability.query_ms_p50": "ms",
    "achievability.query_ms_tail": "ms",
    "achievability.query_tail_pct": "%",
    "achievability.max_abs_gap": "ebits",
    "export.write_s": "s",
    "export.bytes": "count",
    "trace.wall_s": "s",
    "trace.ref_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_s": "s",
    "trace.unaccounted_s": "s",
}

# Span name -> per-layer time metric.
SPAN_METRICS = {
    "setup.import": "setup.import_s",
    "ensembles.load": "ensembles.load_s",
    "states.stats": "states.stats_s",
    "optimizer.qct": "optimizer.qct_s",
    "optimizer.rsp": "optimizer.rsp_s",
    "optimizer.critical": "optimizer.critical_s",
    "profiles.entropic": "profiles.time_s",
    "surface.grid": "surface.grid_s",
    "achievability.primitive": "achievability.primitive_s",
    "achievability.build": "achievability.build_s",
    "achievability.verify": "achievability.verify_s",
    "achievability.query": "achievability.query_s",
    "export.write": "export.write_s",
}

# Public functions wrapped in a traced pass: (module, attribute, span).  Each
# is replaced wherever a tradeoff module binds it, so calls made inside the
# package are caught too; a Class.method is replaced on its class.
TRACED_FUNCTIONS = (
    ("tradeoff.ensembles", "builtin_ensemble", "ensembles.load"),
    ("tradeoff.states", "ensemble_stats", "states.stats"),
    ("tradeoff.optimizer", "qct_curve", "optimizer.qct"),
    ("tradeoff.optimizer", "rsp_curve", "optimizer.rsp"),
    ("tradeoff.optimizer", "critical_rate", "optimizer.critical"),
    ("tradeoff.profiles", "entropic_profile", "profiles.entropic"),
    ("tradeoff.surface", "surface_grid", "surface.grid"),
    ("tradeoff.achievability", "primitive_points", "achievability.primitive"),
    ("tradeoff.achievability", "achievable_hull", "achievability.build"),
    ("tradeoff.achievability", "verify_surface", "achievability.verify"),
    ("tradeoff.achievability", "AchievableHull.min_e", "achievability.query"),
    ("tradeoff.export", "write_verification_report", "export.write"),
    ("tradeoff.export", "write_surface_csv", "export.write"),
)

_REGION_METRICS = {"QCT": "surface.cells_qct",
                   "LowEntanglement": "surface.cells_low",
                   "HighEntanglement": "surface.cells_high",
                   "Forbidden": "surface.cells_forbidden"}


def settings(workload: str, smoke: bool = False) -> dict:
    """Solver and grid settings of a workload, shrunk for the smoke test."""
    cfg = dict(WORKLOADS[workload], name=workload, resolution=RESOLUTION)
    if smoke:
        cfg.update(SMOKE)
    return cfg


def child_env() -> dict:
    """Environment of every benchmark process: this checkout's source, one
    BLAS/OpenMP thread, and the worker count taken from the flags alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("TRADEOFF_THREADS", None)
    return env


def pin_threads() -> None:
    """Apply child_env() to this process; call before numpy is imported."""
    os.environ.update({name: "1" for name in THREAD_VARS})
    os.environ.pop("TRADEOFF_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def output_path(cfg: dict, mode: str, seed: int, workers: int) -> Path:
    return OUT_DIR / f"{cfg['name']}-{mode}-seed{seed}-w{workers}"


def cli_args(cfg: dict, workers: int, out: Path) -> list:
    nR, nQ = cfg["grid"]
    return ["verify", "--builtin", cfg["ensemble"],
            "--grid", f"{nR}x{nQ}", "--resolution", str(cfg["resolution"]),
            "--multistarts", str(cfg["multistarts"]), "--workers", str(workers),
            "--seed", str(SOLVER_SEED), "--out", str(out)]


def source_sha256() -> str:
    """Hash of the package source, standing in for a commit outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tradeoff").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Checks:
    """Checked outputs of a run: how many were attempted, which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def merge(self, record: dict) -> None:
        self.attempted += record["attempted"]
        self.failures.extend(record["failures"])

    def fail_all(self, attempted: int, reason: str) -> None:
        self.attempted += attempted
        self.failures.extend([reason] * attempted)

    def record(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures}


def expected_checks(cfg: dict, traced: bool) -> int:
    """Outputs one pass checks; a crashed pass fails all of them."""
    count = cfg["grid"][0] * cfg["grid"][1] if cfg["verify"] else 0
    count += 1 + 4 + 2 * REFERENCE_POINTS  # stats, endpoints, reference
    if cfg["cli"]:
        count += 1  # exit code
    if cfg["ensemble"] == "uniform-qubit-24":
        count += len(UQ24_LANDMARKS)
    if cfg["cli"] and traced and cfg["workers"] > 1:
        count += 2  # pools pass exit code, identical report
    return count


def check_report(checks: Checks, report: dict, cells: int) -> None:
    """Each verified cell is one output; a cell with a violation fails."""
    bad = {(v["R"], v["Q"]) for v in report["violations"]}
    seen = sum(region["cells"] for region in report["regions"].values())
    failed = min(cells, len(bad) + abs(cells - seen))
    for index in range(cells):
        checks.add("verified cell", index >= failed)


def check_curves(checks: Checks, cfg: dict, curves, reference: dict) -> float:
    """Invariants and endpoints of both curves, and each reference point.

    Returns curve_excess: the largest amount by which a computed curve lies
    above the production reference on the reference R grid.
    """
    production = reference["production"][cfg["ensemble"]]
    own = reference["workloads"][cfg["name"]]
    stats = curves.stats
    got = (stats.S, stats.Sbar, stats.chi, stats.H)
    want = tuple(production["stats"][key] for key in ("S", "Sbar", "chi", "H"))
    checks.add("S, Sbar, chi, H match the reference",
               max(abs(a - b) for a, b in zip(got, want)) <= ENDPOINT_TOL)
    ends = {"qct": ((0.0, stats.S), (stats.H, stats.Sbar)),
            "rsp": ((stats.chi, stats.S), (stats.H, stats.Sbar))}
    excess = -math.inf
    for kind, curve in (("qct", curves.qct), ("rsp", curves.rsp)):
        for label, vertex, target in (("start", curve.samples[0], ends[kind][0]),
                                      ("end", curve.samples[-1], ends[kind][1])):
            checks.add(f"{kind} {label} not at {target}",
                       max(abs(a - b) for a, b in zip(vertex, target))
                       <= ENDPOINT_TOL)
        for R, value in zip(production[kind]["R"], production[kind]["value"]):
            computed = curve.value(R)
            excess = max(excess, math.inf if computed is None else computed - value)
        for R, value in zip(own[kind]["R"], own[kind]["value"]):
            computed = curve.value(R)
            gap = math.inf if computed is None else computed - value
            checks.add(f"{kind}({R:.4f}) above the reference by {gap:.3g} "
                       f"> {CURVE_TOL:g}", gap <= CURVE_TOL)
    return excess


def check_landmarks(checks: Checks, curves) -> None:
    from tradeoff.surface import e_star
    for R, Q, expected in UQ24_LANDMARKS:
        value = e_star(R, Q, curves)
        checks.add(f"e_star({R:g}, {Q:g}) = {value} not within "
                   f"{LANDMARK_TOL:g} of {expected:g}",
                   value is not None and abs(value - expected) <= LANDMARK_TOL)


def import_tradeoff():
    """Import the package from this checkout's src/ and nowhere else."""
    pin_threads()
    import tradeoff
    import tradeoff.cli  # noqa: F401  (loads every module the CLI binds)
    if SRC.resolve() not in Path(tradeoff.__file__).resolve().parents:
        raise SystemExit(f"tradeoff imported from {tradeoff.__file__}, "
                         f"not from {SRC}")
    return tradeoff


def run_workload(checks: Checks, cfg: dict, out: Path, workers: int):
    """One pass: the CLI entry point for zp-cli, the library pipeline for the
    others.  Returns the verify report, or None when the pass has no oracle.

    Functions are looked up on their modules at call time, so the wrappers of
    a traced pass are the ones called.
    """
    from tradeoff import achievability, cli, ensembles, export, optimizer, states, surface
    if cfg["cli"]:
        out = out.with_suffix(".json")
        out.unlink(missing_ok=True)
        code = cli.main(cli_args(cfg, workers, out))
        checks.add(f"CLI exit code {code}", code == 0)
        return json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    ensemble = ensembles.builtin_ensemble(cfg["ensemble"])
    states.ensemble_stats(ensemble)
    curves = optimizer.compute_curves(ensemble, cfg["resolution"],
                                      multistarts=cfg["multistarts"],
                                      seed=SOLVER_SEED, workers=workers)
    nR, nQ = cfg["grid"]
    grid = surface.surface_grid(ensemble, nR, nQ, curves=curves)
    if cfg["verify"]:
        hull = achievability.achievable_hull(curves)
        report = achievability.verify_surface(grid, hull)
        export.write_verification_report(report, out.with_suffix(".json"))
        return report
    export.write_surface_csv(grid, ensemble, out.with_suffix(".csv"))
    return None


def check_pass(checks: Checks, cfg: dict, grid, report, reference) -> dict:
    """Checks shared by untraced and traced passes; returns accuracy figures."""
    figures = {"max_abs_gap": None, "curve_excess": None}
    if report is not None:
        check_report(checks, report, cfg["grid"][0] * cfg["grid"][1])
        figures["max_abs_gap"] = report["max_abs_gap"]
    if grid is not None:
        figures["curve_excess"] = check_curves(checks, cfg, grid.curves,
                                               reference)
        if cfg["ensemble"] == "uniform-qubit-24":
            check_landmarks(checks, grid.curves)
    return figures


def mode_setup(cfg: dict, t0: float) -> dict:
    import_tradeoff()
    from tradeoff.ensembles import builtin_ensemble
    from tradeoff.states import ensemble_stats
    ensemble_stats(builtin_ensemble(cfg["ensemble"]))
    setup_s = time.perf_counter() - t0
    import numpy
    return {"setup_s": setup_s, "numpy": numpy.__version__}


def mode_pass(cfg: dict, seed: int, t0: float) -> dict:
    """One untraced pass at cfg["workers"].  Only surface_grid is wrapped, to
    keep the curves the pass computed (the CLI does not return them)."""
    import_tradeoff()
    checks = Checks()
    keep = Tracer()
    install(keep, [("tradeoff.surface", "surface_grid", "surface.grid")])
    try:
        report = run_workload(checks, cfg, output_path(cfg, "pass", seed,
                                                       cfg["workers"]),
                              cfg["workers"])
        wall = time.perf_counter() - t0
    finally:
        keep.restore()
    figures = check_pass(checks, cfg, keep.results.get("surface.grid"), report,
                         load_reference())
    return {"wall_in_s": wall, "checks": checks.record(), **figures}


class Tracer:
    """Spans recorded around calls into the package, kept in memory.

    A span is [name, parent index, start, end].  Wrappers are installed by
    patch() and removed by restore(); they also keep the last return value
    of each span name in `results`.
    """

    def __init__(self):
        self.spans = []
        self.results = {}
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else None,
                  time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = result
            return result
        return traced

    def patch(self, owners, attr: str, name: str) -> None:
        original = getattr(owners[0], attr)
        wrapper = self._wrap(original, name)
        for owner in owners:
            if vars(owner).get(attr) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def durations(self, name: str) -> list:
        return [end - start for span, _, start, end in self.spans if span == name]

    def self_times(self) -> dict:
        inner = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                inner[parent] += end - start
        totals = {}
        for (name, _, start, end), covered in zip(self.spans, inner):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans
                   if parent is None)


def install(tracer: Tracer, functions) -> None:
    modules = [module for name, module in sys.modules.items()
               if name == "tradeoff" or name.startswith("tradeoff.")]
    for module_name, attr, span in functions:
        owner = sys.modules[module_name]
        if "." in attr:
            cls, attr = attr.split(".")
            tracer.patch([getattr(owner, cls)], attr, span)
        else:
            tracer.patch([owner] + [m for m in modules if m is not owner],
                         attr, span)


def count_pools(module):
    """Count the process pools `module` creates; returns (counter, restore)."""
    base = module.ProcessPoolExecutor
    counter = {"pools": 0}

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            counter["pools"] += 1
            super().__init__(*args, **kwargs)

    module.ProcessPoolExecutor = CountingPool

    def restore():
        module.ProcessPoolExecutor = base
    return counter, restore


def tail_percentile(count: int) -> float:
    """Highest standard percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def percentile_ms(values: list, pct: float) -> float:
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
    return 1e3 * ordered[rank]


def oracle_metrics(tracer: Tracer, hull, report) -> dict:
    queries = tracer.durations("achievability.query")
    tail = tail_percentile(len(queries))
    return {"achievability.cloud_points": hull.size,
            "achievability.mixes": hull.mix_count,
            "achievability.queries": len(queries),
            "achievability.query_ms_p50": percentile_ms(queries, 50.0),
            "achievability.query_ms_tail": percentile_ms(queries, tail),
            "achievability.query_tail_pct": tail,
            "achievability.max_abs_gap": report["max_abs_gap"]}


def solve_ms(ensemble, mu: float, multistarts: int) -> float:
    from tradeoff.optimizer import minimize_profile
    times = []
    for _ in range(SOLVE_REPEATS):
        start = time.perf_counter()
        minimize_profile(ensemble, mu, "XC", multistarts=multistarts,
                         seed=SOLVER_SEED)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def mode_trace(cfg: dict, seed: int, t0: float) -> dict:
    """One traced pass at one worker, then the side measurements."""
    tracer = Tracer()
    with tracer.span("setup.import"):
        tradeoff = import_tradeoff()
    from tradeoff import optimizer
    install(tracer, TRACED_FUNCTIONS)
    pools, restore_pools = count_pools(optimizer)

    checks = Checks()
    out = output_path(cfg, "trace", seed, 1)
    try:
        report = run_workload(checks, cfg, out, 1)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
        restore_pools()
    grid = tracer.results["surface.grid"]
    figures = check_pass(checks, cfg, grid, report, load_reference())

    self_times = tracer.self_times()
    metrics = {metric: self_times.get(span, 0.0)
               for span, metric in SPAN_METRICS.items()}
    curves = grid.curves
    starts = len(tracer.durations("profiles.entropic"))
    metrics.update({
        "optimizer.starts": starts,
        "optimizer.refine_starts": starts - 2 * cfg["resolution"] * cfg["multistarts"],
        "optimizer.support_points": len(curves.qct.samples) + len(curves.rsp.samples),
        "optimizer.pools": pools["pools"],
        "optimizer.curve_excess": figures["curve_excess"],
        "export.bytes": sum(p.stat().st_size for p in OUT_DIR.glob(out.name + ".*")),
        "trace.wall_s": wall,
        "trace.accounted_s": sum(self_times.values()),
        "trace.unaccounted_s": wall - tracer.top_level_s(),
    })
    for metric in _REGION_METRICS.values():
        metrics[metric] = 0
    for label in grid.region.ravel():
        metrics[_REGION_METRICS[label.value]] += 1

    # Side measurements, outside the pass and untraced unless stated.
    ensemble = tradeoff.builtin_ensemble(cfg["ensemble"])
    metrics["optimizer.solve_crit_ms"] = solve_ms(ensemble, MU_CRITICAL,
                                                  cfg["multistarts"])
    metrics["optimizer.solve_far_ms"] = solve_ms(ensemble, MU_FAR,
                                                 cfg["multistarts"])
    if report is not None:
        metrics.update(oracle_metrics(tracer, tracer.results["achievability.build"],
                                      report))
    else:
        metrics.update(side_oracle(ensemble, curves))
    if cfg["cli"] and cfg["workers"] > 1:
        metrics["optimizer.pools"] = pools_pass(checks, cfg, seed, out)
    write_spans(tracer, t0, cfg, seed)
    return {"metrics": metrics, "checks": checks.record(), **figures}


def side_oracle(ensemble, curves) -> dict:
    """Oracle layer numbers for a workload whose pass has no oracle."""
    from tradeoff import achievability, surface
    nR, nQ = SIDE_ORACLE_GRID
    grid = surface.surface_grid(ensemble, nR, nQ, curves=curves)
    side = Tracer()
    install(side, [f for f in TRACED_FUNCTIONS if f[2].startswith("achievability.")])
    try:
        hull = achievability.achievable_hull(curves)
        report = achievability.verify_surface(grid, hull)
    finally:
        side.restore()
    self_times = side.self_times()
    metrics = {metric: self_times.get(span, 0.0)
               for span, metric in SPAN_METRICS.items()
               if span.startswith("achievability.")}
    metrics.update(oracle_metrics(side, hull, report))
    return metrics


def pools_pass(checks: Checks, cfg: dict, seed: int, traced_out: Path) -> int:
    """Run the CLI at the workload's worker count, counting process pools."""
    from tradeoff import optimizer
    out = output_path(cfg, "pools", seed, cfg["workers"])
    pools, restore = count_pools(optimizer)
    try:
        run_workload(checks, cfg, out, cfg["workers"])
    finally:
        restore()
    checks.add("report identical at 1 and at several workers",
               out.with_suffix(".json").read_bytes()
               == traced_out.with_suffix(".json").read_bytes())
    return pools["pools"]


def write_spans(tracer: Tracer, t0: float, cfg: dict, seed: int) -> None:
    spans = [{"name": name, "parent": parent, "start_s": start - t0,
              "end_s": end - t0} for name, parent, start, end in tracer.spans]
    path = OUT_DIR / f"spans-{cfg['name']}-seed{seed}.json"
    path.write_text(json.dumps(spans) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    cfg = settings(args.workload, args.smoke)
    if args.workers is not None:
        cfg["workers"] = args.workers
    if args.mode == "setup":
        result = mode_setup(cfg, t0)
    elif args.mode == "pass":
        result = mode_pass(cfg, args.seed, t0)
    else:
        result = mode_trace(cfg, args.seed, t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
