"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload zp-cli --seed 1 --seconds 30 --trace 0

Run from any directory; everything is read from and written to the checkout
that holds this file (results and scratch files go to .bench_out/).

With --trace 0 the run repeats the workload's pass, each in a fresh
process, until --seconds would be exceeded (at least once), times set-up in
25 more fresh processes run in batches between the passes, and prints the
medians of the end-to-end metrics.  With --trace 1 it runs one untraced and
one traced pass at one worker and prints the per-layer metrics (--seconds is
not used).  Every pass's outputs are checked; the last line of output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 all checks passed; 1 a check failed or a pass crashed (the
result is still printed); 2 the package source is missing (nothing printed).
"""

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

# Set-up is timed in SETUP_PROBES fresh processes, PROBE_BATCH before each pass.
SETUP_PROBES = 25
PROBE_BATCH = 5
# Any pass still running this long after the start is killed, which leaves
# time to print the result within three minutes.  The longest run, traced
# zp-cli, takes 80-95 s: a machine 1.8x slower over the whole run fits.
RUN_DEADLINE_S = 175.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def spawn(args: list, deadline: float) -> dict:
    """Run one process to its end; wall, CPU and peak RSS of it and its
    reaped children, its exit code and its last line of output."""
    stdout_path = wl.OUT_DIR / "child.stdout"
    stderr_path = wl.OUT_DIR / "child.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=wl.ROOT,
                                env=wl.child_env(), start_new_session=True)
        # The timer only signals; the process is reaped here, by wait4,
        # which also returns its resource usage.
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout_path.read_text(errors="replace").strip().splitlines()
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "last_line": lines[-1] if lines else "",
            "stderr": stderr_path.read_text(errors="replace")}


def child(mode: str, args, deadline: float, workers: int | None = None):
    """Run a workloads.py mode; returns (process record, parsed result)."""
    cmd = [sys.executable, str(wl.BENCH / "workloads.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if args.smoke:
        cmd.append("--smoke")
    proc = spawn(cmd, deadline)
    result = None
    if proc["code"] == 0:
        try:
            result = json.loads(proc["last_line"])
        except json.JSONDecodeError:
            result = None
    if result is None:
        sys.stderr.write(f"{mode} process failed (exit {proc['code']}):\n"
                         f"{proc['stderr'][-4000:]}\n")
    return proc, result


def checked(checks: wl.Checks, expected: int, record, reason: str) -> None:
    """Merge a pass's checks; outputs it did not check count as failed."""
    before = checks.attempted
    if record is not None:
        checks.merge(record)
    missing = expected - (checks.attempted - before)
    if missing > 0:
        checks.fail_all(missing, reason)


def run_pass(args, cfg: dict, checks: wl.Checks, deadline: float) -> tuple:
    """One untraced pass at the workload's worker count, its outputs checked."""
    proc, result = child("pass", args, deadline)
    checked(checks, wl.expected_checks(cfg, traced=False),
            result and result["checks"], "pass crashed")
    figures = {key: result and result[key] for key in ("max_abs_gap", "curve_excess")}
    return proc, figures


def timed_run(args, cfg: dict, checks: wl.Checks, deadline: float) -> tuple:
    """Passes until --seconds would be exceeded, at least one, with the set-up
    probes run in batches between them, so that both sample the same stretch
    of machine time and the probes still to come fit in --seconds."""
    expected = wl.expected_checks(cfg, traced=False)
    probes, probe_walls, passes = [], [], []

    def probe(count: int) -> bool:
        for _ in range(min(count, SETUP_PROBES - len(probes))):
            proc, result = child("setup", args, deadline)
            if result is None:
                checks.fail_all(expected, "setup crashed")
                return False
            probes.append(result)
            probe_walls.append(proc["wall_s"])
        return True

    start = time.monotonic()
    while True:
        if not probe(PROBE_BATCH):
            return {}, probes, passes, {}
        proc, figures = run_pass(args, cfg, checks, deadline)
        if proc["code"] != 0:
            return {}, probes, passes, figures
        passes.append(proc)
        typical = statistics.median(p["wall_s"] for p in passes)
        probing = (SETUP_PROBES - len(probes)) * statistics.median(probe_walls)
        now = time.monotonic()
        if (now - start + typical + probing > args.seconds
                or now + typical + probing > deadline):
            break
    if not probe(SETUP_PROBES):
        return {}, probes, passes, figures
    metrics = {"setup_s": statistics.median(p["setup_s"] for p in probes)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(p[key] for p in passes)
    return metrics, probes, passes, figures


def traced_run(args, cfg: dict, checks: wl.Checks, deadline: float) -> tuple:
    _, probe = child("setup", args, deadline)
    _, ref = child("pass", args, deadline, workers=1)
    checked(checks, wl.expected_checks(dict(cfg, workers=1), traced=False),
            ref and ref["checks"], "untraced pass crashed")
    _, traced = child("trace", args, deadline)
    checked(checks, wl.expected_checks(cfg, traced=True),
            traced and traced["checks"], "traced pass crashed")
    if probe is None or ref is None or traced is None:
        return {}, [probe] if probe else [], [], {}
    metrics = dict(traced["metrics"])
    metrics["trace.ref_wall_s"] = ref["wall_in_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - ref["wall_in_s"]
    figures = {key: traced[key] for key in ("max_abs_gap", "curve_excess")}
    return metrics, [probe], [], figures


def machine(args, probes: list) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = wl.child_env()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": probes[0]["numpy"] if probes else None,
            "threads": {name: env[name] for name in wl.THREAD_VARS},
            "commit": wl.git_commit(), "source_sha256": wl.source_sha256(),
            "seed": args.seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny solver settings, for bench/smoke.py")
    args = parser.parse_args(argv)
    # Stopped from outside, stop the pass too (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (wl.SRC / "tradeoff" / "__init__.py").is_file():
        print(f"error: no package source at {wl.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl.OUT_DIR.mkdir(exist_ok=True)
    cfg = wl.settings(args.workload, args.smoke)
    checks = wl.Checks()
    run = traced_run if args.trace else timed_run
    metrics, probes, passes, figures = run(args, cfg, checks, deadline)
    units = wl.PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units) or not checks.attempted:
        if not checks.failures:
            checks.fail_all(1, "run produced no metrics")
        metrics = {}
    failed = len(checks.failures)
    record = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    info = machine(args, probes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"settings {json.dumps(cfg)}")
    print("machine " + json.dumps(info))
    for name, entry in record["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_frac {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    gap, excess = figures.get("max_abs_gap"), figures.get("curve_excess")
    print("max_abs_gap " + ("not measured on this run" if gap is None
                            else f"{gap:.6g} ebits (surface against oracle)"))
    print("curve_excess " + (
        "not measured on this run" if excess is None else
        f"{excess:.6g} bits above the production reference (README target "
        f"{wl.CURVE_TOL:g} {'met' if excess <= wl.CURVE_TOL else 'missed'})"))
    for reason, count in collections.Counter(checks.failures).most_common(10):
        print(f"failed x{count}: {reason}")
    result_path = wl.OUT_DIR / (f"result-{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    result_path.write_text(json.dumps(
        {**record, "machine": info, "settings": cfg, "figures": figures,
         "setup_probes": [p["setup_s"] for p in probes],
         "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                    for p in passes],
         "failures": checks.failures}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
