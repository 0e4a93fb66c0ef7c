"""Smoke test of the benchmark harness, in about a minute.

    python3 bench/smoke.py

Runs every workload with --trace 0 and with --trace 1 at tiny settings
(resolution 10, 4 starts, 4x4 grid), and requires of each run a last line
that holds exactly the metrics BENCHMARK.json names, with their units, and
no failed check other than the reference comparison: curves from a 10-step
ladder are coarser than the reference's 40 steps and may lie above it by
more than the tolerance, so those failures are counted and shown but allowed.
Then copies BENCHMARK.json and bench/ alone into a scratch directory
and requires the harness to refuse to run there: nonzero exit, no result.
"""

import json
import shutil
import subprocess
import sys

import workloads as wl

TIMEOUT_S = 300
REFERENCE_FAILURE = "above the reference by"


def run(script, *args) -> tuple:
    done = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return done, lines[-1] if lines else ""


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(wl.WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            done, last = run(wl.BENCH / "run.py", "--workload", workload,
                             "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                problems.append(f"{label}: no JSON result (exit "
                                f"{done.returncode})\n{done.stderr[-2000:]}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            saved = json.loads((wl.OUT_DIR / f"result-{workload}-seed1-trace"
                                f"{trace}.json").read_text(encoding="utf-8"))
            coarse = [f for f in saved["failures"] if REFERENCE_FAILURE in f]
            others = [f for f in saved["failures"] if REFERENCE_FAILURE not in f]
            if done.returncode != (1 if coarse else 0) or others:
                problems.append(f"{label}: exit {done.returncode}, failed "
                                f"{others[:5]}\n{done.stderr[-2000:]}")
            if units != expected[trace]:
                problems.append(f"{label}: metrics {units} != {expected[trace]}")
            print(f"{label}: exit {done.returncode}, {result['attempted']} "
                  f"outputs checked, {len(coarse)} above the reference "
                  f"tolerance", flush=True)

    bare = wl.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wl.BENCH, bare / wl.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    done, last = run(bare / wl.BENCH.name / "run.py", "--workload", names[0],
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    if done.returncode == 0 or last.startswith("{"):
        problems.append(f"source-less copy: exit {done.returncode}, last line {last!r}")
    else:
        print(f"source-less copy: exit {done.returncode}, no result")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
