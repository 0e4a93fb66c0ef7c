"""Regenerate bench/reference.json, the reference curves of the benchmark.

    python3 bench/make_reference.py [--workers 2]

Computes Q*(R) and E*(R) of every workload ensemble at production settings
(resolution 40, 32 starts, seed 0), and again at each workload's own settings
and solver seed, and records them on a fixed grid of reference rates with the
settings, the commit and the source hash.  Curves are identical for any
worker count, so --workers only changes how long this takes.  Benchmark runs
only read the file.
"""

import argparse
import json
import platform
import time
from dataclasses import asdict

import workloads as wl


def rate_grid(lo: float, hi: float) -> list:
    n = wl.REFERENCE_POINTS
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def curve_entry(curve) -> dict:
    rates = rate_grid(*curve.domain)
    return {"R": rates, "value": [curve.value(R) for R in rates],
            "samples": [list(sample) for sample in curve.samples]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    wl.import_tradeoff()
    import numpy
    from tradeoff.ensembles import builtin_ensemble
    from tradeoff.optimizer import compute_curves

    def curves_entry(name, resolution, multistarts, seed):
        start = time.perf_counter()
        curves = compute_curves(builtin_ensemble(name), resolution,
                                multistarts=multistarts, seed=seed,
                                workers=args.workers)
        seconds = time.perf_counter() - start
        print(f"{name} at {multistarts} starts: {seconds:.1f} s", flush=True)
        return {"stats": asdict(curves.stats), "Hc": curves.critical.Hc,
                "qct": curve_entry(curves.qct), "rsp": curve_entry(curves.rsp),
                "seconds": seconds}

    production = {name: curves_entry(name, **wl.PRODUCTION_SETTINGS)
                  for name in sorted({w["ensemble"] for w in wl.WORKLOADS.values()})}
    workloads = {}
    for workload in wl.WORKLOADS:
        cfg = wl.settings(workload)
        own = {"resolution": cfg["resolution"], "multistarts": cfg["multistarts"],
               "seed": wl.SOLVER_SEED}
        workloads[workload] = {"ensemble": cfg["ensemble"], "settings": own,
                               **curves_entry(cfg["ensemble"], **own)}
    payload = {
        "settings": dict(wl.PRODUCTION_SETTINGS, workers=args.workers),
        "tolerance": wl.CURVE_TOL,
        "commit": wl.git_commit(),
        "source_sha256": wl.source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "production": production,
        "workloads": workloads,
    }
    wl.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n",
                                 encoding="utf-8")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
