"""The package as its callers outside it use it: the README's library example
and the benchmark harness, each run as written."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_block_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)
    assert block
    namespace = {}
    exec(block.group(1), namespace)
    # The notes its comments promise of a clean run.
    assert namespace["curves"].diagnostics == ()
    assert namespace["report"]["violations"] == []


@pytest.mark.parametrize("workload", ["bb84-oracle", "zp-cli"])
def test_bench_trace_smoke_runs(workload, tmp_path):
    # bench/workloads.py calls the package's functions by name and wraps
    # them to trace each layer; a renamed or removed one fails this pass.
    # It runs from a copy of bench/ and src/, so that the .bench_out/ it
    # writes next to them is not in the checkout.
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / ".bench_out").mkdir()
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "workloads.py"), "trace",
         "--workload", workload, "--seed", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    checks = json.loads(done.stdout.splitlines()[-1])["checks"]
    assert checks["attempted"] > 0
    assert checks["failures"] == []
