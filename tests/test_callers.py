"""The package as its callers use it: the README's library example and the
benchmark harness, each run as written, and the package's own code, which
must read every private name the package defines."""

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tradeoff"


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


def _private_definitions(tree: ast.Module):
    """The module-level functions, classes and assigned names of a module
    whose name starts with exactly one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_no_dead_private_code():
    # A private name that no code in the package reads is dead: only a load
    # of the name, an attribute of that name or an import of it counts, not
    # a mention in a docstring or comment.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    assert defined
    assert [f"{module}: {name}" for module, name in defined
            if name not in used] == []
