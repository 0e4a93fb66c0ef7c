import dataclasses
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tradeoff import optimizer
from tradeoff.cli import _grid_type, build_parser, main
from tradeoff.ensembles import (BUILTIN_NAMES, builtin_ensemble,
                                ensemble_to_dict, load_ensemble)
from tradeoff.optimizer import compute_curves

FAST = ["--resolution", "10", "--multistarts", "4", "--workers", "1"]
README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


def test_stats_builtin(capsys):
    assert main(["stats", "--builtin", "zero-plus"]) == 0
    out = capsys.readouterr().out
    assert "states = 2  dimA = 1  dimB = 2" in out
    assert "S = 0.600876036693" in out
    assert "H = 1" in out


@pytest.mark.parametrize("name", ["uniform-qubit-1", "single-entangled"])
def test_stats_prints_no_negative_zero(name, capsys):
    # Pure states and a single-state ensemble have zero entropies.
    assert main(["stats", "--builtin", name]) == 0
    assert "= -0" not in capsys.readouterr().out


def test_stats_from_file(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(ensemble_to_dict(builtin_ensemble("bb84"))))
    assert main(["stats", "--ensemble", str(path)]) == 0
    assert "states = 4" in capsys.readouterr().out


def test_bad_builtin_exits_1(capsys):
    assert main(["stats", "--builtin", "no-such"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["stats", "--ensemble", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["stats", "--ensemble", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_nan_probabilities_exit_1(tmp_path, capsys):
    payload = ensemble_to_dict(builtin_ensemble("zero-plus"))
    payload["probs"][0] = float("nan")  # json writes the NaN literal
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    assert main(["stats", "--ensemble", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


def test_huge_amplitude_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimA": 1, "dimB": 2, "probs": [1.0],
                                "states": [[[1e308, 0.0], [0.0, 0.0]]]}))
    assert main(["stats", "--ensemble", str(path)]) == 1
    assert "state 0 has an amplitude part" in capsys.readouterr().err


@pytest.mark.parametrize("probs, states, message", [
    ([1.0], [[[0.5, 0.0], [0.5, 0.0]]], "state 0 has norm 0.707106781"),
    ([], [], "at least one state"),
], ids=["short-norm", "no-states"])
def test_invalid_ensemble_exits_1(probs, states, message, tmp_path, capsys):
    # Every amplitude part is at most 1, so the norm itself is checked.
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"dimA": 1, "dimB": 2, "probs": probs,
                                "states": states}))
    assert main(["stats", "--ensemble", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_dim_b_one_end_to_end(tmp_path, capsys):
    # With dimB = 1 the Gell-Mann basis is empty and every posterior is the
    # state [1]: B carries nothing, so both curves are flat at 0.
    path = tmp_path / "dim-b-one.json"
    path.write_text(json.dumps(
        {"dimA": 2, "dimB": 1, "probs": [0.5, 0.5],
         "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}))
    assert main(["stats", "--ensemble", str(path)]) == 0
    out = capsys.readouterr().out
    for line in ("S = 0", "Sbar = 0", "chi = 0", "H = 1"):
        assert line in out.splitlines()
    for command in ("qct", "rsp"):
        out_path = tmp_path / f"{command}.csv"
        assert main([command, "--ensemble", str(path), "--out",
                     str(out_path)]) == 0
        assert "diagnostic" not in capsys.readouterr().err
        rows = out_path.read_text().splitlines()[1:]
        assert rows and all(float(row.split(",")[1]) == 0.0 for row in rows)


@pytest.mark.parametrize("fields", [
    {"probs": 5},
    {"probs": None},
    {"states": 5},
    {"probs": [1.0], "states": [5]},
])
def test_wrong_json_types_exit_1(fields, tmp_path, capsys):
    payload = ensemble_to_dict(builtin_ensemble("zero-plus"))
    payload.update(fields)
    path = tmp_path / "types.json"
    path.write_text(json.dumps(payload))
    assert main(["stats", "--ensemble", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fields", [
    {"probs": [True, False]},
    {"probs": ["0.5", "0.5"]},
    {"states": [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    {"states": [[[1.0, 0.0], [0.0, False]], [[0.0, 0.0], [1.0, 0.0]]]},
    {"probs": [5e-5] * 19999 + ["x"],
     "states": [[[1.0, 0.0], [0.0, 0.0]]] * 20000},
    {"probs": [10 ** 400, 0.5]},
    {"dimA": [1] * 20000},
    {"dimA": 10 ** 400},
], ids=["bool-probs", "string-probs", "bool-amplitude", "bool-imaginary",
        "long-probs", "huge-integer", "long-dim", "huge-dim"])
def test_non_numbers_exit_1(fields, tmp_path, capsys):
    # JSON true/false must not load as 1/0, nor "0.5" as a probability.  The
    # one error line names the first bad entry, abbreviated, instead of
    # echoing the whole value: a 20 000-entry list printed 100 KB on stderr,
    # and a 401-digit dimA a 441-character amplitude count.
    payload = ensemble_to_dict(builtin_ensemble("zero-plus"))
    payload.update(fields)
    path = tmp_path / "types.json"
    path.write_text(json.dumps(payload))
    assert main(["stats", "--ensemble", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200


def test_usage_errors_exit_1():
    for argv in ([],
                 ["qct", "--builtin", "zero-plus"],  # missing --out
                 ["stats"],  # missing ensemble source
                 ["stats", "--builtin", "bb84", "--ensemble", "x.json"],
                 ["surface", "--builtin", "bb84", "--grid", "1x9",
                  "--out", "s.csv"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv


def test_qct_writes_curve_and_sidecar(tmp_path, capsys):
    out = tmp_path / "qct.csv"
    code = main(["qct", "--builtin", "zero-plus", "--out", str(out)] + FAST)
    assert code == 0
    assert out.exists() and out.with_suffix(".channels.json").exists()
    assert "support points" in capsys.readouterr().out


def test_surface_then_plot(tmp_path, capsys):
    surf = tmp_path / "surf.csv"
    code = main(["surface", "--builtin", "orthonormal-pair", "--grid", "6x6",
                 "--out", str(surf)] + FAST)
    assert code == 0
    assert surf.with_suffix(".meta.json").exists()
    script = tmp_path / "surf.gp"
    assert main(["plot", "--surface", str(surf), "--out", str(script)]) == 0
    assert "splot" in script.read_text()


def test_negative_seed_exits_1_naming_seed(tmp_path, capsys):
    out = tmp_path / "qct.csv"
    code = main(["qct", "--builtin", "zero-plus", "--seed", "-1",
                 "--out", str(out)] + FAST)
    assert code == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_plot_rejects_malformed_surface(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("R,Q\n1,2\n")
    code = main(["plot", "--surface", str(bad),
                 "--out", str(tmp_path / "x.gp")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_passes_at_default_tolerance(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "orthonormal-pair", "--grid", "6x6",
                 "--out", str(out)] + FAST)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["violations"] == []
    assert "max |gap|" in capsys.readouterr().out


def test_verify_gaps_exit_3(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "orthonormal-pair", "--grid", "6x6",
                 "--tolerance", "1e-9", "--out", str(out)] + FAST)
    assert code == 3
    report = json.loads(out.read_text())
    assert report["violations"]
    assert "violation:" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_verify_rejects_bad_tolerance(tolerance, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "orthonormal-pair", "--grid", "3x3",
                 "--tolerance", tolerance, "--out", str(out)] + FAST)
    assert code == 1
    assert "tolerance must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--tolerance", "nan"],
                                    ["--tolerance", "inf"]])
def test_verify_rejects_bad_options_before_solving(option, tmp_path, capsys,
                                                   monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the curves were solved before the option check")

    monkeypatch.setattr("tradeoff.cli.compute_curves", no_solve)
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "bb84", "--out", str(out)] + option)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# Every command that writes --out, short of its --out.
WRITING_COMMANDS = pytest.mark.parametrize("argv", [
    ["qct", "--builtin", "zero-plus"] + FAST,
    ["rsp", "--builtin", "zero-plus"] + FAST,
    ["surface", "--builtin", "zero-plus", "--grid", "4x4"] + FAST,
    ["verify", "--builtin", "zero-plus", "--grid", "4x4"] + FAST,
    ["plot", "--surface", "surface.csv"],
], ids=["qct", "rsp", "surface", "verify", "plot"])


@WRITING_COMMANDS
def test_missing_out_directory_exits_1_before_solving(argv, tmp_path, capsys,
                                                      monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the curves were solved before the --out check")

    monkeypatch.setattr("tradeoff.cli.compute_curves", no_solve)
    out = tmp_path / "missing" / "a.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out}: no directory to write it in\n")
    assert list(tmp_path.iterdir()) == []


@WRITING_COMMANDS
def test_out_directory_exits_1_before_solving(argv, tmp_path, capsys,
                                              monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the curves were solved before the --out check")

    monkeypatch.setattr("tradeoff.cli.compute_curves", no_solve)
    out = tmp_path / "taken"
    out.mkdir()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: is a directory\n"
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_plot_onto_its_surface_exits_1(tmp_path, capsys, monkeypatch):
    # The same file, named once relative and once absolute.
    monkeypatch.chdir(tmp_path)
    surface = tmp_path / "surface.csv"
    surface.write_text("R,Q\n1,2\n")
    code = main(["plot", "--surface", "surface.csv", "--out", str(surface)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --out {surface}: is the --surface file\n")
    assert surface.read_text() == "R,Q\n1,2\n"


def test_solver_diagnostics_exit_2(zp_curves, tmp_path, capsys, monkeypatch):
    fake = dataclasses.replace(zp_curves,
                               diagnostics=("synthetic: solver stalled",))
    monkeypatch.setattr("tradeoff.cli.compute_curves", lambda *a, **k: fake)
    out = tmp_path / "qct.csv"
    code = main(["qct", "--builtin", "zero-plus", "--out", str(out)])
    assert code == 2
    assert "diagnostic: synthetic" in capsys.readouterr().err
    assert out.exists()  # artifacts are still written alongside the warning


def test_qct_zero_plus_default_run_is_clean(tmp_path, capsys):
    # The README's `tradeoff qct --builtin zero-plus`, at the default
    # resolution and starts: more than half of its starts used to hit the
    # cap of 500 map evaluations, which raised the diagnostic and exit code 2.
    out = tmp_path / "qct.csv"
    assert main(["qct", "--builtin", "zero-plus", "--out", str(out)]) == 0
    assert not [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("diagnostic:")]


def test_cap_diagnostic_printed_once(tmp_path, capsys, monkeypatch):
    # Both curves come from one solve, so its cap note is one line.
    fixed_point = optimizer._fixed_point

    def never_converges(*args):
        return np.zeros_like(fixed_point(*args))

    monkeypatch.setattr(optimizer, "_fixed_point", never_converges)
    out = tmp_path / "surface.csv"
    code = main(["surface", "--builtin", "zero-plus", "--grid", "4x4",
                 "--out", str(out)] + FAST)
    assert code == 2
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("diagnostic:")]
    assert len(notes) == 1 and "map evaluations" in notes[0]


def test_grid_type():
    assert _grid_type("16x16") == (16, 16)
    assert _grid_type("8X4") == (8, 4)
    for bad in ("16", "ax4", "4xb", "1x5", "3x3x3"):
        with pytest.raises(Exception):
            _grid_type(bad)


def test_parser_defaults():
    args = build_parser().parse_args(
        ["surface", "--builtin", "bb84", "--out", "s.csv"])
    assert args.grid == (16, 16)
    assert args.resolution == 40
    assert args.workers is None


# Ensemble files in the JSON schema of ensemble_to_dict.  The qutrit and the
# ququart run the eigendecomposition log step at two dimensions; the
# two-qubit ensemble (dimA = 2) has reduced states that are Hermitian only
# once symmetrized.  Their stats runs take both branches of ensemble_stats:
# Bloch vector lengths at dimB = 2, eigvalsh otherwise.
ENSEMBLE_FILES = {
    "qutrit": {
        "dimA": 1, "dimB": 3, "probs": [0.5, 0.3, 0.2],
        "states": [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0],
             [0.0, 0.0]],
            [[0.5773502691896258, 0.0], [0.0, 0.5773502691896258],
             [0.5773502691896258, 0.0]]]},
    "ququart": {
        "dimA": 1, "dimB": 4, "probs": [0.4, 0.3, 0.2, 0.1],
        "states": [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476],
             [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.5773502691896258, 0.0],
             [0.5773502691896258, 0.0], [0.0, -0.5773502691896258]],
            [[0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [0.7071067811865476, 0.0]]]},
    "two-qubit": {
        "dimA": 2, "dimB": 2, "probs": [0.5, 0.3, 0.2],
        "states": [
            [[0.2996257016633534, 0.39950093555113786],
             [0.19975046777556893, -0.4993761694389223],
             [0.09987523388778446, 0.2996257016633534],
             [-0.39950093555113786, 0.4494385524950301]],
            [[0.6092076990801715, -0.10153461651336192],
             [0.20306923302672383, 0.30460384954008574],
             [-0.30460384954008574, 0.20306923302672383],
             [0.5076730825668095, 0.30460384954008574]],
            [[0.09950371902099893, 0.6965260331469925],
             [-0.3980148760839957, 0.19900743804199786],
             [0.29851115706299675, -0.29851115706299675],
             [0.19900743804199786, 0.29851115706299675]]]},
}

UQ24_SURFACE = ("tradeoff surface --builtin uniform-qubit-24 --grid 33x33 "
                "--out surface.csv")
QUTRIT_QCT = "tradeoff qct --ensemble qutrit.json --out qutrit.csv"

# The runs that exit 2 at seed 0, each naming the re-solve of one beaten
# multiplier (README, exit codes); every other run exits 0.
EXIT_2 = {UQ24_SURFACE, QUTRIT_QCT}

# Runs repeated as console processes under two hash seeds, whose files must
# match byte for byte: a qubit verify, a qubit surface and the qutrit qct.
BYTE_COMPARED = [
    "tradeoff verify --builtin zero-plus --grid 8x8 --out report.json",
    UQ24_SURFACE, QUTRIT_QCT]


def _write_ensemble_files(directory: Path) -> None:
    for name, payload in ENSEMBLE_FILES.items():
        (directory / f"{name}.json").write_text(json.dumps(payload))


def test_critical_rate_of_ensemble_files(tmp_path):
    # At the CLI defaults Q* leaves the line R + Q = S at R = 0.
    _write_ensemble_files(tmp_path)
    curves = compute_curves(load_ensemble(tmp_path / "qutrit.json"))
    assert curves.critical.Hc == 0.0


def test_console_commands_exit_as_stated(tmp_path, monkeypatch):
    # Every `tradeoff` line of the README, then qct and stats on each
    # ensemble file, in order, so that plot reads the surface written before
    # it.  A command the parser rejects raises SystemExit here.
    monkeypatch.chdir(tmp_path)
    _write_ensemble_files(tmp_path)
    lines = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("tradeoff ")]
    assert len(lines) == 6
    for name in ENSEMBLE_FILES:
        lines += [f"tradeoff qct --ensemble {name}.json --out {name}.csv",
                  f"tradeoff stats --ensemble {name}.json"]
    statuses = {line: main(shlex.split(line)[1:]) for line in lines}
    assert statuses == {line: 2 if line in EXIT_2 else 0 for line in lines}
    # The console entry point, under the RuntimeWarning filter that tier-1's
    # does not reach, as two processes per run whose hash seeds differ.
    # Each process runs in its own directory, where a relative PYTHONPATH
    # such as tier-1's src would not find the package.
    src = str(Path(optimizer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {hash_seed: tmp_path / f"hash-{hash_seed}"
            for hash_seed in ("0", "4242")}
    for directory in runs.values():
        directory.mkdir()
        _write_ensemble_files(directory)
    for line in BYTE_COMPARED:
        processes = [subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "tradeoff.cli"] + shlex.split(line)[1:],
            cwd=directory, env={**env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for hash_seed, directory in runs.items()]
        for process in processes:
            err = process.communicate()[1]
            assert process.returncode == statuses[line], (line, err)
    files = [sorted((path.name, path.read_bytes())
                    for path in directory.iterdir())
             for directory in runs.values()]
    assert files[0] == files[1]


def test_workflow_commands_parse():
    # Parses each console-script line of the CI workflow; runs none of them.
    commands = [shlex.split(line)
                for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
                if line.lstrip().startswith("tradeoff ")]
    assert len(commands) == 1
    for argv in commands:
        build_parser().parse_args(argv[1:])


def _workflow_run_blocks() -> list:
    """The shell of each run: step of the CI workflow, cut out by
    indentation, since a block scalar holds every following line indented
    deeper than its key."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    blocks = []
    for i, line in enumerate(lines):
        key = line.lstrip(" -")
        if not key.startswith("run:"):
            continue
        value = key[len("run:"):].strip()
        if value != "|":
            blocks.append(value)
            continue
        indent = len(line) - len(key)
        body = itertools.takewhile(
            lambda text: not text.strip()
            or len(text) - len(text.lstrip()) > indent, lines[i + 1:])
        blocks.append(textwrap.dedent("\n".join(body)))
    return blocks


def test_workflow_shell_parses():
    # bash -n reads each run: block whole, quoting included; it runs
    # nothing.
    blocks = _workflow_run_blocks()
    assert len(blocks) == 4
    for block in blocks:
        result = subprocess.run(["bash", "-n"], input=block, text=True,
                                capture_output=True)
        assert result.returncode == 0, (block, result.stderr)


def test_surface_bytes_independent_of_workers(tmp_path):
    # --workers is still accepted and has no effect on the artifacts.
    base = ["surface", "--builtin", "zero-plus", "--grid", "5x5",
            "--resolution", "8", "--multistarts", "4"]
    a = tmp_path / "a.csv"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    b = tmp_path / "b.csv"
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_import_loads_no_scipy():
    # Import time and peak memory of every CLI run include what this pulls in.
    code = ("import sys, tradeoff, tradeoff.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_verify_run_loads_no_numpy_random(tmp_path):
    # The random starts come from Python's random stream, so a run that
    # solves, builds the oracle and writes its report never imports
    # numpy.random, which loads ten extension modules.  Only a surface
    # writes an ensemble hash, so no other run loads OpenSSL's _hashlib.
    out = tmp_path / "report.json"
    args = ["verify", "--builtin", "bb84", "--out", str(out)] + FAST
    code = ("import sys; from tradeoff import cli; "
            f"assert cli.main({args!r}) == 0; "
            "assert 'numpy.random' not in sys.modules; "
            "assert '_hashlib' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert out.exists()


def test_cli_import_loads_no_process_pool():
    # The optimizer serves ProcessPoolExecutor only on demand, so no run
    # imports the pool machinery; ensemble_hash imports hashlib when called,
    # so importing the CLI loads no _hashlib either.
    code = ("import sys, tradeoff.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing', '_hashlib') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
    assert optimizer.ProcessPoolExecutor.__name__ == "ProcessPoolExecutor"


def test_builtin_help_names_each_builtin_once(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["qct", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    help_text = re.search(r"--builtin NAME (.*?) --resolution", text).group(1)
    for name in BUILTIN_NAMES:
        assert help_text.count(name) == 1
