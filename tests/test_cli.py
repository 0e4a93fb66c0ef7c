import dataclasses
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tradeoff import optimizer
from tradeoff.cli import _grid_type, build_parser, main
from tradeoff.ensembles import (BUILTIN_NAMES, builtin_ensemble,
                                ensemble_to_dict)

FAST = ["--resolution", "10", "--multistarts", "4", "--workers", "1"]
README = Path(__file__).resolve().parent.parent / "README.md"


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
], ids=["bool-probs", "string-probs", "bool-amplitude", "bool-imaginary"])
def test_non_numbers_exit_1(fields, tmp_path, capsys):
    # JSON true/false must not load as 1/0, nor "0.5" as a probability.
    payload = ensemble_to_dict(builtin_ensemble("zero-plus"))
    payload.update(fields)
    path = tmp_path / "types.json"
    path.write_text(json.dumps(payload))
    assert main(["stats", "--ensemble", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
        channels, converged = fixed_point(*args)
        return channels, np.zeros_like(converged)

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


def test_readme_commands_parse():
    # Parses each example command; runs none of them.
    commands = [shlex.split(line) for line in
                README.read_text(encoding="utf-8").splitlines()
                if line.startswith("tradeoff ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv[1:])


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


def test_cli_import_loads_no_process_pool():
    # The optimizer serves ProcessPoolExecutor only on demand, so no run
    # imports the pool machinery.
    code = ("import sys, tradeoff.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
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
