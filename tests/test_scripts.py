import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, extra", [
    ("curve_sweep", []),
    ("surface_figure", ["--grid", "4x4"]),
])
def test_script_runs_on_uniform_qubit_family(name, extra, tmp_path, capsys):
    argv = ["--ensemble", "uniform-qubit-3", "--resolution", "4",
            "--multistarts", "2", "--out-dir", str(tmp_path)] + extra
    assert _script(name).main(argv) == 0
    assert "ensemble uniform-qubit-3" in capsys.readouterr().out
    assert list(tmp_path.glob("uniform-qubit-3_*.csv"))


@pytest.mark.parametrize("name, extra, message", [
    ("curve_sweep", ["--ensemble", "nope.json"], "unknown built-in ensemble"),
    ("surface_figure", ["--ensemble", "nope.json"], "unknown built-in ensemble"),
    ("curve_sweep", ["--ensemble", "uniform-qubit-3", "--resolution", "1"],
     "resolution must be at least 2"),
])
def test_script_bad_input_is_an_error_line(name, extra, message, tmp_path,
                                           capsys):
    assert _script(name).main(extra + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_surface_figure_rejects_short_grid_axis(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _script("surface_figure").main(["--grid", "1x1",
                                        "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert "at least 2 points per axis" in capsys.readouterr().err
