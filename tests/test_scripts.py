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
