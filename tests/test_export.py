import json

import numpy as np
import pytest

import tradeoff
from tradeoff.export import (
    CURVE_HEADER,
    SURFACE_HEADER,
    gnuplot_surface_script,
    read_surface_csv,
    write_curve_csv,
    write_surface_csv,
    write_verification_report,
)
from tradeoff.profiles import ClassicalChannel
from tradeoff.surface import surface_grid


def test_curve_csv_and_sidecar(tmp_path, zp_curves):
    path = tmp_path / "qct.csv"
    sidecar = write_curve_csv(zp_curves.qct, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 1 + len(zp_curves.qct.samples)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(zp_curves.qct.samples[0][0])
    assert first[2] == "qct-000"
    channels = json.loads(sidecar.read_text())
    assert set(channels) == {f"qct-{i:03d}"
                             for i in range(len(zp_curves.qct.samples))}
    # Each sidecar matrix reconstructs a valid channel.
    for entry in channels.values():
        ClassicalChannel(np.array(entry["matrix"]))


def test_surface_csv_round_trip(tmp_path, zero_plus, zp_curves):
    grid = surface_grid(zero_plus, 6, 6, curves=zp_curves)
    path = tmp_path / "surf.csv"
    meta_path = write_surface_csv(grid, zero_plus, path)
    rows = read_surface_csv(path)
    assert len(rows) == 36
    k = 0
    for i in range(6):
        for j in range(6):
            R, Q, E, region = rows[k]
            assert R == pytest.approx(float(grid.Rs[i]), abs=1e-10)
            assert Q == pytest.approx(float(grid.Qs[j]), abs=1e-10)
            if np.isinf(grid.E[i, j]):
                assert np.isinf(E)
            else:
                assert E == pytest.approx(float(grid.E[i, j]), abs=1e-10)
            assert region == grid.region[i, j].value
            k += 1
    meta = json.loads(meta_path.read_text())
    assert meta["grid"] == {"nR": 6, "nQ": 6,
                            "R_max": pytest.approx(zp_curves.stats.H),
                            "Q_max": pytest.approx(zp_curves.stats.S)}
    # One version string: the metadata reads the package's.
    assert meta["tool_version"] == tradeoff.__version__
    assert len(meta["ensemble_sha256"]) == 64
    assert meta["chi"] == pytest.approx(zp_curves.stats.chi)


def test_writers_are_deterministic(tmp_path, zero_plus, zp_curves):
    grid = surface_grid(zero_plus, 5, 5, curves=zp_curves)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_surface_csv(grid, zero_plus, a)
    write_surface_csv(grid, zero_plus, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == \
        (tmp_path / "b.meta.json").read_bytes()
    ca, cb = tmp_path / "ca.csv", tmp_path / "cb.csv"
    write_curve_csv(zp_curves.rsp, ca)
    write_curve_csv(zp_curves.rsp, cb)
    assert ca.read_bytes() == cb.read_bytes()


def test_surface_csv_bytes_pinned(tmp_path, zero_plus, zp_curves):
    # The writer formats whole rows of Python floats; the file must match
    # the one formatted cell by cell from the numpy scalars, on a grid with
    # every region, unachievable cells included.
    grid = surface_grid(zero_plus, 33, 33, curves=zp_curves)
    assert {label.value for label in grid.region.ravel()} == {
        "QCT", "LowEntanglement", "HighEntanglement", "Forbidden"}
    lines = [SURFACE_HEADER]
    for i, R in enumerate(grid.Rs):
        for j, Q in enumerate(grid.Qs):
            e = grid.E[i, j]
            e_text = "inf" if np.isinf(e) else f"{float(e):.12g}"
            lines.append(f"{float(R):.12g},{float(Q):.12g},{e_text},"
                         f"{grid.region[i, j].value}")
    path = tmp_path / "surface.csv"
    write_surface_csv(grid, zero_plus, path)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _write(tmp_path, text):
    path = tmp_path / "surface.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_reader_rejects_bad_header(tmp_path):
    with pytest.raises(ValueError, match="header"):
        read_surface_csv(_write(tmp_path, "x,y,z\n0,0,0,QCT\n"))


def test_reader_rejects_field_count(tmp_path):
    bad = f"{SURFACE_HEADER}\n0.1,0.2,0.3\n"
    with pytest.raises(ValueError, match="4 fields"):
        read_surface_csv(_write(tmp_path, bad))


def test_reader_rejects_bad_rates(tmp_path):
    bad = f"{SURFACE_HEADER}\nxyz,0.2,0.3,QCT\n"
    with pytest.raises(ValueError, match="bad rate"):
        read_surface_csv(_write(tmp_path, bad))
    bad = f"{SURFACE_HEADER}\ninf,0.2,0.3,QCT\n"
    with pytest.raises(ValueError, match="finite"):
        read_surface_csv(_write(tmp_path, bad))


def test_reader_rejects_bad_e(tmp_path):
    bad = f"{SURFACE_HEADER}\n0.1,0.2,oops,QCT\n"
    with pytest.raises(ValueError, match="bad E"):
        read_surface_csv(_write(tmp_path, bad))
    bad = f"{SURFACE_HEADER}\n0.1,0.2,-0.5,QCT\n"
    with pytest.raises(ValueError, match="nonnegative"):
        read_surface_csv(_write(tmp_path, bad))
    bad = f"{SURFACE_HEADER}\n0.1,0.2,nan,QCT\n"
    with pytest.raises(ValueError, match="nonnegative"):
        read_surface_csv(_write(tmp_path, bad))


def test_reader_rejects_unknown_region(tmp_path):
    bad = f"{SURFACE_HEADER}\n0.1,0.2,0.3,Nowhere\n"
    with pytest.raises(ValueError, match="unknown region"):
        read_surface_csv(_write(tmp_path, bad))


def test_reader_rejects_empty_body(tmp_path):
    with pytest.raises(ValueError, match="no data rows"):
        read_surface_csv(_write(tmp_path, f"{SURFACE_HEADER}\n"))


def test_reader_accepts_inf_cells(tmp_path):
    good = f"{SURFACE_HEADER}\n0.1,0.05,inf,Forbidden\n0.2,0.3,0.25,QCT\n"
    rows = read_surface_csv(_write(tmp_path, good))
    assert np.isinf(rows[0][2]) and rows[1][2] == 0.25


def test_gnuplot_script_contents(tmp_path, zero_plus, zp_curves):
    grid = surface_grid(zero_plus, 8, 8, curves=zp_curves)
    path = tmp_path / "surf.csv"
    write_surface_csv(grid, zero_plus, path)
    script = gnuplot_surface_script(read_surface_csv(path))
    assert script.startswith("#")
    assert "splot" in script
    assert "$qct" in script and "$lowentanglement" in script
    assert "Forbidden" not in script  # forbidden cells are blanked
    assert "inf" not in script.lower().replace("information", "")


def test_gnuplot_script_requires_achievable_cells():
    with pytest.raises(ValueError, match="no achievable cells"):
        gnuplot_surface_script([(0.1, 0.0, np.inf, "Forbidden")])


def test_verification_report_writer(tmp_path):
    report = {"max_abs_gap": 0.001, "violations": [], "regions": {"QCT": {}}}
    path = tmp_path / "report.json"
    write_verification_report(report, path)
    assert json.loads(path.read_text()) == report
