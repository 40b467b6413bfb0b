"""Exact bytes of every CSV writer: excel dialect, '\\r\\n' terminators, repr floats."""

import io

import numpy as np

from mvsde.duhamel import DuhamelGrid
from mvsde.experiments import ExperimentReport, Series, emit_report
from mvsde.gaussian_kernel import exponent_scan
from mvsde.measures import Measure


def test_measure_to_csv_bytes_path_and_buffer(tmp_path):
    m = Measure.from_points([[1e-07, 1e17], [-2.5, 0.1]], [0.25, 0.75])
    expected = "w,x1,x2\r\n0.25,1e-07,1e+17\r\n0.75,-2.5,0.1\r\n"
    p = tmp_path / "m.csv"
    m.to_csv(p)
    assert p.read_bytes() == expected.encode("utf-8")
    buf = io.StringIO()
    m.to_csv(buf)
    assert buf.getvalue() == expected
    one = io.StringIO()
    Measure.from_points([[3.0], [-0.5]]).to_csv(one)
    assert one.getvalue() == "w,x1\r\n0.5,3.0\r\n0.5,-0.5\r\n"


def _tiny_grid():
    return DuhamelGrid(
        x_lo=0.0, x_hi=1.0, cells=2, s=0.0, t=0.5, x0=0.0,
        times=np.array([0.25, 0.5]), p=np.array([[1.0, 0.5], [0.25, 1e-07]]),
        tol=1e-6, iterations=3, residuals=(0.5, np.float64(1e-07), 1e17),
        mass_errors=np.zeros(2), clamped_mass=0.0, max_negative=0.0,
    )


def test_duhamel_density_csv_bytes(tmp_path):
    p = tmp_path / "density.csv"
    _tiny_grid().density_csv(p)
    assert p.read_bytes() == (
        b"t,x,p\r\n0.25,0.25,1.0\r\n0.25,0.75,0.5\r\n"
        b"0.5,0.25,0.25\r\n0.5,0.75,1e-07\r\n"
    )


def test_duhamel_residuals_csv_bytes(tmp_path):
    p = tmp_path / "residuals.csv"
    _tiny_grid().residuals_csv(p)
    # The iteration column is an integer; residuals are repr floats.
    assert p.read_bytes() == b"iter,residual\r\n1,0.5\r\n2,1e-07\r\n3,1e+17\r\n"


def test_emit_report_series_csv_bytes(tmp_path):
    series = Series("outer", ("iteration", "rho_tilde"),
                    ((1, 0.5), (2, np.float64(1e17)), (3, 1e-07)))
    report = ExperimentReport(kind="solve", model="m", assertions=(),
                              series=(series,), metadata={})
    emit_report(report, tmp_path)
    # Series cells are floats, the iteration column included.
    assert (tmp_path / "series_outer.csv").read_bytes() == (
        b"iteration,rho_tilde\r\n1.0,0.5\r\n2.0,1e+17\r\n3.0,1e-07\r\n"
    )


def test_exponent_scan_csv_bytes(tmp_path):
    p = tmp_path / "scan.csv"
    _, rows = exponent_scan(1, 0.5, [0.01, 0.1], csv_path=p)
    expected = "t_s,value,fitted_c\r\n" + "".join(
        ",".join(repr(v) for v in row) + "\r\n" for row in rows
    )
    assert p.read_bytes() == expected.encode("utf-8")
