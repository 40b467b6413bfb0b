"""Exact bytes of every CSV writer: excel dialect, '\\r\\n' terminators, repr floats."""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.duhamel import DuhamelGrid
from mvsde.experiments import ExperimentReport, Series, emit_report
from mvsde.gaussian_kernel import exponent_scan
from mvsde.measures import GridSpec, Measure, read_csv, resample, write_csv


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
        grid=GridSpec([0.0], [1.0], (2,)), s=0.0, t=0.5, x0=0.0,
        times=np.array([0.25, 0.5]), p=np.array([[1.0, 0.5], [0.25, 1e-07]]),
        iterations=3, residuals=(0.5, np.float64(1e-07), 1e17),
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


def _csv_writer_text(header, rows):
    """What ``csv.writer`` writes for these rows of Python numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_write_csv_matches_csv_writer_on_edge_values():
    # Signed zeros (a column mixing them must not be taken as constant), a
    # constant column, Python ints, the smallest subnormal and the
    # exponent-notation thresholds of repr.
    columns = [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, -0.0, -0.0, -0.0],
        [1, 2, 3, 10**15],
        [5e-324, 1e16, 1e22, 1e15],
        [0.1, 0.1, 0.1, 0.1],
    ]
    header = ["a", "b", "c", "d", "e"]
    buf = io.StringIO()
    write_csv(buf, header, columns)
    assert buf.getvalue() == _csv_writer_text(header, [list(r) for r in zip(*columns)])
    buf.seek(0)
    back_header, back = read_csv(buf)
    assert back_header == header
    assert back.tobytes() == np.array(columns, dtype=float).T.tobytes()


def test_write_csv_blocks_and_empty_blocks():
    buf = io.StringIO()
    write_csv(buf, ["t", "x"], [np.full(2, 0.5), [1.0, 2.0]], [[], []],
              [np.full(1, -0.0), [3.0]])
    assert buf.getvalue() == "t,x\r\n0.5,1.0\r\n0.5,2.0\r\n-0.0,3.0\r\n"
    empty = io.StringIO()
    write_csv(empty, ["t", "x"])
    assert empty.getvalue() == "t,x\r\n"


def test_resampled_law_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    law = resample(Measure.from_points(rng.normal(size=(300, 1)) * 1e3), 97, 2)
    buf = io.StringIO()
    law.to_csv(buf)
    rows = np.column_stack([law.weights, law.points]).tolist()
    assert buf.getvalue() == _csv_writer_text(["w", "x1"], rows)
    p = tmp_path / "law.csv"
    law.to_csv(p)
    back = Measure.from_csv(p)
    assert back.points.tobytes() == law.points.tobytes()
    assert back.weights.tobytes() == law.weights.tobytes()


_cells = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22]))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_write_csv_matches_csv_writer(data):
    n = data.draw(st.integers(0, 6))
    columns = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            columns.append([data.draw(_cells)] * n)
        else:
            columns.append(data.draw(st.lists(_cells, min_size=n, max_size=n)))
    header = [f"c{j}" for j in range(len(columns))]
    buf = io.StringIO()
    write_csv(buf, header, columns)
    assert buf.getvalue() == _csv_writer_text(header, [list(r) for r in zip(*columns)])
