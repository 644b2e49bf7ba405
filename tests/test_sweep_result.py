"""``sweep`` returns columns that hold the old record list's values."""

import numpy as np
import pytest

import cmgamma.inequalities as iq
from cmgamma.cli import main

from test_audit_writers import old_sweep, records_of

GRID = [(5.0,), (0.5,), (1.5,), (3.0,), (2.0,)]


@pytest.fixture
def res():
    return iq.sweep("INQ1", (1.0, 1.0), GRID)


def test_columns(res):
    assert isinstance(res, iq.SweepResult)
    assert res.id == "INQ1" and res.params == (1.0, 1.0)
    assert res.points.shape == (4, 1)
    assert res.points[:, 0].tolist() == [1.5, 2.0, 3.0, 5.0]
    for col in (res.lhs_log, res.rhs_log, res.margin):
        assert col.shape == (4,) and col.dtype == np.float64
    assert np.array_equal(res.margin, res.lhs_log - res.rhs_log)


def test_reads_as_the_record_list(res):
    # row k of the columns is record k of the list sweep once returned
    old = old_sweep("INQ1", (1.0, 1.0), GRID)
    assert len(res) == len(old) == 4
    assert records_of(res) == old
    for new, ref in zip(records_of(res), old):
        for field in ("id", "params", "point", "lhs_log", "rhs_log",
                      "margin", "holds"):
            assert getattr(new, field) == getattr(ref, field)
            assert type(getattr(new, field)) is type(getattr(ref, field))
        assert isinstance(new.point[0], float)


def test_two_coordinate_records_match():
    grid = [(x, y) for x in (1.0, 2.0, 5.0) for y in (0.5, 2.0, 8.0)]
    res = iq.sweep("H_OMEGA", (0.3, 0.6), grid)
    assert res.points.shape[1] == 2
    assert records_of(res) == old_sweep("H_OMEGA", (0.3, 0.6), grid)
    assert res.points[-1].tolist() == [5.0, 8.0]


def test_empty_sweep():
    res = iq.sweep("INQ1", (1.0, 1.0), [(0.5,), (0.25,)])
    assert len(res) == 0 and not res
    assert records_of(res) == []
    assert res.points.shape == (0, 1)
    assert len(iq.sweep("BETA_UB", (), [])) == 0
    assert iq.sweep("BETA_UB", (), []).points.shape == (0, 2)


def test_results_compare_by_records():
    a = iq.sweep("INQ1", (1.0, 1.0), [3.0, 2.0])
    b = iq.sweep("INQ1", (1.0, 1.0), np.array([[2.0], [3.0]]))
    assert records_of(a) == records_of(b)
    assert records_of(a) != records_of(iq.sweep("INQ1", (1.0, 1.0), [2.0]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["--id", "INQ1", "--params", "a=0.5,b=0.7", "--samples", "2000",
     "--seed", "3"],
    ["--id", "H_OMEGA", "--params", "a=0.3,b=0.6", "--grid", "0.9:50:20"],
    ["--id", "WALLIS_LB", "--grid", "1e-3:1e4:300:log"],
])
def test_back_to_back_calls_give_the_same_bytes(capsys, tmp_path, fmt, argv):
    # the benchmark repeats each op in one process: no state may carry over
    outputs = []
    for k in range(3):
        path = tmp_path / f"{k}.{fmt}"
        code = main(["audit", *argv, "--format", fmt, "--out", str(path)])
        outputs.append((code, path.read_bytes(), capsys.readouterr()))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
