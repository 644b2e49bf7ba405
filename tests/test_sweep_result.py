"""``sweep`` returns columns that read as the list of ``SweepRecord``."""

import numpy as np
import pytest

import cmgamma.inequalities as iq
from cmgamma.cli import main

from test_audit_writers import old_sweep

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
    old = old_sweep("INQ1", (1.0, 1.0), GRID)
    assert len(res) == len(old) == 4
    assert list(res) == old
    assert res == old and old == res
    for new, ref in zip(res, old):
        for field in ("id", "params", "point", "lhs_log", "rhs_log",
                      "margin", "holds"):
            assert getattr(new, field) == getattr(ref, field)
            assert type(getattr(new, field)) is type(getattr(ref, field))
        assert isinstance(new.point[0], float)


def test_indexing_and_slices(res):
    old = old_sweep("INQ1", (1.0, 1.0), GRID)
    assert res[0] == old[0]
    assert res[-1] == old[-1]
    assert res[-4] == old[0]
    assert res[1:3] == old[1:3]
    assert res[::-1] == old[::-1]
    assert res[5:] == []
    assert list(reversed(res)) == old[::-1]
    assert old[2] in res
    for bad in (4, -5):
        with pytest.raises(IndexError):
            res[bad]


def test_two_coordinate_records_match():
    grid = [(x, y) for x in (1.0, 2.0, 5.0) for y in (0.5, 2.0, 8.0)]
    res = iq.sweep("H_OMEGA", (0.3, 0.6), grid)
    assert res.points.shape[1] == 2
    assert list(res) == old_sweep("H_OMEGA", (0.3, 0.6), grid)
    assert res[-1].point == (5.0, 8.0)


def test_empty_sweep():
    res = iq.sweep("INQ1", (1.0, 1.0), [(0.5,), (0.25,)])
    assert len(res) == 0 and not res
    assert res == []
    assert list(res) == [] and res[:] == []
    assert res.points.shape == (0, 1)
    assert iq.sweep("BETA_UB", (), []) == []
    assert iq.sweep("BETA_UB", (), []).points.shape == (0, 2)


def test_results_compare_by_records():
    a = iq.sweep("INQ1", (1.0, 1.0), [3.0, 2.0])
    b = iq.sweep("INQ1", (1.0, 1.0), np.array([[2.0], [3.0]]))
    assert a == b
    assert a != iq.sweep("INQ1", (1.0, 1.0), [2.0])
    assert a != "not a result"


def test_nan_fields_match_nan():
    # a list of record objects equals itself and holds its own NaN records
    nan = float("nan")
    res = iq.SweepResult("INQ1", (1.0, 1.0), np.array([[2.0], [3.0]]),
                         np.array([nan, 1.0]), np.array([0.5, nan]),
                         np.array([nan, nan]))
    assert res == res
    assert res == list(res) and list(res) == res
    assert res[0] in res and res[1] in res
    assert res == iq.SweepResult(res.id, res.params, res.points.copy(),
                                 res.lhs_log.copy(), res.rhs_log.copy(),
                                 res.margin.copy())
    assert res != list(res)[::-1]
    assert res[0] not in res[1:]
    assert 0.5 not in res


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
