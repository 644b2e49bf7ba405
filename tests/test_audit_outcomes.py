"""One pass of the benchmark's audit and certify workloads, graded by its
own checker.

Every op of seed 101 runs in-process through ``cmgamma.cli.main``, as the
benchmark's worker runs it, and ``perfbench/check.py`` grades it against
the expected outcome and 40-digit mpmath.  No op may fail, the known
lnGamma-cancellation violations (``lg-cancel``) included."""

import contextlib
import io
import pathlib
import sys

from cmgamma.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 101


def _run_pass(workload, tmp_path):
    """(ops run, failed ops, oracle) of one graded pass of seed 101."""
    orc = oracle.Oracle()
    failed = []
    for i, op in enumerate(workloads.generate(workload, SEED)):
        out, err = tmp_path / str(i), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(op["argv"] + ["--out", str(out)])
        text = out.read_text(encoding="utf-8") if out.exists() else None
        outcome = check.check_op(op, rc, err.getvalue(), text, orc,
                                 check.op_rng(SEED, i))
        if not outcome.ok:
            failed.append((op["argv"], outcome.known, outcome.problem))
    return i + 1, failed, orc


def test_audit_pass_fails_no_op(tmp_path):
    ops, failed, orc = _run_pass("audit", tmp_path)
    assert ops == 117
    assert failed == []
    assert orc.ok >= 0.98 * orc.checked


def test_certify_pass_fails_no_op(tmp_path):
    # both routes' values of every row, polygamma's included, are within
    # the oracle's 1e-8
    ops, failed, orc = _run_pass("certify", tmp_path)
    assert ops == 120
    assert failed == []
    assert orc.ok == orc.checked
