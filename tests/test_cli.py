"""Command-line driver: exit codes, output formats, determinism, config."""

import json
import math
import warnings

import numpy as np
import pytest

import cmgamma.cm_certify as cmc
import cmgamma.inequalities as iq_mod
from cmgamma.cli import main
from cmgamma.errors import ConvergenceError, DomainError
from cmgamma.kernels import LogDerivResult

CSV_HEADER = "id,params,point,lhs_log,rhs_log,margin,holds"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def synthetic_violation(monkeypatch):
    """Register a deliberately false claim under the id SYN_BAD."""
    syn = iq_mod.InequalityCase(
        id="SYN_BAD", kind="claim", direction="ge",
        lhs_key="recip-gamma", source="1/Gamma(z+1) >= e (test dummy)",
        _check_params=lambda split: None,
        _point_rules=(("z > 0", 0, ">", 0.0),),
        _rhs_fn=lambda split, cols: np.ones_like(cols[0]),
        _sampler_fn=lambda rng, split, n: rng.uniform(1.0, 2.0,
                                                      size=(n, 1)),
    )
    real = iq_mod.get_case
    monkeypatch.setattr(
        iq_mod, "get_case",
        lambda cid: syn if cid == "SYN_BAD" else real(cid))


class TestAuditGrid:
    ARGS = ("audit", "--id", "INQ1", "--params", "a=1,b=1",
            "--grid", "1.001:50:100", "--seed", "42", "--format", "csv")

    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run(capsys, *self.ARGS, "--out", str(f1))
        code2, _, _ = run(capsys, *self.ARGS, "--out", str(f2))
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()
        lines = f1.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 101

    def test_stdout_and_summary_streams(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert "all hold" in err

    def test_summary_on_stdout_with_out_file(self, capsys, tmp_path):
        code, out, err = run(capsys, *self.ARGS, "--out",
                             str(tmp_path / "r.csv"))
        assert code == 0
        assert "all hold" in out
        assert err == ""

    def test_json_payload_shape(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "audit", "--id", "INQ1", "--params",
                         "a=1,b=1", "--grid", "1.001:50:10", "--format",
                         "json", "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        assert list(payload) == ["command", "id", "params", "tol", "seed",
                                 "records", "summary"]
        assert payload["command"] == "audit"
        rec = payload["records"][0]
        assert list(rec) == ["id", "params", "point", "lhs_log", "rhs_log",
                             "margin", "holds"]
        summ = payload["summary"]
        assert summ["points"] == 10
        assert summ["skipped"] == 0
        assert summ["all_hold"] is True
        assert summ["min_margin"] > 0

    def test_explicit_point(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "audit", "--id", "INQ1", "--params",
                         "a=1,b=1,z=2", "--format", "json", "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        (rec,) = payload["records"]
        assert rec["point"] == [2.0]
        assert rec["margin"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_explicit_point_out_of_domain(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=1,b=1,z=0.5")
        assert code == 1
        assert err.startswith("error:")
        assert "requires" in err

    def test_boundary_gridpoint_nudged(self, capsys, tmp_path):
        # linspace(1, 3, 5) starts exactly on the excluded boundary z = 1
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "audit", "--id", "INQ1", "--params",
                         "a=1,b=1", "--grid", "1:3:5", "--format", "json",
                         "--out", str(f))
        assert code == 0
        summ = json.loads(f.read_text())["summary"]
        assert summ["nudged"] == 1
        assert summ["skipped"] == 0
        assert summ["points"] == 5

    def test_two_coordinate_grid_is_cartesian(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "audit", "--id", "INQ51", "--grid",
                         "0:2:3", "--format", "json", "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        assert payload["summary"]["points"] == 9
        pts = [tuple(r["point"]) for r in payload["records"]]
        assert len(set(pts)) == 9

    def test_list_valued_params(self, capsys):
        code, out, _ = run(capsys, "audit", "--id", "MULTI_GE1", "--params",
                           "a=1;2;3", "--grid", "5.5:9:4")
        assert code == 0
        assert out.splitlines()[1].startswith("MULTI_GE1,1;2;3,")


class TestAuditErrors:
    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "NOPE", "--grid",
                           "1:2:3")
        assert code == 1
        assert "unknown inequality id" in err

    def test_missing_point_source(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=1,b=1")
        assert code == 1
        assert "--grid" in err

    def test_two_point_sources(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=1,b=1", "--grid", "2:3:4", "--samples", "5")
        assert code == 1
        assert "exactly one" in err

    def test_malformed_grid(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=1,b=1", "--grid", "1:2")
        assert code == 1
        assert "grid" in err

    def test_bad_param_value(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=x,b=1", "--grid", "2:3:4")
        assert code == 1

    def test_missing_param(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=1", "--grid", "2:3:4")
        assert code == 1
        assert "'b'" in err

    def test_inadmissible_param(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "BETA_UB_DRAGOMIR",
                           "--params", "a=2,b=2")
        assert code == 1
        assert "requires" in err

    def test_nonpositive_tolerance(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=1,b=1", "--grid", "2:3:4", "--tol", "-1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("--id", "INQ57_UB", "--params", "a=0.5,b=0.7,z=1e306"),
        ("--id", "BETA_UB", "--grid", "1e305:1e306:2:log"),
    ], ids=["point", "grid"])
    def test_overflowing_log_gamma_is_an_error(self, capsys, argv):
        # ln Gamma overflows above about 2.5e305 where a side is no
        # table with zero coefficient sum; inf - inf must not become a
        # NaN margin reported as a violation
        code, out, err = run(capsys, "audit", *argv)
        assert code == 1
        assert out == ""
        assert err == ("error: log_gamma overflows double precision "
                       "at x=1e+306\n")

    def test_large_z_two_param_margin_is_finite(self, capsys):
        # the large-z series cancels the lnGamma terms exactly: ab / z
        code, out, _ = run(capsys, "audit", "--id", "INQ1", "--params",
                           "a=0.5,b=0.7,z=1e306", "--format", "json")
        assert code == 0
        assert json.loads(out)["records"][0]["margin"] == \
            pytest.approx(3.5e-307, rel=1e-12)

    @pytest.mark.parametrize("argv,what", [
        (("--id", "WALLIS_LB", "--grid", "1e305:1e308:3:log"),
         "rhs_log -inf is not finite at point (1e+308,)"),
        (("--id", "HALF_SANDWICH_LB", "--params", "z=1.7e308"),
         "rhs_log nan is not finite at point (1.7e+308,)"),
    ], ids=["inf", "nan"])
    def test_non_finite_side_is_an_error(self, capsys, argv, what):
        # 2z overflows in the RHS once the LHS no longer does
        code, out, err = run(capsys, "audit", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {argv[1]}: {what}\n"

    def test_in_domain_point_next_to_a_pole(self, capsys):
        # z = 0.2 > a+b-1 = 0.19999999999999996, where the rounded
        # argument z-a-b+1 is 0.0; the exact offset keeps it at 5.6e-17
        code, out, err = run(capsys, "audit", "--id", "INQ1", "--params",
                             "a=0.5,b=0.7", "--grid", "0.2:1e6:80:log")
        assert code == 0
        assert "points=80 skipped=0" in err and "all hold" in err

    def test_large_z_margin_is_exact(self, capsys):
        code, out, err = run(capsys, "audit", "--id", "INQ1", "--params",
                             "a=0.5,b=0.7,z=1e8", "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["records"][0]["margin"] - 3.5e-9) <= 1e-12

    def test_violation_exits_two(self, capsys, synthetic_violation):
        code, out, err = run(capsys, "audit", "--id", "SYN_BAD", "--grid",
                             "1:2:5")
        assert code == 2
        assert "VIOLATION" in err
        rows = out.splitlines()[1:]
        assert len(rows) == 5
        assert all(row.endswith(",false") for row in rows)


class TestSeedResolution:
    SAMPLE_ARGS = ("audit", "--id", "INQ51", "--samples", "25", "--format",
                   "json")

    def _payload(self, capsys, tmp_path, *extra):
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, *self.SAMPLE_ARGS, "--out", str(f), *extra)
        assert code == 0
        return json.loads(f.read_text())

    def test_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CMGAMMA_SEED", "7")
        p1 = self._payload(capsys, tmp_path)
        p2 = self._payload(capsys, tmp_path)
        assert p1["seed"] == p2["seed"] == 7
        assert p1["records"] == p2["records"]

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CMGAMMA_SEED", "7")
        assert self._payload(capsys, tmp_path, "--seed", "3")["seed"] == 3

    def test_config_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CMGAMMA_SEED", "7")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        assert self._payload(capsys, tmp_path, "--config",
                             str(cfg))["seed"] == 5

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        assert self._payload(capsys, tmp_path, "--config", str(cfg),
                             "--seed", "9")["seed"] == 9

    def test_default_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CMGAMMA_SEED", raising=False)
        assert self._payload(capsys, tmp_path)["seed"] == 42

    def test_seeds_change_samples(self, capsys, tmp_path):
        p1 = self._payload(capsys, tmp_path, "--seed", "1")
        p2 = self._payload(capsys, tmp_path, "--seed", "2")
        assert p1["records"] != p2["records"]

    def test_bad_seed(self, capsys):
        code, _, err = run(capsys, *self.SAMPLE_ARGS, "--seed", "x")
        assert code == 1
        assert "seed" in err

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_negative_seed(self, capsys, tmp_path, monkeypatch, source):
        # NumPy refuses a negative seed with a traceback of its own
        monkeypatch.delenv("CMGAMMA_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -5}))
        extra = {"flag": ("--seed", "-5"), "config": ("--config", str(cfg)),
                 "env": ()}[source]
        if source == "env":
            monkeypatch.setenv("CMGAMMA_SEED", "-5")
        code, out, err = run(capsys, *self.SAMPLE_ARGS, *extra)
        assert (code, out) == (1, "")
        assert err == "error: seed must be >= 0, got -5\n"


class TestConfigFile:
    def test_config_drives_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "id": "INQ1", "params": {"a": 1, "b": 1},
            "grid": "1.001:50:10", "format": "json"}))
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "audit", "--config", str(cfg), "--out",
                         str(f))
        assert code == 0
        assert json.loads(f.read_text())["summary"]["points"] == 10

    def test_flag_point_source_displaces_config_grid(self, capsys,
                                                     tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "id": "INQ1", "params": "a=1,b=1", "grid": "1.001:50:10",
            "format": "json"}))
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "audit", "--config", str(cfg),
                         "--samples", "12", "--out", str(f))
        assert code == 0
        assert json.loads(f.read_text())["summary"]["points"] == 12

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "audit", "--config",
                           str(tmp_path / "missing.json"))
        assert code == 1
        assert "config" in err

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "audit", "--config", str(cfg))
        assert code == 1


    AUDIT = ("audit", "--id", "INQ1", "--params", "a=1,b=1")
    CERTIFY = ("certify", "--params", "a=0.5,b=0.7", "--grid", "1.3:5:3")

    # each value is refused as its flag's text would be, naming the key
    @pytest.mark.parametrize("argv,key,value", [
        (CERTIFY, "family", "bogus"),
        (AUDIT[:1] + AUDIT[3:], "id", 5),
        (AUDIT[:3], "params", 5),
        (AUDIT, "grid", 5),
        (AUDIT, "samples", "abc"),
        (AUDIT, "samples", 2.7),
        (AUDIT, "samples", True),
        (AUDIT, "tol", "x"),
        (AUDIT, "seed", 2.7),
        (CERTIFY + ("--family", "two-param"), "n_max", 2.5),
        (("bounds", "--params", "z=2"), "target", [1]),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else None)
    def test_malformed_config_value(self, capsys, tmp_path, argv, key,
                                    value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith(f"error: config {key!r}: ")
        assert len(err.splitlines()) == 1

    def test_config_param_text_cannot_add_parameters(self, capsys,
                                                     tmp_path):
        # "1,b=1" as --params text would give the case a b it was not given
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"id": "INQ1",
                                   "params": {"a": "1,b=1", "z": 2}}))
        code, out, err = run(capsys, "audit", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: config 'params': ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("params", [{"a": "x", "b": 1},
                                        {"a": [1, 2], "b": 1},
                                        {"a": 1, "b": 1, "z": None},
                                        {"a": 10 ** 400, "b": 1, "z": 2}])
    def test_config_param_not_real(self, capsys, tmp_path, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"id": "INQ1", "params": params}))
        code, _, err = run(capsys, "audit", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1

    # a key that is not a flag of the subcommand is refused: one that no
    # subcommand reads, a nested config, and audit's flags on compare
    @pytest.mark.parametrize("config,key", [
        ({"bogus": 1}, "bogus"),
        ({"config": "other.json"}, "config"),
        ({"samples": 5, "n_max": 3, "bogus": 1}, "samples"),
    ])
    def test_key_not_a_flag(self, capsys, tmp_path, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "compare", "--id",
                             "INQ58,INQ58_BASE_RATIO", "--params", "a=1,z=4",
                             "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: config {key!r}: not a flag of compare\n"

    def test_flags_over_config_over_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "symmetric", "params": {"a": 0.5}, "grid": "1:10:3",
            "n_max": 2, "format": "json"}))

        def rows(*extra):
            code, out, _ = run(capsys, "certify", "--config", str(cfg),
                               *extra)
            assert code == 0
            return len(json.loads(out)["routes"]["log_cm"]["rows"])

        assert rows() == 3 * 2
        assert rows("--n-max", "3") == 3 * 3

    @pytest.mark.parametrize("argv,target", [
        ((), "sym"), (("wallis", "--params", "z=0"), "wallis")])
    def test_bounds_target_from_config(self, capsys, tmp_path, argv, target):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "sym", "params": "a=0.5,z=2"}))
        code, out, _ = run(capsys, "bounds", *argv, "--config", str(cfg))
        assert code == 0
        assert out.startswith(f"target={target} ")


@pytest.mark.parametrize("argv", [
    ("compare", "--id", "INQ58,INQ58_BASE_RATIO", "--params", "a=1",
     "--grid", "3:4:2"),
    ("bounds", "wallis", "--params", "z=0"),
], ids=lambda argv: argv[0])
def test_tol_only_where_read(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--tol", "5")
    assert (code, out) == (1, "")
    assert "--tol" in err


class TestCertify:
    def test_overflowing_log_gamma_is_an_error(self, capsys, tmp_path):
        # a 2-d finite-difference stencil above about 2.5e305, where
        # lnGamma overflows, now reads the large-z series: f = 1 there
        f = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "certify", "--family", "two-param",
                               "--params", "a=0.5,b=0.7", "--grid",
                               "1e306:2e306:3:log", "--n-max", "2", "--out",
                               str(f))
        assert code == 0
        fd = json.loads(f.read_text())["routes"]["finite_diff"]
        assert fd["fd_scale"] == 1.0
        assert [r["margin"] for r in fd["rows"]] == [0.0] * 6
        assert "verdict=certified" in out

    def test_overflowing_exact_moment_is_an_error(self, capsys):
        # gaps of 5e305 give Taylor terms past double precision: an error
        # line, not a traceback
        code, out, err = run(capsys, "certify", "--family", "majorized",
                             "--params", "a=1e306;0,b=5e305;5e305", "--grid",
                             "1.5e306:1.6e306:3", "--n-max", "2")
        assert code == 1
        assert out == ""
        assert err == ("error: an exact moment of the table overflows "
                       "double precision\n")

    def test_huge_z_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "certify", "--family", "symmetric",
                               "--params", "a=0.5", "--grid",
                               "1e160:1e170:3:log", "--n-max", "3")
        assert code == 0
        assert err == ("certify family=symmetric verdict=certified "
                       "(log-cm certified, finite-diff certified)\n")

    def test_trivial_family_certified(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        code, out, _ = run(capsys, "certify", "--family", "symmetric",
                           "--params", "a=0", "--grid", "1:10:6", "--out",
                           str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        assert payload["verdict"] == "certified"
        assert set(payload["routes"]) == {"log_cm", "finite_diff"}
        assert payload["family"]["kind"] == "symmetric"
        assert "certified" in out

    def test_large_z_roundoff_is_not_a_violation(self, capsys, tmp_path):
        # the finite differences up to z = 1.5e6, below the series'
        # 16 b, are differences of f - 1 on the exact gaps: their rounding
        # noise stays below 1e-14 of f, far inside the bare tolerance
        f = tmp_path / "r.json"
        code, out, _ = run(capsys, "certify", "--family", "two-param",
                           "--params", "a=0.001,b=1e5", "--grid",
                           "2e5:1.5e6:20:log", "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        fd = payload["routes"]["finite_diff"]
        assert payload["verdict"] == fd["verdict"] == "certified"
        assert min(r["margin"] for r in fd["rows"]) > -1e-14 * fd["fd_scale"]
        assert "verdict=certified" in out

    def test_majorized_refusal(self, capsys):
        code, _, err = run(capsys, "certify", "--family", "majorized",
                           "--params", "a=5;5,b=0;9", "--grid", "10:20:5")
        assert code == 1
        assert "not certifiable" in err

    def test_one_ulp_above_majorization_refused(self, capsys):
        # the 2s cancel and K(t) = e^t - e^((1 + 1e-13) t) < 0 for t > 0;
        # a float slack on the partial sums used to certify it
        code, out, err = run(capsys, "certify", "--family", "majorized",
                             "--params", "a=1;2,b=1.0000000000001;2",
                             "--grid", "3:1e3:10:log")
        assert code == 1
        assert "not certifiable" in err
        assert "certified" not in out

    def test_csv_format_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "--family", "symmetric",
                           "--params", "a=0", "--grid", "1:10:6",
                           "--format", "csv")
        assert code == 1
        assert "JSON" in err

    def test_missing_grid(self, capsys):
        code, _, err = run(capsys, "certify", "--family", "symmetric",
                           "--params", "a=0")
        assert code == 1
        assert "--grid" in err

    def test_unknown_family_parameter(self, capsys):
        code, _, err = run(capsys, "certify", "--family", "symmetric",
                           "--params", "a=0,q=1", "--grid", "1:10:6")
        assert code == 1
        assert "'q'" in err

    @pytest.mark.parametrize("flag", [("--samples", "5"), ("--seed", "3"),
                                      ("--id", "INQ1")])
    def test_flag_of_another_subcommand_rejected(self, capsys, flag):
        code, _, err = run(capsys, "certify", "--family", "symmetric",
                           "--params", "a=0.5", "--grid", "1:10:6", *flag)
        assert code == 1
        assert flag[0] in err

    def test_inconclusive_exits_three(self, capsys, monkeypatch):
        def broken(fam, z, n):
            # the real route's (z, n) arrays, none of them converged
            shape = np.shape(z) + np.shape(n)
            raise ConvergenceError("no convergence",
                                   value=np.full(shape, math.nan),
                                   err_estimate=np.full(shape, math.inf),
                                   evaluations=1,
                                   converged=np.zeros(shape, dtype=bool))
        monkeypatch.setattr(cmc, "log_deriv_quadrature", broken)
        code, out, err = run(capsys, "certify", "--family", "two-param",
                             "--params", "a=0.5,b=0.7", "--grid", "1:5:4",
                             "--n-max", "2")
        assert code == 3
        assert "inconclusive" in err
        rows = json.loads(out)["routes"]["log_cm"]["rows"]
        assert len(rows) == 8  # 4 z x 2 orders
        assert not any(row["agrees"] for row in rows)

    def test_violation_exits_two(self, capsys, monkeypatch):
        def neg(path):
            def fake(fam, z, n, *a, **kw):
                shape = np.shape(z) + np.shape(n)
                return LogDerivResult(order=n, z=z,
                                      signed_value=np.full(shape, -1.0),
                                      path=path,
                                      err_estimate=np.full(shape, 0.0))
            return fake
        monkeypatch.setattr(cmc, "log_deriv_quadrature", neg("quadrature"))
        monkeypatch.setattr(cmc, "log_deriv_polygamma", neg("polygamma"))
        code, _, err = run(capsys, "certify", "--family", "two-param",
                           "--params", "a=0.5,b=0.7", "--grid", "1:5:4",
                           "--n-max", "2")
        assert code == 2
        assert "violated" in err


class TestBounds:
    def test_wallis_at_zero(self, capsys):
        code, out, _ = run(capsys, "bounds", "wallis", "--params", "z=0")
        assert code == 0
        assert "WALLIS_LB" in out and "WALLIS_UB" in out
        assert "1.4142135623730949" in out
        assert "1.7724538509055161" in out

    def test_beta_reference_out_of_domain(self, capsys):
        code, out, _ = run(capsys, "bounds", "beta", "--params", "a=2,b=3")
        assert code == 0
        assert "BETA_UB_DRAGOMIR" in out
        assert "out of domain" in out

    def test_json_values(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "bounds", "inq58", "--params", "a=1,z=4",
                         "--format", "json", "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        assert payload["true"] == pytest.approx(1.5, rel=1e-12)
        values = {b["id"]: b["value"] for b in payload["bounds"]}
        assert values["INQ58"] == pytest.approx(1.125, rel=1e-12)
        assert values["INQ58_BASE_RATIO"] == pytest.approx(1.25, rel=1e-12)
        assert values["INQ58_BASE_SHIFT"] == pytest.approx(1.5, rel=1e-12)

    def test_primary_out_of_domain(self, capsys):
        code, _, err = run(capsys, "bounds", "dup", "--params", "a=2")
        assert code == 1
        assert "requires" in err

    def test_unknown_target(self, capsys):
        code, _, err = run(capsys, "bounds", "nope", "--params", "z=1")
        assert code == 1
        assert "wallis" in err

    def test_missing_target(self, capsys):
        code, _, err = run(capsys, "bounds", "--params", "z=1")
        assert code == 1

    def test_grid_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "wallis", "--params", "z=1",
                           "--grid", "1:2:3")
        assert code == 1
        assert "--grid" in err

    def test_missing_coordinate(self, capsys):
        code, _, err = run(capsys, "bounds", "sym", "--params", "a=0.5")
        assert code == 1
        assert "z" in err

    def test_overflowing_value_is_an_error(self, capsys):
        # B(1e-308, 1e-308) ~ 2e308 overflows double precision
        code, out, err = run(capsys, "bounds", "beta", "--params",
                             "a=1e-308,b=1e-308")
        assert code == 1 and out == ""
        assert err == ("error: BETA_UB: side value exp(709.8893558227261) "
                       "overflows double precision at point "
                       "(1e-308, 1e-308)\n")


class TestCompare:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_value_is_an_error(self, capsys, tmp_path, fmt):
        f = tmp_path / f"r.{fmt}"
        code, out, err = run(capsys, "compare", "--id",
                             "BETA_UB,BETA_UB_DRAGOMIR", "--params",
                             "a=1e-308,b=1e-308", "--format", fmt,
                             "--out", str(f))
        assert code == 1 and out == "" and not f.exists()
        assert err == ("error: BETA_UB: side value exp(709.8893558227261) "
                       "overflows double precision at point "
                       "(1e-308, 1e-308)\n")

    def test_explicit_point_csv(self, capsys):
        code, out, _ = run(capsys, "compare", "--id",
                           "INQ58,INQ58_BASE_RATIO,INQ58_BASE_SHIFT",
                           "--params", "a=1,z=4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("params,point,lhs,INQ58,INQ58_BASE_RATIO,"
                            "INQ58_BASE_SHIFT,tightest")
        assert len(lines) == 2
        assert lines[1].endswith(",INQ58_BASE_SHIFT")

    def test_grid_json(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        code, _, _ = run(capsys, "compare", "--id",
                         "BETA_UB,BETA_UB_DRAGOMIR", "--grid", "0.1:0.9:4",
                         "--format", "json", "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        assert len(payload["rows"]) == 16
        assert all(r["tightest"] in ("BETA_UB", "BETA_UB_DRAGOMIR")
                   for r in payload["rows"])

    def test_sampling_flags_rejected(self, capsys):
        code, _, err = run(capsys, "compare", "--id",
                           "BETA_UB,BETA_UB_DRAGOMIR", "--grid", "0.1:0.9:4",
                           "--samples", "5", "--seed", "3")
        assert code == 1
        assert "--samples" in err

    def test_single_id_rejected(self, capsys):
        code, _, err = run(capsys, "compare", "--id", "BETA_UB",
                           "--params", "a=0.4,b=0.4")
        assert code == 1

    def test_incompatible_ids(self, capsys):
        code, _, err = run(capsys, "compare", "--id",
                           "INQ3_UB,SYM_SANDWICH_UB", "--params",
                           "a=0.5,z=2")
        assert code == 1
        assert "different expressions" in err


class TestPointSetChecks:
    """Parameters and ids are checked before any point is evaluated, and a
    list given where one real is expected is a usage error."""

    def test_compare_inadmissible_params(self, capsys):
        argv = ("--params", "a=-1,b=0.5", "--grid", "0.1:1:5")
        code, _, err = run(capsys, "compare", "--id", "INQ56,INQ57_LB", *argv)
        assert code == 1
        assert "requires a > 0 and b > 0" in err
        assert run(capsys, "audit", "--id", "INQ56", *argv)[0] == 1

    @pytest.mark.parametrize("grid", ["0.5:1.7:3", "0.5:3:3"])
    def test_compare_incompatible_ids_on_grid(self, capsys, grid):
        # on 0.5:1.7:3 no point lies in the INQ58 domain
        code, _, err = run(capsys, "compare", "--id", "INQ58,SYM_GE1",
                           "--params", "a=0.9", "--grid", grid)
        assert code == 1
        assert "different expressions" in err

    @pytest.mark.parametrize("argv", [
        ("bounds", "wallis", "--params", "z=1;2"),
        ("audit", "--id", "INQ1", "--params", "a=1,b=1,z=2;3"),
        ("certify", "--family", "two-param", "--params", "a=1;2,b=1",
         "--grid", "2:3:2"),
    ], ids=["bounds", "audit", "certify"])
    def test_list_for_one_real(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "not a list" in err

    def test_compare_grid_matches_explicit_points(self, capsys, tmp_path):
        ids = "INQ58,INQ58_BASE_RATIO,INQ58_BASE_SHIFT"
        f = tmp_path / "g.json"
        code, _, _ = run(capsys, "compare", "--id", ids, "--params", "a=1",
                         "--grid", "1:8:8", "--format", "json",
                         "--out", str(f))
        assert code == 0
        payload = json.loads(f.read_text())
        assert payload["summary"] == {"points": 7, "skipped": 1, "nudged": 1}
        for row in payload["rows"]:
            g = tmp_path / "p.json"
            z = row["point"][0]
            assert run(capsys, "compare", "--id", ids, "--params",
                       f"a=1,z={z!r}", "--format", "json",
                       "--out", str(g))[0] == 0
            assert json.loads(g.read_text())["rows"] == [row]


class TestOnePointSource:
    """audit and compare take their points from exactly one source, and
    refuse an asserted point outside the domain with one text."""

    @pytest.mark.parametrize("command, argv, text", [
        ("compare", ("--id", "INQ56,INQ57_LB", "--params",
                     "a=0.2,b=0.3,z=0.9", "--grid", "0.6:1:5"),
         "give exactly one of --grid or an explicit point"),
        ("compare", ("--id", "INQ56,INQ57_LB", "--params", "a=0.2,b=0.3"),
         "compare needs --grid or explicit point coordinates in --params"),
        ("audit", ("--id", "INQ56", "--params", "a=0.2,b=0.3,z=0.9",
                   "--samples", "3"),
         "give exactly one of --grid, --samples, or an explicit point"),
        ("audit", ("--id", "INQ56", "--params", "a=0.2,b=0.3"),
         "audit needs --grid, --samples, or explicit point coordinates "
         "in --params"),
    ], ids=["compare-two", "compare-none", "audit-two", "audit-none"])
    def test_exactly_one_source(self, capsys, command, argv, text):
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {text}\n"

    def test_one_asserted_point_text(self, capsys):
        text = ("SYM_SANDWICH_LB: requires z > a (params=[0.5], "
                "point=(0.2,))")
        with pytest.raises(DomainError) as exc:
            iq_mod.margin("SYM_SANDWICH_LB", (0.5,), (0.2,))
        assert str(exc.value) == text
        with pytest.raises(DomainError) as exc:
            iq_mod.tightness_compare(("SYM_SANDWICH_LB", "SYM_GE1"), (0.5,),
                                     (0.2,))
        assert str(exc.value) == text
        for argv in (("audit", "--id", "SYM_SANDWICH_LB"),
                     ("compare", "--id", "SYM_SANDWICH_LB,SYM_GE1"),
                     ("bounds", "sym")):
            code, out, err = run(capsys, *argv, "--params", "a=0.5,z=0.2")
            assert (code, out, err) == (1, "", f"error: {text}\n")


class TestMajorizedEntryLists:
    def test_unequal_lengths_refused(self, capsys):
        # flattened together, 4 + 2 entries would split into 3 and 3
        code, out, err = run(capsys, "audit", "--id", "MAJOR_GE1",
                             "--params", "a=3;3;0;2,b=2;2",
                             "--grid", "3.5:10:4")
        assert (code, out) == (1, "")
        assert err == ("error: MAJOR_GE1: a and b must have equal length, "
                       "got 4 and 2\n")

    def test_equal_lengths_audited(self, capsys):
        code, _, err = run(capsys, "audit", "--id", "MAJOR_GE1",
                           "--params", "a=3;1,b=2;2", "--grid", "3.5:10:4")
        assert code == 0
        assert "points=4" in err and "all hold" in err


def test_inq56_samples_its_one_point_domain(capsys):
    # a+b = 1 leaves z = 1 alone, which a grid already audits
    code, out, err = run(capsys, "audit", "--id", "INQ56", "--params",
                         "a=0.7,b=0.3", "--samples", "3")
    assert code == 0
    assert "points=3 skipped=0" in err and "all hold" in err
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["1"] * 3


class TestEmptyPointSet:
    """A grid with no point in the domain fails instead of reporting an
    empty pass, and names the rule the first point breaks."""

    def test_audit_grid_outside_domain(self, capsys):
        code, out, err = run(capsys, "audit", "--id", "INQ1", "--params",
                             "a=1,b=1", "--grid", "0.1:0.5:3")
        assert code == 1
        assert out == ""
        assert "INQ1: no point lies in the domain" in err
        assert "(0.1,) fails: requires z > a+b-1" in err

    def test_compare_grid_outside_domain(self, capsys):
        code, out, err = run(capsys, "compare", "--id",
                             "BETA_UB,BETA_UB_DRAGOMIR", "--grid", "2:3:3")
        assert code == 1
        assert out == ""
        assert "BETA_UB_DRAGOMIR: no point lies in the domain" in err
        assert "requires 0 < a <= 1" in err


def test_parser_reused_across_calls(capsys):
    # the second call must not see the first call's --samples
    assert run(capsys, "audit", "--id", "INQ1", "--params", "a=1,b=1",
               "--samples", "5")[0] == 0
    code, _, err = run(capsys, "audit", "--id", "INQ1", "--params",
                       "a=1,b=1", "--grid", "1.5:3:4")
    assert code == 0
    assert "points=4" in err
