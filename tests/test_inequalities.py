"""Inequality registry: frozen margins, boundary identities, sweeps, ranking."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

import cmgamma.inequalities as iq
from cmgamma.cli import main
from cmgamma.errors import DomainError, UsageError

from _samplers import draw_params

EXPECTED_IDS = (
    "INQ1", "MULTI_GE1", "MAJOR_GE1", "MEAN2", "MEAN2_RATIO", "SYM_GE1",
    "INQ3_LB", "INQ3_UB", "SYM_SANDWICH_LB", "SYM_SANDWICH_UB",
    "HALF_SANDWICH_LB", "HALF_SANDWICH_UB", "WALLIS_LB", "WALLIS_UB",
    "WALLIS_SHIFT_LB", "WALLIS_SHIFT_UB", "H_OMEGA", "G_LE1", "PSI_XY",
    "PSI_XY_AB", "INQ51", "INQ53", "BETA_UB", "BETA_UB_SHIFT_A",
    "BETA_UB_SHIFT_B", "BETA_UB_DRAGOMIR", "INQ54", "INQ55",
    "DUP_SANDWICH_LB", "DUP_SANDWICH_UB", "INQ56", "INQ56_RECIP",
    "INQ57_LB", "INQ57_UB", "INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT",
)

BASELINES = {"BETA_UB_DRAGOMIR", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT"}


class TestRegistry:
    def test_ids_and_order(self):
        assert tuple(c.id for c in iq.registry_list()) == EXPECTED_IDS

    def test_kinds(self):
        for case in iq.registry_list():
            expected = "baseline" if case.id in BASELINES else "claim"
            assert case.kind == expected

    def test_structure(self):
        for case in iq.registry_list():
            assert case.direction in ("ge", "le")
            assert len(case.param_kinds) == len(case.param_names)
            assert case.point_names
            assert case.lhs_key
            assert case.source

    def test_get_case_roundtrip(self):
        for case in iq.registry_list():
            assert iq.get_case(case.id) is case

    def test_get_case_unknown(self):
        with pytest.raises(UsageError, match="unknown inequality id"):
            iq.get_case("NOPE")


class TestFrozenMargins:
    def test_two_param_ratio_at_two(self):
        # f(z) = z/(z-1) at z=2 gives margin ln 2
        assert iq.margin("INQ1", (1.0, 1.0), (2.0,)) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_majorized_example(self):
        # G(2)G(4)/G(3)^2 = 6/4
        assert iq.margin("MAJOR_GE1", (3.0, 1.0, 2.0, 2.0),
                         (5.0,)) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_symmetric_sweep_frozen(self):
        res = iq.sweep("SYM_GE1", (0.5,),
                       [(1.0,), (2.0,), (5.0,), (10.0,)])
        margins = res.margin.tolist()
        frozen = [0.4515827052894549, 0.16390063283767395,
                  0.055442877765267275, 0.026303680038092893]
        assert margins == pytest.approx(frozen, abs=1e-12)
        assert all(m >= -iq.HOLDS_TOL for m in margins)

    def test_beta_bound_values(self):
        res = iq.tightness_compare(("BETA_UB", "BETA_UB_DRAGOMIR"), (),
                                   (0.4, 0.4))
        by_id = dict(zip(res.ids, np.exp(res.rhs_log[:, 0])))
        assert by_id["BETA_UB"] == pytest.approx(5.0, rel=1e-12)
        assert by_id["BETA_UB_DRAGOMIR"] == pytest.approx(6.25, rel=1e-12)
        assert res.ids[res.order[0, 0]] == "BETA_UB"

    def test_square_ratio_ranking(self):
        ids = ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT")
        res = iq.tightness_compare(ids, (1.0,), (4.0,))
        by_id = dict(zip(res.ids, np.exp(res.rhs_log[:, 0])))
        assert by_id["INQ58"] == pytest.approx(1.125, rel=1e-12)
        assert by_id["INQ58_BASE_RATIO"] == pytest.approx(1.25, rel=1e-12)
        assert by_id["INQ58_BASE_SHIFT"] == pytest.approx(1.5, rel=1e-12)
        assert res.ids[res.order[0, 0]] == "INQ58_BASE_SHIFT"
        assert math.exp(res.lhs_log[0]) == pytest.approx(1.5, rel=1e-12)


class TestEqualityBoundaries:
    def test_product_diagonal_is_exact_zero(self):
        for t in (0.9, 1.0, 5.0, 123.4):
            assert iq.margin("H_OMEGA", (0.3, 0.6), (t, t)) == 0.0

    def test_shifted_symmetric_at_zero_is_exact_zero(self):
        for a in (0.1, 0.5, 0.9):
            assert iq.margin("INQ3_UB", (a,), (0.0,)) == 0.0

    def test_trivial_two_param_is_exact_zero(self):
        for z in (0.5, 1.0, 7.3):
            assert iq.margin("INQ1", (0.0, 0.0), (z,)) == 0.0

    def test_core_upper_bound_equality_at_corner(self):
        for a, b in ((0.3, 0.4), (1.0, 2.0)):
            m = iq.margin("INQ57_UB", (a, b), (a + b,))
            assert abs(m) <= 1e-12

    def test_wallis_upper_equality_at_zero(self):
        assert abs(iq.margin("WALLIS_UB", (), (0.0,))) <= 1e-12


class TestSymmetries:
    def test_parameter_swap(self):
        rng = np.random.default_rng(11)
        for case_id in ("INQ1", "G_LE1", "PSI_XY_AB", "INQ56", "INQ57_LB",
                        "INQ57_UB", "H_OMEGA"):
            case = iq.get_case(case_id)
            for _ in range(20):
                params = draw_params(rng, case)
                pts = case.sample_points(rng, params, 5)
                swapped = (params[1], params[0])
                for p in pts:
                    m1 = iq.margin(case_id, params, tuple(p))
                    m2 = iq.margin(case_id, swapped, tuple(p))
                    assert m1 == pytest.approx(m2, rel=1e-12, abs=1e-12)

    def test_point_swap(self):
        rng = np.random.default_rng(12)
        for case_id in ("INQ51", "INQ53", "BETA_UB", "MEAN2", "MEAN2_RATIO"):
            case = iq.get_case(case_id)
            pts = case.sample_points(rng, (), 40)
            for p in pts:
                m1 = iq.margin(case_id, (), (float(p[0]), float(p[1])))
                m2 = iq.margin(case_id, (), (float(p[1]), float(p[0])))
                assert m1 == pytest.approx(m2, rel=1e-12, abs=1e-12)

    def test_product_ratio_antisymmetric_in_sides(self):
        # sides(x, y) = -sides(y, x) for the two-point product case; checked
        # through the raw side evaluator because the domain orders the pair
        case = iq.get_case("H_OMEGA")
        params = (0.4, 1.1)
        xs = np.array([2.0, 3.0, 8.0])
        ys = np.array([5.0, 11.0, 9.5])
        fwd, _ = case.sides(params, np.column_stack([xs, ys]))
        rev, _ = case.sides(params, np.column_stack([ys, xs]))
        assert np.all(fwd == -rev)


class TestDerivationConsistency:
    def test_square_ratio_reduces_to_two_param(self):
        # G(z)G(z-2a)/G(z-a)^2 vs the a=b two-parameter ratio at the same z
        for a in (0.2, 0.7, 1.3):
            for z in (2.0 * a + 0.5, 2.0 * a + 3.0, 40.0):
                m58 = iq.margin("INQ58", (a,), (z,))
                m1 = iq.margin("INQ1", (a, a), (z,))
                assert m58 == pytest.approx(m1, rel=1e-12, abs=1e-12)


class TestBoundaryMonotonicity:
    A, B, M = 0.3, 0.6, 40.0

    def test_decreasing_along_top_edge(self):
        xs = np.linspace(self.A + self.B, self.M, 50)
        pts = [(float(x), self.M) for x in xs]
        margins = iq.sweep("H_OMEGA", (self.A, self.B), pts).margin
        assert len(margins) == 50
        assert np.all(np.diff(margins) <= 1e-12)

    def test_increasing_along_left_edge(self):
        ys = np.linspace(self.A + self.B, self.M, 50)
        pts = [(self.A + self.B, float(y)) for y in ys]
        margins = iq.sweep("H_OMEGA", (self.A, self.B), pts).margin
        assert len(margins) == 50
        assert np.all(np.diff(margins) >= -1e-12)


class TestSweep:
    def test_skips_out_of_domain(self):
        res = iq.sweep("INQ1", (1.0, 1.0), [(0.5,), (1.5,), (3.0,)])
        assert res.points.tolist() == [[1.5], [3.0]]

    def test_sorted_by_point(self):
        res = iq.sweep("WALLIS_LB", (), [(5.0,), (1.0,), (3.0,)])
        assert res.points[:, 0].tolist() == [1.0, 3.0, 5.0]

    def test_record_fields(self):
        res = iq.sweep("INQ1", (1.0, 1.0), [(2.0,)])
        assert len(res) == 1
        assert res.id == "INQ1"
        assert res.params == (1.0, 1.0)
        assert res.points.tolist() == [[2.0]]
        assert res.margin[0] == pytest.approx(res.lhs_log[0] - res.rhs_log[0])
        assert res.margin[0] >= -iq.HOLDS_TOL

    def test_to_dict_field_names(self, tmp_path, capsys):
        # a record of an audit JSON report is one point of a sweep
        out = tmp_path / "audit.json"
        assert main(["audit", "--id", "INQ1", "--params", "a=1,b=1,z=2",
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        (rec,) = json.loads(out.read_text())["records"]
        assert list(rec) == ["id", "params", "point", "lhs_log", "rhs_log",
                             "margin", "holds"]

    @pytest.mark.parametrize("case_id, grid", [
        ("BETA_UB", [1.0, 2.0]),
        ("BETA_UB", [(1.0, 2.0, 3.0)]),
        ("INQ1", [(1.0, 2.0)]),
        ("INQ1", [(2.0,), (3.0, 4.0)]),
    ])
    def test_wrong_coordinate_count(self, case_id, grid):
        params = (1.0, 1.0) if case_id == "INQ1" else ()
        with pytest.raises(UsageError, match="coordinate"):
            iq.sweep(case_id, params, grid)

    def test_grid_shapes_accepted(self):
        flat = iq.sweep("INQ1", (1.0, 1.0), [3.0, 2.0])
        rows = iq.sweep("INQ1", (1.0, 1.0), np.array([[3.0], [2.0]]))
        for col in ("points", "lhs_log", "rhs_log", "margin"):
            assert np.array_equal(getattr(flat, col), getattr(rows, col))
        assert flat.points.tolist() == [[2.0], [3.0]]
        assert len(iq.sweep("BETA_UB", (), [])) == 0

    def test_bad_params_fail_loud(self):
        with pytest.raises(DomainError):
            iq.sweep("INQ1", (-1.0, 1.0), [(3.0,)])

    def test_margin_out_of_domain(self):
        with pytest.raises(DomainError, match="requires"):
            iq.margin("BETA_UB_DRAGOMIR", (), (2.0, 2.0))

    def test_variadic_split(self):
        with pytest.raises(UsageError):
            iq.margin("MAJOR_GE1", (1.0, 2.0, 3.0), (5.0,))

    def test_margin_values_matches_margin(self):
        case = iq.get_case("INQ53")
        pts = np.array([[0.5, 0.8], [2.0, 3.0], [10.0, 0.1]])
        batch = case.margin_values((), pts)
        singles = [iq.margin("INQ53", (), tuple(p)) for p in pts]
        assert np.allclose(batch, singles, rtol=0, atol=0)


class TestTightness:
    def test_needs_two_ids(self):
        with pytest.raises(UsageError):
            iq.tightness_compare(("BETA_UB",), (), (0.4, 0.4))

    def test_incompatible_lhs(self):
        with pytest.raises(UsageError, match="different expressions"):
            iq.tightness_compare(("INQ3_UB", "SYM_SANDWICH_UB"), (0.5,),
                                 (2.0,))

    def test_incompatible_direction(self):
        with pytest.raises(UsageError):
            iq.tightness_compare(("WALLIS_LB", "WALLIS_UB"), (), (1.0,))

    def test_out_of_domain_point(self):
        with pytest.raises(DomainError):
            iq.tightness_compare(("BETA_UB", "BETA_UB_DRAGOMIR"), (),
                                 (2.0, 2.0))

    def test_entries_sorted_tightest_first(self):
        res = iq.tightness_compare(
            ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT"), (1.0,),
            (4.0,))
        values = res.rhs_log[res.order[:, 0], 0].tolist()
        assert values == sorted(values, reverse=True)  # ge: largest first

    def test_to_dict(self, tmp_path, capsys):
        # a row of a compare JSON report is one point of the ranking
        ids = ("BETA_UB", "BETA_UB_DRAGOMIR")
        res = iq.tightness_compare(ids, (), (0.5, 0.5))
        out = tmp_path / "compare.json"
        assert main(["compare", "--id", ",".join(ids), "--params",
                     "a=0.5,b=0.5", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        (d,) = json.loads(out.read_text())["rows"]
        assert d["tightest"] == res.ids[res.order[0, 0]]
        assert [e["id"] for e in d["entries"]] == [res.ids[k]
                                                   for k in res.order[:, 0]]
        assert len(d["entries"]) == 2

    def test_sweep_matches_compare(self):
        ids = ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT")
        grid = [(6.0,), (1.5,), (3.0,), (2.5,)]
        res = iq.tightness_sweep(ids, (1.0,), grid)
        assert res.points.tolist() == [[2.5], [3.0], [6.0]]
        for k, point in enumerate(res.points.tolist()):
            one = iq.tightness_compare(ids, (1.0,), tuple(point))
            assert one.points.tolist() == [point]
            assert one.lhs_log[0] == res.lhs_log[k]
            assert one.rhs_log[:, 0].tolist() == res.rhs_log[:, k].tolist()
            assert one.order[:, 0].tolist() == res.order[:, k].tolist()

    def test_sweep_two_coordinate_order(self):
        grid = np.array([[0.5, 0.2], [0.2, 0.9], [0.2, 0.5], [2.0, 2.0]])
        res = iq.tightness_sweep(("BETA_UB", "BETA_UB_DRAGOMIR"), (), grid)
        assert res.points.tolist() == [[0.2, 0.5], [0.2, 0.9], [0.5, 0.2]]

    def test_sweep_checks_ids_before_points(self):
        with pytest.raises(UsageError, match="different expressions"):
            iq.tightness_sweep(("INQ58", "SYM_GE1"), (0.9,), [(0.5,)])
        with pytest.raises(UsageError):
            iq.tightness_sweep(("INQ58", "SYM_GE1"), (0.9,), [])

    def test_sweep_inadmissible_params(self):
        with pytest.raises(DomainError, match="requires a > 0 and b > 0"):
            iq.tightness_sweep(("INQ56", "INQ57_LB"), (-1.0, 0.5), [(0.5,)])

    def test_shared_lhs_evaluated_once(self, monkeypatch):
        # gamma-square-ratio is one log_f call; its three bounds share
        # it, and none of their RHS calls log_f
        calls = []
        real = iq.log_f

        def counted(fam, z):
            calls.append(np.size(z))
            return real(fam, z)

        monkeypatch.setattr(iq, "log_f", counted)
        ids = ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT")
        grid = np.linspace(2.5, 40.0, 100)
        res = iq.tightness_sweep(ids, (1.0,), grid)
        assert calls == [100]
        assert len(res) == 100
        for k in range(0, 100, 33):
            lhs, _ = iq.get_case("INQ58").sides((1.0,), [res.points[k]])
            assert res.lhs_log[k] == lhs[0]


class TestRowTables:
    """The lnGamma sides that are row tables, read by log_f, against
    60-digit mpmath from past the series threshold to z = 1e12."""

    @staticmethod
    def _lg(*args):
        return mpmath.loggamma(mpmath.fsum(args))

    @pytest.mark.parametrize("key,params,ref", [
        ("sym-shift1-ratio", (0.3,), lambda lg, a, z: (
            lg(z, a, 1) + lg(z, -a, 1) - 2 * lg(z, 1))),
        ("sym-shift1-ratio", (1e-10,), lambda lg, a, z: (
            lg(z, a, 1) + lg(z, -a, 1) - 2 * lg(z, 1))),
        ("wallis-ratio", (), lambda lg, z: lg(z, 0.5) - lg(z, 1)),
        ("wallis-shift-ratio", (), lambda lg, z: lg(z, 0.5) - lg(z)),
        ("gamma-square-ratio", (0.7,), lambda lg, a, z: (
            lg(z) + lg(z, -2 * a) - 2 * lg(z, -a))),
        ("gamma-square-ratio", (1e-10,), lambda lg, a, z: (
            lg(z) + lg(z, -2 * a) - 2 * lg(z, -a))),
        ("binom-core", (0.5, 0.7), lambda lg, a, b, z: (
            lg(z, -a, -b, 1) - lg(z, -a, 1) - lg(z, -b, 1))),
        ("binom-core", (1e-10, 0.3), lambda lg, a, b, z: (
            lg(z, -a, -b, 1) - lg(z, -a, 1) - lg(z, -b, 1))),
        ("psi-ratio", (0.6,), lambda lg, a, z: lg(z, 1) - lg(z, -a, 1)),
        ("psi-ratio", (1e-10,), lambda lg, a, z: lg(z, 1) - lg(z, -a, 1)),
        ("psi-sum-ratio", (0.2, 0.5), lambda lg, a, b, z: (
            lg(z, 1) - lg(z, -a, -b, 1))),
        ("psi-sum-ratio", (1e-10, 1e-10), lambda lg, a, b, z: (
            lg(z, 1) - lg(z, -a, -b, 1))),
    ])
    def test_matches_mpmath(self, key, params, ref):
        # one coordinate: the two-point sides give ln f at it
        zs = np.geomspace(32.0, 1e12, 30)
        got = iq._LHS[key][2](params, (zs,))
        with mpmath.workdps(60):
            for z, g in zip(zs.tolist(), got.tolist()):
                want = ref(self._lg, *params, z)
                assert abs(g - want) <= 1e-14 * abs(want), (z, g)

    def test_mixed_scales_below_the_threshold(self):
        # INQ1 with a = 1e3, b = 1e-6 from the edge to 16 (a + b): the gap
        # b is a Taylor sum, the gap a a plain difference
        a, b = 1e3, 1e-6
        zs = np.linspace(a + b - 1.0, 16.0 * (a + b), 41)[1:]
        res = iq.sweep("INQ1", (a, b), [(z,) for z in zs])
        assert len(res.margin) == 40
        with mpmath.workdps(60):
            for (z,), m in zip(res.points.tolist(), res.margin.tolist()):
                want = (self._lg(z, 1) + self._lg(z, -a, -b, 1)
                        - self._lg(z, -a, 1) - self._lg(z, -b, 1))
                assert abs(m - want) <= 1e-11 * abs(want), z

    def test_small_parameter_margin(self):
        # ln f ~ ab / z = 7e-15, where the lnGamma terms reach 1.3e7
        with mpmath.workdps(60):
            a, b, z = 1e-8, 0.7, 1e6
            want = (self._lg(z, 1) + self._lg(z, -a, -b, 1)
                    - self._lg(z, -a, 1) - self._lg(z, -b, 1))
            got = iq.margin("INQ1", [a, b], [z])
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("case_id", ["INQ56", "INQ57_LB"])
    def test_binom_core_margin_is_one_table(self, case_id):
        # ln LHS - ln RHS is TwoParam(a, b): no z ln z terms cancel
        point = [0.9] if case_id == "INQ56" else [1e7]
        assert iq.margin(case_id, [0.3, 0.4], point) == \
            iq.margin("INQ1", [0.3, 0.4], point)


class TestChunks:
    @pytest.mark.parametrize("case", iq.registry_list(),
                             ids=lambda c: c.id)
    def test_chunked_values_equal_one_pass(self, monkeypatch, case):
        # every side and margin is elementwise: three-row chunks give the
        # bits of one pass
        rng = np.random.default_rng(11)
        params = draw_params(rng, case)
        pts = case.sample_points(rng, params, 8)
        whole = [*case.sides(params, pts), case.margin_values(params, pts)]
        monkeypatch.setattr(iq, "_CHUNK", 3)
        chunked = [*case.sides(params, pts), case.margin_values(params, pts)]
        assert [v.tobytes() for v in chunked] == [v.tobytes() for v in whole]

    def test_non_finite_value_in_a_later_chunk_names_its_point(
            self, monkeypatch):
        # rows 6..8 make the third chunk; the only non-finite value is at z = 8
        monkeypatch.setattr(iq, "_CHUNK", 3)
        case = dataclasses.replace(
            iq.get_case("WALLIS_LB"),
            _rhs_fn=lambda s, c: np.log(np.abs(c[0] - 8.0)))
        pts = np.arange(1.0, 12.0)
        with pytest.raises(DomainError, match=r"^WALLIS_LB: rhs_log -inf is "
                                              r"not finite at point \(8\.0,\)$"):
            case.sides((), pts)


class TestSamplers:
    @pytest.mark.parametrize("case", iq.registry_list(),
                             ids=lambda c: c.id)
    def test_samples_are_in_domain(self, case):
        rng = np.random.default_rng(hash(case.id) % 2 ** 32)
        for _ in range(5):
            params = draw_params(rng, case)
            pts = case.sample_points(rng, params, 50)
            assert pts.shape == (50, len(case.point_names))
            assert np.all(case.domain_mask(params, pts))

    @pytest.mark.parametrize("case_id, params", [
        ("INQ1", (1e17, 1e17)), ("SYM_GE1", (1e16,)), ("PSI_XY", (1e16,)),
        ("PSI_XY_AB", (1e16, 1e16)), ("INQ58_BASE_SHIFT", (1e16,)),
    ])
    def test_samples_in_domain_at_huge_bounds(self, case_id, params):
        # the offset above the lower bound rounds away at this size
        case = iq.get_case(case_id)
        pts = case.sample_points(np.random.default_rng(0), params, 1000)
        assert case.domain_mask(params, pts).all()

    def test_overflowing_bound_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="no finite z"):
            iq.get_case("INQ1").sample_points(rng, (1e308, 1e308), 10)

    def test_empty_window_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="empty"):
            iq.get_case("INQ56").sample_points(rng, (0.7, 0.5), 10)

    def test_one_point_window_sampled(self):
        # a+b = 1 exactly: z = 1 is the whole domain
        rng = np.random.default_rng(0)
        pts = iq.get_case("INQ56").sample_points(rng, (0.7, 0.3), 4)
        assert pts.tolist() == [[1.0]] * 4


class TestUniversalValidityMini:
    def test_all_claims_hold_on_random_points(self):
        rng = np.random.default_rng(20260818)
        for case in iq.registry_list():
            if case.kind != "claim":
                continue
            worst = math.inf
            for _ in range(10):
                params = draw_params(rng, case)
                pts = case.sample_points(rng, params, 50)
                margins = case.margin_values(params, pts)
                worst = min(worst, float(np.min(margins)))
            assert worst >= -1e-9, (case.id, worst)


@pytest.mark.parametrize("case", iq.registry_list(), ids=lambda c: c.id)
def test_domain_mask_and_violation_agree(case):
    """Both read one walk over the case's conditions: at random draws, at
    each rule's bound and at its float neighbours, and at non-finite
    points, a point is in the mask exactly when no violation is named."""
    rng = np.random.default_rng(20261020)
    for _ in range(3):
        params = draw_params(rng, case)
        split = case.split_params(params)
        drawn = case.sample_points(rng, params, 4)
        probes = [drawn, np.full_like(drawn, np.nan),
                  np.full_like(drawn, np.inf)]
        for rule in case._point_rules:
            j = rule[1]
            bound = iq._bound(rule, split, tuple(drawn.T))
            for step in (-np.inf, None, np.inf):
                pts = drawn.copy()
                pts[:, j] = bound if step is None else np.nextafter(bound,
                                                                    step)
                probes.append(pts)
        pts = np.concatenate(probes)
        mask = case.domain_mask(params, pts)
        assert mask[:len(drawn)].all()
        assert [case.domain_violation(params, tuple(p)) is None
                for p in pts.tolist()] == mask.tolist()
