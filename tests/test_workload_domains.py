"""The benchmark's audit grids start and end where the registry's domains
do, so a domain edit that would move them fails here."""

import pathlib
import sys

import numpy as np
import pytest

import cmgamma.inequalities as iq

from _samplers import draw_params

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import workloads  # noqa: E402


def _first_coordinate_edges(case, params):
    """Largest lower and smallest upper bound the domain rules put on
    coordinate 0 (lower 0.0 and upper None when there is no such rule)."""
    split = case.split_params(params)
    lower, upper = [], []
    for _, j, op, bound in case._point_rules:
        if j == 0:
            value = bound(split, ()) if callable(bound) else bound
            (upper if op == "<=" else lower).append(value)
    return max(lower, default=0.0), min(upper, default=None)


@pytest.mark.parametrize("case", iq.registry_list(), ids=lambda c: c.id)
def test_audit_grid_edges_match_registry(case):
    rng = np.random.default_rng(sum(map(ord, case.id)))
    lo_fn = workloads._DOMAIN_LO.get(case.id, lambda p: 0.0)
    for _ in range(20):
        params = draw_params(rng, case)
        lo, hi = _first_coordinate_edges(case, params)
        assert lo_fn(params) == lo
        assert workloads._DOMAIN_HI.get(case.id) == hi
