"""Per-layer tracing by wrapping the program's public functions.

The wrappers live only here: while a ``Tracer`` is installed, the names
below are replaced *where their callers bind them*, and every original is
put back when it is removed.  Each wrapped call records a span (name,
layer, start, end, parent) in memory, plus the counters of its layer.

A call made while the innermost open span already belongs to the same
layer is passed straight through: it records no span and no counts, so
nested same-layer work (``log_beta`` calling ``log_gamma``, ``sweep``
calling ``domain_mask``) is counted once.  A layer's self time is its
spans' time minus the time of their child spans.

Layers and the names patched for them:

``cli``          the ``cmgamma.cli.main`` call itself (wrapped by the worker)
``cm_certify``   ``cmgamma.cli.certify_log_cm``, ``certify_cm_finite_diff``
``kernels``      ``cmgamma.cm_certify.log_deriv_quadrature``,
                 ``log_deriv_polygamma``, ``log_f``, ``kernel_value``;
                 ``cmgamma.inequalities.log_f``; the integrand that
                 ``log_deriv_quadrature`` hands to the integrator
``quad``         ``cmgamma.kernels.integrate_half_line``
``specfun``      ``cmgamma.specfun.{log_gamma, digamma, polygamma,
                 log_beta}`` (callers reach them through the module);
                 ``cmgamma.inequalities._lg`` and ``log_beta``
``inequalities`` ``cmgamma.inequalities.sweep``, ``tightness_compare``;
                 ``InequalityCase.domain_mask``, ``domain_violation``,
                 ``sides``
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

from cmgamma.errors import ConvergenceError

LAYERS = ("cli", "cm_certify", "kernels", "quad", "specfun", "inequalities")


def _targets():
    """(owner, attribute, layer, span name) of every patched name."""
    from cmgamma import cli, cm_certify, inequalities, kernels, specfun

    case = inequalities.InequalityCase
    return (
        (cli, "certify_log_cm", "cm_certify", "cm_certify.certify_log_cm"),
        (cli, "certify_cm_finite_diff", "cm_certify",
         "cm_certify.certify_cm_finite_diff"),
        (cm_certify, "log_deriv_quadrature", "kernels",
         "kernels.log_deriv_quadrature"),
        (cm_certify, "log_deriv_polygamma", "kernels",
         "kernels.log_deriv_polygamma"),
        (cm_certify, "log_f", "kernels", "kernels.log_f"),
        (cm_certify, "kernel_value", "kernels", "kernels.kernel_value"),
        (inequalities, "log_f", "kernels", "kernels.log_f"),
        (kernels, "integrate_half_line", "quad", "quad.integrate_half_line"),
        (specfun, "log_gamma", "specfun", "specfun.log_gamma"),
        (specfun, "digamma", "specfun", "specfun.digamma"),
        (specfun, "polygamma", "specfun", "specfun.polygamma"),
        (specfun, "log_beta", "specfun", "specfun.log_beta"),
        (inequalities, "_lg", "specfun", "specfun.log_gamma"),
        (inequalities, "log_beta", "specfun", "specfun.log_beta"),
        (inequalities, "sweep", "inequalities", "inequalities.sweep"),
        (inequalities, "tightness_compare", "inequalities",
         "inequalities.tightness_compare"),
        (case, "domain_mask", "inequalities", "inequalities.domain_mask"),
        (case, "domain_violation", "inequalities",
         "inequalities.domain_violation"),
        (case, "sides", "inequalities", "inequalities.sides"),
    )


def _points(name, args):
    """Number of evaluation points of one specfun call."""
    if name == "specfun.polygamma":
        return int(np.size(args[1]))
    if name == "specfun.log_beta":
        return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)
    return int(np.size(args[0]))


class Tracer:
    """Span recorder; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.spans = []          # [name, layer, start_ns, end_ns, parent]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- span bookkeeping -------------------------------------------------------

    def _enter(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][3] = time.perf_counter_ns()

    def _nested(self, layer) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][1] == layer

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span (used for the cli.main call itself)."""
        self._enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._nested(layer):
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if layer == "specfun":
                counts["specfun.points"] += _points(name, args)
            elif name == "quad.integrate_half_line":
                args = (tracer._wrap_integrand(args[0]),) + args[1:]
            elif name == "inequalities.sweep":
                counts["inequalities.points_in"] += len(args[2])
            tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as exc:
                if name == "quad.integrate_half_line":
                    counts["quad.nonconverged"] += 1
                    counts["quad.evals"] += exc.evaluations
                raise
            finally:
                tracer._exit()
            if name == "quad.integrate_half_line":
                counts["quad.evals"] += result.evaluations
            elif name == "inequalities.sweep":
                counts["inequalities.kept"] += len(result)
            elif name == "cm_certify.certify_log_cm":
                counts["cm_certify.rows"] += len(result.rows)
                counts["cm_certify.agree"] += sum(r.agrees for r in result.rows)
            return result

        return wrapper

    def _wrap_integrand(self, f):
        tracer = self

        def integrand(t):
            tracer.counts["kernels.integrand.calls"] += 1
            tracer._enter("kernels.integrand", "kernels")
            try:
                return f(t)
            finally:
                tracer._exit()

        return integrand

    # -- install / remove -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results ----------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Self time per layer, and total time per span name."""
        dur = [s[3] - s[2] for s in self.spans]
        child = [0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        out = {layer: 0 for layer in LAYERS}
        by_name = Counter()
        for i, s in enumerate(self.spans):
            out[s[1]] += dur[i] - child[i]
            by_name[s[0]] += dur[i]
        return ({k: v * 1e-9 for k, v in out.items()},
                {k: v * 1e-9 for k, v in by_name.items()})

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_ns", "end_ns",
                                  "parent"], "spans": self.spans}, fh)


def leftover_patches() -> list:
    """Names still replaced by a wrapper (empty after ``remove``)."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in _targets()
            if hasattr(owner.__dict__[attr], "__wrapped__")]
