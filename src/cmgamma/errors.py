"""Exception types shared across the package.

Three failure modes are distinguished so callers (and the command line
driver) can map them to distinct exit codes:

* ``DomainError``: a mathematical argument sits outside the function's
  domain (pole of the gamma function, point at or below a family's lower
  bound, predicate false for a registered inequality).
* ``UsageError``: the request itself is malformed (unknown id, bad
  parameter list, incompatible comparison, invalid grid).
* ``ConvergenceError``: an adaptive computation ran out of refinement
  levels; the best value found so far travels with the exception.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain."""


class UsageError(ValueError):
    """The call is malformed independent of numeric values."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement did not reach the requested tolerance.

    Attributes
    ----------
    value : float or ndarray
        Best estimate of the result at the point of failure.
    err_estimate : float or ndarray
        Estimated error of ``value``.
    evaluations : int
        Number of integrand evaluations performed.
    converged : bool or ndarray
        For a batch of values, which of them did converge; their ``value``
        and ``err_estimate`` entries are final.
    """

    def __init__(self, message: str, value, err_estimate,
                 evaluations: int = 0, converged=False):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.evaluations = evaluations
        self.converged = converged
