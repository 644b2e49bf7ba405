"""Exception types shared across the package.

Three failure modes are distinguished so callers (and the command line
driver) can map them to distinct exit codes:

* ``DomainError``: a mathematical argument sits outside the function's
  domain (pole of the gamma function, point at or below a family's lower
  bound, predicate false for a registered inequality).
* ``UsageError``: the request itself is malformed (unknown id, bad
  parameter list, incompatible comparison, invalid grid).
* ``ConvergenceError``: the half-line quadrature's 16- and 32-point rules
  disagree beyond its tolerance; the 32-point value travels with the
  exception.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain."""


class UsageError(ValueError):
    """The call is malformed independent of numeric values."""


class ConvergenceError(RuntimeError):
    """A quadrature did not reach its tolerance: the two Gauss-Laguerre
    rules of some component disagree.

    Attributes
    ----------
    value : float or ndarray
        The value computed anyway: the 32-point rule's, plus any closed-form
        part the caller adds to it.
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
