"""Solver front end for SdpProblem instances.

``solve`` runs the native backend (:mod:`iqcopt.native`), a primal-dual
interior-point method that needs only numpy and scipy. The backend forms
the answer itself, one ``SdpSolution`` whose ``status`` is one of four
outcomes:

* ``certified``: x satisfies every constraint by the strict eigenvalue
  recheck ``SdpProblem.verify``. That is a problem without free
  variables whose constraints hold (the empty problem too), a
  feasibility problem whose phase I reached t < 0, and a phase II that
  ended optimal, stalled or at its iteration cap at a point verify
  accepts.
* ``infeasible``: a checked certificate that no x satisfies the
  constraints: inconsistent equality rows, a Farkas certificate, or a
  violated problem without free variables.
* ``undecided``: neither. Phase I ended undecided, stalled or at its
  iteration cap, an eigen- or SVD solver did not converge, or verify
  refused the candidate; only that candidate is kept in x.
* ``diverged``: the objective decreases along a direction no constraint
  restricts, or phase II's iterate grew without bound.

Callers act on ``status`` and ``x`` only. ``phase``, ``stop`` and
``iterations`` say where the solver stopped, and ``message`` formats the
answer for display.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .problem import SdpProblem

# iterations per phase; an interior-point method that has not converged
# by then is stalled, so larger caps are clipped to this one
MAX_ITERS = 100


@dataclass
class SolverOptions:
    """The solver's tolerances, finite numbers >= 0, and its iteration cap
    per phase, an integer >= 1; other values raise DomainError."""

    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        if not (0 <= self.tol_abs < np.inf and 0 <= self.tol_rel < np.inf):     # NaN too
            raise DomainError(f"solver tolerances must be finite numbers >= 0, got {self}")
        cap = self.max_iters
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise DomainError(f"solver max_iters must be an integer >= 1, got {self}")


@dataclass
class SdpSolution:
    """The solver's answer.

    status is certified, infeasible, undecided or diverged (see the module
    docstring); any other word, as a caller may build for decoding, is not
    certified. phase is the phase that answered, 1 or 2, or 0 when none
    did; stop is that phase's own stop word (optimal, stalled, max_iters,
    undecided, ...) and iterations the iterations of both phases. worst is
    verify's worst margin at x, positive when x violates a constraint.
    detail holds the numbers shown by ``message`` (phase I's final t, the
    Farkas radius) and is for display only.
    """

    status: str
    x: np.ndarray | None = None
    values: dict = field(default_factory=dict)
    objective: float | None = None
    phase: int = 0
    stop: str = ""
    iterations: int = 0
    worst: float | None = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        """True when the solution numerically satisfies every constraint."""
        return self.status == "certified"

    @property
    def message(self) -> str:
        """The answer for display, e.g. "undecided (stalled in phase 1
        after 19 iterations, t=8.573e-07)"."""
        text = self.stop
        if self.phase:
            text += f" in phase {self.phase} after {self.iterations} iterations"
        if self.detail:
            text += f", {self.detail}"
        if self.worst is not None:
            text += f", worst margin {self.worst:.3e}"
        return f"{self.status} ({text})"

    __str__ = message.fget


def solve(problem: SdpProblem, options: SolverOptions = None) -> SdpSolution:
    """Solve an SdpProblem; never raises on solver failure.

    The answer is certified, infeasible, undecided or diverged, as the
    module docstring maps them. ``certified`` solutions satisfy every
    block to a strict eigenvalue recheck; bisection drivers treat
    everything else as not feasible, which can only bias certified rates
    conservatively. ``infeasible`` is reported only with a checked
    certificate.
    """
    from .native import solve_native  # deferred: keeps `import iqcopt` cheap

    try:
        return solve_native(problem, options or SolverOptions())
    except np.linalg.LinAlgError as e:   # an eigen- or SVD solver did not converge
        return SdpSolution("undecided", stop="linalg", detail=str(e))
