"""Solver front end for SdpProblem instances.

``solve`` runs the native backend (:mod:`iqcopt.native`), a primal-dual
interior-point method that needs only numpy and scipy. Every candidate
it returns is re-checked by direct eigenvalue computation
(``SdpProblem.verify``) before it is reported as certified; an
unverifiable solution is downgraded so that callers never act on a
certificate that does not numerically hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .problem import SdpProblem

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"        # not converged, verified anyway
STATUS_INFEASIBLE = "infeasible"
STATUS_INACCURATE = "inaccurate"    # candidate returned, verification failed
STATUS_ERROR = "error"

# iterations per phase; an interior-point method that has not converged
# by then is stalled, so larger caps are clipped to this one
MAX_ITERS = 100


@dataclass
class SolverOptions:
    """The solver's tolerances, finite numbers >= 0 (else DomainError), and
    its iteration cap per phase."""

    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        if not (0 <= self.tol_abs < np.inf and 0 <= self.tol_rel < np.inf):     # NaN too
            raise DomainError(f"solver tolerances must be finite numbers >= 0, got {self}")


@dataclass
class SdpSolution:
    status: str
    x: np.ndarray | None = None
    values: dict = field(default_factory=dict)
    objective: float | None = None
    primal_residual: float | None = None
    verified: bool = False
    solver: str = ""
    message: str = ""

    @property
    def certified(self) -> bool:
        """True when the solution numerically satisfies every constraint."""
        return self.status in (STATUS_OPTIMAL, STATUS_FEASIBLE) and self.verified


def solve(problem: SdpProblem, options: SolverOptions = None) -> SdpSolution:
    """Solve an SdpProblem; never raises on solver failure.

    The returned status is one of optimal/feasible/infeasible/inaccurate/
    error. ``certified`` solutions satisfy every block to a strict
    eigenvalue recheck; bisection drivers treat everything else as
    not-feasible, which can only bias certified rates conservatively.
    ``infeasible`` is reported only with a checked Farkas certificate.
    """
    options = options or SolverOptions()
    if problem.nvars == 0 and not problem.blocks and not problem.linear:
        return SdpSolution(status=STATUS_OPTIMAL, x=np.zeros(0), objective=0.0,
                           verified=True, solver="trivial")
    from .native import solve_native  # deferred: keeps `import iqcopt` cheap

    try:
        res = solve_native(problem, lambda x: problem.verify(x)[0], options.tol_abs,
                           options.tol_rel, options.max_iters)
    except np.linalg.LinAlgError as e:   # an eigen- or SVD solver did not converge
        return SdpSolution(status=STATUS_ERROR, solver="native", message=f"native: {e}")
    message = f"{res.status} after {res.iterations} iterations" + (
        f": {res.message}" if res.message else "")
    if res.status == "infeasible":
        return SdpSolution(status=STATUS_INFEASIBLE, solver="native", message=message)
    if res.x is None:
        return SdpSolution(status=STATUS_ERROR, solver="native", message=message)
    ok, worst = problem.verify(res.x)
    obj = None
    if problem.objective is not None:
        obj = float(problem.objective.value(res.x)[0, 0])
    return SdpSolution(
        status=(STATUS_OPTIMAL if (res.status == "optimal" and ok) else
                STATUS_FEASIBLE if ok else STATUS_INACCURATE),
        x=res.x, values={v.name: problem.extract(v.name, res.x) for v in problem.variables},
        objective=obj, primal_residual=float(max(worst, 0.0)), verified=ok,
        solver="native", message=message,
    )
