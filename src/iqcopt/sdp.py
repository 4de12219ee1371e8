"""Solver front end for SdpProblem instances.

Two backends sit behind ``solve``, chosen by whether cvxpy imports.
Where it does, 'auto' and 'probe' run it with CLARABEL as the primary
interior-point solver and SCS as fallback. Where it does not, they run
the native backend (:mod:`iqcopt.native`), which needs only numpy and
scipy. Every claimed-feasible solution is re-checked by
direct eigenvalue computation (``SdpProblem.verify``) before it is
reported as certified; an unverifiable solution is downgraded so that
callers never act on a certificate that does not numerically hold.
"""

from dataclasses import dataclass, field

import warnings

import numpy as np

from .errors import SolverError
from .problem import AffineMatrix, SdpProblem

try:
    import cvxpy as cp
except ImportError as _e:  # pragma: no cover
    cp = None
    _cvxpy_import_error = _e

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"        # inaccurate solver status, verified anyway
STATUS_INFEASIBLE = "infeasible"
STATUS_INACCURATE = "inaccurate"    # solver claimed success, verification failed
STATUS_ERROR = "error"


@dataclass
class SolverOptions:
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    # iteration cap: SCS takes it as given; the interior-point methods
    # converge in tens of iterations, and the native one clips it to
    # native.MAX_ITERS
    max_iters: int = 200000
    solver: str = "auto"            # 'auto' | 'probe' | 'clarabel' | 'scs'
    verbose: bool = False

    def as_probe(self) -> "SolverOptions":
        """Drop the slow SCS rescue; used for bisection probes where a
        conservative not-feasible decision is acceptable."""
        which = "probe" if self.solver == "auto" else self.solver
        return SolverOptions(self.tol_abs, self.tol_rel, self.max_iters,
                             which, self.verbose)


@dataclass
class SdpSolution:
    status: str
    x: np.ndarray | None = None
    values: dict = field(default_factory=dict)
    objective: float | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    verified: bool = False
    weak: bool = False              # solver reported an inaccurate status
    solver: str = ""
    message: str = ""

    @property
    def certified(self) -> bool:
        """True when the solution numerically satisfies every constraint."""
        return self.status in (STATUS_OPTIMAL, STATUS_FEASIBLE) and self.verified


def coefficient_operator(expr: AffineMatrix, nvars: int):
    """Sparse (r*c, nvars) G with vec(expr.value(x) - expr.const) = G @ x.

    vec stacks rows (C order).
    """
    import scipy.sparse as sp

    G = expr.coeffs.reshape(expr.keys.size, -1).T
    rows, cols = np.nonzero(G)
    return sp.csr_matrix((G[rows, cols], (rows, expr.keys[cols])),
                         shape=(G.shape[0], nvars))


def _build_cvxpy(problem: SdpProblem):
    x = cp.Variable(problem.nvars) if problem.nvars else None
    cons = []
    for blk in problem.blocks:
        d = blk.expr.shape[0]
        F0 = blk.expr.const
        if blk.expr.keys.size and problem.nvars:
            G = coefficient_operator(blk.expr, problem.nvars)
            expr = cp.reshape(G @ x, (d, d), order="C") + F0
            expr = 0.5 * (expr + expr.T)
        else:
            expr = cp.Constant(F0)
        if blk.sense == "neg":
            cons.append(expr << -blk.eps * np.eye(d))
        else:
            cons.append(expr >> blk.eps * np.eye(d))
    for row in problem.linear:
        lhs = row.dense(problem.nvars) @ x if problem.nvars else 0.0
        if row.sense == "<=":
            cons.append(lhs <= row.rhs)
        elif row.sense == ">=":
            cons.append(lhs >= row.rhs)
        else:
            cons.append(lhs == row.rhs)
    if problem.objective is not None and problem.nvars:
        orow = np.zeros(problem.nvars)
        orow[problem.objective.keys] = problem.objective.coeffs[:, 0, 0]
        objective = cp.Minimize(orow @ x + problem.objective.const[0, 0])
    else:
        objective = cp.Minimize(0)
    return cp.Problem(objective, cons), x


def _run(prob, options: SolverOptions, which: str):
    kwargs = {"verbose": options.verbose}
    if which == "clarabel":
        kwargs["solver"] = cp.CLARABEL
    elif which == "clarabel-tight":
        # large-magnitude certificates need feasibility beyond the default
        # 1e-8 for the strict eigenvalue recheck to pass
        kwargs["solver"] = cp.CLARABEL
        kwargs["tol_feas"] = min(options.tol_abs, 1e-11)
        kwargs["tol_gap_abs"] = min(options.tol_abs, 1e-11)
        kwargs["tol_gap_rel"] = min(options.tol_rel, 1e-11)
        kwargs["max_iter"] = 500
    elif which == "scs":
        kwargs["solver"] = cp.SCS
        kwargs["eps"] = max(options.tol_abs, 1e-10)
        kwargs["max_iters"] = options.max_iters
    else:  # pragma: no cover
        raise SolverError(f"unknown backend {which!r}")
    with warnings.catch_warnings():
        # inaccurate-solution warnings are redundant: every solution is
        # re-checked by eigenvalue computation below
        warnings.filterwarnings("ignore", message="Solution may be inaccurate")
        warnings.filterwarnings("ignore", message="Constraint .* contains too many subexpressions")
        prob.solve(**kwargs)
    return prob.status


def _checked(problem: SdpProblem, xv: np.ndarray, converged: bool, solver: str,
             message: str, weak: bool = False) -> SdpSolution:
    """Recheck a candidate with ``problem.verify`` and package it."""
    ok, worst = problem.verify(xv)
    obj = None
    if problem.objective is not None:
        obj = float(problem.objective.value(xv)[0, 0])
    return SdpSolution(
        status=(STATUS_OPTIMAL if (converged and ok) else
                STATUS_FEASIBLE if ok else STATUS_INACCURATE),
        x=xv, values={v.name: problem.extract(v.name, xv) for v in problem.variables},
        objective=obj, primal_residual=float(max(worst, 0.0)), dual_residual=None,
        verified=ok, weak=weak, solver=solver, message=message,
    )


def _solve_native(problem: SdpProblem, options: SolverOptions) -> SdpSolution:
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
    return _checked(problem, res.x, res.status == "optimal", "native", message,
                    weak=res.status != "optimal")


def solve(problem: SdpProblem, options: SolverOptions = None) -> SdpSolution:
    """Solve an SdpProblem; never raises on solver failure.

    The returned status is one of optimal/feasible/infeasible/inaccurate/
    error. ``certified`` solutions satisfy every block to a strict
    eigenvalue recheck; bisection drivers treat everything else as
    not-feasible, which can only bias certified rates conservatively.
    'auto' and 'probe' use the cvxpy ladder when cvxpy imports and the
    native backend otherwise.
    """
    options = options or SolverOptions()
    if problem.nvars == 0 and not problem.blocks and not problem.linear:
        return SdpSolution(status=STATUS_OPTIMAL, x=np.zeros(0), objective=0.0,
                           verified=True, solver="trivial")
    if cp is None and options.solver in ("auto", "probe"):
        return _solve_native(problem, options)
    if options.solver not in ("auto", "probe", "clarabel", "scs"):
        return SdpSolution(status=STATUS_ERROR,
                           message=f"unknown solver {options.solver!r}")
    if cp is None:
        return SdpSolution(status=STATUS_ERROR,
                           message=f"cvxpy unavailable: {_cvxpy_import_error}")

    if options.solver in ("clarabel", "scs"):
        order = [options.solver]
    elif options.solver == "probe":
        order = ["clarabel", "clarabel-tight"]
    else:
        order = ["clarabel", "clarabel-tight", "scs"]
    last_message = ""
    infeasible_seen = False
    best_unverified = None
    for which in order:
        # fresh model per attempt: cvxpy warm-starts repeated solves, which
        # can pin the retry to the previous (slightly infeasible) point
        cvx_prob, x = _build_cvxpy(problem)
        try:
            st = _run(cvx_prob, options, which)
        except cp.SolverError as e:
            last_message = f"{which}: {e}"
            continue
        except Exception as e:  # defensive: cvxpy occasionally leaks backend errors
            last_message = f"{which}: {type(e).__name__}: {e}"
            continue
        if st in (cp.INFEASIBLE, cp.INFEASIBLE_INACCURATE):
            infeasible_seen = True
            return SdpSolution(status=STATUS_INFEASIBLE, solver=which,
                               weak=st == cp.INFEASIBLE_INACCURATE, message=st)
        if st in (cp.OPTIMAL, cp.OPTIMAL_INACCURATE):
            xv = np.asarray(x.value, dtype=float).ravel() if x is not None else np.zeros(0)
            if x is not None and (x.value is None or not np.all(np.isfinite(xv))):
                last_message = f"{which}: returned non-finite solution"
                continue
            sol = _checked(problem, xv, st == cp.OPTIMAL, which, st,
                           weak=st == cp.OPTIMAL_INACCURATE)
            if sol.verified:
                return sol
            last_message = (f"{which}: solution failed verification "
                            f"(worst={sol.primal_residual:.2e})")
            if best_unverified is None or sol.primal_residual < best_unverified.primal_residual:
                best_unverified = sol
            continue
        if st in (cp.UNBOUNDED, cp.UNBOUNDED_INACCURATE):
            # minimize-0 problems cannot be unbounded; objective problems
            # reaching here indicate a modeling error worth surfacing
            return SdpSolution(status=STATUS_ERROR, solver=which,
                               message=f"unbounded ({st})")
        last_message = f"{which}: status {st}"
    if best_unverified is not None:
        # solver claimed success but the strict recheck failed; callers that
        # only need a candidate (e.g. BMI half-steps followed by a fresh
        # analysis) may still use the values
        best_unverified.message = last_message
        return best_unverified
    if infeasible_seen:  # pragma: no cover
        return SdpSolution(status=STATUS_INFEASIBLE, message=last_message)
    return SdpSolution(status=STATUS_ERROR, message=last_message or "no backend succeeded")
