"""Certification and synthesis drivers.

Bisection over the decay rate, H2 bound minimization, convex synthesis
with mandatory round-trip re-certification, BMI alternation with a
structured state-feedback initializer, and the structured design with a
re-certification at the rate it returns. The rate certificate, the
structured design and the BMI initializer run the same halving loop,
``_bisect``, each on its own bracket.

Every certificate a driver reports passes one gate, ``_checked``: it is
decoded and then checked against the frequency-domain inequality on the
unit circle (``verify_fdi``), and a failure raises SolverError. The
synthesis drivers re-certify through ``certify_rate`` and ``certify_h2``,
so their results pass the same gate.
"""

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import lmi
from .algorithms import AlgorithmRealization, SectorBounds
from .errors import (DomainError, InfeasiblePrecondition, NotCertifiable,
                     PreconditionError, SolverError)
from .lmi import (H2Certificate, RateCertificate, SynthesisResult,
                  assemble_bmi_fixed_P, assemble_convex_synth,
                  assemble_convex_synth_perf, assemble_h2_for,
                  assemble_rate_for, assemble_structured_synth)
from .multipliers import ZamesFalbStructure, m_delta_matrix
from .plantbuild import AugmentedPlant, PerformanceAugmentedPlant
from .sdp import SolverOptions, solve
from .statespace import StateSpace, eval_frequency


# every bisection stops after this many halvings; at the tolerances the
# drivers and the CLI default to (1e-4 and wider) none reaches it
MAX_BISECTION_STEPS = 60
# bracket and tolerance of the structured design bisection
STRUCTURED_RHO_HI = 1.0 - 1e-6
STRUCTURED_TOL = 1e-3
# the H2 alternation of synthesize_bmi: at most this many steps, each
# accepted only if it lowers gamma by more than this relative amount
BMI_H2_STEPS = 30
BMI_H2_REL_TOL = 1e-3


@dataclass
class BisectionConfig:
    """Rate bisection on [nominal spectral radius + 1e-6, rho_hi], down to a
    bracket no wider than tol; a NaN or negative tol raises DomainError."""

    rho_hi: float = 1.0
    tol: float = 1e-4

    def __post_init__(self):
        if not self.tol >= 0:       # NaN too: hi - lo > nan is never true
            raise DomainError(f"tol must be a nonnegative number, got {self.tol}")


@dataclass
class CertificationResult:
    value: float
    kind: str                       # 'rate' | 'h2'
    certificate: object
    solves: int = 0
    seconds: float = 0.0
    log: list = field(default_factory=list)
    bracket: tuple | None = None


@dataclass
class FdiReport:
    ok: bool
    worst_eig: float


def fundamental_lower_bound(bounds: SectorBounds) -> float:
    """Best possible rate of any first-order method on this class."""
    rk = np.sqrt(bounds.kappa)
    return float((rk - 1) / (rk + 1))


def _refuse_below_lower_bound(rho: float, bounds: SectorBounds, name: str) -> None:
    """Refuse a target rate no first-order method reaches on this class."""
    bound = fundamental_lower_bound(bounds)
    if rho <= bound:
        raise PreconditionError(
            f"{name}={rho} is at or below the fundamental lower bound {bound:.4f}")


def h2_norm_linear(A, B, C) -> float:
    """H2 norm of (A, B, C, 0) via the discrete Lyapunov equation."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    C = np.atleast_2d(C)
    from scipy.linalg import solve_discrete_lyapunov  # kept out of `import iqcopt`

    P = solve_discrete_lyapunov(A, B @ B.T)
    return float(np.sqrt(max(np.trace(C @ P @ C.T), 0.0)))


# ---------------------------------------------------------------------------
# FDI verification
# ---------------------------------------------------------------------------

def _unit_circle(n_samples: int) -> np.ndarray:
    """The grid z_k = exp(2 pi i k / n) for k <= n // 2, and z_{n-k} =
    conj(z_k) for the rest: conjugate-symmetric by construction, so that
    verify_fdi may evaluate the upper half only. Each point lies within
    1e-15 of exp(2 pi i k / n)."""
    upper = np.exp(1j * 2.0 * np.pi * np.arange(n_samples // 2 + 1) / n_samples)
    return np.concatenate([upper, upper[1:(n_samples + 1) // 2][::-1].conj()])


def verify_fdi(certificate, plant, n_samples: int = 64) -> FdiReport:
    """Evaluate the multiplier-weighted FDI of a certificate on the circle.

    ok iff the largest Hermitian-part eigenvalue over the n_samples points
    of ``_unit_circle`` is strictly negative; a NaN eigenvalue fails the
    check. Only the n_samples // 2 + 1 points of the upper half (angles in
    [0, pi]) are evaluated, and they decide the grid bit for bit: the
    plant is cast to real matrices and the multiplier is real, so at
    conj(z) the resolvent, Phi and the Hermitian part are the conjugates
    of those at z, zI - A and conj(z)I - A have the same reciprocal
    condition number, and a Hermitian matrix and its conjugate have the
    same eigenvalues; LAPACK's and BLAS's complex arithmetic rounds
    conjugate inputs to conjugate outputs, so the computed eigenvalues
    are equal too. A pole at a lower-half point is therefore refused at
    its upper-half twin, whose SingularityError names that twin.

    The half-grid is evaluated in one eval_frequency call, which still
    checks each point for a pole; Phi^H mid Phi and its eigenvalues are
    then one stacked product and one batched eigvalsh. An n_samples that
    is not an integer >= 1 raises DomainError.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise DomainError(f"n_samples must be a positive integer, got {n_samples!r}")
    if isinstance(certificate, RateCertificate) and isinstance(plant, AugmentedPlant):
        ss = plant.as_statespace()
        mid = m_delta_matrix(certificate.zf, certificate.structure)
    elif isinstance(certificate, H2Certificate) and isinstance(plant, PerformanceAugmentedPlant):
        ss = StateSpace(plant.boldA, plant.boldB1, np.vstack([plant.boldC1, plant.boldC2]),
                        np.vstack([plant.boldD11, np.zeros((plant.n_yp, plant.p_c))]))
        MD = m_delta_matrix(certificate.zf, certificate.structure)
        mid = np.block([[MD, np.zeros((MD.shape[0], plant.n_yp))],
                        [np.zeros((plant.n_yp, MD.shape[0])), np.eye(plant.n_yp)]])
    else:
        raise PreconditionError("certificate type does not match the plant type")
    Phi = eval_frequency(ss, _unit_circle(n_samples)[:n_samples // 2 + 1])
    F = Phi.conj().transpose(0, 2, 1) @ mid @ Phi
    worst = float(np.max(np.linalg.eigvalsh(0.5 * (F + F.conj().transpose(0, 2, 1)))))
    return FdiReport(ok=worst < 0.0, worst_eig=worst)


# ---------------------------------------------------------------------------
# rate certification
# ---------------------------------------------------------------------------

def _bisect(probe, lo: float, hi: float, tol: float):
    """Halve [lo, hi] down to the smallest rho that probe accepts.

    probe(rho) returns a witness, or None when rho is infeasible. hi is
    probed first; when it fails, the search stops with witness None.
    Otherwise each midpoint replaces hi when it is accepted and lo when
    not, while hi - lo > tol, for at most MAX_BISECTION_STEPS halvings.
    Returns (lo, hi, the witness at hi, the (rho, feasible) log).
    """
    best = probe(hi)
    log = [(hi, best is not None)]
    if best is None:
        return lo, hi, None, log
    steps = 0
    while hi - lo > tol and steps < MAX_BISECTION_STEPS:
        mid = 0.5 * (lo + hi)
        got = probe(mid)
        log.append((mid, got is not None))
        if got is None:
            lo = mid
        else:
            hi, best = mid, got
        steps += 1
    return lo, hi, best, log


def _rate_feasible(algo, bounds, structure, rho, options, counter):
    """(asm, sol) when the rate LMI at rho solves certified, else None: the
    probe contract of _bisect. counter[0] counts the solves."""
    try:
        asm = assemble_rate_for(algo, bounds, structure, rho)
    except InfeasiblePrecondition:
        return None
    sol = solve(asm.problem, options)
    counter[0] += 1
    return (asm, sol) if sol.certified else None


def _checked(asm, sol, what: str):
    """The reporting gate: every certificate a driver returns comes from here.

    Decodes sol's certificate from asm and returns it once verify_fdi
    accepts it on asm.plant; otherwise raises SolverError, "<what> failed
    FDI verification (worst eig ...)".
    """
    cert = asm.decode(sol)
    report = verify_fdi(cert, asm.plant)
    if not report.ok:
        raise SolverError(
            f"{what} failed FDI verification (worst eig {report.worst_eig:.3e})")
    return cert


def certify_rate(algo: AlgorithmRealization, bounds: SectorBounds,
                 structure: ZamesFalbStructure, config: BisectionConfig = None,
                 options: SolverOptions = None) -> CertificationResult:
    """Smallest certified decay rate via bisection; raises NotCertifiable
    when even rho = rho_hi admits no certificate."""
    t0 = time.time()
    config = config or BisectionConfig()
    options = options or SolverOptions()
    radius = algo.nominal_radius(bounds.m)
    lo = radius + 1e-6
    hi = config.rho_hi
    if lo >= hi:
        lo = max(min(hi - config.tol, lo), 1e-6)
    counter = [0]
    lo, rho_star, best, log = _bisect(
        lambda rho: _rate_feasible(algo, bounds, structure, rho, options, counter),
        lo, hi, config.tol)
    if best is None:
        raise NotCertifiable(
            f"rate LMI infeasible at rho_hi={hi} (nominal radius {radius:.4f})")
    cert = _checked(*best, f"certificate at rho={rho_star:.6f}")
    return CertificationResult(
        value=rho_star, kind="rate", certificate=cert, solves=counter[0],
        seconds=time.time() - t0, log=log, bracket=(lo, rho_star))


def certify_h2(algo: AlgorithmRealization, bounds: SectorBounds,
               structure: ZamesFalbStructure, channel=None,
               options: SolverOptions = None) -> CertificationResult:
    """Minimized certified noise-amplification level gamma, from one solve.

    When the H2 solve is not certified, one solve of the rate LMI at
    rho = 1 sorts the failure: NotCertifiable when that LMI or the H2 LMI
    is infeasible, else SolverError.
    """
    t0 = time.time()
    options = options or SolverOptions()
    try:
        asm = assemble_h2_for(algo, bounds, structure, channel)
    except InfeasiblePrecondition as e:
        raise NotCertifiable(str(e)) from e
    sol = solve(asm.problem, options)
    if not sol.certified:
        # the H2 block is the rho = 1 rate block plus a PSD term, so it is
        # certified only when the rate LMI at rho = 1 is; that gate sorts a
        # failed solve into not certifiable (exit 3) and a solver failure
        if _rate_feasible(algo, bounds, structure.with_rho(1.0), 1.0, options, [0]) is None:
            raise NotCertifiable("rate LMI infeasible at rho = 1")
        if sol.status == "infeasible":
            raise NotCertifiable("H2 LMI infeasible at rho = 1")
        raise SolverError(f"H2 solve not certified: {sol}")
    cert = _checked(asm, sol, "H2 certificate")
    return CertificationResult(
        value=cert.gamma, kind="h2", certificate=cert, solves=1,
        seconds=time.time() - t0, log=[(1.0, cert.gamma)])


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synthesize_convex(n: int, p: int, bounds: SectorBounds, rho: float,
                      with_perf: bool = False,
                      structure: ZamesFalbStructure = None,
                      options: SolverOptions = None) -> SynthesisResult:
    """Convex synthesis; the result is re-certified before it is returned."""
    _refuse_below_lower_bound(rho, bounds, "rho")
    structure = structure or ZamesFalbStructure(1, 0, p, "unstructured", rho)
    options = options or SolverOptions()
    if with_perf:
        asm = assemble_convex_synth_perf(n, p, bounds, structure, rho)
    else:
        asm = assemble_convex_synth(n, p, bounds, structure, rho)
    sol = solve(asm.problem, options)
    if sol.status == "infeasible":
        raise NotCertifiable(f"convex synthesis infeasible at rho={rho}")
    if not sol.certified:
        raise SolverError(f"synthesis solve not certified: {sol}")
    result = asm.decode(sol)
    # round-trip: the recovered algorithm must re-pass the analysis LMI at
    # rho (tol=1 probes rho alone) and the gate
    try:
        certify_rate(result.algo, bounds, structure,
                     BisectionConfig(rho_hi=min(1.0, rho), tol=1.0), options)
    except NotCertifiable as e:
        raise SolverError("synthesized algorithm failed rate re-certification") from e
    gamma = result.gamma
    if with_perf:
        re_h2 = certify_h2(result.algo, bounds, structure,
                           channel=(result.algo.B, result.algo.C,
                                    np.zeros((p, p))), options=options)
        gamma = re_h2.value
    return SynthesisResult(algo=result.algo, P22=result.P22, QA=result.QA,
                           QB=result.QB, rho=rho, gamma=gamma)


def _structured_probe(H1, T, m2: float, L2: float, n: int, options: SolverOptions):
    """probe(rho) for _bisect: the decoded structured design, or None."""
    def probe(rho):
        asm = assemble_structured_synth(H1, T, m2, L2, n, rho)
        sol = solve(asm.problem, options)
        return asm.decode(sol) if sol.certified else None
    return probe


def _structured_initializer(n: int, p: int, bounds: SectorBounds,
                            options: SolverOptions):
    """Bisect the state-feedback design over rho; plain sector instance."""
    probe = _structured_probe(bounds.m * np.eye(p), np.eye(p), 0.0,
                              bounds.L - bounds.m, n, options)
    _, hi, best, _ = _bisect(probe, 1e-3, STRUCTURED_RHO_HI, STRUCTURED_TOL)
    if best is None:
        raise NotCertifiable("structured initializer infeasible even near rho = 1")
    return best.algo, hi


@dataclass
class BmiResult:
    algo: AlgorithmRealization
    rho: float
    gamma: float | None
    rate_certificate: RateCertificate = None
    h2_certificate: H2Certificate = None
    iterations: list = field(default_factory=list)
    solves: int = 0
    seconds: float = 0.0
    initializer_rho: float = None


def synthesize_bmi(n: int, p: int, bounds: SectorBounds, target_rho: float,
                   optimize: str = "h2", structure: ZamesFalbStructure = None,
                   options: SolverOptions = None) -> BmiResult:
    """Alternating LMI synthesis at a fixed target rate.

    The initializer is the structured state-feedback design for the widest
    class it can certify at target_rho; a continuation then regrows the
    class to (m, L), restoring feasibility at every step with the two LMI
    half-steps. For optimize='h2' a final alternation minimizes gamma^2 at
    the target rate, logging a monotone objective sequence.
    """
    t0 = time.time()
    if optimize not in ("rate", "h2"):
        raise PreconditionError("optimize must be 'rate' or 'h2'")
    _refuse_below_lower_bound(target_rho, bounds, "target_rho")
    structure = structure or ZamesFalbStructure(1, 0, p, "unstructured", target_rho)
    options = options or SolverOptions()
    solves = [0]
    iters = []

    # Rate phase by continuation over the class width: start from a class
    # small enough that the structured initializer is certified at the
    # target rate, then grow L back to its true value, restoring
    # feasibility at each step by alternating the two LMI half-steps.
    def alternate_margin(algo0, bnds, rho):
        """Alternate the two half-steps, at most 20 rounds, tracking the
        best slack margin.

        Returns (best_feasible_algo_or_None, best_slack). Keeps iterating
        past first feasibility so the accepted design carries margin into
        the next continuation step.
        """
        cur = algo0
        best = None
        s_best = np.inf
        s_prev = np.inf
        for _ in range(20):
            asm_p = lmi.assemble_rate_slack(cur, bnds, structure, rho, radius=100.0)
            sol_p = solve(asm_p.problem, options)
            solves[0] += 1
            if sol_p.x is None:
                break
            s1 = float(sol_p.values["s"])
            if (s1 < min(-1e-9, s_best)
                    and _rate_feasible(cur, bnds, structure, rho, options, solves)):
                best, s_best = cur, s1
            P_try = asm_p.decode_P(sol_p)
            try:
                asm_ab = assemble_bmi_fixed_P(n, p, bnds, structure, rho,
                                              P_try, slack=True)
            except PreconditionError:
                break
            sol_ab = solve(asm_ab.problem, options)
            solves[0] += 1
            if sol_ab.x is None:
                break
            s2 = float(sol_ab.values["s"])
            cand = asm_ab.decode(sol_ab).algo
            if (s2 < min(-1e-9, s_best)
                    and _rate_feasible(cand, bnds, structure, rho, options, solves)):
                best, s_best = cand, s2
            if s2 > min(s_prev, s1) - 1e-10:
                break
            cur = cand
            s_prev = s2
        return best, s_best

    # smallest class for which the initializer already meets the target
    kappa_goal = bounds.kappa
    # shrink the class down to kappa0 = 1.02, or to kappa itself when that is
    # below, and try that floor at least once
    kappa_floor = min(1.02, kappa_goal)
    kappa0 = min(kappa_goal, max(kappa_floor, 0.8 * (1 + target_rho) / (1 - target_rho)))
    algo = None
    rho0 = None
    while True:
        bnds0 = SectorBounds(bounds.m, bounds.m * kappa0)
        cand, rho0 = _structured_initializer(n, p, bounds=bnds0, options=options)
        if _rate_feasible(cand, bnds0, structure, target_rho, options, solves):
            algo = cand
            break
        if kappa0 <= kappa_floor:
            break
        kappa0 = max(kappa_floor, 0.7 * kappa0)
    if algo is None:
        raise NotCertifiable("no class width admits the structured initializer "
                             f"at target rho {target_rho:.4f}")
    iters.append(("init", target_rho, None))

    kappa_cur = kappa0
    growth = 1.15
    while kappa_cur < kappa_goal - 1e-12:
        kappa_try = min(kappa_goal, kappa_cur * growth)
        bnds_try = SectorBounds(bounds.m, bounds.m * kappa_try)
        got, _ = alternate_margin(algo, bnds_try, target_rho)
        if got is not None:
            algo = got
            kappa_cur = kappa_try
            growth = min(growth * 1.25, 1.6)
            iters.append(("grow-class", kappa_cur, None))
        else:
            growth = 1.0 + 0.5 * (growth - 1.0)
            if growth < 1.0005:
                raise NotCertifiable(
                    f"BMI continuation stalled at kappa={kappa_cur:.3f} "
                    f"(target kappa {kappa_goal:.3f}, rho {target_rho:.4f})")
    if _rate_feasible(algo, bounds, structure, target_rho, options, solves) is None:
        raise NotCertifiable("continuation finished but the final rate "
                             "certification failed")

    gamma_best = None
    h2_cert = None
    if optimize == "h2":
        channel = (algo.B, algo.C, np.zeros((p, p)))
        h2 = certify_h2(algo, bounds, structure, channel, options)
        solves[0] += h2.solves
        gamma_best = h2.value
        h2_cert = h2.certificate
        iters.append(("h2-analysis", target_rho, gamma_best))
        for _ in range(BMI_H2_STEPS):
            got = _rate_feasible(algo, bounds, structure, target_rho, options, solves)
            if got is None:
                break
            P_rate = got[0].decode(got[1]).P
            P_perf = h2_cert.P_p
            asm = assemble_bmi_fixed_P(n, p, bounds, structure, target_rho,
                                       P_rate, P_p=P_perf, slack=False)
            sol = solve(asm.problem, options)
            solves[0] += 1
            # a near-feasible candidate suffices: the fresh analysis below is
            # the actual certificate
            if sol.x is None:
                break
            cand = asm.decode(sol)
            try:
                h2_cand = certify_h2(cand.algo, bounds, structure,
                                     (cand.algo.B, cand.algo.C, np.zeros((p, p))),
                                     options)
            except (NotCertifiable, SolverError):
                break
            solves[0] += h2_cand.solves
            iters.append(("h2-step", target_rho, h2_cand.value))
            if h2_cand.value < gamma_best * (1.0 - BMI_H2_REL_TOL):
                algo = cand.algo
                gamma_best = h2_cand.value
                h2_cert = h2_cand.certificate
            else:
                # below-threshold improvement or a tie: keep the earlier
                # iterate and stop
                break

    final_rate = certify_rate(algo, bounds, structure,
                              BisectionConfig(rho_hi=min(1.0, target_rho + 1e-9),
                                              tol=1.0), options)
    solves[0] += final_rate.solves
    return BmiResult(algo=algo, rho=target_rho, gamma=gamma_best,
                     rate_certificate=final_rate.certificate,
                     h2_certificate=h2_cert, iterations=iters,
                     solves=solves[0], seconds=time.time() - t0,
                     initializer_rho=rho0)


def certify_structured_rate(H1, T, m2: float, L2: float, n: int,
                            options: SolverOptions = None) -> tuple:
    """Bisect the structured design LMI over rho; (best_rho, result).

    The design is then re-certified at best_rho: one solve of the rate LMI
    after the structured substitutions, with a static multiplier, whose
    certificate passes the reporting gate. A design that the analysis LMI
    refuses there, or whose certificate the gate refuses, raises
    SolverError instead of being returned.
    """
    options = options or SolverOptions()
    probe = _structured_probe(H1, T, m2, L2, n, options)
    _, hi, best, _ = _bisect(probe, 1e-4, STRUCTURED_RHO_HI, STRUCTURED_TOL)
    if best is None:
        raise NotCertifiable("structured design infeasible near rho = 1")
    what = f"structured design at rho={hi:.6f}"
    try:
        asm = lmi.assemble_structured_rate(
            best.algo, H1, T, m2, L2, ZamesFalbStructure(0, 0, 1, "unstructured", hi), hi)
    except InfeasiblePrecondition as e:
        raise SolverError(f"{what} failed rate re-certification") from e
    sol = solve(asm.problem, options)
    if not sol.certified:
        raise SolverError(f"{what} failed rate re-certification")
    _checked(asm, sol, what)
    return hi, best
