"""Assembly of every matrix-inequality system as an abstract SdpProblem.

All analysis inequalities share one KYP-style congruence

    [A B; I 0; C D]^T blkdiag(P, -P, M) [A B; I 0; C D]  <=  -eps I,

with the multiplier matrix M affine in the kernel parameters. Every
block is written as the entries of its coefficient matrices (see
:mod:`iqcopt.problem`); no builder forms a dense K x m x m stack. One
writer, :func:`iqcopt.problem.congruence`, writes every T^T X T term by
one elementwise definition: the product (T[a, c] v) T[b, d] of each
entry (k, a, b, v) of X and each pair of nonzeros of its rows a and b is
listed at (k, c, d), and each entry is summed from 0.0 in listing order,
so every term holds the same bits on any BLAS kernel. ``_kyp`` is that
congruence over out = [AB; I 0; C D] and the middle blkdiag(P, -P, M),
in one listing: P's unit basis is never built, its products come first
(the rank-2 matrices a_i^T a_j + a_j^T a_i, nonzero only where [A B] has
nonzero columns), then -P's -1 entries, then the multiplier's terms. P is
declared before the multiplier's variables, so a block's keys are P's
range followed by theirs, and its entries are P's followed by the
multiplier's, key-major without a sort.
Where and in what order the products are summed depends on the nonzero
pattern of out and the multiplier's layout alone, and
[Ac(rho) Bc; I 0; Cc(rho) Dc] has one pattern at every rho that a
rho-free plant part accepts; the H2 plant's rows are it at rho = 1. So
the rate, H2 and rate-slack assemblies share one KYP plan per part
(``_KypPlan``), derived from the first plant assembled and kept on the
part for as long as the part is: the congruence plan (each product's
factors, its entry and the entries' key layout) and the names of the
multiplier's membership rows. A probe then computes only values: four
gathers, two products and one np.bincount for the whole block, and the
membership rows' rho weights. A plant with no part (a test's reference
plant), a synthesis block's multiplier states and a BMI block's
multiplier term get their plan from the same code for the blocks they
build.
Synthesis variants reshuffle the same blocks by Schur complement so the
algorithm matrices appear linearly. ``place`` sums a synthesis block's
(row offset, column offset, term) list entry by entry; the terms of an
entry are listed in the order the entry is summed in, so every block
holds the numbers of the term-by-term sum. A convex block moves the
KYP term of its multiplier states, ``_kyp``'s on P11 (on no rows of
[A B] when there are none), to its offset and adds its constant terms;
its own terms, -1 at P22's entries and the algorithm rows of QA and QB
in TR, are a declared variable's unit basis times constants and are
listed as entries beside it. A BMI half-step places its constant and
multiplier terms, and lists the terms of A and B column by column from
the nonzeros of the algorithm rows bot: TR's columns P22[:, a] v and the
cross term's columns top^T (P12[:, a] v), all from one product, in the
association of top^T (P12 bot). Either way the blocks hold the same bits
as the dense per-key terms. A sub-block of a variable is a slice of its
expression, never a product with a 0/1 selector: the H2 Schur block
reads P's algorithm block P[nd:, nd:], and with canonical
Ddagger = [I; 0] the fixed-point rows (A - I) Ddagger = 0 are the first
p columns, QA[:, :p] - P22[:, :p] and A[:, :p] - Ddagger, which
``_design`` sets exactly when it decodes a design. Strict inequalities carry a relative
margin eps = 1e-7 (1 + ||const||_F); certificates are rechecked by
eigenvalue computation in the solver layer, so a reported certificate
always holds numerically.
"""

from dataclasses import dataclass, field

import numpy as np

from .algorithms import (AlgorithmRealization, SectorBounds, canonical_output,
                         chain_matrices, reduce_to_scalar_block,
                         StructuredControllerForm, from_structured)
from .errors import (ArgumentError, DimensionError, DomainError, InfeasiblePrecondition,
                     PreconditionError, StructureError)
from .multipliers import (ZamesFalbParameters, ZamesFalbStructure,
                          m_delta_coefficients, m_delta_entries, membership_entries,
                          psi_delta_realization)
from .plantbuild import (AugmentedPlant, PerformanceAugmentedPlant, build_perf_plant,
                         build_rate_plant, build_rate_plant_loop, check_structured_data,
                         default_noise_channel, structured_loop)
from .problem import (AffineMatrix, CongruencePlan, SdpProblem, VariableInfo, congruence,
                      from_codes, from_entries, place, placed_codes, sum_codes, upper_triangle)
from .sdp import SdpSolution


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCertificate:
    P: np.ndarray = field(repr=False)
    zf: ZamesFalbParameters = field(repr=False)
    rho: float = 0.0
    structure: ZamesFalbStructure = None


@dataclass(frozen=True)
class H2Certificate:
    P_p: np.ndarray = field(repr=False)
    zf: ZamesFalbParameters = field(repr=False)
    gamma: float = 0.0
    Z: np.ndarray = field(repr=False, default=None)
    structure: ZamesFalbStructure = None


@dataclass(frozen=True)
class SynthesisResult:
    algo: AlgorithmRealization
    P22: np.ndarray = field(repr=False, default=None)
    QA: np.ndarray = field(repr=False, default=None)
    QB: np.ndarray = field(repr=False, default=None)
    rho: float = 0.0
    gamma: float | None = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _add_multiplier(prob: SdpProblem, structure: ZamesFalbStructure,
                    name: str = "zf_theta", names=None) -> AffineMatrix:
    """Declare the kernel variables, add their membership rows, and return
    their M_Delta expression.

    Over theta's unit basis, rows @ theta is the transposed membership
    array on theta's consecutive keys, so the rows are added from its
    entries directly and no expression of theta is built. M_Delta's
    entries are the shape's layout's, shared read-only. ``names`` are the
    rows' names (``_row_names``) when a plan holds them already.
    """
    info = prob.declare(name, "matrix", (structure.parameter_count(), 1))
    keys = info.offset + np.arange(info.size)
    entries, senses, labels = membership_entries(structure)
    names = names or _row_names(name, labels)
    prob.add_linear(from_entries((len(senses), 1), np.zeros((len(senses), 1)), keys, *entries),
                    senses, 0.0, names)
    q = m_delta_coefficients(structure).shape[1]
    return from_entries((q, q), np.zeros((q, q)), keys, *m_delta_entries(structure))


def _row_names(name: str, labels) -> list:
    """The names of the membership rows of the variable ``name``."""
    return [f"{name}:{label}" for label in labels]


def _decode_zf(structure: ZamesFalbStructure, theta_value) -> ZamesFalbParameters:
    return ZamesFalbParameters(tuple(structure.matrices_from_theta(
        np.asarray(theta_value).ravel())))


@dataclass(frozen=True)
class _KypPlan:
    """The rho-free plan of the KYP blocks on the plants of one rho-free
    part: the congruence plan of [A B; I 0; C D] over blkdiag(P, -P, M)
    and the names of the multiplier's membership rows."""

    terms: CongruencePlan
    names: list


def _kyp_terms(out: np.ndarray, n: int, rows) -> CongruencePlan:
    """The congruence plan of ``_kyp``'s listing: out = [AB; I 0; out_1; ..]
    over blkdiag(P, -P, X_1, ..) for an n x n P and the expressions
    ``rows`` X_b, of which only the layout is read. P's unit basis is
    E_ij + E_ji (E_ii on the diagonal) on P's n (n + 1) / 2 keys, 1 in P's
    block and -1 in -P's, and each X_b's keys follow the last."""
    R = out.shape[0]
    _, _, bk, br, bc = upper_triangle(n)
    kix, pos = [bk, bk], [br * R + bc, (n + br) * R + n + bc]
    lo, o = n * (n + 1) // 2, 2 * n
    for X in rows:      # X_b's entry e at row and column o + its own
        kix.append(lo + X.kix)
        pos.append(X.pos + X.pos // X.shape[0] * (R - X.shape[0]) + o * (R + 1))
        lo, o = lo + X.keys.size, o + X.shape[0]
    return CongruencePlan(out, np.concatenate(kix), np.concatenate(pos))


def _plant_kyp(prob: SdpProblem, plant, AB: np.ndarray, CD: np.ndarray,
               structure: ZamesFalbStructure, name: str, *rows) -> AffineMatrix:
    """Declare the symmetric P as ``name`` and the multiplier of
    ``structure``, and return ``_kyp(AB, P, (CD, M), *rows)`` on the
    plant's KYP plan: its rho-free part's, derived from this
    [A B; I 0; C D] on first use and kept on the part, or derived afresh
    for a plant with no part.

    [Ac(rho) Bc] and [Cc(rho) Dc] have the same nonzeros at every rho the
    part accepts: a probe divides only nonzero rho-free entries by rho in
    (0, 1], which makes none of them zero, and the overflow guard keeps
    them finite. The H2 block's rows are the rate plant's at rho = 1, and
    M_Delta's layout is its shape's at every rho. Concurrent callers
    derive equal plans, so at worst one is derived twice.
    """
    plan = getattr(plant.part, "plan", None)
    names = plan.names if plan else _row_names("zf_theta", membership_entries(structure)[2])
    P = prob.declare(name, "symmetric", (plant.n_c, plant.n_c))
    md = _add_multiplier(prob, structure, names=names)
    if plan is None:
        plan = _KypPlan(_kyp_terms(np.concatenate([AB, np.eye(*AB.shape), CD]), AB.shape[0],
                                   [md]), names)
        if plant.part is not None:
            plant.part.plan = plan
    return _kyp(AB, P, (CD, md), *rows, terms=plan.terms)


def _kyp(AB: np.ndarray, P: VariableInfo, *rows, terms: CongruencePlan = None) -> AffineMatrix:
    """out^T blkdiag(P, -P, X_1, ..) out for out = [AB; I 0; out_1; ..].

    P is a declared symmetric variable (None when AB has no rows) and
    ``rows`` the pairs (out_b, X_b). The block is one ``congruence``
    listing over P's unit basis, -P's and the X_b that hold variables, so
    neither the zero-padded middle matrix nor P's unit basis is built as
    an expression: for E_ij + E_ji with i < j, entry (c, d) of P's term is
    0 + a_i[c] a_j[d] + a_j[c] a_i[d] for the rows a_i of AB, for E_ii it
    is 0 + a_i[c] a_i[d], then minus 1 where the basis has a 1; a row
    term's entry is the sum of its products (out_b[a, c] v) out_b[b, d]
    over X_b's entries in key-major order. Each product is rounded, so
    every entry holds the same bits on any BLAS kernel. Where and in what
    order the products are summed depends on the nonzero pattern of out
    and the X_b's layouts alone, which ``terms`` holds (derived here when
    not given). A constant X_b, such as the H2 block's C2 row, adds
    (out_b^T X_b) out_b to the constant alone.

    Every caller declares P before the row variables, so the key union is
    P's range followed by each X_b's keys in turn, and the entries are
    P's followed by each row term's. Keys out of that order raise
    ArgumentError.
    """
    n, m = AB.shape
    held = [(o, X) for o, X in rows if X.keys.size]
    keys = np.concatenate([np.arange(P.offset, P.offset + P.size) if P else np.arange(0)]
                          + [X.keys for _, X in held])
    if (keys[1:] <= keys[:-1]).any():
        raise ArgumentError("_kyp: keys out of order; declare P before the row variables")
    const = sum(((o.T @ X.const) @ o for o, X in rows if X.const.any()), np.zeros((m, m)))
    out = np.concatenate([AB, np.eye(n, m)] + [o for o, _ in held])
    terms = terms or _kyp_terms(out, n, [X for _, X in held])
    val = np.concatenate([np.repeat([1.0, -1.0], n * n)] + [X.val for _, X in held])
    return from_entries((m, m), const, keys, *terms.entries(out, val))


def _minus_identity(s: AffineMatrix, dim: int) -> AffineMatrix:
    """-s I for a scalar variable s, as a dim x dim expression."""
    return AffineMatrix((dim, dim), keys=s.keys,
                        entries=(np.zeros(dim, dtype=np.intp), np.arange(dim) * (dim + 1),
                                 np.full(dim, -1.0)))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

@dataclass
class RateAssembly:
    problem: SdpProblem
    plant: AugmentedPlant
    structure: ZamesFalbStructure

    def decode(self, sol: SdpSolution) -> RateCertificate:
        P = np.asarray(sol.values["P"])
        theta = np.asarray(sol.values["zf_theta"]).ravel()
        tr = float(np.trace(P))
        if tr > 0:  # remove the scale invariance of the homogeneous LMI
            tau = self.plant.n_c / tr
            P = tau * P
            theta = tau * theta
        return RateCertificate(P=P, zf=_decode_zf(self.structure, theta),
                               rho=self.plant.rho, structure=self.structure)


def assemble_rate(plant: AugmentedPlant) -> RateAssembly:
    """Feasibility SDP certifying robust exponential rate plant.rho."""
    structure, rho = plant.structure, plant.rho
    if abs(structure.rho - rho) > 1e-12:
        structure = structure.with_rho(rho)
    if plant.nominal_radius >= rho:
        raise InfeasiblePrecondition(
            f"nominal spectral radius {plant.nominal_radius:.6f} >= rho={rho}")
    prob = SdpProblem(f"rate[rho={rho:.6g}]")
    prob.add_lmi(_plant_kyp(prob, plant, np.hstack([plant.Ac, plant.Bc]),
                            np.hstack([plant.Cc, plant.Dc]), structure, "P"), "neg", name="rate")
    return RateAssembly(prob, plant, structure)


def assemble_rate_for(algo: AlgorithmRealization, bounds: SectorBounds,
                      structure: ZamesFalbStructure, rho: float) -> RateAssembly:
    plant = build_rate_plant(algo, bounds, structure.with_rho(rho), rho)
    return assemble_rate(plant)


def assemble_rate_reduced(algo: AlgorithmRealization, bounds: SectorBounds,
                          structure: ZamesFalbStructure, rho: float) -> RateAssembly:
    """Rate LMI on the p=1 Kronecker core; feasibility-equivalent and smaller."""
    if structure.klass != "unstructured":
        raise StructureError("the reduced LMI applies to the unstructured class")
    core = reduce_to_scalar_block(algo)  # raises StructureError if not Kronecker
    red = ZamesFalbStructure(structure.ell_causal, structure.ell_anticausal, 1,
                             "unstructured", rho)
    return assemble_rate_for(core, bounds, red, rho)


@dataclass
class H2Assembly:
    problem: SdpProblem
    plant: PerformanceAugmentedPlant
    structure: ZamesFalbStructure

    def decode(self, sol: SdpSolution) -> H2Certificate:
        t = float(sol.values["t"])
        return H2Certificate(
            P_p=np.asarray(sol.values["P_p"]),
            zf=_decode_zf(self.structure, np.asarray(sol.values["zf_theta"]).ravel()),
            gamma=float(np.sqrt(max(t, 0.0))),
            Z=np.asarray(sol.values["Z"]),
            structure=self.structure,
        )


def assemble_h2(perf_plant: PerformanceAugmentedPlant) -> H2Assembly:
    """Minimization SDP for the asymptotic noise-amplification level gamma."""
    structure = perf_plant.structure.with_rho(1.0)
    if perf_plant.nominal_radius >= 1.0:
        raise InfeasiblePrecondition("nominal loop is not Schur stable")
    pl = perf_plant
    prob = SdpProblem("h2")
    kyp = _plant_kyp(prob, pl, np.hstack([pl.boldA, pl.boldB1]),
                     np.hstack([pl.boldC1, pl.boldD11]), structure, "P_p",
                     (np.hstack([pl.boldC2, np.zeros((pl.n_yp, pl.p_c))]),
                      AffineMatrix.constant(np.eye(pl.n_yp))))
    Z = prob.add_symmetric("Z", pl.n_wp)
    t = prob.add_scalar("t")
    prob.add_lmi(kyp, "neg", name="h2-kyp")

    P = prob.variable_expr("P_p")
    NPN = P[pl.n_mult:, pl.n_mult:]         # N^T P N for N = [0; I]
    NPNB2 = NPN @ pl.boldB2[pl.n_mult:]     # ... times N^T B2
    schur = AffineMatrix.block([[NPN, NPNB2], [NPNB2.T, Z]])
    prob.add_lmi(schur, "pos", name="h2-trace-schur")
    prob.add_lmi(P, "pos", name="h2-Pp-pos")
    prob.add_linear(Z.trace() - t, "<=", 0.0, name="trZ<=t")
    prob.minimize(t)
    return H2Assembly(prob, pl, structure)


def assemble_h2_for(algo: AlgorithmRealization, bounds: SectorBounds,
                    structure: ZamesFalbStructure, channel=None) -> H2Assembly:
    channel = channel or default_noise_channel(algo)
    plant = build_perf_plant(algo, bounds, structure.with_rho(1.0), channel)
    return assemble_h2(plant)


# ---------------------------------------------------------------------------
# convex synthesis
# ---------------------------------------------------------------------------

def _synth_constants(n: int, p: int, bounds: SectorBounds,
                     structure: ZamesFalbStructure, rho: float):
    """Constant plant pieces for synthesis with canonical C, D, Ddagger."""
    C, D, Dd = canonical_output(n, p)
    psi = psi_delta_realization(structure, bounds.L - bounds.m)
    nd = psi.nx
    N = n * p
    nc = nd + N
    # rows of [Ac(rho) Bc] belonging to the multiplier states (constant)
    top = np.hstack([psi.A, psi.B[:, :p] @ C / rho, psi.B[:, p:]])
    CcDc = np.hstack([psi.C, psi.D[:, :p] @ C / rho, psi.D[:, p:]])
    return C, D, Dd, nd, N, nc, top, CcDc


@dataclass
class ConvexSynthAssembly:
    problem: SdpProblem
    n: int
    p: int
    bounds: SectorBounds
    structure: ZamesFalbStructure
    rho: float
    with_perf: bool = False

    def decode(self, sol: SdpSolution) -> SynthesisResult:
        P22, QA, QB = (np.asarray(sol.values[k]) for k in ("P22", "QA", "QB"))
        return _design(self, sol, np.linalg.solve(P22, QA), np.linalg.solve(P22, QB),
                       P22=P22, QA=QA, QB=QB)


def _design(asm, sol: SdpSolution, A: np.ndarray, B: np.ndarray, **found) -> SynthesisResult:
    """The designed algorithm (A, B) of a synthesis assembly's solution.

    The fixed-point equality (A - I) Ddagger = 0 is affine and the solver
    meets it only to its own tolerance, so A's first p columns are set to
    the canonical Ddagger exactly; with the H2 objective gamma = sqrt(t).
    """
    C, D, Dd = canonical_output(asm.n, asm.p)
    A[:, :asm.p] = Dd
    gamma = None
    if asm.with_perf and "t" in sol.values:
        gamma = float(np.sqrt(max(float(sol.values["t"]), 0.0)))
    return SynthesisResult(algo=AlgorithmRealization(A, B, C, D, Dd, n=asm.n, p=asm.p),
                           rho=asm.rho, gamma=gamma, **found)


def _algorithm_rows(N: int, p: int, sector_m: float, C: np.ndarray, scale: float):
    """The coefficient row each scalar of the N x N A, then of the N x p B,
    puts in bot = [0  scale (A + m B C)  B] past its zero columns, and the
    row of bot it lies in: scale e_j^T for A[i, j] and
    [scale (m C[l, :])  e_l^T] for B[i, l], both in row i."""
    rows = np.zeros((N * (N + p), N + p))
    A, B = rows[:N * N].reshape(N, N, N + p), rows[N * N:].reshape(N, p, N + p)
    A[:, :, :N] = scale * np.eye(N)
    B[:, :, :N] = scale * (sector_m * C)
    B[:, :, N:] = np.eye(p)
    return rows, np.concatenate([np.arange(N * N) // N, np.arange(N * p) // p])


def _convex_synth_block(sector_m, C, scale, P22, P11, QA, QB, top, CcDc, md,
                        extra=0.0) -> AffineMatrix:
    """[[-P22, TR], [TR^T, U]] for the convex synthesis blocks.

    TR = [0  scale (QA + m QB C)  QB] and, with P = blkdiag(P11, P22),
    U = top^T P11 top - blkdiag(P, 0) + CcDc^T M CcDc: the A,B-dependent
    rows of [Ac Bc] are annihilated by P - N P22 N^T = blkdiag(P11, 0).
    Without P22's entries U is the KYP term of the multiplier states,
    ``_kyp(top, P11, (CcDc, M))``; with none (nd = 0) top has no rows and
    there is no P11, so the same listing holds the multiplier term alone.

    That term's entries are placed at (N, N) over a key union that holds
    the keys of P22, QA and QB too, and the constant ``extra`` is added to
    U's constant. Every term of those three is a unit basis times
    constants, so their entries are listed beside U's: -1 at P22's
    entries in both of its blocks, and the rows ``_algorithm_rows`` gives
    QA's and QB's scalars, scale at QA[a, b]'s entry and scale (m C[l, :])
    and 1 at QB[a, l]'s, in row a of TR, each beside its transpose. No
    entry of a key takes two of these terms, so the block holds the bits
    of the term-by-term sum, with one sort where ``place`` would take two.
    """
    (N, _), (nd, mt), p = P22.shape, top.shape, C.shape[0]
    dim = N + mt
    RC = dim * dim
    U = _kyp(top, P11, (CcDc, md))
    keys = np.sort(np.concatenate([P22.keys, QA.keys, QB.keys, U.keys]))
    const = np.zeros((dim, dim))
    const[N:, N:] = U.const + extra     # U's constant is +0.0: the multiplier's is
    codes, vals = [placed_codes(keys, (dim, dim), N, N, U)], [U.val]
    _, _, bk, br, bc = upper_triangle(N)
    bk = bk + np.searchsorted(keys, P22.keys[0])
    for o in (0, N + nd):
        codes.append(bk * RC + (o + br) * dim + o + bc)
        vals.append(np.full(bk.size, -1.0))
    rows, a = _algorithm_rows(N, p, sector_m, C, scale)
    k, col = np.nonzero(rows)
    kq = np.searchsorted(keys, np.concatenate([QA.keys, QB.keys]))[k] * RC
    a, tr = a[k], col + N + nd
    codes += [kq + a * dim + tr, kq + tr * dim + a]
    vals += [rows[k, col]] * 2
    code, val = sum_codes(np.concatenate(codes), np.concatenate(vals))
    return from_codes((dim, dim), const, keys, code, val)


def assemble_convex_synth(n: int, p: int, bounds: SectorBounds,
                          structure: ZamesFalbStructure, rho: float) -> ConvexSynthAssembly:
    """Convex rate synthesis with block-diagonal P (conservative)."""
    if not (0 < rho < 1):
        raise DomainError("synthesis requires rho in (0, 1)")
    structure = ZamesFalbStructure(structure.ell_causal, structure.ell_anticausal,
                                   p, structure.klass, rho)
    C, D, Dd, nd, N, nc, top, CcDc = _synth_constants(n, p, bounds, structure, rho)
    prob = SdpProblem(f"synth[rho={rho:.6g}]")
    P22 = prob.add_symmetric("P22", N)
    P11 = prob.declare("P11", "symmetric", (nd, nd)) if nd else None
    QA = prob.add_matrix("QA", N, N)
    QB = prob.add_matrix("QB", N, p)
    md = _add_multiplier(prob, structure)
    prob.add_lmi(_convex_synth_block(bounds.m, C, 1.0 / rho, P22, P11, QA, QB, top, CcDc, md),
                 "neg", name="synth-rate")
    # (QA - P22) Ddagger = 0 with canonical Ddagger = [I; 0]: the first p columns
    prob.add_matrix_equality(QA[:, :p] - P22[:, :p], name="eq-fixedpoint")
    return ConvexSynthAssembly(prob, n, p, bounds, structure, rho)


def assemble_convex_synth_perf(n: int, p: int, bounds: SectorBounds,
                               structure: ZamesFalbStructure,
                               rho: float) -> ConvexSynthAssembly:
    """Joint rate + H2 convex synthesis; channel fixed to B_perf=B, C_perf=C."""
    asm = assemble_convex_synth(n, p, bounds, structure, rho)
    prob = asm.problem
    structure = asm.structure
    # performance plant pieces live at rho = 1
    C, _, _, nd, N, _, top1, CcDc1 = _synth_constants(n, p, bounds, structure, 1.0)
    P22 = prob.variable_expr("P22")
    QA = prob.variable_expr("QA")
    QB = prob.variable_expr("QB")
    Pp11 = prob.declare("Pp11", "symmetric", (nd, nd)) if nd else None
    md_p = _add_multiplier(prob, structure.with_rho(1.0), name="zf_theta_p")
    Z = prob.add_symmetric("Z", p)
    t = prob.add_scalar("t")

    # performance rows: C_perf = C on the algorithm states, zero elsewhere
    C2 = np.hstack([np.zeros((p, nd)), C, np.zeros((p, p))])
    prob.add_lmi(_convex_synth_block(bounds.m, C, 1.0, P22, Pp11, QA, QB, top1, CcDc1, md_p,
                                     C2.T @ C2), "neg", name="synth-h2")
    trace_blk = AffineMatrix.block([[P22, QB], [QB.T, Z]])
    prob.add_lmi(trace_blk, "pos", name="synth-h2-trace")
    prob.add_linear(Z.trace() - t, "<=", 0.0, name="trZ<=t")
    prob.minimize(t)
    asm.with_perf = True
    return asm


# ---------------------------------------------------------------------------
# BMI alternation half-steps
# ---------------------------------------------------------------------------

@dataclass
class BmiFixedPAssembly:
    problem: SdpProblem
    n: int
    p: int
    bounds: SectorBounds
    structure: ZamesFalbStructure
    rho: float
    with_perf: bool
    slack: bool

    def decode(self, sol: SdpSolution) -> SynthesisResult:
        return _design(self, sol, np.array(sol.values["A"]),
                       np.asarray(sol.values["B"]))


def _fixed_certificate(P, name: str, nc: int, nd: int) -> np.ndarray:
    """A fixed nc x nc certificate whose algorithm block P[nd:, nd:] is PD.

    A non-finite entry raises DomainError before any product is formed:
    its products would put NaN in coefficients, which no block check reads.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (nc, nc):
        raise DimensionError(f"{name} must be {nc}x{nc}")
    if not np.isfinite(P).all():
        raise DomainError(f"{name} must be finite")
    P22 = P[nd:, nd:]
    if np.min(np.linalg.eigvalsh(0.5 * (P22 + P22.T))) <= 0:
        raise PreconditionError(f"{name}22 must be positive definite when fixing {name}")
    return P


def _add_box_rows(prob: SdpProblem, Ae: AffineMatrix, Be: AffineMatrix) -> None:
    """|entry| <= 10 for every entry of [A B]: a '<=' row, then a '>=' row.

    Keeps candidate algorithms well-scaled for the next half-step. The
    entries come row by row, A's entries (i, :) before B's; the solver's
    SVD sees the rows in this order, so it is kept. A declared matrix
    variable's keys are its entries in row-major order, so each row is a
    unit coefficient on the key of its entry.
    """
    entries = np.hstack([Ae.keys.reshape(Ae.shape), Be.keys.reshape(Be.shape)]).ravel()
    t = np.argsort(entries)         # the box entry of each key, in key order
    prob.add_linear(AffineMatrix((2 * t.size, 1), keys=entries[t],
                                 entries=(np.repeat(np.arange(t.size), 2),
                                          np.stack([2 * t, 2 * t + 1], axis=1).ravel(),
                                          np.ones(2 * t.size))),
                    ["<=", ">="] * entries.size, [10.0, -10.0] * entries.size)


def assemble_bmi_fixed_P(n: int, p: int, bounds: SectorBounds,
                         structure: ZamesFalbStructure, rho: float,
                         P: np.ndarray, P_p: np.ndarray = None,
                         slack: bool = False) -> BmiFixedPAssembly:
    """Fixed-certificate half-step: linear in (A, B, multipliers).

    With ``slack`` the rate block is relaxed to <= s I and s is minimized
    (used to walk the target rate down); otherwise the rate block is a
    hard constraint and, when P_p is given, the H2 objective t = gamma^2
    is minimized subject to the performance blocks.
    """
    structure = ZamesFalbStructure(structure.ell_causal, structure.ell_anticausal,
                                   p, structure.klass, rho)
    C, D, Dd, nd, N, nc, top, CcDc = _synth_constants(n, p, bounds, structure, rho)
    P = _fixed_certificate(P, "P", nc, nd)
    with_perf = P_p is not None
    if with_perf:
        P_p = _fixed_certificate(P_p, "P_p", nc, nd)
    prob = SdpProblem(f"bmi-fixedP[rho={rho:.6g}]")
    Ae = prob.add_matrix("A", N, N)
    Be = prob.add_matrix("B", N, p)
    md = _add_multiplier(prob, structure)
    dim = N + nc + p
    AB_keys = np.concatenate([Ae.keys, Be.keys])
    # the multiplier term's plan; the H2 block's rows at rho = 1 and its
    # multiplier have the same nonzeros and layout
    terms = CongruencePlan(CcDc, md.kix, md.pos)

    def rate_block(P_, rho_, md_, top_, CcDc_, extra):
        """[[-P22, TR], [TR^T, U]] plus the ``extra`` terms, with TR =
        P22 bot and U = top^T P11 top + sym2(top^T (P12 bot)) - blkdiag(P, 0)
        + CcDc^T M CcDc, where bot = [0  rho^-1 (A + m B C)  B] holds the
        algorithm rows.

        ``place`` sums the terms free of A and B over a key union that holds
        A's and B's keys too. A key of A has one nonzero in bot, rho^-1, and
        a key of B two, rho^-1 (m C) and 1, both in the key's row a. Each
        nonzero (key, a, column, v) past bot's nd zero columns then lists
        TR's column P22[:, a] v and the cross term's column top^T
        (P12[:, a] v), all taken in one product, each beside its transpose:
        the nonzero entries of the dense per-key products, whose other rows
        and columns are zero, summed in the order the products were added.
        A column of top that is zero gives a zero cross entry, so only
        top's nonzero columns are listed. A and B are declared before the
        multipliers, so their entries precede the placed ones.
        """
        rows, row_of_key = _algorithm_rows(N, p, bounds.m, C, 1.0 / rho_)
        k, c = np.nonzero(rows)
        # [P12; P22][:, a] v for each nonzero: the P12 bot and TR columns
        Pv = P_[:, nd + row_of_key[k]] * rows[k, c]
        blk = place((dim, dim), [(0, 0, -P_[nd:, nd:]), (N, N, top_.T @ P_[:nd, :nd] @ top_),
                                 (N, N, -P_), (N, N, congruence(CcDc_, md_, terms))] + extra,
                    keys=AB_keys)
        RC = dim * dim
        k = (k + np.searchsorted(blk.keys, AB_keys[0]))[:, None] * RC
        c = (c + N + nd)[:, None]
        t = np.arange(N)
        TR = Pv[nd:].T
        codes, vals = [k + t * dim + c, k + c * dim + t], [TR, TR]
        if nd:
            used = top_.any(axis=0).nonzero()[0]
            u = N + used
            cross = (top_.T @ Pv[:nd]).T[:, used]
            codes += [k + u * dim + c, k + c * dim + u]
            vals += [cross, cross]
        code = np.concatenate([x.ravel() for x in codes])
        val = np.concatenate([x.ravel() for x in vals])
        nz = val != 0.0      # a zero term changes no sum that starts at 0.0
        code, val = sum_codes(code[nz], val[nz])
        return from_codes((dim, dim), blk.const, blk.keys,
                          np.concatenate([code, blk.kix * RC + blk.pos]),
                          np.concatenate([val, blk.val]))

    if slack:
        s = prob.add_scalar("s")
        prob.add_lmi(rate_block(P, rho, md, top, CcDc, [(0, 0, _minus_identity(s, dim))]),
                     "neg", eps=0.0, name="bmi-rate-slack")
        s_max = 10.0 * (1.0 + float(np.max(np.abs(P))))
        prob.add_linear(s, ">=", -s_max)
        prob.add_linear(s, "<=", s_max)
        _add_box_rows(prob, Ae, Be)
        prob.minimize(s)
    else:
        # absolute margin: the block constant carries P, so the default
        # relative eps would exceed the warm start's analysis margin
        prob.add_lmi(rate_block(P, rho, md, top, CcDc, []), "neg", eps=1e-9, name="bmi-rate")

    if with_perf:
        Pp22c = P_p[nd:, nd:]
        md_p = _add_multiplier(prob, structure.with_rho(1.0), name="zf_theta_p")
        _, _, _, _, _, _, top1, CcDc1 = _synth_constants(n, p, bounds, structure, 1.0)
        C2 = np.hstack([np.zeros((p, nd)), C, np.zeros((p, p))])
        prob.add_lmi(rate_block(P_p, 1.0, md_p, top1, CcDc1, [(N, N, C2.T @ C2)]),
                     "neg", eps=1e-9, name="bmi-h2")
        Z = prob.add_symmetric("Z", p)
        t = prob.add_scalar("t")
        PB = Pp22c @ Be
        trace_blk = AffineMatrix.block([[AffineMatrix.constant(Pp22c), PB], [PB.T, Z]])
        prob.add_lmi(trace_blk, "pos", eps=1e-9, name="bmi-h2-trace")
        prob.add_linear(Z.trace() - t, "<=", 0.0)
        if not slack:
            prob.minimize(t)

    # fixed-point condition (A - I) Ddagger = 0 with canonical Ddagger = [I; 0]
    prob.add_matrix_equality(Ae[:, :p] - Dd, name="eq-fixedpoint")
    return BmiFixedPAssembly(prob, n, p, bounds, structure, rho, with_perf, slack)


@dataclass
class RateSlackAssembly:
    problem: SdpProblem
    plant: AugmentedPlant
    structure: ZamesFalbStructure

    def decode_P(self, sol: SdpSolution) -> np.ndarray:
        return np.asarray(sol.values["P"])


def assemble_rate_slack(algo: AlgorithmRealization, bounds: SectorBounds,
                        structure: ZamesFalbStructure, rho: float,
                        radius: float = 1e6) -> RateSlackAssembly:
    """Slack-minimization variant of the rate LMI for alternation.

    minimize s subject to the KYP block <= s I, with the scale pinned by
    P22 >= I (any certificate can be scaled up to satisfy it, so s* < 0
    iff the rate LMI is strictly feasible within the box radius). The
    optimal s measures how far the fixed algorithm is from certifiable.
    """
    plant = build_rate_plant(algo, bounds, structure.with_rho(rho), rho)
    prob = SdpProblem(f"rate-slack[rho={rho:.6g}]")
    kyp = _plant_kyp(prob, plant, np.hstack([plant.Ac, plant.Bc]),
                     np.hstack([plant.Cc, plant.Dc]), structure.with_rho(rho), "P")
    s = prob.add_scalar("s")
    prob.add_lmi(kyp + _minus_identity(s, kyp.shape[0]), "neg", eps=0.0, name="rate-slack")
    P = prob.variable_expr("P")
    nd, nl = plant.n_mult, plant.n_loop
    prob.add_lmi(P[nd:, nd:] - np.eye(nl), "pos",
                 eps=0.0, name="p22-normalized")
    prob.add_lmi(AffineMatrix.constant(radius * np.eye(plant.n_c)) - P, "pos",
                 eps=0.0, name="p-box-hi")
    prob.add_lmi(P + AffineMatrix.constant(radius * np.eye(plant.n_c)), "pos",
                 eps=0.0, name="p-box-lo")
    prob.add_linear(s, ">=", -radius)
    prob.add_linear(s, "<=", radius)
    prob.minimize(s)
    return RateSlackAssembly(prob, plant, structure.with_rho(rho))


# ---------------------------------------------------------------------------
# structured (parametrized-objective) design and analysis
# ---------------------------------------------------------------------------

@dataclass
class StructuredSynthAssembly:
    problem: SdpProblem
    n: int
    p: int
    rho: float

    def decode(self, sol: SdpSolution) -> SynthesisResult:
        Q = np.asarray(sol.values["Q"])
        M = np.asarray(sol.values["M"])
        K = M @ np.linalg.inv(Q)
        gains = tuple(K[:, i * self.p:(i + 1) * self.p] for i in range(self.n))
        algo = from_structured(StructuredControllerForm(gains))
        return SynthesisResult(algo=algo, rho=self.rho)


def assemble_structured_synth(H1, T, m2: float, L2: float, n: int,
                              rho: float) -> StructuredSynthAssembly:
    """State-feedback design LMI for gradients H1 z + T^T grad2(T z).

    grad2 is slope-restricted in [m2, L2]; the uncertain part is centered
    at beta = (L2+m2)/2 and handled by an S-procedure with a quadratic
    Lyapunov function. Recovery: K = M Q^{-1}.
    """
    H1 = np.atleast_2d(np.asarray(H1, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    p = H1.shape[0]
    q = T.shape[0]
    if H1.shape != (p, p) or T.shape[1] != p:
        raise DimensionError("H1 must be p x p, T must be q x p")
    check_structured_data(H1, T, m2, L2)
    if not (0 < rho < 1):
        raise DomainError("rho must lie in (0, 1)")
    C, _, _ = canonical_output(n, p)
    N = n * p
    A1, B1 = chain_matrices(n, p)
    # transformed chain: first block holds grad(C x); its own row is identity
    A2 = np.eye(N) + A1
    if n > 1:
        A2[:p, p:2 * p] = 0.0
    B2 = np.zeros((N, p))
    B2[:p, :] = np.eye(p)
    beta = 0.5 * (L2 + m2)
    TT = T.T @ T
    Abar = A2 + B2 @ H1 @ (C @ A1) + beta * B2 @ TT @ (C @ A1)
    CB1 = C @ B1
    Bbar = (B1 if n > 1 else np.zeros_like(B1)) \
        + B2 @ H1 @ CB1 + beta * B2 @ TT @ CB1
    Gbar = B2 @ T.T
    GammaA = T @ (C @ A1)   # Gamma = T C (A1 + B1 K); K-part enters via M
    GammaB = T @ CB1

    prob = SdpProblem(f"structured-synth[rho={rho:.6g}]")
    Q = prob.add_symmetric("Q", N)
    M = prob.add_matrix("M", p, N)
    closed = Abar @ Q + Bbar @ M
    if L2 - m2 < 1e-14:
        # no uncertainty left: w vanishes identically and the sector rows
        # are vacuous, so only the Lyapunov decay condition remains
        blk = AffineMatrix.block([[Q, closed], [closed.T, rho ** 2 * Q]])
    else:
        gamma_row = GammaA @ Q + GammaB @ M
        blk = AffineMatrix.block([
            [Q, np.zeros((N, q)), closed, AffineMatrix.constant(0.5 * (L2 - m2) * Gbar)],
            [np.zeros((q, N)), np.eye(q), gamma_row, np.zeros((q, q))],
            [closed.T, gamma_row.T, rho ** 2 * Q, np.zeros((N, q))],
            [AffineMatrix.constant(0.5 * (L2 - m2) * Gbar.T), np.zeros((q, q)), np.zeros((q, N)), np.eye(q)],
        ])
    prob.add_lmi(blk, "pos", name="structured")
    return StructuredSynthAssembly(prob, n, p, rho)


def assemble_structured_rate(algo: AlgorithmRealization, H1, T, m2: float,
                             L2: float, structure: ZamesFalbStructure,
                             rho: float) -> RateAssembly:
    """Rate analysis after the structured substitutions.

    With T = I and H1 = m I, m2 = 0, L2 = L - m this is matrix-identical
    to the plain sector analysis.
    """
    loop = structured_loop(algo, H1, T, m2, L2)
    if loop.radius >= rho:
        raise InfeasiblePrecondition("structured nominal loop too slow for rho")
    q = loop.channel_dim
    st = ZamesFalbStructure(structure.ell_causal, structure.ell_anticausal, q,
                            structure.klass, rho)
    plant = build_rate_plant_loop(loop, st, rho)
    return assemble_rate(plant)
