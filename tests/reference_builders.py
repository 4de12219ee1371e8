"""Reference builders: the plant and KYP assembly composed factor by factor.

psi_Delta from kron, np.block and block_diag (and as the library once
wrote it by index into fresh arrays on every call), the plants through the
[C; 0] and [0; I] helpers, built whole on every call with nothing kept
between probes, and the KYP block with P's terms written densely by
their definition, each entry a sum of rounded products, and subtracted
P's unit basis stack. Every other congruence T^T X T here is the batched
BLAS product of X's dense stack (``dense_congruence``), as the library
took it before it wrote each one entry by entry. The library builds the
same objects by index; the tests compare the two entry for entry.

The problem container's former forms are kept here as well: an
``add_lmi`` that stores every block symmetrized, and linear rows added one
1x1 expression per call (membership rows, matrix equalities and the BMI
box rows). The tests check that the solver receives the same blocks and
the same rows from the library's forms. ``reference_verify`` is the
eigenvalue recheck as it was written first, the block scale computed on
every call and the rows converted from lists, with every block and the
row column evaluated by ``value``'s definition on the dense stack: 0 +
x_k F_k added key by key, then the constant; the tests check that the
library's ``verify`` returns the same bits on every finite candidate.

The four synthesis builders are kept as they were composed from the
expression algebra: every sum, difference and block allocates a new
stack, and ``AffineMatrix.block`` copied each block into its slot. The
tests check that the library's placed blocks hold the same numbers. The
convex synthesis blocks are also kept as ``place`` summed them, one dense
per-key stack per term; the tests check that the library's blocks,
written from their variables' entries, hold the same bits.

The named algorithms are kept as dense Kronecker lifts built up front,
and ``kronecker_lift`` lifts a state-space system the same way. The tests
check that the realizations, which store the p=1 core, read the same
dense matrices.

The composition oracles (series, rho-scaling and output stacking of
realizations, the factored multiplier and the generic KYP problem) live
here too: the library has no use for them, and the tests check the direct
builders against them. So do the bisection loops each driver once ran on
its own, which the tests run beside the library's one loop.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from iqcopt import lmi, plantbuild
from iqcopt.algorithms import SectorBounds, canonical_output, table_parameters
from iqcopt.errors import DimensionError, DomainError, PreconditionError, SingularityError
from iqcopt.multipliers import (ZamesFalbStructure, m_delta_coefficients, m_delta_matrix,
                                membership_constraints, psi_delta_realization)
from iqcopt.plantbuild import AugmentedPlant, PerformanceAugmentedPlant
from iqcopt.problem import EPS_REL, _NO_KEYS, AffineMatrix, LmiBlock, SdpProblem, place
from iqcopt.statespace import POLE_RCOND, StateSpace


def _shift_chain(ell):
    """States store the last `ell` inputs; (zI-A)^{-1}B = [z^-ell .. z^-1]^T."""
    A = np.zeros((ell, ell))
    for i in range(ell - 1):
        A[i, i + 1] = 1.0
    B = np.zeros((ell, 1))
    if ell:
        B[-1, 0] = 1.0
    return A, B


def composed_psi_delta_realization(structure, bounds):
    """psi_Delta composed from kron, np.block and block_diag, factor by factor."""
    lc, la, p = structure.ell_causal, structure.ell_anticausal, structure.p
    W = sector_transform(bounds, p)
    Ac, Bc = _shift_chain(lc)
    Aa, Ba = _shift_chain(la)
    Cc, Ca = np.eye(lc), np.flipud(np.eye(la))
    Ip = np.eye(p)
    A = sla.block_diag(np.kron(Ac, Ip), np.kron(Aa, Ip))
    B = sla.block_diag(np.kron(Bc, Ip), np.kron(Ba, Ip)) @ W
    Z = np.zeros
    C = np.block([
        [Z((p, lc * p)), Z((p, la * p))],
        [Z((p, lc * p)), Z((p, la * p))],
        [np.kron(Cc, Ip), Z((lc * p, la * p))],
        [Z((p, lc * p)), Z((p, la * p))],
        [Z((p, lc * p)), Z((p, la * p))],
        [Z((la * p, lc * p)), np.kron(Ca, Ip)],
    ])
    D = np.block([
        [Ip, Z((p, p))],
        [Z((p, p)), Ip],
        [Z((lc * p, p)), Z((lc * p, p))],
        [Z((p, p)), Ip],
        [Ip, Z((p, p))],
        [Z((la * p, p)), Z((la * p, p))],
    ]) @ W
    return StateSpace(A, B, C, D)


def _psi(structure, width):
    return composed_psi_delta_realization(structure, SectorBounds(1.0, 1.0 + width))


def _set_diagonal(X, row, col, length, value):
    """X[row + i, col + i] = value for i < length, as one strided slice."""
    n = X.shape[1]
    start = row * n + col
    X.reshape(-1)[start:start + max(length, 0) * (n + 1):n + 1] = value


def reference_psi_delta_realization(structure, width):
    """psi_Delta written by index into fresh zeroed arrays on every call.

    The causal chain stores the last lc values of v = w u_1 - u_2 and the
    anticausal chain the last la values of u_2 (What folded into B and
    D), and C reads the anticausal chain in reverse.
    """
    lc, la, p = structure.ell_causal, structure.ell_anticausal, structure.p
    nc, na = lc * p, la * p
    nx, ny = nc + na, 4 * p + nc + na
    o3, o4, o5 = 2 * p + nc, 3 * p + nc, 4 * p + nc
    A = np.zeros((nx, nx))
    _set_diagonal(A, 0, p, nc - p, 1.0)
    _set_diagonal(A, nc, nc + p, na - p, 1.0)
    B = np.zeros((nx, 2 * p))
    if lc:
        _set_diagonal(B, nc - p, 0, p, width)
        _set_diagonal(B, nc - p, p, p, -1.0)
    if la:
        _set_diagonal(B, nx - p, p, p, 1.0)
    C = np.zeros((ny, nx))
    _set_diagonal(C, 2 * p, 0, nc, 1.0)
    for a in range(la):                      # output tap a reads state la-1 - a
        _set_diagonal(C, o5 + a * p, nc + (la - 1 - a) * p, p, 1.0)
    D = np.zeros((ny, 2 * p))
    for r in (0, o4):
        _set_diagonal(D, r, 0, p, width)
        _set_diagonal(D, r, p, p, -1.0)
    for r in (p, o3):
        _set_diagonal(D, r, p, p, 1.0)
    return StateSpace(A, B, C, D)


def reference_build_rate_plant_loop(loop, structure, rho):
    q = loop.channel_dim
    psi = _psi(structure, loop.width)
    N = loop.nstates
    nd = psi.nx
    Cext = np.vstack([loop.Ceff, np.zeros((q, N))])      # [C; 0]
    Din = np.vstack([np.zeros((q, q)), np.eye(q)])       # [0; I]
    Ac = np.block([
        [psi.A, psi.B @ Cext / rho],
        [np.zeros((N, nd)), loop.Anom / rho],
    ])
    Bc = np.vstack([psi.B @ Din, loop.Beff])
    Cc = np.hstack([psi.C, psi.D @ Cext / rho])
    Dc = psi.D @ Din
    return AugmentedPlant(Ac, Bc, Cc, Dc, n_mult=nd, n_loop=N, p_c=q, q_c=psi.ny,
                          rho=rho, loop=loop, structure=structure)


def reference_build_perf_plant_loop(loop, structure, B_perf, C_perf):
    q = loop.channel_dim
    B_perf = np.atleast_2d(np.asarray(B_perf, dtype=float))
    C_perf = np.atleast_2d(np.asarray(C_perf, dtype=float))
    N = loop.nstates
    nwp, nyp = B_perf.shape[1], C_perf.shape[0]
    psi = _psi(structure, loop.width)
    nd = psi.nx
    Cext = np.vstack([loop.Ceff, np.zeros((q, N))])
    Din = np.vstack([np.zeros((q, q)), np.eye(q)])
    boldA = np.block([
        [psi.A, psi.B @ Cext],
        [np.zeros((N, nd)), loop.Anom],
    ])
    return PerformanceAugmentedPlant(
        boldA, np.vstack([psi.B @ Din, loop.Beff]),
        np.vstack([np.zeros((nd, nwp)), B_perf]),
        np.hstack([psi.C, psi.D @ Cext]), np.hstack([np.zeros((nyp, nd)), C_perf]),
        psi.D @ Din,
        n_mult=nd, n_loop=N, p_c=q, q_c=psi.ny, n_wp=nwp, n_yp=nyp,
        loop=loop, structure=structure,
    )


def reference_build_rate_plant(algo, bounds, structure, rho):
    """The sector plant built afresh on every call, nothing kept."""
    if structure.p != algo.p:
        raise DimensionError("structure.p must equal the algorithm dimension p")
    return reference_build_rate_plant_loop(plantbuild.sector_loop(algo, bounds), structure, rho)


def reference_build_perf_plant(algo, bounds, structure, perf):
    B_perf, C_perf, _ = perf
    if structure.p != algo.p:
        raise DimensionError("structure.p must equal the algorithm dimension p")
    return reference_build_perf_plant_loop(plantbuild.sector_loop(algo, bounds), structure,
                                           B_perf, C_perf)


def reference_synth_constants(n, p, bounds, structure, rho):
    C, D, Dd = canonical_output(n, p)
    psi = _psi(structure, bounds.L - bounds.m)
    nd = psi.nx
    N = n * p
    nc = nd + N
    Cext = np.vstack([C, np.zeros((p, N))])
    Din = np.vstack([np.zeros((p, p)), np.eye(p)])
    top = np.hstack([psi.A, psi.B @ Cext / rho, psi.B @ Din])
    CcDc = np.hstack([psi.C, psi.D @ Cext / rho, psi.D @ Din])
    return C, D, Dd, nd, N, nc, top, CcDc


def p_terms(AB):
    """AB^T P AB on the unit basis of the symmetric P, as a dense stack
    written by its definition: 0 + outer(a_i, a_j) + outer(a_j, a_i) for
    E_ij + E_ji with i < j and 0 + outer(a_i, a_i) for E_ii, for the rows
    a_i of AB, each product rounded before the sum."""
    n, m = AB.shape
    coeffs = np.empty((n * (n + 1) // 2, m, m))
    for k, (i, j) in enumerate(zip(*np.triu_indices(n))):
        coeffs[k] = 0.0 + np.outer(AB[i], AB[j])
        if i != j:
            coeffs[k] += np.outer(AB[j], AB[i])
    return coeffs


def unit_basis(P_info):
    """The unit basis stack of a declared symmetric variable: E_ij + E_ji
    for i < j and E_ii, in the order of np.triu_indices."""
    n = P_info.shape[0]
    i, j = np.triu_indices(n)
    k = np.arange(P_info.size)
    basis = np.zeros((P_info.size, n, n))
    basis[k, i, j] = 1.0
    basis[k, j, i] = 1.0
    return basis


def dense_congruence(T, X):
    """T^T X T as the batched BLAS product (T^T F_k) T of X's dense stack,
    keeping the entries that are not +0.0, and the constant
    (T^T const) T: the congruence as the library computed it before it
    wrote every term entry by entry. Where every column of T holds one
    nonzero per key's rows, each entry is one rounded product on any
    kernel, and the library's congruence holds the same bits."""
    T = np.asarray(T, dtype=float)
    c = T.shape[1]
    const = (T.T @ X.const) @ T if X.const.any() else np.zeros((c, c))
    return AffineMatrix.from_dense(X.keys, (T.T @ X.dense()) @ T, const)


def reference_kyp(AB, P_info, *rows, terms=None):
    """AB^T P AB - blkdiag(P, 0) + sum_b out_b^T X_b out_b on P's unit basis.

    Called as ``lmi._kyp`` is: ``rows`` are pairs (out_b, X_b), and the
    plan ``terms`` is not read; each row term is X_b's dense
    congruence."""
    n = P_info.shape[0]
    coeffs = p_terms(AB)
    coeffs[:, :n, :n] -= unit_basis(P_info)
    total = AffineMatrix.from_dense(P_info.offset + np.arange(P_info.size), coeffs)
    for out_b, X in rows:
        total = total + dense_congruence(out_b, X)
    return total


def use_reference_builders(monkeypatch):
    """Route the library's plant, synthesis-constant and KYP builders here."""
    monkeypatch.setattr(plantbuild, "build_rate_plant_loop", reference_build_rate_plant_loop)
    monkeypatch.setattr(plantbuild, "build_perf_plant_loop", reference_build_perf_plant_loop)
    monkeypatch.setattr(lmi, "build_rate_plant_loop", reference_build_rate_plant_loop)
    monkeypatch.setattr(lmi, "build_rate_plant", reference_build_rate_plant)
    monkeypatch.setattr(lmi, "build_perf_plant", reference_build_perf_plant)
    monkeypatch.setattr(lmi, "_synth_constants", reference_synth_constants)
    monkeypatch.setattr(lmi, "_kyp", reference_kyp)


def reference_add_lmi(self, expr, sense="neg", eps=None, name=""):
    """add_lmi storing the symmetrized stack 0.5 (F_k + F_k^T) of every block."""
    F = expr.dense()
    coeffs = F + F.transpose(0, 2, 1)
    coeffs *= 0.5
    expr = AffineMatrix.from_dense(expr.keys, coeffs, 0.5 * (expr.const + expr.const.T))
    if eps is None:
        eps = EPS_REL * (1.0 + np.linalg.norm(expr.const, "fro"))
    block = LmiBlock(name or f"lmi{len(self.blocks)}", expr, sense, float(eps))
    self.blocks.append(block)
    return block


# the library's add_linear, kept before use_reference_rows patches it
_append_rows = SdpProblem.add_linear


def reference_add_linear(self, expr, sense, rhs=0.0, name=""):
    """One row from a 1x1 expression: its nonzero coefficients, rhs - const.

    The row is derived here and handed to the library as a constant-free
    expression over just those coefficients, so storing it is all the
    library adds.
    """
    if expr.shape != (1, 1):
        raise DimensionError("expected a 1x1 expression")
    c = expr.dense()[:, 0, 0]
    nz = c != 0.0
    row = AffineMatrix.from_dense(expr.keys[nz], c[nz, None, None])
    _append_rows(self, row, sense, float(rhs) - float(expr.const[0, 0]), name)


def reference_add_matrix_equality(self, expr, name=""):
    r, c = expr.shape
    for i in range(r):
        for j in range(c):
            self.add_linear(expr[i:i + 1, j:j + 1], "==", 0.0, name=f"{name}[{i},{j}]")


def reference_add_multiplier(prob, structure, name="zf_theta", names=None):
    """Called as ``lmi._add_multiplier`` is; the rows' names are formatted
    here from their labels, and ``names`` is not read."""
    theta = prob.add_matrix(name, structure.parameter_count(), 1)
    coeffs = m_delta_coefficients(structure)
    md = AffineMatrix.from_dense(theta.keys, coeffs)
    cons = membership_constraints(structure)
    rows = np.array([con.coeffs for con in cons]) @ theta
    for r, con in enumerate(cons):
        prob.add_linear(rows[r:r + 1, :], con.sense, con.rhs, name=f"{name}:{con.label}")
    return md


def reference_add_box_rows(prob, Ae, Be):
    N, p = Be.shape
    for i in range(N):
        for j in range(N):
            prob.add_linear(Ae[i:i + 1, j:j + 1], "<=", 10.0)
            prob.add_linear(Ae[i:i + 1, j:j + 1], ">=", -10.0)
        for j in range(p):
            prob.add_linear(Be[i:i + 1, j:j + 1], "<=", 10.0)
            prob.add_linear(Be[i:i + 1, j:j + 1], ">=", -10.0)


def use_reference_lmi(monkeypatch):
    """Store every LMI block symmetrized, as add_lmi did."""
    monkeypatch.setattr(SdpProblem, "add_lmi", reference_add_lmi)


def dense_value(expr, x):
    """``AffineMatrix.value`` by its definition on the dense stack:
    const + (0 + x_k F_k, added key by key in key order), the running sum
    taken by np.add.accumulate, which adds one term at a time."""
    terms = x[expr.keys][:, None, None] * expr.dense()
    acc = np.add.accumulate(np.concatenate([np.zeros((1,) + expr.shape), terms]))[-1]
    return expr.const + acc


def reference_verify(prob, x, lin_tol=1e-8, eig_margin=1e-10):
    """SdpProblem.verify by its first formula, for finite candidates."""
    ok = True
    worst = -np.inf
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    for blk in prob.blocks:
        V = dense_value(blk.expr, x)
        V = 0.5 * (V + V.T)
        eigs = np.linalg.eigvalsh(V)
        scale = 1.0 + np.linalg.norm(blk.expr.const, "fro")
        slack = eig_margin * scale if blk.eps > 0 else -lin_tol * scale
        if blk.sense == "neg":
            viol = float(eigs[-1]) + slack
        else:
            viol = -(float(eigs[0]) - slack)
        worst = max(worst, viol)
        if viol > 0:
            ok = False
    rows = prob.linear
    if len(rows):
        sign, rhs = np.array(rows.sign), np.array(rows.rhs)
        # the rows' coefficient stack, one r x 1 matrix per variable a row holds
        keys = np.unique(rows.var)
        stack = np.zeros((keys.size, len(rows), 1))
        stack[np.searchsorted(keys, rows.var), rows.row, 0] = rows.val
        d = dense_value(AffineMatrix.from_dense(keys, stack), x)[:, 0] - rhs
        viol = np.where(sign, sign * d, np.abs(d))
        tol = lin_tol * (1.0 + np.abs(rhs) + xmax if x.size else 1.0)
        ok = ok and not np.any(viol > tol)
        worst = max(worst, float(np.max(viol - tol)))
    return ok, worst


def use_reference_rows(monkeypatch):
    """Add every linear row by its own 1x1 call."""
    monkeypatch.setattr(SdpProblem, "add_linear", reference_add_linear)
    monkeypatch.setattr(SdpProblem, "add_matrix_equality", reference_add_matrix_equality)
    monkeypatch.setattr(lmi, "_add_multiplier", reference_add_multiplier)
    monkeypatch.setattr(lmi, "_add_box_rows", reference_add_box_rows)


def reference_eval_frequency(sys, z):
    """C (zI - A)^{-1} B + D at one point, with its own zI - A and LU."""
    if sys.nx == 0:
        return sys.D.astype(complex)
    M = z * np.eye(sys.nx) - sys.A
    getrf, getrs, gecon = sla.get_lapack_funcs(("getrf", "getrs", "gecon"), (M,))
    anorm = float(np.abs(M).sum(axis=0).max())
    lu, piv, info = getrf(M)
    rcond = gecon(lu, anorm)[0] if info == 0 else 0.0
    if not rcond >= POLE_RCOND * sys.nx:
        raise SingularityError(f"z={z} is numerically a pole "
                               f"(reciprocal condition number {rcond:.2e})")
    X, _ = getrs(lu, piv, sys.B)
    return sys.C @ X + sys.D


def reference_verify_fdi(certificate, plant, n_samples=64):
    """(ok, worst_eig) of verify_fdi, one point of its grid at a time: every
    one of the n_samples points, the lower half (k > n_samples // 2) as the
    conjugates of exp(2 pi i (n_samples - k) / n_samples)."""
    if isinstance(plant, PerformanceAugmentedPlant):
        ss = StateSpace(plant.boldA, plant.boldB1, np.vstack([plant.boldC1, plant.boldC2]),
                        np.vstack([plant.boldD11, np.zeros((plant.n_yp, plant.p_c))]))
        MD = reference_m_delta_matrix(certificate.zf, certificate.structure)
        mid = sla.block_diag(MD, np.eye(plant.n_yp))
    else:
        ss = plant.as_statespace()
        mid = reference_m_delta_matrix(certificate.zf, certificate.structure)
    worst = -np.inf
    k = np.arange(n_samples)
    upper = np.exp(1j * 2.0 * np.pi * np.minimum(k, n_samples - k) / n_samples)
    for z in np.where(k <= n_samples // 2, upper, upper.conj()):
        Phi = reference_eval_frequency(ss, z)
        F = Phi.conj().T @ mid @ Phi
        worst = max(worst, float(np.max(np.linalg.eigvalsh(0.5 * (F + F.conj().T)))))
    return worst < 0.0, worst


def reference_tap_basis(structure):
    """Per theta component: (kernel index i, p x p basis matrix dM_i/dtheta)."""
    out = []
    p = structure.p
    for i in structure.indices():
        if structure.klass == "unstructured":
            out.append((i, np.eye(p)))
        elif structure.klass == "nonrepeated":
            for d in range(p):
                E = np.zeros((p, p))
                E[d, d] = 1.0
                out.append((i, E))
        else:
            for r in range(p):
                for c in range(p):
                    E = np.zeros((p, p))
                    E[r, c] = 1.0
                    out.append((i, E))
    return out


def reference_matrices_from_theta(structure, theta):
    Ms = {i: np.zeros((structure.p, structure.p)) for i in structure.indices()}
    for t, (i, E) in zip(np.ravel(theta), reference_tap_basis(structure)):
        Ms[i] += t * E
    return [Ms[i] for i in structure.indices()]


def reference_membership_constraints(structure):
    """(coeffs, sense, rhs, label) per row, one object per tap and row."""
    rho, p = structure.rho, structure.p
    basis = reference_tap_basis(structure)
    nvar = len(basis)
    taps = [i for i, _ in basis]
    E = np.array([Eb for _, Eb in basis])
    cons = []
    for k, (i, f) in enumerate(zip(taps, E.reshape(nvar, -1).argmax(axis=1))):
        r, c = divmod(int(f), p)
        if i != 0 or (r != c and structure.klass == "repeated"):
            e = np.zeros(nvar)
            e[k] = 1.0
            cons.append((e, "<=", 0.0, f"sign[{i}]({r},{c})"))
    rows = (np.array([rho ** (-i) for i in taps])[:, None] * E.sum(axis=2)).T.copy()
    cons += [(e, ">=", 0.0, f"rowsum[{r}]") for r, e in enumerate(rows)]
    cols = (np.array([rho ** i for i in taps])[:, None] * E.sum(axis=1)).T.copy()
    cons += [(e, ">=", 0.0, f"colsum[{c}]") for c, e in enumerate(cols)]
    return cons


def reference_verify_membership(params, structure, tol=1e-10):
    """verify_membership one constraint object at a time, a row's value
    the fsum of its rounded products with theta."""
    try:
        theta = structure.theta_from_matrices(params.M)
    except DimensionError:
        return False
    scale = 1.0 + np.max(np.abs(theta)) if len(theta) else 1.0
    for con in membership_constraints(structure):
        v = math.fsum(np.asarray(con.coeffs) * theta)
        if con.sense == "<=":
            ok = v <= con.rhs + tol * scale
        else:
            ok = v >= con.rhs - tol * scale
        if not ok:
            return False
    return True


def reference_m_delta_coefficients(structure):
    """dM_Delta/dtheta_k written tap by tap into its block slot."""
    lc, la, p = structure.ell_causal, structure.ell_anticausal, structure.p
    q = p * (4 + lc + la)
    off = np.concatenate([[0], np.cumsum([p, p, lc * p, p, p, la * p])])
    basis = reference_tap_basis(structure)
    coeffs = np.zeros((len(basis), q, q))
    for k, (i, Eb) in enumerate(basis):
        if i == 0:
            r, c, B = off[1], off[0], Eb
        elif i < 0:
            r, c, B = off[3], off[2] + (lc + i) * p, Eb
        else:
            r, c, B = off[4], off[5] + (i - 1) * p, Eb.T
        coeffs[k, r:r + p, c:c + p] = B
        coeffs[k, c:c + p, r:r + p] = B.T
    return coeffs


def reference_theta_from_matrices(structure, Ms, tol=1e-10):
    """theta from kernel matrices, checked and read one matrix at a time."""
    p = structure.p
    theta = []
    for M in Ms:
        M = np.atleast_2d(np.asarray(M, dtype=float))
        if M.shape != (p, p):
            raise DimensionError(f"kernel matrices must be {p}x{p}")
        scale = 1.0 + np.max(np.abs(M))
        if structure.klass == "unstructured":
            if np.max(np.abs(M - M[0, 0] * np.eye(p))) > tol * scale:
                raise DimensionError("unstructured kernel requires M_i = m_i I")
            theta.append(M[0, 0])
        elif structure.klass == "nonrepeated":
            if np.max(np.abs(M - np.diag(np.diag(M)))) > tol * scale:
                raise DimensionError("nonrepeated kernel requires diagonal M_i")
            theta.extend(np.diag(M))
        else:
            theta.extend(M.ravel())
    return np.asarray(theta)


def reference_m_delta_matrix(params, structure):
    """M_Delta as a sum over theta of theta_k dM_Delta/dtheta_k."""
    theta = reference_theta_from_matrices(structure, params.M)
    return sum(t * E for t, E in zip(theta, reference_m_delta_coefficients(structure)))


def reference_block(rows):
    """A block matrix with each block copied into its slot of a zero stack."""
    rows = [[AffineMatrix.lift(b) for b in r] for r in rows]
    heights = [r[0].shape[0] for r in rows]
    widths = [b.shape[1] for b in rows[0]]
    total = (sum(heights), sum(widths))
    ro = np.concatenate([[0], np.cumsum(heights)])
    co = np.concatenate([[0], np.cumsum(widths)])
    keys = np.unique(np.concatenate([_NO_KEYS] + [b.keys for r in rows for b in r]))
    const = np.zeros(total)
    coeffs = np.zeros((keys.size,) + total)
    for i, r in enumerate(rows):
        for j, b in enumerate(r):
            const[ro[i]:ro[i + 1], co[j]:co[j + 1]] = b.const
            if b.keys.size:
                coeffs[np.searchsorted(keys, b.keys), ro[i]:ro[i + 1],
                       co[j]:co[j + 1]] = b.dense()
    return AffineMatrix.from_dense(keys, coeffs, const)


def reference_blkdiag(*exprs):
    exprs = [AffineMatrix.lift(e) for e in exprs]
    return reference_block([[e if i == j else np.zeros((e.shape[0], f.shape[1]))
                             for j, f in enumerate(exprs)] for i, e in enumerate(exprs)])


def _smul(scalar, M):
    return AffineMatrix.from_dense(scalar.keys, scalar.dense() * M, scalar.const[0, 0] * M)


def _embed_state_block(expr, p):
    return reference_blkdiag(expr, np.zeros((p, p)))


def convex_synth_terms(N, nd, sector_m, C, scale, P22, P11, QA, QB, top, CcDc, md):
    """Terms of [[-P22, TR], [TR^T, U]] for the convex synthesis blocks.

    TR = [0  scale (QA + m QB C)  QB] and, with P = blkdiag(P11, P22),
    U = top^T P11 top - blkdiag(P, 0) + CcDc^T M CcDc: the A,B-dependent
    rows of [Ac Bc] are annihilated by P - N P22 N^T = blkdiag(P11, 0).
    The terms of each entry come in the order the entry is summed in.
    """
    A = scale * QA
    B = scale * (sector_m * (QB @ C))
    nc = nd + N
    terms = [(0, 0, -P22),
             (0, N + nd, A), (0, N + nd, B), (0, N + nc, QB),
             (N + nd, 0, A.T), (N + nd, 0, B.T), (N + nc, 0, QB.T)]
    if nd:
        terms += [(N, N, AffineMatrix.from_dense(P11.keys, p_terms(top))), (N, N, -P11)]
    return terms + [(N + nd, N + nd, -P22), (N, N, dense_congruence(CcDc, md))]


def reference_convex_synth_block(sector_m, C, scale, P22, P11, QA, QB, top, CcDc, md,
                                 extra=None):
    """lmi._convex_synth_block as ``place``'s sum of the dense per-key terms;
    P11 is the declared variable, None when nd = 0, and ``extra`` a
    constant added to U."""
    N, nd = P22.shape[0], top.shape[0]
    if nd:
        P11 = AffineMatrix.from_dense(P11.offset + np.arange(P11.size), unit_basis(P11))
    dim = 2 * N + nd + C.shape[0]
    return place((dim, dim), convex_synth_terms(N, nd, sector_m, C, scale, P22, P11, QA, QB,
                                                top, CcDc, md)
                 + ([] if extra is None else [(N, N, extra)]))


def reference_assemble_convex_synth(n, p, bounds, structure, rho):
    """Convex rate synthesis, U built as congruence - embedded P + congruence."""
    if not (0 < rho < 1):
        raise DomainError("synthesis requires rho in (0, 1)")
    structure = ZamesFalbStructure(structure.ell_causal, structure.ell_anticausal,
                                   p, structure.klass, rho)
    C, D, Dd, nd, N, nc, top, CcDc = lmi._synth_constants(n, p, bounds, structure, rho)
    prob = SdpProblem(f"synth[rho={rho:.6g}]")
    P22 = prob.add_symmetric("P22", N)
    P11 = prob.add_symmetric("P11", nd) if nd else AffineMatrix((0, 0))
    QA = prob.add_matrix("QA", N, N)
    QB = prob.add_matrix("QB", N, p)
    md = lmi._add_multiplier(prob, structure)
    U = dense_congruence(top, P11) if nd else AffineMatrix((nc + p, nc + p))
    P_full = reference_blkdiag(P11, P22) if nd else P22
    U = U - _embed_state_block(P_full, p)
    U = U + dense_congruence(CcDc, md)
    TR = reference_block([[np.zeros((N, nd)),
                           (1.0 / rho) * (QA + bounds.m * (QB @ C)),
                           QB]])
    big = reference_block([[-P22, TR], [TR.T, U]])
    prob.add_lmi(big, "neg", name="synth-rate")
    prob.add_matrix_equality((QA - P22) @ Dd, name="eq-fixedpoint")
    return lmi.ConvexSynthAssembly(prob, n, p, bounds, structure, rho)


def reference_assemble_convex_synth_perf(n, p, bounds, structure, rho):
    asm = reference_assemble_convex_synth(n, p, bounds, structure, rho)
    prob = asm.problem
    structure = asm.structure
    C, D, Dd, nd, N, nc, _, _ = lmi._synth_constants(n, p, bounds, structure, rho)
    _, _, _, _, _, _, top1, CcDc1 = lmi._synth_constants(n, p, bounds, structure, 1.0)
    P22 = prob.variable_expr("P22")
    QA = prob.variable_expr("QA")
    QB = prob.variable_expr("QB")
    Pp11 = prob.add_symmetric("Pp11", nd) if nd else AffineMatrix((0, 0))
    md_p = lmi._add_multiplier(prob, structure.with_rho(1.0), name="zf_theta_p")
    Z = prob.add_symmetric("Z", p)
    t = prob.add_scalar("t")
    Up = dense_congruence(top1, Pp11) if nd else AffineMatrix((nc + p, nc + p))
    Pp_full = reference_blkdiag(Pp11, P22) if nd else P22
    Up = Up - _embed_state_block(Pp_full, p)
    Up = Up + dense_congruence(CcDc1, md_p)
    C2 = np.hstack([np.zeros((p, nd)), C, np.zeros((p, p))])
    Up = Up + AffineMatrix.constant(C2.T @ C2)
    TRp = reference_block([[np.zeros((N, nd)), QA + bounds.m * (QB @ C), QB]])
    big = reference_block([[-P22, TRp], [TRp.T, Up]])
    prob.add_lmi(big, "neg", name="synth-h2")
    trace_blk = reference_block([[P22, QB], [QB.T, Z]])
    prob.add_lmi(trace_blk, "pos", name="synth-h2-trace")
    prob.add_linear(Z.trace() - t, "<=", 0.0, name="trZ<=t")
    prob.minimize(t)
    asm.with_perf = True
    return asm


def reference_assemble_bmi_fixed_P(n, p, bounds, structure, rho, P, P_p=None, slack=False):
    """Fixed-certificate half-step, the rate block summed term by term."""
    structure = ZamesFalbStructure(structure.ell_causal, structure.ell_anticausal,
                                   p, structure.klass, rho)
    C, D, Dd, nd, N, nc, top, CcDc = lmi._synth_constants(n, p, bounds, structure, rho)
    P = np.asarray(P, dtype=float)
    if P.shape != (nc, nc):
        raise DimensionError(f"P must be {nc}x{nc}")
    P22c = P[nd:, nd:]
    if np.min(np.linalg.eigvalsh(0.5 * (P22c + P22c.T))) <= 0:
        raise PreconditionError("P22 must be positive definite when fixing P")
    with_perf = P_p is not None
    prob = SdpProblem(f"bmi-fixedP[rho={rho:.6g}]")
    Ae = prob.add_matrix("A", N, N)
    Be = prob.add_matrix("B", N, p)
    md = lmi._add_multiplier(prob, structure)

    def bottom_rows(rho_):
        return reference_block([[np.zeros((N, nd)),
                                 (1.0 / rho_) * (Ae + bounds.m * (Be @ C)),
                                 Be]])

    def rate_block(P_, rho_, md_, top_, CcDc_, extra_const=None):
        P11c = P_[:nd, :nd]
        P12c = P_[:nd, nd:]
        P22_ = P_[nd:, nd:]
        bot = bottom_rows(rho_)
        U = AffineMatrix.constant(top_.T @ P11c @ top_)
        cross = (bot.__rmatmul__(P12c)).__rmatmul__(top_.T)  # top^T (P12 bot)
        U = U + cross + cross.T
        U = U - _embed_state_block(AffineMatrix.constant(P_), p)
        U = U + dense_congruence(CcDc_, md_)
        if extra_const is not None:
            U = U + AffineMatrix.constant(extra_const)
        TR = P22_ @ bot
        return reference_block([[AffineMatrix.constant(-P22_), TR], [TR.T, U]])

    big = rate_block(P, rho, md, top, CcDc)
    if slack:
        s = prob.add_scalar("s")
        dim = big.shape[0]
        prob.add_lmi(big - _smul(s, np.eye(dim)), "neg", eps=0.0, name="bmi-rate-slack")
        s_max = 10.0 * (1.0 + float(np.max(np.abs(P))))
        prob.add_linear(s, ">=", -s_max)
        prob.add_linear(s, "<=", s_max)
        lmi._add_box_rows(prob, Ae, Be)
        prob.minimize(s)
    else:
        prob.add_lmi(big, "neg", eps=1e-9, name="bmi-rate")
    if with_perf:
        P_p = np.asarray(P_p, dtype=float)
        Pp22c = P_p[nd:, nd:]
        if np.min(np.linalg.eigvalsh(0.5 * (Pp22c + Pp22c.T))) <= 0:
            raise PreconditionError("P_p22 must be positive definite when fixing P_p")
        md_p = lmi._add_multiplier(prob, structure.with_rho(1.0), name="zf_theta_p")
        _, _, _, _, _, _, top1, CcDc1 = lmi._synth_constants(n, p, bounds, structure, 1.0)
        C2 = np.hstack([np.zeros((p, nd)), C, np.zeros((p, p))])
        bigp = rate_block(P_p, 1.0, md_p, top1, CcDc1, extra_const=C2.T @ C2)
        prob.add_lmi(bigp, "neg", eps=1e-9, name="bmi-h2")
        Z = prob.add_symmetric("Z", p)
        t = prob.add_scalar("t")
        trace_blk = reference_block([[AffineMatrix.constant(Pp22c), Pp22c @ Be],
                                     [(Pp22c @ Be).T, Z]])
        prob.add_lmi(trace_blk, "pos", eps=1e-9, name="bmi-h2-trace")
        prob.add_linear(Z.trace() - t, "<=", 0.0)
        if not slack:
            prob.minimize(t)
    prob.add_matrix_equality(Ae @ Dd - AffineMatrix.constant(Dd), name="eq-fixedpoint")
    return lmi.BmiFixedPAssembly(prob, n, p, bounds, structure, rho, with_perf, slack)


def reference_assemble_rate_slack(algo, bounds, structure, rho, radius=1e6):
    """Slack rate LMI: the KYP block minus s I, P22 as a congruence of P."""
    plant = reference_build_rate_plant(algo, bounds, structure.with_rho(rho), rho)
    prob = SdpProblem(f"rate-slack[rho={rho:.6g}]")
    P_info = prob.declare("P", "symmetric", (plant.n_c, plant.n_c))
    md = lmi._add_multiplier(prob, structure.with_rho(rho))
    s = prob.add_scalar("s")
    big = lmi._kyp(np.hstack([plant.Ac, plant.Bc]), P_info, (np.hstack([plant.Cc, plant.Dc]), md))
    dim = big.shape[0]
    prob.add_lmi(big - _smul(s, np.eye(dim)), "neg", eps=0.0, name="rate-slack")
    P = prob.variable_expr("P")
    nd = plant.n_mult
    sel = np.vstack([np.zeros((nd, plant.n_loop)), np.eye(plant.n_loop)])
    prob.add_lmi(dense_congruence(sel, P) - AffineMatrix.constant(np.eye(plant.n_loop)), "pos",
                 eps=0.0, name="p22-normalized")
    prob.add_lmi(AffineMatrix.constant(radius * np.eye(plant.n_c)) - P, "pos",
                 eps=0.0, name="p-box-hi")
    prob.add_lmi(P + AffineMatrix.constant(radius * np.eye(plant.n_c)), "pos",
                 eps=0.0, name="p-box-lo")
    prob.add_linear(s, ">=", -radius)
    prob.add_linear(s, "<=", radius)
    prob.minimize(s)
    return lmi.RateSlackAssembly(prob, plant, structure.with_rho(rho))


def kronecker_lift(sys: StateSpace, p: int) -> StateSpace:
    """Replace every realization matrix M by kron(M, I_p)."""
    if p < 1:
        raise DomainError(f"p must be a positive integer, got {p}")
    Ip = np.eye(p)
    return StateSpace(
        np.kron(sys.A, Ip), np.kron(sys.B, Ip), np.kron(sys.C, Ip), np.kron(sys.D, Ip)
    )


def reference_named_matrices(kind, bounds, p=1):
    """(A, B, C, D, Ddagger) of a named algorithm, lifted by np.kron up front."""
    nu1, nu2, nu3 = table_parameters(kind, bounds)
    Ip = np.eye(p)
    return (np.kron(np.array([[1 + nu2, -nu2], [1.0, 0.0]]), Ip),
            np.kron(np.array([[-nu1], [0.0]]), Ip),
            np.kron(np.array([[1 + nu3, -nu3]]), Ip),
            np.kron(np.array([[1.0, 0.0]]), Ip),
            np.kron(np.array([[1.0], [1.0]]), Ip))


def reference_lift_matrices(algo, p):
    """The dense matrices of lift(algo, p), lifted by np.kron up front."""
    Ip = np.eye(p)
    return tuple(np.kron(M, Ip) for M in (algo.A, algo.B, algo.C, algo.D, algo.Ddagger))


# ---------------------------------------------------------------------------
# composition oracles: series and rho-scaling of realizations, the factored
# multiplier Pi = psi^* M_Delta psi and the generic KYP problem. The
# library builds the plants and problems directly; the tests check them
# against these compositions.
# ---------------------------------------------------------------------------

def static_gain(D) -> StateSpace:
    D = np.atleast_2d(np.asarray(D, dtype=float))
    ny, nu = D.shape
    return StateSpace(np.zeros((0, 0)), np.zeros((0, nu)), np.zeros((ny, 0)), D)


def series(first: StateSpace, second: StateSpace) -> StateSpace:
    """Series interconnection: output of `first` feeds `second`.

    The returned realization has transfer function second(z) @ first(z)
    and stacks the second system's states first.
    """
    if first.ny != second.nu:
        raise DimensionError(
            f"series: first.ny={first.ny} does not match second.nu={second.nu}"
        )
    A1, B1, C1, D1 = first.A, first.B, first.C, first.D
    A2, B2, C2, D2 = second.A, second.B, second.C, second.D
    n1, n2 = first.nx, second.nx
    A = np.block([[A2, B2 @ C1], [np.zeros((n1, n2)), A1]])
    B = np.vstack([B2 @ D1, B1])
    C = np.hstack([C2, D2 @ C1])
    D = D2 @ D1
    return StateSpace(A, B, C, D)


def rho_scale(sys: StateSpace, rho: float) -> StateSpace:
    """Frequency substitution z -> rho*z: result(z) == sys(rho*z)."""
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    return StateSpace(sys.A / rho, sys.B / rho, sys.C, sys.D)


def stack_outputs(top: StateSpace, bottom: StateSpace) -> StateSpace:
    """[top; bottom] sharing one input: output is the vertical stack."""
    if top.nu != bottom.nu:
        raise DimensionError("stack_outputs: input dimensions differ")
    A = sla.block_diag(top.A, bottom.A)
    B = np.vstack([top.B, bottom.B])
    C = sla.block_diag(top.C, bottom.C)
    D = np.vstack([top.D, bottom.D])
    return StateSpace(A, B, C, D)


def sector_transform(bounds, p):
    """What = [[(L-m) I, -I], [0, I]]."""
    return np.block([
        [(bounds.L - bounds.m) * np.eye(p), -np.eye(p)],
        [np.zeros((p, p)), np.eye(p)],
    ])


@dataclass(frozen=True)
class MultiplierFactorization:
    M_Delta: np.ndarray = field(repr=False)
    psi_Delta: StateSpace = field(repr=False)
    W_hat: np.ndarray = field(repr=False)
    structure: ZamesFalbStructure = None


def factorize(params, structure, bounds) -> MultiplierFactorization:
    """Assemble (M_Delta, psi_Delta) so psi^* M_Delta psi equals the multiplier."""
    return MultiplierFactorization(
        M_Delta=m_delta_matrix(params, structure),
        psi_Delta=psi_delta_realization(structure, bounds.L - bounds.m),
        W_hat=sector_transform(bounds, structure.p),
        structure=structure,
    )


def kernel_transfer(params, structure, z) -> np.ndarray:
    """E(z) = sum_j M_j z^j."""
    out = np.zeros((structure.p, structure.p), dtype=complex)
    for j, Mj in zip(structure.indices(), params.M):
        out += Mj * (z ** j)
    return out


def multiplier_value(params, structure, bounds, z) -> np.ndarray:
    """Pi(z) = What^T [[0, E(z)^*], [E(z), 0]] What on the unit circle."""
    E = kernel_transfer(params, structure, z)
    W = sector_transform(bounds, structure.p)
    p = structure.p
    mid = np.block([
        [np.zeros((p, p)), E.conj().T],
        [E, np.zeros((p, p))],
    ])
    return W.T @ mid @ W


def kyp_block(G: StateSpace, M, name: str = "kyp") -> SdpProblem:
    """Generic KYP feasibility problem for G(z)^* M G(z) < 0 on the circle.

    When M covers outputs and inputs jointly (shape ny+nu), the inequality
    is posed for the stacked transfer function [G; I] instead, which is
    the form every multiplier-weighted FDI in the library takes. The
    block is the library's ``lmi._kyp``, looked up at call time so that
    ``use_reference_builders`` reaches it.
    """
    M = np.asarray(M, dtype=float)
    if G.nx and np.any(np.abs(np.abs(np.linalg.eigvals(G.A)) - 1.0) < 1e-9):
        raise PreconditionError("A has an eigenvalue on the unit circle")
    if M.shape[0] == G.ny + G.nu:
        C = np.vstack([G.C, np.zeros((G.nu, G.nx))])
        D = np.vstack([G.D, np.eye(G.nu)])
    elif M.shape[0] == G.ny:
        C, D = G.C, G.D
    else:
        raise DimensionError(f"M has size {M.shape[0]}, expected "
                             f"{G.ny} or {G.ny + G.nu}")
    prob = SdpProblem(name)
    P = prob.declare("P", "symmetric", (G.nx, G.nx))
    prob.add_lmi(lmi._kyp(np.hstack([G.A, G.B]), P,
                          (np.hstack([C, D]), AffineMatrix.constant(M))), "neg", name=name)
    return prob


# ---------------------------------------------------------------------------
# the three bisection loops as each driver ran its own, on a probe
# ---------------------------------------------------------------------------

def reference_rate_bisection(probe, lo, hi, tol, max_iters=60):
    """certify_rate's loop; probe(rho) -> witness or None.

    Returns (rho_star, bracket, witness, log), or None where certify_rate
    raised NotCertifiable.
    """
    if lo >= hi:
        lo = max(min(hi - tol, lo), 1e-6)
    log = []
    got = probe(hi)
    log.append((hi, got is not None))
    if got is None:
        return None
    best = (hi, got)
    it = 0
    while hi - lo > tol and it < max_iters:
        mid = 0.5 * (lo + hi)
        got = probe(mid)
        log.append((mid, got is not None))
        if got is not None:
            hi = mid
            best = (mid, got)
        else:
            lo = mid
        it += 1
    rho_star, witness = best
    return rho_star, (lo, hi), witness, log


def reference_initializer_bisection(probe, tol=1e-3):
    """_structured_initializer's loop: (hi, witness), None where it raised."""
    lo, hi = 1e-3, 1.0 - 1e-6
    got = probe(hi)
    if got is None:
        return None
    best = got
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        got = probe(mid)
        if got is not None:
            hi = mid
            best = got
        else:
            lo = mid
    return hi, best


def reference_structured_bisection(probe, tol=1e-3, rho_hi=1.0 - 1e-6):
    """certify_structured_rate's loop: (hi, witness), None where it raised."""
    lo, hi = 1e-4, rho_hi
    best = probe(hi)
    if best is None:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        got = probe(mid)
        if got is not None:
            hi = mid
            best = got
        else:
            lo = mid
    return hi, best
