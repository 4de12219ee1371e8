"""Reference builders: the plant and KYP assembly composed factor by factor.

psi_Delta from kron, np.block and block_diag, the plants through the
[C; 0] and [0; I] helpers, and the KYP block as a congruence of P's unit
basis stack. The library builds the same objects by index; the tests
compare the two entry for entry.

The problem container's former forms are kept here as well: an
``add_lmi`` that stores every block symmetrized, and linear rows added one
1x1 expression per call (membership rows, matrix equalities and the BMI
box rows). The tests check that the solver receives the same blocks and
the same rows from the library's forms.
"""

import numpy as np
import scipy.linalg as sla

from iqcopt import lmi, plantbuild
from iqcopt.algorithms import SectorBounds, canonical_output
from iqcopt.errors import DimensionError
from iqcopt.multipliers import m_delta_coefficients, membership_constraints, sector_transform
from iqcopt.plantbuild import AugmentedPlant, PerformanceAugmentedPlant
from iqcopt.problem import EPS_REL, AffineMatrix, LmiBlock, SdpProblem, congruence
from iqcopt.statespace import StateSpace


def _shift_chain(ell):
    """States store the last `ell` inputs; (zI-A)^{-1}B = [z^-ell .. z^-1]^T."""
    A = np.zeros((ell, ell))
    for i in range(ell - 1):
        A[i, i + 1] = 1.0
    B = np.zeros((ell, 1))
    if ell:
        B[-1, 0] = 1.0
    return A, B


def reference_psi_delta_realization(structure, bounds):
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
    return reference_psi_delta_realization(structure, SectorBounds(1.0, 1.0 + width))


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
    return AugmentedPlant(Ac, Bc, Cc, Dc, n_mult=nd, n_loop=N, p_c=q,
                          q_c=psi.ny, rho=rho, structure=structure)


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
        psi.D @ Din, np.vstack([np.zeros((nd, N)), np.eye(N)]),
        n_mult=nd, n_loop=N, p_c=q, q_c=psi.ny, n_wp=nwp, n_yp=nyp,
        structure=structure,
    )


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


def reference_kyp(AB, P_info, *rows):
    """AB^T P AB - blkdiag(P, 0) + sum_b out_b^T X_b out_b on P's unit basis."""
    n = P_info.shape[0]
    i, j = np.triu_indices(n)
    k = np.arange(P_info.size)
    basis = np.zeros((P_info.size, n, n))
    basis[k, i, j] = 1.0
    basis[k, j, i] = 1.0
    P = AffineMatrix((n, n), keys=P_info.offset + k, coeffs=basis)
    total = congruence(AB, P)
    total.const[:n, :n] -= P.const
    total.coeffs[:, :n, :n] -= P.coeffs
    for out_b, X in rows:
        total = total + congruence(out_b, X)
    return total


def use_reference_builders(monkeypatch):
    """Route the library's plant, synthesis-constant and KYP builders here."""
    for module in (plantbuild, lmi):
        monkeypatch.setattr(module, "build_rate_plant_loop", reference_build_rate_plant_loop)
        monkeypatch.setattr(module, "build_perf_plant_loop", reference_build_perf_plant_loop)
    monkeypatch.setattr(lmi, "_synth_constants", reference_synth_constants)
    monkeypatch.setattr(lmi, "_kyp", reference_kyp)


def reference_add_lmi(self, expr, sense="neg", eps=None, name=""):
    """add_lmi storing the symmetrized stack 0.5 (F_k + F_k^T) of every block."""
    coeffs = expr.coeffs + expr.coeffs.transpose(0, 2, 1)
    coeffs *= 0.5
    expr = AffineMatrix(expr.shape, 0.5 * (expr.const + expr.const.T), expr.keys, coeffs)
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
    c = expr.coeffs[:, 0, 0]
    nz = c != 0.0
    row = AffineMatrix((1, 1), keys=expr.keys[nz], coeffs=c[nz, None, None])
    _append_rows(self, row, sense, float(rhs) - float(expr.const[0, 0]), name)


def reference_add_matrix_equality(self, expr, name=""):
    r, c = expr.shape
    for i in range(r):
        for j in range(c):
            self.add_linear(expr.entry(i, j), "==", 0.0, name=f"{name}[{i},{j}]")


def reference_add_multiplier(prob, structure, name="zf_theta"):
    theta = prob.add_matrix(name, structure.parameter_count(), 1)
    coeffs = m_delta_coefficients(structure)
    md = AffineMatrix(coeffs.shape[1:], keys=theta.keys, coeffs=coeffs)
    cons = membership_constraints(structure)
    rows = np.array([con.coeffs for con in cons]) @ theta
    for r, con in enumerate(cons):
        prob.add_linear(rows.entry(r, 0), con.sense, con.rhs, name=f"{name}:{con.label}")
    return theta, md


def reference_add_box_rows(prob, Ae, Be):
    N, p = Be.shape
    for i in range(N):
        for j in range(N):
            prob.add_linear(Ae.entry(i, j), "<=", 10.0)
            prob.add_linear(Ae.entry(i, j), ">=", -10.0)
        for j in range(p):
            prob.add_linear(Be.entry(i, j), "<=", 10.0)
            prob.add_linear(Be.entry(i, j), ">=", -10.0)


def use_reference_lmi(monkeypatch):
    """Store every LMI block symmetrized, as add_lmi did."""
    monkeypatch.setattr(SdpProblem, "add_lmi", reference_add_lmi)


def use_reference_rows(monkeypatch):
    """Add every linear row by its own 1x1 call."""
    monkeypatch.setattr(SdpProblem, "add_linear", reference_add_linear)
    monkeypatch.setattr(SdpProblem, "add_matrix_equality", reference_add_matrix_equality)
    monkeypatch.setattr(lmi, "_add_multiplier", reference_add_multiplier)
    monkeypatch.setattr(lmi, "_add_box_rows", reference_add_box_rows)
