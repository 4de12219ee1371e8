"""Reference builders: the plant and KYP assembly composed factor by factor.

psi_Delta from kron, np.block and block_diag, the plants through the
[C; 0] and [0; I] helpers, and the KYP block as a congruence of P's unit
basis stack. The library builds the same objects by index; the tests
compare the two entry for entry.
"""

import numpy as np
import scipy.linalg as sla

from iqcopt import lmi, plantbuild
from iqcopt.algorithms import SectorBounds, canonical_output
from iqcopt.multipliers import sector_transform
from iqcopt.plantbuild import AugmentedPlant, PerformanceAugmentedPlant
from iqcopt.problem import AffineMatrix, congruence
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
