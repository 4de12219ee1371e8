"""Augmented-plant assembly for the analysis and performance LMIs.

The rate plant realizes psi_Delta [G_tilde; I] where G_tilde(z) = G(rho z)
is the rho-scaled loop transfer function; the performance plant is the
same object at rho = 1 extended by a noise channel (B_perf, C_perf, 0).
State ordering is fixed as (causal basis, anticausal basis, algorithm
states) so certificates are reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .algorithms import AlgorithmRealization, SectorBounds, spectral_radius
from .errors import DimensionError, DomainError, UnsupportedError
from .multipliers import ZamesFalbStructure, psi_delta_realization
from .statespace import StateSpace


@dataclass(frozen=True)
class UncertainLoop:
    """Closed nominal loop with the uncertainty channel pulled out.

    For the plain sector setup: Anom = A + m B C, Beff = B, Ceff = C and
    width = L - m. Structured variants substitute their own matrices.
    radius is the spectral radius of Anom, computed from it unless given.
    """

    Anom: np.ndarray
    Beff: np.ndarray
    Ceff: np.ndarray
    width: float
    radius: float = None

    def __post_init__(self):
        Anom = np.atleast_2d(np.asarray(self.Anom, dtype=float))
        Beff = np.atleast_2d(np.asarray(self.Beff, dtype=float))
        Ceff = np.atleast_2d(np.asarray(self.Ceff, dtype=float))
        N = Anom.shape[0]
        if Anom.shape != (N, N) or Beff.shape[0] != N or Ceff.shape[1] != N:
            raise DimensionError("inconsistent loop dimensions")
        if Beff.shape[1] != Ceff.shape[0]:
            raise DimensionError("uncertainty channel must be square")
        if self.width < 0:
            raise DomainError("sector width must be nonnegative")
        object.__setattr__(self, "Anom", Anom)
        object.__setattr__(self, "Beff", Beff)
        object.__setattr__(self, "Ceff", Ceff)
        object.__setattr__(self, "radius",
                           spectral_radius(Anom) if self.radius is None else self.radius)

    @property
    def nstates(self) -> int:
        return self.Anom.shape[0]

    @property
    def channel_dim(self) -> int:
        return self.Beff.shape[1]


def sector_loop(algo: AlgorithmRealization, bounds: SectorBounds) -> UncertainLoop:
    return UncertainLoop(algo.nominal_matrix(bounds.m), algo.B, algo.C,
                         bounds.L - bounds.m, algo.nominal_radius(bounds.m))


def structured_loop(algo: AlgorithmRealization, H1, T, m2: float, L2: float) -> UncertainLoop:
    """Loop after the parametrized-gradient substitutions.

    The gradient splits as H1 z + T^T grad2(T z) with grad2 slope-bounded
    in [m2, L2]; the uncertainty channel becomes (B T^T, T C) with width
    L2 - m2.
    """
    H1 = np.atleast_2d(np.asarray(H1, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if H1.shape != (algo.p, algo.p) or T.shape[1] != algo.p:
        raise DimensionError("H1 must be p x p and T must have p columns")
    if not (0 <= m2 <= L2):
        raise DomainError("need 0 <= m2 <= L2")
    Anom = algo.A + algo.B @ H1 @ algo.C + m2 * algo.B @ T.T @ T @ algo.C
    return UncertainLoop(Anom, algo.B @ T.T, T @ algo.C, L2 - m2)


@dataclass(frozen=True)
class AugmentedPlant:
    """Realization (Ac(rho), Bc, Cc(rho), Dc) of psi_Delta [G_tilde; I].

    nominal_radius is the spectral radius of the loop's Anom, before the
    rho scaling.
    """

    Ac: np.ndarray = field(repr=False)
    Bc: np.ndarray = field(repr=False)
    Cc: np.ndarray = field(repr=False)
    Dc: np.ndarray = field(repr=False)
    n_mult: int
    n_loop: int
    p_c: int
    q_c: int
    rho: float
    nominal_radius: float
    structure: ZamesFalbStructure = None

    @property
    def n_c(self) -> int:
        return self.n_mult + self.n_loop

    def as_statespace(self) -> StateSpace:
        return StateSpace(self.Ac, self.Bc, self.Cc, self.Dc)


def build_rate_plant_loop(loop: UncertainLoop, structure: ZamesFalbStructure,
                          rho: float) -> AugmentedPlant:
    """Block assembly of the augmented plant for an explicit uncertain loop.

    psi_Delta acts on [y; u] with y = Ceff x / rho, so its two input
    blocks enter through the column blocks of psi.B and psi.D.
    """
    if not (0 < rho <= 1):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    q = loop.channel_dim
    if structure.p != q:
        raise DimensionError(
            f"multiplier dimension p={structure.p} must match channel dim {q}"
        )
    psi = psi_delta_realization(structure, loop.width)
    N = loop.nstates
    nd = psi.nx
    Ac = np.zeros((nd + N, nd + N))
    Ac[:nd, :nd] = psi.A
    Ac[:nd, nd:] = psi.B[:, :q] @ loop.Ceff / rho
    Ac[nd:, nd:] = loop.Anom / rho
    Bc = np.vstack([psi.B[:, q:], loop.Beff])
    Cc = np.hstack([psi.C, psi.D[:, :q] @ loop.Ceff / rho])
    Dc = psi.D[:, q:].copy()
    return AugmentedPlant(Ac, Bc, Cc, Dc, n_mult=nd, n_loop=N, p_c=q, q_c=psi.ny,
                          rho=rho, nominal_radius=loop.radius, structure=structure)


def build_rate_plant(algo: AlgorithmRealization, bounds: SectorBounds,
                     structure: ZamesFalbStructure, rho: float) -> AugmentedPlant:
    if structure.p != algo.p:
        raise DimensionError("structure.p must equal the algorithm dimension p")
    return build_rate_plant_loop(sector_loop(algo, bounds), structure, rho)


@dataclass(frozen=True)
class PerformanceAugmentedPlant:
    """Realization of the performance-augmented filter stack at rho = 1.

    Outputs split into the multiplier rows (q_c) and the performance rows
    (n_yp); inputs into the uncertainty channel (p_c) and the noise
    channel (n_wp). The direct terms D12, D21, D22 vanish for the H2
    setup with D_perf = 0. nominal_radius is the spectral radius of the
    loop's Anom.
    """

    boldA: np.ndarray = field(repr=False)
    boldB1: np.ndarray = field(repr=False)
    boldB2: np.ndarray = field(repr=False)
    boldC1: np.ndarray = field(repr=False)
    boldC2: np.ndarray = field(repr=False)
    boldD11: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    n_mult: int
    n_loop: int
    p_c: int
    q_c: int
    n_wp: int
    n_yp: int
    nominal_radius: float
    structure: ZamesFalbStructure = None

    @property
    def n_c(self) -> int:
        return self.n_mult + self.n_loop


def build_perf_plant_loop(loop: UncertainLoop, structure: ZamesFalbStructure,
                          B_perf, C_perf) -> PerformanceAugmentedPlant:
    """The rate plant at rho = 1 with the noise channel (B_perf, C_perf) added."""
    plant = build_rate_plant_loop(loop, structure, 1.0)
    B_perf = np.atleast_2d(np.asarray(B_perf, dtype=float))
    C_perf = np.atleast_2d(np.asarray(C_perf, dtype=float))
    N, nd = loop.nstates, plant.n_mult
    if B_perf.shape[0] != N or C_perf.shape[1] != N:
        raise DimensionError("performance channel dimensions do not match the loop")
    nwp, nyp = B_perf.shape[1], C_perf.shape[0]
    return PerformanceAugmentedPlant(
        plant.Ac, plant.Bc, np.vstack([np.zeros((nd, nwp)), B_perf]), plant.Cc,
        np.hstack([np.zeros((nyp, nd)), C_perf]), plant.Dc,
        np.vstack([np.zeros((nd, N)), np.eye(N)]),
        n_mult=nd, n_loop=N, p_c=plant.p_c, q_c=plant.q_c, n_wp=nwp, n_yp=nyp,
        nominal_radius=loop.radius, structure=structure,
    )


def build_perf_plant(algo: AlgorithmRealization, bounds: SectorBounds,
                     structure: ZamesFalbStructure, perf) -> PerformanceAugmentedPlant:
    """perf is a triple (B_perf, C_perf, D_perf); D_perf must be zero."""
    B_perf, C_perf, D_perf = perf
    if D_perf is not None and np.any(np.abs(np.asarray(D_perf, dtype=float)) > 0):
        raise UnsupportedError("only D_perf = 0 is supported for the H2 setup")
    if structure.p != algo.p:
        raise DimensionError("structure.p must equal the algorithm dimension p")
    return build_perf_plant_loop(sector_loop(algo, bounds), structure, B_perf, C_perf)


def default_noise_channel(algo: AlgorithmRealization):
    """Additive gradient-noise channel: B_perf = B, C_perf = D, D_perf = 0."""
    return algo.B.copy(), algo.D.copy(), np.zeros((algo.p, algo.p))
