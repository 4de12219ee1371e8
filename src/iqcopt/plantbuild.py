"""Augmented-plant assembly for the analysis and performance LMIs.

The rate plant realizes psi_Delta [G_tilde; I] where G_tilde(z) = G(rho z)
is the rho-scaled loop transfer function; the performance plant is the
same object at rho = 1 extended by a noise channel (B_perf, C_perf, 0).
State ordering is fixed as (causal basis, anticausal basis, algorithm
states) so certificates are reproducible.

A plant is built in two parts. The rho-free part (``_RhoFree``) is the
loop and the filter psi_Delta for the sector width, the products
psi.B[:, :q] Ceff and psi.D[:, :q] Ceff, the input and feedthrough
columns Bc and Dc, and the dimensions. A probe then fills only what
depends on rho: those two products and Anom, each divided by rho, in Ac
and Cc. The performance plant is the same fill at rho = 1, where the
division is exact.

A certification bisects rho over one (algorithm, bounds, multiplier
shape), and its H2 assembly follows its rate probes, so
``build_rate_plant`` and ``build_perf_plant`` keep the rho-free part of
the last configuration asked for, and only that one: the next
configuration replaces it, algorithm included. Its arrays are read-only
and shared by the plants built from it (Bc and Dc; psi's A and C are the
multiplier layout's). ``build_rate_plant_loop`` and
``build_perf_plant_loop`` take an explicit loop and run the same two
steps without keeping anything.

The loop's nominal spectral radius is computed from its Anom on first
read, which only the rate and H2 assemblies do, so once per kept
rho-free part. The part holds the KYP plan of its plants (``plan``) the
same way: :mod:`iqcopt.lmi` derives it when it first assembles one of
them and stores it on the part, so it lives as long as the part, which
the kept slot and the plants built from it (each refers to its part)
hold. Like ``_kept``, the plan is filled idempotently: concurrent
callers derive equal plans, and at worst one is derived twice. A plant
from an explicit loop has a part of its own, so its plan serves that
plant alone.

A rho for which the products of the plant's entries would overflow is
refused with DomainError before anything is divided by it, from the
largest entry that the rho-free part records; so is a noise channel
whose entries would overflow the H2 blocks' products.
"""

from dataclasses import dataclass, field
from functools import cached_property

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
    radius is the spectral radius of Anom, computed on first read.
    """

    Anom: np.ndarray
    Beff: np.ndarray
    Ceff: np.ndarray
    width: float

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

    @cached_property
    def radius(self) -> float:
        return spectral_radius(self.Anom)

    @property
    def nstates(self) -> int:
        return self.Anom.shape[0]

    @property
    def channel_dim(self) -> int:
        return self.Beff.shape[1]


def sector_loop(algo: AlgorithmRealization, bounds: SectorBounds) -> UncertainLoop:
    """The plain sector loop; Anom is read-only, like the algorithm's B and C."""
    Anom = algo.nominal_matrix(bounds.m)
    Anom.flags.writeable = False
    return UncertainLoop(Anom, algo.B, algo.C, bounds.L - bounds.m)


def check_structured_data(H1: np.ndarray, T: np.ndarray, m2: float, L2: float) -> None:
    """Refuse structured-design data that is not finite, naming the input,
    or slope bounds outside 0 <= m2 <= L2.

    Runs before any product of the data: an inf would make NaNs there,
    which warn, or reach a block or a loop whose spectral radius is taken.
    """
    for name, x in (("H1", H1), ("T", T), ("m2", m2), ("L2", L2)):
        if not np.isfinite(x).all():
            raise DomainError(f"{name} must be finite")
    if not (0 <= m2 <= L2):
        raise DomainError("need 0 <= m2 <= L2")


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
    check_structured_data(H1, T, m2, L2)
    Anom = algo.A + algo.B @ H1 @ algo.C + m2 * algo.B @ T.T @ T @ algo.C
    return UncertainLoop(Anom, algo.B @ T.T, T @ algo.C, L2 - m2)


@dataclass(frozen=True)
class AugmentedPlant:
    """Realization (Ac(rho), Bc, Cc(rho), Dc) of psi_Delta [G_tilde; I].

    loop is the uncertain loop it realizes; nominal_radius is the
    spectral radius of the loop's Anom, before the rho scaling. Bc and Dc
    may be read-only arrays shared with other plants of the same loop.
    part is the rho-free part the plant was filled from (None for a plant
    built otherwise), which keeps its KYP plan.
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
    loop: UncertainLoop = field(repr=False)
    structure: ZamesFalbStructure = None
    part: "_RhoFree" = field(default=None, repr=False, compare=False)

    @property
    def n_c(self) -> int:
        return self.n_mult + self.n_loop

    @property
    def nominal_radius(self) -> float:
        return self.loop.radius

    def as_statespace(self) -> StateSpace:
        return StateSpace(self.Ac, self.Bc, self.Cc, self.Dc)


class _RhoFree:
    """The rho-free part of the plants of one loop and multiplier shape.

    psi_Delta acts on [y; u] with y = Ceff x / rho, so its two input
    blocks enter through the column blocks of psi.B and psi.D: the y block
    as the products BC and DC, which a probe divides by rho, and the u
    block as Bc and Dc. These four arrays are read-only, like psi's A and C.
    amax is the largest magnitude among them, the loop's Anom and 1 (psi's
    A and C hold only 0 and 1), so amax / rho bounds every entry of a
    plant at rho <= 1. plan is the KYP plan of the part's plants, None
    until :mod:`iqcopt.lmi` first assembles one of them.
    """

    def __init__(self, loop: UncertainLoop, structure: ZamesFalbStructure):
        q = loop.channel_dim
        if structure.p != q:
            raise DimensionError(
                f"multiplier dimension p={structure.p} must match channel dim {q}"
            )
        psi = psi_delta_realization(structure, loop.width)
        self.loop, self.n_mult, self.q_c = loop, psi.nx, psi.ny
        self.psi_A, self.psi_C = psi.A, psi.C       # the layout's own arrays
        self.BC = psi.B[:, :q] @ loop.Ceff
        self.DC = psi.D[:, :q] @ loop.Ceff
        self.Bc = np.vstack([psi.B[:, q:], loop.Beff])
        self.Dc = psi.D[:, q:].copy()
        for arr in (self.BC, self.DC, self.Bc, self.Dc):
            arr.flags.writeable = False
        self.amax = float(np.abs(np.concatenate(
            [a.ravel() for a in (self.BC, self.DC, self.Bc, self.Dc, loop.Anom)])).max(initial=1.0))
        self.plan = None


def _rate_plant(part: _RhoFree, structure: ZamesFalbStructure, rho: float) -> AugmentedPlant:
    """Fill the rho-dependent blocks of Ac and Cc around the rho-free part."""
    if not (0 < rho <= 1):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    nd, N = part.n_mult, part.loop.nstates
    # an entry of a KYP block on the plant sums at most dim^2 products of
    # two plant entries and a P or multiplier coefficient of magnitude at
    # most 1; refuse a rho for which that bound overflows, before dividing
    a, dim = part.amax / rho, nd + N + part.q_c
    if not a * a * dim * dim < np.inf:          # inf or NaN
        raise DomainError(f"rho={rho}: plant entries up to {a:.3g} would overflow "
                          "the KYP block's products")
    Ac = np.zeros((nd + N, nd + N))
    Ac[:nd, :nd] = part.psi_A
    np.divide(part.BC, rho, out=Ac[:nd, nd:])
    np.divide(part.loop.Anom, rho, out=Ac[nd:, nd:])
    Cc = np.empty((part.q_c, nd + N))
    Cc[:, :nd] = part.psi_C
    np.divide(part.DC, rho, out=Cc[:, nd:])
    return AugmentedPlant(Ac, part.Bc, Cc, part.Dc, n_mult=nd, n_loop=N,
                          p_c=part.loop.channel_dim, q_c=part.q_c, rho=rho,
                          loop=part.loop, structure=structure, part=part)


# the rho-free part kept for the last (algorithm, bounds, multiplier shape)
# built through build_rate_plant or build_perf_plant, as (algorithm, key,
# part); see the module docstring. It is read once and replaced whole, so
# concurrent callers each get a matching part and at worst rebuild one.
_kept = None


def _sector_part(algo: AlgorithmRealization, bounds: SectorBounds,
                 structure: ZamesFalbStructure) -> _RhoFree:
    global _kept
    if structure.p != algo.p:
        raise DimensionError("structure.p must equal the algorithm dimension p")
    key = (bounds, structure.ell_causal, structure.ell_anticausal, structure.p,
           structure.klass)
    kept = _kept
    if kept is None or kept[0] is not algo or kept[1] != key:
        kept = _kept = (algo, key, _RhoFree(sector_loop(algo, bounds), structure))
    return kept[2]


def build_rate_plant_loop(loop: UncertainLoop, structure: ZamesFalbStructure,
                          rho: float) -> AugmentedPlant:
    """The augmented plant of an explicit uncertain loop; nothing is kept."""
    return _rate_plant(_RhoFree(loop, structure), structure, rho)


def build_rate_plant(algo: AlgorithmRealization, bounds: SectorBounds,
                     structure: ZamesFalbStructure, rho: float) -> AugmentedPlant:
    """The augmented plant of the sector loop, from the kept rho-free part."""
    return _rate_plant(_sector_part(algo, bounds, structure), structure, rho)


@dataclass(frozen=True)
class PerformanceAugmentedPlant:
    """Realization of the performance-augmented filter stack at rho = 1.

    Outputs split into the multiplier rows (q_c) and the performance rows
    (n_yp); inputs into the uncertainty channel (p_c) and the noise
    channel (n_wp). The direct terms D12, D21, D22 vanish for the H2
    setup with D_perf = 0. nominal_radius is the spectral radius of the
    loop's Anom. boldB2 and boldC2 are zero on the multiplier states, so
    boldB2[n_mult:] is B_perf. part is the rho-free part, as for the rate
    plant.
    """

    boldA: np.ndarray = field(repr=False)
    boldB1: np.ndarray = field(repr=False)
    boldB2: np.ndarray = field(repr=False)
    boldC1: np.ndarray = field(repr=False)
    boldC2: np.ndarray = field(repr=False)
    boldD11: np.ndarray = field(repr=False)
    n_mult: int
    n_loop: int
    p_c: int
    q_c: int
    n_wp: int
    n_yp: int
    loop: UncertainLoop = field(repr=False)
    structure: ZamesFalbStructure = None
    part: "_RhoFree" = field(default=None, repr=False, compare=False)

    @property
    def n_c(self) -> int:
        return self.n_mult + self.n_loop

    @property
    def nominal_radius(self) -> float:
        return self.loop.radius


def _perf_plant(part: _RhoFree, structure: ZamesFalbStructure,
                B_perf, C_perf) -> PerformanceAugmentedPlant:
    """The rate plant at rho = 1 with the noise channel (B_perf, C_perf) added."""
    plant = _rate_plant(part, structure, 1.0)
    B_perf = np.atleast_2d(np.asarray(B_perf, dtype=float))
    C_perf = np.atleast_2d(np.asarray(C_perf, dtype=float))
    N, nd = plant.n_loop, plant.n_mult
    if B_perf.shape[0] != N or C_perf.shape[1] != N:
        raise DimensionError("performance channel dimensions do not match the loop")
    nwp, nyp = B_perf.shape[1], C_perf.shape[0]
    # an entry of an H2 block sums at most dim products of two channel
    # entries and a coefficient of magnitude at most 1 (C_perf^T C_perf in
    # the KYP block, N^T P N B_perf in the Schur block), and a block's scale
    # squares its dim^2 entries; refuse a channel for which that overflows
    dim = plant.n_c + plant.p_c + nwp + nyp
    for name, M in (("B_perf", B_perf), ("C_perf", C_perf)):
        a = float(np.abs(M).max(initial=1.0))
        e = a * a * dim
        if not e * e * dim * dim < np.inf:      # inf or NaN
            raise DomainError(f"{name}: entries up to {a:.3g} would overflow "
                              "the H2 blocks' products")
    return PerformanceAugmentedPlant(
        plant.Ac, plant.Bc, np.vstack([np.zeros((nd, nwp)), B_perf]), plant.Cc,
        np.hstack([np.zeros((nyp, nd)), C_perf]), plant.Dc,
        n_mult=nd, n_loop=N, p_c=plant.p_c, q_c=plant.q_c, n_wp=nwp, n_yp=nyp,
        loop=part.loop, structure=structure, part=part,
    )


def build_perf_plant_loop(loop: UncertainLoop, structure: ZamesFalbStructure,
                          B_perf, C_perf) -> PerformanceAugmentedPlant:
    """The performance plant of an explicit uncertain loop; nothing is kept."""
    return _perf_plant(_RhoFree(loop, structure), structure, B_perf, C_perf)


def build_perf_plant(algo: AlgorithmRealization, bounds: SectorBounds,
                     structure: ZamesFalbStructure, perf) -> PerformanceAugmentedPlant:
    """perf is a triple (B_perf, C_perf, D_perf); D_perf must be zero."""
    B_perf, C_perf, D_perf = perf
    if D_perf is not None and np.any(np.abs(np.asarray(D_perf, dtype=float)) > 0):
        raise UnsupportedError("only D_perf = 0 is supported for the H2 setup")
    return _perf_plant(_sector_part(algo, bounds, structure), structure, B_perf, C_perf)


def default_noise_channel(algo: AlgorithmRealization):
    """Additive gradient-noise channel: B_perf = B, C_perf = D, D_perf = 0."""
    return algo.B.copy(), algo.D.copy(), np.zeros((algo.p, algo.p))
