"""Sample-based empirical lower bounds for the noise-amplification level.

Random objectives are either quadratics with spectrum in [m, L] or
separable functions with per-coordinate Hessian c1 + c2 cos(w z); both
have their minimizer at the origin by construction, so simulated state
deviations are measured directly against zero.

`simulate_h2` runs on the algorithm's Kronecker core (the p=1 core of
A = kron(Abar, I_p) and so on, which named and lifted algorithms store;
an algorithm without that form is its own core), so it never reads the
dense matrices. Each step is one small matrix product,
[A B; C A C B; D A D B] [x; u], which writes x+, C x+ and D x+ into the
next step's slot; the input u = grad(C x) + W is formed in place over
C x, and the second moments are read from the D x rows once per block.
Noise is drawn one chunk of whole blocks (about CHUNK_BYTES of noise)
ahead of the stepping, on one worker thread, so the draw overlaps the
stepping: the worker alone reads the PCG64 stream, in the same order as
per-step draws, which gives the same numbers, and it is joined on every
exit, a raised error included. Every step is still checked for
divergence, one block of BLOCK steps at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .algorithms import AlgorithmRealization, SectorBounds, reduce_to_scalar_block
from .errors import (ArgumentError, DimensionError, DivergenceError, DomainError,
                     StructureError)

DIVERGENCE_LIMIT = 1e12
# steps per divergence check and second-moment sum; 16 keeps the slots
# (n + 2 rows for a named core) under 2 MB at p=32 with 100 realizations
BLOCK = 16
# noise per draw on the worker thread: each hand-off between the threads
# needs the GIL, and at ~1 MiB a p=1 run of 2000 steps and 100
# realizations takes two draws
CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class RandomFunctionSpec:
    """A sampled objective with gradient in closed form.

    quadratic: grad(z) = Q z with m <= eig(Q) <= L.
    cosine: per coordinate grad_i(z) = c1 z_i + (c2/w) sin(w z_i); the
    Hessian range is [c1 - |c2|, c1 + |c2|], kept inside [m, L].
    """

    kind: str
    p: int
    Q: np.ndarray = field(default=None, repr=False)
    c1: np.ndarray = None
    c2: np.ndarray = None
    omega: np.ndarray = None

    def gradient(self, Z: np.ndarray) -> np.ndarray:
        """Vectorized gradient; Z has shape (..., p)."""
        if self.kind == "quadratic":
            return Z @ self.Q.T
        return self.c1 * Z + (self.c2 / self.omega) * np.sin(self.omega * Z)

    def hessian_range(self):
        if self.kind == "quadratic":
            eigs = np.linalg.eigvalsh(self.Q)
            return float(eigs[0]), float(eigs[-1])
        lo = np.min(self.c1 - np.abs(self.c2))
        hi = np.max(self.c1 + np.abs(self.c2))
        return float(lo), float(hi)


def _gradient_plus_noise(spec: RandomFunctionSpec, realizations: int):
    """add(Z, W) overwrites Z, of shape (realizations, p), with spec.gradient(Z) + W.

    The arithmetic is that of `gradient`, with buffers allocated once here.
    """
    t = np.empty((realizations, spec.p))
    if spec.kind == "quadratic":
        QT = np.ascontiguousarray(spec.Q.T)

        def add(Z, W):
            np.matmul(Z, QT, out=t)
            np.add(t, W, out=Z)
    else:
        c1, omega, ratio = (np.tile(v, (realizations, 1))
                            for v in (spec.c1, spec.omega, spec.c2 / spec.omega))

        def add(Z, W):
            np.multiply(omega, Z, out=t)
            np.sin(t, out=t)
            np.multiply(t, ratio, out=t)
            Z *= c1
            Z += t
            Z += W
    return add


def sample_function(bounds: SectorBounds, p: int, kind: str,
                    rng: np.random.Generator) -> RandomFunctionSpec:
    """Draw one objective whose Hessian stays inside [m, L] everywhere."""
    m, L = bounds.m, bounds.L
    if kind == "quadratic":
        if p == 1:
            Q = np.array([[rng.uniform(m, L)]])
        else:
            G = rng.normal(size=(p, p))
            Qmat, _ = np.linalg.qr(G)
            eigs = rng.uniform(m, L, size=p)
            # include the endpoints often enough to exercise the sector edges
            if rng.uniform() < 0.5:
                eigs[0] = m
            if rng.uniform() < 0.5:
                eigs[-1] = L
            Q = Qmat @ np.diag(eigs) @ Qmat.T
            Q = 0.5 * (Q + Q.T)
        return RandomFunctionSpec(kind="quadratic", p=p, Q=Q)
    if kind == "cosine":
        c1 = rng.uniform(m, L, size=p)
        amp = np.minimum(c1 - m, L - c1)
        c2 = rng.uniform(-1.0, 1.0, size=p) * amp
        omega = rng.uniform(0.5, 5.0, size=p)
        return RandomFunctionSpec(kind="cosine", p=p, c1=c1, c2=c2, omega=omega)
    raise ArgumentError(f"unknown function kind {kind!r}")


def chunk_steps(realizations: int, p: int) -> int:
    """Steps per noise draw: whole blocks holding about CHUNK_BYTES of noise."""
    return BLOCK * max(1, CHUNK_BYTES // (BLOCK * realizations * p * 8))


@dataclass(frozen=True)
class SimulationRun:
    algo: AlgorithmRealization
    spec: RandomFunctionSpec
    seed: int
    k_max: int
    realizations: int
    estimate: float
    second_moments: np.ndarray = field(repr=False, default=None)


def simulate_h2(algo: AlgorithmRealization, spec: RandomFunctionSpec,
                k_max: int, realizations: int, seed) -> SimulationRun:
    """Empirical time-averaged output second moment under white gradient noise.

    Iterates x+ = A x + B (grad(C x) + W) from the equilibrium, with W
    i.i.d. standard normal, and returns
    sqrt( (1/k_max) sum_k mean_N ||D x_k||^2 ).

    On the core of A = kron(Abar, I_q) the state is an (n, realizations * q)
    array whose column j q + i is coordinate i of realization j. A
    DivergenceError names the first step whose state left the limit, and a
    DimensionError an objective whose p differs from the algorithm's. The
    noise comes from PCG64(seed), seed an int or a SeedSequence; a worker
    thread draws it one chunk ahead and is joined before the call returns
    or raises.
    """
    if k_max < 1 or realizations < 1:
        raise DomainError("k_max and realizations must be positive")
    if spec.p != algo.p:
        raise DimensionError(f"objective dimension p={spec.p} must equal "
                             f"the algorithm dimension p={algo.p}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    try:
        core, q = reduce_to_scalar_block(algo), algo.p
    except StructureError:   # not of Kronecker form: the algorithm is its own core
        core, q = algo, 1
    r, p = realizations, algo.p
    A, B, C, D = core.A, core.B, core.C, core.D
    n, m = B.shape               # m * q == p
    # one product per step: [x; u] -> [x+; C x+; D x+]
    M = np.block([[A, B], [C @ A, C @ B], [D @ A, D @ B]])
    # slot i holds step k0 + i: x in rows :n, D x in rows n + m:, and C x in
    # rows n:n + m until it is overwritten by the step's input grad(C x) + W
    slots = np.zeros((BLOCK + 1, n + 2 * m, r * q))   # minimizer of every sampled spec is 0
    states, outputs = slots[:, :n], slots[:, n + m:]
    steps = [(slot[n:n + m].T.reshape(r, p), slot[:n + m], nxt)
             for slot, nxt in zip(slots, slots[1:])]
    # the chunk being stepped and the next one, which the worker draws
    chunk = chunk_steps(r, p)
    noise = np.empty((2, chunk, r, p))
    starts = range(0, k_max + 1, chunk)

    def draw(i):
        W = noise[i % 2, :min(chunk, k_max + 1 - starts[i])]
        rng.standard_normal(out=W)
        return W

    add_gradient = _gradient_plus_noise(spec, r)
    sums = np.empty(k_max + 1)
    # imported on first use: at module level, concurrent.futures and its
    # logging import would add ~10 ms to every `import iqcopt`
    from concurrent.futures import ThreadPoolExecutor

    # leaving the pool joins the worker, after its last draw has returned;
    # a diverging block runs on past its first bad step before the check
    with ThreadPoolExecutor(1) as pool, np.errstate(over="ignore", invalid="ignore"):
        pending = pool.submit(draw, 0)
        for i, c0 in enumerate(starts):
            chunk_noise = pending.result()
            if i + 1 < len(starts):
                pending = pool.submit(draw, i + 1)
            for b0 in range(0, len(chunk_noise), BLOCK):
                W = chunk_noise[b0:b0 + BLOCK]
                k0, kb = c0 + b0, len(W)
                for (z, xu, nxt), w in zip(steps, W):
                    add_gradient(z, w)
                    np.dot(M, xu, out=nxt)   # less call overhead than np.matmul
                Y = outputs[:kb]
                sums[k0:k0 + kb] = np.einsum("kij,kij->k", Y, Y) / r
                new = states[1:kb + 1]
                if not (new.max() <= DIVERGENCE_LIMIT and new.min() >= -DIVERGENCE_LIMIT):
                    bad = ~np.all(np.abs(new) <= DIVERGENCE_LIMIT, axis=(1, 2))
                    raise DivergenceError(
                        f"trajectory diverged at step {k0 + int(np.argmax(bad))}")
                slots[0] = slots[kb]
    estimate = float(np.sqrt(np.sum(sums) / k_max))
    return SimulationRun(algo=algo, spec=spec, seed=seed, k_max=k_max,
                         realizations=realizations, estimate=estimate,
                         second_moments=sums)
