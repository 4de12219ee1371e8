"""Containers and constructors for first-order optimization algorithms.

An algorithm of order n over decision variables of dimension p iterates

    x_{k+1} = A x_k + B grad(C x_k),   z_k = D x_k,

with x in R^{np}. Fixed-point correctness for every strongly convex
objective requires a right inverse Ddagger with D Ddagger = C Ddagger = I
and (A - I) Ddagger = 0; all constructors here enforce that.

A realization is stored as its Kronecker core: five matrices Abar, Bbar,
Cbar, Dbar, Ddbar of the algorithm over dimension p / q and a lift factor
q, with A = kron(Abar, I_q) and likewise for B, C, D and Ddagger. The
named algorithms and `lift` store their p=1 core with q = p; a
realization given by its dense matrices is its own core with q = 1. The
dense A..Ddagger are read-only attributes built by `np.kron(core, I_q)`
on first read, so they hold the bytes of a lift built up front, signed
zeros included, and no (np x np) matrix exists until one is read:
`reduce_to_scalar_block` returns the stored core, and `simulate_h2` steps
it. The equilibrium conditions are checked on the core. Since
kron(M, I_q) kron(X, I_q) = kron(M X, I_q), its residuals are the dense
ones, and the tolerance is the dense one, EQ_TOL (1 + ||A||_F) with
||A||_F = sqrt(q) ||Abar||_F.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError, StructureError

EQ_TOL = 1e-10


@dataclass(frozen=True)
class SectorBounds:
    """Strong-convexity modulus m and gradient Lipschitz constant L."""

    m: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.L)):
            raise DomainError(f"m and L must be finite, got m={self.m}, L={self.L}")
        if not (0 < self.m <= self.L):
            raise DomainError(f"need 0 < m <= L, got m={self.m}, L={self.L}")

    @property
    def kappa(self) -> float:
        return self.L / self.m


_MATRICES = ("A", "B", "C", "D", "Ddagger")


def _finite(name: str, M: np.ndarray) -> np.ndarray:
    """M, refused with DomainError if it holds an inf or a NaN.

    An inf in A makes the equilibrium bound EQ_TOL (1 + ||A||) inf, so the
    check passes, and a NaN fails no comparison, so the matrices are
    checked before anything reads them.
    """
    if not np.isfinite(M).all():
        raise DomainError(f"{name} has a non-finite entry")
    return M


def _lifted(i: int) -> cached_property:
    """Dense matrix i of a lifted realization: kron(core[i], I_q), built once."""

    def dense(self) -> np.ndarray:
        M = np.kron(self._core[i], np.eye(self.q))
        M.flags.writeable = False
        return M

    return cached_property(dense)


class AlgorithmRealization:
    """An order-n algorithm over R^p, stored as its Kronecker core.

    AlgorithmRealization(A, B, C, D, Ddagger, n, p) takes the dense
    matrices. With q > 1 the five matrices are instead the core, an
    algorithm over dimension p // q, and the realization is its lift
    A = kron(A_core, I_q) and so on. The constructor stores read-only
    copies, refuses a non-finite entry with DomainError and checks the
    equilibrium conditions; instances are immutable.
    """

    A = _lifted(0)
    B = _lifted(1)
    C = _lifted(2)
    D = _lifted(3)
    Ddagger = _lifted(4)

    def __init__(self, A, B, C, D, Ddagger, n: int, p: int, q: int = 1):
        for name, v in (("n", n), ("p", p), ("q", q)):
            if v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v}")
        if p % q:
            raise DimensionError(f"the lift factor q={q} does not divide p={p}")
        k = p // q
        core = []
        shapes = ((n * k, n * k), (n * k, k), (k, n * k), (k, n * k), (n * k, k))
        for name, M, shape in zip(_MATRICES, (A, B, C, D, Ddagger), shapes):
            # a read-only copy, so the equilibrium check below keeps holding
            M = np.array(M, dtype=float)
            if M.shape != shape:
                raise DimensionError(f"{name} must have shape {shape}, got {M.shape}")
            _finite(name, M)
            M.flags.writeable = False
            core.append(M)
        Abar, _, Cbar, Dbar, Ddbar = core
        tol = EQ_TOL * (1.0 + np.sqrt(q) * np.linalg.norm(Abar))
        if not _equilibrium_residual(Abar, Cbar, Dbar, Ddbar) <= tol:
            raise DimensionError("equilibrium conditions violated by (A, C, D, Ddagger)")
        vars(self).update(n=n, p=p, q=q, _core=tuple(core))
        if q == 1:      # its own core: the dense matrices are stored
            vars(self).update(zip(_MATRICES, core))

    def __setattr__(self, name, value):
        raise AttributeError(f"AlgorithmRealization is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"AlgorithmRealization(n={self.n}, p={self.p}, q={self.q})"

    def nominal_matrix(self, m: float) -> np.ndarray:
        return self.A + m * self.B @ self.C

    def nominal_radius(self, m: float) -> float:
        return spectral_radius(self.nominal_matrix(m))


KINDS = ("gd", "nm", "nm_mod", "tmm", "hb")

_KIND_ALIASES = {
    "gd": "gd",
    "nm": "nm",
    "nm-mod": "nm_mod",
    "nm_mod": "nm_mod",
    "tmm": "tmm",
    "hb": "hb",
}


def table_parameters(kind: str, bounds: SectorBounds) -> tuple[float, float, float]:
    """(nu1, nu2, nu3) for the named two-state algorithm family.

    `nm` uses the classical momentum (sqrt(L)-sqrt(m))/(sqrt(L)+sqrt(m));
    `nm_mod` the modified momentum (2k - sqrt(2k-1) - 1)/(2(k + sqrt(k-1))).
    """
    m, L = bounds.m, bounds.L
    kap = bounds.kappa
    if kind == "gd":
        return 2.0 / (m + L), 0.0, 0.0
    if kind == "nm":
        nu2 = (np.sqrt(L) - np.sqrt(m)) / (np.sqrt(L) + np.sqrt(m))
        return 1.0 / L, nu2, nu2
    if kind == "nm_mod":
        nu2 = (2 * kap - np.sqrt(2 * kap - 1) - 1) / (2 * (kap + np.sqrt(kap - 1)))
        return 1.0 / L, nu2, nu2
    if kind == "tmm":
        rho = 1.0 - 1.0 / np.sqrt(kap)
        return (1 + rho) / L, rho**2 / (2 - rho), rho**2 / ((1 + rho) * (2 - rho))
    if kind == "hb":
        nu1 = (2.0 / (np.sqrt(L) + np.sqrt(m))) ** 2
        nu2 = ((np.sqrt(L) - np.sqrt(m)) / (np.sqrt(L) + np.sqrt(m))) ** 2
        return nu1, nu2, 0.0
    raise ArgumentError(f"unknown algorithm kind {kind!r}; expected one of {KINDS}")


def make_named(kind: str, bounds: SectorBounds, p: int = 1) -> AlgorithmRealization:
    """Two-state realization of a named algorithm, Kronecker-lifted to dimension p.

    The realization stores the p=1 core with lift factor q = p.
    """
    kind = _KIND_ALIASES.get(kind.lower())
    if kind is None:
        raise ArgumentError(f"unknown algorithm kind; expected one of {KINDS}")
    nu1, nu2, nu3 = table_parameters(kind, bounds)
    return AlgorithmRealization(
        [[1 + nu2, -nu2], [1.0, 0.0]], [[-nu1], [0.0]], [[1 + nu3, -nu3]],
        [[1.0, 0.0]], [[1.0], [1.0]], n=2, p=p, q=p,
    )


def check_equilibrium_conditions(A, B, C, D, Ddagger=None):
    """Check (or solve for) the equilibrium map Ddagger.

    With Ddagger given, verifies D Ddagger = C Ddagger = I and
    (A - I) Ddagger = 0 to EQ_TOL. Otherwise solves the stacked linear
    system by least squares and declares existence from the residual.

    Returns (holds, Ddagger-or-None).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    np_, p = A.shape[0], D.shape[0]
    if Ddagger is not None:
        X = np.asarray(Ddagger, dtype=float).reshape(np_, p)
        return _equilibrium_residual(A, C, D, X) <= EQ_TOL * (1.0 + np.linalg.norm(A)), X
    lhs = np.vstack([A - np.eye(np_), D, C])
    rhs = np.vstack([np.zeros((np_, p)), np.eye(p), np.eye(p)])
    X, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    res = np.max(np.abs(lhs @ X - rhs))
    if res < 1e-8 * (1.0 + np.linalg.norm(A)):
        return True, X
    return False, None


def _equilibrium_residual(A, C, D, X) -> float:
    """Largest entry of |D X - I|, |C X - I| and |(A - I) X|."""
    np_, p = X.shape
    return max(
        np.max(np.abs(D @ X - np.eye(p))),
        np.max(np.abs(C @ X - np.eye(p))),
        np.max(np.abs((A - np.eye(np_)) @ X)),
    )


def spectral_radius(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass(frozen=True)
class StructuredControllerForm:
    """Gain list K_1..K_n of the integrator-chain parametrization."""

    K: tuple

    def __post_init__(self):
        K = tuple(np.atleast_2d(np.asarray(Ki, dtype=float)) for Ki in self.K)
        p = K[0].shape[0]
        for Ki in K:
            if Ki.shape != (p, p):
                raise DimensionError("all gains K_i must be square of equal size")
        object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return len(self.K)

    @property
    def p(self) -> int:
        return self.K[0].shape[0]


def chain_matrices(n: int, p: int):
    """Shift matrix A1 (block up-shift) and last-block injector B1."""
    Ip = np.eye(p)
    A1 = np.zeros((n * p, n * p))
    for i in range(n - 1):
        A1[i * p:(i + 1) * p, (i + 1) * p:(i + 2) * p] = Ip
    B1 = np.zeros((n * p, p))
    B1[(n - 1) * p:, :] = Ip
    return A1, B1


def canonical_output(n: int, p: int):
    """C = D = [I 0 ... 0], Ddagger = C^T; DomainError unless n >= 1."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    C = np.zeros((p, n * p))
    C[:, :p] = np.eye(p)
    return C, C.copy(), C.T.copy()


def from_structured(form: StructuredControllerForm) -> AlgorithmRealization:
    """Realize the integrator-chain algorithm A = A1 + I + B1 [0 K2 .. Kn], B = B1 K1."""
    n, p = form.n, form.p
    A1, B1 = chain_matrices(n, p)
    Krow = np.hstack([np.zeros((p, p))] + [form.K[i] for i in range(1, n)]) if n > 1 \
        else np.zeros((p, p))
    A = A1 + np.eye(n * p) + B1 @ Krow
    B = B1 @ form.K[0]
    C, D, Dd = canonical_output(n, p)
    return AlgorithmRealization(A, B, C, D, Dd, n=n, p=p)


def kronecker_factor(M: np.ndarray, p: int) -> np.ndarray:
    """Extract Mbar from M = kron(Mbar, I_p); StructureError if no such factor.

    Each p x p block must be Mbar_ij I_p to 1e-12 (1 + |Mbar_ij|).
    """
    M = np.atleast_2d(M)
    r, c = M.shape
    if r % p or c % p:
        raise StructureError(f"shape {M.shape} not divisible by p={p}")
    blocks = M.reshape(r // p, p, c // p, p)
    Mbar = np.array(blocks[:, 0, :, 0], dtype=float)
    err = np.max(np.abs(blocks - Mbar[:, None, :, None] * np.eye(p)[:, None, :]), axis=(1, 3))
    if np.any(err > 1e-12 * (1 + np.abs(Mbar))):
        raise StructureError("matrix is not of Kronecker form Mbar (x) I_p")
    return Mbar


def reduce_to_scalar_block(algo: AlgorithmRealization) -> AlgorithmRealization:
    """The p=1 Kronecker core of an algorithm, built on first call and kept.

    A realization stored with q = p gives its stored core. A dense one
    (q = 1, such as a loaded file or a `from_structured` realization) is
    factored by `kronecker_factor`, which raises StructureError when it is
    not of that form. Every later call returns the same core, so rate
    probes on it share the kept plant part and its nominal radius.
    """
    if algo.p == 1:
        return algo
    core = vars(algo).get("_scalar_core")
    if core is None:
        mats = algo._core if algo.q == algo.p else (
            kronecker_factor(M, algo.p) for M in (algo.A, algo.B, algo.C, algo.D, algo.Ddagger))
        core = vars(algo)["_scalar_core"] = AlgorithmRealization(*mats, n=algo.n, p=1)
    return core


def lift(algo: AlgorithmRealization, p: int) -> AlgorithmRealization:
    """Kronecker-lift a p=1 algorithm to decision dimension p, stored as its core with q = p."""
    if algo.p != 1:
        raise DimensionError("lift expects a p=1 algorithm")
    return AlgorithmRealization(*algo._core, n=algo.n, p=p, q=p)


# ---------------------------------------------------------------------------
# JSON algorithm files
# ---------------------------------------------------------------------------

def to_json_dict(algo: AlgorithmRealization) -> dict:
    return {
        "n": algo.n,
        "p": algo.p,
        "A": algo.A.tolist(),
        "B": algo.B.tolist(),
        "C": algo.C.tolist(),
        "D": algo.D.tolist(),
        "Ddagger": algo.Ddagger.tolist(),
    }


def _count(v) -> int:
    """v as an int; a fractional count is refused, never truncated."""
    n = int(v)
    if n != v:
        raise ValueError(f"{v!r} is not an integer")
    return n


def _entry(d: dict, name: str, read=lambda v: np.asarray(v, dtype=float)):
    """read(d[name]), a matrix by default; DomainError naming the entry when
    it is not the number, count or numeric matrix it should be."""
    try:
        return read(d[name])
    # a string, a ragged list, a null, a fraction or an infinite count
    except (TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"entry {name!r} is malformed: {e}") from None


def from_json_dict(d: dict) -> AlgorithmRealization:
    """The algorithm a JSON object names (``kind``, ``m``, ``L``, ``p``) or
    lists (``n``, ``p``, ``A``..``D`` and ``Ddagger``, solved for when it is
    missing). A missing entry raises KeyError; an object of another type,
    or a malformed entry, DomainError."""
    if not isinstance(d, dict):
        raise DomainError(f"an algorithm is a JSON object, not a {type(d).__name__}")
    if "kind" in d:
        bounds = SectorBounds(_entry(d, "m", float), _entry(d, "L", float))
        return make_named(_entry(d, "kind", str), bounds, _entry(d, "p", _count) if "p" in d else 1)
    n, p = _entry(d, "n", _count), _entry(d, "p", _count)
    # checked here too, since solving for a missing Ddagger reads them first
    A, B, C, D = (_finite(name, _entry(d, name)) for name in "ABCD")
    if d.get("Ddagger") is not None:
        Dd = _entry(d, "Ddagger")
    else:
        ok, Dd = check_equilibrium_conditions(A, B, C, D)
        if not ok:
            raise DimensionError("algorithm file admits no equilibrium map Ddagger")
    return AlgorithmRealization(A, B, C, D, Dd, n=n, p=p)


def save_algorithm(algo: AlgorithmRealization, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(algo), fh, indent=1)


def load_algorithm(path) -> AlgorithmRealization:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
