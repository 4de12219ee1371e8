"""Containers and constructors for first-order optimization algorithms.

An algorithm of order n over decision variables of dimension p iterates

    x_{k+1} = A x_k + B grad(C x_k),   z_k = D x_k,

with x in R^{np}. Fixed-point correctness for every strongly convex
objective requires a right inverse Ddagger with D Ddagger = C Ddagger = I
and (A - I) Ddagger = 0; all constructors here enforce that.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError

EQ_TOL = 1e-10


@dataclass(frozen=True)
class SectorBounds:
    """Strong-convexity modulus m and gradient Lipschitz constant L."""

    m: float
    L: float

    def __post_init__(self):
        if not (0 < self.m <= self.L):
            raise DomainError(f"need 0 < m <= L, got m={self.m}, L={self.L}")

    @property
    def kappa(self) -> float:
        return self.L / self.m


@dataclass(frozen=True)
class AlgorithmRealization:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Ddagger: np.ndarray
    n: int
    p: int

    def __post_init__(self):
        n, p = self.n, self.p
        for name, M, shape in (
            ("A", self.A, (n * p, n * p)),
            ("B", self.B, (n * p, p)),
            ("C", self.C, (p, n * p)),
            ("D", self.D, (p, n * p)),
            ("Ddagger", self.Ddagger, (n * p, p)),
        ):
            # a read-only copy, so the equilibrium check below keeps holding
            M = np.array(M, dtype=float)
            if M.shape != shape:
                raise DimensionError(f"{name} must have shape {shape}, got {M.shape}")
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        ok, _ = check_equilibrium_conditions(self.A, self.B, self.C, self.D, self.Ddagger)
        if not ok:
            raise DimensionError("equilibrium conditions violated by (A, C, D, Ddagger)")

    def nominal_matrix(self, m: float) -> np.ndarray:
        return self.A + m * self.B @ self.C


KINDS = ("gd", "nm", "nm_mod", "tmm", "hb")

_KIND_ALIASES = {
    "gd": "gd",
    "nm": "nm",
    "nm-mod": "nm_mod",
    "nm_mod": "nm_mod",
    "nm_modified": "nm_mod",
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


def known_rate(kind: str, bounds: SectorBounds) -> float | None:
    """Published worst-case rate bound; None when no global bound exists (hb)."""
    kap = bounds.kappa
    if kind == "gd":
        return (kap - 1) / (kap + 1)
    if kind == "nm":
        # improved bound for the classical parameters
        return float(np.sqrt(1 - np.sqrt(2 * kap - 1) / kap))
    if kind == "nm_mod":
        return float(np.sqrt(1 - np.sqrt(2 * kap - 1) / kap))
    if kind == "tmm":
        return 1 - 1 / np.sqrt(kap)
    if kind == "hb":
        return None
    raise ArgumentError(f"unknown algorithm kind {kind!r}")


def make_named(kind: str, bounds: SectorBounds, p: int = 1) -> AlgorithmRealization:
    """Two-state realization of a named algorithm, Kronecker-lifted to dimension p."""
    kind = _KIND_ALIASES.get(kind.lower())
    if kind is None:
        raise ArgumentError(f"unknown algorithm kind; expected one of {KINDS}")
    nu1, nu2, nu3 = table_parameters(kind, bounds)
    Ip = np.eye(p)
    A = np.kron(np.array([[1 + nu2, -nu2], [1.0, 0.0]]), Ip)
    B = np.kron(np.array([[-nu1], [0.0]]), Ip)
    C = np.kron(np.array([[1 + nu3, -nu3]]), Ip)
    D = np.kron(np.array([[1.0, 0.0]]), Ip)
    Dd = np.kron(np.array([[1.0], [1.0]]), Ip)
    return AlgorithmRealization(A, B, C, D, Dd, n=2, p=p)


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
        res = max(
            np.max(np.abs(D @ X - np.eye(p))),
            np.max(np.abs(C @ X - np.eye(p))),
            np.max(np.abs((A - np.eye(np_)) @ X)),
        )
        return res <= EQ_TOL * (1.0 + np.linalg.norm(A)), X
    lhs = np.vstack([A - np.eye(np_), D, C])
    rhs = np.vstack([np.zeros((np_, p)), np.eye(p), np.eye(p)])
    X, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    res = np.max(np.abs(lhs @ X - rhs))
    if res < 1e-8 * (1.0 + np.linalg.norm(A)):
        return True, X
    return False, None


def nominal_closed_loop(algo: AlgorithmRealization, bounds: SectorBounds):
    """Closed loop A + m B C and its spectral radius."""
    M = algo.nominal_matrix(bounds.m)
    return M, float(np.max(np.abs(np.linalg.eigvals(M))))


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
    """C = D = [I 0 ... 0], Ddagger = C^T."""
    C = np.zeros((p, n * p))
    C[:, :p] = np.eye(p)
    return C, C.copy(), C.T.copy()


def from_structured(form: StructuredControllerForm, p=None, n=None) -> AlgorithmRealization:
    """Realize the integrator-chain algorithm A = A1 + I + B1 [0 K2 .. Kn], B = B1 K1."""
    n = form.n if n is None else n
    p = form.p if p is None else p
    if (n, p) != (form.n, form.p):
        raise DimensionError(f"form has (n={form.n}, p={form.p}), requested ({n}, {p})")
    A1, B1 = chain_matrices(n, p)
    Krow = np.hstack([np.zeros((p, p))] + [form.K[i] for i in range(1, n)]) if n > 1 \
        else np.zeros((p, p))
    A = A1 + np.eye(n * p) + B1 @ Krow
    B = B1 @ form.K[0]
    C, D, Dd = canonical_output(n, p)
    return AlgorithmRealization(A, B, C, D, Dd, n=n, p=p)


def kronecker_factor(M: np.ndarray, p: int) -> np.ndarray:
    """Extract Mbar from M = kron(Mbar, I_p); StructureError if no such factor."""
    from .errors import StructureError

    M = np.atleast_2d(M)
    r, c = M.shape
    if r % p or c % p:
        raise StructureError(f"shape {M.shape} not divisible by p={p}")
    rb, cb = r // p, c // p
    Mbar = np.empty((rb, cb))
    for i in range(rb):
        for j in range(cb):
            blk = M[i * p:(i + 1) * p, j * p:(j + 1) * p]
            Mbar[i, j] = blk[0, 0]
            if np.max(np.abs(blk - blk[0, 0] * np.eye(p))) > 1e-12 * (1 + abs(blk[0, 0])):
                raise StructureError("matrix is not of Kronecker form Mbar (x) I_p")
    return Mbar


def reduce_to_scalar_block(algo: AlgorithmRealization) -> AlgorithmRealization:
    """Collapse a Kronecker algorithm to its p=1 core."""
    p = algo.p
    return AlgorithmRealization(
        kronecker_factor(algo.A, p),
        kronecker_factor(algo.B, p),
        kronecker_factor(algo.C, p),
        kronecker_factor(algo.D, p),
        kronecker_factor(algo.Ddagger, p),
        n=algo.n,
        p=1,
    )


def lift(algo: AlgorithmRealization, p: int) -> AlgorithmRealization:
    """Kronecker-lift a p=1 algorithm to decision dimension p."""
    if algo.p != 1:
        raise DimensionError("lift expects a p=1 algorithm")
    Ip = np.eye(p)
    return AlgorithmRealization(
        np.kron(algo.A, Ip), np.kron(algo.B, Ip), np.kron(algo.C, Ip),
        np.kron(algo.D, Ip), np.kron(algo.Ddagger, Ip), n=algo.n, p=p,
    )


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


def from_json_dict(d: dict) -> AlgorithmRealization:
    if "kind" in d:
        bounds = SectorBounds(float(d["m"]), float(d["L"]))
        return make_named(d["kind"], bounds, int(d.get("p", 1)))
    n, p = int(d["n"]), int(d["p"])
    A = np.asarray(d["A"], dtype=float)
    B = np.asarray(d["B"], dtype=float)
    C = np.asarray(d["C"], dtype=float)
    D = np.asarray(d["D"], dtype=float)
    if "Ddagger" in d and d["Ddagger"] is not None:
        Dd = np.asarray(d["Ddagger"], dtype=float)
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
