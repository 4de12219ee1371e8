"""Zames-Falb multiplier classes, membership constraints and factorization.

A multiplier is parametrized by matrices M_{-lc}, ..., M_0, ..., M_{la}
subject to a rho-weighted double-hyperdominance condition. Three
structure classes are supported:

* ``unstructured``: M_i = m_i I_p (scalar kernel, valid for any
  slope-restricted gradient),
* ``nonrepeated``: M_i diagonal (objectives with diagonal Hessian),
* ``repeated``: M_i full (objectives with repeated diagonal Hessian).

Sign conventions follow the doubly hyperdominant reading: off-diagonal
entries nonpositive, rho-weighted row and column sums nonnegative. For
the repeated class, this includes the off-diagonal entries of M_0: the
underlying Toeplitz operator must be doubly hyperdominant as a whole.

The filter psi_Delta of the factorization Pi = psi^* M_Delta psi is
written by index into zeroed arrays (two shift chains, the sector
transform folded into B and D); no kron or block_diag is composed.
"""

from dataclasses import dataclass, field

import numpy as np

from .algorithms import SectorBounds
from .errors import ArgumentError, DimensionError, DomainError
from .statespace import StateSpace

CLASSES = ("unstructured", "repeated", "nonrepeated")

MEMBER_TOL = 1e-10


@dataclass(frozen=True)
class ZamesFalbStructure:
    """Shape of a multiplier search space."""

    ell_causal: int
    ell_anticausal: int
    p: int = 1
    klass: str = "unstructured"
    rho: float = 1.0

    def __post_init__(self):
        if self.ell_causal < 0 or self.ell_anticausal < 0:
            raise DomainError("ell_causal and ell_anticausal must be nonnegative")
        if self.p < 1:
            raise DomainError("p must be positive")
        if self.klass not in CLASSES:
            raise ArgumentError(f"unknown multiplier class {self.klass!r}")
        if not (0 < self.rho <= 1):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")

    @property
    def taps(self) -> int:
        """Number of kernel indices -lc..la."""
        return self.ell_causal + 1 + self.ell_anticausal

    def indices(self):
        return range(-self.ell_causal, self.ell_anticausal + 1)

    def with_rho(self, rho: float) -> "ZamesFalbStructure":
        return ZamesFalbStructure(self.ell_causal, self.ell_anticausal, self.p,
                                  self.klass, rho)

    # -- scalar parameter layout ------------------------------------------
    #
    # theta stacks the free entries of M_{-lc}..M_{la} in index order;
    # within one index: nonrepeated uses diagonal entries 0..p-1,
    # repeated uses row-major entries.

    def parameter_count(self) -> int:
        per = {"unstructured": 1, "nonrepeated": self.p, "repeated": self.p * self.p}
        return self.taps * per[self.klass]

    def tap_basis(self) -> list:
        """Per theta component: (kernel index i, p x p basis matrix dM_i/dtheta)."""
        out = []
        Ip = np.eye(self.p)
        for i in self.indices():
            if self.klass == "unstructured":
                out.append((i, Ip.copy()))
            elif self.klass == "nonrepeated":
                for d in range(self.p):
                    E = np.zeros((self.p, self.p))
                    E[d, d] = 1.0
                    out.append((i, E))
            else:
                for r in range(self.p):
                    for c in range(self.p):
                        E = np.zeros((self.p, self.p))
                        E[r, c] = 1.0
                        out.append((i, E))
        return out

    def matrices_from_theta(self, theta) -> list:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.parameter_count():
            raise DimensionError(
                f"theta has {theta.size} entries, expected {self.parameter_count()}"
            )
        Ms = {i: np.zeros((self.p, self.p)) for i in self.indices()}
        for t, (i, E) in zip(theta, self.tap_basis()):
            Ms[i] += t * E
        return [Ms[i] for i in self.indices()]

    def theta_from_matrices(self, Ms, tol=MEMBER_TOL) -> np.ndarray:
        """Inverse of matrices_from_theta; checks class shape conformity."""
        Ms = [np.atleast_2d(np.asarray(M, dtype=float)) for M in Ms]
        if len(Ms) != self.taps:
            raise DimensionError(f"expected {self.taps} kernel matrices, got {len(Ms)}")
        theta = []
        for M in Ms:
            if M.shape != (self.p, self.p):
                raise DimensionError(f"kernel matrices must be {self.p}x{self.p}")
            scale = 1.0 + np.max(np.abs(M))
            if self.klass == "unstructured":
                if np.max(np.abs(M - M[0, 0] * np.eye(self.p))) > tol * scale:
                    raise DimensionError("unstructured kernel requires M_i = m_i I")
                theta.append(M[0, 0])
            elif self.klass == "nonrepeated":
                if np.max(np.abs(M - np.diag(np.diag(M)))) > tol * scale:
                    raise DimensionError("nonrepeated kernel requires diagonal M_i")
                theta.extend(np.diag(M))
            else:
                theta.extend(M.ravel())
        return np.asarray(theta)


@dataclass(frozen=True)
class ZamesFalbParameters:
    """Concrete kernel matrices M_{-lc}..M_{la} (ordered by index)."""

    M: tuple

    def __post_init__(self):
        M = tuple(np.atleast_2d(np.asarray(Mi, dtype=float)) for Mi in self.M)
        p = M[0].shape[0]
        for Mi in M:
            if Mi.shape != (p, p):
                raise DimensionError("all kernel matrices must be square of equal size")
        object.__setattr__(self, "M", M)

    @property
    def p(self) -> int:
        return self.M[0].shape[0]


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . theta  (sense)  rhs, with sense one of '<=' or '>='."""

    coeffs: np.ndarray
    sense: str
    rhs: float = 0.0
    label: str = ""

    def satisfied(self, theta, tol=MEMBER_TOL) -> bool:
        v = float(np.dot(self.coeffs, theta))
        scale = 1.0 + np.max(np.abs(theta)) if len(theta) else 1.0
        if self.sense == "<=":
            return v <= self.rhs + tol * scale
        return v >= self.rhs - tol * scale


def membership_constraints(structure: ZamesFalbStructure) -> list:
    """Linear constraints over theta defining the admissible kernel set."""
    rho, p = structure.rho, structure.p
    basis = structure.tap_basis()
    nvar = len(basis)
    taps = [i for i, _ in basis]
    E = np.array([Eb for _, Eb in basis])        # (nvar, p, p), 0/1 entries
    cons = []
    # sign constraints, one per basis matrix at its (first) nonzero entry
    for k, (i, f) in enumerate(zip(taps, E.reshape(nvar, -1).argmax(axis=1))):
        r, c = divmod(int(f), p)
        if i != 0 or (r != c and structure.klass == "repeated"):
            e = np.zeros(nvar)
            e[k] = 1.0
            cons.append(LinearConstraint(e, "<=", 0.0, label=f"sign[{i}]({r},{c})"))
    # rho-weighted row sums: (sum_i M_i rho^{-i}) 1 >= 0  (p rows)
    rows = (np.array([rho ** (-i) for i in taps])[:, None] * E.sum(axis=2)).T.copy()
    cons += [LinearConstraint(e, ">=", 0.0, label=f"rowsum[{r}]") for r, e in enumerate(rows)]
    # rho-weighted column sums: 1^T (sum_i M_i rho^{i}) >= 0
    cols = (np.array([rho ** i for i in taps])[:, None] * E.sum(axis=1)).T.copy()
    cons += [LinearConstraint(e, ">=", 0.0, label=f"colsum[{c}]") for c, e in enumerate(cols)]
    return cons


def verify_membership(params: ZamesFalbParameters, structure: ZamesFalbStructure,
                      tol=MEMBER_TOL) -> bool:
    """Evaluate the membership constraints on concrete kernel matrices."""
    try:
        theta = structure.theta_from_matrices(params.M, tol=tol)
    except DimensionError:
        return False
    return all(c.satisfied(theta, tol=tol) for c in membership_constraints(structure))


# ---------------------------------------------------------------------------
# Factorization Pi = psi_Delta^* M_Delta psi_Delta
# ---------------------------------------------------------------------------

def sector_transform(bounds: SectorBounds, p: int) -> np.ndarray:
    """What = [[(L-m) I, -I], [0, I]]."""
    return np.block([
        [(bounds.L - bounds.m) * np.eye(p), -np.eye(p)],
        [np.zeros((p, p)), np.eye(p)],
    ])


def block_layout(structure: ZamesFalbStructure):
    """Row/column sizes of the six M_Delta blocks and their offsets."""
    lc, la, p = structure.ell_causal, structure.ell_anticausal, structure.p
    sizes = [p, p, lc * p, p, p, la * p]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return sizes, offsets


def m_delta_coefficients(structure: ZamesFalbStructure) -> np.ndarray:
    """dM_Delta/dtheta_k as one stack of constant symmetric matrices, ordered like theta."""
    lc, la, p = structure.ell_causal, structure.ell_anticausal, structure.p
    q = p * (4 + lc + la)
    _, off = block_layout(structure)
    basis = structure.tap_basis()
    coeffs = np.zeros((len(basis), q, q))
    for k, (i, Eb) in enumerate(basis):
        if i == 0:
            r, c, B = off[1], off[0], Eb
        elif i < 0:  # M_{i} sits in column slot lc + i of M_- = [M_{-lc} .. M_{-1}]
            r, c, B = off[3], off[2] + (lc + i) * p, Eb
        else:  # M_i^T sits in slot i - 1 of M_+ = [M_1^T .. M_la^T]
            r, c, B = off[4], off[5] + (i - 1) * p, Eb.T
        coeffs[k, r:r + p, c:c + p] = B
        coeffs[k, c:c + p, r:r + p] = B.T
    return coeffs


def m_delta_matrix(params: ZamesFalbParameters, structure: ZamesFalbStructure) -> np.ndarray:
    theta = structure.theta_from_matrices(params.M)
    return sum(t * E for t, E in zip(theta, m_delta_coefficients(structure)))


def _set_diagonal(X: np.ndarray, row: int, col: int, length: int, value: float) -> None:
    """X[row + i, col + i] = value for i < length, as one strided slice."""
    n = X.shape[1]
    start = row * n + col
    X.reshape(-1)[start:start + max(length, 0) * (n + 1):n + 1] = value


def psi_delta_realization(structure: ZamesFalbStructure, bounds: SectorBounds) -> StateSpace:
    """State-space realization of the multiplier filter psi_Delta.

    psi_Delta = [I 0; 0 I; psi_c (x) I 0; 0 I; I 0; 0 psi_a (x) I] @ What,
    with p(lc+la) states, 2p inputs (u_1, u_2) and p(4+lc+la) outputs.
    psi_c = [z^-lc .. z^-1]^T and psi_a = [z^-1 .. z^-la]^T are shift
    chains. Every entry is 0, 1, -1 or L - m, so A, B, C and D are written
    by index into zeroed arrays: the causal chain stores the last lc
    values of v = (L-m) u_1 - u_2 and the anticausal chain the last la
    values of u_2 (What folded into B and D), and C reads the anticausal
    chain in reverse.
    """
    lc, la, p = structure.ell_causal, structure.ell_anticausal, structure.p
    w = bounds.L - bounds.m
    nc, na = lc * p, la * p
    nx, ny = nc + na, 4 * p + nc + na
    # output blocks (see block_layout), with v = (L-m) u_1 - u_2:
    # v, u_2, the causal taps of v, u_2, v, the anticausal taps of u_2
    o3, o4, o5 = 2 * p + nc, 3 * p + nc, 4 * p + nc
    A = np.zeros((nx, nx))
    _set_diagonal(A, 0, p, nc - p, 1.0)
    _set_diagonal(A, nc, nc + p, na - p, 1.0)
    B = np.zeros((nx, 2 * p))
    if lc:
        _set_diagonal(B, nc - p, 0, p, w)
        _set_diagonal(B, nc - p, p, p, -1.0)
    if la:
        _set_diagonal(B, nx - p, p, p, 1.0)
    C = np.zeros((ny, nx))
    _set_diagonal(C, 2 * p, 0, nc, 1.0)
    for a in range(la):                      # output tap a reads state la-1 - a
        _set_diagonal(C, o5 + a * p, nc + (la - 1 - a) * p, p, 1.0)
    D = np.zeros((ny, 2 * p))
    for r in (0, o4):
        _set_diagonal(D, r, 0, p, w)
        _set_diagonal(D, r, p, p, -1.0)
    for r in (p, o3):
        _set_diagonal(D, r, p, p, 1.0)
    return StateSpace(A, B, C, D)


@dataclass(frozen=True)
class MultiplierFactorization:
    M_Delta: np.ndarray = field(repr=False)
    psi_Delta: StateSpace = field(repr=False)
    W_hat: np.ndarray = field(repr=False)
    structure: ZamesFalbStructure = None


def factorize(params: ZamesFalbParameters, structure: ZamesFalbStructure,
              bounds: SectorBounds) -> MultiplierFactorization:
    """Assemble (M_Delta, psi_Delta) so psi^* M_Delta psi equals the multiplier."""
    return MultiplierFactorization(
        M_Delta=m_delta_matrix(params, structure),
        psi_Delta=psi_delta_realization(structure, bounds),
        W_hat=sector_transform(bounds, structure.p),
        structure=structure,
    )


def kernel_transfer(params: ZamesFalbParameters, structure: ZamesFalbStructure, z) -> np.ndarray:
    """E(z) = sum_j M_j z^j."""
    out = np.zeros((structure.p, structure.p), dtype=complex)
    for j, Mj in zip(structure.indices(), params.M):
        out += Mj * (z ** j)
    return out


def multiplier_value(params: ZamesFalbParameters, structure: ZamesFalbStructure,
                     bounds: SectorBounds, z) -> np.ndarray:
    """Pi(z) = What^T [[0, E(z)^*], [E(z), 0]] What on the unit circle."""
    E = kernel_transfer(params, structure, z)
    W = sector_transform(bounds, structure.p)
    p = structure.p
    mid = np.block([
        [np.zeros((p, p)), E.conj().T],
        [E, np.zeros((p, p))],
    ])
    return W.T @ mid @ W
