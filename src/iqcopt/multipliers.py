"""Zames-Falb multiplier classes, membership rows and the filter psi_Delta.

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

The admissible set is one array of rows over theta (``membership_rows``),
which the problem builder adds as linear rows and ``verify_membership``
evaluates, each row's value the fsum of its rounded products. The
filter psi_Delta of the factorization Pi = psi^* M_Delta psi is written
by index into zeroed arrays (two shift chains, the sector transform
folded into B and D); no kron or block_diag is composed.

Everything about a multiplier except rho depends only on its shape
(lc, la, p, class): the tap indices and basis stack (``tap_basis``), the
M_Delta coefficient stack (``m_delta_coefficients``) and its entries
(``m_delta_entries``, the form an affine expression stores), the membership
pattern (the sign rows, the row- and column-sum patterns, each
component's tap position, the senses and labels) and the filter
template (psi_Delta's A and C, and B and D with the sector width left
out, beside the positions it goes to). These tables are built once per
shape into a read-only layout, on first use, and every structure of that
shape reads it whatever its rho. The layouts live in a cache of the
LAYOUT_CACHE_SIZE most recently used shapes; an older one is dropped and
rebuilt when next asked for. What stays per call is rho and the width:
``membership_rows`` applies the rho^(-i) and rho^i weights of the row-
and column-sum rows, and ``psi_delta_realization`` copies B and D and
writes the width into them.
"""

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError
from .statespace import StateSpace

CLASSES = ("unstructured", "repeated", "nonrepeated")

MEMBER_TOL = 1e-10

# shapes whose multiplier layout is kept (see the module docstring)
LAYOUT_CACHE_SIZE = 32


@dataclass(frozen=True)
class ZamesFalbStructure:
    """Shape of a multiplier search space."""

    ell_causal: int
    ell_anticausal: int
    p: int = 1
    klass: str = "unstructured"
    rho: float = 1.0

    def __post_init__(self):
        for name in ("ell_causal", "ell_anticausal", "p"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if self.ell_causal < 0 or self.ell_anticausal < 0:
            raise DomainError("ell_causal and ell_anticausal must be nonnegative")
        if self.p < 1:
            raise DomainError("p must be positive")
        if self.klass not in CLASSES:
            raise ArgumentError(f"unknown multiplier class {self.klass!r}")
        if not (0 < self.rho <= 1):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")
        # the membership rows weigh taps by rho^-la and rho^-lc, and the
        # plants divide by rho: refuse a rho whose largest power overflows
        power = max(self.ell_causal, self.ell_anticausal, 1)
        try:
            float(self.rho) ** -power
        except OverflowError:
            raise DomainError(f"rho={self.rho} is too small: rho^-{power} overflows") from None

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

    def tap_basis(self):
        """(kernel index i, dM_i/dtheta) per theta component, as two arrays.

        The indices are a length-nvar int array and the basis matrices one
        nvar x p x p stack of 0/1 entries; both are the shape's read-only
        layout arrays.
        """
        layout = _layout(self.ell_causal, self.ell_anticausal, self.p, self.klass)
        return layout.taps, layout.basis

    def matrices_from_theta(self, theta) -> list:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.parameter_count():
            raise DimensionError(
                f"theta has {theta.size} entries, expected {self.parameter_count()}"
            )
        _, E = self.tap_basis()
        terms = (theta[:, None, None] * E).reshape(self.taps, -1, self.p, self.p)
        # each entry has at most one nonzero term; 0.0 + turns a -0.0 sum into +0.0
        return list(0.0 + terms.sum(axis=1))

    def theta_from_matrices(self, Ms) -> np.ndarray:
        """Inverse of matrices_from_theta; checks class shape conformity."""
        Ms = [np.atleast_2d(np.asarray(M, dtype=float)) for M in Ms]
        if len(Ms) != self.taps:
            raise DimensionError(f"expected {self.taps} kernel matrices, got {len(Ms)}")
        if any(M.shape != (self.p, self.p) for M in Ms):
            raise DimensionError(f"kernel matrices must be {self.p}x{self.p}")
        M = np.array(Ms)
        bound = MEMBER_TOL * (1.0 + np.abs(M).max(axis=(1, 2)))
        if self.klass == "unstructured":
            if np.any(np.abs(M - M[:, :1, :1] * np.eye(self.p)).max(axis=(1, 2)) > bound):
                raise DimensionError("unstructured kernel requires M_i = m_i I")
            return M[:, 0, 0]
        if self.klass == "nonrepeated":
            if np.any(np.abs(M - M * np.eye(self.p)).max(axis=(1, 2)) > bound):
                raise DimensionError("nonrepeated kernel requires diagonal M_i")
            return np.diagonal(M, axis1=1, axis2=2).ravel()
        return M.ravel()


class _Layout:
    """The shape-only tables of a multiplier structure, as read-only arrays.

    Built from (lc, la, p, class) alone, so one instance serves every
    structure of that shape whatever its rho; ``_layout`` is the cached
    constructor (see the module docstring).
    """

    def __init__(self, lc: int, la: int, p: int, klass: str):
        # the tap basis: within one kernel index, component j of per has
        # the unit entries (a, b)
        d = np.arange(p)
        if klass == "unstructured":
            per, j, a, b = 1, 0, d, d
        elif klass == "nonrepeated":
            per, j, a, b = p, d, d, d
        else:
            per = p * p
            j = np.arange(per)
            a, b = np.divmod(j, p)
        E = np.zeros((lc + 1 + la, per, p, p))
        E[:, j, a, b] = 1.0
        E = E.reshape(-1, p, p)
        taps = np.arange(-lc, la + 1).repeat(per)
        nvar = taps.size

        # M_Delta: the slot of each kernel index: M_i, i < 0, in column slot
        # lc + i of M_- = [M_{-lc} .. M_{-1}], M_0 in block (1, 0), and
        # M_i^T, i > 0, in slot i - 1 of M_+ = [M_1^T .. M_la^T]
        q = p * (4 + lc + la)
        # offsets of the six M_Delta blocks, sized p, p, lc p, p, p, la p
        off = list(accumulate([p, p, lc * p, p, p, la * p], initial=0))
        slot_row = np.array([off[3]] * lc + [off[1]] + [off[4]] * la)
        slot_col = np.array([off[2] + s * p for s in range(lc)] + [off[0]]
                            + [off[5] + s * p for s in range(la)])
        k, a, b = np.nonzero(E)              # the unit entries of every basis matrix
        i = taps[k]
        a, b = np.where(i > 0, b, a), np.where(i > 0, a, b)
        row = slot_row[i + lc] + a
        col = slot_col[i + lc] + b
        coeffs = np.zeros((nvar, q, q))
        coeffs[k, row, col] = 1.0
        coeffs[k, col, row] = 1.0

        # membership: sign constraints, one per basis matrix at its (first)
        # nonzero entry, then p row sums and p column sums
        r, c = np.divmod(E.reshape(nvar, -1).argmax(axis=1), p)
        sign = taps != 0
        if klass == "repeated":
            sign |= r != c
        self.taps, self.basis, self.coeffs = taps, E, coeffs
        # the stack's entries, key-major: each unit entry, 1.0
        ek, ep = coeffs.reshape(nvar, q * q).nonzero()
        self.entries = (ek, ep, np.ones(ek.size))
        self.sign_rows = np.eye(nvar)[sign]
        self.row_sums = E.sum(axis=2)
        self.col_sums = E.sum(axis=1)
        # the entries of the rows' transpose, key-major: each one's theta
        # index and row, its unweighted value, and the slot of its weight
        # among [1 (sign rows), rho^-i (row sums), rho^i (column sums)]
        pattern = np.concatenate([self.sign_rows, self.row_sums.T, self.col_sums.T]).T
        kk, rr = pattern.nonzero()
        group = (rr >= len(self.sign_rows)) + (rr >= len(self.sign_rows) + p).astype(int)
        self.row_entries = (kk, rr, pattern[kk, rr], group * nvar + kk)
        self.pos = taps + lc                 # position of each kernel index in -lc..la
        (self.psi_A, self.psi_B, self.psi_C, self.psi_D,
         self.width_B, self.width_D) = _psi_template(lc, la, p)
        for arr in (self.taps, self.basis, self.coeffs, *self.entries, *self.row_entries,
                    self.sign_rows,
                    self.row_sums, self.col_sums, self.pos, self.psi_A, self.psi_B,
                    self.psi_C, self.psi_D, self.width_B, self.width_D):
            arr.flags.writeable = False
        self.senses = ("<=",) * len(self.sign_rows) + (">=",) * (2 * p)
        self.labels = tuple(
            [f"sign[{i}]({a},{b})" for i, a, b in
             zip(taps[sign].tolist(), r[sign].tolist(), c[sign].tolist())]
            + [f"rowsum[{a}]" for a in range(p)] + [f"colsum[{b}]" for b in range(p)])


_layout = functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)(_Layout)


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


# LinearConstraint and membership_constraints are kept only for
# perfbench/gates.py, which reads each row's .coeffs, .sense and .rhs; the
# library itself works on membership_rows
@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . theta  (sense)  rhs, with sense one of '<=' or '>='."""

    coeffs: np.ndarray
    sense: str
    rhs: float = 0.0
    label: str = ""


def membership_rows(structure: ZamesFalbStructure):
    """The admissible kernel set as rows @ theta (sense) 0.

    Returns a read-only r x nvar coefficient array and, per row, its sense
    ('<=' or '>=') and label. Only the rho weights of the row- and
    column-sum rows are applied here; the rest is the shape's layout.
    """
    layout, down, up = _weights(structure)
    rows = np.concatenate([
        layout.sign_rows,
        # rho-weighted row sums: (sum_i M_i rho^{-i}) 1 >= 0  (p rows)
        (down[:, None] * layout.row_sums).T,
        # rho-weighted column sums: 1^T (sum_i M_i rho^{i}) >= 0
        (up[:, None] * layout.col_sums).T,
    ])
    rows.flags.writeable = False
    return rows, layout.senses, layout.labels


def membership_entries(structure: ZamesFalbStructure):
    """The rows of ``membership_rows`` as the entries of their transpose,
    one row per theta scalar: key index, row and value arrays, key-major,
    each value the product the rows hold. Returns them with the senses
    and labels."""
    layout, down, up = _weights(structure)
    kix, row, value, slot = layout.row_entries
    weight = np.concatenate([np.ones(down.size), down, up])[slot]
    return (kix, row, weight * value), layout.senses, layout.labels


def _weights(structure: ZamesFalbStructure):
    """The layout of a structure and the rho^-i and rho^i weight of each
    theta scalar."""
    layout = _layout(structure.ell_causal, structure.ell_anticausal, structure.p,
                     structure.klass)
    rho = structure.rho
    down = np.array([rho ** (-i) for i in structure.indices()])[layout.pos]
    up = np.array([rho ** i for i in structure.indices()])[layout.pos]
    return layout, down, up


def membership_constraints(structure: ZamesFalbStructure) -> list:
    """Linear constraints over theta defining the admissible kernel set."""
    return [LinearConstraint(e, sense, 0.0, label=label)
            for e, sense, label in zip(*membership_rows(structure))]


def verify_membership(params: ZamesFalbParameters, structure: ZamesFalbStructure) -> bool:
    """Evaluate the membership rows on concrete kernel matrices.

    Every row must hold to MEMBER_TOL (1 + max |theta|): a row's value
    is <= that slack for a '<=' row and >= minus it for a '>=' row. The
    value is the correctly rounded sum (math.fsum) of the row's rounded
    products with theta, so a row at its bound gets one verdict on every
    BLAS kernel, which a mat-vec would not.
    """
    try:
        theta = structure.theta_from_matrices(params.M)
    except DimensionError:
        return False
    rows, senses, _ = membership_rows(structure)
    v = np.array([math.fsum(r) for r in rows * theta])
    slack = MEMBER_TOL * (1.0 + np.max(np.abs(theta)))
    return bool(np.all(np.where(np.array(senses) == "<=", v <= slack, v >= -slack)))


# ---------------------------------------------------------------------------
# Factorization Pi = psi_Delta^* M_Delta psi_Delta
# ---------------------------------------------------------------------------

def m_delta_coefficients(structure: ZamesFalbStructure) -> np.ndarray:
    """dM_Delta/dtheta_k as one read-only stack of constant symmetric
    matrices, ordered like theta (the shape's layout)."""
    return _layout(structure.ell_causal, structure.ell_anticausal, structure.p,
                   structure.klass).coeffs


def m_delta_entries(structure: ZamesFalbStructure) -> tuple:
    """The entries of ``m_delta_coefficients``: read-only key index, flat
    position and value arrays, key-major, as an AffineMatrix holds them."""
    return _layout(structure.ell_causal, structure.ell_anticausal, structure.p,
                   structure.klass).entries


def m_delta_matrix(params: ZamesFalbParameters, structure: ZamesFalbStructure) -> np.ndarray:
    theta = structure.theta_from_matrices(params.M)
    coeffs = m_delta_coefficients(structure)
    # every entry has at most one nonzero term, so the product is exact;
    # 0.0 + turns a -0.0 entry into +0.0
    return 0.0 + (theta @ coeffs.reshape(theta.size, -1)).reshape(coeffs.shape[1:])


def _diagonal(n_cols: int, row: int, col: int, length: int) -> np.ndarray:
    """Flat positions of X[row + i, col + i], i < length, in an n_cols-column X."""
    start = row * n_cols + col
    return np.arange(start, start + max(length, 0) * (n_cols + 1), n_cols + 1)


def _psi_template(lc: int, la: int, p: int):
    """psi_Delta's A, B, C, D with the width left out, and its B and D positions.

    Every entry but the width is 0, 1 or -1; B and D hold 0 where the
    width goes (see ``psi_delta_realization``).
    """
    nc, na = lc * p, la * p
    nx, ny = nc + na, 4 * p + nc + na
    # output blocks (the M_Delta blocks, see _Layout), with v = w u_1 - u_2:
    # v, u_2, the causal taps of v, u_2, v, the anticausal taps of u_2
    o3, o4, o5 = 2 * p + nc, 3 * p + nc, 4 * p + nc
    A = np.zeros((nx, nx))
    np.put(A, _diagonal(nx, 0, p, nc - p), 1.0)
    np.put(A, _diagonal(nx, nc, nc + p, na - p), 1.0)
    # v = w u_1 - u_2: each w entry of B and D has a -1 p columns to its right
    width_B = _diagonal(2 * p, nc - p, 0, min(nc, p))
    width_D = np.concatenate([_diagonal(2 * p, r, 0, p) for r in (0, o4)])
    B = np.zeros((nx, 2 * p))
    np.put(B, width_B + p, -1.0)
    np.put(B, _diagonal(2 * p, nx - p, p, min(na, p)), 1.0)
    C = np.zeros((ny, nx))
    np.put(C, _diagonal(nx, 2 * p, 0, nc), 1.0)
    for a in range(la):                      # output tap a reads state la-1 - a
        np.put(C, _diagonal(nx, o5 + a * p, nc + (la - 1 - a) * p, p), 1.0)
    D = np.zeros((ny, 2 * p))
    np.put(D, width_D + p, -1.0)
    np.put(D, np.concatenate([_diagonal(2 * p, r, p, p) for r in (p, o3)]), 1.0)
    return A, B, C, D, width_B, width_D


def psi_delta_realization(structure: ZamesFalbStructure, width: float) -> StateSpace:
    """State-space realization of the multiplier filter psi_Delta.

    psi_Delta = [I 0; 0 I; psi_c (x) I 0; 0 I; I 0; 0 psi_a (x) I] @ What
    for the sector width w = L - m, with What = [[w I, -I], [0, I]],
    p(lc+la) states, 2p inputs (u_1, u_2) and p(4+lc+la) outputs.
    psi_c = [z^-lc .. z^-1]^T and psi_a = [z^-1 .. z^-la]^T are shift
    chains. Every entry is 0, 1, -1 or w: the causal chain stores the
    last lc values of v = w u_1 - u_2 and the anticausal chain the last
    la values of u_2 (What folded into B and D), and C reads the
    anticausal chain in reverse. A and C are the shape's read-only
    layout arrays; B and D are copies of its templates with w written in.
    """
    layout = _layout(structure.ell_causal, structure.ell_anticausal, structure.p,
                     structure.klass)
    B, D = layout.psi_B.copy(), layout.psi_D.copy()
    np.put(B, layout.width_B, width)
    np.put(D, layout.width_D, width)
    return StateSpace(layout.psi_A, B, layout.psi_C, D)
