"""Discrete-time state-space realizations and their frequency response.

Everything here operates on plain dense numpy arrays; systems are small
(tens of states), so no sparsity or balancing is attempted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularityError

# zI - A counts as singular to working precision, and z as a pole, when
# its reciprocal 1-norm condition number is below this many times n
POLE_RCOND = 10.0 * np.finfo(float).eps
_LAPACK = {}


@dataclass(frozen=True)
class StateSpace:
    """Realization (A, B, C, D) of G(z) = C (zI - A)^{-1} B + D.

    nx = 0 denotes a static gain. Instances are immutable and safe to
    share across threads.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        nx = A.shape[0]
        ny, nu = D.shape
        B = np.asarray(self.B, dtype=float).reshape(nx, nu)
        C = np.asarray(self.C, dtype=float).reshape(ny, nx)
        if A.shape != (nx, nx):
            raise DimensionError(f"A must be square, got {A.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def nx(self) -> int:
        return self.A.shape[0]

    @property
    def nu(self) -> int:
        return self.D.shape[1]

    @property
    def ny(self) -> int:
        return self.D.shape[0]


def _lu_routines(M):
    """(getrf, getrs, gecon) for the dtype of M, looked up once."""
    key = M.dtype.char
    if key not in _LAPACK:
        from scipy.linalg import get_lapack_funcs

        _LAPACK[key] = get_lapack_funcs(("getrf", "getrs", "gecon"), (M,))
    return _LAPACK[key]


def eval_frequency(sys: StateSpace, z) -> np.ndarray:
    """Evaluate C (zI - A)^{-1} B + D at a complex point or an array of points.

    A scalar z gives the ny x nu value and a 1-D array of k points the
    k x ny x nu stack of values, in the order of z; a scalar runs as a
    one-point array. The zI - A stack is built once and the outputs are one
    stacked product C X + D; only the LU factorization, the condition
    estimate and the solve run per point.

    Raises SingularityError when a point is a pole to working precision:
    the LU factorization of zI - A has a zero pivot, or its reciprocal
    condition number (LAPACK's 1-norm estimate) is below POLE_RCOND * nx,
    so that the solve would return no correct digits. Points close to a
    pole but clear of that bound are evaluated: a large answer is the
    correct value of an ill-conditioned but nonsingular resolvent.
    """
    z = np.asarray(z, dtype=complex)
    points = z.reshape(-1)
    nx = sys.nx
    M = np.multiply.outer(points, np.eye(nx))
    M -= sys.A
    X = np.empty((points.size, nx, sys.nu), dtype=complex)
    if nx:
        getrf, getrs, gecon = _lu_routines(M)
        anorms = np.abs(M).sum(axis=1).max(axis=1)
        for Mk, zk, anorm, Xk in zip(M, points, anorms, X):
            lu, piv, info = getrf(Mk)
            rcond = gecon(lu, anorm)[0] if info == 0 else 0.0
            if not rcond >= POLE_RCOND * nx:      # also catches NaN
                raise SingularityError(f"z={zk} is numerically a pole "
                                       f"(reciprocal condition number {rcond:.2e})")
            Xk[...] = getrs(lu, piv, sys.B)[0]
    return (sys.C @ X + sys.D).reshape(z.shape + sys.D.shape)
