"""Affine matrix expressions and the SdpProblem container.

An AffineMatrix is const + sum_k x[keys[k]] * coeffs[k]: a constant
term, the sorted indices of the scalar variables it holds, and one
K x r x c stack of their coefficient matrices. Every operation is one
numpy call on that stack: a key union and an aligned add for +/-, a
batched matmul for products with constants, views for the sub-block at a
pair of slices (``P[nd:, nd:]``, never a 0/1 selector product), and for
evaluation the one (1 x K) @ (K x rc) product that np.tensordot makes.
``place`` writes a sum of expressions at offsets into one stack over
their key union, term by term in order; ``AffineMatrix.block`` is
``place`` with non-overlapping offsets, and the synthesis builders write
each of their blocks with one call, so no intermediate sum of a block is
ever allocated.

An SdpProblem collects scalar/matrix decision variables, affine
matrix-inequality blocks, scalar linear rows and an optional linear
objective. It is solver-agnostic; see :mod:`iqcopt.sdp` for the conic
backend. Problems serialize to a JSON interchange with one dense
coefficient matrix per variable a block holds.

All scalar rows live in one r x 1 AffineMatrix that holds only the
variables some row uses, beside a per-row sign (+1 for '<=', -1 for '>=',
0 for '==') and rhs, each one float array, and a list of names, so
``verify`` checks them with one mat-vec and the native backend scatters
them in one step. The JSON interchange lists each row's nonzero
coefficients in key order; ``from_json_dict`` rebuilds the rows through
``add_linear``, so a round trip gives the same rows and the same
``verify`` results bit for bit.

A block means the symmetric part of its expression: v^T F v = v^T sym(F) v,
so F(x) <= 0 and sym(F(x)) <= 0 are the same constraint. ``add_lmi`` keeps
the coefficient stack as it was built, and its two readers, ``verify`` and
the native backend, symmetrize what they read. Coefficient matrices in the
JSON interchange can therefore be asymmetric at rounding level; only the
constant term is stored symmetrized. A block computes its scale
1 + ||const||_F once, when it is made: the default eps margin is EPS_REL
times it, and ``verify`` measures eigenvalue margins in units of it, by
the module constants EIG_MARGIN and LIN_TOL, which no caller can loosen.
``verify`` refuses a candidate with a non-finite entry before it reads a
block, since NaN compares false with every tolerance; for the same
reason a block with a non-finite scale or eps and a row with a
non-finite rhs are refused when they are made.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError

# strict LMIs are realized with this relative margin
EPS_REL = 1e-7
# ``verify``: a strict block must clear zero by EIG_MARGIN times its scale; a
# closed block and a linear row may miss by LIN_TOL times theirs
EIG_MARGIN = 1e-10
LIN_TOL = 1e-8

_NO_KEYS = np.zeros(0, dtype=np.intp)

# sizes n whose upper-triangle index pattern is kept
PATTERN_CACHE_SIZE = 32


@functools.lru_cache(maxsize=PATTERN_CACHE_SIZE)
def upper_triangle(n: int):
    """Row and column indices of an n x n upper triangle, row by row, the
    positions of its off-diagonal entries among them, and the n x n table
    of positions: entry (r, s) is the position of (min(r, s), max(r, s)).

    The order of np.triu_indices(n), the order of a symmetric variable's
    scalars, built from the n (n + 1) / 2 positions instead of an n x n mask.
    It is the index pattern of a symmetric variable's unit basis, so it is
    built once per n into read-only arrays that every caller shares.
    """
    i = np.repeat(np.arange(n), np.arange(n, 0, -1))
    # row i starts at position i n - i (i - 1) / 2 and its columns at i
    k = np.arange(i.size)
    j = k - i * (2 * n + 1 - i) // 2 + i
    off = np.flatnonzero(i != j)
    table = np.empty((n, n), dtype=np.intp)
    table[i, j] = table[j, i] = k
    for a in (i, j, off, table):
        a.flags.writeable = False
    return i, j, off, table


def _expr(shape, const, keys, coeffs) -> "AffineMatrix":
    """An expression from float arrays whose shapes the caller has made
    to fit ``shape``: the constructor without its conversions and checks,
    for the results of the algebra below."""
    e = object.__new__(AffineMatrix)
    e.shape, e.const, e.keys, e.coeffs = shape, const, keys, coeffs
    return e


class AffineMatrix:
    """Matrix-valued affine expression: const + sum_k x[keys[k]] * coeffs[k].

    keys is sorted and unique, coeffs is K x r x c. Results may share these
    arrays with their operands (views, unchanged stacks), so an expression's
    arrays are not written once it has been passed on. The constructor
    converts and checks its arguments; the results of the algebra, whose
    shapes are known, are made without either.
    """

    __slots__ = ("shape", "const", "keys", "coeffs")
    __array_priority__ = 100  # so ndarray @ AffineMatrix dispatches here

    def __init__(self, shape, const=None, keys=None, coeffs=None):
        self.shape = tuple(shape)
        self.const = np.zeros(self.shape) if const is None else np.asarray(const, dtype=float)
        if self.const.shape != self.shape:
            raise DimensionError("const shape mismatch")
        if keys is None:
            self.keys, self.coeffs = _NO_KEYS, np.zeros((0,) + self.shape)
        else:
            self.keys = np.asarray(keys, dtype=np.intp)
            self.coeffs = np.asarray(coeffs, dtype=float)
            if self.coeffs.shape != (self.keys.size,) + self.shape:
                raise DimensionError("coeffs shape mismatch")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(M) -> "AffineMatrix":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return AffineMatrix(M.shape, M.copy())

    @staticmethod
    def lift(obj) -> "AffineMatrix":
        if isinstance(obj, AffineMatrix):
            return obj
        return AffineMatrix.constant(obj)

    # -- algebra ------------------------------------------------------------
    def _combine(self, other, op) -> "AffineMatrix":
        """op(self, other) for op in (np.add, np.subtract) over the key union."""
        if other.shape != self.shape:
            raise DimensionError(f"add: {self.shape} vs {other.shape}")
        const = op(self.const, other.const)
        if not other.keys.size:
            return _expr(self.shape, const, self.keys, self.coeffs)
        if not self.keys.size:
            return _expr(self.shape, const, other.keys, op(0.0, other.coeffs))
        if np.array_equal(self.keys, other.keys):
            return _expr(self.shape, const, self.keys, op(self.coeffs, other.coeffs))
        keys = np.union1d(self.keys, other.keys)
        coeffs = np.zeros((keys.size,) + self.shape)
        coeffs[np.searchsorted(keys, self.keys)] = self.coeffs
        idx = np.searchsorted(keys, other.keys)
        coeffs[idx] = op(coeffs[idx], other.coeffs)
        return _expr(self.shape, const, keys, coeffs)

    def __add__(self, other):
        return self._combine(AffineMatrix.lift(other), np.add)

    __radd__ = __add__

    def __neg__(self):
        return _expr(self.shape, -self.const, self.keys, -self.coeffs)

    def __sub__(self, other):
        return self._combine(AffineMatrix.lift(other), np.subtract)

    def __rsub__(self, other):
        return AffineMatrix.lift(other)._combine(self, np.subtract)

    def __mul__(self, scalar):
        s = float(scalar)
        return _expr(self.shape, s * self.const, self.keys, s * self.coeffs)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Affine @ constant (right multiplication)."""
        if isinstance(other, AffineMatrix):
            if not other.keys.size:
                other = other.const
            elif not self.keys.size:
                return other.__rmatmul__(self.const)
            else:
                raise ArgumentError("product of two non-constant expressions")
        other = np.atleast_2d(np.asarray(other, dtype=float))
        return _expr((self.shape[0], other.shape[1]), self.const @ other, self.keys,
                     self.coeffs @ other)

    def __rmatmul__(self, other):
        """constant @ Affine (left multiplication)."""
        other = np.atleast_2d(np.asarray(other, dtype=float))
        return _expr((other.shape[0], self.shape[1]), other @ self.const, self.keys,
                     other @ self.coeffs)

    def __getitem__(self, index) -> "AffineMatrix":
        """The sub-block at a pair of slices, e.g. ``P[nd:, nd:]``: views of
        const and of every coefficient matrix. Any other index raises
        ArgumentError."""
        if type(index) is not tuple or [type(s) for s in index] != [slice, slice]:
            raise ArgumentError(f"index an expression by a pair of slices, not {index!r}")
        const = self.const[index]
        return _expr(const.shape, const, self.keys, self.coeffs[(slice(None),) + index])

    @property
    def T(self) -> "AffineMatrix":
        return _expr(self.shape[::-1], self.const.T, self.keys, self.coeffs.transpose(0, 2, 1))

    def trace(self) -> "AffineMatrix":
        return AffineMatrix((1, 1), [[np.trace(self.const)]], self.keys,
                            np.trace(self.coeffs, axis1=1, axis2=2)[:, None, None])

    def ravel(self) -> "AffineMatrix":
        """The entries as an (r*c) x 1 column, row by row."""
        n = self.shape[0] * self.shape[1]
        return AffineMatrix((n, 1), self.const.reshape(n, 1), self.keys,
                            self.coeffs.reshape(self.keys.size, n, 1))

    def value(self, x: np.ndarray) -> np.ndarray:
        """const + sum_k x[keys[k]] coeffs[k] by the product that
        np.tensordot(x[keys], coeffs, 1) makes, without its reshaping."""
        (r, c), K = self.shape, self.keys.size
        return self.const + np.dot(x[self.keys].reshape(1, K),
                                   self.coeffs.reshape(K, r * c)).reshape(r, c)

    @staticmethod
    def block(rows) -> "AffineMatrix":
        """Assemble a block matrix from a 2-D nested list of expressions.

        The blocks are placed at their offsets by ``place``; they do not
        overlap, so each entry holds its block's value.
        """
        rows = [[AffineMatrix.lift(b) for b in r] for r in rows]
        heights = [r[0].shape[0] for r in rows]
        widths = [b.shape[1] for b in rows[0]]
        for r in rows:
            if [b.shape[1] for b in r] != widths:
                raise DimensionError("block: inconsistent column widths")
            if len({b.shape[0] for b in r}) != 1:
                raise DimensionError("block: inconsistent row heights")
        ro = np.concatenate([[0], np.cumsum(heights)]).tolist()
        co = np.concatenate([[0], np.cumsum(widths)]).tolist()
        return place((ro[-1], co[-1]), [(ro[i], co[j], b) for i, r in enumerate(rows)
                                        for j, b in enumerate(r)])


def place(shape, terms, keys=_NO_KEYS) -> AffineMatrix:
    """The sum of expressions placed at offsets in a zero matrix of ``shape``.

    ``terms`` is a sequence of (row offset, column offset, expression); an
    expression may be a constant array. The key union is built once, one
    constant and one K x r x c stack are allocated, and each term is added
    into its slice in order, so an entry that several terms cover is their
    sum taken left to right. A term whose keys are consecutive, as every
    declared variable's are, is added through a slice of the stack, others
    through an index array. A sign is the caller's: pass the negated
    expression. ``keys`` joins the union with zero coefficients, for a
    caller that writes those keys' entries into the new stack itself.
    """
    shape = tuple(shape)
    terms = [(i, j, AffineMatrix.lift(e)) for i, j, e in terms]
    keys = np.unique(np.concatenate([keys] + [e.keys for _, _, e in terms]))
    const = np.zeros(shape)
    coeffs = np.zeros((keys.size,) + shape)
    for i, j, e in terms:
        r, c = e.shape
        if i < 0 or j < 0 or i + r > shape[0] or j + c > shape[1]:
            raise DimensionError(f"place: {e.shape} at ({i}, {j}) exceeds {shape}")
        const[i:i + r, j:j + c] += e.const
        if not e.keys.size:
            continue
        if e.keys[-1] - e.keys[0] == e.keys.size - 1:
            lo = int(np.searchsorted(keys, e.keys[0]))
            coeffs[lo:lo + e.keys.size, i:i + r, j:j + c] += e.coeffs
        else:
            coeffs[np.searchsorted(keys, e.keys), i:i + r, j:j + c] += e.coeffs
    return _expr(shape, const, keys, coeffs)


def congruence(T, X: AffineMatrix) -> AffineMatrix:
    """T^T X T for a constant outer factor T: the products (T^T X_k) T
    that ``(T.T @ X) @ T`` makes, without its intermediate expression."""
    T = np.asarray(T, dtype=float)
    c = T.shape[1]
    return _expr((c, c), (T.T @ X.const) @ T, X.keys, (T.T @ X.coeffs) @ T)


@dataclass
class VariableInfo:
    name: str
    kind: str          # 'scalar' | 'symmetric' | 'matrix'
    shape: tuple
    offset: int
    size: int


@dataclass
class LmiBlock:
    """A block sym(expr) <= -eps I ('neg') or sym(expr) >= eps I ('pos').

    ``scale`` is 1 + ||const||_F, computed once here; eps defaults to
    EPS_REL times it, and ``verify`` measures margins in units of it. A
    non-finite scale or eps raises DomainError, since a NaN margin fails
    no comparison and would let ``verify`` pass any candidate.
    """

    name: str
    expr: AffineMatrix
    sense: str
    eps: float = None
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.scale = 1.0 + float(np.linalg.norm(self.expr.const, "fro"))
        self.eps = EPS_REL * self.scale if self.eps is None else float(self.eps)
        if not (math.isfinite(self.scale) and math.isfinite(self.eps)):
            raise DomainError(f"block {self.name!r}: non-finite constant or eps")


# the sign s of a row s (expr - rhs) <= 0, with 0 for an equality row
_SIGN = {"<=": 1.0, ">=": -1.0, "==": 0.0}
_SENSE = {s: sense for sense, s in _SIGN.items()}


@dataclass
class LinearRows:
    """Scalar rows expr[i, 0] (sense i) rhs[i], the sense kept as its sign.

    expr is one r x 1 expression with a zero constant that holds only
    the variables some row uses; sign and rhs are float arrays of length r,
    so ``verify`` and the native backend read them without a conversion.
    """

    expr: AffineMatrix
    sign: np.ndarray
    rhs: np.ndarray
    name: list

    def __len__(self) -> int:
        return self.expr.shape[0]


class SdpProblem:
    """Block-LMI feasibility/minimization problem over scalar variables."""

    def __init__(self, name: str = ""):
        self.name = name
        self.variables: list[VariableInfo] = []
        self._by_name: dict[str, VariableInfo] = {}
        self.nvars = 0
        self.blocks: list[LmiBlock] = []
        self.linear = LinearRows(AffineMatrix((0, 1)), np.zeros(0), np.zeros(0), [])
        self.objective: AffineMatrix | None = None  # 1x1, minimized

    # -- variables ----------------------------------------------------------
    def declare(self, name: str, kind: str, shape) -> VariableInfo:
        """Register a variable without building its expression.

        kind is 'scalar', 'symmetric' (the upper triangle is stored) or
        'matrix' (all entries, row-major).
        """
        if name in self._by_name:
            raise ArgumentError(f"duplicate variable name {name!r}")
        r, c = shape
        size = {"scalar": 1, "symmetric": r * (r + 1) // 2, "matrix": r * c}[kind]
        info = VariableInfo(name, kind, (r, c), self.nvars, size)
        self.variables.append(info)
        self._by_name[name] = info
        self.nvars += size
        return info

    def add_scalar(self, name: str) -> AffineMatrix:
        self.declare(name, "scalar", (1, 1))
        return self.variable_expr(name)

    def add_symmetric(self, name: str, n: int) -> AffineMatrix:
        self.declare(name, "symmetric", (n, n))
        return self.variable_expr(name)

    def add_matrix(self, name: str, rows: int, cols: int) -> AffineMatrix:
        self.declare(name, "matrix", (rows, cols))
        return self.variable_expr(name)

    def variable_expr(self, name: str) -> AffineMatrix:
        """Re-create the canonical expression of a declared variable.

        Its stack holds one unit basis matrix per scalar, in row-major
        order over the entries (the upper triangle for symmetric ones).
        """
        info = self._by_name[name]
        r, c = info.shape
        k = np.arange(info.size)
        i, j = upper_triangle(r)[:2] if info.kind == "symmetric" else np.divmod(k, c)
        basis = np.zeros((info.size, r, c))
        basis[k, i, j] = 1.0
        if info.kind == "symmetric":
            basis[k, j, i] = 1.0
        return AffineMatrix(info.shape, keys=info.offset + k, coeffs=basis)

    def extract(self, name: str, x: np.ndarray):
        """Variable value (scalar or ndarray) from a flat solution vector."""
        info = self._by_name[name]
        if info.kind == "scalar":
            return float(x[info.offset])
        v = np.array(x[info.offset:info.offset + info.size], dtype=float)
        if info.kind == "matrix":
            return v.reshape(info.shape)
        M = np.empty(info.shape)
        i, j = upper_triangle(info.shape[0])[:2]
        M[i, j] = v
        M[j, i] = v
        return M

    # -- constraints --------------------------------------------------------
    def add_lmi(self, expr: AffineMatrix, sense: str = "neg", eps: float = None,
                name: str = "") -> LmiBlock:
        """Add sym(expr) <= -eps I ('neg') or sym(expr) >= eps I ('pos').

        The coefficient stack is stored as built, not symmetrized: the
        block means its symmetric part, which ``verify`` and the solver
        form themselves. The constant term is stored symmetrized, and the
        default eps is EPS_REL times the block's scale 1 + ||const||_F.
        """
        if expr.shape[0] != expr.shape[1]:
            raise DimensionError("LMI block must be square")
        if sense not in ("neg", "pos"):
            raise ArgumentError("sense must be 'neg' or 'pos'")
        const = 0.5 * (expr.const + expr.const.T)
        block = LmiBlock(name or f"lmi{len(self.blocks)}",
                         AffineMatrix(expr.shape, const, expr.keys, expr.coeffs),
                         sense, eps)
        self.blocks.append(block)
        return block

    def add_linear(self, expr: AffineMatrix, sense, rhs=0.0, name="") -> None:
        """Scalar rows expr[i, 0] (sense) rhs for an r x 1 expression.

        sense, rhs and name are each one value for every row or a sequence
        of one value per row. The rows are appended in order to the one
        column of ``self.linear``, with the constant moved to the rhs; a
        non-finite rhs raises DomainError, since a NaN row passes every
        ``verify``.
        """
        r = expr.shape[0]
        if expr.shape[1] != 1:
            raise DimensionError("expected an r x 1 expression")
        senses = [sense] * r if isinstance(sense, str) else list(sense)
        names = [name] * r if isinstance(name, str) else list(name)
        if len(senses) != r or len(names) != r:
            raise DimensionError(f"expected {r} senses and names")
        if not set(senses) <= _SIGN.keys():
            raise ArgumentError("sense must be one of <=, >=, ==")
        rhs = np.asarray(rhs, dtype=float) - expr.const[:, 0]
        if not np.isfinite(rhs).all():
            raise DomainError("linear rows: non-finite rhs or constant")
        old, n = self.linear, len(self.linear)
        used = expr.coeffs.any(axis=(1, 2))
        keys, coeffs = expr.keys[used], expr.coeffs[used]
        if n:
            new_keys, new = keys, coeffs
            keys = np.union1d(old.expr.keys, new_keys)
            coeffs = np.zeros((keys.size, n + r, 1))
            coeffs[np.searchsorted(keys, old.expr.keys), :n] = old.expr.coeffs
            coeffs[np.searchsorted(keys, new_keys), n:] = new
        self.linear = LinearRows(
            AffineMatrix((n + r, 1), keys=keys, coeffs=coeffs),
            np.concatenate([old.sign, [_SIGN[s] for s in senses]]),
            np.concatenate([old.rhs, rhs]),
            old.name + names)

    def add_matrix_equality(self, expr: AffineMatrix, name: str = "") -> None:
        """Entrywise expr == 0 as scalar equalities, row by row."""
        r, c = expr.shape
        self.add_linear(expr.ravel(), "==", 0.0,
                        [f"{name}[{i},{j}]" for i in range(r) for j in range(c)])

    def minimize(self, expr: AffineMatrix) -> None:
        if expr.shape != (1, 1):
            raise DimensionError("objective must be 1x1")
        self.objective = expr

    # -- verification -------------------------------------------------------
    def verify(self, x: np.ndarray):
        """Strict numerical recheck of a candidate solution.

        Strict blocks (eps > 0) must hold with the correct sign: the
        extremal eigenvalue must clear zero by EIG_MARGIN times the block's
        stored scale 1 + ||const||_F. Blocks posed with eps = 0 are closed
        inequalities and get a slack of LIN_TOL times that scale instead,
        since objective problems routinely drive them onto the boundary.
        Linear rows are allowed LIN_TOL slack. Both are module constants,
        so no caller can loosen the check. Returns (ok, worst
        violation); a candidate with a non-finite entry returns
        (False, inf).
        """
        xmax = float(np.max(np.abs(x))) if x.size else 0.0
        if not np.isfinite(xmax):
            return False, np.inf
        ok = True
        worst = -np.inf
        for blk in self.blocks:
            V = blk.expr.value(x)
            V = 0.5 * (V + V.T)
            eigs = np.linalg.eigvalsh(V)
            slack = EIG_MARGIN * blk.scale if blk.eps > 0 else -LIN_TOL * blk.scale
            if blk.sense == "neg":
                viol = float(eigs[-1]) + slack
            else:
                viol = -(float(eigs[0]) - slack)
            worst = max(worst, viol)
            if viol > 0:
                ok = False
        rows = self.linear
        if len(rows):
            sign, rhs = rows.sign, rows.rhs
            d = x[rows.expr.keys] @ rows.expr.coeffs[:, :, 0] - rhs
            viol = np.where(sign, sign * d, np.abs(d))
            tol = LIN_TOL * (1.0 + np.abs(rhs) + xmax if x.size else 1.0)
            ok = ok and not np.any(viol > tol)
            worst = max(worst, float(np.max(viol - tol)))
        return ok, worst

    # -- JSON interchange ---------------------------------------------------
    def to_json_dict(self) -> dict:
        def coeffs_list(expr):
            return [{"var": int(k), "matrix": v.tolist()}
                    for k, v in zip(expr.keys, expr.coeffs)]

        rows = self.linear
        C = rows.expr.coeffs[:, :, 0].T
        r, c = np.nonzero(C)   # row by row, keys ascending within a row
        coeffs = [[] for _ in range(len(rows))]
        for i, k, v in zip(r.tolist(), rows.expr.keys[c].tolist(), C[r, c].tolist()):
            coeffs[i].append([k, v])
        return {
            "name": self.name,
            "variables": [
                {"name": v.name, "kind": v.kind, "shape": list(v.shape),
                 "offset": v.offset, "size": v.size}
                for v in self.variables
            ],
            "blocks": [
                {"name": b.name, "sense": b.sense, "eps": b.eps,
                 "const": b.expr.const.tolist(), "coeffs": coeffs_list(b.expr)}
                for b in self.blocks
            ],
            "linear": [
                {"name": n, "sense": _SENSE[s], "rhs": r, "coeffs": c}
                for n, s, r, c in zip(rows.name, rows.sign.tolist(), rows.rhs.tolist(), coeffs)
            ],
            "objective": None if self.objective is None else {
                "const": self.objective.const.tolist(),
                "coeffs": coeffs_list(self.objective),
            },
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SdpProblem":
        prob = SdpProblem(d.get("name", ""))
        for v in d["variables"]:
            prob.declare(v["name"], v["kind"], tuple(v["shape"]))

        def expr_from(const, coeffs):
            const = np.asarray(const, dtype=float)
            coeffs = sorted(coeffs, key=lambda c: int(c["var"]))
            stack = np.reshape(np.asarray([c["matrix"] for c in coeffs], dtype=float),
                               (len(coeffs),) + const.shape)
            return AffineMatrix(const.shape, const, [int(c["var"]) for c in coeffs], stack)

        for b in d["blocks"]:
            expr = expr_from(b["const"], b["coeffs"])
            prob.blocks.append(LmiBlock(b["name"], expr, b["sense"], float(b["eps"])))
        rows = d["linear"]
        C = np.zeros((prob.nvars, len(rows), 1))
        for i, r in enumerate(rows):
            for k, v in r["coeffs"]:
                C[int(k), i, 0] = v
        prob.add_linear(AffineMatrix((len(rows), 1), keys=np.arange(prob.nvars), coeffs=C),
                        [r["sense"] for r in rows], [r["rhs"] for r in rows],
                        [r.get("name", "") for r in rows])
        if d.get("objective"):
            o = d["objective"]
            prob.objective = expr_from(o["const"], o["coeffs"])
        return prob
