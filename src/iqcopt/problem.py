"""Affine matrix expressions and the SdpProblem container.

An AffineMatrix is const + sum_k x[keys[k]] F_k: a constant term, the
sorted indices of the scalar variables it holds, and the entries of its
coefficient matrices F_k. Only entries are stored: each one's key index
k, its flat position e = row * c + column in the r x c matrix, and its
value F_k[e], key-major (sorted by k, then by e) with one value per
(k, e). Every other entry of every F_k is +0.0. An entry may hold -0.0,
so a signed zero in a coefficient survives the algebra. ``dense()`` gives
the K x r x c stack, which the JSON interchange, the native backend's
reader and the tests read; no builder forms it.

Evaluation is one scatter without BLAS: ``value(x)`` is
const + (0 + sum_k x_k F_k[e], summed in key order), each product
x_k F_k[e] rounded and added into its position in key order by one
np.bincount, so it holds the same bits on any BLAS kernel.

The algebra keeps the numbers the dense stack held. A sum or difference
takes the key union and adds the entries two operands share; a product
with a constant matrix forms the dense matrices of the keys that hold an
entry and multiplies them as a batched matmul did, so the result holds
that product's bits; a pair of slices (``P[nd:, nd:]``, never a 0/1
selector product) keeps the entries inside it. ``place`` writes a sum of
expressions at offsets over their key union: the entries of every term
are listed in order and summed from 0.0 position by position, so an
entry that several terms cover is their sum taken left to right.
``AffineMatrix.block`` is ``place`` with non-overlapping offsets. The
dense stack's unary minus and products with a negative scalar wrote -0.0
where no entry lies; ``dense()`` reads +0.0 there, and no value reads the
difference. A congruence T^T X T is no product of stacks: ``congruence``
lists the rounded product (T[a, c] v) T[b, d] of each entry (k, a, b, v)
of X with each pair of nonzeros of T's rows a and b at (k, c, d) and sums
each entry from 0.0 in that order, without BLAS, so it holds the same
bits on any kernel. Where each column of T meets one nonzero of a key's
rows, as on every multiplier row the library builds, an entry is one
product, which the batched BLAS product rounds alike.

An SdpProblem collects scalar/matrix decision variables, affine
matrix-inequality blocks, scalar linear rows and an optional linear
objective. It is solver-agnostic; see :mod:`iqcopt.sdp` for the conic
backend. Problems serialize to a JSON interchange with one dense
coefficient matrix per variable a block holds.

All scalar rows live in one row-major table: per nonzero coefficient
its row, its variable index and its value, row by row and, within a row,
by ascending variable, beside a per-row sign (+1 for '<=', -1 for '>=',
0 for '==') and rhs, each one float array, and a list of names.
``add_linear`` appends the new rows to the table, so ``verify`` evaluates
the rows with one np.bincount, the native backend fills its row matrix
in one step and the JSON interchange lists the rows in table order;
``from_json_dict`` rebuilds the rows through ``add_linear``, so a round
trip gives the same table and the same ``verify`` results bit for bit.

A block means the symmetric part of its expression: v^T F v = v^T sym(F) v,
so F(x) <= 0 and sym(F(x)) <= 0 are the same constraint. ``add_lmi`` keeps
the entries as they were built, and its two readers, ``verify`` and
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
_NO_VALUES = np.zeros(0)

# sizes n whose upper-triangle index pattern is kept
PATTERN_CACHE_SIZE = 32


@functools.lru_cache(maxsize=PATTERN_CACHE_SIZE)
def upper_triangle(n: int):
    """Row and column indices of an n x n upper triangle, row by row, and
    the entries of the unit basis E_ij + E_ji (E_ii on the diagonal): each
    entry's basis row, row and column, key-major, (i, j) before (j, i).

    The order of np.triu_indices(n), the order of a symmetric variable's
    scalars, built from the n (n + 1) / 2 positions instead of an n x n mask.
    It is the index pattern of a symmetric variable's unit basis, so it is
    built once per n into read-only arrays that every caller shares.
    """
    i = np.repeat(np.arange(n), np.arange(n, 0, -1))
    # row i starts at position i n - i (i - 1) / 2 and its columns at i
    k = np.arange(i.size)
    j = k - i * (2 * n + 1 - i) // 2 + i
    two = np.ones((i.size, 2), dtype=bool)
    two[:, 1] = i != j
    bk = np.repeat(k, 2)[two.ravel()]
    br = np.stack([i, j], axis=1)[two]
    bc = np.stack([j, i], axis=1)[two]
    for a in (i, j, bk, br, bc):
        a.flags.writeable = False
    return i, j, bk, br, bc


def from_entries(shape, const, keys, kix, pos, val) -> "AffineMatrix":
    """An expression from arrays that the caller has made to fit
    ``shape`` and the entry layout: the constructor without its
    conversions and checks, for entries key-major by construction (the
    algebra below, the builders in :mod:`iqcopt.lmi`)."""
    e = object.__new__(AffineMatrix)
    e.shape, e.const, e.keys, e.kix, e.pos, e.val = shape, const, keys, kix, pos, val
    return e


def code_plan(code):
    """What ``sum_codes`` derives from the codes alone: the stable order
    that sorts them, the index of each listed value's code among the
    sorted unique codes, in that order, and the sorted unique codes.
    Values listed at the same codes are summed by the same plan."""
    order = code.argsort(kind="stable")
    code = code[order]
    first = np.empty(code.size, dtype=bool)
    first[:1] = True
    np.not_equal(code[1:], code[:-1], out=first[1:])
    unique = code[first]
    first[:1] = False
    return order, np.add.accumulate(first, dtype=np.intp), unique


def sum_codes(code, val):
    """Sorted unique codes and, for each, 0.0 + the values listed for it,
    added in the order they are listed: np.add.at into a zero array, for
    the codes that occur. An entry's code is k r c + e for key index k and
    position e in an r x c matrix, so sorted codes are key-major entries."""
    order, segment, unique = code_plan(code)
    return unique, np.bincount(segment, val[order])


def _entries(stack):
    """Key index, position and value of every entry of a K x r x c stack
    that is not +0.0 (so -0.0 is kept), key-major."""
    K, r, c = stack.shape
    flat = np.ascontiguousarray(stack, dtype=float).ravel()
    at = flat.view(np.int64).nonzero()[0]
    kix = at // (r * c)
    return kix, at - kix * (r * c), flat[at]


class AffineMatrix:
    """Matrix-valued affine expression: const + sum_k x[keys[k]] F_k.

    keys is sorted and unique; the entries of the F_k are stored as the
    arrays kix (key index), pos (flat position) and val, key-major with
    one value per (kix, pos). Results may share these arrays with their
    operands, so an expression's arrays are not written once it has been
    passed on. The constructor takes the entries as a triple
    ``(kix, pos, val)`` and checks them; ``from_dense`` takes a stack.
    """

    __slots__ = ("shape", "const", "keys", "kix", "pos", "val")
    __array_priority__ = 100  # so ndarray @ AffineMatrix dispatches here

    def __init__(self, shape, const=None, keys=None, entries=None):
        self.shape = tuple(shape)
        self.const = np.zeros(self.shape) if const is None else np.asarray(const, dtype=float)
        if self.const.shape != self.shape:
            raise DimensionError("const shape mismatch")
        self.keys = _NO_KEYS if keys is None else np.asarray(keys, dtype=np.intp)
        if entries is None:
            self.kix, self.pos, self.val = _NO_KEYS, _NO_KEYS, _NO_VALUES
            return
        kix, pos, val = entries
        self.kix, self.pos = np.asarray(kix, dtype=np.intp), np.asarray(pos, dtype=np.intp)
        self.val = np.asarray(val, dtype=float)
        rc = self.shape[0] * self.shape[1]
        code = self.kix * rc + self.pos
        if not (self.kix.shape == self.pos.shape == self.val.shape == code.shape[:1]
                and (not code.size or (self.kix[0] >= 0 and self.kix[-1] < self.keys.size
                                       and (self.pos >= 0).all() and (self.pos < rc).all()))
                and (code[1:] > code[:-1]).all()):
            raise DimensionError("entries must be key-major and unique, within keys and shape")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(M) -> "AffineMatrix":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return AffineMatrix(M.shape, M.copy())

    @staticmethod
    def from_dense(keys, stack, const=None) -> "AffineMatrix":
        """The expression whose coefficient stack is the K x r x c ``stack``
        on ``keys``: its entries that are not +0.0."""
        stack, keys = np.asarray(stack, dtype=float), np.asarray(keys, dtype=np.intp)
        if stack.ndim != 3 or keys.shape != stack.shape[:1]:
            raise DimensionError("expected a K x r x c stack on K keys")
        shape = stack.shape[1:]
        const = np.zeros(shape) if const is None else np.asarray(const, dtype=float)
        if const.shape != shape:
            raise DimensionError("const shape mismatch")
        return from_entries(shape, const, keys, *_entries(stack))

    @staticmethod
    def lift(obj) -> "AffineMatrix":
        if isinstance(obj, AffineMatrix):
            return obj
        return AffineMatrix.constant(obj)

    def dense(self) -> np.ndarray:
        """The K x r x c coefficient stack: F_k for every key k, +0.0 where no
        entry lies."""
        (r, c), K = self.shape, self.keys.size
        out = np.zeros((K, r * c))
        out[self.kix, self.pos] = self.val
        return out.reshape(K, r, c)

    def _product(self, shape, const, f) -> "AffineMatrix":
        """The expression f(F_k) for every key: f applied to the stacked
        dense matrices of the keys that hold an entry, as it was to the
        whole stack, and its entries that are not +0.0; a key whose F_k is
        zero maps to zero."""
        (r, c), kix = self.shape, self.kix
        if not kix.size:
            return from_entries(shape, const, self.keys, _NO_KEYS, _NO_KEYS, _NO_VALUES)
        count = np.bincount(kix, minlength=self.keys.size)
        held = count.nonzero()[0]
        if held.size < count.size:      # index the held keys' matrices from 0
            kix = np.arange(held.size).repeat(count[held])
        stack = np.zeros((held.size, r * c))
        stack[kix, self.pos] = self.val
        lk, pos, val = _entries(f(stack.reshape(held.size, r, c)))
        return from_entries(shape, const, self.keys, held[lk], pos, val)

    # -- algebra ------------------------------------------------------------
    def _combine(self, other, op) -> "AffineMatrix":
        """op(self, other) for op in (np.add, np.subtract) over the key union:
        op(a, b) where both hold an entry, op(0.0, b) where only ``other``
        does, and ``self``'s entry a as it is elsewhere, except that a key
        both hold adds 0.0 to it, as the dense stack's op did."""
        if other.shape != self.shape:
            raise DimensionError(f"add: {self.shape} vs {other.shape}")
        const = op(self.const, other.const)
        if not other.keys.size:
            return from_entries(self.shape, const, self.keys, self.kix, self.pos, self.val)
        if not self.keys.size:
            return from_entries(self.shape, const, other.keys, other.kix, other.pos,
                                op(0.0, other.val))
        if self.keys[-1] < other.keys[0]:       # no key in common: side by side
            return from_entries(self.shape, const, np.concatenate([self.keys, other.keys]),
                                np.concatenate([self.kix, other.kix + self.keys.size]),
                                np.concatenate([self.pos, other.pos]),
                                np.concatenate([self.val, op(0.0, other.val)]))
        rc = self.shape[0] * self.shape[1]
        keys = np.union1d(self.keys, other.keys)
        ka = np.searchsorted(keys, self.keys)[self.kix] * rc + self.pos
        kb = np.searchsorted(keys, other.keys)[other.kix] * rc + other.pos
        code = np.union1d(ka, kb)
        ia, ib = np.searchsorted(code, ka), np.searchsorted(code, kb)
        val = np.zeros(code.size)
        val[ia] = self.val
        if op is np.add and not self.val.all():
            # a zero of self's alone at a key other holds became a + 0.0
            alone = np.ones(code.size, dtype=bool)
            alone[ib] = False
            shared = np.isin(self.keys, other.keys)[self.kix] & alone[ia]
            val[ia[shared]] += 0.0
        val[ib] = op(val[ib], other.val)
        return from_codes(self.shape, const, keys, code, val)

    def __add__(self, other):
        return self._combine(AffineMatrix.lift(other), np.add)

    __radd__ = __add__

    def __neg__(self):
        return from_entries(self.shape, -self.const, self.keys, self.kix, self.pos, -self.val)

    def __sub__(self, other):
        return self._combine(AffineMatrix.lift(other), np.subtract)

    def __rsub__(self, other):
        return AffineMatrix.lift(other)._combine(self, np.subtract)

    def __mul__(self, scalar):
        s = float(scalar)
        return from_entries(self.shape, s * self.const, self.keys, self.kix, self.pos,
                            s * self.val)

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
        return self._product((self.shape[0], other.shape[1]), self.const @ other,
                             lambda F: F @ other)

    def __rmatmul__(self, other):
        """constant @ Affine (left multiplication)."""
        other = np.atleast_2d(np.asarray(other, dtype=float))
        return self._product((other.shape[0], self.shape[1]), other @ self.const,
                             lambda F: other @ F)

    def __getitem__(self, index) -> "AffineMatrix":
        """The sub-block at a pair of slices, e.g. ``P[nd:, nd:]``: a view of
        const and the entries inside the block, each at its position there.
        Any other index raises ArgumentError."""
        if type(index) is not tuple or [type(s) for s in index] != [slice, slice]:
            raise ArgumentError(f"index an expression by a pair of slices, not {index!r}")
        const = self.const[index]
        (r, c), (h, w) = self.shape, const.shape
        row, col = np.divmod(self.pos, c)
        new_row, new_col = np.full(r, -1), np.full(c, -1)
        new_row[index[0]], new_col[index[1]] = np.arange(h), np.arange(w)
        row, col = new_row[row], new_col[col]
        inside = (row >= 0) & (col >= 0)
        kix, pos, val = self.kix[inside], row[inside] * w + col[inside], self.val[inside]
        if any((s.step or 1) < 0 for s in index):     # a reversed block: sort its entries
            order = (kix * (h * w) + pos).argsort()
            kix, pos, val = kix[order], pos[order], val[order]
        return from_entries(const.shape, const, self.keys, kix, pos, val)

    @property
    def T(self) -> "AffineMatrix":
        r, c = self.shape
        row, col = np.divmod(self.pos, c)
        pos = col * r + row
        order = (self.kix * (r * c) + pos).argsort()
        return from_entries((c, r), self.const.T, self.keys, self.kix, pos[order], self.val[order])

    def trace(self) -> "AffineMatrix":
        """The 1 x 1 trace: each key's diagonal summed by the reduction that
        np.trace makes, over the keys whose diagonal holds an entry."""
        r, c = self.shape
        row, col = np.divmod(self.pos, c)
        on = row == col
        diag = np.zeros((self.keys.size, min(r, c)))
        diag[self.kix[on], row[on]] = self.val[on]
        held = np.bincount(self.kix[on], minlength=self.keys.size).nonzero()[0]
        return from_entries((1, 1), np.array([[np.trace(self.const)]]), self.keys, held,
                            np.zeros(held.size, dtype=np.intp), diag.sum(axis=1)[held])

    def ravel(self) -> "AffineMatrix":
        """The entries as an (r*c) x 1 column, row by row."""
        n = self.shape[0] * self.shape[1]
        return from_entries((n, 1), self.const.reshape(n, 1), self.keys, self.kix, self.pos,
                            self.val)

    def value(self, x: np.ndarray) -> np.ndarray:
        """const + (0 + sum_k x[keys[k]] F_k, summed in key order).

        Each product x_k F_k[e] is rounded and added into its position in
        the order of the keys by one np.bincount, so the value is the same
        on any BLAS kernel. For finite x an entry that is not stored adds
        a zero, which changes no sum that starts at +0.0.
        """
        r, c = self.shape
        acc = np.bincount(self.pos, x[self.keys][self.kix] * self.val, r * c)
        return self.const + acc.reshape(r, c)

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


def placed_codes(keys, shape, i, j, e: AffineMatrix):
    """The codes of ``e``'s entries placed with their top-left corner at
    (i, j) in ``shape``, key indices into ``keys`` (which hold e.keys);
    key-major, as e's entries are."""
    c, C = e.shape[1], shape[1]
    pos = e.pos + e.pos // c * (C - c) + (i * C + j)
    return np.searchsorted(keys, e.keys)[e.kix] * (shape[0] * C) + pos


def from_codes(shape, const, keys, code, val) -> AffineMatrix:
    """The expression whose entries are the sorted unique ``code`` and
    their values."""
    rc = shape[0] * shape[1]
    kix = code // rc
    return from_entries(shape, const, keys, kix, code - kix * rc, val)


def place(shape, terms, keys=_NO_KEYS) -> AffineMatrix:
    """The sum of expressions placed at offsets in a zero matrix of ``shape``.

    ``terms`` is a sequence of (row offset, column offset, expression); an
    expression may be a constant array. The key union is built once, the
    constants are added into one zero matrix, and the entries of every
    term are listed in order and summed from 0.0 position by position
    (``sum_codes``), so an entry that several terms cover is their sum
    taken left to right. A sign is the caller's: pass the negated
    expression. ``keys`` joins the union with no entries, for a caller that
    adds those keys' entries itself.
    """
    shape = tuple(shape)
    terms = [(i, j, AffineMatrix.lift(e)) for i, j, e in terms]
    keys = np.unique(np.concatenate([keys] + [e.keys for _, _, e in terms]))
    const = np.zeros(shape)
    codes, vals = [_NO_KEYS], [_NO_VALUES]
    for i, j, e in terms:
        r, c = e.shape
        if i < 0 or j < 0 or i + r > shape[0] or j + c > shape[1]:
            raise DimensionError(f"place: {e.shape} at ({i}, {j}) exceeds {shape}")
        const[i:i + r, j:j + c] += e.const
        if e.val.size:
            codes.append(placed_codes(keys, shape, i, j, e))
            vals.append(e.val)
    code, val = sum_codes(np.concatenate(codes), np.concatenate(vals))
    return from_codes(shape, const, keys, code, val)


class CongruencePlan:
    """What T^T X T takes from the nonzero pattern of an R x m T and the
    layout of the R x R X's entries (key index, flat position) alone:
    ``congruence``'s listing and the entries it sums into.

    T's nonzeros are taken row by row, so each row's form one run. Each
    entry (k, a, b) of X, in X's order, meets each nonzero T[a, c] of row
    a's run in a half product T[a, c] v, and each half product meets each
    nonzero T[b, d] of row b's run, one product (T[a, c] v) T[b, d] at
    (k, c, d) each. Per half product ``left`` gives T[a, c] (a flat
    position in T) and ``entry`` v (an index into X's values). The
    products are held sorted stably by their entries, key-major, so each
    entry's products keep the listing order: per product ``half`` gives
    its half product, ``right`` T[b, d] and ``segment`` its entry among
    ``kix`` and ``pos``. The arrays are read-only.
    """

    __slots__ = ("left", "entry", "half", "right", "segment", "kix", "pos")

    def __init__(self, T: np.ndarray, kix: np.ndarray, pos: np.ndarray):
        R, m = T.shape
        a, c = T.nonzero()
        width = np.bincount(a, minlength=R)
        end = width.cumsum()
        row, col = np.divmod(pos, R)
        w = width.take(row)     # each entry, once per nonzero of its row a ..
        e = np.arange(row.size).repeat(w)
        p = np.arange(e.size) - (w.cumsum() - end.take(row)).repeat(w)
        b = col.take(e)
        w = width.take(b)       # .. and each of those once per nonzero of row b
        q = np.arange(w.sum()) - (w.cumsum() - end.take(b)).repeat(w)
        order, self.segment, code = code_plan(
            ((kix.take(e) * m + c.take(p)) * m).repeat(w) + c.take(q))
        flat = a * m + c
        self.left, self.entry = flat.take(p), e
        self.half, self.right = np.arange(e.size).repeat(w).take(order), flat.take(q.take(order))
        self.kix, self.pos = np.divmod(code, m * m)
        for name in self.__slots__:
            getattr(self, name).flags.writeable = False

    def entries(self, T: np.ndarray, val: np.ndarray):
        """The entries of T^T X T for X's values ``val``: each product
        rounded, added into its entry from 0.0 in listing order by one
        np.bincount, and the sums that read +0.0 dropped."""
        t = T.ravel()
        v = t.take(self.left)
        v *= val.take(self.entry)
        v = v.take(self.half)
        v *= t.take(self.right)
        v = np.bincount(self.segment, v, self.kix.size)
        keep = v != 0.0
        return (self.kix, self.pos, v) if keep.all() else (self.kix[keep], self.pos[keep], v[keep])


def congruence(T, X: AffineMatrix, plan: CongruencePlan = None) -> AffineMatrix:
    """T^T X T for a constant outer factor T, written entry by entry.

    For each entry (k, a, b, v) of X, key-major, and each pair of
    nonzeros T[a, c] and T[b, d], the product (T[a, c] v) T[b, d] is listed
    at (k, c, d); each entry is the sum of its products from 0.0, in
    listing order, and a sum that reads +0.0 is no entry. No BLAS product
    is involved, so the entries hold the same bits on any kernel. Where
    each column of T meets one nonzero of a key's rows, every entry is one
    product and equals the BLAS product (T^T F_k) T on any kernel; where
    a column meets several, a BLAS product groups the terms otherwise.
    ``plan`` is the ``CongruencePlan`` of T's pattern and X's layout,
    derived here when not given. The constant is (T^T const) T, by BLAS.
    """
    T = np.asarray(T, dtype=float)
    const = (T.T @ X.const) @ T if X.const.any() else np.zeros((T.shape[1],) * 2)
    plan = plan or CongruencePlan(T, X.kix, X.pos)
    return from_entries(const.shape, const, X.keys, *plan.entries(T, X.val))


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
    no comparison and would let ``verify`` pass any candidate, and a
    sense other than 'neg' or 'pos' raises ArgumentError.
    """

    name: str
    expr: AffineMatrix
    sense: str
    eps: float = None
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.sense not in ("neg", "pos"):
            raise ArgumentError(f"block {self.name!r}: sense must be 'neg' or 'pos'")
        c = self.expr.const     # not np.linalg.norm, whose BLAS dot follows the kernel
        self.scale = 1.0 + math.sqrt((c * c).sum())
        self.eps = EPS_REL * self.scale if self.eps is None else float(self.eps)
        if not (math.isfinite(self.scale) and math.isfinite(self.eps)):
            raise DomainError(f"block {self.name!r}: non-finite constant or eps")


# the sign s of a row s (expr - rhs) <= 0, with 0 for an equality row
_SIGN = {"<=": 1.0, ">=": -1.0, "==": 0.0}
_SENSE = {s: sense for sense, s in _SIGN.items()}


@dataclass
class LinearRows:
    """Scalar rows (sum of val[j] x[var[j]] over row i's entries j)
    (sense i) rhs[i], the sense kept as its sign.

    row, var and val are one row-major table of the rows' nonzero
    coefficients: each entry's row, global variable index and value,
    ordered by row and, within a row, by ascending variable. sign and rhs
    are float arrays of length r, so ``verify`` and the native backend
    read them without a conversion.
    """

    row: np.ndarray
    var: np.ndarray
    val: np.ndarray
    sign: np.ndarray
    rhs: np.ndarray
    name: list

    def __len__(self) -> int:
        return self.sign.size


class SdpProblem:
    """Block-LMI feasibility/minimization problem over scalar variables."""

    def __init__(self, name: str = ""):
        self.name = name
        self.variables: list[VariableInfo] = []
        self._by_name: dict[str, VariableInfo] = {}
        self.nvars = 0
        self.blocks: list[LmiBlock] = []
        self.linear = LinearRows(_NO_KEYS, _NO_KEYS, _NO_VALUES, _NO_VALUES, _NO_VALUES, [])
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

        Its F_k is one unit basis matrix per scalar, in row-major order over
        the entries (the upper triangle for symmetric ones, E_ij + E_ji off
        the diagonal), stored as its entries, each 1.0.
        """
        info = self._by_name[name]
        r, c = info.shape
        if info.kind == "symmetric":
            _, _, kix, row, col = upper_triangle(r)
            pos = row * c + col
        else:
            kix = pos = np.arange(info.size)
        return from_entries(info.shape, np.zeros(info.shape), info.offset + np.arange(info.size),
                            kix, pos, np.ones(kix.size))

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

        The entries are stored as built, not symmetrized: the block
        means its symmetric part, which ``verify`` and the solver form
        themselves. The constant term is stored symmetrized, and the
        default eps is EPS_REL times the block's scale 1 + ||const||_F.
        """
        if expr.shape[0] != expr.shape[1]:
            raise DimensionError("LMI block must be square")
        # an overflow (or inf - inf) makes a non-finite scale, which LmiBlock refuses
        with np.errstate(over="ignore", invalid="ignore"):
            const = 0.5 * (expr.const + expr.const.T)
            block = LmiBlock(name or f"lmi{len(self.blocks)}", from_entries(
                expr.shape, const, expr.keys, expr.kix, expr.pos, expr.val), sense, eps)
        self.blocks.append(block)
        return block

    def add_linear(self, expr: AffineMatrix, sense, rhs=0.0, name="") -> None:
        """Scalar rows expr[i, 0] (sense) rhs for an r x 1 expression.

        sense, rhs and name are each one value for every row or a sequence
        of one value per row; other lengths, and an rhs of another shape,
        raise DimensionError. The rows are appended in order to the table
        of ``self.linear``, with the constant moved to the rhs; a
        non-finite rhs raises DomainError, since a NaN row passes every
        ``verify``. The nonzero entries are appended row by row: one
        stable sort by row keeps each row's variables ascending, as the
        expression lists them key-major. A +-0.0 entry is not kept, since
        it adds nothing to a row's sum from +0.0.
        """
        r = expr.shape[0]
        if expr.shape[1] != 1:
            raise DimensionError("expected an r x 1 expression")
        senses = [sense] * r if isinstance(sense, str) else list(sense)
        names = [name] * r if isinstance(name, str) else list(name)
        rhs = np.asarray(rhs, dtype=float)
        if len(senses) != r or len(names) != r or rhs.shape not in ((), (r,)):
            raise DimensionError(f"expected one sense, rhs and name or {r} of each")
        if not set(senses) <= _SIGN.keys():
            raise ArgumentError("sense must be one of <=, >=, ==")
        rhs = rhs - expr.const[:, 0]
        if not np.isfinite(rhs).all():
            raise DomainError("linear rows: non-finite rhs or constant")
        old, n = self.linear, len(self.linear)
        at = expr.val.nonzero()[0]
        at = at[expr.pos[at].argsort(kind="stable")]
        self.linear = LinearRows(
            np.concatenate([old.row, n + expr.pos[at]]),
            np.concatenate([old.var, expr.keys[expr.kix[at]]]),
            np.concatenate([old.val, expr.val[at]]),
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
        so no caller can loosen the check. A row's value is 0.0 + its
        products x[var] val, added in table order (ascending variable) by
        one np.bincount. Returns (ok, worst violation); a candidate with a
        non-finite entry returns (False, inf).
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
            d = np.bincount(rows.row, x[rows.var] * rows.val, len(rows)) - rows.rhs
            viol = np.where(rows.sign, rows.sign * d, np.abs(d))
            tol = LIN_TOL * (1.0 + np.abs(rows.rhs) + xmax if x.size else 1.0)
            ok = ok and not np.any(viol > tol)
            worst = max(worst, float(np.max(viol - tol)))
        return ok, worst

    # -- JSON interchange ---------------------------------------------------
    def to_json_dict(self) -> dict:
        def coeffs_list(expr):
            return [{"var": int(k), "matrix": v.tolist()}
                    for k, v in zip(expr.keys, expr.dense())]

        rows = self.linear
        coeffs = [[] for _ in range(len(rows))]
        for i, k, v in zip(rows.row.tolist(), rows.var.tolist(), rows.val.tolist()):
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
        """The problem ``to_json_dict`` wrote. A variable of an unknown kind
        raises ArgumentError; one whose shape does not fit its kind (a
        negative dimension, a scalar not 1 x 1, a symmetric one not
        square) or whose recorded offset and size are not those its
        declaration computes raises DimensionError. A coefficient on a
        variable index outside [0, nvars) raises DimensionError, and a
        block sense other than 'neg' or 'pos' ArgumentError."""
        prob = SdpProblem(d.get("name", ""))
        for v in d["variables"]:
            kind, shape, who = v["kind"], tuple(v["shape"]), f"variable {v['name']!r}"
            fits = {"scalar": shape == (1, 1), "matrix": len(shape) == 2,
                    "symmetric": len(shape) == 2 and shape[0] == shape[1]}
            if kind not in fits:
                raise ArgumentError(f"{who}: unknown kind {kind!r}")
            if not fits[kind] or min(shape) < 0:
                raise DimensionError(f"{who}: shape {list(shape)} does not fit kind {kind!r}")
            info = prob.declare(v["name"], kind, shape)
            if [v.get("offset"), v.get("size")] != [info.offset, info.size]:
                raise DimensionError(f"{who}: recorded offset and size {v.get('offset')}, "
                                     f"{v.get('size')}, not {info.offset}, {info.size}")

        def var(k) -> int:
            if not 0 <= int(k) < prob.nvars:
                raise DimensionError(f"variable index {int(k)} outside [0, {prob.nvars})")
            return int(k)

        def expr_from(const, coeffs):
            const = np.asarray(const, dtype=float)
            coeffs = sorted(coeffs, key=lambda c: var(c["var"]))
            stack = np.reshape(np.asarray([c["matrix"] for c in coeffs], dtype=float),
                               (len(coeffs),) + const.shape)
            return AffineMatrix.from_dense([int(c["var"]) for c in coeffs], stack, const)

        with np.errstate(over="ignore", invalid="ignore"):     # as in add_lmi
            for b in d["blocks"]:
                expr = expr_from(b["const"], b["coeffs"])
                prob.blocks.append(LmiBlock(b["name"], expr, b["sense"], float(b["eps"])))
        rows = d["linear"]
        cells = sorted({(var(k), i): float(v) for i, r in enumerate(rows)
                        for k, v in r["coeffs"]}.items())     # key-major; a repeat overwrites
        kix, pos = np.array([c for c, _ in cells], dtype=np.intp).reshape(-1, 2).T
        prob.add_linear(AffineMatrix((len(rows), 1), keys=np.arange(prob.nvars),
                                     entries=(kix, pos, [v for _, v in cells])),
                        [r["sense"] for r in rows], [r["rhs"] for r in rows],
                        [r.get("name", "") for r in rows])
        if d.get("objective"):
            o = d["objective"]
            prob.objective = expr_from(o["const"], o["coeffs"])
        return prob
