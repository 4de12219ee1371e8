"""An expression's entries hold the dense algebra's numbers bit for bit.

``Dense`` is the expression algebra as it was written on dense K x r x c
stacks: each operation is that formula on the stacks ``dense()`` gives.
Beside every stack it tracks which entries an operand holds, and it
reads +0.0 at every other entry, as ``dense()`` does: the dense unary
minus and products with a negative scalar wrote -0.0 there, which no
value reads. Random expressions are built side by side through sums,
differences, products with constant matrices and scalars, slices,
transposes, traces, congruences and ``place`` with overlapping terms,
from stacks that hold signed zeros. After every step the stored entries
must give the reference's stack byte for byte, hold every nonzero entry
of the formula's result, and ``value`` must return the bits of its
definition, 0 + x_k F_k added key by key, on the dense stack. A
congruence is checked against its own definition, written out loop by
loop: its outer factors have columns with several nonzeros, where the
elementwise sum and a BLAS product round differently.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from iqcopt.problem import AffineMatrix, congruence, place
from reference_builders import dense_value


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class Dense:
    """A dense stack, the entries an expression holds, and the formulas."""

    def __init__(self, const, keys, stack, held):
        self.const, self.keys = np.asarray(const, dtype=float), np.asarray(keys, dtype=np.intp)
        self.raw, self.held = stack, held
        # C order, as dense() gives it: a view's layout would pick another
        # BLAS path (a transposed gemm), which rounds otherwise on FMA kernels
        self.stack = np.ascontiguousarray(np.where(held, stack, 0.0))

    @staticmethod
    def of(expr):
        held = np.zeros((expr.keys.size, expr.shape[0] * expr.shape[1]), dtype=bool)
        held[expr.kix, expr.pos] = True
        return Dense(expr.const, expr.keys, expr.dense(), held.reshape(expr.dense().shape))

    @staticmethod
    def _product(const, keys, stack):
        return Dense(const, keys, stack, _bits(stack) != 0)

    def combine(self, other, op):
        keys = np.union1d(self.keys, other.keys).astype(np.intp)
        shape = (keys.size,) + self.const.shape
        stack, held = np.zeros(shape), np.zeros(shape, dtype=bool)
        ia, ib = np.searchsorted(keys, self.keys), np.searchsorted(keys, other.keys)
        stack[ia], held[ia] = self.stack, self.held
        stack[ib] = op(stack[ib], other.stack)
        held[ib] |= other.held
        return Dense(op(self.const, other.const), keys, stack, held)

    def scale(self, s):
        return Dense(s * self.const, self.keys, s * self.stack, self.held)

    def neg(self):
        return Dense(-self.const, self.keys, -self.stack, self.held)

    def left(self, L):
        return Dense._product(L @ self.const, self.keys, L @ self.stack)

    def right(self, R):
        return Dense._product(self.const @ R, self.keys, self.stack @ R)

    def congruence(self, T):
        """T^T X T by its definition, one loop per index: for each entry
        (k, a, b, v) the expression holds, key-major, and each pair of
        nonzeros T[a, c], T[b, d], the product (T[a, c] v) T[b, d] added
        at (k, c, d) into a sum from 0.0. A sum that reads +0.0 is no
        entry; the constant is (T^T const) T."""
        K, r, _ = self.stack.shape
        c = T.shape[1]
        out = np.zeros((K, c, c))
        for k, a, b in zip(*np.nonzero(self.held)):
            v = self.stack[k, a, b]
            for i in range(c):
                for j in range(c):
                    if T[a, i] != 0.0 and T[b, j] != 0.0:
                        out[k, i, j] += (T[a, i] * v) * T[b, j]
        const = (T.T @ self.const) @ T if self.const.any() else np.zeros((c, c))
        return Dense(const, self.keys, out, out != 0.0)

    def sub(self, rows, cols):
        return Dense(self.const[rows, cols], self.keys, self.stack[:, rows, cols],
                     self.held[:, rows, cols])

    def transpose(self):
        return Dense(self.const.T, self.keys, self.stack.transpose(0, 2, 1),
                     self.held.transpose(0, 2, 1))

    def trace(self):
        held = np.diagonal(self.held, axis1=1, axis2=2).any(axis=1)[:, None, None]
        return Dense([[np.trace(self.const)]], self.keys,
                     np.trace(self.stack, axis1=1, axis2=2)[:, None, None], held)

    @staticmethod
    def place(shape, terms):
        keys = np.unique(np.concatenate([np.zeros(0, dtype=np.intp)]
                                        + [e.keys for _, _, e in terms])).astype(np.intp)
        const = np.zeros(shape)
        stack, held = np.zeros((keys.size,) + shape), np.zeros((keys.size,) + shape, dtype=bool)
        for i, j, e in terms:
            r, c = e.const.shape
            const[i:i + r, j:j + c] += e.const
            k = np.searchsorted(keys, e.keys)
            stack[k, i:i + r, j:j + c] += e.stack
            held[k, i:i + r, j:j + c] |= e.held
        return Dense(const, keys, stack, held)


def _base(rng, shape, nvars):
    """A random expression whose stack holds signed zeros, and its twin."""
    keys = np.sort(rng.choice(nvars, size=int(rng.integers(0, nvars + 1)), replace=False))
    stack = rng.standard_normal((keys.size,) + shape)
    stack[rng.random(stack.shape) < 0.5] = 0.0
    stack[rng.random(stack.shape) < 0.15] = -0.0
    const = rng.standard_normal(shape)
    const[rng.random(shape) < 0.2] = -0.0
    e = AffineMatrix.from_dense(keys, stack, const)
    return e, Dense.of(e)


def _matrix(rng, shape):
    M = rng.standard_normal(shape)
    M[rng.random(shape) < 0.3] = 0.0
    M[rng.random(shape) < 0.1] = -0.0
    return M


def _step(rng, op, e, d, nvars):
    """One random operation on (expression, reference), the same on both."""
    r, c = e.shape
    if op == 0:                                  # a sum or a difference
        f, g = _base(rng, (r, c), nvars) if rng.random() < 0.7 else (e, d)
        sub = bool(rng.integers(2))
        return (e - f, d.combine(g, np.subtract)) if sub else (e + f, d.combine(g, np.add))
    if op == 1:                                  # a constant on either side
        M = _matrix(rng, (r, c))
        if rng.integers(2):
            return e - M, d.combine(Dense(M, [], np.zeros((0, r, c)), np.zeros((0, r, c), bool)),
                                    np.subtract)
        return M - e, Dense(M, [], np.zeros((0, r, c)), np.zeros((0, r, c), bool)).combine(
            d, np.subtract)
    if op == 2:                                  # a scalar, negative or a signed zero too
        s = float(rng.choice([rng.standard_normal(), -0.0, 0.0, -1.0, 2.0]))
        return (e * s, d.scale(s)) if rng.integers(2) else (-e, d.neg())
    if op == 3:
        L = _matrix(rng, (int(rng.integers(1, 4)), r))
        return L @ e, d.left(L)
    if op == 4:
        R = _matrix(rng, (c, int(rng.integers(1, 4))))
        return e @ R, d.right(R)
    if op == 5:                                  # a slice, reversed or strided too
        a = int(rng.integers(0, r))
        rows = slice(a, int(rng.integers(a + 1, r + 1)))
        if rng.integers(2):
            rows = slice(None, None, -1)
        cols = slice(None, None, int(rng.choice([1, 2, -1])))
        return e[rows, cols], d.sub(rows, cols)
    if op == 6:
        return e.T, d.transpose()
    if op == 7 and r == c:
        T = _matrix(rng, (r, int(rng.integers(1, 4))))
        return congruence(T, e), d.congruence(T)
    if op == 8 and r == c:
        return e.trace(), d.trace()
    # place: the expression and a second term, overlapping it, and a constant
    R, C = r + int(rng.integers(0, 3)), c + int(rng.integers(0, 3))
    f, g = _base(rng, (r, c), nvars)
    at = [(int(rng.integers(0, R - r + 1)), int(rng.integers(0, C - c + 1))) for _ in range(3)]
    M = _matrix(rng, (r, c))
    terms = [(*at[0], e), (*at[1], f), (*at[2], M)]
    empty = Dense(M, [], np.zeros((0, r, c)), np.zeros((0, r, c), bool))
    return place((R, C), terms), Dense.place((R, C), [(*at[0], d), (*at[1], g), (*at[2], empty)])


def _assert_same(e, d, x):
    assert e.keys.tobytes() == d.keys.tobytes()
    assert e.const.tobytes() == np.ascontiguousarray(d.const).tobytes()
    assert e.dense().tobytes() == d.stack.tobytes()
    assert not np.any(d.raw[~d.held])          # nothing the formula wrote is lost
    assert e.value(x).tobytes() == dense_value(e, x).tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ops=st.lists(st.integers(0, 9), min_size=1, max_size=8),
       r=st.integers(1, 4), c=st.integers(1, 4), nvars=st.integers(1, 6))
def test_entries_hold_the_dense_algebra(seed, ops, r, c, nvars):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nvars)
    x[rng.random(nvars) < 0.2] = -0.0
    e, d = _base(rng, (r, c), nvars)
    _assert_same(e, d, x)
    for op in ops:
        e, d = _step(rng, op, e, d, nvars)
        _assert_same(e, d, x)


def test_value_is_one_scatter_in_key_order():
    """Three keys at one entry: (0 + x0 F0) + x1 F1, then + x2 F2, rounded in
    that order; another order gives other bits here."""
    F = np.array([1.0, 2.0 ** -53, 2.0 ** -53])[:, None, None]
    e = AffineMatrix.from_dense([0, 1, 2], F)
    x = np.ones(3)
    assert e.value(x)[0, 0] == 1.0
    assert (1.0 + 2.0 ** -53 + 2.0 ** -53) != (1.0 + (2.0 ** -53 + 2.0 ** -53))
    assert e.value(x).tobytes() == dense_value(e, x).tobytes()
