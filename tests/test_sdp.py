import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iqcopt
from iqcopt.algorithms import SectorBounds, make_named
from iqcopt.errors import ArgumentError, DimensionError, DomainError
from iqcopt.lmi import (assemble_bmi_fixed_P, assemble_convex_synth, assemble_convex_synth_perf,
                        assemble_h2_for, assemble_rate_for, assemble_rate_slack,
                        assemble_structured_rate, assemble_structured_synth)
from iqcopt.multipliers import ZamesFalbStructure
from iqcopt.problem import (PATTERN_CACHE_SIZE, AffineMatrix, SdpProblem, congruence, place,
                            upper_triangle)
from iqcopt.sdp import MAX_ITERS, SdpSolution, SolverOptions, solve
from reference_builders import reference_add_linear


def _random_expr(rng, shape, nvars):
    """An expression holding a random subset of the nvars variables."""
    keys = np.sort(rng.choice(nvars, size=int(rng.integers(0, nvars + 1)), replace=False))
    const = rng.standard_normal(shape)
    return AffineMatrix.from_dense(keys, rng.standard_normal((keys.size,) + tuple(shape)), const)


def _dense(expr, x):
    """Reference evaluation, one variable at a time."""
    out = expr.const.copy()
    for k, C in zip(expr.keys, expr.dense()):
        out += x[k] * C
    return out


class TestAffineMatrix:
    def test_block_and_value(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        expr = AffineMatrix.block([[x, np.ones((1, 1))],
                                   [np.ones((1, 1)), x]])
        V = expr.value(np.array([3.0]))
        np.testing.assert_allclose(V, [[3.0, 1.0], [1.0, 3.0]])

    def test_congruence_matches_dense(self):
        prob = SdpProblem()
        P = prob.add_symmetric("P", 3)
        T = np.arange(12.0).reshape(3, 4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=prob.nvars)
        np.testing.assert_allclose(congruence(T, P).value(x),
                                   T.T @ P.value(x) @ T, atol=1e-12)

    def test_congruence_is_the_operator_product(self):
        """Where each column of T holds one nonzero (-0.0 elsewhere), each
        entry of congruence is one rounded product (T[a, c] v) T[b, d],
        which (T.T @ X) @ T rounds alike on any kernel: the same bits, and
        no stored entry reads zero. Columns with several nonzeros sum
        elementwise instead (tests/test_entries.py)."""
        rng = np.random.default_rng(3)
        T = np.full((4, 3), -0.0)
        T[[1, 3, 1], np.arange(3)] = rng.normal(size=3)
        for keys in (np.array([0, 2, 5]), np.zeros(0, dtype=np.intp)):
            const = rng.normal(size=(4, 4))
            X = AffineMatrix.from_dense(keys, rng.normal(size=(keys.size, 4, 4)), const)
            got, want = congruence(T, X), (T.T @ X) @ T
            assert got.shape == want.shape == (3, 3) and got.val.all()
            for a, b in ((got.keys, want.keys), (got.const, want.const),
                         (got.dense(), want.dense())):
                assert a.tobytes() == b.tobytes()

    def test_matmul_both_sides(self):
        prob = SdpProblem()
        M = prob.add_matrix("M", 2, 3)
        L = np.ones((4, 2))
        R = np.ones((3, 1))
        x = np.arange(6.0)
        np.testing.assert_allclose((L @ M @ R).value(x),
                                   L @ M.value(x) @ R, atol=1e-12)

    def test_symmetric_variable_sharing(self):
        prob = SdpProblem()
        P = prob.add_symmetric("P", 2)
        assert prob.nvars == 3
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(P.value(x), [[1.0, 2.0], [2.0, 3.0]])

    def test_extract_matches_variable_value(self):
        prob = SdpProblem()
        prob.add_scalar("t")
        prob.add_symmetric("P", 3)
        prob.add_matrix("M", 2, 3)
        prob.add_symmetric("s", 1)
        x = np.random.default_rng(4).standard_normal(prob.nvars)
        for name in ("t", "P", "M", "s"):
            got = prob.extract(name, x)
            want = prob.variable_expr(name).value(x)
            if name == "t":
                assert got == float(want[0, 0])
            else:
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)
                assert not np.shares_memory(got, x)

    def test_upper_triangle_is_triu_order(self):
        for n in range(1, 41):
            for got, want in zip(upper_triangle(n), np.triu_indices(n)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_upper_triangle_is_shared_and_read_only(self):
        for n in range(0, 41):
            i, j, bk, br, bc = upper_triangle(n)
            k = np.arange(i.size)
            # the unit basis's entries: E_ij + E_ji, key-major, (i, j) first
            basis = np.zeros((i.size, n, n))
            basis[k, i, j] = basis[k, j, i] = 1.0
            kk, pp = basis.reshape(i.size, n * n).nonzero()
            np.testing.assert_array_equal(bk, kk)
            np.testing.assert_array_equal(br * n + bc, pp)
            assert upper_triangle(n) is upper_triangle(n)
            for arr in (i, j, bk, br, bc):
                assert not arr.flags.writeable
        assert upper_triangle.cache_info().maxsize == PATTERN_CACHE_SIZE

    def test_block_diagonal(self):
        a = AffineMatrix.constant([[1.0]])
        b = AffineMatrix.constant([[2.0, 0.0], [0.0, 2.0]])
        expr = AffineMatrix.block([[a, np.zeros((1, 2))], [np.zeros((2, 1)), b]])
        np.testing.assert_allclose(expr.value(np.zeros(0)), np.diag([1.0, 2.0, 2.0]))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(0, 5), cols=st.integers(0, 5), nterms=st.integers(0, 6),
           nvars=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_place_matches_dense_sum(self, rows, cols, nterms, nvars, seed):
        """Overlapping terms of every kind sum entry by entry like numpy."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(nvars)
        want = np.zeros((rows, cols))
        terms = []
        for _ in range(nterms):
            r, c = int(rng.integers(rows + 1)), int(rng.integers(cols + 1))
            i, j = int(rng.integers(rows - r + 1)), int(rng.integers(cols - c + 1))
            kind = rng.integers(4)
            if kind == 0:      # any key subset, usually not consecutive
                e = _random_expr(rng, (r, c), nvars)
            elif kind == 1:    # consecutive keys, as a declared variable has
                lo = int(rng.integers(nvars))
                hi = int(rng.integers(lo, nvars)) + 1
                const = rng.standard_normal((r, c))
                e = AffineMatrix.from_dense(np.arange(lo, hi),
                                            rng.standard_normal((hi - lo, r, c)), const)
            elif kind == 2:    # a transposed view
                e = _random_expr(rng, (c, r), nvars).T
            else:              # a constant without keys
                e = rng.standard_normal((r, c))
            terms.append((i, j, e))
            want[i:i + r, j:j + c] += _dense(AffineMatrix.lift(e), x)
        got = place((rows, cols), terms)
        used = [AffineMatrix.lift(e).keys for _, _, e in terms]
        assert list(got.keys) == sorted(set(np.concatenate([[]] + used).astype(int)))
        assert got.shape == (rows, cols) and got.dense().shape == (got.keys.size, rows, cols)
        np.testing.assert_allclose(got.value(x), want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(_dense(got, x), want, rtol=1e-12, atol=1e-12)

    def test_place_rejects_a_term_outside(self):
        for i, j in ((1, 0), (0, 2), (-1, 0)):
            with pytest.raises(DimensionError):
                place((2, 3), [(i, j, np.ones((2, 2)))])

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 4), c=st.integers(1, 4), nvars=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_algebra_matches_dense_values(self, r, c, nvars, seed):
        rng = np.random.default_rng(seed)
        A, B = (_random_expr(rng, (r, c), nvars) for _ in range(2))
        S = _random_expr(rng, (c, c), nvars)
        x = rng.standard_normal(nvars)
        a, b, s = _dense(A, x), _dense(B, x), _dense(S, x)
        L, R, T = (rng.standard_normal(shape) for shape in ((3, r), (c, 2), (c, 3)))
        k = float(rng.standard_normal())
        i, j = int(rng.integers(r)), int(rng.integers(c))
        cases = [
            (A + B, a + b), (A - B, a - b), (A + b, a + b), (b - A, b - a),
            (k * A, k * a), (A * k, a * k), (-A, -a),
            (L @ A, L @ a), (A @ R, a @ R), (A.T, a.T), (A.ravel(), a.reshape(-1, 1)),
            (AffineMatrix.block([[A, B], [A, np.ones((r, c))]]),
             np.block([[a, b], [a, np.ones((r, c))]])),
            (AffineMatrix.block([[A, np.zeros((r, c))], [np.zeros((c, c)), S]]),
             np.block([[a, np.zeros((r, c))], [np.zeros((c, c)), s]])),
            (congruence(T, S), T.T @ s @ T),
            (A[i:i + 1, j:j + 1], a[i:i + 1, j:j + 1]),
            (S.trace(), np.array([[np.trace(s)]])),
        ]
        for expr, want in cases:
            assert list(expr.keys) == sorted(set(expr.keys))
            np.testing.assert_allclose(expr.value(x), want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(_dense(expr, x), want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 5), c=st.integers(1, 5), nvars=st.integers(0, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slice_is_the_selector_product(self, r, c, nvars, seed):
        """E[a:b, d:e] holds the bits of the 0/1 selector product S_r E S_c,
        its constant a view of E's, on the same keys."""
        rng = np.random.default_rng(seed)
        E = _random_expr(rng, (r, c), nvars)
        a, b = sorted(rng.integers(0, r + 1, size=2))
        d, e = sorted(rng.integers(0, c + 1, size=2))
        step = int(rng.integers(1, 3))
        for rows, cols in ((slice(a, b), slice(d, e)), (slice(None), slice(d, None)),
                           (slice(None, None, step), slice(None, None, -1))):
            got = E[rows, cols]
            want = (np.eye(r)[rows] @ E) @ np.eye(c)[:, cols]
            assert got.shape == want.shape == got.const.shape
            assert got.keys is E.keys
            assert np.shares_memory(got.const, E.const) or not got.const.size
            for x, y in ((got.const, want.const), (got.dense(), want.dense())):
                assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())

    @pytest.mark.parametrize("index", [0, (0, 0), (slice(None), 0), (0, slice(None)),
                                       ([0, 1], slice(None)), (Ellipsis, slice(None)),
                                       (slice(None),), (slice(None),) * 3,
                                       [slice(None), slice(None)]])
    def test_index_other_than_two_slices_refused(self, index):
        E = AffineMatrix.from_dense([0], np.ones((1, 2, 3)), np.ones((2, 3)))
        with pytest.raises(ArgumentError, match="pair of slices"):
            E[index]


class TestAsymmetricBlock:
    """A block means the symmetric part of its stack: verify and the solver
    treat a deliberately asymmetric block like its symmetrized twin."""

    @staticmethod
    def _pair(const, coeffs):
        def build(const, coeffs):
            prob = SdpProblem()
            keys = [prob.declare(f"x{k}", "scalar", (1, 1)).offset for k in range(len(coeffs))]
            prob.add_lmi(AffineMatrix.from_dense(keys, coeffs, const), "pos")
            return prob

        sym = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))
        return build(const, coeffs), build(0.5 * (const + const.T), sym)

    @staticmethod
    def _skewed(rng, sym):
        """sym plus a skew part of the same size."""
        W = rng.standard_normal(sym.shape)
        return sym + (W - np.swapaxes(W, -1, -2))

    def test_verify_and_solve_agree_with_the_twin(self):
        rng = np.random.default_rng(11)
        m = 4
        S = rng.standard_normal((3, m, m))
        S = S + S.transpose(0, 2, 1)
        S[0] = 10.0 * np.eye(m)          # x0 large makes the block positive
        C = -np.eye(m)
        prob, twin = self._pair(self._skewed(rng, C), self._skewed(rng, S))
        assert not np.array_equal(prob.blocks[0].expr.dense(), twin.blocks[0].expr.dense())
        assert prob.blocks[0].eps == twin.blocks[0].eps
        for _ in range(20):
            x = rng.standard_normal(3)
            (ok, worst), (ok_twin, worst_twin) = prob.verify(x), twin.verify(x)
            assert ok == ok_twin
            assert abs(worst - worst_twin) <= 1e-12 * (1.0 + abs(worst_twin))
        a, b = solve(prob), solve(twin)
        assert a.certified and a.status == b.status
        np.testing.assert_array_equal(a.x, b.x)

    def test_a_skew_part_adds_nothing(self):
        # -I + x (skew): its symmetric part is -I, so no x makes it positive
        rng = np.random.default_rng(12)
        W = rng.standard_normal((1, 3, 3))
        prob, twin = self._pair(-np.eye(3), W - W.transpose(0, 2, 1))
        assert not np.any(twin.blocks[0].expr.dense())
        for x in (np.array([0.0]), np.array([100.0]), np.array([-1e3])):
            assert prob.verify(x) == twin.verify(x)
        assert solve(prob).status == solve(twin).status
        assert not solve(prob).certified


class TestLinearRows:
    @staticmethod
    def _column():
        prob = SdpProblem()
        x = prob.add_matrix("x", 3, 1)
        y = prob.add_scalar("y")
        T = np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 0.0], [0.5, 3.0, 1e-300]])
        col = T @ x + AffineMatrix.constant([[1.0], [0.0], [-2.5]])
        return prob, col + AffineMatrix.block([[y], [0.0 * y], [-1.0 * y]])

    @pytest.mark.parametrize("sense,rhs,name", [
        ("<=", 1.5, "row"),
        (["<=", ">=", "=="], [1.0, -2.0, 0.25], ["a", "b", "c"]),
        ([">=", "<=", ">="], 0.0, ""),
        ("==", np.array([3.0, 4.0, 5.0]), ["", "mid", ""]),
    ])
    def test_bulk_matches_per_row_calls(self, sense, rhs, name):
        bulk, col = self._column()
        bulk.add_linear(col, sense, rhs, name)
        rows, col = self._column()
        per = lambda v, i: v if isinstance(v, str) else v[i]
        for i in range(3):
            reference_add_linear(rows, col[i:i + 1, :], per(sense, i),
                                 rhs if np.ndim(rhs) == 0 else rhs[i], per(name, i))
        assert bulk.to_json_dict()["linear"] == rows.to_json_dict()["linear"]
        a, b = bulk.linear, rows.linear
        assert len(a) == len(b) == 3 and a.name == b.name
        for got, want in ((a.row, b.row), (a.var, b.var), (a.val, b.val), (a.sign, b.sign),
                          (a.rhs, b.rhs)):
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_slack_scales_with_the_largest_magnitude(self):
        # row a <= 0 may be violated by lin_tol (1 + |rhs| + max|x|)
        prob = SdpProblem()
        a = prob.add_scalar("a")
        prob.add_scalar("b")
        prob.add_linear(a, "<=", 0.0)
        assert prob.verify(np.array([0.9e-2, -1e6]))[0]
        assert not prob.verify(np.array([1.1e-2, -1e6]))[0]
        ok, worst = prob.verify(np.array([1e-2, -1e6]))
        assert worst == 1e-2 - 1e-8 * (1.0 + 0.0 + 1e6)

    def test_rejects_bad_rows(self):
        prob, col = self._column()
        with pytest.raises(DimensionError):
            prob.add_linear(AffineMatrix.block([[col, col]]), "<=")
        with pytest.raises(DimensionError):
            prob.add_linear(col, ["<=", ">="])
        with pytest.raises(ArgumentError):
            prob.add_linear(col, ["<=", ">=", "<"])
        # an rhs is one value or one per row
        with pytest.raises(DimensionError, match="one sense, rhs and name or 3 of each"):
            prob.add_linear(col, "<=", [1.0, 2.0])
        with pytest.raises(DimensionError, match="one sense, rhs and name or 3 of each"):
            prob.add_linear(col, "<=", np.ones((3, 1)))
        assert len(prob.linear) == 0


class TestRowColumn:
    """Rows from several add_linear calls, against a per-row derivation."""

    @staticmethod
    def _calls(rng, plan):
        """Declare variables and add rows as the plan says.

        Each call's rows use a random subset of the variables declared so
        far (some are declared after earlier rows), carry random zero and
        -0.0 coefficients, and take one sense or one sense per row.
        """
        prob, calls = SdpProblem(), []
        for declare, r, per_row in plan:
            for _ in range(declare):
                prob.add_matrix(f"v{len(prob.variables)}", int(rng.integers(1, 3)), 1)
            keys = np.sort(rng.choice(prob.nvars, size=int(rng.integers(0, prob.nvars + 1)),
                                      replace=False))
            C = rng.standard_normal((keys.size, r, 1))
            C[rng.random(C.shape) < 0.4] = 0.0
            C[rng.random(C.shape) < 0.1] = -0.0
            const = rng.standard_normal((r, 1))
            senses = list(rng.choice(["<=", ">=", "=="], size=r))
            rhs = rng.standard_normal(r)
            names = [f"c{len(calls)}r{i}" for i in range(r)]
            if per_row:
                prob.add_linear(AffineMatrix.from_dense(keys, C, const), senses, rhs, names)
            else:
                senses, rhs, names = [senses[0]] * r, np.full(r, rhs[0]), [names[0]] * r
                prob.add_linear(AffineMatrix.from_dense(keys, C, const), senses[0], rhs[0], names[0])
            calls.append((keys, C[:, :, 0], const[:, 0], senses, rhs, names))
        prob.add_scalar("late")   # held by no row
        return prob, calls

    @staticmethod
    def _rows(calls):
        """(name, sense, rhs - const, [[key, coeff], ..]) per row, keys ascending."""
        rows = []
        for keys, C, const, senses, rhs, names in calls:
            for i in range(C.shape[1]):
                coeffs = [[int(k), float(c)] for k, c in zip(keys, C[:, i]) if c != 0.0]
                rows.append((names[i], senses[i], float(rhs[i]) - float(const[i]), coeffs))
        return rows

    @staticmethod
    def _verify(rows, x, lin_tol=1e-8):
        ok, worst = True, -np.inf
        xmax = float(np.max(np.abs(x)))
        for _, sense, rhs, coeffs in rows:
            v = sum(c * x[k] for k, c in coeffs)
            viol = {"<=": v - rhs, ">=": rhs - v, "==": abs(v - rhs)}[sense]
            tol = lin_tol * (1.0 + abs(rhs) + xmax)
            ok, worst = ok and viol <= tol, max(worst, viol - tol)
        return ok, worst

    @settings(max_examples=80, deadline=None)
    @given(plan=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4), st.booleans()),
                         min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_per_row_derivation(self, plan, seed):
        rng = np.random.default_rng(seed)
        if plan[0][0] == 0:      # the first rows need a variable to choose from
            plan[0] = (1,) + plan[0][1:]
        prob, calls = self._calls(rng, plan)
        rows = self._rows(calls)
        assert len(prob.linear) == len(rows) == sum(r for _, r, _ in plan)
        # the table holds exactly the nonzero coefficients, row by row, keys ascending
        table = prob.linear
        assert list(zip(table.row.tolist(), table.var.tolist(), table.val.tolist())) == [
            (i, k, v) for i, (*_, c) in enumerate(rows) for k, v in c]
        assert prob.to_json_dict()["linear"] == [
            {"name": n, "sense": s, "rhs": r, "coeffs": c} for n, s, r, c in rows]
        clone = SdpProblem.from_json_dict(prob.to_json_dict())
        for scale in (1e-3, 1.0, 10.0):
            x = scale * rng.standard_normal(prob.nvars)
            got = prob.verify(x)
            assert clone.verify(x) == got
            ok, worst = self._verify(rows, x)
            assert got[0] == ok
            assert abs(got[1] - worst) <= 1e-12 * (1.0 + abs(worst))


class TestSolve:
    def test_empty_problem(self):
        sol = solve(SdpProblem())
        assert (sol.status, sol.stop) == ("certified", "constant")
        assert sol.objective is None

    def test_scalar_lp_as_sdp(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        prob.add_lmi(x - AffineMatrix.constant([[1.0]]), "pos", eps=0.0)
        prob.minimize(x)
        sol = solve(prob)
        assert sol.certified
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-6)

    def test_eigenvalue_bound(self):
        # [[x, 1], [1, x]] >= 0 forces x >= 1
        prob = SdpProblem()
        x = prob.add_scalar("x")
        blk = AffineMatrix.block([[x, np.ones((1, 1))], [np.ones((1, 1)), x]])
        prob.add_lmi(blk, "pos", eps=0.0)
        prob.minimize(x)
        sol = solve(prob)
        assert sol.certified
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_detected(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        prob.add_linear(x, "<=", -1.0)
        prob.add_lmi(x, "pos", eps=0.5)
        sol = solve(prob)
        assert sol.status == "infeasible"

    def test_determinism(self):
        def run():
            prob = SdpProblem()
            P = prob.add_symmetric("P", 3)
            A = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]])
            prob.add_lmi(congruence(A, P) - P, "neg", eps=1e-6)
            prob.add_lmi(P - AffineMatrix.constant(np.eye(3)), "pos", eps=0.0)
            prob.minimize(P.trace())
            return solve(prob)

        a, b = run(), run()
        assert a.status == b.status
        assert a.objective == pytest.approx(b.objective, abs=1e-9)
        np.testing.assert_allclose(a.x, b.x, atol=1e-9)

    def test_verification_pass(self):
        prob = SdpProblem()
        P = prob.add_symmetric("P", 2)
        prob.add_lmi(P - AffineMatrix.constant(np.eye(2)), "pos", eps=0.0)
        sol = solve(prob)
        assert sol.certified
        eigs = np.linalg.eigvalsh(sol.values["P"])
        assert eigs[0] >= 1.0 - 1e-8

    def test_linear_equality(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        y = prob.add_scalar("y")
        prob.add_linear(x + y, "==", 2.0)
        prob.add_lmi(x, "pos", eps=0.0)
        prob.add_lmi(y, "pos", eps=0.0)
        prob.minimize(-1.0 * x)
        sol = solve(prob)
        assert sol.values["x"] == pytest.approx(2.0, abs=1e-6)


class TestNonFiniteCandidates:
    """A candidate with a NaN or inf entry is never verified, whichever
    constraints read that entry."""

    @staticmethod
    def _rows_only():
        prob = SdpProblem()
        prob.add_linear(prob.add_scalar("t"), "<=", 1.0)
        return prob

    @staticmethod
    def _h2_shaped():
        """A PD block beside the row t <= 1; t is read only by the row and
        the objective, as in the H2 problem."""
        prob = SdpProblem()
        prob.add_lmi(AffineMatrix.constant(np.eye(2)), "pos")
        t = prob.add_scalar("t")
        prob.add_linear(t, "<=", 1.0)
        prob.minimize(t)
        return prob

    @staticmethod
    def _block_reads_all():
        prob = SdpProblem()
        P = prob.add_symmetric("P", 3)
        prob.add_lmi(P, "pos")
        return prob

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_verify_refuses(self, bad):
        for build in (self._rows_only, self._h2_shaped, self._block_reads_all):
            prob = build()
            x = np.zeros(prob.nvars)
            x[-1] = bad
            assert prob.verify(x) == (False, np.inf)

    @pytest.mark.parametrize("build", ["_rows_only", "_h2_shaped", "_block_reads_all"])
    def test_answer_downgrades_a_nan_candidate(self, build):
        from iqcopt.native import _answer

        prob = getattr(self, build)()
        x = np.full(prob.nvars, np.nan)
        sol = _answer(prob, x, phase=2, stop="optimal")
        assert not sol.certified
        assert (sol.status, sol.worst) == ("undecided", np.inf) and sol.x is x


class TestNonFiniteData:
    """Problem data with a NaN or inf are refused when they are added: a
    NaN block scale or row rhs fails every violation test, so ``verify``
    would pass any candidate."""

    def test_nan_block_constant_refused(self):
        prob = SdpProblem()
        t = prob.add_scalar("t")
        const = np.zeros((3, 3))
        const[0, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite constant or eps"):
            prob.add_lmi(AffineMatrix.from_dense(t.keys, np.eye(3)[None], const), "pos")
        assert not prob.blocks

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("const", [
        np.full((3, 3), 1.3e154), np.full((3, 3), 1e200), np.full((3, 3), 1e308),
        np.array([[0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])])
    def test_overflowing_block_constant_refused_before_a_warning(self, const):
        # the scale's squares, or the constant's symmetrization at 1e308
        # (inf - inf off the diagonal), overflow; that is refused as a
        # non-finite scale, not warned about
        prob = SdpProblem()
        t = prob.add_scalar("t")
        with pytest.raises(DomainError, match="non-finite constant or eps"):
            prob.add_lmi(AffineMatrix.from_dense(t.keys, np.eye(3)[None], const), "pos")
        assert not prob.blocks
        prob.add_lmi(AffineMatrix.from_dense(t.keys, np.eye(3)[None], 1e150 * np.eye(3)), "pos")
        d = prob.to_json_dict()
        d["blocks"][0]["const"] = const.tolist()
        with pytest.raises(DomainError, match="non-finite constant or eps"):
            SdpProblem.from_json_dict(d)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_refused(self, eps):
        prob = SdpProblem()
        with pytest.raises(DomainError, match="non-finite constant or eps"):
            prob.add_lmi(prob.add_symmetric("P", 2), "pos", eps=eps)

    @pytest.mark.parametrize("rhs", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rhs_refused(self, rhs):
        prob = SdpProblem()
        t = prob.add_scalar("t")
        with pytest.raises(DomainError, match="non-finite rhs"):
            prob.add_linear(t, "<=", rhs)
        with pytest.raises(DomainError, match="non-finite rhs"):
            prob.add_linear(t - np.full((1, 1), rhs), "<=", 0.0)
        assert len(prob.linear) == 0

    @staticmethod
    def _valid_dict():
        prob = SdpProblem()
        t = prob.add_scalar("t")
        prob.add_lmi(AffineMatrix.from_dense(t.keys, np.eye(3)[None], np.eye(3)), "pos")
        prob.add_linear(t, "<=", 1.0)
        assert prob.verify(np.array([0.5]))[0]
        return prob.to_json_dict()

    def test_json_nan_block_constant_refused(self):
        d = self._valid_dict()
        d["blocks"][0]["const"][0][0] = np.nan
        with pytest.raises(DomainError, match="non-finite constant or eps"):
            SdpProblem.from_json_dict(d)

    def test_json_nan_row_rhs_refused(self):
        d = self._valid_dict()
        d["linear"][0]["rhs"] = np.nan
        with pytest.raises(DomainError, match="non-finite rhs"):
            SdpProblem.from_json_dict(d)

    @pytest.mark.parametrize("index", [1, 7, -1])
    def test_json_block_variable_out_of_range_refused(self, index):
        d = self._valid_dict()
        d["blocks"][0]["coeffs"][0]["var"] = index
        with pytest.raises(DimensionError, match=rf"variable index {index} outside \[0, 1\)"):
            SdpProblem.from_json_dict(d)

    @pytest.mark.parametrize("index", [1, -1])
    def test_json_row_variable_out_of_range_refused(self, index):
        d = self._valid_dict()
        d["linear"][0]["coeffs"][0][0] = index
        with pytest.raises(DimensionError, match=rf"variable index {index} outside \[0, 1\)"):
            SdpProblem.from_json_dict(d)

    def test_json_objective_variable_out_of_range_refused(self):
        d = self._valid_dict()
        d["objective"] = {"const": [[0.0]], "coeffs": [{"var": 3, "matrix": [[1.0]]}]}
        with pytest.raises(DimensionError, match="variable index 3"):
            SdpProblem.from_json_dict(d)

    @pytest.mark.parametrize("sense", ["psd", "NEG", "", None])
    def test_json_block_sense_refused(self, sense):
        d = self._valid_dict()
        d["blocks"][0]["sense"] = sense
        with pytest.raises(ArgumentError, match="sense must be 'neg' or 'pos'"):
            SdpProblem.from_json_dict(d)

    def test_json_valid_dict_reads_back(self):
        prob = SdpProblem.from_json_dict(self._valid_dict())
        assert prob.verify(np.array([0.5]))[0] and not prob.verify(np.array([-2.0]))[0]


class TestNativeBackend:
    def test_minimizes(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        blk = AffineMatrix.block([[x, np.ones((1, 1))], [np.ones((1, 1)), x]])
        prob.add_lmi(blk, "pos", eps=0.0)
        prob.minimize(x)
        sol = solve(prob)
        assert sol.certified and (sol.phase, sol.stop) == (2, "optimal")
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-6)

    def test_inconsistent_equalities_infeasible(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        prob.add_linear(x, "==", 1.0)
        prob.add_linear(x, "==", 2.0)
        prob.add_lmi(x, "pos", eps=0.0)
        assert solve(prob).status == "infeasible"

    def test_unbounded_objective_diverges(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        prob.add_lmi(x, "pos", eps=0.0)
        prob.minimize(-1.0 * x)
        sol = solve(prob)
        assert sol.status == "diverged" and not sol.certified

    def test_nearly_dependent_direction_not_declared_infeasible(self):
        # x1 = -x2 = 2^51 satisfies every row, but the direction x1 = -x2
        # moves G(x) by only 2^-50 |x2| against the 1e8 of the third row,
        # below the rank floor; a Farkas certificate must be charged for
        # what that direction can still do
        d = 2.0 ** -50
        prob = SdpProblem()
        x1 = prob.add_scalar("x1")
        x2 = prob.add_scalar("x2")
        prob.add_linear(x1 + (1 + d) * x2, ">=", 1.0)
        prob.add_linear(-1.0 * x1 + (-1 + d) * x2, ">=", 1.0)
        prob.add_linear(1e8 * x1 + 1e8 * x2, ">=", 0.0)
        assert prob.verify(np.array([-2.0 ** 51, 2.0 ** 51]))[0]
        assert solve(prob).status != "infeasible"

    def test_iteration_cap_is_read(self):
        prob = SdpProblem()
        x = prob.add_scalar("x")
        blk = AffineMatrix.block([[x, np.ones((1, 1))], [np.ones((1, 1)), x]])
        prob.add_lmi(blk, "pos", eps=0.0)
        prob.minimize(x)
        full = solve(prob)
        assert full.certified and full.stop == "optimal" and full.iterations > 5
        # a cap above MAX_ITERS is clipped to it
        assert solve(prob, SolverOptions(max_iters=10 * MAX_ITERS)).iterations == full.iterations
        # each phase stops at the cap; one iteration reaches no feasible point
        for cap in (1, 2, 5):
            sol = solve(prob, SolverOptions(max_iters=cap))
            assert sol.stop == "max_iters" and sol.iterations <= 2 * cap
        sol = solve(prob, SolverOptions(max_iters=1))
        assert (sol.status, sol.phase, sol.iterations) == ("undecided", 1, 1)

    @pytest.mark.parametrize("cap", [2.5, 0, -3, True, "100", None])
    def test_options_refuse_a_cap_not_an_integer_at_least_one(self, cap):
        # 2.5 reached range() inside the solver as a TypeError; 0 and -3
        # left every solve undecided, so certify_rate refused GD
        with pytest.raises(DomainError, match="max_iters must be an integer >= 1"):
            SolverOptions(max_iters=cap)
        assert SolverOptions(max_iters=np.int64(7)).max_iters == 7

    def test_default_cap_is_the_applied_one(self):
        assert [f.name for f in fields(SolverOptions)] == ["tol_abs", "tol_rel", "max_iters"]
        assert SolverOptions().max_iters == MAX_ITERS == 100

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, np.inf])
    def test_options_refuse_a_tolerance_not_finite_and_nonnegative(self, tol):
        for kw in ({"tol_abs": tol}, {"tol_rel": tol}):
            with pytest.raises(DomainError, match="finite numbers >= 0"):
                SolverOptions(**kw)
        assert SolverOptions(tol_abs=0.0, tol_rel=0.0).tol_abs == 0.0

    def test_answers_with_a_cvxpy_stub_first_on_path(self, tmp_path):
        # an importable cvxpy, even an empty one, is not consulted:
        # solve() has a single backend
        (tmp_path / "cvxpy.py").write_text("")
        code = textwrap.dedent("""
            import numpy as np
            import cvxpy
            from iqcopt.problem import AffineMatrix, SdpProblem
            from iqcopt.sdp import solve
            prob = SdpProblem()
            x = prob.add_scalar("x")
            one = np.ones((1, 1))
            prob.add_lmi(AffineMatrix.block([[x, one], [one, x]]), "pos", eps=0.0)
            prob.minimize(x)
            sol = solve(prob)
            print(cvxpy.__file__, sol.status, sol.certified, round(sol.values["x"], 6))
        """)
        src = str(Path(iqcopt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tmp_path), src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(tmp_path / "cvxpy.py"), "certified", "True", "1.0"]


def _scalar_problem(*constraints, objective=None):
    """A problem in one scalar x. constraints are ("lmi", sense, c, eps),
    the block x - c, or ("row", sense, rhs); the objective is "x", "-x" or
    "-y", for a second scalar y that no constraint reads."""
    prob = SdpProblem()
    x = prob.add_scalar("x")
    for kind, sense, value, *eps in constraints:
        if kind == "lmi":
            prob.add_lmi(x - AffineMatrix.constant([[value]]), sense, eps=eps[0])
        else:
            prob.add_linear(x, sense, value)
    if objective == "-y":
        prob.minimize(-1.0 * prob.add_scalar("y"))
    elif objective is not None:
        prob.minimize(x if objective == "x" else -1.0 * x)
    return prob


def _constant_objective():
    """A problem without variables or constraints that minimizes 5."""
    prob = SdpProblem()
    prob.minimize(AffineMatrix.constant([[5.0]]))
    return prob


# (problem, status, phase, stop, whether x is kept): one row per outcome
OUTCOMES = {
    "empty": (SdpProblem, "certified", 0, "constant", True),
    "constant-objective": (_constant_objective, "certified", 0, "constant", True),
    "inconsistent-equalities": (
        lambda: _scalar_problem(("row", "==", 1.0), ("row", "==", 2.0), ("lmi", "pos", 0.0, 0.0)),
        "infeasible", 0, "inconsistent", False),
    "unbounded-direction": (
        lambda: _scalar_problem(("lmi", "pos", 0.0, 0.0), objective="-y"),
        "diverged", 0, "unbounded", False),
    "violated-constant": (
        lambda: _scalar_problem(("row", "==", 1.0), ("lmi", "neg", 0.0, 0.0)),
        "infeasible", 0, "constant", False),
    "constant": (
        lambda: _scalar_problem(("row", "==", 1.0), ("lmi", "pos", 0.0, 0.0)),
        "certified", 0, "constant", True),
    "farkas-certificate": (
        lambda: _scalar_problem(("row", "<=", -1.0), ("lmi", "pos", 0.0, 0.5)),
        "infeasible", 1, "infeasible", False),
    # x >= 0 and x <= 0: phase I's t converges to 0 and never falls below
    "phase-1-undecided": (
        lambda: _scalar_problem(("lmi", "pos", 0.0, 0.0), ("lmi", "neg", 0.0, 0.0)),
        "undecided", 1, "undecided", False),
    "phase-1-feasible": (
        lambda: _scalar_problem(("lmi", "pos", 1.0, 0.0)), "certified", 1, "feasible", True),
    "phase-2-optimal": (
        lambda: _scalar_problem(("lmi", "pos", 1.0, 0.0), objective="x"),
        "certified", 2, "optimal", True),
    "phase-2-diverged": (
        lambda: _scalar_problem(("lmi", "pos", 0.0, 0.0), objective="-x"),
        "diverged", 2, "diverged", False),
    # the solver meets x >= 1 + 1e-14, but verify asks for x - 1 to clear
    # EIG_MARGIN times the block's scale
    "verify-refused": (
        lambda: _scalar_problem(("lmi", "pos", 1.0, 1e-14), objective="x"),
        "undecided", 2, "optimal", True),
}


class TestOutcomes:
    """Each row of the outcome mapping of ``sdp.solve``, on a problem that
    reaches it; the native backend forms every answer."""

    @pytest.mark.parametrize("row", OUTCOMES)
    def test_mapping(self, row):
        build, status, phase, stop, keeps_x = OUTCOMES[row]
        prob = build()
        sol = solve(prob)
        assert (sol.status, sol.phase, sol.stop) == (status, phase, stop)
        assert sol.certified == (status == "certified")
        assert (sol.x is not None) == keeps_x
        assert (sol.iterations > 0) == (phase > 0)
        if keeps_x:
            assert prob.verify(sol.x) == (sol.certified, sol.worst)
            assert set(sol.values) == {v.name for v in prob.variables}
            assert sol.objective == (None if prob.objective is None
                                     else float(prob.objective.value(sol.x)[0, 0]))
        if row == "constant-objective":
            # a problem without variables is answered at its one point,
            # where the objective is its constant
            assert sol.objective == 5.0
        assert sol.message.startswith(f"{status} ({stop}") and str(sol) == sol.message

    def test_native_forms_the_final_answer(self):
        from iqcopt.native import solve_native

        prob = OUTCOMES["phase-2-optimal"][0]()
        sol = solve_native(prob, SolverOptions())
        assert (sol.status, sol.phase, sol.stop) == ("certified", 2, "optimal")
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-6)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        assert prob.verify(sol.x) == (True, sol.worst) and sol.worst < 0
        assert solve_native(OUTCOMES["phase-1-feasible"][0](), SolverOptions()).certified

    def test_phase1_point_is_verified_once(self, monkeypatch):
        # the check that accepts phase I's point is the answer's check
        bounds = SectorBounds(1.0, 10.0)
        prob = assemble_rate_for(make_named("gd", bounds), bounds,
                                 ZamesFalbStructure(1, 0, 1, "unstructured", 0.9), 0.9).problem
        verify, checks = SdpProblem.verify, []

        def counted(problem, x):
            checks.append(verify(problem, x))
            return checks[-1]

        monkeypatch.setattr(SdpProblem, "verify", counted)
        sol = solve(prob)
        assert (sol.status, sol.phase, sol.stop) == ("certified", 1, "feasible")
        assert len(checks) == 1 and checks[0] == (True, sol.worst)
        monkeypatch.undo()
        assert prob.verify(sol.x) == (True, sol.worst)
        assert set(sol.values) == {v.name for v in prob.variables}
        for name, value in sol.values.items():
            assert np.array_equal(value, prob.extract(name, sol.x))
        assert sol.objective is None

    def test_linalg_error_is_undecided(self, monkeypatch):
        import iqcopt.native as native

        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(native, "solve_native", fail)
        sol = solve(OUTCOMES["phase-2-optimal"][0]())
        assert (sol.status, sol.phase, sol.stop, sol.x) == ("undecided", 0, "linalg", None)
        assert sol.message == "undecided (linalg, SVD did not converge)"

    def test_message_shows_phase_iterations_and_numbers(self):
        sol = solve(OUTCOMES["phase-1-undecided"][0]())
        assert sol.message.startswith(
            f"undecided (undecided in phase 1 after {sol.iterations} iterations, t=")

    def test_another_status_word_is_not_certified(self):
        # decoders build solutions by hand; only "certified" certifies
        x = np.ones(2)
        sol = SdpSolution(status="optimal", x=x, values={"x": x})
        assert not sol.certified and sol.message == "optimal ()"


class TestJsonInterchange:
    def test_roundtrip_preserves_solution(self):
        prob = SdpProblem("demo")
        x = prob.add_scalar("x")
        blk = AffineMatrix.block([[x, np.ones((1, 1))], [np.ones((1, 1)), x]])
        prob.add_lmi(blk, "pos", eps=0.0)
        prob.minimize(x)
        clone = SdpProblem.from_json_dict(prob.to_json_dict())
        a = solve(prob)
        b = solve(clone)
        assert b.values["x"] == pytest.approx(a.values["x"], abs=1e-8)

    def test_roundtrip_structure(self):
        prob = SdpProblem("demo2")
        P = prob.add_symmetric("P", 2)
        prob.add_lmi(P, "pos")
        prob.add_linear(P.trace(), "<=", 5.0)
        d = prob.to_json_dict()
        clone = SdpProblem.from_json_dict(d)
        assert clone.nvars == prob.nvars
        assert len(clone.blocks) == 1
        assert clone.blocks[0].eps == prob.blocks[0].eps
        assert len(clone.linear) == 1

    @staticmethod
    def _problems():
        bounds = SectorBounds(1.0, 10.0)
        nm = make_named("nm", bounds)
        st_rate = ZamesFalbStructure(2, 1, 1, "unstructured", 0.9)
        rate = assemble_rate_for(nm, bounds, st_rate, 0.9).problem
        h2 = assemble_h2_for(nm, bounds, st_rate.with_rho(1.0)).problem
        st_bmi = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        nc = 3
        P = np.eye(nc) + 0.1 * np.ones((nc, nc))
        bmi = assemble_bmi_fixed_P(2, 1, bounds, st_bmi, 0.9, P, P_p=P).problem
        return {"rate": rate, "h2": h2, "bmi": bmi}

    def test_one_coefficient_entry_per_held_variable(self):
        # each block lists exactly the variables it holds, none padded in
        held = {
            "rate": {"rate": ("P", "zf_theta")},
            "h2": {"h2-kyp": ("P_p", "zf_theta"), "h2-trace-schur": ("P_p", "Z"),
                   "h2-Pp-pos": ("P_p",)},
            "bmi": {"bmi-rate": ("A", "B", "zf_theta"), "bmi-h2": ("A", "B", "zf_theta_p"),
                    "bmi-h2-trace": ("B", "Z")},
        }
        for kind, prob in self._problems().items():
            d = prob.to_json_dict()
            where = {v["name"]: range(v["offset"], v["offset"] + v["size"])
                     for v in d["variables"]}
            assert [b["name"] for b in d["blocks"]] == list(held[kind])
            for b in d["blocks"]:
                want = sorted(k for name in held[kind][b["name"]] for k in where[name])
                assert [c["var"] for c in b["coeffs"]] == want

    @staticmethod
    def _every_kind():
        """One problem of each kind the library builds."""
        bounds = SectorBounds(1.0, 10.0)
        nm = make_named("nm", bounds, 2)
        st = ZamesFalbStructure(2, 1, 2, "repeated", 0.9)
        probs = {"rate": assemble_rate_for(nm, bounds, st, 0.9),
                 "h2": assemble_h2_for(nm, bounds, st.with_rho(1.0)),
                 "rate-slack": assemble_rate_slack(nm, bounds, st, 0.9),
                 "convex": assemble_convex_synth(2, 2, bounds, st, 0.9),
                 "convex-perf": assemble_convex_synth_perf(2, 2, bounds, st, 0.9),
                 "structured-synth": assemble_structured_synth(
                     np.eye(2), np.array([[1.0, 0.5]]), 0.0, 9.0, 2, 0.9),
                 "structured-rate": assemble_structured_rate(
                     make_named("gd", bounds, 2), np.eye(2), np.eye(2), 0.0, 9.0, st, 0.9)}
        nc = 3 * 2 + 2 * 2
        P = np.eye(nc) + 0.1 * np.ones((nc, nc))
        for slack in (False, True):
            for P_p in (None, P):
                probs[f"bmi slack={slack} P_p={P_p is not None}"] = assemble_bmi_fixed_P(
                    2, 2, bounds, st, 0.9, P, P_p=P_p, slack=slack)
        return {name: asm.problem for name, asm in probs.items()}

    def test_json_is_a_fixed_point(self):
        """Reading a problem's JSON back gives the same JSON and the same
        row table, byte for byte."""
        for name, prob in self._every_kind().items():
            d = prob.to_json_dict()
            clone = SdpProblem.from_json_dict(d)
            assert clone.to_json_dict() == d, name
            a, b = prob.linear, clone.linear
            assert a.name == b.name, name
            for x, y in ((a.row, b.row), (a.var, b.var), (a.val, b.val), (a.sign, b.sign),
                         (a.rhs, b.rhs)):
                assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name

    @staticmethod
    def _variables_dict():
        prob = SdpProblem("vars")
        P = prob.add_symmetric("P", 2)
        prob.add_scalar("t")
        prob.add_matrix("M", 2, 3)
        prob.add_lmi(P, "pos")
        return prob.to_json_dict()

    def test_variables_read_back(self):
        d = self._variables_dict()
        clone = SdpProblem.from_json_dict(d)
        assert clone.to_json_dict() == d and clone.nvars == 10

    def test_unknown_kind_refused(self):
        d = self._variables_dict()
        d["variables"][1]["kind"] = "hermitian"
        with pytest.raises(ArgumentError, match="unknown kind 'hermitian'"):
            SdpProblem.from_json_dict(d)

    @pytest.mark.parametrize("index,shape", [
        (0, [2, 3]), (1, [2, 2]), (1, [1, 2]), (2, [-1, 3]), (2, [2, -3]), (0, [-2, -2]),
        (2, [6])])
    def test_shape_that_does_not_fit_its_kind_refused(self, index, shape):
        # symmetric P, scalar t and matrix M
        d = self._variables_dict()
        d["variables"][index]["shape"] = shape
        with pytest.raises(DimensionError, match="does not fit kind"):
            SdpProblem.from_json_dict(d)

    @pytest.mark.parametrize("index,key,value", [
        (0, "offset", 1), (1, "offset", 2), (2, "offset", 5), (0, "size", 4), (2, "size", 5),
        (1, "size", 0)])
    def test_recorded_offset_and_size_must_match(self, index, key, value):
        d = self._variables_dict()
        d["variables"][index][key] = value
        with pytest.raises(DimensionError, match="recorded offset and size"):
            SdpProblem.from_json_dict(d)

    def test_roundtrip_verify_is_identical(self):
        rng = np.random.default_rng(5)
        for prob in self._problems().values():
            clone = SdpProblem.from_json_dict(prob.to_json_dict())
            for _ in range(3):
                x = rng.standard_normal(prob.nvars)
                assert clone.verify(x) == prob.verify(x)
