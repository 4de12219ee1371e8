import re

import numpy as np
import pytest
import scipy.linalg

from iqcopt.errors import DimensionError, DomainError, SingularityError
from iqcopt.statespace import StateSpace, eval_frequency
from reference_builders import (kronecker_lift, reference_eval_frequency, rho_scale, series,
                                stack_outputs, static_gain)


def rand_system(rng, nx, nu, ny, radius=0.8):
    A = rng.normal(size=(nx, nx))
    if nx:
        A *= radius / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
    return StateSpace(A, rng.normal(size=(nx, nu)), rng.normal(size=(ny, nx)),
                      rng.normal(size=(ny, nu)))


class TestSeries:
    def test_static_gains_multiply(self):
        g = series(static_gain(2.0), static_gain(3.0))
        assert g.nx == 0
        assert g.D[0, 0] == pytest.approx(6.0)

    def test_identity_preserves_response(self):
        sys = StateSpace(0.5, 1.0, 1.0, 0.0)
        chained = series(sys, static_gain(1.0))
        val = eval_frequency(chained, 2.0)[0, 0]
        assert val == pytest.approx(1.0 / (2.0 - 0.5))

    def test_second_states_first(self):
        first = StateSpace(0.5, 1.0, 1.0, 0.0)
        second = StateSpace(0.25, 2.0, 1.0, 0.0)
        combined = series(first, second)
        assert combined.A[0, 0] == pytest.approx(0.25)
        assert combined.A[1, 1] == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        a = static_gain(np.ones((2, 1)))
        b = static_gain(np.ones((2, 1)))
        with pytest.raises(DimensionError):
            series(a, b)

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(7)
        zs = np.exp(1j * np.linspace(0.1, np.pi, 16))
        for _ in range(5):
            g1 = rand_system(rng, 2, 1, 2)
            g2 = rand_system(rng, 3, 2, 2)
            g3 = rand_system(rng, 1, 2, 1)
            left = series(series(g1, g2), g3)
            right = series(g1, series(g2, g3))
            for z in zs:
                np.testing.assert_allclose(eval_frequency(left, z),
                                           eval_frequency(right, z), atol=1e-10)


class TestRhoScale:
    def test_rho_one_is_identity(self):
        sys = StateSpace(0.5, 1.0, 1.0, 0.0)
        out = rho_scale(sys, 1.0)
        np.testing.assert_allclose(out.A, sys.A)
        np.testing.assert_allclose(out.B, sys.B)

    def test_hand_value(self):
        sys = StateSpace(0.5, 1.0, 1.0, 0.0)
        out = rho_scale(sys, 0.5)
        assert out.A[0, 0] == pytest.approx(1.0)
        assert out.B[0, 0] == pytest.approx(2.0)
        # result(3) == sys(0.5*3) = 1/(1.5-0.5)
        assert eval_frequency(out, 3.0)[0, 0] == pytest.approx(1.0)

    def test_matches_substitution_at_random_points(self):
        rng = np.random.default_rng(3)
        sys = rand_system(rng, 3, 2, 2)
        out = rho_scale(sys, 0.7)
        for _ in range(32):
            z = rng.normal() + 1j * rng.normal()
            if abs(z) < 0.3:
                continue
            try:
                lhs = eval_frequency(out, z)
                rhs = eval_frequency(sys, 0.7 * z)
            except SingularityError:
                continue
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(rhs).max()))

    def test_composition_law(self):
        rng = np.random.default_rng(11)
        sys = rand_system(rng, 2, 1, 1)
        twice = rho_scale(rho_scale(sys, 0.8), 0.5)
        once = rho_scale(sys, 0.4)
        for z in np.exp(1j * np.linspace(0.2, 3.0, 8)):
            np.testing.assert_allclose(eval_frequency(twice, z),
                                       eval_frequency(once, z), atol=1e-10)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(DomainError):
            rho_scale(StateSpace(0.5, 1.0, 1.0, 0.0), 0.0)


class TestKroneckerLift:
    def test_p_one_unchanged(self):
        sys = StateSpace(0.9, 1.0, 1.0, 0.0)
        out = kronecker_lift(sys, 1)
        np.testing.assert_allclose(out.A, sys.A)

    def test_scalar_becomes_identity_multiple(self):
        out = kronecker_lift(StateSpace(0.9, 1.0, 1.0, 0.0), 3)
        np.testing.assert_allclose(out.A, 0.9 * np.eye(3))

    def test_spectral_radius_preserved(self):
        rng = np.random.default_rng(5)
        sys = rand_system(rng, 3, 1, 1)
        lifted = kronecker_lift(sys, 2)
        r0 = np.max(np.abs(np.linalg.eigvals(sys.A)))
        r1 = np.max(np.abs(np.linalg.eigvals(lifted.A)))
        assert r1 == pytest.approx(r0, rel=1e-12)


class TestEvalFrequency:
    def test_static_returns_d(self):
        sys = static_gain([[1.0, 2.0]])
        np.testing.assert_allclose(eval_frequency(sys, 123.0), [[1.0, 2.0]])

    def test_real_point(self):
        sys = StateSpace(0.5, 1.0, 1.0, 0.0)
        assert eval_frequency(sys, 1.0)[0, 0] == pytest.approx(2.0)

    def test_complex_point(self):
        sys = StateSpace(0.5, 1.0, 1.0, 0.0)
        val = eval_frequency(sys, 1j)[0, 0]
        assert val == pytest.approx(1.0 / (1j - 0.5))
        assert val.real == pytest.approx(-0.4)
        assert val.imag == pytest.approx(-0.8)

    def test_pole_rejected(self):
        sys = StateSpace(0.5, 1.0, 1.0, 0.0)
        with pytest.raises(SingularityError):
            eval_frequency(sys, 0.5)

    def test_near_pole_evaluated(self):
        # sigma_min(zI - A) = 1e-12 lies below an absolute guard of
        # 1e-12 (1 + |z| + ||A||), yet z = 1 is not a pole
        sys = StateSpace(1.0 - 1e-12, 1.0, 1.0, 0.0)
        assert eval_frequency(sys, 1.0)[0, 0].real == pytest.approx(1e12, rel=1e-3)

    def test_rounding_pole_rejected(self):
        # at a computed eigenvalue zI - A is singular to rounding, but no
        # LU pivot is exactly zero and the solve's backward error is tiny
        A = np.array([[0.0, 1.0], [0.3, 0.4]])
        sys = StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]], 0.0)
        for z in np.linalg.eigvals(A):
            U = scipy.linalg.lu(z * np.eye(2) - A)[2]
            assert np.all(np.diag(U) != 0.0)
            with pytest.raises(SingularityError):
                eval_frequency(sys, complex(z))


class TestEvalFrequencyOnArrays:
    """An array of points gives the stack of the scalar calls, bit for bit."""

    POINTS = np.exp(2j * np.pi * np.arange(16) / 16) * np.linspace(0.9, 1.3, 16)

    @pytest.mark.parametrize("nx,nu,ny", [(0, 2, 3), (1, 1, 1), (4, 2, 3), (9, 1, 11)])
    def test_matches_scalar_calls(self, nx, nu, ny):
        sys = rand_system(np.random.default_rng(nx), nx, nu, ny)
        stack = eval_frequency(sys, self.POINTS)
        assert stack.shape == (self.POINTS.size, ny, nu)
        for z, value in zip(self.POINTS, stack):
            assert value.tobytes() == eval_frequency(sys, z).tobytes()
            assert np.array_equal(value, reference_eval_frequency(sys, z))

    def test_scalar_keeps_its_shape(self):
        sys = rand_system(np.random.default_rng(3), 3, 2, 4)
        assert eval_frequency(sys, 0.5j).shape == (4, 2)
        assert eval_frequency(sys, np.array([0.5j])).shape == (1, 4, 2)

    def test_pole_in_array_raises(self):
        # the eigenvalues of test_rounding_pole_rejected, among regular points
        A = np.array([[0.0, 1.0], [0.3, 0.4]])
        sys = StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]], 0.0)
        for pole in np.linalg.eigvals(A):
            zs = np.concatenate([self.POINTS[:5], [pole], self.POINTS[5:]])
            with pytest.raises(SingularityError, match=re.escape(f"z={zs[5]} ")):
                eval_frequency(sys, zs)


def test_stack_outputs_vertical():
    top = StateSpace(0.5, 1.0, 1.0, 0.0)
    bottom = static_gain(1.0)
    both = stack_outputs(top, bottom)
    val = eval_frequency(both, 2.0)
    assert val[0, 0] == pytest.approx(1.0 / 1.5)
    assert val[1, 0] == pytest.approx(1.0)
