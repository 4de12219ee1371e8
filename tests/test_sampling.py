import numpy as np
import pytest

from iqcopt import sampling
from iqcopt.algorithms import (AlgorithmRealization, SectorBounds, StructuredControllerForm,
                               from_structured, lift, make_named)
from iqcopt.engines import h2_norm_linear
from iqcopt.errors import DimensionError, DivergenceError
from iqcopt.sampling import RandomFunctionSpec, sample_function, simulate_h2

BOUNDS = SectorBounds(1.0, 10.0)


def reference_simulate_h2(algo, spec, k_max, realizations, seed):
    """One draw, one dense update and one divergence check per step: the oracle."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    X = np.zeros((realizations, algo.n * algo.p))
    sums = np.zeros(k_max + 1)
    for k in range(k_max + 1):
        Y = X @ algo.D.T
        sums[k] = np.mean(np.sum(Y * Y, axis=1))
        W = rng.standard_normal(size=(realizations, algo.p))
        G = spec.gradient(X @ algo.C.T)
        X = X @ algo.A.T + (G + W) @ algo.B.T
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > sampling.DIVERGENCE_LIMIT:
            raise DivergenceError(f"trajectory diverged at step {k}")
    return float(np.sqrt(np.sum(sums) / k_max)), sums


def _dense_p2():
    """A two-state algorithm whose 2x2 gains are not of Kronecker form.

    Its loop is not stable on BOUNDS (spectral radius 1.09 at Q = I, 1.41 at
    Q = 10 I), so its runs leave DIVERGENCE_LIMIT after about 150 steps.
    """
    K1 = -np.array([[0.08, 0.02], [0.02, 0.05]])
    K2 = np.array([[0.1, 0.03], [-0.02, 0.05]])
    return from_structured(StructuredControllerForm((K1, K2)))


def _unstable(p):
    """x+ = 3x - 2x_prev + grad + noise, lifted to dimension p."""
    A = np.array([[3.0, -2.0], [1.0, 0.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    algo = AlgorithmRealization(A, B, C, C, np.array([[1.0], [1.0]]), n=2, p=1)
    return algo if p == 1 else lift(algo, p)


class TestSampleFunction:
    def test_degenerate_sector_quadratic(self):
        rng = np.random.default_rng(0)
        spec = sample_function(SectorBounds(3.0, 3.0), 2, "quadratic", rng)
        np.testing.assert_allclose(spec.Q, 3.0 * np.eye(2), atol=1e-12)

    def test_degenerate_sector_cosine(self):
        rng = np.random.default_rng(0)
        spec = sample_function(SectorBounds(3.0, 3.0), 1, "cosine", rng)
        assert spec.c1[0] == pytest.approx(3.0)
        assert spec.c2[0] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_endpoint_arithmetic(self):
        spec = RandomFunctionSpec(kind="cosine", p=1, c1=np.array([5.5]),
                                  c2=np.array([4.5]), omega=np.array([2.0]))
        lo, hi = spec.hessian_range()
        assert lo == pytest.approx(1.0) and hi == pytest.approx(10.0)

    @pytest.mark.parametrize("kind", ["quadratic", "cosine"])
    def test_hessian_range_within_sector(self, kind):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            spec = sample_function(BOUNDS, 2, kind, rng)
            lo, hi = spec.hessian_range()
            assert lo >= BOUNDS.m - 1e-9
            assert hi <= BOUNDS.L + 1e-9

    def test_cosine_hessian_on_grid(self):
        rng = np.random.default_rng(7)
        zgrid = np.linspace(-20.0, 20.0, 4001).reshape(-1, 1)
        for _ in range(50):
            spec = sample_function(BOUNDS, 1, "cosine", rng)
            hess = spec.c1 + spec.c2 * np.cos(spec.omega * zgrid)
            assert hess.min() >= BOUNDS.m - 1e-9
            assert hess.max() <= BOUNDS.L + 1e-9

    def test_gradient_vanishes_at_origin(self):
        rng = np.random.default_rng(5)
        for kind in ("quadratic", "cosine"):
            spec = sample_function(BOUNDS, 3, kind, rng)
            np.testing.assert_allclose(spec.gradient(np.zeros((1, 3))), 0.0,
                                       atol=1e-14)


class TestSimulateH2:
    def test_linear_case_matches_lyapunov(self):
        bounds = SectorBounds(1.0, 1.0)
        gd = make_named("gd", bounds)
        spec = RandomFunctionSpec(kind="quadratic", p=1, Q=np.array([[1.0]]))
        run = simulate_h2(gd, spec, k_max=5000, realizations=2000, seed=11)
        oracle = h2_norm_linear(gd.nominal_matrix(1.0), gd.B, gd.D)
        assert run.estimate == pytest.approx(oracle, rel=0.05)

    def test_objective_of_other_dimension_rejected(self):
        # a p=1 algorithm cannot step a p=2 objective
        spec = sample_function(BOUNDS, 2, "cosine", np.random.default_rng(0))
        with pytest.raises(DimensionError, match="p=2 must equal the algorithm dimension p=1"):
            simulate_h2(make_named("nm", BOUNDS), spec, k_max=10, realizations=2, seed=0)

    @pytest.mark.parametrize("kind", ["quadratic", "cosine"])
    @pytest.mark.parametrize("make, k_max", [(lambda: make_named("gd", BOUNDS), 500),
                                             (_dense_p2, 3 * sampling.BLOCK + 5)],
                             ids=["named-p1", "dense-p2"])
    def test_seeded_determinism(self, kind, make, k_max):
        # buffers reused within a run must not carry state into the next run
        algo = make()
        spec = sample_function(BOUNDS, algo.p, kind, np.random.default_rng(3))
        a = simulate_h2(algo, spec, k_max=k_max, realizations=50, seed=42)
        b = simulate_h2(algo, spec, k_max=k_max, realizations=50, seed=42)
        assert a.estimate == b.estimate  # bit-for-bit
        assert a.second_moments.tobytes() == b.second_moments.tobytes()

    @staticmethod
    def _assert_diverges_at_step_23(p):
        # step 23 lies inside a block, so the first bad step must be located
        algo = _unstable(p)
        spec = RandomFunctionSpec(kind="quadratic", p=p, Q=np.eye(p))
        with pytest.raises(DivergenceError, match="at step 23$"):
            reference_simulate_h2(algo, spec, k_max=2000, realizations=2, seed=1)
        with pytest.raises(DivergenceError, match="at step 23$"):
            simulate_h2(algo, spec, k_max=2000, realizations=2, seed=1)

    def test_divergence_detected(self):
        self._assert_diverges_at_step_23(1)

    def test_divergence_detected_on_kronecker_core(self):
        self._assert_diverges_at_step_23(2)

    @pytest.mark.parametrize("kind", ["quadratic", "cosine"])
    @pytest.mark.parametrize("make", [lambda: make_named("tmm", BOUNDS),
                                      lambda: make_named("nm", BOUNDS, 3),
                                      lambda: make_named("nm", BOUNDS, 8),
                                      _dense_p2],
                             ids=["named-p1", "named-p3", "named-p8", "dense-p2"])
    @pytest.mark.parametrize("k_max", [1, 2 * sampling.BLOCK + 5, 3 * sampling.BLOCK])
    def test_matches_reference_loop(self, kind, make, k_max):
        algo = make()
        spec = sample_function(BOUNDS, algo.p, kind, np.random.default_rng(k_max))
        estimate, sums = reference_simulate_h2(algo, spec, k_max, 7, 19)
        run = simulate_h2(algo, spec, k_max, 7, 19)
        np.testing.assert_allclose(run.estimate, estimate, rtol=1e-12, atol=0)
        np.testing.assert_allclose(run.second_moments, sums, rtol=1e-12, atol=0)

    def test_estimate_below_certified_bound_smoke(self):
        from iqcopt.engines import certify_h2
        from iqcopt.multipliers import ZamesFalbStructure
        gd = make_named("gd", BOUNDS)
        gamma = certify_h2(gd, BOUNDS, ZamesFalbStructure(4, 0, 1)).value
        rng = np.random.default_rng(17)
        for _ in range(5):
            spec = sample_function(BOUNDS, 1, "cosine", rng)
            run = simulate_h2(gd, spec, k_max=2000, realizations=200, seed=9)
            assert run.estimate <= gamma * 1.05
