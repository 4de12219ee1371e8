import threading

import numpy as np
import pytest

from iqcopt import sampling
from iqcopt.algorithms import (AlgorithmRealization, SectorBounds, StructuredControllerForm,
                               from_structured, lift, make_named, reduce_to_scalar_block)
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


def serial_second_moments(algo, spec, k_max, realizations, seed):
    """simulate_h2's stepping on one thread, the whole noise stream drawn by one call.

    For algorithms stored as a Kronecker core; no divergence check.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    core, r, p = reduce_to_scalar_block(algo), realizations, algo.p
    A, B, C, D = core.A, core.B, core.C, core.D
    n, m = B.shape
    M = np.block([[A, B], [C @ A, C @ B], [D @ A, D @ B]])
    slots = np.zeros((sampling.BLOCK + 1, n + 2 * m, r * p))
    outputs = slots[:, n + m:]
    steps = [(slot[n:n + m].T.reshape(r, p), slot[:n + m], nxt)
             for slot, nxt in zip(slots, slots[1:])]
    noise = np.empty((k_max + 1, r, p))
    rng.standard_normal(out=noise)
    add_gradient = sampling._gradient_plus_noise(spec, r)
    sums = np.empty(k_max + 1)
    for k0 in range(0, k_max + 1, sampling.BLOCK):
        W = noise[k0:k0 + sampling.BLOCK]
        kb = len(W)
        for (z, xu, nxt), w in zip(steps, W):
            add_gradient(z, w)
            np.dot(M, xu, out=nxt)
        Y = outputs[:kb]
        sums[k0:k0 + kb] = np.einsum("kij,kij->k", Y, Y) / r
        slots[0] = slots[kb]
    return sums


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


_MAKES = {"named-p1": lambda: make_named("tmm", BOUNDS),
          "named-p3": lambda: make_named("nm", BOUNDS, 3),
          "named-p8": lambda: make_named("nm", BOUNDS, 8),
          "dense-p2": _dense_p2}
# (make, k_max) pairs; the last six run k_max + 1 = one chunk minus one
# step, one chunk and one chunk plus one step, at the test's 7 realizations
_REFERENCE_CASES = [
    *(pytest.param(make, k_max, id=f"{k_max}-{name}")
      for k_max in (1, 2 * sampling.BLOCK + 5, 3 * sampling.BLOCK)
      for name, make in _MAKES.items()),
    *(pytest.param(_MAKES[name], sampling.chunk_steps(7, p) + d, id=f"steps=chunk{d + 1:+d}-{name}")
      for name, p in (("named-p1", 1), ("named-p8", 8)) for d in (-2, -1, 0))]


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
        threads = threading.active_count()
        with pytest.raises(DivergenceError, match="at step 23$"):
            simulate_h2(algo, spec, k_max=2000, realizations=2, seed=1)
        # the noise worker, then drawing the next chunk, was joined
        assert threading.active_count() == threads

    def test_divergence_detected(self):
        self._assert_diverges_at_step_23(1)

    def test_divergence_detected_on_kronecker_core(self):
        self._assert_diverges_at_step_23(2)

    @pytest.mark.parametrize("kind", ["quadratic", "cosine"])
    @pytest.mark.parametrize("make, k_max", _REFERENCE_CASES)
    def test_matches_reference_loop(self, kind, make, k_max):
        algo = make()
        spec = sample_function(BOUNDS, algo.p, kind, np.random.default_rng(k_max))
        estimate, sums = reference_simulate_h2(algo, spec, k_max, 7, 19)
        run = simulate_h2(algo, spec, k_max, 7, 19)
        np.testing.assert_allclose(run.estimate, estimate, rtol=1e-12, atol=0)
        np.testing.assert_allclose(run.second_moments, sums, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["quadratic", "cosine"])
    @pytest.mark.parametrize("p", [1, 8])
    def test_same_bits_as_one_serial_draw(self, kind, p):
        # several chunks drawn on the worker, one draw on one thread: one stream
        algo = make_named("nm", BOUNDS, p)
        spec = sample_function(BOUNDS, p, kind, np.random.default_rng(p))
        k_max = 3 * sampling.chunk_steps(100, p) + 5
        run = simulate_h2(algo, spec, k_max, 100, 23)
        sums = serial_second_moments(algo, spec, k_max, 100, 23)
        assert run.second_moments.tobytes() == sums.tobytes()

    def test_no_thread_outlives_a_run(self):
        algo = make_named("nm", BOUNDS, 8)
        spec = sample_function(BOUNDS, 8, "cosine", np.random.default_rng(0))
        threads = threading.active_count()
        simulate_h2(algo, spec, 3 * sampling.chunk_steps(5, 8), 5, 0)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_worker_joined_when_the_stepping_raises(self, monkeypatch, error):
        gradient_plus_noise = sampling._gradient_plus_noise

        def failing(spec, realizations):
            add, calls = gradient_plus_noise(spec, realizations), []

            def add_or_raise(Z, W):
                calls.append(None)
                if len(calls) == 100:
                    raise error("stepping failed")
                add(Z, W)
            return add_or_raise

        monkeypatch.setattr(sampling, "_gradient_plus_noise", failing)
        algo = make_named("gd", BOUNDS)
        spec = sample_function(BOUNDS, 1, "quadratic", np.random.default_rng(0))
        threads = threading.active_count()
        with pytest.raises(error, match="stepping failed"):
            simulate_h2(algo, spec, 1000, 1000, 0)
        assert threading.active_count() == threads

    def test_worker_joined_when_the_draw_raises(self, monkeypatch):
        class SecondDrawFails:
            def __init__(self, bit_generator):
                self.draws = 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == 2:
                    raise MemoryError("draw failed")
                out[...] = 0.0

        algo = make_named("gd", BOUNDS)
        spec = sample_function(BOUNDS, 1, "quadratic", np.random.default_rng(0))
        monkeypatch.setattr(np.random, "default_rng", SecondDrawFails)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed"):
            simulate_h2(algo, spec, 3 * sampling.chunk_steps(1000, 1), 1000, 0)
        assert threading.active_count() == threads

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
