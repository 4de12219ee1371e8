import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iqcopt import algorithms
from iqcopt.algorithms import (KINDS, AlgorithmRealization, SectorBounds,
                               StructuredControllerForm, canonical_output,
                               check_equilibrium_conditions, from_structured,
                               from_json_dict, kronecker_factor, lift, make_named,
                               reduce_to_scalar_block, to_json_dict)
from iqcopt.errors import ArgumentError, DimensionError, DomainError, StructureError
from iqcopt.sampling import sample_function, simulate_h2
from reference_builders import reference_lift_matrices, reference_named_matrices

MATRICES = ("A", "B", "C", "D", "Ddagger")



class TestSectorBounds:
    def test_kappa(self):
        assert SectorBounds(1.0, 10.0).kappa == pytest.approx(10.0)

    @pytest.mark.parametrize("m,L", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_invalid(self, m, L):
        with pytest.raises(DomainError):
            SectorBounds(m, L)

    @pytest.mark.parametrize("m,L", [(1.0, np.inf), (np.inf, np.inf), (1.0, np.nan),
                                     (np.nan, 1.0), (-np.inf, 1.0)])
    def test_not_finite(self, m, L):
        with pytest.raises(DomainError, match="m and L must be finite"):
            SectorBounds(m, L)


class TestNamed:
    def test_gd_table_values(self):
        algo = make_named("gd", SectorBounds(1.0, 10.0))
        np.testing.assert_allclose(algo.A, [[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(algo.B, [[-2.0 / 11.0], [0.0]])
        np.testing.assert_allclose(algo.C, [[1.0, 0.0]])

    def test_tmm_internal_rho(self):
        algo = make_named("tmm", SectorBounds(1.0, 100.0))
        # nu1 = (1 + rho)/L with rho = 1 - 1/sqrt(kappa) = 0.9
        assert algo.B[0, 0] == pytest.approx(-1.9 / 100.0)

    def test_gd_matched_sector_is_deadbeat(self):
        bounds = SectorBounds(2.0, 2.0)
        algo = make_named("gd", bounds)
        assert algo.B[0, 0] == pytest.approx(-1.0 / 2.0)
        radius = algo.nominal_radius(bounds.m)
        assert radius == pytest.approx(0.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError):
            make_named("adam", SectorBounds(1.0, 10.0))

    def test_equilibrium_holds_for_all_kinds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.uniform(0.1, 5.0)
            L = m * rng.uniform(1.0, 100.0)
            for kind in ("gd", "nm", "nm_mod", "tmm", "hb"):
                algo = make_named(kind, SectorBounds(m, L))
                ok, _ = check_equilibrium_conditions(
                    algo.A, algo.B, algo.C, algo.D, algo.Ddagger)
                assert ok

    def test_nm_modified_momentum_differs(self):
        b = SectorBounds(1.0, 10.0)
        nm = make_named("nm", b)
        nm_mod = make_named("nm_mod", b)
        assert nm.A[0, 0] != pytest.approx(nm_mod.A[0, 0])


class TestEquilibrium:
    def test_given_ddagger(self):
        algo = make_named("gd", SectorBounds(1.0, 10.0))
        ok, X = check_equilibrium_conditions(algo.A, algo.B, algo.C, algo.D,
                                             algo.Ddagger)
        assert ok

    def test_solved_ddagger_unique(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        C = np.array([[1.0, 0.0]])
        ok, X = check_equilibrium_conditions(A, None, C, C)
        assert ok
        np.testing.assert_allclose(X, [[1.0], [1.0]], atol=1e-9)

    def test_contradiction_detected(self):
        # A = 0 scalar forces Ddagger = 0, contradicting D Ddagger = 1
        ok, X = check_equilibrium_conditions([[0.0]], None, [[1.0]], [[1.0]])
        assert not ok and X is None

    def test_realization_owns_read_only_copies(self):
        # the constructor's check must keep holding: the caller's arrays
        # are copied, and the stored ones cannot be written
        gd = make_named("gd", SectorBounds(1.0, 10.0))
        A = np.array(gd.A)
        algo = AlgorithmRealization(A, gd.B, gd.C, gd.D, gd.Ddagger, n=2, p=1)
        A[0, 0] = 5.0
        np.testing.assert_array_equal(algo.A, gd.A)
        with pytest.raises(ValueError):
            algo.A[0, 0] = 1.0


class TestNominal:
    def test_gd_matrix_and_radius(self):
        bounds = SectorBounds(1.0, 10.0)
        algo = make_named("gd", bounds)
        M, radius = algo.nominal_matrix(bounds.m), algo.nominal_radius(bounds.m)
        np.testing.assert_allclose(M, [[9.0 / 11.0, 0.0], [1.0, 0.0]])
        assert radius == pytest.approx(9.0 / 11.0)

    def test_hb_kappa_one_deadbeat(self):
        bounds = SectorBounds(1.0, 1.0)
        radius = make_named("hb", bounds).nominal_radius(bounds.m)
        assert radius == pytest.approx(0.0, abs=1e-12)

    def test_gd_radius_matches_table_rate(self):
        for kappa in (2.0, 10.0, 47.0):
            bounds = SectorBounds(1.0, kappa)
            radius = make_named("gd", bounds).nominal_radius(bounds.m)
            assert radius == pytest.approx((kappa - 1) / (kappa + 1), rel=1e-12)


class TestStructuredForm:
    def test_n1_is_gradient_descent(self):
        alpha = 0.3
        algo = from_structured(StructuredControllerForm((np.array([[-alpha]]),)))
        np.testing.assert_allclose(algo.A, [[1.0]])
        np.testing.assert_allclose(algo.B, [[-alpha]])

    def test_n2_zero_gains(self):
        form = StructuredControllerForm((np.zeros((1, 1)), np.zeros((1, 1))))
        algo = from_structured(form)
        np.testing.assert_allclose(algo.A, [[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(algo.B, [[0.0], [0.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10_000))
    def test_equilibrium_by_construction(self, n, p, seed):
        rng = np.random.default_rng(seed)
        form = StructuredControllerForm(
            tuple(rng.normal(size=(p, p)) for _ in range(n)))
        algo = from_structured(form)
        ok, _ = check_equilibrium_conditions(algo.A, algo.B, algo.C, algo.D,
                                             algo.Ddagger)
        assert ok


class TestKroneckerHelpers:
    def test_lift_reduce_roundtrip(self):
        algo = make_named("tmm", SectorBounds(1.0, 25.0))
        lifted = lift(algo, 3)
        back = reduce_to_scalar_block(lifted)
        np.testing.assert_allclose(back.A, algo.A)
        np.testing.assert_allclose(back.B, algo.B)

    def test_lifted_matches_direct_construction(self):
        b = SectorBounds(1.0, 10.0)
        np.testing.assert_allclose(lift(make_named("gd", b), 2).A,
                                   make_named("gd", b, p=2).A)

    def test_reduce_rejects_non_kronecker(self):
        algo = make_named("gd", SectorBounds(1.0, 10.0), p=2)
        A = algo.A.copy()
        A[0, 1] = 0.37
        with pytest.raises(StructureError):
            from iqcopt.algorithms import kronecker_factor
            kronecker_factor(A, 2)


class TestKroneckerCore:
    """Named and lifted realizations store the p=1 core and lift on read."""

    BOUNDS = SectorBounds(1.0, 37.0)

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_matrices_are_the_kron_lift(self, kind, p):
        algo = make_named(kind, self.BOUNDS, p)
        assert algo.q == p
        for name, want in zip(MATRICES, reference_named_matrices(kind, self.BOUNDS, p)):
            got = getattr(algo, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable
            assert getattr(algo, name) is got     # built once

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_lift_is_the_kron_lift(self, kind, p):
        core = make_named(kind, self.BOUNDS)
        lifted = lift(core, p)
        assert (lifted.n, lifted.p, lifted.q) == (2, p, p)
        for name, want in zip(MATRICES, reference_lift_matrices(core, p)):
            assert getattr(lifted, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_reduce_returns_the_stored_core(self, kind, p, monkeypatch):
        def no_search(M, p):
            raise AssertionError("kronecker_factor searched a stored core")

        monkeypatch.setattr(algorithms, "kronecker_factor", no_search)
        core = reduce_to_scalar_block(make_named(kind, self.BOUNDS, p))
        want = make_named(kind, self.BOUNDS)
        assert (core.n, core.p, core.q) == (2, 1, 1)
        for name in MATRICES:
            assert getattr(core, name).tobytes() == getattr(want, name).tobytes(), name

    def test_reduce_returns_one_core_per_algorithm(self):
        # rate probes on the core share its kept plant part and nominal radius
        lifted = make_named("nm", self.BOUNDS, 2)
        assert reduce_to_scalar_block(lifted) is reduce_to_scalar_block(lifted)
        dense = AlgorithmRealization(*reference_named_matrices("nm", self.BOUNDS, 2),
                                     n=2, p=2)
        assert reduce_to_scalar_block(dense) is reduce_to_scalar_block(dense)

    def test_dense_input_is_factored(self):
        dense = AlgorithmRealization(*reference_named_matrices("nm", self.BOUNDS, 3),
                                     n=2, p=3)
        assert dense.q == 1
        core = reduce_to_scalar_block(dense)
        for name in MATRICES:
            assert (getattr(core, name).tobytes()
                    == getattr(make_named("nm", self.BOUNDS), name).tobytes())

    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_json_unchanged(self, kind, p):
        want = dict(zip(MATRICES, (M.tolist() for M in
                                   reference_named_matrices(kind, self.BOUNDS, p))))
        want = {"n": 2, "p": p, **want}
        assert (json.dumps(to_json_dict(make_named(kind, self.BOUNDS, p)), indent=1)
                == json.dumps(want, indent=1))

    def test_large_p_builds_no_dense_matrix(self):
        tracemalloc.start()
        try:
            algo = make_named("nm", self.BOUNDS, 4096)
            spec = sample_function(self.BOUNDS, 4096, "cosine", np.random.default_rng(3))
            run = simulate_h2(algo, spec, 20, 2, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(run.estimate)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_equilibrium_tolerance_is_the_dense_one(self):
        # a core residual r passes at q when r <= EQ_TOL (1 + sqrt(q) ||Abar||_F),
        # the bound the dense check puts on kron(Abar, I_q)
        Abar = np.array([[1.0, 0.0], [1.0, 0.0]])
        B, C = np.zeros((2, 1)), np.array([[1.0, 0.0]])
        for q in (1, 4, 16):
            for scale, ok in ((0.9, True), (1.1, False)):
                eps = scale * algorithms.EQ_TOL * (1.0 + np.sqrt(q) * np.linalg.norm(Abar))
                core = (Abar, B, C, C, np.array([[1.0], [1.0 + eps]]))
                dense = [np.kron(M, np.eye(q)) for M in core]
                assert check_equilibrium_conditions(*dense)[0] == ok
                if ok:
                    AlgorithmRealization(*core, n=2, p=q, q=q)
                else:
                    with pytest.raises(DimensionError):
                        AlgorithmRealization(*core, n=2, p=q, q=q)

    def test_immutable(self):
        algo = make_named("gd", self.BOUNDS, 3)
        with pytest.raises(AttributeError):
            algo.A = np.eye(6)
        with pytest.raises(AttributeError):
            algo.q = 1

    @pytest.mark.parametrize("p", [0, -3])
    def test_nonpositive_p_is_a_domain_error(self, p):
        with pytest.raises(DomainError, match="p must be a positive integer"):
            make_named("nm", self.BOUNDS, p)
        with pytest.raises(DomainError, match="p must be a positive integer"):
            lift(make_named("nm", self.BOUNDS), p)

    def test_lift_factor_must_divide_p(self):
        with pytest.raises(DimensionError):
            AlgorithmRealization([[1.0]], [[-0.1]], [[1.0]], [[1.0]], [[1.0]], n=1, p=3, q=2)


class TestKroneckerFactor:
    def test_per_block_tolerance(self):
        # block (i, j) may deviate from Mbar_ij I_p by 1e-12 (1 + |Mbar_ij|)
        Mbar = np.array([[3.0, 0.0], [-1.0, 2.0]])
        for i, j in np.ndindex(2, 2):
            for scale, ok in ((0.5, True), (2.0, False)):
                M = np.kron(Mbar, np.eye(3))
                M[3 * i + 1, 3 * j + 2] += scale * 1e-12 * (1 + abs(Mbar[i, j]))
                if ok:
                    assert kronecker_factor(M, 3).tobytes() == Mbar.tobytes()
                else:
                    with pytest.raises(StructureError,
                                       match=r"not of Kronecker form Mbar \(x\) I_p"):
                        kronecker_factor(M, 3)

    def test_rectangular_and_shape_errors(self):
        Mbar = np.array([[1.5], [-2.0]])
        np.testing.assert_array_equal(kronecker_factor(np.kron(Mbar, np.eye(4)), 4), Mbar)
        with pytest.raises(StructureError, match="not divisible by p=3"):
            kronecker_factor(np.eye(4), 3)


class TestJson:
    def test_roundtrip(self, tmp_path):
        algo = make_named("nm", SectorBounds(1.0, 30.0))
        d = to_json_dict(algo)
        back = from_json_dict(json.loads(json.dumps(d)))
        np.testing.assert_allclose(back.A, algo.A)
        np.testing.assert_allclose(back.Ddagger, algo.Ddagger)

    def test_named_form(self):
        algo = from_json_dict({"kind": "tmm", "m": 1.0, "L": 100.0, "p": 1})
        ref = make_named("tmm", SectorBounds(1.0, 100.0))
        np.testing.assert_allclose(algo.A, ref.A)

    def test_missing_ddagger_is_solved(self):
        algo = make_named("gd", SectorBounds(1.0, 10.0))
        d = to_json_dict(algo)
        del d["Ddagger"]
        back = from_json_dict(d)
        np.testing.assert_allclose(back.Ddagger, algo.Ddagger, atol=1e-9)

    @pytest.mark.parametrize("name,bad,with_ddagger", [
        ("A", np.inf, True), ("A", np.inf, False), ("B", np.nan, True), ("B", np.nan, False),
        ("Ddagger", -np.inf, True)])
    def test_non_finite_entry_is_a_domain_error(self, name, bad, with_ddagger):
        """An inf in A passes the equilibrium check with Ddagger given, and
        without it the least-squares solve fails inside LAPACK."""
        d = to_json_dict(make_named("gd", SectorBounds(1.0, 10.0)))
        d[name][-1][-1] = bad
        if not with_ddagger:
            del d["Ddagger"]
        with pytest.raises(DomainError, match=f"{name} has a non-finite entry"):
            from_json_dict(json.loads(json.dumps(d)))

    @pytest.mark.parametrize("entry,value", [
        ("A", "x"), ("A", [[1, 2], [3]]), ("Ddagger", "q"), ("n", "two"), ("p", None),
        ("n", 2.9), ("p", 1.5), ("n", float("inf"))])
    def test_malformed_entry_is_a_domain_error(self, entry, value):
        d = {**to_json_dict(make_named("gd", SectorBounds(1.0, 10.0))), entry: value}
        with pytest.raises(DomainError, match=f"entry '{entry}' is malformed"):
            from_json_dict(json.loads(json.dumps(d)))

    def test_malformed_named_form_and_non_object_are_domain_errors(self):
        with pytest.raises(DomainError, match="entry 'm' is malformed"):
            from_json_dict({"kind": "gd", "m": "x", "L": 10.0})
        with pytest.raises(DomainError, match="entry 'm' is malformed: int too large"):
            from_json_dict({"kind": "gd", "m": 10 ** 400, "L": 10.0})
        with pytest.raises(DomainError, match="entry 'p' is malformed: 2.7 is not an integer"):
            from_json_dict({"kind": "nm", "m": 1, "L": 10, "p": 2.7})
        assert from_json_dict({"kind": "nm", "m": 1, "L": 10, "p": 2.0}).p == 2
        with pytest.raises(ArgumentError, match="unknown algorithm kind"):
            from_json_dict({"kind": 5, "m": 1.0, "L": 10.0})
        with pytest.raises(DomainError, match="a JSON object, not a list"):
            from_json_dict([to_json_dict(make_named("gd", SectorBounds(1.0, 10.0)))])

    def test_constructor_refuses_non_finite_core(self):
        with pytest.raises(DomainError, match="C has a non-finite entry"):
            AlgorithmRealization([[1.0]], [[-0.1]], [[np.nan]], [[1.0]], [[1.0]], n=1, p=2, q=2)


def test_canonical_output_shapes():
    C, D, Dd = canonical_output(3, 2)
    assert C.shape == (2, 6) and Dd.shape == (6, 2)
    np.testing.assert_allclose(C @ Dd, np.eye(2))


@pytest.mark.parametrize("n", [0, -1])
def test_canonical_output_refuses_nonpositive_n(n):
    with pytest.raises(DomainError, match=f"n must be a positive integer, got {n}"):
        canonical_output(n, 2)
