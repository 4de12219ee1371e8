import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iqcopt.algorithms import (AlgorithmRealization, SectorBounds,
                               StructuredControllerForm, canonical_output,
                               check_equilibrium_conditions, from_structured,
                               from_json_dict, lift, make_named, known_rate,
                               nominal_closed_loop, reduce_to_scalar_block,
                               to_json_dict)
from iqcopt.errors import ArgumentError, DomainError, StructureError


class TestSectorBounds:
    def test_kappa(self):
        assert SectorBounds(1.0, 10.0).kappa == pytest.approx(10.0)

    @pytest.mark.parametrize("m,L", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_invalid(self, m, L):
        with pytest.raises(DomainError):
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
        _, radius = nominal_closed_loop(algo, bounds)
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
        M, radius = nominal_closed_loop(make_named("gd", bounds), bounds)
        np.testing.assert_allclose(M, [[9.0 / 11.0, 0.0], [1.0, 0.0]])
        assert radius == pytest.approx(9.0 / 11.0)

    def test_hb_kappa_one_deadbeat(self):
        bounds = SectorBounds(1.0, 1.0)
        _, radius = nominal_closed_loop(make_named("hb", bounds), bounds)
        assert radius == pytest.approx(0.0, abs=1e-12)

    def test_gd_radius_matches_table_rate(self):
        for kappa in (2.0, 10.0, 47.0):
            bounds = SectorBounds(1.0, kappa)
            _, radius = nominal_closed_loop(make_named("gd", bounds), bounds)
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


def test_known_rate_formulas():
    b = SectorBounds(1.0, 10.0)
    assert known_rate("gd", b) == pytest.approx(9.0 / 11.0)
    assert known_rate("tmm", b) == pytest.approx(1 - 1 / np.sqrt(10.0))
    assert known_rate("nm", b) == pytest.approx(np.sqrt(1 - np.sqrt(19.0) / 10.0))
    assert known_rate("hb", b) is None


def test_canonical_output_shapes():
    C, D, Dd = canonical_output(3, 2)
    assert C.shape == (2, 6) and Dd.shape == (6, 2)
    np.testing.assert_allclose(C @ Dd, np.eye(2))
