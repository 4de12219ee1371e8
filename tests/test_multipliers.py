import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iqcopt import multipliers
from iqcopt.algorithms import SectorBounds
from iqcopt.errors import DimensionError, DomainError
from iqcopt.multipliers import (CLASSES, LAYOUT_CACHE_SIZE, MEMBER_TOL, ZamesFalbParameters,
                                ZamesFalbStructure, m_delta_coefficients, m_delta_matrix,
                                membership_constraints, membership_rows,
                                psi_delta_realization, verify_membership)
from iqcopt.statespace import eval_frequency
from reference_builders import (composed_psi_delta_realization, factorize,
                                kernel_transfer, multiplier_value,
                                reference_psi_delta_realization,
                                reference_m_delta_coefficients,
                                reference_m_delta_matrix,
                                reference_matrices_from_theta,
                                reference_membership_constraints,
                                reference_tap_basis,
                                reference_theta_from_matrices,
                                reference_verify_membership)


def params_from_scalars(values, p=1):
    return ZamesFalbParameters(tuple(np.eye(p) * v for v in values))


class TestStructureFields:
    @pytest.mark.parametrize("args,field", [((1.5, 0), "ell_causal"),
                                            ((1, 0.5), "ell_anticausal"),
                                            ((1, 0, 2.0), "p")])
    def test_non_integer_shape_rejected(self, args, field):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            ZamesFalbStructure(*args)

    @pytest.mark.parametrize("lc,la,tiny,small", [(0, 0, 1e-320, 1e-300),
                                                  (2, 0, 1e-200, 1e-150),
                                                  (0, 3, 1e-110, 1e-100)])
    def test_rho_whose_inverse_power_overflows_refused(self, lc, la, tiny, small):
        """rho^-max(lc, la, 1) must be finite: 1e-150^-2 is, 1e-200^-2 is not."""
        with pytest.raises(DomainError, match=f"rho={tiny} is too small"):
            ZamesFalbStructure(lc, la, 1, "unstructured", tiny)
        assert ZamesFalbStructure(lc, la, 1, "unstructured", small).rho == small

    def test_numpy_integers_accepted(self):
        st = ZamesFalbStructure(np.int64(2), np.int64(1), np.int64(2), "repeated")
        assert st == ZamesFalbStructure(2, 1, 2, "repeated")
        assert st.parameter_count() == 16
        assert membership_rows(st)[0].shape == (18, 16)
        assert m_delta_coefficients(st).shape == (16, 14, 14)


def _fresh_layout_cache(monkeypatch):
    """An empty layout cache, so what other tests cached does not count."""
    cache = functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)(multipliers._Layout)
    monkeypatch.setattr(multipliers, "_layout", cache)
    return cache


class TestLayoutCache:
    def test_one_layout_per_shape(self, monkeypatch):
        _fresh_layout_cache(monkeypatch)
        st = ZamesFalbStructure(4, 3, 2, "nonrepeated", 0.8)
        coeffs = m_delta_coefficients(st)
        assert m_delta_coefficients(st.with_rho(0.6)) is coeffs
        assert m_delta_coefficients(ZamesFalbStructure(4, 3, 2, "nonrepeated")) is coeffs
        assert st.tap_basis()[1] is ZamesFalbStructure(4, 3, 2, "nonrepeated").tap_basis()[1]

    def test_least_recently_used_shape_dropped(self, monkeypatch):
        cache = _fresh_layout_cache(monkeypatch)
        first = weakref.ref(cache(0, 0, 1, "unstructured"))
        for lc in range(1, LAYOUT_CACHE_SIZE):
            cache(lc, 0, 1, "unstructured")
        gc.collect()
        assert first() is not None
        cache(LAYOUT_CACHE_SIZE, 0, 1, "unstructured")
        gc.collect()
        assert first() is None


class TestMembership:
    def test_feasible_causal_pair(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        # sums: 1 - 0.5*0.9 = 0.55 and 1 - 0.5/0.9 ~ 0.444
        assert verify_membership(params_from_scalars([-0.5, 1.0]), st)

    def test_infeasible_causal_pair(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.5)
        # 1 - 0.6/0.5 = -0.2 < 0
        assert not verify_membership(params_from_scalars([-0.6, 1.0]), st)

    def test_degenerate_zero_order(self):
        st = ZamesFalbStructure(0, 0, 1, "unstructured", 0.7)
        assert verify_membership(params_from_scalars([3.0]), st)
        assert not verify_membership(params_from_scalars([-1.0]), st)

    def test_positive_offdiagonal_tap_rejected(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        assert not verify_membership(params_from_scalars([0.1, 1.0]), st)

    def test_cone_scaling(self):
        st = ZamesFalbStructure(2, 1, 1, "unstructured", 0.85)
        vals = [-0.1, -0.2, 1.0, -0.3]
        assert verify_membership(params_from_scalars(vals), st)
        assert verify_membership(params_from_scalars([7.5 * v for v in vals]), st)

    def test_rho_one_is_classical(self):
        st = ZamesFalbStructure(2, 0, 1, "unstructured", 1.0)
        cons = membership_constraints(st)
        sums = [c for c in cons if c.label.startswith(("rowsum", "colsum"))]
        # with rho = 1 both weighted sums collapse to the plain sum
        np.testing.assert_allclose(sums[0].coeffs, sums[1].coeffs)

    def test_set_nesting(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = 2
            rho = rng.uniform(0.6, 1.0)
            m0 = rng.uniform(0.5, 2.0)
            m1 = -rng.uniform(0.0, m0 * min(rho, 1 / rho) * 0.99)
            params = params_from_scalars([m1, m0], p=p)
            un = ZamesFalbStructure(1, 0, p, "unstructured", rho)
            nr = ZamesFalbStructure(1, 0, p, "nonrepeated", rho)
            rp = ZamesFalbStructure(1, 0, p, "repeated", rho)
            assert verify_membership(params, un)
            assert verify_membership(params, nr)
            assert verify_membership(params, rp)

    def test_repeated_m0_offdiagonal_sign(self):
        st = ZamesFalbStructure(0, 0, 2, "repeated", 1.0)
        good = ZamesFalbParameters((np.array([[1.0, -0.2], [-0.3, 1.0]]),))
        bad = ZamesFalbParameters((np.array([[1.0, 0.2], [-0.3, 1.0]]),))
        assert verify_membership(good, st)
        assert not verify_membership(bad, st)

    def test_nonrepeated_requires_diagonal(self):
        st = ZamesFalbStructure(0, 0, 2, "nonrepeated", 1.0)
        full = ZamesFalbParameters((np.array([[1.0, -0.1], [0.0, 1.0]]),))
        assert not verify_membership(full, st)

    def test_nonrepeated_percoordinate_sums(self):
        st = ZamesFalbStructure(1, 0, 2, "nonrepeated", 0.5)
        # coordinate 2 violates its own weighted sum
        M1 = np.diag([-0.1, -0.9])
        M0 = np.diag([1.0, 1.0])
        assert not verify_membership(ZamesFalbParameters((M1, M0)), st)


class TestVerifyMembershipMatchesPerConstraint:
    """verify_membership over membership_rows gives the verdict of the
    per-object constraint loop, also a few tolerances either side of a
    row's bound. Both read a row's value as the fsum of its rounded
    products, so a row drawn exactly at its bound gets one verdict."""

    @settings(max_examples=400, deadline=None)
    @given(klass=st.sampled_from(CLASSES), p=st.integers(1, 3), lc=st.integers(0, 3),
           la=st.integers(0, 3), rho=st.sampled_from([1.0, 0.9, 0.37]),
           seed=st.integers(0, 2 ** 32 - 1), offset=st.floats(-3.0, 3.0),
           break_shape=st.booleans())
    # a '>=' row at its bound, where a BLAS mat-vec and a dot rounded to
    # different sides of the slack on an FMA kernel
    @example(klass="unstructured", p=1, lc=1, la=0, rho=0.9, seed=129, offset=1.0,
             break_shape=False)
    def test_same_verdict(self, klass, p, lc, la, rho, seed, offset, break_shape):
        structure = ZamesFalbStructure(lc, la, p, klass, rho)
        rows, senses, _ = membership_rows(structure)
        rng = np.random.default_rng(seed)
        # an admissible kernel: nonpositive sign-constrained entries and a
        # dominant diagonal of M_0 (the entries no sign row constrains)
        signed = rows[[s == "<=" for s in senses]].argmax(axis=1)
        theta = -0.1 * np.abs(rng.standard_normal(structure.parameter_count()))
        free = np.setdiff1d(np.arange(theta.size), signed)
        theta[free] = 1.0 + 30.0 * np.abs(theta).sum()
        # then move one entry of a random row so that the row sits `offset`
        # tolerances from its bound (inside for offset < 1)
        r = rng.integers(len(rows))
        k = rng.choice(np.flatnonzero(rows[r]))
        direction = 1.0 if senses[r] == "<=" else -1.0
        for _ in range(2):          # the tolerance scales with max |theta|
            slack = MEMBER_TOL * (1.0 + np.max(np.abs(theta)))
            theta[k] += (direction * offset * slack - rows[r] @ theta) / rows[r, k]
        Ms = structure.matrices_from_theta(theta)
        if break_shape and p > 1 and klass != "repeated":
            Ms[0][0, p - 1] += 1e-3
        params = ZamesFalbParameters(tuple(Ms))
        assert verify_membership(params, structure) == \
            reference_verify_membership(params, structure)


class TestFactorization:
    def test_dimensions(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        fac = factorize(params_from_scalars([-0.4, 1.0]), st, SectorBounds(1, 10))
        assert fac.M_Delta.shape == (5, 5)
        assert fac.psi_Delta.nx == 1
        assert fac.psi_Delta.ny == 5
        assert fac.psi_Delta.nu == 2

    def test_sector_only_matches_direct_product(self):
        st = ZamesFalbStructure(0, 0, 1, "unstructured", 1.0)
        bounds = SectorBounds(1.0, 10.0)
        params = params_from_scalars([1.0])
        fac = factorize(params, st, bounds)
        W = fac.W_hat
        expected = W.T @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ W
        for z in np.exp(1j * np.linspace(0, np.pi, 7)):
            psi = eval_frequency(fac.psi_Delta, z)
            got = psi.conj().T @ fac.M_Delta @ psi
            np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_identity_random_draws(self, p):
        rng = np.random.default_rng(2024)
        bounds = SectorBounds(0.5, 7.0)
        st = ZamesFalbStructure(2, 1, p, "repeated", 0.8)
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
        for _ in range(50 if p == 1 else 10):
            mats = []
            for i in st.indices():
                M = -rng.uniform(0.0, 0.2, size=(p, p))
                if i == 0:
                    M = M + np.diag(rng.uniform(1.0, 2.0, size=p))
                mats.append(M)
            params = ZamesFalbParameters(tuple(mats))
            fac = factorize(params, st, bounds)
            for z in zs[:16]:
                psi = eval_frequency(fac.psi_Delta, z)
                lhs = psi.conj().T @ fac.M_Delta @ psi
                rhs = multiplier_value(params, st, bounds, z)
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_kernel_transfer(self):
        st = ZamesFalbStructure(1, 1, 1, "unstructured", 1.0)
        params = params_from_scalars([-0.25, 1.0, -0.5])
        z = np.exp(0.3j)
        want = -0.25 / z + 1.0 - 0.5 * z
        got = kernel_transfer(params, st, z)[0, 0]
        assert got == pytest.approx(want)

    def test_m_delta_symmetric(self):
        st = ZamesFalbStructure(2, 2, 2, "repeated", 0.9)
        rng = np.random.default_rng(1)
        mats = tuple(rng.normal(size=(2, 2)) for _ in st.indices())
        MD = m_delta_matrix(ZamesFalbParameters(mats), st)
        np.testing.assert_allclose(MD, MD.T, atol=0)

    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("lc", range(4))
    @pytest.mark.parametrize("la", range(4))
    def test_psi_matches_reference_builder(self, lc, la, p, klass):
        st = ZamesFalbStructure(lc, la, p, klass, 0.9)
        # a width L - m other than 1, so that w and the unit entries differ
        bounds = SectorBounds(1.0, 1.0 + 0.1 * (7 + lc + 3 * la))
        got = psi_delta_realization(st, bounds.L - bounds.m)
        ref = composed_psi_delta_realization(st, bounds)
        for name in "ABCD":
            assert getattr(got, name).shape == getattr(ref, name).shape
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("width", [0.0, 1.0, 9.5, 999.0])
    def test_psi_from_the_layout_matches_a_fresh_build(self, p, width):
        for lc in range(4):
            for la in range(4):
                for klass in CLASSES:
                    st = ZamesFalbStructure(lc, la, p, klass, 0.9)
                    got = psi_delta_realization(st, width)
                    ref = reference_psi_delta_realization(st, width)
                    for name in "ABCD":
                        a, b = getattr(got, name), getattr(ref, name)
                        assert (a.shape, a.dtype) == (b.shape, b.dtype), (st, name)
                        assert a.tobytes() == b.tobytes(), (st, name)

    @pytest.mark.parametrize("lc,la,p", [(1, 0, 1), (6, 1, 1), (2, 3, 2), (0, 2, 3)])
    def test_psi_template_is_not_written_through(self, lc, la, p):
        st = ZamesFalbStructure(lc, la, p, "unstructured", 1.0)
        first = psi_delta_realization(st, 9.0)
        first.B[...] = 7.0
        first.D[...] = 7.0
        for psi in (psi_delta_realization(st, 9.0), psi_delta_realization(st.with_rho(0.5), 9.0)):
            ref = reference_psi_delta_realization(st, 9.0)
            for name in "ABCD":
                assert getattr(psi, name).tobytes() == getattr(ref, name).tobytes(), name
        layout = multipliers._layout(lc, la, p, "unstructured")
        for arr in (first.A, first.C, layout.psi_A, layout.psi_B, layout.psi_C, layout.psi_D,
                    layout.width_B, layout.width_D):
            assert not arr.flags.writeable
            if arr.size:
                with pytest.raises(ValueError):
                    arr.flat[0] = 1

    def test_psi_state_count(self):
        st = ZamesFalbStructure(3, 2, 2, "unstructured", 1.0)
        psi = psi_delta_realization(st, 3.0)
        assert psi.nx == (3 + 2) * 2
        assert psi.ny == 2 * (4 + 3 + 2)


class TestArraysMatchTapByTap:
    """The parameter layout built as arrays gives, byte for byte, the rows,
    coefficient stacks and kernel matrices built one tap at a time."""

    CASES = [(lc, la, p, klass) for klass in ("unstructured", "repeated", "nonrepeated")
             for lc, la, p in ((0, 0, 1), (1, 0, 1), (2, 1, 2), (0, 2, 3), (6, 1, 4))]

    @pytest.mark.parametrize("lc,la,p,klass", CASES)
    @pytest.mark.parametrize("rho", [1.0, 0.9, 0.37])
    def test_membership_rows(self, lc, la, p, klass, rho):
        st = ZamesFalbStructure(lc, la, p, klass, rho)
        got = membership_constraints(st)
        ref = reference_membership_constraints(st)
        assert len(got) == len(ref)
        for con, (coeffs, sense, rhs, label) in zip(got, ref):
            assert con.coeffs.tobytes() == coeffs.tobytes()
            assert (con.sense, con.rhs, con.label) == (sense, rhs, label)

    @pytest.mark.parametrize("lc,la", [(0, 0), (1, 0), (2, 1), (0, 2), (6, 0)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_cached_layout_through_with_rho(self, lc, la, p):
        def same(got, want):
            want = np.asarray(want)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

        # all three classes' layouts of the shape are cached side by side
        chains = {klass: ZamesFalbStructure(lc, la, p, klass) for klass in CLASSES}
        for rho in (1.0, 0.9, 0.5):
            for klass in CLASSES:
                st = chains[klass] = chains[klass].with_rho(rho)
                taps, E = st.tap_basis()
                basis = reference_tap_basis(st)
                same(taps, [i for i, _ in basis])
                same(E, [Eb for _, Eb in basis])
                coeffs = m_delta_coefficients(st)
                same(coeffs, reference_m_delta_coefficients(st))
                rows, senses, labels = membership_rows(st)
                cons = reference_membership_constraints(st)
                same(rows, [e for e, *_ in cons])
                assert list(senses) == [sense for _, sense, _, _ in cons]
                assert list(labels) == [label for *_, label in cons]
                for arr in (taps, E, coeffs, rows):
                    with pytest.raises(ValueError):
                        arr.flat[0] = 1.0

    @pytest.mark.parametrize("lc,la,p,klass", CASES)
    def test_m_delta_coefficients(self, lc, la, p, klass):
        st = ZamesFalbStructure(lc, la, p, klass, 0.9)
        assert m_delta_coefficients(st).tobytes() == reference_m_delta_coefficients(st).tobytes()

    @pytest.mark.parametrize("lc,la,p,klass", CASES)
    def test_matrices_from_theta(self, lc, la, p, klass):
        st = ZamesFalbStructure(lc, la, p, klass, 0.9)
        theta = np.random.default_rng(st.parameter_count()).standard_normal(
            st.parameter_count())
        theta[::3] = 0.0
        for got, ref in zip(st.matrices_from_theta(theta),
                            reference_matrices_from_theta(st, theta)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("lc,la,p,klass", CASES)
    def test_theta_and_m_delta_matrix(self, lc, la, p, klass):
        st = ZamesFalbStructure(lc, la, p, klass, 0.9)
        theta = np.random.default_rng(st.parameter_count()).standard_normal(
            st.parameter_count())
        theta[::2] = -0.0
        params = ZamesFalbParameters(tuple(st.matrices_from_theta(theta)))
        got = st.theta_from_matrices(params.M)
        assert got.tobytes() == reference_theta_from_matrices(st, params.M).tobytes()
        assert (m_delta_matrix(params, st).tobytes()
                == reference_m_delta_matrix(params, st).tobytes())

    @pytest.mark.parametrize("klass", ["unstructured", "nonrepeated"])
    def test_theta_rejects_what_the_reference_rejects(self, klass):
        st = ZamesFalbStructure(1, 1, 2, klass, 0.9)
        good = [np.diag([1.0, 1.0])] * 3
        for bad in (np.array([[1.0, 1e-3], [0.0, 1.0]]), np.diag([1.0, 2.0]), np.eye(3)):
            Ms = good[:1] + [bad] + good[2:]
            fails = []
            for read in (st.theta_from_matrices, lambda M: reference_theta_from_matrices(st, M)):
                try:
                    read(Ms)
                    fails.append(None)
                except DimensionError as e:
                    fails.append(str(e))
            assert fails[0] == fails[1]
