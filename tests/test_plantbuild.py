import numpy as np
import pytest

from iqcopt.algorithms import SectorBounds, lift, make_named
from iqcopt.errors import DimensionError, UnsupportedError
from iqcopt.multipliers import ZamesFalbStructure, psi_delta_realization
from iqcopt.plantbuild import (build_perf_plant, build_rate_plant,
                               default_noise_channel, sector_loop,
                               structured_loop)
from iqcopt.statespace import StateSpace, eval_frequency
from reference_builders import kronecker_lift, rho_scale, series, stack_outputs, static_gain

BOUNDS = SectorBounds(1.0, 10.0)
GD = make_named("gd", BOUNDS)


class TestRatePlant:
    def test_dimensions(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        plant = build_rate_plant(GD, BOUNDS, st, 0.9)
        assert plant.n_c == 3
        assert plant.q_c == 5
        assert plant.p_c == 1
        assert plant.n_mult == 1

    def test_no_multiplier_states(self):
        st = ZamesFalbStructure(0, 0, 1, "unstructured", 0.9)
        plant = build_rate_plant(GD, BOUNDS, st, 0.9)
        Anom = GD.nominal_matrix(BOUNDS.m)
        np.testing.assert_allclose(plant.Ac, Anom / 0.9)

    def test_block_triangular_with_loop_last(self):
        st = ZamesFalbStructure(2, 1, 1, "unstructured", 0.85)
        plant = build_rate_plant(GD, BOUNDS, st, 0.85)
        Anom = GD.nominal_matrix(BOUNDS.m)
        np.testing.assert_allclose(plant.Ac[plant.n_mult:, plant.n_mult:],
                                   Anom / 0.85)
        np.testing.assert_allclose(plant.Ac[plant.n_mult:, :plant.n_mult], 0.0)

    @pytest.mark.parametrize("lc,la", [(1, 0), (2, 1), (0, 2)])
    def test_frequency_matches_series_composition(self, lc, la):
        """Independent oracle: psi_Delta composed with [G(rho z); I]."""
        rho = 0.9
        st = ZamesFalbStructure(lc, la, 1, "unstructured", rho)
        plant = build_rate_plant(GD, BOUNDS, st, rho)
        Anom = GD.nominal_matrix(BOUNDS.m)
        G = StateSpace(Anom, GD.B, GD.C, np.zeros((1, 1)))
        G_stack = stack_outputs(rho_scale(G, rho),
                                static_gain(np.eye(1)))
        psi = psi_delta_realization(st, BOUNDS.L - BOUNDS.m)
        ref = series(G_stack, psi)
        got = plant.as_statespace()
        for z in np.exp(1j * np.linspace(0, np.pi, 16)):
            np.testing.assert_allclose(eval_frequency(got, z),
                                       eval_frequency(ref, z), atol=1e-9)

    def test_structure_dimension_mismatch(self):
        st = ZamesFalbStructure(1, 0, 2, "unstructured", 0.9)
        with pytest.raises(DimensionError):
            build_rate_plant(GD, BOUNDS, st, 0.9)

    def test_kronecker_commutation(self):
        """Building on p=1 then lifting equals building on the lifted algorithm."""
        rho = 0.88
        st1 = ZamesFalbStructure(1, 1, 1, "unstructured", rho)
        st2 = ZamesFalbStructure(1, 1, 2, "unstructured", rho)
        plant1 = build_rate_plant(GD, BOUNDS, st1, rho)
        plant2 = build_rate_plant(lift(GD, 2), BOUNDS, st2, rho)
        lifted = kronecker_lift(plant1.as_statespace(), 2)
        # identical up to the fixed block permutation of interleaved states
        for z in np.exp(1j * np.linspace(0.1, np.pi, 8)):
            v1 = np.linalg.eigvalsh(
                (lambda F: F.conj().T @ F)(eval_frequency(lifted, z)))
            v2 = np.linalg.eigvalsh(
                (lambda F: F.conj().T @ F)(eval_frequency(plant2.as_statespace(), z)))
            np.testing.assert_allclose(v1, v2, atol=1e-8)


class TestPerfPlant:
    def test_noise_channel_block_layout(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
        plant = build_perf_plant(GD, BOUNDS, st, default_noise_channel(GD))
        np.testing.assert_allclose(plant.boldB2[: plant.n_mult], 0.0)
        np.testing.assert_allclose(plant.boldB2[plant.n_mult:], GD.B)

    def test_selector_recovers_channel(self):
        st = ZamesFalbStructure(2, 0, 1, "unstructured", 1.0)
        plant = build_perf_plant(GD, BOUNDS, st, default_noise_channel(GD))
        np.testing.assert_allclose(plant.N.T @ plant.boldB2, GD.B)
        assert plant.N.shape == (plant.n_c, plant.n_loop)

    def test_bold_a_equals_rate_plant_at_one(self):
        st = ZamesFalbStructure(1, 1, 1, "unstructured", 1.0)
        rate = build_rate_plant(GD, BOUNDS, st, 1.0)
        perf = build_perf_plant(GD, BOUNDS, st, default_noise_channel(GD))
        np.testing.assert_allclose(perf.boldA, rate.Ac, atol=1e-14)
        np.testing.assert_allclose(perf.boldB1, rate.Bc, atol=1e-14)
        np.testing.assert_allclose(perf.boldC1, rate.Cc, atol=1e-14)
        np.testing.assert_allclose(perf.boldD11, rate.Dc, atol=1e-14)

    def test_trivial_structure_reduces_to_closed_loop(self):
        st = ZamesFalbStructure(0, 0, 1, "unstructured", 1.0)
        plant = build_perf_plant(GD, BOUNDS, st, default_noise_channel(GD))
        np.testing.assert_allclose(plant.boldA, GD.nominal_matrix(BOUNDS.m))

    def test_perf_rows_select_algorithm_states(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
        plant = build_perf_plant(GD, BOUNDS, st, default_noise_channel(GD))
        np.testing.assert_allclose(plant.boldC2[:, :plant.n_mult], 0.0)
        np.testing.assert_allclose(plant.boldC2[:, plant.n_mult:], GD.D)

    def test_rejects_nonzero_dperf(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
        with pytest.raises(UnsupportedError):
            build_perf_plant(GD, BOUNDS, st, (GD.B, GD.D, np.eye(1)))


class TestLoops:
    def test_sector_loop_matches_nominal(self):
        loop = sector_loop(GD, BOUNDS)
        np.testing.assert_allclose(loop.Anom, GD.nominal_matrix(BOUNDS.m))
        assert loop.width == pytest.approx(9.0)

    def test_structured_loop_trivial_instance(self):
        """H1 = m I, T = I, [0, L-m] reproduces the plain sector loop."""
        loop_plain = sector_loop(GD, BOUNDS)
        loop_struct = structured_loop(GD, BOUNDS.m * np.eye(1), np.eye(1),
                                      0.0, BOUNDS.L - BOUNDS.m)
        np.testing.assert_allclose(loop_struct.Anom, loop_plain.Anom)
        np.testing.assert_allclose(loop_struct.Beff, loop_plain.Beff)
        np.testing.assert_allclose(loop_struct.Ceff, loop_plain.Ceff)
        assert loop_struct.width == pytest.approx(loop_plain.width)

    def test_structured_loop_channel_dims(self):
        T = np.array([[2.0, -7.0, 0.0, 5.0],
                      [-1.0, 4.0, -3.0, 2.0],
                      [0.0, -2.0, 1.0, 0.0]])
        H1 = np.diag([1.0, 2.0, 10.0, 4.0])
        algo = make_named("gd", SectorBounds(1.0, 90.0), p=4)
        loop = structured_loop(algo, H1, T, 1.0, 5.0)
        assert loop.channel_dim == 3
        assert loop.Beff.shape == (8, 3)

    @pytest.mark.parametrize("kind,p", [("gd", 1), ("nm", 2), ("tmm", 3)])
    def test_plants_carry_the_nominal_radius(self, kind, p):
        algo = make_named(kind, BOUNDS, p)
        radius = max(abs(np.linalg.eigvals(algo.nominal_matrix(BOUNDS.m))))
        st = ZamesFalbStructure(2, 1, p, "unstructured", 1.0)
        assert sector_loop(algo, BOUNDS).radius == radius
        assert build_rate_plant(algo, BOUNDS, st.with_rho(0.95), 0.95).nominal_radius == radius
        perf = build_perf_plant(algo, BOUNDS, st, default_noise_channel(algo))
        assert perf.nominal_radius == radius

    def test_explicit_loop_computes_its_radius(self):
        loop = structured_loop(GD, np.eye(1), np.eye(1), 0.5, 3.0)
        assert loop.radius == max(abs(np.linalg.eigvals(loop.Anom)))

    def test_radius_follows_m(self):
        algo = make_named("nm", BOUNDS, 1)
        for m in (1.0, 2.0, 1.0):
            want = max(abs(np.linalg.eigvals(algo.nominal_matrix(m))))
            assert algo.nominal_radius(m) == want
