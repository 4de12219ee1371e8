import dataclasses
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from iqcopt import lmi, plantbuild
from iqcopt.algorithms import SectorBounds, lift, make_named
from iqcopt.errors import DimensionError, UnsupportedError
from iqcopt.multipliers import CLASSES, ZamesFalbStructure, psi_delta_realization
from iqcopt.plantbuild import (build_perf_plant, build_rate_plant,
                               default_noise_channel, sector_loop,
                               structured_loop)
from iqcopt.statespace import StateSpace, eval_frequency
from reference_builders import (kronecker_lift, reference_build_perf_plant,
                                reference_build_rate_plant, rho_scale, series,
                                stack_outputs, static_gain)

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
    @pytest.mark.parametrize("lc", [1, 2])
    def test_noise_channel_block_layout(self, lc):
        """boldB2 is zero on the multiplier states, and boldB2[n_mult:], the
        slice the H2 Schur block reads, is B_perf bit for bit."""
        st = ZamesFalbStructure(lc, 0, 1, "unstructured", 1.0)
        plant = build_perf_plant(GD, BOUNDS, st, default_noise_channel(GD))
        assert plant.boldB2.shape == (plant.n_c, plant.n_wp)
        np.testing.assert_array_equal(plant.boldB2[: plant.n_mult], 0.0)
        assert plant.boldB2[plant.n_mult:].tobytes() == GD.B.tobytes()

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


def _assert_same_plant(got, ref):
    """Every field equal; arrays in shape, dtype and bytes (signed zeros too)."""
    assert type(got) is type(ref)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), f.name
        elif f.name not in ("loop", "part"):
            assert a == b, f.name
    assert got.nominal_radius == ref.nominal_radius


def _bisection_rhos(algo, bounds, probes=12):
    """rho = 1, then the midpoints of a bisection on [radius, 1]."""
    lo = algo.nominal_radius(bounds.m) + 1e-6
    rho_star, hi, rhos = lo + 0.3 * (1.0 - lo), 1.0, [1.0]
    for _ in range(probes - 1):
        mid = 0.5 * (lo + hi)
        rhos.append(mid)
        hi, lo = (mid, lo) if mid >= rho_star else (hi, mid)
    return rhos


def _certification_plants(algo, bounds, st):
    """The plants of one certification (12 rate probes, then H2), each paired
    with the plant built afresh by the reference builder."""
    pairs = []
    for rho in _bisection_rhos(algo, bounds):
        args = (algo, bounds, st.with_rho(rho), rho)
        pairs.append((build_rate_plant(*args), reference_build_rate_plant(*args)))
    args = (algo, bounds, st.with_rho(1.0), default_noise_channel(algo))
    pairs.append((build_perf_plant(*args), reference_build_perf_plant(*args)))
    return pairs


class TestKeptRhoFreePart:
    """build_rate_plant and build_perf_plant keep the rho-free part of the
    last configuration; every plant is the one built afresh, byte for byte."""

    @pytest.mark.parametrize("lc,la", [(0, 0), (1, 0), (6, 1), (2, 3)])
    @pytest.mark.parametrize("klass", CLASSES)
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["gd", "nm", "tmm", "hb"])
    def test_certification_plants_match_reference(self, kind, p, klass, lc, la):
        bounds = SectorBounds(1.0, 25.0)
        algo = make_named(kind, bounds, p)
        for got, ref in _certification_plants(algo, bounds,
                                              ZamesFalbStructure(lc, la, p, klass)):
            _assert_same_plant(got, ref)

    def test_no_stale_part(self):
        """Interleaved algorithms, bounds and shapes: each plant is fresh."""
        b1, b2 = SectorBounds(1.0, 10.0), SectorBounds(2.0, 10.0)
        nm, gd = make_named("nm", b1, 2), make_named("gd", b1, 2)
        st = ZamesFalbStructure(2, 1, 2)
        steps = [(nm, b1, st), (gd, b1, st), (nm, b1, st),
                 (nm, b2, st), (nm, SectorBounds(1.0, 40.0), st), (nm, b1, st),
                 (nm, b1, ZamesFalbStructure(3, 1, 2)), (nm, b1, ZamesFalbStructure(2, 0, 2)),
                 (nm, b1, ZamesFalbStructure(2, 1, 2, "repeated")),
                 (gd, b2, ZamesFalbStructure(2, 1, 2, "nonrepeated")), (nm, b1, st)]
        for algo, bounds, shape in steps:
            for rho in (1.0, 0.97):
                args = (algo, bounds, shape.with_rho(rho), rho)
                _assert_same_plant(build_rate_plant(*args), reference_build_rate_plant(*args))
            args = (algo, bounds, shape.with_rho(1.0), default_noise_channel(algo))
            _assert_same_plant(build_perf_plant(*args), reference_build_perf_plant(*args))

    def test_shared_arrays_are_read_only(self):
        algo = make_named("nm", SectorBounds(1.0, 10.0), 2)
        st = ZamesFalbStructure(2, 1, 2)
        plant = build_rate_plant(algo, SectorBounds(1.0, 10.0), st.with_rho(0.9), 0.9)
        perf = build_perf_plant(algo, SectorBounds(1.0, 10.0), st,
                                default_noise_channel(algo))
        part = plantbuild._kept[2]
        assert perf.boldB1 is plant.Bc is part.Bc and perf.boldD11 is plant.Dc is part.Dc
        shared = (part.BC, part.DC, part.Bc, part.Dc, part.psi_A, part.psi_C,
                  part.loop.Anom, part.loop.Beff, part.loop.Ceff)
        for arr in shared:
            assert arr.size
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 7.0
        # a probe's own blocks are fresh
        again = build_rate_plant(algo, SectorBounds(1.0, 10.0), st.with_rho(0.9), 0.9)
        assert again.Ac is not plant.Ac and again.Cc is not plant.Cc
        _assert_same_plant(again, plant)

    def test_only_the_last_configuration_is_kept(self):
        """A replaced part is dropped, and with it the KYP plan that a rate
        assembly derived and kept on it."""
        bounds = SectorBounds(1.0, 10.0)
        st = ZamesFalbStructure(1, 0, 1, rho=0.95)
        algos = [make_named(kind, bounds) for kind in ("gd", "nm", "tmm", "hb", "gd")]
        first = weakref.ref(algos[0])
        plans = []
        for algo in algos:
            plant = build_rate_plant(algo, bounds, st, 0.95)
            assert plant.nominal_radius < 0.95 and plant.part.plan is None
            lmi.assemble_rate(plant)
            plans.append(weakref.ref(plant.part.plan))
        assert plantbuild._kept[0] is algos[-1]
        del algo, algos, plant
        gc.collect()
        assert first() is None
        assert [plan() is None for plan in plans] == [True] * 4 + [False]
        assert plans[-1]() is plantbuild._kept[2].plan

    def test_concurrent_callers_get_their_own_plants(self):
        """Threads interleaving configurations never get another's part."""
        bounds = SectorBounds(1.0, 10.0)
        configs = [(make_named(kind, bounds, p), ZamesFalbStructure(lc, 0, p))
                   for kind, p, lc in (("gd", 1, 1), ("nm", 2, 2), ("tmm", 1, 3),
                                       ("hb", 2, 1), ("nm", 1, 6))]
        want = {id(algo): [reference_build_rate_plant(algo, bounds, st.with_rho(rho), rho)
                           for rho in (1.0, 0.99, 0.98)] for algo, st in configs}
        workers = 6
        start = threading.Barrier(workers)

        def work(k):
            start.wait(timeout=60)
            for i in range(200):
                algo, st = configs[(k + i) % len(configs)]
                for ref in want[id(algo)]:
                    _assert_same_plant(build_rate_plant(algo, bounds, ref.structure, ref.rho),
                                       ref)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(work, k) for k in range(workers)]
                for f in futures:
                    f.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
