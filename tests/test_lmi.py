import functools
import hashlib
import json
import os
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from iqcopt.algorithms import (SectorBounds, StructuredControllerForm, from_structured,
                               lift, make_named)
from iqcopt import algorithms, lmi, multipliers, plantbuild
from iqcopt.engines import certify_h2, certify_rate, h2_norm_linear, verify_fdi
from iqcopt.errors import (ArgumentError, DimensionError, DomainError, InfeasiblePrecondition,
                           PreconditionError)
from iqcopt.lmi import (assemble_convex_synth, assemble_convex_synth_perf,
                        assemble_bmi_fixed_P, assemble_h2, assemble_h2_for, assemble_rate_for,
                        assemble_rate_reduced, assemble_rate_slack,
                        assemble_structured_rate)
from iqcopt.multipliers import (CLASSES, ZamesFalbStructure, m_delta_coefficients,
                                membership_rows)
from iqcopt.native import _sym_stack
from iqcopt.plantbuild import (UncertainLoop, build_perf_plant, build_perf_plant_loop,
                               build_rate_plant, default_noise_channel)
from iqcopt.problem import AffineMatrix, SdpProblem, congruence, upper_triangle
from iqcopt.sdp import SdpSolution, solve
from iqcopt.statespace import StateSpace
import reference_builders as ref_builders
from test_plantbuild import _bisection_rhos
from reference_builders import (kyp_block, use_reference_builders, use_reference_lmi,
                                use_reference_rows)

BOUNDS10 = SectorBounds(1.0, 10.0)
ST10 = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)


def rate_feasible(algo, bounds, st, rho):
    try:
        asm = assemble_rate_for(algo, bounds, st, rho)
    except InfeasiblePrecondition:
        return False
    return solve(asm.problem).certified


class TestKypBlock:
    def test_small_gain_bracketing(self):
        # ||G||_inf = 2 for G(z) = 1/(z - 0.5)
        G = StateSpace(0.5, 1.0, 1.0, 0.0)
        feasible = kyp_block(G, np.diag([1.0, -(2.1) ** 2]))
        infeasible = kyp_block(G, np.diag([1.0, -(1.9) ** 2]))
        assert solve(feasible).certified
        assert solve(infeasible).status == "infeasible"

    def test_zero_multiplier_infeasible(self):
        G = StateSpace(0.5, 1.0, 1.0, 0.0)
        assert not solve(kyp_block(G, np.zeros((2, 2)))).certified

    def test_pure_lyapunov(self):
        G = StateSpace(0.5, 1.0, 1.0, 0.0)
        assert solve(kyp_block(G, np.diag([0.0, -1.0]))).certified

    def test_unit_circle_eigenvalue_rejected(self):
        G = StateSpace(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            kyp_block(G, np.eye(2))


class TestRateAssembly:
    def test_gd_bracketing(self):
        gd = make_named("gd", BOUNDS10)
        assert rate_feasible(gd, BOUNDS10, ST10, 0.83)
        assert not rate_feasible(gd, BOUNDS10, ST10, 0.80)

    def test_hb_infeasible_even_at_one(self):
        bounds = SectorBounds(1.0, 100.0)
        hb = make_named("hb", bounds)
        assert not rate_feasible(hb, bounds, ST10, 1.0)

    def test_precondition_error_distinct(self):
        gd = make_named("gd", BOUNDS10)
        with pytest.raises(InfeasiblePrecondition):
            assemble_rate_for(gd, BOUNDS10, ST10, 0.5)

    def test_rate_monotonicity(self):
        gd = make_named("gd", BOUNDS10)
        feas = [rate_feasible(gd, BOUNDS10, ST10, r)
                for r in (0.80, 0.83, 0.90, 0.97, 1.0)]
        assert feas == [False, True, True, True, True]

    def test_certificate_p22_positive(self):
        """Nominal stability necessity: the extracted P22 block is positive definite."""
        gd = make_named("gd", BOUNDS10)
        asm = assemble_rate_for(gd, BOUNDS10, ST10, 0.85)
        sol = solve(asm.problem)
        cert = asm.decode(sol)
        P22 = cert.P[asm.plant.n_mult:, asm.plant.n_mult:]
        assert np.min(np.linalg.eigvalsh(P22)) > 0

    def test_variable_count_reduced_gd(self):
        asm = assemble_rate_reduced(lift(make_named("gd", BOUNDS10), 3),
                                    BOUNDS10, ST10, 0.83)
        # P symmetric 3x3 -> 6 scalars, kernel taps m_{-1}, m_0 -> 2 scalars
        assert asm.problem.nvars == 8


class TestReducedAssembly:
    def test_reduced_identical_for_lifted_gd(self):
        gd3 = lift(make_named("gd", BOUNDS10), 3)
        red = assemble_rate_reduced(gd3, BOUNDS10, ST10, 0.83)
        direct = assemble_rate_for(make_named("gd", BOUNDS10), BOUNDS10,
                                   ZamesFalbStructure(1, 0, 1, "unstructured", 0.83),
                                   0.83)
        assert red.problem.nvars == direct.problem.nvars
        for ours, ref in zip(red.problem.blocks, direct.problem.blocks):
            np.testing.assert_allclose(ours.expr.const, ref.expr.const, atol=1e-14)
            np.testing.assert_array_equal(ours.expr.keys, ref.expr.keys)
            np.testing.assert_allclose(ours.expr.dense(), ref.expr.dense(), atol=1e-14)

    def test_feasibility_agrees_on_random_instances(self):
        rng = np.random.default_rng(99)
        disagreements = 0
        for _ in range(10):
            kind = rng.choice(["gd", "nm", "tmm", "hb"])
            kappa = rng.uniform(1.5, 60.0)
            p = int(rng.integers(2, 4))
            bounds = SectorBounds(1.0, kappa)
            algo = make_named(kind, bounds, p=p)
            radius = np.max(np.abs(np.linalg.eigvals(algo.nominal_matrix(1.0))))
            rho = float(np.clip(radius + rng.uniform(-0.05, 0.2), 0.05, 1.0))
            st = ZamesFalbStructure(1, 0, p, "unstructured", rho)
            full = rate_feasible(algo, bounds, st, rho)
            try:
                red = solve(assemble_rate_reduced(algo, bounds, st, rho).problem).certified
            except InfeasiblePrecondition:
                red = False
            disagreements += int(full != red)
        assert disagreements == 0

    def test_rejects_non_kronecker(self):
        algo = make_named("gd", BOUNDS10, p=2)
        broken = algo.A.copy()
        broken[0, 1] = 0.1
        from iqcopt.algorithms import AlgorithmRealization
        with pytest.raises(Exception):
            bad = AlgorithmRealization(broken, algo.B, algo.C, algo.D,
                                       algo.Ddagger, n=2, p=2)
            assemble_rate_reduced(bad, BOUNDS10, ST10, 0.9)


class TestH2Assembly:
    def test_linear_limit_matches_lyapunov(self):
        for mL in (0.5, 1.0, 2.0):
            bounds = SectorBounds(mL, mL)
            gd = make_named("gd", bounds)
            st = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
            asm = assemble_h2_for(gd, bounds, st)
            sol = solve(asm.problem)
            assert sol.certified
            gamma = asm.decode(sol).gamma
            oracle = h2_norm_linear(gd.nominal_matrix(mL), gd.B, gd.D)
            assert gamma == pytest.approx(oracle, rel=0.01)

    def test_zero_channel_gives_zero(self):
        gd = make_named("gd", BOUNDS10)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
        asm = assemble_h2_for(gd, BOUNDS10, st,
                              channel=(np.zeros((2, 1)), gd.D, np.zeros((1, 1))))
        sol = solve(asm.problem)
        assert sol.certified
        assert asm.decode(sol).gamma == pytest.approx(0.0, abs=1e-3)

    def test_ordering_at_kappa_100(self):
        bounds = SectorBounds(1.0, 100.0)
        st = ZamesFalbStructure(4, 0, 1, "unstructured", 1.0)
        gammas = {}
        for kind in ("gd", "nm", "tmm"):
            asm = assemble_h2_for(make_named(kind, bounds), bounds, st)
            sol = solve(asm.problem)
            assert sol.certified
            gammas[kind] = asm.decode(sol).gamma
        assert gammas["gd"] < gammas["nm"] < gammas["tmm"]


class TestConvexSynth:
    def test_feasible_and_roundtrip(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.95)
        asm = assemble_convex_synth(2, 1, BOUNDS10, st, 0.95)
        sol = solve(asm.problem)
        assert sol.certified
        res = asm.decode(sol)
        assert rate_feasible(res.algo, BOUNDS10, st, 0.95)

    def test_infeasible_below_fundamental_bound(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.5)
        asm = assemble_convex_synth(2, 1, BOUNDS10, st, 0.5)
        assert not solve(asm.problem).certified

    def test_perf_variant_roundtrip(self):
        bounds = SectorBounds(1.0, 50.0)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.995)
        asm = assemble_convex_synth_perf(2, 1, bounds, st, 0.995)
        sol = solve(asm.problem)
        assert sol.certified
        res = asm.decode(sol)
        assert res.gamma is not None and np.isfinite(res.gamma)
        st_h2 = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
        re_asm = assemble_h2_for(res.algo, bounds, st_h2,
                                 channel=(res.algo.B, res.algo.C, np.zeros((1, 1))))
        re_sol = solve(re_asm.problem)
        assert re_sol.certified
        assert re_asm.decode(re_sol).gamma <= res.gamma * (1 + 1e-3)


class TestBmiSteps:
    def test_fixed_p_warm_start_is_feasible(self):
        gd = make_named("gd", BOUNDS10)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        asm_r = assemble_rate_for(gd, BOUNDS10, st, 0.9)
        sol_r = solve(asm_r.problem)
        P = asm_r.decode(sol_r).P
        asm = assemble_bmi_fixed_P(2, 1, BOUNDS10, st, 0.9, P)
        sol = solve(asm.problem)
        assert sol.certified
        res = asm.decode(sol)
        assert rate_feasible(res.algo, BOUNDS10, st, 0.9)

    def test_fixed_p_requires_positive_p22(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        with pytest.raises(PreconditionError):
            assemble_bmi_fixed_P(2, 1, BOUNDS10, st, 0.9, -np.eye(3))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (3, 2)])
    def test_fixed_p_p_shape_is_checked(self, shape):
        # nc = 3 here; a wrong P_p is named as such, not met in a matmul
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        with pytest.raises(DimensionError, match="P_p must be 3x3"):
            assemble_bmi_fixed_P(2, 1, BOUNDS10, st, 0.9, np.eye(3), P_p=np.eye(*shape))

    def test_fixed_p_p_requires_positive_p22(self):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
        with pytest.raises(PreconditionError, match="P_p22"):
            assemble_bmi_fixed_P(2, 1, BOUNDS10, st, 0.9, np.eye(3), P_p=-np.eye(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("part", ["P11", "P12", "P22"])
    @pytest.mark.parametrize("which", ["P", "P_p"])
    def test_fixed_p_non_finite_refused(self, which, part, bad):
        # nd = 2 multiplier states and N = 2 algorithm states; the entry is
        # named before a product could warn, or carry a NaN into the stack
        st = ZamesFalbStructure(2, 0, 1, "unstructured", 0.9)
        i, j = {"P11": (0, 1), "P12": (0, 3), "P22": (2, 3)}[part]
        Q = np.eye(4)
        Q[i, j] = Q[j, i] = bad
        P, P_p = (Q, np.eye(4)) if which == "P" else (np.eye(4), Q)
        for slack in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainError, match=f"^{which} must be finite"):
                    assemble_bmi_fixed_P(2, 1, BOUNDS10, st, 0.9, P, P_p=P_p, slack=slack)


class TestStructuredRate:
    def test_trivial_substitution_matches_plain(self):
        """T = I, H1 = m I, (0, L-m) gives matrix-equal problems."""
        gd = make_named("gd", BOUNDS10)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.83)
        plain = assemble_rate_for(gd, BOUNDS10, st, 0.83)
        struct = assemble_structured_rate(gd, BOUNDS10.m * np.eye(1), np.eye(1),
                                          0.0, 9.0, st, 0.83)
        for ours, ref in zip(struct.problem.blocks, plain.problem.blocks):
            np.testing.assert_allclose(ours.expr.const, ref.expr.const, atol=1e-13)
            np.testing.assert_array_equal(ours.expr.keys, ref.expr.keys)
            np.testing.assert_allclose(ours.expr.dense(), ref.expr.dense(), atol=1e-13)


class TestStructuredDataRefused:
    """An inf or NaN in H1, T, m2 or L2 raises DomainError naming it before
    any product could warn."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["H1", "T", "m2", "L2"])
    def test_named_before_any_product(self, name, bad):
        data = {"H1": np.eye(2), "T": np.eye(2), "m2": 0.0, "L2": 9.0}
        if name in ("H1", "T"):
            data[name][1, 0] = bad
        else:
            data[name] = bad
        args = (data["H1"], data["T"], data["m2"], data["L2"])
        st = ZamesFalbStructure(1, 0, 2, "unstructured", 0.9)
        gd = make_named("gd", BOUNDS10, 2)
        for build in (lambda: lmi.assemble_structured_synth(*args, 2, 0.9),
                      lambda: plantbuild.structured_loop(gd, *args),
                      lambda: assemble_structured_rate(gd, *args, st, 0.9)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainError, match=f"^{name} must be finite"):
                    build()


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [
    lambda n, st: assemble_convex_synth(n, 1, BOUNDS10, st, 0.9),
    lambda n, st: assemble_convex_synth_perf(n, 1, BOUNDS10, st, 0.9),
    lambda n, st: assemble_bmi_fixed_P(n, 1, BOUNDS10, st, 0.9, np.eye(1)),
    lambda n, st: lmi.assemble_structured_synth(np.eye(1), np.eye(1), 0.0, 9.0, n, 0.9),
], ids=["convex", "convex-perf", "bmi-fixed-P", "structured"])
def test_synthesis_assemblers_refuse_nonpositive_n(build, n):
    """Every design assembler names n < 1 before any array of its size is made."""
    st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.9)
    with pytest.raises(DomainError, match=f"n must be a positive integer, got {n}"):
        build(n, st)


def test_perf_synth_gamma_weakly_decreasing_in_rho():
    bounds = SectorBounds(1.0, 50.0)
    gammas = []
    for rho in (0.97, 0.98, 0.995):
        st = ZamesFalbStructure(1, 0, 1, "unstructured", rho)
        asm = assemble_convex_synth_perf(2, 1, bounds, st, rho)
        sol = solve(asm.problem)
        assert sol.certified
        gammas.append(asm.decode(sol).gamma)
    assert gammas[0] >= gammas[1] * (1 - 1e-6)
    assert gammas[1] >= gammas[2] * (1 - 1e-6)


class TestSharedLayout:
    def test_built_once_for_a_certification(self, monkeypatch):
        """The layout (filter template included), P's index pattern and the
        nominal radius are each built once for a whole certification: the
        radius once by the algorithm, here for the bracket, and once by the
        loop of the kept plant part."""
        built, radii = [], []
        compute = algorithms.spectral_radius

        def build(*shape):
            built.append(shape)
            return multipliers._Layout(*shape)

        def spectral_radius(A):
            radii.append(A.shape)
            return compute(A)

        # an empty cache of its own, so what other tests cached does not count
        monkeypatch.setattr(multipliers, "_layout", functools.lru_cache(build))
        monkeypatch.setattr(algorithms, "spectral_radius", spectral_radius)
        monkeypatch.setattr(plantbuild, "spectral_radius", spectral_radius)
        upper_triangle.cache_clear()
        algo = make_named("nm", BOUNDS10, 1)
        st = ZamesFalbStructure(5, 2, 1, "unstructured", 1.0)
        radius = algo.nominal_radius(BOUNDS10.m)
        for rho in np.linspace(1.0, 0.5 * (1.0 + radius), 12):
            asm = assemble_rate_for(algo, BOUNDS10, st, rho)
        # the kept part's KYP plan reads P's pattern once, for the first probe
        assert upper_triangle.cache_info()[:2] == (0, 1)      # hits, misses
        assemble_h2_for(algo, BOUNDS10, st)
        x = np.random.default_rng(0).standard_normal(asm.problem.nvars)
        sol = SdpSolution(status="optimal", x=x,
                          values={n: asm.problem.extract(n, x) for n in ("P", "zf_theta")})
        verify_fdi(asm.decode(sol), asm.plant)
        assert built == [(5, 2, 1, "unstructured")]
        assert radii == [(2, 2)] * 2
        assert upper_triangle.cache_info().misses == 2         # P's n and H2's 1 x 1 Z
        assert asm.plant.nominal_radius == radius


    def test_rho_free_plant_part_built_once(self, monkeypatch):
        """12 rate probes and the H2 assembly of one configuration build the
        plant's rho-free part once; the slack LMI never reads the radius."""
        built, radii = [], []
        compute = algorithms.spectral_radius

        class Counted(plantbuild._RhoFree):
            def __init__(self, loop, structure):
                built.append(structure.p)
                super().__init__(loop, structure)

        def spectral_radius(A):
            radii.append(A.shape)
            return compute(A)

        monkeypatch.setattr(plantbuild, "_RhoFree", Counted)
        monkeypatch.setattr(plantbuild, "_kept", None)
        monkeypatch.setattr(plantbuild, "spectral_radius", spectral_radius)
        algo = make_named("tmm", BOUNDS10, 2)
        st = ZamesFalbStructure(6, 1, 2, "unstructured", 1.0)
        for rho in np.linspace(1.0, 0.97, 12):
            assemble_rate_for(algo, BOUNDS10, st, rho)
        assemble_h2_for(algo, BOUNDS10, st)
        assert built == [2] and radii == [(4, 4)]
        assemble_rate_slack(make_named("nm", BOUNDS10, 2), BOUNDS10, st, 0.9)
        assert built == [2, 2] and radii == [(4, 4)]


    def test_kyp_plan_built_once_for_a_certification(self, monkeypatch):
        """A certify_rate and a certify_h2 of one configuration derive one
        KYP plan, on the kept part, which every probe and the H2 assembly
        read; a plant from an explicit loop has a part of its own, so each
        assembly of one derives its plan."""
        built = []

        class Counted(lmi.CongruencePlan):
            __slots__ = ()

            def __init__(self, T, *layout):
                built.append(T.shape)
                super().__init__(T, *layout)

        assemble_rate = lmi.assemble_rate
        plans = []

        def assemble(plant):
            asm = assemble_rate(plant)
            plans.append(plant.part.plan)
            return asm

        monkeypatch.setattr(lmi, "CongruencePlan", Counted)
        monkeypatch.setattr(lmi, "assemble_rate", assemble)
        monkeypatch.setattr(plantbuild, "_kept", None)
        algo = make_named("nm", BOUNDS10, 1)
        st = ZamesFalbStructure(2, 1, 1, "unstructured", 1.0)
        assert certify_rate(algo, BOUNDS10, st).value < 1.0
        assert certify_h2(algo, BOUNDS10, st).value > 0.0
        assert built == [(17, 6)]      # [A B; I 0; C D] of the p = 1, (2, 1) plant
        assert len(plans) > 10 and all(plan is plans[0] for plan in plans)
        assert plantbuild._kept[2].plan is plans[0]
        loop = plantbuild.sector_loop(algo, BOUNDS10)
        for k in (1, 2):
            lmi.assemble_rate(plantbuild.build_rate_plant_loop(loop, st.with_rho(0.9), 0.9))
            assert len(built) == 1 + k and plans[-1] is not plans[0]


def _problem_digest(prob, entries: bool) -> str:
    """Variables, blocks (names, senses, eps, scales, keys, constants and
    stacks) and rows (table, signs, rhs and names) of a problem; with
    ``entries`` the blocks' entry arrays too, which list an entry whose
    terms sum to +0.0 where a stack shows none."""
    h = hashlib.sha256()
    h.update(repr([(v.name, v.kind, v.shape, v.offset, v.size) for v in prob.variables]).encode())
    for b in prob.blocks:
        h.update(repr((b.name, b.sense, b.eps, b.scale)).encode())
    for e in [b.expr for b in prob.blocks]:
        for a in (e.keys, e.const, e.dense()) + ((e.kix, e.pos, e.val) if entries else ()):
            h.update(np.ascontiguousarray(a).tobytes())
    rows = prob.linear
    for a in (rows.row, rows.var, rows.val, rows.sign, rows.rhs):
        h.update(a.tobytes())
    h.update(repr(rows.name).encode())
    return h.hexdigest()


def _smallest_accepted_rho(algo, bounds, st) -> float:
    """The smallest rho at which build_rate_plant raises no DomainError,
    bisected over the bit patterns of positive floats; a rho just below
    it is refused by the plant's overflow guard."""
    def accepted(bits):
        rho = float(np.int64(bits).view(np.float64))
        try:
            build_rate_plant(algo, bounds, st.with_rho(rho), rho)
        except DomainError as e:
            return False, str(e)
        return True, ""

    lo, hi = int(np.float64(1e-300).view(np.int64)), int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepted(mid)[0]:
            hi = mid
        else:
            lo = mid
    assert "would overflow the KYP block" in accepted(lo)[1]
    return float(np.int64(hi).view(np.float64))


class TestKypPlanReuse:
    """The rate, H2 and rate-slack problems built on the KYP plan that the
    kept plant part hash equal, entry for entry, to those built on a fresh
    part (an explicit loop's, whose plan serves that one problem), and
    their stacks to the reference builders' (whose plants have no part,
    so their plan is derived inline): at rho = 1, at every rho of a 12-probe bisection and
    at the smallest rho that the plant's overflow guard accepts, with
    configurations alternating. The stored summation order is what
    fixes the bits of P's terms, so these run on the FMA-free kernel too."""

    @staticmethod
    def _fresh_parts(m):
        m.setattr(lmi, "build_rate_plant", lambda algo, bounds, st, rho:
                  plantbuild.build_rate_plant_loop(plantbuild.sector_loop(algo, bounds),
                                                   st, rho))
        m.setattr(lmi, "build_perf_plant", lambda algo, bounds, st, perf:
                  build_perf_plant_loop(plantbuild.sector_loop(algo, bounds), st, *perf[:2]))

    @staticmethod
    def _builds(algo, bounds, st, rhos, slack_rho):
        """The rate probes at ``rhos``, the H2 problem and the slack
        problems at ``rhos`` and ``slack_rho``, in that order."""
        return ([lambda rho=rho: assemble_rate_for(algo, bounds, st, rho) for rho in rhos]
                + [lambda: assemble_h2_for(algo, bounds, st)]
                + [lambda rho=rho: assemble_rate_slack(algo, bounds, st, rho)
                   for rho in rhos + [slack_rho]])

    def _assert_reuse_invisible(self, monkeypatch, algo, bounds, st, rhos, slack_rho):
        builds = self._builds(algo, bounds, st, rhos, slack_rho)
        kept = [build() for build in builds]
        plan = kept[0].plant.part.plan
        assert all(asm.plant.part.plan is plan for asm in kept)
        with monkeypatch.context() as m:
            self._fresh_parts(m)
            fresh = [build() for build in builds]
        assert len({id(asm.plant.part) for asm in fresh}) == len(fresh)
        with monkeypatch.context() as m:
            use_reference_builders(m)
            reference = [build() for build in builds]
        assert all(asm.plant.part is None for asm in reference)
        for a, b, c in zip(kept, fresh, reference):
            name = a.problem.name
            assert _problem_digest(a.problem, True) == _problem_digest(b.problem, True), name
            assert _problem_digest(a.problem, False) == _problem_digest(c.problem, False), name

    def test_bisection_probes_alternating_configurations(self, monkeypatch):
        """B has A's dimensions and more nonzeros (nm's output row C holds
        two against hb's C = [1 0]), so a plan of A's would miss some of
        B's products; C has another shape."""
        bounds = SectorBounds(1.0, 25.0)
        repeated = ZamesFalbStructure(2, 1, 2, "repeated")
        configs = {"A": (make_named("hb", bounds, 2), repeated),
                   "B": (make_named("nm", bounds, 2), repeated),
                   "C": (make_named("tmm", bounds, 1), ZamesFalbStructure(2, 2, 1))}
        monkeypatch.setattr(plantbuild, "_kept", None)
        for name in "ABACA":
            algo, st = configs[name]
            rhos = _bisection_rhos(algo, bounds)
            slack_rho = _smallest_accepted_rho(algo, bounds, st)
            self._assert_reuse_invisible(monkeypatch, algo, bounds, st, rhos, slack_rho)

    def test_concurrent_assemblies(self, monkeypatch):
        """Threads interleaving configurations fill and read the kept
        parts' plans; every problem hashes as one built alone."""
        bounds = SectorBounds(1.0, 10.0)
        configs = [(make_named(kind, bounds, p), ZamesFalbStructure(lc, 1, p))
                   for kind, p, lc in (("gd", 1, 1), ("nm", 2, 2), ("hb", 2, 2), ("tmm", 1, 3))]
        want = {}
        for algo, st in configs:
            for rho in (1.0, 0.99, 0.98):
                asm = assemble_rate_for(algo, bounds, st, rho)
                want[id(algo), rho] = _problem_digest(asm.problem, True)
        monkeypatch.setattr(plantbuild, "_kept", None)
        workers = 6
        start = threading.Barrier(workers)

        def work(k):
            start.wait(timeout=60)
            for i in range(60):
                algo, st = configs[(k + i) % len(configs)]
                for rho in (1.0, 0.99, 0.98):
                    got = _problem_digest(assemble_rate_for(algo, bounds, st, rho).problem, True)
                    assert got == want[id(algo), rho]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(work, k) for k in range(workers)]
                for f in futures:
                    f.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)

    def test_smallest_accepted_rho(self, monkeypatch):
        """A loop of radius 0 (gd at m = L) takes a rate probe at the
        smallest rho the overflow guard accepts."""
        bounds = SectorBounds(4.0, 4.0)
        algo = make_named("gd", bounds, 2)
        st = ZamesFalbStructure(2, 1, 2, "nonrepeated")
        assert algo.nominal_radius(bounds.m) == 0.0
        rho = _smallest_accepted_rho(algo, bounds, st)
        assert rho < 1e-100
        self._assert_reuse_invisible(monkeypatch, algo, bounds, st, [1.0, 0.5, rho], rho)


class TestRhoFreeParts:
    """A rate probe builds only what depends on rho: the filter template,
    P's index pattern and the nominal radius are each built once."""

    @pytest.mark.parametrize("kind,p", [("gd", 1), ("nm", 2), ("tmm", 3)])
    def test_radius_boundary(self, kind, p):
        algo = make_named(kind, BOUNDS10, p)
        st = ZamesFalbStructure(1, 0, p, "unstructured", 1.0)
        radius = max(abs(np.linalg.eigvals(algo.nominal_matrix(BOUNDS10.m))))
        assert algo.nominal_radius(BOUNDS10.m) == radius
        for rho in (np.nextafter(radius, 0.0), radius):
            message = f"nominal spectral radius {radius:.6f} >= rho={rho}"
            with pytest.raises(InfeasiblePrecondition, match=re.escape(message)):
                assemble_rate_for(algo, BOUNDS10, st, rho)
        assert assemble_rate_for(algo, BOUNDS10, st, np.nextafter(radius, 1.0)).plant.rho > radius

    def test_unstable_loop_rejected_for_h2(self):
        bounds = SectorBounds(1.0, 100.0)
        hb = make_named("hb", bounds)
        loop = UncertainLoop(2.0 * hb.nominal_matrix(1.0), hb.B, hb.C, 99.0)
        assert loop.radius == max(abs(np.linalg.eigvals(loop.Anom))) >= 1.0
        plant = build_perf_plant_loop(loop, ST10, hb.B, hb.D)
        assert plant.nominal_radius == loop.radius
        with pytest.raises(InfeasiblePrecondition, match="not Schur stable"):
            assemble_h2(plant)

    @pytest.mark.parametrize("klass", CLASSES)
    @pytest.mark.parametrize("lc,la,p", [(0, 0, 1), (1, 0, 1), (6, 1, 1), (2, 1, 2), (0, 2, 3)])
    def test_membership_rows_are_rows_at_theta(self, klass, lc, la, p):
        """The rows _add_multiplier adds are those of rows @ theta, byte for byte."""
        for rho in (1.0, 0.9, 0.37):
            st = ZamesFalbStructure(lc, la, p, klass, rho)
            got = SdpProblem()
            got.add_scalar("s")
            md = lmi._add_multiplier(got, st, "zf")
            ref = SdpProblem()
            ref.add_scalar("s")
            theta = ref.add_matrix("zf", st.parameter_count(), 1)
            rows, senses, labels = membership_rows(st)
            ref.add_linear(rows @ theta, senses, 0.0, [f"zf:{label}" for label in labels])
            assert got.variables == ref.variables
            a, b = got.linear, ref.linear
            assert a.name == b.name
            for x, y in ((a.sign, b.sign), (a.rhs, b.rhs), (a.row, b.row), (a.var, b.var),
                         (a.val, b.val)):
                assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())
            assert md.keys.tobytes() == theta.keys.tobytes()
            assert md.dense().tobytes() == m_delta_coefficients(st).tobytes()


def _direct_and_reference(monkeypatch, build, use_reference=use_reference_builders):
    """build() under the library's builders, then under the reference ones.

    The reference side builds every multiplier layout afresh, so it is not
    served the cached layout the library side built or found.
    """
    got = build()
    with monkeypatch.context() as m:
        use_reference(m)
        m.setattr(multipliers, "_layout", multipliers._Layout)
        ref = build()
    return got, ref


def _assert_same_problem(got, ref):
    """Equal interchange, and every block equal bit for bit (signed zeros too)."""
    assert got.to_json_dict() == ref.to_json_dict()
    for a, b in zip(got.blocks, ref.blocks):
        for x, y in ((a.expr.keys, b.expr.keys), (a.expr.const, b.expr.const),
                     (a.expr.dense(), b.expr.dense())):
            assert np.array_equal(x, y)
            assert x.tobytes() == y.tobytes()


def _dense(p):
    """Stable integrator-chain gains that are not of Kronecker form."""
    rng = np.random.default_rng(p)
    K1 = -0.1 * np.eye(p) - 0.02 * rng.uniform(size=(p, p))
    K2 = -0.5 * np.eye(p) + 0.02 * rng.uniform(-1, 1, size=(p, p))
    return from_structured(StructuredControllerForm((K1, K2)))


class TestDirectBuildersMatchReference:
    """The index-built psi_Delta, plants and KYP blocks reproduce, entry for
    entry, the problems composed with kron/block_diag and P's basis stack."""

    ALGOS = [("gd", 1), ("nm", 2), ("tmm", 3), ("hb", 4), ("nm", 4), ("dense", 2),
             ("dense", 3)]

    @pytest.fixture(params=ALGOS, ids=lambda a: f"{a[0]}-p{a[1]}")
    def algo(self, request):
        kind, p = request.param
        return _dense(p) if kind == "dense" else make_named(kind, BOUNDS10, p)

    @pytest.mark.parametrize("lc,la", [(1, 0), (2, 1), (0, 2), (6, 0)])
    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    def test_whole_problems_identical(self, monkeypatch, algo, lc, la, klass):
        st = ZamesFalbStructure(lc, la, algo.p, klass, 1.0)
        radius = max(abs(np.linalg.eigvals(algo.nominal_matrix(BOUNDS10.m))))
        assert radius < 1
        rho = 0.5 * (1.0 + radius)
        builds = [
            lambda: assemble_rate_for(algo, BOUNDS10, st, rho).problem,
            lambda: assemble_h2_for(algo, BOUNDS10, st).problem,
            lambda: assemble_rate_slack(algo, BOUNDS10, st, rho).problem,
        ]
        for build in builds:
            _assert_same_problem(*_direct_and_reference(monkeypatch, build))

    @pytest.mark.parametrize("joint", [False, True])
    def test_kyp_block_identical(self, monkeypatch, algo, joint):
        st = ZamesFalbStructure(2, 1, algo.p, "repeated", 0.95)
        G = build_rate_plant(algo, BOUNDS10, st, 0.95).as_statespace()
        size = G.ny + G.nu if joint else G.ny
        M = np.random.default_rng(size).normal(size=(size, size))
        _assert_same_problem(*_direct_and_reference(
            monkeypatch, lambda: kyp_block(G, M + M.T)))

    def test_synthesis_problems_identical(self, monkeypatch):
        st = ZamesFalbStructure(2, 1, 2, "unstructured", 0.9)
        rng = np.random.default_rng(5)
        nc = 2 * 3 + 2 * 2
        X = rng.normal(size=(nc, nc))
        P = X @ X.T + nc * np.eye(nc)
        builds = [
            lambda: assemble_convex_synth(2, 2, BOUNDS10, st, 0.9).problem,
            lambda: assemble_convex_synth_perf(2, 2, BOUNDS10, st, 0.9).problem,
            lambda: assemble_bmi_fixed_P(2, 2, BOUNDS10, st, 0.9, P, P_p=P).problem,
        ]
        for build in builds:
            _assert_same_problem(*_direct_and_reference(monkeypatch, build))


class TestH2SchurBlock:
    """h2-trace-schur holds the bits of [[N^T P N, N^T P N N^T B2], [., Z]],
    formed through the selector N = [0; I] onto the algorithm states."""

    @pytest.mark.parametrize("kind", ["gd", "nm", "tmm", "hb"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("lc,la,klass", [(2, 1, "repeated"), (6, 0, "unstructured")])
    def test_selector_products(self, kind, p, lc, la, klass):
        st = ZamesFalbStructure(lc, la, p, klass, 1.0)
        asm = assemble_h2_for(make_named(kind, BOUNDS10, p), BOUNDS10, st)
        prob, pl = asm.problem, asm.plant
        N = np.vstack([np.zeros((pl.n_mult, pl.n_loop)), np.eye(pl.n_loop)])
        NPN = ref_builders.dense_congruence(N, prob.variable_expr("P_p"))
        NPNB2 = NPN @ (N.T @ pl.boldB2)
        want = ref_builders.reference_block([[NPN, NPNB2],
                                             [NPNB2.T, prob.variable_expr("Z")]])
        (got,) = [b.expr for b in prob.blocks if b.name == "h2-trace-schur"]
        for x, y in ((got.keys, want.keys), (got.const, 0.5 * (want.const + want.const.T)),
                     (got.dense(), want.dense())):
            assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())


class TestTinyRhoRefused:
    """A rho whose plant products would overflow is refused, naming rho,
    before any division or product: no RuntimeWarning is raised."""

    @pytest.fixture(autouse=True)
    def _warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @pytest.mark.parametrize("kind,L,rho", [("gd", 1.0, 1e-200), ("gd", 1.0, 1e-308),
                                            ("nm", 10.0, 1e-200), ("nm", 10.0, 1e-308)])
    def test_rate_and_rate_slack(self, kind, L, rho):
        """gd at m = L has a zero-radius loop, so no radius check stops it;
        1e-308 overflows the division by rho itself."""
        bounds = SectorBounds(1.0, L)
        algo = make_named(kind, bounds)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", rho)
        for build in (assemble_rate_for, assemble_rate_slack):
            with pytest.raises(DomainError, match=f"rho={rho}:"):
                build(algo, bounds, st, rho)

    def test_h2(self):
        loop = UncertainLoop(np.array([[0.0, 1e200], [0.0, 0.0]]), np.ones((2, 1)),
                             np.ones((1, 2)), 1.0)
        assert loop.radius == 0.0
        with pytest.raises(DomainError, match="rho=1.0:"):
            assemble_h2(build_perf_plant_loop(loop, ST10, np.ones((2, 1)), np.ones((1, 2))))

    def test_small_rho_that_fits_is_built(self):
        bounds = SectorBounds(1.0, 1.0)
        algo = make_named("gd", bounds)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 1e-150)
        asm = assemble_rate_for(algo, bounds, st, 1e-150)
        assert all(np.isfinite(b.expr.dense()).all() for b in asm.problem.blocks)


class TestHugeNoiseChannelRefused:
    """A noise channel whose entries would overflow the H2 blocks' products
    is refused, naming the channel, before any product: no RuntimeWarning
    is raised."""

    @pytest.fixture(autouse=True)
    def _warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @staticmethod
    def _channel(scale, which):
        algo = make_named("gd", BOUNDS10)
        loop = UncertainLoop(algo.nominal_matrix(BOUNDS10.m), algo.B, algo.C, 9.0)
        B_perf, C_perf = np.ones((loop.nstates, 1)), np.ones((1, loop.nstates))
        if which == "B_perf":
            B_perf = scale * B_perf
        else:
            C_perf = scale * C_perf
        return build_perf_plant_loop(loop, ST10, B_perf, C_perf)

    @pytest.mark.parametrize("which", ["B_perf", "C_perf"])
    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e200, np.inf, np.nan])
    def test_refused(self, which, scale):
        with pytest.raises(DomainError, match=f"{which}: entries up to"):
            self._channel(scale, which)

    @pytest.mark.parametrize("which", ["B_perf", "C_perf"])
    def test_channel_that_fits_is_built(self, which):
        asm = assemble_h2(self._channel(1e60, which))
        assert all(np.isfinite(b.expr.const).all() and np.isfinite(b.expr.val).all()
                   for b in asm.problem.blocks)


def _synthesis_builds(n, p, klass):
    """Convex, convex-perf and BMI fixed-P problems (with and without slack and P_p)."""
    st = ZamesFalbStructure(2, 1, p, klass, 0.9)
    nc = 3 * p + n * p
    X = np.random.default_rng(nc).normal(size=(nc, nc))
    P = X @ X.T + nc * np.eye(nc)
    return [
        lambda: assemble_convex_synth(n, p, BOUNDS10, st, 0.9).problem,
        lambda: assemble_convex_synth_perf(n, p, BOUNDS10, st, 0.9).problem,
    ] + [
        lambda slack=slack, P_p=P_p: assemble_bmi_fixed_P(n, p, BOUNDS10, st, 0.9, P,
                                                          P_p=P_p, slack=slack).problem
        for slack in (False, True) for P_p in (None, P)
    ]


def _verify_bits(prob, x):
    """verify's (ok, worst) as comparable bytes."""
    ok, worst = prob.verify(x)
    return ok, np.float64(worst).tobytes()


def _reference_verify_bits(prob, x):
    ok, worst = ref_builders.reference_verify(prob, x)
    return ok, np.float64(worst).tobytes()


class TestVerifyMatchesReference:
    """verify returns the bits of its first formula (the block scale per
    call, rows from lists), with every block and the row column evaluated
    by value's definition on the dense stack, on every finite candidate,
    also after a JSON round trip."""

    @staticmethod
    def _assert_same_verify(prob):
        clone = SdpProblem.from_json_dict(json.loads(json.dumps(prob.to_json_dict())))
        rng = np.random.default_rng(prob.nvars)
        x = rng.standard_normal(prob.nvars)
        for cand in (x, 1e-3 * x, 1e3 * x, np.zeros(prob.nvars)):
            for p in (prob, clone):
                assert _verify_bits(p, cand) == _reference_verify_bits(p, cand)

    @pytest.mark.parametrize("kind", ["gd", "nm", "tmm"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_analysis_problems(self, kind, p):
        algo = make_named(kind, BOUNDS10, p)
        radius = max(abs(np.linalg.eigvals(algo.nominal_matrix(BOUNDS10.m))))
        rho = 0.5 * (1.0 + radius)
        for klass in ("unstructured", "repeated"):
            for lc, la in ((1, 0), (6, 1)):
                st = ZamesFalbStructure(lc, la, p, klass, 1.0)
                for prob in (assemble_rate_for(algo, BOUNDS10, st, rho).problem,
                             assemble_h2_for(algo, BOUNDS10, st).problem,
                             assemble_rate_slack(algo, BOUNDS10, st, rho).problem):
                    self._assert_same_verify(prob)

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    def test_synthesis_problems(self, n, p, klass):
        for build in _synthesis_builds(n, p, klass):
            self._assert_same_verify(build())


class TestKypKeyOrder:
    """_kyp lays its keys out as P's range, then each row term's keys, and
    refuses row keys out of that order. The callers' problems are compared
    with the sorted layout in TestDirectBuildersMatchReference."""

    @staticmethod
    def _problem():
        prob = SdpProblem()
        s = prob.add_scalar("s")
        P = prob.declare("P", "symmetric", (2, 2))
        t = prob.add_scalar("t")
        return prob, s, P, t

    AB = np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 0.0]])
    OUT = np.ones((1, 3))

    def test_row_key_at_or_below_P_refused(self):
        prob, s, P, t = self._problem()
        P_entry = prob.variable_expr("P")[1:2, 1:2]
        for X in (s, P_entry, s + t):
            with pytest.raises(ArgumentError, match="declare P before the row variables"):
                lmi._kyp(self.AB, P, (self.OUT, X))

    def test_row_terms_out_of_order_refused(self):
        prob, _, P, t = self._problem()
        u = prob.add_scalar("u")
        with pytest.raises(ArgumentError, match="declare P before the row variables"):
            lmi._kyp(self.AB, P, (self.OUT, u), (self.OUT, t))
        with pytest.raises(ArgumentError, match="declare P before the row variables"):
            lmi._kyp(self.AB, P, (self.OUT, t), (self.OUT, t))


class TestKypScatter:
    """_kyp holds reference_kyp's bytes for ABs the named algorithms do not
    reach: dense, with signed zeros, with one shared pair of rows, with
    underflowing products, small and large. The row's out holds one
    nonzero per column, as a multiplier's rows do: there each row entry is
    one rounded product, which the reference takes by BLAS (test_entries
    checks the definition where columns hold several)."""

    N = 16

    @staticmethod
    def _assert_bytes(AB):
        n, m = AB.shape
        prob = SdpProblem()
        P = prob.declare("P", "symmetric", (n, n))
        X = prob.add_symmetric("X", 2)
        rng = np.random.default_rng(n)
        out = np.zeros((2, m))
        out[rng.integers(2, size=m), np.arange(m)] = rng.normal(size=m)
        got = lmi._kyp(AB, P, (out, X))
        ref = ref_builders.reference_kyp(AB, P, (out, X))
        for x, y in ((got.keys, ref.keys), (got.const, ref.const), (got.dense(), ref.dense())):
            assert x.tobytes() == y.tobytes()

    @staticmethod
    def _chain(n, m, seed):
        """A shift chain: row r holds a random value in column r + 1 only."""
        AB = np.zeros((n, m))
        AB[np.arange(n), np.arange(n) + 1] = np.random.default_rng(seed).normal(size=n)
        return AB

    @staticmethod
    def _shared_pairs(AB):
        nz = (AB != 0).astype(float)
        return int(np.count_nonzero(np.triu(nz @ nz.T, 1)))

    def test_dense_every_row_shared(self):
        AB = np.random.default_rng(1).normal(size=(self.N, self.N + 2))
        assert self._shared_pairs(AB) == self.N * (self.N - 1) // 2
        self._assert_bytes(AB)

    def test_signed_zeros_and_a_zero_row(self):
        AB = self._chain(self.N, self.N + 2, 2)
        AB[3] = 0.0
        AB[5, 9] = AB[7, 0] = -0.0
        AB[9] = -0.0
        AB[11, 2:6] = [-0.0, 1.5, -0.0, -2.0]
        self._assert_bytes(AB)

    def test_one_shared_pair(self):
        AB = self._chain(self.N, self.N + 2, 3)
        AB[2, 8] = 0.75       # row 2 meets row 7 in column 8
        assert self._shared_pairs(AB) == 1
        self._assert_bytes(AB)

    def test_underflowing_products(self):
        """A product that underflows to -0 adds as +0."""
        AB = self._chain(self.N, self.N + 2, 4)
        AB[1, 1] = -1e-170
        AB[6, 3:5] = [1e-170, -2e-170]
        AB[12, 0] = 3e-170
        self._assert_bytes(AB)

    @pytest.mark.parametrize("n", [2, 40])
    def test_small_and_large(self, n):
        """An n x (n + 2) chain with a shared pair of rows and a dense column."""
        AB = self._chain(n, n + 2, 5)
        AB[1, 2:4] = [0.5, -0.25]
        AB[:, 0] = np.random.default_rng(n).normal(size=n)
        self._assert_bytes(AB)

    @pytest.mark.skipif(os.environ.get("OPENBLAS_CORETYPE") != "Nehalem",
                        reason="needs OpenBLAS's FMA-free Nehalem kernel")
    @pytest.mark.parametrize("kind", ["gd", "nm", "tmm", "hb"])
    def test_p_terms_are_the_blas_product_without_fma(self, kind):
        """On a BLAS kernel without FMA, the congruence of P's unit basis
        holds the bits _kyp writes, for the rate and H2 plants."""
        for p in (1, 2, 4):
            algo = make_named(kind, BOUNDS10, p)
            for lc, la in ((2, 1), (6, 0)):
                st = ZamesFalbStructure(lc, la, p, "repeated", 1.0)
                rate = build_rate_plant(algo, BOUNDS10, st, 0.99)
                perf = build_perf_plant(algo, BOUNDS10, st, default_noise_channel(algo))
                for AB in (np.hstack([rate.Ac, rate.Bc]), np.hstack([perf.boldA, perf.boldB1])):
                    n = AB.shape[0]
                    prob = SdpProblem()
                    P = prob.add_symmetric("P", n)
                    blas = ref_builders.dense_congruence(AB, P).dense()
                    blas[:, :n, :n] -= P.dense()
                    got = lmi._kyp(AB, prob.variables[0]).dense()
                    assert got.tobytes() == blas.tobytes()

    def test_two_product_entry_is_the_sum_of_rounded_products(self):
        """Entry (1, 2) of E_01's term is x y + u v, each product rounded
        on its own; a fused multiply-add would round it once."""
        e = 2.0 ** -30
        x = y = 1 + e
        u, v = -(1 + e), 1 + 2 * e
        AB = np.array([[0.5, x, v], [0.0, u, y]])
        prob = SdpProblem()
        P = prob.declare("P", "symmetric", (2, 2))
        got = lmi._kyp(AB, P).dense()[1, 1, 2]     # E_01 is P's basis row 1
        want = float(x * y) + float(u * v)
        fused = [float(Fraction(a) * Fraction(b) + Fraction(c * d))
                 for a, b, c, d in ((x, y, u, v), (u, v, x, y))]
        assert want not in fused
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _assert_same_expr(got, want):
    for x, y in ((got.keys, want.keys), (got.const, want.const), (got.dense(), want.dense())):
        assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())


class TestCongruenceIdentical:
    """congruence holds the bits of the dense per-key BLAS product on every
    term the library writes through it where a column of the outer factor
    meets one nonzero per key: the multiplier rows of the rate, H2 and
    synthesis blocks over every M_Delta layout, -P's unit basis through
    [I 0], and the slack row -s I. These run on the FMA-free kernel too."""

    SHAPES = ((0, 0), (1, 0), (0, 2), (2, 1), (6, 0), (6, 1))

    @staticmethod
    def _multiplier(st):
        prob = SdpProblem()
        prob.add_scalar("s")        # the multiplier's keys need not start at 0
        return lmi._add_multiplier(prob, st)

    @pytest.mark.parametrize("klass", CLASSES)
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_congruence_identical_multiplier_rows(self, klass, p):
        for lc, la in self.SHAPES:
            st = ZamesFalbStructure(lc, la, p, klass, 0.9)
            md = self._multiplier(st)
            rows = [lmi._synth_constants(n, p, BOUNDS10, st, rho)[-1]
                    for n in (1, 3) for rho in (0.9, 1.0)]
            for kind in ("gd", "nm", "tmm", "hb"):
                algo = make_named(kind, BOUNDS10, p)
                rate = build_rate_plant(algo, BOUNDS10, st, 0.95)
                perf = build_perf_plant(algo, BOUNDS10, st.with_rho(1.0),
                                        default_noise_channel(algo))
                rows += [np.hstack([rate.Cc, rate.Dc]), np.hstack([perf.boldC1, perf.boldD11])]
            for T in rows:
                _assert_same_expr(congruence(T, md), ref_builders.dense_congruence(T, md))

    @pytest.mark.parametrize("n,m", [(1, 1), (3, 5), (12, 14)])
    def test_congruence_identical_minus_p_basis(self, n, m):
        prob = SdpProblem()
        P = prob.add_symmetric("P", n)
        T = np.eye(n, m)
        _assert_same_expr(congruence(T, -P), ref_builders.dense_congruence(T, -P))

    @pytest.mark.parametrize("dim", [1, 4, 17])
    def test_congruence_identical_slack_row(self, dim):
        prob = SdpProblem()
        prob.add_symmetric("P", 2)
        minus_s = lmi._minus_identity(prob.add_scalar("s"), dim)
        T = np.eye(dim)
        _assert_same_expr(congruence(T, minus_s), ref_builders.dense_congruence(T, minus_s))

    @pytest.mark.parametrize("kind", ["gd", "nm", "tmm", "hb"])
    def test_congruence_identical_kyp_rows_in_one_listing(self, kind):
        """_kyp's one listing writes the multiplier row and the constant C2
        row of the H2 block as the dense products would, beside P's terms."""
        for p, (lc, la), klass in ((1, (6, 1), "unstructured"), (2, (2, 1), "repeated"),
                                   (4, (1, 0), "nonrepeated")):
            st = ZamesFalbStructure(lc, la, p, klass, 1.0)
            algo = make_named(kind, BOUNDS10, p)
            got = assemble_h2_for(algo, BOUNDS10, st).problem.blocks[0].expr
            pl = build_perf_plant_loop(plantbuild.sector_loop(algo, BOUNDS10), st,
                                       *default_noise_channel(algo)[:2])
            prob = SdpProblem()
            P = prob.declare("P_p", "symmetric", (pl.n_c, pl.n_c))
            md = lmi._add_multiplier(prob, st)
            want = ref_builders.reference_kyp(
                np.hstack([pl.boldA, pl.boldB1]), P, (np.hstack([pl.boldC1, pl.boldD11]), md),
                (np.hstack([pl.boldC2, np.zeros((pl.n_yp, pl.p_c))]),
                 AffineMatrix.constant(np.eye(pl.n_yp))))
            assert got.val.all()       # no entry reads +0.0
            for x, y in ((got.keys, want.keys), (got.dense(), want.dense())):
                assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())


class TestConvexBlockWithoutMultiplierStates:
    """With lc = la = 0 there is no P11: the convex block's multiplier term
    is _kyp's one listing over no rows of [A B], as every other KYP term."""

    @pytest.mark.parametrize("klass", CLASSES)
    @pytest.mark.parametrize("n,p", [(1, 1), (2, 2), (3, 4)])
    def test_written_by_kyp(self, monkeypatch, klass, n, p):
        calls = []
        kyp = lmi._kyp

        def spy(AB, P, *rows, **kw):
            calls.append((AB.shape, P))
            return kyp(AB, P, *rows, **kw)

        st = ZamesFalbStructure(0, 0, p, klass, 0.9)
        monkeypatch.setattr(lmi, "_kyp", spy)
        got = assemble_convex_synth_perf(n, p, BOUNDS10, st, 0.9).problem
        dim = n * p + p
        assert calls == [((0, dim), None)] * 2
        monkeypatch.setattr(lmi, "_convex_synth_block", ref_builders.reference_convex_synth_block)
        ref = assemble_convex_synth_perf(n, p, BOUNDS10, st, 0.9).problem
        for a, b in zip(got.blocks, ref.blocks):
            _assert_same_expr(a.expr, b.expr)


class TestSolverInputIdentity:
    """Blocks are stored as built; the symmetric part the solver forms from
    them is, byte for byte, the stack the symmetrizing add_lmi stored."""

    ALGOS = [("gd", 1), ("nm", 2), ("tmm", 3), ("hb", 4), ("nm", 4)]

    @staticmethod
    def _assert_same_solver_input(got, ref):
        assert len(got.blocks) == len(ref.blocks)
        for a, b in zip(got.blocks, ref.blocks):
            assert (a.name, a.sense, a.eps) == (b.name, b.sense, b.eps)
            assert a.expr.keys.tobytes() == b.expr.keys.tobytes()
            assert a.expr.const.tobytes() == b.expr.const.tobytes()
            assert _sym_stack(a.expr.dense()).tobytes() == b.expr.dense().tobytes()
        rng = np.random.default_rng(got.nvars)
        for _ in range(3):
            x = rng.standard_normal(got.nvars)
            (ok, worst), (ok_ref, worst_ref) = got.verify(x), ref.verify(x)
            assert ok == ok_ref
            assert abs(worst - worst_ref) <= 1e-12 * (1.0 + abs(worst_ref))

    @pytest.mark.parametrize("kind,p", ALGOS, ids=lambda a: str(a))
    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    def test_analysis_problems(self, monkeypatch, kind, p, klass):
        algo = make_named(kind, BOUNDS10, p)
        radius = max(abs(np.linalg.eigvals(algo.nominal_matrix(BOUNDS10.m))))
        rho = 0.5 * (1.0 + radius)
        for lc, la in ((1, 0), (2, 1), (6, 0)):
            st = ZamesFalbStructure(lc, la, p, klass, 1.0)
            for build in (lambda: assemble_rate_for(algo, BOUNDS10, st, rho).problem,
                          lambda: assemble_h2_for(algo, BOUNDS10, st).problem,
                          lambda: assemble_rate_slack(algo, BOUNDS10, st, rho).problem):
                self._assert_same_solver_input(
                    *_direct_and_reference(monkeypatch, build, use_reference_lmi))

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    def test_synthesis_problems(self, monkeypatch, n, p, klass):
        for build in _synthesis_builds(n, p, klass):
            self._assert_same_solver_input(
                *_direct_and_reference(monkeypatch, build, use_reference_lmi))


class TestBulkRowsMatchPerRowCalls:
    """Membership rows, matrix equalities and the BMI box rows, added in
    bulk, give the interchange rows of one add_linear call per row."""

    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    @pytest.mark.parametrize("lc,la,p", [(1, 0, 1), (2, 1, 2), (0, 2, 3), (6, 1, 4)])
    def test_membership_rows(self, monkeypatch, klass, lc, la, p):
        algo = make_named("nm", BOUNDS10, p)
        st = ZamesFalbStructure(lc, la, p, klass, 1.0)
        for build in (lambda: assemble_rate_for(algo, BOUNDS10, st, 0.9).problem,
                      lambda: assemble_h2_for(algo, BOUNDS10, st).problem):
            got, ref = _direct_and_reference(monkeypatch, build, use_reference_rows)
            assert got.to_json_dict()["linear"] == ref.to_json_dict()["linear"]

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 4)])
    @pytest.mark.parametrize("klass", ["unstructured", "nonrepeated"])
    def test_equalities_and_box_rows(self, monkeypatch, n, p, klass):
        # BMI half-steps with slack carry the box rows; all carry equalities
        for build in _synthesis_builds(n, p, klass):
            got, ref = _direct_and_reference(monkeypatch, build, use_reference_rows)
            assert got.to_json_dict()["linear"] == ref.to_json_dict()["linear"]


def _placed_and_reference_builds(klass, n, p, lc, la):
    """(library build, reference build) pairs of every synthesis builder."""
    st = ZamesFalbStructure(lc, la, p, klass, 0.9)
    nc = (lc + la) * p + n * p
    rng = np.random.default_rng([n, p, lc, la])
    P, P_p = (X @ X.T + nc * np.eye(nc) for X in rng.normal(size=(2, nc, nc)))
    gains = tuple(0.1 * rng.standard_normal((p, p)) for _ in range(n))
    algo = from_structured(StructuredControllerForm(gains))
    pairs = [
        (lambda: assemble_convex_synth(n, p, BOUNDS10, st, 0.9),
         lambda: ref_builders.reference_assemble_convex_synth(n, p, BOUNDS10, st, 0.9)),
        (lambda: assemble_convex_synth_perf(n, p, BOUNDS10, st, 0.9),
         lambda: ref_builders.reference_assemble_convex_synth_perf(n, p, BOUNDS10, st, 0.9)),
        (lambda: assemble_rate_slack(algo, BOUNDS10, st, 0.9),
         lambda: ref_builders.reference_assemble_rate_slack(algo, BOUNDS10, st, 0.9)),
    ]
    for slack in (False, True):
        for Pp in (None, P_p):
            args = (n, p, BOUNDS10, st, 0.9, P)
            kwargs = {"P_p": Pp, "slack": slack}
            pairs.append((lambda a=args, k=kwargs: assemble_bmi_fixed_P(*a, **k),
                          lambda a=args, k=kwargs: ref_builders.reference_assemble_bmi_fixed_P(*a, **k)))
    return pairs


def _assert_same_values(got, ref):
    """Equal keys, const and coeffs in every block (signed zeros may differ),
    equal block names, senses and eps, and identical interchange rows."""
    assert [(b.name, b.sense, b.eps) for b in got.blocks] == \
        [(b.name, b.sense, b.eps) for b in ref.blocks]
    for a, b in zip(got.blocks, ref.blocks):
        for x, y in ((a.expr.keys, b.expr.keys), (a.expr.const, b.expr.const),
                     (a.expr.dense(), b.expr.dense())):
            assert x.shape == y.shape and np.array_equal(x, y)
    assert got.nvars == ref.nvars
    assert got.to_json_dict()["linear"] == ref.to_json_dict()["linear"]


class TestPlacedSynthesisBlocks:
    """Every synthesis block, written into one stack, holds the numbers of
    the reference builders, which sum each block through the expression
    algebra; the convex blocks hold the bytes of their placed term sum."""

    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    @pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3) for p in (1, 2, 4)])
    def test_same_values_as_reference(self, klass, n, p):
        # (0, 0) has no multiplier states: nd = 0 and P11 is absent; with
        # lc > 0 and la > 0 a column of top holds two nonzeros, so an entry
        # of the BMI blocks' cross term sums two products
        for lc, la in ((0, 1), (1, 0), (2, 0), (4, 0), (0, 0), (2, 1)):
            for build, reference in _placed_and_reference_builds(klass, n, p, lc, la):
                _assert_same_values(build().problem, reference().problem)

    @pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
    @pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3) for p in (1, 2, 4)])
    def test_convex_blocks_hold_the_term_sum_bits(self, monkeypatch, klass, n, p):
        """synth-rate and synth-h2, written from their variables' entries,
        hold the bytes of the term-by-term sum, signed zeros included."""
        # (0, 0) has no multiplier states; with lc > 0 and la > 0 entries of
        # U sum two products
        for lc, la in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (3, 3)):
            st = ZamesFalbStructure(lc, la, p, klass, 0.9)
            for build in (assemble_convex_synth, assemble_convex_synth_perf):
                got = build(n, p, BOUNDS10, st, 0.9).problem
                with monkeypatch.context() as m:
                    m.setattr(lmi, "_convex_synth_block", ref_builders.reference_convex_synth_block)
                    ref = build(n, p, BOUNDS10, st, 0.9).problem
                assert [b.name for b in got.blocks] == [b.name for b in ref.blocks]
                for a, b in zip(got.blocks, ref.blocks):
                    for x, y in ((a.expr.keys, b.expr.keys), (a.expr.const, b.expr.const),
                                 (a.expr.dense(), b.expr.dense())):
                        assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_same_solver_iterate(self, which):
        build, reference = _placed_and_reference_builds("unstructured", 2, 1, 1, 0)[which]
        got, ref = solve(build().problem), solve(reference().problem)
        assert got.status == ref.status
        assert got.x.tobytes() == ref.x.tobytes()
