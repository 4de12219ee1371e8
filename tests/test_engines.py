import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from iqcopt import engines
from iqcopt.algorithms import SectorBounds, make_named
from iqcopt.engines import (BisectionConfig, certify_h2, certify_rate,
                            certify_structured_rate, fundamental_lower_bound,
                            h2_norm_linear, synthesize_bmi, synthesize_convex,
                            verify_fdi)
from iqcopt.cli import main
from iqcopt.errors import (DomainError, InfeasiblePrecondition, NotCertifiable,
                           PreconditionError, SingularityError, SolverError)
from iqcopt.lmi import H2Certificate, RateCertificate, assemble_rate_for
from iqcopt.multipliers import ZamesFalbParameters, ZamesFalbStructure
from iqcopt.plantbuild import build_perf_plant, build_rate_plant, default_noise_channel
from iqcopt.sdp import SdpSolution, solve
from iqcopt.statespace import eval_frequency
from reference_builders import (reference_initializer_bisection, reference_rate_bisection,
                                reference_structured_bisection, reference_verify_fdi)

BOUNDS10 = SectorBounds(1.0, 10.0)
ST = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)


class TestCertifyRate:
    def test_gd_matches_table(self):
        res = certify_rate(make_named("gd", BOUNDS10), BOUNDS10, ST)
        assert res.value == pytest.approx(9.0 / 11.0, abs=1e-3)
        assert res.bracket[0] <= res.value <= res.bracket[1] + 1e-12

    def test_bracket_invariant(self):
        res = certify_rate(make_named("gd", BOUNDS10), BOUNDS10, ST)
        # every logged probe below the final value must be infeasible
        for rho, feas in res.log:
            if rho < res.value - 1e-12:
                assert not feas

    def test_hb_not_certifiable_at_large_kappa(self):
        bounds = SectorBounds(1.0, 100.0)
        with pytest.raises(NotCertifiable):
            certify_rate(make_named("hb", bounds), bounds, ST)

    def test_hb_certifiable_at_small_kappa(self):
        bounds = SectorBounds(1.0, 2.0)
        res = certify_rate(make_named("hb", bounds), bounds, ST)
        assert res.value < 1.0

    def test_above_fundamental_lower_bound(self):
        for kind in ("gd", "nm", "tmm"):
            res = certify_rate(make_named(kind, BOUNDS10), BOUNDS10, ST)
            assert res.value >= fundamental_lower_bound(BOUNDS10) - 1e-3

    def test_larger_multiplier_class_never_hurts(self):
        bounds = SectorBounds(1.0, 30.0)
        algo = make_named("nm", bounds)
        small = certify_rate(algo, bounds, ZamesFalbStructure(1, 0, 1)).value
        large = certify_rate(algo, bounds, ZamesFalbStructure(3, 1, 1)).value
        assert large <= small + 2e-4


class TestCertifyH2:
    def test_linear_limit_matches_oracle(self):
        bounds = SectorBounds(2.0, 2.0)
        gd = make_named("gd", bounds)
        res = certify_h2(gd, bounds, ST)
        oracle = h2_norm_linear(gd.nominal_matrix(2.0), gd.B, gd.D)
        assert res.value == pytest.approx(oracle, rel=0.01)

    def test_finite_for_gd(self):
        bounds = SectorBounds(1.0, 100.0)
        res = certify_h2(make_named("gd", bounds), bounds,
                         ZamesFalbStructure(4, 0, 1))
        assert np.isfinite(res.value) and res.value > 0

    @staticmethod
    def _solved(monkeypatch, h2_answer=None):
        """The names of the problems engines solves, in order; h2_answer,
        when given, is the answer of the H2 solve."""
        names = []

        def recording(problem, options=None):
            names.append(problem.name)
            if problem.name == "h2" and h2_answer is not None:
                return h2_answer
            return solve(problem, options)

        monkeypatch.setattr(engines, "solve", recording)
        return names

    def test_certified_run_is_one_solve(self, monkeypatch):
        names = self._solved(monkeypatch)
        res = certify_h2(make_named("gd", BOUNDS10), BOUNDS10, ST)
        assert res.solves == 1 and names == ["h2"]

    def test_failed_solve_with_a_refused_rate_gate_exits_not_certifiable(self, monkeypatch,
                                                                          capsys):
        names = self._solved(monkeypatch)
        bounds = SectorBounds(1.0, 100.0)
        with pytest.raises(NotCertifiable, match="^rate LMI infeasible at rho = 1$"):
            certify_h2(make_named("hb", bounds), bounds, ST)
        assert names == ["h2", "rate[rho=1]"]
        assert main(["analyze-h2", "--algo", "hb", "--m", "1", "--L", "100"]) == 3
        assert "rate LMI infeasible at rho = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("answer,error,text", [
        (SdpSolution("infeasible", phase=1, stop="infeasible", iterations=3),
         NotCertifiable, "H2 LMI infeasible at rho = 1"),
        (SdpSolution("undecided", phase=1, stop="stalled", iterations=19, detail="t=8.573e-07"),
         SolverError,
         r"H2 solve not certified: undecided \(stalled in phase 1 after 19 iterations, "
         r"t=8\.573e-07\)"),
        (SdpSolution("diverged", phase=2, stop="diverged", iterations=32),
         SolverError,
         r"H2 solve not certified: diverged \(diverged in phase 2 after 32 iterations\)"),
    ])
    def test_failed_solve_past_the_rate_gate(self, monkeypatch, answer, error, text):
        names = self._solved(monkeypatch, answer)
        with pytest.raises(error, match=f"^{text}$"):
            certify_h2(make_named("gd", BOUNDS10), BOUNDS10, ST)
        assert names == ["h2", "rate[rho=1]"]


class TestVerifyFdi:
    def test_returned_certificates_pass(self):
        res = certify_rate(make_named("tmm", BOUNDS10), BOUNDS10, ST)
        cert = res.certificate
        plant = build_rate_plant(make_named("tmm", BOUNDS10), BOUNDS10,
                                 cert.structure, cert.rho)
        rep = verify_fdi(cert, plant)
        assert rep.ok and rep.worst_eig < 0

    def test_perturbed_certificate_usually_fails(self):
        res = certify_rate(make_named("gd", BOUNDS10), BOUNDS10, ST)
        cert = res.certificate
        plant = build_rate_plant(make_named("gd", BOUNDS10), BOUNDS10,
                                 cert.structure, cert.rho)
        wrecked = RateCertificate(
            P=cert.P + 0.5 * np.linalg.norm(cert.P) * np.eye(cert.P.shape[0]),
            zf=cert.zf, rho=cert.rho, structure=cert.structure)
        # smoke test only: P does not enter the FDI, but the multiplier does
        rep = verify_fdi(wrecked, plant)
        assert isinstance(rep.ok, bool)

    def test_sector_only_linear_limit(self):
        bounds = SectorBounds(1.0, 1.0)
        gd = make_named("gd", bounds)
        st0 = ZamesFalbStructure(0, 0, 1, "unstructured", 1.0)
        res = certify_rate(gd, bounds, st0, BisectionConfig(tol=1e-2))
        plant = build_rate_plant(gd, bounds, res.certificate.structure,
                                 res.certificate.rho)
        assert verify_fdi(res.certificate, plant).ok


    def test_near_rate_plant_at_kappa_1000(self):
        # 1e-5 above the nominal radius the rho-scaled TMM plant has
        # sigma_min(I - Ac) = 2.3e-10 at z = 1: not a pole, but below the
        # absolute guard 1e-12 (2 + ||Ac||) that eval_frequency once applied
        bounds = SectorBounds(1.0, 1000.0)
        algo = make_named("tmm", bounds)
        cert = certify_rate(algo, bounds, ST).certificate
        radius = np.max(np.abs(np.linalg.eigvals(algo.nominal_matrix(1.0))))
        rho = float(radius) + 1e-5
        st = cert.structure.with_rho(rho)
        moved = RateCertificate(P=cert.P, zf=cert.zf, rho=rho, structure=st)
        rep = verify_fdi(moved, build_rate_plant(algo, bounds, st, rho))
        assert np.isfinite(rep.worst_eig)

    def test_nesterov_p4_certificate_at_kappa_1000(self):
        bounds = SectorBounds(1.0, 1000.0)
        algo = make_named("nm", bounds, p=4)
        rho = 0.979
        asm = assemble_rate_for(algo, bounds,
                                ZamesFalbStructure(6, 0, 4, "unstructured", rho), rho)
        sol = solve(asm.problem)
        assert sol.certified
        assert verify_fdi(asm.decode(sol), asm.plant).ok


def _lifted(cert, p):
    """A p = 1 certificate's multiplier at p: M_i = m_i I_p, structure lifted."""
    st = cert.structure
    st_p = ZamesFalbStructure(st.ell_causal, st.ell_anticausal, p, st.klass, st.rho)
    return st_p, ZamesFalbParameters(tuple(M[0, 0] * np.eye(p) for M in cert.zf.M))


@pytest.fixture(scope="module")
def rate_cert():
    return certify_rate(make_named("tmm", BOUNDS10), BOUNDS10, ST).certificate


@pytest.fixture(scope="module")
def rate_plant(rate_cert):
    return build_rate_plant(make_named("tmm", BOUNDS10), BOUNDS10,
                            rate_cert.structure, rate_cert.rho)


@pytest.fixture(scope="module")
def h2_cert():
    return certify_h2(make_named("gd", BOUNDS10), BOUNDS10, ST).certificate


class TestUnitCircle:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_conjugate_symmetric(self, n):
        z = engines._unit_circle(n)
        assert z.shape == (n,) and z[0] == 1.0
        # the even-n midpoint z_{n/2} = exp(i pi) is its own twin
        for k in range(1, (n + 1) // 2):
            assert z[n - k] == z[k].conjugate()
        assert np.max(np.abs(z - np.exp(2j * np.pi * np.arange(n) / n))) <= 1e-15


def _rotation(z):
    """A real 2-state block whose poles are z and conj(z)."""
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


class TestGridPolesRefused:
    """A plant with a pole on the grid is refused on the upper half-grid,
    a lower-half pole at its upper-half twin."""

    GRID = engines._unit_circle(64)

    @pytest.mark.parametrize("A,twin", [
        (_rotation(GRID[59]), 5),                   # poles z_5 and z_59
        (np.diag([1.0, 0.5]), 0),                   # z = 1
        (np.diag([-1.0, 0.5]), 32),                 # z = -1, the even-n midpoint
    ], ids=["rotation", "one", "minus-one"])
    def test_refused(self, rate_cert, rate_plant, A, twin):
        # the rate plant's input and output sizes around the poles in A
        plant = dataclasses.replace(rate_plant, Ac=A, Bc=np.ones((2, rate_plant.Bc.shape[1])),
                                    Cc=np.ones((rate_plant.Cc.shape[0], 2)))
        match = re.escape(f"z={self.GRID[twin]} ")
        with pytest.raises(SingularityError, match=match):
            eval_frequency(plant.as_statespace(), self.GRID[:33])
        with pytest.raises(SingularityError, match=match):
            verify_fdi(rate_cert, plant)


class TestVerifyFdiMatchesPointLoop:
    """The batched upper half of the grid gives the (ok, worst_eig) of one
    evaluation per point of the whole grid."""

    @staticmethod
    def _assert_same(cert, plant, n_samples=64):
        rep = verify_fdi(cert, plant, n_samples)
        ok, worst = reference_verify_fdi(cert, plant, n_samples)
        assert rep.ok == ok and rep.worst_eig == worst
        return rep

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_rate(self, rate_cert, p):
        st, zf = _lifted(rate_cert, p)
        cert = RateCertificate(P=None, zf=zf, rho=rate_cert.rho, structure=st)
        plant = build_rate_plant(make_named("tmm", BOUNDS10, p), BOUNDS10, st, cert.rho)
        assert self._assert_same(cert, plant).ok

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_h2(self, h2_cert, p):
        st, zf = _lifted(h2_cert, p)
        cert = H2Certificate(P_p=None, zf=zf, gamma=h2_cert.gamma, structure=st)
        algo = make_named("gd", BOUNDS10, p)
        plant = build_perf_plant(algo, BOUNDS10, st, default_noise_channel(algo))
        assert self._assert_same(cert, plant).ok

    def test_failing_certificate(self, rate_cert, rate_plant):
        flipped = ZamesFalbParameters(tuple(-M for M in rate_cert.zf.M))
        cert = RateCertificate(P=None, zf=flipped, rho=rate_cert.rho,
                               structure=rate_cert.structure)
        assert not self._assert_same(cert, rate_plant).ok

    @pytest.mark.parametrize("n_samples", [1, 2, 7, np.int64(7), 64])
    def test_other_grid_sizes(self, rate_cert, rate_plant, n_samples):
        self._assert_same(rate_cert, rate_plant, n_samples)

    @pytest.mark.parametrize("n_samples", [1, 2, 7, 64])
    def test_evaluates_the_upper_half_only(self, rate_cert, rate_plant, monkeypatch,
                                           n_samples):
        sizes = []

        def spy(ss, z):
            sizes.append(z.size)
            return eval_frequency(ss, z)

        monkeypatch.setattr(engines, "eval_frequency", spy)
        verify_fdi(rate_cert, rate_plant, n_samples)
        assert sizes == [n_samples // 2 + 1]

    def test_near_rate_plant_at_kappa_1000(self):
        # the plant of TestVerifyFdi.test_near_rate_plant_at_kappa_1000
        bounds = SectorBounds(1.0, 1000.0)
        algo = make_named("tmm", bounds)
        cert = certify_rate(algo, bounds, ST).certificate
        radius = np.max(np.abs(np.linalg.eigvals(algo.nominal_matrix(1.0))))
        rho = float(radius) + 1e-5
        st = cert.structure.with_rho(rho)
        moved = RateCertificate(P=cert.P, zf=cert.zf, rho=rho, structure=st)
        self._assert_same(moved, build_rate_plant(algo, bounds, st, rho))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_multiplier_fails(self, rate_cert, rate_plant, bad):
        # the per-point loop's max(worst, nan) kept -inf and reported ok=True
        M = [M.copy() for M in rate_cert.zf.M]
        M[0][0, 0] = bad
        cert = RateCertificate(P=None, zf=ZamesFalbParameters(tuple(M)), rho=rate_cert.rho,
                               structure=rate_cert.structure)
        with np.errstate(invalid="ignore"):
            assert not verify_fdi(cert, rate_plant).ok

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_empty_grid_rejected(self, rate_cert, rate_plant, n_samples):
        # an empty grid would report ok=True for any certificate
        with pytest.raises(DomainError):
            verify_fdi(rate_cert, rate_plant, n_samples)

    @pytest.mark.parametrize("n_samples", [2.5, True, "64"])
    def test_grid_size_not_an_integer_rejected(self, rate_cert, rate_plant, n_samples):
        # 2.5 evaluated 3 points at angles 2 pi k / 2.5, off the grid;
        # True evaluated one point
        with pytest.raises(DomainError, match="n_samples must be a positive integer"):
            verify_fdi(rate_cert, rate_plant, n_samples)


class TestSynthesizeConvex:
    def test_round_trip_certification(self):
        res = synthesize_convex(2, 1, BOUNDS10, 0.95)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 0.95)
        asm = assemble_rate_for(res.algo, BOUNDS10, st, 0.95)
        assert solve(asm.problem).certified

    def test_refused_at_or_below_lower_bound(self):
        bound = fundamental_lower_bound(BOUNDS10)
        for rho in (bound - 0.01, bound, 1e-200):
            with pytest.raises(PreconditionError, match="fundamental lower bound"):
                synthesize_convex(2, 1, BOUNDS10, rho)

    def test_infeasible_above_lower_bound(self):
        with pytest.raises(NotCertifiable):
            synthesize_convex(2, 1, BOUNDS10, 0.6)

    def test_failed_recertification_is_a_solver_error(self, monkeypatch, capsys):
        """A design the analysis LMI refuses at its rho raises the round
        trip's SolverError, and synth-convex exits 4, not 3."""
        def refuse(*args):
            raise InfeasiblePrecondition("refused")

        monkeypatch.setattr(engines, "assemble_rate_for", refuse)
        with pytest.raises(SolverError,
                           match="^synthesized algorithm failed rate re-certification$"):
            synthesize_convex(2, 1, BOUNDS10, 0.95)
        assert main(["synth-convex", "--m", "1", "--L", "10", "--rho", "0.95"]) == 4
        assert "synthesized algorithm failed rate re-certification" in capsys.readouterr().out

    def test_perf_gamma_reported(self):
        bounds = SectorBounds(1.0, 50.0)
        res = synthesize_convex(2, 1, bounds, 0.995, with_perf=True)
        assert res.gamma is not None and np.isfinite(res.gamma)


class TestNonpositiveN:
    """A design with n < 1 state blocks is refused, naming n, before any
    array of its size is made."""

    @pytest.mark.parametrize("n", [0, -1])
    def test_synthesis_drivers_refuse(self, n):
        with pytest.raises(DomainError, match=f"n must be a positive integer, got {n}"):
            synthesize_convex(n, 1, BOUNDS10, 0.9)
        with pytest.raises(DomainError, match=f"n must be a positive integer, got {n}"):
            synthesize_bmi(n, 1, BOUNDS10, 0.7)


@pytest.mark.parametrize("L", [1.0, 1.01])
def test_bmi_initializer_runs_on_classes_narrower_than_its_floor(L):
    """With L < 1.02 m the initializer tries the class (m, L) itself, so a
    reachable target is designed rather than refused."""
    bounds = SectorBounds(1.0, L)
    res = synthesize_bmi(1, 1, bounds, 0.5, optimize="h2")
    assert res.rho == 0.5 and res.iterations[0] == ("init", 0.5, None)
    assert np.isfinite(res.gamma) and 0.9 < res.gamma < 1.1


class TestBisectionTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), -1e-4, float("-inf")])
    def test_nan_or_negative_refused(self, tol):
        with pytest.raises(DomainError, match="tol must be a nonnegative number"):
            BisectionConfig(tol=tol)

    @pytest.mark.parametrize("tol", [0.0, float("inf")])
    def test_zero_and_inf_keep_their_meaning(self, tol):
        """tol = 0 halves MAX_BISECTION_STEPS times; tol = inf probes rho_hi only."""
        res = certify_rate(make_named("gd", BOUNDS10), BOUNDS10, ST, BisectionConfig(tol=tol))
        assert len(res.log) == (1 + engines.MAX_BISECTION_STEPS if tol == 0 else 1)


class TestStructuredDesign:
    def test_linear_instance_fast_rate(self):
        # no uncertainty at L2 = m2: arbitrarily fast rates possible
        H1 = np.diag([1.0, 2.0, 10.0, 4.0])
        T = np.array([[2.0, -7.0, 0.0, 5.0],
                      [-1.0, 4.0, -3.0, 2.0],
                      [0.0, -2.0, 1.0, 0.0]])
        rho, res = certify_structured_rate(H1, T, 1.0, 1.0, n=2)
        assert rho <= 0.1
        ok = res.algo
        assert ok.n == 2 and ok.p == 4

    def test_plain_sector_reduction_roundtrip(self):
        # design for the plain class via H1 = m I, T = I, then re-certify
        rho, res = certify_structured_rate(
            BOUNDS10.m * np.eye(1), np.eye(1), 0.0, BOUNDS10.L - BOUNDS10.m, n=2)
        st = ZamesFalbStructure(1, 0, 1, "unstructured", 1.0)
        recert = certify_rate(res.algo, BOUNDS10, st)
        assert recert.value <= rho + 0.01


def test_h2_norm_linear_hand_value():
    # deadbeat loop: gramian = B B^T + A B B^T A^T
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    B = np.array([[-1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    assert h2_norm_linear(A, B, C) == pytest.approx(1.0)


def test_larger_multiplier_class_never_hurts_gamma():
    bounds = SectorBounds(1.0, 30.0)
    algo = make_named("nm", bounds)
    small = certify_h2(algo, bounds, ZamesFalbStructure(1, 0, 1)).value
    large = certify_h2(algo, bounds, ZamesFalbStructure(4, 0, 1)).value
    assert large <= small * (1 + 1e-6)


def test_h2_not_certifiable_for_heavy_ball():
    bounds = SectorBounds(1.0, 100.0)
    with pytest.raises(NotCertifiable):
        certify_h2(make_named("hb", bounds), bounds, ZamesFalbStructure(4, 0, 1))


class TestOneBisectionLoop:
    """The drivers' shared _bisect probes the same points, logs the same
    steps and returns the same bracket and answer as the loop each driver
    used to run on its own. The probe is a stub, feasible iff rho >= a
    threshold, so no solver runs."""

    GD = make_named("gd", BOUNDS10)
    RADIUS = GD.nominal_radius(BOUNDS10.m)

    @staticmethod
    def _threshold_probe(threshold, seen):
        def probe(rho):
            seen.append(rho)
            return SimpleNamespace(rho=rho, algo=("algo", rho)) if rho >= threshold else None
        return probe

    @pytest.mark.parametrize("threshold", [0.0, 0.5, RADIUS, RADIUS + 1e-6, 0.83,
                                           0.9999, 1.0, 1.5])
    @pytest.mark.parametrize("rho_hi", [1.0, 0.95, RADIUS + 1e-6, RADIUS, 0.5])
    @pytest.mark.parametrize("tol", [1e-4, 1e-2, 1.0, 0.0])
    def test_certify_rate(self, monkeypatch, threshold, rho_hi, tol):
        seen, ref_seen = [], []
        probe = self._threshold_probe(threshold, seen)

        class Assembly:
            plant = None

            def __init__(self, rho):
                self.rho = rho

            def decode(self, sol):
                return ("certificate", self.rho)

        def rate_feasible(algo, bounds, structure, rho, options, counter):
            counter[0] += 1
            got = probe(rho)
            return (Assembly(got.rho), None) if got else None

        monkeypatch.setattr(engines, "_rate_feasible", rate_feasible)
        monkeypatch.setattr(engines, "verify_fdi",
                            lambda cert, plant: engines.FdiReport(True, -1.0))
        ref = reference_rate_bisection(self._threshold_probe(threshold, ref_seen),
                                       self.RADIUS + 1e-6, rho_hi, tol)
        config = BisectionConfig(rho_hi=rho_hi, tol=tol)
        if ref is None:
            with pytest.raises(NotCertifiable):
                certify_rate(self.GD, BOUNDS10, ST, config)
        else:
            res = certify_rate(self.GD, BOUNDS10, ST, config)
            rho_star, bracket, witness, log = ref
            assert res.value == rho_star
            assert res.bracket == bracket
            assert res.log == log
            assert res.certificate == ("certificate", witness.rho)
            assert res.solves == len(ref_seen)
        assert seen == ref_seen

    @pytest.mark.parametrize("threshold", [0.0, 5e-4, 1e-3, 0.3, 0.905367, 1.0 - 1e-6, 1.0])
    def test_structured_bisections(self, monkeypatch, threshold):
        seen, recertified = [], []
        monkeypatch.setattr(engines, "_structured_probe",
                            lambda *args: self._threshold_probe(threshold, seen))
        # the structured design's re-certification at its returned rho is
        # stubbed too, and accepts
        def assemble_structured_rate(algo, H1, T, m2, L2, structure, rho):
            recertified.append((algo, rho))
            return SimpleNamespace(problem=None, plant=None, decode=lambda sol: algo)

        monkeypatch.setattr(engines.lmi, "assemble_structured_rate", assemble_structured_rate)
        monkeypatch.setattr(engines, "solve",
                            lambda problem, options: SimpleNamespace(certified=True))
        monkeypatch.setattr(engines, "verify_fdi",
                            lambda cert, plant: engines.FdiReport(True, -1.0))
        runs = [
            # the initializer returns (algorithm, rho), the structured design (rho, result)
            (lambda: engines._structured_initializer(2, 1, BOUNDS10, None)[::-1],
             reference_initializer_bisection, lambda w: w.algo),
            (lambda: certify_structured_rate(np.eye(1), np.eye(1), 0.0, 9.0, n=2),
             reference_structured_bisection, lambda w: w)]
        for run, reference, result in runs:
            ref_seen = []
            ref = reference(self._threshold_probe(threshold, ref_seen))
            seen.clear()
            recertified.clear()
            if ref is None:
                with pytest.raises(NotCertifiable):
                    run()
                assert recertified == []
            else:
                hi, witness = ref
                assert run() == (hi, result(witness))
                # only the structured design is re-certified, once, at hi
                if reference is reference_structured_bisection:
                    assert recertified == [(witness.algo, hi)]
                else:
                    assert recertified == []
            assert seen == ref_seen

    @pytest.mark.parametrize("lo,hi", [(0.2, 1.0), (0.9, 0.9), (0.95, 0.9), (0.0, 1e-12)])
    @pytest.mark.parametrize("tol", [1e-4, 0.0])
    def test_bisect_bracket(self, lo, hi, tol):
        seen = []
        got_lo, got_hi, witness, log = engines._bisect(
            self._threshold_probe(0.5, seen), lo, hi, tol)
        assert [r for r, _ in log] == seen
        assert len(log) <= 1 + engines.MAX_BISECTION_STEPS
        if hi < 0.5:
            assert witness is None and log == [(hi, False)] and (got_lo, got_hi) == (lo, hi)
            return
        assert witness.rho == got_hi
        if hi - lo > tol:
            assert got_lo < 0.5 <= got_hi
            assert got_hi - got_lo <= tol or len(log) == 1 + engines.MAX_BISECTION_STEPS
        else:           # lo >= hi or already within tol: only hi is probed
            assert (got_lo, got_hi, log) == (lo, hi, [(hi, True)])


GD10 = make_named("gd", BOUNDS10)
NARROW = SectorBounds(1.0, 1.01)


def _structured_gd10():
    return certify_structured_rate(BOUNDS10.m * np.eye(1), np.eye(1), 0.0,
                                   BOUNDS10.L - BOUNDS10.m, n=2)


class TestReportingGate:
    """Every certificate a public driver returns comes out of engines._checked,
    the one decode-and-FDI gate, and a refusal there is a SolverError."""

    @pytest.fixture
    def passed(self, monkeypatch):
        """The certificates the gate returns, in call order."""
        out = []
        gate = engines._checked

        def recording(asm, sol, what):
            out.append(gate(asm, sol, what))
            return out[-1]

        monkeypatch.setattr(engines, "_checked", recording)
        return out

    def test_certifiers_call_it_once(self, passed):
        res = certify_rate(GD10, BOUNDS10, ST)
        assert len(passed) == 1 and res.certificate is passed[0]
        passed.clear()
        res = certify_h2(GD10, BOUNDS10, ST)
        assert len(passed) == 1 and res.certificate is passed[0]
        passed.clear()
        _structured_gd10()
        assert len(passed) == 1 and isinstance(passed[0], RateCertificate)

    def test_synthesis_results_passed_it(self, passed):
        synthesize_convex(2, 1, BOUNDS10, 0.95)
        assert [type(c) for c in passed] == [RateCertificate]
        passed.clear()
        res = synthesize_bmi(1, 1, NARROW, 0.5, optimize="h2")
        assert any(c is res.rate_certificate for c in passed)
        assert any(c is res.h2_certificate for c in passed)

    @pytest.mark.parametrize("run,text", [
        (lambda: certify_rate(GD10, BOUNDS10, ST), r"certificate at rho=0\.\d{6}"),
        (lambda: certify_h2(GD10, BOUNDS10, ST), "H2 certificate"),
        (lambda: synthesize_convex(2, 1, BOUNDS10, 0.95), r"certificate at rho=0\.950000"),
        (lambda: synthesize_bmi(1, 1, NARROW, 0.5, optimize="rate"),
         r"certificate at rho=0\.500000"),
        (lambda: synthesize_bmi(1, 1, NARROW, 0.5, optimize="h2"), "H2 certificate"),
        (_structured_gd10, r"structured design at rho=0\.\d{6}"),
    ])
    def test_fdi_refusal_is_a_solver_error(self, monkeypatch, run, text):
        monkeypatch.setattr(engines, "verify_fdi",
                            lambda cert, plant: engines.FdiReport(False, 0.5))
        with pytest.raises(SolverError,
                           match=f"^{text} failed FDI verification \\(worst eig 5\\.000e-01\\)$"):
            run()

    @pytest.mark.parametrize("argv", [
        ["analyze-rate", "--algo", "gd", "--m", "1", "--L", "10"],
        ["analyze-h2", "--algo", "gd", "--m", "1", "--L", "10"],
        ["synth-convex", "--m", "1", "--L", "10", "--rho", "0.95"],
    ])
    def test_fdi_refusal_exits_solver(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(engines, "verify_fdi",
                            lambda cert, plant: engines.FdiReport(False, 0.5))
        assert main(argv) == 4
        assert "failed FDI verification (worst eig 5.000e-01)" in capsys.readouterr().out
