import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import iqcopt
from iqcopt import cli
from iqcopt.cli import main
from iqcopt.errors import SolverError

RUN = lambda *argv: main(list(argv))


def run_capture(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyzeRate:
    def test_gd_reproduces_table(self, capsys):
        code, out = run_capture(capsys, "analyze-rate", "--algo", "gd",
                                "--m", "1", "--L", "10", "--lc", "1", "--la", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["rho"] == pytest.approx(9 / 11, abs=1e-3)
        assert payload["manifest"]["command"] == "analyze-rate"
        assert "certificate_digest" in payload["result"]

    def test_hb_exits_not_certifiable(self, capsys):
        code, out = run_capture(capsys, "analyze-rate", "--algo", "hb",
                                "--m", "1", "--L", "100", "--lc", "1", "--la", "0")
        assert code == 3
        assert json.loads(out)["error"] == "not-certifiable"

    def test_file_algo_matches_named(self, tmp_path, capsys):
        from iqcopt.algorithms import SectorBounds, make_named, save_algorithm

        path = tmp_path / "gd.json"
        save_algorithm(make_named("gd", SectorBounds(1.0, 10.0)), path)
        code1, out1 = run_capture(capsys, "analyze-rate", "--algo", f"file:{path}",
                                  "--m", "1", "--L", "10")
        code2, out2 = run_capture(capsys, "analyze-rate", "--algo", "gd",
                                  "--m", "1", "--L", "10")
        assert code1 == code2 == 0
        r1 = json.loads(out1)["result"]["rho"]
        r2 = json.loads(out2)["result"]["rho"]
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_bad_flags_exit_usage(self):
        assert RUN("analyze-rate", "--algo", "gd") == 2

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        code, _ = run_capture(capsys, "analyze-rate", "--algo", "gd",
                              "--m", "1", "--L", "4", "-o", str(out_path))
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["result"]["rho"] == pytest.approx(3 / 5, abs=1e-3)


class TestAnalyzeH2:
    def test_linear_limit(self, capsys):
        code, out = run_capture(capsys, "analyze-h2", "--algo", "gd",
                                "--m", "2", "--L", "2", "--lc", "1")
        assert code == 0
        assert json.loads(out)["result"]["gamma"] == pytest.approx(0.5, rel=0.01)


class TestSynthConvex:
    def test_emits_certified_algorithm(self, tmp_path, capsys):
        algo_path = tmp_path / "designed.json"
        code, out = run_capture(capsys, "synth-convex", "--m", "1", "--L", "10",
                                "--n", "2", "--rho", "0.95",
                                "--out", str(algo_path))
        assert code == 0
        code2, out2 = run_capture(capsys, "analyze-rate", "--algo",
                                  f"file:{algo_path}", "--m", "1", "--L", "10")
        assert code2 == 0
        assert json.loads(out2)["result"]["rho"] <= 0.95 + 1e-3

    def test_infeasible_above_lower_bound_exits_3(self, capsys):
        code, _ = run_capture(capsys, "synth-convex", "--m", "1", "--L", "10",
                              "--n", "2", "--rho", "0.6")
        assert code == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L,rho", [("10", "0.51"), ("10", "1e-200"), ("10", "1e-320"),
                                       ("1", "1e-320")])
    def test_unreachable_or_tiny_rho_exits_2(self, capsys, L, rho):
        """A rho at or below the fundamental lower bound, or one whose
        inverse overflows, is refused before anything is built."""
        code = main(["synth-convex", "--m", "1", "--L", L, "--rho", rho])
        assert code == 2
        assert f"rho={float(rho)}" in capsys.readouterr().err


@pytest.mark.parametrize("klass", ["unstructured", "repeated", "nonrepeated"])
@pytest.mark.parametrize("command", ["synth-convex", "synth-bmi"])
def test_synthesis_commands_pass_the_class(monkeypatch, capsys, command, klass):
    """--klass reaches synthesize_convex or synthesize_bmi, and the
    manifest records it."""
    from types import SimpleNamespace

    from iqcopt.algorithms import SectorBounds, make_named

    seen = []

    def synthesize(n, p, bounds, rho, structure=None, **kw):
        seen.append(structure.klass)
        return SimpleNamespace(algo=make_named("gd", SectorBounds(1.0, 10.0), p), rho=rho,
                               gamma=None, initializer_rho=None, iterations=[], solves=0)

    monkeypatch.setattr(cli, "synthesize_convex", synthesize)
    monkeypatch.setattr(cli, "synthesize_bmi", synthesize)
    rho = "--rho" if command == "synth-convex" else "--target-rho"
    code, out = run_capture(capsys, command, "--m", "1", "--L", "10", rho, "0.9",
                            "--p", "2", "--klass", klass)
    assert code == 0
    assert seen == [klass]
    assert json.loads(out)["manifest"]["parameters"]["klass"] == klass


class TestSampleH2:
    def test_file_algo_of_other_p_exits_usage(self, tmp_path, capsys):
        from iqcopt.algorithms import SectorBounds, make_named, save_algorithm

        path = tmp_path / "nm.json"
        save_algorithm(make_named("nm", SectorBounds(1.0, 10.0)), path)
        code = RUN("sample-h2", "--algo", f"file:{path}", "--m", "1", "--L", "10",
                   "--p", "2", "--steps", "20", "--realizations", "2", "--runs", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "must equal the algorithm dimension" in err and "Traceback" not in err

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sample-h2", "--algo", "gd", "--m", "1", "--L", "50",
                "--runs", "5", "--steps", "200", "--realizations", "20",
                "--seed", "7"]
        assert RUN(*args, "-o", str(a)) == 0
        assert RUN(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_objective_and_noise_streams_differ(self, monkeypatch, tmp_path):
        """Each run draws its objective and its noise from separate streams."""
        words = []
        sample, simulate = cli.sample_function, cli.simulate_h2

        def recording_sample(bounds, p, kind, rng):
            words.append(copy.deepcopy(rng.bit_generator).random_raw(4))
            return sample(bounds, p, kind, rng)

        def recording_simulate(algo, spec, k_max, realizations, seed, **kw):
            words.append(np.random.PCG64(seed).random_raw(4))
            return simulate(algo, spec, k_max, realizations, seed, **kw)

        monkeypatch.setattr(cli, "sample_function", recording_sample)
        monkeypatch.setattr(cli, "simulate_h2", recording_simulate)
        args = ["sample-h2", "--algo", "gd", "--m", "1", "--L", "10", "--runs", "3",
                "--steps", "50", "--realizations", "4", "--seed", "5"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert RUN(*args, "-o", str(path)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # objective and noise words of the first file's 3 runs: all distinct
        assert len({w.tobytes() for w in words[:6]}) == 6

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "out.csv"
        RUN("sample-h2", "--algo", "gd", "--m", "1", "--L", "10",
            "--runs", "2", "--steps", "50", "--realizations", "4",
            "--seed", "1", "-o", str(path))
        lines = path.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "algo,kind,m,L,seed,k_max,N,estimate"


class TestSampleH2Counts:
    BASE = ("sample-h2", "--algo", "gd", "--m", "1", "--L", "10", "--steps", "10",
            "--realizations", "2")

    @pytest.mark.parametrize("seed", [("--seed", "-1"), ("--seed", "-5", "--runs", "10")])
    def test_negative_seed_exits_usage(self, seed, capsys):
        assert RUN(*self.BASE, *seed) == 2
        captured = capsys.readouterr()
        assert f"--seed must be a nonnegative integer, got {seed[1]}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_nonpositive_runs_exits_usage(self, runs, capsys):
        assert RUN(*self.BASE, "--runs", runs) == 2
        captured = capsys.readouterr()
        assert f"--runs must be a positive integer, got {runs}" in captured.err
        assert captured.out == ""


class TestNonpositiveP:
    @pytest.mark.parametrize("argv", [
        ("sample-h2", "--algo", "nm", "--m", "1", "--L", "10", "--p", "0",
         "--steps", "10", "--realizations", "2"),
        ("analyze-rate", "--algo", "gd", "--m", "1", "--L", "10", "--p", "-3"),
    ])
    def test_exits_usage_with_a_message(self, argv, capsys):
        assert RUN(*argv) == 2
        err = capsys.readouterr().err
        assert "p must be a positive integer" in err and "Traceback" not in err


class TestNonpositiveN:
    @pytest.mark.parametrize("argv", [
        ("synth-convex", "--m", "1", "--L", "10", "--rho", "0.9", "--n", "0"),
        ("synth-convex", "--m", "1", "--L", "10", "--rho", "0.9", "--n", "-1"),
        ("synth-convex", "--m", "1", "--L", "10", "--rho", "0.9", "--perf", "--n", "0"),
        ("synth-bmi", "--m", "1", "--L", "10", "--target-rho", "0.7", "--n", "0"),
        ("synth-bmi", "--m", "1", "--L", "10", "--target-rho", "0.7", "--n", "-1"),
    ])
    def test_exits_usage_with_a_message(self, argv, capsys):
        assert RUN(*argv) == 2
        captured = capsys.readouterr()
        assert f"n must be a positive integer, got {argv[-1]}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestNanTolerance:
    @pytest.mark.parametrize("argv", [
        ("analyze-rate", "--algo", "gd", "--m", "1", "--L", "10", "--tol", "nan"),
        ("sweep", "--kappa-grid", "lin:10:10:1", "--algos", "gd", "--tol", "nan"),
        ("sweep", "--kappa-grid", "lin:10:10:1", "--algos", "gd", "--tol=-1e-3"),
    ])
    def test_exits_usage_with_a_message(self, argv, capsys):
        assert RUN(*argv) == 2
        captured = capsys.readouterr()
        assert "tol must be a nonnegative number" in captured.err and captured.out == ""


class TestSolverTolVariable:
    """IQC_SOLVER_TOL must be a finite number >= 0; anything else is a
    usage error that names the variable, before any solve."""

    ARGV = ("analyze-rate", "--algo", "gd", "--m", "1", "--L", "10", "--lc", "1", "--la", "0")

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf", "-inf", "1e-6x"])
    def test_refused(self, value, monkeypatch, capsys):
        monkeypatch.setenv("IQC_SOLVER_TOL", value)
        assert RUN(*self.ARGV) == 2
        captured = capsys.readouterr()
        assert "IQC_SOLVER_TOL must be a finite number >= 0" in captured.err
        assert repr(value) in captured.err and captured.out == ""

    def test_refused_in_a_subprocess_without_a_traceback(self):
        env = dict(_child_env(), IQC_SOLVER_TOL="abc")
        proc = subprocess.run([sys.executable, "-m", "iqcopt.cli", *self.ARGV],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "IQC_SOLVER_TOL" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["0", "1e-7"])
    def test_accepted_into_the_manifest(self, value, monkeypatch, capsys):
        monkeypatch.setenv("IQC_SOLVER_TOL", value)
        code, out = run_capture(capsys, *self.ARGV)
        assert code == 0
        opts = json.loads(out)["manifest"]["solver_options"]
        assert opts["tol_abs"] == opts["tol_rel"] == float(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("L", ["1", "1.01"])
def test_synth_bmi_designs_at_m_equal_L(L, capsys):
    """m = L and classes narrower than the initializer's 1.02 floor design."""
    code, out = run_capture(capsys, "synth-bmi", "--m", "1", "--L", L, "--target-rho", "0.5",
                            "--n", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["rho"] == 0.5 and np.isfinite(result["gamma"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("L, rho", [("1", "0.1"), ("1.3", "0.08")])
def test_synth_bmi_narrow_target_runs_the_initializer(L, rho, monkeypatch, capsys):
    """A target whose initial class width falls below the 1.02 floor (or below
    kappa, if that is smaller) starts the initializer at that floor."""
    from iqcopt import engines

    widths = []
    initializer = engines._structured_initializer

    def recording(n, p, bounds, options):
        widths.append(bounds.kappa)
        return initializer(n, p, bounds=bounds, options=options)

    monkeypatch.setattr(engines, "_structured_initializer", recording)
    code, out = run_capture(capsys, "synth-bmi", "--m", "1", "--L", L, "--target-rho", rho,
                            "--n", "1")
    assert min(widths) == min(1.02, float(L))
    assert code == 0 or (code == 3 and "no class width" not in out)


class TestNonFiniteBounds:
    @pytest.mark.parametrize("argv", [
        ("sample-h2", "--algo", "gd", "--m", "1", "--L", "inf",
         "--steps", "10", "--realizations", "2"),
        ("analyze-rate", "--algo", "gd", "--m", "1", "--L", "inf"),
        ("analyze-h2", "--algo", "gd", "--m", "1", "--L", "inf"),
        ("analyze-rate", "--algo", "nm", "--m", "inf", "--L", "inf"),
    ])
    def test_exits_usage_with_a_message(self, argv, capsys):
        assert RUN(*argv) == 2
        captured = capsys.readouterr()
        assert "m and L must be finite" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestHugeNoiseChannelFile:
    """A file: algorithm whose D (the default noise channel's C_perf) is
    finite but would overflow the H2 blocks' products exits 2 from
    analyze-h2 with the message, before any product warns."""

    def test_exits_usage(self, tmp_path, capfd):
        # stable at m = 1, and D Ddagger = C Ddagger = I with D's huge entry
        # on the column Ddagger does not read
        algo = {"n": 2, "p": 1, "A": [[1.0, 0.5], [0.0, 0.3]], "B": [[-0.5], [0.0]],
                "C": [[1.0, 1.0]], "D": [[1.0, 1e160]], "Ddagger": [[1.0], [0.0]]}
        path = tmp_path / "algo.json"
        path.write_text(json.dumps(algo))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = RUN("analyze-h2", "--algo", f"file:{path}", "--m", "1", "--L", "10")
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert "C_perf: entries up to 1e+160" in err and "Traceback" not in err


class TestNonFiniteAlgorithmFile:
    """A file: algorithm with an inf or NaN entry (json reads Infinity and
    NaN) is a usage error: exit 2 with the message on stderr, nothing on
    stdout, LAPACK's included."""

    @staticmethod
    def _file(tmp_path, name, bad, with_ddagger):
        from iqcopt.algorithms import SectorBounds, make_named, to_json_dict

        d = to_json_dict(make_named("gd", SectorBounds(1.0, 10.0)))
        d[name][-1][-1] = bad
        if not with_ddagger:
            del d["Ddagger"]
        path = tmp_path / "algo.json"
        path.write_text(json.dumps(d))
        return path

    @pytest.mark.parametrize("name,bad,with_ddagger", [
        ("A", np.inf, True), ("A", np.inf, False), ("B", np.nan, True)])
    @pytest.mark.parametrize("command", [
        ["analyze-rate"], ["sample-h2", "--steps", "20", "--realizations", "2", "--runs", "1"]])
    def test_exits_usage(self, tmp_path, capfd, name, bad, with_ddagger, command):
        path = self._file(tmp_path, name, bad, with_ddagger)
        code = RUN(command[0], "--algo", f"file:{path}", "--m", "1", "--L", "10", *command[1:])
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert f"{name} has a non-finite entry" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,keys", [
    (["analyze-rate", "--algo", "gd", "--m", "1", "--L", "10"],
     {"rho", "certificate_digest", "solves", "seconds", "bracket"}),
    (["analyze-h2", "--algo", "gd", "--m", "1", "--L", "10"], {"gamma", "solves", "seconds"}),
    (["synth-convex", "--m", "1", "--L", "10", "--rho", "0.9", "--n", "1"],
     {"rho", "gamma", "algorithm"}),
    (["synth-bmi", "--m", "1", "--L", "1", "--target-rho", "0.5", "--n", "1"],
     {"rho", "gamma", "algorithm", "initializer_rho", "iterations", "solves"})])
def test_json_commands_write_one_payload(tmp_path, capsys, argv, keys):
    """Each JSON command prints its result under the run manifest, and -o
    holds the same bytes."""
    path = tmp_path / "out.json"
    code, out = run_capture(capsys, *argv, "-o", str(path))
    assert code == 0
    assert path.read_text() == out
    payload = json.loads(out)
    assert set(payload) == {"manifest", "result"}
    assert set(payload["manifest"]) == {"command", "parameters", "solver_options",
                                        "tool_version", "seconds"}
    assert payload["manifest"]["command"] == argv[0]
    assert payload["manifest"]["parameters"]["output"] == str(path)
    assert set(payload["result"]) == keys


@pytest.mark.parametrize("command", ["analyze-rate", "analyze-h2", "synth-convex", "synth-bmi",
                                     "sample-h2", "sweep"])
def test_output_help_is_true_for_every_command(capsys, command):
    """The JSON commands print their result and write it to -o; the CSV
    commands write it to -o instead of stdout. One help text says both."""
    assert RUN(command, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("write the output to this file; the JSON commands print it too, "
            "sample-h2 and sweep do not") in text


class TestUnreadableFiles:
    """A file: algorithm that is missing, not JSON, lacks an entry or holds
    a malformed one, and an output path that is a directory or lies in a
    missing one, are usage errors: exit 2 with one line on stderr that
    names the path, before any solve."""

    ARGV = ("--m", "1", "--L", "10")
    MALFORMED = ["A-string", "A-ragged", "list", "Ddagger-string", "n-string", "named-m-string",
                 "n-fraction", "named-p-fraction"]

    @staticmethod
    def _files(tmp_path):
        from iqcopt.algorithms import SectorBounds, make_named, to_json_dict

        d = to_json_dict(make_named("gd", SectorBounds(1.0, 10.0)))
        text = json.dumps(d)
        malformed = {"A-string": {**d, "A": "x"}, "A-ragged": {**d, "A": [[1, 2], [3]]},
                     "list": [d], "Ddagger-string": {**d, "Ddagger": "q"},
                     "n-string": {**d, "n": "two"},
                     "named-m-string": {"kind": "gd", "m": "x", "L": 10.0},
                     "n-fraction": {**d, "n": 1.5},
                     "named-p-fraction": {"kind": "nm", "m": 1, "L": 10, "p": 2.7}}
        del d["A"]
        files = {"missing": tmp_path / "nope.json", "truncated": tmp_path / "cut.json",
                 "binary": tmp_path / "bin.json", "no-A": tmp_path / "noA.json"}
        files["truncated"].write_text(text[:len(text) // 2])
        files["binary"].write_bytes(b"\xff\xfe" + text.encode())
        files["no-A"].write_text(json.dumps(d))
        for case, content in malformed.items():
            files[case] = tmp_path / f"{case}.json"
            files[case].write_text(json.dumps(content))
        return files

    @pytest.mark.parametrize("case", ["missing", "truncated", "binary", "no-A", *MALFORMED])
    @pytest.mark.parametrize("command", ["analyze-rate", "analyze-h2"])
    def test_algorithm_file_exits_usage(self, tmp_path, capfd, monkeypatch, case, command):
        monkeypatch.setattr(cli, "certify_rate", None)     # no solve may start
        monkeypatch.setattr(cli, "certify_h2", None)
        path = self._files(tmp_path)[case]
        code = RUN(command, "--algo", f"file:{path}", *self.ARGV)
        out, err = capfd.readouterr()
        assert code == 2 and out == ""
        assert str(path) in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("analyze-rate", "--algo", "gd", *ARGV, "-o"),
        ("sweep", "--kappa-grid", "log:2:100:3", "-o"),
        ("synth-convex", *ARGV, "--rho", "0.9", "-o"),
        ("synth-convex", *ARGV, "--rho", "0.9", "--out")])
    def test_unwritable_output_exits_usage(self, tmp_path, capfd, monkeypatch,
                                                       argv):
        for name in ("certify_rate", "certify_h2", "synthesize_convex"):
            monkeypatch.setattr(cli, name, None)     # refused before the run
        path = tmp_path / "nonexistent" / "out.json"
        for target in (path, tmp_path):     # in a missing directory, a directory
            code = RUN(*argv, str(target))
            out, err = capfd.readouterr()
            assert code == 2 and out == ""
            assert str(target) in err and len(err.splitlines()) == 1
        assert not path.parent.exists()

    @pytest.mark.parametrize("case", ["no-A", *MALFORMED])
    def test_refused_in_a_subprocess_without_a_traceback(self, tmp_path, case):
        path = self._files(tmp_path)[case]
        proc = subprocess.run([sys.executable, "-m", "iqcopt.cli", "analyze-rate", "--algo",
                               f"file:{path}", *self.ARGV],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 2 and proc.stdout == ""
        assert str(path) in proc.stderr and "Traceback" not in proc.stderr


class TestSweep:
    @staticmethod
    def _rows(path):
        return [l.split(",") for l in path.read_text().splitlines()
                if l and not l.startswith(("#", "kappa"))]

    def test_small_rate_sweep_matches_analytic(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = RUN("sweep", "--mode", "rate", "--algos", "gd",
                   "--kappa-grid", "log:2:10:3", "--tol", "1e-4",
                   "-o", str(path))
        assert code == 0
        for kappa_s, algo, mode, value_s, lb_s in self._rows(path):
            kappa = float(kappa_s)
            want = (kappa - 1) / (kappa + 1)
            assert float(value_s) == pytest.approx(want, abs=1e-2)
            assert float(value_s) >= float(lb_s) - 1e-3

    def test_rate_row_refused_by_the_gate_reads_nan(self, monkeypatch, tmp_path):
        """A SolverError in one --mode rate row writes nan there, as h2 mode
        does, instead of aborting the grid with exit 4."""
        calls = []
        certify_rate = cli.certify_rate

        def refuse_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise SolverError("certificate at rho=0.500000 failed FDI verification")
            return certify_rate(*args)

        monkeypatch.setattr(cli, "certify_rate", refuse_second)
        path = tmp_path / "sweep.csv"
        assert RUN("sweep", "--mode", "rate", "--algos", "gd",
                   "--kappa-grid", "log:2:8:3", "-o", str(path)) == 0
        values = [row[3] for row in self._rows(path)]
        assert len(calls) == 3 and values[1] == "nan"
        assert np.isfinite(float(values[0])) and np.isfinite(float(values[2]))

    def test_h2_rows_have_no_lower_bound(self, tmp_path):
        """The fundamental lower bound bounds rates, not gamma: h2 rows write
        nan in its column, while rate rows keep it."""
        path = tmp_path / "sweep.csv"
        for mode in ("rate", "h2"):
            assert RUN("sweep", "--mode", mode, "--algos", "gd",
                       "--kappa-grid", "log:2:100:3", "-o", str(path)) == 0
            rows = self._rows(path)
            assert len(rows) == 3 and all(np.isfinite(float(r[3])) for r in rows)
            bounds = [r[4] for r in rows]
            assert (all(b == "nan" for b in bounds) if mode == "h2"
                    else all(0 < float(b) < 1 for b in bounds))

    @pytest.mark.parametrize("grid", [
        "foo", "bad:1:2:3", "log:a:10:3", "log:1:10", "log:1:10:3:4", "log:1:10:2.5",
        "lin:1:10:0", "log:1:10:-3", "log:0:10:3", "log:-2:10:3", "log:2:0:3",
        "lin:1:nan:3", "log:1:inf:3"])
    def test_malformed_kappa_grid_exits_usage(self, grid, capsys):
        assert RUN("sweep", "--algos", "gd", "--kappa-grid", grid) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: iqcopt sweep" in captured.err
        assert f"argument --kappa-grid: {grid!r}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("grid", ["lin:4:0.5:3", "log:0.5:0.9:2", "lin:0.99:2:2"])
    def test_kappa_below_one_exits_usage_before_any_solve(self, grid, capsys, monkeypatch):
        # kappa = L/m >= 1; the kappa = 4 rows of lin:4:0.5:3 used to be
        # solved before m=1, L=0.5 was refused
        monkeypatch.setattr(cli, "certify_rate", None)     # no solve may start
        monkeypatch.setattr(cli, "certify_h2", None)
        for mode in ("rate", "h2"):
            assert RUN("sweep", "--mode", mode, "--kappa-grid", grid) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --kappa-grid: {grid!r}" in captured.err
            assert ">= 1" in captured.err

    @pytest.mark.parametrize("grid,want", [("log:2:8:3", [2.0, 4.0, 8.0]),
                                           ("lin:2:3:3", [2.0, 2.5, 3.0]),
                                           ("lin:5:5:1", [5.0])])
    def test_kappa_grid_spec_is_kept_and_parsed(self, grid, want):
        args = cli.build_parser().parse_args(["sweep", "--kappa-grid", grid])
        assert args.kappa_grid == grid
        np.testing.assert_allclose(cli._parse_grid(grid), want, rtol=1e-15)

    def test_default_sweep_matches_recorded(self, tmp_path):
        """The default rate sweep (75 certifications) reads the values in
        data/sweep_rate_default.csv to within the sweep's --tol, NaN where
        that file has NaN; its parameters, solver options and other
        columns are equal."""
        path = tmp_path / "sweep.csv"
        assert RUN("sweep", "-o", str(path)) == 0
        got = path.read_text().splitlines()
        want = (Path(__file__).parent / "data" / "sweep_rate_default.csv").read_text().splitlines()
        manifest = [l for l in want if l.startswith(("# parameters=", "# solver_options="))]
        assert [l for l in got if l.startswith(("# parameters=", "# solver_options="))] == manifest
        tol = json.loads(next(l for l in manifest if l.startswith("# parameters="))
                         .split("=", 1)[1])["tol"]
        got = [l.split(",") for l in got if not l.startswith("#")]
        want = [l.split(",") for l in want if not l.startswith("#")]
        assert got[0] == want[0] and len(got) == len(want) == 1 + 75
        for g, w in zip(got[1:], want[1:]):
            assert g[:3] + g[4:] == w[:3] + w[4:]
            if np.isnan(float(w[3])):
                assert np.isnan(float(g[3]))
            else:
                assert abs(float(g[3]) - float(w[3])) <= tol, (g, w)


def _child_env():
    # the child imports the same iqcopt as this process, installed or not
    src = str(Path(iqcopt.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "iqcopt.cli", "--version"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0


def test_import_leaves_scipy_linalg_unloaded():
    code = "import sys, iqcopt; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
