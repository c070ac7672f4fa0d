import json
import math

import numpy as np
import pytest

from switchgain.cli import main
from switchgain.core import serialize_signal, serialize_system, Signal, SignalClassSpec
from switchgain.gallery import common_lyapunov_modes, example_system, rotated_nodes_pair
from switchgain import Mode, SystemSpec, l2gain


@pytest.fixture
def scalar_system_file(tmp_path):
    sysm = SystemSpec(1, 1, 1, (Mode(np.array([[-1.0]]), np.array([[1.0]]),
                                     np.array([[1.0]])),))
    path = tmp_path / "scalar.json"
    path.write_text(serialize_system(sysm))
    return str(path)


class TestRho:
    def test_single_mode_report(self, scalar_system_file, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = main(["rho", "--system", scalar_system_file, "--tau", "0.5",
                     "--grid-step", "0.002", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["lower"] == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert doc["upper"] <= math.exp(-1.0) * 1.01
        assert doc["witness"]["letters"]
        assert "stabilized" in doc["flags"]

    def test_tau_grid_csv(self, scalar_system_file, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["rho", "--system", scalar_system_file,
                     "--tau-grid", "0.2,0.5,1.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "tau,lower_raw,lower_envelope,upper"
        assert len(lines) == 4

    def test_tau_grid_bytes(self, scalar_system_file, tmp_path):
        # an upper bound that is not certified along the grid leaves its column empty
        out = tmp_path / "curve.csv"
        assert main(["rho", "--system", scalar_system_file, "--tau-grid", "0.2,1.0",
                     "--out", str(out)]) == 0
        assert out.read_text() == (
            "tau,lower_raw,lower_envelope,upper\n"
            "0.2,0.36787944117144233,0.36787944117144233,\n"
            "1.0,0.36787944117144233,0.36787944117144233,\n")
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        assert main(["rho", "--system", str(path), "--tau-grid", "0.5,2.0", "--with-upper",
                     "--out", str(out)]) == 0
        assert out.read_text() == (
            "tau,lower_raw,lower_envelope,upper\n"
            "0.5,2.7289419194794684,2.7289419194794684,4.110134162934219\n"
            "2.0,0.6371698116661481,0.6371698116661481,3.2300097176903573\n")

    @pytest.mark.parametrize("argv", [["--tau", "-0.5"], ["--tau", "nan"],
                                      ["--tau-grid", "nan,0.5"], ["--tau-grid=-0.5,0.5"]])
    def test_invalid_tau_rejected(self, scalar_system_file, argv, capsys):
        # unchecked, --tau -0.5 and nan printed the tau = 0 estimate and a
        # NaN in the grid printed a nan row
        assert main(["rho", "--system", scalar_system_file] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tau must be 0 (arbitrary) or finite and positive" in captured.err

    @pytest.mark.parametrize("argv", [["--tau", "0.5"], ["--tau-grid", "0.5,2.0"]])
    @pytest.mark.parametrize("letters", ["0", "-2"])
    def test_nonpositive_max_letters_rejected(self, tmp_path, argv, letters, capsys):
        # unchecked, --tau 0.5 --max-letters 0 searched single modes only and
        # printed lower 0.368 and upper 0.554, while the default proves 2.729
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        assert main(["rho", "--system", str(path), "--max-letters", letters] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: max_letters must be positive and finite, got {letters}" in captured.err

    def test_missing_tau_is_error(self, scalar_system_file):
        assert main(["rho", "--system", scalar_system_file]) == 1

    def test_readme_example(self, tmp_path):
        # README: spectral radius under a 0.5s dwell time, with a certified upper bound
        path = tmp_path / "example.json"
        assert main(["gallery", "--emit-example", "--alpha", "4.5047", "--out", str(path)]) == 0
        out = tmp_path / "rho.json"
        code = main(["rho", "--system", str(path), "--tau", "0.5", "--grid-step", "0.01",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "stabilized" in doc["flags"]
        assert doc["upper"] < 1.0
        assert out.read_text() == (
            '{"flags": ["eps=0.005", "stabilized"], "inflation": 1.0482012325610814, '
            '"lower": 0.9228671193257661, "tau": 0.5, "upper": 0.9721872042271994, '
            '"witness": {"letters": [[0, 0.5], [1, 0.6212448002623532]]}}\n')


class TestGain:
    def test_signal_gain(self, scalar_system_file, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text(serialize_signal(Signal(((0, 10.0),))))
        out = tmp_path / "gain.json"
        code = main(["gain", "--system", scalar_system_file, "--signal", str(sig),
                     "--T", "10", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.9 <= doc["value"] <= 1.0
        assert doc["method"] == "rde_bisection"

    @pytest.mark.parametrize("flags", [["--T", "nan"], ["--T", "10", "--tol", "nan"]])
    def test_signal_gain_rejects_nan(self, scalar_system_file, tmp_path, flags, capsys):
        # unchecked, --T nan printed a gain of 0.0 and --tol nan a bisection midpoint
        sig = tmp_path / "sig.json"
        sig.write_text(serialize_signal(Signal(((0, 10.0),))))
        assert main(["gain", "--system", scalar_system_file, "--signal", str(sig)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.1"])
    def test_bad_grid_step_rejected(self, tmp_path, step, capsys):
        # unchecked, 0 searched the default grid, nan and inf an empty one
        # (0.516 instead of 1.571 here) and -0.1 failed on a negative duration
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        assert main(["gain", "--system", str(path), "--T", "1", "--grid-step", step]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --grid-step must be positive" in captured.err

    @pytest.mark.parametrize("sweep", [[], ["--tau-grid", "0,0.5"]])
    @pytest.mark.parametrize("step", ["1", "2"])
    def test_grid_step_at_or_above_horizon_rejected(self, tmp_path, step, sweep, capsys):
        # unchecked, the duration grid came out empty and only constant
        # signals were searched: --grid-step 2 printed 0.516 where 0.2 gives 1.571
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        assert main(["gain", "--system", str(path), "--T", "1", "--grid-step", step] + sweep) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --grid-step {float(step)!r} must be below --T 1.0" in captured.err

    @pytest.mark.parametrize("sweep", [[], ["--tau-grid", "0,0.5"]])
    def test_negative_max_switches_rejected(self, tmp_path, sweep, capsys):
        # unchecked, only constant signals were searched: 0.516 where the
        # default --max-switches 4 gives 1.571
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        assert main(["gain", "--system", str(path), "--T", "1.0", "--max-switches", "-1"]
                    + sweep) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: max_switches must be an integer >= 0, got -1" in captured.err

    @pytest.mark.parametrize("grid", ["-0.5,nan,0", "0,nan", "0,inf"])
    def test_invalid_tau_grid_rejected(self, scalar_system_file, grid, capsys):
        # unchecked, -0.5 and nan gave rows with the arbitrary class's gain
        assert main(["gain", "--system", scalar_system_file, "--T", "1", "--max-switches", "1",
                     f"--tau-grid={grid}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tau must be 0 (arbitrary) or finite and positive" in captured.err

    def test_tau_grid_csv(self, tmp_path):
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        out = tmp_path / "sweep.csv"
        assert main(["gain", "--system", str(path), "--T", "1", "--max-switches", "2",
                     "--tau-grid", "0,0.5,0.75", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,T,gain_lower"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [(tau, T) for tau, T, _ in rows] == [(0.0, 1.0), (0.5, 1.0), (0.75, 1.0)]
        gains = [g for _, _, g in rows]
        # a longer dwell floor searches fewer signals
        assert all(a >= b for a, b in zip(gains, gains[1:]))
        assert gains[-1] < gains[0]

    def test_grid_step_search(self, tmp_path):
        # --grid-step 0.5 below --T 2 gives the durations 0.5, 1.0 and 1.5
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        out = tmp_path / "gain.json"
        assert main(["gain", "--system", str(path), "--class", "dwell", "--tau", "0.5",
                     "--T", "2", "--grid-step", "0.5", "--max-switches", "2",
                     "--out", str(out)]) == 0
        est = l2gain.gain_search(rotated_nodes_pair(), SignalClassSpec.dwell(0.5), 2.0,
                                 max_switches=2, duration_grid=(0.5, 1.0, 1.5))
        doc = json.loads(out.read_text())
        assert doc["value"] == est.value
        assert doc["witness_signal"] == [list(seg) for seg in est.witness_signal.segments]

    def test_search_gain(self, scalar_system_file, tmp_path):
        out = tmp_path / "gain.json"
        code = main(["gain", "--system", scalar_system_file, "--class", "arb",
                     "--T", "5", "--max-switches", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "search"
        assert doc["witness_signal"]


class TestFiniteness:
    def test_finite_exit_zero(self, tmp_path):
        path = tmp_path / "cqlf.json"
        path.write_text(serialize_system(common_lyapunov_modes(-0.4, (1.0, 2.0))))
        out = tmp_path / "fin.json"
        code = main(["finiteness", "--system", str(path), "--class", "dwell",
                     "--tau", "0.5", "--grid-step", "0.002", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "finite"

    def test_readme_example_infinite_exit_zero(self, tmp_path):
        path = tmp_path / "example.json"
        assert main(["gallery", "--emit-example", "--alpha", "4.5047", "--out", str(path)]) == 0
        out = tmp_path / "fin.json"
        code = main(["finiteness", "--system", str(path), "--class", "arb", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "infinite" and doc["rho"]["lower"] > 1.0

    def test_undetermined_exit_two(self, tmp_path):
        path = tmp_path / "example.json"
        path.write_text(serialize_system(example_system(4.504679)))
        out = tmp_path / "fin.json"
        code = main(["finiteness", "--system", str(path), "--class", "arb",
                     "--grid-step", "0.01", "--budget", "150", "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "undetermined"
        assert "not uniformly observable" in doc["rationale"]


class TestGallery:
    def test_alpha_star_report(self, tmp_path):
        out = tmp_path / "astar.json"
        code = main(["gallery", "--alpha-star", "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 4.49 <= doc["alpha_star"] <= 4.52

    def test_emit_example_parses_back(self, tmp_path):
        out = tmp_path / "ex.json"
        code = main(["gallery", "--emit-example", "--alpha", "4.5047", "--out", str(out)])
        assert code == 0
        from switchgain.core import parse_system
        sysm = parse_system(out.read_text())
        assert sysm.n == 3 and sysm.n_modes == 3

    def test_emit_orbit_csv(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["gallery", "--emit-orbit", "--alpha", "4.5047", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,radius"
        assert len(lines) == 1 + 2049
        radii = [float(line.split(",")[1]) for line in lines[1:]]
        assert 1.0 <= min(radii) and max(radii) <= math.sqrt(3.0)

    def test_verify_lyapunov_report(self, tmp_path):
        out = tmp_path / "lyap.json"
        code = main(["gallery", "--verify-lyapunov", "--samples", "500",
                     "--tol", "1e-5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_violation"] <= 1e-3

    @pytest.mark.parametrize("argv, message", [
        ([], "gallery requires one of --alpha-star, --emit-example, --emit-orbit, "
             "--verify-lyapunov"),
        (["--emit-example"], "--emit-example requires --alpha"),
    ], ids=["no_mode", "emit_example_without_alpha"])
    def test_missing_mode_or_alpha(self, argv, message, capsys):
        assert main(["gallery"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestTauMinCommand:
    def test_nodes_pair(self, tmp_path):
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        out = tmp_path / "taumin.json"
        code = main(["taumin", "--system", str(path), "--tau-lo", "0.8",
                     "--tau-hi", "1.6", "--tol", "0.1", "--grid-step", "0.001",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["tau_reject"] <= doc["tau_accept"]

    @pytest.mark.xfail(strict=True, reason="the upper end tau = 2.0 is not certified at the "
                       "default grid step and budget, so taumin exits 1 (ROADMAP item 1)")
    def test_readme_example(self, tmp_path):
        # README: bracket the minimal dwell time of a planted two-node system
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()) + "\n")
        out = tmp_path / "taumin.json"
        code = main(["taumin", "--system", str(path), "--tau-lo", "0.6", "--tau-hi", "2.0",
                     "--tol", "0.05", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.6 <= doc["tau_reject"] <= doc["tau_accept"] <= 2.0
        assert doc["width"] <= 0.05


    @pytest.mark.parametrize("flags, name", [
        (["--tau-hi", "inf"], "tau_hi must be finite"),
        (["--tau-hi", "2.0", "--tol", "nan"], "tol must be positive and finite"),
        (["--tau-hi", "2.0", "--tol", "0"], "tol must be positive and finite"),
        (["--tau-hi", "2.0", "--tol", "-0.1"], "tol must be positive and finite"),
    ])
    def test_bad_bracket_or_tol_rejected(self, scalar_system_file, flags, name, capsys):
        # unchecked, --tau-hi inf failed on a signal segment and a NaN or
        # nonpositive --tol ran all 60 bisection steps
        assert main(["taumin", "--system", scalar_system_file, "--tau-lo", "0.5"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name}" in captured.err

    def test_undecided_zone_exits_two(self, tmp_path, monkeypatch):
        # every tau in (1.0, 1.5) undecided: the bisection stops with the flag
        def rule(est, obs=None):
            return ("infinite" if est.tau <= 1.0 else "finite" if est.tau >= 1.5
                    else "undetermined"), (), ""

        monkeypatch.setattr(l2gain, "_verdict", rule)
        monkeypatch.setattr(l2gain, "rho_upper", lambda ms, cls, lower_estimate, **opts:
                            lower_estimate)
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        out = tmp_path / "taumin.json"
        code = main(["taumin", "--system", str(path), "--tau-lo", "0.6", "--tau-hi", "2.0",
                     "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["flags"] == ["undecided_zone"]
        assert doc["tau_reject"] <= 1.0 and doc["tau_accept"] >= 1.5

    def test_bracket_lo_undecidable_exits_one(self, tmp_path, capsys):
        # A = 0; mode k drives and observes only e_k: rho = 1 at every tau,
        # never uniformly observable, so tau_lo is undetermined
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "p": 1, "modes": [
            {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]},
            {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "C": [[0.0, 1.0]]}]}))
        out = tmp_path / "taumin.json"
        code = main(["taumin", "--system", str(path), "--tau-lo", "0.5", "--tau-hi", "2.0",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bracket lower end undecidable at the available "
                                "budget\n")

    def test_bracket_lo_accepted_exits_zero(self, tmp_path):
        # tau_lo = 1.6 is accepted at grid step 0.001: a proven bracket (0, 1.6)
        path = tmp_path / "nodes.json"
        path.write_text(serialize_system(rotated_nodes_pair()))
        out = tmp_path / "taumin.json"
        code = main(["taumin", "--system", str(path), "--tau-lo", "1.6", "--tau-hi", "2.0",
                     "--grid-step", "0.001", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["flags"] == ["bracket_lo_not_rejected"]
        assert (doc["tau_reject"], doc["tau_accept"]) == (0.0, 1.6)


class TestMinreal:
    def test_report_schema(self, tmp_path):
        path = tmp_path / "ex.json"
        path.write_text(serialize_system(example_system(4.5047)))
        out = tmp_path / "mr.json"
        code = main(["minreal", "--system", str(path), "--class", "arb",
                     "--T", "1.0", "--samples", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 3 and doc["r"] == 3 and doc["n_min"] == 3
        assert doc["per_mode_observable"] == [False, False, False]
        assert "gamma_floor" in doc

    @pytest.mark.parametrize("flags, message", [
        (["--T", "nan"], "window must be positive and finite"),
        (["--samples", "0"], "samples must be positive and finite"),
        (["--samples", "-3"], "samples must be positive and finite"),
    ])
    def test_bad_window_or_samples_rejected(self, scalar_system_file, flags, message, capsys):
        # unchecked, --T nan failed on "signal needs at least one segment",
        # and --samples 0 or -3 reported one sample with exit code 0
        assert main(["minreal", "--system", scalar_system_file, "--class", "arb"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        path = tmp_path / "ex.json"
        path.write_text(serialize_system(example_system(3.0)))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["minreal", "--system", str(path), "--class", "dwell",
                         "--tau", "0.5", "--T", "1.0", "--samples", "5",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_gallery_repeatable(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["gallery", "--alpha-star", "--tol", "1e-4",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestErrors:
    def test_missing_file(self):
        assert main(["rho", "--system", "/nonexistent.json", "--tau", "1.0"]) == 1

    def test_bad_class_parameters(self, scalar_system_file):
        assert main(["gain", "--system", scalar_system_file, "--class", "dwell",
                     "--T", "5"]) == 1

    def test_usage_error_exits_one(self, capsys):
        # exit code 2 is reserved for an undetermined verdict
        assert main(["finiteness", "--class", "arb"]) == 1
        assert "--system" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rho", "--tau", "1.4"],
                                      ["finiteness", "--class", "dwell", "--tau", "1.4"]])
    def test_overflowing_bound(self, tmp_path, argv, capsys):
        # the nodes pair in the basis diag(1, 1e4): exp(a_max * delta) overflows,
        # which escaped main as OverflowError
        T, Ti = np.diag([1.0, 1e4]), np.diag([1.0, 1e-4])
        sysm = SystemSpec(2, 1, 1, tuple(Mode(T @ m.A @ Ti, T @ m.B, m.C @ Ti)
                                         for m in rotated_nodes_pair().modes))
        path = tmp_path / "scaled.json"
        path.write_text(serialize_system(sysm))
        assert main(argv[:1] + ["--system", str(path)] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rho upper bound's grid inflation")

    def test_infinite_mode_index_in_signal_file(self, tmp_path, scalar_system_file, capsys):
        # parse_signal's int() cast escaped main as OverflowError
        path = tmp_path / "signal.json"
        path.write_text('{"segments": [[Infinity, 1.0]]}')
        assert main(["gain", "--system", scalar_system_file, "--signal", str(path),
                     "--T", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: segment 0: mode index must be a nonnegative integer\n"

    @pytest.mark.parametrize("doc, message", [
        ('{"n": 1.5, "m": 1, "p": 1, "modes": [{"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}]}',
         "system dimension n must be an integer >= 0, got 1.5"),
        ('{"n": Infinity, "m": 1, "p": 1, "modes": []}',
         "system dimension n must be an integer >= 0, got inf"),
        ('{"n": 1, "m": 1, "p": 1, "modes": 5}',
         "system document: modes must be a list of objects with keys A, B and C"),
        ('{"n": 1, "m": 1, "p": 1, "modes": [{"A": [[-1.0]], "B": [[1.0]]}]}',
         "modes[0].C is missing"),
    ])
    def test_malformed_system_file(self, tmp_path, doc, message, capsys):
        # n = 1.5 ran as n = 1 (gain 0.4421, exit 0); the others were tracebacks
        path = tmp_path / "sys.json"
        path.write_text(doc)
        assert main(["gain", "--system", str(path), "--class", "arb", "--T", "1.0",
                     "--max-switches", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("doc, message", [
        ('{"segments": [[0, null]]}', "segment 0: [0, None] is not a [mode, duration] pair"),
        ('{"segments": 5}', "signal document: segments must be a list of [mode, duration] pairs"),
        ('{"segments": [[0]]}', "segment 0: [0] is not a [mode, duration] pair"),
    ])
    def test_malformed_signal_file(self, tmp_path, scalar_system_file, doc, message, capsys):
        path = tmp_path / "signal.json"
        path.write_text(doc)
        assert main(["gain", "--system", scalar_system_file, "--signal", str(path),
                     "--T", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["rho", "--tau", "0.5", "--budget", "0"],
        ["finiteness", "--class", "arb", "--grid-step", "0"],
        ["taumin", "--tau-lo", "0.5", "--tau-hi", "1.0", "--budget", "-1"],
    ])
    def test_nonpositive_certifier_flag(self, scalar_system_file, argv, capsys):
        assert main(argv[:1] + ["--system", scalar_system_file] + argv[1:]) == 1
        assert "must be positive" in capsys.readouterr().err
