import contextlib
import io
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcooling import RateLaw, checks, ladder, lindblad
from qcooling.cli import main
from qcooling.laws import CoolingParams, LawKind, evaluate_law


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    header = {}
    rows = []
    columns = None
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return header, columns, np.array(rows)


def test_simulate_newton_row_count_and_initial_value(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--law", "newton",
                           "--t0", "2000", "--tr", "200", "--gamma", "1",
                           "--t-end", "3", "--dt", "0.01")
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert columns == ["t", "value", "valid"]
    assert rows.shape[0] == 301
    assert rows[0, 0] == 0.0 and rows[0, 1] == 2000.0
    assert header["law"] == "newton" and header["t0"] == "2000"
    # validity flag flips at t = 1/gamma
    valid = rows[:, 2].astype(bool)
    assert valid[rows[:, 0] < 1.0].all()
    assert not valid[rows[:, 0] >= 1.0].any()


def test_simulate_modified_hits_800(capsys):
    dt = 0.00788078
    code, out, _ = run_cli(capsys, "simulate", "--law", "modified",
                           "--t0", "2000", "--tr", "200", "--gamma", "1",
                           "--t-end", f"{200 * dt}", "--dt", f"{dt}")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[100, 0] == pytest.approx(0.788078, abs=1e-9)
    assert rows[100, 1] == pytest.approx(800.0, abs=0.1)


def test_simulate_lindblad_matches_modified_curve(capsys):
    code, out_q, _ = run_cli(capsys, "simulate", "--law", "lindblad",
                             "--model", "scaled", "--n0", "8", "--nr", "2",
                             "--gamma", "1", "--dt", "0.001", "--t-end", "3",
                             "--record-every", "10")
    assert code == 0
    header, columns, rows_q = parse_csv(out_q)
    assert columns == ["t", "n_bar", "trace", "purity", "valid", "neg_rate_flag"]
    assert header["dim"] == "48"   # tail-budget default for n0 = 8
    code, out_m, _ = run_cli(capsys, "simulate", "--law", "modified",
                             "--n0", "8", "--nr", "2", "--gamma", "1",
                             "--dt", "0.01", "--t-end", "3")
    assert code == 0
    _, _, rows_m = parse_csv(out_m)
    assert rows_q.shape[0] == rows_m.shape[0]
    np.testing.assert_allclose(rows_q[:, 0], rows_m[:, 0], atol=1e-9)
    assert np.abs(rows_q[:, 1] - rows_m[:, 1]).max() < 1e-5


def test_simulate_ladder_agrees_with_lindblad(capsys):
    args = ("--n0", "8", "--nr", "2", "--gamma", "1",
            "--dt", "0.005", "--t-end", "1", "--record-every", "20",
            "--model", "constant")
    _, out_a, _ = run_cli(capsys, "simulate", "--law", "lindblad", *args)
    _, out_b, _ = run_cli(capsys, "simulate", "--law", "ladder", *args)
    _, _, rows_a = parse_csv(out_a)
    _, _, rows_b = parse_csv(out_b)
    assert np.abs(rows_a[:, 1] - rows_b[:, 1]).max() < 1e-8


def test_simulate_closed_form_law_honours_record_every(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--law", "modified", "--n0", "8",
                           "--nr", "2", "--gamma", "1", "--t-end", "3",
                           "--dt", "0.01", "--record-every", "10")
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["record_every"] == "10"
    assert rows.shape[0] == 31
    # an uneven grid keeps the last step, the same for both kinds of law
    times = []
    for law in ("modified", "ladder"):
        code, out, _ = run_cli(capsys, "simulate", "--law", law, "--n0", "8",
                               "--nr", "2", "--gamma", "1", "--t-end", "0.07",
                               "--dt", "0.01", "--record-every", "3")
        assert code == 0
        times.append(parse_csv(out)[2][:, 0].tolist())
    assert times[0] == times[1] == [0.0, 0.03, 0.06, 0.07]


@pytest.mark.parametrize("law", ["lindblad", "ladder"])
def test_simulate_thermal_start_is_sized_by_its_own_tail(capsys, law):
    # the Poisson default_dim rule gives dim 50 here, which starts at 8.307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "simulate", "--law", law, "--n0", "8.5",
                               "--nr", "2", "--model", "constant", "--gamma", "1",
                               "--dt", "0.001", "--t-end", "0.01")
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["dim"] == "187"
    assert rows[0, 1] == pytest.approx(8.5, abs=1e-6)


@settings(max_examples=40, deadline=None)
@example(n0=0, n_res=8.0, gamma=1.0, model="constant", dt=2e-4, steps=6000)
@given(n0=st.one_of(st.integers(0, 10), st.floats(0.1, 8.0)),
       n_res=st.floats(0.0, 8.0), gamma=st.floats(0.5, 2.0),
       model=st.sampled_from(["constant", "scaled"]),
       dt=st.sampled_from([1e-4, 2e-4, 5e-4, 1e-3]), steps=st.integers(1000, 6000))
def test_simulate_default_dim_tracks_the_closed_form_or_exits_nonzero(
        n0, n_res, gamma, model, dt, steps):
    # without --dim the truncation must hold both the start and the thermal
    # state at n_res that every run relaxes to; a heating run from n0 0 into
    # n_res 8 read 2% low at the Poisson-rule dim 48
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["simulate", "--law", "ladder", "--model", model,
                     "--n0", repr(n0), "--nr", repr(n_res), "--gamma", repr(gamma),
                     "--dt", repr(dt), "--t-end", repr(steps * dt),
                     "--record-every", "500"])
    if code:
        return
    _, _, rows = parse_csv(out.getvalue())
    kind = LawKind.MARKOV if model == "constant" else LawKind.MODIFIED
    exact = evaluate_law(kind, CoolingParams(x0=n0, x_res=n_res, gamma=gamma), rows[:, 0])
    assert np.abs(rows[:, 1] - exact).max() / max(n0, n_res, 1.0) < 1e-5


def test_simulate_temperature_mode_requires_map(capsys):
    code, _, err = run_cli(capsys, "simulate", "--law", "lindblad",
                           "--t0", "2000", "--tr", "200", "--gamma", "1")
    assert code == 2
    assert "--map" in err


def test_simulate_temperature_mode_with_maps(capsys):
    # linear map: n0 = t0 / theta0 = 8 exactly (number-state start)
    code, out, _ = run_cli(capsys, "simulate", "--law", "ladder",
                           "--t0", "8.0", "--tr", "2.0", "--theta0", "1",
                           "--map", "linear", "--gamma", "1",
                           "--dt", "0.005", "--t-end", "0.5",
                           "--record-every", "10")
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["map"] == "linear"
    assert rows[0, 1] == pytest.approx(8.0, abs=1e-12)
    # exact map at t0 = 1/ln 2 gives n0 = 1
    code, out, _ = run_cli(capsys, "simulate", "--law", "ladder",
                           "--t0", f"{1.0 / math.log(2.0):.17g}", "--tr", "2.0",
                           "--theta0", "1", "--map", "exact", "--gamma", "1",
                           "--dt", "0.005", "--t-end", "0.5",
                           "--record-every", "10")
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["map"] == "exact"
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_simulate_mode_exclusivity(capsys):
    code, _, err = run_cli(capsys, "simulate", "--law", "newton",
                           "--t0", "2000", "--tr", "200", "--n0", "8",
                           "--nr", "2", "--gamma", "1")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "simulate", "--law", "newton",
                           "--t0", "2000", "--gamma", "1")
    assert code == 2


@pytest.mark.parametrize("law", ["newton", "markov", "modified"])
@pytest.mark.parametrize("flag", [("--theta0", "2"), ("--map", "exact"), ("--dim", "48"),
                                  ("--model", "feedback")])
def test_simulate_closed_form_law_rejects_integrator_flags(capsys, law, flag):
    # no closed-form law reads these, so accepting one would let a value
    # pass that had no effect on the output
    code, out, err = run_cli(capsys, "simulate", "--law", law, "--t0", "3",
                             "--tr", "1", "--gamma", "1", *flag)
    assert code == 2
    assert out == ""
    assert f"--law {law} does not read {flag[0]}" in err


@pytest.mark.parametrize("n0", ["inf", "nan"])
@pytest.mark.parametrize("law", ["lindblad", "ladder"])
def test_simulate_non_finite_n0_exits_2(capsys, law, n0):
    code, out, err = run_cli(capsys, "simulate", "--law", law, "--n0", n0,
                             "--nr", "2", "--gamma", "1")
    assert code == 2
    assert out == ""
    assert f"--n0 must be >= 0 and finite, got {n0}" in err


def test_simulate_unstable_step_exits_3(capsys):
    code, _, err = run_cli(capsys, "simulate", "--law", "lindblad",
                           "--model", "constant", "--n0", "8", "--nr", "2",
                           "--gamma", "1", "--dt", "0.01", "--t-end", "3",
                           "--dim", "64")
    assert code == 3
    assert "integration error: state has blown up (unstable step size?) at t=1" in err


@pytest.mark.parametrize("law", ["modified", "ladder", "lindblad"])
def test_simulate_t_end_off_the_step_grid_exits_2(capsys, law):
    # t_end = 1 with dt = 0.003 would end at 0.999
    code, out, err = run_cli(capsys, "simulate", "--law", law, "--n0", "3",
                             "--nr", "1", "--gamma", "1", "--dt", "0.003",
                             "--t-end", "1")
    assert code == 2
    assert out == ""
    assert "whole number of steps" in err


def test_halftime_values(capsys):
    code, out, _ = run_cli(capsys, "halftime", "--law", "newton", "--gamma", "1")
    assert code == 0
    assert float(out.split("=")[-1]) == pytest.approx(0.693147181, abs=1e-6)
    code, out, _ = run_cli(capsys, "halftime", "--law", "modified", "--gamma", "1")
    assert float(out.split("=")[-1]) == pytest.approx(0.544763529, abs=1e-6)
    code, out, _ = run_cli(capsys, "halftime", "--law", "modified", "--gamma", "0.5")
    assert float(out.split("=")[-1]) == pytest.approx(1.089527058, abs=1e-6)


def test_cooltime_compare(capsys):
    code, out, _ = run_cli(capsys, "cooltime", "--compare", "--t0", "2000",
                           "--tr", "200", "--target", "800", "--gamma", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[0].split("=")[-1]) == pytest.approx(1.098612, abs=1e-6)
    assert float(lines[1].split("=")[-1]) == pytest.approx(0.788078, abs=1e-6)
    assert float(lines[2].split("=")[-1]) == pytest.approx(0.7173, abs=1e-4)


def test_cooltime_midpoint_equals_halftime(capsys):
    _, out_cool, _ = run_cli(capsys, "cooltime", "--law", "modified",
                             "--t0", "2000", "--tr", "200", "--target", "1100",
                             "--gamma", "1")
    _, out_half, _ = run_cli(capsys, "halftime", "--law", "modified", "--gamma", "1")
    assert (float(out_cool.split("=")[-1])
            == pytest.approx(float(out_half.split("=")[-1]), rel=1e-9))


def test_cooltime_unreachable_target(capsys):
    code, _, err = run_cli(capsys, "cooltime", "--t0", "2000", "--tr", "200",
                           "--target", "100", "--gamma", "1")
    assert code == 2 and "error" in err


def test_verify_suites_pass(capsys):
    for suite in ("wick", "ladder-equiv", "spectral"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0, f"suite {suite} failed:\n{out}"
        assert "[PASS]" in out and "[FAIL]" not in out


def test_ladder_equiv_suite_runs_one_integration_per_law(monkeypatch):
    runs = []

    def spy(evolve):
        def counted(*args, **kwargs):
            runs.append(args[2].law)
            return evolve(*args, **kwargs)
        return counted

    monkeypatch.setattr(lindblad, "_evolve", spy(lindblad._evolve))
    monkeypatch.setattr(ladder, "_evolve", spy(ladder._evolve))
    assert all(r.passed for r in checks.ladder_equivalence_suite())
    assert runs == [RateLaw.CONSTANT, RateLaw.SCALED, RateLaw.FEEDBACK]


def _shifted_populations(run):
    def faulty(*args):
        out = run(*args)
        traj = out[0] if isinstance(out, tuple) else out
        traj.populations[:, 0] += 1e-3
        return out
    return faulty


@pytest.mark.parametrize("sites", [[(checks, "integrate")],
                                   [(lindblad, "_evolve"), (ladder, "_evolve")]],
                         ids=["integrate", "shared RK4 core"])
def test_ladder_equiv_suite_catches_a_population_fault(monkeypatch, sites):
    # a fault in the RK4 core shared by the ladder and the matrix path is
    # one that a comparison of the two paths cannot see
    for module, name in sites:
        monkeypatch.setattr(module, name, _shifted_populations(getattr(module, name)))
    lines = [r.line() for r in checks.run_suites(["ladder-equiv"])]
    assert len(lines) == 3 and all(line.startswith("[FAIL]") for line in lines)


def test_csv_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["simulate", "--law", "lindblad", "--model", "feedback",
                     "--n0", "4", "--nr", "1", "--gamma", "1", "--dt", "0.005",
                     "--t-end", "0.5", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_runs_without_scipy():
    # scipy is a test dependency only: the package must not import it
    script = ("import sys; sys.modules['scipy'] = None; "
              "from qcooling.cli import main; sys.exit(main(['verify', '--suite', 'all']))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[FAIL]" not in proc.stdout


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qcooling.cli", "halftime",
                           "--law", "newton", "--gamma", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout.split("=")[-1]) == pytest.approx(0.346573590, abs=1e-6)


def test_bad_flag_exits_2():
    # names are matched exactly, as argparse's choices list them
    for flags in (["--law", "bogus", "--gamma", "1"],
                  ["--law", "lindblad", "--model", "Constant", "--n0", "8", "--nr", "2"]):
        proc = subprocess.run([sys.executable, "-m", "qcooling.cli", "simulate", *flags],
                              capture_output=True, text=True)
        assert proc.returncode == 2, flags
