import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kpztail import cli, selftest, solver
from kpztail.cli import main


def read(path: Path) -> str:
    return path.read_text()


def test_figure1_values_and_manifest(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure1", "--out", str(out)]) == 0
    body = read(out / "figure1.csv")
    lines = body.strip().split("\n")
    assert lines[0] == "x,h_star_t0.5,h_star_t1,h_star_t1.5"
    assert len(lines) == 1 + 601
    row = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert row["0"] == "0,0.25,0.5,0.75"
    assert row["-3"].split(",")[1] == "-9"  # -x^2/(2t) at t = 0.5
    manifest = json.loads(read(out / "manifest.json"))
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert manifest["outputs"]["figure1.csv"] == digest
    assert manifest["subcommand"] == "figure1"


def test_figure1_env_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("KPZTAIL_OUT", str(tmp_path / "envout"))
    assert main(["figure1"]) == 0
    assert (tmp_path / "envout" / "figure1.csv").exists()


def test_fk_subcommand(tmp_path):
    out = tmp_path / "fk"
    assert main(["fk", "--phi", "sech2", "--duration", "2", "--paths", "2000",
                 "--out", str(out)]) == 0
    report = json.loads(read(out / "fk_estimate.json"))
    assert report["mean"] > 0 and report["std_error"] > 0
    assert report["n_paths"] == 2000


def test_spectral_subcommand(tmp_path):
    out = tmp_path / "spec"
    assert main(["spectral", "--out", str(out)]) == 0
    rep = json.loads(read(out / "spectral.json"))
    assert rep["F"] == pytest.approx(0.5, abs=1e-4)
    assert rep["bound"] == pytest.approx(0.5, abs=1e-6)
    assert rep["defect"] == pytest.approx(0.0, abs=1e-4)


def test_rearrange_check_subcommand(tmp_path):
    out = tmp_path / "rc"
    assert main(["rearrange-check", "--trials", "10", "--out", str(out)]) == 0
    rep = json.loads(read(out / "rearrange_check.json"))
    assert rep["norm_ok"] and rep["hl_ok"]


def test_rate_subcommand(tmp_path):
    out = tmp_path / "rate"
    assert main(["rate", "--lambda", "1", "--n-points", "401", "--dt", "0.02",
                 "--out", str(out)]) == 0
    rep = json.loads(read(out / "rate_report.json"))
    assert rep["converged"]
    assert rep["constraint_residual"] >= -1e-6
    assert rep["phi_hat"] <= rep["upper_certificate"] + 1e-6
    body = read(out / "minimizer.csv")
    assert body.startswith("t,x,value\n")
    # the per-round history goes into the manifest, not the hashed report
    manifest = json.loads(read(out / "manifest.json"))
    rounds = manifest["rounds"]
    assert sum(r["iterations"] for r in rounds) == rep["iterations"]
    assert rounds[-1]["kkt_norm"] <= 1e-5
    assert set(rep) == {"lambda", "phi_hat", "phi_hat_over_lam32", "constraint_residual",
                        "iterations", "upper_certificate", "converged"}


def test_tail_law_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["tail-law", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert not (tmp_path / "tail_law.csv").exists()


def test_limit_shape_subcommand(tmp_path):
    out = tmp_path / "shape"
    assert main(["limit-shape", "--lambda", "8", "--delta", "0.5",
                 "--dx", "0.1", "--dt", "0.02", "--out", str(out)]) == 0
    summary = json.loads(read(out / "shape_summary.json"))
    assert summary["sup_error"] <= 0.25
    body = read(out / "shape_profile.csv")
    assert body.splitlines()[0] == "t,x,h_lambda,h_star,abs_err"


def test_hitting_time_subcommand(tmp_path):
    out = tmp_path / "ht"
    assert main(["hitting-time", "--t", "1", "--x", "1", "--lambda", "4",
                 "--paths", "5000", "--steps", "200", "--bins", "20",
                 "--out", str(out)]) == 0
    hist = read(out / "hitting_histogram.csv").strip().split("\n")
    assert hist[0] == "bin_lo,bin_hi,count"
    assert len(hist) == 21
    total = sum(int(r.split(",")[2]) for r in hist[1:])
    assert total == 5000


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"paths": 1234, "duration": 2.0}))
    out = tmp_path / "fkcfg"
    assert main(["fk", "--config", str(cfgfile), "--duration", "1.0",
                 "--out", str(out)]) == 0
    rep = json.loads(read(out / "fk_estimate.json"))
    assert rep["n_paths"] == 1234       # from the config file
    assert rep["duration"] == 1.0       # flag wins over the file


def test_config_values_use_option_types(tmp_path):
    # a string or a list in the file converts with the option's own type=, as the flag does
    small = ["--n-points", "101", "--dt", "0.1", "--max-iterations", "3"]
    flag_out, file_out = tmp_path / "flag", tmp_path / "file"
    cfgfile = tmp_path / "cfg.json"
    code = main(["tail-law", "--lambdas", "4,8", *small, "--out", str(flag_out)])
    for lambdas in ("4,8", [4, 8]):
        cfgfile.write_text(json.dumps({"lambdas": lambdas}))
        assert main(["tail-law", "--config", str(cfgfile), *small, "--out", str(file_out)]) == code
        for name in ("tail_law.csv", "tail_law.json"):
            assert read(file_out / name) == read(flag_out / name)
        manifest = json.loads(read(file_out / "manifest.json"))
        assert manifest["config"]["lambdas"] == [4.0, 8.0]


@pytest.mark.parametrize("subcommand, field", [
    ("tail-law", {"lambdas": "4,x"}),
    ("tail-law", {"max_iterations": "many"}),
    ("tail-law", {"max_iterations": 2.5}),
    ("tail-law", {"max_iterations": [3, 4]}),
    ("tail-law", {"out": 3}),
    ("tail-law", {"no_such_option": 1}),
    ("tail-law", {"fn": "x"}),
    ("selftest", {"quick": "no"}),
])
def test_config_bad_value_is_usage_error(tmp_path, capsys, subcommand, field):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(field))
    with pytest.raises(SystemExit) as err:
        main([subcommand, "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert next(iter(field)) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["rate", "--lambda", "1", "--dt", "0"], "dt must be positive"),
    (["rate", "--lambda", "1", "--dt", "0.001"], "dt must exceed the delta warm-up time"),
    (["rate", "--lambda", "1", "--max-iterations", "0"], "max_iterations must be >= 1"),
    (["rate", "--lambda", "1", "--zeta", "-1"], "zeta_candidates must be positive"),
    (["tail-law", "--lambdas", "4", "--dt", "nan"], "dt must be positive"),
    (["tail-law", "--lambdas", "4", "--max-iterations", "-3"], "max_iterations must be >= 1"),
    (["rate", "--lambda", "1", "--dt", "1e-320"], "dt must exceed the delta warm-up time"),
    # dx = 20 cannot resolve sech^2; this once reported a "converged" phi_hat of 63.90
    (["rate", "--lambda", "4", "--n-points", "3"], "too coarse to resolve sech^2"),
    (["tail-law", "--lambdas", "4", "--n-points", "41"], "too coarse to resolve sech^2"),
    # 2e7 time steps on 801 nodes
    (["rate", "--lambda", "1", "--dt", "1e-7"], "dt must exceed the delta warm-up time"),
    (["rate", "--lambda", "1", "--zeta", "inf"], "zeta_candidates must be positive and finite"),
])
def test_bad_rate_options_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["rate", "--lambda", "1", "--dt", "0.3"],
    ["limit-shape", "--lambda", "8", "--delta", "0.5", "--dt", "0.03"],
    ["spectral", "--dx", "0.3"],
    ["spectral", "--dx", "1e-320"],  # span / step overflows to inf
])
def test_step_that_does_not_divide_its_span_is_an_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "does not divide" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["rate", "--lambda", "32", "--dt", "0.002"],  # 32001 x 801 nodes
    ["rate", "--lambda", "1", "--n-points", "40001"],  # 201 x 40001 nodes
    # lam = 4 fits (801 x 4001 nodes), lam = 16 does not (3201 x 4001)
    ["tail-law", "--lambdas", "4,16", "--n-points", "4001"],
])
def test_rate_work_over_budget_is_an_error(tmp_path, capsys, monkeypatch, argv):
    if argv[0] == "tail-law":  # every depth is checked before any is solved
        monkeypatch.setattr(selftest, "rate_phi", lambda *a: pytest.fail("solved before the check"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "exceed the rate budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message, worker", [
    # 48945 x 200001 = 9.8e9 half-line nodes
    (["limit-shape", "--lambda", "1000", "--delta", "0.5"], "exceed the limit-shape budget",
     "solve_delta_scaled"),
    # 100000 paths x 2e10 steps
    (["fk", "--duration", "1e9"], "bridge budget", "_bridge_steps"),
    # each of the 4 x 9 calls fits (at most 1e6 x 6000 path-steps), all of them
    # together (1.35e11) do not
    (["limit-shape", "--lambda", "150", "--delta", "0.5", "--backend", "mc",
      "--paths", "1000000"], "bridge budget", "_path_weights"),
])
def test_shape_and_bridge_work_over_budget_is_an_error(tmp_path, capsys, monkeypatch, argv,
                                                        message, worker):
    monkeypatch.setattr(cli.bridge, worker, lambda *a, **k: pytest.fail("ran before the check"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HIT = ["hitting-time", "--t", "1", "--x", "1", "--lambda", "4"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    # one path fits the path-step budget, but 2e9 and 1e10 steps would take
    # hours of the step loop at about 18 us per step
    (["fk", "--duration", "1e8", "--paths", "1"],
     "2000000000 time steps over duration 1e+08 exceed the bridge limit of 1e+05 steps"),
    ([*HIT, "--paths", "1", "--steps", "10000000000"],
     "--paths and --steps: 10000000000 time steps over duration 4 exceed the bridge limit"),
    # arrays allocated at once: 4e10 grid nodes (320 GB), 2e14 (1.42 PiB) at a
    # half-width of 1e12, 1e11 bin edges (745 GiB), and 5e9 hitting times
    # (37 GiB) from runs within the path-step budget
    (["spectral", "--dx", "1e-9"], "--dx and --half-width: step 1e-09 on [-20, 20] gives 4e+10 nodes"),
    (["fk", "--duration", "1", "--dx", "1e-9"], "--dx and --half-width: step 1e-09"),
    (["rearrange-check", "--dx", "1e-9"], "--dx and --half-width: step 1e-09 on [-10, 10]"),
    (["spectral", "--half-width", "1e12"], "--dx and --half-width: step 0.01 on [-1e+12, 1e+12]"),
    ([*HIT, "--paths", "100", "--bins", "100000000000"], "--bins must be at most 100000"),
    ([*HIT, "--paths", "5000000000", "--steps", "2"],
     "--paths and --steps: 5000000000 paths exceed the first-hitting limit of 1e+07 paths"),
    # at about 0.25 ms per trial, 1e9 trials would take three days
    (["rearrange-check", "--trials", "1000000000"], "--trials must be at most 100000"),
    # at about 0.2 s per trial on 800001 nodes, 1e5 trials would take 5.5 hours
    (["rearrange-check", "--dx", "0.000025", "--trials", "100000"],
     "--trials, --dx and --half-width: 100000 trials on 800001 grid nodes exceed the limit of "
     "4.01e+07 trial-nodes"),
])
def test_work_or_size_over_its_limit_is_an_error(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli.bridge, "_bridge_steps", lambda *a, **k: pytest.fail("ran before the check"))
    monkeypatch.setattr(cli, "random_smooth_potential", lambda *a, **k: pytest.fail("ran before the check"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    # lam = 3000 takes 20 x 2 lam = 120000 steps at t = 2, over the step limit
    (["limit-shape", "--lambda", "3000", "--delta", "0.5", "--backend", "mc", "--paths", "1"],
     "--lambda and --paths: 120000 time steps over duration 6000 exceed the bridge limit of "
     "1e+05 steps per path"),
    (["limit-shape", "--lambda", "150", "--delta", "0.5", "--backend", "mc", "--paths", "1000000"],
     "--lambda and --paths: 1000000 paths at 4 x 9 points take more than the bridge budget of "
     "1e+10 path-steps; lower the paths or lam"),
    (["fk", "--duration", "1e8", "--paths", "1"],
     "--duration and --paths: 2000000000 time steps over duration 1e+08 exceed the bridge limit "
     "of 1e+05 steps per path"),
    (["fk", "--duration", "1e9"],
     "--duration and --paths: 100000 paths over duration 1e+09 take more than the bridge budget "
     "of 1e+10 path-steps"),
])
def test_bridge_limit_errors_name_the_subcommands_flags(tmp_path, capsys, monkeypatch, argv,
                                                        message):
    monkeypatch.setattr(cli.bridge, "_bridge_steps", lambda *a, **k: pytest.fail("ran before the check"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    # dt = 4 would also be too long for the solver (see below)
    ["limit-shape", "--lambda", "8", "--delta", "0.5", "--dt", "4"],
    # sup|h - h*| = 0.62 and 0.33 at lam = 8, against 0.13 at the defaults
    ["limit-shape", "--lambda", "8", "--delta", "0.5", "--dx", "0.5"],
    ["limit-shape", "--lambda", "8", "--delta", "0.5", "--dt", "0.2"],
])
def test_coarse_limit_shape_grid_is_an_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "too coarse for the limit shape" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    # h * lambda_max(D/2 + rho) >= 2: the CN step matrix is not positive definite
    ["tail-law", "--lambdas", "8,16", "--dt", "2"],
    ["rate", "--lambda", "8", "--dt", "2"],
])
def test_step_too_long_for_the_solver_is_an_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not positive definite" in err and "lower dt" in err
    assert not (tmp_path / "out").exists()


def test_solver_instability_is_an_error(tmp_path, capsys, monkeypatch):
    def unstable(*args, **kwargs):
        raise solver.SolverInstabilityError("non-finite values after step 3")

    monkeypatch.setattr(cli.bridge, "solve_delta_scaled", unstable)
    argv = ["limit-shape", "--lambda", "8", "--delta", "0.5", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: non-finite values after step 3\n"
    assert not (tmp_path / "out").exists()


def test_limit_shape_mc_in_the_deep_tail(tmp_path):
    # at lam = 200, t = 0.5, x = -2 the heat kernel is exp(-800), which underflows
    out = tmp_path / "mc"
    argv = ["limit-shape", "--lambda", "200", "--delta", "0.5", "--backend", "mc",
            "--paths", "10", "--out", str(out)]
    assert main(argv) == 0
    rows = read(out / "shape_profile.csv").splitlines()
    assert len(rows) == 1 + 4 * 9
    assert rows[1].startswith("0.5,-2,-4.00")


def test_tail_law_takes_every_rate_depth(tmp_path):
    out = tmp_path / "tl"
    # lam = 2 has a ratio below 1, so the bracket check fails: exit 1, files written
    assert main(["tail-law", "--lambdas", "2,32", "--n-points", "81", "--dt", "0.05",
                 "--out", str(out)]) == 1
    rows = read(out / "tail_law.csv").splitlines()
    assert rows[0] == selftest.TAIL_LAW_HEADER
    assert [r.split(",")[1] for r in rows[1:]] == ["2", "32"]
    assert all(r.endswith(",1") for r in rows[1:])  # both converged


def test_tail_law_table_is_criterion_6s(tmp_path):
    # the CLI runs the sweep of criterion 6, both starts included
    out = tmp_path / "tl"
    quick = selftest.QUICK
    assert main(["tail-law", "--lambdas", ",".join(map(str, quick.tail_lambdas)),
                 "--n-points", str(quick.tail_n_points), "--dt", str(quick.tail_dt),
                 "--max-iterations", str(quick.tail_max_iterations), "--out", str(out)]) == 1
    expected = selftest.check_tail_law(quick).artifacts["tail_law.csv"]
    assert (out / "tail_law.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("lambdas", ["0,4", "4,32.5", "nan"])
def test_tail_law_depth_outside_rate_range_is_an_error(tmp_path, capsys, lambdas):
    assert main(["tail-law", "--lambdas", lambdas, "--out", str(tmp_path / "out")]) == 2
    assert "--lambdas entries must lie in (0, 32]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_out_scipy_integrate():
    # only the Laplace quadrature and criterion 8 need it, and import it themselves
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, kpztail.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["limit-shape", "--lambda", "8", "--delta", "0.5", "--dx", "0"], "dx must be positive"),
    (["limit-shape", "--lambda", "8", "--delta", "0.5", "--dt", "0.001"],
     "dt must exceed the delta warm-up time"),
    (["limit-shape", "--lambda", "8", "--delta", "0.5", "--backend", "mc", "--paths", "0"],
     "mc_paths must be >= 1"),
    (["fk", "--duration", "200", "--amplitude", "5", "--paths", "1000"], "overflow"),
    (["fk", "--duration", "inf", "--paths", "100"], "duration must be positive and finite"),
    (["fk", "--duration", "1", "--from", "nan", "--paths", "100"], "end points must be finite"),
    (["rearrange-check", "--trials", "0"], "--trials must be >= 1"),
    (["rearrange-check", "--trials", "-1"], "--trials must be >= 1"),
    (["hitting-time", "--t", "1", "--x", "0.5", "--lambda", "4", "--bins", "0"],
     "--bins must be >= 1"),
    (["hitting-time", "--t", "1", "--x", "nan", "--lambda", "4", "--paths", "100"],
     "--x and --lambda must be finite"),
    (["hitting-time", "--t", "inf", "--x", "0.5", "--lambda", "4", "--paths", "100"],
     "--x and --lambda must be finite"),
    (["limit-shape", "--lambda", "inf", "--delta", "0.5"], "finite lam >= 4"),
    (["rate", "--lambda", "0"], "lam must lie in (0, 32]"),
    (["hitting-time", "--t", "1", "--x", "1e300", "--lambda", "4", "--paths", "100"],
     "--x 1e+300, --lambda 4: the hitting density leaves the float range"),
    (["hitting-time", "--t", "1", "--x", "1", "--lambda", "1e300", "--paths", "100"],
     "--lambda 1e+300: the hitting density leaves the float range"),
    (["hitting-time", "--t", "1e-300", "--x", "1", "--lambda", "4", "--paths", "100"],
     "--t 1e-300, --x 1, --lambda 4: the hitting density leaves the float range"),
    (["hitting-time", "--t", "1", "--x", "1e100", "--lambda", "4", "--paths", "2000"],
     "--t 1, --x 1e+100, --lambda 4: the hitting density underflows to 0 at every tabulated s"),
])
def test_bad_values_of_other_subcommands_are_errors(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["fk", "--phi", "gaussian", "--duration", "1", "--paths", "100"],
], ids=["spectral", "fk"])
def test_bad_width_is_an_error(tmp_path, capsys, argv, width):
    # checked before the potential divides by it
    assert main([*argv, "--width", width, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: --width must be positive and finite, got {width}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width", ["0.001", "1e-300"])
@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["fk", "--phi", "gaussian", "--duration", "1", "--paths", "100"],
], ids=["spectral", "fk"])
def test_width_below_the_space_step_is_an_error(tmp_path, capsys, argv, width):
    # below the default dx = 0.01 the bump would be a one-node spike
    assert main([*argv, "--width", width, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: --width must be at least the space step 0.01, got {float(width):g}; "
        "a narrower bump is a one-node spike\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_width_at_the_space_step_is_accepted(tmp_path):
    assert main(["spectral", "--width", "0.01", "--out", str(tmp_path / "out")]) == 0


@pytest.mark.filterwarnings("error")
def test_spectral_width_that_flattens_the_potential_is_an_error(tmp_path, capsys):
    # sech^2(x / 1e300) is 1 at every node, so gns_ratio has no gradient to divide by
    assert main(["spectral", "--width", "1e300", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --width 1e+300 makes the potential constant on the box")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [("--amplitude", "nan"), ("--amplitude", "inf"),
                                         ("--center", "nan"), ("--center", "inf")])
@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["fk", "--phi", "gaussian", "--duration", "1", "--paths", "100"],
], ids=["spectral", "fk"])
def test_bad_amplitude_or_center_is_an_error(tmp_path, capsys, argv, flag, value):
    assert main([*argv, flag, value, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", ["1e308", "-1e308", "1e200", "1e100"])
def test_spectral_amplitude_beyond_the_float_range_is_an_error(tmp_path, capsys, amplitude):
    # the eigenvalue bisection finds nothing at +-1e308; the bound overflows
    # at 1e200 and the L4 norm in gns_ratio at 1e100
    argv = ["spectral", f"--amplitude={amplitude}", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --amplitude {float(amplitude):g} ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi", ["sech2", "gaussian"])
def test_far_center_overflows_quietly(tmp_path, capsys, phi):
    # the bump lies outside the box, so the potential is 0 and gns_ratio refuses it
    argv = ["spectral", "--phi", phi, "--center", "1e308", "--width", "0.5"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: gns_ratio needs a nonzero function\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["spectral"], ["rate", "--lambda", "1"],
                                  ["tail-law", "--lambdas", "4"], ["figure1"], ["selftest"]])
def test_seed_only_where_it_is_read(capsys, argv):
    # these subcommands read no seed
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "5"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("body", [None, "{not json", "[1, 2]"])
def test_config_file_unreadable_is_usage_error(tmp_path, capsys, body):
    cfgfile = tmp_path / "cfg.json"
    if body is not None:
        cfgfile.write_text(body)
    with pytest.raises(SystemExit) as err:
        main(["figure1", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "config file" in capsys.readouterr().err


def test_selftest_quick_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["selftest", "--quick", "--criteria", "1", "--out", str(out1)]) == 0
    assert main(["selftest", "--quick", "--criteria", "1", "--out", str(out2)]) == 0
    csv1 = read(out1 / "criterion_1" / "constants.csv")
    csv2 = read(out2 / "criterion_1" / "constants.csv")
    assert csv1 == csv2
    summary = json.loads(read(out1 / "selftest_summary.json"))
    assert summary["all_passed"]


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kpztail.cli", "figure1", "--out", str(tmp_path / "sub")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "h*(1, 0) = 0.5" in proc.stdout


def test_readme_cli_block_parses():
    # every command line of the README's CLI block, its comment stripped, is valid usage
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1].strip().splitlines()
    assert block
    for line in block:
        words = line.split("#", 1)[0].split()
        assert words[0] == "kpztail", line
        cli.build_parser().parse_args(words[1:])
