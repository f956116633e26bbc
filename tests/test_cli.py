"""End-to-end tests of the command line front end, driven in process.

Each test invokes ``cli.main`` with a real argument vector and inspects
the files it writes, so the full path from config text to CSV/JSON
output is exercised, including exit codes and error reporting.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monorhythm import cli, feasibility, galerkin, periodic
from monorhythm.config import load_config, render_config
from monorhythm.feasibility import (
    EmbeddingConstants,
    aggregate_from_raw,
    projection_kappa,
    r_star,
)
from monorhythm.periodic import NonConvergenceError, PeriodicOrbit
from systems import feasible_model

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# gain-curve peak location for the aggregates in window_aggregates.cfg;
# oracle: scipy.optimize.minimize_scalar (bounded), frozen offline
R_STAR = 0.01587400205355547
# period ceiling at R_STAR for those aggregates at unit decay rate;
# oracle: a scipy.optimize.brentq root of h(T) = p(R_STAR), frozen offline
T_STAR = 2.4074367446354734

LINEAR_CAUCHY_CFG = """
model.u_res = 0.0
model.u_peak = 100.0
model.a = 0.25
model.c1 = 0.0
model.c2 = 0.0
model.c3 = 1.0
model.b = 1.0
rescale.epsilon = 0.032
rescale.xi = 3.75
derived.c4_override = 31.25
geometry.length = 1.0
stimulus.kind = constant
stimulus.amplitude = 0.0
stimulus.phi = 0.005
solver.m = 2
cauchy.t_end = 1.0
cauchy.dt = 0.0625
"""

NONLINEAR_PERIODIC_CFG = """
model.u_res = 0.0
model.u_peak = 100.0
model.a = 0.25
model.c1 = 125.0
model.c2 = 100.0
model.c3 = 1.0
model.b = 1.0
rescale.epsilon = 0.032
rescale.xi = 3.75
geometry.length = 1.0
stimulus.kind = sinusoid
stimulus.period = 2.0
stimulus.amplitude = 1.0
stimulus.phi = 0.005
solver.m = 2
solver.method = picard
solver.n_t = 128
"""

# the same system solved by shooting, which reads no solver.n_t
SHOOTING_CFG = NONLINEAR_PERIODIC_CFG.replace(
    "solver.method = picard", "solver.method = shooting"
).replace("solver.n_t = 128\n", "")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_report(out_dir):
    with open(os.path.join(str(out_dir), "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_lines(out_dir, name):
    with open(os.path.join(str(out_dir), name), encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_bytes(out_dir, name):
    with open(os.path.join(str(out_dir), name), "rb") as fh:
        return fh.read()


@pytest.fixture
def no_solver_work(monkeypatch):
    """Fail the test if an orbit solver sweeps, integrates or builds a Jacobian."""
    work = (
        "_periodic_response",
        "_u_block",
        "_w_block",
        "integrate_cauchy",
        "_linear_monodromy",
    )
    for name in work:
        monkeypatch.setattr(
            periodic, name, lambda *args, **kwargs: pytest.fail("the solver did work")
        )


def test_feasibility_report_and_curves(tmp_path, capsys):
    rc = cli.main(
        ["feasibility", "--config", config_path("window_aggregates.cfg"),
         "--out", str(tmp_path)]
    )
    assert rc == 0, "feasibility run should succeed"
    printed = capsys.readouterr().out
    assert "report.json" in printed, "written paths should be listed on stdout"

    report = read_report(tmp_path)
    assert report["command"] == "feasibility"
    r_val = report["payload"]["r_star"]
    rel = abs(r_val - R_STAR) / R_STAR
    assert rel <= 1e-12, f"r_star {r_val} off frozen oracle by {rel:.3e}"
    flags = report["condition_flags"]
    assert flags["feasible_window"]["satisfied"] is True, "window should open"
    assert flags["recovery_coupling"]["satisfied"] is True, "xi c3 = 3.75 >= sqrt(2)"
    assert report["payload"]["r_lower"] < r_val < report["payload"]["r_upper"], (
        "window radii should bracket the gain peak"
    )
    assert flags["feasible_window_reduced"]["satisfied"] is True
    # epsilon c4 / C = 1 here, so h(0) = 1 and the ceiling solves h(T) = p(r*)
    assert report["payload"]["h_at_zero"] == pytest.approx(1.0, rel=1e-15)
    assert report["payload"]["t_star_at_r_star"] == pytest.approx(T_STAR, rel=1e-10)

    for name in ("h_curve.csv", "p_curve.csv"):
        lines = read_lines(tmp_path, name)
        assert lines[0].startswith("# "), f"{name} should open with a comment line"
        assert lines[1] == "x,value", f"{name} header mismatch: {lines[1]!r}"
        assert len(lines) == 2 + 256, f"{name} should hold n_samples rows"


def test_feasibility_curves_span_their_grids_and_scale_with_kappa(tmp_path, capsys):
    """The curves of window_aggregates.cfg at 128 samples: both grids run from 0
    to their configured end, h increases, p peaks at the grid point nearest r*,
    and p scales with kappa."""
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("feasibility.n_samples = 256", "feasibility.n_samples = 128")
    curves = {}
    for kappa in ("0.5", "0.174"):
        cfg = write_config(
            tmp_path, text.replace("feasibility.kappa = 0.5", f"feasibility.kappa = {kappa}"),
            name=f"kappa{kappa}.cfg",
        )
        out = tmp_path / kappa
        assert cli.main(["feasibility", "--config", cfg, "--out", str(out)]) == 0
        curves[kappa] = [
            np.loadtxt(out / name, delimiter=",", skiprows=2)
            for name in ("h_curve.csv", "p_curve.csv")
        ]
    capsys.readouterr()  # swallow the written-path listing
    h_curve, p_curve = curves["0.5"]
    assert h_curve.shape == p_curve.shape == (128, 2)
    assert h_curve[0, 0] == 0.0 and h_curve[-1, 0] == 5.0
    assert p_curve[0, 0] == 0.0 and p_curve[-1, 0] == 0.5
    assert np.all(np.diff(h_curve[:, 1]) > 0.0)
    # the gain peak lands at the grid point nearest the closed-form radius
    peak_index = int(np.argmax(p_curve[:, 1]))
    expected = int(np.argmin(np.abs(p_curve[:, 0] - R_STAR)))
    assert peak_index == expected
    p_scaled = curves["0.174"][1]
    assert np.allclose(p_scaled[1:, 1] / p_curve[1:, 1], 0.174 / 0.5, rtol=1e-14)


@pytest.mark.parametrize(
    "key, value",
    [("feasibility.n_samples", "1"), ("feasibility.t_max", "0.0"), ("feasibility.r_max", "-0.5")],
)
def test_curve_range_out_of_bounds_exits_2_naming_the_key(
    tmp_path, capsys, monkeypatch, key, value
):
    """A curve grid with fewer than two points, or a nonpositive range, is a
    configuration error that names its key and the file, before the window is
    evaluated."""
    monkeypatch.setattr(
        cli, "feasible_window_condition", lambda *args: pytest.fail("the window was evaluated")
    )
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", fh.read(), flags=re.M)
    assert n == 1
    cfg = write_config(tmp_path, text)
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2, f"{key} = {value} should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert key in err and cfg in err, f"stderr should name the key and the file: {err!r}"
    assert not (tmp_path / "out").exists(), "nothing may be written"


def test_feasibility_bisects_the_crossing_radii_once(tmp_path, capsys, monkeypatch):
    """The period ceiling reuses the bracket the command already found."""
    calls = []
    r_bounds = feasibility.r_bounds

    def counted(*args):
        calls.append(args)
        return r_bounds(*args)

    monkeypatch.setattr(feasibility, "r_bounds", counted)
    monkeypatch.setattr(cli, "r_bounds", counted)
    cfg = config_path("window_aggregates.cfg")
    assert cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["payload"]["t_star_at_r_star"] is not None
    assert len(calls) == 1
    capsys.readouterr()  # swallow the written-path listing


def test_closed_window_reports_no_radii_but_writes_curves(tmp_path, capsys):
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("feasibility.kappa = 0.5", "feasibility.kappa = 0.1")
    cfg = write_config(tmp_path, text)
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0, "a closed window is a result, not an error"
    report = read_report(tmp_path)
    assert report["config"]["feasibility.kappa"] == 0.1
    assert report["condition_flags"]["feasible_window"]["satisfied"] is False
    payload = report["payload"]
    for key in ("r_lower", "r_upper", "t_star_at_r_star"):
        assert payload[key] is None, f"{key} exists only inside an open window"
    for name in ("h_curve.csv", "p_curve.csv"):
        assert len(read_lines(tmp_path, name)) == 2 + 256, f"{name} should still be written"
    capsys.readouterr()  # swallow the written-path listing


def test_raw_embedding_keys_give_derived_aggregates(tmp_path, capsys):
    embedding = {
        "k1": 0.1, "k2": 1.0, "projection_excess": 1.0, "trace_norm": 1.0,
        "domain_measure": 1.0, "s_sup": 1.0, "phi_norm": 0.005,
    }
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        model = [l for l in fh.read().splitlines() if not l.startswith("feasibility.")]
    text = "\n".join(model + [f"feasibility.{k} = {v}" for k, v in embedding.items()]) + "\n"
    rc = cli.main(["feasibility", "--config", write_config(tmp_path, text), "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path)
    emb = {k: v for k, v in embedding.items() if k not in ("k2", "projection_excess")}
    emb["kappa"] = projection_kappa(embedding["projection_excess"])
    agg = aggregate_from_raw(feasible_model(), EmbeddingConstants(**emb), embedding["k2"])
    assert report["payload"]["aggregates"] == {
        "kappa": agg.kappa, "beta": agg.beta, "gamma": agg.gamma, "delta": agg.delta,
    }
    assert report["payload"]["r_star"] == r_star(agg)
    assert report["condition_flags"]["feasible_window"]["satisfied"] is True
    capsys.readouterr()  # swallow the written-path listing


def test_outputs_are_deterministic(tmp_path, capsys):
    runs = (
        ("feasibility", "window_aggregates.cfg", ("h_curve.csv", "p_curve.csv")),
        ("param-region", "reaction_region.cfg", ("region.csv", "region_raster.csv")),
        ("solve-cauchy", "cauchy_demo.cfg", ("trajectory.csv",)),
        ("converge", "refinement.cfg", ("convergence.csv",)),
    )
    for command, cfg_name, csv_names in runs:
        dir_a = tmp_path / command / "a"
        dir_b = tmp_path / command / "b"
        for out in (dir_a, dir_b):
            rc = cli.main([command, "--config", config_path(cfg_name), "--out", str(out)])
            assert rc == 0
        for name in csv_names:
            assert read_bytes(dir_a, name) == read_bytes(dir_b, name), (
                f"{name} should be byte-identical across reruns"
            )
        rep_a, rep_b = read_report(dir_a), read_report(dir_b)
        rep_a.pop("timings")
        rep_b.pop("timings")
        assert rep_a == rep_b, "reports should match exactly once timings are dropped"

    raster = read_lines(tmp_path / "param-region" / "a", "region_raster.csv")[2:]
    assert raster[0] == "0,0,0", f"first raster row should be exact zeros: {raster[0]!r}"
    cells = [line.split(",") for line in raster]
    assert {c[2] for c in cells} <= {"0", "1"}, "admissible cells must be 0 or 1"
    # rows run a1-major: a1 holds for n_a2 = 17 rows while a2 sweeps its grid
    assert {c[0] for c in cells[:17]} == {"0"} and cells[17][0] != "0"
    assert [c[1] for c in cells[17:34]] == [c[1] for c in cells[:17]]
    capsys.readouterr()  # swallow the written-path listing


def test_config_echo_round_trips(tmp_path, capsys):
    first = tmp_path / "first"
    rc = cli.main(
        ["feasibility", "--config", config_path("window_aggregates.cfg"),
         "--out", str(first)]
    )
    assert rc == 0
    report = read_report(first)
    echoed = report["config"]

    rerun_cfg = tmp_path / "echoed.cfg"
    rerun_cfg.write_text(render_config(echoed), encoding="utf-8")
    second = tmp_path / "second"
    rc = cli.main(["feasibility", "--config", str(rerun_cfg), "--out", str(second)])
    assert rc == 0
    rerun = read_report(second)
    assert rerun["payload"] == report["payload"], (
        "rendering the echo and rerunning should reproduce the payload exactly"
    )
    assert rerun["config"] == echoed, "echo of an echoed config should be a fixed point"
    capsys.readouterr()  # swallow the written-path listing


def test_period_raw_is_canonicalized(tmp_path, capsys):
    text = LINEAR_CAUCHY_CFG.replace(
        "stimulus.phi = 0.005", "stimulus.phi = 0.005\nstimulus.period_raw = 0.064"
    )
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    echoed = read_report(tmp_path)["config"]
    assert "stimulus.period_raw" not in echoed, "raw period should not be echoed"
    assert echoed["stimulus.period"] == 2.0, (
        f"0.064 at epsilon 0.032 should echo as period 2.0, got {echoed['stimulus.period']}"
    )
    capsys.readouterr()  # swallow the written-path listing


def test_cauchy_zero_stimulus_stays_zero(tmp_path, capsys):
    text = LINEAR_CAUCHY_CFG.replace(
        "stimulus.phi = 0.005", "stimulus.phi = 0.005\nstimulus.period = 2.0"
    )
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path)
    payload = report["payload"]
    assert payload["final_u"] == [0.0, 0.0, 0.0], "zero forcing should keep u at zero"
    assert payload["final_w"] == [0.0, 0.0, 0.0], "zero forcing should keep w at zero"
    assert report["condition_flags"]["growth_doubling"] is False

    lines = read_lines(tmp_path, "trajectory.csv")
    assert lines[1] == "t,u_0,u_1,u_2,w_0,w_1,w_2", f"header mismatch: {lines[1]!r}"
    for line in lines[2:]:
        cells = line.split(",")
        assert all(c == "0" for c in cells[1:]), f"nonzero state in row {line!r}"
    capsys.readouterr()  # swallow the written-path listing


def test_cauchy_reports_the_configured_end_time(tmp_path, capsys):
    # 0.9 / 0.3 steps round to 3, but 3 * 0.3 is 0.8999999999999999
    text = LINEAR_CAUCHY_CFG.replace(
        "stimulus.phi = 0.005", "stimulus.phi = 0.005\nstimulus.period = 2.0"
    ).replace("cauchy.t_end = 1.0", "cauchy.t_end = 0.9").replace(
        "cauchy.dt = 0.0625", "cauchy.dt = 0.3"
    )
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = read_report(tmp_path)["payload"]
    assert payload["n_nodes"] == 4
    assert read_lines(tmp_path, "trajectory.csv")[-1].split(",")[0] == "%.17g" % 0.9
    capsys.readouterr()  # swallow the written-path listing


@pytest.mark.parametrize(
    "key, value, rule",
    [
        ("cauchy.t_end", "-1", "positive"),
        ("cauchy.dt", "0", "positive"),
        ("solver.m", "-1", "nonnegative"),
        ("model.a", "1.5", "in (0, 1)"),
        *((f"model.{name}", "-1", "nonnegative") for name in ("c1", "c2")),
        *((f"model.{name}", "0", "positive") for name in ("c3", "b", "C_m", "chi", "sigma")),
        *((f"rescale.{name}", "0", "positive") for name in ("epsilon", "xi")),
        ("geometry.length", "-1", "positive"),
        ("stimulus.period", "0", "positive"),
        ("stimulus.period_raw", "-0.064", "positive"),
        ("stimulus.width", "0.5", "in (0, 0.25]"),
    ],
)
def test_cauchy_value_out_of_range_names_file_line_and_key(tmp_path, capsys, key, value, rule):
    """An end time or step that is not positive, a negative truncation size,
    or a model, rescaling, geometry or drive value outside its admissible set
    exits 2 naming the config file, the line and the key, not with the
    integrator's, basis builder's or model constructors' own message."""
    # period_raw replaces period, and only a pulse reads a width
    dropped = (f"{key} ", "stimulus.period ") if key == "stimulus.period_raw" else (f"{key} ",)
    with open(config_path("cauchy_demo.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    if key == "stimulus.width":
        text = text.replace("stimulus.kind = sinusoid", "stimulus.kind = pulse")
    lines = [line for line in text.splitlines() if not line.startswith(dropped)]
    lines.append(f"{key} = {value}")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{len(lines)}: key '{key}' must be {rule}, got " in err, err
    assert not (tmp_path / "report.json").exists()


def test_blow_up_exits_4(tmp_path, capsys, recwarn):
    """A runaway from a large start at lambda_max dt = 0.19, well inside RK4's
    stability limit; the integrator silences the overflow it reports."""
    text = NONLINEAR_PERIODIC_CFG.replace("solver.m = 2", "solver.m = 4") + (
        "ic.u = 100,100,100,100,100\ncauchy.t_end = 2.0\ncauchy.dt = 0.03125\n"
    )
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 4, f"blow-up should exit 4, got {rc}"
    err = capsys.readouterr().err
    assert "blew up at t=0.0625" in err, f"stderr should report the blow-up time: {err!r}"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# a drive 2e6 times the benchmark one: m = 8 runs away at t = 0.125, m = 2 later
RUNAWAY_DRIVE_CFG = NONLINEAR_PERIODIC_CFG.replace(
    "stimulus.amplitude = 1.0", "stimulus.amplitude = 2e6"
).replace("solver.m = 2", "solver.m = 8") + "cauchy.t_end = 2.0\ncauchy.dt = 0.03125\n"


@pytest.mark.parametrize(
    "command, extra", [("solve-cauchy", ""), ("converge", "converge.m_list = 2,8\n")]
)
def test_blow_up_leaves_a_partial_report(tmp_path, capsys, command, extra):
    """A run that blows up exits 4 and still writes report.json with the
    command, the configuration echo, the error, and the blow-up's time,
    magnitude and truncation size; the ladder names the size that ran away."""
    path = write_config(tmp_path, RUNAWAY_DRIVE_CFG + extra)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 4
    report = read_report(tmp_path)
    assert set(report) == {"command", "config", "error", "time", "magnitude", "m"}
    assert report["command"] == command
    assert report["config"]["stimulus.amplitude"] == 2e6
    assert (report["time"], report["m"]) == (0.125, 8)
    assert report["magnitude"] > 1e12
    assert report["error"].startswith("solution blew up at t=0.125")
    assert report["error"].endswith("at m = 8")
    assert report["error"] in capsys.readouterr().err, "stderr prints the report's message"
    assert sorted(os.listdir(tmp_path)) == ["report.json", "run.cfg"]


def test_shooting_blow_up_leaves_a_partial_report(tmp_path, capsys):
    """Shooting's segment march blows up under the runaway drive: the run
    exits 4 with a partial report naming m = 8 and the runaway member's own
    time in the period, a node of the T/1024 step grid."""
    text = RUNAWAY_DRIVE_CFG.replace("solver.method = picard", "solver.method = shooting")
    path = write_config(tmp_path, text.replace("solver.n_t = 128\n", ""))
    assert cli.main(["solve-periodic", "--config", path, "--out", str(tmp_path)]) == 4
    report = read_report(tmp_path)
    assert set(report) == {"command", "config", "error", "time", "magnitude", "m"}
    assert report["config"]["solver.method"] == "shooting"
    assert report["m"] == 8 and report["magnitude"] > 1e12
    assert 0.0 < report["time"] <= 2.0
    node = report["time"] * 1024 / 2.0
    assert node == round(node), f"blow-up at {report['time']}, off the step grid"
    assert report["error"] in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["report.json", "run.cfg"]


def test_picard_close_blowing_up_exits_4(tmp_path, capsys, monkeypatch):
    """Under both, Picard closes its own orbit before shooting runs: a
    runaway start there exits 4 with the error its lone integration raises,
    its time, peak and m. The operator's blocks are replaced so that Picard
    converges in two applications to the potential 300 in every mode."""
    path = config_path("feasible_periodic.cfg")
    cfg = load_config(path)
    sys_ = cli._build_system(cfg, cli._build_model(cfg))
    monkeypatch.setattr(periodic, "_u_block", lambda sys_, u, w: np.full(u.shape, 300.0))
    monkeypatch.setattr(periodic, "_w_block", lambda sys_, u: np.zeros(u.shape))
    monkeypatch.setattr(cli, "shooting_solve", lambda *args, **kwargs: pytest.fail("shot"))
    start = np.concatenate([np.full(sys_.n_modes, 300.0), np.zeros(sys_.n_modes)])
    with pytest.raises(galerkin.BlowUpError) as lone:
        galerkin.integrate_cauchy(sys_, start, sys_.period, 2.0 / 1024)
    assert cli.main(["solve-periodic", "--config", path, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.strip() == str(lone.value)
    report = read_report(tmp_path)
    assert {key: report[key] for key in ("time", "magnitude", "m")} == vars(lone.value)


def test_cauchy_step_past_the_stability_limit_names_the_key(tmp_path, capsys, monkeypatch):
    """At m = 8 cauchy.dt = 0.25 is past RK4's limit: solve-cauchy exits 2
    with the key's line, key and value before the message, which names T/N,
    and takes no step."""
    monkeypatch.setattr(galerkin, "_march", lambda *args: pytest.fail("a step was taken"))
    text = RUNAWAY_DRIVE_CFG.replace("cauchy.dt = 0.03125", "cauchy.dt = 0.25")
    path = write_config(tmp_path, text)
    line = load_config(path).lines["cauchy.dt"]
    assert cli.main(["solve-cauchy", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: cauchy.dt = 0.25: dt = 0.25 times the fastest decay rate" in err, err
    assert re.search(r"largest stable dt that divides the period is T/(\d+) = (\S+)$", err.strip())
    assert not os.path.exists(tmp_path / "report.json")


def test_converge_step_past_the_largest_size_exits_2_before_stepping(
    tmp_path, capsys, monkeypatch
):
    """dt = 1/64 is inside RK4's limit at m = 8 and past it at m = 32, the
    ladder's largest size: the run exits 2 without taking a step, although
    stepping under this drive would blow up."""
    monkeypatch.setattr(galerkin, "_march", lambda *args: pytest.fail("a step was taken"))
    text = RUNAWAY_DRIVE_CFG.replace("cauchy.dt = 0.03125", "cauchy.dt = 0.015625")
    path = write_config(tmp_path, text + "converge.m_list = 8,32\n")
    line = load_config(path).lines["cauchy.dt"]
    assert cli.main(["converge", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "past RK4's stability limit" in err, err
    assert f"{path}:{line}: cauchy.dt = 0.015625: dt = 0.015625 times" in err, err
    assert not os.path.exists(tmp_path / "convergence.csv")


def test_picard_check_past_the_stability_limit_exits_2(tmp_path, capsys, monkeypatch):
    """At m = 72 the default T/1024 step of Picard's periodicity check sits at
    lambda_max dt = 3.20, past RK4's limit: that is a configuration error
    named before the first sweep, not a blow-up. At solver.dt = T/2048 the
    same run converges."""
    sweeps = []
    u_block = periodic._u_block
    monkeypatch.setattr(periodic, "_u_block", lambda *args: sweeps.append(1) or u_block(*args))
    text = NONLINEAR_PERIODIC_CFG.replace("solver.m = 2", "solver.m = 72")
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2, f"a step past the stability limit should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert "stability limit 2.7852935634" in err and "largest stable dt" in err, err
    assert f"{cfg}: solver.dt = 0.001953125: dt = 0.00195312 times" in err, err
    assert sweeps == [], "the step is checked before the first sweep"

    cfg = write_config(tmp_path, text + "solver.dt = 0.0009765625\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 0
    picard = read_report(tmp_path)["payload"]["picard"]
    assert picard["converged"] is True and picard["n_iter"] == 3
    assert picard["periodicity_residual"] < 1e-12
    capsys.readouterr()  # swallow the written-path listing


def test_shooting_past_the_stability_limit_names_a_step_that_divides_the_period(
    tmp_path, capsys
):
    """At m = 72 shooting's default T/1024 step is past RK4's limit. The error
    names T/N, printed to full precision, and that value pasted into
    solver.dt passes both the limit and shooting's divisibility check."""
    text = SHOOTING_CFG.replace("solver.m = 2", "solver.m = 72")
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    pattern = r"largest stable dt that divides the period is T/(\d+) = (\S+)$"
    named = re.search(pattern, err.strip())
    assert named, err
    assert float(named.group(2)) == 2.0 / int(named.group(1))
    assert f"{cfg}: solver.dt = 0.001953125: dt = 0.00195312 times" in err, err

    cfg = write_config(tmp_path, text + f"solver.dt = {named.group(2)}\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["payload"]["shooting"]["converged"] is True
    capsys.readouterr()  # swallow the written-path listing


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "solver.n_t = 2048",
            "solver.n_t = 1000",
            "solver.n_t = 1000, solver.dt = 0.001953125:"
            " grids with 1000 and 1024 nodes do not nest",
        ),
        (
            "solver.dt = 0.001953125",
            "solver.dt = 0.003",
            "solver.n_t = 2048, solver.dt = 0.003: dt must divide the period",
        ),
        (
            "solver.n_t = 2048",
            "solver.n_t = 48",
            "solver.n_t = 48, solver.dt = 0.001953125: n_t must be at least 64",
        ),
        (
            "solver.dt = 0.001953125",
            "solver.dt = 0.0625",
            "solver.n_t = 2048, solver.dt = 0.0625: dt must be at most T/64",
        ),
    ],
)
def test_non_nesting_grids_exit_2_before_solving(tmp_path, capsys, monkeypatch, old, new, message):
    """With both methods the cross-method gap needs nesting node sets:
    n_t = 1000 against T/dt = 1024 is named before either solver runs, and
    so is a dt that does not divide the period (T/dt = 666.7), before any
    node count is compared. A count under the 64-node floor is named as
    such, before nesting: n_t = 48 does not nest with 1024 either, and
    T/dt = 32 nests with 2048 but would let Picard run before shooting
    rejected it."""
    for name in ("picard_solve", "shooting_solve"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a solver ran"))
    with open(config_path("feasible_periodic.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new))
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert not (tmp_path / "orbit.csv").exists()


_POWERS_OF_TWO = [2**k for k in range(5, 13)]  # node counts that often nest


@pytest.mark.parametrize("method", ["picard", "shooting", "both"])
@settings(max_examples=80, deadline=None)
@given(
    n_t=st.one_of(st.integers(-4, 4096), st.sampled_from(_POWERS_OF_TWO)),
    n_shoot=st.one_of(st.integers(1, 4096), st.sampled_from(_POWERS_OF_TWO)),
    divides=st.booleans(),
)
@example(n_t=48, n_shoot=1000, divides=False)  # every rule fails: the first is named
@example(n_t=64, n_shoot=32, divides=True)  # nests, but shooting's count is under the floor
@example(n_t=1000, n_shoot=1024, divides=True)
@example(n_t=2048, n_shoot=1024, divides=True)
@example(n_t=64, n_shoot=8, divides=True)  # Picard alone reaches the step rule: T/8 is past it
def test_grid_precheck_names_the_first_failing_rule_under_every_method(
    tmp_path_factory, method, n_t, n_shoot, divides
):
    """The node rules of the methods that run are checked before either
    solver does: Picard's 64-node floor of solver.n_t, then that shooting's
    solver.dt divides T into at least 64 steps, then, with both, that the two
    node counts nest, then that solver.dt, also the step of Picard's
    periodicity check, is inside RK4's stability limit. A run exits 2 naming
    the first rule that fails after the keys those rules read, and otherwise
    reaches its solvers. The error's line is the last of those keys'."""
    dt = 2.0 / n_shoot if divides else 2.0 / (n_shoot + 0.5)
    picard, shooting = method != "shooting", method != "picard"
    prefix = {
        "picard": f"solver.n_t = {n_t}: ",
        "shooting": f"solver.dt = {dt!r}: ",
        "both": f"solver.n_t = {n_t}, solver.dt = {dt!r}: ",
    }[method]
    path = config_path("feasible_periodic.cfg")
    feasible = load_config(path)
    feasible = cli._build_system(feasible, cli._build_model(feasible))
    fastest = max(float(np.max(feasible.basis.lambdas)), feasible.recovery_rate)
    if picard and n_t < 64:
        expected = "n_t must be at least 64"
    elif shooting and not divides:
        expected = "dt must divide the period"
    elif shooting and n_shoot < 64:
        expected = "dt must be at most T/64"
    elif method == "both" and max(n_t, n_shoot) % min(n_t, n_shoot):
        expected = f"grids with {n_t} and {n_shoot} nodes do not nest"
    elif dt * fastest > galerkin.RK4_STABILITY_LIMIT:
        expected = f"dt = {dt:.6g} times the fastest decay rate"
        prefix = f"solver.dt = {dt!r}: "
    else:
        expected = None
    calls = []

    def stub(method, n_nodes):
        def solve(sys_, *args, **kwargs):
            calls.append(method)
            zeros = np.zeros((n_nodes, sys_.n_modes))
            times = np.arange(n_nodes) * (sys_.period / n_nodes)
            return PeriodicOrbit(times, zeros, zeros, 0.0, 0.0, True, (0.0,))

        return solve

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("solver.method = both", f"solver.method = {method}")
    # shooting reads no solver.n_t, and setting it would exit 2 on that instead
    text = text.replace("solver.n_t = 2048", f"solver.n_t = {n_t}" if picard else "")
    text = text.replace("solver.dt = 0.001953125", f"solver.dt = {dt!r}")
    out = tmp_path_factory.mktemp("grids")
    cfg = write_config(out, text)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "picard_solve", stub("picard", n_t))
        patch.setattr(cli, "shooting_solve", stub("shooting", n_shoot))
        patch.setattr(sys, "stderr", err)
        patch.setattr(sys, "stdout", io.StringIO())
        rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(out), "--format", "json"])
    if expected is None:
        assert rc == 0, err.getvalue()
        assert calls == {"both": ["picard", "shooting"]}.get(method, [method])
    else:
        assert rc == 2
        line = max(load_config(cfg).lines[key] for key in re.findall(r"(solver\.\w+) = ", prefix))
        assert f"{cfg}:{line}: {prefix}{expected}" in err.getvalue(), err.getvalue()
        assert calls == []


@pytest.mark.parametrize(
    "method, key",
    [
        ("shooting", "solver.n_t = 48"),
        ("shooting", "solver.theta = 0.5"),
        ("shooting", "solver.max_iter = 3"),
        ("picard", "solver.newton_max_iter = 3"),
    ],
)
def test_solver_key_the_method_does_not_read_exits_2(tmp_path, capsys, monkeypatch, method, key):
    """A solver key only the other method reads is a configuration error named
    with its method, not a value silently dropped from the run and its echo."""
    for name in ("picard_solve", "shooting_solve"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a solver ran"))
    with open(config_path("feasible_periodic.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("solver.method = both", f"solver.method = {method}")
    text = text.replace("solver.n_t = 2048\n", "") + key + "\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    name = key.split(" =")[0]
    assert f"key '{name}' is not used by solver.method = {method}" in err, err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "method, key, flags, message",
    [
        ("picard", "solver.max_iter = 0", [], "key 'solver.max_iter' must be at least 1, got 0"),
        (
            "shooting",
            "solver.newton_max_iter = -1",
            [],
            "key 'solver.newton_max_iter' must be at least 0, got -1",
        ),
        ("both", "solver.radius = -1.0", [], "key 'solver.radius' must be positive, got -1.0"),
        (
            "both",
            "solver.newton_max_iter = -1",
            [],
            "key 'solver.newton_max_iter' must be at least 0, got -1",
        ),
        (
            "shooting",
            "",
            ["--seed", "11"],
            "flag '--seed' is not used by solver.method = shooting",
        ),
        ("picard", "", ["--seed", "-3"], "run.cfg: flag '--seed' must be non-negative, got -3"),
    ],
    ids=[
        "picard cap",
        "shooting cap",
        "radius",
        "shooting cap under both",
        "seed under shooting",
        "negative seed",
    ],
)
def test_solver_input_out_of_range_exits_2_before_any_work(
    tmp_path, capsys, no_solver_work, method, key, flags, message
):
    """An iteration cap below its range, a ball radius <= 0, a Picard seed
    given to shooting or a negative seed is a configuration error named with
    its key or flag, raised before any sweep, integration or Jacobian: not a
    run that exits 3 on a cap it could never meet, nor one that ignores the
    cap, the radius or the seed. Under both methods shooting's cap is named
    with the config file before Picard runs, and a negative seed with the
    config file before NumPy's generator rejects it."""
    with open(config_path("feasible_periodic.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("solver.method = both", f"solver.method = {method}")
    if method == "shooting":
        text = text.replace("solver.n_t = 2048\n", "")
    if key.startswith("solver.radius"):  # replaces the shipped radius
        text = text.replace("solver.radius = 0.01587400205355547\n", "")
    cfg = write_config(tmp_path, text + key + "\n")
    argv = ["solve-periodic", "--config", cfg, "--out", str(tmp_path), *flags]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err, err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "method, key, value",
    [
        *[(method, "solver.tol", "-1e-10") for method in ("picard", "shooting", "both")],
        *[(method, "solver.theta", "1.5") for method in ("picard", "both")],
        *[(method, "solver.max_iter", "0") for method in ("picard", "both")],
        *[(method, "solver.newton_max_iter", "-1") for method in ("shooting", "both")],
        *[(method, "solver.dt", "0") for method in ("picard", "shooting", "both")],
    ],
)
def test_solver_value_out_of_range_names_file_line_and_key(
    tmp_path, capsys, no_solver_work, method, key, value
):
    """A solver value outside its range exits 2 under every method that reads
    the key, naming the config file, the line that sets it and the key, before
    any sweep, integration or Jacobian. A zero dt is one of them: shooting
    used to divide the period by it."""
    with open(config_path("feasible_periodic.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("solver.method = both", f"solver.method = {method}")
    # the shipped value of the key is replaced, and shooting reads no solver.n_t
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} ")]
    if method == "shooting":
        lines.remove("solver.n_t = 2048")
    lines.append(f"{key} = {value}")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{len(lines)}: key '{key}' must be " in err, err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("method", ["picard", "shooting", "both"])
@pytest.mark.parametrize("model", ["c1 = 0", "negative c4_override"])
def test_nonpositive_decay_rate_exits_2_under_every_method(
    tmp_path, capsys, no_solver_work, method, model
):
    """A model whose lambda_0 = epsilon c4 / C is not positive has no unique
    periodic orbit. Either solver rejects it before any sweep, integration
    or Jacobian, with one message: a configuration error, not a singular
    period-map Jacobian."""
    with open(config_path("linear_orbit.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    override = "derived.c4_override = 31.25\n"
    assert override in text
    text = text.replace(override, "" if model == "c1 = 0" else "derived.c4_override = -2.5\n")
    text = text.replace("solver.method = both", f"solver.method = {method}")
    if method == "shooting":
        text = text.replace("solver.n_t = 512\n", "")
    cfg = write_config(tmp_path, text)
    lam0 = cli._build_model(load_config(cfg)).lam0
    assert lam0 <= 0.0
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert (
        f"decay rate must be positive and finite, got {lam0} (periodic response undefined)" in err
    ), err


def test_both_methods_give_the_lone_solvers_orbits_bit_for_bit(tmp_path, capsys):
    """Under both, the written orbits, histories and residuals are those of
    picard_solve and shooting_solve run alone on feasible_periodic.cfg: each
    solver closes, or measures, its own orbit."""
    path = config_path("feasible_periodic.cfg")
    assert cli.main(["solve-periodic", "--config", path, "--out", str(tmp_path)]) == 0
    cfg = load_config(path)
    sys_ = cli._build_system(cfg, cli._build_model(cfg))
    dt = cfg.get("solver.dt", None)
    lone = {
        "picard": periodic.picard_solve(sys_, cfg.get("solver.n_t", None), dt),
        "shooting": periodic.shooting_solve(sys_, dt),
    }
    payload = read_report(tmp_path)["payload"]
    for (name, orbit), csv in zip(lone.items(), ("orbit.csv", "orbit_shooting.csv")):
        rows = np.loadtxt(tmp_path / csv, delimiter=",", skiprows=2)
        assert np.array_equal(rows, np.column_stack([orbit.times, orbit.u, orbit.w])), name
        assert payload[name]["history"] == list(orbit.history), name
        assert payload[name]["periodicity_residual"] == orbit.periodicity_residual, name
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, old, new, keys",
    [
        (
            "solve-cauchy",
            "model.u_peak = 100.0",
            "model.u_peak = -5",
            "model.u_peak = -5.0, model.u_res = 0.0: u_peak must exceed u_res",
        ),
        (
            "solve-periodic",
            "model.c1 = 125.0",
            "model.c1 = 0",
            "model.c1 = 0.0: decay rate must be positive and finite, got 0.0",
        ),
        (
            "feasibility",
            "model.c1 = 125.0",
            "model.c1 = 0",
            "model.c1 = 0.0: decay rate must be positive and finite, got 0.0",
        ),
    ],
)
def test_model_rules_across_keys_name_file_line_and_keys(
    tmp_path, capsys, command, old, new, keys
):
    """u_peak > u_res and lambda_0 = epsilon c4 / C > 0 each read more than
    one value, and each exits 2 naming the file, the last line among its
    keys, and the keys with their values."""
    shipped = {"solve-cauchy": "cauchy_demo.cfg", "feasibility": "window_aggregates.cfg"}
    with open(config_path(shipped.get(command, "feasible_periodic.cfg")), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = lines.index(old) + 1
    if "u_res" in keys:
        line = max(line, lines.index("model.u_res = 0.0") + 1)
    lines[lines.index(old)] = new
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {cfg}:{line}: {keys}" in err, err
    assert not (tmp_path / "report.json").exists()


def test_pinned_c4_is_named_for_a_nonpositive_decay_rate(tmp_path, capsys):
    """With derived.c4_override set, lambda_0 is its, and so is the key named."""
    with open(config_path("linear_orbit.cfg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = lines.index("derived.c4_override = 31.25") + 1
    lines[line - 1] = "derived.c4_override = 0"
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{line}: derived.c4_override = 0.0: decay rate must be positive" in err, err


def test_linear_orbit_converges_in_one_step(tmp_path, capsys):
    rc = cli.main(
        ["solve-periodic", "--config", config_path("linear_orbit.cfg"),
         "--out", str(tmp_path)]
    )
    assert rc == 0
    report = read_report(tmp_path)
    payload = report["payload"]
    assert payload["picard"]["n_iter"] == 1, "linear problem should need one sweep"
    assert payload["picard"]["converged"] is True
    # the constant drive's steady state is an exact RK4 fixed point, and
    # shooting starts from it as the linear periodic response: no step
    assert payload["shooting"]["n_iter"] == 0, "linear problem should need no shooting step"
    assert payload["shooting"]["history"][0] <= 1e-10, "start defect should be under tol"
    assert payload["cross_method_gap"] < 1e-10, (
        f"methods should agree, gap {payload['cross_method_gap']:.3e}"
    )
    assert "ball_certificate" not in payload
    assert report["condition_flags"]["ball_member"] is None
    for name in ("orbit.csv", "orbit_shooting.csv"):
        assert os.path.exists(os.path.join(str(tmp_path), name)), f"{name} missing"
    capsys.readouterr()  # swallow the written-path listing


def test_shooting_reports_its_jacobian_conditioning(tmp_path, capsys):
    """On a linear system the closed-form start J0 is already exact, so the
    secant updates leave it unchanged and the reported condition is J0's."""
    path = config_path("linear_orbit.cfg")
    assert cli.main(["solve-periodic", "--config", path, "--out", str(tmp_path)]) == 0
    payload = read_report(tmp_path)["payload"]
    assert payload["picard"]["jacobian_cond"] is None
    cfg = load_config(path)
    sys_ = cli._build_system(cfg, cli._build_model(cfg))
    dt = cfg.require("solver.dt")
    j0 = periodic._linear_monodromy(sys_, dt, round(sys_.period / dt))
    assert payload["shooting"]["jacobian_cond"] == pytest.approx(np.linalg.cond(j0), rel=1e-6)
    capsys.readouterr()  # swallow the written-path listing


def test_non_convergence_exits_3(tmp_path, capsys):
    text = NONLINEAR_PERIODIC_CFG + "solver.tol = 1e-16\nsolver.max_iter = 1\n"
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3, f"iteration cap should exit 3, got {rc}"
    err = capsys.readouterr().err
    assert "solver did not converge" in err, f"stderr should explain: {err!r}"


def test_picard_stall_carries_its_update_history(tmp_path):
    text = NONLINEAR_PERIODIC_CFG + "solver.tol = 1e-16\nsolver.max_iter = 3\n"
    cfg = load_config(write_config(tmp_path, text))
    with pytest.raises(NonConvergenceError) as info:
        cli.cmd_solve_periodic(cfg)
    history = info.value.history
    assert len(history) == 3 and all(h > 0.0 for h in history)


def test_non_convergence_leaves_a_partial_report(tmp_path, capsys):
    """A stalled Picard run exits 3 and still writes report.json with the
    command, the configuration echo, the error and the residual histories,
    the coarse one empty at n_t = 128."""
    text = NONLINEAR_PERIODIC_CFG + "solver.tol = 1e-16\nsolver.max_iter = 3\n"
    path = write_config(tmp_path, text)
    assert cli.main(["solve-periodic", "--config", path, "--out", str(tmp_path)]) == 3
    report = read_report(tmp_path)
    assert set(report) == {"command", "config", "error", "history", "coarse_history"}
    assert report["command"] == "solve-periodic"
    echo = report["config"]
    assert echo["solver.tol"] == 1e-16 and echo["solver.max_iter"] == 3
    assert echo["solver.theta"] == 1.0, "defaults the run resolved are echoed"
    assert report["error"].startswith("picard exhausted 3 sweeps")
    assert report["error"] in capsys.readouterr().err
    history = report["history"]
    assert len(history) == 3 and all(h > 0.0 for h in history)
    assert report["coarse_history"] == []


def test_non_convergence_on_both_grids_reports_both_records(tmp_path, capsys):
    """At n_t = 2048 the coarse loop stalls and the solve stops there: the
    partial report keeps its record as coarse_history, and history is empty,
    as no application ran on the n_t nodes."""
    text = NONLINEAR_PERIODIC_CFG.replace("solver.n_t = 128", "solver.n_t = 2048")
    path = write_config(tmp_path, text + "solver.tol = 1e-16\nsolver.max_iter = 3\n")
    assert cli.main(["solve-periodic", "--config", path, "--out", str(tmp_path)]) == 3
    report = read_report(tmp_path)
    assert report["history"] == []
    assert len(report["coarse_history"]) == 3 and all(h > 0.0 for h in report["coarse_history"])
    capsys.readouterr()  # swallow the written-path listing and the error


def test_report_carries_solver_histories_and_write_time(tmp_path, capsys):
    text = NONLINEAR_PERIODIC_CFG.replace("solver.method = picard", "solver.method = both")
    cfg = write_config(tmp_path, text + "solver.dt = 0.015625\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    picard, shooting = report["payload"]["picard"], report["payload"]["shooting"]
    summary_keys = {
        "n_iter", "converged", "n_t", "periodicity_residual", "ct_norm", "history",
        "coarse_history", "jacobian_cond",
    }
    assert set(picard) == set(shooting) == summary_keys
    # 128 nodes have no coarse grid, and shooting never has one
    assert picard["coarse_history"] == shooting["coarse_history"] == []
    # Picard counts sweeps that moved by tol or more; the last sweep did not
    assert len(picard["history"]) == picard["n_iter"] + 1
    assert picard["history"][-1] < 1e-10 <= picard["history"][-2]
    # one defect norm at the linear periodic start, then one per quasi-Newton step
    assert len(shooting["history"]) == shooting["n_iter"] + 1 >= 2
    assert shooting["history"][-1] < 1e-10 < shooting["history"][0]
    assert set(report["timings"]) == {"parse_s", "solve_s", "write_s"}
    assert report["timings"]["write_s"] > 0.0
    capsys.readouterr()


def test_seeded_runs_reproduce_bytes(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for out in (dir_a, dir_b):
        rc = cli.main(
            ["solve-periodic", "--config", config_path("linear_orbit.cfg"),
             "--out", str(out), "--seed", "11"]
        )
        assert rc == 0
    assert read_bytes(dir_a, "orbit.csv") == read_bytes(dir_b, "orbit.csv"), (
        "the same seed should reproduce the orbit file byte for byte"
    )
    capsys.readouterr()  # swallow the written-path listing


def test_converge_equal_truncations_give_zero_gap(tmp_path, capsys):
    text = NONLINEAR_PERIODIC_CFG + "converge.m_list = 4,4\ncauchy.t_end = 0.5\ncauchy.dt = 0.0625\n"
    cfg = write_config(tmp_path, text)
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path)
    pair = report["payload"]["pairs"][0]
    assert pair["u_diff"] == 0.0, "identical truncations must produce a zero gap"
    assert pair["w_diff"] == 0.0
    assert report["condition_flags"]["u_diff_nonincreasing"] is True
    lines = read_lines(tmp_path, "convergence.csv")
    assert lines[1] == "m_coarse,m_fine,u_diff,w_diff"
    assert lines[2] == "4,4,0,0", f"expected exact zeros in the row, got {lines[2]!r}"
    capsys.readouterr()  # swallow the written-path listing


def test_param_region_outputs(tmp_path, capsys):
    rc = cli.main(
        ["param-region", "--config", config_path("reaction_region.cfg"),
         "--out", str(tmp_path)]
    )
    assert rc == 0
    report = read_report(tmp_path)
    flags = report["condition_flags"]
    assert flags["boundary_monotone"] is True, "bound should grow with a1"
    assert flags["interior_consistent"] is True, "interior probes should pass"

    boundary = read_lines(tmp_path, "region.csv")
    assert boundary[1] == "a1,a2_bound"
    assert len(boundary) == 2 + 33, "one row per a1 sample"
    assert boundary[2] == "0,0", f"a1 = 0 should allow no quadratic term: {boundary[2]!r}"

    raster = read_lines(tmp_path, "region_raster.csv")
    assert raster[1] == "a1,a2,admissible"
    data = raster[2:]
    assert len(data) == 33 * 17, "raster should cover the full grid"
    n_admissible = sum(line.endswith(",1") for line in data)
    assert n_admissible == report["payload"]["raster"]["n_admissible"], (
        "raster file and report should agree on the admissible count"
    )
    assert 0 < n_admissible < len(data), "raster should be nontrivial"
    capsys.readouterr()  # swallow the written-path listing


def test_raster_size_without_raster_range_exits_2(tmp_path, capsys, monkeypatch):
    """region.n_a2 sizes the raster, which only region.a2_max switches on; alone it
    is rejected by name, before the boundary is computed."""
    monkeypatch.setattr(cli, "a2_bound", lambda *args: pytest.fail("the boundary was computed"))
    with open(config_path("reaction_region.cfg"), encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("region.a2_max")]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    rc = cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2, f"region.n_a2 without region.a2_max should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert "key 'region.n_a2' is not used without region.a2_max" in err, err
    assert cfg in err, f"stderr should name the file: {err!r}"


def test_a1_range_out_of_order_exits_2(tmp_path, capsys, monkeypatch):
    """The a1 sweep needs region.a1_min < region.a1_max; otherwise both keys
    are named with their values, at the later of their lines, before the
    boundary is computed."""
    monkeypatch.setattr(cli, "a2_bound", lambda *args: pytest.fail("the boundary was computed"))
    with open(config_path("reaction_region.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("region.a1_min = 0.0", "region.a1_min = 0.05")
    cfg = write_config(tmp_path, text)
    rc = cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2, f"a1_min = a1_max should exit 2, got {rc}"
    line = text.splitlines().index("region.a1_max = 0.05") + 1
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}:{line}: region.a1_min = 0.05, region.a1_max = 0.05:"
        " a1_min must be below a1_max\n"
    )


def test_param_region_kappa_from_projection_excess(tmp_path, capsys):
    with open(config_path("reaction_region.cfg"), encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if "feasibility.kappa" not in l]
    base = "\n".join(lines) + "\n"
    runs = {
        "excess": base + "feasibility.projection_excess = 1\n",
        # sqrt(2) / (2 (1 + 1)), the kappa a unit projection excess implies
        "kappa": base + "feasibility.kappa = 0.3535533905932738\n",
    }
    for name, text in runs.items():
        cfg = write_config(tmp_path, text, name=f"{name}.cfg")
        rc = cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / name)])
        assert rc == 0, f"{name} run should succeed"
    assert read_bytes(tmp_path / "excess", "region.csv") == read_bytes(
        tmp_path / "kappa", "region.csv"
    ), "kappa from projection_excess should reproduce the direct kappa bit for bit"
    capsys.readouterr()  # swallow the written-path listing

    both = runs["excess"] + "feasibility.kappa = 0.5\n"
    for name, text in (("neither", base), ("both", both)):
        cfg = write_config(tmp_path, text, name=f"{name}.cfg")
        rc = cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / name)])
        assert rc == 2, f"{name} kappa source should exit 2, got {rc}"
        err = capsys.readouterr().err
        for key in ("feasibility.kappa", "feasibility.projection_excess"):
            assert key in err, f"stderr should name {key}: {err!r}"
        assert f"found {name}" in err, f"stderr should say {name} was given: {err!r}"


def test_negative_projection_excess_exits_2(tmp_path, capsys):
    """Both commands that read the excess reject a negative one the same way."""
    with open(config_path("reaction_region.cfg"), encoding="utf-8") as fh:
        region = [l for l in fh.read().splitlines() if "feasibility.kappa" not in l]
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        window = [l for l in fh.read().splitlines() if not l.startswith("feasibility.")]
    raw = ["feasibility.k1 = 0.1", "feasibility.k2 = 1.0", "feasibility.trace_norm = 1.0",
           "feasibility.domain_measure = 1.0", "feasibility.s_sup = 1.0",
           "feasibility.phi_norm = 0.005"]
    commands = {"param-region": region, "feasibility": window + raw}
    for command, lines in commands.items():
        for excess in ("-1", "-0.5"):
            text = "\n".join(lines + [f"feasibility.projection_excess = {excess}"]) + "\n"
            cfg = write_config(tmp_path, text, name=f"{command}{excess}.cfg")
            rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
            assert rc == 2, f"{command} with excess {excess} should exit 2, got {rc}"
            err = capsys.readouterr().err
            line = len(lines) + 1
            expected = f"{cfg}:{line}: key 'feasibility.projection_excess' must be nonnegative"
            assert expected in err, f"stderr: {err!r}"


@pytest.mark.parametrize(
    "key, value",
    [
        *((key, "0") for key in ("kappa", "gamma", "delta", "k1", "k2", "trace_norm",
                                 "domain_measure")),
        *((key, "-1e-9") for key in ("beta", "s_sup", "phi_norm", "projection_excess")),
    ],
)
def test_window_constant_out_of_range_names_file_line_and_key(tmp_path, capsys, key, value):
    """Each window constant has a range; a value outside it is rejected by
    file, line and key, as a solver value is."""
    direct = key in ("kappa", "beta", "gamma", "delta", "projection_excess")
    name = "window_aggregates.cfg" if direct else "reaction_region.cfg"
    # projection_excess replaces kappa, so a config gives exactly one of the two
    dropped = ("feasibility.kappa " if key == "projection_excess" else f"feasibility.{key} ",)
    with open(config_path(name), encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith(dropped)]
    cfg = write_config(tmp_path, "\n".join([*lines, f"feasibility.{key} = {value}"]) + "\n")
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2, f"feasibility.{key} = {value} should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert f"{cfg}:{len(lines) + 1}: key 'feasibility.{key}' must be " in err, err
    assert not os.path.exists(tmp_path / "out"), "nothing should be written"


def test_direct_aggregates_take_kappa_from_projection_excess(tmp_path, capsys):
    """beta, gamma and delta pick the direct set; kappa comes by the one rule
    both window commands share, so the projection excess serves here too."""
    excess = 0.41421356237309503
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("feasibility.kappa ")]
    runs = {
        "excess": f"feasibility.projection_excess = {excess!r}",
        "kappa": f"feasibility.kappa = {projection_kappa(excess)!r}",
    }
    for name, line in runs.items():
        cfg = write_config(tmp_path, "\n".join([*lines, line]) + "\n", name=f"{name}.cfg")
        rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / name)])
        assert rc == 0, f"{name} run should succeed, got {rc}"
    report = read_report(tmp_path / "excess")
    assert report["payload"]["aggregates"]["kappa"] == projection_kappa(excess)
    assert report["condition_flags"]["feasible_window"]["satisfied"] is True
    for csv in ("h_curve.csv", "p_curve.csv"):
        assert read_bytes(tmp_path / "excess", csv) == read_bytes(tmp_path / "kappa", csv)
    capsys.readouterr()  # swallow the written-path listing

    cfg = write_config(tmp_path, "\n".join(lines) + "\n", name="neither.cfg")
    assert cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "neither")]) == 2
    err = capsys.readouterr().err
    assert "exactly one of 'feasibility.kappa' and 'feasibility.projection_excess'" in err, err


def test_both_kappa_keys_exit_2_naming_both_lines(tmp_path, capsys):
    """kappa and the projection excess together exit 2 at the later key's
    line, and the message names the lines of both."""
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = lines.index("feasibility.kappa = 0.5") + 1
    lines.append("feasibility.projection_excess = 1")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    message = (
        f"{cfg}:{len(lines)}: exactly one of 'feasibility.kappa' and "
        f"'feasibility.projection_excess' must be given; found both, on lines {first} and "
        f"{len(lines)}"
    )
    assert err == f"configuration error: {message}\n", err
    assert not os.path.exists(tmp_path / "out"), "nothing should be written"


def test_region_config_serves_the_window_command(tmp_path, capsys):
    """The shipped region config carries k2, so feasibility evaluates the
    model's own full window from it: closed, with the margin it reports."""
    rc = cli.main(["feasibility", "--config", config_path("reaction_region.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 0, f"feasibility on the region config should succeed, got {rc}"
    report = read_report(tmp_path)
    assert report["config"]["feasibility.k2"] == 1.0
    window = report["condition_flags"]["feasible_window"]
    assert window["satisfied"] is False
    assert window["margin"] == pytest.approx(-0.8304175005885619, rel=1e-12)
    assert report["payload"]["r_lower"] is None
    capsys.readouterr()  # swallow the written-path listing


def test_param_region_keeps_a_pinned_decay_rate(tmp_path, capsys):
    """derived.c4_override pins lam0 for the whole a1 sweep, as for every
    other command: the ceiling at a1 = 0 is then positive, and it falls
    with a1 as delta grows."""
    with open(config_path("reaction_region.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    runs = {"shipped": text, "pinned": text + "derived.c4_override = 1000.0\n"}
    for name, run_text in runs.items():
        cfg = write_config(tmp_path, run_text, name=f"{name}.cfg")
        rc = cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / name)])
        assert rc == 0, f"{name} run should succeed, got {rc}"
    for csv in ("region.csv", "region_raster.csv"):
        assert read_bytes(tmp_path / "pinned", csv) != read_bytes(tmp_path / "shipped", csv)
    # 2 (kappa lam0)^1.5 / (sqrt(3) xi k1 sqrt(drive)) with lam0 = 0.032 * 1000
    # and drive s_sup trace_norm phi_norm = 0.005
    ceiling = 2.0 * (0.5 * 32.0) ** 1.5 / (math.sqrt(3.0) * 3.75 * math.sqrt(0.005))
    a1, bound = read_lines(tmp_path / "pinned", "region.csv")[2].split(",")
    assert float(a1) == 0.0 and float(bound) == pytest.approx(ceiling, rel=1e-12)
    report = read_report(tmp_path / "pinned")
    assert report["config"]["derived.c4_override"] == 1000.0
    assert report["condition_flags"] == {"boundary_monotone": False, "interior_consistent": True}
    capsys.readouterr()  # swallow the written-path listing

    # a pinned lam0 < 0 opens no window at any a1: the decay-rate rule, not a complex power
    cfg = write_config(tmp_path, text + "derived.c4_override = -2.5\n", name="negative.cfg")
    rc = cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / "negative")])
    assert rc == 2, f"a negative pinned c4 should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert (
        "decay rate must be positive and finite, got -0.08 (periodic response undefined)" in err
    ), err
    assert not os.path.exists(tmp_path / "negative" / "region.csv")


_DRIVE = "the boundary-drive product s_sup * trace_norm * phi_norm must be positive"
_UNDEFINED = "(periodic response undefined)"


@pytest.mark.parametrize(
    "name, command, edits, named, message",
    [
        (
            "reaction_region",
            "feasibility",
            ("model.c2 = 0",),
            "model.c2 = 0.0",
            "gamma must be positive, got 0.0",
        ),
        (
            "reaction_region",
            "feasibility",
            ("model.c1 = 0", "feasibility.s_sup = 0"),
            "model.c1 = 0.0, feasibility.s_sup = 0.0",
            "delta must be positive, got 0.0",
        ),
        (
            "reaction_region",
            "param-region",
            ("feasibility.s_sup = 0",),
            "feasibility.s_sup = 0.0",
            _DRIVE,
        ),
        (
            "reaction_region",
            "param-region",
            ("feasibility.phi_norm = 0",),
            "feasibility.phi_norm = 0.0",
            _DRIVE,
        ),
        (
            "reaction_region",
            "param-region",
            ("derived.c4_override = -2.5",),
            "derived.c4_override = -2.5",
            f"decay rate must be positive and finite, got -0.08 {_UNDEFINED}",
        ),
        (
            "reaction_region",
            "param-region",
            ("rescale.epsilon = 1e-300", "region.a1_max = 1e-30"),
            "region.a1_min = 0.0, region.a1_max = 1e-30",
            f"decay rate must be positive and finite, got 0.0 {_UNDEFINED}",
        ),
        (
            "feasible_periodic",
            "solve-periodic",
            ("model.b = 1e-300", "rescale.xi = 1e-30"),
            "rescale.epsilon = 0.032, model.b = 1e-300, rescale.xi = 1e-30, model.c3 = 1.0",
            f"decay rate must be positive and finite, got 0.0 {_UNDEFINED}",
        ),
    ],
)
def test_values_that_zero_a_derived_quantity_name_file_line_and_keys(
    tmp_path, capsys, name, command, edits, named, message
):
    """Values each inside its own key's range can still zero what the run
    derives from them: gamma with c2, delta with c1 and the drive, the
    boundary-drive product with one factor, a pinned lambda_0, or by
    underflow lambda_0 at a raster a1 or the recovery rate epsilon b xi c3.
    Each exits 2 naming the keys behind it with their values, at the last
    line that sets one."""
    dropped = tuple(edit.split("=")[0] for edit in edits)
    with open(config_path(f"{name}.cfg"), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith(dropped)]
    lines += edits
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {cfg}:{len(lines)}: {named}: {message}\n", err
    assert not os.path.exists(tmp_path / "out"), "nothing should be written"


def test_overflowing_a2_ceiling_exits_2_naming_the_a1_range(tmp_path, capsys):
    """region.a1_max = 1e300 overflows the a2 ceiling's (kappa lambda_0)^(3/2)
    at the raster's large a1. param-region exits 2 naming the a1 range, the
    first a1 whose ceiling is not finite, and that value, with no NumPy
    warning on the way."""
    with open(config_path("reaction_region.cfg"), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("region.a1_max ")]
    lines.append("region.a1_max = 1e300")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["param-region", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    named = "region.a1_min = 0.0, region.a1_max = 1e+300"
    message = "a2 ceiling at a1 = 3.125e+298 is inf, not finite"
    assert err == f"configuration error: {cfg}:{len(lines)}: {named}: {message}\n", err
    assert not os.path.exists(tmp_path / "out"), "nothing should be written"


_CAUCHY_RUN = ("cauchy.t_end = 0.5", "cauchy.dt = 0.001953125", "converge.m_list = 2, 4")


def _with_recovery(tmp_path, b: str, xi: str, extra=()) -> tuple[str, int]:
    """feasible_periodic.cfg with model.b and rescale.xi set last, after ``extra``;
    the written path and its line count."""
    with open(config_path("feasible_periodic.cfg"), encoding="utf-8") as fh:
        shipped = fh.read().splitlines()
    kept = [line for line in shipped if not line.startswith(("model.b ", "rescale.xi "))]
    lines = [*kept, *extra, f"model.b = {b}", f"rescale.xi = {xi}"]
    return write_config(tmp_path, "\n".join(lines) + "\n"), len(lines)


@pytest.mark.parametrize(
    "command, extra",
    [("solve-periodic", ()), ("solve-cauchy", _CAUCHY_RUN), ("converge", _CAUCHY_RUN)],
)
def test_overflowing_recovery_rate_exits_2_naming_its_keys(tmp_path, capsys, command, extra):
    """model.b = xi = 1e300 overflow the recovery rate epsilon b xi c3 to inf.
    Every command that builds the system exits 2 naming the four keys behind
    it, before any step check could misread the rate."""
    cfg, n_lines = _with_recovery(tmp_path, "1e300", "1e300", extra)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    named = "rescale.epsilon = 0.032, model.b = 1e+300, rescale.xi = 1e+300, model.c3 = 1.0"
    message = "recovery rate epsilon b xi c3 = inf is not finite"
    err = capsys.readouterr().err
    assert err == f"configuration error: {cfg}:{n_lines}: {named}: {message}\n", err
    assert not os.path.exists(tmp_path / "out"), "nothing should be written"


@pytest.mark.parametrize("command", ["solve-cauchy", "converge"])
def test_underflowed_recovery_rate_still_integrates(tmp_path, capsys, command):
    """model.b = 1e-300 and xi = 1e-30 underflow the recovery rate to 0. An
    initial-value run needs no periodic response, so dw/dt = eps b u - 0 w
    integrates and the run exits 0; only solve-periodic rejects the rate."""
    cfg, _ = _with_recovery(tmp_path, "1e-300", "1e-30", _CAUCHY_RUN)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()  # swallow the written-path listing


def test_shooting_step_just_past_the_limit_exits_2_naming_solver_dt(
    tmp_path, capsys, monkeypatch
):
    """Shooting steps at exactly T/N for the N steps solver.dt gives, and a dt
    within 1e-9 T of T/N can sit inside RK4's limit while T/N is past it.
    That step is checked up front too, keyed by solver.dt, before shooting
    runs."""
    monkeypatch.setattr(cli, "shooting_solve", lambda *args, **kwargs: pytest.fail("shot"))
    text = SHOOTING_CFG.replace("solver.m = 2", "solver.m = 72")
    probe = load_config(write_config(tmp_path, text))
    sys_ = cli._build_system(probe, cli._build_model(probe))
    fastest = max(float(np.max(sys_.basis.lambdas)), sys_.recovery_rate)
    period = 1024 * galerkin.RK4_STABILITY_LIMIT / fastest * (1 + 5e-10)  # T/1024 past it
    dt = period / 1024 * (1 - 8e-10)  # inside the limit, within 1e-9 T of T/1024
    assert dt * fastest <= galerkin.RK4_STABILITY_LIMIT < period / 1024 * fastest
    text = text.replace("stimulus.period = 2.0", f"stimulus.period = {period!r}")
    cfg = write_config(tmp_path, text + f"solver.dt = {dt!r}\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    line = load_config(cfg).lines["solver.dt"]
    expected = f"{cfg}:{line}: solver.dt = {dt!r}: dt = {period / 1024:.6g} times the fastest"
    assert expected in err and "past RK4's stability limit" in err, err
    assert not os.path.exists(tmp_path / "out"), "nothing should be written"


def test_a_value_error_past_the_checks_is_not_a_configuration_error(tmp_path, monkeypatch):
    """Only a ConfigError exits 2. A ValueError a solver raises after the
    command's checks is a fault of the program, not of the input, so it
    leaves main as it was raised."""

    def broken(*args, **kwargs):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "picard_solve", broken)
    cfg = config_path("feasible_periodic.cfg")
    with pytest.raises(ValueError, match="an internal fault"):
        cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "solver.m = 4\nsolver.warp = 1\n")
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2, f"unknown key should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert "solver.warp" in err, f"stderr should name the key: {err!r}"
    assert ":2:" in err, f"stderr should carry the line number: {err!r}"


def test_missing_aggregate_key_is_named(tmp_path, capsys):
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if "feasibility.delta" not in l]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "feasibility.delta" in err, f"stderr should name the missing key: {err!r}"


def test_feasibility_without_decay_rate_exits_2(tmp_path, capsys):
    # c1 = 0 zeroes c4 and so the rate eps c4 / C that the t_max default divides by
    with open(config_path("window_aggregates.cfg"), encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("feasibility.t_max")]
    cfg = write_config(tmp_path, "\n".join(lines).replace("model.c1 = 125.0", "model.c1 = 0.0"))
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2, f"a zero decay rate should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert (
        "decay rate must be positive and finite, got 0.0 (periodic response undefined)" in err
    ), err


def test_both_period_keys_exit_2(tmp_path, capsys):
    with open(config_path("linear_orbit.cfg"), encoding="utf-8") as fh:
        text = fh.read() + "stimulus.period_raw = 0.064\n"
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "exactly one" in err, f"stderr should flag the conflict: {err!r}"


def test_stimulus_key_its_kind_ignores_exits_2(tmp_path, capsys):
    with open(config_path("linear_orbit.cfg"), encoding="utf-8") as fh:
        text = fh.read() + "stimulus.width = 0.9\n"
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2, f"an unused stimulus key should exit 2, got {rc}"
    err = capsys.readouterr().err
    assert "stimulus.width" in err and "constant" in err, (
        f"stderr should name key and kind: {err!r}"
    )


def test_coarse_shooting_step_exits_2_before_integrating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(periodic, "integrate_cauchy", lambda *args: calls.append(args))
    text = SHOOTING_CFG
    cfg = write_config(tmp_path, text + "solver.dt = 0.0625\n")
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dt" in err and "T/64" in err and "n_t" not in err, f"stderr should name dt: {err!r}"
    assert calls == [], "the step size is checked before any integration"


def test_nonpositive_shooting_tol_exits_2_before_integrating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(periodic, "integrate_cauchy", lambda *args: calls.append(args))
    text = SHOOTING_CFG
    cfg = write_config(tmp_path, text + "solver.dt = 0.015625\nsolver.tol = 0\n")
    rc = cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "key 'solver.tol' must be positive, got 0.0" in err, f"stderr should name tol: {err!r}"
    assert calls == [], "tol is checked before any integration"


def test_seed_is_a_usage_error_outside_solve_periodic(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["converge", "--config", config_path("refinement.cfg"), "--seed", "5"])
    assert exc_info.value.code == 2, "--seed on converge should be a usage error"
    assert "--seed" in capsys.readouterr().err


def test_interval_whose_eigenvalues_overflow_exits_2(tmp_path, capsys):
    """geometry.length = 1e-200 puts every eigenvalue past lambda_0 at inf:
    solve-periodic exits 2 naming the key's line, key and value before the
    basis builder's message, not with an OverflowError from the step check."""
    with open(config_path("feasible_periodic.cfg"), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("geometry.length")]
    lines.append("geometry.length = 1e-200")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["solve-periodic", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    message = "eigenvalue lambda_1 = inf is not finite"
    assert f"{cfg}:{len(lines)}: geometry.length = 1e-200: {message}" in err, err
    assert not (tmp_path / "report.json").exists()


def test_wrong_ic_length_exits_2(tmp_path, capsys):
    text = LINEAR_CAUCHY_CFG.replace(
        "stimulus.phi = 0.005",
        "stimulus.phi = 0.005\nstimulus.period = 2.0\nic.u = 1.0,2.0",
    )
    cfg = write_config(tmp_path, text)
    rc = cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ic.u" in err and "3" in err, f"stderr should name key and length: {err!r}"


@pytest.mark.parametrize("key", ["ic.u", "ic.w"])
def test_wrong_ic_length_names_file_line_and_key(tmp_path, capsys, key):
    """A wrong-length initial state is named with its file and line, like
    every other keyed configuration error."""
    with open(config_path("cauchy_demo.cfg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.append(f"{key} = 1.0, 2.0")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["solve-cauchy", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{len(lines)}: key '{key}' must list 9 coefficients, got 2" in err, err
    assert not (tmp_path / "report.json").exists()


def test_format_flag_selects_outputs(tmp_path, capsys):
    json_dir = tmp_path / "json_only"
    csv_dir = tmp_path / "csv_only"
    base = ["feasibility", "--config", config_path("window_aggregates.cfg")]
    assert cli.main(base + ["--out", str(json_dir), "--format", "json"]) == 0
    assert os.path.exists(os.path.join(str(json_dir), "report.json"))
    assert not os.path.exists(os.path.join(str(json_dir), "h_curve.csv")), (
        "json format should suppress CSV files"
    )
    assert cli.main(base + ["--out", str(csv_dir), "--format", "csv"]) == 0
    assert os.path.exists(os.path.join(str(csv_dir), "h_curve.csv"))
    assert not os.path.exists(os.path.join(str(csv_dir), "report.json")), (
        "csv format should suppress the JSON report"
    )
    capsys.readouterr()  # swallow the written-path listing


def test_help_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--help"])
    assert exc_info.value.code == 0, "--help should exit 0"
    assert "solve-periodic" in capsys.readouterr().out, "help should list subcommands"
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == 2, "a missing subcommand should exit 2"
    assert "usage" in capsys.readouterr().err, "the error should show usage"


def test_module_entry_point(tmp_path):
    # the child imports the package these tests import, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "monorhythm.cli", "feasibility",
         "--config", config_path("window_aggregates.cfg"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, f"module invocation failed: {result.stderr}"
    assert "report.json" in result.stdout, "module run should list written files"
