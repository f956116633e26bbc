"""The four benchmark workloads: seeded inputs, warm-up inputs and output checks.

Each workload drives one CLI subcommand. Its inputs are configuration files
generated from the benchmark seed; the program sees only those files and
its argv. The reasons each workload exists, and what each one should and
should not move, are in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Rogers-McCulloch model and rescaling shared by every workload: the
# nonlinear system of configs/feasible_periodic.cfg.
MODEL = {
    "model.u_res": 0.0,
    "model.u_peak": 100.0,
    "model.a": 0.25,
    "model.c1": 125.0,
    "model.c2": 100.0,
    "model.c3": 1.0,
    "model.b": 1.0,
    "rescale.epsilon": 0.032,
    "rescale.xi": 3.75,
}

PERIOD = 2.0
# Critical radius r* of the feasibility window for this model; the ball
# certificate checks the orbit against it.
BALL_RADIUS = 0.01587400205355547
# Criterion-3 tolerance of the acceptance gate on the cross-method gap.
GAP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Input:
    """One generated invocation: configuration keys plus the CLI ``--seed``."""

    config: dict
    cli_seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    draw: Callable[[random.Random], Input]
    # Overrides that shrink an input for the untimed warm-up op, which runs
    # the same code paths so imports and lazy set-up finish before timing.
    warmup: dict
    check: Callable[[Path, Input], tuple[list[str], dict]]

    def argv(self, cfg_path: Path, out_dir: Path, inp: Input) -> list[str]:
        argv = [self.command, "--config", str(cfg_path), "--out", str(out_dir)]
        if inp.cli_seed is not None:
            argv += ["--seed", str(inp.cli_seed)]
        return argv


def render(config: dict) -> str:
    """Configuration text; floats use repr, which round-trips exactly."""
    lines = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _report(out_dir: Path) -> dict:
    with open(out_dir / "report.json", encoding="utf-8") as handle:
        return json.load(handle)


def _data_rows(path: Path) -> int:
    """Rows of a CSV written by the CLI: one comment line, one header line."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 2


# ------------------------------------------------------------------ orbit


def _draw_orbit(rng: random.Random) -> Input:
    config = dict(MODEL)
    config.update(
        {
            "geometry.length": 1.0,
            "stimulus.kind": "sinusoid",
            "stimulus.period": PERIOD,
            "stimulus.amplitude": 0.5 + 0.5 * rng.random(),
            "stimulus.phi": 0.005,
            "solver.m": 8,
            "solver.method": "both",
            "solver.n_t": 2048,
            "solver.dt": PERIOD / 1024,
            "solver.tol": 1e-10,
            "solver.radius": BALL_RADIUS,
        }
    )
    return Input(config, cli_seed=rng.randrange(2**31))


def _check_orbit(out_dir: Path, inp: Input):
    rep = _report(out_dir)
    pay = rep["payload"]
    problems = []
    for method in ("picard", "shooting"):
        if not pay[method]["converged"]:
            problems.append(f"{method} did not converge")
    gap = pay["cross_method_gap"]
    if not gap < GAP_TOLERANCE:
        problems.append(f"cross-method gap {gap!r} not below {GAP_TOLERANCE}")
    if rep["condition_flags"]["ball_member"] is not True:
        problems.append("orbit left the certified ball")
    return problems, {"orbit_gap_rel": gap / pay["picard"]["ct_norm"]}


# ----------------------------------------------------------------- picard


def _draw_picard(rng: random.Random) -> Input:
    config = dict(MODEL)
    config.update(
        {
            "geometry.length": 1.0,
            "stimulus.kind": "pulse",
            "stimulus.period": PERIOD,
            "stimulus.amplitude": 1.0,
            "stimulus.width": 0.05,
            "stimulus.phi": 0.005,
            "solver.m": 32,
            "solver.method": "picard",
            "solver.n_t": 8192,
            "solver.theta": 0.5,
            "solver.tol": 1e-10,
            "solver.radius": BALL_RADIUS,
        }
    )
    return Input(config, cli_seed=rng.randrange(2**31))


def _check_picard(out_dir: Path, inp: Input):
    rep = _report(out_dir)
    problems = []
    if not rep["payload"]["picard"]["converged"]:
        problems.append("picard did not converge")
    if rep["condition_flags"]["ball_member"] is not True:
        problems.append("orbit left the certified ball")
    return problems, {}


# ----------------------------------------------------------------- refine


def _draw_refine(rng: random.Random) -> Input:
    config = dict(MODEL)
    config.update(
        {
            "geometry.length": 1.0,
            "stimulus.kind": "sinusoid",
            "stimulus.period": PERIOD,
            "stimulus.amplitude": 0.5 + 0.5 * rng.random(),
            "stimulus.phi": 0.005,
            "converge.m_list": [4, 8, 16, 32, 64],
            "cauchy.t_end": 2 * PERIOD,
            "cauchy.dt": PERIOD / 1024,
        }
    )
    return Input(config)


def _check_refine(out_dir: Path, inp: Input):
    rep = _report(out_dir)
    problems = []
    gaps = [p[k] for p in rep["payload"]["pairs"] for k in ("u_diff", "w_diff")]
    if len(gaps) != 2 * (len(inp.config["converge.m_list"]) - 1):
        problems.append(f"expected one gap pair per refinement step, got {len(gaps)} gaps")
    if not all(math.isfinite(g) for g in gaps):
        problems.append("non-finite refinement gap")
    if rep["condition_flags"]["u_diff_nonincreasing"] is not True:
        problems.append("u gaps grow under refinement")
    return problems, {}


# ----------------------------------------------------------------- region


def _draw_region(rng: random.Random) -> Input:
    config = dict(MODEL)
    config.update(
        {
            "feasibility.kappa": 0.5,
            "feasibility.k1": 1.0,
            "feasibility.domain_measure": 1.0,
            "feasibility.s_sup": 1.0,
            "feasibility.trace_norm": 1.0,
            "feasibility.phi_norm": 0.005,
            "region.a1_min": 0.0,
            "region.a1_max": 0.03 + 0.05 * rng.random(),
            "region.n_a1": 512,
            "region.a2_max": 0.1 + 0.3 * rng.random(),
            "region.n_a2": 512,
        }
    )
    return Input(config)


def _check_region(out_dir: Path, inp: Input):
    rep = _report(out_dir)
    flags = rep["condition_flags"]
    problems = [
        f"{flag} is false"
        for flag in ("boundary_monotone", "interior_consistent")
        if flags[flag] is not True
    ]
    expected = inp.config["region.n_a1"] * inp.config["region.n_a2"]
    rows = _data_rows(out_dir / "region_raster.csv")
    if rows != expected:
        problems.append(f"raster has {rows} rows, expected {expected}")
    return problems, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orbit",
            "solve-periodic",
            _draw_orbit,
            {"solver.n_t": 128, "solver.dt": PERIOD / 64},
            _check_orbit,
        ),
        Workload("picard", "solve-periodic", _draw_picard, {"solver.n_t": 512}, _check_picard),
        Workload("refine", "converge", _draw_refine, {"cauchy.t_end": PERIOD / 8}, _check_refine),
        Workload(
            "region",
            "param-region",
            _draw_region,
            {"region.n_a1": 64, "region.n_a2": 64},
            _check_region,
        ),
    )
}
