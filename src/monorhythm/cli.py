"""Batch front end: run configurations in, machine-readable results out.

Five subcommands cover the suite: ``feasibility`` evaluates the existence
window and samples the load/gain curves, ``solve-cauchy`` integrates the
modal initial-value problem with a priori monitors, ``solve-periodic``
finds a periodic orbit by Picard iteration and/or shooting and, given
``solver.radius``, flags whether it lies in that ball, ``converge``
measures truncation refinement on a shared time grid, and ``param-region``
rasterizes the admissible reaction-coefficient region.

Every run writes a JSON report (configuration echo, payload, condition
flags, timings) and CSV data files, in the formats of :mod:`.output`, so
identical configurations reproduce identical bytes apart from timings.
Exit codes: 0 success, 2 configuration error (including a configured
value that breaks the rule on its :data:`.config.SCHEMA` row, a solver,
stimulus or region key that another value switches off, ``--seed`` under
shooting, node grids :func:`.periodic.orbit_nodes` rejects, an RK4 step
past its stability limit, a decay rate lambda_0 <= 0, and in-range values
whose products vanish or overflow), 3 solver non-convergence, 4 trajectory
blow-up; any other error is the program's. A run that exits 3 or 4 still writes a
partial report: the command, the config echo, the error message, and the
failed solver's history or the blow-up's time, magnitude and size m.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .config import SCHEMA, ConfigError, RunConfig, load_config
from .feasibility import (
    AggregateConstants,
    EmbeddingConstants,
    a2_bound,
    aggregate_from_raw,
    feasible_window_condition,
    h_of_T,
    interior_consistent,
    p_of_R,
    projection_kappa,
    r_bounds,
    r_star,
    recovery_coupling_condition,
    t_star,
)
from .galerkin import (
    BlowUpError,
    GalerkinSystem,
    apriori_monitor,
    check_rk4_step,
    integrate_cauchy,
    refinement_gaps,
)
from .ionic import PhysiologicalParameters, check_decay_rates, derive_parameters, rescale_period
from .output import write_csv, write_report
from .periodic import (
    NonConvergenceError,
    orbit_gap,
    orbit_nodes,
    picard_solve,
    shooting_solve,
)
from .spectral import Geometry1D, Stimulus, build_basis

# besides kappa, the aggregates a config may give directly instead of the embeddings
_DIRECT_AGGREGATE_KEYS = ("feasibility.beta", "feasibility.gamma", "feasibility.delta")
# the factors of the recovery rate epsilon b xi c3
_RECOVERY_KEYS = ("rescale.epsilon", "model.b", "rescale.xi", "model.c3")


def _keyed_error(cfg: RunConfig, keys, exc: ValueError) -> ConfigError:
    """``exc`` as a ConfigError prefixed ``key = value`` per key of ``keys``, at the
    last line of the file that sets one of them, or at none if all are defaults."""
    prefix = ", ".join(f"{key} = {cfg.consumed[key]!r}" for key in keys)
    line = max((cfg.lines[key] for key in keys if key in cfg.lines), default=None)
    return ConfigError(f"{prefix}: {exc}", cfg.path, line)


def _keyed(cfg: RunConfig, keys, check, *args, **kwargs):
    """``check(*args, **kwargs)``, a ValueError it raises keyed by ``keys``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise _keyed_error(cfg, keys, exc) from None


def _build_model(cfg: RunConfig):
    try:  # each key's own rule is on its SCHEMA row, so only u_peak > u_res is left
        phys = PhysiologicalParameters(
            u_res=cfg.require("model.u_res"),
            u_peak=cfg.require("model.u_peak"),
            a=cfg.require("model.a"),
            c1=cfg.require("model.c1"),
            c2=cfg.require("model.c2"),
            c3=cfg.require("model.c3"),
            b=cfg.require("model.b"),
            C_m=cfg.get("model.C_m", PhysiologicalParameters.C_m),
            chi=cfg.get("model.chi", PhysiologicalParameters.chi),
            sigma_const=cfg.get("model.sigma", PhysiologicalParameters.sigma_const),
        )
    except ValueError as exc:
        raise _keyed_error(cfg, ("model.u_peak", "model.u_res"), exc) from None
    return derive_parameters(
        phys,
        cfg.require("rescale.epsilon"),
        cfg.require("rescale.xi"),
        c4_override=cfg.get("derived.c4_override", None),
    )


def _check_lam0(cfg: RunConfig, d) -> None:
    """Raise a ConfigError naming lam0 = epsilon c4 / C's input, ``derived.c4_override``
    when it is set and ``model.c1`` otherwise, unless lam0 is positive and finite."""
    key = "model.c1" if d.c4_override is None else "derived.c4_override"
    _keyed(cfg, (key,), check_decay_rates, d.lam0)


def _build_stimulus(cfg: RunConfig, d):
    key, value = cfg.require_exactly_one("stimulus.period", "stimulus.period_raw")
    period = rescale_period(value, d) if key == "stimulus.period_raw" else value
    kind = cfg.require("stimulus.kind")
    phi = cfg.require("stimulus.phi")
    amplitude = cfg.require("stimulus.amplitude")
    shape = Stimulus.FIELDS[kind]
    # an unset field takes the Stimulus dataclass default
    fields = {name: cfg.get(f"stimulus.{name}", getattr(Stimulus, name)) for name in shape}
    cfg.reject_unread("stimulus.", f"by stimulus.kind = {kind}")
    # echo the resolved period only, so the echo re-parses cleanly
    cfg.consumed.pop("stimulus.period_raw", None)
    cfg.consumed["stimulus.period"] = period
    return Stimulus(kind, period, phi, amplitude, **fields)


def _build_system(cfg: RunConfig, d, m: int | None = None):
    """The truncated system at size ``m``, by default ``solver.m``."""
    geom = Geometry1D(cfg.require("geometry.length"))
    m = cfg.require("solver.m") if m is None else m
    basis = _keyed(cfg, ("geometry.length",), build_basis, geom, m, d)
    stim = _build_stimulus(cfg, d)
    sys_ = GalerkinSystem(basis, d, stim)
    # the product epsilon b xi c3 may overflow, which every step check would misread;
    # one that underflows to 0 still integrates, and only a periodic response needs it > 0
    if not np.isfinite(sys_.recovery_rate):
        exc = ValueError(f"recovery rate epsilon b xi c3 = {sys_.recovery_rate} is not finite")
        raise _keyed_error(cfg, _RECOVERY_KEYS, exc)
    return sys_


def _kappa(cfg: RunConfig) -> float:
    key, value = cfg.require_exactly_one("feasibility.kappa", "feasibility.projection_excess")
    return value if key == "feasibility.kappa" else projection_kappa(value)


def _build_embedding(cfg: RunConfig) -> EmbeddingConstants:
    return EmbeddingConstants(
        kappa=_kappa(cfg),
        k1=cfg.require("feasibility.k1"),
        trace_norm=cfg.require("feasibility.trace_norm"),
        domain_measure=cfg.require("feasibility.domain_measure"),
        s_sup=cfg.require("feasibility.s_sup"),
        phi_norm=cfg.require("feasibility.phi_norm"),
    )


def _drive_keys(cfg: RunConfig) -> tuple:
    """The factors of a nonpositive drive product set to zero, or all three if it underflowed."""
    keys = ("feasibility.s_sup", "feasibility.trace_norm", "feasibility.phi_norm")
    return tuple(key for key in keys if cfg.consumed[key] == 0.0) or keys


def _build_aggregates(cfg: RunConfig, d) -> AggregateConstants:
    if not any(cfg.has(key) for key in _DIRECT_AGGREGATE_KEYS):
        emb = _build_embedding(cfg)
        # gamma = A3 k1 vanishes with c2, delta = A1 k1 |Omega|^(3/4) + drive with c1 and the drive
        keys = ("model.c2",) if not d.A3 * emb.k1 > 0.0 else ("model.c1", *_drive_keys(cfg))
        return _keyed(cfg, keys, aggregate_from_raw, d, emb, cfg.require("feasibility.k2"))
    return AggregateConstants(_kappa(cfg), *(cfg.require(key) for key in _DIRECT_AGGREGATE_KEYS))


def _initial_state(cfg: RunConfig, n_modes: int) -> np.ndarray:
    u0 = np.asarray(cfg.get("ic.u", (0.0,) * n_modes), dtype=float)
    w0 = np.asarray(cfg.get("ic.w", (0.0,) * n_modes), dtype=float)
    for name, arr in (("ic.u", u0), ("ic.w", w0)):
        if arr.shape != (n_modes,):
            raise ConfigError(
                f"key '{name}' must list {n_modes} coefficients, got {arr.size}",
                cfg.path,
                cfg.lines.get(name),
            )
    return np.concatenate([u0, w0])


def cmd_feasibility(cfg: RunConfig):
    d = _build_model(cfg)
    agg = _build_aggregates(cfg, d)
    _check_lam0(cfg, d)  # before the t_max default divides by it
    h0 = h_of_T(0.0, d.lam0)
    rs = r_star(agg)
    t_max = cfg.get("feasibility.t_max", 5.0 / d.lam0)
    r_max = cfg.get("feasibility.r_max", 4.0 * rs)
    n_samples = cfg.get("feasibility.n_samples", 256)
    window = feasible_window_condition(agg, h0)
    # the crossing radii and the period ceiling exist only inside an open window
    r_lower = r_upper = ceiling = None
    if window.satisfied:
        r_lower, r_upper = r_bounds(agg, h0)
        ceiling = t_star(rs, agg, d.lam0, (r_lower, r_upper))
    t = np.linspace(0.0, t_max, n_samples)
    r = np.linspace(0.0, r_max, n_samples)

    payload = {
        "aggregates": agg,
        "r_star": rs,
        "p_at_r_star": p_of_R(rs, agg),
        "h_at_zero": h0,
        "r_lower": r_lower,
        "r_upper": r_upper,
        "t_star_at_r_star": ceiling,
    }
    flags = {
        "feasible_window": window,
        "feasible_window_reduced": feasible_window_condition(
            dataclasses.replace(agg, beta=0.0), h0
        ),
        "recovery_coupling": recovery_coupling_condition(d.xi, d.c3),
    }
    files = [
        (
            "h_curve.csv",
            "load curve: x = drive period (rescaled time), value = h (dimensionless)",
            "x,value",
            np.column_stack([t, h_of_T(t, d.lam0)]),
        ),
        (
            "p_curve.csv",
            "gain curve: x = ball radius (mixed-norm units), value = p (dimensionless)",
            "x,value",
            np.column_stack([r, p_of_R(r, agg)]),
        ),
    ]
    return payload, flags, files


def cmd_solve_cauchy(cfg: RunConfig):
    sys_ = _build_system(cfg, _build_model(cfg))
    x0 = _initial_state(cfg, sys_.n_modes)
    t_end = cfg.require("cauchy.t_end")
    dt = cfg.require("cauchy.dt")
    _keyed(cfg, ("cauchy.dt",), check_rk4_step, sys_, dt)
    traj = integrate_cauchy(sys_, x0, t_end, dt)
    monitors, growth = apriori_monitor(sys_, traj)

    payload = {
        "n_nodes": traj.n_nodes,
        "final_u": traj.u[-1],
        "final_w": traj.w[-1],
        "monitors": monitors,
    }
    flags = {"growth_doubling": growth}
    files = [_trajectory_file("trajectory.csv", traj)]
    return payload, flags, files


def _trajectory_file(name: str, record):
    """The CSV of any record with ``times``, ``u`` and ``w``: a trajectory or an orbit."""
    n = record.u.shape[1]
    header = ",".join(["t", *(f"u_{i}" for i in range(n)), *(f"w_{i}" for i in range(n))])
    rows = np.column_stack([record.times, record.u, record.w])
    comment = "t in rescaled time; u_i, w_i are modal coefficients of the two fields"
    return name, comment, header, rows


def _orbit_summary(orbit) -> dict:
    return {
        "n_iter": orbit.n_iter,
        "converged": orbit.converged,
        "n_t": len(orbit.times),
        "periodicity_residual": orbit.periodicity_residual,
        "ct_norm": orbit.ct_norm,
        "history": orbit.history,
        "coarse_history": orbit.coarse_history,
        "jacobian_cond": orbit.jacobian_cond,
    }


def cmd_solve_periodic(cfg: RunConfig, seed=None):
    method = cfg.get("solver.method", "picard")
    if seed is not None and method == "shooting":
        raise ConfigError("flag '--seed' is not used by solver.method = shooting", cfg.path)
    if seed is not None and seed < 0:
        raise ConfigError(f"flag '--seed' must be non-negative, got {seed}", cfg.path)
    radius = cfg.get("solver.radius", None)
    sys_ = _build_system(cfg, _build_model(cfg))
    tol = cfg.get("solver.tol", 1e-10)
    # the RK4 step of shooting and of Picard's periodicity check
    dt = cfg.get("solver.dt", sys_.period / 1024)
    # each method's keys are read before Picard runs and only where that method
    # runs, so a Picard report echoes no cap and the check below sees every read
    newton_cap = None if method == "picard" else cfg.get("solver.newton_max_iter", 25)
    grid = {}  # the node-grid keys of the methods that run
    if method != "shooting":
        n_t = grid["n_t"] = cfg.get("solver.n_t", 1024)
        theta = cfg.get("solver.theta", 1.0)
        max_iter = cfg.get("solver.max_iter", 200)
    if method != "picard":
        grid["dt"] = dt
    cfg.reject_unread("solver.", f"by solver.method = {method}")
    # the node rules of every method that runs, then the step's, before either solver runs
    n_steps = _keyed(cfg, [f"solver.{key}" for key in grid], orbit_nodes, sys_.period, **grid)
    _keyed(cfg, ("solver.dt",), check_rk4_step, sys_, dt)
    if n_steps is not None:  # shooting steps at exactly T/N, which may sit just past dt
        _keyed(cfg, ("solver.dt",), check_rk4_step, sys_, sys_.period / n_steps)
    _check_lam0(cfg, sys_.d)
    _keyed(cfg, _RECOVERY_KEYS, check_decay_rates, sys_.recovery_rate)  # may underflow to 0

    orbits = {}  # Picard's first, so it is the primary orbit when both run
    if method != "shooting":
        x0 = None
        if seed is not None:
            x0 = 0.01 * np.random.default_rng(seed).standard_normal((n_t, sys_.n_modes))
        orbits["picard"] = picard_solve(
            sys_, n_t, dt, x0=x0, theta=theta, tol=tol, max_iter=max_iter
        )
    if method != "picard":
        orbits["shooting"] = shooting_solve(sys_, dt=dt, tol=tol, max_iter=newton_cap)

    payload: dict = {name: _orbit_summary(orbit) for name, orbit in orbits.items()}
    if method == "both":
        payload["cross_method_gap"] = orbit_gap(*orbits.values(), sys_.basis)
    files = [
        _trajectory_file(name, orbit)
        for name, orbit in zip(("orbit.csv", "orbit_shooting.csv"), orbits.values())
    ]

    primary = next(iter(orbits.values()))
    flags = {"ball_member": None if radius is None else primary.ct_norm <= radius}
    return payload, flags, files


def cmd_converge(cfg: RunConfig):
    d = _build_model(cfg)
    m_list = cfg.require("converge.m_list")
    t_end = cfg.require("cauchy.t_end")
    dt = cfg.require("cauchy.dt")
    sys_ = _build_system(cfg, d, max(m_list))
    _keyed(cfg, ("cauchy.dt",), check_rk4_step, sys_, dt)
    gaps = refinement_gaps(sys_, m_list, t_end, dt)
    rows = [[coarse, fine, *gap] for coarse, fine, gap in zip(m_list, m_list[1:], gaps.tolist())]
    pairs = [dict(zip(("m_coarse", "m_fine", "u_diff", "w_diff"), row)) for row in rows]
    payload = {"pairs": pairs}
    flags = {"u_diff_nonincreasing": bool(np.all(np.diff(gaps[:, 0]) <= 0.0))}
    files = [
        (
            "convergence.csv",
            "space-time L2 gaps between consecutive truncation sizes",
            "m_coarse,m_fine,u_diff,w_diff",
            rows,
        )
    ]
    return payload, flags, files


def cmd_param_region(cfg: RunConfig):
    d = _build_model(cfg)
    emb = _build_embedding(cfg)
    a1_min = cfg.get("region.a1_min", 0.0)
    a1_max = cfg.require("region.a1_max")
    n_a1 = cfg.get("region.n_a1", 64)
    if a1_max <= a1_min:
        exc = ValueError("a1_min must be below a1_max")
        raise _keyed_error(cfg, ("region.a1_min", "region.a1_max"), exc)
    a2_max = cfg.get("region.a2_max", None)
    if a2_max is not None:
        n_a2 = cfg.get("region.n_a2", 64)
    cfg.reject_unread("region.", "without region.a2_max")
    if d.c4_override is not None:  # unpinned, lam0 follows the raster's a1, not a key
        _check_lam0(cfg, d)

    a1 = np.linspace(a1_min, a1_max, n_a1)
    # a1 >= 0 and a pinned lam0 are checked, so what is left is a zero drive, or an
    # unpinned lam0 that vanishes at a raster a1 or an a2 ceiling that overflows there,
    # both of which the a1 range sets
    keys = ("region.a1_min", "region.a1_max") if emb.delta(0.0) > 0.0 else _drive_keys(cfg)
    bound = _keyed(cfg, keys, a2_bound, a1, d, emb)
    files = [
        (
            "region.csv",
            "admissible-region boundary: largest quadratic coefficient per cubic one",
            "a1,a2_bound",
            np.column_stack([a1, bound]),
        )
    ]

    payload = {"bound_at_a1_max": float(bound[-1]), "raster": None}
    if a2_max is not None:
        a2 = np.linspace(0.0, a2_max, n_a2)
        admissible = a2[None, :] < bound[:, None]
        rows = np.column_stack([np.repeat(a1, n_a2), np.tile(a2, n_a1), admissible.ravel()])
        files.append(
            (
                "region_raster.csv",
                "membership raster over the (a1, a2) rectangle; admissible is 0 or 1",
                "a1,a2,admissible",
                rows,
            )
        )
        payload["raster"] = {"n_admissible": int(np.sum(admissible))}
    flags = {
        "boundary_monotone": bool(np.all(np.diff(bound) >= 0.0)),
        "interior_consistent": interior_consistent(a1, bound, d, emb),
    }
    return payload, flags, files


_COMMANDS = {
    "feasibility": cmd_feasibility,
    "solve-cauchy": cmd_solve_cauchy,
    "solve-periodic": cmd_solve_periodic,
    "converge": cmd_converge,
    "param-region": cmd_param_region,
}


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monorhythm",
        description="Periodic-rhythm solver suite for the spectral monodomain model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "feasibility": "evaluate the existence window and sample the h/p curves",
        "solve-cauchy": "integrate the modal initial-value problem",
        "solve-periodic": "find a periodic orbit by Picard iteration and/or shooting",
        "converge": "compare trajectories across truncation sizes",
        "param-region": "sweep the admissible (a1, a2) reaction-coefficient region",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", required=True, help="path to a run configuration")
        cmd.add_argument("--out", default=None, help="output directory (default: cwd)")
        cmd.add_argument(
            "--format",
            choices=SCHEMA["output.format"][1],
            default=None,
            help="which outputs to write (default: both)",
        )
        if name == "solve-periodic":
            cmd.add_argument(
                "--seed",
                type=int,
                default=None,
                help="draw a random Picard starting trajectory from this seed",
            )
    return parser


def _run(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    parse_s = time.perf_counter() - t0
    out_dir = args.out if args.out is not None else cfg.get("output.dir", ".")
    fmt = args.format if args.format is not None else cfg.get("output.format", "both")

    t1 = time.perf_counter()
    # only solve-periodic registers --seed
    seed = {"seed": args.seed} if "seed" in args else {}
    try:
        payload, flags, file_specs = _COMMANDS[args.command](cfg, **seed)
    except (NonConvergenceError, BlowUpError) as exc:
        # a partial report: what was asked, and how far the solver got
        if fmt in ("json", "both"):
            os.makedirs(out_dir, exist_ok=True)
            # the error's own fields: a solver's history, or a blow-up's time, magnitude and m
            report = {"command": args.command, "config": cfg.echo(), "error": str(exc)} | vars(exc)
            print(write_report(out_dir, report))
        raise
    solve_s = time.perf_counter() - t1

    os.makedirs(out_dir, exist_ok=True)
    written = []
    t2 = time.perf_counter()
    if fmt in ("csv", "both"):
        for name, comment, header, rows in file_specs:
            path = os.path.join(out_dir, name)
            write_csv(path, comment, header, rows)
            written.append(path)
    write_s = time.perf_counter() - t2
    report = {
        "command": args.command,
        "config": cfg.echo(),
        "payload": payload,
        "condition_flags": flags,
        "timings": {"parse_s": parse_s, "solve_s": solve_s, "write_s": write_s},
    }
    if fmt in ("json", "both"):
        written.append(write_report(out_dir, report))
    for path in written:
        print(path)
    return 0


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
