"""Batch front end: run configurations in, machine-readable results out.

Five subcommands cover the suite: ``feasibility`` evaluates the existence
window and samples the load/gain curves, ``solve-cauchy`` integrates the
modal initial-value problem with a priori monitors, ``solve-periodic``
finds a periodic orbit by Picard iteration and/or shooting and optionally
certifies a trapping ball, ``converge`` measures truncation refinement on
a shared time grid, and ``param-region`` rasterizes the admissible
reaction-coefficient region.

Every run writes a JSON report (configuration echo, payload, condition
flags, timings) and CSV data files. Every CSV cell is printed with
``%.17g``, so floats round-trip and integer columns print bare, and
identical configurations reproduce identical bytes apart from timings.
Exit codes: 0 success, 2 configuration error (including a stimulus key its
kind does not use, a solver key the chosen method does not read, and a
decay rate lambda_0 <= 0, which both orbit solvers reject), 3 solver
non-convergence, 4 trajectory blow-up. A run that exits 3 or 4 still
writes a partial report: the command, the configuration echo, the error
message, and the failed solver's history or the blow-up's time, magnitude
and truncation size m.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .feasibility import (
    AggregateConstants,
    EmbeddingConstants,
    a2_bound,
    aggregate_from_raw,
    emit_curves,
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
    apriori_monitor,
    assemble_system,
    integrate_cauchy,
    refinement_gaps,
)
from .ionic import (
    PhysiologicalParameters,
    RescalingParameters,
    derive_parameters,
    rescale_period,
)
from .periodic import (
    NonConvergenceError,
    certify_ball,
    check_node_floor,
    node_stride,
    orbit_gap,
    picard_solve,
    shooting_nodes,
    shooting_solve,
)
from .spectral import Geometry1D, Stimulus, build_basis

_DIRECT_AGGREGATE_KEYS = (
    "feasibility.kappa",
    "feasibility.beta",
    "feasibility.gamma",
    "feasibility.delta",
)

# the waveform fields each stimulus kind reads; setting any other is an error
_STIMULUS_SHAPE_FIELDS = {
    "constant": (),
    "sinusoid": ("offset",),
    "pulse": ("center", "width", "offset"),
}

# the keys only one orbit solver reads; setting one the chosen method skips is an error
_METHOD_KEYS = {
    "picard": ("solver.n_t", "solver.theta", "solver.max_iter"),
    "shooting": ("solver.newton_max_iter",),
}
_METHOD_KEYS["both"] = _METHOD_KEYS["picard"] + _METHOD_KEYS["shooting"]

# cells the CSV writer formats at once. Peak memory grows with it: a block
# holds a few 25-byte rows per cell, and 2^16 cells of text added about
# 3 MB to an orbit run.
_BLOCK_CELLS = 1 << 13

# The array formatter's cell: a sign column ("-" or a zero byte), at most 23
# bytes of text ("d.dddddddddddddddde-XXX") and the separator. Zero bytes
# mark what is not printed.
_CELL_WIDTH = 25
# magnitudes the array formatter takes; the rest go through "%" one at a time
_MAGNITUDES = (1e-280, 1e280)
# decimal exponents with a tabled power of ten: the range above, plus one
# either side for log10's correction, plus slack
_DECADE_LIMIT = 284
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of a double into 26-bit halves


def _json_default(obj):
    """Plain-Python form of the NumPy values and result records a payload carries."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@functools.cache
def _format_tables():
    """The array formatter's tables, built on first use.

    For each decimal exponent k in ``[-_DECADE_LIMIT, _DECADE_LIMIT]``:
    10^(16 - k) as an unevaluated sum of two doubles, and Dekker's split of
    the first. For each 4-digit chunk 0..9999: its ASCII digits as one
    4-byte item, and its trailing zeros. For each count s of printed
    digits: the mask of a row of five chunks that keeps bytes 3..3+s.
    """
    powers = []
    for k in range(-_DECADE_LIMIT, _DECADE_LIMIT + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        head = num / den  # int true division rounds correctly
        head_num, head_den = head.as_integer_ratio()
        powers.append((head, (num * head_den - head_num * den) / (den * head_den)))
    head, tail = np.array(powers).T
    split = _SPLITTER * head
    head_top = split - (split - head)
    chunk = np.arange(10_000)
    text = np.stack([(48 + chunk // 10**p % 10).astype(np.uint8) for p in (3, 2, 1, 0)], axis=1)
    zeros = np.sum([chunk % 10**p == 0 for p in (1, 2, 3, 4)], axis=0)
    keep = np.arange(20) < 3 + np.arange(18)[:, None]
    keep[:, :3] = False
    return (
        (head, tail, head_top, head - head_top),
        text.view(np.uint32)[:, 0],
        zeros,
        np.where(keep, 255, 0).astype(np.uint8).view(np.uint32),
    )


def _scaled(magnitude: np.ndarray, k: np.ndarray):
    """floor(m 10^(16 - k)) and the fraction left over, per magnitude m.

    The product against the two-double power is Dekker's: exact when the
    power is one double (0 <= 16 - k <= 22), else within about 1e-14.
    """
    index = k + _DECADE_LIMIT
    head, tail, head_top, head_bottom = (table[index] for table in _format_tables()[0])
    product = magnitude * head
    split = _SPLITTER * magnitude
    top = split - (split - magnitude)
    bottom = magnitude - top
    error = (top * head_top - product) + top * head_bottom + bottom * head_top
    error += bottom * head_bottom
    whole = np.floor(product)
    rest = (product - whole) + (error + magnitude * tail)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _decimal_digits(magnitude: np.ndarray):
    """The 17 significant digits of each magnitude, rounded half to even.

    Returns the digits as an integer in [10^16, 10^17), the decimal
    exponent, and the indices of near ties: values whose product was
    inexact and lies within 1e-9 of a rounding or decade boundary, which
    only an exact formatter can settle.
    """
    k = np.floor(np.log10(magnitude)).astype(np.int64)
    digits, fraction = _scaled(magnitude, k)
    # log10 can land on the wrong side of a power of ten
    shift = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    wrong = np.flatnonzero(shift)
    if wrong.size:
        k[wrong] += shift[wrong]
        digits[wrong], fraction[wrong] = _scaled(magnitude[wrong], k[wrong])
    inexact = np.flatnonzero((k < -6) | (k > 16))
    f, d = fraction[inexact], digits[inexact]
    near_ties = inexact[
        (np.abs(f - 0.5) < 1e-9) | (d == 10**16) & (f < 1e-9) | (d == 10**17 - 1) & (f > 1 - 1e-9)
    ]
    digits += (fraction > 0.5) | (fraction == 0.5) & (digits % 2 == 1)
    top = digits == 10**17
    digits[top] = 10**16
    k[top] += 1
    return digits, k, near_ties


def _layout(values: np.ndarray):
    """The ``%.17g`` text of values in ``_MAGNITUDES``, one row each.

    Row i of the ``(len(values), _CELL_WIDTH)`` byte array holds the text
    of value i with zero bytes where nothing is printed: the sign column
    of a positive value, stripped trailing zeros, the pad, and the last
    column, left for the separator. Neighbouring values of one decimal
    exponent form a run, laid out with slice copies (fixed notation for
    exponents -4..16, else scientific), so sorted values make few runs.
    Also returns the near ties.
    """
    n, exponent, near_ties = _decimal_digits(np.abs(values))
    _, chunk_text, chunk_zeros, keep = _format_tables()
    high, low = np.divmod(n, 10**8)
    high, low = high.astype(np.int32), low.astype(np.int32)
    c1, c2, c3, c4 = high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4
    zeros = chunk_zeros[c4] + (c4 == 0) * (
        chunk_zeros[c3] + (c3 == 0) * (chunk_zeros[c2] + (c2 == 0) * chunk_zeros[c1])
    )
    scientific = (exponent < -4) | (exponent > 16)
    # digits left of the point, all printed in fixed notation (none below 1)
    whole = np.where(scientific, 1, exponent + 1)
    shown = np.maximum(17 - zeros, whole)
    # five chunks, the first "000d": the digits to print start at byte 3
    chunks = chunk_text[np.stack([high // 10**8, c1, c2, c3, c4], axis=1)]
    digits = (chunks & keep[shown]).view(np.uint8)[:, 3:]
    point = np.where(shown > whole, ord("."), 0).astype(np.uint8)
    text = np.zeros((len(n), _CELL_WIDTH), np.uint8)
    text[values < 0.0, 0] = ord("-")
    starts = np.flatnonzero(np.diff(exponent, prepend=exponent[0] - 1))
    for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(n)]):
        rows, x = slice(start, stop), int(exponent[start])
        if -4 <= x < 0:
            text[rows, 1 : 2 - x] = np.frombuffer(b"0.000", np.uint8)[: 1 - x]
            text[rows, 2 - x : 19 - x] = digits[rows]
            continue
        lead = 1 if scientific[start] else x + 1
        text[rows, 1 : 1 + lead] = digits[rows, :lead]
        text[rows, 1 + lead] = point[rows]
        text[rows, 2 + lead : 19] = digits[rows, lead:]
        if scientific[start]:
            suffix = b"e%+03d" % x
            text[rows, -1 - len(suffix) : -1] = np.frombuffer(suffix, np.uint8)
    return text, near_ties


def _format_block(block: np.ndarray) -> bytes:
    """The CSV bytes of a block of rows, every cell printed with ``%.17g``.

    The block is deduplicated on its int64 bit view, so ``-0.0`` and
    ``0.0`` and every NaN/inf pattern stay apart, and its distinct values
    are formatted as arrays by ``_layout``. Zeros, NaN, infinities,
    magnitudes outside ``_MAGNITUDES`` and near ties go through ``%`` one
    value at a time.
    """
    bits, inverse = np.unique(block.ravel().view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    magnitude = np.abs(values)
    regular = (magnitude >= _MAGNITUDES[0]) & (magnitude <= _MAGNITUDES[1])
    text, near_ties = _layout(np.where(regular, values, 1.0))
    for i in [*np.flatnonzero(~regular).tolist(), *near_ties.tolist()]:
        cell = ("%.17g" % values[i]).encode()
        text[i] = 0
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    cells = text[inverse]
    cells[:, -1] = ord(",")
    cells[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    return cells[cells != 0].tobytes()


def _write_csv(path: str, comment: str, header: str, rows) -> None:
    """Write a comment line, a header line and the rows, ``%.17g`` per cell.

    The bytes are those NumPy's text writer prints with format ``%.17g``
    and delimiter ``,``. ``_format_block`` formats the rows in blocks of
    about ``_BLOCK_CELLS`` cells and each block's bytes are written at
    once, so only one block's text is held.
    """
    data = np.asarray(rows, dtype=float)
    n_rows, n_cols = data.shape
    step = max(1, _BLOCK_CELLS // n_cols)
    with open(path, "wb") as handle:
        handle.write(f"# {comment}\n{header}\n".encode())
        for start in range(0, n_rows, step):
            handle.write(_format_block(data[start : start + step]))


def _build_model(cfg: RunConfig):
    phys = PhysiologicalParameters(
        u_res=cfg.require("model.u_res"),
        u_peak=cfg.require("model.u_peak"),
        a=cfg.require("model.a"),
        c1=cfg.require("model.c1"),
        c2=cfg.require("model.c2"),
        c3=cfg.require("model.c3"),
        b=cfg.require("model.b"),
        C_m=cfg.get("model.C_m", 1.0),
        chi=cfg.get("model.chi", 1.0),
        sigma_const=cfg.get("model.sigma", 1.0),
    )
    resc = RescalingParameters(
        epsilon=cfg.require("rescale.epsilon"), xi=cfg.require("rescale.xi")
    )
    return derive_parameters(phys, resc, c4_override=cfg.get("derived.c4_override", None))


def _reject_unread(cfg: RunConfig, selector: str, choice: str, unread) -> None:
    """Raise if any key of ``unread``, which ``selector = choice`` does not read, is set."""
    for key in unread:
        if cfg.has(key):
            raise ConfigError(f"key '{key}' is not used by {selector} = {choice}", cfg.path)


def _build_stimulus(cfg: RunConfig, d):
    key, value = cfg.require_exactly_one("stimulus.period", "stimulus.period_raw")
    period = rescale_period(value, d) if key == "stimulus.period_raw" else value
    # echo the resolved period only, so the echo re-parses cleanly
    cfg.consumed.pop("stimulus.period_raw", None)
    cfg.consumed["stimulus.period"] = period

    kind = cfg.require("stimulus.kind")
    phi = cfg.require("stimulus.phi")
    amplitude = cfg.require("stimulus.amplitude")
    shape = _STIMULUS_SHAPE_FIELDS[kind]
    unread = [f"stimulus.{name}" for name in ("offset", "center", "width") if name not in shape]
    _reject_unread(cfg, "stimulus.kind", kind, unread)
    # an unset field takes the Stimulus dataclass default
    fields = {name: cfg.get(f"stimulus.{name}", getattr(Stimulus, name)) for name in shape}
    return Stimulus(kind, period, phi, amplitude, **fields)


def _build_system(cfg: RunConfig, d, m: int | None = None):
    """The truncated system at size ``m``, by default ``solver.m``."""
    geom = Geometry1D(cfg.require("geometry.length"))
    basis = build_basis(geom, cfg.require("solver.m") if m is None else m, d)
    stim = _build_stimulus(cfg, d)
    return assemble_system(basis, d, stim)


def _build_embedding(cfg: RunConfig) -> EmbeddingConstants:
    key, value = cfg.require_exactly_one("feasibility.kappa", "feasibility.projection_excess")
    return EmbeddingConstants(
        kappa=value if key == "feasibility.kappa" else projection_kappa(value),
        k1=cfg.require("feasibility.k1"),
        trace_norm=cfg.require("feasibility.trace_norm"),
        domain_measure=cfg.require("feasibility.domain_measure"),
        s_sup=cfg.require("feasibility.s_sup"),
        phi_norm=cfg.require("feasibility.phi_norm"),
    )


def _build_aggregates(cfg: RunConfig, d) -> AggregateConstants:
    if any(cfg.has(key) for key in _DIRECT_AGGREGATE_KEYS):
        kappa, beta, gamma, delta = (cfg.require(key) for key in _DIRECT_AGGREGATE_KEYS)
        return AggregateConstants(kappa=kappa, beta=beta, gamma=gamma, delta=delta)
    return aggregate_from_raw(d, _build_embedding(cfg), cfg.require("feasibility.k2"))


def _initial_state(cfg: RunConfig, n_modes: int) -> np.ndarray:
    u0 = np.asarray(cfg.get("ic.u", (0.0,) * n_modes), dtype=float)
    w0 = np.asarray(cfg.get("ic.w", (0.0,) * n_modes), dtype=float)
    for name, arr in (("ic.u", u0), ("ic.w", w0)):
        if arr.shape != (n_modes,):
            raise ConfigError(
                f"key '{name}' must list {n_modes} coefficients, got {arr.size}",
                cfg.path,
            )
    return np.concatenate([u0, w0])


def cmd_feasibility(cfg: RunConfig):
    d = _build_model(cfg)
    agg = _build_aggregates(cfg, d)
    # h_of_T rejects a nonpositive decay rate before the t_max default divides by it
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
    h_curve, p_curve = emit_curves(agg, d.lam0, t_max, r_max, n_samples)

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
            h_curve,
        ),
        (
            "p_curve.csv",
            "gain curve: x = ball radius (mixed-norm units), value = p (dimensionless)",
            "x,value",
            p_curve,
        ),
    ]
    return payload, flags, files


def cmd_solve_cauchy(cfg: RunConfig):
    sys_ = _build_system(cfg, _build_model(cfg))
    x0 = _initial_state(cfg, sys_.n_modes)
    t_end = cfg.require("cauchy.t_end")
    dt = cfg.require("cauchy.dt")
    traj = integrate_cauchy(sys_, x0, t_end, dt)
    monitor = apriori_monitor(traj)

    payload = {
        "n_nodes": traj.n_nodes,
        "t_end": float(traj.times[-1]),
        "dt": dt,
        "final_u": traj.u[-1],
        "final_w": traj.w[-1],
        "monitors": {
            "sup_state_sq": monitor.sup_state_sq,
            "l2_v_u": monitor.l2_v_u,
            "l2_du": monitor.l2_du,
            "l2_dw": monitor.l2_dw,
            "per_period_sup": monitor.per_period_sup,
        },
    }
    flags = {"growth_doubling": monitor.growth_flag}
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
        "method": orbit.method,
        "n_iter": orbit.n_iter,
        "converged": orbit.converged,
        "n_t": len(orbit.times),
        "periodicity_residual": orbit.periodicity_residual,
        "ct_norm": orbit.ct_norm,
        "operator_residual": orbit.operator_residual,
        "history": orbit.history,
        "jacobian_cond": orbit.jacobian_cond,
    }


def cmd_solve_periodic(cfg: RunConfig, seed=None):
    method = cfg.get("solver.method", "picard")
    unread = [key for key in _METHOD_KEYS["both"] if key not in _METHOD_KEYS[method]]
    _reject_unread(cfg, "solver.method", method, unread)
    sys_ = _build_system(cfg, _build_model(cfg))
    tol = cfg.get("solver.tol", 1e-10)
    # the RK4 step of shooting and of Picard's periodicity check
    dt = cfg.get("solver.dt", sys_.period / 1024)

    orbits = {}  # Picard's first, so it is the primary orbit when both run
    if method in ("picard", "both"):
        n_t = cfg.get("solver.n_t", 1024)
        if method == "both":
            # the cross-method gap compares the two orbits on the coarser node
            # set, so both counts are checked, each against the floor first
            try:
                check_node_floor(n_t)
                node_stride(n_t, shooting_nodes(sys_.period, dt))
            except ValueError as exc:
                prefix = f"solver.n_t = {n_t}, solver.dt = {dt!r}"
                raise ConfigError(f"{prefix}: {exc}", cfg.path) from None
        x0 = None
        if seed is not None:
            x0 = 0.01 * np.random.default_rng(seed).standard_normal((n_t, sys_.n_modes))
        orbits["picard"] = picard_solve(
            sys_,
            n_t,
            dt,
            x0=x0,
            theta=cfg.get("solver.theta", 1.0),
            tol=tol,
            max_iter=cfg.get("solver.max_iter", 200),
        )
    if method in ("shooting", "both"):
        orbits["shooting"] = shooting_solve(
            sys_,
            dt=dt,
            tol=tol,
            max_iter=cfg.get("solver.newton_max_iter", 25),
        )

    payload: dict = {name: _orbit_summary(orbit) for name, orbit in orbits.items()}
    if method == "both":
        payload["cross_method_gap"] = orbit_gap(*orbits.values(), sys_.basis)
    files = [
        _trajectory_file(name, orbit)
        for name, orbit in zip(("orbit.csv", "orbit_shooting.csv"), orbits.values())
    ]

    flags: dict = {}
    radius = cfg.get("solver.radius", None)
    if radius is None:
        payload["ball_certificate"] = "skipped: no solver.radius configured"
        flags["ball_member"] = None
    else:
        cert = certify_ball(next(iter(orbits.values())), radius, sys_.basis)
        payload["ball_certificate"] = cert
        flags["ball_member"] = cert.member
    return payload, flags, files


def cmd_converge(cfg: RunConfig):
    d = _build_model(cfg)
    m_list = cfg.require("converge.m_list")
    if len(m_list) < 2:
        raise ConfigError("converge.m_list needs at least two entries", cfg.path)
    if any(b < a for a, b in zip(m_list, m_list[1:])):
        raise ConfigError("converge.m_list must be nondecreasing", cfg.path)
    t_end = cfg.require("cauchy.t_end")
    dt = cfg.require("cauchy.dt")
    sys_ = _build_system(cfg, d, max(m_list))
    gaps = refinement_gaps(sys_, m_list, t_end, dt)
    rows = [[coarse, fine, *gap] for coarse, fine, gap in zip(m_list, m_list[1:], gaps.tolist())]
    pairs = [dict(zip(("m_coarse", "m_fine", "u_diff", "w_diff"), row)) for row in rows]
    payload = {"pairs": pairs, "t_end": t_end, "dt": dt}
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
    if a1_min < 0.0 or a1_max <= a1_min:
        raise ConfigError(
            f"need 0 <= region.a1_min < region.a1_max, got [{a1_min}, {a1_max}]",
            cfg.path,
        )
    if n_a1 < 2:
        raise ConfigError("region.n_a1 must be at least 2", cfg.path)

    a1 = np.linspace(a1_min, a1_max, n_a1)
    bound = a2_bound(a1, d, emb)
    files = [
        (
            "region.csv",
            "admissible-region boundary: largest quadratic coefficient per cubic one",
            "a1,a2_bound",
            np.column_stack([a1, bound]),
        )
    ]

    raster_counts = None
    a2_max = cfg.get("region.a2_max", None)
    if a2_max is not None:
        n_a2 = cfg.get("region.n_a2", 64)
        if a2_max <= 0.0 or n_a2 < 2:
            raise ConfigError(
                "raster needs positive region.a2_max and region.n_a2 >= 2", cfg.path
            )
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
        raster_counts = {
            "n_admissible": int(np.sum(admissible)),
            "n_total": int(admissible.size),
        }

    payload = {
        "a1_min": a1_min,
        "a1_max": a1_max,
        "n_a1": n_a1,
        "bound_at_a1_max": float(bound[-1]),
        "raster": raster_counts,
    }
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
            choices=("csv", "json", "both"),
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


def _write_report(out_dir: str, report: dict) -> str:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=2, default=_json_default)
        handle.write("\n")
    return path


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
            print(_write_report(out_dir, report))
        raise
    solve_s = time.perf_counter() - t1

    os.makedirs(out_dir, exist_ok=True)
    written = []
    t2 = time.perf_counter()
    if fmt in ("csv", "both"):
        for name, comment, header, rows in file_specs:
            path = os.path.join(out_dir, name)
            _write_csv(path, comment, header, rows)
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
        written.append(_write_report(out_dir, report))
    for path in written:
        print(path)
    return 0


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(
            f"trajectory blew up at t = {exc.time:.6g} (magnitude {exc.magnitude:.3e})"
            f" at truncation m = {exc.m}",
            file=sys.stderr,
        )
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
