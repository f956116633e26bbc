"""Truncated ODE system for the monodomain model and its fixed-step integrator.

Truncating the weak form onto the first m+1 modes turns the PDE pair into
2m+2 coupled ODEs: each potential coefficient decays at its eigenvalue rate,
feels the projected reaction term, and is driven through the boundary trace;
each recovery coefficient relaxes linearly toward its potential partner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ionic import DerivedParameters, RescalingParameters
from .spectral import SpectralBasis, Stimulus, project_nonlinearity

__all__ = [
    "BlowUpError",
    "GalerkinState",
    "GalerkinSystem",
    "Trajectory",
    "assemble_system",
    "rhs",
    "integrate_cauchy",
    "apriori_monitor",
    "MonitorReport",
    "l2_qi_difference",
]

BLOWUP_THRESHOLD = 1e12


class BlowUpError(RuntimeError):
    """Raised when a coefficient escapes past the blow-up threshold."""

    def __init__(self, time: float, magnitude: float):
        super().__init__(
            f"solution blew up at t={time:.6g} (max coefficient {magnitude:.3e})"
        )
        self.time = time
        self.magnitude = magnitude


@dataclass(frozen=True)
class GalerkinState:
    """Coefficient snapshot (u, w) at time t."""

    u: np.ndarray
    w: np.ndarray
    t: float


@dataclass(frozen=True)
class GalerkinSystem:
    """Basis, constants and drive of the truncated system.

    recovery_gain (eps b) and recovery_rate (eps b xi c3) are the one copy
    of the recovery law dw/dt = recovery_gain u - recovery_rate w.
    """

    basis: SpectralBasis
    d: DerivedParameters
    resc: RescalingParameters
    stim: Stimulus
    trace_vector: np.ndarray
    recovery_gain: float
    recovery_rate: float

    @property
    def period(self) -> float:
        return self.stim.period

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def assemble_system(basis, d, resc, stim) -> GalerkinSystem:
    """Bind basis, constants, and stimulus; precompute the linear coefficients.

    Entry i of the trace vector pairs mode i with the stimulus density at the
    boundary, phi psi_i(L).
    """
    gain = resc.epsilon * d.b
    return GalerkinSystem(
        basis=basis,
        d=d,
        resc=resc,
        stim=stim,
        trace_vector=stim.phi_value * basis.trace_values,
        recovery_gain=gain,
        recovery_rate=gain * resc.xi * d.c3,
    )


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled coefficient evolution, one row per node.

    Nodes are evenly spaced except possibly the final interval, which is
    shortened so the last node lands exactly on the requested end time. The
    generating system rides along so norm and derivative reports need no
    extra arguments. ``u`` and ``w`` have shape ``(n_nodes, n_modes)``.
    """

    times: np.ndarray
    u: np.ndarray
    w: np.ndarray
    sys: GalerkinSystem

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must increase strictly")

    @property
    def n_nodes(self) -> int:
        return len(self.times)


def rhs(sys: GalerkinSystem, t, u, w):
    """Time derivative of the coefficient pair at time t.

    Node-stacked states take a column of times: ``t`` of shape ``(n, 1)``
    against ``u`` and ``w`` of shape ``(n, n_modes)``.
    """
    return _driven_rhs(sys, sys.stim(t), u, w)


def _driven_rhs(sys, s_val, u, w):
    """Time derivative of the coefficient pair under the drive value s_val."""
    proj = project_nonlinearity(sys.basis, u, w, sys.d, sys.resc)
    du = -sys.basis.lambdas * u - proj + s_val * sys.trace_vector
    dw = sys.recovery_gain * u - sys.recovery_rate * w
    return du, dw


def _rk4_step(sys, drive, u, w, h):
    s0, s_half, s1 = drive
    k1u, k1w = _driven_rhs(sys, s0, u, w)
    k2u, k2w = _driven_rhs(sys, s_half, u + 0.5 * h * k1u, w + 0.5 * h * k1w)
    k3u, k3w = _driven_rhs(sys, s_half, u + 0.5 * h * k2u, w + 0.5 * h * k2w)
    k4u, k4w = _driven_rhs(sys, s1, u + h * k3u, w + h * k3w)
    u_next = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    w_next = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return u_next, w_next


def integrate_cauchy(sys: GalerkinSystem, state0: GalerkinState, t1: float, dt: float) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta from state0.t to t1.

    The final time is hit exactly; when dt does not divide the interval the
    last step is shortened. ``state0.u`` and ``state0.w`` each have shape
    ``(n_modes,)``. Raises :class:`BlowUpError` the moment any coefficient
    exceeds the threshold or stops being finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t0 = state0.t
    span = t1 - t0
    if span <= 0.0:
        raise ValueError(f"end time {t1} must exceed start time {t0}")

    n_full = int(np.floor(span / dt + 1e-12))
    remainder = span - n_full * dt
    if remainder <= 1e-12 * max(abs(t1), 1.0):
        remainder = 0.0
    n_nodes = n_full + 1 + (1 if remainder else 0)

    times = np.empty(n_nodes)
    times[: n_full + 1] = t0 + dt * np.arange(n_full + 1)
    times[-1] = t1

    u = np.array(state0.u, dtype=float)
    w = np.array(state0.w, dtype=float)
    if u.shape != (sys.n_modes,) or w.shape != (sys.n_modes,):
        raise ValueError(
            f"initial state has shapes {u.shape}/{w.shape}, system expects ({sys.n_modes},)"
        )
    u_hist = np.empty((n_nodes, sys.n_modes))
    w_hist = np.empty((n_nodes, sys.n_modes))
    u_hist[0], w_hist[0] = u, w

    # The drive at every stage time, sampled in one call: row k holds steps
    # k's t, t + h/2 and t + h, built as the stages would build them.
    steps = np.diff(times)
    starts = times[:-1]
    drive = sys.stim(np.stack([starts, starts + 0.5 * steps, starts + steps], axis=1))
    for k in range(1, n_nodes):
        u, w = _rk4_step(sys, drive[k - 1], u, w, steps[k - 1])
        peak = max(np.max(np.abs(u)), np.max(np.abs(w)))
        if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
            raise BlowUpError(time=float(times[k]), magnitude=float(peak))
        u_hist[k], w_hist[k] = u, w

    return Trajectory(times=times, u=u_hist, w=w_hist, sys=sys)


@dataclass(frozen=True)
class MonitorReport:
    """A priori size monitors of a trajectory.

    sup_state_sq     peak over time of ||u||^2 + ||w||^2 (coefficient 2-norms)
    l2_v_u           L2-in-time norm of the V-norm of u
    l2_du, l2_dw     L2 norms of the time derivatives over the space-time box
    per_period_sup   sup_state_sq restricted to each complete period
    growth_flag      True when any period's sup doubles the previous one
    """

    sup_state_sq: float
    l2_v_u: float
    l2_du: float
    l2_dw: float
    per_period_sup: np.ndarray
    growth_flag: bool


def apriori_monitor(traj: Trajectory) -> MonitorReport:
    """Evaluate boundedness monitors along a trajectory, by time quadrature."""
    sys = traj.sys
    state_sq = np.sum(traj.u**2, axis=1) + np.sum(traj.w**2, axis=1)
    v_sq = np.sum(sys.basis.lambdas * traj.u**2, axis=1)

    du, dw = rhs(sys, traj.times[:, None], traj.u, traj.w)
    du_sq = np.sum(du**2, axis=1)
    dw_sq = np.sum(dw**2, axis=1)

    l2_v_u = float(np.sqrt(np.trapezoid(v_sq, x=traj.times)))
    l2_du = float(np.sqrt(np.trapezoid(du_sq, x=traj.times)))
    l2_dw = float(np.sqrt(np.trapezoid(dw_sq, x=traj.times)))

    T = sys.period
    span = traj.times[-1] - traj.times[0]
    n_periods = int(np.floor(span / T + 1e-9))
    sups = []
    for p in range(n_periods):
        lo, hi = traj.times[0] + p * T, traj.times[0] + (p + 1) * T
        mask = (traj.times >= lo - 1e-12) & (traj.times <= hi + 1e-12)
        sups.append(float(np.max(state_sq[mask])))
    sups = np.asarray(sups)
    growth = bool(np.any(sups[1:] >= 2.0 * sups[:-1])) if len(sups) > 1 and sups.max() > 0 else False

    return MonitorReport(
        sup_state_sq=float(np.max(state_sq)),
        l2_v_u=l2_v_u,
        l2_du=l2_du,
        l2_dw=l2_dw,
        per_period_sup=sups,
        growth_flag=growth,
    )


def l2_qi_difference(fine: Trajectory, coarse: Trajectory):
    """Space-time L2 distance between two runs of different truncation size.

    The bases nest, so the coarse coefficients are zero-padded to the fine
    width and the spatial L2 distance at each node is the Euclidean gap;
    time integration is trapezoidal. Requires identical time grids.
    """
    if fine.n_nodes != coarse.n_nodes or not np.allclose(
        fine.times, coarse.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectories must share one time grid")
    n_fine = fine.u.shape[1]
    n_coarse = coarse.u.shape[1]
    if n_coarse > n_fine:
        raise ValueError("first argument must be the finer truncation")

    pad_u = np.zeros_like(fine.u)
    pad_w = np.zeros_like(fine.w)
    pad_u[:, :n_coarse] = coarse.u
    pad_w[:, :n_coarse] = coarse.w
    du_sq = np.sum((fine.u - pad_u) ** 2, axis=1)
    dw_sq = np.sum((fine.w - pad_w) ** 2, axis=1)
    diff_u = float(np.sqrt(np.trapezoid(du_sq, x=fine.times)))
    diff_w = float(np.sqrt(np.trapezoid(dw_sq, x=fine.times)))
    return diff_u, diff_w
