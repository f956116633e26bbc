"""Truncated ODE system for the monodomain model and its fixed-step integrator.

Truncating the weak form onto the first m+1 modes turns the PDE pair into
2m+2 coupled ODEs: each potential coefficient decays at its eigenvalue rate,
feels the projected reaction term, and is driven through the boundary trace;
each recovery coefficient relaxes linearly toward its potential partner.
The state is one vector x = (u, w) of length 2m + 2, potentials first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ionic import DerivedParameters, reaction
from .spectral import SpectralBasis, Stimulus, v_norm_sq

__all__ = [
    "BlowUpError",
    "GalerkinSystem",
    "Trajectory",
    "rhs",
    "check_rk4_step",
    "integrate_cauchy",
    "apriori_monitor",
    "refinement_gaps",
]

BLOWUP_THRESHOLD = 1e12
BLOWUP_CHECK_EVERY = 64  # steps per block of states the blow-up check scans
# the root of |1 - z + z^2/2 - z^3/6 + z^4/24| = 1: RK4 damps x' = -r x iff h r <= it
RK4_STABILITY_LIMIT = 2.7852935634


class BlowUpError(RuntimeError):
    """Raised when a coefficient of the truncation at size m escapes past the threshold."""

    def __init__(self, time: float, magnitude: float, m: int):
        super().__init__(
            f"solution blew up at t={time:.6g} (max coefficient {magnitude:.3e}) at m = {m}"
        )
        self.time = time
        self.magnitude = magnitude
        self.m = m


@dataclass(frozen=True)
class GalerkinSystem:
    """Basis, rescaled model and drive of the truncated system.

    Everything else is derived from these three on first use. The linear
    part is per mode: potential i decays at basis.lambdas[i], and
    recovery_gain (eps b) and recovery_rate (eps b xi c3) are the one copy
    of the recovery law dw/dt = recovery_gain u - recovery_rate w. Entry i
    of trace_vector pairs mode i with the stimulus density at the boundary,
    phi psi_i(L). ``stage_matrices``, built once from them, are the two
    constant operands of the RK4 stage (see :func:`_stage_kernel`); the
    stage's scratch belongs to each march, never to the shared system.
    """

    basis: SpectralBasis
    d: DerivedParameters
    stim: Stimulus

    @cached_property
    def trace_vector(self) -> np.ndarray:
        return self.stim.phi_value * self.basis.trace_values

    @cached_property
    def recovery_gain(self) -> float:
        return self.d.epsilon * self.d.b

    @cached_property
    def recovery_rate(self) -> float:
        return self.recovery_gain * self.d.xi * self.d.c3

    @cached_property
    def stage_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(psi^T, W): the nodal matrix and the back-projection of :func:`_stage_kernel`."""
        basis, n, n_quad = self.basis, self.n_modes, self.basis.n_quad
        weights = np.zeros((n_quad + 2 * n + 1, 2 * n))  # rows: f, then x, then s
        weights[:n_quad, :n] = -(basis.quad_weights[:, None] * basis.psi_quad)
        linear_t = weights[n_quad:-1]
        np.fill_diagonal(
            linear_t, np.concatenate([-basis.lambdas, np.full(n, -self.recovery_rate)])
        )
        linear_t[:n, n:] = self.recovery_gain * np.eye(n)  # L^T: the gain sits below L's diagonal
        weights[-1, :n] = self.trace_vector
        return np.ascontiguousarray(basis.psi_quad.T), weights

    @property
    def period(self) -> float:
        return self.stim.period

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def _stage_kernel(sys, shape, mask=None):
    """stage(s, x, rows, out=None): dx/dt of states x of ``shape`` (..., 2 n) under the drive s.

    One nodal product of the (u, w) rows, then one back-projection product
    dx = [f | x | s] W: the reaction f at the n_q nodes, the state and the
    drive value are written into one row buffer, and W stacks P = -w_q psi
    (the potential columns of the projection), L^T (the linear part built
    from the per-mode rates) and the trace vector tv, zero over the
    recovery half. ``rows`` is x viewed as (-1, n), each state's u row then
    its w row, so a stacked member keeps its own row axis and the bits of
    its lone run; ``out`` receives dx (a new array when None). ``s`` is a
    scalar, or a (k, 1) or (k, 1, 1) column for stacked states. A 0/1
    ``mask`` of shape (K, 2 n) multiplies the product, which zeroes the
    drive and projected reaction of ladder member k past its own size; its
    linear part there is already zero, as its state is.

    The nodal rows, the row buffer and its three slot views are allocated
    here, once; a call still allocates the reaction's two temporaries (its
    bracket and the coupling term) and, with ``out`` None, dx. Each march
    builds its own kernel (:func:`_march`); :func:`rhs` builds one per
    call.

    ``spectral.project_nonlinearity`` holds Picard's copy of the projection.
    Two copies measured faster than one: routing the stage through it moved
    the ``orbit`` benchmark's solve_norm 106.3 -> 120.4 and 109.4 -> 116.7
    (two seeds, 20 s runs), and Picard's 1024-row blocks ran about 1.3x
    slower per block at m = 32 through this stacked (u, w) layout. Both
    evaluate the one reaction formula of :func:`monorhythm.ionic.reaction`.
    """
    psi_t, weights = sys.stage_matrices
    n_quad = sys.basis.n_quad
    lead = shape[:-1]
    nodal = np.empty(lead + (2, n_quad))
    nodal_rows, u, w = nodal.reshape(-1, n_quad), nodal[..., 0, :], nodal[..., 1, :]
    buf = np.empty(lead + (len(weights),))
    f_slot, x_slot, s_slot = buf[..., :n_quad], buf[..., n_quad:-1], buf[..., -1:]
    f = reaction(sys.d)

    def stage(s, x, rows, out=None):
        np.matmul(rows, psi_t, out=nodal_rows)
        f(u, w, out=f_slot)
        x_slot[...] = x
        s_slot[...] = s
        dx = np.matmul(buf, weights, out=out)
        if mask is not None:
            dx *= mask
        return dx

    return stage


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled coefficient evolution, one row per node.

    Nodes are evenly spaced except possibly the final interval, which is
    shortened so the last node lands exactly on the requested end time.
    ``x`` has shape ``(n_nodes, 2 n_modes)``, or ``(n_nodes, k, 2 n_modes)``
    for k stacked states; ``u`` and ``w`` are views of the two halves of
    its last axis.
    """

    times: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must increase strictly")

    @property
    def u(self) -> np.ndarray:
        return self.x[..., : self.x.shape[-1] // 2]

    @property
    def w(self) -> np.ndarray:
        return self.x[..., self.x.shape[-1] // 2 :]

    @property
    def n_nodes(self) -> int:
        return len(self.times)


def rhs(sys: GalerkinSystem, t, x):
    """Time derivative of the state x = (u, w) at time t.

    Node-stacked states take a column of times: ``t`` of shape ``(k, 1)``
    against ``x`` of shape ``(k, 2 n_modes)``.
    """
    return _stage_kernel(sys, x.shape)(sys.stim(t), x, x.reshape(-1, sys.n_modes))


def check_rk4_step(sys: GalerkinSystem, dt: float) -> None:
    """Reject a dt that is not positive or past RK4's limit for the fastest linear rate.

    The error names T/N for the smallest step count N that passes the limit,
    printed to full precision, so the named value divides the period and
    serves shooting as well as Picard's check when pasted into the config.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    fastest = max(float(np.max(sys.basis.lambdas)), sys.recovery_rate)
    if dt * fastest > RK4_STABILITY_LIMIT:
        T = sys.period
        n = max(1, int(np.ceil(T * fastest / RK4_STABILITY_LIMIT)))
        while T / n * fastest > RK4_STABILITY_LIMIT:  # the ceiling can round one short
            n += 1
        raise ValueError(
            f"dt = {dt:.6g} times the fastest decay rate {fastest:.6g} is {dt * fastest:.4g},"
            f" past RK4's stability limit {RK4_STABILITY_LIMIT}; the largest stable dt"
            f" that divides the period is T/{n} = {T / n!r}"
        )


def _time_grid(t1: float, dt: float) -> np.ndarray:
    """Nodes 0, dt, 2 dt, ... up to t1, which is hit exactly by a shortened last step."""
    if t1 <= 0.0:
        raise ValueError(f"end time {t1} must exceed start time 0")
    n_full = int(np.floor(t1 / dt + 1e-12))
    short_last_step = t1 - n_full * dt > 1e-12 * max(t1, 1.0)
    times = np.empty(n_full + 1 + short_last_step)
    times[: n_full + 1] = dt * np.arange(n_full + 1)
    times[-1] = t1
    return times


def _march(sys, x, times, sizes, offsets=None, mask=None):
    """Classical RK4 of ``sys`` from the state x at times[0] through ``times``, block by block.

    The march copies x and advances the copy in place by textbook RK4
    steps, its stages driven at t, t + h/2 and t + h through one stage
    kernel of x's shape (:func:`_stage_kernel`, with the ``mask`` if given).
    That kernel, the stage input y, the (-1, n) row views of x and y and the
    four stage values are allocated once per march and belong to it alone,
    so marches of one system may interleave. Allocating them once took a
    lone 1024-step march at m = 8 from about 38 ms to 31 ms, and the M = 64,
    K = 5 ladder's from about 123 ms to 115 ms (2-vCPU VM). Yields
    ``(k, block)``, ``block[r]`` the state at ``times[k + r]``, in a buffer
    reused for each block of up to ``BLOWUP_CHECK_EVERY`` steps. x holds
    one member per entry of ``sizes``. Given ``offsets``, x is a stack
    (k, 1, 2 n) whose member j is driven at offsets[j] + t, so ``times`` are
    its local times. The first node at which a member passes the threshold
    raises :class:`BlowUpError` with that member's own time, its peak and
    its size, as a per-step check would.
    """
    # The drive at every stage time, sampled in one call: row k holds step
    # k's t, t + h/2 and t + h, built as the stages would build them.
    steps = np.diff(times)
    starts = times[:-1]
    stage_times = np.stack([starts, starts + 0.5 * steps, starts + steps], axis=1)
    if offsets is not None:  # one (members, 1, 1) column of drive values per stage
        stage_times = stage_times[..., None, None, None] + np.asarray(offsets)[:, None, None]
    drive = sys.stim(stage_times)
    del stage_times  # a generator keeps its locals until the march ends
    x = np.array(x, dtype=float)
    y = np.empty_like(x)
    k1, k2, k3, k4 = (np.empty_like(x) for _ in range(4))
    x_rows, y_rows = x.reshape(-1, sys.n_modes), y.reshape(-1, sys.n_modes)
    stage = _stage_kernel(sys, x.shape, mask)
    buffer = np.empty((BLOWUP_CHECK_EVERY,) + x.shape)
    for lo in range(0, len(steps), BLOWUP_CHECK_EVERY):
        block = buffer[: min(BLOWUP_CHECK_EVERY, len(steps) - lo)]
        # Python floats: NumPy scalars cost more per operation in the step
        hs = steps[lo : lo + len(block)].tolist()
        drives = drive[lo : lo + len(block)]
        if offsets is None:
            drives = drives.tolist()
        # a runaway overflows within a step; the check after its block reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for r, (h, (s0, s_half, s1)) in enumerate(zip(hs, drives)):
                stage(s0, x, x_rows, k1)
                np.multiply(k1, 0.5 * h, out=y)
                y += x
                stage(s_half, y, y_rows, k2)
                np.multiply(k2, 0.5 * h, out=y)
                y += x
                stage(s_half, y, y_rows, k3)
                np.multiply(k3, h, out=y)
                y += x
                stage(s1, y, y_rows, k4)
                # x + (h/6) (k1 + 2 k2 + 2 k3 + k4) in the textbook's association
                k2 *= 2.0
                k2 += k1
                k3 *= 2.0
                k2 += k3
                k2 += k4
                k2 *= h / 6.0
                np.add(k2, x, out=x)  # the sum k2 + x of the textbook order, stored in x
                block[r] = x
        peaks = np.max(np.abs(block.reshape(len(block), len(sizes), -1)), axis=-1)
        bad = np.argwhere(~(peaks <= BLOWUP_THRESHOLD))  # NaN compares false
        if bad.size:
            r, j = bad[0]
            t = float(times[lo + 1 + r]) + (0.0 if offsets is None else float(offsets[j]))
            raise BlowUpError(t, float(peaks[r, j]), sizes[j])
        yield lo + 1, block


def integrate_cauchy(
    sys: GalerkinSystem, x0: np.ndarray, t1: float, dt: float, t0: np.ndarray | None = None
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta from t = 0 to t1.

    The final time is hit exactly; when dt does not divide the interval the
    last step is shortened. ``x0`` is one state of shape ``(2 n_modes,)``,
    or a stack of k states of shape ``(k, 2 n_modes)`` that step together in
    one march; then ``x`` of the trajectory has shape (nodes, k, 2 n_modes).
    Each member steps on its own row axis, so the stage's back-projection is
    one vector-matrix product per member, as for a lone state: at m <= 12
    each member's rows equal its lone integration's bit for bit (tested),
    and past that they may differ in the last bit. Given ``t0`` (k,), member
    j is driven at t0[j] + t, so ``times`` are its local times. ``dt``
    passes :func:`check_rk4_step`, and the shapes theirs, before stepping.
    Blow-up is checked on each block of ``BLOWUP_CHECK_EVERY`` steps and
    reported at the first bad node, with the member's own time and the
    magnitude a per-step check would report.
    """
    check_rk4_step(sys, dt)
    times = _time_grid(t1, dt)
    x = np.array(x0, dtype=float)
    n = 2 * sys.n_modes
    if x.shape[-1:] != (n,) or x.ndim > 2 or not x.size:
        raise ValueError(
            f"initial state has shape {x.shape}, system expects ({n},) or a stack (k, {n})"
        )
    if t0 is not None and (x.ndim != 2 or np.shape(t0) != x.shape[:1]):
        raise ValueError(
            f"start times need shape (k,) beside a stack (k, {n}), got {np.shape(t0)} and {x.shape}"
        )

    stacked = x.ndim == 2
    members = x[:, None] if stacked else x  # each member on its own row axis
    hist = np.empty((len(times),) + members.shape)
    hist[0] = members
    sizes = (sys.basis.m,) * (len(x) if stacked else 1)
    for k, block in _march(sys, members, times, sizes, t0):
        hist[k : k + len(block)] = block
    return Trajectory(times=times, x=hist.reshape((len(times),) + x.shape))


def refinement_gaps(sys: GalerkinSystem, m_list, t1: float, dt: float) -> np.ndarray:
    """Space-time L2 (u, w) gaps between neighbouring sizes of ``m_list``, in one integration.

    Each distinct size m_k steps from zero as one member of one ladder
    state on the basis of ``sys`` (size M >= every m_k), zero-padded and
    masked past mode m_k, where it stays exactly zero. The midpoint rule on 2M + 1 nodes is
    exact for products of four modes up to M, so each member follows its
    own truncated system. ``dt`` is checked at M. The bases nest, so row k
    is the trapezoid in time of the squared coefficient gap between members
    k and k + 1, square-rooted; no trajectory is stored. The ladder steps
    as one (K, 2 n) product, not in :func:`integrate_cauchy`'s (K, 1, 2 n)
    member rows: its members differ in size, so no lone run's bits are owed,
    and the member-row layout made the ``refine`` benchmark's seed-7 ladder
    about 30% slower (0.30 -> 0.40 s).
    """
    check_rk4_step(sys, dt)
    sizes = tuple(int(m) for m in m_list)
    n = sys.n_modes
    if not all(0 <= m < n for m in sizes):
        raise ValueError(f"ladder sizes {sizes} must lie in 0..{sys.basis.m}")
    times = _time_grid(t1, dt)
    # equal sizes step as one member, so their gap is exactly zero: a batched
    # product can round a row differently by its place in the batch
    distinct, inverse = np.unique(sizes, return_inverse=True)
    mask = np.tile(np.arange(n) <= distinct[:, None], 2).astype(float)
    gaps_sq = np.zeros((len(times), len(sizes) - 1, 2))  # the zero start has no gap
    x = np.zeros((len(distinct), 2 * n))
    for k, block in _march(sys, x, times, distinct.tolist(), mask=mask):
        gap = np.diff(block[:, inverse], axis=1).reshape(len(block), len(sizes) - 1, 2, n)
        gaps_sq[k : k + len(block)] = np.sum(gap * gap, axis=-1)
    return np.sqrt(np.trapezoid(gaps_sq, x=times, axis=0))


def apriori_monitor(sys: GalerkinSystem, traj: Trajectory) -> tuple:
    """Boundedness monitors of a trajectory of ``sys``, by time quadrature.

    Returns ``(monitors, growth_flag)``. ``monitors`` maps

    sup_state_sq     peak over time of ||u||^2 + ||w||^2 (coefficient 2-norms)
    l2_v_u           L2-in-time norm of the V-norm of u
    l2_du, l2_dw     L2 norms of the time derivatives over the space-time box
    per_period_sup   sup_state_sq restricted to each complete period

    and ``growth_flag`` is True when any period's sup doubles the previous one.
    """
    state_sq = np.sum(traj.u**2, axis=1) + np.sum(traj.w**2, axis=1)
    v_sq = v_norm_sq(sys.basis, traj.u)

    dx = rhs(sys, traj.times[:, None], traj.x)
    n = sys.n_modes
    du_sq = np.sum(dx[:, :n] ** 2, axis=1)
    dw_sq = np.sum(dx[:, n:] ** 2, axis=1)

    T = sys.period
    n_periods = int(np.floor(traj.times[-1] / T + 1e-9))  # trajectories start at t = 0
    sups = []
    for p in range(n_periods):
        lo, hi = p * T, (p + 1) * T
        mask = (traj.times >= lo - 1e-12) & (traj.times <= hi + 1e-12)
        sups.append(float(np.max(state_sq[mask])))
    sups = np.asarray(sups)
    growth = bool(np.any(sups[1:] >= 2.0 * sups[:-1])) if len(sups) > 1 and sups.max() > 0 else False

    monitors = {
        "sup_state_sq": float(np.max(state_sq)),
        "l2_v_u": float(np.sqrt(np.trapezoid(v_sq, x=traj.times))),
        "l2_du": float(np.sqrt(np.trapezoid(du_sq, x=traj.times))),
        "l2_dw": float(np.sqrt(np.trapezoid(dw_sq, x=traj.times))),
        "per_period_sup": sups,
    }
    return monitors, growth
