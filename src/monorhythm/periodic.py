"""The exact periodic response, the Farkas fixed-point operator, and two solvers.

A stable scalar mode x' = -lam x + F(t) with T-periodic forcing has exactly
one T-periodic response. In time-Fourier space it is diagonal: harmonic k of
the response is F_k / (lam + 2 pi i k / T), so this transfer function gives
the response exactly at every harmonic a uniform grid resolves. Stacking
those responses over all modes gives an operator on periodic coefficient
trajectories whose fixed points are periodic solutions of the truncated
system. Picard iteration attacks that operator directly. The recovery
response is linear in the potential, so Picard iterates the operator as a
map of the potential samples alone and accelerates the iteration with
Anderson mixing over its last two residuals. It converges first on a coarse
time grid, the largest power-of-two divisor of n_t between 256 and n_t / 8
when the reaction is on, and finishes on the configured n_t nodes from that
fixed point's trigonometric interpolant, usually in one application; its
``history`` is the n_t-node loop's residuals, ``coarse_history`` the coarse
grid's, and ``n_iter`` counts the applications on both grids before the
last. A coarse loop that fails fails the solve, with no application on the
n_t nodes. Shooting attacks the period map of the RK4 flow with the same
idea written on the map, by multiple shooting: the N steps of the period
split into K segments whose start states march together in one stacked
integration. It starts from the
linear part's own periodic response to the drive at the segment starts,
which the transfer function gives without integrating, and each segment's
Jacobian starts as R^(N/K), where R is the RK4 step matrix of the linear
part; Broyden updates then correct each one for the reaction. The start
ignores the reaction and never reads Picard's orbit. Both return the same
orbits, which is the point: they fail independently. Picard closes its orbit
by one RK4 integration of its start state over the period, which gives its
periodicity residual; shooting's orbit is its accepted segment march, whose
largest segment defect is its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galerkin import GalerkinSystem, check_rk4_step, integrate_cauchy
from .ionic import check_decay_rates
from .spectral import project_nonlinearity, v_norm_sq

__all__ = [
    "NonConvergenceError",
    "PeriodicOrbit",
    "farkas_apply",
    "picard_solve",
    "shooting_solve",
    "orbit_gap",
    "orbit_nodes",
    "ct_norm",
]


class NonConvergenceError(RuntimeError):
    """An iterative solver failed; carries whatever history it accumulated,
    and Picard's coarse-grid record, as on :class:`PeriodicOrbit`."""

    def __init__(self, message: str, history=None, coarse_history=()):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.coarse_history = list(coarse_history)


@dataclass(frozen=True)
class PeriodicOrbit:
    """A candidate periodic trajectory with its quality measurements attached.

    ``times`` are the nodes k T / n_t of one period, k = 0..n_t - 1.
    ``periodicity_residual`` is Picard's |x(T) - x(0)| / max(1, |x(0)|) for
    an RK4 integration of the returned start state x(0) over one period, or
    shooting's largest segment defect max_k |c_k| / max(1, |x_0|) over the
    march whose rows it returns.
    ``history`` is the solver's convergence record: Picard's residual per
    operator application, or the norm of shooting's stacked segment defect
    at the starting guess and after each step; its last entry is the
    returned orbit's own. ``coarse_history`` is Picard's record on its
    coarse grid, the same residuals for the loop that gave the n_t-node loop
    its start, and empty when no coarse loop ran, as for shooting.
    ``n_iter`` counts the entries of both before that last one.
    A solver that does not converge raises, so every returned orbit has
    ``converged`` set. ``jacobian_cond`` is the 2-norm condition number of
    the product of shooting's final Broyden segment blocks minus I, its
    estimate of the period map's Jacobian minus I; Picard has none.
    """

    times: np.ndarray
    u: np.ndarray
    w: np.ndarray
    periodicity_residual: float
    ct_norm: float
    converged: bool
    history: tuple[float, ...]
    jacobian_cond: float | None = None
    coarse_history: tuple[float, ...] = ()

    @property
    def n_iter(self) -> int:
        """Picard's applications, on either grid, before the one that met tol on
        the n_t nodes, or shooting's steps."""
        return len(self.coarse_history) + len(self.history) - 1


_DEPTH = 2  # residual differences Picard's Anderson mixing keeps
_DIVERGENCE = 100.0  # residual growth over the smallest so far that counts as divergence
_ROW_BLOCK = 1024  # time rows the potential block projects the reaction in at once
_MIN_NODES = 64  # the fewest nodes per period of an orbit from either solver
_MIN_COARSE = 256  # the fewest nodes of Picard's coarse grid
_COARSE_SHARE = 8  # Picard's coarse grid has at most n_t / _COARSE_SHARE nodes
_MAX_SEGMENTS = 16  # shooting's most segments; each adds a state to every march
_MIN_SEGMENT_STEPS = 64  # shooting's fewest RK4 steps per segment


def _check_rates(sys: GalerkinSystem) -> None:
    """Raise unless every decay rate of the linear part, the recovery rate and
    each mode's eigenvalue, is positive: otherwise the linear part has no
    unique periodic response, and neither solver has a unique orbit to find."""
    check_decay_rates(np.concatenate([[sys.recovery_rate], sys.basis.lambdas]))


def _periodic_response(rates, T: float, forcing: np.ndarray) -> np.ndarray:
    """Node values of the T-periodic response of x' = -rate x + F per column.

    Harmonic k of column j is F_k / (rate_j + 2 pi i k / T) at every frequency
    the real FFT of the samples keeps; the solvers have checked that every
    rate is positive (:func:`_check_rates`). The response overwrites
    ``forcing``, which callers pass as a temporary.
    """
    n_t = forcing.shape[0]
    symbol = 2j * np.pi * np.fft.rfftfreq(n_t, T / n_t)[:, None] + rates
    f_hat = np.fft.rfft(forcing, axis=0)
    f_hat *= np.divide(1.0, symbol, out=symbol)
    return np.fft.irfft(f_hat, n=n_t, axis=0, out=forcing)


def _nodes(T: float, n_t: int) -> np.ndarray:
    """The n_t uniform nodes k T / n_t of one period."""
    return np.arange(n_t) * (T / n_t)


def _u_block(sys, u, w):
    """Potential block: each mode's periodic response to the drive minus the reaction.

    The reaction is projected ``_ROW_BLOCK`` time rows at a time into one
    forcing array, so its nodal temporaries stay small whatever n_t is.
    """
    n_t = len(u)
    drive = sys.stim(_nodes(sys.period, n_t))
    forcing = np.empty((n_t, sys.n_modes))
    for lo in range(0, n_t, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        proj = project_nonlinearity(sys.basis, u[rows], w[rows], sys.d)
        np.subtract(drive[rows, None] * sys.trace_vector, proj, out=forcing[rows])
    return _periodic_response(sys.basis.lambdas, sys.period, forcing)


def _w_block(sys, u):
    """Recovery block: the periodic response at the recovery rate to epsilon b u."""
    return _periodic_response(sys.recovery_rate, sys.period, sys.recovery_gain * u)


def farkas_apply(sys: GalerkinSystem, u: np.ndarray, w: np.ndarray):
    """One application of the periodic fixed-point operator to node samples.

    The potential block is the periodic response of each mode to the forcing
    (projected reaction with a minus sign, plus the boundary drive); the
    recovery block is the response at the recovery rate to epsilon b times
    the INPUT potential. Fixed points of this map solve the truncated system
    periodically. Row k of ``u`` and ``w`` holds the samples at k T / n_t.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.ndim != 2 or u.shape[1] != sys.n_modes or w.shape != u.shape:
        raise ValueError(
            f"expected trajectories of shape (n_t, {sys.n_modes}), got {u.shape}/{w.shape}"
        )
    return _u_block(sys, u, w), _w_block(sys, u)


def _mixed_norm(basis, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise sqrt(V-norm(u)^2 + H-norm(w)^2) over the leading axes."""
    return np.sqrt(v_norm_sq(basis, u) + np.sum(w * w, axis=-1))


def ct_norm(sys: GalerkinSystem, u: np.ndarray, w: np.ndarray) -> float:
    """Sup over grid nodes of sqrt(V-norm(u)^2 + H-norm(w)^2)."""
    return float(np.max(_mixed_norm(sys.basis, u, w)))


def _relative_defect(d: np.ndarray, x: np.ndarray) -> float:
    """|d| / max(1, |x|): a period-map defect d = x(T) - x relative to x."""
    return float(np.linalg.norm(d) / max(1.0, float(np.linalg.norm(x))))


def _mixing_weights(d_f: list, f: np.ndarray) -> np.ndarray:
    """Least-squares weights gamma minimising |f - sum_i gamma_i d_f[i]|.

    The normal equations are at most ``_DEPTH`` square, and ``lstsq`` takes
    the minimum-norm solution when the differences are collinear. The inner
    products are einsum sums, not BLAS dots: a threaded dot on arrays this
    size can take milliseconds a call.
    """
    gram = np.array([[np.einsum("ij,ij->", a, b) for b in d_f] for a in d_f])
    rhs = np.array([np.einsum("ij,ij->", a, f) for a in d_f])
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _coarse_nodes(n_t: int) -> int | None:
    """Picard's coarse node count for n_t nodes: the largest power-of-two divisor
    of n_t that is at most n_t / ``_COARSE_SHARE`` and at least ``_MIN_COARSE``,
    or None when there is none (every n_t <= 1024 among them)."""
    n_c = n_t & -n_t  # the largest power of two that divides n_t
    while n_c * _COARSE_SHARE > n_t:
        n_c //= 2
    return n_c if n_c >= _MIN_COARSE else None


def _prolong(u: np.ndarray, n_t: int) -> np.ndarray:
    """Samples at n_t nodes of the trigonometric interpolant of the n_c rows of u,
    n_c even: its real spectrum zero-padded, the Nyquist bin halved (split
    between the bins +-n_c/2 the finer grid tells apart), and scaled by n_t / n_c."""
    u_hat = np.fft.rfft(u, axis=0)
    u_hat[-1] *= 0.5
    u_hat *= n_t / len(u)
    return np.fft.irfft(u_hat, n=n_t, axis=0)


def _anderson(sys: GalerkinSystem, u: np.ndarray, theta: float, tol: float, max_iter: int):
    """Picard's loop on the node count of ``u``, which it reads and never writes.

    Returns the iterate u whose residual met ``tol`` (``u`` itself when the
    first did), w = W(u), and the residual history; raises
    :class:`NonConvergenceError` with the history on divergence or after
    ``max_iter`` applications.
    """
    residuals: list[float] = []
    d_f: list[np.ndarray] = []  # residual differences, oldest first
    d_x: list[np.ndarray] = []  # matching du + theta df
    f_prev = step = None
    for _ in range(max_iter):
        w = _w_block(sys, u)
        f = _u_block(sys, u, w)
        f -= u
        res = float(np.sqrt(np.max(v_norm_sq(sys.basis, f))))
        residuals.append(res)
        if not np.isfinite(res) or res > _DIVERGENCE * min(residuals):
            raise NonConvergenceError(
                f"picard iteration diverged after {len(residuals)} sweeps"
                f" (residual {res:.3e})",
                history=residuals,
            )
        if res < tol:
            return u, w, residuals
        del w  # freed before the next application allocates its own
        if f_prev is not None:
            df = np.subtract(f, f_prev, out=f_prev)
            step += theta * df
            d_f.append(df)
            d_x.append(step)
        step = theta * f
        if d_f:
            for gamma, dx in zip(_mixing_weights(d_f, f), d_x):
                step -= gamma * dx
        if len(d_f) == _DEPTH:  # the next difference replaces the oldest
            del d_f[0], d_x[0]
        u = u + step
        f_prev = f
    raise NonConvergenceError(
        f"picard exhausted {max_iter} sweeps (operator applications)"
        f" without reaching tol {tol}",
        history=residuals,
    )


def picard_solve(
    sys: GalerkinSystem,
    n_t: int,
    dt: float,
    x0: np.ndarray | None = None,
    theta: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PeriodicOrbit:
    """Anderson-mixed Picard iteration on the periodic fixed-point operator.

    The recovery block is linear in the potential, so the operator reduces to
    a map of the potential samples alone, Phi(u) = U(u, W(u)): the recovery
    response W to the iterate, then the potential response U to both. Each
    application yields the residual f = Phi(u) - u, whose sup-over-nodes
    V-norm is recorded; the iteration stops at the first one under ``tol``
    and returns that iterate u with w = W(u). ``n_iter`` counts the
    applications before that one, so a start at the fixed point reports zero
    and, in the reaction-free case, where Phi is constant, a start anywhere
    reports one at ``theta = 1``.

    Between applications the iterate moves by Anderson mixing (Walker & Ni,
    type II) with weight ``theta`` over the last ``_DEPTH`` residual
    differences: u <- u + theta f - sum_i gamma_i (du_i + theta df_i), where
    gamma fits sum_i gamma_i df_i to f in least squares. With no history this
    is the damped step u + theta f.

    The loop runs on two grids (nested iteration). When the reaction is on
    and n_t has a coarse node count n_c (:func:`_coarse_nodes`: the largest
    power-of-two divisor of n_t that is at most n_t / 8 and at least 256, so
    1024 at n_t = 8192, 256 at 2048, and none at n_t <= 1024), it first runs
    to ``tol`` on the n_c nodes from the start's rows there. Its fixed point,
    prolonged to the n_t nodes by zero-padding its spectrum (:func:`_prolong`),
    starts the loop on the n_t nodes, which the orbits' smoothness usually
    lets finish with one application. ``history`` is the n_t-node loop's
    record and ``coarse_history`` the coarse loop's, empty when it did not
    run; ``n_iter`` counts the applications of both before the last.
    ``max_iter`` caps each loop.

    ``x0``, of shape ``(n_t, n_modes)``, holds the starting potential
    samples at the nodes k T / n_t (the recovery samples follow from them as
    W(u)) and is read, never written. The last ``history`` entry is the
    returned orbit's residual: the returned pair (u, W(u)) is the one that
    application measured, so its recovery residual is zero. The periodicity
    residual integrates the start state over one period at step ``dt``,
    which is checked before the first application, as are
    every decay rate (:func:`_check_rates`), ``theta``, ``tol``,
    ``max_iter >= 1`` and ``n_t`` (:func:`orbit_nodes`). A non-finite
    residual, one above ``_DIVERGENCE`` times the smallest so far, or
    ``max_iter`` applications without reaching ``tol`` on either grid raise
    :class:`NonConvergenceError` at once, with the coarse loop's record as
    its ``coarse_history`` and the n_t-node loop's as its ``history``,
    empty when the coarse loop failed, so no application then runs on the
    n_t nodes.
    """
    _check_rates(sys)
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1 sweep, got {max_iter}")
    orbit_nodes(sys.period, n_t=n_t)
    check_rk4_step(sys, dt)
    n = sys.n_modes
    if x0 is None:
        guess = np.zeros((n_t, n))
    else:
        guess = np.asarray(x0, dtype=float)
        if guess.shape != (n_t, n):
            raise ValueError(
                f"starting guess must have shape (n_t, n) = ({n_t}, {n}), got {guess.shape}"
            )

    fine_start, coarse_history = guess, []
    # reaction-free, Phi is constant and one application on the n_t nodes is the least
    n_c = _coarse_nodes(n_t) if sys.d.a1 or sys.d.a2 else None
    if n_c is not None:
        try:
            u_c, _, coarse_history = _anderson(
                sys, np.ascontiguousarray(guess[:: n_t // n_c]), theta, tol, max_iter
            )
        except NonConvergenceError as exc:
            exc.history, exc.coarse_history = [], exc.history
            raise
        fine_start = _prolong(u_c, n_t)
    try:
        u, w, residuals = _anderson(sys, fine_start, theta, tol, max_iter)
    except NonConvergenceError as exc:
        exc.coarse_history = list(coarse_history)
        raise
    if u is guess:
        u = u.copy()  # never hand back the caller's start, nor a view of it

    start = np.concatenate([u[0], w[0]])  # from t = 0
    end = integrate_cauchy(sys, start, sys.period, dt).x[-1]
    return PeriodicOrbit(
        times=_nodes(sys.period, n_t),
        u=u,
        w=w,
        periodicity_residual=_relative_defect(end - start, start),
        ct_norm=ct_norm(sys, u, w),
        converged=True,
        history=tuple(residuals),
        coarse_history=tuple(coarse_history),
    )


def _linear_monodromy(sys: GalerkinSystem, dt: float, n_steps: int) -> np.ndarray:
    """R^N - I for the RK4 step matrix R of the linear part, in the (u, w) layout.

    The linear part couples each potential mode only to its own recovery
    mode, through the 2x2 block A = [[-lam_i, 0], [eps b, -eps b xi c3]], so
    R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and its N-th power are
    formed per mode, without integrating anything.
    """
    n = sys.n_modes
    hA = np.zeros((n, 2, 2))
    hA[:, 0, 0] = -dt * sys.basis.lambdas
    hA[:, 1, 0] = dt * sys.recovery_gain
    hA[:, 1, 1] = -dt * sys.recovery_rate
    eye = np.eye(2)
    step = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4) / 3) / 2)
    blocks = np.linalg.matrix_power(step, n_steps)
    idx = np.arange(n)
    jac = np.zeros((2 * n, 2 * n))
    jac[idx, idx] = blocks[:, 0, 0]
    jac[n + idx, idx] = blocks[:, 1, 0]
    jac[n + idx, n + idx] = blocks[:, 1, 1]
    return jac - np.eye(2 * n)


def orbit_nodes(T: float, n_t: int | None = None, dt: float | None = None) -> int | None:
    """Check the solvers' node sets of one period T; return T / dt, or None without dt.

    In order: Picard's ``n_t`` reaches ``_MIN_NODES``; shooting's ``dt`` is
    positive and divides T into at least ``_MIN_NODES`` steps; given both, the
    counts nest, so two orbits share the coarser set's nodes. A None skips its rules.
    """
    if n_t is not None and n_t < _MIN_NODES:
        raise ValueError(f"n_t must be at least {_MIN_NODES}, got {n_t}")
    if dt is None:
        return None
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError("dt must divide the period so orbit nodes land on the grid")
    if n_steps < _MIN_NODES:
        raise ValueError(
            f"dt must be at most T/{_MIN_NODES} = {T / _MIN_NODES:.6g} so the orbit has at"
            f" least {_MIN_NODES} nodes, got dt = {dt:.6g} (T/{n_steps})"
        )
    if n_t is not None and max(n_t, n_steps) % min(n_t, n_steps):
        raise ValueError(f"grids with {n_t} and {n_steps} nodes do not nest")
    return n_steps


def _segments(n_steps: int) -> int:
    """Shooting's segment count K for N steps: the largest power of two up to
    ``_MAX_SEGMENTS`` that divides N into segments of ``_MIN_SEGMENT_STEPS`` or more."""
    k = _MAX_SEGMENTS
    while n_steps % k or n_steps // k < _MIN_SEGMENT_STEPS:
        k //= 2
    return k


def _condense(blocks: np.ndarray, defect: np.ndarray):
    """The block-cyclic shooting system condensed onto x_0: D_(K-1) ... D_0 - I and
    c = sum_k D_(K-1) ... D_(k+1) c_k, for the blocks D_k and segment defects c_k."""
    eye = np.eye(blocks.shape[1])
    product, condensed = eye, np.zeros(blocks.shape[1])
    for block, c_k in zip(blocks, defect):
        product = block @ product
        condensed = block @ condensed + c_k
    return product - eye, condensed


def shooting_solve(
    sys: GalerkinSystem,
    dt: float,
    tol: float = 1e-10,
    max_iter: int = 25,
) -> PeriodicOrbit:
    """Multiple shooting on the period map: find x with flow_T(x) = x.

    The N = T / dt steps of one period split into K segments (:func:`_segments`:
    16 at N = 1024, 2 at N = 128, 1 at N = 64 or at odd N). The unknowns are
    the states x_k at t_k = k T / K, and segment k's defect is
    c_k = F_k(x_k) - x_(k+1 mod K), where F_k flows x_k over [t_k, t_(k+1)].
    One :func:`~monorhythm.galerkin.integrate_cauchy` of the K states, each
    from its own t_k, marches them all at once, which at small m costs about
    what one state costs: an RK4 step there is per-call overhead.

    The start is the linear part's continuous-time periodic response to the
    drive at the segment starts. Reaction-free, it misses the RK4 orbit by
    the integrator's O(dt^4) error, or not at all under a constant drive,
    whose steady state RK4 keeps exactly. Each segment keeps a Broyden
    block D_k for dF_k/dx_k, started from the linear part's RK4 monodromy
    over N / K steps (:func:`_linear_monodromy`); the couplings -I are exact.
    A step condenses the block-cyclic system onto x_0,
    (D_(K-1) ... D_0 - I) d_0 = -c with c = sum_k D_(K-1) ... D_(k+1) c_k,
    propagates d_(k+1) = D_k d_k + c_k, and updates each block from its own
    secant pair, D_k <- D_k + (dF_k - D_k d_k) d_k^T / (d_k^T d_k). At K = 1
    this is Broyden's "good" method on flow_T(x) - x from R^N - I.

    ``history`` holds the norm of the stacked defect (c_0, ..., c_(K-1)) at
    the start and after each step. Once it and the condensed defect c both
    fall to tol * max(1, |x_0|), the last segment march is the orbit: its K
    members' rows laid end to end at the N nodes of [0, T), which jump at the
    junctions by at most their defects. Its periodicity residual is the
    largest of them, max_k |c_k| / max(1, |x_0|), which the stacked defect's
    test bounds by tol; no further integration measures it, and at K = 1 it
    is x_0's own one-period residual. At most
    ``max_iter >= 0`` steps are taken, so zero accepts only a start that
    already meets tol; a stall or a singular condensed Jacobian raises
    :class:`NonConvergenceError` carrying the defect history.
    ``jacobian_cond`` is the 2-norm condition of D_(K-1) ... D_0 - I, the
    estimate of the period map's Jacobian minus I. Every decay rate, then
    dt (:func:`orbit_nodes`), is checked before the start divides by any
    rate (:func:`_check_rates`): with a zero rate the periodic response is
    undefined and R^N - I is singular. The steps are exactly T / N for the
    N nodes ``orbit_nodes`` counts, so a dt within its slack of T / N gives
    N nodes, not a short extra step.
    """
    _check_rates(sys)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0 steps, got {max_iter}")
    T = sys.period
    n_steps = orbit_nodes(T, dt=dt)
    dt = T / n_steps
    n_seg = _segments(n_steps)
    drive = sys.stim(_nodes(T, n_steps))
    u_lin = _periodic_response(sys.basis.lambdas, T, drive[:, None] * sys.trace_vector)
    stride = n_steps // n_seg
    x = np.concatenate([u_lin, _w_block(sys, u_lin)], axis=1)[::stride]
    t0 = _nodes(T, n_seg)
    blocks = np.tile(_linear_monodromy(sys, dt, stride) + np.eye(2 * sys.n_modes), (n_seg, 1, 1))

    march = integrate_cauchy(sys, x, T / n_seg, dt, t0)
    defect = march.x[-1] - np.roll(x, -1, axis=0)
    history = [float(np.linalg.norm(defect))]
    while True:
        jac, condensed = _condense(blocks, defect)
        scale = tol * max(1.0, float(np.linalg.norm(x[0])))
        # c is the linear estimate of x_0's period defect, so meeting tol with it
        # too closes x_0 over the whole period, not only segment by segment
        if history[-1] <= scale and np.linalg.norm(condensed) <= scale:
            break
        if len(history) > max_iter:
            raise NonConvergenceError(
                f"shooting did not converge in {max_iter} steps (defect {history[-1]:.3e})",
                history=history,
            )
        step = np.empty_like(x)
        try:
            step[0] = np.linalg.solve(jac, -condensed)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(jac))
            raise NonConvergenceError(
                f"period-map jacobian is singular (condition estimate {cond:.3e})",
                history=history,
            ) from exc
        for k in range(n_seg - 1):
            step[k + 1] = blocks[k] @ step[k] + defect[k]
        x = x + step
        ends = march.x[-1]
        march = integrate_cauchy(sys, x, T / n_seg, dt, t0)
        # each block's rank-one update from its own secant pair
        misfit = march.x[-1] - ends - np.einsum("kij,kj->ki", blocks, step)
        step_sq = np.einsum("kj,kj->k", step, step)
        blocks += np.einsum("ki,kj->kij", misfit, step) / step_sq[:, None, None]
        defect = march.x[-1] - np.roll(x, -1, axis=0)
        history.append(float(np.linalg.norm(defect)))

    n = sys.n_modes
    rows = march.x[:-1].swapaxes(0, 1).reshape(n_steps, 2 * n)  # segment k's rows, then k + 1's
    u_orbit, w_orbit = rows[:, :n], rows[:, n:]
    return PeriodicOrbit(
        times=_nodes(T, n_steps),
        u=u_orbit,
        w=w_orbit,
        periodicity_residual=max(_relative_defect(c_k, x[0]) for c_k in defect),
        ct_norm=ct_norm(sys, u_orbit, w_orbit),
        converged=True,
        history=tuple(history),
        jacobian_cond=float(np.linalg.cond(jac)),
    )


def orbit_gap(a: PeriodicOrbit, b: PeriodicOrbit, basis) -> float:
    """Sup-norm distance between two orbits of one system at their shared nodes.

    The node sets must nest (one node count a multiple of the other); the
    comparison happens on the coarser set.
    """
    # the sign of the difference does not change its norm, so let a be the finer orbit
    if len(a.times) < len(b.times):
        a, b = b, a
    n_a, n_b = len(a.times), len(b.times)
    if n_b < 1 or n_a % n_b:
        raise ValueError(f"grids with {n_a} and {n_b} nodes do not nest")
    stride = n_a // n_b
    return float(np.max(_mixed_norm(basis, a.u[::stride] - b.u, a.w[::stride] - b.w)))
