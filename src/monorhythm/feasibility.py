"""Existence-window arithmetic for periodically driven configurations.

Whether the fixed-point operator traps a ball of candidate trajectories
reduces to a comparison of two scalar curves: a load curve h that grows
with the drive period, and a gain curve p that is unimodal in the ball
radius. A configuration admits a verified periodic response whenever the
resting load h(0) sits strictly below the gain peak p(R*); the radii at
which the curves cross bracket the certifiable ball sizes, and for each
radius in that bracket there is a largest admissible period T*.

The curve coefficients are four aggregate constants (kappa, beta, gamma,
delta). They can be supplied directly, as published summaries usually do,
or derived from the model's growth bounds and embedding constants. A
companion bound expresses the same window condition, without the cubic
aggregate, as a ceiling on the quadratic reaction coefficient a2 as a
function of the cubic coefficient a1, which is what the parameter-region
sweep rasterizes; it evaluates the model itself at every a1, so the sweep
and a single run share one set of formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ionic import DerivedParameters, check_decay_rates, with_reaction

SQRT2 = math.sqrt(2.0)

_BISECT_REL_TOL = 1e-12
_BISECT_MAX_ITER = 200


def projection_kappa(projection_excess: float) -> float:
    """Gain prefactor kappa = sqrt(2) / (2 (1 + excess)) of the modal projection.

    The excess is the amount by which the projection norm exceeds one, so it
    cannot be negative.
    """
    if projection_excess < 0.0:
        raise ValueError(f"projection_excess must be nonnegative, got {projection_excess}")
    return SQRT2 / (2.0 * (1.0 + projection_excess))


@dataclass(frozen=True)
class AggregateConstants:
    """Coefficients of the gain curve p(R) = kappa R / (beta R^3 + gamma R^1.5 + delta)."""

    kappa: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class EmbeddingConstants:
    """Functional-analytic constants that turn the model's growth bounds into aggregates.

    kappa is the gain prefactor of the modal projection (given directly or
    from :func:`projection_kappa`), k1 bounds the dual-space embedding picking
    up the nonlinearity, and domain_measure is the volume of the domain.
    trace_norm, s_sup and phi_norm describe the boundary drive: the
    trace-functional norm, the sup of the periodic signal and the boundary
    profile norm. The quartic embedding k2 enters beta alone, so only
    :func:`aggregate_from_raw` takes it.
    """

    kappa: float
    k1: float
    trace_norm: float
    domain_measure: float
    s_sup: float
    phi_norm: float

    def __post_init__(self):
        for name in ("kappa", "k1", "trace_norm", "domain_measure"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.s_sup < 0.0:
            raise ValueError(f"s_sup must be nonnegative, got {self.s_sup}")
        if self.phi_norm < 0.0:
            raise ValueError(f"phi_norm must be nonnegative, got {self.phi_norm}")

    def delta(self, A1):
        """Aggregate delta: cubic growth A1 k1 |Omega|^(3/4) plus the boundary drive.

        Elementwise in A1; at A1 = 0 it is the drive s_sup trace_norm phi_norm.
        """
        drive = self.s_sup * self.trace_norm * self.phi_norm
        return A1 * self.k1 * self.domain_measure**0.75 + drive


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of a scalar feasibility check with its signed margin."""

    satisfied: bool
    margin: float


def h_of_T(t, rate: float):
    """Load curve t / (1 - exp(-rate t)).

    The rate is the model's lam0 = epsilon c4 / C, passed as ``d.lam0``;
    it must be positive and finite (:func:`monorhythm.ionic.check_decay_rates`).
    Continuously extended to h(0) = 1 / rate; evaluated through expm1 so
    small periods do not lose precision. Accepts scalars or arrays of
    nonnegative periods.
    """
    check_decay_rates(rate)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("periods must be nonnegative")
    positive = t_arr > 0.0
    denom = np.where(positive, -np.expm1(-rate * t_arr), 1.0)
    out = np.where(positive, t_arr / denom, 1.0 / rate)
    if t_arr.ndim == 0:
        return float(out)
    return out


def p_of_R(r, agg: AggregateConstants):
    """Gain curve kappa R / (beta R^3 + gamma R^1.5 + delta) for R >= 0."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("radii must be nonnegative")
    denom = agg.beta * r_arr**3 + agg.gamma * r_arr**1.5 + agg.delta
    out = agg.kappa * (r_arr / denom)
    if r_arr.ndim == 0:
        return float(out)
    return out


def r_star(agg: AggregateConstants) -> float:
    """Radius at which the gain curve peaks.

    Written as a rationalized closed form so the beta -> 0 limit needs no
    branch: with x = 4 delta / (gamma + sqrt(gamma^2 + 32 beta delta)) the
    peak sits at x^(2/3), and at beta = 0 this reduces to (2 delta /
    gamma)^(2/3), the maximizer without the cubic term. Independent of
    kappa, which only scales the curve.
    """
    x = 4.0 * agg.delta / (agg.gamma + math.sqrt(agg.gamma**2 + 32.0 * agg.beta * agg.delta))
    return x ** (2.0 / 3.0)


def _bracketed_root(
    f: Callable[[float], float], anchor: float, start: float, factor: float, what: str
) -> float:
    """Root of f between anchor and the first of start, start * factor, ... past it.

    Walks from start by the factor until f takes the strict opposite sign of
    f(anchor), then bisects that bracket to relative width 1e-12. Raises
    ValueError naming ``what`` when the walk finds no sign change.
    """
    f_anchor = f(anchor)
    x = start
    for _ in range(_BISECT_MAX_ITER):
        f_x = f(x)
        if f_x < 0.0 < f_anchor or f_anchor < 0.0 < f_x:
            break
        x *= factor
    else:
        raise ValueError(f"could not bracket the {what}")
    lo, f_lo, hi = (x, f_x, anchor) if x < anchor else (anchor, f_anchor, x)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL_TOL * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def r_bounds(agg: AggregateConstants, h0: float) -> tuple:
    """Radii where the gain curve crosses the level h0, bracketing the peak.

    Requires h0 <= p(r_star); the tangent case h0 == p(r_star) collapses
    both radii onto the peak. Roots are found by bisection on each side
    of the peak, using the curve's one-sided monotonicity.
    """
    if h0 <= 0.0:
        raise ValueError(f"the load level must be positive, got {h0}")
    rs = r_star(agg)
    peak = p_of_R(rs, agg)
    if h0 > peak:
        raise ValueError(
            f"load level {h0} exceeds the gain peak {peak}; the curves never meet"
        )
    if h0 == peak:
        return rs, rs

    def gap(r):
        return p_of_R(r, agg) - h0

    r_lower = _bracketed_root(gap, rs, 0.5 * rs, 0.5, "lower crossing radius")
    r_upper = _bracketed_root(gap, rs, 2.0 * rs, 2.0, "upper crossing radius")
    return r_lower, r_upper


def t_star(r: float, agg: AggregateConstants, rate: float, bounds: tuple) -> float:
    """Largest period for which the ball of radius r stays certifiable.

    Solves h(T) = p(r) using the load curve's monotone growth. ``bounds`` is
    the bracket ``r_bounds(agg, h_of_T(0.0, rate))``, which the caller
    already holds; the radius must lie in it, and at either end the
    admissible period degenerates to zero.
    """
    h0 = h_of_T(0.0, rate)
    lower, upper = bounds
    if not lower <= r <= upper:
        raise ValueError(
            f"radius {r} is outside the certifiable bracket [{lower}, {upper}]"
        )
    target = p_of_R(r, agg)
    if target <= h0:
        return 0.0
    return _bracketed_root(
        lambda t: h_of_T(t, rate) - target, 0.0, 1.0, 2.0, "period ceiling"
    )


def recovery_coupling_condition(xi: float, c3: float) -> ConditionResult:
    """Check xi * c3 >= sqrt(2), needed for the recovery block to contract."""
    margin = xi * c3 - SQRT2
    return ConditionResult(bool(margin >= 0.0), float(margin))


def feasible_window_condition(agg: AggregateConstants, h0: float) -> ConditionResult:
    """Check h0 = h(0) < p(r_star), the strict condition opening a feasibility window."""
    margin = p_of_R(r_star(agg), agg) - h0
    return ConditionResult(bool(margin > 0.0), float(margin))


def reduced_window(
    d: DerivedParameters, emb: EmbeddingConstants, a1: float, a2: float
) -> ConditionResult:
    """The window condition at reaction coefficients (a1, a2) with beta = 0.

    The model moves to (a1, a2), aggregate_from_raw assembles its aggregates
    without the cubic one, and feasible_window_condition compares their gain
    peak with the resting load h(0) = 1 / lam0 at a1. This is the condition
    a2_bound inverts. For beta > 0 it is a necessary relaxation of the full
    condition, since the cubic term only lowers the gain.
    """
    probe = with_reaction(d, a1, a2)
    return feasible_window_condition(aggregate_from_raw(probe, emb), h_of_T(0.0, probe.lam0))


def a2_bound(a1, d: DerivedParameters, emb: EmbeddingConstants):
    """Largest quadratic coefficient the window admits at a given cubic one.

    Without the cubic aggregate the gain peak is kappa cbrt(4) / (3
    gamma^(2/3) delta^(1/3)), and a2 enters only gamma = A3 k1 = xi a2 k1 / 3.
    Setting the peak equal to h(0) = 1 / lam0, with the model's lam0 and
    delta at a1, and solving for a2 gives the ceiling
    2 (kappa lam0)^(3/2) / (sqrt(3) xi k1 sqrt(delta)): a2 below it is
    exactly where reduced_window holds. Accepts scalar or array a1; the
    drive must be positive, or delta vanishes at a1 = 0.
    """
    a1_arr = np.asarray(a1, dtype=float)
    if np.any(a1_arr < 0.0):
        raise ValueError("a1 values must be nonnegative")
    if not emb.delta(0.0) > 0.0:
        raise ValueError(
            "the boundary-drive product s_sup * trace_norm * phi_norm must be positive"
        )
    model = with_reaction(d, a1_arr, 0.0)
    # lam0 > 0 wherever a1 > 0; at a1 = 0 an unpinned lam0 is 0, and the ceiling its limit 0
    check_decay_rates(np.broadcast_to(model.lam0, a1_arr.shape)[a1_arr > 0.0])
    out = (
        2.0
        * (emb.kappa * model.lam0) ** 1.5
        / (math.sqrt(3.0) * d.xi * emb.k1 * np.sqrt(emb.delta(model.A1)))
    )
    if a1_arr.ndim == 0:
        return float(out)
    return out


def interior_consistent(
    a1: np.ndarray, bound: np.ndarray, d: DerivedParameters, emb: EmbeddingConstants
) -> bool:
    """Spot-check an a2 ceiling against the reduced window condition it inverts.

    At every max(1, len(a1) // 8)-th sample with positive a1 and ceiling, a
    probe at 0.9 times the ceiling must open the reduced window. Returns True
    when every probe does, or when none qualifies.
    """
    return all(
        reduced_window(d, emb, a1[i], 0.9 * bound[i]).satisfied
        for i in range(0, len(a1), max(1, len(a1) // 8))
        if a1[i] > 0.0 and bound[i] > 0.0
    )


def aggregate_from_raw(
    d: DerivedParameters, emb: EmbeddingConstants, k2: float | None = None
) -> AggregateConstants:
    """Assemble the curve coefficients from the model's growth bounds and the embeddings.

    gamma weights A3 by k1, delta is ``emb.delta(A1)``, and beta = A2 k1 k2
    weights the quadratic growth by both embeddings. Without k2 the cubic
    aggregate is dropped (beta = 0), as the parameter-region sweep needs.
    """
    beta = 0.0
    if k2 is not None:
        if k2 <= 0.0:
            raise ValueError(f"k2 must be positive, got {k2}")
        beta = d.A2 * emb.k1 * k2
    return AggregateConstants(
        kappa=emb.kappa, beta=beta, gamma=d.A3 * emb.k1, delta=emb.delta(d.A1)
    )
