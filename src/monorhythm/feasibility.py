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
or derived from raw growth and embedding constants. A companion bound
expresses the same window condition as a ceiling on the quadratic
reaction coefficient a2 as a function of the cubic coefficient a1, which
is what the parameter-region sweep rasterizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ionic import DerivedParameters

SQRT2 = math.sqrt(2.0)

_BISECT_REL_TOL = 1e-12
_BISECT_MAX_ITER = 200


def _projection_kappa(projection_excess: float) -> float:
    """Gain prefactor kappa = sqrt(2) / (2 (1 + excess)) of the modal projection."""
    return SQRT2 / (2.0 * (1.0 + projection_excess))


@dataclass(frozen=True)
class AggregateConstants:
    """Coefficients of the gain curve p(R) = kappa R / (beta R^3 + gamma R^1.5 + delta).

    The provenance flag records whether the values were given directly or
    assembled from raw constants by aggregate_from_raw.
    """

    kappa: float
    beta: float
    gamma: float
    delta: float
    provenance: str = "direct"

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.provenance not in ("direct", "derived"):
            raise ValueError(f"provenance must be 'direct' or 'derived', got {self.provenance!r}")


@dataclass(frozen=True)
class EmbeddingConstants:
    """Raw functional-analytic constants that feed the aggregates.

    k1 bounds the dual-space embedding picking up the nonlinearity, k2 the
    embedding of the energy space into the quartic-integrability space.
    projection_excess is the amount by which the modal projection norm
    exceeds one. trace_norm, s_sup and phi_norm describe the boundary
    drive: the trace-functional norm, the sup of the periodic signal and
    the boundary profile norm. domain_measure is the volume of the domain.
    """

    k1: float
    k2: float
    projection_excess: float
    trace_norm: float
    domain_measure: float
    s_sup: float
    phi_norm: float

    def __post_init__(self):
        for name in ("k1", "k2", "trace_norm", "domain_measure"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.projection_excess < 0.0:
            raise ValueError(f"projection_excess must be nonnegative, got {self.projection_excess}")
        if self.s_sup < 0.0:
            raise ValueError(f"s_sup must be nonnegative, got {self.s_sup}")
        if self.phi_norm < 0.0:
            raise ValueError(f"phi_norm must be nonnegative, got {self.phi_norm}")


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of a scalar feasibility check with its signed margin."""

    satisfied: bool
    margin: float


@dataclass(frozen=True)
class RegionConstants:
    """Everything the admissible-a2 ceiling needs besides a1 itself.

    The model constants (epsilon, xi, C, u_tr, u_pr) come from ``d``, whose
    parameter classes already require them positive.
    """

    kappa: float
    d: DerivedParameters
    k1: float
    domain_measure: float
    s_sup: float
    trace_norm: float
    phi_norm: float

    def __post_init__(self):
        for name in ("kappa", "k1", "domain_measure"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.b_const <= 0.0:
            raise ValueError(
                "the boundary-drive product s_sup * trace_norm * phi_norm must be positive"
            )

    @property
    def a_const(self) -> float:
        """Geometry-weighted cubic growth factor multiplying a1 in delta."""
        u_tr, u_pr = self.d.u_tr, self.d.u_pr
        return self.domain_measure**0.75 * ((u_tr + u_pr) / 3.0 + (2.0 / 3.0) * u_tr * u_pr)

    @property
    def b_const(self) -> float:
        """Drive contribution to delta, independent of the reaction coefficients."""
        return self.s_sup * self.trace_norm * self.phi_norm

    def delta(self, a1):
        """Aggregate delta at cubic coefficient a1: cubic growth plus drive."""
        return self.d.epsilon * self.k1 * self.a_const / self.d.C * a1 + self.b_const


def h_of_T(t, rate: float):
    """Load curve t / (1 - exp(-rate t)).

    The rate is the model's lam0 = epsilon c4 / C, passed as ``d.lam0``.
    Continuously extended to h(0) = 1 / rate; evaluated through expm1 so
    small periods do not lose precision. Accepts scalars or arrays of
    nonnegative periods.
    """
    if not rate > 0.0:
        raise ValueError(f"decay rate epsilon*c4/C must be positive, got {rate}")
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


def feasible_window_condition_reduced(agg: AggregateConstants, h0: float) -> ConditionResult:
    """Closed-form window check in the beta = 0 limit.

    Without the cubic aggregate the gain peak is kappa cbrt(4) / (3
    gamma^(2/3) delta^(1/3)); the window opens when h0 sits strictly
    below it. For beta > 0 this is a necessary relaxation of the full
    condition, since the cubic term only lowers the gain.
    """
    if h0 <= 0.0:
        raise ValueError(f"the load level must be positive, got {h0}")
    peak = agg.kappa * np.cbrt(4.0) / (3.0 * agg.gamma ** (2.0 / 3.0) * np.cbrt(agg.delta))
    margin = peak - h0
    return ConditionResult(bool(margin > 0.0), float(margin))


def a2_bound(a1, const: RegionConstants):
    """Largest quadratic coefficient the window admits at a given cubic one.

    Inverts the reduced window condition for a2 after substituting the
    aggregate definitions, so a2 below the returned ceiling is exactly
    equivalent to feasible_window_condition_reduced holding at (a1, a2).
    The prefactor 2 / (sqrt(3) xi k1) is that exact inversion. Accepts
    scalar or array a1.
    """
    a1_arr = np.asarray(a1, dtype=float)
    if np.any(a1_arr < 0.0):
        raise ValueError("a1 values must be nonnegative")
    d = const.d
    pref = 2.0 / (math.sqrt(3.0) * d.xi * const.k1)
    scale = (const.kappa * d.epsilon * d.u_tr * d.u_pr / d.C) ** 1.5
    out = pref * scale * a1_arr**1.5 / np.sqrt(const.delta(a1_arr))
    if a1_arr.ndim == 0:
        return float(out)
    return out


def interior_consistent(a1: np.ndarray, bound: np.ndarray, const: RegionConstants) -> bool:
    """Spot-check an a2 ceiling against the reduced window condition it inverts.

    At every max(1, len(a1) // 8)-th sample with positive a1 and ceiling,
    the beta = 0 aggregates of a probe at 0.9 times the ceiling must open
    the window. Returns True when every probe does, or when none qualifies.
    """
    d = const.d
    checks = []
    for i in range(0, len(a1), max(1, len(a1) // 8)):
        if a1[i] <= 0.0 or bound[i] <= 0.0:
            continue
        agg = AggregateConstants(
            kappa=const.kappa,
            beta=0.0,
            gamma=d.xi * (0.9 * bound[i]) * const.k1 / 3.0,
            delta=const.delta(a1[i]),
        )
        h0 = d.C / (d.epsilon * a1[i] * d.u_tr * d.u_pr)
        checks.append(feasible_window_condition_reduced(agg, h0).satisfied)
    return all(checks)


def emit_curves(
    agg: AggregateConstants, rate: float, t_max: float, r_max: float, n_samples: int = 256
) -> tuple:
    """Sample the load and gain curves on uniform grids including both endpoints.

    Returns (h_curve, p_curve), each an (n_samples, 2) array with the abscissa
    in column 0 and the curve value in column 1, in ascending abscissa order.
    """
    if t_max <= 0.0 or r_max <= 0.0:
        raise ValueError("curve ranges must be positive")
    if n_samples < 2:
        raise ValueError("curve grids need at least two points")
    t = np.linspace(0.0, t_max, n_samples)
    r = np.linspace(0.0, r_max, n_samples)
    h_curve = np.column_stack([t, h_of_T(t, rate)])
    p_curve = np.column_stack([r, p_of_R(r, agg)])
    return h_curve, p_curve


def aggregate_from_raw(d: DerivedParameters, emb: EmbeddingConstants) -> AggregateConstants:
    """Assemble the curve coefficients from growth and embedding constants.

    kappa comes from the modal projection norm, beta and gamma weight the
    quadratic and mixed growth constants by the embeddings, and delta
    collects the cubic growth over the domain plus the boundary drive.
    """
    kappa = _projection_kappa(emb.projection_excess)
    beta = d.A2 * emb.k1 * emb.k2
    gamma = d.A3 * emb.k1
    delta = (
        d.A1 * emb.k1 * emb.domain_measure**0.75
        + emb.s_sup * emb.trace_norm * emb.phi_norm
    )
    return AggregateConstants(
        kappa=kappa, beta=beta, gamma=gamma, delta=delta, provenance="derived"
    )
