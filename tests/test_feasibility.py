"""Load/gain curve arithmetic, window conditions, and the parameter-region bound."""

import math

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorhythm.feasibility import (
    AggregateConstants,
    EmbeddingConstants,
    a2_bound,
    aggregate_from_raw,
    feasible_window_condition,
    h_of_T,
    p_of_R,
    projection_kappa,
    r_bounds,
    r_star,
    recovery_coupling_condition,
    reduced_window,
    t_star,
)
from monorhythm.ionic import PhysiologicalParameters, derive_parameters
from oracles import golden_section_max
from systems import feasible_model

# published-style aggregate set used throughout: gain peak near R = 0.0159
AGG = AggregateConstants(kappa=0.5, beta=1e-4, gamma=1.0, delta=1e-3)

# frozen from the rationalized closed form, cross-checked below against a
# golden-section argmax oracle and a centered finite difference
R_STAR = 0.01587400205355547
P_AT_R_STAR = 2.645668067191445

# frozen from scipy.optimize.brentq roots of p(R) = 1 at rtol 8.9e-16
R_LOWER = 0.0022074237972070677
R_UPPER = 0.24594457563635094

# frozen from a scipy.optimize.brentq root of h(T) = p(R_STAR) at unit rate
T_STAR = 2.4074367446354734

# acceptance-style load rate lam0 = epsilon c4 / C = 1, and its resting load h(0)
RATE = 0.032 * 31.25 / 1.0
H0 = 1.0 / RATE
BOUNDS = r_bounds(AGG, H0)


def test_h_limit_at_zero():
    h0 = h_of_T(0.0, RATE)
    assert h0 == H0
    # stable continuation: a period of 1e-12 must agree with the limit
    assert abs(h_of_T(1e-12, RATE) - h0) <= 1e-8 * h0


def test_h_hand_value_and_monotonicity():
    # rate 1 and T = ln 2 give ln2 / (1 - 1/2) = 2 ln 2
    assert h_of_T(math.log(2.0), RATE) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    grid = np.linspace(0.0, 10.0, 400)
    vals = h_of_T(grid, RATE)
    assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
    assert np.all(np.diff(vals) > 0.0), "load curve must increase with the period"


def test_h_rejects_bad_arguments():
    with pytest.raises(ValueError):
        h_of_T(-1.0, RATE)
    with pytest.raises(ValueError):
        h_of_T(1.0, 0.0)


def test_p_basics_and_frozen_value():
    assert p_of_R(0.0, AGG) == 0.0
    doubled = AggregateConstants(kappa=1.0, beta=1e-4, gamma=1.0, delta=1e-3)
    r = np.array([0.0, 0.01, 0.3, 2.0])
    assert np.allclose(p_of_R(r, doubled), 2.0 * p_of_R(r, AGG), rtol=1e-15)
    assert p_of_R(R_STAR, AGG) == pytest.approx(P_AT_R_STAR, rel=1e-13)


def test_p_unimodal_on_log_grid():
    grid = np.logspace(-8.0, 4.0, 1000)
    vals = p_of_R(grid, AGG)
    rising = grid < R_STAR
    assert np.all(np.diff(vals[rising]) > 0.0), "gain must rise before the peak"
    falling = grid > R_STAR
    assert np.all(np.diff(vals[falling]) < 0.0), "gain must fall after the peak"


def test_r_star_frozen_and_stationary():
    rs = r_star(AGG)
    assert rs == pytest.approx(R_STAR, rel=1e-15)
    # centered finite difference of the gain at the claimed peak
    step = 1e-6 * rs
    fd = (p_of_R(rs + step, AGG) - p_of_R(rs - step, AGG)) / (2.0 * step)
    assert abs(fd) * rs / p_of_R(rs, AGG) < 1e-6, f"relative slope {fd:.3e} at the peak"


def test_r_star_matches_argmax_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        beta, gamma, delta = 10.0 ** rng.uniform(-6.0, 2.0, size=3)
        if trial % 5 == 0:
            beta = 0.0  # reduced form without the cubic aggregate
        agg = AggregateConstants(kappa=1.0, beta=beta, gamma=gamma, delta=delta)
        rs = r_star(agg)
        # golden-section oracle over a six-decade window around the claim;
        # a wrong closed form would push the argmax to a window edge
        found = golden_section_max(lambda r: p_of_R(r, agg), 1e-3 * rs, 1e3 * rs)
        assert abs(found - rs) / rs < 1e-6, f"trial {trial}: {found} vs {rs}"
        if beta == 0.0:
            assert rs == pytest.approx((2.0 * delta / gamma) ** (2.0 / 3.0), rel=1e-12)


def test_r_star_ignores_kappa():
    other = AggregateConstants(kappa=0.174, beta=1e-4, gamma=1.0, delta=1e-3)
    assert r_star(other) == r_star(AGG)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        AggregateConstants(kappa=0.0, beta=0.0, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError):
        AggregateConstants(kappa=1.0, beta=-1e-9, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError):
        AggregateConstants(kappa=1.0, beta=0.0, gamma=0.0, delta=1.0)
    with pytest.raises(ValueError):
        AggregateConstants(kappa=1.0, beta=0.0, gamma=1.0, delta=0.0)


def test_period_ceiling_is_zero_at_the_tangent_load():
    """At h(0) = p(r*) the bracket is (r*, r*) and no period is admissible."""
    rate = 1.0 / P_AT_R_STAR
    assert h_of_T(0.0, rate) == p_of_R(R_STAR, AGG)
    assert r_bounds(AGG, h_of_T(0.0, rate)) == (R_STAR, R_STAR)
    assert t_star(R_STAR, AGG, rate, (R_STAR, R_STAR)) == 0.0


def test_aggregate_from_raw():
    d = feasible_model()
    emb = EmbeddingConstants(
        kappa=projection_kappa(1.0),
        k1=0.1,
        trace_norm=1.5,
        domain_measure=16.0,
        s_sup=1.0,
        phi_norm=0.005,
    )
    agg = aggregate_from_raw(d, emb, 2.0)
    assert agg.kappa == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-15)
    assert agg.beta == pytest.approx(d.A2 * 0.1 * 2.0, rel=1e-15)
    assert agg.gamma == pytest.approx(d.A3 * 0.1, rel=1e-15)
    assert agg.delta == pytest.approx(d.A1 * 0.1 * 8.0 + 1.0 * 1.5 * 0.005, rel=1e-15)
    # without the quartic embedding the cubic aggregate is dropped
    assert aggregate_from_raw(d, emb) == dataclasses.replace(agg, beta=0.0)
    for k2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="k2 must be positive"):
            aggregate_from_raw(d, emb, k2)
    with pytest.raises(ValueError, match="projection_excess must be nonnegative"):
        projection_kappa(-0.5)


def test_window_condition():
    result = feasible_window_condition(AGG, H0)
    assert result.satisfied
    assert result.margin == pytest.approx(P_AT_R_STAR - 1.0, rel=1e-12)
    narrow = AggregateConstants(kappa=0.1, beta=1e-4, gamma=1.0, delta=1e-3)
    blocked = feasible_window_condition(narrow, H0)
    assert not blocked.satisfied and blocked.margin < 0.0


def test_reduced_window_matches_full_at_zero_beta():
    # the beta = 0 gain peak kappa cbrt(4) / (3 gamma^(2/3) delta^(1/3)),
    # the closed form a2_bound inverts, against the peak of the full curve
    rng = np.random.default_rng(11)
    for _ in range(50):
        kappa, gamma, delta = 10.0 ** rng.uniform(-3.0, 2.0, size=3)
        agg0 = AggregateConstants(kappa=kappa, beta=0.0, gamma=gamma, delta=delta)
        closed_form = kappa * np.cbrt(4.0) / (3.0 * gamma ** (2.0 / 3.0) * np.cbrt(delta))
        assert p_of_R(r_star(agg0), agg0) == pytest.approx(closed_form, rel=1e-12)
    agg0 = AggregateConstants(kappa=0.5, beta=0.0, gamma=1.0, delta=1e-3)
    peak = p_of_R(r_star(agg0), agg0)
    reduced = feasible_window_condition(agg0, h0=0.9 * peak)
    assert reduced.satisfied
    assert reduced.margin == pytest.approx(0.1 * peak, rel=1e-12)
    # strictness: sitting exactly on the peak does not qualify
    boundary = feasible_window_condition(agg0, h0=peak)
    assert not boundary.satisfied and boundary.margin == 0.0


def test_recovery_coupling():
    assert recovery_coupling_condition(3.75, 1.0).satisfied
    edge = recovery_coupling_condition(math.sqrt(2.0), 1.0)
    assert edge.satisfied and edge.margin == 0.0
    assert not recovery_coupling_condition(1.0, 1.0).satisfied


def test_r_bounds_frozen_and_residuals():
    lower, upper = r_bounds(AGG, 1.0)
    assert lower == pytest.approx(R_LOWER, rel=1e-10)
    assert upper == pytest.approx(R_UPPER, rel=1e-10)
    assert lower < R_STAR < upper
    assert abs(p_of_R(lower, AGG) - 1.0) <= 1e-10
    assert abs(p_of_R(upper, AGG) - 1.0) <= 1e-10


def test_r_bounds_degenerate_and_errors():
    peak = p_of_R(r_star(AGG), AGG)
    lower, upper = r_bounds(AGG, peak)
    assert lower == upper == r_star(AGG)
    with pytest.raises(ValueError):
        r_bounds(AGG, peak * 1.0001)
    with pytest.raises(ValueError):
        r_bounds(AGG, 0.0)
    # raising the load level narrows the certifiable bracket
    tight = r_bounds(AGG, 1.5)
    assert tight[0] > R_LOWER and tight[1] < R_UPPER


def test_t_star_frozen_and_boundary():
    ceiling = t_star(R_STAR, AGG, RATE, BOUNDS)
    assert ceiling == pytest.approx(T_STAR, rel=1e-10)
    assert abs(h_of_T(ceiling, RATE) - p_of_R(R_STAR, AGG)) <= 1e-10
    lower, upper = BOUNDS
    assert t_star(lower, AGG, RATE, BOUNDS) == pytest.approx(0.0, abs=1e-8)
    assert t_star(upper, AGG, RATE, BOUNDS) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError, match="outside the certifiable bracket"):
        t_star(upper * 1.01, AGG, RATE, BOUNDS)


def test_bracket_failures_name_the_missing_root():
    # each walk takes 200 halvings or doublings: the gain falls to about 1e-60
    # at r* / 2^200 but only to about 1e-30 at r* 2^200, so a load level of
    # 1e-65 is never reached below the peak and 1e-45 never above it; a
    # ceiling target above h(2^199) is out of reach of the period walk
    flat = AggregateConstants(kappa=1.0, beta=0.0, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError, match="could not bracket the lower crossing radius"):
        r_bounds(flat, 1e-65)
    with pytest.raises(ValueError, match="could not bracket the upper crossing radius"):
        r_bounds(flat, 1e-45)
    steep = AggregateConstants(kappa=1e70, beta=0.0, gamma=1.0, delta=1e-3)
    with pytest.raises(ValueError, match="could not bracket the period ceiling"):
        t_star(r_star(steep), steep, 1e-65, r_bounds(steep, h_of_T(0.0, 1e-65)))


def test_periods_below_ceiling_are_admissible():
    """The trapping condition h(T) <= p(R*) holds up to the period ceiling and fails past it."""
    gain = p_of_R(R_STAR, AGG)
    for frac in (0.25, 0.5, 1.0):
        load = h_of_T(frac * T_STAR, RATE)
        assert load <= gain, f"period fraction {frac} should be admissible"
    assert h_of_T(1.01 * T_STAR, RATE) > gain


# epsilon 0.032, xi 3.75, C 1, u_tr 25 and u_pr 100
MODEL = feasible_model()
EMB = EmbeddingConstants(
    kappa=0.5, k1=1.0, trace_norm=1.0, domain_measure=1.0, s_sup=1.0, phi_norm=0.005
)


def _embedding_with(name, value):
    return lambda: dataclasses.replace(EMB, **{name: value})


@pytest.mark.parametrize(
    "build, message",
    [
        *(
            (_embedding_with(name, 0.0), f"{name} must be positive, got 0.0")
            for name in ("kappa", "k1", "trace_norm", "domain_measure")
        ),
        *(
            (_embedding_with(name, -1e-9), f"{name} must be nonnegative, got -1e-09")
            for name in ("s_sup", "phi_norm")
        ),
        (lambda: p_of_R(-1e-3, AGG), "radii must be nonnegative"),
        (lambda: p_of_R(np.array([0.0, -1e-3]), AGG), "radii must be nonnegative"),
    ],
)
def test_window_inputs_out_of_range_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


_positive = st.floats(min_value=1e-2, max_value=1e2)


@settings(max_examples=200, deadline=None)
@given(
    amplitude=st.floats(min_value=1.0, max_value=200.0),
    u_res=st.floats(min_value=-100.0, max_value=0.0),
    threshold=st.floats(min_value=0.05, max_value=0.95),
    epsilon=st.floats(min_value=1e-3, max_value=1.0),
    xi=st.floats(min_value=0.1, max_value=10.0),
    capacitance=st.floats(min_value=0.1, max_value=10.0),
    a1=st.floats(min_value=1e-4, max_value=10.0),
    emb=st.builds(
        EmbeddingConstants,
        kappa=st.floats(min_value=0.05, max_value=1.0),
        k1=_positive,
        trace_norm=_positive,
        domain_measure=_positive,
        s_sup=_positive,
        phi_norm=_positive,
    ),
)
def test_a2_bound_frozen_and_consistency(
    amplitude, u_res, threshold, epsilon, xi, capacitance, a1, emb
):
    # frozen from a scipy.optimize.brentq inversion of the reduced window
    # condition for a2 at a1 = 0.0125 (independent of the prefactor algebra)
    assert a2_bound(0.0125, MODEL, EMB) == pytest.approx(0.13121808834803278, rel=1e-12)
    assert a2_bound(0.0, MODEL, EMB) == 0.0
    phys = PhysiologicalParameters(
        u_res=u_res, u_peak=u_res + amplitude, a=threshold,
        c1=1.0, c2=1.0, c3=1.0, b=1.0, C_m=capacitance,
    )
    d = derive_parameters(phys, epsilon=epsilon, xi=xi)
    ceiling = a2_bound(a1, d, emb)
    assert ceiling > 0.0
    # just below the ceiling the window opens; just above it, it closes
    assert reduced_window(d, emb, a1, (1.0 - 1e-9) * ceiling).satisfied
    assert not reduced_window(d, emb, a1, (1.0 + 1e-9) * ceiling).satisfied


def test_a2_bound_slope_and_prefactors():
    # for large a1 the drive term in delta is negligible and the ceiling
    # grows linearly, so two decades in a1 give two decades in the bound
    ratio = a2_bound(1e4, MODEL, EMB) / a2_bound(1e2, MODEL, EMB)
    assert 95.0 < ratio < 100.5, f"asymptotic ratio {ratio:.2f}"
    arr = a2_bound(np.array([0.0, 1.0, 2.0]), MODEL, EMB)
    assert arr.shape == (3,) and arr[0] == 0.0
    with pytest.raises(ValueError):
        a2_bound(-0.5, MODEL, EMB)


def test_a2_bound_rejects_a_zero_drive():
    undriven = dataclasses.replace(EMB, s_sup=0.0)
    with pytest.raises(ValueError, match="boundary-drive product"):
        a2_bound(np.array([0.01, 0.02]), MODEL, undriven)


def test_a2_bound_rejects_an_overflowing_ceiling_without_warnings():
    """A ceiling past the float range raises, naming the first such a1, for a
    scalar and for an array a1, and NumPy warns of nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^a2 ceiling at a1 = 1e\+300 is inf, not finite$"):
            a2_bound(1e300, MODEL, EMB)
        with pytest.raises(ValueError, match=r"^a2 ceiling at a1 = 1e\+300 is inf"):
            a2_bound(np.array([0.0, 0.01, 1e300, 1e301]), MODEL, EMB)
        assert np.isfinite(a2_bound(1e200, MODEL, EMB))


def test_build_report_feasible():
    """The chain cmd_feasibility builds its report from, on an open window."""
    h0 = h_of_T(0.0, RATE)
    assert h0 == pytest.approx(1.0, rel=1e-15)
    rs = r_star(AGG)
    assert feasible_window_condition(AGG, H0).satisfied
    assert feasible_window_condition(dataclasses.replace(AGG, beta=0.0), h0).satisfied
    assert recovery_coupling_condition(3.75, 1.0).satisfied
    lower, upper = r_bounds(AGG, h0)
    assert lower < rs < upper
    assert t_star(rs, AGG, RATE, (lower, upper)) == pytest.approx(T_STAR, rel=1e-10)
    h_curve = h_of_T(np.linspace(0.0, 5.0, 256), RATE)
    p_curve = p_of_R(np.linspace(0.0, 0.5, 256), AGG)
    assert h_curve.shape == p_curve.shape == (256,)
