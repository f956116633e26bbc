"""Reaction terms, parameter derivation, and the polynomial growth bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monorhythm.ionic import (
    DerivedParameters,
    PhysiologicalParameters,
    derive_parameters,
    reaction,
    reaction_constants,
    rescale_period,
    with_reaction,
)

from oracles import f_ion_raw, g_raw, reaction_expanded
from systems import feasible_model, linear_model


def make_params(**overrides):
    """Defaults mirror the shipped configuration: amplitude-100 potential range."""
    kw = dict(u_res=0.0, u_peak=100.0, a=0.25, c1=125.0, c2=100.0, c3=1.0, b=1.0)
    kw.update(overrides)
    return PhysiologicalParameters(**kw)


EPSILON, XI = 0.032, 3.75


def test_derivation_hand_example():
    # hand evaluation of the defining formulas with u_peak - u_res = 2
    phys = PhysiologicalParameters(u_res=0.0, u_peak=2.0, a=0.25, c1=1.0, c2=1.0, c3=1.0, b=1.0)
    d = derive_parameters(phys, EPSILON, XI)
    assert d.a1 == pytest.approx(0.25, rel=1e-15)
    assert d.u_tr == pytest.approx(0.5, rel=1e-15)
    assert d.u_pr == pytest.approx(2.0, rel=1e-15)
    # c4 = a1 u_tr u_pr = 0.25 enters only through lam0 = epsilon c4 / C
    assert d.lam0 == pytest.approx(EPSILON * 0.25, rel=1e-15)
    assert (d.epsilon, d.xi) == (EPSILON, XI)


def test_unit_amplitude_gives_unit_coefficients():
    phys = make_params(u_res=0.0, u_peak=1.0, c1=1.0, c2=1.0)
    d = derive_parameters(phys, EPSILON, XI)
    assert d.a1 == 1.0
    assert d.a2 == 1.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PhysiologicalParameters(u_res=1.0, u_peak=1.0, a=0.25, c1=1.0, c2=1.0, c3=1.0, b=1.0)
    with pytest.raises(ValueError):
        make_params(a=1.5)
    with pytest.raises(ValueError):
        make_params(c3=0.0)
    with pytest.raises(ValueError):
        derive_parameters(make_params(), epsilon=0.0, xi=1.0)


def test_zero_reaction_coefficients_allowed():
    d = derive_parameters(make_params(c1=0.0, c2=0.0), EPSILON, XI)
    assert d.a1 == 0.0 and d.a2 == 0.0 and d.lam0 == 0.0


@pytest.mark.parametrize("field", ["c1", "c2"])
def test_negative_reaction_constant_rejected(field):
    with pytest.raises(ValueError, match="^c1 and c2 must be nonnegative$"):
        make_params(**{field: -1.0})


def test_c4_override():
    d = derive_parameters(make_params(c1=0.0, c2=0.0), EPSILON, XI, c4_override=31.25)
    assert d.lam0 == EPSILON * 31.25
    assert d.a1 == 0.0


def test_model_moved_to_its_own_reaction_is_unchanged():
    """The parameter-region sweep evaluates the model with derive_parameters' arithmetic."""
    d = feasible_model()
    assert with_reaction(d, d.a1, d.a2) == d
    # elementwise on an a1 grid, each entry is the scalar evaluation
    swept = with_reaction(d, np.array([0.0, d.a1, 0.0125]), d.a2)
    assert (swept.lam0[1], swept.A1[1], swept.A2[1]) == (d.lam0, d.A1, d.A2)
    # the linear model pins c4 by override, so its lam0 needs the same override
    d = linear_model()
    fields = reaction_constants(d.a1, d.a2, d.u_tr, d.u_pr, d.epsilon, d.xi, d.C, 31.25)
    assert fields == {"lam0": d.lam0, "A1": d.A1, "A2": d.A2, "A3": d.A3}


def test_pinned_c4_survives_the_move_to_new_reaction_coefficients():
    """The model keeps its configured c4, so moving it keeps lam0 pinned."""
    d = linear_model()
    assert d.c4_override == 31.25 and d.lam0 == 1.0
    assert with_reaction(d, d.a1, d.a2) == d
    swept = with_reaction(d, np.array([0.0, 0.0125, 0.05]), 0.0)
    assert swept.lam0 == d.lam0
    assert swept.A1[0] == 0.0 < swept.A1[1] < swept.A1[2]


def test_f_ion_raw_roots():
    # the raw-unit reference: zero at rest for any w, and at threshold and peak
    phys = make_params()
    u_th = phys.u_res + phys.a * (phys.u_peak - phys.u_res)
    assert f_ion_raw(phys.u_res, 7.3, phys) == 0.0
    assert f_ion_raw(u_th, 0.0, phys) == 0.0
    assert f_ion_raw(phys.u_peak, 0.0, phys) == 0.0


def test_f_ion_raw_value():
    # a1=1, a2=1, u_res=0, u_th=0.5, u_peak=1: f(2, 1) = 2*1.5*1 + 2*1 = 5
    phys = PhysiologicalParameters(u_res=0.0, u_peak=1.0, a=0.5, c1=1.0, c2=1.0, c3=1.0, b=1.0)
    assert f_ion_raw(2.0, 1.0, phys) == pytest.approx(5.0, rel=1e-15)


def test_g_raw():
    phys = make_params(b=1.0, c3=1.0)
    assert g_raw(phys.u_res, 0.0, phys) == 0.0
    assert g_raw(phys.u_res + 2.0, 1.0, phys) == pytest.approx(1.0, rel=1e-15)
    # linear in both arguments
    assert g_raw(phys.u_res + 4.0, 2.0, phys) == pytest.approx(
        2.0 * g_raw(phys.u_res + 2.0, 1.0, phys)
    )


def test_reaction_zero_at_zero():
    d = derive_parameters(make_params(), EPSILON, XI)
    assert reaction(d)(0.0, -3.0) == 0.0


def test_reaction_hand_value():
    # direct formula evaluation with synthetic constants u_pr + u_tr = 0
    d = DerivedParameters(
        u_tr=0.0, u_pr=0.0, a1=1.0, a2=1.0, lam0=0.0, A1=0.0, A2=0.0, A3=0.0,
        epsilon=1.0, xi=1.0, C=1.0, b=1.0, c3=1.0, sigma_const=1.0,
    )
    assert reaction(d)(2.0, 3.0) == pytest.approx(14.0, rel=1e-15)


def test_rescale_period():
    d = derive_parameters(make_params(), epsilon=0.032, xi=1.0)
    assert rescale_period(0.8, d) == pytest.approx(25.0)
    ident = derive_parameters(make_params(), epsilon=1.0, xi=1.0)
    assert rescale_period(0.8, ident) == 0.8
    with pytest.raises(ValueError):
        rescale_period(0.0, d)


@given(
    u=st.floats(-8.0, 8.0, allow_nan=False),
    w=st.floats(-8.0, 8.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_transformed_consistent_with_raw(u, w):
    """The linear shift lam0 u = (eps c4 / C) u plus reaction(d)(u, w) must equal
    (eps / C) * f_ion_raw(u + u_res, xi * w) identically."""
    phys = make_params()
    d = derive_parameters(phys, EPSILON, XI)
    lhs = d.lam0 * u + reaction(d)(u, w)
    rhs = (EPSILON / d.C) * f_ion_raw(u + phys.u_res, XI * w, phys)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(
    u_res=st.floats(-80.0, 20.0),
    amp=st.floats(0.5, 150.0),
    c1=st.floats(0.1, 50.0),
    c2=st.floats(0.1, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_scale_consistency(u_res, amp, c1, c2):
    """Doubling the potential amplitude quarters a1 and halves a2."""
    base = PhysiologicalParameters(
        u_res=u_res, u_peak=u_res + amp, a=0.3, c1=c1, c2=c2, c3=1.0, b=1.0
    )
    wide = PhysiologicalParameters(
        u_res=u_res, u_peak=u_res + 2.0 * amp, a=0.3, c1=c1, c2=c2, c3=1.0, b=1.0
    )
    d1, d2 = derive_parameters(base, EPSILON, XI), derive_parameters(wide, EPSILON, XI)
    assert d2.a1 == pytest.approx(d1.a1 / 4.0, rel=1e-12)
    assert d2.a2 == pytest.approx(d1.a2 / 2.0, rel=1e-12)


@given(
    u_res=st.floats(-80.0, 20.0),
    amp=st.floats(0.5, 150.0),
    c1=st.floats(0.1, 50.0),
    c2=st.floats(0.1, 50.0),
    u=st.floats(-8.0, 8.0),
    w=st.floats(-8.0, 8.0),
)
@example(
    u_res=0.0,
    amp=11.559545906762366,
    c1=1.0,
    c2=2.0776104153189454,
    u=2.225073858507203e-309,
    w=2.0776104153189454,
)
@settings(max_examples=200, deadline=None)
def test_factored_reaction_matches_expanded(u_res, amp, c1, c2, u, w):
    """The product-only form of reaction(d) agrees with the expanded cubic to
    a few ulps of its largest term, on sign-mixed arrays, and vanishes at u = 0.
    Below the normal range an ulp is absolute, one subnormal spacing, so the
    bound has a floor of a few of those; it is inert for normal results."""
    d = derive_parameters(
        PhysiologicalParameters(u_res=u_res, u_peak=u_res + amp, a=0.3, c1=c1, c2=c2, c3=1.0, b=1.0),
        EPSILON,
        XI,
    )
    u_arr = np.array([u, -u, 0.0, 0.0])
    w_arr = np.array([w, -w, w, -w])
    factored = reaction(d)(u_arr, w_arr)
    expanded = reaction_expanded(u_arr, w_arr, d)
    s = EPSILON / d.C
    scale = s * (
        d.a1 * np.abs(u_arr) ** 3
        + d.a1 * (d.u_pr + d.u_tr) * u_arr**2
        + np.abs(XI * d.a2 * u_arr * w_arr)
    )
    ulp_floor = 4 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(factored - expanded) <= 4e-15 * scale + ulp_floor)
    assert np.all(factored[2:] == 0.0)


def test_growth_bounds_hold_on_samples():
    """The split f = f1(u) + f2(u) * (xi w) obeys |f1| <= A1 + l2 |u|^3 and
    |f2| <= a2 |u|; the recovery part obeys |eps b u| <= (b/2)(1 + u^2).

    Valid whenever eps/C <= 1 and eps <= 1, which the shipped defaults satisfy.
    """
    d = derive_parameters(make_params(), EPSILON, XI)
    rng = np.random.default_rng(20240817)
    u = rng.uniform(-30.0, 30.0, size=10_000)
    f1 = reaction(d)(u, np.zeros_like(u))
    f2 = (reaction(d)(u, np.ones_like(u)) - f1) / XI
    # the cubic coefficient of the f1 bound, the a1 share of A2
    l2 = d.a1 * (EPSILON / d.C) * (
        1.0 + (2.0 / 3.0) * (d.u_tr + d.u_pr) + d.u_tr * d.u_pr / 3.0
    )
    assert np.all(np.abs(f1) <= d.A1 + l2 * np.abs(u) ** 3 + 1e-12)
    assert np.all(np.abs(f2) <= d.a2 * np.abs(u) + 1e-12)
    g1 = EPSILON * d.b * u
    assert np.all(np.abs(g1) <= (d.b / 2.0) * (1.0 + u**2) + 1e-12)
