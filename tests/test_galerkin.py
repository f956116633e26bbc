"""Truncated ODE assembly, the fixed-step integrator, and the size monitors."""

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorhythm import galerkin
from monorhythm.galerkin import (
    BlowUpError,
    GalerkinSystem,
    apriori_monitor,
    check_rk4_step,
    integrate_cauchy,
    refinement_gaps,
    rhs,
)
from monorhythm.ionic import PhysiologicalParameters, derive_parameters
from monorhythm.spectral import Stimulus, build_basis, project_nonlinearity

from systems import EPSILON, GEOM, PERIOD, PHI, XI, feasible_model, feasible_system, linear_system


def zero_state(sys):
    return np.zeros(2 * sys.n_modes)


def state(u, w):
    """One state vector: the potential coefficients, then the recovery ones."""
    return np.concatenate([u, w])


def bump_coeffs(basis):
    """Modal coefficients of a smooth Gaussian bump at x = 0.3, by the basis quadrature."""
    x = (np.arange(basis.n_quad) + 0.5) * (GEOM.L / basis.n_quad)
    values = 0.01 * np.exp(-0.5 * ((x - 0.3) / 0.15) ** 2)
    return (values * basis.quad_weights) @ basis.psi_quad


def pulse_system():
    """The feasible model at m = 8 under a narrow pulse drive."""
    d = feasible_model()
    stim = Stimulus("pulse", period=PERIOD, phi_value=PHI, amplitude=20.0, center=0.3, width=0.05)
    return GalerkinSystem(build_basis(GEOM, 8, d), d, stim)


def test_rhs_zero_equilibrium():
    sys = linear_system(s0=0.0)
    dx = rhs(sys, 0.0, np.zeros(10))
    assert np.all(dx == 0.0)


def test_rhs_linear_block_structure():
    sys = linear_system(s0=0.0)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(5)
    w = rng.standard_normal(5)
    dx = rhs(sys, 0.3, state(u, w))
    du, dw = dx[:5], dx[5:]
    assert np.allclose(du, -sys.basis.lambdas * u, rtol=0.0, atol=1e-14)
    eps, xi = EPSILON, XI
    assert np.allclose(dw, eps * 1.0 * (u - xi * 1.0 * w), rtol=0.0, atol=1e-14)


def test_rhs_zero_state_sees_stimulus_trace():
    sys = linear_system(s0=2.0)
    dx = rhs(sys, 0.0, np.zeros(10))
    assert np.allclose(dx[:5], 2.0 * sys.trace_vector, rtol=1e-15)
    assert np.all(dx[5:] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, 16),
    layout=st.sampled_from(["lone", "stacked", "ladder"]),
    amplitude=st.floats(0.0, 8.0),
    s=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stage_reaction_is_the_projected_nonlinearity(m, layout, amplitude, s, seed):
    """The fused stage and Picard's project_nonlinearity are two copies of one
    midpoint-rule projection: with its linear part and drive taken off, the
    stage is -project_nonlinearity in the potential half and zero in the
    recovery half, to 1e-13 of the largest term (5.9e-16 measured over 3000
    draws). That holds for a lone state, node-stacked states, and a masked
    ladder, whose member k is zero-padded and has its reaction zeroed past
    its own size."""
    sys = feasible_system(m=m)
    n = sys.n_modes
    rng = np.random.default_rng(seed)
    shapes = {"lone": (2 * n,), "stacked": (7, 2 * n), "ladder": (3, 2 * n)}
    x = amplitude * rng.standard_normal(shapes[layout])
    drive = s * np.concatenate([sys.trace_vector, np.zeros(n)])
    mask = 1.0
    stage = sys.stage
    if layout == "ladder":
        sizes = np.sort(rng.integers(0, m + 1, size=3))
        mask = np.tile(np.arange(n) <= sizes[:, None], 2).astype(float)
        x *= mask
        drive = drive * mask
        stage = galerkin._stage_kernel(sys, mask)
    u, w = x[..., :n], x[..., n:]
    linear = np.concatenate(
        [-sys.basis.lambdas * u, sys.recovery_gain * u - sys.recovery_rate * w], axis=-1
    )
    reaction = stage(s, x) - linear - drive
    expected = mask * np.concatenate(
        [-project_nonlinearity(sys.basis, u, w, sys.d), np.zeros_like(w)], axis=-1
    )
    scale = max(np.max(np.abs(expected)), np.max(np.abs(linear)), np.max(np.abs(drive)))
    assert np.max(np.abs(reaction - expected)) <= 1e-13 * scale


def test_linear_decay_closed_form():
    """Decoupled decay: coefficients follow u0 * exp(-lambda t) to 1e-8 at dt = T/2048."""
    sys = linear_system(s0=0.0, phi=0.0)
    u0 = np.array([1.0, -0.5, 2.0, 0.25, -1.5])
    traj = integrate_cauchy(sys, state(u0, np.zeros(5)), PERIOD, dt=PERIOD / 2048)
    exact = u0 * np.exp(-sys.basis.lambdas * PERIOD)
    assert np.max(np.abs(traj.u[-1] - exact)) < 1e-8


def test_linear_recovery_closed_form():
    """With the potential held at its rest point, w relaxes to u / (xi c3)."""
    phys = PhysiologicalParameters(
        u_res=0.0, u_peak=100.0, a=0.25, c1=0.0, c2=0.0, c3=1.0, b=1.0, sigma_const=1.0
    )
    d = derive_parameters(phys, EPSILON, XI, c4_override=31.25)
    basis = build_basis(GEOM, 0, d)
    # pick the constant stimulus that makes u = 1 an exact equilibrium
    lam0 = basis.lambdas[0]
    b0 = 1.0 / np.sqrt(GEOM.L)
    stim = Stimulus("constant", period=2.0, phi_value=1.0, amplitude=lam0 / b0)
    sys = GalerkinSystem(basis, d, stim)
    traj = integrate_cauchy(sys, np.array([1.0, 0.0]), 200.0, dt=0.1)
    assert np.allclose(traj.u, 1.0, atol=1e-10)
    assert traj.w[-1, 0] == pytest.approx(1.0 / (XI * 1.0), rel=1e-8)


def test_zero_everything_stays_zero():
    sys = linear_system(s0=0.0, phi=0.0)
    traj = integrate_cauchy(sys, zero_state(sys), 3.0, dt=0.01)
    assert np.all(traj.u == 0.0) and np.all(traj.w == 0.0)


def test_final_time_hit_exactly_with_shortened_step():
    sys = linear_system(s0=0.0, phi=0.0)
    u0 = np.ones(5)
    traj = integrate_cauchy(sys, state(u0, np.zeros(5)), 1.0, dt=0.03)
    assert traj.times[-1] == 1.0
    assert traj.n_nodes == 35  # 33 whole steps, then a short 0.01 step
    assert np.allclose(np.diff(traj.times)[:-1], 0.03)
    exact = u0 * np.exp(-sys.basis.lambdas * 1.0)
    assert np.max(np.abs(traj.u[-1] - exact)) < 1e-5


@pytest.mark.parametrize("t1, dt, n_nodes", [(0.9, 0.3, 4), (0.7, 0.1, 8)])
def test_final_time_hit_exactly_when_steps_divide_up_to_rounding(t1, dt, n_nodes):
    """t1 / dt rounds to a whole step count, but t0 + n dt misses t1 by an ulp
    (0.8999999999999999 and 0.7000000000000001); the last node is still t1."""
    sys = linear_system(s0=0.0, phi=0.0)
    traj = integrate_cauchy(sys, zero_state(sys), t1, dt=dt)
    assert traj.times[-1] == t1
    assert traj.n_nodes == n_nodes
    assert np.allclose(np.diff(traj.times), dt, rtol=1e-12, atol=0.0)


def test_rk4_order_on_closed_form():
    sys = linear_system(s0=0.0, phi=0.0)
    u0 = np.array([1.0, -0.5, 2.0, 0.25, -1.5])
    exact = u0 * np.exp(-sys.basis.lambdas * PERIOD)
    errs = []
    for steps in (64, 128, 256):
        traj = integrate_cauchy(sys, state(u0, np.zeros(5)), PERIOD, dt=PERIOD / steps)
        errs.append(np.max(np.abs(traj.u[-1] - exact)))
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 10.0 < ratio < 25.0, f"step halving gave error ratio {ratio:.2f}"


def test_rhs_matches_flow_derivative():
    sys = feasible_system(m=4)
    rng = np.random.default_rng(4)
    u0 = 0.01 * rng.standard_normal(5)
    w0 = 0.01 * rng.standard_normal(5)
    x0 = state(u0, w0)
    dx = rhs(sys, 0.0, x0)
    errs = []
    for dt in (2e-3, 1e-3):
        traj = integrate_cauchy(sys, x0, dt, dt=dt)
        errs.append(np.max(np.abs((traj.x[-1] - x0) / dt - dx)))
    # the one-sided difference is first-order accurate in dt
    ratio = errs[0] / errs[1]
    assert 1.5 < ratio < 2.5, f"flow-derivative error ratio {ratio:.2f}"
    assert errs[0] < 5e-3


def test_blow_up_detected_with_time():
    """A runaway from a large start, at a step well inside RK4's stability
    limit (lambda_max dt = 0.19), so the growth is the reaction's. The block
    check reports the first bad row, the one a per-step check stops at, in
    a full 64-step block and in a last, partial one."""
    sys = feasible_system(m=4)
    x0 = state(100.0 * np.ones(5), np.zeros(5))
    with np.errstate(over="ignore", invalid="ignore"):
        per_step = rk4_on_public_rhs(sys, np.linspace(0.0, 2.0, 65), x0)
    peaks = np.max(np.abs(per_step), axis=1)
    first = int(np.argmax(~(peaks <= 1e12)))
    for t1 in (2.0, 0.0625):
        with pytest.raises(BlowUpError) as info:
            integrate_cauchy(sys, x0, t1, dt=2.0 / 64)
        assert info.value.time == 0.0625 == first * 2.0 / 64
        assert info.value.magnitude == peaks[first]
        assert info.value.m == 4


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 160), factor=st.floats(0.5, 2.0))
def test_step_past_the_stability_limit_is_rejected_before_stepping(m, factor):
    """A step is rejected exactly when dt max(lambda_max, eps b xi c3) passes
    RK4's limit, and the error names the largest stable dt T/N that divides
    the period: it is accepted, and T/(N - 1) is not."""
    sys = feasible_system(m=m)
    fastest = max(float(np.max(sys.basis.lambdas)), sys.recovery_rate)
    dt = factor * 2.7852935634 / fastest
    if dt * fastest <= 2.7852935634:
        check_rk4_step(sys, dt)
        return
    with pytest.raises(ValueError, match="stability limit 2.7852935634") as info:
        check_rk4_step(sys, dt)
    pattern = r"largest stable dt that divides the period is T/(\d+) = (\S+)$"
    named = re.search(pattern, str(info.value))
    n_steps, largest = int(named.group(1)), float(named.group(2))
    assert largest == PERIOD / n_steps
    check_rk4_step(sys, largest)
    if n_steps > 1:
        with pytest.raises(ValueError, match="stability limit"):
            check_rk4_step(sys, PERIOD / (n_steps - 1))
    with pytest.raises(ValueError, match="stability limit"):
        integrate_cauchy(sys, zero_state(sys), 1.0, dt)  # rejected before its first step


def rk4_on_public_rhs(sys, times, x):
    """Classical RK4 over the given nodes of one state, calling rhs per stage."""
    xs = [x]
    for t, t_next in zip(times[:-1], times[1:]):
        h = t_next - t
        k1 = rhs(sys, t, x)
        k2 = rhs(sys, t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(sys, t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(sys, t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x)
    return np.array(xs)


def test_integration_equals_rk4_on_public_rhs():
    """The drive sampled once per integration gives the bits of rhs sampling it
    per stage, under a pulse drive with a shortened last step (dt = 0.03 does
    not divide the period)."""
    sys = pulse_system()
    rng = np.random.default_rng(12)
    u0 = 0.01 * rng.standard_normal(9)
    w0 = 0.01 * rng.standard_normal(9)
    traj = integrate_cauchy(sys, state(u0, w0), PERIOD, dt=0.03)
    assert traj.times[-1] == PERIOD and traj.times[-1] - traj.times[-2] < 0.03
    assert np.array_equal(traj.x, rk4_on_public_rhs(sys, traj.times, state(u0, w0)))


def system_arrays(sys):
    basis = sys.basis
    return [basis.lambdas, basis.quad_weights, basis.psi_quad, basis.trace_values, sys.trace_vector]


@pytest.mark.parametrize("layout", ["lone", "stacked", "ladder"])
def test_in_place_stage_and_step_leave_their_inputs_alone(layout):
    """The stage and the RK4 step build their results in place, in scratch
    arrays of their own. Neither writes into the state, the drive column or
    the system's arrays it was given, and every stage value and step result
    is a new array: no two share memory, so a later step cannot overwrite
    an earlier state."""
    sys = pulse_system()
    n = sys.n_modes
    rng = np.random.default_rng(5)
    shapes = {"lone": (2 * n,), "stacked": (5, 2 * n), "ladder": (3, 2 * n)}
    x = 0.01 * rng.standard_normal(shapes[layout])
    s = 0.7
    stage = sys.stage
    if layout == "stacked":
        s = sys.stim(np.linspace(0.0, PERIOD, 5, endpoint=False)[:, None])
    if layout == "ladder":
        mask = np.tile(np.arange(n) <= np.array([2, 5, 8])[:, None], 2).astype(float)
        x *= mask
        stage = galerkin._stage_kernel(sys, mask)
    inputs = [x, np.asarray(s), *system_arrays(sys)]
    before = [a.tobytes() for a in inputs]
    made = [stage(s, x)]
    state = x
    for h in (0.01, 0.02, 0.005):
        state = galerkin._rk4_step(stage, (0.1, 0.2, 0.3), state, h)
        made.append(state)
    assert [a.tobytes() for a in inputs] == before
    arrays = [x, *made]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_integration_and_ladder_leave_their_inputs_alone():
    """integrate_cauchy and refinement_gaps keep their inputs bit-identical,
    and each row of a trajectory is its own state: the rows are those of
    RK4 steps taken one at a time on fresh arrays, and consecutive rows
    differ."""
    sys = pulse_system()
    x0 = 0.01 * np.random.default_rng(6).standard_normal(2 * sys.n_modes)
    m_list = np.array([2, 4, 8])
    inputs = [x0, m_list, *system_arrays(sys)]
    before = [a.tobytes() for a in inputs]
    traj = integrate_cauchy(sys, x0, 0.3, dt=0.03)
    refinement_gaps(sys, m_list, 0.3, 0.03)
    starts = np.array([0.0, 0.1])
    inputs.append(starts)
    before.append(starts.tobytes())
    integrate_cauchy(sys, np.stack([x0, x0]), 0.3, 0.03, starts)
    assert [a.tobytes() for a in inputs] == before
    assert np.array_equal(traj.x, rk4_on_public_rhs(sys, traj.times, x0.copy()))
    assert np.all(np.any(traj.x[1:] != traj.x[:-1], axis=1))


@pytest.mark.parametrize(
    "t1, dt, message",
    [
        (PERIOD, 0.0, "dt must be positive, got 0.0"),
        (PERIOD, -0.1, "dt must be positive, got -0.1"),
        (0.0, 0.1, "end time 0.0 must exceed start time 0"),
        (-1.0, 0.1, "end time -1.0 must exceed start time 0"),
    ],
)
def test_integration_rejects_nonpositive_step_or_end_time(t1, dt, message):
    sys = feasible_system(m=4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate_cauchy(sys, zero_state(sys), t1, dt)


def test_integration_rejects_mismatched_state_shapes():
    """A lone state or a stack (k, 2n) with the wrong state length, an empty
    stack or one with a third axis is named against both accepted shapes."""
    sys = feasible_system(m=4)
    shapes = ((5,), (12,), (3, 12), (3, 1, 10), (0, 10), ())
    for x0 in map(np.zeros, shapes):
        with pytest.raises(ValueError, match=r"expects \(10,\) or a stack \(k, 10\)$"):
            integrate_cauchy(sys, x0, PERIOD, dt=0.1)


@pytest.mark.parametrize("m", range(13))
def test_stacked_integration_members_equal_their_lone_integrations(m):
    """Each member of a stack steps on its own row axis, so at m <= 12 its
    rows are its lone integration's bit for bit, on the nonlinear system at
    T/1024 and on the reaction-free one at T/64; ``u`` and ``w`` slice each
    member's state."""
    rng = np.random.default_rng(m)
    for sys, n_steps in ((feasible_system(m=m), 1024), (linear_system(m=m), 64)):
        dt = PERIOD / n_steps
        stack = 0.01 * rng.standard_normal((3, 2 * sys.n_modes))
        stack[2] = 0.0
        traj = integrate_cauchy(sys, stack, PERIOD, dt)
        assert traj.x.shape == (n_steps + 1, 3, 2 * sys.n_modes)
        for k, x0 in enumerate(stack):
            alone = integrate_cauchy(sys, x0, PERIOD, dt)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.x[:, k], alone.x), f"member {k} at m = {m}"
            assert np.array_equal(traj.u[:, k], alone.u) and np.array_equal(traj.w[:, k], alone.w)


def test_stacked_blow_up_is_the_members_own():
    """A runaway beside a calm member raises the error it raises alone: its
    time, its peak and m."""
    sys = feasible_system(m=4)
    runaway = state(100.0 * np.ones(5), np.zeros(5))
    with pytest.raises(BlowUpError) as lone:
        integrate_cauchy(sys, runaway, PERIOD, dt=PERIOD / 64)
    with pytest.raises(BlowUpError) as stacked:
        integrate_cauchy(sys, np.stack([zero_state(sys), runaway]), PERIOD, dt=PERIOD / 64)
    assert str(stacked.value) == str(lone.value)
    assert vars(stacked.value) == vars(lone.value)


def test_period_map_linear_contraction():
    """Seeding mode i decays by exp(-lambda_i T); the recovery pickup is the
    explicit convolution of the two exponentials."""
    sys = linear_system(s0=0.0, phi=0.0)
    T = PERIOD
    rate_w = EPSILON * 1.0 * XI * 1.0
    for i in range(3):
        u0 = np.zeros(5)
        u0[i] = 1.0
        traj = integrate_cauchy(sys, state(u0, np.zeros(5)), T, dt=T / 2048)
        assert traj.times[-1] == T
        u_end, w_end = traj.u[-1], traj.w[-1]
        lam = sys.basis.lambdas[i]
        assert u_end[i] == pytest.approx(np.exp(-lam * T), rel=1e-9)
        expected_w = EPSILON * (np.exp(-lam * T) - np.exp(-rate_w * T)) / (rate_w - lam)
        assert w_end[i] == pytest.approx(expected_w, rel=1e-7)
        mask = np.ones(5, dtype=bool)
        mask[i] = False
        assert np.max(np.abs(u_end[mask])) < 1e-13


def test_monitors_zero_trajectory():
    sys = linear_system(s0=0.0, phi=0.0)
    traj = integrate_cauchy(sys, zero_state(sys), 2.0 * PERIOD, dt=PERIOD / 256)
    rep, growth = apriori_monitor(sys, traj)
    assert rep["sup_state_sq"] == 0.0
    assert rep["l2_v_u"] == 0.0 and rep["l2_du"] == 0.0 and rep["l2_dw"] == 0.0
    assert not growth


def test_monitors_decay_peaks_at_start():
    sys = linear_system(s0=0.0, phi=0.0)
    u0 = np.array([1.0, -0.5, 2.0, 0.25, -1.5])
    traj = integrate_cauchy(sys, state(u0, np.zeros(5)), 2.0 * PERIOD, dt=PERIOD / 256)
    rep, growth = apriori_monitor(sys, traj)
    assert rep["sup_state_sq"] == pytest.approx(float(np.sum(u0**2)), rel=1e-12)
    assert not growth
    assert len(rep["per_period_sup"]) == 2
    assert rep["per_period_sup"][1] < rep["per_period_sup"][0]


def test_monitor_derivative_norms_match_per_node_rhs():
    """Reference: rhs called node by node. The monitor's one stacked call meets
    the basis in a matrix product instead, which may round apart in the last
    digits."""
    sys = pulse_system()
    traj = integrate_cauchy(sys, zero_state(sys), 1.5 * PERIOD, dt=PERIOD / 256)
    dx = np.array([rhs(sys, t, x) for t, x in zip(traj.times, traj.x)])
    du, dw = dx[:, :9], dx[:, 9:]
    rep, _ = apriori_monitor(sys, traj)
    ref_du = np.sqrt(np.trapezoid(np.sum(du**2, axis=1), x=traj.times))
    ref_dw = np.sqrt(np.trapezoid(np.sum(dw**2, axis=1), x=traj.times))
    assert rep["l2_du"] == pytest.approx(ref_du, rel=1e-13, abs=0.0)
    assert rep["l2_dw"] == pytest.approx(ref_dw, rel=1e-13, abs=0.0)


def padded_gap_oracle(m_list, amplitude, t1, dt):
    """Ladder gaps from one integrate_cauchy run per size, zero-padded to the largest size."""
    top = max(m_list)
    runs = []
    for m in m_list:
        sys = feasible_system(m=m, amplitude=amplitude)
        traj = integrate_cauchy(sys, np.zeros(2 * m + 2), t1, dt)
        padded = np.zeros((traj.n_nodes, 2, top + 1))
        padded[:, 0, : m + 1] = traj.u
        padded[:, 1, : m + 1] = traj.w
        runs.append(padded)
    gaps_sq = [np.sum((fine - coarse) ** 2, axis=-1) for coarse, fine in zip(runs, runs[1:])]
    return np.sqrt(np.trapezoid(np.stack(gaps_sq, axis=1), x=traj.times, axis=0))


@settings(max_examples=25, deadline=None)
@given(
    m_list=st.lists(st.integers(0, 16), min_size=2, max_size=5).map(sorted),
    amplitude=st.floats(0.0, 5.0),
)
def test_ladder_gaps_equal_separate_padded_runs(m_list, amplitude):
    """One ladder integration gives the gaps of one integrate_cauchy run per
    size, and the padded modes of every member stay exactly zero."""
    dt = PERIOD / 128
    sys = feasible_system(m=max(m_list), amplitude=amplitude)
    seen = []
    march = galerkin._march

    def watching(stage, stim, x, times, sizes):
        for k, block in march(stage, stim, x, times, sizes):
            seen.append(block.copy())
            yield k, block

    with patch.object(galerkin, "_march", watching):
        gaps = refinement_gaps(sys, m_list, 1.25, dt)
    assert gaps.shape == (len(m_list) - 1, 2)
    oracle = padded_gap_oracle(m_list, amplitude, 1.25, dt)
    np.testing.assert_allclose(gaps, oracle, rtol=1e-12, atol=0.0)
    # equal sizes step as one member
    sizes = sorted(set(m_list))
    states = np.concatenate(seen).reshape(-1, len(sizes), 2, max(m_list) + 1)
    for k, m in enumerate(sizes):
        assert np.all(states[:, k, :, m + 1 :] == 0.0)


def test_ladder_gap_zero_for_equal_sizes():
    gaps = refinement_gaps(feasible_system(m=8), (4, 4, 8, 8), PERIOD, PERIOD / 128)
    assert gaps[0].tolist() == [0.0, 0.0] and gaps[2].tolist() == [0.0, 0.0]
    assert np.all(gaps[1] > 0.0)


def test_ladder_checks_the_step_at_its_largest_size():
    """dt inside the limit of m = 8 but past that of m = 32 is rejected
    before stepping, and a size past the basis is refused."""
    sys = feasible_system(m=32)
    dt = 2.0 * 2.7852935634 / float(np.max(sys.basis.lambdas))
    check_rk4_step(feasible_system(m=8), dt)
    with pytest.raises(ValueError, match="stability limit"):
        refinement_gaps(sys, (8, 32), PERIOD, dt)
    with pytest.raises(ValueError, match="must lie in 0..32"):
        refinement_gaps(sys, (8, 33), PERIOD, PERIOD / 1024)


def test_ladder_blow_up_names_the_size():
    """Under a huge drive m = 8 runs away at t = 0.125, before m = 2 does
    (t = 0.25 on its own); the ladder reports m = 8 at its lone run's time."""
    sys = feasible_system(m=8, amplitude=2e6)
    with pytest.raises(BlowUpError, match="at m = 8") as info:
        refinement_gaps(sys, (2, 8), 2.0, 2.0 / 64)
    with pytest.raises(BlowUpError) as lone:
        integrate_cauchy(sys, zero_state(sys), 2.0, 2.0 / 64)
    assert info.value.m == lone.value.m == 8
    assert info.value.time == lone.value.time == 0.125
    assert info.value.magnitude == pytest.approx(lone.value.magnitude, rel=1e-9)


def test_members_follow_the_drive_from_their_own_start_times():
    """Each of K stacked members given start times steps as its own
    one-member march does, bit for bit, and members that start at the
    segment starts k T / K chain into one RK4 period: marching segment by
    segment from the period's start lands where one integration of the
    period does, to rounding. The nodes are each member's local times, and
    member 0, started at t = 0, takes a lone integration's steps bit for bit."""
    sys = pulse_system()
    n_seg, dt = 4, PERIOD / 256
    rng = np.random.default_rng(9)
    x = 0.01 * rng.standard_normal((n_seg, 2 * sys.n_modes))
    t0 = np.arange(n_seg) * (PERIOD / n_seg)
    traj = integrate_cauchy(sys, x, PERIOD / n_seg, dt, t0)
    assert traj.x.shape == (65, n_seg, 2 * sys.n_modes)
    for k in range(n_seg):
        alone = integrate_cauchy(sys, x[k : k + 1], PERIOD / n_seg, dt, t0[k : k + 1])
        assert np.array_equal(traj.x[:, k], alone.x[:, 0]), f"member {k}"
    chained = x[:1]
    for k in range(n_seg):
        chained = integrate_cauchy(sys, chained, PERIOD / n_seg, dt, t0[k : k + 1]).x[-1]
    period = integrate_cauchy(sys, x[0], PERIOD, dt)
    assert np.max(np.abs(chained[0] - period.x[-1])) <= 1e-12 * np.max(np.abs(period.x[-1]))
    assert np.array_equal(traj.times, period.times[:65])
    assert np.array_equal(traj.x[:, 0], period.x[:65])


def test_stacked_blow_up_names_the_member_and_its_own_time():
    """Under a constant drive a runaway started at t0 = 0.75 blows up
    0.0625 later, as the same start does alone from t = 0: the stack
    reports the member's own time, 0.8125, not its local one, and its
    size; a calm member beside it changes nothing."""
    d = feasible_model()
    stim = Stimulus("constant", period=PERIOD, phi_value=PHI, amplitude=1.0)
    sys = GalerkinSystem(build_basis(GEOM, 4, d), d, stim)
    runaway = state(100.0 * np.ones(5), np.zeros(5))
    with pytest.raises(BlowUpError) as lone:
        integrate_cauchy(sys, runaway, PERIOD, dt=PERIOD / 64)
    with pytest.raises(BlowUpError) as stacked:
        integrate_cauchy(
            sys, np.stack([zero_state(sys), runaway]), 1.0, PERIOD / 64, np.array([0.0, 0.75])
        )
    assert lone.value.time == 0.0625
    assert stacked.value.time == 0.75 + 0.0625
    assert stacked.value.m == 4
    assert stacked.value.magnitude == pytest.approx(lone.value.magnitude, rel=1e-9)


def test_start_times_need_a_stack_of_their_length_before_stepping(monkeypatch):
    """A lone state given start times, or start times whose shape is not the
    stack's (k,), raise before any step, as does a step past RK4's limit."""
    monkeypatch.setattr(galerkin, "_march", lambda *args: pytest.fail("a step was taken"))
    sys = feasible_system(m=4)
    x = np.zeros((2, 2 * sys.n_modes))
    with pytest.raises(ValueError, match="stability limit"):
        integrate_cauchy(sys, x, PERIOD, PERIOD / 2, np.zeros(2))
    cases = ((x[0], np.zeros(1)), (x[0], 0.0), (x, np.zeros(3)), (x, np.zeros((2, 1))), (x, 0.0))
    for states, starts in cases:
        with pytest.raises(ValueError, match=r"need shape \(k,\) beside a stack \(k, 10\), got "):
            integrate_cauchy(sys, states, PERIOD, PERIOD / 64, starts)


def test_refinement_differences_shrink():
    """Under the sinusoid drive, successive truncation doublings get closer."""
    gaps = refinement_gaps(feasible_system(m=16), (4, 8, 16), 2.0 * PERIOD, PERIOD / 512)
    assert gaps[1, 0] <= gaps[0, 0], f"refinement differences grew: {gaps[:, 0]}"
