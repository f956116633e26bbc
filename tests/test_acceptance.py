"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints exactly one verdict line so a log scrape shows the full
scoreboard. The measured quantity, its tolerance, the wall-clock runtime,
and the runtime budget all appear in that line. Assertions follow the
print, so a failing criterion still reports itself before pytest stops it.
"""

import time

import numpy as np

from monorhythm import periodic
from monorhythm.feasibility import (
    AggregateConstants,
    EmbeddingConstants,
    a2_bound,
    p_of_R,
    r_bounds,
    r_star,
    reduced_window,
    t_star,
)
from monorhythm.galerkin import apriori_monitor, integrate_cauchy, refinement_gaps
from monorhythm.periodic import (
    ct_norm,
    farkas_apply,
    orbit_gap,
    picard_solve,
    shooting_solve,
)
from monorhythm.spectral import build_basis

from oracles import cosine_product_integral, golden_section_max
from systems import EPSILON, GEOM, PERIOD, PHI, XI, feasible_model, feasible_system, linear_system

# critical radius for the shipped aggregate constants; frozen from the
# closed-form maximizer, cross-checked here against golden-section search
R_STAR = 0.01587400205355547

# shipped aggregate constants for the feasibility criteria
AGG = AggregateConstants(kappa=0.5, beta=1e-4, gamma=1.0, delta=1e-3)


def _verdict(num: int, label: str, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {label}: {word} ({detail})")


def test_criterion_1_kernel_masses():
    """The kernel mass is the periodic response to a unit forcing: 1/rate at
    every node, checked through the response Picard runs, for the nine modal
    rates and the recovery rate."""
    t0 = time.perf_counter()
    d = feasible_model()
    basis = build_basis(GEOM, 8, d)
    recovery_rate = d.b * d.c3 * XI * EPSILON
    worst = 0.0
    for rate in (*basis.lambdas, recovery_rate):
        response = periodic._periodic_response(rate, PERIOD, np.ones((512, 1)))
        worst = max(worst, float(np.max(np.abs(response * rate - 1.0))))
    elapsed = time.perf_counter() - t0

    passed = worst <= 1e-12 and elapsed < 1.0
    _verdict(
        1,
        "periodic kernel masses",
        passed,
        f"measured {worst:.3e}, tolerance 1e-12; runtime {elapsed:.2f}s, budget 1s",
    )
    assert worst <= 1e-12, f"kernel mass relative error {worst:.3e} exceeds 1e-12"
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget is 1s"


def test_criterion_2_linear_oracle():
    t0 = time.perf_counter()
    sys_ = linear_system(m=4, s0=1.0)
    u_exact = sys_.trace_vector / sys_.basis.lambdas
    w_exact = u_exact / (XI * sys_.d.c3)

    picard = picard_solve(sys_, 512, PERIOD / 1024, tol=1e-10)
    shooting = shooting_solve(sys_, dt=PERIOD / 512, tol=1e-10)
    err_picard = max(
        float(np.max(np.abs(picard.u - u_exact))), float(np.max(np.abs(picard.w - w_exact)))
    )
    err_shooting = max(
        float(np.max(np.abs(shooting.u - u_exact))), float(np.max(np.abs(shooting.w - w_exact)))
    )
    worst = max(err_picard, err_shooting)
    elapsed = time.perf_counter() - t0

    # the steady state is an exact RK4 fixed point and shooting starts from the
    # linear periodic response, which is that steady state: no step is taken
    start_ok = shooting.n_iter == 0 and shooting.history[0] <= 1e-10
    passed = worst <= 1e-10 and picard.n_iter == 1 and start_ok and elapsed < 5.0
    _verdict(
        2,
        "reaction-free steady response",
        passed,
        f"measured {worst:.3e}, tolerance 1e-10; runtime {elapsed:.2f}s, budget 5s",
    )
    assert picard.n_iter == 1, f"picard needed {picard.n_iter} sweeps, expected 1"
    assert shooting.n_iter == 0, f"shooting needed {shooting.n_iter} steps, expected 0"
    assert shooting.history[0] <= 1e-10, f"start defect {shooting.history[0]:.3e} over tol"
    assert worst <= 1e-10, f"steady-state error {worst:.3e} exceeds 1e-10"
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s, budget is 5s"


def test_criterion_3_cross_method_agreement():
    t0 = time.perf_counter()
    d = feasible_model()

    # the configuration itself must sit inside the admissible region and
    # use a period below the invariance ceiling at the critical radius
    emb = EmbeddingConstants(
        kappa=0.5, k1=0.1, trace_norm=1.0, domain_measure=GEOM.L, s_sup=1.0, phi_norm=PHI
    )
    assert reduced_window(d, emb, d.a1, d.a2).satisfied, "the model's own window is closed"
    assert d.a2 < a2_bound(d.a1, d, emb), (
        f"model (a1, a2) = ({d.a1}, {d.a2}) violates the region bound"
    )
    ceiling = t_star(r_star(AGG), AGG, d.lam0, r_bounds(AGG, 1.0 / d.lam0))
    assert PERIOD <= ceiling, f"period {PERIOD} exceeds the ceiling {ceiling:.6f}"

    sys_ = feasible_system(m=8)
    picard = picard_solve(sys_, 2048, PERIOD / 1024, tol=1e-10)
    shooting = shooting_solve(sys_, dt=PERIOD / 1024, tol=1e-10)
    gap = orbit_gap(picard, shooting, sys_.basis)
    res = max(picard.periodicity_residual, shooting.periodicity_residual)
    elapsed = time.perf_counter() - t0

    passed = gap <= 1e-6 and res <= 1e-8 and elapsed < 120.0
    _verdict(
        3,
        "cross-method orbit agreement",
        passed,
        f"measured {gap:.3e}, tolerance 1e-06; runtime {elapsed:.1f}s, budget 120s",
    )
    assert picard.converged and shooting.converged, "both solvers must converge"
    assert gap <= 1e-6, f"cross-method gap {gap:.3e} exceeds 1e-6"
    assert picard.periodicity_residual <= 1e-8, (
        f"picard periodicity residual {picard.periodicity_residual:.3e} exceeds 1e-8"
    )
    assert shooting.periodicity_residual <= 1e-8, (
        f"shooting periodicity residual {shooting.periodicity_residual:.3e} exceeds 1e-8"
    )
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget is 120s"


def test_criterion_4_ball_invariance():
    t0 = time.perf_counter()
    sys_ = feasible_system(m=8)
    n_t = 512
    t = np.arange(n_t) * (PERIOD / n_t)
    n = sys_.n_modes
    rng = np.random.default_rng(2024)

    worst_image = 0.0
    for trial in range(20):
        u = np.zeros((n_t, n))
        w = np.zeros((n_t, n))
        for i in range(n):
            for k in range(4):
                cu, su, cw, sw = rng.standard_normal(4)
                angle = 2.0 * np.pi * k * t / PERIOD
                u[:, i] += cu * np.cos(angle) + su * np.sin(angle)
                w[:, i] += cw * np.cos(angle) + sw * np.sin(angle)
        radius = R_STAR if trial == 0 else R_STAR * rng.uniform(0.2, 1.0)
        scale = radius / ct_norm(sys_, u, w)
        iu, iw = farkas_apply(sys_, scale * u, scale * w)
        worst_image = max(worst_image, ct_norm(sys_, iu, iw))
    elapsed = time.perf_counter() - t0

    passed = worst_image <= R_STAR and elapsed < 120.0
    _verdict(
        4,
        "critical-ball invariance",
        passed,
        f"measured {worst_image:.3e}, tolerance {R_STAR:.3e}; "
        f"runtime {elapsed:.1f}s, budget 120s",
    )
    assert worst_image <= R_STAR, (
        f"an image left the ball: {worst_image:.6e} > {R_STAR:.6e}"
    )
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s, budget is 120s"


def test_criterion_5_gain_peak_and_window_cases():
    t0 = time.perf_counter()
    rs = r_star(AGG)
    argmax = golden_section_max(lambda r: p_of_R(r, AGG), 1e-3 * rs, 1e3 * rs)
    rel = abs(argmax - rs) / rs

    # the three shipped gain scalings differ only by kappa, so the curves
    # must sit in exact ratio, and against one fixed load level they give
    # two crossings, a single tangency, and no crossing
    kappas = (0.5, 0.174, 0.1)
    aggs = {k: AggregateConstants(kappa=k, beta=1e-4, gamma=1.0, delta=1e-3) for k in kappas}
    r_grid = np.logspace(-4, 0, 64)
    ratio_err = 0.0
    for k in (0.174, 0.1):
        ratios = p_of_R(r_grid, aggs[k]) / p_of_R(r_grid, aggs[0.5])
        ratio_err = max(ratio_err, float(np.max(np.abs(ratios - k / 0.5))))

    h0 = p_of_R(r_star(aggs[0.174]), aggs[0.174])
    lo, hi = r_bounds(aggs[0.5], h0)
    tangent_lo, tangent_hi = r_bounds(aggs[0.174], h0)
    try:
        r_bounds(aggs[0.1], h0)
        disjoint = False
    except ValueError:
        disjoint = True
    elapsed = time.perf_counter() - t0

    passed = (
        rel <= 1e-6
        and ratio_err <= 1e-13
        and lo < hi
        and tangent_lo == tangent_hi
        and disjoint
        and elapsed < 1.0
    )
    _verdict(
        5,
        "gain-curve peak and window cases",
        passed,
        f"measured {rel:.3e}, tolerance 1e-06; runtime {elapsed:.2f}s, budget 1s",
    )
    assert rel <= 1e-6, f"argmax disagrees with closed form by {rel:.3e}"
    assert ratio_err <= 1e-13, f"kappa scaling not exact: {ratio_err:.3e}"
    assert lo < rs < hi, "the largest gain should cross the load level twice"
    assert tangent_lo == tangent_hi, "the middle gain should graze the load level"
    assert disjoint, "the smallest gain should stay below the load level"
    assert elapsed < 1.0, f"criterion 5 took {elapsed:.2f}s, budget is 1s"


def test_criterion_6_integrator_order():
    t0 = time.perf_counter()
    sys_ = linear_system(m=4, s0=1.0)
    lam = sys_.basis.lambdas
    rate = EPSILON * sys_.d.b * XI * sys_.d.c3
    steady = sys_.trace_vector / lam

    def closed_form(tt):
        u = steady * (1.0 - np.exp(-lam * tt))
        w = EPSILON * sys_.d.b * steady * (
            (1.0 - np.exp(-rate * tt)) / rate
            - (np.exp(-lam * tt) - np.exp(-rate * tt)) / (rate - lam)
        )
        return u, w

    zero = np.zeros(10)
    u_end, w_end = closed_form(PERIOD)
    errors = []
    for steps in (64, 128, 256, 512):
        traj = integrate_cauchy(sys_, zero, PERIOD, PERIOD / steps)
        errors.append(
            float(
                np.sqrt(np.sum((traj.u[-1] - u_end) ** 2) + np.sum((traj.w[-1] - w_end) ** 2))
            )
        )
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    min_ratio = min(ratios)
    elapsed = time.perf_counter() - t0

    passed = min_ratio >= 15.0 and elapsed < 10.0
    _verdict(
        6,
        "integrator fourth-order convergence",
        passed,
        f"measured {min_ratio:.2f}, threshold >= 15; runtime {elapsed:.2f}s, budget 10s",
    )
    assert min_ratio >= 15.0, f"error ratios {ratios} fall under 15 per halving"
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.2f}s, budget is 10s"


def test_criterion_7_cubic_product_quadrature():
    t0 = time.perf_counter()
    basis = build_basis(GEOM, 4, feasible_model())
    L = GEOM.L
    norm = [1.0 / np.sqrt(L)] + [np.sqrt(2.0 / L)] * 4
    worst = 0.0
    for i in range(5):
        for j in range(5):
            for k in range(5):
                quad = float(
                    np.sum(
                        basis.quad_weights
                        * basis.psi_quad[:, i]
                        * basis.psi_quad[:, j]
                        * basis.psi_quad[:, k]
                    )
                )
                exact = cosine_product_integral(L, (i, j, k)) * norm[i] * norm[j] * norm[k]
                worst = max(worst, abs(quad - exact))
    elapsed = time.perf_counter() - t0

    passed = worst <= 1e-12 and elapsed < 1.0
    _verdict(
        7,
        "cubic product quadrature",
        passed,
        f"measured {worst:.3e}, tolerance 1e-12; runtime {elapsed:.2f}s, budget 1s",
    )
    assert worst <= 1e-12, f"cubic product quadrature error {worst:.3e} exceeds 1e-12"
    assert elapsed < 1.0, f"criterion 7 took {elapsed:.2f}s, budget is 1s"


def test_criterion_8_refinement_and_stationarity():
    t0 = time.perf_counter()
    d = feasible_model()

    gaps = refinement_gaps(feasible_system(m=16), (4, 8, 16), 2.0 * PERIOD, 1.0 / 256.0)
    diffs = list(gaps[:, 0])
    nonincreasing = all(b <= a for a, b in zip(diffs, diffs[1:]))

    # monitor stationarity along the periodic solution itself: seed the
    # integrator with the shooting fixed point, which is periodic for the
    # exact same discrete flow, and watch ten periods
    sys8 = feasible_system(m=8)
    orbit = shooting_solve(sys8, dt=PERIOD / 1024, tol=1e-10)
    start = np.concatenate([orbit.u[0], orbit.w[0]])
    traj = integrate_cauchy(sys8, start, 10.0 * PERIOD, PERIOD / 1024)
    monitor, growth = apriori_monitor(sys8, traj)
    sups = monitor["per_period_sup"]
    drift = float(np.max(np.abs(np.diff(sups)) / sups[:-1]))
    elapsed = time.perf_counter() - t0

    passed = (
        nonincreasing
        and drift <= 1e-6
        and not growth
        and np.isfinite(monitor["sup_state_sq"])
        and elapsed < 300.0
    )
    _verdict(
        8,
        "truncation refinement and monitor stationarity",
        passed,
        f"measured {drift:.3e}, tolerance 1e-06; runtime {elapsed:.1f}s, budget 300s",
    )
    assert nonincreasing, f"refinement gaps should not grow: {diffs}"
    assert len(sups) == 10, f"expected ten complete periods, got {len(sups)}"
    assert drift <= 1e-6, f"per-period sup drifts by {drift:.3e}, tolerance 1e-6"
    assert not growth, "no period may double its predecessor's sup"
    assert np.isfinite(monitor["sup_state_sq"]), "monitors must stay bounded"
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f}s, budget is 300s"


def test_criterion_9_region_self_consistency():
    t0 = time.perf_counter()
    d = feasible_model()
    emb = EmbeddingConstants(
        kappa=0.5, k1=1.0, trace_norm=1.0, domain_measure=GEOM.L, s_sup=1.0, phi_norm=PHI
    )
    a1_grid = np.linspace(0.0, 0.05, 33)
    bounds = a2_bound(a1_grid, d, emb)

    probes = 0
    violations = 0
    for a1, bound in zip(a1_grid[1:], bounds[1:]):
        for fraction in (0.25, 0.5, 0.9, 0.999):
            probes += 1
            if not reduced_window(d, emb, a1, fraction * bound).satisfied:
                violations += 1
    elapsed = time.perf_counter() - t0

    passed = violations == 0 and bounds[0] == 0.0 and elapsed < 5.0
    _verdict(
        9,
        "admissible-region self-consistency",
        passed,
        f"measured {violations} violations of {probes} probes, tolerance 0; "
        f"runtime {elapsed:.2f}s, budget 5s",
    )
    assert bounds[0] == 0.0, f"a1 = 0 must admit nothing, bound is {bounds[0]}"
    assert violations == 0, f"{violations} sampled pairs failed the window condition"
    assert elapsed < 5.0, f"criterion 9 took {elapsed:.2f}s, budget is 5s"
