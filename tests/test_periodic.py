"""The periodic response, the fixed-point operator, and both orbit solvers."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monorhythm import cli, periodic
from monorhythm.feasibility import EmbeddingConstants, a2_bound
from monorhythm.galerkin import GalerkinSystem, integrate_cauchy
from monorhythm.ionic import PhysiologicalParameters, derive_parameters, with_reaction
from monorhythm.periodic import (
    NonConvergenceError,
    ct_norm,
    farkas_apply,
    orbit_gap,
    orbit_nodes,
    picard_solve,
    shooting_solve,
)
from monorhythm.spectral import Stimulus, build_basis, project_nonlinearity

from oracles import green_kernel_u, green_kernel_w
from systems import EPSILON, GEOM, PERIOD, PHI, XI, feasible_model, feasible_system, linear_system

# critical radius of the shipped aggregate constants (beta=1e-4, gamma=1,
# delta=1e-3), frozen from the closed-form maximizer and confirmed by a
# golden-section search oracle in the acceptance suite
R_STAR = 0.01587400205355547
# the RK4 step of Picard's periodicity check, the command-line default
DT = PERIOD / 1024
CONFIG_DIR = Path(__file__).parent.parent / "configs"


def unit_response(lam, T, n_t):
    """Node values of the periodic response of x' = -lam x + 1: the kernel mass 1/lam."""
    return periodic._periodic_response(lam, T, np.ones((n_t, 1)))[:, 0]


def test_kernel_boundary_continuity():
    T = 2.0
    t = np.arange(64) / 32.0  # dyadic grid, so t + T - T == t exactly
    for lam in (0.3, 1.0, 21.2):
        k0 = green_kernel_u(lam, T, t, 0.0)
        kT = green_kernel_u(lam, T, t, T)
        assert np.array_equal(k0, kT)


def test_kernel_jump_is_one():
    lam, T, t = 0.7, 2.0, 1.0
    below = green_kernel_u(lam, T, t, t)          # tau <= t branch
    above = green_kernel_u(lam, T, t, np.nextafter(t, 2.0))
    assert below - above == pytest.approx(1.0, abs=1e-9)


def test_kernel_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        green_kernel_u(0.0, 2.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        green_kernel_w(1.0, 1.0, -3.75, 0.032, 2.0, 0.5, 0.5)


@pytest.mark.parametrize("which", ["lambda_0", "recovery"])
@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("solver", ["picard", "shooting"])
def test_solvers_reject_nonpositive_rate_before_any_work(monkeypatch, which, rate, solver):
    """Both solvers check every decay rate once, before any sweep, integration
    or Jacobian: with one that is not positive and finite the periodic
    response is undefined and the period-map Jacobian singular."""
    work = (
        "_periodic_response",
        "_u_block",
        "_w_block",
        "integrate_cauchy",
        "_linear_monodromy",
    )
    for name in work:
        monkeypatch.setattr(
            periodic, name, lambda *args, **kwargs: pytest.fail("the solver did work")
        )
    sys = linear_system(s0=1.0)
    if which == "lambda_0":
        lambdas = sys.basis.lambdas.copy()
        lambdas[0] = rate
        sys = dataclasses.replace(sys, basis=dataclasses.replace(sys.basis, lambdas=lambdas))
    else:
        # recovery_rate = (eps b) xi c3, which is rate itself with eps = b = xi = 1
        d = dataclasses.replace(sys.d, epsilon=1.0, b=1.0, xi=1.0, c3=rate)
        sys = dataclasses.replace(sys, d=d)
    with pytest.raises(ValueError, match=f"decay rate must be positive and finite, got {rate}"):
        if solver == "picard":
            picard_solve(sys, 128, DT)
        else:
            shooting_solve(sys, DT)


def test_kernel_mass_identity():
    """The response to a unit forcing is the kernel mass 1/lam at every node,
    at n_t = 512 across nine decades of rate."""
    T = 2.0
    for lam in (1e-6, 1e-3, 0.5, 1.0, 21.2, 300.0, 1e3):
        total = unit_response(lam, T, 512)
        assert np.max(np.abs(total * lam - 1.0)) <= 1e-12, f"lam={lam}"


def test_recovery_kernel_mass():
    b, c3, xi, eps = 1.0, 1.0, 3.75, 0.032
    rate = b * c3 * xi * eps
    total = unit_response(rate, 2.0, 512)
    assert np.max(np.abs(total * rate - 1.0)) <= 1e-12
    # the recovery kernel is the generic kernel at the composite rate
    assert green_kernel_w(b, c3, xi, eps, 2.0, 0.7, 0.2) == pytest.approx(
        float(green_kernel_u(rate, 2.0, 0.7, 0.2)), rel=1e-15
    )


def test_weights_reproduce_sinusoid_response():
    """The transfer function gives the periodic response of a multi-harmonic
    forcing to roundoff, on even and odd grids alike: against
    the closed form, and against a two-branch Gauss-Legendre quadrature of the
    Green's kernel oracle."""
    T = 2.0
    om = 2.0 * np.pi / T
    # (k, a, b) for a cos(k om t) + b sin(k om t), all below the n_t = 64 Nyquist
    harmonics = [(0, 0.7, 0.0), (1, 1.0, -0.4), (3, 0.25, 0.5), (7, -0.3, 0.2)]

    def forcing(t):
        return sum(a * np.cos(k * om * t) + b * np.sin(k * om * t) for k, a, b in harmonics)

    xg, wg = np.polynomial.legendre.leggauss(80)
    for n_t in (64, 65, 127, 512):
        t = np.arange(n_t) * T / n_t
        for lam in (0.12, 1.0, 21.2):
            conv = periodic._periodic_response(lam, T, forcing(t)[:, None])[:, 0]
            exact = sum(
                ((a - 1j * b) * np.exp(1j * k * om * t) / (lam + 1j * k * om)).real
                for k, a, b in harmonics
            )
            quad = np.zeros(n_t)
            for lo, hi in ((np.zeros(n_t), t), (t, np.full(n_t, T))):
                half = 0.5 * (hi - lo)[:, None]
                tau = lo[:, None] + half * (xg + 1.0)
                integrand = green_kernel_u(lam, T, t[:, None], tau) * forcing(tau)
                quad += np.sum(half * wg * integrand, axis=1)
            assert np.max(np.abs(conv - exact)) <= 1e-13, f"n_t={n_t}, lam={lam}"
            assert np.max(np.abs(conv - quad)) <= 1e-12, f"n_t={n_t}, lam={lam}"


def test_picard_rejects_a_coarse_grid_before_sweeping(monkeypatch):
    sys = linear_system(s0=0.0)
    calls = []
    monkeypatch.setattr(periodic, "_u_block", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="n_t must be at least 64, got 32"):
        picard_solve(sys, 32, DT)
    assert calls == []


def test_farkas_constant_forcing_hits_steady_state():
    sys = linear_system(s0=2.0)
    rng = np.random.default_rng(1)
    u_in = rng.standard_normal((256, 5))
    w_in = rng.standard_normal((256, 5))
    u_out, _ = farkas_apply(sys, u_in, w_in)
    steady = 2.0 * sys.trace_vector / sys.basis.lambdas
    assert np.max(np.abs(u_out - steady)) < 1e-12


def test_farkas_recovery_block_mass():
    sys = linear_system(s0=0.0)
    u_in = np.ones((256, 5))
    _, w_out = farkas_apply(sys, u_in, np.zeros((256, 5)))
    assert np.max(np.abs(w_out - 1.0 / (XI * 1.0))) < 1e-12


def test_farkas_zero_input_zero_stimulus():
    sys = feasible_system(m=4, amplitude=0.0, phi=0.0)
    u_out, w_out = farkas_apply(sys, np.zeros((128, 5)), np.zeros((128, 5)))
    assert np.all(u_out == 0.0) and np.all(w_out == 0.0)


def test_farkas_shape_check():
    sys = feasible_system(m=4)
    with pytest.raises(ValueError):
        farkas_apply(sys, np.zeros((128, 4)), np.zeros((128, 5)))


def test_picard_linear_single_sweep():
    sys = linear_system(s0=1.0)
    rng = np.random.default_rng(3)
    orbit = picard_solve(sys, 512, DT, x0=0.1 * rng.standard_normal((512, 5)), tol=1e-10)
    assert orbit.converged and orbit.n_iter == 1
    u_star = 1.0 * sys.trace_vector / sys.basis.lambdas
    w_star = u_star / (XI * 1.0)
    assert np.max(np.abs(orbit.u - u_star)) < 1e-10
    assert np.max(np.abs(orbit.w - w_star)) < 1e-10


def test_picard_zero_iterations_from_fixed_point():
    sys = linear_system(s0=1.0)
    u_star = np.broadcast_to(1.0 * sys.trace_vector / sys.basis.lambdas, (256, 5)).copy()
    orbit = picard_solve(sys, 256, DT, x0=u_star, tol=1e-10)
    assert orbit.converged and orbit.n_iter == 0
    assert not np.shares_memory(orbit.u, u_star), "the caller's start is never handed back"


def test_picard_hands_back_no_view_of_a_memory_mapped_start(tmp_path):
    """A start that is an ndarray subclass, here a memmap, reaches the loop
    as a new view of the caller's memory; a fixed point found at the first
    application is still copied out of it."""
    sys = linear_system(s0=1.0)
    u_star = np.memmap(tmp_path / "start.bin", dtype=float, mode="w+", shape=(256, 5))
    u_star[:] = 1.0 * sys.trace_vector / sys.basis.lambdas
    orbit = picard_solve(sys, 256, DT, x0=u_star, tol=1e-10)
    assert orbit.n_iter == 0
    assert not np.shares_memory(orbit.u, u_star), "the caller's start is never handed back"


def test_picard_start_is_the_potential_samples_alone():
    """The start holds the potential samples, shape (n_t, n); a stacked
    (u, w) start of shape (2, n_t, n) is rejected."""
    sys = linear_system(s0=1.0)
    with pytest.raises(ValueError, match=r"shape \(n_t, n\) = \(256, 5\), got \(2, 256, 5\)"):
        picard_solve(sys, 256, DT, x0=np.zeros((2, 256, 5)))


def _solve_periodic_report(tmp_path, capsys, name, radius=None):
    """report.json of solve-periodic with Picard alone on configs/``name``, its
    solver.radius replaced by ``radius`` unless that is None; the listing of
    written paths is swallowed."""
    dropped = ("solver.method ",) if radius is None else ("solver.method ", "solver.radius ")
    text = (CONFIG_DIR / name).read_text(encoding="utf-8")
    kept = [line for line in text.splitlines() if not line.startswith(dropped)]
    kept.append("solver.method = picard")
    if radius is not None:
        kept.append(f"solver.radius = {radius!r}")
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text("\n".join(kept) + "\n", encoding="utf-8")
    argv = ["solve-periodic", "--config", str(cfg), "--out", str(out), "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _assert_ball_is_closed(tmp_path, capsys, name, norm):
    """The ball_member flag of a run on configs/``name`` whose orbit has mixed sup
    norm ``norm``: true at radius ``norm``, false one float below it."""
    for radius, member in ((norm, True), (float(np.nextafter(norm, 0.0)), False)):
        report = _solve_periodic_report(tmp_path, capsys, name, radius)
        assert report["payload"]["picard"]["ct_norm"] == norm
        assert report["condition_flags"]["ball_member"] is member, radius
        assert "ball_certificate" not in report["payload"]


def test_picard_nonlinear_converges_and_certifies(tmp_path, capsys):
    sys = feasible_system(m=4)
    orbit = picard_solve(sys, 1024, DT, tol=1e-12)
    assert orbit.converged
    assert orbit.history[-1] <= 10.0 * 1e-12
    assert orbit.periodicity_residual < 1e-6
    # the command flags the nonlinear orbit in the shipped ball of radius R_STAR
    report = _solve_periodic_report(tmp_path, capsys, "feasible_periodic.cfg")
    assert report["config"]["solver.radius"] == R_STAR
    assert report["condition_flags"]["ball_member"] is True
    norm = report["payload"]["picard"]["ct_norm"]
    _assert_ball_is_closed(tmp_path, capsys, "feasible_periodic.cfg", norm)


def test_picard_coarse_grid_is_periodic():
    """The exact response needs no fine grid: at n_t = 128 the Picard orbit of
    the feasible m = 8 system closes after one RK4 period to 1e-11."""
    orbit = picard_solve(feasible_system(m=8), 128, DT)
    assert orbit.converged
    assert orbit.periodicity_residual <= 1e-11, f"residual {orbit.periodicity_residual:.3e}"


def _count_u_block_rows(monkeypatch):
    """Record the node count of every potential-block application."""
    rows = []
    u_block = periodic._u_block

    def counted(sys, u, w):
        rows.append(len(u))
        return u_block(sys, u, w)

    monkeypatch.setattr(periodic, "_u_block", counted)
    return rows


def test_coarse_node_rule():
    """The largest power-of-two divisor of n_t in [256, n_t / 8], or none."""
    rule = {8192: 1024, 2048: 256, 3072: 256, 6144: 512, 1 << 20: 1 << 17}
    rule |= dict.fromkeys([128, 1024, 1536, 2049])  # none: no coarse phase
    assert {n_t: periodic._coarse_nodes(n_t) for n_t in rule} == rule


def test_prolongation_interpolates_every_harmonic_the_coarse_grid_holds():
    """Zero-padding the spectrum with the Nyquist bin halved gives the samples
    of a trigonometric polynomial of degree n_c / 2 at the finer nodes, its
    Nyquist term cos(pi n_c t / T) included."""
    T, n_c, n_t = 2.0, 256, 2048
    k = np.array([0, 1, 7, 100, n_c // 2])
    coef = np.array([0.3, -1.0, 0.25, 1e-3, 0.5])

    def trig(n):
        t = np.arange(n)[:, None] * (T / n)
        return np.column_stack([np.cos(2 * np.pi * k * t / T) @ coef, np.sin(2 * np.pi * t / T)])

    assert np.max(np.abs(periodic._prolong(trig(n_c), n_t) - trig(n_t))) <= 1e-13


def _picard_draw():
    """The pulse-driven m = 32 system of the benchmark's picard workload."""
    d = feasible_model()
    stim = Stimulus("pulse", period=PERIOD, phi_value=PHI, amplitude=1.0, width=0.05)
    return GalerkinSystem(build_basis(GEOM, 32, d), d, stim)


def test_coarse_phase_keeps_the_fine_grids_orbit(monkeypatch):
    """On the picard draw (m = 32, pulse, n_t = 8192, theta = 0.5, seeded
    start) the coarse phase at 1024 nodes converges, the fine grid finishes
    in one application, and the orbit is within 1e-12 of the fine-only
    solve's."""
    sys = _picard_draw()
    start = 0.01 * np.random.default_rng(3).standard_normal((8192, sys.n_modes))
    rows = _count_u_block_rows(monkeypatch)
    two_grid = picard_solve(sys, 8192, DT, x0=start, theta=0.5)
    assert len(two_grid.history) == 1 and len(two_grid.coarse_history) >= 2
    assert two_grid.n_iter == len(two_grid.coarse_history), "coarse applications count"
    assert rows == [1024] * len(two_grid.coarse_history) + [8192]
    assert two_grid.coarse_history[-1] < 1e-10
    monkeypatch.setattr(periodic, "_coarse_nodes", lambda n_t: None)
    fine = picard_solve(sys, 8192, DT, x0=start, theta=0.5)
    assert fine.n_iter >= 2 and fine.coarse_history == ()
    assert np.max(np.abs(two_grid.u - fine.u)) <= 1e-12
    assert np.max(np.abs(two_grid.w - fine.w)) <= 1e-12


def test_reaction_free_run_has_no_coarse_phase(monkeypatch):
    """Reaction-free, Phi is constant: one application on the n_t nodes is
    the least, so a run at n_t = 2048, which has a coarse grid, applies Phi
    only there and reports n_iter == 1."""
    rows = _count_u_block_rows(monkeypatch)
    start = 0.1 * np.random.default_rng(3).standard_normal((2048, 5))
    orbit = picard_solve(linear_system(s0=1.0), 2048, DT, x0=start)
    assert orbit.n_iter == 1 and orbit.coarse_history == ()
    assert rows == [2048, 2048]


@pytest.mark.parametrize("n_t", [1024, 1536])
def test_no_coarse_phase_without_a_coarse_grid(monkeypatch, n_t):
    """n_t = 1024 and n_t = 1536 = 3 * 512 have no power-of-two divisor in
    [256, n_t / 8]: every application runs on the n_t nodes."""
    rows = _count_u_block_rows(monkeypatch)
    orbit = picard_solve(feasible_system(m=4, phi=0.5), n_t, DT)
    assert orbit.n_iter >= 2 and orbit.coarse_history == ()
    assert rows == [n_t] * (orbit.n_iter + 1)


def test_failed_coarse_phase_fails_the_solve(monkeypatch):
    """A coarse loop that diverges raises at once: its record is the error's
    coarse_history, history is empty, and no application runs on the n_t
    nodes."""
    u_block = periodic._u_block

    def diverging_on_the_coarse_grid(sys, u, w):
        out = u_block(sys, u, w)
        return out if len(u) == 2048 else out * np.inf

    monkeypatch.setattr(periodic, "_u_block", diverging_on_the_coarse_grid)
    rows = _count_u_block_rows(monkeypatch)
    start = 0.01 * np.random.default_rng(5).standard_normal((2048, 5))
    with pytest.raises(NonConvergenceError, match="diverged after 1 sweeps") as info:
        picard_solve(feasible_system(m=4, phi=0.5), 2048, DT, x0=start)
    assert info.value.history == []
    assert len(info.value.coarse_history) == 1 and not np.isfinite(info.value.coarse_history[0])
    assert rows == [256]


def test_failed_fine_phase_carries_the_coarse_record(monkeypatch):
    """A coarse loop that converges, then an n_t-node loop that diverges: the
    error carries both records, the coarse one as a clean run keeps it."""
    sys = feasible_system(m=4, phi=0.5)
    clean = picard_solve(sys, 2048, DT)
    u_block = periodic._u_block

    def diverging_on_the_fine_grid(sys, u, w):
        out = u_block(sys, u, w)
        return out if len(u) < 2048 else out * np.inf

    monkeypatch.setattr(periodic, "_u_block", diverging_on_the_fine_grid)
    with pytest.raises(NonConvergenceError, match="diverged after 1 sweeps") as info:
        picard_solve(sys, 2048, DT)
    assert len(info.value.history) == 1 and not np.isfinite(info.value.history[0])
    assert info.value.coarse_history == list(clean.coarse_history) != []


def test_picard_rejects_bad_damping():
    sys = linear_system()
    with pytest.raises(ValueError):
        picard_solve(sys, 128, DT, theta=0.0)
    with pytest.raises(ValueError):
        picard_solve(sys, 128, DT, theta=1.5)


@pytest.mark.parametrize(
    "solver, kwargs, message",
    [
        ("picard", {"tol": 0.0}, "tol must be positive"),
        ("picard", {"max_iter": 0}, "max_iter must be at least 1 sweep, got 0"),
        ("shooting", {"tol": -1e-10}, "tol must be positive"),
        ("shooting", {"max_iter": -1}, "max_iter must be at least 0 steps, got -1"),
    ],
)
def test_solvers_reject_a_bad_tolerance_or_cap_before_any_work(
    monkeypatch, solver, kwargs, message
):
    """Library callers get each solver's own message for a tolerance that is
    not positive or a cap below its floor, before any sweep or integration."""
    monkeypatch.setattr(periodic, "_periodic_response", lambda *args: pytest.fail("started"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        if solver == "picard":
            picard_solve(linear_system(), 128, DT, **kwargs)
        else:
            shooting_solve(linear_system(), dt=DT, **kwargs)


def _runaway_system():
    """A strong cubic (c1 = 100, unit peak) with no drive: large starts run away."""
    phys = PhysiologicalParameters(
        u_res=0.0, u_peak=1.0, a=0.5, c1=100.0, c2=1.0, c3=1.0, b=1.0, sigma_const=1.0
    )
    d = derive_parameters(phys, EPSILON, XI)
    basis = build_basis(GEOM, 4, d)
    off = Stimulus("constant", period=2.0, phi_value=0.0, amplitude=0.0)
    return GalerkinSystem(basis, d, off)


def test_picard_divergence_reports_history():
    sys = _runaway_system()
    huge = 1e3 * np.ones((128, 5))
    with pytest.raises(NonConvergenceError) as info:
        with np.errstate(over="ignore", invalid="ignore"):
            picard_solve(sys, 128, DT, x0=huge)
    assert len(info.value.history) >= 1


def test_picard_stall_raises_with_update_history():
    sys = feasible_system(m=2)
    with pytest.raises(NonConvergenceError, match="picard exhausted 2 sweeps") as info:
        picard_solve(sys, 128, DT, tol=1e-16, max_iter=2)
    history = info.value.history
    assert len(history) == 2 and history[1] < history[0]


def test_picard_divergence_rule_tolerates_overshoot_and_stops_growth():
    """One rule decides divergence: a residual above 100 times the smallest so
    far. A strong drive (phi = 32) at theta = 1 overshoots, yet its residual
    never climbs to twice the running minimum and it converges in 25
    applications. A runaway start at unit amplitude grows 3e4-fold in one
    application and raises there, at a finite residual, with the whole
    history."""
    orbit = picard_solve(feasible_system(m=8, phi=32.0), 128, DT, theta=1.0)
    history = np.array(orbit.history)
    assert len(history) <= 30, f"{len(history)} applications"
    assert np.max(history / np.minimum.accumulate(history)) < 2.0
    assert history[-1] < 1e-10 <= history[-2]

    start = np.ones((128, 5))
    with pytest.raises(NonConvergenceError, match="diverged after 2 sweeps") as info:
        picard_solve(_runaway_system(), 128, DT, x0=start)
    history = info.value.history
    assert len(history) == 2 and np.isfinite(history[1]) and history[1] > 100.0 * history[0]


@pytest.mark.parametrize("m, theta", [(8, 0.5), (4, 0.25)])
def test_picard_mixing_undoes_the_damping(m, theta):
    """Anderson mixing makes damping cheap: on the feasible system at n_t = 512
    Picard reaches tol in at most 8 operator applications (5 measured) at
    theta = 0.5 (m = 8) and theta = 0.25 (m = 4). The returned orbit's own
    operator residual, the last recorded one, meets tol."""
    tol = 1e-10
    orbit = picard_solve(feasible_system(m=m), 512, DT, theta=theta, tol=tol)
    assert len(orbit.history) <= 8, f"{len(orbit.history)} applications"
    assert orbit.history[-1] <= tol


@pytest.mark.parametrize("m, n_t, theta", [(4, 1024, 1.0), (8, 512, 0.5), (8, 2048, 1.0)])
def test_picard_reports_the_residual_of_its_returned_orbit(m, n_t, theta):
    """The last recorded residual is the returned orbit's own: applying the
    operator once more to the returned orbit gives it back exactly."""
    sys = feasible_system(m=m)
    orbit = picard_solve(sys, n_t, DT, theta=theta, tol=1e-12)
    ku, kw = farkas_apply(sys, orbit.u, orbit.w)
    assert ct_norm(sys, ku - orbit.u, kw - orbit.w) == orbit.history[-1]


def test_farkas_row_blocks_match_a_whole_grid_projection():
    """The potential block projects the reaction a row block at a time. At an
    n_t that leaves a short last block it matches the response of a forcing
    assembled from one whole-grid projection to roundoff."""
    n_t = 2500
    assert n_t > periodic._ROW_BLOCK and n_t % periodic._ROW_BLOCK
    sys = feasible_system(m=8, amplitude=2.0, phi=1.0)
    rng = np.random.default_rng(5)
    u = 0.3 * rng.standard_normal((n_t, 9))
    w = 0.1 * rng.standard_normal((n_t, 9))
    t = np.arange(n_t) * (PERIOD / n_t)
    forcing = sys.stim(t)[:, None] * sys.trace_vector - project_nonlinearity(
        sys.basis, u, w, sys.d
    )
    omega = 2j * np.pi * np.fft.rfftfreq(n_t, PERIOD / n_t)
    expected = np.fft.irfft(
        np.fft.rfft(forcing, axis=0) / (omega[:, None] + sys.basis.lambdas), n=n_t, axis=0
    )
    u_out, _ = farkas_apply(sys, u, w)
    assert np.max(np.abs(u_out - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_shooting_linear_one_newton_step():
    """Reaction-free, the period map is affine and R^N - I is its exact
    Jacobian, so one step from any start lands on the RK4 orbit. Under a
    sinusoid the linear periodic start misses that orbit by RK4's own error
    (1.7e-7 at m = 4, 5.1e-7 at m = 8), so the step is taken, and it leaves
    only roundoff."""
    for m in (4, 8):
        sys = linear_system(m=m, phi=5.0, kind="sinusoid")
        orbit = shooting_solve(sys, dt=PERIOD / 128, tol=1e-10)
        assert orbit.converged and orbit.n_iter == 1
        assert orbit.history[0] > 1e-8, f"start defect {orbit.history[0]:.3e}: no step"
        assert orbit.history[1] <= 1e-14, f"one step left {orbit.history[1]:.3e}"
        assert orbit.periodicity_residual < 1e-14


def test_shooting_start_defect_is_rk4_error_of_the_linear_response():
    """The start is the continuous-time periodic response of the linear part,
    so each segment's defect there is RK4's global error over the segment:
    halving dt divides the stacked defect by about 2^4 = 16 (measured 16.04
    from T/1024 to T/2048, 16 segments at both; the band allows 15 to 18)."""
    sys = linear_system(m=4, phi=0.005, kind="sinusoid")
    defects = [shooting_solve(sys, dt=PERIOD / n).history[0] for n in (1024, 2048)]
    ratio = defects[0] / defects[1]
    assert 15.0 <= ratio <= 18.0, f"start defects {defects} fall by {ratio:.2f}, not ~16"


@pytest.mark.parametrize(
    "m, width, n_steps, saved",
    [
        pytest.param(2, 0.01, 64, 1, id="2-0.01-64"),
        pytest.param(2, 0.25, 1024, 0, id="2-0.25-1024"),
        pytest.param(8, 0.01, 1024, 1, id="8-0.01-1024"),
        pytest.param(8, 0.25, 64, 1, id="8-0.25-64"),
    ],
)
def test_linear_start_saves_one_integration_on_a_pulse(monkeypatch, m, width, n_steps, saved):
    """With the reaction on and a pulse drive, shooting converges in n_iter + 1
    segment marches and no full-period integration, and the linear start
    takes ``saved`` fewer marches than the zero state, which is the start it
    takes when every periodic response is replaced by zeros. At the wide
    pulse on 16 segments both starts take 2 steps, but the linear start's
    stacked defect is 4.5e-7 against 3.4e-3."""
    d = feasible_model()
    stim = Stimulus("pulse", period=PERIOD, phi_value=PHI, amplitude=1.0, width=width)
    sys = GalerkinSystem(build_basis(GEOM, m, d), d, stim)
    marches, starts = [], []
    for zero_start in (False, True):
        with monkeypatch.context() as patched:
            full, segments = _count_integrations(patched.setattr)
            if zero_start:
                patched.setattr(
                    periodic, "_periodic_response", lambda rates, T, forcing: 0.0 * forcing
                )
            orbit = periodic.shooting_solve(sys, dt=PERIOD / n_steps)
        assert full == []
        assert len(segments) == orbit.n_iter + 1
        marches.append(len(segments))
        starts.append(orbit.history[0])
    assert marches[0] + saved == marches[1], f"marches {marches}"
    assert starts[0] < 1e-3 * starts[1], f"start defects {starts}"


def test_shooting_zero_is_fixed_point_without_drive():
    sys = feasible_system(m=4, amplitude=0.0, phi=0.0)
    orbit = shooting_solve(sys, dt=PERIOD / 256)
    assert orbit.n_iter == 0
    assert np.all(orbit.u == 0.0) and np.all(orbit.w == 0.0)


@pytest.mark.parametrize(
    "n_t, n_shoot, message",
    [
        (48, 1000.5, "n_t must be at least 64, got 48"),  # every rule fails: the floor is named
        (2048, 1000.5, "dt must divide the period"),
        (2048, 32, "dt must be at most T/64"),  # 32 nests with 2048
        (1000, 1024, "grids with 1000 and 1024 nodes do not nest"),
        (None, 1000.5, "dt must divide the period"),
        (None, 32, "dt must be at most T/64"),
    ],
)
def test_orbit_nodes_names_the_first_failing_rule(n_t, n_shoot, message):
    """Picard's floor, then that dt divides T into at least 64 steps, then
    that the two node counts nest."""
    with pytest.raises(ValueError, match=message):
        orbit_nodes(PERIOD, n_t=n_t, dt=PERIOD / n_shoot)


def test_orbit_nodes_counts_shooting_nodes_and_skips_an_absent_method():
    """The return value is T / dt, or None without a dt; a method given no
    value has none of its rules checked, so nesting needs both."""
    assert orbit_nodes(PERIOD, n_t=2048, dt=PERIOD / 1024) == 1024
    assert orbit_nodes(PERIOD, n_t=64, dt=PERIOD / 1024) == 1024
    assert orbit_nodes(PERIOD, dt=PERIOD / 1000) == 1000
    assert orbit_nodes(PERIOD, n_t=1000) is None
    assert orbit_nodes(PERIOD, n_t=64) is None
    assert orbit_nodes(PERIOD) is None


def test_shooting_requires_dividing_step(monkeypatch):
    """A step that does not divide the period is rejected before the start
    is built from the drive at the T / dt nodes."""
    monkeypatch.setattr(periodic, "_periodic_response", lambda *args: pytest.fail("started"))
    sys = linear_system()
    with pytest.raises(ValueError, match="dt must divide the period"):
        shooting_solve(sys, dt=PERIOD / 300.5)


@pytest.mark.parametrize("dt", [0.0, -0.5])
def test_shooting_rejects_a_nonpositive_step_before_starting(monkeypatch, dt):
    """A step that is not positive is named as such, before the period is
    divided by it or the start is built."""
    monkeypatch.setattr(periodic, "_periodic_response", lambda *args: pytest.fail("started"))
    with pytest.raises(ValueError, match=rf"^dt must be positive, got {dt}$"):
        shooting_solve(linear_system(), dt=dt)


@pytest.mark.parametrize("skew", [-1e-10, 1e-10])
def test_shooting_steps_at_exactly_t_over_n(skew):
    """A step within orbit_nodes' slack of T/N is taken as T/N: the orbit
    has N rows at the N nodes, not a short extra step past them, and equals
    the orbit at T/N bit for bit, with the same history and residual, the
    largest segment defect of the accepted march."""
    sys = feasible_system(m=2)
    exact = shooting_solve(sys, dt=PERIOD / 128)
    orbit = shooting_solve(sys, dt=PERIOD / 128 * (1.0 + skew))
    assert orbit.u.shape == orbit.w.shape == (128, 3)
    assert np.array_equal(orbit.times, periodic._nodes(PERIOD, 128))
    assert np.array_equal(orbit.u, exact.u) and np.array_equal(orbit.w, exact.w)
    assert orbit.history == exact.history
    assert orbit.periodicity_residual == exact.periodicity_residual <= 1e-10


def _columnwise_shooting(sys, dt, tol=1e-10, max_iter=25):
    """Reference: Newton shooting with one integration per Jacobian column and
    a final re-integration of the converged state."""
    T, n = sys.period, sys.n_modes
    x = np.zeros(2 * n)

    def defect(vec):
        return integrate_cauchy(sys, vec, T, dt).x[-1] - vec

    n_iter = 0
    g = defect(x)
    for _ in range(max_iter):
        if float(np.linalg.norm(g)) <= tol * max(1.0, float(np.linalg.norm(x))):
            break
        jac = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            step = 1e-6 * max(1.0, abs(x[j]))
            probe = x.copy()
            probe[j] += step
            jac[:, j] = (defect(probe) - g) / step
        x = x + np.linalg.solve(jac, -g)
        n_iter += 1
        g = defect(x)
    traj = integrate_cauchy(sys, x, T, dt)
    residual = float(np.linalg.norm(traj.x[-1] - x) / max(1.0, float(np.linalg.norm(x))))
    return traj, n_iter, residual


def _count_integrations(setattr_):
    """Install a stand-in for ``periodic.integrate_cauchy`` by ``setattr_`` and
    return two lists it fills with each march's start shape: the closing
    marches from t = 0, then the segment marches, the ones given start times."""
    full, segments = [], []

    def counting(sys, x0, t1, dt, t0=None):
        (full if t0 is None else segments).append(np.shape(x0))
        return integrate_cauchy(sys, x0, t1, dt, t0)

    setattr_(periodic, "integrate_cauchy", counting)
    return full, segments


@pytest.mark.parametrize("method", ["picard", "shooting", "both"])
def test_closing_march_carries_each_orbit_once(tmp_path, capsys, method):
    """solve-periodic on feasible_periodic.cfg makes one full-period march,
    Picard's close of its lone start, when Picard runs, and none under
    shooting, whose orbit is its last segment march."""
    text = (CONFIG_DIR / "feasible_periodic.cfg").read_text(encoding="utf-8")
    text = text.replace("solver.method = both", f"solver.method = {method}")
    if method == "shooting":
        text = text.replace("solver.n_t = 2048\n", "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patched:
        full, _ = _count_integrations(patched.setattr)
        argv = ["solve-periodic", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]
        assert cli.main(argv) == 0
    capsys.readouterr()  # swallow the written-path listing
    assert full == ([] if method == "shooting" else [(18,)])


def _junction_mismatches(sys, orbit, n_seg):
    """|F_k(x_k) - x_(k+1 mod K)| per segment k, each start x_k a row of the
    orbit marched alone from its own time over N / K steps."""
    starts = np.concatenate([orbit.u, orbit.w], axis=1)[:: len(orbit.times) // n_seg]
    t0 = orbit.times[:: len(orbit.times) // n_seg]
    dt = sys.period / len(orbit.times)
    ends = [
        integrate_cauchy(sys, x[None], sys.period / n_seg, dt, t[None]).x[-1, 0]
        for x, t in zip(starts, t0)
    ]
    return np.linalg.norm(ends - np.roll(starts, -1, axis=0), axis=1)


_CLOSING_CASES = [
    pytest.param(feasible_system(m=8), PERIOD / 1024, id="criterion-3"),
    pytest.param(
        GalerkinSystem(
            build_basis(GEOM, 16, feasible_model()),
            feasible_model(),
            Stimulus("pulse", period=4.0, phi_value=1.0, amplitude=1.0),
        ),
        4.0 / 1024,
        id="pulse-m16-phi1-T4",
    ),
]


@pytest.mark.parametrize("sys, dt", _CLOSING_CASES)
def test_shooting_start_closes_alone_over_one_period(sys, dt):
    """Shooting's returned start, integrated alone over one period, comes
    back to itself within 1e-8 relative (measured 5.2e-11 on criterion 3's
    system and 1.1e-11 on the pulse), although shooting integrated it only
    segment by segment."""
    orbit = shooting_solve(sys, dt)
    start = np.concatenate([orbit.u[0], orbit.w[0]])
    end = integrate_cauchy(sys, start, sys.period, dt).x[-1]
    residual = np.linalg.norm(end - start) / max(1.0, float(np.linalg.norm(start)))
    assert residual <= 1e-8, f"one-period residual {residual:.3e}"


@pytest.mark.parametrize("sys, dt", _CLOSING_CASES)
def test_shooting_residual_is_its_largest_junction_mismatch(sys, dt):
    """The reported residual is the largest mismatch at the K = 16 junctions
    of the returned rows relative to x_0, recomputed by marching each
    segment's first row alone, and it meets tol. The recomputation is exact
    at m <= 12, where a stacked member's bits are its lone march's; past
    that the last bits may differ (7.9e-18 measured at m = 16)."""
    orbit = shooting_solve(sys, dt)
    mismatch = _junction_mismatches(sys, orbit, 16)
    start = np.concatenate([orbit.u[0], orbit.w[0]])
    expected = float(np.max(mismatch)) / max(1.0, float(np.linalg.norm(start)))
    slack = 0.0 if sys.basis.m <= 12 else 1e-15
    assert abs(orbit.periodicity_residual - expected) <= slack
    assert orbit.periodicity_residual <= 1e-10


def test_shooting_matches_columnwise_newton_with_fewer_integrations():
    """Multiple shooting from the linear monodromy lands on the per-column
    Newton fixed point to within tol, on 2 segments at T/128 and on 16 at
    T/1024, with one march of the segment states per iterate and no
    full-period integration."""
    sys = feasible_system(m=2)
    for n_steps, n_seg in ((128, 2), (1024, 16)):
        dt = PERIOD / n_steps
        ref_traj, ref_iter, ref_residual = _columnwise_shooting(sys, dt)
        with pytest.MonkeyPatch.context() as patched:
            full, segments = _count_integrations(patched.setattr)
            orbit = periodic.shooting_solve(sys, dt=dt)
        gap = max(
            float(np.max(np.abs(orbit.u - ref_traj.u[:-1]))),
            float(np.max(np.abs(orbit.w - ref_traj.w[:-1]))),
        )
        assert gap <= 1e-10, f"fixed points differ by {gap:.3e} at T/{n_steps}"
        assert orbit.periodicity_residual <= 1e-10 and ref_residual <= 1e-10
        assert full == []
        assert segments == [(n_seg, 6)] * (orbit.n_iter + 1)
        assert len(full) + len(segments) < 2 + ref_iter * (2 * sys.n_modes + 1)


def _single_state_broyden(sys, dt, tol=1e-10, max_iter=25):
    """Reference: Broyden's "good" method on flow_T(x) - x from R^N - I and
    the linear periodic start, one single-state integration per iterate;
    returns the defect history and the final state."""
    T = sys.period
    n_steps = round(T / dt)
    drive = sys.stim(periodic._nodes(T, n_steps))
    u_lin = periodic._periodic_response(sys.basis.lambdas, T, drive[:, None] * sys.trace_vector)
    x = np.concatenate([u_lin[0], periodic._w_block(sys, u_lin)[0]])
    jac = periodic._linear_monodromy(sys, dt, n_steps)
    g = integrate_cauchy(sys, x, T, dt).x[-1] - x
    history = [float(np.linalg.norm(g))]
    while history[-1] > tol * max(1.0, float(np.linalg.norm(x))) and len(history) <= max_iter:
        dx = np.linalg.solve(jac, -g)
        x = x + dx
        g_next = integrate_cauchy(sys, x, T, dt).x[-1] - x
        jac += np.outer(g_next - g - jac @ dx, dx) / (dx @ dx)
        g = g_next
        history.append(float(np.linalg.norm(g)))
    return history, x


@pytest.mark.parametrize("m, phi", [(2, 0.5), (2, 5.0), (4, 40.0)])
def test_one_segment_is_single_state_broyden(m, phi):
    """At N = 67 steps, odd, shooting keeps one segment, and its defect history
    is that of single-state Broyden to 1e-12 of the start defect (measured
    1.6e-16 at phi = 40, where late entries are a few ulps of the state and
    differ by rounding; equal at the others)."""
    sys = feasible_system(m=m, phi=phi)
    dt = PERIOD / 67
    assert periodic._segments(67) == 1
    reference, x = _single_state_broyden(sys, dt)
    orbit = shooting_solve(sys, dt=dt)
    np.testing.assert_allclose(orbit.history, reference, rtol=1e-12, atol=1e-12 * reference[0])
    start = np.concatenate([orbit.u[0], orbit.w[0]])
    assert np.max(np.abs(start - x)) <= 1e-12 * max(1.0, float(np.max(np.abs(x))))


def test_segment_count_rule():
    """The largest power of two up to 16 that divides N into segments of at
    least 64 steps."""
    counts = {n: periodic._segments(n) for n in (64, 67, 96, 128, 192, 256, 1000, 1024, 4096)}
    assert counts == {64: 1, 67: 1, 96: 1, 128: 2, 192: 2, 256: 4, 1000: 8, 1024: 16, 4096: 16}


@settings(max_examples=10, deadline=None)
@given(m=st.integers(0, 24), extra_steps=st.integers(0, 256))
def test_linear_monodromy_matches_finite_difference_jacobian(m, extra_steps):
    """Undriven and reaction-free, the RK4 flow is linear, so the difference
    quotient of the period map along each unit vector is exact: the images
    of the basis vectors are the columns of R^N. Every step count from the
    least one inside RK4's stability limit upward qualifies."""
    sys = linear_system(m=m, s0=0.0, phi=0.0)
    fastest = max(float(np.max(sys.basis.lambdas)), sys.recovery_rate)
    n_steps = int(np.ceil(PERIOD * fastest / 2.7852935634)) + extra_steps
    dt = PERIOD / n_steps
    images = np.array(
        [integrate_cauchy(sys, e, PERIOD, dt).x[-1] for e in np.eye(2 * sys.n_modes)]
    ).T
    closed = periodic._linear_monodromy(sys, dt, n_steps) + np.eye(2 * sys.n_modes)
    rel = np.linalg.norm(closed - images) / np.linalg.norm(images)
    assert rel <= 1e-12, f"closed-form monodromy off by {rel:.3e} relative"


def test_linear_monodromy_leading_multiplier_is_recovery_decay():
    sys = feasible_system(m=8)
    n_steps = 1024
    h = PERIOD / n_steps
    multipliers = np.linalg.eigvals(periodic._linear_monodromy(sys, h, n_steps) + np.eye(18))
    z = -h * EPSILON * sys.d.b * XI * sys.d.c3
    rk4 = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) ** n_steps
    leading = float(np.max(np.abs(multipliers)))
    assert leading == pytest.approx(rk4, rel=1e-12)
    assert round(leading, 5) == 0.78663


@settings(max_examples=10, deadline=None)
@given(
    amplitude=st.floats(0.5, 1.0),
    phi=st.floats(0.005, 5.0),
    m=st.sampled_from([2, 4]),
)
def test_shooting_agrees_with_picard_across_drives(amplitude, phi, m):
    sys = feasible_system(m=m, amplitude=amplitude, phi=phi)
    n_t = 256
    picard = picard_solve(sys, n_t, DT)
    with pytest.MonkeyPatch.context() as patched:
        full, segments = _count_integrations(patched.setattr)
        shoot = periodic.shooting_solve(sys, dt=PERIOD / n_t)
    assert picard.converged and shoot.converged
    gap = orbit_gap(picard, shoot, sys.basis)
    assert gap <= 1e-6, f"cross-method gap {gap:.3e}"
    assert full == []
    assert segments == [(4, 2 * sys.n_modes)] * (shoot.n_iter + 1)
    assert len(shoot.history) == shoot.n_iter + 1


# reaction_region.cfg's embedding constants, under which a2_bound is its region's ceiling,
# and the span of its raster's positive a1 nodes, a1_max / 32 to a1_max
REGION_EMBEDDING = EmbeddingConstants(
    kappa=0.5, k1=1.0, trace_norm=1.0, domain_measure=1.0, s_sup=1.0, phi_norm=0.005
)
REGION_A1 = (0.05 / 32, 0.05)
_CORNER = {"m": 16, "phi": 10.0, "amplitude": 1.0, "period": 4.0, "kind": "pulse"}


@settings(max_examples=10, deadline=None, derandomize=True)
@example(**_CORNER, reaction=None).xfail(
    raises=AssertionError,
    reason="gap 1.17e-6: RK4's error at T/1024 on an orbit of ct_norm 14.6 (6.9e-8 at T/2048)",
)
@example(**_CORNER, reaction=(REGION_A1[0], 0.0)).xfail(
    raises=NonConvergenceError,
    reason="Picard diverges at lam0 = 0.125 (theta 1 to 0.1); shooting finds ct_norm 47.5",
)
@example(m=2, phi=1.0, amplitude=1.0, period=0.5, kind="sinusoid", reaction=(1.4e-45, 0.0)).xfail(
    raises=NonConvergenceError,
    reason="below the raster's span: lam0 = 1.1e-43, and the zeroth mode's response is 1/lam0",
)
@given(
    m=st.sampled_from([2, 4, 8, 16]),
    phi=st.floats(np.log(0.005), np.log(10.0)).map(np.exp),
    amplitude=st.floats(0.1, 1.0),
    period=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    kind=st.sampled_from(["sinusoid", "pulse"]),
    reaction=st.none() | st.tuples(st.floats(*REGION_A1), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_both_solvers_across_the_drive_space(m, phi, amplitude, period, kind, reaction):
    """Over the drive space around the feasible model (m up to 16, phi
    log-uniform in [0.005, 10], pulse or sinusoid, T from 0.5 to 4) both
    solvers converge at n_t = 1024 and dt = T/1024, each orbit closes after
    one RK4 period to criterion 3's 1e-8, shooting's to its own tol, and the
    two agree to criterion 3's 1e-6.
    The reaction is the feasible model's own (``reaction`` None) or a draw
    (a1, share) under reaction_region.cfg's ceiling: a1 over its raster's
    positive span [0.05/32, 0.05], so lam0 = 80 a1 runs from 0.125 to 4, and
    a2 = share * a2_bound(a1) with share in [0, 1).
    At the strategy's corner (m = 16, phi = 10, unit pulse, T = 4) the
    feasible model misses only the gap, which is checked last: shooting's
    orbit carries RK4's fourth-order error, which halving dt divides by 17,
    and Picard's is exact in time (n_t = 1024 and 4096 agree to 2.4e-15).
    At the same corner with a1 at the span's low end Picard diverges."""
    d = feasible_model()
    if reaction is not None:
        a1, share = reaction
        d = with_reaction(d, a1, share * a2_bound(a1, d, REGION_EMBEDDING))
    stim = Stimulus(kind, period=period, phi_value=phi, amplitude=amplitude)
    sys = GalerkinSystem(build_basis(GEOM, m, d), d, stim)
    picard = picard_solve(sys, 1024, period / 1024)
    shoot = periodic.shooting_solve(sys, dt=period / 1024)
    assert picard.converged and shoot.converged
    assert picard.periodicity_residual <= 1e-8, f"picard {picard.periodicity_residual:.3e}"
    assert shoot.periodicity_residual <= 1e-8, f"shooting {shoot.periodicity_residual:.3e}"
    assert shoot.periodicity_residual <= 1e-10, "shooting returned an orbit past its tol"
    gap = orbit_gap(picard, shoot, sys.basis)
    assert gap <= 1e-6, f"cross-method gap {gap:.3e}"


def test_broyden_update_carries_a_strong_drive():
    """At phi = 40 the plain chord step x - (R^N - I)^-1 g(x) stalls past 25
    steps; the rank-one updates of the two segment blocks converge in about
    a dozen (13 measured; single-state Broyden took 10)."""
    sys = feasible_system(m=2, phi=40.0)
    orbit = shooting_solve(sys, dt=PERIOD / 128)
    assert orbit.n_iter <= 15
    assert orbit.periodicity_residual <= 1e-10
    assert orbit.history[-1] < 1e-10 * orbit.history[0]


def test_shooting_stall_raises_with_defect_history():
    sys = feasible_system(m=2, phi=0.5)  # takes 3 steps from the linear start
    with pytest.raises(NonConvergenceError, match="did not converge in 1 steps") as info:
        shooting_solve(sys, dt=PERIOD / 128, max_iter=1)
    history = info.value.history
    assert len(history) == 2 and history[1] < history[0]


def test_shooting_singular_jacobian_raises_with_defect_history(monkeypatch):
    """A Jacobian that numpy cannot solve with ends the iteration as non-convergence."""

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    sys = feasible_system(m=2, phi=0.5)
    message = r"^period-map jacobian is singular \(condition estimate \d\.\d{3}e[+-]\d+\)$"
    with pytest.raises(NonConvergenceError, match=message) as info:
        shooting_solve(sys, dt=PERIOD / 128)
    history = info.value.history
    assert len(history) == 1 and history[0] > 1e-10
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_zero_shooting_cap_accepts_only_a_start_on_the_orbit():
    """max_iter = 0 takes no step: the reaction-free constant drive starts on
    its RK4 orbit and is returned, any other start stalls at once."""
    orbit = shooting_solve(linear_system(m=4), dt=PERIOD / 128, max_iter=0)
    assert orbit.n_iter == 0 and len(orbit.history) == 1
    with pytest.raises(NonConvergenceError, match="did not converge in 0 steps"):
        shooting_solve(feasible_system(m=2, phi=0.5), dt=PERIOD / 128, max_iter=0)


def test_methods_agree_on_feasible_configuration():
    sys = feasible_system(m=4)
    picard = picard_solve(sys, 2048, DT, tol=1e-12)
    shoot = shooting_solve(sys, dt=PERIOD / 1024, tol=1e-12)
    gap = orbit_gap(picard, shoot, sys.basis)
    assert gap < 1e-6, f"cross-method gap {gap:.3e}"


def test_orbit_gap_validation():
    sys = feasible_system(m=4)
    a = picard_solve(sys, 128, DT)
    b = picard_solve(sys, 192, DT)
    with pytest.raises(ValueError, match="grids with 192 and 128 nodes do not nest"):
        orbit_gap(a, b, sys.basis)
    assert orbit_gap(a, a, sys.basis) == 0.0
    # nested grids compare on the coarse nodes whichever orbit comes first:
    # against the zero orbit of the undriven system the gap is a's own norm
    zero = picard_solve(feasible_system(m=4, amplitude=0.0, phi=0.0), 256, DT)
    assert orbit_gap(a, zero, sys.basis) == orbit_gap(zero, a, sys.basis) == a.ct_norm > 0.0


def test_certify_ball_conventions(tmp_path, capsys):
    # the undriven linear system sits at the zero orbit: zero sweeps move it
    zeros = picard_solve(linear_system(s0=0.0), 256, DT)
    assert zeros.n_iter == 0 and len(zeros.times) == 256
    assert zeros.times[0] == 0.0 and zeros.times[1] == pytest.approx(PERIOD / 256)
    assert zeros.ct_norm == 0.0

    sys = linear_system(s0=1.0)
    orbit = picard_solve(sys, 256, DT, tol=1e-12)
    u_star = 1.0 * sys.trace_vector / sys.basis.lambdas
    w_star = u_star / (XI * 1.0)
    hand = float(np.sqrt(np.sum(sys.basis.lambdas * u_star**2) + np.sum(w_star**2)))
    assert orbit.ct_norm == pytest.approx(hand, rel=1e-9)
    # the command's ball is closed: an orbit exactly on the boundary still counts
    report = _solve_periodic_report(tmp_path, capsys, "linear_orbit.cfg")
    assert report["condition_flags"]["ball_member"] is None
    norm = report["payload"]["picard"]["ct_norm"]
    _assert_ball_is_closed(tmp_path, capsys, "linear_orbit.cfg", norm)


def test_invariance_of_critical_ball_sample():
    """Random periodic trajectories inside the critical ball stay inside it."""
    sys = feasible_system(m=4)
    rng = np.random.default_rng(42)
    t = np.arange(512) * (PERIOD / 512)
    for trial in range(5):
        u = np.zeros((512, 5))
        w = np.zeros((512, 5))
        for i in range(5):
            for k in range(4):
                cu, su_, cw, sw_ = rng.standard_normal(4)
                u[:, i] += cu * np.cos(2 * np.pi * k * t / PERIOD) + su_ * np.sin(
                    2 * np.pi * k * t / PERIOD
                )
                w[:, i] += cw * np.cos(2 * np.pi * k * t / PERIOD) + sw_ * np.sin(
                    2 * np.pi * k * t / PERIOD
                )
        radius = R_STAR if trial == 0 else R_STAR * rng.uniform(0.2, 1.0)
        scale = radius / ct_norm(sys, u, w)
        iu, iw = farkas_apply(sys, scale * u, scale * w)
        assert ct_norm(sys, iu, iw) <= R_STAR, f"trial {trial} escaped the ball"
