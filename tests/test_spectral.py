"""Eigenbasis construction, quadrature exactness, the V-norm, and stimulus waveforms."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monorhythm.ionic import (
    DerivedParameters,
    PhysiologicalParameters,
    derive_parameters,
)
from monorhythm.feasibility import h_of_T
from monorhythm.galerkin import GalerkinSystem
from monorhythm.spectral import (
    Geometry1D,
    Stimulus,
    build_basis,
    project_nonlinearity,
    v_norm_sq,
)

from oracles import cosine_product_integral
from systems import feasible_model, linear_model


EPSILON, XI = 0.032, 3.75


def shipped_model():
    phys = PhysiologicalParameters(
        u_res=0.0, u_peak=100.0, a=0.25, c1=125.0, c2=100.0, c3=1.0, b=1.0, sigma_const=1.0
    )
    return derive_parameters(phys, EPSILON, XI)


def plain_laplacian_model():
    """sigma_hat = 1 and lam0 = 0: eigenvalues collapse to (i pi / L)^2."""
    phys = PhysiologicalParameters(
        u_res=0.0, u_peak=1.0, a=0.5, c1=0.0, c2=0.0, c3=1.0, b=1.0, sigma_const=1.0
    )
    return derive_parameters(phys, epsilon=1.0, xi=1.0)


@pytest.mark.parametrize("length", [0.0, -1.0])
def test_nonpositive_interval_length_rejected(length):
    with pytest.raises(ValueError, match=f"^interval length must be positive, got {length}$"):
        Geometry1D(length)


def test_lambda0_equals_operator_shift():
    d = shipped_model()
    basis = build_basis(Geometry1D(1.0), 8, d)
    # c4 = a1 u_tr u_pr = 31.25
    assert basis.lambdas[0] == pytest.approx(EPSILON * 31.25 / d.C, rel=1e-15)
    assert np.all(np.diff(basis.lambdas) > 0.0)


@pytest.mark.parametrize("model", [feasible_model, linear_model])
def test_lam0_has_one_copy(model):
    """The eigenbasis and the load curve read the model's lam0, bit for bit;
    the linear model reaches it through c4_override."""
    d = model()
    assert build_basis(Geometry1D(1.0), 8, d).lambdas[0] == d.lam0
    assert h_of_T(0.0, d.lam0) == 1 / d.lam0


def test_eigenvalues_match_finite_difference_oracle():
    """Cell-centered finite differences on 2000 points reproduce i^2 on (0, pi)."""
    basis = build_basis(Geometry1D(np.pi), 8, plain_laplacian_model())

    n = 2000
    h = np.pi / n
    diag = np.full(n, 2.0 / h**2)
    diag[0] = diag[-1] = 1.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    fd = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)[:9]

    assert basis.lambdas[0] == pytest.approx(0.0, abs=1e-12)
    for i in range(1, 9):
        assert basis.lambdas[i] == pytest.approx(i**2, rel=1e-12)
        assert fd[i] == pytest.approx(basis.lambdas[i], rel=1e-4)


def test_orthonormality_under_quadrature():
    d = shipped_model()
    basis = build_basis(Geometry1D(1.0), 8, d)
    gram = basis.psi_quad.T @ (basis.quad_weights[:, None] * basis.psi_quad)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def midpoint_rule(L, n):
    """Nodes (q + 1/2) L / n and equal weights L / n of the n-point midpoint rule."""
    return (np.arange(n) + 0.5) * (L / n), np.full(n, L / n)


def mode_product_integral(L, modes):
    """Exact integral over (0, L) of a product of orthonormal Neumann modes."""
    exact = cosine_product_integral(L, modes)
    for i in modes:
        exact *= 1.0 / np.sqrt(L) if i == 0 else np.sqrt(2.0 / L)
    return exact


@st.composite
def size_and_quadruple(draw):
    m = draw(st.integers(min_value=0, max_value=64))
    modes = draw(st.lists(st.integers(min_value=0, max_value=m), min_size=4, max_size=4))
    return m, tuple(modes)


@settings(max_examples=200, deadline=None)
@given(size_and_quadruple())
@example((64, (64, 64, 64, 64)))
@example((1, (1, 1, 1, 1)))
@example((0, (0, 0, 0, 0)))
def test_quartic_products_integrate_exactly(case):
    """Any product of four modes, at any size up to m = 64, matches the
    sign-count oracle on the basis's own quadrature."""
    m, modes = case
    L = 1.0
    basis = build_basis(Geometry1D(L), m, shipped_model())
    quad = float(np.sum(basis.quad_weights * np.prod(basis.psi_quad[:, modes], axis=1)))
    assert quad == pytest.approx(mode_product_integral(L, modes), abs=1e-13)


@pytest.mark.parametrize("m", [1, 2, 8, 32, 64])
def test_fewer_midpoints_miss_the_top_quartic(m):
    """2m + 1 midpoints integrate psi_m^4 exactly; 2m midpoints alias its
    frequency-4m part onto the constant, so the node count cannot drop."""
    L = 1.3
    basis = build_basis(Geometry1D(L), m, shipped_model())
    assert basis.n_quad == 2 * m + 1
    exact = mode_product_integral(L, (m, m, m, m))
    assert np.sum(basis.quad_weights * basis.psi_quad[:, m] ** 4) == pytest.approx(exact, rel=1e-13)

    x, weights = midpoint_rule(L, 2 * m)
    psi_m = np.sqrt(2.0 / L) * np.cos(m * np.pi * x / L)
    miss = np.sum(weights * psi_m**4) - exact
    # cos^4 carries cos(4 theta) / 8, which 2m midpoints sum to -1 per node
    assert miss == pytest.approx(-1.0 / (2.0 * L), rel=1e-12)


def test_trace_values():
    d = shipped_model()
    L = 2.0
    basis = build_basis(Geometry1D(L), 6, d)
    stim = Stimulus("constant", period=2.0, phi_value=0.25, amplitude=1.0)
    b = GalerkinSystem(basis, d, stim).trace_vector
    assert b[0] == pytest.approx(0.25 / np.sqrt(L), rel=1e-15)
    for i in range(1, 7):
        assert b[i] == pytest.approx(0.25 * np.sqrt(2.0 / L) * (-1.0) ** i, rel=1e-14)
    off = Stimulus("constant", period=2.0, phi_value=0.0, amplitude=1.0)
    assert np.all(GalerkinSystem(basis, d, off).trace_vector == 0.0)


def test_projection_zero_when_u_zero():
    d = shipped_model()
    basis = build_basis(Geometry1D(1.0), 4, d)
    w = np.linspace(-1.0, 1.0, 5)
    out = project_nonlinearity(basis, np.zeros(5), w, d)
    assert np.all(out == 0.0)


def test_projection_single_mode_cubic_matches_oracle():
    # synthetic constants pick out the pure cubic: f(u, w) = u^3
    d = DerivedParameters(
        u_tr=0.0, u_pr=0.0, a1=1.0, a2=0.0, lam0=0.0, A1=0.0, A2=0.0, A3=0.0,
        epsilon=1.0, xi=1.0, C=1.0, b=1.0, c3=1.0, sigma_const=1.0,
    )
    L = 1.0
    basis = build_basis(Geometry1D(L), 4, d)
    u = np.zeros(5)
    u[1] = 1.0
    proj = project_nonlinearity(basis, u, np.zeros(5), d)
    norm = [1.0 / np.sqrt(L)] + [np.sqrt(2.0 / L)] * 4
    for i in range(5):
        exact = cosine_product_integral(L, (1, 1, 1, i)) * norm[1] ** 3 * norm[i]
        assert proj[i] == pytest.approx(exact, abs=1e-13)


def test_projection_affine_in_w():
    d = shipped_model()
    basis = build_basis(Geometry1D(1.0), 4, d)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(5)
    w = rng.standard_normal(5)
    base = project_nonlinearity(basis, u, np.zeros(5), d)
    slope_1 = project_nonlinearity(basis, u, w, d) - base
    slope_2 = (project_nonlinearity(basis, u, 2.0 * w, d) - base) / 2.0
    assert np.max(np.abs(slope_1 - slope_2)) < 1e-12


def test_projection_batched_rows_match_loop():
    d = shipped_model()
    basis = build_basis(Geometry1D(1.0), 4, d)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((6, 5))
    w = rng.standard_normal((6, 5))
    batched = project_nonlinearity(basis, u, w, d)
    for k in range(6):
        row = project_nonlinearity(basis, u[k], w[k], d)
        assert np.allclose(batched[k], row, rtol=0.0, atol=1e-14)


def test_norms():
    d = shipped_model()
    basis = build_basis(Geometry1D(1.0), 4, d)
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert v_norm_sq(basis, e0) == basis.lambdas[0]

    rng = np.random.default_rng(3)
    u = rng.standard_normal(5)
    assert v_norm_sq(basis, u) >= basis.lambdas[0] * np.linalg.norm(u) ** 2
    # stacked coefficients reduce over the last axis, row by row
    stack = rng.standard_normal((3, 4, 5))
    rows = [[v_norm_sq(basis, stack[i, j]) for j in range(4)] for i in range(3)]
    assert np.allclose(v_norm_sq(basis, stack), rows, rtol=1e-15, atol=0.0)


def test_vnorm_matches_derivative_quadrature():
    """Sum of lambda_i u_i^2 equals lam0 ||u||^2 + ||sqrt(sigma_hat) u'||^2,
    with lam0 = eps c4 / C and sigma_hat = (eps / C) sigma rebuilt from their
    definitions and the derivative integrated on the basis's own midpoint rule."""
    d = shipped_model()
    L = 1.3
    basis = build_basis(Geometry1D(L), 6, d)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(7)
    v_sq = v_norm_sq(basis, u)

    lam0 = EPSILON * (d.a1 * d.u_tr * d.u_pr) / d.C
    sigma_hat = (EPSILON / d.C) * d.sigma_const
    nodes, weights = midpoint_rule(L, basis.n_quad)
    assert basis.n_quad == 13
    assert np.all(basis.quad_weights == L / basis.n_quad)
    i = np.arange(7)
    dpsi = -np.sqrt(2.0 / L) * (i * np.pi / L) * np.sin(np.outer(nodes, i * np.pi / L))
    du_nodal = u @ dpsi.T
    u_nodal = u @ basis.psi_quad.T
    quad_sq = lam0 * np.sum(weights * u_nodal**2) + sigma_hat * np.sum(weights * du_nodal**2)
    assert v_sq == pytest.approx(quad_sq, rel=1e-10)


def test_stimulus_periodicity_and_sup():
    T = 2.0
    stim = Stimulus("sinusoid", period=T, phi_value=0.01, amplitude=1.5, offset=0.25)
    t = np.arange(64) * (T / 64.0)
    assert np.array_equal(stim(t), stim(t + T))
    dense = stim(np.linspace(0, T, 4097))
    assert np.all(np.abs(dense) <= 1.75 + 1e-15)
    assert np.max(dense) == pytest.approx(1.75, rel=1e-15)

    pulse = Stimulus("pulse", period=T, phi_value=0.01, amplitude=2.0, center=0.3, width=0.05)
    assert np.array_equal(pulse(t), pulse(t + T))
    assert pulse(0.3 * T) >= 2.0

    const = Stimulus("constant", period=T, phi_value=0.01, amplitude=-0.75)
    assert np.all(const(t) == -0.75)


@pytest.mark.parametrize(
    "stim",
    [
        Stimulus("constant", period=2.0, phi_value=0.01, amplitude=-0.75),
        Stimulus("sinusoid", period=2.0, phi_value=0.01, amplitude=1.5, offset=0.25),
        Stimulus("pulse", period=2.0, phi_value=0.01, amplitude=2.0, center=0.3, width=0.01),
    ],
    ids=lambda stim: stim.kind,
)
def test_stimulus_on_stage_times_equals_scalar_calls(stim):
    """One array call on every RK4 stage time gives the bits of one scalar call
    per time, over several periods and a shortened last step."""
    times = np.append(np.arange(200) * 0.03, 6.0)
    steps = np.diff(times)
    starts = times[:-1]
    stages = np.stack([starts, starts + 0.5 * steps, starts + steps], axis=1)
    scalar = np.array([[stim(t) for t in row] for row in stages])
    assert np.array_equal(stim(stages), scalar)


def test_stimulus_validation():
    with pytest.raises(ValueError):
        Stimulus("constant", period=0.0, phi_value=1.0, amplitude=1.0)
    with pytest.raises(ValueError):
        Stimulus("pulse", period=1.0, phi_value=1.0, amplitude=1.0, width=0.4)
    with pytest.raises(ValueError):
        Stimulus("square", period=1.0, phi_value=1.0, amplitude=1.0)
