"""Neumann cosine eigenbasis on an interval, with quadrature, the V-norm, and the drive.

The elliptic operator behind the model is v -> -(sigma_hat v')' + lam0 v on
(0, L) with insulated ends, where sigma_hat = (epsilon / C) sigma_const and
lam0 = epsilon c4 / C, both read from the rescaled model ``d``. Its
eigenpairs are closed form: a constant mode plus cosines, with eigenvalues
lam0 + sigma_hat (i pi / L)^2. Projections of the cubic reaction term use
the midpoint rule on 2m + 1 nodes. A product of four modes is a cosine sum
of frequency at most 4m, and on N midpoints
cos(q pi x / L) sums to zero for every 0 < q < 2N (the discrete orthogonality
behind the DCT-II), so the rule integrates every such product exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ionic import reaction

__all__ = [
    "Geometry1D",
    "SpectralBasis",
    "Stimulus",
    "build_basis",
    "project_nonlinearity",
    "v_norm_sq",
]


@dataclass(frozen=True)
class Geometry1D:
    """The interval (0, L); the stimulated boundary is the right endpoint."""

    L: float

    def __post_init__(self) -> None:
        if self.L <= 0.0:
            raise ValueError(f"interval length must be positive, got {self.L}")


def _cosine_modes(x, n_modes: int, L: float) -> np.ndarray:
    """Orthonormal Neumann modes at points x: column i holds psi_i(x)."""
    i = np.arange(n_modes)
    psi = np.sqrt(2.0 / L) * np.cos(np.outer(x, i * np.pi / L))
    psi[:, 0] = 1.0 / np.sqrt(L)
    return psi


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated eigenbasis: modes 0..m with quadrature baked in.

    ``psi_quad[q, i]`` holds mode i evaluated at midpoint node q of the
    2m + 1 that ``build_basis`` lays down, and ``quad_weights`` their equal
    weights, so coefficient-to-nodal maps are single matrix products.
    """

    m: int
    lambdas: np.ndarray
    quad_weights: np.ndarray
    psi_quad: np.ndarray
    trace_values: np.ndarray
    n_quad: int

    @property
    def n_modes(self) -> int:
        return self.m + 1


def build_basis(geom, m, d) -> SpectralBasis:
    """Assemble the cosine eigenbasis for the operator with coefficients from ``d``.

    The eigenvalues are d.lam0 + (epsilon / C) sigma_const (i pi / L)^2, so
    the zeroth one is the model's lam0 itself, not a recomputation of it.

    The quadrature is the midpoint rule: n_quad = 2m + 1 nodes (q + 1/2) L / n_quad
    with equal weights L / n_quad. It is exact for cosines of frequency below
    2 n_quad = 4m + 2, so it integrates every product of four modes, whose
    frequencies reach 4m, and the projected reaction term is alias-free.
    An eigenvalue that overflows, as on a short enough interval, is rejected.
    """
    if m < 0:
        raise ValueError(f"truncation index m must be >= 0, got {m}")
    n_quad = 2 * m + 1

    sigma_hat = (d.epsilon / d.C) * d.sigma_const
    L = geom.L

    i = np.arange(m + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        lambdas = d.lam0 + sigma_hat * (i * np.pi / L) ** 2
    if not np.all(np.isfinite(lambdas)):
        k = int(np.argmin(np.isfinite(lambdas)))
        raise ValueError(f"eigenvalue lambda_{k} = {lambdas[k]} is not finite")

    nodes = (np.arange(n_quad) + 0.5) * (L / n_quad)
    return SpectralBasis(
        m=m,
        lambdas=lambdas,
        quad_weights=np.full(n_quad, L / n_quad),
        psi_quad=_cosine_modes(nodes, m + 1, L),
        trace_values=_cosine_modes([L], m + 1, L)[0],
        n_quad=n_quad,
    )


def project_nonlinearity(basis, u_coeffs, w_coeffs, d) -> np.ndarray:
    """Coefficients of the reaction term: integral of f(u_m, w_m) against each mode.

    Accepts stacked inputs; leading axes broadcast, the last axis indexes modes.
    The inputs are not checked here: Picard calls this on every row block of
    every sweep, and ``picard_solve`` checks its start's shape once per solve.
    The RK4 stage keeps its own copy of the projection
    (``galerkin._stage_kernel``).
    """
    u_nodal = u_coeffs @ basis.psi_quad.T
    w_nodal = w_coeffs @ basis.psi_quad.T
    f_nodal = reaction(d)(u_nodal, w_nodal)
    return (f_nodal * basis.quad_weights) @ basis.psi_quad


def v_norm_sq(basis, u_coeffs) -> np.ndarray:
    """Squared V-norm sum_i lambda_i u_i^2 of potential coefficients, over the last axis.

    H is plain L2 on the interval, so the H-norm of coefficients is their
    Euclidean norm; the V-norm weights each mode by its eigenvalue. The
    weighting is in place: ``lambdas * u**2`` took about three times as
    long on Picard's (8192, 33) residual through its second temporary.
    """
    weighted = u_coeffs * u_coeffs
    weighted *= basis.lambdas
    return np.sum(weighted, axis=-1)


# ----------------------------------------------------------------- stimuli


@dataclass(frozen=True)
class Stimulus:
    """Periodic boundary drive s(t) applied with density phi at x = L.

    ``kind`` picks the waveform: ``constant`` holds ``amplitude``;
    ``sinusoid`` is ``offset`` plus ``amplitude`` times a sine of the period;
    ``pulse`` is ``offset`` plus ``amplitude`` times a periodized Gaussian
    bump, with ``center`` and ``width`` given as fractions of the period.
    ``FIELDS`` names the fields each kind reads; the others keep their defaults.
    """

    FIELDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "constant": (),
        "sinusoid": ("offset",),
        "pulse": ("center", "width", "offset"),
    }

    kind: str
    period: float
    phi_value: float
    amplitude: float
    offset: float = 0.0
    center: float = 0.5
    width: float = 0.05

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError(f"stimulus period must be positive, got {self.period}")
        if self.kind not in self.FIELDS:
            raise ValueError(f"unknown stimulus kind {self.kind!r}")
        if self.kind == "pulse" and not 0.0 < self.width <= 0.25:
            raise ValueError("pulse width fraction must lie in (0, 0.25]")

    def __call__(self, t):
        tau = np.mod(np.asarray(t, dtype=float), self.period)
        if self.kind == "constant":
            return np.full_like(tau, self.amplitude)
        if self.kind == "sinusoid":
            return self.offset + self.amplitude * np.sin(2.0 * np.pi * tau / self.period)
        # periodized Gaussian bump; four periodic images each side flush the
        # tails below double precision for width <= 0.25. The square is a
        # product: a scalar ``** 2`` goes through pow, which can round apart
        # from an array's square, and sampled drives must match scalar ones.
        acc = np.zeros_like(tau)
        c = self.center * self.period
        w = self.width * self.period
        for k in range(-4, 5):
            z = (tau - c + k * self.period) / w
            acc = acc + np.exp(-0.5 * (z * z))
        return self.offset + self.amplitude * acc
