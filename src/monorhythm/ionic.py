"""Rogers-McCulloch reaction terms and the parameter derivations behind them.

Everything downstream works in transformed variables: the potential is shifted
by the resting value, the recovery variable is scaled by ``xi``, and time is
scaled by ``epsilon``. Raw-unit quantities enter only through
:class:`PhysiologicalParameters`; :func:`derive_parameters` turns them and the
two scale factors into the one :class:`DerivedParameters` object the solvers
consume, which carries epsilon, xi and the zeroth eigenvalue
lam0 = epsilon c4 / C. The fields that depend on the reaction coefficients
(a1, a2) are written once, in :func:`reaction_constants`, which the
parameter-region sweep also evaluates through :func:`with_reaction`. The cubic
reaction term is written once, in :func:`reaction`, which binds its constants
and returns the evaluator that the RK4 stage and
:func:`monorhythm.spectral.project_nonlinearity` both call; the coefficients
of the linear recovery law are written once, in
:class:`monorhythm.galerkin.GalerkinSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PhysiologicalParameters",
    "DerivedParameters",
    "derive_parameters",
    "reaction_constants",
    "with_reaction",
    "reaction",
    "rescale_period",
    "check_decay_rates",
]


@dataclass(frozen=True)
class PhysiologicalParameters:
    """Membrane and ionic constants in their original units.

    ``c1`` and ``c2`` may be zero (that switches the reaction off, which the
    linear test problems rely on); the remaining rate constants must be
    strictly positive.
    """

    u_res: float
    u_peak: float
    a: float
    c1: float
    c2: float
    c3: float
    b: float
    C_m: float = 1.0
    chi: float = 1.0
    sigma_const: float = 1.0

    def __post_init__(self) -> None:
        if not self.u_peak > self.u_res:
            raise ValueError(
                f"u_peak must exceed u_res, got u_peak={self.u_peak} and u_res={self.u_res}"
            )
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"threshold fraction a must lie in (0, 1), got {self.a}")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("c1 and c2 must be nonnegative")
        for name in ("c3", "b", "C_m", "chi", "sigma_const"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def C(self) -> float:
        """Effective capacitance per volume, the product chi * C_m."""
        return self.chi * self.C_m


@dataclass(frozen=True)
class DerivedParameters:
    """The rescaled model: constants computed once and reused everywhere.

    u_tr and u_pr are the threshold and peak potentials above rest; a1 and
    a2 the cubic and quadratic reaction coefficients; lam0 = epsilon c4 / C
    the zeroth eigenvalue of the elliptic operator, the rate of the load
    curve. The growth-bound constants A1..A3 bound the reaction terms
    polynomially. The solvers never recompute them. The tail fields are the
    scale factors and physiological constants the modal system reads
    alongside them, and the configured c4, if any, that pins lam0.
    """

    u_tr: float
    u_pr: float
    a1: float
    a2: float
    lam0: float
    A1: float
    A2: float
    A3: float
    epsilon: float
    xi: float
    C: float
    b: float
    c3: float
    sigma_const: float
    c4_override: float | None = None


def reaction_constants(a1, a2, u_tr, u_pr, epsilon, xi, C, c4=None) -> dict:
    """lam0, A1, A2 and A3 of the model at reaction coefficients (a1, a2), by field name.

    c4 defaults to a1 u_tr u_pr and enters only through lam0 = epsilon c4 / C.
    Elementwise in a1 and a2, so the parameter-region sweep evaluates the model
    on a whole a1 grid with the same arithmetic derive_parameters uses.
    """
    if c4 is None:
        c4 = a1 * u_tr * u_pr
    scale = epsilon / C
    # the share of A2 that comes from the cubic coefficient a1
    l2 = a1 * scale * (1.0 + (2.0 / 3.0) * (u_tr + u_pr) + u_tr * u_pr / 3.0)
    return {
        "lam0": epsilon * c4 / C,
        "A1": a1 * scale * ((u_tr + u_pr) / 3.0 + (2.0 / 3.0) * u_tr * u_pr),
        "A2": l2 + (2.0 / 3.0) * xi * a2,
        "A3": xi * a2 / 3.0,
    }


def derive_parameters(
    phys: PhysiologicalParameters,
    epsilon: float,
    xi: float,
    c4_override: float | None = None,
) -> DerivedParameters:
    """Compute the rescaled model from raw constants and the scale factors
    ``epsilon`` (time) and ``xi`` (recovery), both positive.

    The reaction-dependent fields come from :func:`reaction_constants`.
    ``c4_override`` replaces the product a1 u_tr u_pr as c4. That keeps the
    periodic-response kernels well defined when c1 = 0 forces a1 = 0 (pure
    linear runs); it does not touch the reaction terms themselves. The model
    keeps it, so :func:`with_reaction` keeps lam0 pinned too.
    """
    if epsilon <= 0.0 or xi <= 0.0:
        raise ValueError("epsilon and xi must be positive")
    u_amp = phys.u_peak - phys.u_res
    a1 = phys.c1 / u_amp**2
    a2 = phys.c2 / u_amp
    u_th = phys.u_res + phys.a * u_amp
    u_tr = u_th - phys.u_res
    u_pr = u_amp
    return DerivedParameters(
        u_tr=u_tr,
        u_pr=u_pr,
        a1=a1,
        a2=a2,
        **reaction_constants(a1, a2, u_tr, u_pr, epsilon, xi, phys.C, c4_override),
        epsilon=epsilon,
        xi=xi,
        C=phys.C,
        b=phys.b,
        c3=phys.c3,
        sigma_const=phys.sigma_const,
        c4_override=c4_override,
    )


def with_reaction(d: DerivedParameters, a1, a2) -> DerivedParameters:
    """The model ``d`` moved to reaction coefficients (a1, a2), scalar or array."""
    fields = reaction_constants(a1, a2, d.u_tr, d.u_pr, d.epsilon, d.xi, d.C, d.c4_override)
    return replace(d, a1=a1, a2=a2, **fields)


def reaction(d: DerivedParameters):
    """The nonlinear reaction part of the model ``d`` in transformed variables,
    as a function ``f(u, w, out=None)`` with its constants bound once.

    f = (epsilon / C) (a1 u^3 + xi a2 u w - a1 (u_pr + u_tr) u^2), evaluated
    in the factored form u ((eps / C) a1 (u - (u_pr + u_tr)) u + (eps / C) xi a2 w).
    It takes products only, because NumPy's ``pow`` is slow on arrays of
    mixed sign. The bracket is built in place in one temporary and only the
    last product by u is written to ``out`` when given (a view is fine):
    with every pass in place on the strided rows of a stacked buffer, the
    ladder's (5, 129) nodes at M = 64 took 10.3 us against 6.9 us. The
    linear remainder lam0 u lives in the operator spectrum, not here.
    """
    cubic = (d.epsilon / d.C) * d.a1
    coupling = (d.epsilon / d.C) * d.xi * d.a2
    shift = d.u_pr + d.u_tr

    def f(u, w, out=None):
        bracket = np.subtract(u, shift)
        bracket *= u
        bracket *= cubic
        bracket += coupling * w
        return np.multiply(bracket, u, out=out)

    return f


def rescale_period(t_tilde: float, d: DerivedParameters) -> float:
    """Map a raw-time period to the transformed clock (divide by epsilon)."""
    if t_tilde <= 0.0:
        raise ValueError(f"period must be positive, got {t_tilde}")
    return t_tilde / d.epsilon


def check_decay_rates(rates) -> None:
    """Raise unless every decay rate, a scalar or an array, is positive and finite.

    A mode x' = -rate x + F with T-periodic forcing has a unique T-periodic
    response only then. The rates are lam0 = epsilon c4 / C in the window
    analysis, and every eigenvalue and the recovery rate in the solvers.
    """
    rates = np.ravel(rates)
    bad = rates[~(np.isfinite(rates) & (rates > 0.0))]
    if bad.size:
        raise ValueError(
            f"decay rate must be positive and finite, got {bad[0]} (periodic response undefined)"
        )
