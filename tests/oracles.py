"""Independent reference computations used by several test modules.

Nothing here imports the package under test; each oracle is a from-scratch
implementation against which library output is compared.
"""

import itertools
import math

import numpy as np


def cosine_product_integral(L, freqs):
    """Exact integral over (0, L) of a product of cos(k_j pi x / L).

    Expanding each cosine into exponentials, the integral is L times the
    fraction of sign patterns (s_1..s_n) in {+1,-1}^n whose signed frequency
    sum vanishes. Zero frequencies are allowed (they contribute both signs).
    """
    n = len(freqs)
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        if sum(s * k for s, k in zip(signs, freqs)) == 0:
            hits += 1
    return L * hits / 2.0**n


def golden_section_max(f, lo, hi, iters=200):
    """Locate the maximizer of a unimodal function by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def green_kernel_u(lam, T, t, tau):
    """Two-branch periodic-response kernel of x' = -lam x + F for rate ``lam``.

    Equals e^(-lam (t - tau)) / (1 - e^(-lam T)) when tau <= t, and picks up
    an extra period of decay otherwise. The jump across tau = t is exactly 1,
    and the periodic response is the integral of this kernel times F over one
    period.
    """
    if lam <= 0.0:
        raise ValueError(f"decay rate must be positive, got {lam}")
    c = -1.0 / np.expm1(-lam * T)
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    ahead = tau <= t
    value = np.where(ahead, np.exp(-lam * (t - tau)), np.exp(-lam * (t + T - tau)))
    return c * value


def green_kernel_w(b, c3, xi, epsilon, T, t, tau):
    """Recovery-block kernel: the same kernel at decay rate b c3 xi epsilon."""
    return green_kernel_u(b * c3 * xi * epsilon, T, t, tau)


def reaction_expanded(u, w, d, resc):
    """The cubic reaction term in its expanded textbook form.

    (epsilon / C) * (a1 u^3 + xi a2 u w - a1 (u_pr + u_tr) u^2), with ``d``
    and ``resc`` any objects carrying those constants as attributes.
    """
    s = resc.epsilon / d.C
    return s * (d.a1 * u**3 + resc.xi * d.a2 * u * w - d.a1 * (d.u_pr + d.u_tr) * u**2)
