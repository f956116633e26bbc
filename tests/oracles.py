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


def reaction_expanded(u, w, d):
    """The cubic reaction term in its expanded textbook form.

    (epsilon / C) * (a1 u^3 + xi a2 u w - a1 (u_pr + u_tr) u^2), with ``d``
    any object carrying those constants as attributes.
    """
    s = d.epsilon / d.C
    return s * (d.a1 * u**3 + d.xi * d.a2 * u * w - d.a1 * (d.u_pr + d.u_tr) * u**2)


def f_ion_raw(u_hat, w_hat, phys):
    """Rogers-McCulloch ionic current in raw units.

    a1 (u_hat - u_res)(u_hat - u_th)(u_hat - u_peak) + a2 (u_hat - u_res) w_hat
    with a1 = c1 / amp^2, a2 = c2 / amp and u_th = u_res + a amp, where
    amp = u_peak - u_res; ``phys`` is any object carrying those constants.
    """
    amp = phys.u_peak - phys.u_res
    a1, a2 = phys.c1 / amp**2, phys.c2 / amp
    u_th = phys.u_res + phys.a * amp
    du = u_hat - phys.u_res
    return a1 * du * (u_hat - u_th) * (u_hat - phys.u_peak) + a2 * du * w_hat


def g_raw(u_hat, w_hat, phys):
    """Recovery dynamics in raw units: b (u_hat - u_res - c3 w_hat)."""
    return phys.b * (u_hat - phys.u_res - phys.c3 * w_hat)
