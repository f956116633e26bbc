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


def rk4_stage_oracle(sys, mask=None):
    """The fused RK4 stage ``stage(s, x)`` as one function, rebuilding its scratch per call.

    ``sys`` is any object carrying ``basis`` (``psi_quad``, ``quad_weights``,
    ``lambdas``), ``d`` (the reaction constants), ``recovery_gain``,
    ``recovery_rate`` and ``trace_vector``. One nodal product of the (u, w)
    rows, the reaction written into a [reaction | state | drive] row buffer,
    then one back-projection product, in that order and on those shapes, so
    the bits are those the integrator is held to.
    """
    basis, d = sys.basis, sys.d
    n, n_quad = len(basis.lambdas), len(basis.quad_weights)
    psi_t = np.ascontiguousarray(basis.psi_quad.T)
    weights = np.zeros((n_quad + 2 * n + 1, 2 * n))
    weights[:n_quad, :n] = -(basis.quad_weights[:, None] * basis.psi_quad)
    linear_t = weights[n_quad:-1]
    np.fill_diagonal(linear_t, np.concatenate([-basis.lambdas, np.full(n, -sys.recovery_rate)]))
    linear_t[:n, n:] = sys.recovery_gain * np.eye(n)
    weights[-1, :n] = sys.trace_vector
    cubic = (d.epsilon / d.C) * d.a1
    coupling = (d.epsilon / d.C) * d.xi * d.a2
    shift = d.u_pr + d.u_tr

    def stage(s, x):
        nodal = (x.reshape(-1, n) @ psi_t).reshape(x.shape[:-1] + (2, -1))
        u, w = nodal[..., 0, :], nodal[..., 1, :]
        buf = np.empty(x.shape[:-1] + (len(weights),))
        bracket = np.subtract(u, shift)
        bracket *= u
        bracket *= cubic
        bracket += coupling * w
        np.multiply(bracket, u, out=buf[..., :n_quad])
        buf[..., n_quad:-1] = x
        buf[..., -1:] = s
        dx = buf @ weights
        if mask is not None:
            dx *= mask
        return dx

    return stage


def rk4_step_oracle(stage, drive, x, h):
    """One classical RK4 step, x + (h/6) (k1 + 2 k2 + 2 k3 + k4) with that association."""
    s0, s_half, s1 = drive
    k1 = stage(s0, x)
    y = k1 * (0.5 * h)
    y += x
    k2 = stage(s_half, y)
    np.multiply(k2, 0.5 * h, out=y)
    y += x
    k3 = stage(s_half, y)
    np.multiply(k3, h, out=y)
    y += x
    k4 = stage(s1, y)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += x
    return k2


def rk4_march_oracle(stage, stim, x, times, offsets=None):
    """The state at every node of ``times``, one :func:`rk4_step_oracle` per step.

    Step k drives its stages at t, t + h/2 and t + h, with t = times[k] and
    h = times[k + 1] - t. Given ``offsets``, x is a stack (k, 1, 2 n) whose
    member j is driven at offsets[j] + t through a (k, 1, 1) column.
    """
    states = [x]
    for t, h in zip(times[:-1], np.diff(times)):
        stage_times = np.array([t, t + 0.5 * h, t + h])
        if offsets is None:
            drive = [float(s) for s in stim(stage_times)]
        else:
            drive = list(stim(stage_times[:, None, None, None] + offsets[:, None, None]))
        x = rk4_step_oracle(stage, drive, x, float(h))
        states.append(x)
    return np.array(states)
