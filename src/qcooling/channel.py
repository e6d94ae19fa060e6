"""Closed-form populations of every rate law: a thermal attenuator.

Under CONSTANT and FEEDBACK g_down - g_up = gamma, and under SCALED it is
gamma (1 + gamma t), so the map from 0 to t is a phase-insensitive
Gaussian channel Phi(eta, nu), whose eta and nu per law the README
tabulates (Numerical notes).  nu solves nu' = -(g_down - g_up) nu + g_up,
with FEEDBACK's g_up read from its closed-form mean, so no law needs a
quadrature.  The channel is a pure loss of transmissivity tau = eta / G
followed by a quantum-limited amplifier of gain G = 1 + nu (Caruso,
Giovannetti & Holevo, NJP 8, 310, 2006), and on populations both are
binomial kernels (Ivan, Sabapathy & Simon, PRA 84, 042311, 2011):

    loss       p(j|n) = C(n, j) tau^j (1 - tau)^(n - j),
    amplifier  p(m|j) = C(m, j) G^-(j+1) (1 - 1/G)^(m - j),  m >= j.

Each is summed by a recurrence, numpy only.  The loss maps p0's generating
function G0(s) to G0(1 - tau + tau s), by Horner's rule over p0.  The
amplifier's kernel is the loss's at 1/G, transposed and divided by G, so
out_m = g_m(0) / G by de Casteljau's algorithm, g_(i+1)(k) = (nu/G) g_i(k)
+ (1/G) g_i(k + 1), from g_0 the loss's output.  Every step is a convex
combination of non-negative numbers, so the relative error grows by about
one ulp per level, a pure loss leaves exact zeros past p0's degree, and
eta = 1, nu = 0 returns p0 exactly.
"""

from __future__ import annotations

import numpy as np

from .core import _integer
from .lindblad import RateLaw, RateModel


def parameters(model: RateModel, n0: float, t):
    """(eta, nu) of the channel from 0 to t (scalar or array) under
    ``model``; n0, the mean occupation at t = 0, is read by FEEDBACK only."""
    gt = model.gamma * np.asarray(t, dtype=float)
    log_eta = -gt * (1.0 + 0.5 * gt) if model.law is RateLaw.SCALED else -gt
    eta = np.exp(log_eta)
    nu = -model.n_res * np.expm1(log_eta)
    if model.law is RateLaw.FEEDBACK:
        nu = nu + (n0 - model.n_res) * eta * np.expm1(0.5 * gt * gt)
    return eta, nu


def populations(p0, eta, nu, dim: int) -> np.ndarray:
    """Populations of levels 0 .. dim - 1 after the channel Phi(eta, nu)
    acts on the populations p0, one row per sample of the arrays (or
    scalars) eta and nu: the untruncated answer, whose mass from level dim
    up is left out, not reflected, and p0 itself at eta = 1, nu = 0.
    Raises ValueError unless dim is an integer of at least 1 and
    0 < eta <= 1 and nu >= 0, outside which the map is not a channel
    (FEEDBACK heating from n0 = 0 drives nu below 0 past t = 2/gamma)."""
    dim = _integer("dim", dim, 1)
    eta, nu = np.atleast_1d(eta).astype(float), np.atleast_1d(nu).astype(float)
    if not np.all((eta > 0.0) & (eta <= 1.0) & (nu >= 0.0) & (nu < np.inf)):
        raise ValueError("Phi(eta, nu) is not a channel unless 0 < eta <= 1 and "
                         f"0 <= nu < inf; got eta in [{eta.min():g}, {eta.max():g}], "
                         f"nu in [{nu.min():g}, {nu.max():g}]")
    p0 = np.trim_zeros(np.asarray(p0, dtype=float), "b")
    gain = 1.0 + nu
    # tau = eta / G and 1 - tau = (1 - eta + nu) / G; levels first, the
    # coefficients from level dim up never reach the output
    tau, lost = eta / gain, (1.0 - eta + nu) / gain
    g = np.zeros((dim, eta.size))
    for i, p in enumerate(p0[::-1]):
        live = min(i + 1, dim)      # the rows past the degree so far are 0
        g[1:live] = lost * g[1:live] + tau * g[:live - 1]
        g[0] = lost * g[0] + p
    noise, unit = nu / gain, 1.0 / gain
    out = np.empty((eta.size, dim))
    for m in range(dim):
        out[:, m] = g[0]
        g = noise * g[:-1] + unit * g[1:]
    return out / gain[:, None]
