"""Closed-form populations of every rate law: a thermal attenuator.

Under CONSTANT and FEEDBACK g_down - g_up = gamma, and under SCALED it is
gamma (1 + gamma t), so the map from 0 to t is a phase-insensitive
Gaussian channel Phi(eta, nu) with mean n(t) = eta n(0) + nu.  It is a
pure loss of transmissivity tau = eta / G followed by a quantum-limited
amplifier of gain G = 1 + nu (Caruso, Giovannetti & Holevo, NJP 8, 310,
2006), and on populations both are binomial kernels (Ivan, Sabapathy &
Simon, PRA 84, 042311, 2011):

    loss       p(j|n) = C(n, j) tau^j (1 - tau)^(n - j),
    amplifier  p(m|j) = C(m, j) G^-(j+1) (1 - 1/G)^(m - j),  m >= j.

nu solves nu' = -(g_down - g_up) nu + g_up, with FEEDBACK's g_up read from
its closed-form mean, so no law needs a quadrature.  The map is the
untruncated answer: the Fock integrators' reflecting wall is absent, and
the mass beyond ``dim`` levels is simply left out.  numpy only, so that
``qcool verify`` runs without scipy.
"""

from __future__ import annotations

import numpy as np

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


def _log(x):
    """log(x) elementwise, -inf where x is 0, with no divide warning."""
    return np.log(x, out=np.full(x.shape, -np.inf), where=x > 0)


def _kernel(big, small: int, log_a, log_b, log_fact):
    """C(big, small) a^small b^(big - small) for each level of the grid
    ``big`` (zero where big < small), one row per sample of log_a and
    log_b (shape (samples, 1)); b^0 is 1 even where b is 0."""
    excess = big - small
    log_c = np.where(excess >= 0, log_fact[big] - log_fact[small]
                     - log_fact[np.abs(excess)], -np.inf)
    b_part = np.multiply(excess, log_b, out=np.zeros((len(log_b), len(big))),
                         where=excess > 0)
    return np.exp(log_c + small * log_a + b_part)


def populations(p0, eta, nu, dim: int) -> np.ndarray:
    """Populations of levels 0 .. dim - 1 after the channel Phi(eta, nu)
    acts on the populations p0, one row per sample of the arrays (or
    scalars) eta and nu.  Raises ValueError unless 0 < eta <= 1 and
    nu >= 0, outside which the map is not a channel (FEEDBACK heating
    drives nu below 0).  The sum runs over the level j that survives the
    loss, so the temporaries are (samples, levels), not a kernel per
    sample."""
    eta, nu = np.atleast_1d(eta).astype(float), np.atleast_1d(nu).astype(float)
    if not np.all((eta > 0.0) & (eta <= 1.0) & (nu >= 0.0) & (nu < np.inf)):
        raise ValueError("Phi(eta, nu) is not a channel unless 0 < eta <= 1 and "
                         f"0 <= nu < inf; got eta in [{eta.min():g}, {eta.max():g}], "
                         f"nu in [{nu.min():g}, {nu.max():g}]")
    p0 = np.trim_zeros(np.asarray(p0, dtype=float), "b")
    levels = np.arange(max(dim, p0.size))
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(levels[1:]))))
    # tau = eta / G, 1 - tau = (1 - eta + nu) / G and 1 - 1/G = nu / G
    log_g = np.log1p(nu)[:, None]
    log_tau, log_lost = np.log(eta)[:, None] - log_g, _log(1.0 - eta + nu)[:, None] - log_g
    log_noise = _log(nu)[:, None] - log_g
    n, m = levels[:p0.size], levels[:dim]
    out = np.zeros((len(eta), dim))
    for j in range(p0.size):
        kept = _kernel(n, j, log_tau, log_lost, log_fact) @ p0
        out += kept[:, None] * _kernel(m, j, -log_g, log_noise, log_fact)
    return out / (1.0 + nu[:, None])
