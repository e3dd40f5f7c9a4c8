"""Test-local oracles: formulas and writers that the package itself does
not need, kept here so the tests check the package against them.

`difference_hessian` is the likelihood's Hessian by central differences
of its exact scores, against which the closed-form Hessian is checked.
`moment_cumulants` propagates the state's first two moments exactly, a
check on the recursion's multi-day cumulants that shares no step formula.

The package reaches Q one way: the physical recursion on the parameters
of `lharg.model.risk_neutral_parabolic`.  Two independent routes sit
here.  `risk_neutral_map` writes that map out natively from the paper's
formulas, and `shift_and_add` is the tilted recursion, which runs the
pricing kernel's tilt on the physical parameters and needs no map at all.
"""

import csv
from dataclasses import replace

import numpy as np

from lharg import (
    MappingSingularError,
    MarketState,
    ModelParams,
    N_LAGS,
    expand_weights,
    mgf_q,
    parabolic_form,
    theta_noncentrality,
)
from lharg.io import CHAIN_COLUMNS
from lharg.mgf import _guarded


def risk_neutral_map(params: ModelParams, nu1: float) -> ModelParams:
    """Native parameters of the risk-neutral dynamics of variance premium
    nu1, at the equity premium lam + 1/2 that no-arbitrage pins.

    With y* = -lam^2/2 - nu1 + 1/8 and c = 1 - theta*y*, the scale
    parameters divide by c, gamma* = gamma + lam + 1/2 and lam* = -1/2.
    The zero-mean form keeps d = 0: its betas carry alpha*gamma^2 beside
    the parabolic ones, so they map to (beta + alpha*(gamma*^2 - gamma^2))/c.
    """
    c = 1.0 - params.theta * (-0.5 * params.lam**2 - nu1 + 0.125)
    if c <= 0.0:
        raise MappingSingularError(f"scale c = {c:.6g} <= 0")
    g_star = params.gamma_lev + params.lam + 0.5
    shift = g_star**2 - params.gamma_lev**2 if params.is_zero_mean else 0.0
    return replace(
        params, theta=params.theta / c, d=params.d / c,
        beta_d=(params.beta_d + params.alpha_d * shift) / c,
        beta_w=(params.beta_w + params.alpha_w * shift) / c,
        beta_m=(params.beta_m + params.alpha_m * shift) / c,
        alpha_d=params.alpha_d / c, alpha_w=params.alpha_w / c,
        alpha_m=params.alpha_m / c, gamma_lev=g_star, lam=-0.5,
    )


def shift_and_add(p, weights, z, horizon, nu1=None):
    """MGF coefficients (A, B, C) of the tilted recursion on the parabolic
    form p, under the Q of variance premium nu1 (under P when nu1 is None).

    Each day shifts both (n, 22) coefficient matrices by one lag and adds
    the day's increment times the weights.  The kernel's tilt moves z to
    z - nu2 and X by -nu1, and measures each day against the constant
    Y = y_star = -nu2*lam - nu1 + nu2^2/2, the kernel's general tilt, at
    the no-arbitrage equity premium nu2 = lam + 1/2: the increment is
    v(X) - v(Y) and A gains -delta*(w(X) - w(Y)) - d*v(Y), with
    c = 1 - theta*Y.  It equals the physical recursion on the mapped
    parameters, reached without the map and without its collapsed y_star.
    """
    theta, delta, d, g = p.theta, p.delta, p.d, p.gamma_lev
    dtype = np.result_type(z.dtype, float)
    A = np.zeros(z.shape[0], dtype)
    B = np.zeros((z.shape[0], 22), dtype)
    C = np.zeros((z.shape[0], 22), dtype)
    if nu1 is None:
        nu1 = nu2 = y_star = 0.0
    else:
        nu2 = p.lam + 0.5
        y_star = -nu2 * p.lam - nu1 + 0.5 * nu2**2
    c = 1.0 - theta * y_star
    zs = z - nu2
    for step in range(1, horizon + 1):
        C1 = C[:, 0]
        den = 1.0 - 2.0 * C1
        _guarded(den, step, "1 - 2*C_1")
        X = zs * p.lam + B[:, 0] - nu1 \
            + (0.5 * zs * zs + (g * g) * C1 - 2.0 * C1 * g * zs) / den
        one_minus = 1.0 - theta * X
        _guarded(one_minus, step, "1 - theta*X")
        inc = theta * X / one_minus - theta * y_star / c
        A += z * p.r - 0.5 * np.log(den) \
            - delta * (np.log(one_minus) - np.log(c)) + d * inc
        B[:, :-1] = B[:, 1:]
        B[:, -1] = 0.0
        B += inc[:, None] * weights[0]
        C[:, :-1] = C[:, 1:]
        C[:, -1] = 0.0
        C += inc[:, None] * weights[1]
    return A, B, C


def moment_cumulants(p, state: MarketState, horizons):
    """{T: (kappa1, kappa2)} of y_{t,T} over the given horizons, by exact
    propagation of the first two moments of the state
    s = (22 rv lags, 22 lev lags, cumulative y, 1) on the parabolic form p.

    Given s, tomorrow's RV has mean theta (delta + Theta(s)) and variance
    theta^2 (delta + 2 Theta(s)), both affine in s.  Given RV, the new
    leverage (eps - gamma sqrt(RV))^2 has mean 1 + gamma^2 RV and variance
    2 + 4 gamma^2 RV, y = r + lam RV + sqrt(RV) eps has variance RV, and
    their covariance is -2 gamma RV.  So E[s] advances by one matrix M a
    day, and by total covariance Cov(s) by M Cov(s) M^T plus the day's
    conditional covariance at E[s]: no X, v(X) or log, no shared step.
    """
    n = 2 * N_LAGS + 2
    beta, alpha = expand_weights(p)
    theta_of = np.concatenate([beta, alpha, [0.0, p.d]])   # Theta = . @ s
    mean_rv = p.theta * theta_of
    mean_rv[-1] += p.theta * p.delta                        # E[RV' | s]
    g, lam = p.gamma_lev, p.lam
    M = np.zeros((n, n))
    M[0] = mean_rv
    M[N_LAGS] = g * g * mean_rv
    M[2 * N_LAGS] = lam * mean_rv
    M[N_LAGS, -1] += 1.0
    M[2 * N_LAGS, -2:] += (1.0, p.r)
    M[-1, -1] = 1.0
    for first in (0, N_LAGS):           # each row of lags ages by one day
        M[first + 1:first + N_LAGS, first:first + N_LAGS - 1] = \
            np.eye(N_LAGS - 1)
    new = [0, N_LAGS, 2 * N_LAGS]       # rows of RV', lev' and y'
    mean = np.concatenate([state.rv, state.lev, [0.0, 1.0]])
    cov = np.zeros((n, n))
    out = {}
    for day in range(1, max(horizons) + 1):
        m, v = mean_rv @ mean, p.theta**2 * (p.delta + 2.0 * theta_of @ mean)
        cov = M @ cov @ M.T
        cov[np.ix_(new, new)] += [
            [v, g * g * v, lam * v],
            [g * g * v, 2.0 + 4.0 * g * g * m + g**4 * v,
             -2.0 * g * m + g * g * lam * v],
            [lam * v, -2.0 * g * m + g * g * lam * v, m + lam * lam * v]]
        mean = M @ mean
        if day in horizons:
            out[day] = mean[-2], cov[-2, -2]
    return out


def model_cf(params: ModelParams, state: MarketState, nu1, tau: int):
    """Characteristic function u -> E_Q[exp(i u y_{t,tau})] from `mgf_q`;
    on `lharg.pricing._cos_grid(a, b, N)` it gives the N values that
    `lharg.pricing.cos_price` takes."""
    return lambda u: mgf_q(params, state, nu1, 1j * np.asarray(u), tau)


def lewis_calls(params: ModelParams, state: MarketState, nu1, tau: int,
                S: float, K, panels: int = 64):
    """Call prices at rate params.r by Lewis's (2001) Fourier formula, and
    the size |M(1/2 + iU)| of the MGF where its integral is cut off.

        C = S - sqrt(S K) e^{-rT} / pi
              * int_0^U Re[e^{iuk} M(1/2 + iu)] / (u^2 + 1/4) du,

    with k = log(S/K) and M the Q-MGF of the tau-day log-return, taken from
    `shift_and_add` off the imaginary axis, so neither the package's loop
    nor its COS expansion enters.  The integral runs over U = 20/sd, sd =
    sqrt(10 theta tau) a scale of the log-return, by Gauss-Legendre in
    `panels` equal panels of 64 nodes, all in one vectorized recursion.
    """
    p = parabolic_form(params)
    x, w = np.polynomial.legendre.leggauss(64)
    h = 20.0 / np.sqrt(10.0 * params.theta * tau) / panels
    u = (h * np.arange(panels)[:, None] + 0.5 * h * (x + 1.0)).ravel()
    a, b, c = shift_and_add(p, expand_weights(p), 0.5 + 1j * u, tau, nu1)
    m = np.exp(a + b @ state.rv + c @ state.lev)
    k = np.log(S / np.asarray(K, dtype=float))
    integrand = np.real(np.exp(1j * np.outer(k, u)) * m) / (u * u + 0.25)
    integral = integrand @ np.tile(0.5 * h * w, panels)
    calls = S - np.sqrt(S * K) * np.exp(-params.r * tau) / np.pi * integral
    return calls, abs(m[-1])


def conditional_covariance(params: ModelParams, state: MarketState) -> float:
    """Cov(y_t, RV_{t+1} | F_{t-1}) = -2 theta^2 alpha_d gamma (delta + Theta)
    on the parabolic form, exact when lam = 0."""
    p = parabolic_form(params)
    nc = theta_noncentrality(p, state)
    return -2.0 * p.theta**2 * p.alpha_d * p.gamma_lev * (p.delta + nc)


def write_series(path, series, value_column: str) -> None:
    """A date,<value_column> CSV that `lharg.io` loads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", value_column])
        for date, value in zip(series.dates, series.values):
            writer.writerow([date.isoformat(), repr(float(value))])


def write_option_chain(path, chain) -> None:
    """A chain CSV with the market_iv column, in `lharg.io`'s schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*CHAIN_COLUMNS, "market_iv"])
        for q in chain:
            writer.writerow([
                q.quote_date.isoformat(), q.expiry_date.isoformat(),
                repr(float(q.strike)), q.option_type,
                repr(float(q.mid_price)), repr(float(q.underlying)),
                repr(float(q.rate)),
                "" if q.market_iv is None else repr(float(q.market_iv)),
            ])


def difference_hessian(per_obs, x, scale, h=1e-5):
    """Hessian of the summed log-likelihood of `estimate._natural_terms`'
    closure `per_obs` at the natural vector x: row i is the central
    difference of the summed exact scores over x_i +- h * scale_i, and the
    result is made symmetric.  That is 2p calls of `per_obs`.
    """
    p = x.size
    hess = np.empty((p, p))
    for i in range(p):
        step = np.zeros(p)
        step[i] = h * scale[i]
        hess[i] = (per_obs(x + step)[1].sum(axis=0)
                   - per_obs(x - step)[1].sum(axis=0)) / (2.0 * step[i])
    return 0.5 * (hess + hess.T)
