"""European option pricing by Fourier-cosine expansion, Black-Scholes
utilities, and implied-volatility error metrics.

The COS pricer (Fang & Oosterlee 2008) expands the density of the T-day
log-return y in COS_TERMS cosine terms on the truncation interval
[a, b] = c1 -/+ COS_WIDTH*sqrt(c2 + sqrt(c4)) built from the model's
risk-neutral cumulants (`cos_interval`).  With phi the characteristic
function of y and u_k = k*pi/(b-a), the density coefficients are

    A_k = 2/(b-a) * Re[ phi(u_k) exp(-i u_k a) ],

and the discounted expected payoff of a strike-K option reduces to closed
cosine integrals of K*(exp(y + x) - 1) over the in-the-money region, with
x = log(S/K).  Keeping the expansion in y (rather than log(S_T/K)) lets
one characteristic-function pass on the shared u-grid price every strike
of a maturity: `cos_price` evaluates its cf once per call, reads the
cf(0) = 1 check from phi(u_0) (u_0 = 0), and broadcasts over strikes and
option types; each strike's price is its row of the (strikes, N) payoff
coefficients times the N density coefficients.  `price_chain` makes one
such call per (quote_date, maturity) group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .errors import (
    InversionDomainError,
    LhargError,
    NumericalError,
    ValidationError,
)
from .mgf import mgf_q, raw_cumulants
from .model import MarketState, ModelParams, RiskPremia
from .options import OPTION_TYPES, OptionChain, OptionQuote

TRADING_DAYS = 252  # annualization factor for reported implied vols
COS_TERMS = 512     # N, the number of cosine terms
COS_WIDTH = 10.0    # L in the cumulant-based truncation rule


def cos_interval(params: ModelParams, state: MarketState | None,
                 premia: RiskPremia, tau_days: int) -> tuple[float, float]:
    """Truncation interval [a, b] = c1 -/+ COS_WIDTH * sqrt(c2 + sqrt(c4))
    from the raw cumulants of the tau-day log-return under the premia."""
    c1, c2, _, c4 = raw_cumulants(params, state, tau_days, premia=premia)
    half = COS_WIDTH * np.sqrt(c2 + np.sqrt(max(c4, 0.0)))
    if not (half > 0.0):
        raise NumericalError("degenerate truncation interval")
    return c1 - half, c1 + half


def _chi_psi(u: np.ndarray, a: float, c: np.ndarray, d: np.ndarray):
    # chi = int_c^d exp(y) cos(u (y-a)) dy, psi same with exp(y) -> 1:
    # one row per strike, one column per u_k
    ac = (c - a)[:, None] * u
    ad = (d - a)[:, None] * u
    sc, sd, cc, cd = np.sin(ac), np.sin(ad), np.cos(ac), np.cos(ad)
    chi = (np.exp(d)[:, None] * (cd + u * sd)
           - np.exp(c)[:, None] * (cc + u * sc)) / (1.0 + u * u)
    psi = np.empty_like(chi)
    psi[:, 0] = d - c
    psi[:, 1:] = (sd[:, 1:] - sc[:, 1:]) / u[1:]
    return chi, psi


def cos_price(cf, S, K, r, tau_days: int, option_type, a: float, b: float):
    """Discounted expected payoff of European options by cosine expansion.

    cf must be the (vectorized) characteristic function of the log-return
    over the full maturity.  It is called once, on the grid u_k =
    k*pi/(b-a), k < COS_TERMS, and its value at u_0 = 0 must be 1 within
    1e-10.  The density is expanded on the truncation interval [a, b],
    which must satisfy b > a (see cos_interval).

    S, K, r and option_type broadcast against each other like the
    arguments of a numpy ufunc, and every strike is priced from the one cf
    grid: scalars give a float, arrays an array of their broadcast shape.
    A price whose expansion falls below -1e-10 is NaN in an array result,
    so one strike cannot fail the others; a scalar call raises
    NumericalError for it.
    """
    if not b > a:
        raise ValidationError("truncation interval requires b > a")
    u = np.arange(COS_TERMS) * np.pi / (b - a)
    phi = np.asarray(cf(u), dtype=complex)
    if abs(phi[0] - 1.0) > 1e-10:
        raise ValidationError("characteristic function is not normalized")
    dens = (2.0 / (b - a)) * np.real(phi * np.exp(-1j * u * a))
    dens[0] *= 0.5

    S, K, r, kind = np.broadcast_arrays(S, K, r, option_type)
    shape = S.shape
    S, K, r, kind = (np.ravel(v) for v in (S, K, r, kind))
    call = kind == "call"
    bad = ~(call | (kind == "put"))
    if bad.any():
        raise ValidationError(f"option type must be call or put, "
                              f"got {kind[bad].tolist()[0]!r}")
    # in the money for y above -log(S/K) (calls) or below it (puts); an
    # interval that misses [a, b] shrinks to a point and prices to 0
    edge = np.clip(-np.log(S / K), a, b)
    chi, psi = _chi_psi(u, a, np.where(call, edge, a), np.where(call, b, edge))
    # the put's payoff K - S e^y has the opposite signs
    sign = np.where(call, 1.0, -1.0)
    coef = (sign * S)[:, None] * chi - (sign * K)[:, None] * psi
    # one dot per strike, not a matrix product: BLAS rounds a row of a
    # matrix product differently with the number of rows, and a strike's
    # price must not depend on the strikes priced with it
    price = np.exp(-r * tau_days) * np.array([row @ dens for row in coef])
    if not shape and price[0] < -1e-10:
        raise NumericalError(f"COS price {price[0]:.3e} below -1e-10")
    price = np.where(price < -1e-10, np.nan, np.maximum(price, 0.0))
    return price.reshape(shape) if shape else float(price[0])


def bs_price(S: float, K: float, r: float, sigma: float, tau: float,
             option_type: str) -> float:
    """Black-Scholes value; r, sigma, and tau must share one time unit."""
    if min(S, K, tau) <= 0.0 or sigma < 0.0:
        raise ValidationError("bs_price requires positive S, K, tau and "
                              "nonnegative sigma")
    if option_type not in OPTION_TYPES:
        raise ValidationError("option type must be call or put, "
                              f"got {option_type!r}")
    if sigma == 0.0:
        fwd = S - K * np.exp(-r * tau)
        return max(fwd, 0.0) if option_type == "call" else max(-fwd, 0.0)
    srt = sigma * np.sqrt(tau)
    d1 = (np.log(S / K) + (r + 0.5 * sigma**2) * tau) / srt
    d2 = d1 - srt
    if option_type == "call":
        return float(S * ndtr(d1) - K * np.exp(-r * tau) * ndtr(d2))
    return float(K * np.exp(-r * tau) * ndtr(-d2) - S * ndtr(-d1))


def bs_vega(S, K, r, sigma, tau) -> float:
    srt = sigma * np.sqrt(tau)
    d1 = (np.log(S / K) + (r + 0.5 * sigma**2) * tau) / srt
    pdf = np.exp(-0.5 * d1 * d1) / np.sqrt(2.0 * np.pi)
    return float(S * pdf * np.sqrt(tau))


def implied_vol(price: float, S: float, K: float, r: float, tau: float,
                option_type: str) -> float:
    """Invert Black-Scholes by bracketing plus Newton refinement.

    Accurate to about 1e-12 in price; prices outside the static
    no-arbitrage bounds raise InversionDomainError.
    """
    disc_k = K * np.exp(-r * tau)
    if option_type == "call":
        lower, upper = max(S - disc_k, 0.0), S
    else:
        lower, upper = max(disc_k - S, 0.0), disc_k
    if not (lower < price < upper):
        raise InversionDomainError(
            f"price {price:.6g} outside no-arbitrage bounds "
            f"({lower:.6g}, {upper:.6g})"
        )

    from scipy.optimize import brentq

    def f(sig):
        return bs_price(S, K, r, sig, tau, option_type) - price

    hi = 1.0 / np.sqrt(tau)
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError("implied vol bracket expansion failed")
    sigma = brentq(f, 1e-12, hi, xtol=1e-12, rtol=8.9e-16)
    # Newton polish takes the residual to machine precision when vega allows
    for _ in range(3):
        resid = f(sigma)
        vega = bs_vega(S, K, r, sigma, tau)
        if vega <= 0.0 or not np.isfinite(vega):
            break
        step = resid / vega
        if sigma - step <= 0.0:
            break
        sigma -= step
        if abs(step) < 1e-16 * max(sigma, 1.0):
            break
    return float(sigma)


def model_char_fn(params: ModelParams, state: MarketState | None,
                  premia: RiskPremia, tau_days: int):
    """Vectorized characteristic function of the tau-day log-return under Q."""
    def cf(u):
        return np.atleast_1d(mgf_q(params, state, premia,
                                   1j * np.asarray(u), tau_days))
    return cf


def model_atm_iv(params: ModelParams, nu1: float, maturity_days: int = 252,
                 state: MarketState | None = None) -> float:
    """Annualized at-the-money implied vol generated by the model."""
    premia = RiskPremia.arbitrage_free(nu1, params.lam)
    a, b = cos_interval(params, state, premia, maturity_days)
    cf = model_char_fn(params, state, premia, maturity_days)
    price = cos_price(cf, 1.0, 1.0, params.r, maturity_days, "call", a, b)
    iv_daily = implied_vol(price, 1.0, 1.0, params.r, maturity_days, "call")
    return iv_daily * np.sqrt(TRADING_DAYS)


@dataclass
class PricedQuote:
    """One chain row: market quote, model price, annualized model IV."""

    quote: OptionQuote
    model_price: float
    model_iv: float
    error: str | None = None


def price_chain(params: ModelParams, nu1: float, chain: OptionChain,
                state) -> list[PricedQuote]:
    """Price every quote of a chain under the risk-neutral model.

    Quotes are grouped by (quote_date, maturity).  Each group gets its own
    truncation interval and one `cos_price` call, which evaluates the
    characteristic function once and prices all the group's strikes; the
    group's market rate replaces the model's baseline rate so discounting
    and the risk-neutral drift stay consistent.  `state` is either a single
    MarketState or a mapping from quote date to state.  Failures of the
    package's own error classes are recorded on the rows instead of
    aborting the chain: a group failure (no state, recursion domain) on
    every row of the group, a strike's negative COS price or failed IV
    inversion on that quote's row alone.  Any other exception is a bug and
    propagates.
    """
    premia = RiskPremia.arbitrage_free(nu1, params.lam)
    groups: dict = {}
    for q in chain:
        groups.setdefault((q.quote_date, q.maturity_days), []).append(q)

    results = []
    for (qdate, tau), quotes in sorted(groups.items()):
        if isinstance(state, MarketState) or state is None:
            st = state
        else:
            try:
                st = state[qdate]
            except KeyError:
                for q in quotes:
                    results.append(PricedQuote(q, np.nan, np.nan,
                                               f"no state for {qdate}"))
                continue
        grp_params = replace(params, r=quotes[0].rate)
        try:
            a, b = cos_interval(grp_params, st, premia, tau)
            prices = cos_price(model_char_fn(grp_params, st, premia, tau),
                               [q.underlying for q in quotes],
                               [q.strike for q in quotes],
                               [q.rate for q in quotes], tau,
                               [q.option_type for q in quotes], a, b)
        except LhargError as exc:
            for q in quotes:
                results.append(PricedQuote(q, np.nan, np.nan, str(exc)))
            continue
        for q, price in zip(quotes, prices):
            try:
                if np.isnan(price):
                    raise NumericalError("COS price NaN or below -1e-10")
                iv = implied_vol(price, q.underlying, q.strike, q.rate, tau,
                                 q.option_type) * np.sqrt(TRADING_DAYS)
                results.append(PricedQuote(q, float(price), float(iv)))
            except LhargError as exc:
                results.append(PricedQuote(q, np.nan, np.nan, str(exc)))
    return results


def rmse_iv(market_ivs, model_ivs) -> float:
    """Percentage implied-volatility RMSE: sqrt(mean((mkt - mod)^2)) * 100."""
    mkt = np.asarray(market_ivs, dtype=float)
    mod = np.asarray(model_ivs, dtype=float)
    if mkt.size == 0 or mkt.shape != mod.shape:
        raise ValidationError("RMSE inputs must be non-empty and aligned")
    return float(np.sqrt(np.mean((mkt - mod) ** 2)) * 100.0)


def rmse_p(market_prices, model_prices) -> float:
    """Percentage RMSE of relative price errors, (mod - mkt)/mkt."""
    mkt = np.asarray(market_prices, dtype=float)
    mod = np.asarray(model_prices, dtype=float)
    if mkt.size == 0 or mkt.shape != mod.shape:
        raise ValidationError("RMSE inputs must be non-empty and aligned")
    if np.any(mkt <= 0.0):
        raise ValidationError("relative price errors need positive prices")
    return float(np.sqrt(np.mean(((mod - mkt) / mkt) ** 2)) * 100.0)
