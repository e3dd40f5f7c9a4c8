"""European option pricing by Fourier-cosine expansion, Black-Scholes
utilities, and implied-volatility error metrics.

The COS pricer (Fang & Oosterlee 2008) expands the density of the T-day
log-return y in N cosine terms on the truncation interval
[a, b] = c1 -/+ COS_WIDTH*sqrt(c2 + sqrt(c4)) built from the model's
risk-neutral cumulants (`_truncation`).  With phi the characteristic
function of y and u_k = k*pi/(b-a), the density coefficients are

    A_k = 2/(b-a) * Re[ phi(u_k) exp(-i u_k a) ],

and the discounted expected payoff of a strike-K option reduces to closed
cosine integrals of K*(exp(y + x) - 1) over the in-the-money region, with
x = log(S/K).  Keeping the expansion in y (rather than log(S_T/K)) lets
one characteristic-function pass on the shared u-grid price every strike
of a maturity: `cos_price` takes phi(u_k), k < N = len(phi), reads the
cf(0) = 1 check from phi(u_0) (u_0 = 0), and broadcasts over strikes and
option types at one rate; each strike's price is its row of the
(strikes, N) payoff coefficients times the N density coefficients.
`_price_groups` picks N = COS_TERMS, and makes one such call per group.

The recursion's step map does not depend on the day, so the coefficients
of every maturity are iterates of one backward loop.  `price_chain` (and
`model_atm_iv`, its one-group case) therefore runs the recursion twice per
chain, not twice per group: one shared pass over every group's 9-point
cumulant contour, which sets each group's interval
(`mgf._cumulant_segments`), then one over every group's N-point cf grid
(`mgf._log_mgf_segments`), whose loop runs without the rate; each group's
coefficients are then dotted with its date's state, and its rate adds
z*r*T.  A pass that leaves the domain raises, and `price_chain` then
prices each group alone, so a failing group fails alone with its own error.
At N = 256, one 1024-point pass of the recursion holds 4 groups' grids.

N = 256 is the floor that the tail of phi allows.  Over P-LHARG and
ZM-LHARG states with rv lags at scales 1e-6 to 1e-3, maturities of 10 to
365 days and nu1 in {-2000, -3000}, the dropped terms max|phi(u_k)|,
k >= 256, stayed below 9e-14; they are largest on calm 10-day states and
below 1e-15 from 14 days on.  At k in [192, 256) they reached 2.5e-11, so
192 terms are too few.  `tests/test_pricing.py::TestCosTermsGate` holds
that tail below 1e-12, and the N- and 2N-term prices within 1e-12 * K.

Pricing needs numpy alone: the normal CDF of `bs_price` is the standard
library's erfc, and `_brent`, a port of scipy's brentq, inverts it.  scipy
is left to the likelihood and the fit (`estimate`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InversionDomainError,
    LhargError,
    NumericalError,
    ValidationError,
)
from .mgf import _cumulant_segments, _log_mgf_segments
from .model import MarketState, ModelParams, _finite
from .options import OPTION_TYPES, OptionQuote

TRADING_DAYS = 252  # annualization factor for reported implied vols
COS_TERMS = 256     # N, the number of cosine terms: the floor of the tail
                    # of phi (module docstring, TestCosTermsGate)
COS_WIDTH = 10.0    # L in the cumulant-based truncation rule


def _truncation(kappas) -> tuple[float, float]:
    # [a, b] = c1 -/+ COS_WIDTH * sqrt(c2 + sqrt(c4)) from the raw cumulants
    c1, c2, _, c4 = kappas
    half = COS_WIDTH * np.sqrt(c2 + np.sqrt(max(c4, 0.0)))
    if not (half > 0.0):
        raise NumericalError("degenerate truncation interval")
    return c1 - half, c1 + half


def _cos_grid(a: float, b: float, n: int) -> np.ndarray:
    # the u_k = k*pi/(b-a), k < n, of an n-term expansion on [a, b]
    return np.arange(n) * np.pi / (b - a)


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


def cos_price(phi, S, K, r, tau_days: int, option_type, a: float, b: float):
    """Discounted expected payoff of European options by cosine expansion.

    phi is the characteristic function of the log-return over the whole
    maturity on `_cos_grid(a, b, N)`, N = len(phi) > 0 cosine terms: a 1-D
    array with phi[0] = 1 within 1e-10.  [a, b], b > a, is the truncation
    interval of the density, which `price_chain` sets from the cumulants.

    r is one scalar rate, in the time unit of tau_days.  S, K and
    option_type broadcast against each other like the arguments of a numpy
    ufunc, and every strike is priced from the one cf grid: scalars give a
    float, arrays an array of their broadcast shape.  A price whose
    expansion falls below -1e-10 is NaN in an array result, so one strike
    cannot fail the others; a scalar call raises NumericalError for it.
    """
    if not b > a:
        raise ValidationError("truncation interval requires b > a")
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 1 or not phi.size:
        raise ValidationError("phi must be a non-empty 1-D array")
    if not abs(phi[0] - 1.0) <= 1e-10:
        raise ValidationError("characteristic function is not normalized")
    u = _cos_grid(a, b, phi.size)
    dens = (2.0 / (b - a)) * np.real(phi * np.exp(-1j * u * a))
    dens[0] *= 0.5

    S, K, kind = np.broadcast_arrays(S, K, option_type)
    shape = S.shape
    S, K, kind = (np.ravel(v) for v in (S, K, kind))
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


def _norm_cdf(x: float) -> float:
    # the standard normal CDF, within 2e-14 relative of mpmath's on
    # [-10, 10] (TestNormCdf), as close as scipy's ndtr
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(S: float, K: float, r: float, sigma: float, tau: float,
             option_type: str) -> float:
    """Black-Scholes value of one option; r, sigma, and tau must share one
    time unit."""
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
        return float(S * _norm_cdf(d1) - K * np.exp(-r * tau) * _norm_cdf(d2))
    return float(K * np.exp(-r * tau) * _norm_cdf(-d2) - S * _norm_cdf(-d1))


def _brent(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f between xa and xb, where f must change sign, by Brent's
    method as scipy's brentq runs it (scipy/optimize/Zeros/brentq.c) at its
    default rtol and iteration limit: the same points, so the same root
    and the same number of evaluations.

    It stops when the bracket is narrower than xtol + rtol*|x|, rtol being
    4 machine epsilons.  The ends and f's values are cast to float.  A NaN
    value, ends of one sign and 100 steps without convergence raise
    NumericalError.
    """
    rtol = 4.0 * sys.float_info.epsilon
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root search: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(f"root search: f({xpre!r}) = {fpre:.6g} and "
                             f"f({xcur!r}) = {fcur:.6g} share a sign")
    # xcur is the best point, xpre the previous one and xblk the far end
    # of the bracket; scur is the last step and spre the one before it
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan     # bisect unless interpolation proposes a step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # C divides by zero to inf or NaN, which fails the step test
            # below; a Python float raises instead, so it keeps the NaN
            try:
                if xpre == xblk:    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        limit = 3.0 * abs(sbis) - delta
        if 2.0 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
            spre, scur = scur, stry     # a good short step
        else:
            spre = scur = sbis          # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = value(xcur)
    raise NumericalError(f"root search did not converge; last x {xcur!r}")


def implied_vol(price: float, S: float, K: float, r: float, tau: float,
                option_type: str) -> float:
    """Invert Black-Scholes by one Brent solve (`_brent`) on [1e-12, hi],
    with hi doubled from 1/sqrt(tau) until it prices above the target.

    Brent stops at a relative tolerance of 4 machine epsilons in sigma,
    about 1e-12 in price; xtol lies below rtol times the low end, so it
    never stops the search first.  Prices outside the static no-arbitrage
    bounds raise InversionDomainError.
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

    def f(sig):
        return bs_price(S, K, r, sig, tau, option_type) - price

    hi = 1.0 / np.sqrt(tau)
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError("implied vol bracket expansion failed")
    return _brent(f, 1e-12, hi, xtol=1e-30)


def _price_groups(params: ModelParams, nu1: float, groups) -> list:
    """Prices of quote groups (tau, rate, state, S, K, option_type), in
    the order given, each on its own truncation interval at its own rate,
    from two shared passes of the recursion: one over every group's
    cumulant contour, then one over every group's cf grid.  Raises the
    first package error met: a bad maturity, the measure map, a recursion
    leaving its domain, a degenerate interval.
    """
    intervals = [_truncation(kappas) for kappas in
                 _cumulant_segments(params, nu1, [g[:3] for g in groups])]
    logs = _log_mgf_segments(params, nu1, [
        (1j * _cos_grid(*ab, COS_TERMS), *g[:3])
        for ab, g in zip(intervals, groups)])
    return [cos_price(np.exp(g), S, K, rate, tau, kind, *ab)
            for g, ab, (tau, rate, _, S, K, kind) in zip(logs, intervals,
                                                         groups)]


def model_atm_iv(params: ModelParams, nu1: float, maturity_days: int,
                 state: MarketState) -> float:
    """Annualized at-the-money implied vol generated by the model."""
    price, = _price_groups(params, nu1, [(maturity_days, params.r, state,
                                          1.0, 1.0, "call")])
    iv_daily = implied_vol(price, 1.0, 1.0, params.r, maturity_days, "call")
    return iv_daily * np.sqrt(TRADING_DAYS)


@dataclass
class PricedQuote:
    """One chain row: market quote, model price, annualized model IV."""

    quote: OptionQuote
    model_price: float
    model_iv: float
    error: str | None = None


def price_chain(params: ModelParams, nu1: float, chain,
                states) -> list[PricedQuote]:
    """Price every quote of a chain, a sequence of OptionQuote, under the
    risk-neutral model.

    `states` maps each quote date to its MarketState.  Quotes are grouped
    by (quote_date, maturity, rate), and each group is priced by one
    `cos_price` call on its own truncation interval, with the group's rate
    as both the risk-neutral drift and the discount rate.  The groups'
    contours and cf grids come from two shared passes of the recursion
    (`_price_groups`).  Failures of the package's own error classes are
    recorded on the rows instead of aborting the chain.  When the shared
    passes raise one, each group is priced again alone, so a group failure
    (no state, measure map, recursion domain, degenerate interval) lands
    on every row of that group only, with the error of the group alone; a
    strike's negative COS price or failed IV inversion lands on that
    quote's row alone.  A non-finite nu1 raises ValidationError before any
    group is priced; any other exception is a bug and propagates.
    """
    _finite("nu1", nu1)
    groups: dict = {}
    for q in chain:
        groups.setdefault((q.quote_date, q.maturity_days, q.rate),
                          []).append(q)
    groups = {key: groups[key] for key in sorted(groups)}
    batch = {}
    for (qdate, tau, rate), quotes in groups.items():
        if qdate in states:
            batch[qdate, tau, rate] = (
                tau, rate, states[qdate], [q.underlying for q in quotes],
                [q.strike for q in quotes], [q.option_type for q in quotes])
    try:
        priced = dict(zip(batch, _price_groups(params, nu1,
                                               list(batch.values()))))
    except LhargError:
        # the only place a failure is isolated: each group alone
        priced = {}
        for key, group in batch.items():
            try:
                priced[key] = _price_groups(params, nu1, [group])[0]
            except LhargError as exc:
                priced[key] = exc

    results = []
    for key, quotes in groups.items():
        qdate, tau, rate = key
        prices = priced.get(key, ValidationError(f"no state for {qdate}"))
        if isinstance(prices, LhargError):
            results.extend(PricedQuote(q, np.nan, np.nan, str(prices))
                           for q in quotes)
            continue
        for q, price in zip(quotes, prices):
            try:
                if np.isnan(price):
                    raise NumericalError("COS price NaN or below -1e-10")
                iv = implied_vol(price, q.underlying, q.strike, rate, tau,
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
