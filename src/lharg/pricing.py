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
`_price_groups` makes one such call per group, with each group's own N.

The recursion's step map does not depend on the day, so the coefficients
of every maturity are iterates of one backward loop.  `_price_groups`,
the one route from quote groups to the recursion, for `price_chain` and
`model_atm_iv` alike, therefore runs shared passes over all its groups,
not passes per group: one over every group's 9-point cumulant contour
(`mgf._contours`), which sets each group's interval, then one over every
group's first COS_TERMS = N0 cf values (`mgf._log_mgf_segments`), whose
loop runs without the rate; each group's coefficients are then dotted
with its date's state, and its rate adds z*r*T.  If a pass raises (one
that leaves the domain, say), `_price_groups` prices each group again
alone, so a failing group fails alone with its own error.  At N0 = 192,
one 1024-point pass of the recursion holds 5 groups' grids.

Each group's N is its own.  A grid whose last N/4 values of |phi| are
not all below COS_TAIL = 1e-12 gets its terms k in [N, 2N) on the same
interval in one more shared pass, with the other such groups, and so on
until it passes or holds COS_MAX_TERMS terms, where pricing goes on with
the terms it has.  Over P-LHARG and ZM-LHARG states with rv lags at
scales 1e-6 to 1e-3, maturities of 10 to 365 days and nu1 in
{-2000, -3000}, only calm states at 10 to 30 days doubled, once: their
last quarter at N0 reached 6.8e-9, and at 2*N0 stayed below 7e-15.  Long
groups pass at N0; so does the 252-day calibration grid, except near
the stationarity edge of the Q dynamics, where its interval is about
three times as wide.  Groups of a few days need more: one-day grids stop
at the cap with a last quarter of |phi| near 1e-5, since the cf of a
normal mixed over a gamma variance decays only like a power of u.
`tests/test_pricing.py::TestCosTermsGate` holds the dropped terms
[N, 2N) below 1e-12, and the N- and 2N-term prices within 1e-12 * K.

`model_atm_iv`, the one-group case that `estimate.calibrate_nu1`
evaluates at each step of its root search, gives `_price_groups` a hint
once the search has narrowed: a grid interval from the own intervals of
the premia evaluated on either side (`_interval_hint`).  A COS_TERMS-point
grid on the hint then joins the contour's pass, and prices the group if
the contour's own interval lies inside the hint and the grid's tail
passes; otherwise the group takes the grids on its own interval.

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
from .mgf import (
    _contour_cumulants,
    _contours,
    _log_mgf_segments,
)
from .model import MarketState, ModelParams, _finite
from .options import OPTION_TYPES, OptionQuote

TRADING_DAYS = 252  # annualization factor for reported implied vols
COS_TERMS = 192     # N0, the cosine terms every group's grid starts with
COS_TAIL = 1e-12    # the bound on a grid's last quarter of |phi|
COS_MAX_TERMS = 8 * COS_TERMS   # where a grid stops doubling
COS_WIDTH = 10.0    # L in the cumulant-based truncation rule
_HINT_SPREAD = 1.25  # widest union of two intervals a hint takes, in narrower
_HINT_MARGIN = 0.01  # a hint's widening on each side, in its width


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
    interval of the density, which `_price_groups` sets from the cumulants.

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
    disc_k = K * math.exp(-r * tau)
    if sigma == 0.0:
        fwd = S - disc_k
        return max(fwd, 0.0) if option_type == "call" else max(-fwd, 0.0)
    srt = sigma * math.sqrt(tau)
    d1 = (math.log(S / K) + (r + 0.5 * sigma**2) * tau) / srt
    d2 = d1 - srt
    if option_type == "call":
        return float(S * _norm_cdf(d1) - disc_k * _norm_cdf(d2))
    return float(disc_k * _norm_cdf(-d2) - S * _norm_cdf(-d1))


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
    disc_k = K * math.exp(-r * tau)
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

    hi = 1.0 / math.sqrt(tau)
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError("implied vol bracket expansion failed")
    return _brent(f, 1e-12, hi, xtol=1e-30)


def _tail_passes(phi: np.ndarray) -> bool:
    # the grid's last quarter of |phi| lies below COS_TAIL
    return bool(np.abs(phi[-(phi.size // 4):]).max() < COS_TAIL)


def _price_groups(params: ModelParams, nu1: float, groups,
                  hints=None) -> tuple[list, list]:
    """Prices of quote groups (tau, rate, state, S, K, option_type), each
    at its own rate, and their own truncation intervals, in the order
    given: the one place in `pricing` that plans the recursion's passes
    and isolates a failure.

    The first shared pass holds every group's cumulant contour, which
    sets its own interval, and a COS_TERMS-point grid on its hint if
    `hints` gives one; that grid prices the group if the own interval
    lies inside the hint and `_tail_passes`.  The other groups take
    COS_TERMS-point grids on their own intervals in the next pass, and
    then passes that double the grids whose tails fail, with the terms k
    in [N, 2N) on the same interval, up to COS_MAX_TERMS terms.

    Returns (prices, intervals).  If any of this raises a package error,
    each group is priced again alone and unhinted, and a failing group
    gets the LhargError it raises alone for its prices and None for its
    interval.
    """
    hints = hints or [None] * len(groups)
    try:
        circles = _contours(params, [g[:3] for g in groups])
        hinted = [k for k, hint in enumerate(hints) if hint is not None]
        logs = _log_mgf_segments(params, nu1, circles + [
            (1j * _cos_grid(*hints[k], COS_TERMS), *groups[k][:3])
            for k in hinted])
        intervals = [_truncation(_contour_cumulants(c[0], g))
                     for c, g in zip(circles, logs)]
        grids = list(intervals)
        phis = [np.empty(0, complex)] * len(groups)
        for k, g in zip(hinted, logs[len(groups):]):
            (a, b), hint, phi = intervals[k], hints[k], np.exp(g)
            if hint[0] <= a and b <= hint[1] and _tail_passes(phi):
                grids[k], phis[k] = hint, phi
        short = [k for k, phi in enumerate(phis) if not phi.size]
        while short:
            # the terms k in [n, 2n) of each short grid of n terms, or the
            # first COS_TERMS of a grid not begun
            spans = [(phis[k].size, max(2 * phis[k].size, COS_TERMS))
                     for k in short]
            logs = _log_mgf_segments(params, nu1, [
                (1j * _cos_grid(*grids[k], hi)[lo:], *groups[k][:3])
                for k, (lo, hi) in zip(short, spans)])
            for k, g in zip(short, logs):
                phis[k] = np.concatenate([phis[k], np.exp(g)])
            short = [k for k in short if phis[k].size < COS_MAX_TERMS
                     and not _tail_passes(phis[k])]
        prices = [cos_price(phi, S, K, rate, tau, kind, *ab) for phi, ab,
                  (tau, rate, _, S, K, kind) in zip(phis, grids, groups)]
    except LhargError as exc:
        if len(groups) == 1 and hints[0] is None:
            return [exc], [None]
        # the only place a failure is isolated: each group alone, unhinted
        alone = [_price_groups(params, nu1, [group]) for group in groups]
        return [p for (p,), _ in alone], [ab for _, (ab,) in alone]
    return prices, intervals


def _interval_hint(memo: dict, nu1: float):
    """The grid interval for nu1 that the own intervals of the nearest
    evaluated premia below and above it suggest: their union, widened by
    _HINT_MARGIN of its width on each side.  None when nu1 lacks a
    neighbour on a side, or when the union is wider than _HINT_SPREAD
    times the narrower of the two."""
    below = max((x for x in memo if x < nu1), default=None)
    above = min((x for x in memo if x > nu1), default=None)
    if below is None or above is None:
        return None
    (a0, b0), (a1, b1) = memo[below], memo[above]
    a, b = min(a0, a1), max(b0, b1)
    if b - a > _HINT_SPREAD * min(b0 - a0, b1 - a1):
        return None
    pad = _HINT_MARGIN * (b - a)
    return a - pad, b + pad


def model_atm_iv(params: ModelParams, nu1: float, maturity_days: int,
                 state: MarketState, *, memo: dict | None = None) -> float:
    """Annualized at-the-money implied vol generated by the model: the
    one-group case of `_price_groups`, whose error it raises.

    `memo` is a dict that one caller passes to every evaluation of one
    (params, maturity_days, state).  Each call that prices records its
    nu1's own truncation interval there, and takes the grid interval that
    `_interval_hint` finds there as its group's hint.  A hinted grid
    moves the IV by a few 1e-13 relative at most (2.6e-13 over
    calibrations of HARG, P-LHARG and ZM-LHARG at targets 0.15 to 0.26);
    a hint rejected or failing gives the IV or the error of a call
    without memo, bit for bit.
    """
    group = (maturity_days, params.r, state, 1.0, 1.0, "call")
    hint = None if memo is None else _interval_hint(memo, nu1)
    (price,), (own,) = _price_groups(params, nu1, [group], [hint])
    if isinstance(price, LhargError):
        raise price
    if memo is not None:
        memo[nu1] = own
    iv_daily = implied_vol(price, 1.0, 1.0, params.r, maturity_days, "call")
    return iv_daily * math.sqrt(TRADING_DAYS)


@dataclass
class PricedQuote:
    """One chain row: market quote, model price, annualized model IV."""

    quote: OptionQuote
    model_price: float
    model_iv: float
    error: str | None = None


def _quote_row(q: OptionQuote, price, tau: int, rate: float) -> PricedQuote:
    # a quote's row: its NaN price or failed IV inversion fails it alone
    try:
        if np.isnan(price):
            raise NumericalError("COS price NaN or below -1e-10")
        iv = implied_vol(price, q.underlying, q.strike, rate, tau,
                         q.option_type) * np.sqrt(TRADING_DAYS)
    except LhargError as exc:
        return PricedQuote(q, np.nan, np.nan, str(exc))
    return PricedQuote(q, float(price), float(iv))


def price_chain(params: ModelParams, nu1: float, chain,
                states) -> list[PricedQuote]:
    """Price every quote of a chain, a sequence of OptionQuote, under the
    risk-neutral model.

    `states` maps each quote date to its MarketState.  Quotes are grouped
    by (quote_date, maturity, rate), and `_price_groups` prices the groups
    in shared passes of the recursion, each by one `cos_price` call on its
    own truncation interval, with the group's rate as both the
    risk-neutral drift and the discount rate.  Failures of the package's
    own error classes are recorded on the rows instead of aborting the
    chain: a group's failure (no state, measure map, recursion domain,
    degenerate interval) lands on every row of that group only, with the
    error of the group alone; a strike's negative COS price or failed IV
    inversion lands on that quote's row alone.  A non-finite nu1 raises
    ValidationError before any group is priced; any other exception is a
    bug and propagates.
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
    prices, _ = _price_groups(params, nu1, list(batch.values()))
    priced = dict(zip(batch, prices))

    results = []
    for key, quotes in groups.items():
        qdate, tau, rate = key
        prices = priced.get(key, ValidationError(f"no state for {qdate}"))
        if isinstance(prices, LhargError):
            results.extend(PricedQuote(q, np.nan, np.nan, str(prices))
                           for q in quotes)
            continue
        results.extend(_quote_row(q, price, tau, rate)
                       for q, price in zip(quotes, prices))
    return results


def rmse_iv(market_ivs, model_ivs) -> float:
    """Percentage implied-volatility RMSE: sqrt(mean((mkt - mod)^2)) * 100."""
    mkt = np.asarray(market_ivs, dtype=float)
    mod = np.asarray(model_ivs, dtype=float)
    if mkt.size == 0 or mkt.shape != mod.shape:
        raise ValidationError("RMSE inputs must be non-empty and aligned")
    return float(np.sqrt(np.mean((mkt - mod) ** 2)) * 100.0)
