"""Seeded synthetic inputs for the pipeline benchmark.

Everything here is plain numpy/scipy and never imports `lharg`, so a
change to the package (its simulator in particular) cannot change what
the benchmark feeds it.  Histories follow the Poisson-gamma recursion of
the model family written out directly; chain mids come from
Black-Scholes on a fixed smile, and the chain file carries a
`market_iv` column so loading it does not invert any mids.
"""

from __future__ import annotations

import csv
import datetime as dt
from pathlib import Path

import numpy as np
from scipy.special import ndtr

N_LAGS = 22
DAILY_RATE = 1e-4
TRADING_DAYS = 252
START_DATE = dt.date(2000, 1, 3)
BURN_IN = 1000

# Published parameter sets, the same values the package's own tests use.
PARAMS = {
    "P-LHARG": dict(
        variant="P-LHARG", theta=1.068e-5, delta=1.243, d=0.0,
        beta_d=2.429e4, beta_w=2.317e4, beta_m=1.322e4,
        alpha_d=0.2376, alpha_w=0.1194, alpha_m=3.85e-6,
        gamma_lev=223.7, lam=2.005, r=DAILY_RATE),
    "ZM-LHARG": dict(
        variant="ZM-LHARG", theta=1.117e-5, delta=1.78, d=0.0,
        beta_d=3.382e4, beta_w=2.542e4, beta_m=1.338e4,
        alpha_d=0.3991, alpha_w=0.3446, alpha_m=0.4034,
        gamma_lev=134.8, lam=2.005, r=DAILY_RATE),
}

PARAM_FIELDS = ("variant", "theta", "delta", "d", "beta_d", "beta_w",
                "beta_m", "alpha_d", "alpha_w", "alpha_m", "gamma_lev",
                "lam", "r")


def _lag_weights(p):
    beta = np.empty(N_LAGS)
    alpha = np.empty(N_LAGS)
    beta[0], beta[1:5], beta[5:] = p["beta_d"], p["beta_w"] / 4, p["beta_m"] / 17
    alpha[0], alpha[1:5], alpha[5:] = (p["alpha_d"], p["alpha_w"] / 4,
                                       p["alpha_m"] / 17)
    return beta, alpha


def history(p: dict, n_days: int, rng: np.random.Generator):
    """One (rv, y) path of n_days after a BURN_IN-day warm-up.

    RV[t+1] ~ Gamma(delta + K, theta) with K ~ Poisson(Theta_t), where
    Theta_t sums 22 lags of RV and leverage with the HAR weights; the
    zero-mean variant's possibly negative noncentrality is floored at 0.
    """
    beta, alpha = _lag_weights(p)
    theta, delta, g, lam = p["theta"], p["delta"], p["gamma_lev"], p["lam"]
    zero_mean = p["variant"] == "ZM-LHARG"
    pers = theta * (beta.sum() + (0.0 if zero_mean else g * g * alpha.sum()))
    mean_rv = theta * delta / (1.0 - pers)
    rv_buf = np.full(N_LAGS, mean_rv)       # index 0 = today
    lev_buf = np.full(N_LAGS, 0.0 if zero_mean else 1.0 + g * g * mean_rv)
    total = BURN_IN + n_days
    eps = rng.standard_normal(total)
    rv = np.empty(total)
    for t in range(total):
        nc = max(float(beta @ rv_buf + alpha @ lev_buf), 0.0)
        rv[t] = rng.standard_gamma(delta + rng.poisson(nc)) * theta
        vol = np.sqrt(rv[t])
        lev = (eps[t] ** 2 - 1.0 - 2.0 * eps[t] * g * vol if zero_mean
               else (eps[t] - g * vol) ** 2)
        rv_buf = np.roll(rv_buf, 1)
        lev_buf = np.roll(lev_buf, 1)
        rv_buf[0], lev_buf[0] = rv[t], lev
    y = p["r"] + lam * rv + np.sqrt(rv) * eps
    return rv[BURN_IN:], y[BURN_IN:]


def write_history(directory: Path, p: dict, n_days: int,
                  rng: np.random.Generator,
                  start: dt.date = START_DATE) -> list:
    """Write rv.csv and returns.csv; returns the dates written."""
    rv, y = history(p, n_days, rng)
    days = [start + dt.timedelta(days=i) for i in range(n_days)]
    rv_path, ret_path = directory / "rv.csv", directory / "returns.csv"
    for path, column, values in ((rv_path, "rv", rv),
                                 (ret_path, "log_return", y)):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", column])
            writer.writerows([d.isoformat(), repr(float(v))]
                             for d, v in zip(days, values))
    return days


def write_params(path: Path, p: dict) -> Path:
    lines = [f"{k} = {p[k] if k == 'variant' else repr(float(p[k]))}"
             for k in PARAM_FIELDS]
    path.write_text("\n".join(lines) + "\n")
    return path


def smile_iv(m, tau_days):
    """Annualized market smile: a put skew that flattens with maturity."""
    x = np.log(m)
    scale = np.sqrt(63.0 / tau_days)
    return 0.20 - 0.25 * x * scale + 0.6 * x * x * scale


def bs_price(S, K, r, sigma, tau, kind):
    """Black-Scholes in daily units (r and sigma per day, tau in days)."""
    srt = sigma * np.sqrt(tau)
    d1 = (np.log(S / K) + (r + 0.5 * sigma * sigma) * tau) / srt
    d2 = d1 - srt
    disc = K * np.exp(-r * tau)
    if kind == "call":
        return S * ndtr(d1) - disc * ndtr(d2)
    return disc * ndtr(-d2) - S * ndtr(-d1)


def write_chain(path: Path, quote_dates, maturities, moneyness) -> Path:
    """A call and a put at every (quote date, maturity, strike), spot 100."""
    spot, rate = 100.0, DAILY_RATE
    rows = []
    for qdate in quote_dates:
        for tau in maturities:
            edate = qdate + dt.timedelta(days=int(tau))
            for m in moneyness:
                strike = round(float(m * spot), 6)
                iv = float(smile_iv(strike / spot, tau))
                sigma = iv / np.sqrt(TRADING_DAYS)
                for kind in ("call", "put"):
                    mid = float(bs_price(spot, strike, rate, sigma, tau, kind))
                    rows.append([qdate.isoformat(), edate.isoformat(),
                                 repr(strike), kind, repr(mid), repr(spot),
                                 repr(rate), repr(iv)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quote_date", "expiry_date", "strike", "type",
                         "mid_price", "underlying", "rate", "market_iv"])
        writer.writerows(rows)
    return path
