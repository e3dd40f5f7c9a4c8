"""Forward path simulation and Monte Carlo estimators.

One day-step kernel, _day_steps, simulates the dynamics exactly: a
noncentral-gamma variance draw and a standard normal return innovation.
Theta, the noncentrality, needs the 22 variance and leverage lags only
through lag 1 and per-path sums of lags 2-5 and 6-22, which each new day
updates as it overwrites the oldest row of an unshifted ring of lags.
Negative Theta, which the zero-mean variant cannot rule out, is clamped
to zero and counted (never for positivity-satisfying parameters).
simulate_paths writes each day as one contiguous row of preallocated
(horizon, n_paths) arrays and returns their transposes, so a PathSet reads
(n_paths, horizon); simulate_y_snapshots keeps running sums of the same
paths.

Paths run in blocks of DEFAULT_BLOCK; block b draws from an independent
PCG64 stream spawned as SeedSequence(seed).spawn(...)[b] and fills a fixed
range of rows, so a fixed seed reproduces the same paths bit for bit.
n_paths, horizon and maturities must be positive and burn_in and seed
nonnegative integers; other inputs raise ValidationError before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    MONTHLY_LAGS,
    N_LAGS,
    WEEKLY_LAGS,
    MarketState,
    ModelParams,
    ParabolicForm,
    RiskPremia,
    parabolic_form,
    parabolic_state,
    risk_neutral_parabolic,
)

DEFAULT_BLOCK = 65536   # paths per RNG stream


@dataclass
class PathSet:
    """Simulated daily variances and log-returns with RNG provenance."""

    n_paths: int
    horizon: int
    rv_paths: np.ndarray   # (n_paths, horizon); .T is day-major
    y_paths: np.ndarray    # (n_paths, horizon); .T is day-major
    rng_seed: int
    measure: str           # "P" (no premia) or "Q"
    clamp_count: int       # noncentrality clampings over all recorded days

    def __post_init__(self):
        if self.rv_paths.shape != (self.n_paths, self.horizon) \
                or self.y_paths.shape != (self.n_paths, self.horizon):
            raise ValidationError("path matrix dimensions are inconsistent")
        if np.any(self.rv_paths < 0.0):
            raise ValidationError("simulated variances must be nonnegative")


def sample_noncentral_gamma(delta: float, big_theta, theta: float,
                            rng: np.random.Generator, size=None):
    """Exact noncentral-gamma draw via the Poisson-gamma mixture.

    K ~ Poisson(big_theta), then Gamma(shape=delta + K, scale=theta).
    big_theta may be an array (one draw per entry).
    """
    if not (delta > 0.0 and theta > 0.0):
        raise ValidationError("delta and theta must be strictly positive")
    big_theta = np.asarray(big_theta, dtype=float)
    if np.any(big_theta < 0.0):
        raise ValidationError("noncentrality must be nonnegative")
    out = _poisson_gamma(delta, big_theta, theta, rng, size)
    return out if np.ndim(out) else float(out)


def _poisson_gamma(delta, big_theta, theta, rng, size=None):
    # the unchecked draw of sample_noncentral_gamma, also the kernel's
    return rng.standard_gamma(delta + rng.poisson(big_theta, size)) * theta


def _block_streams(seed: int, n_paths: int):
    # (start row, rows, generator) of each block of DEFAULT_BLOCK paths
    starts = range(0, n_paths, DEFAULT_BLOCK)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [(s, min(DEFAULT_BLOCK, n_paths - s),
             np.random.Generator(np.random.PCG64(c)))
            for c, s in zip(children, starts)]


def _day_steps(p: ParabolicForm, st, n: int, rng, days: int):
    """Step n paths from state st; yield each day's (rv, y, clamps).

    ring[(head + k - 1) % 22] holds lag k of (rv, lev); a new day overwrites
    the lag-22 row and becomes the head.  agg holds lag 1 and the sums S_w
    of lags 2-5 and S_m of lags 6-22, so Theta = d + coef @ agg; a new day
    adds lag1 - lag5 to S_w and lag5 - lag22 to S_m before it is lag 1.
    """
    coef = np.array([p.beta_d, p.alpha_d, p.beta_w, p.alpha_w, p.beta_m,
                     p.alpha_m]) / np.repeat([1, WEEKLY_LAGS, MONTHLY_LAGS], 2)
    ring = np.stack([st.rv, st.lev], axis=1)[:, :, None].repeat(n, axis=2)
    agg = np.add.reduceat(ring, [0, 1, 1 + WEEKLY_LAGS]).reshape(6, n)
    head = 0
    for _ in range(days):
        nc = coef @ agg + p.d
        neg = nc < 0.0
        clamps = int(np.count_nonzero(neg))
        nc[neg] = 0.0
        rv_new = _poisson_gamma(p.delta, nc, p.theta, rng)
        eps = rng.standard_normal(n)
        vol = np.sqrt(rv_new)
        yield rv_new, p.r + p.lam * rv_new + vol * eps, clamps
        lag5 = ring[(head + 4) % N_LAGS]
        head = (head + N_LAGS - 1) % N_LAGS                    # lag 22's row
        agg[2:4] += agg[0:2] - lag5
        agg[4:6] += lag5 - ring[head]
        agg[0] = rv_new
        agg[1] = (eps - p.gamma_lev * vol) ** 2
        ring[head] = agg[0:2]


def _whole(name: str, value, least: int) -> int:
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be a whole number >= {least}, "
                              f"got {value!r}")
    return int(value)


def _blocks(params: ModelParams, state: MarketState,
            premia: RiskPremia | None, n_paths: int, seed: int, days: int):
    """Check n_paths and seed, set up the P (premia=None) or Q dynamics
    once, and return each RNG block's (rows, day steps)."""
    n_paths, seed = _whole("n_paths", n_paths, 1), _whole("seed", seed, 0)
    p = parabolic_form(params)
    if premia is not None:
        p = risk_neutral_parabolic(p, premia)
    st = parabolic_state(params, state)
    return [(slice(s, s + n), _day_steps(p, st, n, rng, days))
            for s, n, rng in _block_streams(seed, n_paths)]


def simulate_paths(params: ModelParams, state: MarketState, horizon: int,
                   n_paths: int, premia: RiskPremia | None = None,
                   seed: int = 0, burn_in: int = 0) -> PathSet:
    """Simulate daily (RV, y) paths from the given state.

    premia=None simulates the physical measure.  Arbitrage-free premia are
    mapped into the starred Q dynamics (lam* = -1/2, shifted gamma,
    rescaled gamma parameters) by risk_neutral_parabolic; the state's
    leverage lags are converted to their measure-invariant parabolic
    values, so the same physical state seeds both measures.
    A nonzero burn_in advances the paths that many days before recording
    (1000 days comfortably washes out the start state at the persistence
    levels of interest); clamps are counted on recorded days only.
    """
    horizon = _whole("horizon", horizon, 1)
    burn_in = _whole("burn_in", burn_in, 0)
    blocks = _blocks(params, state, premia, n_paths, seed, burn_in + horizon)
    rv_out = np.empty((horizon, n_paths))
    y_out = np.empty((horizon, n_paths))
    clamps = 0
    for rows, steps in blocks:
        for day, (rv, y, c) in enumerate(steps, start=-burn_in):
            if day >= 0:
                rv_out[day, rows] = rv
                y_out[day, rows] = y
                clamps += c
    return PathSet(n_paths=n_paths, horizon=horizon, rv_paths=rv_out.T,
                   y_paths=y_out.T, rng_seed=seed, clamp_count=clamps,
                   measure="P" if premia is None else "Q")


def simulate_y_snapshots(params: ModelParams, state: MarketState,
                         maturities, n_paths: int,
                         premia: RiskPremia | None = None, seed: int = 0):
    """Cumulative log-returns y_{t,T} at selected maturities only.

    Memory-friendly variant of simulate_paths for large-scale MGF and
    cumulant validation: returns (ysnap, clamp_count).  Column j of ysnap
    holds the cumulative return at maturities[j] days, in the requested
    order; a repeated maturity fills each of its columns.  Paths and
    clamps match simulate_paths over max(maturities) days at the same seed.
    """
    days = np.array([_whole("maturities", m, 1) for m in maturities], int)
    if days.size == 0:
        raise ValidationError("maturities must be a nonempty list of days")
    blocks = _blocks(params, state, premia, n_paths, seed, int(days.max()))
    out = np.empty((n_paths, days.size))
    clamps = 0
    for rows, steps in blocks:
        y_running = np.zeros(rows.stop - rows.start)
        for day, (_, y, c) in enumerate(steps, start=1):
            y_running += y
            out[rows, days == day] = y_running[:, None]
            clamps += c
    return out, clamps


def mc_mgf_from_samples(y_total: np.ndarray, z_grid):
    """Sample mean and standard error of exp(z * y) over the samples y_total.

    For a PathSet pass paths.y_paths.sum(axis=1), the total return over its
    horizon.  Estimates are complex; the returned standard errors pack the
    real-part SE in .real and the imaginary-part SE in .imag.
    """
    n = y_total.size
    if n < 1:
        raise ValidationError("no samples to average")
    z_grid = np.atleast_1d(np.asarray(z_grid))
    est = np.empty(z_grid.shape, dtype=complex)
    se = np.empty(z_grid.shape, dtype=complex)
    for i, z in enumerate(z_grid):
        w = np.exp(z * y_total)
        est[i] = np.mean(w)
        se[i] = (np.std(w.real) + 1j * np.std(w.imag)) / np.sqrt(n)
    return est, se
