"""Forward path simulation and Monte Carlo estimators.

One day-step kernel, _day_steps, simulates the dynamics exactly: the
variance draw is a Poisson-mixed gamma (K ~ Poisson(Theta), then
Gamma(delta + K, theta)), the return innovation is standard normal, and
the 22-lag variance and leverage buffers roll forward one day at a time.
Negative noncentrality, which the zero-mean variant cannot rule out, is
clamped to zero and counted (never for positivity-satisfying parameters).
simulate_paths writes each day straight into preallocated (n_paths,
horizon) arrays; simulate_y_snapshots keeps running sums of the same paths.

Paths run in blocks of DEFAULT_BLOCK; block b draws from an independent
PCG64 stream spawned as SeedSequence(seed).spawn(...)[b] and fills a fixed
range of rows, so a fixed seed reproduces the same paths bit for bit.
n_paths, horizon and maturities must be positive and burn_in and seed
nonnegative; other inputs raise ValidationError before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    MarketState,
    ModelParams,
    ParabolicForm,
    RiskPremia,
    expand_weights,
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
    rv_paths: np.ndarray   # (n_paths, horizon)
    y_paths: np.ndarray    # (n_paths, horizon)
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
    k = rng.poisson(big_theta, size=size)
    out = rng.standard_gamma(delta + k) * theta
    return out if np.ndim(out) else float(out)


def _block_streams(seed: int, n_paths: int):
    # (start row, rows, generator) of each block of DEFAULT_BLOCK paths
    starts = range(0, n_paths, DEFAULT_BLOCK)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [(s, min(DEFAULT_BLOCK, n_paths - s),
             np.random.Generator(np.random.PCG64(c)))
            for c, s in zip(children, starts)]


def _day_steps(p: ParabolicForm, weights, st, n: int, rng, days: int):
    """Step n paths from state st; yield each day's (rv, y, clamps)."""
    rv_buf = np.repeat(st.rv[:, None], n, axis=1)    # (22, n), row i = lag i+1
    lev_buf = np.repeat(st.lev[:, None], n, axis=1)
    for _ in range(days):
        nc = p.d + weights.beta @ rv_buf + weights.alpha @ lev_buf
        neg = nc < 0.0
        clamps = int(np.count_nonzero(neg))
        nc[neg] = 0.0
        k = rng.poisson(nc)
        rv_new = rng.standard_gamma(p.delta + k) * p.theta
        eps = rng.standard_normal(n)
        vol = np.sqrt(rv_new)
        yield rv_new, p.r + p.lam * rv_new + vol * eps, clamps
        rv_buf[1:] = rv_buf[:-1]
        rv_buf[0] = rv_new
        lev_buf[1:] = lev_buf[:-1]
        lev_buf[0] = (eps - p.gamma_lev * vol) ** 2


def _blocks(params: ModelParams, state: MarketState,
            premia: RiskPremia | None, n_paths: int, seed: int, days: int):
    """Check n_paths and seed, set up the P (premia=None) or Q dynamics
    once, and return each RNG block's (rows, day steps)."""
    if n_paths < 1:
        raise ValidationError(f"n_paths must be positive, got {n_paths}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    p = parabolic_form(params)
    if premia is not None:
        p = risk_neutral_parabolic(p, premia)
    st = parabolic_state(params, state)
    weights = expand_weights(p)
    return [(slice(s, s + n), _day_steps(p, weights, st, n, rng, days))
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
    A nonzero burn_in advances the buffers that many days before recording
    (1000 days comfortably washes out the start state at the persistence
    levels of interest); clamps are counted on recorded days only.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if burn_in < 0:
        raise ValidationError(f"burn_in must be nonnegative, got {burn_in}")
    blocks = _blocks(params, state, premia, n_paths, seed, burn_in + horizon)
    rv_out = np.empty((n_paths, horizon))
    y_out = np.empty((n_paths, horizon))
    clamps = 0
    for rows, steps in blocks:
        for day, (rv, y, c) in enumerate(steps, start=-burn_in):
            if day >= 0:
                rv_out[rows, day] = rv
                y_out[rows, day] = y
                clamps += c
    return PathSet(n_paths=n_paths, horizon=horizon, rv_paths=rv_out,
                   y_paths=y_out, rng_seed=seed, clamp_count=clamps,
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
    days = np.array([int(m) for m in maturities], dtype=int)
    if days.size == 0 or days.min() < 1:
        raise ValidationError("maturities must be a nonempty list of "
                              f"positive day counts, got {days.tolist()}")
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
