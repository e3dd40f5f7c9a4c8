"""Forward path simulation and Monte Carlo estimators.

Daily dynamics are simulated exactly: the variance draw is a
Poisson-mixed gamma (K ~ Poisson(Theta), then Gamma(delta + K, theta)),
the return innovation is standard normal, and the 22-lag variance and
leverage buffers roll forward one day at a time.  Negative noncentrality,
which the zero-mean variant cannot rule out, is clamped to zero and
counted; the clamp count stays at zero for every positivity-satisfying
parameter set.

Paths run in blocks of DEFAULT_BLOCK; block b draws from an independent
PCG64 stream spawned as SeedSequence(seed).spawn(...)[b], and blocks
partition the path indices deterministically, so a fixed seed reproduces
the same PathSet bit for bit regardless of how the blocks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    MarketState,
    ModelParams,
    N_LAGS,
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


def _engine_form(params: ModelParams,
                 premia: RiskPremia | None) -> ParabolicForm:
    # P dynamics for premia=None, else the mapped Q dynamics
    p = parabolic_form(params)
    return p if premia is None else risk_neutral_parabolic(p, premia)


def _block_streams(seed: int, n_paths: int):
    starts = range(0, n_paths, DEFAULT_BLOCK)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [(np.random.Generator(np.random.PCG64(c)),
             min(DEFAULT_BLOCK, n_paths - s)) for c, s in zip(children, starts)]


def _simulate_block(p: ParabolicForm, weights, rv0: np.ndarray,
                    lev0: np.ndarray, horizon: int, n: int,
                    rng: np.random.Generator, burn_in: int,
                    snapshot_days=None):
    """Advance n paths for burn_in + horizon days from a common start state.

    Returns (rv_out, y_out, clamps).  By default every post-burn-in day is
    stored; with snapshot_days, y_out instead holds the cumulative return
    at those (1-based) days and rv_out is empty.
    """
    rv_buf = np.repeat(rv0[:, None], n, axis=1)    # (22, n), row i = lag i+1
    lev_buf = np.repeat(lev0[:, None], n, axis=1)
    g = p.gamma_lev
    snapshots = snapshot_days is not None
    if snapshots:
        lookup = {day: j for j, day in enumerate(snapshot_days)}
        rv_out = np.empty((n, 0))
        y_out = np.empty((n, len(snapshot_days)))
        y_running = np.zeros(n)
    else:
        rv_out = np.empty((n, horizon))
        y_out = np.empty((n, horizon))
    clamps = 0
    for day in range(-burn_in, horizon):
        nc = p.d + weights.beta @ rv_buf + weights.alpha @ lev_buf
        neg = nc < 0.0
        if np.any(neg):
            if day >= 0:
                clamps += int(np.count_nonzero(neg))
            nc[neg] = 0.0
        k = rng.poisson(nc)
        rv_new = rng.standard_gamma(p.delta + k) * p.theta
        eps = rng.standard_normal(n)
        vol = np.sqrt(rv_new)
        y_new = p.r + p.lam * rv_new + vol * eps
        if day >= 0:
            if snapshots:
                y_running += y_new
                j = lookup.get(day + 1)
                if j is not None:
                    y_out[:, j] = y_running
            else:
                rv_out[:, day] = rv_new
                y_out[:, day] = y_new
        rv_buf[1:] = rv_buf[:-1]
        rv_buf[0] = rv_new
        lev_buf[1:] = lev_buf[:-1]
        lev_buf[0] = (eps - g * vol) ** 2
    return rv_out, y_out, clamps


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
    levels of interest).
    """
    if horizon < 1 or n_paths < 1:
        raise ValidationError("horizon and n_paths must be positive")
    p = _engine_form(params, premia)
    st = parabolic_state(params, state)
    weights = expand_weights(p)
    rv_chunks, y_chunks, clamps = [], [], 0
    for rng, n in _block_streams(seed, n_paths):
        rv, y, c = _simulate_block(p, weights, st.rv, st.lev, horizon, n,
                                   rng, burn_in)
        rv_chunks.append(rv)
        y_chunks.append(y)
        clamps += c
    return PathSet(
        n_paths=n_paths, horizon=horizon,
        rv_paths=np.concatenate(rv_chunks, axis=0),
        y_paths=np.concatenate(y_chunks, axis=0),
        rng_seed=seed, measure="P" if premia is None else "Q",
        clamp_count=clamps,
    )


def simulate_y_snapshots(params: ModelParams, state: MarketState,
                         maturities, n_paths: int,
                         premia: RiskPremia | None = None, seed: int = 0):
    """Cumulative log-returns y_{t,T} at selected maturities only.

    Memory-friendly variant of simulate_paths for large-scale MGF and
    cumulant validation: returns (ysnap, clamp_count) where ysnap has one
    column per requested maturity.
    """
    maturities = sorted(int(m) for m in maturities)
    if maturities[0] < 1:
        raise ValidationError("maturities must be at least one day")
    horizon = maturities[-1]
    p = _engine_form(params, premia)
    st = parabolic_state(params, state)
    weights = expand_weights(p)
    out = np.empty((n_paths, len(maturities)))
    clamps = 0
    offset = 0
    for rng, n in _block_streams(seed, n_paths):
        _, y, c = _simulate_block(p, weights, st.rv, st.lev, horizon, n,
                                  rng, 0, snapshot_days=maturities)
        out[offset:offset + n] = y
        offset += n
        clamps += c
    return out, clamps


def mc_mgf(paths: PathSet, z_grid):
    """Sample mean and standard error of exp(z * y_{t,T}) over the paths.

    The total return over the PathSet horizon is used.  Estimates are
    complex; the returned standard errors pack the real-part SE in .real
    and the imaginary-part SE in .imag.
    """
    if paths.n_paths < 1:
        raise ValidationError("empty path set")
    return mc_mgf_from_samples(paths.y_paths.sum(axis=1), z_grid)


def mc_mgf_from_samples(y_total: np.ndarray, z_grid):
    """Same estimator as mc_mgf, taking precomputed cumulative returns."""
    z_grid = np.atleast_1d(np.asarray(z_grid))
    n = y_total.size
    est = np.empty(z_grid.shape, dtype=complex)
    se = np.empty(z_grid.shape, dtype=complex)
    for i, z in enumerate(z_grid):
        w = np.exp(z * y_total)
        est[i] = np.mean(w)
        se[i] = (np.std(w.real) + 1j * np.std(w.imag)) / np.sqrt(n)
    return est, se
