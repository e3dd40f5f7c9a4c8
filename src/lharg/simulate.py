"""Forward path simulation and Monte Carlo estimators.

One day-step kernel, _day_steps, simulates the dynamics exactly: a
noncentral-gamma variance draw, theta * Gamma(delta + Poisson(Theta)), and a
standard normal return innovation.
Theta, the noncentrality, needs the 22 variance and leverage lags only
through lag 1 and per-path sums of lags 2-5 and 6-22, which each new day
updates as it overwrites the oldest row of an unshifted ring of lags.
Negative Theta, which the zero-mean variant cannot rule out, is clamped
to zero and counted (never for positivity-satisfying parameters).

One function, _recorded, sets up every run: it checks that horizon and
n_paths are positive and burn_in and seed nonnegative integers (the
snapshots check their maturities before it), maps the measure once, and
splits the paths into blocks of DEFAULT_BLOCK, each skipping the burn-in;
block b draws from the PCG64 stream SeedSequence(seed).spawn(...)[b], so
a fixed seed gives the same paths bit for bit in whatever order the
blocks step.  A bad input raises ValidationError before any work.
simulate_paths and the snapshots drain the blocks one after another,
holding one block's working set at a time; _recorded_days, which `lharg
simulate` summarises from, steps them a day at a time in lockstep and
holds every block's working set (about 460 bytes a path), no path arrays.

_snapshot_runs simulates several runs that share a seed, one per nu1 (P
and Q for mgf-check); each run is one job of _drain, which runs the jobs
concurrently: numpy's draws and array arithmetic release the interpreter
lock.  A job drains its run's blocks one after another, so a call holds one
block's working set per run at a time, as many as it has runs.  Outputs do
not depend on the scheduling, because each job owns its generators and its
output array and the clamp counts are summed per run after the join.
Checks and the measure set-up run on the calling thread before any worker
starts, and workers run only this module's private code and numpy.  The
calling thread runs job 0 itself and at most min(runs, CPUs) - 1 worker
threads take the rest (CPUs as the process's affinity allows), so a
one-run call such as simulate_y_snapshots starts no thread: each worker
thread leaves behind a malloc arena of about 10 MB after a 20 000-path run.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .errors import ValidationError, _whole
from .model import (
    N_LAGS,
    WEEKLY_LAGS,
    _HAR_SPANS,
    MarketState,
    ModelParams,
    ParabolicForm,
    _measure_form,
)

DEFAULT_BLOCK = 65536   # paths per RNG stream


@dataclass
class PathSet:
    """Simulated daily variances and log-returns, and the clamp count."""

    rv_paths: np.ndarray   # (n_paths, horizon); .T is day-major
    y_paths: np.ndarray    # (n_paths, horizon); .T is day-major
    clamp_count: int       # noncentrality clampings over all recorded days

    def __post_init__(self):
        _nonnegative(self.rv_paths)


def _nonnegative(rv):
    if np.any(rv < 0.0):
        raise ValidationError("simulated variances must be nonnegative")
    return rv


def _day_steps(p: ParabolicForm, st, n: int, rng, days: int):
    """Step n paths from state st; yield each day's (rv, y, clamps).

    ring[(head + k - 1) % 22] holds lag k of (rv, lev); a new day overwrites
    the lag-22 row and becomes the head.  agg holds lag 1 and the sums S_w
    of lags 2-5 and S_m of lags 6-22, so Theta = d + coef @ agg; a new day
    adds lag1 - lag5 to S_w and lag5 - lag22 to S_m before it is lag 1.
    """
    coef = np.array([p.beta_d, p.alpha_d, p.beta_w, p.alpha_w, p.beta_m,
                     p.alpha_m]) / np.repeat(_HAR_SPANS, 2)
    ring = np.stack([st.rv, st.lev], axis=1)[:, :, None].repeat(n, axis=2)
    agg = np.add.reduceat(ring, [0, 1, 1 + WEEKLY_LAGS]).reshape(6, n)
    head = 0
    for _ in range(days):
        nc = coef @ agg + p.d
        neg = nc < 0.0
        clamps = int(np.count_nonzero(neg))
        nc[neg] = 0.0
        rv_new = rng.standard_gamma(p.delta + rng.poisson(nc)) * p.theta
        eps = rng.standard_normal(n)
        vol = np.sqrt(rv_new)
        yield rv_new, p.r + p.lam * rv_new + vol * eps, clamps
        lag5 = ring[(head + WEEKLY_LAGS) % N_LAGS]
        head = (head + N_LAGS - 1) % N_LAGS                    # lag 22's row
        agg[2:4] += agg[0:2] - lag5
        agg[4:6] += lag5 - ring[head]
        agg[0] = rv_new
        agg[1] = (eps - p.gamma_lev * vol) ** 2
        ring[head] = agg[0:2]


def _recorded(params, state, horizon, n_paths, nu1, seed, burn_in=0):
    """Check the four counts, set up the P (nu1=None) or Q dynamics once,
    and return each RNG block's (rows, days after the burn-in)."""
    horizon = _whole("horizon", horizon, 1)
    burn_in = _whole("burn_in", burn_in, 0)
    n_paths, seed = _whole("n_paths", n_paths, 1), _whole("seed", seed, 0)
    p = _measure_form(params, nu1)
    starts = range(0, n_paths, DEFAULT_BLOCK)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [(slice(s, min(s + DEFAULT_BLOCK, n_paths)),
             islice(_day_steps(p, state, min(DEFAULT_BLOCK, n_paths - s),
                               np.random.Generator(np.random.PCG64(c)),
                               burn_in + horizon), burn_in, None))
            for c, s in zip(children, starts)]


def _cpus():
    # CPUs this process may run on, not the host's count
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _drain(jobs):
    """Call every job, a callable of no arguments; return the results in
    job order.

    The calling thread runs job 0 while at most _cpus() - 1 pool threads
    take jobs 1, 2, ...; with no spare CPU the jobs run in turn here.  A
    failure re-raises here, the lowest job index first, after the jobs not
    yet started are cancelled and the running ones have stopped.
    """
    workers = min(len(jobs) - 1, _cpus() - 1)
    if workers < 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(workers) as pool:
        rest = [pool.submit(job) for job in jobs[1:]]
        try:
            return [jobs[0]()] + [f.result() for f in rest]
        except BaseException:
            for f in rest:
                f.cancel()
            raise


def _record_snapshots(blocks, out, days):
    # one run's blocks in turn: running sums into out, column j at days[j]
    clamps = 0
    for rows, steps in blocks:
        y_running = np.zeros(rows.stop - rows.start)
        for day, (_, y, c) in enumerate(steps, start=1):
            y_running += y
            out[rows, days == day] = y_running[:, None]
            clamps += c
    return clamps


def simulate_paths(params: ModelParams, state: MarketState, horizon: int,
                   n_paths: int, nu1: float | None = None,
                   seed: int = 0, burn_in: int = 0) -> PathSet:
    """Simulate daily (RV, y) paths from the given state.

    nu1=None simulates the physical measure.  A variance premium nu1
    simulates the Q dynamics of the parameters that
    `model.risk_neutral_parabolic` maps params to; the state's parabolic
    leverage lags are measure-invariant, so the same physical state seeds
    both measures.
    A nonzero burn_in advances the paths that many days before recording
    (1000 days comfortably washes out the start state at the persistence
    levels of interest); clamps are counted on recorded days only.
    """
    blocks = _recorded(params, state, horizon, n_paths, nu1, seed, burn_in)
    rv_out = np.empty((horizon, n_paths))
    y_out = np.empty((horizon, n_paths))
    clamps = 0
    for rows, days in blocks:
        for day, (rv, y, c) in enumerate(days):
            rv_out[day, rows] = rv
            y_out[day, rows] = y
            clamps += c
    return PathSet(rv_paths=rv_out.T, y_paths=y_out.T, clamp_count=clamps)


def _recorded_days(params, state, horizon, n_paths, nu1, seed, burn_in):
    """Check the arguments, then return an iterator over the days after the
    burn-in, each as (rv, y, clamps) over all n_paths, rv checked."""
    blocks = _recorded(params, state, horizon, n_paths, nu1, seed, burn_in)
    return map(_joined, zip(*(days for _, days in blocks)))


def _joined(draws):
    # one day's (rv, y, clamps) of every block, in block order; rv checked
    rv, y, clamps = zip(*draws)
    return _nonnegative(np.concatenate(rv)), np.concatenate(y), sum(clamps)


def simulate_y_snapshots(params: ModelParams, state: MarketState,
                         maturities, n_paths: int,
                         nu1: float | None = None, seed: int = 0):
    """Cumulative log-returns y_{t,T} at selected maturities only.

    Memory-friendly variant of simulate_paths for large-scale MGF and
    cumulant validation: returns (ysnap, clamp_count).  Column j of ysnap
    holds the cumulative return at maturities[j] days, in the requested
    order; a repeated maturity fills each of its columns.  Paths and
    clamps match simulate_paths over max(maturities) days at the same seed.
    """
    return _snapshot_runs(params, state, maturities, n_paths, [nu1], seed)[0]


def _snapshot_runs(params, state, maturities, n_paths, nu1s, seed):
    """simulate_y_snapshots for each nu1 of nu1s, the runs drained
    together; returns one (ysnap, clamp_count) per run."""
    days = np.array([_whole("maturities", m, 1) for m in maturities], int)
    if days.size == 0:
        raise ValidationError("maturities must be a nonempty list of days")
    runs = [_recorded(params, state, int(days.max()), n_paths, nu1, seed)
            for nu1 in nu1s]
    outs = [np.empty((n_paths, days.size)) for _ in runs]
    clamps = _drain([partial(_record_snapshots, blocks, out, days)
                     for blocks, out in zip(runs, outs)])
    return list(zip(outs, clamps))


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
