"""Shared fixtures: published parameter sets and synthetic data helpers."""

import numpy as np
import pytest

from lharg import (MarketState, ModelParams, leverage, simulate_paths,
                   stationary_state)

DAILY_RATE = 1e-4


@pytest.fixture(scope="session")
def harg():
    return ModelParams(
        variant="HARG", theta=1.149e-5, delta=1.358, d=0.0,
        beta_d=3.959e4, beta_w=2.451e4, beta_m=1.012e4,
        alpha_d=0.0, alpha_w=0.0, alpha_m=0.0,
        gamma_lev=0.0, lam=2.005, r=DAILY_RATE,
    )


@pytest.fixture(scope="session")
def plharg():
    return ModelParams(
        variant="P-LHARG", theta=1.068e-5, delta=1.243, d=0.0,
        beta_d=2.429e4, beta_w=2.317e4, beta_m=1.322e4,
        alpha_d=0.2376, alpha_w=0.1194, alpha_m=3.85e-6,
        gamma_lev=223.7, lam=2.005, r=DAILY_RATE,
    )


@pytest.fixture(scope="session")
def zmlharg():
    return ModelParams(
        variant="ZM-LHARG", theta=1.117e-5, delta=1.78, d=0.0,
        beta_d=3.382e4, beta_w=2.542e4, beta_m=1.338e4,
        alpha_d=0.3991, alpha_w=0.3446, alpha_m=0.4034,
        gamma_lev=134.8, lam=2.005, r=DAILY_RATE,
    )


@pytest.fixture(scope="session")
def all_variants(harg, plharg, zmlharg):
    return (harg, plharg, zmlharg)


def make_history(params: ModelParams, n_days: int, seed: int):
    """One simulated (rv, y) history after a stationarity burn-in."""
    paths = simulate_paths(params, stationary_state(params), n_days, 1,
                           seed=seed, burn_in=1000)
    return paths.rv_paths[0], paths.y_paths[0]


@pytest.fixture(scope="session")
def plharg_history(plharg):
    return make_history(plharg, 4500, seed=11)


@pytest.fixture(scope="session")
def zmlharg_history(zmlharg):
    return make_history(zmlharg, 4500, seed=12)


def random_state_arrays(rng: np.random.Generator, scale: float = 1.1e-4):
    """Random admissible (rv, lev-innovation) pairs for a 22-lag state."""
    rv = rng.gamma(2.0, scale / 2.0, 22)
    eps = rng.standard_normal(22)
    return rv, eps


def random_state(rng: np.random.Generator, gamma_lev: float,
                 scale: float = 1.1e-4) -> MarketState:
    """A random 22-lag state: `random_state_arrays` with its innovations
    turned into parabolic leverage at gamma_lev."""
    rv, eps = random_state_arrays(rng, scale)
    return MarketState(rv=rv, lev=np.asarray(
        leverage(eps, rv, gamma_lev, "P-LHARG")))
