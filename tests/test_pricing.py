"""COS pricer, Black-Scholes utilities, chain pricing, error metrics."""

import datetime as dt
import importlib.util
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lharg import (
    InversionDomainError,
    MarketState,
    NumericalError,
    RecursionDomainError,
    ValidationError,
    mgf_q,
    simulate_y_snapshots,
    stationary_state,
)
from lharg.mgf import raw_cumulants
from lharg.options import OptionQuote
from lharg.pricing import (
    COS_TERMS,
    COS_WIDTH,
    _brent,
    _cos_grid,
    _norm_cdf,
    _truncation,
    bs_price,
    cos_price,
    implied_vol,
    price_chain,
    rmse_iv,
)

import lharg.mgf as mgf_mod
import lharg.pricing as pricing_mod

from conftest import random_state
from oracles import lewis_calls, model_cf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def bs_cf(sigma, r, tau):
    def cf(u):
        u = np.asarray(u)
        return np.exp(1j * u * (r - 0.5 * sigma**2) * tau
                      - 0.5 * u**2 * sigma**2 * tau)
    return cf


def signed_density(phi, a, b, eps, mean, sd):
    # (1 + eps) f - eps N(mean, sd^2) on phi's grid: still normalized, but
    # negative near mean, so a put whose payoff covers that dip prices
    # below zero
    u = _cos_grid(a, b, len(phi))
    return (1.0 + eps) * phi - eps * np.exp(1j * u * mean
                                            - 0.5 * (sd * u) ** 2)


def bs_interval(sigma, r, tau):
    # the cumulant rule with c2 = sigma^2 tau and c4 = 0
    c1 = (r - 0.5 * sigma**2) * tau
    half = COS_WIDTH * np.sqrt(sigma**2 * tau)
    return c1 - half, c1 + half


class TestCosAgainstBlackScholes:
    def test_atm_call_value(self):
        # closed form: 100*(2*Phi(0.1)-1) = 7.965567455...
        a, b = bs_interval(0.2, 0.0, 1.0)
        phi = bs_cf(0.2, 0.0, 1.0)(_cos_grid(a, b, COS_TERMS))
        price = cos_price(phi, 100.0, 100.0, 0.0, 1, "call", a, b)
        assert abs(price - 7.9655674554) < 1e-6
        assert abs(price - bs_price(100.0, 100.0, 0.0, 0.2, 1.0, "call")) < 1e-8

    def test_strike_grid_both_types(self):
        sigma, r, tau = 0.25, 0.0002, 126.0
        a, b = bs_interval(sigma / np.sqrt(252), r, tau)
        phi = bs_cf(sigma / np.sqrt(252), r, tau)(_cos_grid(a, b, COS_TERMS))
        for strike in (70.0, 90.0, 100.0, 115.0, 140.0):
            for kind in ("call", "put"):
                got = cos_price(phi, 100.0, strike, r, 126, kind, a, b)
                ref = bs_price(100.0, strike, r, sigma / np.sqrt(252), tau,
                               kind)
                assert abs(got - ref) < 1e-7

    def test_unnormalized_cf_rejected(self):
        # phi[0] off 1, and a phi that is empty or not 1-D, for one strike
        # or many
        a, b = bs_interval(0.2, 0.0, 1.0)
        phi = bs_cf(0.2, 0.0, 1.0)(_cos_grid(a, b, COS_TERMS))
        cases = ((2.0 * phi, "not normalized"),
                 (phi[:0], "non-empty 1-D"),
                 (np.stack([phi, phi]), "non-empty 1-D"),
                 (phi[:, None], "non-empty 1-D"),
                 (phi[0], "non-empty 1-D"))
        for bad, message in cases:
            for strikes in (100.0, [90.0, 100.0]):
                with pytest.raises(ValidationError, match=message):
                    cos_price(bad, 100.0, strikes, 0.0, 1, "call", a, b)

    def test_nan_cf_rejected(self):
        # a NaN phi[0] fails the normalization check, alone or with every
        # other value NaN, for one strike or many
        a, b = bs_interval(0.2, 0.0, 1.0)
        phi = bs_cf(0.2, 0.0, 1.0)(_cos_grid(a, b, COS_TERMS))
        phi[0] = np.nan
        for bad in (phi, np.full(COS_TERMS, np.nan + 0j)):
            for strikes in (100.0, [90.0, 100.0]):
                with pytest.raises(ValidationError, match="not normalized"):
                    cos_price(bad, 100.0, strikes, 0.0, 1, "put", a, b)

    def test_empty_interval_rejected(self):
        a, b = bs_interval(0.2, 0.0, 1.0)
        phi = bs_cf(0.2, 0.0, 1.0)(_cos_grid(a, b, COS_TERMS))
        for lo, hi in ((b, a), (a, a), (np.nan, b)):
            with pytest.raises(ValidationError, match="b > a"):
                cos_price(phi, 100.0, 100.0, 0.0, 1, "call", lo, hi)

    def test_negative_price_fails_alone(self):
        # a strike whose expansion dips below -1e-10 is NaN in an array
        # result, and the others keep their prices; alone it raises
        a, b = bs_interval(0.2, 0.0, 1.0)
        phi = signed_density(bs_cf(0.2, 0.0, 1.0)(_cos_grid(a, b, COS_TERMS)),
                             a, b, 1e-3, -0.7, 0.01)
        strikes = np.array([40.0, 52.0, 100.0])
        prices = cos_price(phi, 100.0, strikes, 0.0, 1, "put", a, b)
        assert np.isnan(prices[1])
        assert prices[[0, 2]].tolist() == [
            cos_price(phi, 100.0, k, 0.0, 1, "put", a, b)
            for k in (40.0, 100.0)]
        with pytest.raises(NumericalError, match="below -1e-10"):
            cos_price(phi, 100.0, 52.0, 0.0, 1, "put", a, b)


class TestCosOnModel:
    def test_put_call_parity(self, zmlharg):
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        tau = 126
        a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
        phi = model_cf(zmlharg, st, nu1, tau)(_cos_grid(a, b, COS_TERMS))
        for m in (0.85, 0.95, 1.0, 1.1, 1.2):
            strike = 100.0 * m
            call = cos_price(phi, 100.0, strike, zmlharg.r, tau, "call", a, b)
            put = cos_price(phi, 100.0, strike, zmlharg.r, tau, "put", a, b)
            parity = 100.0 - strike * np.exp(-zmlharg.r * tau)
            assert abs(call - put - parity) < 1e-8

    def test_doubling_terms_converged(self, zmlharg):
        # the shipped COS_TERMS against twice as many terms: the first
        # COS_TERMS and all 2*COS_TERMS values of one grid
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        for tau in (22, 252):
            a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
            phi = model_cf(zmlharg, st, nu1, tau)(
                _cos_grid(a, b, 2 * COS_TERMS))
            for m in (0.8, 1.0, 1.2):
                for kind in ("put", "call"):
                    p1, p2 = (cos_price(phi[:n], 100.0, 100.0 * m, zmlharg.r,
                                        tau, kind, a, b)
                              for n in (COS_TERMS, 2 * COS_TERMS))
                    assert abs(p1 - p2) < 1e-12 * 100.0 * m

    def test_truncation_against_wide_reference(self, zmlharg):
        # the cumulant truncation rule at COS_TERMS terms against 4096 terms
        # on an interval 1.6x as wide about the same centre.  Puts only: a
        # call's payoff coefficients grow like exp(b), and on the wide
        # interval their roundoff reaches 1e-11 at tau = 252
        nu1 = -3000.0
        st = stationary_state(zmlharg)
        strikes = 100.0 * np.array([0.8, 0.9, 1.0, 1.1, 1.2])
        for tau in (14, 63, 252):
            a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
            mid, half = 0.5 * (a + b), 0.8 * (b - a)
            cf = model_cf(zmlharg, st, nu1, tau)
            shipped, reference = (
                cos_price(cf(_cos_grid(lo, hi, n)), 100.0, strikes,
                          zmlharg.r, tau, "put", lo, hi)
                for lo, hi, n in ((a, b, COS_TERMS),
                                  (mid - half, mid + half, 4096)))
            assert np.all(np.abs(shipped - reference) < 1e-11)

    def test_batch_equals_loop(self, zmlharg):
        # one call on a strike array equals one scalar call per strike,
        # also for strikes beyond [a, b] that take the zero-price branches:
        # calls with log(K/S) >= b and puts with log(K/S) <= a
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        tau = 63
        a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
        phi = model_cf(zmlharg, st, nu1, tau)(_cos_grid(a, b, COS_TERMS))
        strikes = 100.0 * np.exp(np.r_[a - 0.5, b + 0.5,
                                       np.linspace(a, b, 25)])
        kinds = np.where(strikes > 100.0, "call", "put")
        for kind in ("call", "put", kinds):
            batch = cos_price(phi, 100.0, strikes, zmlharg.r, tau, kind, a, b)
            kind = np.broadcast_to(kind, strikes.shape)
            loop = [cos_price(phi, 100.0, k, zmlharg.r, tau, t, a, b)
                    for k, t in zip(strikes, kind)]
            assert batch.shape == strikes.shape
            assert all(type(price) is float for price in loop)
            assert np.all(np.abs(batch - loop) <= 1e-15 * np.abs(loop))
        assert cos_price(phi, 100.0, strikes[:2], zmlharg.r, tau,
                         ["put", "call"], a, b).tolist() == [0.0, 0.0]
        with pytest.raises(ValidationError, match="'straddle'"):
            cos_price(phi, 100.0, strikes[:3], zmlharg.r, tau,
                      ["call", "straddle", "put"], a, b)

    def test_monotone_in_strike(self, zmlharg):
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        tau = 63
        a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
        phi = model_cf(zmlharg, st, nu1, tau)(_cos_grid(a, b, COS_TERMS))
        strikes = np.linspace(80.0, 120.0, 17)
        calls = [cos_price(phi, 100.0, k, zmlharg.r, tau, "call", a, b)
                 for k in strikes]
        puts = [cos_price(phi, 100.0, k, zmlharg.r, tau, "put", a, b)
                for k in strikes]
        assert np.all(np.diff(calls) < 0.0)
        assert np.all(np.diff(puts) > 0.0)

    def test_iv_surface_inside_box(self, zmlharg):
        # annualized model IVs stay in (0, 0.7) on the filtered
        # moneyness/maturity box
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        for tau in (10, 50, 160, 365):
            a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
            phi = model_cf(zmlharg, st, nu1, tau)(_cos_grid(a, b, COS_TERMS))
            for m in (0.8, 0.9, 1.0, 1.1, 1.2):
                kind = "call" if m >= 1.0 else "put"
                price = cos_price(phi, 100.0, 100.0 * m, zmlharg.r, tau, kind,
                                  a, b)
                iv = implied_vol(price, 100.0, 100.0 * m, zmlharg.r, tau,
                                 kind) * np.sqrt(252.0)
                assert 0.0 < iv < 0.7


class TestCosTermsGate:
    """COS_TERMS, the N that `_price_groups` picks for its cf grids,
    against the characteristic function it drops.

    `cos_price` expands in N = len(phi) cosine terms, so it leaves out
    phi(u_k) for k >= N; the tests pass it the first N or all 2N values of
    one 2N-point grid.  Over P-LHARG and ZM-LHARG states with rv lags at
    scales 1e-6 to 1e-3, maturities of 10 to 365 days and nu1 in
    {-2000, -3000}, the dropped terms N <= k < 2N must stay below BOUND in
    modulus, and N- and 2N-term prices must agree within BOUND * K.  The
    tail is largest on calm 10-day states: there, at N = 256, it measured
    below 9e-14, and k in [192, 256) reached 1.6e-11 to 2.5e-11."""

    BOUND = 1e-12
    SCALES = (1e-6, 1e-5, 1.1e-4, 1e-3)
    NU1S = (-2000.0, -3000.0)
    MATURITIES = (10, 14, 30, 63, 126, 252, 365)

    @pytest.fixture(scope="class")
    def grids(self, plharg, zmlharg):
        # (variant, scale, nu1, tau) -> (params, a, b, phi on the first
        # 2*COS_TERMS u_k of its interval), one shared pass per (params, nu1)
        out = {}
        for params in (plharg, zmlharg):
            rng = np.random.default_rng(31)
            states = {scale: random_state(rng, params.gamma_lev, scale)
                      for scale in self.SCALES}
            for nu1 in self.NU1S:
                cases = [(scale, tau, *_truncation(raw_cumulants(
                    params, st, tau, nu1=nu1)))
                    for scale, st in states.items() for tau in self.MATURITIES]
                logs = mgf_mod._log_mgf_segments(params, nu1, [
                    (1j * _cos_grid(a, b, 2 * COS_TERMS), tau, params.r,
                     states[scale]) for scale, tau, a, b in cases])
                for (scale, tau, a, b), g in zip(cases, logs):
                    out[params.variant, scale, nu1, tau] = (
                        params, a, b, np.exp(g))
        return out

    def test_dropped_tail_below_bound(self, grids):
        tail = {key: np.abs(phi[COS_TERMS:]).max()
                for key, (*_, phi) in grids.items()}
        worst = max(tail, key=tail.get)
        assert tail[worst] < self.BOUND, (worst, tail[worst])

    def test_doubling_terms_agrees(self, grids):
        # calls checked on their own: their payoff coefficients grow like
        # exp(b), so parity with the puts would not bound their error
        strikes = 100.0 * np.linspace(0.8, 1.2, 9)
        gaps = {}
        for key, (params, a, b, phi) in grids.items():
            for kind in ("put", "call"):
                prices = [cos_price(phi[:n], 100.0, strikes, params.r, key[-1],
                                    kind, a, b)
                          for n in (COS_TERMS, 2 * COS_TERMS)]
                gaps[key + (kind,)] = np.max(np.abs(prices[0] - prices[1])
                                             / strikes)
        worst = max(gaps, key=gaps.get)
        assert gaps[worst] < self.BOUND, (worst, gaps[worst])

    def test_three_quarters_fails_the_gate(self, grids):
        # the gate has teeth: a quarter fewer terms drops a tail above the
        # bound on the calm 10-day P-LHARG state.  This also holds
        # COS_TERMS at that floor: a larger N fails here until the bound
        # or the states change with it
        n = 3 * COS_TERMS // 4
        for nu1 in self.NU1S:
            *_, phi = grids["P-LHARG", 1e-6, nu1, 10]
            assert np.abs(phi[n:2 * n]).max() > self.BOUND, nu1


class TestCosAgainstMonteCarlo:
    """COS prices from the shared passes against discounted Monte Carlo
    payoffs under Q: a wrong truncation interval, cosine coefficient or
    measure would pass every MGF check, but not this one.  The simulator
    shares only the Q map with the recursion."""

    NU1 = -3000.0
    MATURITIES = (14, 63)
    MONEYNESS = np.array([0.9, 0.95, 1.0, 1.05, 1.1])
    N_PATHS = 40_000

    def test_prices_within_four_se(self, all_variants):
        kinds = np.where(self.MONEYNESS < 1.0, "put", "call")
        for params in all_variants:
            st = stationary_state(params)
            ysnap, _ = simulate_y_snapshots(params, st, self.MATURITIES,
                                            self.N_PATHS, nu1=self.NU1,
                                            seed=5)
            prices = pricing_mod._price_groups(params, self.NU1, [
                (tau, params.r, st, 1.0, self.MONEYNESS, kinds)
                for tau in self.MATURITIES])
            for j, tau in enumerate(self.MATURITIES):
                growth = np.exp(ysnap[:, j])[:, None]
                payoff = np.exp(-params.r * tau) * np.where(
                    kinds == "call", np.maximum(growth - self.MONEYNESS, 0.0),
                    np.maximum(self.MONEYNESS - growth, 0.0))
                mean = payoff.mean(axis=0)
                se = payoff.std(axis=0, ddof=1) / np.sqrt(self.N_PATHS)
                assert np.all(np.abs(prices[j] - mean) <= 4.0 * se), \
                    (params.variant, tau, (prices[j] - mean) / se)


class TestCosAgainstLewis:
    """COS prices from the shared passes against Lewis's Fourier formula
    (`oracles.lewis_calls`), which integrates the tilted recursion's MGF
    off the imaginary axis: it shares neither `mgf._steps` nor `cos_price`
    with the pricer, and at 1e-12 * K it sees what a few Monte Carlo
    standard errors cannot, such as a discount one day off.  Each maturity
    has its own rate, so a group priced at another group's rate shows
    too."""

    NU1 = -3000.0
    CASES = ((14, 1e-4), (63, 2e-4), (252, 0.5e-4))     # (days, daily rate)
    MONEYNESS = np.linspace(0.8, 1.2, 9)

    def test_prices_within_1e12_of_the_strike(self, zmlharg):
        # calls against the formula, puts against it through parity
        st = stationary_state(zmlharg)
        strikes = np.r_[self.MONEYNESS, self.MONEYNESS]
        kinds = np.repeat(["call", "put"], self.MONEYNESS.size)
        prices = pricing_mod._price_groups(zmlharg, self.NU1, [
            (tau, rate, st, 1.0, strikes, kinds) for tau, rate in self.CASES])
        for (tau, rate), got in zip(self.CASES, prices):
            at_rate = replace(zmlharg, r=rate)
            calls, tail = lewis_calls(at_rate, st, self.NU1, tau, 1.0,
                                      self.MONEYNESS)
            # the quadrature is resolved: the MGF has died out where the
            # integral stops, and twice the panels move no price by 1e-13
            assert tail < 1e-13, (tau, tail)
            finer, _ = lewis_calls(at_rate, st, self.NU1, tau, 1.0,
                                   self.MONEYNESS, panels=128)
            assert np.max(np.abs(finer - calls)) < 1e-13, tau
            puts = calls - 1.0 + self.MONEYNESS * np.exp(-rate * tau)
            gap = np.abs(got - np.r_[calls, puts]) / strikes
            assert gap.max() < 1e-12, (tau, gap.max())


class TestNormCdf:
    def test_against_mpmath(self):
        # the erfc form rounds its argument -x/sqrt(2), an error that grows
        # as x^2: 1.27e-14 at most on this grid, near x = -10, against
        # 1.59e-14 for scipy's ndtr
        with mpmath.workdps(40):
            for x in np.linspace(-10.0, 10.0, 4001):
                ref = mpmath.ncdf(float(x))
                assert abs((_norm_cdf(float(x)) - ref) / ref) <= 2e-14, x


class TestImpliedVol:
    def test_round_trips(self):
        for sigma in (0.05, 0.2, 0.7):
            for kind in ("call", "put"):
                price = bs_price(100.0, 95.0, 0.01, sigma, 1.0, kind)
                assert abs(implied_vol(price, 100.0, 95.0, 0.01, 1.0, kind)
                           - sigma) < 1e-8
        # daily units over moneyness 0.5-2, maturities of 1-365 days and
        # annualized vols of 5-60 %, every price strictly inside the
        # no-arbitrage bounds: the inverted vol reprices to 1e-12 * S
        S, r = 100.0, 1e-4
        n_cases = 0
        for m in np.linspace(0.5, 2.0, 11):
            for tau in (1, 2, 5, 10, 22, 44, 63, 126, 252, 365):
                disc_k = S * m * np.exp(-r * tau)
                bounds = {"call": (max(S - disc_k, 0.0), S),
                          "put": (max(disc_k - S, 0.0), disc_k)}
                for vol in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
                    sigma = vol / np.sqrt(252.0)
                    for kind, (lower, upper) in bounds.items():
                        price = bs_price(S, S * m, r, sigma, tau, kind)
                        if not lower < price < upper:
                            continue
                        iv = implied_vol(price, S, S * m, r, tau, kind)
                        assert abs(bs_price(S, S * m, r, iv, tau, kind)
                                   - price) <= 1e-12 * S
                        n_cases += 1
        assert n_cases > 1000

    def test_bracket_doubles_past_the_start(self):
        # 0.9 on a unit at-the-money strike over tau = 1 needs sigma = 3.29,
        # so the bracket's top doubles twice from 1/sqrt(tau) = 1
        for kind in ("call", "put"):
            iv = implied_vol(0.9, 1.0, 1.0, 0.0, 1.0, kind)
            assert abs(iv - 3.2897) < 1e-4
            assert abs(bs_price(1.0, 1.0, 0.0, iv, 1.0, kind) - 0.9) <= 1e-12

    def test_below_intrinsic_rejected(self):
        intrinsic = 100.0 - 80.0 * np.exp(-0.01)
        with pytest.raises(InversionDomainError):
            implied_vol(intrinsic - 0.5, 100.0, 80.0, 0.01, 1.0, "call")
        with pytest.raises(InversionDomainError):
            implied_vol(100.0 + 1.0, 100.0, 80.0, 0.01, 1.0, "call")

    def test_bs_price_checks_type_at_zero_vol(self):
        # the zero-vol shortcut must not read an unknown type as a put
        for sigma in (0.0, 0.2):
            with pytest.raises(ValidationError, match="'cal'"):
                bs_price(1.0, 1.2, 0.0, sigma, 10.0, "cal")
        assert bs_price(1.0, 1.2, 0.0, 0.0, 10.0, "put") == pytest.approx(0.2)
        assert bs_price(1.0, 1.2, 0.0, 0.0, 10.0, "call") == 0.0

    def test_deep_otm_tiny_price(self):
        # 5 cents on a 1000 underlying still inverts accurately
        iv = implied_vol(0.05, 1000.0, 700.0, 1e-4, 30.0, "put")
        back = bs_price(1000.0, 700.0, 1e-4, iv, 30.0, "put")
        assert abs(back - 0.05) / 0.05 < 1e-4


class TestInputErrors:
    def test_each_rule_raises_its_message(self):
        # (call, error class, exact message): Black-Scholes inputs outside
        # its domain; a maturity so short that 1/sqrt(tau) = 1e7 already
        # passes the bracket's 1e6 ceiling while pricing below the target;
        # and cumulants that give no interval width, zero or NaN
        bad_bs = ("bs_price requires positive S, K, tau and nonnegative "
                  "sigma")
        cases = (
            (lambda: bs_price(0.0, 1.0, 0.0, 0.2, 1.0, "call"),
             ValidationError, bad_bs),
            (lambda: bs_price(1.0, -1.0, 0.0, 0.2, 1.0, "put"),
             ValidationError, bad_bs),
            (lambda: bs_price(1.0, 1.0, 0.0, 0.2, 0.0, "call"),
             ValidationError, bad_bs),
            (lambda: bs_price(1.0, 1.0, 0.0, -0.2, 1.0, "call"),
             ValidationError, bad_bs),
            (lambda: implied_vol(0.9, 1.0, 1.0, 0.0, 1e-14, "call"),
             NumericalError, "implied vol bracket expansion failed"),
            (lambda: _truncation((0.0, 0.0, 0.0, 0.0)),
             NumericalError, "degenerate truncation interval"),
            (lambda: _truncation((0.0, np.nan, 0.0, 0.0)),
             NumericalError, "degenerate truncation interval"),
        )
        for call, kind, message in cases:
            with pytest.raises(kind) as err:
                call()
            assert type(err.value) is kind
            assert str(err.value) == message

    def test_root_search_raises(self):
        # a NaN value at an end or inside the bracket, where the first
        # secant step lands; and a step at 0, where xtol = 0 asks for a
        # bracket within 4 machine epsilons of |x| while x halves toward 0,
        # so 100 steps do not suffice
        def step(x):
            points.append(x)
            return -1.0 if x < 0.0 else 1.0

        cases = (
            (lambda x: np.nan, "root search: f(-1.0) is NaN"),
            (lambda x: x - 0.5 if abs(x) == 1.0 else np.nan,
             "root search: f(0.5) is NaN"),
            (step, "root search did not converge; last x "
             "-1.5777218104420236e-30"),
        )
        for f, message in cases:
            points = []
            with pytest.raises(NumericalError) as err:
                _brent(f, -1.0, 1.0, xtol=0.0)
            assert type(err.value) is NumericalError
            assert str(err.value) == message
        assert len(points) == 102


def make_quote(m, tau, kind, qdate=dt.date(2004, 6, 9), spot=1000.0,
               rate=1e-4, mid=1.0, market_iv=None):
    return OptionQuote(
        quote_date=qdate, expiry_date=qdate + dt.timedelta(days=tau),
        strike=spot * m, option_type=kind, mid_price=mid, underlying=spot,
        rate=rate, market_iv=market_iv,
    )


def two_date_chain(params, maturities=(63, 126)):
    # two quote dates x the maturities x three strikes, each date with its
    # own state
    dates = (dt.date(2004, 6, 9), dt.date(2004, 6, 10))
    chain = tuple(
        make_quote(m, tau, "call" if m >= 1 else "put", qdate=d)
        for d in dates for tau in maturities for m in (0.9, 1.0, 1.1))
    st = stationary_state(params)
    calm = MarketState(rv=0.5 * st.rv, lev=st.lev)
    return chain, {dates[0]: st, dates[1]: calm}


def stationary_states(params, chain):
    """Every quote date of the chain mapped to the stationary state."""
    return dict.fromkeys((q.quote_date for q in chain),
                         stationary_state(params))


class TestPriceChain:
    def test_cf_built_once_per_maturity(self, zmlharg, monkeypatch):
        # the pricer makes two shared passes per chain: one over every
        # (date, maturity, rate) group's 9-point cumulant contour, then one
        # over every group's whole cf grid; no separate cf(0) evaluation
        # and no evaluation per strike; the contour pass runs inside
        # mgf._cumulant_segments, the grid pass from pricing
        passes = []
        original = mgf_mod._log_mgf_segments

        def counting(params, nu1, segments):
            passes.append(sorted((id(st), tau, np.size(z))
                                 for z, tau, _, st in segments))
            return original(params, nu1, segments)

        monkeypatch.setattr(mgf_mod, "_log_mgf_segments", counting)
        monkeypatch.setattr(pricing_mod, "_log_mgf_segments", counting)
        chain, states = two_date_chain(zmlharg)
        rows = price_chain(zmlharg, -3375.0, chain, states)
        assert all(r.error is None for r in rows)
        groups = sorted((id(s), tau) for s in states.values()
                        for tau in (63, 126))
        assert passes == [[g + (9,) for g in groups],
                          [g + (COS_TERMS,) for g in groups]]

    def test_rates_do_not_mix_in_a_group(self, zmlharg):
        # two quotes on one date and maturity at different rates: each
        # prices bit for bit as in a chain of its own
        quotes = (make_quote(0.95, 90, "put", rate=1e-4),
                  make_quote(0.95, 90, "put", rate=3e-4))
        states = stationary_states(zmlharg, quotes)
        rows = price_chain(zmlharg, -3375.0, quotes, states)
        assert sorted(row.quote.rate for row in rows) == [1e-4, 3e-4]
        for row in rows:
            alone, = price_chain(zmlharg, -3375.0, (row.quote,), states)
            assert row.error is None and alone.error is None
            assert row.model_price == alone.model_price
            assert row.model_iv == alone.model_iv

    def test_traced_chain_shares_its_passes(self, zmlharg, monkeypatch):
        # under the benchmark's tracer the chain's recursion runs in shared
        # passes, one for the 4 contours (36 points) and as many as the 4
        # grids of COS_TERMS points need at _PASS_POINTS points a pass,
        # outside any mgf span; the layer self times still add up to the
        # command's wall
        spec = importlib.util.spec_from_file_location("tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        passes = []
        original = mgf_mod._steps

        def counting(p, weights, z, segments):
            passes.append(len(z))
            return original(p, weights, z, segments)

        monkeypatch.setattr(mgf_mod, "_steps", counting)
        chain, states = two_date_chain(zmlharg)
        rec = tracing.Recorder()
        with rec.installed(), rec.command_span("price"):
            rows = pricing_mod.price_chain(zmlharg, -3375.0, chain, states)
        assert not [name for name in rec.missing
                    if name.startswith(("mgf.", "pricing."))]
        assert rec.check_additivity() == []
        per_pass = max(1, mgf_mod._PASS_POINTS // COS_TERMS)
        assert passes == [36] + [COS_TERMS * min(per_pass, 4 - k)
                                 for k in range(0, 4, per_pass)]
        calls = Counter(span[0] for span in rec.spans)
        assert calls["pricing.cos_price"] == 4
        metrics = tracing.layer_metrics(rec)
        assert metrics["pricing.quotes"] == len(rows) == 12

    def test_self_pricing_round_trip(self, zmlharg):
        chain = tuple(
            make_quote(m, tau, "call" if m >= 1 else "put")
            for tau in (30, 120) for m in (0.85, 0.95, 1.0, 1.05, 1.15)
        )
        states = stationary_states(zmlharg, chain)
        first = price_chain(zmlharg, -3375.0, chain, states)
        regenerated = tuple(
            make_quote(r.quote.moneyness, r.quote.maturity_days,
                       r.quote.option_type, mid=r.model_price)
            for r in first
        )
        second = price_chain(zmlharg, -3375.0, regenerated, states)
        for a, b in zip(first, second):
            assert abs(a.model_iv - b.model_iv) < 1e-6

    def test_smile_steepening_vs_harg(self, harg, zmlharg):
        # identical synthetic chains: the zero-mean leverage model puts
        # more implied vol on deep OTM puts than the no-leverage model
        chain = (make_quote(0.8, 63, "put"),
                 make_quote(1.0, 63, "call"))
        rows_z = price_chain(zmlharg, -3375.0, chain,
                             stationary_states(zmlharg, chain))
        rows_h = price_chain(harg, -2794.0, chain,
                             stationary_states(harg, chain))
        smile_z = rows_z[0].model_iv - rows_z[1].model_iv
        smile_h = rows_h[0].model_iv - rows_h[1].model_iv
        assert smile_z > smile_h
        assert rows_z[0].model_iv > rows_h[0].model_iv

    def test_per_quote_failures_recorded(self, zmlharg):
        bad = make_quote(5.0, 63, "put")   # strike far above the range
        chain = (bad, make_quote(1.0, 63, "call"))
        rows = price_chain(zmlharg, -3375.0, chain,
                           stationary_states(zmlharg, chain))
        assert rows[1].error is None
        assert rows[0].error is not None or np.isfinite(rows[0].model_price)

    def test_failures_stay_per_quote(self, zmlharg, monkeypatch):
        # one group holds good quotes, a call so far out of the money that
        # it prices to 0 and has no IV, and a put whose COS price dips
        # below -1e-10: only those two rows fail
        original = pricing_mod.cos_price

        def bumped(phi, *args):
            # args end with the interval (a, b) that phi's grid is built on
            return original(signed_density(phi, *args[-2:], 1e-3, -0.5, 0.01),
                            *args)

        monkeypatch.setattr(pricing_mod, "cos_price", bumped)
        chain = (make_quote(1.0, 63, "call"),
                 make_quote(5.0, 63, "call"),
                 make_quote(0.9, 63, "put"),
                 make_quote(0.62, 63, "put"),
                 make_quote(1.0, 126, "put"))
        rows = price_chain(zmlharg, -3375.0, chain,
                           stationary_states(zmlharg, chain))
        errors = [r.error for r in rows]
        assert "outside no-arbitrage bounds" in errors[1]
        assert errors[3] == "COS price NaN or below -1e-10"
        for i in (0, 2, 4):
            assert errors[i] is None and rows[i].model_iv > 0.0
        assert all(np.isnan(rows[i].model_price) for i in (1, 3))

    def test_group_failures_recorded(self, zmlharg):
        chain = (make_quote(1.0, 63, "call"),
                 make_quote(1.0, 126, "call"))
        rows = price_chain(zmlharg, -3375.0, chain,
                           {dt.date(1999, 1, 4): stationary_state(zmlharg)})
        assert all(r.error.startswith("no state for") for r in rows)
        # theta*y_star = 1/2 makes the mapped dynamics explode: the
        # recursion leaves its domain, and theta*y_star > 1 has no map
        for frac, message in ((0.5, "left the right half-plane"),
                              (11.0, "scale undefined")):
            rows = price_chain(zmlharg, -frac / zmlharg.theta, chain,
                               stationary_states(zmlharg, chain))
            assert all(message in r.error and np.isnan(r.model_price)
                       for r in rows)

    def test_domain_failures_stay_per_group(self, zmlharg):
        # at theta*y_star = 0.35 the longer groups leave the recursion's
        # domain, on the contour or on the grid, each at its own step: each
        # failing row carries the error a call of the public per-group
        # route raises, and every other group prices as in a chain alone
        nu1 = -0.35 / zmlharg.theta
        chain, states = two_date_chain(zmlharg, (14, 30, 63, 126, 252))
        rows = price_chain(zmlharg, nu1, chain, states)
        failed = set()
        for row in rows:
            q = row.quote
            state = states[q.quote_date]
            try:
                a, b = _truncation(raw_cumulants(zmlharg, state,
                                                 q.maturity_days, nu1=nu1))
                mgf_q(zmlharg, state, nu1, 1j * _cos_grid(a, b, COS_TERMS),
                      q.maturity_days)
            except RecursionDomainError as exc:
                failed.add(str(exc))
                assert row.error == str(exc) and np.isnan(row.model_price)
                continue
            alone, = price_chain(zmlharg, nu1, (q,), states)
            assert row.error is None and alone.error is None
            assert row.model_price == alone.model_price
        assert any("1 - 2*C_1 left" in e for e in failed)
        assert any("1 - theta*X left" in e for e in failed)
        assert 0 < sum(r.error is None for r in rows) < len(rows)

    def test_failures_reprice_each_group_alone(self, zmlharg, monkeypatch):
        # a clean chain is one call of the shared pipeline; when that call
        # raises, every group is priced once more, alone
        calls = []
        original = pricing_mod._price_groups

        def spy(params, nu1, groups):
            calls.append(len(groups))
            return original(params, nu1, groups)

        monkeypatch.setattr(pricing_mod, "_price_groups", spy)
        chain, states = two_date_chain(zmlharg, (14, 30, 63, 126, 252))
        rows = price_chain(zmlharg, -3375.0, chain, states)
        assert all(r.error is None for r in rows)
        assert calls == [10]
        calls.clear()
        rows = price_chain(zmlharg, -0.35 / zmlharg.theta, chain, states)
        assert 0 < sum(r.error is None for r in rows) < len(rows)
        assert calls == [10] + [1] * 10

    def test_memory_bounded_by_the_pass_size(self, zmlharg):
        # 2 dates x 8 maturities: the 16 cf grids (8192 points) run in
        # passes of at most 1024 points, which peak near 1.5 MB here; one
        # 8192-point pass would peak above 5 MB
        chain, states = two_date_chain(
            zmlharg, (14, 30, 45, 63, 91, 126, 182, 252))
        price_chain(zmlharg, -3375.0, chain, states)     # warm caches
        tracemalloc.start()
        try:
            rows = price_chain(zmlharg, -3375.0, chain, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.error is None for r in rows)
        assert peak < 3e6

    def test_programming_errors_propagate(self, zmlharg, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the pricer")

        monkeypatch.setattr(pricing_mod, "cos_price", broken)
        chain = (make_quote(1.0, 63, "call"),)
        with pytest.raises(TypeError, match="bug in the pricer"):
            price_chain(zmlharg, -3375.0, chain,
                        stationary_states(zmlharg, chain))


class TestRmse:
    def test_identical_vectors(self):
        assert rmse_iv([0.2, 0.25], [0.2, 0.25]) == 0.0

    def test_constant_gap(self):
        market = np.full(8, 0.21)
        model = market - 0.01
        assert abs(rmse_iv(market, model) - 1.0) < 1e-12

    def test_two_element_hand_value(self):
        # gaps {0.01, 0.03}: sqrt(0.0005)*100 = 2.23606...
        val = rmse_iv([0.20, 0.20], [0.19, 0.17])
        assert abs(val - 2.2360679774997896) < 1e-12

    def test_permutation_invariance_and_scaling(self):
        rng = np.random.default_rng(55)
        market = rng.uniform(0.1, 0.4, 20)
        gap = rng.normal(0.0, 0.02, 20)
        base = rmse_iv(market, market + gap)
        perm = rng.permutation(20)
        assert abs(rmse_iv(market[perm], (market + gap)[perm]) - base) < 1e-12
        assert abs(rmse_iv(market, market + 2.0 * gap) - 2.0 * base) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse_iv([], [])
