"""COS pricer, Black-Scholes utilities, chain pricing, error metrics."""

import datetime as dt
import importlib.util
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lharg import (
    InversionDomainError,
    MarketState,
    NumericalError,
    RecursionDomainError,
    ValidationError,
    leverage,
    mgf_q,
    simulate_y_snapshots,
    stationary_state,
)
from lharg.mgf import raw_cumulants
from lharg.options import OptionChain, OptionQuote
from lharg.pricing import (
    COS_TERMS,
    COS_WIDTH,
    _truncation,
    bs_price,
    cos_price,
    implied_vol,
    price_chain,
    rmse_iv,
)

import lharg.mgf as mgf_mod
import lharg.pricing as pricing_mod

from conftest import random_state_arrays
from oracles import model_cf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def bs_cf(sigma, r, tau):
    def cf(u):
        u = np.asarray(u)
        return np.exp(1j * u * (r - 0.5 * sigma**2) * tau
                      - 0.5 * u**2 * sigma**2 * tau)
    return cf


def signed_density_cf(cf, eps, mean, sd):
    # (1 + eps) f - eps N(mean, sd^2): still normalized, but negative near
    # mean, so a put whose payoff covers that dip prices below zero
    def bumped(u):
        u = np.asarray(u)
        return (1.0 + eps) * cf(u) - eps * np.exp(1j * u * mean
                                                  - 0.5 * (sd * u) ** 2)
    return bumped


def bs_interval(sigma, r, tau):
    # the cumulant rule with c2 = sigma^2 tau and c4 = 0
    c1 = (r - 0.5 * sigma**2) * tau
    half = COS_WIDTH * np.sqrt(sigma**2 * tau)
    return c1 - half, c1 + half


class TestCosAgainstBlackScholes:
    def test_atm_call_value(self):
        # closed form: 100*(2*Phi(0.1)-1) = 7.965567455...
        a, b = bs_interval(0.2, 0.0, 1.0)
        price = cos_price(bs_cf(0.2, 0.0, 1.0), 100.0, 100.0, 0.0, 1, "call",
                          a, b)
        assert abs(price - 7.9655674554) < 1e-6
        assert abs(price - bs_price(100.0, 100.0, 0.0, 0.2, 1.0, "call")) < 1e-8

    def test_strike_grid_both_types(self):
        sigma, r, tau = 0.25, 0.0002, 126.0
        a, b = bs_interval(sigma / np.sqrt(252), r, tau)
        cf = bs_cf(sigma / np.sqrt(252), r, tau)
        for strike in (70.0, 90.0, 100.0, 115.0, 140.0):
            for kind in ("call", "put"):
                got = cos_price(cf, 100.0, strike, r, 126, kind, a, b)
                ref = bs_price(100.0, strike, r, sigma / np.sqrt(252), tau,
                               kind)
                assert abs(got - ref) < 1e-7

    def test_unnormalized_cf_rejected(self):
        a, b = bs_interval(0.2, 0.0, 1.0)
        with pytest.raises(ValidationError, match="not normalized"):
            cos_price(lambda u: 2.0 * np.ones_like(np.asarray(u)), 100.0,
                      100.0, 0.0, 1, "call", a, b)

    def test_nan_cf_rejected(self):
        # a NaN cf(0) fails the normalization check, for one strike or many
        a, b = bs_interval(0.2, 0.0, 1.0)
        for strikes in (100.0, [90.0, 100.0]):
            with pytest.raises(ValidationError, match="not normalized"):
                cos_price(lambda u: np.full(np.shape(u), np.nan + 0j), 100.0,
                          strikes, 0.0, 1, "put", a, b)

    def test_empty_interval_rejected(self):
        a, b = bs_interval(0.2, 0.0, 1.0)
        for lo, hi in ((b, a), (a, a), (np.nan, b)):
            with pytest.raises(ValidationError, match="b > a"):
                cos_price(bs_cf(0.2, 0.0, 1.0), 100.0, 100.0, 0.0, 1, "call",
                          lo, hi)

    def test_negative_price_fails_alone(self):
        # a strike whose expansion dips below -1e-10 is NaN in an array
        # result, and the others keep their prices; alone it raises
        a, b = bs_interval(0.2, 0.0, 1.0)
        cf = signed_density_cf(bs_cf(0.2, 0.0, 1.0), 1e-3, -0.7, 0.01)
        strikes = np.array([40.0, 52.0, 100.0])
        prices = cos_price(cf, 100.0, strikes, 0.0, 1, "put", a, b)
        assert np.isnan(prices[1])
        assert prices[[0, 2]].tolist() == [
            cos_price(cf, 100.0, k, 0.0, 1, "put", a, b)
            for k in (40.0, 100.0)]
        with pytest.raises(NumericalError, match="below -1e-10"):
            cos_price(cf, 100.0, 52.0, 0.0, 1, "put", a, b)


class TestCosOnModel:
    def test_put_call_parity(self, zmlharg):
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        tau = 126
        a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
        cf = model_cf(zmlharg, st, nu1, tau)
        for m in (0.85, 0.95, 1.0, 1.1, 1.2):
            strike = 100.0 * m
            call = cos_price(cf, 100.0, strike, zmlharg.r, tau, "call", a, b)
            put = cos_price(cf, 100.0, strike, zmlharg.r, tau, "put", a, b)
            parity = 100.0 - strike * np.exp(-zmlharg.r * tau)
            assert abs(call - put - parity) < 1e-8

    def test_doubling_terms_converged(self, zmlharg, monkeypatch):
        # the shipped COS_TERMS against twice as many terms
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        for tau in (22, 252):
            a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
            cf = model_cf(zmlharg, st, nu1, tau)
            for m in (0.8, 1.0, 1.2):
                for kind in ("put", "call"):
                    args = (cf, 100.0, 100.0 * m, zmlharg.r, tau, kind, a, b)
                    monkeypatch.setattr(pricing_mod, "COS_TERMS", COS_TERMS)
                    p1 = cos_price(*args)
                    monkeypatch.setattr(pricing_mod, "COS_TERMS",
                                        2 * COS_TERMS)
                    p2 = cos_price(*args)
                    assert abs(p1 - p2) < 1e-12 * 100.0 * m

    def test_truncation_against_wide_reference(self, zmlharg, monkeypatch):
        # the cumulant truncation rule at COS_TERMS terms against 4096 terms
        # on an interval 1.6x as wide about the same centre.  Puts only: a
        # call's payoff coefficients grow like exp(b), and on the wide
        # interval their roundoff reaches 1e-11 at tau = 252
        nu1 = -3000.0
        st = stationary_state(zmlharg)
        cases = []
        for tau in (14, 63, 252):
            a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
            cf = model_cf(zmlharg, st, nu1, tau)
            for m in (0.8, 0.9, 1.0, 1.1, 1.2):
                args = (cf, 100.0, 100.0 * m, zmlharg.r, tau, "put")
                cases.append((args, cos_price(*args, a, b),
                              0.5 * (a + b), 0.8 * (b - a)))
        monkeypatch.setattr(pricing_mod, "COS_TERMS", 4096)
        for args, price, mid, half in cases:
            reference = cos_price(*args, mid - half, mid + half)
            assert abs(price - reference) < 1e-11

    def test_batch_equals_loop(self, zmlharg):
        # one call on a strike array equals one scalar call per strike,
        # also for strikes beyond [a, b] that take the zero-price branches:
        # calls with log(K/S) >= b and puts with log(K/S) <= a
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        tau = 63
        a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
        phi = model_cf(zmlharg, st, nu1, tau)(
            np.arange(COS_TERMS) * np.pi / (b - a))

        def cf(u):
            return phi

        strikes = 100.0 * np.exp(np.r_[a - 0.5, b + 0.5,
                                       np.linspace(a, b, 25)])
        kinds = np.where(strikes > 100.0, "call", "put")
        for kind in ("call", "put", kinds):
            batch = cos_price(cf, 100.0, strikes, zmlharg.r, tau, kind, a, b)
            kind = np.broadcast_to(kind, strikes.shape)
            loop = [cos_price(cf, 100.0, k, zmlharg.r, tau, t, a, b)
                    for k, t in zip(strikes, kind)]
            assert batch.shape == strikes.shape
            assert all(type(price) is float for price in loop)
            assert np.all(np.abs(batch - loop) <= 1e-15 * np.abs(loop))
        assert cos_price(cf, 100.0, strikes[:2], zmlharg.r, tau,
                         ["put", "call"], a, b).tolist() == [0.0, 0.0]
        with pytest.raises(ValidationError, match="'straddle'"):
            cos_price(cf, 100.0, strikes[:3], zmlharg.r, tau,
                      ["call", "straddle", "put"], a, b)

    def test_monotone_in_strike(self, zmlharg):
        nu1 = -3375.0
        st = stationary_state(zmlharg)
        tau = 63
        a, b = _truncation(raw_cumulants(zmlharg, st, tau, nu1=nu1))
        cf = model_cf(zmlharg, st, nu1, tau)
        strikes = np.linspace(80.0, 120.0, 17)
        calls = [cos_price(cf, 100.0, k, zmlharg.r, tau, "call", a, b)
                 for k in strikes]
        puts = [cos_price(cf, 100.0, k, zmlharg.r, tau, "put", a, b)
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
            cf = model_cf(zmlharg, st, nu1, tau)
            for m in (0.8, 0.9, 1.0, 1.1, 1.2):
                kind = "call" if m >= 1.0 else "put"
                price = cos_price(cf, 100.0, 100.0 * m, zmlharg.r, tau, kind,
                                  a, b)
                iv = implied_vol(price, 100.0, 100.0 * m, zmlharg.r, tau,
                                 kind) * np.sqrt(252.0)
                assert 0.0 < iv < 0.7


class TestCosTermsGate:
    """COS_TERMS against the characteristic function it drops.

    N cosine terms leave out phi(u_k) for k >= N.  Over P-LHARG and
    ZM-LHARG states with rv lags at scales 1e-6 to 1e-3, maturities of 10
    to 365 days and nu1 in {-2000, -3000}, the dropped terms
    N <= k < 2N must stay below BOUND in modulus, and N- and 2N-term
    prices must agree within BOUND * K.  The tail is largest on calm
    10-day states: there, at N = 256, it measured below 9e-14, and
    k in [192, 256) reached 1.6e-11 to 2.5e-11."""

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
            states = {}
            for scale in self.SCALES:
                rv, eps = random_state_arrays(rng, scale)
                states[scale] = MarketState(rv=rv, lev=np.asarray(leverage(
                    eps, rv, params.gamma_lev, params.variant)))
            for nu1 in self.NU1S:
                cases = [(scale, tau, *_truncation(raw_cumulants(
                    params, st, tau, nu1=nu1)))
                    for scale, st in states.items() for tau in self.MATURITIES]
                logs = mgf_mod._log_mgf_segments(params, nu1, [
                    (1j * np.arange(2 * COS_TERMS) * np.pi / (b - a), tau,
                     params.r, states[scale]) for scale, tau, a, b in cases])
                for (scale, tau, a, b), g in zip(cases, logs):
                    out[params.variant, scale, nu1, tau] = (
                        params, a, b, np.exp(g))
        return out

    def test_dropped_tail_below_bound(self, grids):
        tail = {key: np.abs(phi[COS_TERMS:]).max()
                for key, (*_, phi) in grids.items()}
        worst = max(tail, key=tail.get)
        assert tail[worst] < self.BOUND, (worst, tail[worst])

    def test_doubling_terms_agrees(self, grids, monkeypatch):
        # calls checked on their own: their payoff coefficients grow like
        # exp(b), so parity with the puts would not bound their error
        strikes = 100.0 * np.linspace(0.8, 1.2, 9)
        gaps = {}
        for key, (params, a, b, phi) in grids.items():
            for kind in ("put", "call"):
                prices = []
                for n in (COS_TERMS, 2 * COS_TERMS):
                    monkeypatch.setattr(pricing_mod, "COS_TERMS", n)
                    prices.append(cos_price(lambda u: phi[:len(u)], 100.0,
                                            strikes, params.r, key[-1], kind,
                                            a, b))
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


def make_quote(m, tau, kind, qdate=dt.date(2004, 6, 9), spot=1000.0,
               rate=1e-4, mid=1.0, market_iv=None):
    return OptionQuote(
        quote_date=qdate, expiry_date=qdate + dt.timedelta(days=tau),
        maturity_days=tau, strike=spot * m, option_type=kind, mid_price=mid,
        underlying=spot, rate=rate, market_iv=market_iv,
    )


def two_date_chain(params, maturities=(63, 126)):
    # two quote dates x the maturities x three strikes, each date with its
    # own state
    dates = (dt.date(2004, 6, 9), dt.date(2004, 6, 10))
    chain = OptionChain(tuple(
        make_quote(m, tau, "call" if m >= 1 else "put", qdate=d)
        for d in dates for tau in maturities for m in (0.9, 1.0, 1.1)))
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
        rows = price_chain(zmlharg, -3375.0, OptionChain(quotes), states)
        assert sorted(row.quote.rate for row in rows) == [1e-4, 3e-4]
        for row in rows:
            alone, = price_chain(zmlharg, -3375.0, OptionChain((row.quote,)),
                                 states)
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

        def counting(p, weights, z, r, segments):
            passes.append(len(z))
            return original(p, weights, z, r, segments)

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
        chain = OptionChain(tuple(
            make_quote(m, tau, "call" if m >= 1 else "put")
            for tau in (30, 120) for m in (0.85, 0.95, 1.0, 1.05, 1.15)
        ))
        states = stationary_states(zmlharg, chain)
        first = price_chain(zmlharg, -3375.0, chain, states)
        regenerated = OptionChain(tuple(
            make_quote(r.quote.moneyness, r.quote.maturity_days,
                       r.quote.option_type, mid=r.model_price)
            for r in first
        ))
        second = price_chain(zmlharg, -3375.0, regenerated, states)
        for a, b in zip(first, second):
            assert abs(a.model_iv - b.model_iv) < 1e-6

    def test_smile_steepening_vs_harg(self, harg, zmlharg):
        # identical synthetic chains: the zero-mean leverage model puts
        # more implied vol on deep OTM puts than the no-leverage model
        chain = OptionChain((make_quote(0.8, 63, "put"),
                             make_quote(1.0, 63, "call")))
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
        chain = OptionChain((bad, make_quote(1.0, 63, "call")))
        rows = price_chain(zmlharg, -3375.0, chain,
                           stationary_states(zmlharg, chain))
        assert rows[1].error is None
        assert rows[0].error is not None or np.isfinite(rows[0].model_price)

    def test_failures_stay_per_quote(self, zmlharg, monkeypatch):
        # one group holds good quotes, a call so far out of the money that
        # it prices to 0 and has no IV, and a put whose COS price dips
        # below -1e-10: only those two rows fail
        original = pricing_mod.cos_price

        def bumped(cf, *args):
            return original(signed_density_cf(cf, 1e-3, -0.5, 0.01), *args)

        monkeypatch.setattr(pricing_mod, "cos_price", bumped)
        chain = OptionChain((make_quote(1.0, 63, "call"),
                             make_quote(5.0, 63, "call"),
                             make_quote(0.9, 63, "put"),
                             make_quote(0.62, 63, "put"),
                             make_quote(1.0, 126, "put")))
        rows = price_chain(zmlharg, -3375.0, chain,
                           stationary_states(zmlharg, chain))
        errors = [r.error for r in rows]
        assert "outside no-arbitrage bounds" in errors[1]
        assert errors[3] == "COS price NaN or below -1e-10"
        for i in (0, 2, 4):
            assert errors[i] is None and rows[i].model_iv > 0.0
        assert all(np.isnan(rows[i].model_price) for i in (1, 3))

    def test_group_failures_recorded(self, zmlharg):
        chain = OptionChain((make_quote(1.0, 63, "call"),
                             make_quote(1.0, 126, "call")))
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
                mgf_q(zmlharg, state, nu1,
                      1j * np.arange(COS_TERMS) * np.pi / (b - a),
                      q.maturity_days)
            except RecursionDomainError as exc:
                failed.add(str(exc))
                assert row.error == str(exc) and np.isnan(row.model_price)
                continue
            alone, = price_chain(zmlharg, nu1, OptionChain((q,)), states)
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
        chain = OptionChain((make_quote(1.0, 63, "call"),))
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
