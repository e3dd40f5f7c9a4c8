"""COS pricer, Black-Scholes utilities, chain pricing, error metrics."""

import datetime as dt
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lharg import (
    InversionDomainError,
    MarketState,
    NumericalError,
    RiskPremia,
    ValidationError,
    state_from_series,
    stationary_state,
)
from lharg.options import OptionChain, OptionQuote
from lharg.pricing import (
    COS_TERMS,
    COS_WIDTH,
    bs_price,
    cos_interval,
    cos_price,
    implied_vol,
    model_char_fn,
    price_chain,
    rmse_iv,
    rmse_p,
)

import lharg.mgf as mgf_mod
import lharg.pricing as pricing_mod

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
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        tau = 126
        a, b = cos_interval(zmlharg, st, premia, tau)
        cf = model_char_fn(zmlharg, st, premia, tau)
        for m in (0.85, 0.95, 1.0, 1.1, 1.2):
            strike = 100.0 * m
            call = cos_price(cf, 100.0, strike, zmlharg.r, tau, "call", a, b)
            put = cos_price(cf, 100.0, strike, zmlharg.r, tau, "put", a, b)
            parity = 100.0 - strike * np.exp(-zmlharg.r * tau)
            assert abs(call - put - parity) < 1e-8

    def test_doubling_terms_converged(self, zmlharg, monkeypatch):
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        for tau in (22, 252):
            a, b = cos_interval(zmlharg, st, premia, tau)
            cf = model_char_fn(zmlharg, st, premia, tau)
            for m in (0.8, 1.0, 1.2):
                monkeypatch.setattr(pricing_mod, "COS_TERMS", 512)
                p1 = cos_price(cf, 100.0, 100.0 * m, zmlharg.r, tau, "put",
                               a, b)
                monkeypatch.setattr(pricing_mod, "COS_TERMS", 1024)
                p2 = cos_price(cf, 100.0, 100.0 * m, zmlharg.r, tau, "put",
                               a, b)
                assert abs(p1 - p2) < 1e-8

    def test_truncation_against_wide_reference(self, zmlharg, monkeypatch):
        # the cumulant truncation rule at COS_TERMS terms against 4096 terms
        # on an interval 1.6x as wide about the same centre.  Puts only: a
        # call's payoff coefficients grow like exp(b), and on the wide
        # interval their roundoff reaches 1e-11 at tau = 252
        premia = RiskPremia.arbitrage_free(-3000.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        cases = []
        for tau in (14, 63, 252):
            a, b = cos_interval(zmlharg, st, premia, tau)
            cf = model_char_fn(zmlharg, st, premia, tau)
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
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        tau = 63
        a, b = cos_interval(zmlharg, st, premia, tau)
        phi = model_char_fn(zmlharg, st, premia, tau)(
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
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        tau = 63
        a, b = cos_interval(zmlharg, st, premia, tau)
        cf = model_char_fn(zmlharg, st, premia, tau)
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
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        for tau in (10, 50, 160, 365):
            a, b = cos_interval(zmlharg, st, premia, tau)
            cf = model_char_fn(zmlharg, st, premia, tau)
            for m in (0.8, 0.9, 1.0, 1.1, 1.2):
                kind = "call" if m >= 1.0 else "put"
                price = cos_price(cf, 100.0, 100.0 * m, zmlharg.r, tau, kind,
                                  a, b)
                iv = implied_vol(price, 100.0, 100.0 * m, zmlharg.r, tau,
                                 kind) * np.sqrt(252.0)
                assert 0.0 < iv < 0.7


class TestImpliedVol:
    def test_round_trips(self):
        for sigma in (0.05, 0.2, 0.7):
            for kind in ("call", "put"):
                price = bs_price(100.0, 95.0, 0.01, sigma, 1.0, kind)
                assert abs(implied_vol(price, 100.0, 95.0, 0.01, 1.0, kind)
                           - sigma) < 1e-8

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


def two_date_chain(params):
    # two quote dates x maturities 63 and 126 x three strikes, each date
    # with its own state
    dates = (dt.date(2004, 6, 9), dt.date(2004, 6, 10))
    chain = OptionChain(tuple(
        make_quote(m, tau, "call" if m >= 1 else "put", qdate=d)
        for d in dates for tau in (63, 126) for m in (0.9, 1.0, 1.1)))
    st = stationary_state(params)
    calm = MarketState(rv=0.5 * st.rv, lev=st.lev)
    return chain, {dates[0]: st, dates[1]: calm}


class TestPriceChain:
    def test_cf_built_once_per_maturity(self, zmlharg, monkeypatch):
        # one cf built and called once, on the whole grid, per (date,
        # maturity) group: no separate cf(0) call and no call per strike
        built, grids = [], []
        original = pricing_mod.model_char_fn

        def counting(params, state, premia, tau):
            cf = original(params, state, premia, tau)
            built.append((id(state), tau))

            def counted(u):
                grids.append((id(state), tau, np.size(u)))
                return cf(u)
            return counted

        monkeypatch.setattr(pricing_mod, "model_char_fn", counting)
        chain, states = two_date_chain(zmlharg)
        rows = price_chain(zmlharg, -3375.0, chain, states)
        assert all(r.error is None for r in rows)
        groups = sorted((id(s), tau) for s in states.values()
                        for tau in (63, 126))
        assert sorted(built) == groups
        assert sorted(grids) == [g + (COS_TERMS,) for g in groups]

    def test_recursions_traced_once_per_group(self, zmlharg, monkeypatch):
        # under the benchmark's tracer every recursion is an mgf span: one
        # mgf_q for the cf grid and one raw_cumulants for the interval per
        # group, and the layer self times add up to the command's wall
        spec = importlib.util.spec_from_file_location("tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        recursions = []
        original = mgf_mod._recurse

        def counting(*args, **kwargs):
            recursions.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(mgf_mod, "_recurse", counting)
        chain, states = two_date_chain(zmlharg)
        rec = tracing.Recorder()
        with rec.installed(), rec.command_span("price"):
            rows = pricing_mod.price_chain(zmlharg, -3375.0, chain, states)
        assert not [name for name in rec.missing
                    if name.startswith(("mgf.", "pricing."))]
        assert rec.check_additivity() == []
        calls = Counter(span[0] for span in rec.spans)
        assert sum(calls[name] for name in tracing.MGF_CALLS) \
            == len(recursions) == 8
        assert calls["mgf.mgf_q"] == calls["mgf.raw_cumulants"] == 4
        assert calls["pricing.cos_price"] == 4
        metrics = tracing.layer_metrics(rec)
        assert metrics["pricing.quotes"] == len(rows) == 12
        assert metrics["pricing.recursions_per_quote"] == 8 / 12

    def test_self_pricing_round_trip(self, zmlharg):
        st = stationary_state(zmlharg)
        chain = OptionChain(tuple(
            make_quote(m, tau, "call" if m >= 1 else "put")
            for tau in (30, 120) for m in (0.85, 0.95, 1.0, 1.05, 1.15)
        ))
        first = price_chain(zmlharg, -3375.0, chain, st)
        regenerated = OptionChain(tuple(
            make_quote(r.quote.moneyness, r.quote.maturity_days,
                       r.quote.option_type, mid=r.model_price)
            for r in first
        ))
        second = price_chain(zmlharg, -3375.0, regenerated, st)
        for a, b in zip(first, second):
            assert abs(a.model_iv - b.model_iv) < 1e-6

    def test_smile_steepening_vs_harg(self, harg, zmlharg):
        # identical synthetic chains: the zero-mean leverage model puts
        # more implied vol on deep OTM puts than the no-leverage model
        st_z = stationary_state(zmlharg)
        st_h = stationary_state(harg)
        chain = OptionChain((make_quote(0.8, 63, "put"),
                             make_quote(1.0, 63, "call")))
        rows_z = price_chain(zmlharg, -3375.0, chain, st_z)
        rows_h = price_chain(harg, -2794.0, chain, st_h)
        smile_z = rows_z[0].model_iv - rows_z[1].model_iv
        smile_h = rows_h[0].model_iv - rows_h[1].model_iv
        assert smile_z > smile_h
        assert rows_z[0].model_iv > rows_h[0].model_iv

    def test_per_quote_failures_recorded(self, zmlharg):
        bad = make_quote(5.0, 63, "put")   # strike far above the range
        chain = OptionChain((bad, make_quote(1.0, 63, "call")))
        rows = price_chain(zmlharg, -3375.0, chain, stationary_state(zmlharg))
        assert rows[1].error is None
        assert rows[0].error is not None or np.isfinite(rows[0].model_price)

    def test_failures_stay_per_quote(self, zmlharg, monkeypatch):
        # one group holds good quotes, a call so far out of the money that
        # it prices to 0 and has no IV, and a put whose COS price dips
        # below -1e-10: only those two rows fail
        original = pricing_mod.model_char_fn
        monkeypatch.setattr(
            pricing_mod, "model_char_fn",
            lambda *args: signed_density_cf(original(*args), 1e-3, -0.5,
                                            0.01))
        chain = OptionChain((make_quote(1.0, 63, "call"),
                             make_quote(5.0, 63, "call"),
                             make_quote(0.9, 63, "put"),
                             make_quote(0.62, 63, "put"),
                             make_quote(1.0, 126, "put")))
        rows = price_chain(zmlharg, -3375.0, chain, stationary_state(zmlharg))
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
                               stationary_state(zmlharg))
            assert all(message in r.error and np.isnan(r.model_price)
                       for r in rows)

    def test_programming_errors_propagate(self, zmlharg, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the pricer")

        monkeypatch.setattr(pricing_mod, "cos_price", broken)
        chain = OptionChain((make_quote(1.0, 63, "call"),))
        with pytest.raises(TypeError, match="bug in the pricer"):
            price_chain(zmlharg, -3375.0, chain, stationary_state(zmlharg))


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

    def test_relative_price_variant(self):
        market = np.array([2.0, 4.0])
        model = np.array([2.2, 3.6])    # relative errors 0.1 and -0.1
        assert abs(rmse_p(market, model) - 10.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse_iv([], [])
