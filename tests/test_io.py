"""CSV loaders, serialization round trips, params-file parsing, option filter."""

import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from lharg import ValidationError
from lharg.io import (
    DatedSeries,
    load_option_chain,
    load_params,
    load_returns,
    load_rv_series,
    save_params,
)
from lharg.options import filter_options

from oracles import write_option_chain, write_series
from test_pricing import make_quote


class TestSeriesLoading:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "rv.csv"
        path.write_text("date,rv\n2004-01-05,1.1e-4\n2004-01-06,9e-5\n"
                        "2004-01-07,1.3e-4\n")
        series = load_rv_series(path)
        assert len(series) == 3
        assert series.dates[0] == dt.date(2004, 1, 5)
        assert series.values[2] == 1.3e-4

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = tmp_path / "rv.csv"
        path.write_text("date,rv\n2004-01-07,3e-4\n2004-01-05,1e-4\n")
        series = load_rv_series(path)
        assert series.dates == [dt.date(2004, 1, 5), dt.date(2004, 1, 7)]

    def test_negative_rv_cites_line(self, tmp_path):
        path = tmp_path / "rv.csv"
        rows = [f"2004-01-{d:02d},1e-4" for d in range(1, 10)]
        rows[6] = "2004-01-07,-1e-5"
        path.write_text("date,rv\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=":8:"):
            load_rv_series(path)   # header is line 1, bad row is line 8

    def test_duplicate_dates_rejected(self, tmp_path):
        path = tmp_path / "rv.csv"
        path.write_text("date,rv\n2004-01-05,1e-4\n2004-01-05,2e-4\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_rv_series(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "rv.csv"
        path.write_text("day,variance\n2004-01-05,1e-4\n")
        with pytest.raises(ValidationError, match="header"):
            load_rv_series(path)

    def test_returns_allow_negative(self, tmp_path):
        path = tmp_path / "ret.csv"
        path.write_text("date,log_return\n2004-01-05,-0.01\n")
        series = load_returns(path)
        assert series.values[0] == -0.01

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        dates = [dt.date(2004, 1, 1) + dt.timedelta(days=i) for i in range(50)]
        values = rng.gamma(2.0, 5e-5, 50)
        path = tmp_path / "rv.csv"
        write_series(path, DatedSeries(dates, values), "rv")
        back = load_rv_series(path)
        assert back.dates == dates
        assert np.array_equal(back.values, values)


class TestChainLoading:
    def test_round_trip(self, tmp_path):
        chain = (make_quote(0.9, 63, "put", market_iv=0.22),
                 make_quote(1.05, 126, "call", market_iv=0.18))
        path = tmp_path / "chain.csv"
        write_option_chain(path, chain)
        back = load_option_chain(path)
        assert len(back) == 2
        for a, b in zip(chain, back):
            assert a == b

    def test_missing_iv_computed(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(
            "quote_date,expiry_date,strike,type,mid_price,underlying,rate\n"
            "2004-06-09,2004-09-09,1000.0,call,25.0,1000.0,1e-4\n")
        chain = load_option_chain(path)
        q = chain[0]
        assert q.market_iv is not None
        # invert manually: tau=92 days, annualized with sqrt(252)
        from lharg.pricing import bs_price
        daily = q.market_iv / np.sqrt(252.0)
        assert abs(bs_price(1000.0, 1000.0, 1e-4, daily, 92.0, "call")
                   - 25.0) < 1e-8

    def test_expiry_before_quote_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(
            "quote_date,expiry_date,strike,type,mid_price,underlying,rate\n"
            "2004-06-09,2004-06-01,1000.0,call,25.0,1000.0,1e-4\n")
        with pytest.raises(ValidationError, match=":2: expiry 2004-06-01 "
                                                  "not after quote date"):
            load_option_chain(path)

    def test_bad_type_cites_line(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(
            "quote_date,expiry_date,strike,type,mid_price,underlying,rate\n"
            "2004-06-09,2004-09-09,1000.0,straddle,25.0,1000.0,1e-4\n")
        with pytest.raises(ValidationError, match=":2:"):
            load_option_chain(path)


class TestParamsFile:
    def test_round_trip(self, tmp_path, zmlharg):
        path = tmp_path / "params.txt"
        save_params(path, zmlharg, extras={"nu1": -3375.0, "loglik": -25172.0})
        params, extras = load_params(path)
        assert params == zmlharg
        assert extras["nu1"] == -3375.0

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("variant = HARG\ntheta = 1e-5\n")
        with pytest.raises(ValidationError, match="missing"):
            load_params(path)

    def test_parse_with_comments(self, tmp_path, harg):
        path = tmp_path / "params.txt"
        save_params(path, harg)
        path.write_text(
            "# fitted parameters\n\n"
            + path.read_text().replace("delta = ", "delta=   ", 1)
            + "nu1 = -2794.0    # calibrated premium\n"
            + "note = fit on synthetic data\n")
        params, extras = load_params(path)
        assert params == harg
        assert extras == {"nu1": -2794.0, "note": "fit on synthetic data"}

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("variant = HARG\ntheta 1e-5\n")
        with pytest.raises(ValidationError, match=":2: expected key = value"):
            load_params(path)

    def test_repeated_key_rejected(self, tmp_path, harg):
        path = tmp_path / "params.txt"
        save_params(path, harg)
        lines = path.read_text().splitlines()
        lines.insert(3, "theta = 2e-05")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError,
                           match=r":4: duplicate key 'theta' "
                                 r"\(first set on line 2\)"):
            load_params(path)

    def test_bad_value_cites_its_line(self, tmp_path, harg):
        path = tmp_path / "params.txt"
        save_params(path, harg)
        text = path.read_text()
        assert text.splitlines()[2].startswith("delta = ")
        path.write_text(text.replace(f"delta = {harg.delta!r}",
                                     "delta = 1.3x"))
        with pytest.raises(ValidationError,
                           match=r":3: bad delta value '1.3x'"):
            load_params(path)


CHAIN_HEADER = "quote_date,expiry_date,strike,type,mid_price,underlying,rate"


class TestLocatedErrors:
    """Each malformed input fails at the loader with a message that names
    the file, and the line where there is one."""

    CASES = (
        # (file text, loader, message after the path)
        ("date,rv\n2004-01-05,1e-4\n2004-01-06,nan\n", load_rv_series,
         ":3: non-finite rv"),
        ("date,log_return\n2004-01-05,inf\n", load_returns,
         ":2: non-finite log_return"),
        ("", load_rv_series, ": empty file"),
        ("date,rv\n2004-01-05,1e-4\n2004-01-06\n", load_rv_series,
         ":3: expected 2 columns"),
        (f"{CHAIN_HEADER}\n2004-01-05,2004-03-05,100.0,call,5.0,100.0\n",
         load_option_chain, ":2: expected at least 7 columns"),
        # a call mid above the spot has no implied vol
        (f"{CHAIN_HEADER}\n2004-01-05,2004-03-05,100.0,call,120.0,100.0,"
         "0.0001\n", load_option_chain,
         ":2: cannot imply vol from mid price: price 120 outside "
         "no-arbitrage bounds (0.598204, 100)"),
        # the quote's own checks, located at the row
        (f"{CHAIN_HEADER},market_iv\n2004-01-05,2004-03-05,0.0,call,5.0,"
         "100.0,0.0001,0.2\n", load_option_chain,
         ":2: strike and underlying must be positive"),
        (f"{CHAIN_HEADER},market_iv\n2004-01-05,2004-03-05,100.0,put,-1.0,"
         "100.0,0.0001,0.2\n", load_option_chain,
         ":2: mid price must be nonnegative"),
    )

    def test_malformed_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "input.csv"
        for text, loader, message in self.CASES:
            path.write_text(text)
            with pytest.raises(ValidationError) as err:
                loader(path)
            assert str(err.value) == f"{path}{message}", text

    def test_missing_params_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        with pytest.raises(ValidationError) as err:
            load_params(path)
        assert str(err.value) == f"params file not found: {path}"


class TestOptionQuote:
    def test_sign_rules(self):
        # each rule with its own message; 0 is not a positive price
        good = make_quote(1.0, 63, "call", market_iv=0.2)
        assert replace(good, mid_price=0.0).mid_price == 0.0
        for change, message in (
                ({"strike": 0.0}, "strike and underlying must be positive"),
                ({"strike": -1.0}, "strike and underlying must be positive"),
                ({"underlying": 0.0}, "strike and underlying must be positive"),
                ({"mid_price": -1e-12}, "mid price must be nonnegative")):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                replace(good, **change)

    def test_non_finite_numbers_rejected(self):
        # NaN passes every sign check, so each number is checked for
        # finiteness first; a missing market_iv stays allowed
        good = make_quote(1.0, 63, "call", market_iv=0.2)
        assert replace(good, market_iv=None).market_iv is None
        for name in ("strike", "underlying", "mid_price", "rate",
                     "market_iv"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValidationError, match=f"{name} must be"):
                    replace(good, **{name: bad})

    def test_bad_maturity_rejected(self):
        # the maturity is read off the two dates: an expiry on or before
        # the quote date fails at the quote, naming both dates
        good = make_quote(1.0, 63, "call")
        assert good.maturity_days == 63
        for days in (0, -5):
            expiry = good.quote_date + dt.timedelta(days=days)
            with pytest.raises(ValidationError,
                               match=f"expiry {expiry} not after quote "
                                     f"date {good.quote_date}"):
                replace(good, expiry_date=expiry)


class TestFilterOptions:
    def test_short_maturity_excluded(self):
        chain = (make_quote(1.05, 5, "call", market_iv=0.2),)
        report = filter_options(chain)
        assert len(report.chain) == 0
        assert report.rejections["maturity"] == 1

    def test_deep_call_excluded(self):
        chain = (make_quote(1.25, 63, "call", market_iv=0.2),)
        report = filter_options(chain)
        assert report.rejections["moneyness"] == 1

    def test_atm_call_retained(self):
        chain = (make_quote(1.0, 30, "call", mid=5.0, market_iv=0.2),)
        report = filter_options(chain)
        assert len(report.chain) == 1

    def test_atm_put_is_itm_by_convention(self):
        chain = (make_quote(1.0, 30, "put", mid=5.0, market_iv=0.2),)
        report = filter_options(chain)
        assert report.rejections["otm"] == 1

    def test_iv_and_price_rules(self):
        chain = (
            make_quote(1.05, 63, "call", mid=5.0, market_iv=0.75),
            make_quote(1.05, 63, "call", mid=0.01, market_iv=0.2),
        )
        report = filter_options(chain)
        assert report.rejections["implied_vol"] == 1
        assert report.rejections["price"] == 1

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        quotes = []
        for _ in range(200):
            m = rng.uniform(0.6, 1.4)
            kind = "call" if rng.uniform() < 0.5 else "put"
            quotes.append(make_quote(m, int(rng.integers(2, 500)), kind,
                                     mid=float(rng.uniform(0.01, 50)),
                                     market_iv=float(rng.uniform(0.05, 0.9))))
        chain = tuple(quotes)
        once = filter_options(chain)
        twice = filter_options(once.chain)
        assert twice.chain == once.chain
        assert sum(twice.rejections.values()) == 0

    def test_counts_conserve_total(self):
        rng = np.random.default_rng(9)
        quotes = []
        for _ in range(500):
            m = rng.uniform(0.5, 1.5)
            kind = "call" if rng.uniform() < 0.5 else "put"
            quotes.append(make_quote(m, int(rng.integers(2, 600)), kind,
                                     mid=float(rng.uniform(0.001, 50)),
                                     market_iv=float(rng.uniform(0.05, 1.0))))
        chain = tuple(quotes)
        report = filter_options(chain)
        assert len(report.chain) + sum(report.rejections.values()) == 500
        assert report.n_input == 500

    def test_boundaries(self):
        # both ends of the maturity and moneyness ranges are kept
        for tau, kept in ((9, False), (10, True), (365, True), (366, False)):
            report = filter_options(
                (make_quote(1.05, tau, "call", market_iv=0.2),))
            assert len(report.chain) == kept
            assert report.rejections["maturity"] == (not kept)
        for m, kind, kept in ((0.8 - 1e-9, "put", False), (0.8, "put", True),
                              (1.2, "call", True), (1.2 + 1e-9, "call", False)):
            report = filter_options(
                (make_quote(m, 63, kind, market_iv=0.2),))
            assert len(report.chain) == kept
            assert report.rejections["moneyness"] == (not kept)
