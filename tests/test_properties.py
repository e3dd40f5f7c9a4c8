"""The model's identities as properties over random states, horizons and z.

Examples are derandomized, so every run draws the same ones.  A state is
22 random lags from conftest.random_state, its leverage parabolic as
every state's is.  Bounds are those of the deterministic tests in
test_mgf.py and test_pricing.py.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lharg import (
    InversionDomainError,
    NumericalError,
    RecursionDomainError,
    mgf_p,
    mgf_q,
)
from lharg.mgf import _log_mgf_segments, raw_cumulants
from lharg.pricing import (
    COS_TERMS,
    _brent,
    _cos_grid,
    _truncation,
    bs_price,
    cos_price,
    implied_vol,
)

from conftest import random_state
from oracles import model_cf, risk_neutral_map

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

VARIANT = st.integers(0, 2)                  # index into all_variants
SEED = st.integers(0, 2**32 - 1)
SCALE = st.floats(2e-5, 4e-4)                # mean lag variance
HORIZON = st.integers(1, 60)
NU1 = st.floats(-4000.0, -100.0)
# (size, horizon, rate, poison): contour- or grid-sized, horizons that
# repeat, and maybe one real point large enough to cross the pole
SEGMENT = st.tuples(st.sampled_from((9, 512)),
                    st.sampled_from((1, 14, 22, 23, 30, 63)),
                    st.sampled_from((0.0, 1e-4, 3e-4)),
                    st.sampled_from((None, None, 100.0, 150.0)))
Z = st.one_of(st.floats(-2.5, 2.5).map(complex),
              st.floats(-20.0, 20.0).map(lambda u: 1j * u))
# functions of x with root r and scale s for the root searches: smooth
# ones; flat, stepped and quantized ones, whose repeated values force
# bisection steps; and a cubic so small that the inverse-quadratic step's
# denominator underflows to zero, which C divides by to inf or NaN
ROOT_FAMILY = {
    "cubic": lambda r, s: lambda x: s * ((x - r) ** 3 + 0.01 * (x - r)),
    "tiny": lambda r, s: lambda x: 1e-160 * s * ((x - r) ** 3
                                                 + 0.01 * (x - r)),
    "tanh": lambda r, s: lambda x: math.tanh(s * (x - r)),
    "clipped": lambda r, s: lambda x: min(max(s * (x - r), -1.0), 1.0),
    "step": lambda r, s: lambda x: -1.0 if x < r else 1.0,
    "quantized": lambda r, s: lambda x: math.floor(8.0 * s * (x - r)) / 8.0
    + 1.0 / 16.0,
}
XTOL = st.sampled_from((1e-30, 3e-12))   # implied_vol's, calibrate_nu1's


def _state(params, seed, scale):
    return random_state(np.random.default_rng(seed), params.gamma_lev, scale)


class TestMgfProperties:
    @PROPERTY
    @given(VARIANT, SEED, SCALE, HORIZON, NU1)
    def test_normalization(self, all_variants, v, seed, scale, horizon, nu1):
        params = all_variants[v]
        state = _state(params, seed, scale)
        assert abs(mgf_p(params, state, 0.0, horizon) - 1.0) <= 1e-12
        assert abs(mgf_q(params, state, nu1, 0.0, horizon) - 1.0) <= 1e-12

    @PROPERTY
    @given(VARIANT, SEED, SCALE, HORIZON, NU1)
    def test_martingale(self, all_variants, v, seed, scale, horizon, nu1):
        params = all_variants[v]
        state = _state(params, seed, scale)
        bench = np.exp(params.r * horizon)
        val = mgf_q(params, state, nu1, 1.0, horizon)
        assert abs(val - bench) <= 1e-10 * bench

    @PROPERTY
    @given(VARIANT, SEED, SCALE, HORIZON, NU1, Z)
    def test_equals_mapped_physical_recursion(self, all_variants, v, seed,
                                              scale, horizon, nu1, z):
        params = all_variants[v]
        state = _state(params, seed, scale)
        direct = mgf_q(params, state, nu1, z, horizon)
        mapped = mgf_p(risk_neutral_map(params, nu1), state, z, horizon)
        assert abs(direct - mapped) <= 1e-12 * abs(direct)


class TestCosProperties:
    @PROPERTY
    @given(VARIANT, SEED, SCALE, HORIZON, NU1)
    def test_parity_monotone_convex(self, all_variants, v, seed, scale,
                                    horizon, nu1):
        # strikes spread over +-2.5 standard deviations of the log-return
        params = all_variants[v]
        state = _state(params, seed, scale)
        kappas = raw_cumulants(params, state, horizon, nu1=nu1)
        c1, c2 = kappas[:2]
        strikes = 100.0 * np.exp(c1 + np.sqrt(c2) * np.linspace(-2.5, 2.5, 11))
        a, b = _truncation(kappas)
        # one cf grid prices both rows: calls, then puts
        phi = model_cf(params, state, nu1, horizon)(_cos_grid(a, b, COS_TERMS))
        calls, puts = cos_price(phi, 100.0, strikes, params.r, horizon,
                                [["call"], ["put"]], a, b)
        parity = 100.0 - strikes * np.exp(-params.r * horizon)
        assert np.max(np.abs(calls - puts - parity)) < 1e-8
        assert np.all(np.diff(calls) < 0.0)
        assert np.all(np.diff(puts) > 0.0)
        for prices in (calls, puts):
            assert np.all(np.diff(np.diff(prices) / np.diff(strikes)) > 0.0)


class TestSharedPassProperties:
    @PROPERTY
    @given(VARIANT, SEED, SCALE, st.one_of(st.none(), NU1), st.booleans(),
           st.lists(SEGMENT, min_size=1, max_size=6))
    def test_equals_one_recursion_per_segment(self, all_variants, v, seed,
                                              scale, nu1, complex_z, specs):
        # each segment of a shared pass, at its own rate and state, is bit
        # for bit the segment passed alone, or the pass raises the error of
        # a segment that fails alone
        params = all_variants[v]
        rng = np.random.default_rng(seed)
        segments = []
        for i, (size, horizon, rate, poison) in enumerate(specs):
            z = rng.uniform(-2.5, 2.5, size)
            if complex_z:
                z = z + 1j * rng.uniform(-40.0, 40.0, size)
            if poison is not None:
                z[rng.integers(size)] = poison
            segments.append((z, horizon, rate, _state(params, seed + i, scale)))
        try:
            got = _log_mgf_segments(params, nu1, segments)
        except RecursionDomainError as exc:
            errors = []
            for segment in segments:
                try:
                    _log_mgf_segments(params, nu1, [segment])
                except RecursionDomainError as alone:
                    errors.append(str(alone))
            assert str(exc) in errors
            return
        for segment, values in zip(segments, got):
            alone, = _log_mgf_segments(params, nu1, [segment])
            assert np.array_equal(values, alone)


def _search(solver, f, a, b, xtol):
    # (root, or None where the solver raises; the points it evaluated)
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    try:
        return solver(traced, a, b, xtol=xtol), points
    except (ValueError, RuntimeError, NumericalError):
        return None, points


class TestBrentProperties:
    @PROPERTY
    @given(st.sampled_from(sorted(ROOT_FAMILY)), st.floats(-10.0, 0.0),
           st.floats(0.01, 10.0),
           st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.25)),
           st.floats(-3.0, 3.0), XTOL, st.booleans())
    def test_matches_brentq(self, family, a, b, at, log_scale, xtol, flip):
        # _brent evaluates the points of scipy's brentq, so it finds its
        # root bit for bit, and raises where brentq does: a root outside
        # the bracket (at > 1) leaves both ends of one sign
        f = ROOT_FAMILY[family](a + at * (b - a), 10.0 ** log_scale)
        ends = (b, a) if flip else (a, b)
        ref, ref_points = _search(brentq, f, *ends, xtol)
        got, points = _search(_brent, f, *ends, xtol)
        assert points == ref_points
        assert repr(got) == repr(ref)

    @PROPERTY
    @given(st.floats(0.8, 1.25), st.sampled_from((5, 22, 63, 252, 365)),
           st.floats(0.05, 0.8), st.sampled_from(("call", "put")))
    def test_implied_vol_matches_brentq(self, m, tau, vol, kind):
        # implied_vol's search, run by brentq, gives the same bits
        r = 1e-4
        price = bs_price(1.0, m, r, vol / math.sqrt(252.0), tau, kind)
        try:
            got = implied_vol(price, 1.0, m, r, tau, kind)
        except InversionDomainError:
            return      # rounded onto a no-arbitrage bound

        def f(sig):
            return bs_price(1.0, m, r, sig, tau, kind) - price

        hi = 1.0 / math.sqrt(tau)
        while f(hi) < 0.0:
            hi *= 2.0
        assert repr(got) == repr(brentq(f, 1e-12, hi, xtol=1e-30))

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericalError, match="share a sign"):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=3e-12)


def test_failing_property_fails_alone(tmp_path):
    # under the suite's warning filters a falsified @given test is one
    # failure: hypothesis's report must not raise an INTERNALERROR that
    # ends the session before the remaining tests run
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_after():
            pass
        """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
