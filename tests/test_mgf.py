"""Backward MGF recursions, characteristic function, cumulants."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from lharg import (
    MarketState,
    ModelParams,
    ParabolicForm,
    RecursionDomainError,
    ValidationError,
    cumulants,
    expand_weights,
    mgf_p,
    mgf_q,
    parabolic_form,
    simulate_paths,
    state_from_series,
    stationary_state,
    theta_noncentrality,
)
from lharg import mgf
from lharg.mgf import _guarded, log_mgf, raw_cumulants
from lharg.model import _measure_form, risk_neutral_parabolic
from lharg.pricing import COS_TERMS, _cos_grid, _truncation, model_atm_iv

from conftest import random_state
from oracles import moment_cumulants, risk_neutral_map, shift_and_add

HORIZONS = (1, 5, 22, 63, 126, 252)


def _coefficients(p, weights, z, horizon):
    """(A, B, C) of z after `horizon` days: the kernel loop `mgf._steps`
    run on z as one segment, raising its domain error, with the rate's
    z*r*T of p added to A as `mgf._log_mgf_segments` adds it."""
    (_, (a, b, c)), = mgf._steps(p, weights, z, [(z.shape[0], horizon)])
    return a + z * (p.r * horizon), b, c


def _one_step(z, theta=1e-5, delta=1.5, lam=0.0):
    """One kernel step under P on a HARG whose only loading is beta_d = 1.

    From the terminal zeros, X = lam*z + z^2/2, B_1 = v(X) and
    A = -delta * w(X) (r = d = 0), with the gamma transforms
    v(x) = theta*x / (1 - theta*x) and w(x) = log(1 - theta*x).
    """
    p = ParabolicForm(theta=theta, delta=delta, d=0.0, beta_d=1.0,
                      beta_w=0.0, beta_m=0.0, alpha_d=0.0, alpha_w=0.0,
                      alpha_m=0.0, gamma_lev=0.0, lam=lam, r=0.0)
    a, b, _ = _coefficients(p, expand_weights(p), np.atleast_1d(z), 1)
    return b[0, 0], -a[0] / delta


class TestTransforms:
    def test_zero(self):
        v, w = _one_step(0.0)
        assert v == 0.0
        assert w == 0.0

    def test_half_pole(self):
        # theta*X = 1/2 gives v = (1/2)/(1/2) = 1
        v, _ = _one_step(np.sqrt(1e5), theta=1e-5)
        assert abs(v - 1.0) < 1e-12

    def test_pole_raises(self):
        # past the pole theta*X = 1 the step leaves the log's domain
        with pytest.raises(RecursionDomainError) as err:
            _one_step(np.sqrt(2.5e5), theta=1e-5)
        assert err.value.step == 1

    def test_guard_rejects_zero_and_nan(self, zmlharg):
        # one bad real part among good ones, in real and complex arrays;
        # NaN is outside the half-plane, as is a zero real part
        for bad in (0.0, np.nan):
            for values in (np.array([1.0, bad, 2.0]),
                           np.array([1.0 + 1.0j, complex(bad, 3.0), -2.0j])):
                with pytest.raises(RecursionDomainError,
                                   match="step 7: 1 - 2.C_1 left") as err:
                    _guarded(values, 7, "1 - 2*C_1")
                assert err.value.step == 7
        _guarded(np.array([1e-300, 2.0]), 7, "1 - 2*C_1")
        _guarded(np.array([1e-300 - 5.0j]), 7, "1 - 2*C_1")
        # a NaN z poisons X on the first day, real or complex
        for z in (np.array([0.1, np.nan]), np.array([0.1j, complex(np.nan)])):
            with pytest.raises(RecursionDomainError,
                               match="1 - theta.X left") as err:
                mgf_p(zmlharg, stationary_state(zmlharg), z, 22)
            assert err.value.step == 1

    def test_w_derivative_finite_difference(self):
        # dw/dz = -theta X'(z) / (1 - theta X) with X' = lam + z, at random
        # complex points: the step takes the principal branch of the log
        rng = np.random.default_rng(17)
        theta, lam = 1.1e-5, 2.0
        checked = 0
        while checked < 20:
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            one_minus = 1.0 - theta * (lam * z + 0.5 * z * z)
            if one_minus.real < 0.3:
                continue
            h = 1e-4 * max(abs(z), 1.0)
            fd = (_one_step(z + h, theta, lam=lam)[1]
                  - _one_step(z - h, theta, lam=lam)[1]) / (2.0 * h)
            exact = -theta * (lam + z) / one_minus
            assert abs(fd - exact) < 1e-8 * abs(exact) + 1e-16
            checked += 1


class TestStepP:
    """The kernel's backward step under P: horizon 1 is one step from the
    terminal zeros, horizon 2 one more."""

    def test_zero_argument_stays_zero(self, zmlharg):
        params = zmlharg.__class__(**{**zmlharg.__dict__, "r": 0.0})
        p = parabolic_form(params)
        a, b, c = _coefficients(p, expand_weights(p), np.zeros(1), 1)
        assert np.max(np.abs(a)) == 0.0
        assert np.max(np.abs(b)) == 0.0
        assert np.max(np.abs(c)) == 0.0

    def test_shift_structure(self, plharg):
        p = parabolic_form(plharg)
        weights = expand_weights(p)
        z = np.array([0.7])
        _, b1, c1 = _coefficients(p, weights, z, 1)
        _, b2, _ = _coefficients(p, weights, z, 2)
        b1, c1, b2 = b1[0], c1[0], b2[0]
        g = p.gamma_lev
        den = 1.0 - 2.0 * c1[0]
        x = 0.7 * p.lam + b1[0] \
            + (0.5 * 0.49 + g * g * c1[0] - 2.0 * c1[0] * g * 0.7) / den
        vx = p.theta * x / (1.0 - p.theta * x)
        # B_i picks up the shifted next coefficient plus v(X)*beta_i
        for i in range(21):
            assert abs(b2[i] - (b1[i + 1] + vx * weights[0, i])) < 1e-15
        assert abs(b2[21] - vx * weights[0, 21]) < 1e-18

    def test_harg_c_identically_zero(self, harg):
        p = parabolic_form(harg)
        _, _, c = _coefficients(p, expand_weights(p), np.array([1.3]), 30)
        assert np.max(np.abs(c)) == 0.0

    def test_one_step_matches_mc(self, zmlharg):
        # one-day conditional expectation by direct Monte Carlo over the
        # simulator's day-1 returns, against the single-step
        # exponential-affine form
        st = stationary_state(zmlharg)
        n = 10**6
        y = simulate_paths(zmlharg, st, 1, n, seed=101).y_paths[:, 0]
        for z in (-1.5, 2.0):
            samples = np.exp(z * y)
            est, se = samples.mean(), samples.std() / np.sqrt(n)
            analytic = float(np.real(mgf_p(zmlharg, st, z, 1)))
            assert abs(analytic - est) < 3.0 * se


class TestMgfP:
    def test_normalization(self, all_variants):
        for params in all_variants:
            st = stationary_state(params)
            for horizon in HORIZONS:
                val = mgf_p(params, st, 0.0, horizon)
                assert abs(val - 1.0) <= 1e-12

    def test_conjugate_symmetry(self, zmlharg):
        st = stationary_state(zmlharg)
        rng = np.random.default_rng(23)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-15, 15))
            a = mgf_p(zmlharg, st, z, 63)
            b = mgf_p(zmlharg, st, np.conj(z), 63)
            assert abs(np.conj(a) - b) <= 1e-12 * abs(a)

    def test_harg_invariant_to_gamma(self, harg):
        st = stationary_state(harg)
        other = ModelParams(**{**harg.__dict__, "gamma_lev": 500.0})
        for z in (0.5, 2.0, 1j * 10.0):
            a = mgf_p(harg, st, z, 126)
            b = mgf_p(other, st, z, 126)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_real_argument_stays_real_dtype(self, plharg):
        g = log_mgf(plharg, stationary_state(plharg), np.array([0.1, -0.1]), 22)
        assert g.dtype == np.float64

    def test_tower_consistency(self, plharg):
        # E over a simulated 22-day prefix of the remaining-horizon MGF
        # reproduces the full-horizon MGF within Monte Carlo error
        split, total = 22, 44
        z = 1.2
        st = stationary_state(plharg)
        paths = simulate_paths(plharg, st, split, 20000, seed=77)
        y_prefix = paths.y_paths.sum(axis=1)
        pform = parabolic_form(plharg)
        eps = (paths.y_paths - pform.r - pform.lam * paths.rv_paths) \
            / np.sqrt(paths.rv_paths)
        lev = (eps - pform.gamma_lev * np.sqrt(paths.rv_paths)) ** 2
        a, b, c = _coefficients(pform, expand_weights(pform),
                                np.array([z], dtype=complex), total - split)
        # per-path state: most recent simulated day first
        rv_lags = paths.rv_paths[:, ::-1][:, :22]
        lev_lags = lev[:, ::-1][:, :22]
        tail = np.exp(a[0] + rv_lags @ b[0] + lev_lags @ c[0]).real
        samples = np.exp(z * y_prefix) * tail
        est = samples.mean()
        se = samples.std() / np.sqrt(len(samples))
        direct = float(np.real(mgf_p(plharg, st, z, total)))
        assert abs(est - direct) < 3.0 * se


class TestMgfQ:
    def test_martingale_identity(self, all_variants):
        for params in all_variants:
            st = stationary_state(params)
            for horizon in HORIZONS:
                val = mgf_q(params, st, -2500.0, 1.0, horizon)
                bench = np.exp(params.r * horizon)
                assert abs(val - bench) <= 1e-10 * bench

    def test_normalization(self, zmlharg):
        st = stationary_state(zmlharg)
        for horizon in HORIZONS:
            assert abs(mgf_q(zmlharg, st, -3375.0, 0.0, horizon) - 1.0) <= 1e-12

    def test_equals_mapped_physical_recursion(self, all_variants):
        # mgf_q against the two independent routes to Q of `oracles`: the
        # tilted recursion on the physical parameters, and the physical
        # recursion on the natively mapped ones
        rng = np.random.default_rng(31)
        for params in all_variants:
            nu1 = float(rng.uniform(-4000.0, -100.0))
            st = stationary_state(params)
            p = parabolic_form(params)
            q_params = risk_neutral_map(params, nu1)
            for _ in range(15):
                z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-20, 20))
                horizon = int(rng.integers(1, 253))
                direct = mgf_q(params, st, nu1, z, horizon)
                a, b, c = shift_and_add(p, expand_weights(p), np.array([z]),
                                        horizon, nu1)
                tilted = np.exp(a[0] + b[0] @ st.rv + c[0] @ st.lev)
                assert abs(direct - tilted) <= 1e-12 * abs(direct)
                # one state serves both measures
                mapped = mgf_p(q_params, st, z, horizon)
                assert abs(direct - mapped) <= 1e-12 * abs(direct)

    def test_coefficients_exact_at_zero_and_one(self, all_variants,
                                                monkeypatch):
        # under Q the step's X is exactly 0 at z = 0 and at z = 1, so the
        # loop's coefficients are (0, 0, 0) at both: the rate's z*r*T joins
        # A after the loop; a tilt cancelling X against Y at the scale of
        # |nu1| leaves rounding in B
        seen = []
        original = mgf._steps

        def spy(*args):
            for k, out in original(*args):
                seen.append(out)
                yield k, out

        monkeypatch.setattr(mgf, "_steps", spy)
        for params in all_variants:
            for nu1 in (-100.0, -3000.0, -4000.0):
                for horizon in (22, 252):
                    mgf_q(params, stationary_state(params), nu1,
                          np.array([0.0, 1.0]), horizon)
                    a, b, c = seen.pop()
                    assert np.abs(a).max() <= 1e-15
                    assert np.abs(b).max() <= 1e-15
                    assert np.abs(c).max() <= 1e-15


def _one_day_cumulants(p, nc):
    """k1..k4 of one day's return from its closed-form log-MGF

        log E e^{zy} = z r - delta log(1 - theta w) + nc theta w / (1 - theta w),
        w = lam z + z^2/2,

    on parabolic parameters p with noncentrality nc, expanded to z^4."""
    u = Polynomial([0.0, p.lam, 0.5]) * p.theta
    series = Polynomial([0.0, p.r]) + sum(
        (p.delta / k + nc) * u**k for k in range(1, 5))
    return series.coef[1:5] * np.array([1.0, 2.0, 6.0, 24.0])


def _circle_cumulants(params, state, horizon, nu1, rho, points=64):
    """k1..k4 from the trapezoidal Cauchy integral of the log-MGF on the
    full circle |z| = rho, by a plain forward FFT of `points` values."""
    z = rho * np.exp(2j * np.pi * np.arange(points) / points)
    coef = np.fft.fft(log_mgf(params, state, z, horizon, nu1=nu1)) / points
    n = np.arange(1, 5)
    return coef[n].real * np.array([1.0, 2.0, 6.0, 24.0]) / rho ** n


class TestCumulants:
    def test_calm_states_against_wide_circle(self, zmlharg):
        # on calm ZM-LHARG states (rv lags near 1e-6) the variance comes
        # mostly from delta and the leverage lags, far past T * mean(rv);
        # the 16-point contour must still match a 64-point circle at a
        # quarter of a standard deviation, in units of sd^n
        rng = np.random.default_rng(29)
        states = [random_state(rng, zmlharg.gamma_lev, scale)
                  for scale in (1e-6,) * 6 + (1.1e-4,) * 3]
        worst = 0.0
        for st in states:
            for nu1 in (None, -3000.0):
                for horizon in (1, 5, 14, 63, 252):
                    k = raw_cumulants(zmlharg, st, horizon, nu1=nu1)
                    ref = _circle_cumulants(zmlharg, st, horizon, nu1,
                                            0.25 / np.sqrt(k[1]))
                    sd_n = np.sqrt(ref[1]) ** np.arange(1, 5)
                    worst = max(worst, float(np.max(np.abs(k - ref) / sd_n)))
        assert worst <= 1e-8

    def test_one_day_variance_analytic(self, all_variants):
        # k1..k4 at T = 1 against the closed form, under P and under Q
        # (whose law is the physical one on the mapped parameters)
        rng = np.random.default_rng(23)
        for params in all_variants:
            drawn = random_state(rng, params.gamma_lev)
            for st in (stationary_state(params), drawn):
                for nu1 in (None, -3000.0):
                    law = params if nu1 is None \
                        else risk_neutral_map(params, nu1)
                    p = parabolic_form(law)
                    nc = theta_noncentrality(p, st)
                    exact = _one_day_cumulants(p, nc)
                    k = raw_cumulants(params, st, 1, nu1=nu1)
                    rel = np.abs(k - exact) / np.abs(exact)
                    assert rel[:2].max() <= 1e-11
                    assert rel[2:].max() <= 1e-8

    def test_finite_and_positive_variance(self, all_variants):
        for params in all_variants:
            for horizon in (5, 22, 252):
                c = cumulants(params, stationary_state(params), horizon)
                assert np.isfinite(c).all()
                assert c.variance > 0.0

    def test_zero_mean_q_shape(self, zmlharg):
        c = cumulants(zmlharg, stationary_state(zmlharg), 22, nu1=-3375.0)
        assert c.skewness < 0.0
        assert c.excess_kurtosis > 0.0

    def test_mean_matches_simulated_drift(self, plharg):
        # kappa1 at T=1 equals r + lam * E[RV_{t+1}|state] exactly
        st = stationary_state(plharg)
        p = parabolic_form(plharg)
        nc = theta_noncentrality(p, st)
        exact = p.r + p.lam * p.theta * (p.delta + nc)
        k = raw_cumulants(plharg, st, 1)
        assert abs(k[0] - exact) <= 1e-10 * max(abs(exact), 1e-6)


class TestExactMoments:
    def test_first_two_cumulants(self, all_variants):
        # kappa1 and kappa2 against `oracles.moment_cumulants`, which
        # propagates the state's first two moments exactly and shares no
        # step formula with the recursion; Q is the physical law on the
        # parameters of the package's map
        horizons = (1, 10, 22, 252, 365)
        rng = np.random.default_rng(8)
        for params in all_variants:
            drawn = random_state(rng, params.gamma_lev)
            for nu1 in (None, -3000.0):
                p = parabolic_form(params) if nu1 is None \
                    else risk_neutral_parabolic(parabolic_form(params), nu1)
                for st in (stationary_state(params), drawn):
                    exact = moment_cumulants(p, st, horizons)
                    for horizon in horizons:
                        k = raw_cumulants(params, st, horizon, nu1=nu1)
                        rel = np.abs(k[:2] - exact[horizon]) \
                            / np.abs(exact[horizon])
                        assert rel.max() <= 1e-11, (params.variant, nu1,
                                                    horizon)


class TestStateHandling:
    def test_conditional_state_changes_value(self, zmlharg):
        rng = np.random.default_rng(41)
        rv = rng.gamma(2.0, 1e-4, 60)
        eps = rng.standard_normal(60)
        y = zmlharg.r + zmlharg.lam * rv + np.sqrt(rv) * eps
        st = state_from_series(zmlharg, rv, y)
        a = mgf_p(zmlharg, st, 1.0, 22)
        b = mgf_p(zmlharg, stationary_state(zmlharg), 1.0, 22)
        assert a != b

    def test_vectorized_matches_scalar(self, plharg):
        st = stationary_state(plharg)
        zs = np.array([0.3 + 1j, -0.7, 1j * 12.0])
        batch = mgf_p(plharg, st, zs, 63)
        for i, z in enumerate(zs):
            assert abs(batch[i] - mgf_p(plharg, st, z, 63)) < 1e-14 * abs(batch[i])


class TestVarianceGammaOracle:
    """Zero loadings make RV iid Gamma(delta, theta): the T-day return is
    variance-gamma with the closed-form MGF
    e^{zrT} (1 - theta (lam z + z^2/2))^{-delta T} under P, and the same
    form with theta/c and lam = -1/2 under the variance premium nu1."""

    NU1 = -2500.0
    ZS = np.array([-2.0, -0.5, 0.7, 2.0, 0.5 + 3j, -1.0 - 8j, 25j, -40j])

    @pytest.fixture(scope="class")
    def vg(self):
        return ModelParams(
            variant="HARG", theta=1.149e-5, delta=1.358, d=0.0,
            beta_d=0.0, beta_w=0.0, beta_m=0.0,
            alpha_d=0.0, alpha_w=0.0, alpha_m=0.0,
            gamma_lev=0.0, lam=2.005, r=1e-4,
        )

    def _q_law(self, vg):
        c = 1.0 - vg.theta * (-0.5 * vg.lam**2 - self.NU1 + 0.125)
        return vg.theta / c, -0.5

    @staticmethod
    def _log_oracle(z, horizon, r, theta, delta, lam):
        return z * r * horizon \
            - delta * horizon * np.log(1.0 - theta * (lam * z + 0.5 * z * z))

    def test_mgf_p(self, vg):
        st = stationary_state(vg)
        for horizon in (1, 22, 252):
            exact = np.exp(self._log_oracle(self.ZS, horizon, vg.r, vg.theta,
                                            vg.delta, vg.lam))
            got = mgf_p(vg, st, self.ZS, horizon)
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12

    def test_mgf_q(self, vg):
        st = stationary_state(vg)
        theta_q, lam_q = self._q_law(vg)
        for horizon in (1, 22, 252):
            exact = np.exp(self._log_oracle(self.ZS, horizon, vg.r, theta_q,
                                            vg.delta, lam_q))
            got = mgf_q(vg, st, self.NU1, self.ZS, horizon)
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12
            logs = log_mgf(vg, st, self.ZS, horizon, nu1=self.NU1)
            assert np.max(np.abs(np.exp(logs) - exact) / np.abs(exact)) <= 1e-12

    def test_raw_cumulants(self, vg):
        st = stationary_state(vg)
        theta_q, lam_q = self._q_law(vg)
        for given, theta, lam in ((None, vg.theta, vg.lam),
                                  (self.NU1, theta_q, lam_q)):
            for horizon in (1, 22, 252):
                k = raw_cumulants(vg, st, horizon, nu1=given)
                exact = horizon * _one_day_cumulants(
                    replace(vg, theta=theta, lam=lam), 0.0)
                rel = np.abs(k - exact) / np.abs(exact)
                assert rel[:2].max() <= 1e-11
                assert rel[2:].max() <= 1e-6


def _no_pass(*args):
    raise AssertionError("a pass of the recursion ran")


def _recorded_passes(monkeypatch):
    """The (size, horizon) segments of every pass of `mgf._steps` from now
    on, one list per pass."""
    passes = []
    original = mgf._steps

    def spy(p, weights, z, segments):
        passes.append(list(segments))
        return original(p, weights, z, segments)

    monkeypatch.setattr(mgf, "_steps", spy)
    return passes


def _domain_error(recursion, *args):
    try:
        recursion(*args)
    except RecursionDomainError as exc:
        return exc
    return None


class TestAgainstShiftAndAdd:
    """`mgf._steps` keeps a ring of the last 22 increments; the plain
    shift-and-add loop of `oracles`, run untilted, is its reference on the
    physical form and on the risk-neutral one that the package maps to, at
    horizons on both sides of the ring's wrap."""

    HORIZONS = (1, 2, 21, 22, 23, 44, 252)
    NU1 = -3000.0

    def _cases(self, all_variants):
        for params in all_variants:
            for nu1 in (None, self.NU1):
                p = _measure_form(params, nu1)
                yield params, p, expand_weights(p), nu1

    def test_coefficients_match(self, all_variants):
        # real z, and the COS grid u_k = k*pi/(b-a), k < COS_TERMS, as i*u
        real = np.array([-2.0, -0.5, 0.0, 0.7, 2.0])
        for params, p, weights, nu1 in self._cases(all_variants):
            for horizon in self.HORIZONS:
                a, b = _truncation(raw_cumulants(
                    params, stationary_state(params), horizon, nu1=nu1))
                u = _cos_grid(a, b, COS_TERMS)
                for z in (real, 1j * u):
                    want = shift_and_add(p, weights, z, horizon)
                    got = _coefficients(p, weights, z, horizon)
                    for w, g in zip(want, got):
                        assert g.shape == w.shape
                        bound = np.where(np.abs(w) < 1.0, 1e-13,
                                         1e-12 * np.abs(w))
                        assert np.all(np.abs(g - w) <= bound)

    def test_pole_step_matches(self, all_variants):
        # large real z cross a guard at steps from 23 up to about 120
        late = 0
        for _, p, weights, _ in self._cases(all_variants):
            for z in np.linspace(30.0, 130.0, 11):
                z = np.array([z])
                want = _domain_error(shift_and_add, p, weights, z, 252)
                got = _domain_error(_coefficients, p, weights, z, 252)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.step == want.step
                    assert str(got) == str(want)
                    late += want.step > 22
        assert late >= 20


class TestHorizon:
    def test_bad_horizon_rejected(self, plharg):
        # every entry point checks the horizon before any arithmetic on it
        st = stationary_state(plharg)
        calls = (lambda h: mgf_p(plharg, st, 0.5, h),
                 lambda h: cumulants(plharg, st, h),
                 lambda h: raw_cumulants(plharg, st, h, nu1=-3000.0),
                 lambda h: model_atm_iv(plharg, -3000.0, h, st))
        for call in calls:
            for horizon in (0, -3, 2.5, None, "22"):
                with pytest.raises(ValidationError, match="horizon"):
                    call(horizon)

    def test_numpy_integer_accepted(self, plharg):
        assert mgf_p(plharg, stationary_state(plharg), 0.5, np.int64(22)) \
            == mgf_p(plharg, stationary_state(plharg), 0.5, 22)


class TestSharedPass:
    """`_log_mgf_segments` runs many (z, horizon, rate, state) segments
    through shared backward passes; each segment's values are bit for bit
    those of a call on that segment alone, and a failure stays its own."""

    @staticmethod
    def _alone(params, nu1, segment):
        out, = mgf._log_mgf_segments(params, nu1, [segment])
        return out

    def test_equals_one_recursion_per_segment(self, zmlharg):
        # repeated and distinct horizons, contour-sized and grid-sized
        # segments, three rates, two states, real and complex arguments;
        # the 1100-point grid runs in a pass of its own
        rng = np.random.default_rng(5)
        st = stationary_state(zmlharg)
        states = (st, MarketState(rv=0.5 * st.rv, lev=st.lev))
        layout = ((9, 63), (512, 14), (9, 252), (512, 63), (1100, 30),
                  (9, 14), (512, 252), (3, 1))
        for kind in (float, complex):
            segments = []
            for i, (size, horizon) in enumerate(layout):
                z = rng.uniform(-2.0, 2.0, size).astype(kind)
                if kind is complex:
                    z += 1j * rng.uniform(-40.0, 40.0, size)
                segments.append((z, horizon, (0.0, 1e-4, 3e-4)[i % 3],
                                 states[i % 2]))
            for nu1 in (None, -3000.0):
                got = mgf._log_mgf_segments(zmlharg, nu1, segments)
                for segment, values in zip(segments, got):
                    want = self._alone(zmlharg, nu1, segment)
                    assert values.dtype == want.dtype
                    assert np.array_equal(values, want)

    def test_failures_stay_per_segment(self, zmlharg):
        # a large real z crosses the pole at a step of its own: wherever
        # its segment sits in a batch, the batch raises the error that
        # segment raises alone; without it the batch runs clean
        st = stationary_state(zmlharg)
        grid = 1j * np.linspace(0.0, 60.0, 512)
        clean = [(grid, 126, 1e-4, st), (grid, 63, 2e-4, st),
                 (grid[:9], 252, 1e-4, st)]
        poisoned = {
            "step 34: 1 - theta*X left the right half-plane":
                (np.r_[grid[:100], 100.0, grid[100:]], 126, 1e-4, st),
            "step 11: 1 - 2*C_1 left the right half-plane":
                (np.r_[grid[:4], 150.0, grid[4:8]], 22, 1e-4, st)}
        for message, bad in poisoned.items():
            with pytest.raises(RecursionDomainError) as alone:
                self._alone(zmlharg, -3000.0, bad)
            assert str(alone.value) == message
            for at in range(len(clean) + 1):
                with pytest.raises(RecursionDomainError) as batch:
                    mgf._log_mgf_segments(zmlharg, -3000.0,
                                          clean[:at] + [bad] + clean[at:])
                assert str(batch.value) == message
        got = mgf._log_mgf_segments(zmlharg, -3000.0, clean)
        for segment, values in zip(clean, got):
            assert np.array_equal(values,
                                  self._alone(zmlharg, -3000.0, segment))

    def test_bad_horizon_fails_the_batch_first(self, zmlharg, monkeypatch):
        # a bad horizon anywhere in the batch raises before any pass runs,
        # in the log-MGF and in the cumulant batch
        monkeypatch.setattr(mgf, "_steps", _no_pass)
        st = stationary_state(zmlharg)
        for horizon in (0, 2.5, "22", None):
            with pytest.raises(ValidationError, match="horizon"):
                mgf._log_mgf_segments(zmlharg, -3000.0, [
                    (np.array([0.5j]), h, 1e-4, st) for h in (22, horizon)])
            with pytest.raises(ValidationError, match="horizon"):
                mgf._cumulant_segments(zmlharg, -3000.0, [
                    (h, 1e-4, st) for h in (22, horizon)])

    def test_clean_batch_one_pass_per_chunk(self, zmlharg, monkeypatch):
        # sorted longest first, the segments fill chunks of up to
        # _PASS_POINTS points; when no point fails, each chunk is one pass
        assert mgf._PASS_POINTS == 1024
        passes = _recorded_passes(monkeypatch)
        st = stationary_state(zmlharg)
        grid = 1j * np.linspace(0.0, 60.0, 512)
        mgf._log_mgf_segments(zmlharg, -3000.0, [
            (grid, 126, 1e-4, st), (grid, 63, 1e-4, st), (grid, 22, 2e-4, st),
            (grid[:9], 252, 1e-4, st), (grid[:9], 14, 1e-4, st)])
        assert passes == [[(9, 252), (512, 126)], [(512, 63), (512, 22)],
                          [(9, 14)]]

    def test_empty_z(self, zmlharg):
        # no points is no work, not an error, alone or beside others
        st = stationary_state(zmlharg)
        empty = np.array([], dtype=complex)
        assert mgf_p(zmlharg, st, empty, 22).shape == (0,)
        assert mgf_q(zmlharg, st, -3000.0, empty, 22).shape == (0,)
        got = mgf._log_mgf_segments(zmlharg, -3000.0, [
            (empty, 63, 1e-4, st), (np.array([0.5j]), 22, 1e-4, st),
            (empty, 22, 1e-4, st)])
        assert [g.shape for g in got] == [(0,), (1,), (0,)]


class TestCumulantSegments:
    """`_cumulant_segments` runs many (horizon, rate, state) contours
    through one shared pass; each segment's kappa_1..kappa_4 are bit for bit
    those of `raw_cumulants` alone at that rate, and a failure stays its
    own."""

    @staticmethod
    def _segments(params):
        st = stationary_state(params)
        states = (st, MarketState(rv=0.5 * st.rv, lev=st.lev))
        return [(horizon, (0.0, 1e-4, 3e-4)[i % 3], states[i % 2])
                for i, horizon in enumerate((14, 30, 63, 126, 252, 1, 63))]

    def test_equals_raw_cumulants_alone(self, all_variants, monkeypatch):
        passes = _recorded_passes(monkeypatch)
        for params in all_variants:
            segments = self._segments(params)
            for nu1 in (None, -3000.0):
                got = mgf._cumulant_segments(params, nu1, segments)
                assert len(passes) == 1
                for (horizon, rate, state), kappas in zip(segments, got):
                    want = raw_cumulants(replace(params, r=rate), state,
                                         horizon, nu1=nu1)
                    assert np.array_equal(kappas, want)
                passes.clear()

    def test_failures_stay_per_segment(self, zmlharg):
        # at theta*y_star = 0.35 the longer contours leave the domain: a
        # batch that holds one of them raises the error raw_cumulants
        # raises on it alone, and a batch of the others stays bit for bit
        nu1 = -0.35 / zmlharg.theta
        clean, failing = [], []
        for horizon, rate, state in self._segments(zmlharg):
            params = replace(zmlharg, r=rate)
            try:
                want = raw_cumulants(params, state, horizon, nu1=nu1)
            except RecursionDomainError as exc:
                failing.append(((horizon, rate, state), str(exc)))
                continue
            clean.append(((horizon, rate, state), want))
        assert clean and failing
        got = mgf._cumulant_segments(zmlharg, nu1, [seg for seg, _ in clean])
        for (_, want), kappas in zip(clean, got):
            assert np.array_equal(kappas, want)
        for segment, message in failing:
            with pytest.raises(RecursionDomainError) as batch:
                mgf._cumulant_segments(zmlharg, nu1,
                                       [seg for seg, _ in clean] + [segment])
            assert str(batch.value) == message


class TestBlockedLogs:
    """`mgf._steps` checks the domain and takes its logs once per block of
    `mgf._BLOCK` days.  A failure is still placed on its own day and
    argument, a failing point's later days leave no floating-point state or
    warning behind, and the real-arithmetic logs match the principal log
    near |x| = 1."""

    NU1 = -3000.0

    @staticmethod
    def _failing_at(p, weights, day):
        """A real z whose `shift_and_add` recursion on p leaves the domain
        on `day` exactly, by bisection between a z that runs `day` days
        clean and one that fails within `day` - 1."""
        lo, hi = 1.0, 2000.0
        assert _domain_error(shift_and_add, p, weights,
                             np.array([hi]), 1) is not None
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            err = _domain_error(shift_and_add, p, weights,
                                np.array([mid]), day)
            if err is None:
                lo = mid
            elif err.step < day:
                hi = mid
            else:
                return mid, err
        raise AssertionError(f"no real z leaves the domain on day {day}")

    def test_failure_day_across_block_edges(self, zmlharg):
        # a point leaving the domain on either side of the first block
        # edges, under P and Q, alone and beside shorter segments that end
        # mid-block, before or after that day: the error of the oracle
        K = mgf._BLOCK
        st = stationary_state(zmlharg)
        grid = 1j * np.linspace(0.0, 30.0, 7)
        horizon = 3 * K + 1
        for nu1 in (None, self.NU1):
            p = _measure_form(zmlharg, nu1)
            weights = expand_weights(p)
            for day in sorted({1, K - 1, K, K + 1, 2 * K + 1}):
                z, want = self._failing_at(p, weights, day)
                assert want.step == day
                bad = (np.r_[grid[:3], z, grid[3:]], horizon, 1e-4, st)
                # the failing segment itself ending mid-block, on or after
                # its failing day, beside a longer clean one
                ends = day + (day % K == 0)
                batches = [[bad]] + [
                    [bad, (grid, short, 2e-4, st)]
                    for short in (K // 2 + 1, K + K // 2 + 1, 2 * K + 1)
                ] + [[(grid, horizon, 2e-4, st), (bad[0], ends, 1e-4, st)]]
                for batch in batches:
                    assert len(batch) == 1 or batch[1][1] % K
                    with pytest.raises(RecursionDomainError) as got:
                        mgf._log_mgf_segments(zmlharg, nu1, batch)
                    assert got.value.step == want.step
                    assert str(got.value) == str(want)

    def test_caller_error_state_between_yields(self, zmlharg):
        # the pass's np.errstate stays inside it: at every yield, and after
        # the last, the consumer sees the error state it set
        p = _measure_form(zmlharg, self.NU1)
        weights = expand_weights(p)
        z = np.r_[1j * np.linspace(0.0, 60.0, 20), 0.3, -0.2]
        segments = [(8, 2 * mgf._BLOCK + 3), (8, mgf._BLOCK + 1),
                    (3, mgf._BLOCK), (3, 1)]
        caller = dict(divide="raise", over="warn", under="print",
                      invalid="call")
        with np.errstate(**caller, call=lambda *args: None):
            seen = [np.geterr() for _ in mgf._steps(p, weights, z, segments)]
            seen.append(np.geterr())
        assert len(seen) == len(segments) + 1
        assert all(state == caller for state in seen)

    def test_zero_log_argument_raises_domain_error(self):
        # theta*X = 1/2 on day 1 gives v = 1, so C_1 = alpha_d * v = 1/2 on
        # day 2 and 1 - 2*C_1 is exactly 0: the check raises, and neither
        # the division by it nor the block's later days warns
        p = ParabolicForm(theta=2.0 ** -16, delta=1.5, d=0.1, beta_d=1.0,
                          beta_w=0.0, beta_m=0.0, alpha_d=0.5, alpha_w=0.0,
                          alpha_m=0.0, gamma_lev=0.0, lam=0.0, r=0.0)
        z = np.array([0.5, 2.0 ** 8, 1.0])
        want = _domain_error(shift_and_add, p, expand_weights(p), z, 30)
        assert (want.step, str(want)) == (
            2, "step 2: 1 - 2*C_1 left the right half-plane")
        state = MarketState(rv=np.full(22, 1e-4), lev=np.zeros(22))
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            for args in ((z, 30), (z.astype(complex), 30)):
                with pytest.raises(RecursionDomainError) as got:
                    mgf_p(p, state, *args)
                assert (got.value.step, str(got.value)) \
                    == (want.step, str(want))

    def test_real_arithmetic_log_against_mpmath(self):
        # x = 1 and its neighbours, the unit circle at several arguments,
        # tiny imaginary parts and real parts down to 1e-3; then the blocks
        # left to the complex log, with a modulus far below 1 or one whose
        # square overflows: within 4 eps of the principal log
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 120
        eps = np.finfo(float).eps
        angles = np.array([1e-8, 0.1, 0.5, 1.0, 1.3, 1.55])
        near = np.r_[1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 2e-16,
                     1.0 - 1e-16, np.exp(1j * angles),
                     (1.0 + 1e-12) * np.exp(1j * angles),
                     (1.0 - 1e-12) * np.exp(-1j * angles),
                     1.0 + 1e-300j, 1.0 - 1e-20j, 1.0 + 1e-9j, 0.8 + 1e-200j,
                     1e-3 + 1j * np.sqrt(1.0 - 1e-6), 1e-3 - 1.0j,
                     0.72 + 0.01j, 2.0 + 3.0j, 1e3 - 1e4j]
        small = np.array([1e-3 + 1e-3j, 1e-3, 0.5 + 1e-200j, 0.7 - 1e-9j])
        huge = np.array([1e200 + 1e200j, 2.0 - 1e170j, 1e-3 + 1e160j])
        assert (np.abs(near) > np.sqrt(0.5)).all()
        assert (np.abs(small) < np.sqrt(0.5)).all()
        for x in (near, small, huge):
            pairs = np.stack([x, x[::-1]], axis=1)
            args = pairs[:, :, None].copy()
            with np.errstate(over="ignore"):   # as `_steps` calls it
                mgf._checked_logs(args, 1)
            for got, xk in zip(args[..., 0].ravel(), pairs.ravel()):
                want = mpmath.log(mpmath.mpc(xk.real, xk.imag))
                err = abs(mpmath.mpc(got.real, got.imag) - want)
                assert err <= 4 * eps * max(1.0, float(abs(want))), (xk, err)
