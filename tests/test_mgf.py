"""Backward MGF recursions, characteristic function, cumulants."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from lharg import (
    MarketState,
    ModelParams,
    ParabolicForm,
    RecursionDomainError,
    RiskPremia,
    ValidationError,
    cumulants,
    expand_weights,
    leverage,
    mgf_p,
    mgf_q,
    parabolic_form,
    parabolic_state,
    risk_neutral_map,
    risk_neutral_state,
    sample_noncentral_gamma,
    simulate_paths,
    state_from_series,
    stationary_state,
    theta_noncentrality,
)
from lharg.mgf import _guarded, _recurse, log_mgf, raw_cumulants
from lharg.pricing import COS_TERMS, cos_interval

from conftest import random_state_arrays

HORIZONS = (1, 5, 22, 63, 126, 252)


def _one_step(z, theta=1e-5, delta=1.5, lam=0.0):
    """One kernel step under P on a HARG whose only loading is beta_d = 1.

    From the terminal zeros, X = lam*z + z^2/2, B_1 = v(X) and
    A = -delta * w(X) (r = d = 0), with the gamma transforms
    v(x) = theta*x / (1 - theta*x) and w(x) = log(1 - theta*x).
    """
    p = ParabolicForm(theta=theta, delta=delta, d=0.0, beta_d=1.0,
                      beta_w=0.0, beta_m=0.0, alpha_d=0.0, alpha_w=0.0,
                      alpha_m=0.0, gamma_lev=0.0, lam=lam, r=0.0)
    a, b, _ = _recurse(p, expand_weights(p), np.atleast_1d(z), 1)
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
                mgf_p(zmlharg, None, z, 22)
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
        a, b, c = _recurse(p, expand_weights(p), np.zeros(1), 1)
        assert np.max(np.abs(a)) == 0.0
        assert np.max(np.abs(b)) == 0.0
        assert np.max(np.abs(c)) == 0.0

    def test_shift_structure(self, plharg):
        p = parabolic_form(plharg)
        weights = expand_weights(p)
        z = np.array([0.7])
        _, b1, c1 = _recurse(p, weights, z, 1)
        _, b2, _ = _recurse(p, weights, z, 2)
        b1, c1, b2 = b1[0], c1[0], b2[0]
        g = p.gamma_lev
        den = 1.0 - 2.0 * c1[0]
        x = 0.7 * p.lam + b1[0] \
            + (0.5 * 0.49 + g * g * c1[0] - 2.0 * c1[0] * g * 0.7) / den
        vx = p.theta * x / (1.0 - p.theta * x)
        # B_i picks up the shifted next coefficient plus v(X)*beta_i
        for i in range(21):
            assert abs(b2[i] - (b1[i + 1] + vx * weights.beta[i])) < 1e-15
        assert abs(b2[21] - vx * weights.beta[21]) < 1e-18

    def test_harg_c_identically_zero(self, harg):
        p = parabolic_form(harg)
        _, _, c = _recurse(p, expand_weights(p), np.array([1.3]), 30)
        assert np.max(np.abs(c)) == 0.0

    def test_one_step_matches_mc(self, zmlharg):
        # one-day conditional expectation by direct Monte Carlo over the
        # pair (RV, eps), against the single-step exponential-affine form
        st = stationary_state(zmlharg)
        p = parabolic_form(zmlharg)
        sp = parabolic_state(zmlharg, st)
        nc = theta_noncentrality(p, expand_weights(p), sp)
        rng = np.random.default_rng(101)
        n = 10**6
        rv = sample_noncentral_gamma(p.delta, nc, p.theta, rng, size=n)
        eps = rng.standard_normal(n)
        for z in (-1.5, 2.0):
            y = p.r + p.lam * rv + np.sqrt(rv) * eps
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
        from lharg.mgf import _recurse
        a, b, c = _recurse(pform, expand_weights(pform),
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
            premia = RiskPremia.arbitrage_free(-2500.0, params.lam)
            for horizon in HORIZONS:
                val = mgf_q(params, st, premia, 1.0, horizon)
                bench = np.exp(params.r * horizon)
                assert abs(val - bench) <= 1e-10 * bench

    def test_normalization(self, zmlharg):
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        st = stationary_state(zmlharg)
        for horizon in HORIZONS:
            assert abs(mgf_q(zmlharg, st, premia, 0.0, horizon) - 1.0) <= 1e-12

    def test_equals_mapped_physical_recursion(self, all_variants):
        rng = np.random.default_rng(31)
        for params in all_variants:
            nu1 = float(rng.uniform(-4000.0, -100.0))
            premia = RiskPremia.arbitrage_free(nu1, params.lam)
            st = stationary_state(params)
            q_params = risk_neutral_map(params, nu1)
            q_state = risk_neutral_state(params, st)
            for _ in range(15):
                z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-20, 20))
                horizon = int(rng.integers(1, 253))
                direct = mgf_q(params, st, premia, z, horizon)
                mapped = mgf_p(q_params, q_state, z, horizon)
                assert abs(direct - mapped) <= 1e-12 * abs(direct)


def _one_day_cumulants(p, nc):
    """k1..k4 of one day's return from its closed-form log-MGF

        log E e^{zy} = z r - delta log(1 - theta w) + nc theta w / (1 - theta w),
        w = lam z + z^2/2,

    on parabolic parameters p with noncentrality nc, expanded to z^4."""
    u = Polynomial([0.0, p.lam, 0.5]) * p.theta
    series = Polynomial([0.0, p.r]) + sum(
        (p.delta / k + nc) * u**k for k in range(1, 5))
    return series.coef[1:5] * np.array([1.0, 2.0, 6.0, 24.0])


class TestCumulants:
    def test_one_day_variance_analytic(self, all_variants):
        # k1..k4 at T = 1 against the closed form, under P and under Q
        # (whose law is the physical one on the mapped parameters)
        rng = np.random.default_rng(23)
        for params in all_variants:
            rv, eps = random_state_arrays(rng)
            drawn = MarketState(rv=rv, lev=np.asarray(
                leverage(eps, rv, params.gamma_lev, params.variant)))
            for st in (stationary_state(params), drawn):
                for nu1 in (None, -3000.0):
                    if nu1 is None:
                        premia, law, law_state = None, params, st
                    else:
                        premia = RiskPremia.arbitrage_free(nu1, params.lam)
                        law = risk_neutral_map(params, nu1)
                        law_state = risk_neutral_state(params, st)
                    p = parabolic_form(law)
                    nc = theta_noncentrality(p, expand_weights(p),
                                             parabolic_state(law, law_state))
                    exact = _one_day_cumulants(p, nc)
                    k = raw_cumulants(params, st, 1, premia=premia)
                    rel = np.abs(k - exact) / np.abs(exact)
                    assert rel[:2].max() <= 1e-11
                    assert rel[2:].max() <= 1e-8

    def test_finite_and_positive_variance(self, all_variants):
        for params in all_variants:
            for horizon in (5, 22, 252):
                c = cumulants(params, None, horizon)
                assert np.isfinite(c).all()
                assert c.variance > 0.0

    def test_zero_mean_q_shape(self, zmlharg):
        premia = RiskPremia.arbitrage_free(-3375.0, zmlharg.lam)
        c = cumulants(zmlharg, None, 22, premia=premia)
        assert c.skewness < 0.0
        assert c.excess_kurtosis > 0.0

    def test_mean_matches_simulated_drift(self, plharg):
        # kappa1 at T=1 equals r + lam * E[RV_{t+1}|state] exactly
        st = stationary_state(plharg)
        p = parabolic_form(plharg)
        nc = theta_noncentrality(p, expand_weights(p), st)
        exact = p.r + p.lam * p.theta * (p.delta + nc)
        k = raw_cumulants(plharg, st, 1)
        assert abs(k[0] - exact) <= 1e-10 * max(abs(exact), 1e-6)


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
    form with theta/c and lam = -1/2 under arbitrage-free premia."""

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
        premia = RiskPremia.arbitrage_free(self.NU1, vg.lam)
        c = 1.0 - vg.theta * (-0.5 * vg.lam**2 - self.NU1 + 0.125)
        return premia, vg.theta / c, -0.5

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
        premia, theta_q, lam_q = self._q_law(vg)
        for horizon in (1, 22, 252):
            exact = np.exp(self._log_oracle(self.ZS, horizon, vg.r, theta_q,
                                            vg.delta, lam_q))
            got = mgf_q(vg, st, premia, self.ZS, horizon)
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12
            logs = log_mgf(vg, st, self.ZS, horizon, premia=premia)
            assert np.max(np.abs(np.exp(logs) - exact) / np.abs(exact)) <= 1e-12

    def test_raw_cumulants(self, vg):
        st = stationary_state(vg)
        premia, theta_q, lam_q = self._q_law(vg)
        for given, theta, lam in ((None, vg.theta, vg.lam),
                                  (premia, theta_q, lam_q)):
            for horizon in (1, 22, 252):
                k = raw_cumulants(vg, st, horizon, premia=given)
                exact = horizon * _one_day_cumulants(
                    replace(vg, theta=theta, lam=lam), 0.0)
                rel = np.abs(k - exact) / np.abs(exact)
                assert rel[:2].max() <= 1e-11
                assert rel[2:].max() <= 1e-6


def _shift_and_add(p, weights, z, horizon, premia=None):
    """Reference recursion: each day shifts both (n, 22) coefficient
    matrices by one lag and adds the day's increment times the weights."""
    theta, delta, d, g = p.theta, p.delta, p.d, p.gamma_lev
    dtype = np.result_type(z.dtype, float)
    A = np.zeros(z.shape[0], dtype)
    B = np.zeros((z.shape[0], 22), dtype)
    C = np.zeros((z.shape[0], 22), dtype)
    nu1, nu2, y_star = (0.0, 0.0, 0.0) if premia is None \
        else (premia.nu1, premia.nu2, premia.y_star)
    c = 1.0 - theta * y_star
    zs = z - nu2
    for step in range(1, horizon + 1):
        C1 = C[:, 0]
        den = 1.0 - 2.0 * C1
        _guarded(den, step, "1 - 2*C_1")
        X = zs * p.lam + B[:, 0] - nu1 \
            + (0.5 * zs * zs + (g * g) * C1 - 2.0 * C1 * g * zs) / den
        one_minus = 1.0 - theta * X
        _guarded(one_minus, step, "1 - theta*X")
        inc = theta * X / one_minus - theta * y_star / c
        A += z * p.r - 0.5 * np.log(den) \
            - delta * (np.log(one_minus) - np.log(c)) + d * inc
        B[:, :-1] = B[:, 1:]
        B[:, -1] = 0.0
        B += inc[:, None] * weights.beta
        C[:, :-1] = C[:, 1:]
        C[:, -1] = 0.0
        C += inc[:, None] * weights.alpha
    return A, B, C


def _domain_error(recursion, *args):
    try:
        recursion(*args)
    except RecursionDomainError as exc:
        return exc
    return None


class TestAgainstShiftAndAdd:
    """`_recurse` keeps a ring of the last 22 increments; the plain
    shift-and-add loop above is its reference, under P and under Q, at
    horizons on both sides of the ring's wrap."""

    HORIZONS = (1, 2, 21, 22, 23, 44, 252)
    NU1 = -3000.0

    def _cases(self, all_variants):
        for params in all_variants:
            p = parabolic_form(params)
            q = RiskPremia.arbitrage_free(self.NU1, params.lam)
            for premia in (None, q):
                yield params, p, expand_weights(p), premia

    def test_coefficients_match(self, all_variants):
        # real z, and the COS grid u_k = k*pi/(b-a), k < COS_TERMS, as i*u
        real = np.array([-2.0, -0.5, 0.0, 0.7, 2.0])
        for params, p, weights, premia in self._cases(all_variants):
            for horizon in self.HORIZONS:
                a, b = cos_interval(params, None, premia, horizon)
                u = np.arange(COS_TERMS) * np.pi / (b - a)
                for z in (real, 1j * u):
                    want = _shift_and_add(p, weights, z, horizon, premia)
                    got = _recurse(p, weights, z, horizon, premia)
                    for w, g in zip(want, got):
                        assert g.shape == w.shape
                        bound = np.where(np.abs(w) < 1.0, 1e-13,
                                         1e-12 * np.abs(w))
                        assert np.all(np.abs(g - w) <= bound)

    def test_pole_step_matches(self, all_variants):
        # large real z cross a guard at steps from 23 up to about 120
        late = 0
        for _, p, weights, premia in self._cases(all_variants):
            for z in np.linspace(30.0, 130.0, 11):
                z = np.array([z])
                want = _domain_error(_shift_and_add, p, weights, z, 252, premia)
                got = _domain_error(_recurse, p, weights, z, 252, premia)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.step == want.step
                    assert str(got) == str(want)
                    late += want.step > 22
        assert late >= 20


class TestHorizon:
    def test_bad_horizon_rejected(self, plharg):
        for horizon in (0, -3, 2.5, None, "22"):
            with pytest.raises(ValidationError, match="horizon"):
                mgf_p(plharg, None, 0.5, horizon)

    def test_numpy_integer_accepted(self, plharg):
        assert mgf_p(plharg, None, 0.5, np.int64(22)) \
            == mgf_p(plharg, None, 0.5, 22)
