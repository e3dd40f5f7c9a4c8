"""Likelihood, market-price-of-risk regression, MLE recovery, calibration."""

import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ive

from lharg import (
    LikelihoodDomainError,
    ModelParams,
    ValidationError,
    expand_weights,
    filter_innovations,
    leverage,
    stationarity_margin,
    stationary_state,
)
from lharg.estimate import (
    _HAR_MEANS,
    _NAMES,
    _natural_terms,
    _sandwich_errors,
    calibrate_nu1,
    estimate_lambda,
    loglik,
    loglik_terms,
    mle_fit,
)

from conftest import make_history
from oracles import difference_hessian


def direct_log_density(x, delta, nc, theta, k_terms=500, dps=50):
    """Independent high-precision mixture summation of the transition density."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        delta = mpmath.mpf(delta)
        nc = mpmath.mpf(nc)
        theta = mpmath.mpf(theta)
        total = mpmath.mpf(0)
        for k in range(k_terms + 1):
            total += (
                x ** (delta + k - 1) * nc**k
                / (theta ** (delta + k) * mpmath.gamma(delta + k)
                   * mpmath.factorial(k))
            )
        return float(-x / theta - nc + mpmath.log(total))


def series_with_noncentrality(params, target_nc, x_obs):
    """23-point series whose single usable observation sees Theta = target_nc.

    All 22 lags share one rv level and zero innovations, which makes
    Theta = level * persistence / theta linear in the level.
    """
    level = target_nc * params.theta / stationarity_margin(params)
    rv = np.full(23, level)
    rv[-1] = x_obs
    eps = np.zeros(23)
    return rv, eps


def natural_vector(params):
    names = _NAMES[:5] if params.variant == "HARG" else _NAMES
    return np.array([getattr(params, name) for name in names])


def lag_noncentrality(params, rv, eps):
    """Theta for observations 22..n-1 from the 22 expanded lag weights."""
    w = expand_weights(params)
    lev = leverage(eps, rv, params.gamma_lev, params.variant)
    return np.array([w[0] @ rv[t - 1::-1][:22] + w[1] @ lev[t - 1::-1][:22]
                     for t in range(22, len(rv))])


class TestLoglik:
    def test_against_direct_summation(self, plharg):
        # at Theta = 150 and 400 the mixture's mode lies past 91 terms
        theta, delta = plharg.theta, plharg.delta
        for nc in (1e-6, 1e-3, 0.5, 8.0, 40.0, 150.0, 400.0):
            x_obs = theta * (delta + nc)   # a typical draw
            rv, eps = series_with_noncentrality(plharg, nc, x_obs)
            terms = loglik_terms(plharg, rv, eps)
            oracle = direct_log_density(x_obs, delta, nc, theta,
                                        k_terms=1500)
            assert abs(terms[0] - oracle) < 1e-10 * max(abs(oracle), 1.0), nc

    def test_bessel_form(self, plharg, zmlharg, plharg_history,
                         zmlharg_history):
        # the mixture is the closed-form noncentral gamma density
        # exp(-x/theta - Theta) (x/(theta Theta))^((delta-1)/2)
        #   I_{delta-1}(2 sqrt(x Theta/theta)) / theta
        # on short histories, and on the 4500-day ones with rv scaled by up
        # to 4 (eps held), a high-variance regime whose mixture needs more
        # than 91 terms
        inputs = [(params, *make_history(params, 600, seed=seed), 1.0)
                  for params, seed in ((plharg, 51), (zmlharg, 52))]
        inputs += [(params, *history, c)
                   for params, history in ((plharg, plharg_history),
                                           (zmlharg, zmlharg_history))
                   for c in (1.0, 2.0, 3.0, 4.0)]
        for params, rv, y, c in inputs:
            eps = filter_innovations(y, rv, params.r, params.lam)
            rv = rv * c
            nc = lag_noncentrality(params, rv, eps)
            x, theta, delta = rv[22:], params.theta, params.delta
            z = 2.0 * np.sqrt(x * nc / theta)
            log_density = (-x / theta - nc
                           + 0.5 * (delta - 1.0) * np.log(x / (theta * nc))
                           + np.log(ive(delta - 1.0, z)) + z - np.log(theta))
            terms = loglik_terms(params, rv, eps)
            assert np.max(np.abs(np.expm1(terms - log_density))) < 1e-12, \
                (params.variant, rv.size, c)

    def test_small_noncentrality_tends_to_plain_gamma(self, plharg):
        from scipy.stats import gamma as gamma_dist
        x_obs = plharg.theta * plharg.delta
        rv, eps = series_with_noncentrality(plharg, 1e-10, x_obs)
        terms = loglik_terms(plharg, rv, eps)
        plain = gamma_dist.logpdf(x_obs, plharg.delta, scale=plharg.theta)
        assert abs(terms[0] - plain) < 1e-8

    def test_mixture_past_its_ceiling_raises(self, plharg, plharg_history):
        # at theta = 1e-9 the mixture's mode lies near 3300 terms, past the
        # 2912-term ceiling: the error names the widest observation
        rv, y = plharg_history
        eps = filter_innovations(y, rv, plharg.r, plharg.lam)
        tiny = replace(plharg, theta=1e-9)
        with pytest.raises(LikelihoodDomainError, match="2912 terms") as err:
            loglik(tiny, rv, eps)
        s = rv[22:] * lag_noncentrality(tiny, rv, eps)
        assert err.value.index == int(np.argmax(s)) + 22

    def test_theta_perturbation_lowers_likelihood(self, plharg):
        rv, y = make_history(plharg, 100_000, seed=61)
        eps = filter_innovations(y, rv, plharg.r, plharg.lam)
        base = loglik(plharg, rv, eps)
        for factor in (0.95, 1.05):
            bumped = ModelParams(**{**plharg.__dict__,
                                    "theta": plharg.theta * factor})
            assert loglik(bumped, rv, eps) < base

    def test_domain_error_names_observation(self, zmlharg):
        # small positive shocks make the zero-mean leverage negative while
        # tiny variances keep the beta contribution from compensating
        rv = np.full(30, 1e-6)
        eps = np.full(30, 0.5)
        with pytest.raises(LikelihoodDomainError) as err:
            loglik(zmlharg, rv, eps)
        assert err.value.index >= 22
        # clamp mode turns the same input into a finite value
        val = loglik(zmlharg, rv, eps, clamp=True)
        assert np.isfinite(val)

    def test_scale_invariance_of_shape(self, plharg, plharg_history):
        # data in rescaled units with (theta, beta, gamma) mapped along
        # shifts the log-likelihood by exactly -n*log(c): the delta profile,
        # hence the fitted shape, is unchanged
        rv, y = plharg_history
        eps = filter_innovations(y, rv, plharg.r, plharg.lam)
        c = 3.7
        scaled = ModelParams(
            variant=plharg.variant, theta=plharg.theta * c, delta=plharg.delta,
            d=0.0, beta_d=plharg.beta_d / c, beta_w=plharg.beta_w / c,
            beta_m=plharg.beta_m / c, alpha_d=plharg.alpha_d,
            alpha_w=plharg.alpha_w, alpha_m=plharg.alpha_m,
            gamma_lev=plharg.gamma_lev / np.sqrt(c), lam=plharg.lam,
            r=plharg.r,
        )
        n = len(rv) - 22
        base = loglik_terms(plharg, rv, eps)
        moved = loglik_terms(scaled, rv * c, eps)
        assert np.max(np.abs(moved - (base - np.log(c)))) < 1e-8

    def test_requires_positive_variances(self, plharg):
        rv = np.full(30, 1e-4)
        rv[5] = 0.0
        with pytest.raises(ValidationError):
            loglik(plharg, rv, np.zeros(30))


class TestEstimateLambda:
    def test_recovers_generating_value(self, plharg, plharg_history):
        rv, y = plharg_history
        lam_hat, se = estimate_lambda(y, rv, plharg.r)
        assert abs(lam_hat - plharg.lam) < 2.0 * se

    def test_zero_lambda(self):
        rng = np.random.default_rng(71)
        rv = rng.gamma(2.0, 5e-5, 4000)
        y = np.sqrt(rv) * rng.standard_normal(4000)
        lam_hat, se = estimate_lambda(y, rv, 0.0)
        assert abs(lam_hat) < 2.0 * se

    def test_se_shrinks_like_sqrt_t(self):
        rng = np.random.default_rng(72)
        rv = rng.gamma(2.0, 5e-5, 40000)
        y = 1.5 * rv + np.sqrt(rv) * rng.standard_normal(40000)
        _, se_small = estimate_lambda(y[:10000], rv[:10000], 0.0)
        _, se_large = estimate_lambda(y, rv, 0.0)
        assert abs(se_small / se_large - 2.0) < 0.25

    def test_degenerate_regressor(self):
        with pytest.raises(ValidationError):
            estimate_lambda(np.zeros(10), np.zeros(10), 0.0)


class TestInputErrors:
    def test_each_rule_raises_its_message(self, plharg):
        # (call, exact message): series of unequal length, a history too
        # short to leave a transition after the 22-lag warm-up, and an
        # empty regression, whose sum of variances is zero
        rv, eps = np.full(30, 1e-4), np.zeros(30)
        cases = (
            (lambda: loglik_terms(plharg, rv, eps[:29]),
             "rv and eps series must be aligned"),
            (lambda: loglik_terms(plharg, rv[:22], eps[:22]),
             "need at least 23 observations, got 22"),
            (lambda: estimate_lambda(eps[:29], rv, 0.0),
             "returns and rv series must be aligned"),
            (lambda: estimate_lambda([], [], 0.0),
             "degenerate regressor: sum of variances is zero"),
        )
        for call, message in cases:
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == message


@pytest.fixture(scope="module")
def plharg_fit(plharg, plharg_history):
    rv, y = plharg_history
    return mle_fit(rv, y, plharg.r, "P-LHARG")


class TestMleFit:
    def test_recovery_within_three_se(self, plharg, plharg_fit):
        fit = plharg_fit
        assert fit.converged
        for name in ("theta", "delta", "beta_d", "beta_w", "beta_m",
                     "alpha_d", "alpha_w", "alpha_m", "gamma_lev"):
            err = abs(getattr(fit.params, name) - getattr(plharg, name))
            assert err < 3.0 * fit.std_errors[name], name
        assert abs(fit.params.lam - plharg.lam) < 3.0 * fit.std_errors["lam"]

    def test_optimum_at_least_truth(self, plharg, plharg_history, plharg_fit):
        rv, y = plharg_history
        lam_hat, _ = estimate_lambda(y, rv, plharg.r)
        eps = filter_innovations(y, rv, plharg.r, lam_hat)
        truth_ll = loglik(plharg, rv, eps)
        assert plharg_fit.loglik >= truth_ll - 1e-3

    def test_nested_harg_alphas_insignificant(self, harg):
        rv, y = make_history(harg, 4500, seed=31)
        fit = mle_fit(rv, y, harg.r, "P-LHARG")
        for name in ("alpha_d", "alpha_w", "alpha_m"):
            est = getattr(fit.params, name)
            se = fit.std_errors[name]
            assert est < max(3.0 * se, 0.02), (name, est, se)

    def test_zero_mean_fit_follows_the_wall(self, zmlharg):
        # on this short history the likelihood rises toward Theta_t = 0, so
        # the climb runs into the nonpositive-noncentrality wall; Nelder-Mead
        # polished by finite-difference L-BFGS-B reaches 2391.9018358 here
        rv, y = make_history(zmlharg, 300, seed=6)
        fit = mle_fit(rv, y, zmlharg.r, "ZM-LHARG")
        assert fit.converged
        assert fit.loglik >= 2391.9018358 - 1e-6

    def test_fit_short_of_the_wall_not_converged(self, zmlharg):
        # here the last restart meets the wall again without gaining, while
        # a derivative-free search climbs on to 2459.146: not converged.
        # The stopping point is set by rounding: a strided _HAR_MEANS of
        # the same values, which changes only BLAS's reduction order in the
        # HAR aggregates, stops at 2458.2531
        assert _HAR_MEANS.flags.c_contiguous
        rv, y = make_history(zmlharg, 300, seed=1)
        fit = mle_fit(rv, y, zmlharg.r, "ZM-LHARG")
        assert fit.converged is False
        assert fit.loglik >= 2458.1042 - 1e-6

    def test_fit_that_never_leaves_the_wall_raises(self, zmlharg):
        # the HAR start already has Theta <= 0 on this history and no run
        # leaves the wall: the likelihood's own error, located, rather than
        # the wall's penalty reported as a fit; clamping fits it
        rv, y = make_history(zmlharg, 40, seed=0)
        with pytest.raises(LikelihoodDomainError) as err:
            mle_fit(rv, y, zmlharg.r, "ZM-LHARG")
        assert err.value.index == 32
        fit = mle_fit(rv, y, zmlharg.r, "ZM-LHARG", clamp=True)
        assert fit.converged
        assert abs(fit.loglik - 158.3052) < 1e-4

    def test_errors_not_available_at_the_wall(self, zmlharg):
        # this fit stops near Theta = 0 where the observed information is
        # not positive definite: the transition parameters' errors are
        # not available (NaN), and lam's, from the regression, stays
        rv, y = make_history(zmlharg, 100, seed=7)
        fit = mle_fit(rv, y, zmlharg.r, "ZM-LHARG")
        assert np.isfinite(fit.loglik)
        assert all(np.isnan(fit.std_errors[name]) for name in _NAMES)
        assert 0.0 < fit.std_errors["lam"] < np.inf

    def test_harg_fit_smoke(self, harg):
        rv, y = make_history(harg, 3000, seed=32)
        fit = mle_fit(rv, y, harg.r, "HARG")
        assert fit.converged
        assert fit.params.alpha_d == 0.0
        assert abs(fit.params.theta - harg.theta) < 4.0 * fit.std_errors["theta"]


class TestScores:
    @staticmethod
    def assert_scores_match(variant, rv, eps, x, clamp_floor=None):
        # each analytic score column against central differences of the
        # terms, with steps floored at a typical magnitude (alpha_m = 3.85e-6
        # in P-LHARG would otherwise move Theta by less than its rounding)
        per_obs = _natural_terms(variant, rv, eps, clamp_floor)
        _, scores = per_obs(x)
        assert scores.shape == (len(rv) - 22, x.size)
        typical = np.array([1e-5, 1.0, 1e4, 1e4, 1e4, 0.1, 0.1, 0.1, 100.0])
        for i in range(x.size):
            step = np.zeros(x.size)
            step[i] = 1e-5 * max(abs(x[i]), typical[i])
            fd = (per_obs(x + step, 0)
                  - per_obs(x - step, 0)) / (2.0 * step[i])
            col = scores[:, i]
            assert np.max(np.abs(fd - col)) <= 1e-6 * np.max(np.abs(col)), \
                (variant, _NAMES[i])

    def test_against_central_differences(self, all_variants):
        for params, seed in zip(all_variants, (81, 82, 83)):
            rv, y = make_history(params, 400, seed=seed)
            eps = filter_innovations(y, rv, params.r, params.lam)
            self.assert_scores_match(params.variant, rv, eps,
                                     natural_vector(params))

    def test_clamped_observations(self, zmlharg):
        # floor between the 10th and 11th smallest Theta: ten observations
        # clamp, and their Theta-gradients are zero
        rv, y = make_history(zmlharg, 400, seed=84)
        eps = filter_innovations(y, rv, zmlharg.r, zmlharg.lam)
        nc = np.sort(lag_noncentrality(zmlharg, rv, eps))
        floor = 0.5 * (nc[9] + nc[10])
        assert nc[10] - nc[9] > 1e-3 * abs(floor)
        x = natural_vector(zmlharg)
        self.assert_scores_match("ZM-LHARG", rv, eps, x, clamp_floor=floor)
        _, scores = _natural_terms("ZM-LHARG", rv, eps, floor)(x)
        clamped = lag_noncentrality(zmlharg, rv, eps) < floor
        assert clamped.sum() == 10
        assert np.all(scores[clamped, 2:] == 0.0)
        assert np.all(scores[~clamped, 2] != 0.0)


class TestExactHessian:
    @staticmethod
    def assert_hessian_matches(variant, rv, eps, x, clamp_floor=None):
        # the closed-form Hessian against central differences of the exact
        # scores, both in coordinates scaled by a typical magnitude of each
        # parameter, within 1e-7 of the largest entry (measured 3.3e-10)
        per_obs = _natural_terms(variant, rv, eps, clamp_floor)
        _, scores, hess = per_obs(x, 2)
        assert np.all(np.abs(scores - per_obs(x)[1])
                      <= 1e-13 * np.max(np.abs(scores), axis=0))
        typical = np.array([1e-5, 1.0, 1e4, 1e4, 1e4, 0.1, 0.1, 0.1, 100.0])
        scale = np.maximum(np.abs(x), typical[:x.size])
        outer = np.outer(scale, scale)
        oracle = difference_hessian(per_obs, x, scale) * outer
        assert np.array_equal(hess, hess.T)
        assert np.max(np.abs(hess * outer - oracle)) \
            <= 1e-7 * np.max(np.abs(oracle)), variant

    def test_against_difference_hessian(self, all_variants):
        for params, seed in zip(all_variants, (81, 82, 83)):
            rv, y = make_history(params, 400, seed=seed)
            eps = filter_innovations(y, rv, params.r, params.lam)
            self.assert_hessian_matches(params.variant, rv, eps,
                                        natural_vector(params))

    def test_clamped_observations(self, zmlharg):
        # the ten clamped rows of TestScores drop out of every Theta row
        # and column
        rv, y = make_history(zmlharg, 400, seed=84)
        eps = filter_innovations(y, rv, zmlharg.r, zmlharg.lam)
        nc = np.sort(lag_noncentrality(zmlharg, rv, eps))
        floor = 0.5 * (nc[9] + nc[10])
        self.assert_hessian_matches("ZM-LHARG", rv, eps,
                                    natural_vector(zmlharg), floor)


class TestSandwichErrors:
    def test_each_point_evaluated_once(self, harg):
        # one call, at x_hat, with the Hessian; the errors equal those of
        # the central-difference Hessian of the same scores (the HARG
        # information is positive definite at the true parameters here)
        rv, y = make_history(harg, 400, seed=81)
        eps = filter_innovations(y, rv, harg.r, harg.lam)
        per_obs = _natural_terms("HARG", rv, eps, None)
        points = []

        def counted(x, order=1):
            points.append((x.tobytes(), order))
            return per_obs(x, order)

        x = natural_vector(harg)
        scale = np.abs(x)
        se = _sandwich_errors(x, counted, scale)
        assert points == [(x.tobytes(), 2)]
        _, scores = per_obs(x)
        info_inv = np.linalg.inv(-difference_hessian(per_obs, x, scale))
        oracle = np.sqrt(np.diag(info_inv @ scores.T @ scores @ info_inv))
        assert np.max(np.abs(se / oracle - 1.0)) < 1e-6

    def test_fit_calls_once_at_the_estimate(self, harg, monkeypatch):
        # mle_fit's only Hessian call is its last likelihood call, at the
        # natural vector it reports
        import lharg.estimate
        rv, y = make_history(harg, 400, seed=81)
        calls = []

        def recorded(*args):
            per_obs = _natural_terms(*args)

            def counted(x, order=1):
                calls.append((x.copy(), order))
                return per_obs(x, order)
            return counted

        monkeypatch.setattr(lharg.estimate, "_natural_terms", recorded)
        fit = mle_fit(rv, y, harg.r, "HARG")
        assert [order for _, order in calls].count(2) == 1
        assert calls[-1][1] == 2
        assert np.array_equal(calls[-1][0], natural_vector(fit.params))
        assert np.isfinite(list(fit.std_errors.values())).all()

    def test_not_positive_definite_not_available(self, plharg):
        # at a minimum of the likelihood (the Hessian's sign flipped) no
        # Cholesky factor exists: every error is NaN
        rv, y = make_history(plharg, 400, seed=41)
        eps = filter_innovations(y, rv, plharg.r, plharg.lam)
        per_obs = _natural_terms("P-LHARG", rv, eps, None)

        def flipped(x, order):
            ll, scores, hess = per_obs(x, order)
            return ll, scores, -hess

        x = natural_vector(plharg)
        assert np.isnan(_sandwich_errors(x, flipped, np.abs(x))).all()


class TestCalibrateNu1:
    def test_fixed_point_round_trip(self, zmlharg):
        from lharg.pricing import model_atm_iv
        st = stationary_state(zmlharg)
        nu1_star = 0.125 - 0.5 * zmlharg.lam**2
        target = model_atm_iv(zmlharg, nu1_star, 252, st)
        found = calibrate_nu1(zmlharg, target, 252, st)
        assert abs(found - nu1_star) < 1e-8

    def test_monotone_in_nu1(self, zmlharg):
        from lharg.pricing import model_atm_iv
        st = stationary_state(zmlharg)
        grid = np.linspace(-4500.0, 500.0, 20)
        ivs = [model_atm_iv(zmlharg, nu1, 252, st) for nu1 in grid]
        diffs = np.diff(ivs)
        assert np.all(diffs < 0.0)   # IV falls as nu1 rises

    def test_market_level_target_magnitude(self, zmlharg):
        st = stationary_state(zmlharg)
        nu1 = calibrate_nu1(zmlharg, 0.20, 252, st)
        assert -10_000.0 < nu1 < -100.0

    def test_residual_below_tolerance(self, zmlharg):
        from lharg.pricing import model_atm_iv
        st = stationary_state(zmlharg)
        nu1 = calibrate_nu1(zmlharg, 0.22, 252, st)
        assert abs(model_atm_iv(zmlharg, nu1, 252, st) - 0.22) < 1e-6

    def test_infeasible_target_reports_range(self, zmlharg):
        from lharg import CalibrationInfeasibleError
        st = stationary_state(zmlharg)
        with pytest.raises(CalibrationInfeasibleError) as err:
            calibrate_nu1(zmlharg, 0.01, 252, st)
        assert err.value.target == 0.01
        assert np.isfinite([err.value.iv_low, err.value.iv_high]).all()
        assert err.value.iv_low < err.value.iv_high

    def test_infeasible_when_shifted_persistence_reaches_one(self, zmlharg):
        # a large lam leaves the physical persistence at 0.81 but takes the
        # persistence at the shifted gamma* = gamma + lam + 1/2 to 1.07, so
        # no premium keeps the mapped dynamics stationary
        from lharg import CalibrationInfeasibleError
        from lharg.model import _gamma_star, parabolic_form
        params = replace(zmlharg, lam=60.0)
        p = parabolic_form(params)
        assert stationarity_margin(params) < 1.0 <= stationarity_margin(
            replace(p, gamma_lev=_gamma_star(p)))
        with pytest.raises(CalibrationInfeasibleError) as err:
            calibrate_nu1(params, 0.2, 252, stationary_state(zmlharg))
        assert np.isnan([err.value.iv_low, err.value.iv_high]).all()

    @pytest.mark.parametrize("failures", [1, None])
    def test_top_end_backs_off(self, zmlharg, monkeypatch, failures):
        # the top end (s > 1, nu1 below the identity point) fails its first
        # `failures` evaluations, or all of them (None): each failure backs
        # theta*y_star off by 0.7; a later success still brackets the
        # root, and with none left the range reported is NaN
        import lharg.estimate
        from lharg import CalibrationInfeasibleError, NumericalError
        st = stationary_state(zmlharg)
        target = 0.22              # above the identity point's 0.166
        expected = calibrate_nu1(zmlharg, target, 252, st)
        fixed_point = 0.125 - 0.5 * zmlharg.lam**2
        atm_iv = lharg.estimate.model_atm_iv
        failed = []

        def failing(params, nu1, *args, **kwargs):
            if nu1 < fixed_point and (failures is None
                                      or len(failed) < failures):
                failed.append((fixed_point - nu1) * params.theta)
                raise NumericalError("top end failed")
            return atm_iv(params, nu1, *args, **kwargs)

        monkeypatch.setattr(lharg.estimate, "model_atm_iv", failing)
        if failures is None:
            with pytest.raises(CalibrationInfeasibleError) as err:
                calibrate_nu1(zmlharg, target, 252, st)
            assert np.isnan([err.value.iv_low, err.value.iv_high]).all()
            assert len(failed) == 40
        else:
            found = calibrate_nu1(zmlharg, target, 252, st)
            assert abs(found - expected) <= 1e-9 * abs(expected)
            assert len(failed) == 1
        # failed holds theta*y_star = 1 - 1/s of each failed top point, up
        # to the rounding of s
        ratios = np.array(failed[1:]) / failed[:-1]
        assert np.allclose(ratios, 0.7, rtol=1e-6, atol=0.0)

    def test_bench_target_evaluations(self, zmlharg, monkeypatch):
        # the identity split and the cache leave at most 10 IV evaluations;
        # calibrate_nu1 calls estimate's own binding of model_atm_iv
        import lharg.estimate
        seen = []
        atm_iv = lharg.estimate.model_atm_iv

        def counted(params, nu1, *args, **kwargs):
            seen.append(nu1)
            return atm_iv(params, nu1, *args, **kwargs)

        monkeypatch.setattr(lharg.estimate, "model_atm_iv", counted)
        calibrate_nu1(zmlharg, 0.20, 252, stationary_state(zmlharg))
        assert 0 < len(seen) <= 10
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("side", [0.9, 1.3])
    def test_one_pass_roots_match_two_pass_roots(self, all_variants,
                                                 monkeypatch, side):
        # targets below (0.9) and above (1.3) the identity point's IV:
        # evaluations that take one shared pass (a grid on a hinted
        # interval) move the root by less than 1e-10 relative
        import lharg.estimate
        import lharg.mgf as mgf_mod
        import lharg.pricing as pricing_mod
        atm_iv = lharg.estimate.model_atm_iv
        shared = []
        original = mgf_mod._log_mgf_segments

        def counting(params, nu1, segments):
            shared.append(len(segments) == 2)
            return original(params, nu1, segments)

        for params in all_variants:
            st = stationary_state(params)
            target = side * atm_iv(params, 0.125 - 0.5 * params.lam**2,
                                   252, st)
            shared.clear()
            with monkeypatch.context() as m:
                m.setattr(mgf_mod, "_log_mgf_segments", counting)
                m.setattr(pricing_mod, "_log_mgf_segments", counting)
                found = calibrate_nu1(params, target, 252, st)
            assert sum(shared) >= 4, params.variant
            with monkeypatch.context() as m:
                m.setattr(lharg.estimate, "model_atm_iv",
                          lambda params, nu1, *args, memo=None:
                          atm_iv(params, nu1, *args))
                two_pass = calibrate_nu1(params, target, 252, st)
            assert abs(found - two_pass) <= 1e-10 * abs(two_pass), \
                params.variant

    def test_bench_target_passes(self, zmlharg, monkeypatch):
        # the bench calibration's recursion passes: 18 when each of its 9
        # evaluations ran a contour pass and then a grid pass.  Now 5 run
        # one shared pass, and the top end's 252-day grid, on an interval
        # 3 times as wide as the identity point's, doubles once
        import lharg.mgf as mgf_mod
        import lharg.pricing as pricing_mod
        from lharg.pricing import COS_TERMS
        passes = []
        original = mgf_mod._log_mgf_segments

        def counting(params, nu1, segments):
            passes.append([np.size(z) for z, *_ in segments])
            return original(params, nu1, segments)

        monkeypatch.setattr(mgf_mod, "_log_mgf_segments", counting)
        monkeypatch.setattr(pricing_mod, "_log_mgf_segments", counting)
        calibrate_nu1(zmlharg, 0.20, 252, stationary_state(zmlharg))
        assert len(passes) <= 14
        assert passes.count([9, COS_TERMS]) >= 5

    @pytest.mark.parametrize("target", [0.15, 0.22])
    def test_matches_root_in_nu1(self, zmlharg, target):
        # roots on both sides of the identity point (s < 1 and s > 1)
        from scipy import optimize
        from lharg.pricing import model_atm_iv
        st = stationary_state(zmlharg)
        ref = optimize.brentq(
            lambda nu1: model_atm_iv(zmlharg, nu1, 252, st) - target,
            -6000.0, 5000.0, xtol=1e-9)
        found = calibrate_nu1(zmlharg, target, 252, st)
        assert abs(found - ref) <= 1e-9 * abs(ref)

    def test_rejects_silly_target(self, zmlharg):
        with pytest.raises(ValidationError):
            calibrate_nu1(zmlharg, 0.9, 252, stationary_state(zmlharg))

    def test_rejects_bad_maturity(self, zmlharg):
        # an input error named as such, checked before anything else: before
        # the target, and before the shifted persistence (lam = 60 takes it
        # past 1) can report the calibration infeasible
        st = stationary_state(zmlharg)
        for maturity in (0, -5, 2.5, 252.5, "252", None):
            for params, target in ((zmlharg, 0.2), (zmlharg, 0.9),
                                   (replace(zmlharg, lam=60.0), 0.2)):
                with pytest.raises(ValidationError, match=(
                        "^maturity_days must be a whole number >= 1, got "
                        f"{re.escape(repr(maturity))}$")):
                    calibrate_nu1(params, target, maturity, st)
