"""Likelihood, market-price-of-risk regression, MLE recovery, calibration."""

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
    simulate_paths,
    stationarity_margin,
    stationary_state,
)
from lharg.estimate import (
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
    return np.array([w.beta @ rv[t - 1::-1][:22] + w.alpha @ lev[t - 1::-1][:22]
                     for t in range(22, len(rv))])


class TestLoglik:
    def test_against_direct_summation(self, plharg):
        theta, delta = plharg.theta, plharg.delta
        for nc in (1e-6, 1e-3, 0.5, 8.0, 40.0):
            x_obs = theta * (delta + nc)   # a typical draw
            rv, eps = series_with_noncentrality(plharg, nc, x_obs)
            terms = loglik_terms(plharg, rv, eps, k_max=500)
            oracle = direct_log_density(x_obs, delta, nc, theta)
            assert abs(terms[0] - oracle) < 1e-10 * max(abs(oracle), 1.0)

    def test_bessel_form(self, plharg, zmlharg):
        # the k_max = 90 mixture is the closed-form noncentral gamma density
        # exp(-x/theta - Theta) (x/(theta Theta))^((delta-1)/2)
        #   I_{delta-1}(2 sqrt(x Theta/theta)) / theta
        for params, seed in ((plharg, 51), (zmlharg, 52)):
            rv, y = make_history(params, 600, seed=seed)
            eps = filter_innovations(y, rv, params.r, params.lam)
            nc = lag_noncentrality(params, rv, eps)
            x, theta, delta = rv[22:], params.theta, params.delta
            z = 2.0 * np.sqrt(x * nc / theta)
            log_density = (-x / theta - nc
                           + 0.5 * (delta - 1.0) * np.log(x / (theta * nc))
                           + np.log(ive(delta - 1.0, z)) + z - np.log(theta))
            terms = loglik_terms(params, rv, eps)
            assert np.max(np.abs(np.expm1(terms - log_density))) < 1e-12

    def test_small_noncentrality_tends_to_plain_gamma(self, plharg):
        from scipy.stats import gamma as gamma_dist
        x_obs = plharg.theta * plharg.delta
        rv, eps = series_with_noncentrality(plharg, 1e-10, x_obs)
        terms = loglik_terms(plharg, rv, eps)
        plain = gamma_dist.logpdf(x_obs, plharg.delta, scale=plharg.theta)
        assert abs(terms[0] - plain) < 1e-8

    def test_truncation_90_vs_200(self, plharg, plharg_history):
        rv, y = plharg_history
        eps = filter_innovations(y, rv, plharg.r, plharg.lam)
        a = loglik(plharg, rv, eps, k_max=90)
        b = loglik(plharg, rv, eps, k_max=200)
        assert abs(a - b) < 1e-10

    def test_truncation_vs_300_per_observation(self, zmlharg, zmlharg_history):
        rv, y = zmlharg_history
        eps = filter_innovations(y, rv, zmlharg.r, zmlharg.lam)
        a = loglik_terms(zmlharg, rv, eps, k_max=90)
        b = loglik_terms(zmlharg, rv, eps, k_max=300)
        assert np.max(np.abs(a - b)) < 1e-8

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
        val = loglik(zmlharg, rv, eps, clamp_floor=1e-12)
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
        assert fit.persistence == stationarity_margin(fit.params)

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
        # a derivative-free search climbs on to 2459.146: not converged
        rv, y = make_history(zmlharg, 300, seed=1)
        fit = mle_fit(rv, y, zmlharg.r, "ZM-LHARG")
        assert fit.converged is False
        assert fit.loglik >= 2458.5548 - 1e-6

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
        per_obs = _natural_terms(variant, rv, eps, 90, clamp_floor)
        _, scores = per_obs(x)
        assert scores.shape == (len(rv) - 22, x.size)
        typical = np.array([1e-5, 1.0, 1e4, 1e4, 1e4, 0.1, 0.1, 0.1, 100.0])
        for i in range(x.size):
            step = np.zeros(x.size)
            step[i] = 1e-5 * max(abs(x[i]), typical[i])
            fd = (per_obs(x + step, scores=False)
                  - per_obs(x - step, scores=False)) / (2.0 * step[i])
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
        _, scores = _natural_terms("ZM-LHARG", rv, eps, 90, floor)(x)
        clamped = lag_noncentrality(zmlharg, rv, eps) < floor
        assert clamped.sum() == 10
        assert np.all(scores[clamped, 2:] == 0.0)
        assert np.all(scores[~clamped, 2] != 0.0)


class TestSandwichErrors:
    def test_each_point_evaluated_once(self, plharg):
        # the base point for the exact scores, and the 2p one-step shifts
        # whose summed scores difference into the Hessian
        rv, y = make_history(plharg, 400, seed=41)
        eps = filter_innovations(y, rv, plharg.r, plharg.lam)
        per_obs = _natural_terms("P-LHARG", rv, eps, 90, None)
        points = []

        def counted(x):
            points.append(x.tobytes())
            return per_obs(x)

        x = natural_vector(plharg)
        se = _sandwich_errors(x, counted, np.abs(x))
        p = x.size
        assert len(points) == 1 + 2 * p == 19
        assert len(set(points)) == len(points)
        assert np.all(np.isfinite(se)) and np.all(se > 0.0)


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

    def test_bench_target_evaluations(self, zmlharg, monkeypatch):
        # the identity split and the cache leave at most 10 IV evaluations
        import lharg.pricing
        seen = []
        atm_iv = lharg.pricing.model_atm_iv

        def counted(params, nu1, *args):
            seen.append(nu1)
            return atm_iv(params, nu1, *args)

        monkeypatch.setattr(lharg.pricing, "model_atm_iv", counted)
        calibrate_nu1(zmlharg, 0.20, 252, stationary_state(zmlharg))
        assert len(seen) <= 10
        assert len(set(seen)) == len(seen)

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
            calibrate_nu1(zmlharg, 0.9, 252, None)

    def test_rejects_bad_maturity(self, zmlharg):
        # an input error, not a numerical failure for the bracket search
        for maturity in (0, -5, 2.5):
            with pytest.raises(ValidationError, match="horizon"):
                calibrate_nu1(zmlharg, 0.2, maturity)
