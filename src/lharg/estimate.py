"""Maximum-likelihood estimation, the market-price-of-risk regression,
and the variance-premium calibration.

The variance transition density is noncentral gamma, so the sample
log-likelihood is

    sum_t [ -RV_t/theta - Theta_{t-1}
            + log sum_{k=0}^{90} RV_t^(delta+k-1) Theta_{t-1}^k
                                 / (theta^(delta+k) Gamma(delta+k) k!) ]

with the Poisson mixture truncated at the 90th order and accumulated in
log-space.  The k = 0 term is essential: it carries the x^(delta-1)
behavior of the density near zero, and dropping it visibly biases the
shape estimate on samples containing low-variance days.  The market price
of risk is estimated first by regressing the centred, normalized
log-returns on realized volatility; the innovations filtered with that
estimate feed the leverage terms of the likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize
from scipy.special import gammaln

from .errors import (
    CalibrationInfeasibleError,
    LikelihoodDomainError,
    NumericalError,
    ValidationError,
)
from .model import (
    MarketState,
    ModelParams,
    N_LAGS,
    _gamma_star,
    _spread_lags,
    expand_weights,
    filter_innovations,
    leverage,
    parabolic_form,
    stationarity_margin,
)

DEFAULT_K_MAX = 90
_PENALTY = 1e12


@dataclass
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    params: ModelParams
    loglik: float
    std_errors: dict         # per-parameter robust (sandwich) standard errors
    persistence: float
    converged: bool
    iterations: int


def _noncentrality_series(d: float, w_beta: np.ndarray, w_alpha: np.ndarray,
                          rv: np.ndarray, lev: np.ndarray) -> np.ndarray:
    # Theta_{t-1} for observations t = 22..n-1; window s covers rv[s..s+21]
    # and pairs, reversed, with lags 1..22 of observation t = s + 22.
    rv_w = sliding_window_view(rv, N_LAGS)[:-1]
    lev_w = sliding_window_view(lev, N_LAGS)[:-1]
    return d + rv_w @ w_beta[::-1] + lev_w @ w_alpha[::-1]


def _loglik_vector(theta: float, delta: float, d: float,
                   w_beta: np.ndarray, w_alpha: np.ndarray,
                   rv: np.ndarray, lev: np.ndarray,
                   k_max: int, clamp_floor: float | None) -> np.ndarray:
    nc = _noncentrality_series(d, w_beta, w_alpha, rv, lev)
    if clamp_floor is not None:
        nc = np.maximum(nc, clamp_floor)
    else:
        bad = np.flatnonzero(nc <= 0.0)
        if bad.size:
            t = int(bad[0]) + N_LAGS
            raise LikelihoodDomainError(
                t, f"nonpositive noncentrality {nc[bad[0]]:.6g} in the likelihood"
            )
    obs = rv[N_LAGS:]
    # mixture term k of the transition density, rearranged around the
    # per-observation scale s_t = log(x_t * Theta_t / theta):
    #   (delta+k-1) log x - (delta+k) log theta - lnG(delta+k)
    #     + k log Theta - lnG(k+1)
    #   = (delta-1) log x - delta log theta + k s_t - lnG(delta+k) - lnG(k+1)
    k = np.arange(0, k_max + 1, dtype=float)
    log_x = np.log(obs)
    s = log_x + np.log(nc) - np.log(theta)
    g = gammaln(delta + k) + gammaln(k + 1.0)
    a = np.outer(s, k)
    a -= g
    peak = a.max(axis=1)
    a -= peak[:, None]
    np.exp(a, out=a)
    mix = peak + np.log(a.sum(axis=1))
    return (delta - 1.0) * log_x - delta * np.log(theta) \
        - obs / theta - nc + mix


def loglik_terms(params: ModelParams, rv_series, eps_series,
                 k_max: int = DEFAULT_K_MAX,
                 clamp_floor: float | None = None) -> np.ndarray:
    """Per-observation log-likelihood contributions (after the 22-lag warm-up).

    Nonpositive noncentrality raises by default; pass clamp_floor (e.g.
    1e-12) to clamp instead, for zero-mean fits on pathological samples.
    """
    rv = np.asarray(rv_series, dtype=float)
    eps = np.asarray(eps_series, dtype=float)
    if rv.shape != eps.shape:
        raise ValidationError("rv and eps series must be aligned")
    if rv.size < N_LAGS + 1:
        raise ValidationError(
            f"need at least {N_LAGS + 1} observations, got {rv.size}"
        )
    if np.any(rv <= 0.0):
        raise ValidationError("likelihood requires strictly positive variances")
    lev = leverage(eps, rv, params.gamma_lev, params.variant)
    weights = expand_weights(params)
    return _loglik_vector(params.theta, params.delta, params.d,
                          weights.beta, weights.alpha, rv, np.asarray(lev),
                          k_max, clamp_floor)


def loglik(params: ModelParams, rv_series, eps_series,
           k_max: int = DEFAULT_K_MAX,
           clamp_floor: float | None = None) -> float:
    """Total sample log-likelihood of the variance transitions."""
    return float(np.sum(loglik_terms(params, rv_series, eps_series,
                                     k_max, clamp_floor)))


def estimate_lambda(returns, rv_series, r: float) -> tuple[float, float]:
    """Market price of risk by no-intercept least squares.

    Regresses (y_t - r)/sqrt(RV_t) on sqrt(RV_t); under the return equation
    the slope is lam and the residuals are the unit-variance innovations.
    """
    y = np.asarray(returns, dtype=float)
    rv = np.asarray(rv_series, dtype=float)
    if y.shape != rv.shape:
        raise ValidationError("returns and rv series must be aligned")
    if np.any(rv <= 0.0):
        raise ValidationError("regression requires strictly positive variances")
    sxx = float(np.sum(rv))
    if sxx <= 0.0:
        raise ValidationError("degenerate regressor: sum of variances is zero")
    lam_hat = float(np.sum(y - r) / sxx)
    resid = (y - r) / np.sqrt(rv) - lam_hat * np.sqrt(rv)
    dof = max(y.size - 1, 1)
    se = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return lam_hat, se


def _unpack(variant: str, u: np.ndarray) -> np.ndarray:
    # natural vector from the optimizer's coordinates: logs of the positive
    # parameters, gamma_lev as is
    if variant == "HARG":
        return np.exp(u)
    return np.concatenate([np.exp(u[:8]), u[8:]])


def _pack(variant: str, values) -> np.ndarray:
    theta, delta, b_d, b_w, b_m, a_d, a_w, a_m, gamma = values
    base = np.log([theta, delta, b_d, b_w, b_m])
    if variant == "HARG":
        return base
    return np.concatenate([base, np.log([a_d, a_w, a_m]), [gamma]])


def _natural_terms(variant, rv, eps, k_max, clamp_floor):
    """Per-observation log-likelihood as a function of the natural vector
    (theta, delta, beta_d, beta_w, beta_m[, alpha_d, alpha_w, alpha_m,
    gamma_lev]); HARG carries the first five only."""
    w_beta = np.empty(N_LAGS)
    w_alpha = np.zeros(N_LAGS)

    def terms(x):
        theta, delta, b_d, b_w, b_m = x[:5]
        _spread_lags(w_beta, b_d, b_w, b_m)
        gamma = 0.0
        if variant != "HARG":
            a_d, a_w, a_m, gamma = x[5:]
            _spread_lags(w_alpha, a_d, a_w, a_m)
        lev = np.asarray(leverage(eps, rv, gamma, variant))
        return _loglik_vector(theta, delta, 0.0, w_beta, w_alpha, rv, lev,
                              k_max, clamp_floor)

    return terms


def _initial_guess(variant, rv, eps) -> np.ndarray:
    # HAR-style moment matching: regress RV on its daily/weekly/monthly
    # factors for the betas, read theta off the residual dispersion.
    f_d = rv[N_LAGS - 1:-1]
    rv_w = sliding_window_view(rv, N_LAGS)[:-1]
    f_w = rv_w[:, -5:-1].mean(axis=1)
    f_m = rv_w[:, :-5].mean(axis=1)
    target = rv[N_LAGS:]
    design = np.column_stack([np.ones_like(f_d), f_d, f_w, f_m])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    mean_rv = float(np.mean(rv))
    theta0 = max(float(np.var(resid)) / (2.0 * mean_rv), 1e-8)
    delta0 = 1.5
    slopes = np.clip(coef[1:], 1e-3, None) / theta0
    b_d0, b_w0, b_m0 = slopes
    if variant == "HARG":
        return _pack(variant, (theta0, delta0, b_d0, b_w0, b_m0, 0, 0, 0, 0))
    return _pack(variant, (theta0, delta0, b_d0, b_w0, b_m0,
                           0.2, 0.2, 0.2, 100.0))


def mle_fit(rv_series, returns, r: float, variant: str,
            k_max: int = DEFAULT_K_MAX,
            clamp_floor: float | None = None) -> FitResult:
    """Fit the variance dynamics of one variant by maximum likelihood.

    The market price of risk is estimated first by regression and held
    fixed while the gamma-transition likelihood is maximized over the
    remaining parameters (simplex search followed by a quasi-Newton polish
    with numerical gradients).  Robust standard errors come from the
    sandwich of the score outer-product and the observed information,
    delta-mapped back to the natural parameterization.
    """
    rv = np.asarray(rv_series, dtype=float)
    y = np.asarray(returns, dtype=float)
    lam_hat, lam_se = estimate_lambda(y, rv, r)
    eps = filter_innovations(y, rv, r, lam_hat)
    u0 = _initial_guess(variant, rv, eps)
    per_obs = _natural_terms(variant, rv, eps, k_max, clamp_floor)

    def negll(u):
        try:
            return -float(np.sum(per_obs(_unpack(variant, u))))
        except (LikelihoodDomainError, FloatingPointError, OverflowError):
            return _PENALTY

    nm = optimize.minimize(
        negll, u0, method="Nelder-Mead",
        options={"maxiter": 4000, "xatol": 1e-8, "fatol": 1e-10,
                 "adaptive": True},
    )
    polish = optimize.minimize(
        negll, nm.x, method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-9},
    )
    best = polish if polish.fun <= nm.fun else nm
    u_hat = best.x
    iterations = int(nm.nit + getattr(polish, "nit", 0))
    converged = bool(nm.success or polish.success) and best.fun < _PENALTY

    x_hat = _unpack(variant, u_hat)
    names = ["theta", "delta", "beta_d", "beta_w", "beta_m"]
    if variant != "HARG":
        names += ["alpha_d", "alpha_w", "alpha_m", "gamma_lev"]
    natural = {"alpha_d": 0.0, "alpha_w": 0.0, "alpha_m": 0.0,
               "gamma_lev": 0.0, **dict(zip(names, x_hat))}
    params = ModelParams(variant=variant, d=0.0, lam=lam_hat, r=r, **natural)

    se_native = _sandwich_errors(x_hat, per_obs)
    std_errors = dict(zip(names, se_native))
    std_errors["lam"] = lam_se

    return FitResult(
        params=params, loglik=-float(best.fun), std_errors=std_errors,
        persistence=stationarity_margin(params), converged=converged,
        iterations=iterations,
    )


# characteristic magnitudes used to floor the differentiation steps (and
# to condition the Hessian) when an estimate sits at or near zero
_NATURAL_SCALES = np.array([1e-5, 1.0, 1e4, 1e4, 1e4, 0.1, 0.1, 0.1, 100.0])


def _sandwich_errors(x_hat: np.ndarray, per_obs) -> np.ndarray:
    """Robust SEs from inv(info) @ score-outer-product @ inv(info).

    Scores and the observed information are central differences with steps
    that are 1e-5 relative to each parameter (floored at a characteristic
    magnitude, so boundary estimates near zero still differentiate well).
    Differentiation runs in scale-normalized coordinates x/s to keep the
    information matrix well-conditioned across ten orders of magnitude.
    """
    p = x_hat.size
    scale = np.maximum(np.abs(x_hat), _NATURAL_SCALES[:p])
    u_hat = x_hat / scale
    h = 1e-5

    def terms_u(u):
        return per_obs(u * scale)

    def shifted(i, sign):
        u = u_hat.copy()
        u[i] += sign * h
        return u

    # the 2p one-step shifts serve both the scores and the Hessian diagonal
    plus = [terms_u(shifted(i, +1)) for i in range(p)]
    minus = [terms_u(shifted(i, -1)) for i in range(p)]
    scores = np.column_stack([(plus[i] - minus[i]) / (2.0 * h)
                              for i in range(p)])
    opg = scores.T @ scores

    def total(u):
        return float(np.sum(terms_u(u)))

    f0 = total(u_hat)
    hess = np.empty((p, p))
    for i in range(p):
        hess[i, i] = (float(np.sum(plus[i])) - 2.0 * f0
                      + float(np.sum(minus[i]))) / h**2
        for j in range(i + 1, p):
            upp = shifted(i, +1)
            upp[j] += h
            upm = shifted(i, +1)
            upm[j] -= h
            ump = shifted(i, -1)
            ump[j] += h
            umm = shifted(i, -1)
            umm[j] -= h
            hess[i, j] = hess[j, i] = (
                total(upp) - total(upm) - total(ump) + total(umm)
            ) / (4.0 * h**2)
    info = -hess
    try:
        info_inv = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        info_inv = np.linalg.pinv(info)
    cov_u = info_inv @ opg @ info_inv
    var_x = np.clip(np.diag(cov_u), 0.0, None) * scale**2
    return np.sqrt(var_x)


def calibrate_nu1(params: ModelParams, target_iv: float,
                  maturity_days: int = 252,
                  state: MarketState | None = None) -> float:
    """Variance premium matching the model's ATM implied vol to a target.

    The target is the annualized at-the-money implied volatility at the
    given maturity; the model value is computed by COS pricing under the
    risk-neutral map for each candidate nu1, and the root is bracketed
    around the identity point nu1 = 1/8 - lam^2/2 (at which the map leaves
    the scale parameters untouched).
    """
    if not (0.0 < target_iv < 0.7):
        raise ValidationError("target IV must lie in (0, 0.7)")
    from .pricing import model_atm_iv

    def f(nu1):
        return model_atm_iv(params, nu1, maturity_days, state) - target_iv

    fixed_point = 0.125 - 0.5 * params.lam**2
    # nu1 below the fixed point inflates variance (theta* > theta), above
    # deflates it.  The mapped dynamics stays stationary only while
    # (1 - theta*y_star)^2 exceeds the physical-scale persistence evaluated
    # at the shifted gamma, which bounds how far down the bracket may go.
    p = parabolic_form(params)
    pers_star = stationarity_margin(replace(p, gamma_lev=_gamma_star(p)))
    if pers_star >= 1.0:
        raise CalibrationInfeasibleError(iv_low=np.nan, iv_high=np.nan,
                                         target=target_iv)
    y_star_max = (1.0 - np.sqrt(pers_star)) / p.theta
    lo = fixed_point - 0.98 * y_star_max
    hi = fixed_point + 20.0 / p.theta
    f_lo = None
    for _ in range(40):
        try:
            f_lo = f(lo)
            break
        except NumericalError:
            lo = fixed_point + 0.7 * (lo - fixed_point)
    if f_lo is None:
        raise CalibrationInfeasibleError(iv_low=np.nan, iv_high=np.nan,
                                         target=target_iv)
    f_hi = f(hi)
    if f_lo * f_hi > 0.0:
        iv_hi = f_lo + target_iv
        iv_lo = f_hi + target_iv
        raise CalibrationInfeasibleError(iv_low=min(iv_lo, iv_hi),
                                         iv_high=max(iv_lo, iv_hi),
                                         target=target_iv)
    root = optimize.brentq(f, lo, hi, xtol=1e-10, rtol=8.9e-16)
    return float(root)
