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

Theta_{t-1} is linear in the HAR aggregates (lag 1, mean of lags 2-5,
mean of lags 6-22) of RV and of leverage, and the mixture weights give
the exact per-observation scores through the posterior moments of k:

    dl/dTheta = E[k|x]/Theta - 1          (0 where Theta is clamped)
    dl/dtheta = x/theta^2 - (delta + E[k|x])/theta
    dl/ddelta = log x - log theta - E[psi(delta + k)|x]

dTheta/dbeta and dTheta/dalpha are the RV and leverage aggregates, and
dTheta/dgamma is alpha . the aggregates of d lev/d gamma, which is
-2 sqrt(RV)(eps - gamma sqrt(RV)) in parabolic and -2 eps sqrt(RV) in
zero-mean form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize
from scipy.special import digamma, gammaln

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
    filter_innovations,
    leverage,
    parabolic_form,
    stationarity_margin,
)

DEFAULT_K_MAX = 90
_POSITIVE_FLOOR = 1e-8   # lower bound of theta and delta over their start
# objective value where Theta <= 0: L-BFGS-B's line search backs off from a
# finite wall, while an infinite value ends the run as falsely converged
_PENALTY = 1e12


@dataclass
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    params: ModelParams
    loglik: float
    std_errors: dict         # per-parameter robust (sandwich) standard errors
    persistence: float
    converged: bool
    iterations: int          # L-BFGS-B iterations, summed over restarts


# natural parameter order; HARG carries the first five
_NAMES = ("theta", "delta", "beta_d", "beta_w", "beta_m",
          "alpha_d", "alpha_w", "alpha_m", "gamma_lev")
# (22, 3): a window of 22 values, oldest first, to its lag-1 value, mean of
# lags 2-5 and mean of lags 6-22
_HAR_MEANS = np.column_stack([_spread_lags(np.empty(N_LAGS), *unit)[::-1]
                              for unit in np.eye(3)])


def _har_aggregates(series: np.ndarray) -> np.ndarray:
    # (n - 22, 3) aggregates seen by observations t = 22..n-1; window s
    # covers series[s..s+21], the 22 lags of observation t = s + 22
    return sliding_window_view(series, N_LAGS)[:-1] @ _HAR_MEANS


def _natural_terms(variant, rv, eps, k_max, clamp_floor):
    """Per-observation log-likelihood terms and their (n, p) scores as a
    function of the natural vector (theta, delta, beta_d, beta_w, beta_m[,
    alpha_d, alpha_w, alpha_m, gamma_lev]); HARG carries the first five.

    `terms(x)` returns (terms, scores); `terms(x, scores=False)` the terms.
    """
    f_rv = _har_aggregates(rv)
    obs = rv[N_LAGS:]
    log_x = np.log(obs)
    vol = np.sqrt(rv)
    k = np.arange(0, k_max + 1, dtype=float)
    log_k_fact = gammaln(k + 1.0)

    def terms(x, scores=True):
        theta, delta = x[0], x[1]
        nc = f_rv @ x[2:5]
        if variant != "HARG":
            f_lev = _har_aggregates(leverage(eps, rv, x[8], variant))
            nc += f_lev @ x[5:8]
        inside = None
        if clamp_floor is not None:
            inside = nc >= clamp_floor
            nc = np.maximum(nc, clamp_floor)
        else:
            bad = np.flatnonzero(nc <= 0.0)
            if bad.size:
                raise LikelihoodDomainError(
                    int(bad[0]) + N_LAGS, f"nonpositive noncentrality "
                    f"{nc[bad[0]]:.6g} in the likelihood")
        # mixture term k of the transition density, rearranged around the
        # per-observation scale s_t = log(x_t * Theta_t / theta):
        #   (delta+k-1) log x - (delta+k) log theta - lnG(delta+k)
        #     + k log Theta - lnG(k+1)
        #   = (delta-1) log x - delta log theta + k s_t - lnG(delta+k) - lnG(k+1)
        s = log_x + np.log(nc) - np.log(theta)
        a = np.outer(s, k)
        a -= gammaln(delta + k) + log_k_fact
        peak = a.max(axis=1)
        a -= peak[:, None]
        np.exp(a, out=a)
        total = a.sum(axis=1)
        ll = (delta - 1.0) * log_x - delta * np.log(theta) - obs / theta \
            - nc + peak + np.log(total)
        if not scores:
            return ll
        # posterior moments E[k | x_t] and E[psi(delta + k) | x_t]
        e_k, e_psi = (a @ np.column_stack([k, digamma(delta + k)])
                      / total[:, None]).T
        d_nc = e_k / nc - 1.0
        if inside is not None:
            d_nc *= inside
        cols = [obs / theta**2 - (delta + e_k) / theta,
                log_x - np.log(theta) - e_psi, d_nc[:, None] * f_rv]
        if variant != "HARG":
            gap = eps if variant == "ZM-LHARG" else eps - x[8] * vol
            d_lev = _har_aggregates(-2.0 * vol * gap) @ x[5:8]
            cols += [d_nc[:, None] * f_lev, d_nc * d_lev]
        return ll, np.column_stack(cols)

    return terms


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
    names = _NAMES[:5] if params.variant == "HARG" else _NAMES
    x = np.array([getattr(params, name) for name in names])
    return _natural_terms(params.variant, rv, eps, k_max, clamp_floor)(
        x, scores=False)


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


def _initial_guess(variant, rv) -> np.ndarray:
    # HAR-style moment matching: regress RV on its daily/weekly/monthly
    # factors for the betas, read theta off the residual dispersion.
    f_rv = _har_aggregates(rv)
    target = rv[N_LAGS:]
    design = np.column_stack([np.ones_like(target), f_rv])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    theta0 = max(float(np.var(resid)) / (2.0 * float(np.mean(rv))), 1e-8)
    slopes = np.clip(coef[1:], 1e-3, None) / theta0
    start = np.array([theta0, 1.5, *slopes, 0.2, 0.2, 0.2, 100.0])
    return start[:5] if variant == "HARG" else start


def mle_fit(rv_series, returns, r: float, variant: str,
            k_max: int = DEFAULT_K_MAX,
            clamp_floor: float | None = None) -> FitResult:
    """Fit the variance dynamics of one variant by maximum likelihood.

    The market price of risk is estimated first by regression and held
    fixed while the gamma-transition likelihood is maximized over the
    remaining parameters by one bounded L-BFGS-B run on the exact scores.
    The run starts from a HAR moment-matching guess x0 and works in the
    natural coordinates divided by |x0|, inside the box theta, delta >=
    1e-8 |x0| (strictly positive), beta, alpha >= 0, gamma_lev free.
    Where Theta <= 0 (possible in the zero-mean variant) the objective is
    a finite wall; a run that met it restarts from where it stopped for as
    long as that gains.  `FitResult.converged` holds only if the run that
    ended the restarts succeeded without meeting the wall: a fit whose
    likelihood still rises toward Theta = 0 is reported as not converged.
    `FitResult.iterations` counts L-BFGS-B iterations over all runs, each
    taking one or more likelihood-and-score evaluations.  Robust standard
    errors come from `_sandwich_errors`.
    """
    rv = np.asarray(rv_series, dtype=float)
    y = np.asarray(returns, dtype=float)
    lam_hat, lam_se = estimate_lambda(y, rv, r)
    eps = filter_innovations(y, rv, r, lam_hat)
    x0 = _initial_guess(variant, rv)
    scale = np.abs(x0)
    per_obs = _natural_terms(variant, rv, eps, k_max, clamp_floor)

    wall_hits = 0

    def negll(u):
        nonlocal wall_hits
        try:
            terms, scores = per_obs(u * scale)
        except LikelihoodDomainError:
            wall_hits += 1
            return _PENALTY, np.zeros_like(u)
        return -float(np.sum(terms)), -scores.sum(axis=0) * scale

    bounds = [(_POSITIVE_FLOOR, None)] * 2 + [(0.0, None)] * (x0.size - 2)
    if variant != "HARG":
        bounds[-1] = (None, None)
    best, start, iterations = None, x0 / scale, 0
    while True:
        hits = wall_hits
        run = optimize.minimize(
            negll, start, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": 1000, "ftol": 1e-14, "gtol": 1e-8},
        )
        iterations += run.nit
        if best is not None and run.fun >= best.fun - 1e-12 * abs(best.fun):
            break
        best = run
        # the line search stalls where it backs off the Theta <= 0 wall; a
        # fresh start from the stall resumes the climb along the wall
        if wall_hits == hits:
            break
        start = run.x
    x_hat = best.x * scale
    names = _NAMES[:x0.size]
    natural = {"alpha_d": 0.0, "alpha_w": 0.0, "alpha_m": 0.0,
               "gamma_lev": 0.0, **dict(zip(names, x_hat))}
    params = ModelParams(variant=variant, d=0.0, lam=lam_hat, r=r, **natural)

    std_errors = dict(zip(names, _sandwich_errors(x_hat, per_obs, scale)))
    std_errors["lam"] = lam_se

    return FitResult(
        params=params, loglik=-float(best.fun), std_errors=std_errors,
        persistence=stationarity_margin(params),
        converged=bool(run.success and wall_hits == hits),
        iterations=int(iterations),
    )


def _sandwich_errors(x_hat: np.ndarray, per_obs, scale: np.ndarray) -> np.ndarray:
    """Robust SEs from inv(info) @ score-outer-product @ inv(info).

    Both matrices are formed in the coordinates u = x / scale.  The score
    outer product sums the exact per-observation scores at x_hat.  The
    observed information is minus the Hessian, whose column i is the
    central difference of the summed analytic score over u_i +- 1e-5, made
    symmetric; that is 1 + 2p calls of `per_obs`.
    """
    p = x_hat.size
    h = 1e-5
    _, scores = per_obs(x_hat)
    scores = scores * scale
    opg = scores.T @ scores
    hess = np.empty((p, p))
    for i in range(p):
        step = np.zeros(p)
        step[i] = h * scale[i]
        hess[i] = (per_obs(x_hat + step)[1].sum(axis=0)
                   - per_obs(x_hat - step)[1].sum(axis=0)) * scale / (2.0 * h)
    info = -0.5 * (hess + hess.T)
    try:
        info_inv = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        info_inv = np.linalg.pinv(info)
    cov_u = info_inv @ opg @ info_inv
    return np.sqrt(np.clip(np.diag(cov_u), 0.0, None)) * scale


def calibrate_nu1(params: ModelParams, target_iv: float,
                  maturity_days: int = 252,
                  state: MarketState | None = None) -> float:
    """Variance premium matching the model's ATM implied vol to a target.

    The target is the annualized at-the-money implied volatility at the
    given maturity; the model value is computed by COS pricing under the
    risk-neutral map.  nu1 enters that map only through the scale
    c = 1 - theta*y_star, so the root is sought in s = 1/c, in which the
    IV is close to linear, and mapped back by
    nu1 = (1/8 - lam^2/2) - (1 - 1/s)/theta.  The search first evaluates
    the identity point s = 1 (nu1 = 1/8 - lam^2/2, where the map leaves
    the scale parameters untouched), which lies strictly inside the
    bracket [1/21, s_max], and keeps only the half that holds the sign
    change; each point is evaluated once.  The far end is evaluated only
    when that half holds no root, to report the attainable IV range.
    The root is resolved to xtol = 3e-12 in s, about 1e-10 relative in
    nu1 at market-level targets: the model IV carries rounding noise that
    leaves nu1 defined only to about 1e-8, so finer steps would chase it.
    """
    if not (0.0 < target_iv < 0.7):
        raise ValidationError("target IV must lie in (0, 0.7)")
    from .pricing import model_atm_iv

    fixed_point = 0.125 - 0.5 * params.lam**2
    p = parabolic_form(params)
    pers_star = stationarity_margin(replace(p, gamma_lev=_gamma_star(p)))
    if pers_star >= 1.0:
        raise CalibrationInfeasibleError(iv_low=np.nan, iv_high=np.nan,
                                         target=target_iv)
    ivs: dict[float, float] = {}

    def nu1_of(s):
        return fixed_point - (1.0 - 1.0 / s) / p.theta

    def f(s):
        if s not in ivs:
            ivs[s] = model_atm_iv(params, nu1_of(s), maturity_days,
                                  state) - target_iv
        return ivs[s]

    def top():
        # s > 1 inflates variance.  The mapped dynamics stays stationary
        # only while c^2 exceeds the physical-scale persistence at the
        # shifted gamma: start at 98% of that limit on theta*y_star and
        # back off by 0.7 on each numerical failure.
        ty = 0.98 * (1.0 - np.sqrt(pers_star))
        for _ in range(40):
            s = 1.0 / (1.0 - ty)
            try:
                f(s)
                return s
            except NumericalError:
                ty *= 0.7
        return None

    low = 1.0 / 21.0            # nu1 = 1/8 - lam^2/2 + 20/theta
    if f(1.0) >= 0.0:
        bracket = (low, 1.0) if f(low) <= 0.0 else None
        high = None if bracket else top()
    else:
        high = top()
        bracket = (1.0, high) if high is not None and f(high) >= 0.0 else None
    if bracket is None:
        ends = (np.nan, np.nan) if high is None else \
            sorted((f(low) + target_iv, f(high) + target_iv))
        raise CalibrationInfeasibleError(iv_low=ends[0], iv_high=ends[1],
                                         target=target_iv)
    return float(nu1_of(optimize.brentq(f, *bracket, xtol=3e-12)))
