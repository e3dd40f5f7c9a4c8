"""Maximum-likelihood estimation, the market-price-of-risk regression,
and the variance-premium calibration.

The variance transition density is noncentral gamma, so the sample
log-likelihood is

    sum_t [ -RV_t/theta - Theta_{t-1}
            + log sum_{k>=0} RV_t^(delta+k-1) Theta_{t-1}^k
                             / (theta^(delta+k) Gamma(delta+k) k!) ]

with the Poisson mixture accumulated in log-space over k = 0..n-1.  Each
call sets n from its data: 91, doubled until the dropped tail of every
observation is below 1e-17 of its largest term, which a closed-form bound
checks on the observation of largest x_t Theta_{t-1}/theta.  Data that
would need more than 2912 terms raise LikelihoodDomainError.  The k = 0
term is essential: it carries the x^(delta-1) behavior of the density
near zero, and dropping it visibly biases the shape estimate on samples
containing low-variance days.  The market price of risk is estimated
first by regressing the centred, normalized log-returns on realized
volatility; the innovations filtered with that estimate feed the
leverage terms of the likelihood.

Theta_{t-1} is linear in the HAR aggregates (lag 1, mean of lags 2-5,
mean of lags 6-22) of RV and of leverage, and the mixture weights give
the exact per-observation scores through the posterior moments of k:

    dl/dTheta = E[k|x]/Theta - 1          (0 where Theta is clamped)
    dl/dtheta = x/theta^2 - (delta + E[k|x])/theta
    dl/ddelta = log x - log theta - E[psi(delta + k)|x]

dTheta/dbeta and dTheta/dalpha are the RV and leverage aggregates, and
dTheta/dgamma is alpha . the aggregates of d lev/d gamma, which is
-2 sqrt(RV)(eps - gamma sqrt(RV)) in parabolic and -2 eps sqrt(RV) in
zero-mean form.  Each term is log sum_k e^(a_k), so its Hessian is
E[Hess a_k | x] + Cov[grad a_k | x] (Louis 1982), from the posterior
moments of k, psi(delta + k), k^2, psi^2, k psi and psi'(delta + k).  The
second derivatives of a_k are -k/Theta^2 in Theta, (delta + k)/theta^2 -
2x/theta^3 in theta, -psi'(delta + k) in delta and -1/theta in theta and
delta.  Through Theta's Jacobian add dl/dTheta times d2Theta/dalpha dgamma
(the aggregates of d lev/d gamma) and, in parabolic form, d2Theta/dgamma^2
(alpha . the aggregates of 2 RV).  The fit searches in the coordinates
v = (theta, delta, theta*beta, theta*alpha[, gamma]): the data pin the
conditional mean theta*delta + theta*beta . f_rv + theta*alpha . f_lev,
so the products far better than theta and beta apart.

scipy serves the likelihood (gammaln, digamma, polygamma) and the fit
(L-BFGS-B) and is imported where they run, so the commands that never
fit start without it; the calibration's root search is `pricing._brent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CalibrationInfeasibleError,
    LikelihoodDomainError,
    NumericalError,
    ValidationError,
    _whole,
)
from .model import (
    MarketState,
    ModelParams,
    N_LAGS,
    _spread_lags,
    filter_innovations,
    leverage,
    risk_neutral_nu1,
    stationary_scale_floor,
)
from .pricing import _brent, model_atm_iv

# mixture width: 91 terms serve calm histories, and a narrower start would
# move the fit's rounding-led path; the ceiling is about 100 MB per
# (observations, terms) array at 4500 observations
_K_START = 91
_K_CEILING = _K_START * 2**5
_LOG_TAIL = math.log(1e-17)   # dropped mixture tail, relative to the peak term
_POSITIVE_FLOOR = 1e-8   # lower bound of theta and delta over their start
# the noncentrality floor of clamp=True fits
_CLAMP_FLOOR = 1e-12
# objective value where Theta <= 0: L-BFGS-B's line search backs off from a
# finite wall, while an infinite value ends the run as falsely converged
_PENALTY = 1e12


@dataclass
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    params: ModelParams
    loglik: float
    std_errors: dict         # robust (sandwich) SEs by name; NaN but lam's
                             # where the information is not positive definite
    converged: bool
    iterations: int          # L-BFGS-B iterations, summed over restarts


# natural parameter order; HARG carries the first five
_NAMES = ("theta", "delta", "beta_d", "beta_w", "beta_m",
          "alpha_d", "alpha_w", "alpha_m", "gamma_lev")
# (22, 3): a window of 22 values, oldest first, to its lag-1 value, mean of
# lags 2-5 and mean of lags 6-22; C-contiguous, as a strided view changes
# BLAS's reduction order and so the fits
_HAR_MEANS = np.ascontiguousarray(_spread_lags(np.eye(3)).T[::-1])


def _har_aggregates(series: np.ndarray) -> np.ndarray:
    # (n - 22, 3) aggregates seen by observations t = 22..n-1; window s
    # covers series[s..s+21], the 22 lags of observation t = s + 22
    return sliding_window_view(series, N_LAGS)[:-1] @ _HAR_MEANS


def _natural_terms(variant, rv, eps, clamp_floor):
    """Per-observation log-likelihood terms as a function of the natural
    vector (theta, delta, beta_d, beta_w, beta_m[, alpha_d, alpha_w,
    alpha_m, gamma_lev]); HARG carries the first five.

    `terms(x, order)` returns the terms (order 0), with their (n, p)
    scores (1, the default), and with the summed (p, p) Hessian (2).
    """
    from scipy.special import digamma, gammaln, polygamma

    # the 22-lag warm-up leaves no transition to score on shorter histories
    if rv.size < N_LAGS + 1:
        raise ValidationError(
            f"need at least {N_LAGS + 1} observations, got {rv.size}"
        )
    f_rv = _har_aggregates(rv)
    obs = rv[N_LAGS:]
    log_x = np.log(obs)
    vol = np.sqrt(rv)
    k_all = np.arange(_K_CEILING, dtype=float)
    log_k_fact = gammaln(k_all + 1.0)

    def terms(x, order=1):
        theta, delta = x[0], x[1]
        nc = f_rv @ x[2:5]
        if variant != "HARG":
            f_lev = _har_aggregates(leverage(eps, rv, x[8], variant))
            nc += f_lev @ x[5:8]
        inside = True       # rows whose Theta is not clamped
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
        # past the mode the term ratio rho(k) = e^s / ((delta+k)(k+1)) falls,
        # so the terms k >= n sum to at most term(n) / (1 - rho(n)); that
        # bound relative to the peak grows with s, so row i bounds every row
        i = int(np.argmax(s))
        s_i = float(s[i])
        n = _K_START
        while True:
            k = k_all[:n]
            a = np.outer(s, k)
            a -= gammaln(delta + k) + log_k_fact[:n]
            peak = a.max(axis=1)
            a -= peak[:, None]
            log_rho = s_i - math.log((delta + n) * (n + 1))
            if log_rho < 0.0 and float(a[i, -1]) + s_i \
                    - math.log((delta + n - 1) * n) \
                    - math.log1p(-math.exp(log_rho)) < _LOG_TAIL:
                break
            if n == _K_CEILING:
                raise LikelihoodDomainError(
                    i + N_LAGS, f"the noncentral gamma mixture needs more "
                    f"than {_K_CEILING} terms")
            n *= 2
        np.exp(a, out=a)
        total = a.sum(axis=1)
        ll = (delta - 1.0) * log_x - delta * np.log(theta) - obs / theta \
            - nc + peak + np.log(total)
        if order == 0:
            return ll
        # posterior moments given x_t of k, psi(delta + k) and, for the
        # Hessian, of k^2, psi^2, k psi and psi'(delta + k)
        psi = digamma(delta + k)
        cols = [k, psi] if order == 1 else \
            [k, psi, k * k, psi * psi, k * psi, polygamma(1, delta + k)]
        moments = (a @ np.column_stack(cols) / total[:, None]).T
        e_k, e_psi = moments[:2]
        d_nc = (e_k / nc - 1.0) * inside
        # dTheta/d(beta, alpha, gamma), one column each
        jac = f_rv
        if variant != "HARG":
            gap = eps if variant == "ZM-LHARG" else eps - x[8] * vol
            f_dlev = _har_aggregates(-2.0 * vol * gap)
            jac = np.column_stack([f_rv, f_lev, f_dlev @ x[5:8]])
        scores = np.column_stack([obs / theta**2 - (delta + e_k) / theta,
                                  log_x - np.log(theta) - e_psi,
                                  d_nc[:, None] * jac])
        if order == 1:
            return ll, scores
        var_k = moments[2] - e_k**2
        cov_kpsi = moments[4] - e_k * e_psi
        # d2l/dtheta dTheta, d2l/ddelta dTheta, d2l/dTheta2; 0 when clamped
        w = np.array([-var_k / (theta * nc), -cov_kpsi / nc,
                      (var_k - e_k) / nc**2]) * inside
        hess = np.zeros((jac.shape[1] + 2,) * 2)
        hess[0, :2] = np.sum([delta + e_k + var_k - 2.0 * obs / theta,
                              cov_kpsi - 1.0], axis=1) / [theta**2, theta]
        hess[1, 1] = np.sum(moments[3] - e_psi**2 - moments[5])
        hess[:2, 2:] = w[:2] @ jac
        hess[2:, 2:] = jac.T @ (w[2][:, None] * jac)
        if variant != "HARG":
            # d2Theta/dalpha dgamma, and alpha . agg(2 RV) in gamma twice
            hess[5:8, 8] += d_nc @ f_dlev
            if variant == "P-LHARG":
                hess[8, 8] += 2.0 * (d_nc @ f_rv) @ x[5:8]
        return ll, scores, np.triu(hess) + np.triu(hess, 1).T

    return terms


def loglik_terms(params: ModelParams, rv_series, eps_series,
                 clamp: bool = False) -> np.ndarray:
    """Per-observation log-likelihood contributions (after the 22-lag warm-up).

    Nonpositive noncentrality raises by default; clamp=True raises it to
    1e-12 instead, for zero-mean fits on pathological samples.
    A mixture that needs more than 2912 terms raises too.
    """
    rv = np.asarray(rv_series, dtype=float)
    eps = np.asarray(eps_series, dtype=float)
    if rv.shape != eps.shape:
        raise ValidationError("rv and eps series must be aligned")
    if np.any(rv <= 0.0):
        raise ValidationError("likelihood requires strictly positive variances")
    names = _NAMES[:5] if params.variant == "HARG" else _NAMES
    x = np.array([getattr(params, name) for name in names])
    return _natural_terms(params.variant, rv, eps,
                          _CLAMP_FLOOR if clamp else None)(x, 0)


def loglik(params: ModelParams, rv_series, eps_series,
           clamp: bool = False) -> float:
    """Total sample log-likelihood of the variance transitions."""
    return float(np.sum(loglik_terms(params, rv_series, eps_series, clamp)))


def estimate_lambda(returns, rv_series, r: float) -> tuple[float, float]:
    """Market price of risk by no-intercept least squares.

    Regresses (y_t - r)/sqrt(RV_t) on sqrt(RV_t); under the return equation
    the slope is lam and the residuals are the unit-variance innovations.
    """
    if not np.isfinite(r):
        raise ValidationError(f"risk-free rate must be finite, got {r!r}")
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
    # HAR-style moment matching in conditional-mean coordinates: the slopes
    # of RV on its daily/weekly/monthly factors are theta*beta, theta is
    # read off the residual dispersion, and theta*alpha starts at 0.2 theta
    f_rv = _har_aggregates(rv)
    target = rv[N_LAGS:]
    design = np.column_stack([np.ones_like(target), f_rv])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    theta0 = max(float(np.var(resid)) / (2.0 * float(np.mean(rv))), 1e-8)
    start = np.array([theta0, 1.5, *np.clip(coef[1:], 1e-3, None),
                      *[0.2 * theta0] * 3, 100.0])
    return start[:5] if variant == "HARG" else start


def mle_fit(rv_series, returns, r: float, variant: str,
            clamp: bool = False) -> FitResult:
    """Fit the variance dynamics of one variant by maximum likelihood.

    The market price of risk is estimated first by regression and held
    fixed while the gamma-transition likelihood is maximized over the
    remaining parameters by bounded L-BFGS-B on the exact scores, in the
    module's conditional-mean coordinates v over |v0|, v0 a HAR
    moment-matching guess, inside the box theta, delta >= 1e-8 |v0|,
    theta*beta, theta*alpha >= 0, gamma_lev free.  Where Theta <= 0
    (possible in the zero-mean variant) the objective is a finite wall; a
    run that met it restarts from where it stopped for as long as that
    gains, and a fit that never leaves it raises LikelihoodDomainError.
    `FitResult.converged` holds only if the run that ended the restarts
    succeeded without meeting the wall: a fit whose likelihood still rises
    toward Theta = 0 is reported as not converged.  clamp=True fits the
    likelihood of `loglik(clamp=True)`, which has no wall.
    `FitResult.iterations` counts L-BFGS-B iterations over all runs, each
    taking one or more likelihood-and-score evaluations.  Robust standard
    errors come from `_sandwich_errors` at the estimate: where the observed
    information is not positive definite, the transition parameters'
    errors are NaN (not available) and lam's stays.  A history needs one
    transition more than the variant has parameters after the 22-lag
    warm-up (28 observations for HARG, 32 for the LHARG variants), or
    ValidationError.
    """
    from scipy import optimize

    rv = np.asarray(rv_series, dtype=float)
    y = np.asarray(returns, dtype=float)
    # after the 22-lag warm-up, one transition more than the variant has
    # parameters: fewer leave the fit underdetermined
    n_min = N_LAGS + (5 if variant == "HARG" else len(_NAMES)) + 1
    if rv.size < n_min:
        raise ValidationError(
            f"{variant} needs at least {n_min} observations, got {rv.size}"
        )
    lam_hat, lam_se = estimate_lambda(y, rv, r)
    eps = filter_innovations(y, rv, r, lam_hat)
    per_obs = _natural_terms(variant, rv, eps,
                             _CLAMP_FLOOR if clamp else None)
    v0 = _initial_guess(variant, rv)
    scale = np.abs(v0)
    m = 5 if variant == "HARG" else 8   # slots 2..m-1 hold the products

    def natural_of(u):
        x = u * scale
        x[2:m] /= x[0]
        return x

    wall_hits = 0

    def negll(u):
        nonlocal wall_hits
        x = natural_of(u)
        try:
            terms, scores = per_obs(x)
        except LikelihoodDomainError:
            wall_hits += 1
            return _PENALTY, np.zeros_like(u)
        # chain rule at fixed products: d beta/d theta = -beta/theta
        g = scores.sum(axis=0)
        g[0] -= g[2:m] @ x[2:m] / x[0]
        g[2:m] /= x[0]
        return -float(np.sum(terms)), -g * scale

    bounds = [(_POSITIVE_FLOOR, None)] * 2 + [(0.0, None)] * (m - 2) \
        + [(None, None)] * (v0.size - m)
    best, start, iterations = None, v0 / scale, 0
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
    x_hat = natural_of(best.x)
    if best.fun == _PENALTY:
        # no run left the wall: the likelihood raises its own located error
        per_obs(x_hat, 0)
    names = _NAMES[:v0.size]
    natural = {"alpha_d": 0.0, "alpha_w": 0.0, "alpha_m": 0.0,
               "gamma_lev": 0.0, **dict(zip(names, x_hat))}
    params = ModelParams(variant=variant, d=0.0, lam=lam_hat, r=r, **natural)

    # scaled by the natural start: a parameter of x_hat may sit at 0
    errors = _sandwich_errors(x_hat, per_obs, np.abs(natural_of(v0 / scale)))
    std_errors = {**dict(zip(names, errors)), "lam": lam_se}

    return FitResult(
        params=params, loglik=-float(best.fun), std_errors=std_errors,
        converged=bool(run.success and wall_hits == hits),
        iterations=int(iterations),
    )


def _sandwich_errors(x_hat: np.ndarray, per_obs, scale: np.ndarray) -> np.ndarray:
    """Robust SEs from inv(info) @ score-outer-product @ inv(info), in
    the coordinates u = x / scale, from one call of `per_obs` at x_hat: the
    exact per-observation scores and the observed information, minus the
    exact Hessian.  Where the information is not positive definite (it has
    no Cholesky factor), every error is NaN (not available).
    """
    _, scores, hess = per_obs(x_hat, 2)
    try:
        root = np.linalg.cholesky(-hess * np.outer(scale, scale))
    except np.linalg.LinAlgError:
        return np.full(x_hat.size, np.nan)
    half = np.linalg.inv(root)
    # cov_u = B.T @ B for B = scores_u @ inv(info) = scores_u @ half.T @ half
    spread = (scores * scale) @ half.T @ half
    return np.sqrt(np.sum(spread**2, axis=0)) * scale


def calibrate_nu1(params: ModelParams, target_iv: float,
                  maturity_days: int, state: MarketState) -> float:
    """Variance premium matching the model's ATM implied vol to a target.

    The target is the annualized at-the-money implied volatility at the
    given maturity; the model value is computed by COS pricing under the
    risk-neutral map.  nu1 enters that map only through the scale c, so
    the root is sought in s = 1/c, in which the IV is close to linear, and
    mapped back to nu1 by `model.risk_neutral_nu1`.  The search first
    evaluates the identity point s = 1 (nu1 = 1/8 - lam^2/2, where the map
    leaves the scale parameters untouched), which lies strictly inside the
    bracket [1/21, s_max], and keeps only the half that holds the sign
    change; each point is evaluated once.  s_max lies below the inverse of
    `model.stationary_scale_floor`, past which the Q dynamics is not
    stationary.  The far end is evaluated only when that half holds no
    root, to report the attainable IV range.
    The root is resolved to xtol = 3e-12 in s, about 1e-10 relative in
    nu1 at market-level targets: the model IV carries rounding noise that
    leaves nu1 defined only to about 1e-8, so finer steps would chase it.
    """
    maturity_days = _whole("maturity_days", maturity_days, 1)
    if not (0.0 < target_iv < 0.7):
        raise ValidationError("target IV must lie in (0, 0.7)")

    floor = stationary_scale_floor(params)
    if floor >= 1.0:
        raise CalibrationInfeasibleError(iv_low=np.nan, iv_high=np.nan,
                                         target=target_iv)
    ivs: dict[float, float] = {}

    def f(s):
        if s not in ivs:
            ivs[s] = model_atm_iv(params, risk_neutral_nu1(params, 1.0 / s),
                                  maturity_days, state) - target_iv
        return ivs[s]

    def top():
        # s > 1 inflates variance, and the Q dynamics stays stationary only
        # while c = 1 - theta*y_star exceeds the floor: start at 98% of the
        # way there on theta*y_star and back off by 0.7 on each numerical
        # failure.
        ty = 0.98 * (1.0 - floor)
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
    root = _brent(f, *bracket, xtol=3e-12)
    return float(risk_neutral_nu1(params, 1.0 / root))
