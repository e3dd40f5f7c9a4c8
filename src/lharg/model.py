"""Model parameters, market state, and measure-change machinery.

The family modeled here drives daily log-returns by

    y[t+1] = r + lam * RV[t+1] + sqrt(RV[t+1]) * eps[t+1],   eps iid N(0,1)

with realized variance conditionally noncentral gamma,

    RV[t+1] | F[t] ~ ncgamma(delta, Theta_t, theta),

whose noncentrality Theta_t aggregates 22 lags of past variance and
leverage through daily / weekly / monthly factors:

    Theta_t = d + sum_i beta_i RV[t+1-i] + sum_j alpha_j lev[t+1-j]

The daily, weekly and monthly loadings spread evenly over 1, 4 and 17
lags; `expand_weights` returns the (2, 22) rows [beta; alpha].  One
parameter list serves every form: `ParabolicForm` is `ModelParams`
without the variant tag, and `parabolic_form`, the Q map and the
params-file keys are read off the dataclass fields.

Three variants are supported:

    HARG      no leverage (all alphas zero),
    P-LHARG   parabolic leverage  (eps - gamma*sqrt(RV))^2,
    ZM-LHARG  zero-mean leverage  eps^2 - 1 - 2*eps*gamma*sqrt(RV).

The zero-mean variant reduces algebraically to the parabolic form with
d = -(alpha_d + alpha_w + alpha_m) and beta_l -> beta_l - alpha_l*gamma^2;
the MGF recursion and the simulator work on that canonical parabolic form,
the likelihood (`estimate._natural_terms`) on the variant's own leverage
and loadings.  Parabolic leverage values are invariant under
the measure change (the shift of the innovation exactly offsets the shift
of gamma), so the engines take the state in parabolic values
(`parabolic_state`) and need no conversion under Q; only the zero-mean
*view* depends on gamma.

This module is the single home of the P -> Q measure change: the kernel's
tilt y_star, the scale c = 1 - theta*y_star and the shifted leverage
asymmetry gamma* = gamma + lam + 1/2 (`_gamma_star`) all live in
`risk_neutral_parabolic`, the one map from physical to risk-neutral
parameters.  No-arbitrage pins the equity premium at lam + 1/2, so the
variance premium nu1 is the one free premium: `nu1=None` means the
physical measure P throughout the package, and a finite nu1 selects the
risk-neutral Q, whose dynamics are again an LHARG.  `_measure_form` picks
the one or the other for the MGF recursion and the simulator alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import MappingSingularError, ValidationError

N_LAGS = 22
WEEKLY_LAGS = 4     # lags 2..5 share beta_w / 4
MONTHLY_LAGS = 17   # lags 6..22 share beta_m / 17
_HAR_SPANS = (1, WEEKLY_LAGS, MONTHLY_LAGS)   # lags per HAR factor

VARIANTS = ("HARG", "P-LHARG", "ZM-LHARG")


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one model variant.

    Units are daily and decimal throughout: theta and r in daily decimal
    variance / rate units, beta loadings in 1/variance, gamma_lev in
    1/volatility, lam (market price of risk) in 1/variance.
    """

    variant: str
    theta: float        # gamma scale
    delta: float        # gamma shape
    d: float            # noncentrality constant (0 for all stored variants)
    beta_d: float
    beta_w: float
    beta_m: float
    alpha_d: float
    alpha_w: float
    alpha_m: float
    gamma_lev: float    # leverage asymmetry
    lam: float          # market price of risk
    r: float            # daily risk-free rate

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if not (self.theta > 0 and self.delta > 0):
            raise ValidationError("theta and delta must be strictly positive")
        alphas = (self.alpha_d, self.alpha_w, self.alpha_m)
        betas = (self.beta_d, self.beta_w, self.beta_m)
        if self.variant == "HARG":
            if any(a != 0.0 for a in alphas) or self.d != 0.0:
                raise ValidationError("HARG requires all alphas = 0 and d = 0")
        elif self.variant == "P-LHARG":
            if self.d != 0.0:
                raise ValidationError("P-LHARG requires d = 0")
            if any(a < 0.0 for a in alphas) or any(b < 0.0 for b in betas):
                raise ValidationError(
                    "P-LHARG requires nonnegative alphas and betas"
                )
        else:  # ZM-LHARG is stored in its native (beta, alpha, gamma) form
            if self.d != 0.0:
                raise ValidationError("ZM-LHARG native form carries no constant")

    @property
    def is_zero_mean(self) -> bool:
        return self.variant == "ZM-LHARG"


@dataclass(frozen=True)
class ParabolicForm:
    """Canonical parabolic-leverage parameterization used by the engines.

    Identical fields as ModelParams minus the variant tag; d may be
    negative here (the zero-mean reduction has d = -sum(alpha)).
    """

    theta: float
    delta: float
    d: float
    beta_d: float
    beta_w: float
    beta_m: float
    alpha_d: float
    alpha_w: float
    alpha_m: float
    gamma_lev: float
    lam: float
    r: float


@dataclass(frozen=True)
class MarketState:
    """The 22 most recent daily realized variances and leverage values.

    Index 0 is today; index i is i days ago.  Leverage entries follow the
    variant convention of the parameters they are paired with (parabolic
    values for HARG / P-LHARG, zero-mean values for ZM-LHARG).
    """

    rv: np.ndarray   # (22,)
    lev: np.ndarray  # (22,)

    def __post_init__(self):
        rv = np.asarray(self.rv, dtype=float)
        lev = np.asarray(self.lev, dtype=float)
        if rv.shape != (N_LAGS,) or lev.shape != (N_LAGS,):
            raise ValidationError(
                f"state requires exactly {N_LAGS} lags of rv and leverage; "
                "shorter histories are rejected rather than zero-padded"
            )
        if np.any(rv < 0.0):
            raise ValidationError("realized variances must be nonnegative")
        object.__setattr__(self, "rv", rv)
        object.__setattr__(self, "lev", lev)


def parabolic_form(params: ModelParams | ParabolicForm) -> ParabolicForm:
    """Reduce params to the canonical parabolic-leverage parameterization.

    HARG and P-LHARG pass through unchanged; the zero-mean variant maps to
    d = -sum(alpha), beta_l -> beta_l - alpha_l * gamma^2.
    """
    if isinstance(params, ParabolicForm):
        return params
    p = ParabolicForm(**{f.name: getattr(params, f.name)
                         for f in fields(ParabolicForm)})
    if not params.is_zero_mean:
        return p
    g2 = p.gamma_lev**2
    return replace(p, d=-(p.alpha_d + p.alpha_w + p.alpha_m),
                   beta_d=p.beta_d - p.alpha_d * g2,
                   beta_w=p.beta_w - p.alpha_w * g2,
                   beta_m=p.beta_m - p.alpha_m * g2)


def parabolic_state(params: ModelParams | ParabolicForm,
                    state: MarketState) -> MarketState:
    """Express the state's leverage lags as (measure-invariant) parabolic values.

    For the zero-mean view, lev_parabolic = lev_zm + gamma^2 * rv + 1.
    """
    if isinstance(params, ParabolicForm) or not params.is_zero_mean:
        return state
    g2 = params.gamma_lev**2
    return MarketState(rv=state.rv, lev=state.lev + g2 * state.rv + 1.0)


def expand_weights(params: ModelParams | ParabolicForm) -> np.ndarray:
    """The (2, 22) rows [beta; alpha] of per-lag weights.

    Lag 1 carries the daily loading, lags 2-5 share the weekly loading in
    four equal parts, lags 6-22 share the monthly loading in seventeen;
    column 0 pairs with today's values.
    """
    return _spread_lags(np.array([
        [params.beta_d, params.beta_w, params.beta_m],
        [params.alpha_d, params.alpha_w, params.alpha_m]]))


def _spread_lags(loadings: np.ndarray) -> np.ndarray:
    # (..., 3) daily/weekly/monthly loadings to their (..., 22) lag weights:
    # shared by expand_weights and the likelihood
    return np.repeat(loadings / _HAR_SPANS, _HAR_SPANS, axis=-1)


def leverage(eps, rv, gamma_lev: float, variant: str):
    """Daily leverage value for the given innovation and variance.

    Parabolic (HARG, P-LHARG): (eps - gamma*sqrt(rv))^2.
    Zero-mean (ZM-LHARG):      eps^2 - 1 - 2*eps*gamma*sqrt(rv).

    Accepts scalars or arrays; negative rv is a domain error.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    rv = np.asarray(rv, dtype=float)
    if np.any(rv < 0.0):
        raise ValidationError("leverage requires nonnegative realized variance")
    vol = np.sqrt(rv)
    if variant == "ZM-LHARG":
        out = eps**2 - 1.0 - 2.0 * eps * gamma_lev * vol
    else:
        out = (eps - gamma_lev * vol) ** 2
    return out if out.ndim else float(out)


def theta_noncentrality(params: ModelParams | ParabolicForm,
                        state: MarketState) -> float:
    """Noncentrality of tomorrow's variance draw given the current 22-lag
    state: d plus the `expand_weights` rows dotted with its rv and leverage.

    The leverage entries of `state` must follow the convention of `params`.
    May be negative for the zero-mean variant; negativity is reported by the
    callers that cannot tolerate it, not here.
    """
    beta, alpha = expand_weights(params)
    return float(params.d + beta @ state.rv + alpha @ state.lev)


def stationarity_margin(params: ModelParams | ParabolicForm) -> float:
    """Persistence theta * (sum(beta) + gamma^2 * sum(alpha)) of the variance process.

    Computed on the parabolic reduction; the process is stationary iff the
    returned value is below one.
    """
    p = parabolic_form(params)
    sb = p.beta_d + p.beta_w + p.beta_m
    sa = p.alpha_d + p.alpha_w + p.alpha_m
    return p.theta * (sb + p.gamma_lev**2 * sa)


def _gamma_star(params: ModelParams | ParabolicForm) -> float:
    # leverage asymmetry after the full premium shift
    return params.gamma_lev + params.lam + 0.5


def _finite_nu1(nu1: float) -> float:
    # nu1 itself, which must be finite: the one check of the premium
    if not np.isfinite(nu1):
        raise ValidationError(f"nu1 must be finite, got {nu1!r}")
    return nu1


# the fields risk_neutral_parabolic divides by the scale c
_SCALE_FIELDS = ("theta", "d", "beta_d", "beta_w", "beta_m",
                 "alpha_d", "alpha_w", "alpha_m")


def risk_neutral_parabolic(pform: ParabolicForm, nu1: float) -> ParabolicForm:
    """Map the parabolic form into the risk-neutral dynamics of premium nu1.

    The kernel's tilt is y_star = -lam^2/2 - nu1 + 1/8, with the equity
    premium at lam + 1/2 where no-arbitrage pins it.  With c = 1 -
    theta*y_star the scale parameters (theta, d, betas, alphas) rescale by
    1/c, delta is unchanged, gamma becomes gamma + lam + 1/2 and lam -1/2.
    A non-finite nu1 raises ValidationError, and c <= 0 MappingSingularError.
    """
    y_star = -0.5 * pform.lam**2 - _finite_nu1(nu1) + 0.125
    c = 1.0 - pform.theta * y_star
    if c <= 0.0:
        raise MappingSingularError(
            f"theta * y_star = {pform.theta * y_star:.6g} >= 1; "
            "risk-neutral scale undefined"
        )
    return replace(pform, **{n: getattr(pform, n) / c for n in _SCALE_FIELDS},
                   gamma_lev=_gamma_star(pform), lam=-0.5)


def _measure_form(params: ModelParams | ParabolicForm,
                  nu1: float | None) -> ParabolicForm:
    # the parabolic form of the P (nu1=None) or the Q dynamics
    p = parabolic_form(params)
    return p if nu1 is None else risk_neutral_parabolic(p, nu1)


def filter_innovations(returns, rv, r: float, lam: float) -> np.ndarray:
    """Recover the standard-normal innovations from returns and variances.

    Inverts the return equation: eps_t = (y_t - r - lam*rv_t) / sqrt(rv_t).
    """
    y = np.asarray(returns, dtype=float)
    rv = np.asarray(rv, dtype=float)
    if y.shape != rv.shape:
        raise ValidationError("returns and rv series must be aligned")
    bad = np.flatnonzero(rv <= 0.0)
    if bad.size:
        raise ValidationError(
            f"degenerate variance at index {bad[0]}: rv = {rv[bad[0]]:.6g}"
        )
    return (y - r - lam * rv) / np.sqrt(rv)


def stationary_mean_rv(params: ModelParams | ParabolicForm) -> float:
    """Unconditional mean of the variance process.

    Solves E[RV] = theta * (delta + d + sum(beta) E[RV] + sum(alpha) E[lev])
    with E[lev] = 1 + gamma^2 E[RV] for the parabolic kernel; the zero-mean
    reduction gives the same fixed point with E[lev_zm] = 0.
    """
    p = parabolic_form(params)
    margin = stationarity_margin(p)
    if margin >= 1.0:
        raise ValidationError(f"persistence {margin:.4f} >= 1: no stationary mean")
    sa = p.alpha_d + p.alpha_w + p.alpha_m
    return p.theta * (p.delta + p.d + sa) / (1.0 - margin)


def stationary_state(params: ModelParams | ParabolicForm) -> MarketState:
    """State with every lag pinned at its unconditional mean.

    Leverage lags are set to E[lev] in the convention of `params`: zero for
    the zero-mean view, 1 + gamma^2 E[RV] for the parabolic one.
    """
    m = stationary_mean_rv(params)
    zero_mean = isinstance(params, ModelParams) and params.is_zero_mean
    lev_mean = 0.0 if zero_mean else 1.0 + params.gamma_lev**2 * m
    return MarketState(rv=np.full(N_LAGS, m), lev=np.full(N_LAGS, lev_mean))


def state_from_series(params: ModelParams, rv, returns) -> MarketState:
    """Build today's 22-lag state from the tail of aligned RV/return series.

    Innovations are filtered with the model's own lam; requires at least
    22 observations (no implicit padding).
    """
    rv = np.asarray(rv, dtype=float)
    y = np.asarray(returns, dtype=float)
    if rv.shape != y.shape:
        raise ValidationError("rv and returns series must be aligned")
    if rv.size < N_LAGS:
        raise ValidationError(
            f"need at least {N_LAGS} observations to form a state, got {rv.size}"
        )
    tail_rv = rv[-N_LAGS:]
    tail_y = y[-N_LAGS:]
    eps = filter_innovations(tail_y, tail_rv, params.r, params.lam)
    lev = leverage(eps, tail_rv, params.gamma_lev, params.variant)
    # index 0 = today: reverse the chronological tail
    return MarketState(rv=tail_rv[::-1].copy(), lev=np.asarray(lev)[::-1].copy())
