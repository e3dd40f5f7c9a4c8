"""Closed-form moment generating function of cumulative log-returns.

The conditional MGF E[exp(z * y_{t,T}) | F_t] is exponential-affine in the
22-lag state,

    mgf = exp( A + sum_i B_i RV[t+1-i] + sum_j C_j lev[t+1-j] ),

with coefficients obtained by a backward daily recursion from terminal
zeros.  One step evolves (A, B, C) through

    X   = (z - nu2)*lam + B_1 - nu1
          + ((z - nu2)^2/2 + g^2 C_1 - 2 C_1 g (z - nu2)) / (1 - 2 C_1)
    A  += z*r - log(1 - 2 C_1)/2 - delta*(w(X) - w(Y)) + d*(v(X) - v(Y))
    B_i = B_{i+1} + (v(X) - v(Y)) beta_i      (B_23 = 0)
    C_j = C_{j+1} + (v(X) - v(Y)) alpha_j

where v(x) = theta*x / (1 - theta*x) and w(x) = log(1 - x*theta) are the
noncentral-gamma moment transforms and Y = -nu2*lam - nu1 + nu2^2/2 is the
constant risk-premium tilt.  The physical measure is the special case
nu1 = nu2 = 0 (Y = 0); arbitrage-free risk-neutral premia have
nu2 = lam + 1/2, which makes mgf(1) = exp(r*T) hold identically.

The recursion is evaluated on the parabolic-leverage canonical form and
accepts complex z; the characteristic function is the MGF at z = i*u.
`_recurse` is the one implementation of the step, vectorized across a
whole z-grid in one pass.  Unrolled over T days the step gives
B_i = sum_j beta_{i+j-1} inc[T+1-j], zero past lag 22 (C_j likewise with
alpha), where inc[s] is day s's v(X) - v(Y).  So the loop keeps a ring of
the last 22 increments and forms B_1 and C_1 in one weight product per day;
the full B and C are formed once, after the last day, as a Hankel product.
`premia=None` means the physical measure P (nu1 = nu2 = Y = 0); given
premia select the tilted recursion, which is the risk-neutral Q when they
are arbitrage-free.  The tilt's scale 1 - theta*Y comes from model.py, the
single home of the measure change.

The cumulants kappa_n of y_{t,T} are the Taylor coefficients of the log-MGF
at z = 0, times n!.  `raw_cumulants` reads the first four from one FFT of
the log-MGF on a circle around the origin (a discretized Cauchy integral),
so they come from one complex-argument call of the same recursion, with no
difference step to tune.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, RecursionDomainError, ValidationError
from .model import (
    LagWeights,
    MarketState,
    ModelParams,
    N_LAGS,
    ParabolicForm,
    RiskPremia,
    _measure_scale,
    expand_weights,
    parabolic_form,
    parabolic_state,
    stationary_state,
)


def _guarded(values: np.ndarray, step: int, what: str) -> None:
    # Per-step branch guard: arguments of the logs must stay in the right
    # half-plane (which also keeps |arg| < pi/2, the principal branch);
    # raise instead of silently wrapping the branch.  NaN fails too.
    if not (values.real > 0.0).all():
        raise RecursionDomainError(step, f"{what} left the right half-plane")


def _recurse(p: ParabolicForm, weights: LagWeights, z: np.ndarray, horizon: int,
             premia: RiskPremia | None = None):
    """Run the backward recursion for a vector of z values.

    Returns (A, B, C) with shapes (n,), (n, 22), (n, 22).
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ValidationError(f"horizon must be a positive whole number of "
                              f"days, got {horizon!r}")
    theta, delta, d = p.theta, p.delta, p.d
    g = p.gamma_lev
    dtype = np.result_type(z.dtype, float)
    nu1, nu2, y_star = (0.0, 0.0, 0.0) if premia is None \
        else (premia.nu1, premia.nu2, premia.y_star)
    c = _measure_scale(theta, y_star)
    v_y = theta * y_star / c

    zs = z - nu2
    lin, quad, lev = zs * p.lam, 0.5 * zs * zs, g * g - 2.0 * g * zs
    a_day = z * p.r + delta * np.log(c) - d * v_y
    # ring[s % 22] holds day s's increment; rolled[s % 22] lines the
    # [beta; alpha] rows up with the ring after day s
    lags = np.arange(N_LAGS)
    w = np.stack([weights.beta, weights.alpha])
    rolled = np.stack([w[:, (s - lags) % N_LAGS] for s in lags]).astype(dtype)
    ring = np.zeros((N_LAGS, z.shape[0]), dtype)
    A = np.zeros(z.shape[0], dtype)
    for step in range(1, horizon + 1):
        B1, C1 = rolled[(step - 1) % N_LAGS] @ ring
        den = 1.0 - 2.0 * C1
        _guarded(den, step, "1 - 2*C_1")
        # nu1 is added on its own: X cancels against Y at the scale of |nu1|,
        # and rounding lin - nu1 first moves B by 1e-12 where it is 0 at z = 0
        X = lin + B1 - nu1 + (quad + lev * C1) / den
        one_minus = 1.0 - theta * X
        _guarded(one_minus, step, "1 - theta*X")
        v_x = theta * X / one_minus
        A += a_day - 0.5 * np.log(den) - delta * np.log(one_minus) + d * v_x
        ring[step % N_LAGS] = v_x - v_y
    # B[:, i] = sum_j beta[i + j] inc[T - j], 0-based and zero past lag 22,
    # likewise C: a Hankel product with the increments newest first
    padded = np.concatenate([w, np.zeros_like(w)], axis=1)
    B, C = padded[:, lags[:, None] + lags] @ ring[(horizon - lags) % N_LAGS]
    return A, B.T, C.T


def _evaluate(params, state, z, horizon, premia=None, log: bool = False):
    p = parabolic_form(params)
    st = parabolic_state(params, state if state is not None
                         else stationary_state(params))
    weights = expand_weights(p)
    z_arr = np.atleast_1d(np.asarray(z))
    scalar = np.ndim(z) == 0
    A, B, C = _recurse(p, weights, z_arr, horizon, premia)
    expo = A + B @ st.rv + C @ st.lev
    out = expo if log else np.exp(expo)
    return out[0] if scalar else out


def mgf_p(params: ModelParams | ParabolicForm, state: MarketState | None,
          z, horizon: int):
    """MGF of the T-day cumulative log-return under the physical measure.

    z may be a scalar or array, real or complex; state=None starts from the
    stationary state.
    """
    return _evaluate(params, state, z, horizon)


def mgf_q(params: ModelParams | ParabolicForm, state: MarketState | None,
          premia: RiskPremia, z, horizon: int):
    """MGF under the risk-neutral measure induced by the pricing kernel.

    Runs the tilted recursion directly on the physical parameters; with
    arbitrage-free premia this equals the physical recursion evaluated on
    the risk-neutral-mapped parameters.
    """
    return _evaluate(params, state, z, horizon, premia)


def log_mgf(params, state, z, horizon, premia: RiskPremia | None = None):
    """log E[exp(z y_{t,T})] under P (premia=None) or under the premia's Q.

    Real-argument calls stay in real arithmetic.
    """
    return _evaluate(params, state, z, horizon, premia, log=True)


class Cumulants(NamedTuple):
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


_CONTOUR_RADIUS = 0.125   # circle radius in guessed standard deviations


def raw_cumulants(params, state, horizon: int,
                  premia: RiskPremia | None = None) -> np.ndarray:
    """First four cumulants of y_{t,T} (under P when premia is None) as
    Taylor coefficients of the log-MGF g, by one FFT on a circle.

    On |z| = rho the 16-point trapezoidal rule for the Cauchy integral
    returns kappa_n rho^n / n! plus aliasing of order kappa_{n+16} rho^(n+16)
    / (n+16)! (Lyness & Moler 1967; Fornberg 1981).  g(conj z) = conj g(z),
    so g is evaluated on the 9 upper-half points only.  The radius is
    rho = _CONTOUR_RADIUS / sqrt(kappa2-guess), with the guess T * mean(rv).
    The Taylor terms scale like (z * sd)^n, so a circle measured in
    standard deviations keeps the roundoff, amplified by n!/rho^n, the same
    relative to sd^n at every horizon and state (a fixed rho = 1 loses
    kappa4 to roundoff at one day), and keeps the circle well inside the
    nearest singularity of g, a zero of 1 - theta*X, so the aliasing stays
    below that roundoff even when kappa2 runs several times past its guess.
    """
    st = state if state is not None else stationary_state(params)
    kappa2_guess = horizon * float(np.mean(st.rv))
    if not np.isfinite(kappa2_guess) or kappa2_guess <= 0.0:
        kappa2_guess = 1.0
    rho = _CONTOUR_RADIUS / np.sqrt(kappa2_guess)

    g = log_mgf(params, st, rho * np.exp(1j * np.pi * np.arange(9) / 8),
                horizon, premia=premia)
    if not np.all(np.isfinite(g)):
        raise NumericalError("log-MGF non-finite on the cumulant contour")
    n = np.arange(1, 5)
    return np.fft.irfft(np.conj(g), 16)[n] * np.array([1.0, 2.0, 6.0, 24.0]) \
        / rho ** n


def cumulants(params, state, horizon: int,
              premia: RiskPremia | None = None) -> Cumulants:
    """Mean, variance, skewness, and excess kurtosis of the T-day log-return.

    Under P when premia is None.  state=None uses the stationary state of
    `params` (which requires the persistence to be below one).
    """
    k1, k2, k3, k4 = (float(k) for k in
                      raw_cumulants(params, state, horizon, premia=premia))
    if k2 <= 0.0:
        raise NumericalError(f"nonpositive variance cumulant {k2:.3g}")
    return Cumulants(
        mean=k1,
        variance=k2,
        skewness=k3 / k2 ** 1.5,
        excess_kurtosis=k4 / k2 ** 2,
    )
