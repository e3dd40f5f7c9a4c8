"""Closed-form moment generating function of cumulative log-returns.

The conditional MGF E[exp(z * y_{t,T}) | F_t] is exponential-affine in the
22-lag state,

    mgf = exp( A + sum_i B_i RV[t+1-i] + sum_j C_j lev[t+1-j] ),

with coefficients obtained by a backward daily recursion from terminal
zeros.  On the parabolic-leverage canonical form one step evolves (A, B, C)
through

    X   = z*lam + B_1 + (z^2/2 + g^2 C_1 - 2 C_1 g z) / (1 - 2 C_1)
    A  += z*r - log(1 - 2 C_1)/2 - delta*w(X) + d*v(X)
    B_i = B_{i+1} + v(X) beta_i      (B_23 = 0)
    C_j = C_{j+1} + v(X) alpha_j

where v(x) = theta*x / (1 - theta*x) and w(x) = log(1 - x*theta) are the
noncentral-gamma moment transforms.

The step is the same under both measures, since under an arbitrage-free
pricing kernel the risk-neutral dynamics are again an LHARG.  `nu1=None`
runs it on the physical parameters (P); a variance premium nu1 runs it on
the parameters of `model.risk_neutral_parabolic` (scale parameters over
c, gamma + lam + 1/2, lam = -1/2), the risk-neutral Q, for which
mgf(1) = exp(r*T) holds exactly: X is 0 every day at z = 1.  model.py is
the single home of that measure change and of its check on nu1.

The recursion accepts complex z; the characteristic function is the MGF
at z = i*u.  `_steps` is the one implementation of the step, vectorized
across a whole z-grid in one pass.  Unrolled over T days the step gives
B_i = sum_j beta_{i+j-1} inc[T+1-j], zero past lag 22 (C_j likewise with
alpha), where inc[s] is day s's v(X).  So the loop keeps a ring of the
last 22 increments and forms B_1 and C_1 in one weight product per day,
a real (2, 22) x (22, 2n) product on the float view of a complex ring (the
weights are real); the full B and C are formed once, after the last day,
as a Hankel product.

The step map does not depend on the day, so the coefficients for horizon
T are the loop's iterates after T days, and one pass serves many horizons
(`_log_mgf_segments`): z-segments sorted longest horizon first, each
point at its own rate (r enters only A's daily z*r); on the day a
segment's horizon ends its B and C are formed and dotted with its state,
and its columns drop off the end of the active prefix.  A pass that
leaves the domain raises the RecursionDomainError of the first point to
leave it, with that point's step and message, which its segment raises
alone too.  It is the one route into the loop: `mgf_p`, `mgf_q` and
`log_mgf` are its one-segment case.

The cumulants kappa_n of y_{t,T} are the Taylor coefficients of the log-MGF
at z = 0, times n!.  `raw_cumulants` reads the first four from one FFT of
the log-MGF on a circle around the origin (a discretized Cauchy integral),
so they come from one complex-argument call of the same recursion, with no
difference step to tune: the one-segment case of `_cumulant_segments`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, RecursionDomainError, _whole
from .model import (
    MarketState,
    ModelParams,
    N_LAGS,
    ParabolicForm,
    _measure_form,
    expand_weights,
    parabolic_form,
    parabolic_state,
    theta_noncentrality,
)


def _guarded(values: np.ndarray, step: int, what: str) -> None:
    # Per-step branch guard: arguments of the logs must stay in the right
    # half-plane (which also keeps |arg| < pi/2, the principal branch);
    # raise instead of silently wrapping the branch.  NaN fails too, and
    # an empty array passes.
    if not values.real.min(initial=np.inf) > 0.0:
        raise RecursionDomainError(step, f"{what} left the right half-plane")


def _steps(p: ParabolicForm, w: np.ndarray, z: np.ndarray, r, segments):
    """The backward loop over consecutive segments of z, with the
    `expand_weights` rows w of p.

    `segments` lists (size, horizon) pairs, horizons non-increasing and
    sizes adding up to len(z); r is the rate, a scalar or one per point.
    Yields (segment index, (A, B, C)) on the day the segment's horizon
    ends, and raises RecursionDomainError on the day a point of a segment
    not yet yielded leaves the domain.
    """
    theta, delta, d = p.theta, p.delta, p.d
    g = p.gamma_lev
    dtype = np.result_type(z.dtype, float)
    lin, quad, lev = z * p.lam, 0.5 * z * z, g * g - 2.0 * g * z
    a_day = z * r
    # ring[s % 22] holds day s's increment; rolled[s % 22] lines the
    # [beta; alpha] rows up with the ring after day s.  The weights are
    # real, so the day's product runs on the ring's float view.
    lags = np.arange(N_LAGS)
    rolled = np.stack([w[:, (s - lags) % N_LAGS] for s in lags])
    # B[:, i] = sum_j beta[i + j] inc[T - j], 0-based and zero past lag 22,
    # likewise C: a Hankel product with the increments newest first
    hankel = np.concatenate([w, np.zeros_like(w)], axis=1)[:, lags[:, None]
                                                           + lags]
    ring = np.zeros((N_LAGS, z.shape[0]), dtype)
    flat = ring.view(float)
    A = np.zeros(z.shape[0], dtype)
    # live segments (index, first column, horizon): the columns before
    # the last one's first are the active prefix
    stops = np.cumsum([size for size, _ in segments], dtype=int)
    live = [(k, stop - size, h)
            for k, ((size, h), stop) in enumerate(zip(segments, stops))]
    step = 1
    while live:
        B1, C1 = (rolled[(step - 1) % N_LAGS] @ flat).view(dtype)
        den = 1.0 - 2.0 * C1
        _guarded(den, step, "1 - 2*C_1")
        X = lin + B1 + (quad + lev * C1) / den
        tx = theta * X
        one_minus = 1.0 - tx
        _guarded(one_minus, step, "1 - theta*X")
        v_x = tx / one_minus
        A += a_day - 0.5 * np.log(den) - delta * np.log(one_minus) + d * v_x
        ring[step % N_LAGS] = v_x
        while live and live[-1][2] == step:
            k, lo, _ = live.pop()
            # B and C as transposed views of one (2, 22, m) product: B @ rv
            # on a contiguous copy would round differently
            yield k, (A[lo:], *(hankel @ ring[(step - lags) % N_LAGS,
                                              lo:]).transpose(0, 2, 1))
            ring, A, lin, quad, lev, a_day = (
                v[..., :lo] for v in (ring, A, lin, quad, lev, a_day))
            flat = ring.view(float)
        step += 1


_PASS_POINTS = 1024   # z-points per shared pass: bounds the ring and temporaries


def _log_mgf_segments(params, nu1: float | None, segments) -> list:
    """log-MGF values of (z, horizon, rate, state) segments, under P when
    nu1 is None, each at its own rate, in the order given.

    A bad horizon raises ValidationError before any pass.  The segments
    share backward passes, longest horizon first, in chunks of up to
    _PASS_POINTS points (a longer segment runs alone), and each segment's
    coefficients are dotted with its state on the day its horizon ends.
    A pass that leaves the domain raises the RecursionDomainError that the
    failing segment raises alone; errors of the measure map raise too.
    """
    for _, horizon, _, _ in segments:
        _whole("horizon", horizon, 1)
    p = _measure_form(params, nu1)
    w = expand_weights(p)
    order = sorted(range(len(segments)), key=lambda k: -segments[k][1])
    chunks, points = [], 0
    for k in order:
        size = len(segments[k][0])
        if not chunks or points + size > _PASS_POINTS:
            chunks.append([])
            points = 0
        chunks[-1].append(k)
        points += size
    out: list = [None] * len(segments)
    for chunk in chunks:
        parts = [segments[k] for k in chunk]
        z = np.concatenate([zk for zk, _, _, _ in parts])
        r = np.concatenate([np.full(len(zk), rate) for zk, _, rate, _ in parts])
        for j, res in _steps(p, w, z, r,
                             [(len(zk), h) for zk, h, _, _ in parts]):
            # the log-MGF A + B @ rv + C @ lev on the segment's state;
            # rebinding res frees this B and C before the pass forms the
            # next
            st = parabolic_state(params, parts[j][3])
            res = res[0] + res[1] @ st.rv + res[2] @ st.lev
            out[chunk[j]] = res
    return out


def _evaluate(params, state, z, horizon, nu1=None, log: bool = False):
    # one segment of the shared pass, at the rate of params
    out, = _log_mgf_segments(params, nu1, [(np.atleast_1d(z), horizon,
                                            params.r, state)])
    if not log:
        out = np.exp(out)
    return out[0] if np.ndim(z) == 0 else out


def mgf_p(params: ModelParams | ParabolicForm, state: MarketState,
          z, horizon: int):
    """MGF of the T-day cumulative log-return under the physical measure.

    z may be a scalar or array, real or complex.
    """
    return _evaluate(params, state, z, horizon)


def mgf_q(params: ModelParams | ParabolicForm, state: MarketState,
          nu1: float, z, horizon: int):
    """MGF under the risk-neutral measure of variance premium nu1.

    Runs the physical recursion on the parameters `risk_neutral_parabolic`
    maps params to under nu1, which raises for a non-finite nu1 or one with
    no positive scale.  The state is the physical one: its parabolic
    leverage values are the same under both measures.
    """
    return _evaluate(params, state, z, horizon, nu1)


def log_mgf(params, state, z, horizon, nu1: float | None = None):
    """log E[exp(z y_{t,T})] under P (nu1=None) or under nu1's Q.

    Real-argument calls stay in real arithmetic.
    """
    return _evaluate(params, state, z, horizon, nu1, log=True)


class Cumulants(NamedTuple):
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


_CONTOUR_RADIUS = 0.125   # circle radius in guessed standard deviations


def _cumulant_segments(params, nu1: float | None, segments) -> list:
    """kappa_1..kappa_4 of (horizon, rate, state) segments, under P when
    nu1 is None, in the order given, from one shared pass over their
    `raw_cumulants` circles.  Raises what that pass raises, and
    NumericalError for a log-MGF non-finite on a circle.
    """
    p = parabolic_form(params)
    radii = []
    for horizon, _, state in segments:
        nc = theta_noncentrality(p, parabolic_state(params, state))
        kappa2_guess = (_whole("horizon", horizon, 1) * p.theta
                        * (p.delta + max(nc, 0.0)))
        if not np.isfinite(kappa2_guess) or kappa2_guess <= 0.0:
            kappa2_guess = 1.0
        radii.append(_CONTOUR_RADIUS / np.sqrt(kappa2_guess))
    # the 9 upper-half points of each circle |z| = rho
    circle = np.exp(1j * np.pi * np.arange(9) / 8)
    logs = _log_mgf_segments(params, nu1, [
        (rho * circle, *seg) for rho, seg in zip(radii, segments)])
    n = np.arange(1, 5)
    out: list = []
    for rho, g in zip(radii, logs):
        if not np.all(np.isfinite(g)):
            raise NumericalError("log-MGF non-finite on the cumulant contour")
        out.append(np.fft.irfft(np.conj(g), 16)[n]
                   * np.array([1.0, 2.0, 6.0, 24.0]) / rho ** n)
    return out


def raw_cumulants(params, state, horizon: int,
                  nu1: float | None = None) -> np.ndarray:
    """First four cumulants of y_{t,T} (under P when nu1 is None) as
    Taylor coefficients of the log-MGF g, by one FFT on a circle: the
    one-segment case of `_cumulant_segments`, at the rate of params.

    On |z| = rho the 16-point trapezoidal rule for the Cauchy integral
    returns kappa_n rho^n / n! plus aliasing of order kappa_{n+16} rho^(n+16)
    / (n+16)! (Lyness & Moler 1967; Fornberg 1981).  g(conj z) = conj g(z),
    so g is evaluated on the 9 upper-half points only.  The radius is
    rho = _CONTOUR_RADIUS / sqrt(kappa2-guess), with the guess T times the
    next day's variance theta * (delta + max(Theta, 0)) from the state.
    The Taylor terms scale like (z * sd)^n, so a circle measured in
    standard deviations keeps the roundoff, amplified by n!/rho^n, the same
    relative to sd^n at every horizon and state (a fixed rho = 1 loses
    kappa4 to roundoff at one day), and keeps the circle well inside the
    nearest singularity of g, a zero of 1 - theta*X, so the aliasing stays
    below that roundoff even when kappa2 runs several times past its guess.
    """
    return _cumulant_segments(params, nu1, [(horizon, params.r, state)])[0]


def cumulants(params, state, horizon: int,
              nu1: float | None = None) -> Cumulants:
    """Mean, variance, skewness, and excess kurtosis of the T-day log-return
    from the given state, under P when nu1 is None.
    """
    k1, k2, k3, k4 = (float(k) for k in
                      raw_cumulants(params, state, horizon, nu1=nu1))
    if k2 <= 0.0:
        raise NumericalError(f"nonpositive variance cumulant {k2:.3g}")
    return Cumulants(
        mean=k1,
        variance=k2,
        skewness=k3 / k2 ** 1.5,
        excess_kurtosis=k4 / k2 ** 2,
    )
