"""Closed-form moment generating function of cumulative log-returns.

The conditional MGF E[exp(z * y_{t,T}) | F_t] is exponential-affine in the
22-lag state,

    mgf = exp( A + z*r*T + sum_i B_i RV[t+1-i] + sum_j C_j lev[t+1-j] ),

with coefficients obtained by a backward daily recursion from terminal
zeros.  On the parabolic-leverage canonical form one step evolves (A, B, C)
through

    X   = z*lam + B_1 + (z^2/2 + g^2 C_1 - 2 C_1 g z) / (1 - 2 C_1)
    A  += -log(1 - 2 C_1)/2 - delta*w(X) + d*v(X)
    B_i = B_{i+1} + v(X) beta_i      (B_23 = 0)
    C_j = C_{j+1} + v(X) alpha_j

where v(x) = theta*x / (1 - theta*x) and w(x) = log(1 - x*theta) are the
noncentral-gamma moment transforms.  The rate adds z*r to A every day
and nothing else, so the loop runs without it and adds z*r*T after it.

The step is the same under both measures, since under an arbitrage-free
pricing kernel the risk-neutral dynamics are again an LHARG.  `nu1=None`
runs it on the physical parameters (P); a variance premium nu1 runs it on
the parameters that `model.risk_neutral_parabolic` maps them to, the
risk-neutral Q, for which mgf(1) = exp(r*T) holds exactly: X is 0 every
day at z = 1.  model.py is the single home of that measure change and of
its check on nu1.

The recursion accepts complex z; the characteristic function is the MGF
at z = i*u.  `_steps` is the one implementation of the step, vectorized
across a whole z-grid in one pass.  Unrolled over T days the step gives
B_i = sum_j beta_{i+j-1} inc[T+1-j], zero past lag 22 (C_j likewise with
alpha), where inc[s] is day s's v(X).  So the loop keeps a ring of the
last 22 increments and forms theta*B_1 and -2*C_1 in one real weight
product per day on the float view of the ring; the full B and C are
formed once, after the last day, as a Hankel product.  With quad =
theta*(z^2/2 + z*lam) and lin = theta*(z*lam - (g^2 - 2gz)/2) formed once,
theta*X = theta*B_1 + (quad + lin*(-2*C_1))/(1 - 2*C_1) takes four
in-place ops, and v(X) goes straight into the ring.  The logs, the domain
checks and the A update wait for the end of a block of days, so that
their per-call cost is paid once per block: the block holds each day's
two log arguments, whose logs are taken in real arithmetic (log1p for the
modulus, arctan2 for the argument), and the ring holds its v(X).

The step map does not depend on the day, so the coefficients for horizon
T are the loop's iterates after T days, and one pass serves many horizons
(`_log_mgf_segments`): z-segments sorted longest horizon first; on the
day a segment's horizon ends its B and C are formed and dotted with its
state, its own rate adds z*r*T, and its columns drop off the end of the
active prefix.  A pass that leaves the domain raises the
RecursionDomainError of the first point to leave it, with that point's
step and message, which its segment raises alone too.  It is the one
route into the loop: `mgf_p`, `mgf_q` and `log_mgf` are its one-segment
case.

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
    theta_noncentrality,
)


def _guarded(values: np.ndarray, step: int, what: str) -> None:
    # Branch guard: arguments of the logs must stay in the right
    # half-plane (which also keeps |arg| < pi/2, the principal branch);
    # raise instead of silently wrapping the branch.  NaN fails too, and
    # an empty array passes.
    if not values.real.min(initial=np.inf) > 0.0:
        raise RecursionDomainError(step, f"{what} left the right half-plane")


_LOG_ARGS = ("1 - 2*C_1", "1 - theta*X")
# Days per block of logs, checks and A updates, which saves their per-day
# calls at a few points; a block holds 2 complex values per point and day,
# 512 bytes a point at 16.  At most N_LAGS, so that the ring still holds
# the block's v(X), and one constant, so that no column's bits depend on
# its pass-mates.
_BLOCK = 16


def _checked_logs(args: np.ndarray, first: int) -> None:
    """Replace the (days, 2, n) log arguments args of days first,
    first + 1, ... by their principal logs, in place, once each day's
    pair passes `_guarded`: the first failing (day, argument) raises.

    Complex logs run in real arithmetic: arg x = arctan2(Im x, Re x) and
    log|x| = log1p((Re x - 1)(Re x + 1) + (Im x)^2) / 2, accurate near
    |x| = 1.  A block with a modulus below 1/sqrt(2), where that argument
    of log1p nears -1 and loses its digits, or one whose square overflows,
    is left to the complex log; `_steps` runs this under its np.errstate,
    which keeps the overflow quiet.
    """
    re = args.real
    if not re.min(initial=np.inf) > 0.0:
        day, what = divmod(int(np.flatnonzero(
            (~(re > 0.0)).any(axis=2))[0]), 2)
        _guarded(args[day, what], first + day, _LOG_ARGS[what])
    if not np.iscomplexobj(args):
        np.log(args, out=args)
        return
    im = args.imag
    mod = re - 1.0
    mod *= re + 1.0
    mod += im * im
    if not (-0.5 < mod.min(initial=0.0) and mod.max(initial=0.0) < np.inf):
        np.log(args, out=args)
        return
    # a new array: an arctan2 into the strided view rounds by its shape
    im[...] = np.arctan2(im, re)
    np.log1p(mod, out=mod)
    np.multiply(mod, 0.5, out=re)


def _steps(p: ParabolicForm, w: np.ndarray, z: np.ndarray, segments):
    """The backward loop over consecutive segments of z, with the
    `expand_weights` rows w of p.

    `segments` lists (size, horizon) pairs, horizons non-increasing and
    sizes adding up to len(z).
    Yields (segment index, (A, B, C)) on the day the segment's horizon
    ends, and raises the RecursionDomainError of the first day on which a
    point of a segment not yet yielded leaves the domain.

    The logs and the domain checks run once per block of _BLOCK days,
    blocks counted from day 1, so that no column's arithmetic depends on
    which segments share its pass.  Each day writes its log arguments
    1 - 2*C_1 and 1 - theta*X to its row of the (_BLOCK, 2, n) block and
    v(X) to its ring row, and does no more than the weight product, the
    folded theta*X and v(X).  At a block's end, and on a segment's last
    day, `_checked_logs` checks the rows not yet checked and takes their
    logs; their sums, and the sum of v(X) over the ring rows of the same
    days, give the block's gain in A,
    -(sum log(1 - 2*C_1)/2 + delta*sum log(1 - theta*X)) + d*sum v(X):
    added to A at the block's end, and to the segment's own A alone when
    it ends mid-block.  A point that has left the domain runs on to the
    check under an np.errstate that covers the days' arithmetic and the
    block's logs, and is never open across a yield.
    """
    theta, delta, d, g = p.theta, p.delta, p.d, p.gamma_lev
    n = z.shape[0]
    dtype = np.result_type(z.dtype, float)
    quad = theta * (0.5 * z * z + z * p.lam)
    lin = theta * (z * p.lam - 0.5 * (g * g - 2.0 * g * z))
    # ring[s % 22] holds day s's increment; rolled[s % 22] lines the
    # [theta*beta; -2 alpha] rows up with the ring after day s.  Both are
    # split into rows once, and the ring and block again when a segment
    # drops off.
    lags = np.arange(N_LAGS)
    rolled = list(np.stack([w[:, (s - lags) % N_LAGS] for s in lags])
                  * np.array([[theta], [-2.0]]))
    # B[:, i] = sum_j beta[i + j] inc[T - j], 0-based and zero past lag 22,
    # likewise C: a Hankel product with the increments newest first;
    # hankel[..., (s - lags) % 22] takes them in ring order after day s
    hankel = np.concatenate([w, np.zeros_like(w)], axis=1)[:, lags[:, None]
                                                           + lags]
    ring = np.zeros((N_LAGS, n), dtype)
    block = np.empty((_BLOCK, 2, n), dtype)
    flat, rows, days = ring.view(float), list(ring), [tuple(b) for b in block]
    A = np.zeros(n, dtype)
    # live segments (index, first column, horizon): the columns before
    # the last one's first are the active prefix
    stops = np.cumsum([size for size, _ in segments], dtype=int)
    live = [(k, stop - size, h)
            for k, ((size, h), stop) in enumerate(zip(segments, stops))]
    first, checked = 1, 0   # the block's first day, and its rows checked
    while live:
        if checked == _BLOCK:
            first, checked = first + _BLOCK, 0
        last = min(first + _BLOCK - 1, live[-1][2])
        with np.errstate(all="ignore"):
            for step in range(first + checked, last + 1):
                # X holds -2*C_1, then theta*X
                B1, X = (rolled[(step - 1) % N_LAGS] @ flat).view(dtype)
                den, one_minus = days[step - first]
                np.add(X, 1.0, out=den)
                X *= lin
                X += quad
                X /= den
                X += B1
                np.subtract(1.0, X, out=one_minus)
                np.divide(X, one_minus, out=rows[step % N_LAGS])
            # the day's temporaries go before the logs' own
            del B1, X
            _checked_logs(block[checked:last + 1 - first], first + checked)
        checked = last + 1 - first
        # sums of log(1 - 2*C_1) and log(1 - theta*X), and of v(X)
        logs = block[:checked].sum(axis=0)
        gain = (d * ring.take(range(first, last + 1), axis=0, mode="wrap")
                .sum(axis=0) - (0.5 * logs[0] + delta * logs[1]))
        del logs
        if checked == _BLOCK:
            A += gain
        while live and live[-1][2] == last:
            k, lo, _ = live.pop()
            # B and C as transposed views of one (2, 22, m) product: B @ rv
            # on a contiguous copy would round differently
            yield k, (A[lo:] if checked == _BLOCK else A[lo:] + gain[lo:],
                      *(hankel[..., (last - lags) % N_LAGS] @ ring[:, lo:]
                        ).transpose(0, 2, 1))
            ring, block, A, gain, lin, quad = (
                v[..., :lo] for v in (ring, block, A, gain, lin, quad))
            flat, rows = ring.view(float), list(ring)
            days = [tuple(b) for b in block]


# z-points per shared pass: bounds the ring, the block of logs and the
# temporaries
_PASS_POINTS = 1024


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
        for j, res in _steps(p, w, z, [(len(zk), h) for zk, h, _, _ in parts]):
            # the log-MGF A + z*r*T + B @ rv + C @ lev on the segment's
            # state; rebinding res frees this B and C before the pass forms
            # the next
            zk, h, rate, st = parts[j]
            res = res[0] + zk * (rate * h) + res[1] @ st.rv + res[2] @ st.lev
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


def _contours(params, segments) -> list:
    """The `raw_cumulants` circles of (horizon, rate, state) segments, as
    (z, horizon, rate, state) segments of 9 points each, for
    `_log_mgf_segments`.
    """
    p = parabolic_form(params)
    # the 9 upper-half points of each circle |z| = rho
    circle = np.exp(1j * np.pi * np.arange(9) / 8)
    out = []
    for horizon, rate, state in segments:
        nc = theta_noncentrality(p, state)
        kappa2_guess = (_whole("horizon", horizon, 1) * p.theta
                        * (p.delta + max(nc, 0.0)))
        if not np.isfinite(kappa2_guess) or kappa2_guess <= 0.0:
            kappa2_guess = 1.0
        rho = _CONTOUR_RADIUS / np.sqrt(kappa2_guess)
        out.append((rho * circle, horizon, rate, state))
    return out


def _contour_cumulants(z, g) -> np.ndarray:
    """kappa_1..kappa_4 from the log-MGF g on a `_contours` circle z.
    Raises NumericalError for a g that is not finite."""
    if not np.all(np.isfinite(g)):
        raise NumericalError("log-MGF non-finite on the cumulant contour")
    rho = z[0].real     # the circle's first point is rho * 1, exactly
    n = np.arange(1, 5)
    return (np.fft.irfft(np.conj(g), 16)[n]
            * np.array([1.0, 2.0, 6.0, 24.0]) / rho ** n)


def _cumulant_segments(params, nu1: float | None, segments) -> list:
    """kappa_1..kappa_4 of (horizon, rate, state) segments, under P when
    nu1 is None, in the order given, from one shared pass over their
    `raw_cumulants` circles.  Raises what that pass raises, and
    NumericalError for a log-MGF non-finite on a circle.
    """
    circles = _contours(params, segments)
    return [_contour_cumulants(c[0], g) for c, g in
            zip(circles, _log_mgf_segments(params, nu1, circles))]


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
