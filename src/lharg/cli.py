"""Command-line surface tying the pipeline together.

Subcommands: estimate, calibrate, price, simulate, cumulants, evaluate,
mgf-check.  Every command writes machine-readable CSV (or a params file)
and prints a human summary; exit codes are 0 on success, 2 for validation
errors, 3 for numerical failures, 4 for infeasible calibrations.

The measure follows the variance premium nu1, taken from --nu1, else the
params file's nu1 key: `simulate` runs Q when nu1 is known and P when not;
`cumulants` and `mgf-check` report P, then Q when nu1 is known; `price`
prices under Q and needs nu1.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import io as lio
from .errors import (
    CalibrationInfeasibleError,
    LhargError,
    ValidationError,
)
from .estimate import calibrate_nu1, mle_fit
from .mgf import cumulants, log_mgf
from .model import (
    ModelParams,
    N_LAGS,
    _finite,
    state_from_series,
    stationarity_margin,
    stationary_state,
)
from .options import FILTER_RULES, filter_options
from .pricing import price_chain, rmse_iv
from .simulate import _recorded_days, _snapshot_runs, mc_mgf_from_samples

_NU1_HELP = "selects measure Q; default: the params file's nu1, else P"

# Table-layout column order for estimation output
_ESTIMATE_COLUMNS = ("lambda", "theta", "delta", "beta_d", "beta_w", "beta_m",
                     "alpha_d", "alpha_w", "alpha_m", "gamma", "loglik",
                     "persistence")

MATURITY_GRID = (1, 5, 22, 63, 126, 252)

_M_BUCKETS = ((0.8, 0.9), (0.9, 0.98), (0.98, 1.02), (1.02, 1.1), (1.1, 1.2))
_TAU_BUCKETS = ((0, 50), (50, 90), (90, 160), (160, 10**9))

# the columns `price` writes and `evaluate` reads
_PRICED_COLUMNS = (*lio.CHAIN_COLUMNS, "market_iv", "model_price", "model_iv",
                   "error")


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lharg",
        description="Realized-volatility option pricing with heterogeneous "
                    "gamma dynamics and leverage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="maximum-likelihood fit on RV/returns")
    p.add_argument("--rv", required=True, help="RV CSV (date,rv)")
    p.add_argument("--returns", required=True,
                   help="returns CSV (date,log_return)")
    p.add_argument("--variant", default="ZM-LHARG",
                   choices=["HARG", "P-LHARG", "ZM-LHARG"])
    p.add_argument("--rate", type=float, default=0.0, help="daily risk-free rate")
    p.add_argument("--clamp", action="store_true",
                   help="clamp nonpositive noncentrality to 1e-12 instead of "
                        "raising")
    p.add_argument("--out", default="fit_params.txt", help="params file out")
    p.add_argument("--csv", default="fit_row.csv", help="CSV row out")

    p = sub.add_parser("calibrate", help="solve the variance premium nu1")
    p.add_argument("--params", required=True, help="params file from estimate")
    p.add_argument("--target-iv", type=float, required=True,
                   help="annualized ATM implied-vol target")
    p.add_argument("--maturity", type=_positive_int, default=252)
    p.add_argument("--rv", help="RV CSV for the conditioning state")
    p.add_argument("--returns", help="returns CSV for the conditioning state")
    p.add_argument("--out", default="nu1.txt")

    p = sub.add_parser("price", help="price an option chain by COS")
    p.add_argument("--params", required=True)
    p.add_argument("--nu1", type=float,
                   help="variance premium; default: the params file's nu1")
    p.add_argument("--chain", required=True)
    p.add_argument("--rv", help="RV CSV for quote-date states")
    p.add_argument("--returns", help="returns CSV for quote-date states")
    p.add_argument("--no-filter", action="store_true",
                   help="price the raw chain without the OTM screen")
    p.add_argument("--out", default="priced_chain.csv")

    p = sub.add_parser("simulate", help="simulate daily paths")
    p.add_argument("--params", required=True)
    p.add_argument("--days", type=_positive_int, default=252)
    p.add_argument("--paths", type=_positive_int, default=10000)
    p.add_argument("--nu1", type=float, help=_NU1_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--rv", help="RV CSV for the start state")
    p.add_argument("--returns", help="returns CSV for the start state")
    p.add_argument("--out", default="simulation_summary.csv")
    p.add_argument("--dump", help="optional .npz of rv_paths and y_paths; "
                   "only with it are the whole path arrays held")

    p = sub.add_parser("cumulants", help="cumulant term structure")
    p.add_argument("--params", required=True)
    p.add_argument("--nu1", type=float, help=_NU1_HELP)
    p.add_argument("--horizons", default="5,22,63,126,252",
                   help="comma-separated day counts")
    p.add_argument("--rv", help="RV CSV for the conditioning state")
    p.add_argument("--returns", help="returns CSV for the conditioning state")
    p.add_argument("--out", default="cumulants.csv")

    p = sub.add_parser("evaluate", help="RMSE panels from priced-chain CSV")
    p.add_argument("--results", required=True,
                   help="CSV produced by the price subcommand")
    p.add_argument("--out", default="rmse_panels.csv")

    p = sub.add_parser("mgf-check", help="MC vs analytic MGF validation")
    p.add_argument("--params", required=True)
    p.add_argument("--nu1", type=float, help=_NU1_HELP)
    p.add_argument("--paths", type=_positive_int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="mgf_check.csv")
    return parser


def _load_history(rv_path, returns_path):
    """The RV and returns series, which must cover the same dates."""
    if not (rv_path and returns_path):
        raise ValidationError("--rv and --returns go together: missing "
                              + ("--returns" if rv_path else "--rv"))
    rv = lio.load_rv_series(rv_path)
    ret = lio.load_returns(returns_path)
    if rv.dates != ret.dates:
        raise ValidationError("rv and returns files cover different dates")
    return rv, ret


def _cmd_estimate(args) -> int:
    rv, ret = _load_history(args.rv, args.returns)
    fit = mle_fit(rv.values, ret.values, args.rate, args.variant,
                  clamp=args.clamp)
    p = fit.params
    persistence = stationarity_margin(p)
    lio.save_params(args.out, p, extras={
        "loglik": fit.loglik, "persistence": persistence,
        "converged": int(fit.converged), "iterations": fit.iterations,
    })
    _write_csv(args.csv, _ESTIMATE_COLUMNS, [[
        p.lam, p.theta, p.delta, p.beta_d, p.beta_w, p.beta_m,
        p.alpha_d, p.alpha_w, p.alpha_m, p.gamma_lev, fit.loglik,
        persistence]])
    print(f"{args.variant} fit on {len(rv)} observations "
          f"({'converged' if fit.converged else 'NOT converged'}, "
          f"{fit.iterations} iterations)")
    for name in ("theta", "delta", "beta_d", "beta_w", "beta_m",
                 "alpha_d", "alpha_w", "alpha_m", "gamma_lev", "lam"):
        se = fit.std_errors.get(name)
        se_text = "" if se is None else " (n/a)" if np.isnan(se) \
            else f" ({se:.4g})"
        print(f"  {name:10s} = {getattr(p, name):.6g}{se_text}")
    print(f"  loglik     = {fit.loglik:.4f}")
    print(f"  persistence= {persistence:.4f}")
    print(f"params -> {args.out}; CSV row -> {args.csv}")
    return 0


def _cmd_calibrate(args) -> int:
    params, _ = lio.load_params(args.params)
    state = _chain_states(params, [None], args.rv, args.returns)[None]
    nu1 = calibrate_nu1(params, args.target_iv, args.maturity, state)
    with open(args.out, "w") as fh:
        fh.write(f"nu1 = {nu1!r}\n")
    print(f"calibrated nu1 = {nu1:.6f} "
          f"(target ATM IV {args.target_iv:.4f} at {args.maturity} days)")
    print(f"-> {args.out}")
    return 0


def _chain_states(params: ModelParams, dates, rv_path, returns_path):
    """The MarketState on each of dates, keyed by date: the stationary state
    without --rv/--returns, else the state from the history up to and
    including the date.  The date None stands for the history's last date."""
    if not (rv_path or returns_path):
        return dict.fromkeys(dates, stationary_state(params))
    rv, ret = _load_history(rv_path, returns_path)
    index = {d: i for i, d in enumerate(rv.dates)}
    index[None] = len(rv) - 1
    states = {}
    for date in dates:
        if date in states:
            continue
        i = index.get(date)
        if i is None:
            raise ValidationError(f"no RV history for quote date {date}")
        if i + 1 < N_LAGS:
            raise ValidationError(
                f"fewer than {N_LAGS} observations up to and including "
                + ("the last date" if date is None else str(date)))
        states[date] = state_from_series(
            params, rv.values[:i + 1], ret.values[:i + 1])
    return states


def _cmd_price(args) -> int:
    params, extras = lio.load_params(args.params)
    nu1 = _nu1(args, extras)
    if nu1 is None:
        raise ValidationError("price needs nu1 (--nu1 or the params file's "
                              "nu1 key)")
    chain = lio.load_option_chain(args.chain)
    if not args.no_filter:
        report = filter_options(chain)
        rejected = ", ".join(f"{r}={report.rejections[r]}"
                             for r in FILTER_RULES)
        print(f"filter: kept {len(report.chain)}/{report.n_input} "
              f"(rejected: {rejected})")
        chain = report.chain
    states = _chain_states(params, [q.quote_date for q in chain], args.rv,
                           args.returns)
    rows = price_chain(params, nu1, chain, states)
    _write_csv(args.out, _PRICED_COLUMNS, [
        [q.quote_date.isoformat(), q.expiry_date.isoformat(), repr(q.strike),
         q.option_type, repr(q.mid_price), repr(q.underlying), repr(q.rate),
         repr(q.market_iv), repr(row.model_price), repr(row.model_iv),
         row.error or ""]
        for row in rows for q in [row.quote]])
    # load_option_chain fills every quote's market_iv
    good = [r for r in rows if r.error is None]
    line = f"priced {len(good)}/{len(rows)} quotes"
    if good:
        err = rmse_iv([r.quote.market_iv for r in good],
                      [r.model_iv for r in good])
        line += f"; RMSE_IV = {err:.4f}"
    print(line)
    print(f"-> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    params, extras = lio.load_params(args.params)
    nu1 = _nu1(args, extras)
    state = _chain_states(params, [None], args.rv, args.returns)[None]
    days = _recorded_days(params, state, args.days, args.paths, nu1,
                          args.seed, args.burn_in)
    if args.dump:
        paths = np.empty((2, args.days, args.paths))
    rows, clamps = [], 0
    for t, (r, s, c) in enumerate(days, start=1):
        if args.dump:
            paths[:, t - 1] = r, s
        cells = (r.mean(), r.var(), *np.quantile(r, [0.05, 0.5, 0.95]),
                 s.mean(), s.var())
        rows.append([t] + [repr(float(x)) for x in cells])
        clamps += c
    _write_csv(args.out, ["day", "rv_mean", "rv_var", "rv_q05", "rv_q50",
                          "rv_q95", "y_mean", "y_var"], rows)
    if args.dump:
        # a file object, not the path: given a path, np.savez appends .npz
        with open(args.dump, "wb") as fh:
            np.savez(fh, rv_paths=paths[0].T, y_paths=paths[1].T)
        print(f"raw paths -> {args.dump}")
    rate = clamps / (args.paths * args.days)
    print(f"simulated {args.paths} paths x {args.days} days "
          f"under {'P' if nu1 is None else 'Q'} (seed {args.seed})")
    print(f"clamp rate per path-day: {rate:.3e} ({clamps} events)")
    print(f"-> {args.out}")
    return 0


def _horizons(text):
    cells = [c.strip() for c in text.split(",") if c.strip()]
    if not cells or not all(c.isdecimal() and int(c) > 0 for c in cells):
        raise ValidationError("--horizons takes comma-separated positive "
                              f"day counts, got {text!r}")
    return [int(c) for c in cells]


def _nu1(args, extras) -> float | None:
    """nu1 from --nu1, else from the params file's nu1; None if neither."""
    nu1 = args.nu1 if args.nu1 is not None else extras.get("nu1")
    if nu1 is None:
        return None
    try:
        return _finite("nu1", float(nu1))
    except ValueError:
        raise ValidationError(f"nu1 must be a number, got {nu1!r}") from None


def _runs(nu1) -> list[tuple[str, float | None]]:
    """The (measure, nu1) runs to report: P, then Q when nu1 is known."""
    return [("P", None)] + ([("Q", nu1)] if nu1 is not None else [])


def _write_csv(path, header, rows) -> None:
    # called once every row is computed, so a failed run leaves no file
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_cumulants(args) -> int:
    params, extras = lio.load_params(args.params)
    horizons = _horizons(args.horizons)
    runs = _runs(_nu1(args, extras))
    state = _chain_states(params, [None], args.rv, args.returns)[None]
    rows = []
    for measure, nu1 in runs:
        for horizon in horizons:
            c = cumulants(params, state, horizon, nu1=nu1)
            rows.append([horizon, measure, repr(c.mean), repr(c.variance),
                         repr(c.skewness), repr(c.excess_kurtosis)])
            print(f"T={horizon:4d} {measure}: mean={c.mean:+.6f} "
                  f"var={c.variance:.6f} skew={c.skewness:+.4f} "
                  f"exkurt={c.excess_kurtosis:.4f}")
    _write_csv(args.out, ["T", "measure", "mean", "variance", "skewness",
                          "excess_kurtosis"], rows)
    print(f"-> {args.out}")
    return 0


def _in_m_bucket(m, lo, hi):
    # the lowest bucket is closed on both ends (0.8 <= m <= 0.9), the
    # others are half-open (lo, hi]
    return lo <= m <= hi if lo == _M_BUCKETS[0][0] else lo < m <= hi


def _cmd_evaluate(args) -> int:
    # rows that failed to price or carry no IV are skipped; any other
    # malformed row fails the command at its path:line
    path, _, records = lio._read_rows(args.results, _PRICED_COLUMNS)
    rows = []
    for line, row in records:
        if len(row) < len(_PRICED_COLUMNS) - 1:
            raise ValidationError(f"{path}:{line}: expected at least "
                                  f"{len(_PRICED_COLUMNS) - 1} columns")
        cell = dict(zip(_PRICED_COLUMNS, row))
        if cell.get("error") or not cell["market_iv"].strip() \
                or not cell["model_iv"].strip():
            continue
        strike, spot, market_iv, model_iv = (
            lio._parse_float(cell[c], path, line, c)
            for c in ("strike", "underlying", "market_iv", "model_iv"))
        tau = (lio._parse_date(cell["expiry_date"], path, line)
               - lio._parse_date(cell["quote_date"], path, line)).days
        rows.append((strike / spot, tau, market_iv, model_iv))
    if not rows:
        raise ValidationError(f"no usable rows in {args.results}")
    panels = []
    print(f"{'moneyness':>14s} {'maturity':>12s} {'n':>6s} {'RMSE_IV':>9s}")
    for m_lo, m_hi in _M_BUCKETS:
        for t_lo, t_hi in _TAU_BUCKETS:
            cell = [(mk, md) for m, tau, mk, md in rows
                    if _in_m_bucket(m, m_lo, m_hi) and t_lo < tau <= t_hi]
            if not cell:
                continue
            err = rmse_iv([c[0] for c in cell], [c[1] for c in cell])
            open_ended = t_hi >= 10**9
            panels.append([m_lo, m_hi, t_lo, "" if open_ended else t_hi,
                           len(cell), repr(err)])
            tau_text = f">{t_lo}" if open_ended else f"({t_lo},{t_hi}]"
            print(f"({m_lo:5.2f},{m_hi:5.2f}] {tau_text:>12s} "
                  f"{len(cell):6d} {err:9.4f}")
    _write_csv(args.out, ["m_low", "m_high", "tau_low", "tau_high", "n",
                          "rmse_iv"], panels)
    print(f"-> {args.out}")
    return 0


def _cmd_mgf_check(args) -> int:
    params, extras = lio.load_params(args.params)
    state = stationary_state(params)
    z_real = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    u_imag = np.array([-30.0, -10.0, -3.0, 3.0, 10.0, 30.0])
    zs = np.concatenate([z_real.astype(complex), 1j * u_imag])
    runs = _runs(_nu1(args, extras))
    # the P and Q runs are simulate_y_snapshots' runs at the same seed,
    # drained together on the free CPUs; the report below takes them in
    # run order, so its rows and lines do not depend on the scheduling
    snaps = _snapshot_runs(params, state, MATURITY_GRID, args.paths,
                           [nu1 for _, nu1 in runs], args.seed)
    worst = 0.0
    rows = []
    for (measure, nu1), (ysnap, clamps) in zip(runs, snaps):
        print(f"{measure} clamps: {clamps} noncentrality clamp events")
        for j, horizon in enumerate(MATURITY_GRID):
            analytic = np.exp(log_mgf(params, state, zs, horizon, nu1=nu1))
            est, se = mc_mgf_from_samples(ysnap[:, j], zs)
            dev_re = np.abs(analytic.real - est.real) \
                / np.maximum(se.real, 1e-300)
            dev_im = np.where(se.imag > 0,
                              np.abs(analytic.imag - est.imag)
                              / np.maximum(se.imag, 1e-300), 0.0)
            dev = np.maximum(dev_re, dev_im)
            worst = max(worst, float(dev.max()))
            rows.extend([measure, horizon, z.real, z.imag,
                         analytic[i].real, analytic[i].imag,
                         est[i].real, est[i].imag, se[i].real, se[i].imag,
                         dev[i]] for i, z in enumerate(zs))
            print(f"{measure} T={horizon:4d}: max deviation "
                  f"{dev.max():6.2f} SE")
    _write_csv(args.out, ["measure", "T", "z_re", "z_im", "analytic_re",
                          "analytic_im", "mc_re", "mc_im", "se_re", "se_im",
                          "dev_se"], rows)
    print(f"worst deviation across the grid: {worst:.2f} SE")
    print(f"-> {args.out}")
    return 0


_HANDLERS = {
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
    "price": _cmd_price,
    "simulate": _cmd_simulate,
    "cumulants": _cmd_cumulants,
    "evaluate": _cmd_evaluate,
    "mgf-check": _cmd_mgf_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CalibrationInfeasibleError as exc:
        print(f"calibration infeasible: {exc}", file=sys.stderr)
        return 4
    except LhargError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
