"""Correctness checks on the files one benchmark pass wrote.

Each check returns (attempted, failed, notes) over the operations of its
workload: fits, calibrations, priced quotes and panel cells, simulations
and MGF grid points.  The seed-independent checks hold for every seed;
the golden comparison applies when golden.json holds values recorded for
the run's seed.

Stated tolerances of the golden comparison (outputs recorded from the
unmodified package):
  fit log-likelihood       |d| <= 1e-3
  calibrated nu1           |d| <= 1e-7 * |nu1|
  model prices             |d| <= 1e-9 + 1e-9 * price
  model implied vols       |d| <= 1e-8
  RMSE panels              |d| <= 1e-6          (percentage points)
  simulate summary cells   |d| <= 1e-9 * |value| + 1e-15
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

MGF_MAX_SE = 5.0        # largest tolerated MC-vs-analytic deviation, in SEs
TARGET_IV = 0.20
ATM_IV_TOL = 1e-6


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, atol: float, rtol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def read_nu1(path: Path) -> float:
    return float(path.read_text().split("=", 1)[1])


# -- fit ---------------------------------------------------------------------

def check_fit(work: Path, generating: dict, golden: dict | None):
    from lharg import io as lio
    from lharg.estimate import loglik
    from lharg.model import ModelParams, filter_innovations

    notes = []
    params, extras = lio.load_params(work / "fit_params.txt")
    rv = lio.load_rv_series(work / "rv.csv").values
    y = lio.load_returns(work / "returns.csv").values
    eps = filter_innovations(y, rv, params.r, params.lam)
    reported = float(extras["loglik"])
    if extras.get("converged") != 1.0:
        notes.append("fit did not converge")
    recomputed = loglik(params, rv, eps)
    if not _close(reported, recomputed, 1e-6 * max(1.0, abs(recomputed))):
        notes.append(f"reported loglik {reported!r} != loglik at the fitted "
                     f"params {recomputed!r}")
    row = _rows(work / "fit_row.csv")[0]
    if float(row["loglik"]) != reported:
        notes.append("CSV row and params file disagree on loglik")
    truth = loglik(ModelParams(**generating), rv, eps)
    if reported < truth - 1e-3:
        notes.append(f"loglik {reported!r} below the generating params' "
                     f"{truth!r}")
    if golden is not None and not _close(reported, golden["loglik"], 1e-3):
        notes.append(f"loglik {reported!r} != golden {golden['loglik']!r}")
    return 1, int(bool(notes)), notes


# -- chain -------------------------------------------------------------------

def price_bounds(kind: str, S: float, K: float, r: float, tau: int):
    """Static no-arbitrage bounds of a European option price."""
    disc_k = K * math.exp(-r * tau)
    if kind == "call":
        return max(S - disc_k, 0.0), S
    return max(disc_k - S, 0.0), disc_k


def check_chain(work: Path, params_path: Path, maturity: int,
                golden: dict | None):
    from lharg import io as lio
    from lharg.model import stationary_state
    from lharg.pricing import model_atm_iv

    notes = []
    attempted = failed = 0

    # calibration: the model's ATM IV at the calibrated nu1 is the target
    attempted += 1
    nu1 = read_nu1(work / "nu1.txt")
    params, _ = lio.load_params(params_path)
    iv = model_atm_iv(params, nu1, maturity, stationary_state(params))
    bad = bool(abs(iv - TARGET_IV) > ATM_IV_TOL)
    if bad:
        notes.append(f"ATM IV {iv!r} at nu1 {nu1!r} misses {TARGET_IV}")
    if golden is not None and not _close(nu1, golden["nu1"], 0.0, 1e-7):
        notes.append(f"nu1 {nu1!r} != golden {golden['nu1']!r}")
        bad = True
    failed += bad

    rows = _rows(work / "priced.csv")
    ref = golden["quotes"] if golden is not None else None
    if ref is not None and len(ref) != len(rows):
        notes.append(f"{len(rows)} priced rows, golden has {len(ref)}")
        ref = None
    for i, row in enumerate(rows):
        attempted += 1
        price, iv = float(row["model_price"]), float(row["model_iv"])
        tau = (dt.date.fromisoformat(row["expiry_date"])
               - dt.date.fromisoformat(row["quote_date"])).days
        lo, hi = price_bounds(row["type"], float(row["underlying"]),
                              float(row["strike"]), float(row["rate"]), tau)
        problem = None
        if row["error"]:
            problem = f"error {row['error']!r}"
        elif not (lo <= price <= hi):
            problem = f"price {price!r} outside [{lo!r}, {hi!r}]"
        elif not (math.isfinite(iv) and iv > 0.0):
            problem = f"implied vol {iv!r}"
        elif ref is not None and not (_close(price, ref[i][0], 1e-9, 1e-9)
                                      and _close(iv, ref[i][1], 1e-8)):
            problem = f"({price!r}, {iv!r}) != golden {ref[i]!r}"
        if problem:
            failed += 1
            notes.append(f"priced row {i + 1}: {problem}")

    panels = _rows(work / "panels.csv")
    ref = golden["panels"] if golden is not None else None
    if ref is not None and len(ref) != len(panels):
        notes.append(f"{len(panels)} RMSE panels, golden has {len(ref)}")
        ref = None
    for i, row in enumerate(panels):
        attempted += 1
        rmse = float(row["rmse_iv"])
        if not (math.isfinite(rmse) and rmse >= 0.0) or (
                ref is not None and not _close(rmse, ref[i], 1e-6)):
            failed += 1
            notes.append(f"RMSE panel {i + 1}: {rmse!r}")
    return attempted, failed, notes


# -- montecarlo --------------------------------------------------------------

SUMMARY_COLUMNS = ("rv_mean", "rv_var", "rv_q05", "rv_q50", "rv_q95",
                   "y_mean", "y_var")


def clamp_count(simulate_stdout: str) -> int | None:
    for line in simulate_stdout.splitlines():
        if line.startswith("clamp rate per path-day:"):
            return int(line.rsplit("(", 1)[1].split()[0])
    return None


def summary_cell(text: str) -> float:
    """One simulate-summary cell.  Under numpy 2 the simulate command
    writes repr(np.float64), e.g. `np.float64(0.0001)`; the value is read
    from either spelling."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_summary(path: Path) -> np.ndarray:
    return np.array([[summary_cell(r[c]) for c in SUMMARY_COLUMNS]
                     for r in _rows(path)])


def check_montecarlo(work: Path, days: int, simulate_stdout: str,
                     golden: dict | None):
    notes = []
    clamps = clamp_count(simulate_stdout)
    if clamps != 0:
        notes.append(f"simulate reported {clamps} clamp events under P-LHARG")
    summary = read_summary(work / "sim.csv")
    if summary.shape != (days, len(SUMMARY_COLUMNS)) \
            or not np.all(np.isfinite(summary)):
        notes.append(f"simulate summary has shape {summary.shape} or "
                     "non-finite cells")
    elif not (np.all(summary[:, 0] > 0.0)
              and np.all(summary[:, 2] <= summary[:, 3])
              and np.all(summary[:, 3] <= summary[:, 4])):
        notes.append("simulate summary quantiles out of order")
    elif golden is not None:
        ref = np.asarray(golden["summary"])
        if ref.shape != summary.shape or not np.all(
                np.abs(summary - ref) <= 1e-9 * np.abs(ref) + 1e-15):
            notes.append("simulate summary differs from golden")
    attempted, failed = 1, int(bool(notes))

    for row in _rows(work / "mgf.csv"):
        attempted += 1
        dev = float(row["dev_se"])
        if not dev <= MGF_MAX_SE:
            failed += 1
            notes.append(f"mgf-check {row['measure']} T={row['T']} "
                         f"z={row['z_re']}+{row['z_im']}j: {dev:.2f} SE")
    return attempted, failed, notes


# -- golden recording ----------------------------------------------------------

def golden_values(workload: str, work: Path) -> dict:
    if workload == "fit":
        from lharg import io as lio
        return {"loglik": float(lio.load_params(work / "fit_params.txt")[1]
                                ["loglik"])}
    if workload == "chain":
        return {
            "nu1": read_nu1(work / "nu1.txt"),
            "quotes": [[float(r["model_price"]), float(r["model_iv"])]
                       for r in _rows(work / "priced.csv")],
            "panels": [float(r["rmse_iv"]) for r in _rows(work / "panels.csv")],
        }
    return {"summary": read_summary(work / "sim.csv").tolist()}
