"""End-to-end benchmark of the lharg CLI pipeline.

    python3 bench/run.py --workload {fit,chain,montecarlo} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ../src relative to this
file and scratch files go to .bench_work/ at the repository root.  The
workload's inputs are generated from --seed, then the workload's CLI
commands run in order, in this process, as one pass; passes repeat until
--seconds is used up.  Every pass's outputs are checked (checks.py).

--trace 0 reports the end-to-end metrics: pipeline_s (the median pass's
wall time), setup_s (median over fresh interpreters that import lharg.cli
and load the inputs through lharg.io) and peak_rss_mb.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of tracing.py.  The last line of standard output is one JSON object.

See README.md for why each workload and size was chosen.
"""

from __future__ import annotations

import os

# One BLAS thread: the pipeline runs single-threaded, and a fixed
# reduction order keeps optimizer paths and counts repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import datetime as dt
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(SRC))

import lharg.cli  # noqa: E402  (fails here, before any output, without src/)
import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("fit", "chain", "montecarlo")

FULL = {
    "fit": {"days": 1000},
    "chain": {"days": 1500, "quote_lags": (21, 0),
              "maturities": (14, 30, 45, 63, 91, 126, 182, 252),
              "strikes": 5, "calibration_maturity": 252},
    "montecarlo": {"paths": 20_000, "days": 252},
}

# The fit's cost follows its data: over six generated histories the
# optimizer took 3300-5900 evaluations (9-15 s).  The fit workload
# therefore always fits the history drawn from this seed; --seed only
# moves its calendar.
FIT_HISTORY_SEED = 0
CHAIN_NU1 = -3000.0     # fixed premium, so every seed prices the same chain
MC_NU1 = -2000.0
# Any integer --seed is accepted: it is reduced to the 32-bit range that
# numpy's generators and `lharg simulate --seed` take, and the fit's
# calendar shift wraps after ten years so its dates stay valid.
SEED_RANGE = 2 ** 32
CALENDAR_SHIFT_DAYS = 3650
SETUP_REPEATS = 5
COUNT_UNITS = ("count", "bytes")


class Workload:
    """Inputs, CLI commands and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, sizes: dict, work: Path):
        self.name, self.seed, self.sizes, self.work = name, seed, sizes, work
        self.commands: list = []    # (command, argv)
        self.loads: list = []       # (lharg.io function, path) for set-up
        getattr(self, "_prepare_" + name)()

    def _prepare_fit(self):
        w = self.work
        shift = self.seed % CALENDAR_SHIFT_DAYS
        start = inputs.START_DATE + dt.timedelta(days=shift)
        inputs.write_history(w, inputs.PARAMS["P-LHARG"], self.sizes["days"],
                             np.random.default_rng(FIT_HISTORY_SEED), start)
        self.loads = [("load_rv_series", w / "rv.csv"),
                      ("load_returns", w / "returns.csv")]
        self.commands = [("estimate", [
            "estimate", "--rv", str(w / "rv.csv"),
            "--returns", str(w / "returns.csv"), "--variant", "P-LHARG",
            "--rate", repr(inputs.DAILY_RATE),
            "--out", str(w / "fit_params.txt"), "--csv", str(w / "fit_row.csv")])]

    def _prepare_chain(self):
        w, s = self.work, self.sizes
        days = inputs.write_history(w, inputs.PARAMS["ZM-LHARG"], s["days"],
                                    np.random.default_rng(self.seed))
        params = inputs.write_params(w / "params.txt", inputs.PARAMS["ZM-LHARG"])
        inputs.write_chain(w / "chain.csv",
                           [days[-1 - lag] for lag in s["quote_lags"]],
                           s["maturities"], np.linspace(0.8, 1.2, s["strikes"]))
        history = ["--rv", str(w / "rv.csv"), "--returns", str(w / "returns.csv")]
        self.loads = [("load_params", params), ("load_rv_series", w / "rv.csv"),
                      ("load_returns", w / "returns.csv"),
                      ("load_option_chain", w / "chain.csv")]
        self.commands = [
            ("calibrate", ["calibrate", "--params", str(params),
                           "--target-iv", repr(checks.TARGET_IV),
                           "--maturity", str(s["calibration_maturity"]),
                           "--out", str(w / "nu1.txt")]),
            ("price", ["price", "--params", str(params),
                       "--nu1", repr(CHAIN_NU1), "--chain", str(w / "chain.csv"),
                       *history, "--out", str(w / "priced.csv")]),
            ("evaluate", ["evaluate", "--results", str(w / "priced.csv"),
                          "--out", str(w / "panels.csv")]),
        ]

    def _prepare_montecarlo(self):
        w, s = self.work, self.sizes
        params = inputs.write_params(w / "params.txt", inputs.PARAMS["P-LHARG"])
        self.loads = [("load_params", params)]
        common = ["--params", str(params), "--paths", str(s["paths"]),
                  "--seed", str(self.seed)]
        self.commands = [
            ("simulate", ["simulate", *common, "--days", str(s["days"]),
                          "--out", str(w / "sim.csv")]),
            ("mgf-check", ["mgf-check", *common, "--nu1", repr(MC_NU1),
                           "--out", str(w / "mgf.csv")]),
        ]

    def check(self, stdout: dict, golden: dict | None):
        w = self.work
        if self.name == "fit":
            return checks.check_fit(w, inputs.PARAMS["P-LHARG"], golden)
        if self.name == "chain":
            return checks.check_chain(w, w / "params.txt",
                                      self.sizes["calibration_maturity"], golden)
        return checks.check_montecarlo(w, self.sizes["days"],
                                       stdout["simulate"], golden)


def run_pass(workload: Workload, rec: tracing.Recorder | None = None):
    """Run the workload's commands once; returns (walls, stdout, codes)."""
    gc.collect()
    walls, stdout, codes = {}, {}, {}
    for command, argv in workload.commands:
        buf = io.StringIO()
        span = rec.command_span(command) if rec else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), span:
            start = time.perf_counter()
            codes[command] = lharg.cli.main(argv)
            walls[command] = time.perf_counter() - start
        stdout[command] = buf.getvalue()
    return walls, stdout, codes


def check_pass(workload: Workload, stdout: dict, codes: dict,
               golden: dict | None):
    failed_cmds = [c for c, code in codes.items() if code != 0]
    if failed_cmds:
        return len(codes), len(failed_cmds), [f"{c} exited with {codes[c]}"
                                              for c in failed_cmds]
    try:
        return workload.check(stdout, golden)
    except Exception:  # noqa: BLE001 - a crashed check is a failed pass
        return 1, 1, [traceback.format_exc()]


def measure_setup(workload: Workload, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing lharg.cli and
    loading the workload's inputs through lharg.io."""
    code = "\n".join(
        ["import sys", f"sys.path.insert(0, {str(SRC)!r})", "import lharg.cli",
         "from lharg import io"]
        + [f"io.{fn}({str(path)!r})" for fn, path in workload.loads])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_golden(workload: str, seed: int, sizes: dict):
    if sizes != FULL[workload] or not GOLDEN.exists():
        return None
    entry = json.loads(GOLDEN.read_text()).get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry


def record_golden(workload: Workload) -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    # the fit's history does not depend on the seed, so its golden holds
    # for every seed
    seed = None if workload.name == "fit" else workload.seed
    data[workload.name] = {"seed": seed,
                           **checks.golden_values(workload.name, workload.work)}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None, work: Path | None = None,
        golden_out: bool = False, setup_repeats: int = SETUP_REPEATS,
        log=print) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    spec = json.loads(SPEC.read_text())
    seed %= SEED_RANGE
    sizes = sizes or FULL[name]
    work = work or WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = Workload(name, seed, sizes, work)
    golden = None if golden_out else load_golden(name, seed, sizes)

    setup_s = None if trace else measure_setup(workload, setup_repeats)
    attempted = failed = 0
    untraced, traced, layer_runs = [], [], []
    stage_walls: dict = {}
    last_rec = None
    begin = time.perf_counter()
    while True:
        rec = tracing.Recorder() if trace and len(traced) < len(untraced) \
            else None
        if rec is None:
            walls, stdout, codes = run_pass(workload)
            untraced.append(sum(walls.values()))
        else:
            with rec.installed():
                walls, stdout, codes = run_pass(workload, rec)
            traced.append(sum(walls.values()))
        for command, wall in walls.items():
            stage_walls.setdefault(command, []).append(wall)
        a, f, notes = check_pass(workload, stdout, codes, golden)
        if rec is not None:
            layer_runs.append(tracing.layer_metrics(rec))
            bad = rec.check_additivity()
            a, f, notes = a + len(rec.commands), f + len(bad), notes + bad
            last_rec = rec
        attempted, failed = attempted + a, failed + f
        for note in notes[:20]:
            log(f"check failed: {note}")
        if golden_out:
            record_golden(workload)
            golden_out = False
        elapsed = time.perf_counter() - begin
        passes = untraced + traced
        if (not trace or traced) and \
                elapsed + 0.5 * statistics.median(passes) >= seconds:
            break

    log("pass walls (s): untraced " + " ".join(f"{t:.3f}" for t in untraced)
        + ("; traced " + " ".join(f"{t:.3f}" for t in traced) if trace else "")
        + f"; untraced median {statistics.median(untraced):.3f}")
    log("stage medians (s): " + json.dumps(
        {c: round(statistics.median(t), 4) for c, t in stage_walls.items()}))
    if trace:
        if last_rec.missing:
            log("tracing: not found, metrics read 0: "
                + ", ".join(last_rec.missing))
        last_rec.write(work / "spans.jsonl")
        values = {"trace.overhead_frac": min(traced) / min(untraced) - 1.0}
        for m in spec["per_layer"]:
            key = m["name"]
            if key in values:
                continue
            runs = [r[key] for r in layer_runs]
            if m["unit"] in COUNT_UNITS:
                # counts are exact; every traced pass must give the same
                if len(set(runs)) > 1:
                    log(f"count {key} differs between traced passes: {runs}")
                values[key] = runs[0]
            else:
                values[key] = statistics.median(runs)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "pipeline_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's first-pass outputs as the "
                             "workload's golden values (use --seed 0)")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 golden_out=args.record_golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
