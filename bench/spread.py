"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/spread.py --workloads fit,chain,montecarlo --seeds 1-10 \
        [--trace 0|1] [--out bench/baseline.json]

Each run is a fresh `BENCHMARK.json` command with the spec's run_seconds,
exactly as a single benchmark run.  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  End-to-end spreads are
compared with a third of each metric's bound.  With --out the summary,
the raw values and the machine's description are written as JSON; when
the file already exists, the new trace level is merged into it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,   # bench/run.py pins OPENBLAS/OMP/MKL threads to 1
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_wall_s"] = took
    # every untraced pass time, from the "pass walls (s): untraced ..." line
    walls = next((ln for ln in lines if ln.startswith("pass walls")), "")
    result["pass_walls"] = [float(t) for t in
                            walls.split("untraced ", 1)[-1].split(";")[0].split()]
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    level = f"trace{args.trace}"
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.trace) for seed in seeds]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "run_wall_s": summarize([r["run_wall_s"] for r in runs]),
            "pass_walls": [r["pass_walls"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: failed {report[workload]['failed']}/"
              f"{report[workload]['attempted']}, run wall median "
              f"{report[workload]['run_wall_s']['median']:.1f} s")
        for name, s in metrics.items():
            flag = ""
            if name in bounds:
                flag = "ok" if s["spread"] < bounds[name] / 3 else \
                    f"ABOVE bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {name:36s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f} {flag}")
        sys.stdout.flush()

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["environment"] = environment()
        data["run_seconds"] = SPEC["run_seconds"]
        data.setdefault(level, {})
        data[level]["seeds"] = seeds
        data[level].setdefault("workloads", {}).update(report)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
