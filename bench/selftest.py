"""Fast tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/selftest.py

Kept out of the package's test suite: the file name does not match
pytest's default test-file pattern, so it runs only when named.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (first: it pins the BLAS threads before numpy loads)
import checks  # noqa: E402
import tracing  # noqa: E402

TOY = {
    "fit": {"days": 300},
    "chain": {"days": 200, "quote_lags": (0,), "maturities": (30, 91),
              "strikes": 5, "calibration_maturity": 63},
    "montecarlo": {"paths": 2000, "days": 20},
}
SPEC = json.loads(run.SPEC.read_text())


def toy_run(name, tmp_path, trace=False, seed=3):
    return run.run(name, seed, 0.0, trace, sizes=TOY[name],
                   work=tmp_path / name, setup_repeats=1, log=lambda _: None)


def lharg_bindings():
    import scipy.optimize
    mods = {n: m for n, m in sys.modules.items()
            if n == "lharg" or n.startswith("lharg.")}
    state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    state[("scipy.optimize", "minimize")] = scipy.optimize.minimize
    return state


# any integer seed is accepted, including ones past numpy's 32-bit range
@pytest.mark.parametrize("seed", [3, -1, 2 ** 64 + 3])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_end_to_end(name, seed, tmp_path):
    result = toy_run(name, tmp_path, seed=seed)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_and_wrappers_restored(name, tmp_path):
    before = lharg_bindings()
    first = toy_run(name, tmp_path, trace=True)
    second = toy_run(name, tmp_path, trace=True)
    after = lharg_bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in run.COUNT_UNITS]
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key


def test_layer_self_times_add_up(tmp_path):
    workload = run.Workload("chain", 3, TOY["chain"], tmp_path)
    rec = tracing.Recorder()
    with rec.installed():
        run.run_pass(workload, rec)
    assert not rec.missing
    assert rec.check_additivity() == []
    m = tracing.layer_metrics(rec)
    assert m["pricing.quotes"] > 0 and m["mgf.calls"] > 0
    assert m["pricing.recursions_per_quote"] > 2.0   # cf(0) and cf(u) per quote


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_planted_wrong_price_fails(tmp_path):
    toy_run("chain", tmp_path)
    work = tmp_path / "chain"
    args = (work, work / "params.txt", TOY["chain"]["calibration_maturity"])
    assert checks.check_chain(*args, None)[1] == 0

    def plant(lines):
        cells = lines[1].split(",")
        cells[8] = repr(2.0 * float(cells[5]))     # model price above spot
        return [lines[0], ",".join(cells), *lines[2:]]

    _rewrite(work / "priced.csv", plant)
    attempted, failed, notes = checks.check_chain(*args, None)
    assert failed == 1 and "outside" in notes[0]


def test_golden_mismatch_fails(tmp_path):
    toy_run("chain", tmp_path)
    work = tmp_path / "chain"
    golden = checks.golden_values("chain", work)
    args = (work, work / "params.txt", TOY["chain"]["calibration_maturity"])
    assert checks.check_chain(*args, golden)[1] == 0
    golden["quotes"][0][1] += 1e-6
    assert checks.check_chain(*args, golden)[1] == 1


def test_planted_wrong_loglik_fails(tmp_path):
    toy_run("fit", tmp_path)
    work = tmp_path / "fit"
    generating = run.inputs.PARAMS["P-LHARG"]
    assert checks.check_fit(work, generating, None)[1] == 0

    def plant(lines):
        return [f"loglik = {float(l.split('=')[1]) + 0.5!r}"
                if l.startswith("loglik") else l for l in lines]

    _rewrite(work / "fit_params.txt", plant)
    attempted, failed, notes = checks.check_fit(work, generating, None)
    assert failed == 1 and any("reported loglik" in n for n in notes)


def test_planted_mgf_deviation_fails(tmp_path):
    toy_run("montecarlo", tmp_path)
    work = tmp_path / "montecarlo"
    stdout = "clamp rate per path-day: 0.000e+00 (0 events)\n"
    days = TOY["montecarlo"]["days"]
    assert checks.check_montecarlo(work, days, stdout, None)[1] == 0

    def plant(lines):
        return [lines[0], lines[1].rsplit(",", 1)[0] + ",9.0", *lines[2:]]

    _rewrite(work / "mgf.csv", plant)
    assert checks.check_montecarlo(work, days, stdout, None)[1] == 1
    clamped = "clamp rate per path-day: 1.000e-05 (3 events)\n"
    assert checks.clamp_count(clamped) == 3


def test_spec_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
