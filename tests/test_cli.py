"""End-to-end command-line checks on small synthetic inputs."""

import csv
import datetime as dt
import importlib.util
import json
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lharg import (ModelParams, simulate_paths, stationarity_margin,
                   stationary_state)
from lharg import cli, simulate
from lharg.cli import main
from lharg.io import (DatedSeries, load_params, load_returns, load_rv_series,
                      save_params)

from conftest import make_history
from oracles import write_option_chain, write_series
from test_pricing import TRACING, make_quote
from test_simulate import negative_on_day_4


@pytest.fixture(scope="module")
def small_model():
    # a light HARG so CLI fits stay fast
    return ModelParams(variant="HARG", theta=1.149e-5, delta=1.358, d=0.0,
                       beta_d=3.959e4, beta_w=2.451e4, beta_m=1.012e4,
                       alpha_d=0.0, alpha_w=0.0, alpha_m=0.0,
                       gamma_lev=0.0, lam=2.005, r=1e-4)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, small_model):
    root = tmp_path_factory.mktemp("cli_data")
    paths = simulate_paths(small_model, stationary_state(small_model),
                           1500, 1, seed=99, burn_in=500)
    rv, y = paths.rv_paths[0], paths.y_paths[0]
    dates = [dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(1500)]
    write_series(root / "rv.csv", DatedSeries(dates, rv), "rv")
    write_series(root / "returns.csv", DatedSeries(dates, y), "log_return")

    qd = dates[-1]
    quotes = tuple(
        make_quote(m, tau, "call" if m >= 1 else "put", qdate=qd, mid=20.0,
                   market_iv=0.2)
        for tau in (40, 130) for m in (0.9, 1.0, 1.1)
    )
    write_option_chain(root / "chain.csv", quotes)
    return root


def test_estimate_then_downstream(data_dir, small_model, capsys):
    fit_path = data_dir / "fit.txt"
    row_path = data_dir / "row.csv"
    code = main(["estimate", "--rv", str(data_dir / "rv.csv"),
                 "--returns", str(data_dir / "returns.csv"),
                 "--variant", "HARG", "--rate", "1e-4",
                 "--out", str(fit_path), "--csv", str(row_path)])
    assert code == 0
    params, extras = load_params(fit_path)
    assert params.variant == "HARG"
    assert extras["converged"] == 1.0
    header = row_path.read_text().splitlines()[0]
    assert header.startswith("lambda,theta,delta,beta_d")

    code = main(["cumulants", "--params", str(fit_path), "--horizons", "22,63",
                 "--out", str(data_dir / "cumulants.csv")])
    assert code == 0
    lines = (data_dir / "cumulants.csv").read_text().splitlines()
    assert len(lines) == 3

    code = main(["price", "--params", str(fit_path), "--nu1", "-2500",
                 "--chain", str(data_dir / "chain.csv"),
                 "--rv", str(data_dir / "rv.csv"),
                 "--returns", str(data_dir / "returns.csv"),
                 "--out", str(data_dir / "priced.csv")])
    assert code == 0
    # rmse_iv returns percentage points of annualized vol, and both
    # commands say so
    assert re.search(r"; RMSE_IV = \d+\.\d{4} pp \(percentage points",
                     capsys.readouterr().out)

    code = main(["evaluate", "--results", str(data_dir / "priced.csv"),
                 "--out", str(data_dir / "panels.csv")])
    assert code == 0
    assert (data_dir / "panels.csv").read_text().count("\n") >= 2
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split()[-1] == "RMSE_IV(pp)"


def test_estimate_writes_persistence_of_its_params(data_dir, tmp_path):
    # the params file and the CSV row carry the stationarity margin of the
    # params the file holds, to the bit
    fit, row = tmp_path / "fit.txt", tmp_path / "row.csv"
    assert main(["estimate", "--rv", str(data_dir / "rv.csv"),
                 "--returns", str(data_dir / "returns.csv"),
                 "--variant", "HARG", "--out", str(fit),
                 "--csv", str(row)]) == 0
    params, extras = load_params(fit)
    margin = stationarity_margin(params)
    assert 0.0 < margin < 1.0
    assert extras["persistence"] == margin
    with open(row, newline="") as fh:
        cells, = csv.DictReader(fh)
    assert float(cells["persistence"]) == margin


def test_minimal_invocations(data_dir, tmp_path, monkeypatch):
    # each subcommand runs with its required flags alone (plus a small
    # --paths) and writes its default outputs to the working directory;
    # cumulants on estimate's params file, which holds no nu1, reports P
    monkeypatch.chdir(tmp_path)
    rv, ret = str(data_dir / "rv.csv"), str(data_dir / "returns.csv")
    commands = (
        (["estimate", "--rv", rv, "--returns", ret],
         ("fit_params.txt", "fit_row.csv")),
        (["calibrate", "--params", "fit_params.txt", "--target-iv", "0.2"],
         ("nu1.txt",)),
        (["price", "--params", "fit_params.txt", "--nu1", "-2500",
          "--chain", str(data_dir / "chain.csv")], ("priced_chain.csv",)),
        (["simulate", "--params", "fit_params.txt", "--paths", "64"],
         ("simulation_summary.csv",)),
        (["cumulants", "--params", "fit_params.txt"], ("cumulants.csv",)),
        (["evaluate", "--results", "priced_chain.csv"], ("rmse_panels.csv",)),
        (["mgf-check", "--params", "fit_params.txt", "--paths", "64"],
         ("mgf_check.csv",)),
    )
    for argv, outputs in commands:
        assert main(argv) == 0, argv[0]
        assert all((tmp_path / name).exists() for name in outputs), argv[0]
    with open(tmp_path / "cumulants.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["measure"] for r in rows] == ["P"] * 5


def test_estimate_needs_a_warm_up_history(data_dir, tmp_path, capsys):
    # after the 22-lag warm-up, one transition more than the variant's
    # parameters (5 for HARG, 9 for ZM-LHARG): a shorter history exits 2
    # naming the floor, before any fit starts, and one at the floor fits
    rv, ret = (load_rv_series(data_dir / "rv.csv"),
               load_returns(data_dir / "returns.csv"))
    for variant, floor in (("HARG", 28), ("ZM-LHARG", 32)):
        for n in (10, floor - 1, floor):
            rv_path, ret_path = tmp_path / "rv.csv", tmp_path / "returns.csv"
            write_series(rv_path, DatedSeries(rv.dates[:n], rv.values[:n]),
                         "rv")
            write_series(ret_path, DatedSeries(ret.dates[:n], ret.values[:n]),
                         "log_return")
            fit, row = tmp_path / "fit.txt", tmp_path / "row.csv"
            fit.unlink(missing_ok=True)
            row.unlink(missing_ok=True)
            code = main(["estimate", "--rv", str(rv_path),
                         "--returns", str(ret_path), "--variant", variant,
                         "--out", str(fit), "--csv", str(row)])
            err = capsys.readouterr().err
            if n == floor:
                assert code == 0, (variant, err)
                assert fit.exists() and row.exists(), variant
                continue
            assert code == 2, (variant, n)
            assert f"{variant} needs at least {floor} observations, " \
                f"got {n}" in err
            assert not fit.exists() and not row.exists(), (variant, n)


def test_simulate_with_dump(data_dir, small_model, tmp_path):
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    out = tmp_path / "summary.csv"
    dump = tmp_path / "paths.bin"
    code = main(["simulate", "--params", str(fit), "--days", "12",
                 "--paths", "64", "--seed", "3", "--out", str(out),
                 "--dump", str(dump)])
    assert code == 0
    # numpy's .npz under exactly the name given, whatever its suffix
    assert set(tmp_path.iterdir()) == {dump, fit, out}
    params, _ = load_params(fit)
    ref = simulate_paths(params, stationary_state(params), 12, 64, seed=3)
    with np.load(dump) as saved:
        assert sorted(saved.files) == ["rv_paths", "y_paths"]
        assert np.array_equal(saved["rv_paths"], ref.rv_paths)
        assert np.array_equal(saved["y_paths"], ref.y_paths)
    # the summary equals a per-day loop over the path columns
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for t in range(12):
        r, x = ref.rv_paths[:, t], ref.y_paths[:, t]
        loop = [t + 1, r.mean(), r.var(), *np.quantile(r, [0.05, 0.5, 0.95]),
                x.mean(), x.var()]
        assert np.array_equal(rows[t], loop)


def _summary_and_clamp_line(argv, out, capsys):
    assert main([*argv, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return out.read_bytes(), [x for x in lines if x.startswith("clamp")]


def test_simulate_summary_same_without_dump(tmp_path, plharg, zmlharg,
                                            monkeypatch, capsys):
    # 8 blocks of 7 paths after a burn-in: the summary bytes and clamp line
    # are the same with and without --dump, and the dump and clamp count
    # are simulate_paths', whose blocks drain one after another; for
    # P-LHARG under P and for ZM-LHARG under Q from a cold start (rv lags
    # at a tenth of the stationary level, each return r + (lam + gamma) rv
    # so that every leverage lag is 0), which clamps
    monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 7)
    rv = np.full(22, 0.1 * stationary_state(zmlharg).rv[0])
    y = zmlharg.r + (zmlharg.lam + zmlharg.gamma_lev) * rv
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(22)]
    history = (str(tmp_path / "rv.csv"), str(tmp_path / "ret.csv"))
    write_series(history[0], DatedSeries(dates, rv), "rv")
    write_series(history[1], DatedSeries(dates, y), "log_return")
    cold = ["--nu1=-3375", "--rv", history[0], "--returns", history[1]]
    for params, extra, nu1, files in ((plharg, [], None, (None, None)),
                                      (zmlharg, cold, -3375.0, history)):
        fit, dump = tmp_path / "p.txt", tmp_path / "p.npz"
        save_params(fit, params)
        argv = ["simulate", "--params", str(fit), "--days", "30",
                "--paths", "50", "--seed", "1", "--burn-in", "3", *extra]
        streamed = _summary_and_clamp_line(argv, tmp_path / "s.csv", capsys)
        dumped = _summary_and_clamp_line([*argv, "--dump", str(dump)],
                                         tmp_path / "d.csv", capsys)
        assert streamed == dumped
        state = cli._chain_states(params, [None], *files)[None]
        ref = simulate_paths(params, state, 30, 50, nu1=nu1, seed=1,
                             burn_in=3)
        with np.load(dump) as saved:
            assert np.array_equal(saved["rv_paths"], ref.rv_paths)
            assert np.array_equal(saved["y_paths"], ref.y_paths)
        assert streamed[1][0].endswith(f" ({ref.clamp_count} events)")
        assert (ref.clamp_count > 0) == (nu1 is not None)


def test_simulate_without_dump_holds_no_paths(tmp_path, plharg):
    # the summary's peak is a small part of the (days, paths) arrays that
    # only --dump holds
    fit, out = tmp_path / "p.txt", tmp_path / "s.csv"
    save_params(fit, plharg)
    argv = ["simulate", "--params", str(fit), "--out", str(out)]
    assert main([*argv, "--days", "5", "--paths", "10"]) == 0  # warm caches
    tracemalloc.start()
    try:
        assert main([*argv, "--days", "500", "--paths", "2000"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 2 * 8 * 2000 * 500


def test_simulate_negative_variance_leaves_no_files(tmp_path, plharg,
                                                    monkeypatch, capsys):
    # a negative variance on a recorded day exits 2 before the summary or
    # the dump is written, with or without --dump
    monkeypatch.setattr(simulate, "_day_steps", negative_on_day_4)
    fit, out, dump = tmp_path / "p.txt", tmp_path / "s.csv", tmp_path / "d"
    save_params(fit, plharg)
    argv = ["simulate", "--params", str(fit), "--days", "10", "--paths", "20",
            "--burn-in", "2", "--out", str(out)]
    for extra in ([], ["--dump", str(dump)]):
        assert main([*argv, *extra]) == 2, extra
        assert "nonnegative" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == {fit}, extra


def test_simulate_q_reads_params_file_nu1(tmp_path, small_model):
    # simulate runs Q on the params file's nu1 when --nu1 is absent, as
    # cumulants and mgf-check do, and P when neither gives a nu1
    from lharg.io import save_params
    fit, keyed = tmp_path / "p.txt", tmp_path / "keyed.txt"
    save_params(fit, small_model)
    save_params(keyed, small_model, extras={"nu1": -2500.0})
    sim = ["simulate", "--days", "5", "--paths", "32", "--seed", "4"]
    flag, key = tmp_path / "flag.csv", tmp_path / "key.csv"
    plain = tmp_path / "plain.csv"
    assert main([*sim, "--params", str(fit), "--nu1", "-2500",
                 "--out", str(flag)]) == 0
    assert main([*sim, "--params", str(keyed), "--out", str(key)]) == 0
    assert main([*sim, "--params", str(fit), "--out", str(plain)]) == 0
    assert key.read_bytes() == flag.read_bytes()
    assert plain.read_bytes() != flag.read_bytes()


def test_simulate_prints_run_and_clamp_lines(tmp_path, zmlharg, capsys):
    # the run line names the arguments and the measure that nu1 selects;
    # the clamp line gives the rate per path-day and the event count
    fit, keyed = tmp_path / "p.txt", tmp_path / "keyed.txt"
    save_params(fit, zmlharg)
    save_params(keyed, zmlharg, extras={"nu1": -1000.0})
    out = tmp_path / "s.csv"
    for params, measure in ((fit, "P"), (keyed, "Q")):
        assert main(["simulate", "--params", str(params), "--days", "63",
                     "--paths", "2000", "--seed", "4",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"simulated 2000 paths x 63 days under {measure} (seed 4)",
            "clamp rate per path-day: 1.587e-05 (2 events)",
            f"-> {out}",
        ]


def test_price_reads_params_file_nu1(data_dir, tmp_path, small_model,
                                     capsys):
    # price takes nu1 as simulate does: --nu1, else the params file's nu1;
    # with neither it exits 2 and writes nothing
    fit, keyed = tmp_path / "p.txt", tmp_path / "keyed.txt"
    save_params(fit, small_model)
    save_params(keyed, small_model, extras={"nu1": -2500.0})
    chain = ["price", "--chain", str(data_dir / "chain.csv")]
    out = {name: tmp_path / f"{name}.csv"
           for name in ("flag", "key", "override", "other", "none")}
    runs = (("flag", fit, ["--nu1", "-2500"]), ("key", keyed, []),
            ("override", keyed, ["--nu1", "-1000"]),
            ("other", fit, ["--nu1", "-1000"]))
    for name, params, flag in runs:
        assert main([*chain, "--params", str(params), *flag,
                     "--out", str(out[name])]) == 0, name
    assert out["key"].read_bytes() == out["flag"].read_bytes()
    assert out["override"].read_bytes() == out["other"].read_bytes()
    assert out["override"].read_bytes() != out["key"].read_bytes()
    capsys.readouterr()
    assert main([*chain, "--params", str(fit),
                 "--out", str(out["none"])]) == 2
    assert "price needs nu1 (--nu1 or the params file's nu1 key)" \
        in capsys.readouterr().err
    assert not out["none"].exists()


def test_price_counts_failed_quotes(data_dir, tmp_path, small_model,
                                    capsys):
    # a premium so large that every group leaves the recursion's domain:
    # each row records its error and the summary counts 0 priced quotes
    fit, out = tmp_path / "p.txt", tmp_path / "priced.csv"
    save_params(fit, small_model)
    assert main(["price", "--params", str(fit), "--nu1=-1e6",
                 "--chain", str(data_dir / "chain.csv"),
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["error"] and r["market_iv"] for r in rows)
    assert f"priced 0/{len(rows)} quotes" in lines


def _zero_mean_estimate(tmp_path, params, n_days, seed):
    # `lharg estimate` arguments for a ZM-LHARG fit of a simulated history,
    # and the two files it writes
    rv, y = make_history(params, n_days, seed=seed)
    dates = [dt.date(2000, 1, 3) + dt.timedelta(days=i)
             for i in range(n_days)]
    write_series(tmp_path / "rv.csv", DatedSeries(dates, rv), "rv")
    write_series(tmp_path / "returns.csv", DatedSeries(dates, y),
                 "log_return")
    fit, row = tmp_path / "fit.txt", tmp_path / "row.csv"
    return (["estimate", "--rv", str(tmp_path / "rv.csv"),
             "--returns", str(tmp_path / "returns.csv"),
             "--variant", "ZM-LHARG", "--rate", "1e-4",
             "--out", str(fit), "--csv", str(row)], fit, row)


def test_estimate_at_the_wall_prints_errors_not_available(tmp_path, zmlharg,
                                                          capsys):
    # a short zero-mean fit whose observed information is not positive
    # definite: the transition parameters print (n/a), lam its error
    args, fit, row = _zero_mean_estimate(tmp_path, zmlharg, 100, seed=7)
    assert main(args) == 0
    assert fit.exists() and row.exists()
    lines = capsys.readouterr().out.splitlines()
    for name in ("theta", "delta", "beta_d", "alpha_m", "gamma_lev"):
        assert any(re.fullmatch(rf"  {name} += \S+ \(n/a\)", line)
                   for line in lines), name
    assert any(re.fullmatch(r"  lam += \S+ \([0-9.e+-]+\)", line)
               for line in lines)


def test_estimate_never_off_the_wall_exits_3(tmp_path, zmlharg, capsys):
    # a fit that cannot leave Theta <= 0 exits 3 naming the observation
    # and writes nothing; --clamp fits the same history
    args, fit, row = _zero_mean_estimate(tmp_path, zmlharg, 40, seed=0)
    assert main(args) == 3
    assert "observation 32: nonpositive noncentrality" \
        in capsys.readouterr().err
    assert not fit.exists() and not row.exists()
    assert main([*args, "--clamp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "(converged, " in lines[0]
    assert "  loglik     = 158.3052" in lines


def test_csv_cells_are_plain_floats(tmp_path, small_model):
    # every numeric cell parses with float(): no numpy scalar reprs
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model, extras={"nu1": -2500.0})
    sim, cum = tmp_path / "summary.csv", tmp_path / "cumulants.csv"
    assert main(["simulate", "--params", str(fit), "--days", "5",
                 "--paths", "32", "--out", str(sim)]) == 0
    assert main(["cumulants", "--params", str(fit), "--horizons", "5,22",
                 "--out", str(cum)]) == 0
    for path, labels in ((sim, set()), (cum, {"measure"})):
        header, *rows = [line.split(",")
                         for line in path.read_text().splitlines()]
        assert rows
        for row in rows:
            for name, cell in zip(header, row):
                if name not in labels:
                    float(cell)


def test_exit_codes(data_dir, tmp_path, small_model):
    # missing file -> validation (2)
    assert main(["estimate", "--rv", str(tmp_path / "nope.csv"),
                 "--returns", str(data_dir / "returns.csv"),
                 "--variant", "HARG",
                 "--out", str(tmp_path / "x.txt"),
                 "--csv", str(tmp_path / "x.csv")]) == 2
    # infeasible calibration target -> 4
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    assert main(["calibrate", "--params", str(fit), "--target-iv", "0.69",
                 "--out", str(tmp_path / "nu1.txt")]) == 4


def test_bad_simulator_inputs_rejected(tmp_path, small_model, capsys):
    # each bad value exits 2 with a message naming it
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    base = ["--params", str(fit), "--paths", "8", "--out", str(tmp_path / "o")]
    cum = ["cumulants", "--params", str(fit), "--out", str(tmp_path / "c")]
    cases = (
        (["simulate", *base, "--days", "5", "--burn-in", "-3"], "burn_in.*-3"),
        (["simulate", *base, "--days", "5", "--seed", "-1"], "seed.*-1"),
        (["mgf-check", *base, "--seed", "-1"], "seed.*-1"),
        ([*cum, "--horizons", "5,x"], "5,x"),
        ([*cum, "--horizons", "5,²"], "5,²"),
        ([*cum, "--horizons", "0"], "'0'"),
    )
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert re.search(message, capsys.readouterr().err), argv


def test_nonpositive_counts_rejected_by_the_parser(tmp_path, small_model,
                                                   capsys):
    # a count below 1 is an argument error: argparse exits 2 naming the flag
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    cases = (
        ("simulate", "--paths", "0"), ("simulate", "--days", "-1"),
        ("mgf-check", "--paths", "0"), ("calibrate", "--maturity", "0"),
    )
    for command, flag, value in cases:
        argv = [command, "--params", str(fit), flag, value]
        if command == "calibrate":
            argv += ["--target-iv", "0.2"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert (f"lharg {command}: error: argument {flag}: must be positive"
                in capsys.readouterr().err), argv


def test_failed_run_leaves_no_csv(data_dir, tmp_path, small_model):
    from lharg.io import save_params
    fit, bad = tmp_path / "p.txt", tmp_path / "bad.txt"
    save_params(fit, small_model)
    save_params(bad, small_model, extras={"nu1": "abc"})
    sim = ["simulate", "--params", str(fit), "--days", "5", "--paths", "8"]
    chain = ["price", "--params", str(fit), "--chain",
             str(data_dir / "chain.csv")]
    cases = (
        (["mgf-check", "--params", str(fit), "--paths", "8", "--seed", "-1"],
         2, tmp_path / "m.csv"),
        (["cumulants", "--params", str(fit), "--nu1=-1e9"], 3,
         tmp_path / "c.csv"),
        # a nan, infinite or non-numeric nu1, from --nu1 or the params file
        ([*sim, "--nu1", "nan"], 2, tmp_path / "s.csv"),
        ([*sim, "--nu1", "inf"], 2, tmp_path / "s.csv"),
        ([*chain, "--nu1", "nan"], 2, tmp_path / "p.csv"),
        ([*chain, "--nu1=-inf"], 2, tmp_path / "p.csv"),
        (["price", "--params", str(bad), "--chain",
          str(data_dir / "chain.csv")], 2, tmp_path / "p.csv"),
        (["cumulants", "--params", str(fit), "--nu1", "nan"], 2,
         tmp_path / "c.csv"),
        (["cumulants", "--params", str(bad)], 2, tmp_path / "c.csv"),
        (["mgf-check", "--params", str(fit), "--paths", "8", "--nu1", "nan"],
         2, tmp_path / "m.csv"),
        (["mgf-check", "--params", str(bad), "--paths", "8"], 2,
         tmp_path / "m.csv"),
        (["simulate", "--params", str(bad), "--days", "5", "--paths", "8"],
         2, tmp_path / "s.csv"),
    )
    for argv, code, out in cases:
        assert main([*argv, "--out", str(out)]) == code, argv
        assert not out.exists(), argv


def test_non_finite_rate_rejected(data_dir, tmp_path, capsys):
    # a nan or infinite --rate exits 2 before the fit and writes nothing
    fit, row = tmp_path / "fit_params.txt", tmp_path / "fit_row.csv"
    for rate in ("nan", "inf"):
        assert main(["estimate", "--rv", str(data_dir / "rv.csv"),
                     "--returns", str(data_dir / "returns.csv"),
                     "--variant", "HARG", "--rate", rate,
                     "--out", str(fit), "--csv", str(row)]) == 2, rate
        assert "rate must be finite" in capsys.readouterr().err
        assert not fit.exists() and not row.exists(), rate


def test_misaligned_history_rejected(data_dir, tmp_path, small_model,
                                     capsys):
    # every command that reads both series exits 2 when their dates differ
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    returns = tmp_path / "returns.csv"
    lines = (data_dir / "returns.csv").read_text().splitlines()
    returns.write_text("\n".join(lines[:-1]) + "\n")
    history = ["--rv", str(data_dir / "rv.csv"), "--returns", str(returns)]
    commands = (
        ["estimate", *history, "--variant", "HARG",
         "--out", str(tmp_path / "x.txt"), "--csv", str(tmp_path / "x.csv")],
        ["calibrate", "--params", str(fit), "--target-iv", "0.2", *history,
         "--out", str(tmp_path / "nu1.txt")],
        ["price", "--params", str(fit), "--nu1", "-2500",
         "--chain", str(data_dir / "chain.csv"), *history,
         "--out", str(tmp_path / "priced.csv")],
        ["simulate", "--params", str(fit), "--days", "5", "--paths", "8",
         *history, "--out", str(tmp_path / "s.csv")],
    )
    for argv in commands:
        assert main(argv) == 2, argv[0]
        assert "cover different dates" in capsys.readouterr().err


def test_lone_history_flag_rejected(data_dir, tmp_path, small_model,
                                   capsys):
    # --rv without --returns, or the reverse, exits 2 naming the missing
    # flag and writes no output
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    commands = (
        ["calibrate", "--params", str(fit), "--target-iv", "0.2"],
        ["price", "--params", str(fit), "--nu1", "-2500",
         "--chain", str(data_dir / "chain.csv")],
        ["simulate", "--params", str(fit), "--days", "5", "--paths", "8"],
        ["cumulants", "--params", str(fit)],
    )
    lone = ((["--rv", str(data_dir / "rv.csv")], "missing --returns"),
            (["--returns", str(data_dir / "returns.csv")], "missing --rv"))
    for argv in commands:
        for flag, message in lone:
            out = tmp_path / f"{argv[0]}.out"
            assert main([*argv, *flag, "--out", str(out)]) == 2, argv + flag
            assert message in capsys.readouterr().err
            assert not out.exists(), argv + flag


def test_short_history_rejected(data_dir, tmp_path, small_model, capsys):
    # the commands that start from the history's last date need 22 rows:
    # 21 rows, or a header alone, exit 2 and write nothing
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    rv, ret = (load_rv_series(data_dir / "rv.csv"),
               load_returns(data_dir / "returns.csv"))
    rv_path, ret_path = tmp_path / "rv.csv", tmp_path / "returns.csv"
    history = ["--rv", str(rv_path), "--returns", str(ret_path)]
    commands = (
        ["calibrate", "--params", str(fit), "--target-iv", "0.2"],
        ["simulate", "--params", str(fit), "--days", "5", "--paths", "8"],
        ["cumulants", "--params", str(fit)],
    )
    for n in (21, 0):
        write_series(rv_path, DatedSeries(rv.dates[:n], rv.values[:n]), "rv")
        write_series(ret_path, DatedSeries(ret.dates[:n], ret.values[:n]),
                     "log_return")
        for argv in commands:
            out = tmp_path / f"{argv[0]}.out"
            assert main([*argv, *history, "--out", str(out)]) == 2, (argv, n)
            assert "fewer than 22 observations" in capsys.readouterr().err
            assert not out.exists(), (argv, n)


FIRST_DAY = dt.date(2000, 1, 3)    # the first date of data_dir's history


def _price_quotes(data_dir, tmp_path, small_model, quotes, *flags):
    # `lharg price` on the quotes with data_dir's history; (exit code,
    # output path)
    fit, chain = tmp_path / "p.txt", tmp_path / "chain.csv"
    save_params(fit, small_model)
    write_option_chain(chain, quotes)
    out = tmp_path / "priced.csv"
    out.unlink(missing_ok=True)
    code = main(["price", "--params", str(fit), "--nu1", "-2500",
                 "--chain", str(chain), "--rv", str(data_dir / "rv.csv"),
                 "--returns", str(data_dir / "returns.csv"), *flags,
                 "--out", str(out)])
    return code, out


def test_price_history_must_cover_quote_dates(data_dir, tmp_path,
                                              small_model, capsys):
    # a quote date outside the history, or one with fewer than 22
    # observations up to and including it (index 20), exits 2 naming the
    # date and writes nothing; index 21, the first date with 22, prices
    early = FIRST_DAY + dt.timedelta(days=20)
    cases = ((dt.date(1999, 6, 1),
              "no RV history for quote date 1999-06-01"),
             (early, "fewer than 22 observations up to and including "
                     f"{early}"))
    for qdate, message in cases:
        quote = make_quote(1.0, 40, "call", qdate=qdate, mid=20.0,
                           market_iv=0.2)
        code, out = _price_quotes(data_dir, tmp_path, small_model, (quote,))
        assert code == 2, qdate
        assert message in capsys.readouterr().err
        assert not out.exists(), qdate
    first = make_quote(1.0, 40, "call", qdate=early + dt.timedelta(days=1),
                       mid=20.0, market_iv=0.2)
    code, out = _price_quotes(data_dir, tmp_path, small_model, (first,))
    assert code == 0
    with open(out, newline="") as fh:
        row, = csv.DictReader(fh)
    assert row["error"] == "" and float(row["model_price"]) > 0.0


def test_price_no_filter_prices_screened_rows(data_dir, tmp_path,
                                             small_model):
    # in-the-money quotes fail the OTM screen: a default run drops them,
    # and --no-filter prices them with the rest
    qdate = FIRST_DAY + dt.timedelta(days=1499)
    quotes = tuple(make_quote(m, 40, kind, qdate=qdate, mid=120.0,
                              market_iv=0.2)
                   for m, kind in ((0.9, "call"), (1.0, "call"),
                                   (1.1, "put")))
    for flags, kept in (((), [(1000.0, "call")]),
                        (("--no-filter",), [(900.0, "call"),
                                            (1000.0, "call"),
                                            (1100.0, "put")])):
        code, out = _price_quotes(data_dir, tmp_path, small_model, quotes,
                                  *flags)
        assert code == 0, flags
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted((float(r["strike"]), r["type"]) for r in rows) == kept
        assert all(r["error"] == "" and float(r["model_price"]) > 0.0
                   for r in rows)


def test_evaluate_rejects_malformed_rows(tmp_path, capsys):
    # only rows that failed to price or carry no IV are skipped; a bad
    # number, a bad date or a short row exits 2 at its path:line
    header = ("quote_date,expiry_date,strike,type,mid_price,underlying,rate,"
              "market_iv,model_price,model_iv,error")
    good = "2010-01-04,2010-03-05,1100.0,call,5.0,1000.0,0.0001,0.2,5.1,0.21,"
    skipped = ("2010-01-04,2010-03-05,900.0,put,5.0,1000.0,0.0001,0.2,"
               "nan,nan,COS price NaN or below -1e-10",
               "2010-01-04,2010-03-05,950.0,put,5.0,1000.0,0.0001,,5.1,0.2,")
    results, out = tmp_path / "priced.csv", tmp_path / "panels.csv"
    results.write_text("\n".join([header, good, *skipped]) + "\n")
    assert main(["evaluate", "--results", str(results),
                 "--out", str(out)]) == 0
    panel, = out.read_text().splitlines()[1:]
    assert panel.startswith("1.02,1.1,50,90,1,")    # the good row alone
    capsys.readouterr()
    bad_rows = (
        (good.replace("1100.0", "12O0.0"), "bad strike value '12O0.0'"),
        (good.replace("2010-01-04", "2010-13-01"), "bad date '2010-13-01'"),
        (good.replace("0.2,5.1,0.21,", "0.2"), "expected at least 10"),
    )
    for row, message in bad_rows:
        out.unlink(missing_ok=True)
        results.write_text("\n".join([header, good, row, *skipped]) + "\n")
        assert main(["evaluate", "--results", str(results),
                     "--out", str(out)]) == 2, row
        assert f"{results}:3: {message}" in capsys.readouterr().err
        assert not out.exists()
    # with every row skipped nothing is left to evaluate
    results.write_text("\n".join([header, *skipped]) + "\n")
    assert main(["evaluate", "--results", str(results),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"validation error: no usable rows in {results}\n"
    assert not out.exists()


def test_mgf_check_smoke(data_dir, tmp_path, small_model):
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model, extras={"nu1": -2500.0})
    out = tmp_path / "check.csv"
    code = main(["mgf-check", "--params", str(fit), "--paths", "20000",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "dev_se" in text.splitlines()[0]
    worst = max(float(line.rsplit(",", 1)[1])
                for line in text.splitlines()[1:])
    assert worst < 5.0


def test_mgf_check_reports_clamps(tmp_path, zmlharg, capsys):
    # zero-mean draws clamp now and then; each measure's count is printed
    from lharg import simulate_y_snapshots
    from lharg.cli import MATURITY_GRID
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, zmlharg, extras={"nu1": -1000.0})
    code = main(["mgf-check", "--params", str(fit), "--paths", "2000",
                 "--seed", "4", "--out", str(tmp_path / "check.csv")])
    assert code == 0
    out = capsys.readouterr().out
    st = stationary_state(zmlharg)
    for measure, nu1 in (("P", None), ("Q", -1000.0)):
        _, clamps = simulate_y_snapshots(zmlharg, st, MATURITY_GRID, 2000,
                                         nu1=nu1, seed=4)
        assert clamps > 0, measure
        line = f"{measure} clamps: {clamps} noncentrality clamp events"
        assert out.count(line) == 1, (measure, out)


def test_traced_mgf_check_spans_stay_on_the_main_thread(tmp_path, zmlharg):
    # the benchmark's tracer keeps one span stack, so a public function
    # called off the main thread would nest its span under another
    # thread's; the P and Q runs share the CPUs below every traced call
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    opened_on = []

    class ThreadRecorder(tracing.Recorder):
        def _wrap(self, fn, name):
            traced = super()._wrap(fn, name)

            def wrapper(*args, **kwargs):
                opened_on.append(threading.get_ident())
                return traced(*args, **kwargs)
            return wrapper

    fit = tmp_path / "p.txt"
    save_params(fit, zmlharg, extras={"nu1": -1000.0})
    rec = ThreadRecorder()
    with rec.installed(), rec.command_span("mgf-check"):
        code = cli.main(["mgf-check", "--params", str(fit), "--paths", "2000",
                         "--seed", "4", "--out", str(tmp_path / "check.csv")])
    assert code == 0
    assert rec.check_additivity() == []
    names = [span[0] for span in rec.spans]
    assert "simulate.mc_mgf_from_samples" in names
    for name, _, _, parent, _, _ in rec.spans:
        if name == "simulate.simulate_y_snapshots" and parent is not None:
            assert not names[parent].startswith("simulate."), names[parent]
    assert opened_on and set(opened_on) == {threading.main_thread().ident}


def _scipy_after(src: str, *argvs) -> list:
    # the scipy modules that a fresh interpreter holds after importing
    # lharg.cli and running each argv through main in turn
    code = (f"import json, sys; sys.path.insert(0, {src!r}); import lharg.cli\n"
            f"for argv in {list(argvs)!r}:\n"
            "    if lharg.cli.main(argv):\n"
            "        sys.exit(argv[0] + ' failed')\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_without_scipy(data_dir, tmp_path, small_model):
    # scipy serves only the fit: importing the CLI and running every other
    # command leaves it unloaded, while estimate loads it
    import lharg
    src = str(Path(lharg.__file__).resolve().parents[1])
    assert _scipy_after(src) == []
    params = tmp_path / "p.txt"
    save_params(params, small_model, extras={"nu1": -2500.0})
    p, out = ["--params", str(params)], str(tmp_path / "out.csv")
    history = ["--rv", str(data_dir / "rv.csv"),
               "--returns", str(data_dir / "returns.csv")]
    priced = str(tmp_path / "priced.csv")
    commands = (
        ["simulate", *p, "--days", "5", "--paths", "32", "--out", out],
        ["mgf-check", *p, "--paths", "64", "--out", out],
        ["cumulants", *p, "--horizons", "5,22", "--out", out],
        ["calibrate", *p, "--target-iv", "0.2", "--maturity", "30",
         "--out", str(tmp_path / "nu1.txt")],
        ["price", *p, "--nu1", "-2500", "--chain", str(data_dir / "chain.csv"),
         *history, "--out", priced],
        ["evaluate", "--results", priced, "--out", out],
    )
    assert _scipy_after(src, *commands) == []
    fit = ["estimate", *history, "--variant", "HARG",
           "--out", str(tmp_path / "fit.txt"), "--csv", out]
    assert "scipy.optimize" in _scipy_after(src, fit)
