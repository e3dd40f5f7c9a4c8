"""End-to-end command-line checks on small synthetic inputs."""

import csv
import datetime as dt
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lharg import ModelParams, simulate_paths, stationary_state
from lharg.cli import PATHSET_MAGIC, PATHSET_VERSION, main
from lharg.io import DatedSeries, load_params, save_params
from lharg.options import OptionChain

from oracles import write_option_chain, write_series
from test_pricing import make_quote


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
    write_option_chain(root / "chain.csv", OptionChain(quotes))
    return root


def test_estimate_then_downstream(data_dir, small_model):
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

    code = main(["cumulants", "--params", str(fit_path), "--measure", "P",
                 "--horizons", "22,63",
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

    code = main(["evaluate", "--results", str(data_dir / "priced.csv"),
                 "--out", str(data_dir / "panels.csv")])
    assert code == 0
    assert (data_dir / "panels.csv").read_text().count("\n") >= 2


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
    raw = dump.read_bytes()
    magic, version, n, horizon = struct.unpack_from("<4sIII", raw)
    assert magic == PATHSET_MAGIC
    assert version == PATHSET_VERSION
    assert (n, horizon) == (64, 12)
    assert len(raw) == 16 + 2 * 8 * 64 * 12
    # row-major (n_paths, horizon): rv first, then y, as simulate_paths
    params, _ = load_params(fit)
    ref = simulate_paths(params, stationary_state(params), 12, 64, seed=3)
    rv, y = np.frombuffer(raw, dtype="<f8", offset=16).reshape(2, 64, 12)
    assert np.array_equal(rv, ref.rv_paths)
    assert np.array_equal(y, ref.y_paths)
    # the summary equals a per-day loop over the path columns
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for t in range(12):
        r, x = ref.rv_paths[:, t], ref.y_paths[:, t]
        loop = [t + 1, r.mean(), r.var(), *np.quantile(r, [0.05, 0.5, 0.95]),
                x.mean(), x.var()]
        assert np.array_equal(rows[t], loop)


def test_simulate_q_reads_params_file_nu1(tmp_path, small_model):
    # simulate --measure Q takes nu1 from the params file when --nu1 is
    # absent, as cumulants and mgf-check do
    from lharg.io import save_params
    fit, keyed = tmp_path / "p.txt", tmp_path / "keyed.txt"
    save_params(fit, small_model)
    save_params(keyed, small_model, extras={"nu1": -2500.0})
    q = ["simulate", "--days", "5", "--paths", "32", "--seed", "4",
         "--measure", "Q"]
    flag, key = tmp_path / "flag.csv", tmp_path / "key.csv"
    assert main([*q, "--params", str(fit), "--nu1", "-2500",
                 "--out", str(flag)]) == 0
    assert main([*q, "--params", str(keyed), "--out", str(key)]) == 0
    assert key.read_bytes() == flag.read_bytes()


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
    # Q simulation without nu1 -> validation (2)
    assert main(["simulate", "--params", str(fit), "--days", "5",
                 "--paths", "8", "--measure", "Q",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_bad_simulator_inputs_rejected(tmp_path, small_model, capsys):
    # each bad value exits 2 with a message naming it
    from lharg.io import save_params
    fit = tmp_path / "p.txt"
    save_params(fit, small_model)
    base = ["--params", str(fit), "--paths", "8", "--out", str(tmp_path / "o")]
    cases = (
        (["simulate", *base, "--days", "5", "--burn-in", "-3"], "burn_in.*-3"),
        (["simulate", *base, "--days", "5", "--seed", "-1"], "seed.*-1"),
        (["mgf-check", *base, "--seed", "-1"], "seed.*-1"),
        (["cumulants", "--params", str(fit), "--measure", "P",
          "--horizons", "5,x", "--out", str(tmp_path / "c")], "5,x"),
        (["cumulants", "--params", str(fit), "--measure", "P",
          "--horizons", "5,²", "--out", str(tmp_path / "c")], "5,²"),
        (["cumulants", "--params", str(fit), "--measure", "P",
          "--horizons", "0", "--out", str(tmp_path / "c")], "'0'"),
        (["simulate", *base, "--nu1=-2000"], "--nu1 conflicts with --measure P"),
    )
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert re.search(message, capsys.readouterr().err), argv


def test_failed_run_leaves_no_csv(data_dir, tmp_path, small_model):
    from lharg.io import save_params
    fit, bad = tmp_path / "p.txt", tmp_path / "bad.txt"
    save_params(fit, small_model)
    save_params(bad, small_model, extras={"nu1": "abc"})
    sim_q = ["simulate", "--params", str(fit), "--days", "5", "--paths", "8",
             "--measure", "Q"]
    chain = ["price", "--params", str(fit), "--chain",
             str(data_dir / "chain.csv")]
    cases = (
        (["mgf-check", "--params", str(fit), "--paths", "8", "--seed", "-1"],
         2, tmp_path / "m.csv"),
        (["cumulants", "--params", str(fit), "--measure", "both",
          "--nu1=-1e9"], 3, tmp_path / "c.csv"),
        # a nan, infinite or non-numeric nu1, from --nu1 or the params file
        ([*sim_q, "--nu1", "nan"], 2, tmp_path / "s.csv"),
        ([*sim_q, "--nu1", "inf"], 2, tmp_path / "s.csv"),
        ([*chain, "--nu1", "nan"], 2, tmp_path / "p.csv"),
        ([*chain, "--nu1=-inf"], 2, tmp_path / "p.csv"),
        (["cumulants", "--params", str(fit), "--nu1", "nan"], 2,
         tmp_path / "c.csv"),
        (["cumulants", "--params", str(bad)], 2, tmp_path / "c.csv"),
        (["mgf-check", "--params", str(fit), "--paths", "8", "--nu1", "nan"],
         2, tmp_path / "m.csv"),
        (["mgf-check", "--params", str(bad), "--paths", "8"], 2,
         tmp_path / "m.csv"),
        (["simulate", "--params", str(bad), "--days", "5", "--paths", "8",
          "--measure", "Q"], 2, tmp_path / "s.csv"),
        # an explicit --nu1 that measure P would leave unused
        (["simulate", "--params", str(fit), "--days", "5", "--paths", "8",
          "--nu1=-2000"], 2, tmp_path / "s.csv"),
        (["cumulants", "--params", str(fit), "--measure", "P",
          "--nu1=-2000"], 2, tmp_path / "c.csv"),
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
        ["cumulants", "--params", str(fit), "--measure", "P"],
    )
    lone = ((["--rv", str(data_dir / "rv.csv")], "missing --returns"),
            (["--returns", str(data_dir / "returns.csv")], "missing --rv"))
    for argv in commands:
        for flag, message in lone:
            out = tmp_path / f"{argv[0]}.out"
            assert main([*argv, *flag, "--out", str(out)]) == 2, argv + flag
            assert message in capsys.readouterr().err
            assert not out.exists(), argv + flag


FIRST_DAY = dt.date(2000, 1, 3)    # the first date of data_dir's history


def _price_quotes(data_dir, tmp_path, small_model, quotes, *flags):
    # `lharg price` on the quotes with data_dir's history; (exit code,
    # output path)
    fit, chain = tmp_path / "p.txt", tmp_path / "chain.csv"
    save_params(fit, small_model)
    write_option_chain(chain, OptionChain(quotes))
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
    # observations up to it, exits 2 naming the date and writes nothing
    early = FIRST_DAY + dt.timedelta(days=20)
    cases = ((dt.date(1999, 6, 1),
              "no RV history for quote date 1999-06-01"),
             (early, f"fewer than 22 observations before {early}"))
    for qdate, message in cases:
        quote = make_quote(1.0, 40, "call", qdate=qdate, mid=20.0,
                           market_iv=0.2)
        code, out = _price_quotes(data_dir, tmp_path, small_model, (quote,))
        assert code == 2, qdate
        assert message in capsys.readouterr().err
        assert not out.exists(), qdate


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


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs most of the CLI's import time and nothing needs it
    import lharg
    src = str(Path(lharg.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import lharg.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "scipy.stats was imported"
