"""The noncentral-gamma draw, path dynamics, and Monte Carlo estimators."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lharg import (
    MarketState,
    NumericalError,
    ValidationError,
    expand_weights,
    filter_innovations,
    simulate_paths,
    simulate_y_snapshots,
    stationary_mean_rv,
    stationary_state,
    theta_noncentrality,
)
from lharg import simulate
from lharg.simulate import mc_mgf_from_samples

from oracles import conditional_covariance


def _check_day_one_moments(params, big_theta, seed):
    # day-1 variances of 10**6 kernel paths from a lag state whose flat rv
    # lags give noncentrality big_theta (its leverage lags are zero) have
    # the noncentral gamma's mean theta (delta + Theta) and variance
    # theta^2 (delta + 2 Theta), each within 3 standard errors
    beta_sum = params.beta_d + params.beta_w + params.beta_m
    st = MarketState(rv=np.full(22, big_theta / beta_sum), lev=np.zeros(22))
    assert abs(theta_noncentrality(params, st) - big_theta) < 1e-12
    x = simulate_paths(params, st, 1, 10**6, seed=seed).rv_paths[:, 0]
    mean_exact = params.theta * (params.delta + big_theta)
    var_exact = params.theta**2 * (params.delta + 2.0 * big_theta)
    se_mean = x.std() / np.sqrt(x.size)
    assert abs(x.mean() - mean_exact) < 3.0 * se_mean
    se_var = ((x - x.mean()) ** 2).std() / np.sqrt(x.size)
    assert abs(x.var() - var_exact) < 3.0 * se_var


class TestNoncentralGamma:
    """The kernel's variance draw: theta * Gamma(delta + Poisson(Theta))."""

    def test_degenerate_mixture_is_plain_gamma(self, harg):
        _check_day_one_moments(harg, 0.0, seed=1)

    def test_mean_and_variance(self, harg):
        _check_day_one_moments(harg, 9.0, seed=2)


class TestSimulatePaths:
    def test_deterministic_under_fixed_seed(self, zmlharg):
        st = stationary_state(zmlharg)
        a = simulate_paths(zmlharg, st, 30, 500, seed=9)
        b = simulate_paths(zmlharg, st, 30, 500, seed=9)
        assert np.array_equal(a.rv_paths, b.rv_paths)
        assert np.array_equal(a.y_paths, b.y_paths)
        assert a.clamp_count == b.clamp_count
        c = simulate_paths(zmlharg, st, 30, 500, seed=10)
        assert not np.array_equal(a.y_paths, c.y_paths)

    def test_rv_nonnegative_and_shapes(self, plharg):
        st = stationary_state(plharg)
        paths = simulate_paths(plharg, st, 40, 256, seed=4)
        assert paths.rv_paths.shape == (256, 40)
        assert np.all(paths.rv_paths >= 0.0)

    def test_no_clamping_for_positive_variants(self, harg, plharg):
        for params in (harg, plharg):
            st = stationary_state(params)
            paths = simulate_paths(params, st, 100, 2000, seed=5)
            assert paths.clamp_count == 0

    def test_zero_mean_clamps_rarely(self, zmlharg):
        st = stationary_state(zmlharg)
        paths = simulate_paths(zmlharg, st, 252, 20000, seed=6)
        rate = paths.clamp_count / paths.rv_paths.size
        assert paths.clamp_count > 0
        assert rate < 1e-3   # order-of-magnitude guard; exact rate in acceptance

    def test_harg_long_run_mean(self, harg):
        # time-and-path average over a long window approaches the
        # stationary mean theta*delta / (1 - theta*sum(beta))
        target = stationary_mean_rv(harg)
        beta_sum = harg.beta_d + harg.beta_w + harg.beta_m
        oracle = harg.theta * harg.delta / (1.0 - harg.theta * beta_sum)
        assert abs(target - oracle) <= 1e-15
        paths = simulate_paths(harg, stationary_state(harg), 252, 2000, seed=8)
        block_means = paths.rv_paths.mean(axis=1)
        se = block_means.std() / np.sqrt(len(block_means))
        assert abs(block_means.mean() - oracle) < 3.0 * se

    def test_q_path_level_martingale(self, zmlharg):
        st = stationary_state(zmlharg)
        ysnap, _ = simulate_y_snapshots(zmlharg, st, [126], 100000,
                                        nu1=-3375.0, seed=21)
        w = np.exp(ysnap[:, 0] - zmlharg.r * 126)
        se = w.std() / np.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 3.0 * se

    def test_filtered_innovations_normality(self, plharg):
        st = stationary_state(plharg)
        paths = simulate_paths(plharg, st, 50, 2000, seed=30)
        eps = filter_innovations(paths.y_paths.ravel(), paths.rv_paths.ravel(),
                                 plharg.r, plharg.lam)
        n = eps.size
        assert abs(eps.mean()) < 3.0 / np.sqrt(n)
        assert abs(eps.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)
        skew = np.mean(eps**3)
        assert abs(skew) < 3.0 * np.sqrt(6.0 / n)

    def test_snapshots_match_paths(self, zmlharg):
        st = stationary_state(zmlharg)
        paths = simulate_paths(zmlharg, st, 63, 1000, seed=14)
        ysnap, clamps = simulate_y_snapshots(zmlharg, st, [22, 63], 1000,
                                             seed=14)
        assert clamps == paths.clamp_count
        cum = np.cumsum(paths.y_paths, axis=1)
        assert np.array_equal(ysnap[:, 0], cum[:, 21])
        assert np.array_equal(ysnap[:, 1], cum[:, 62])

    def test_burn_in_decorrelates_start(self, plharg):
        # an exaggerated start state relaxes to the stationary level
        st = stationary_state(plharg)
        hot = st.__class__(rv=st.rv * 25.0, lev=st.lev)
        paths = simulate_paths(plharg, hot, 5, 4000, seed=15, burn_in=1000)
        target = stationary_mean_rv(plharg)
        mean = paths.rv_paths[:, 0].mean()
        se = paths.rv_paths[:, 0].std() / np.sqrt(paths.rv_paths.shape[0])
        assert abs(mean - target) < 4.0 * se

    def test_one_kernel_across_blocks(self, zmlharg, monkeypatch):
        # snapshots are running sums of the very paths simulate_paths
        # draws, block by block, in the requested column order
        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 7)
        st = stationary_state(zmlharg)
        for nu1 in (None, -3375.0):
            paths = simulate_paths(zmlharg, st, 30, 20, nu1=nu1, seed=5)
            cum = np.cumsum(paths.y_paths, axis=1)
            for maturities in ([1, 10, 30], [30, 3, 12], [7, 30, 7, 1]):
                ysnap, clamps = simulate_y_snapshots(
                    zmlharg, st, maturities, 20, nu1=nu1, seed=5)
                m = np.array(maturities)
                assert np.array_equal(ysnap, cum[:, m - 1])
                assert clamps == paths.clamp_count

    def test_clamps_counted_on_recorded_days(self, zmlharg):
        st = stationary_state(zmlharg)
        burnt = simulate_paths(zmlharg, st, 200, 3000, seed=6, burn_in=60)
        whole = simulate_paths(zmlharg, st, 260, 3000, seed=6)
        assert np.array_equal(burnt.y_paths, whole.y_paths[:, 60:])
        _, head = simulate_y_snapshots(zmlharg, st, [60], 3000, seed=6)
        assert 0 < head < whole.clamp_count
        assert burnt.clamp_count == whole.clamp_count - head

    def test_paths_memory_is_the_output(self, plharg):
        # the path matrices are written in place, not assembled from copies
        st = stationary_state(plharg)
        simulate_paths(plharg, st, 5, 10, seed=1)   # warm caches
        tracemalloc.start()
        try:
            paths = simulate_paths(plharg, st, 500, 2000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = paths.rv_paths.nbytes + paths.y_paths.nbytes
        assert peak <= 1.5 * out_bytes

    def test_blocks_drained_one_at_a_time(self, plharg, monkeypatch):
        # 16 blocks of 250 paths: one block's working set is held beside
        # the output at a time (peak 1.13 x the output); stepping them all
        # in lockstep holds every block's (2.5 x)
        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 250)
        st = stationary_state(plharg)
        simulate_paths(plharg, st, 5, 10, seed=1)   # warm caches
        tracemalloc.start()
        try:
            simulate_paths(plharg, st, 20, 4000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 * 8 * 20 * 4000

    def test_negative_burn_in_rejected(self, plharg):
        st = stationary_state(plharg)
        with pytest.raises(ValidationError, match="burn_in.*-3"):
            simulate_paths(plharg, st, 5, 10, burn_in=-3)

    def test_negative_seed_rejected(self, plharg):
        st = stationary_state(plharg)
        with pytest.raises(ValidationError, match="seed.*-1"):
            simulate_paths(plharg, st, 5, 10, seed=-1)
        with pytest.raises(ValidationError, match="seed.*-1"):
            simulate_y_snapshots(plharg, st, [5], 10, seed=-1)

    def test_repeated_maturities_fill_each_column(self, plharg):
        st = stationary_state(plharg)
        ysnap, _ = simulate_y_snapshots(plharg, st, [5, 5], 10, seed=2)
        assert np.array_equal(ysnap[:, 0], ysnap[:, 1])
        paths = simulate_paths(plharg, st, 5, 10, seed=2)
        assert np.array_equal(ysnap[:, 0], paths.y_paths.cumsum(axis=1)[:, 4])

    def test_empty_maturities_rejected(self, plharg):
        st = stationary_state(plharg)
        with pytest.raises(ValidationError, match="maturities"):
            simulate_y_snapshots(plharg, st, [], 10)
        with pytest.raises(ValidationError, match="maturities"):
            simulate_y_snapshots(plharg, st, [5, 0], 10)

    def test_counts_must_be_whole(self, plharg):
        # a fractional or string count names its argument instead of being
        # truncated or failing inside numpy
        st = stationary_state(plharg)
        cases = (
            (simulate_y_snapshots, (st, [2.7, 5], 10), {}, "maturities.*2.7"),
            (simulate_paths, (st, 5.0, 10), {}, "horizon.*5.0"),
            (simulate_paths, (st, "5", 10), {}, "horizon.*'5'"),
            (simulate_paths, (st, 5, 10.0), {}, "n_paths.*10.0"),
            (simulate_paths, (st, 5, 10), {"burn_in": 2.5}, "burn_in.*2.5"),
            (simulate_paths, (st, 5, 10), {"seed": 1.0}, "seed.*1.0"),
        )
        for func, args, kwargs, message in cases:
            with pytest.raises(ValidationError, match=message):
                func(plharg, *args, **kwargs)

    def test_numpy_integer_counts_accepted(self, plharg):
        st = stationary_state(plharg)
        ints = simulate_paths(plharg, st, 5, 10, seed=2, burn_in=3)
        paths = simulate_paths(plharg, st, np.int64(5), np.int32(10),
                               seed=np.uint32(2), burn_in=np.int16(3))
        assert np.array_equal(paths.y_paths, ints.y_paths)
        ysnap, _ = simulate_y_snapshots(plharg, st, np.array([2, 5]),
                                        np.int64(10), seed=np.int64(2))
        ref, _ = simulate_y_snapshots(plharg, st, [2, 5], 10, seed=2)
        assert np.array_equal(ysnap, ref)

    def test_snapshot_path_count_checked(self, plharg):
        st = stationary_state(plharg)
        with pytest.raises(ValidationError, match="n_paths.*0"):
            simulate_y_snapshots(plharg, st, [5], 0)


def negative_on_day_4(p, st, n, rng, days, kernel=simulate._day_steps):
    # the kernel's days with day 4's variances negated
    for day, (rv, y, c) in enumerate(kernel(p, st, n, rng, days)):
        yield (-rv if day == 4 else rv), y, c


def _cold_state(params):
    # rv lags at a tenth of the stationary level and zero leverage lags:
    # the zero-mean variant's noncentrality starts below zero and clamps
    return MarketState(rv=0.1 * stationary_state(params).rv, lev=np.zeros(22))


class TestRecordedDays:
    def test_rows_are_the_paths(self, zmlharg, monkeypatch):
        # 3 blocks of 7 stepped in lockstep after a burn-in: each row is
        # that day of simulate_paths and of the blocks drained one after
        # another, bit for bit, clamps included
        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 7)
        st = _cold_state(zmlharg)
        for nu1 in (None, -3375.0):
            rows = list(simulate._recorded_days(zmlharg, st, 30, 20, nu1, 5,
                                                3))
            paths = simulate_paths(zmlharg, st, 30, 20, nu1=nu1, seed=5,
                                   burn_in=3)
            rv, y, _ = _drained_in_turn(zmlharg, st, nu1, 20, 5, 33)
            assert len(rows) == 30
            for day, (r, s, _) in enumerate(rows):
                assert np.array_equal(r, paths.rv_paths[:, day])
                assert np.array_equal(s, paths.y_paths[:, day])
                assert np.array_equal(r, rv[:, 3 + day])
                assert np.array_equal(s, y[:, 3 + day])
            clamps = sum(c for _, _, c in rows)
            assert clamps == paths.clamp_count > 0, nu1

    def test_arguments_checked_at_the_call(self, plharg, monkeypatch):
        # a bad count raises when _recorded_days is called, not at its
        # first row, and before any block's day steps are set up
        def no_steps(*args):
            raise AssertionError("day steps set up for bad arguments")

        monkeypatch.setattr(simulate, "_day_steps", no_steps)
        st = stationary_state(plharg)
        cases = (((5.0, 10, None, 0, 0), "horizon.*5.0"),
                 ((5, 0, None, 0, 0), "n_paths.*0"),
                 ((5, 10, None, 1.5, 0), "seed.*1.5"),
                 ((5, 10, None, 0, -2), "burn_in.*-2"))
        for args, message in cases:
            with pytest.raises(ValidationError, match=message):
                simulate._recorded_days(plharg, st, *args)

    def test_negative_variance_raises(self, plharg, monkeypatch):
        # every streamed row is checked, as every PathSet is
        monkeypatch.setattr(simulate, "_day_steps", negative_on_day_4)
        st = stationary_state(plharg)
        rows = simulate._recorded_days(plharg, st, 10, 20, None, 0, 2)
        next(rows), next(rows)
        with pytest.raises(ValidationError, match="nonnegative"):
            next(rows)
        with pytest.raises(ValidationError, match="nonnegative"):
            simulate.PathSet(rv_paths=-np.ones((2, 3)),
                             y_paths=np.zeros((2, 3)), clamp_count=0)


def _shift_and_add(p, st, n, rng, days):
    # the literal kernel: both 22-lag buffers shift by one row every day and
    # Theta weights all 22 lags; same RNG calls in the same order
    weights = expand_weights(p)
    rv_buf = np.repeat(st.rv[:, None], n, axis=1)    # (22, n), row i = lag i+1
    lev_buf = np.repeat(st.lev[:, None], n, axis=1)
    for _ in range(days):
        nc = p.d + weights[0] @ rv_buf + weights[1] @ lev_buf
        neg = nc < 0.0
        clamps = int(np.count_nonzero(neg))
        nc[neg] = 0.0
        k = rng.poisson(nc)
        rv_new = rng.standard_gamma(p.delta + k) * p.theta
        eps = rng.standard_normal(n)
        vol = np.sqrt(rv_new)
        yield rv_new, p.r + p.lam * rv_new + vol * eps, clamps
        rv_buf[1:] = rv_buf[:-1]
        rv_buf[0] = rv_new
        lev_buf[1:] = lev_buf[:-1]
        lev_buf[0] = (eps - p.gamma_lev * vol) ** 2


class TestAgainstShiftAndAdd:
    def test_paths_match(self, plharg, zmlharg, monkeypatch):
        # the ring and its running window sums draw the very paths of the
        # shift-and-add kernel, bit for bit, across RNG blocks and after a
        # long burn-in; the zero-mean cases clamp on recorded days.  Theta
        # is summed in another order, but a path sees it only through the
        # integer Poisson draw, which a last-bit change flips with
        # probability of order 1e-16 per draw
        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 600)
        cases = ((plharg, None, False), (zmlharg, None, True),
                 (zmlharg, -1000.0, True))
        for params, nu1, clamping in cases:
            run = dict(state=stationary_state(params), horizon=250,
                       n_paths=1000, nu1=nu1, seed=3, burn_in=2000)
            ring = simulate_paths(params, **run)
            with monkeypatch.context() as m:
                m.setattr(simulate, "_day_steps", _shift_and_add)
                ref = simulate_paths(params, **run)
            assert np.array_equal(ring.rv_paths, ref.rv_paths)
            assert np.array_equal(ring.y_paths, ref.y_paths)
            assert ring.clamp_count == ref.clamp_count
            assert (ring.clamp_count > 0) == clamping


def _drained_in_turn(params, st, nu1, n_paths, seed, days):
    # every block's day loop in the calling thread, one after another
    rv = np.empty((days, n_paths))
    y = np.empty((days, n_paths))
    clamps = 0
    for rows, steps in simulate._recorded(params, st, days, n_paths, nu1, seed):
        for day, (r, s, c) in enumerate(steps):
            rv[day, rows] = r
            y[day, rows] = s
            clamps += c
    return rv.T, y.T, clamps


class TestConcurrentRuns:
    @pytest.mark.parametrize("cpus", [1, 2, 6])
    def test_same_as_blocks_in_turn(self, zmlharg, monkeypatch, cpus):
        # 3 blocks a run, on no worker, one, and more CPUs than runs with
        # a short switch interval: bit for bit the blocks drained one
        # after another, clamps included
        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 700)
        monkeypatch.setattr(simulate, "_cpus", lambda: cpus)
        st = stationary_state(zmlharg)
        maturities = [252, 1, 63, 252]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = simulate._snapshot_runs(zmlharg, st, maturities, 2000,
                                           [None, -3375.0], 4)
            for nu1, (ysnap, clamps) in zip([None, -3375.0], runs):
                rv, y, ref_clamps = _drained_in_turn(zmlharg, st, nu1, 2000,
                                                     4, 252)
                paths = simulate_paths(zmlharg, st, 252, 2000, nu1=nu1,
                                       seed=4)
                assert np.array_equal(paths.rv_paths, rv)
                assert np.array_equal(paths.y_paths, y)
                assert paths.clamp_count == ref_clamps > 0
                cum = np.cumsum(y, axis=1)
                assert np.array_equal(ysnap, cum[:, np.array(maturities) - 1])
                assert clamps == ref_clamps
                alone = simulate_y_snapshots(zmlharg, st, maturities, 2000,
                                             nu1=nu1, seed=4)
                assert np.array_equal(alone[0], ysnap)
                assert alone[1] == clamps
        finally:
            sys.setswitchinterval(interval)

    def test_failed_job_raises_in_caller(self, zmlharg, monkeypatch):
        # the Q run's day loop fails on a worker thread: its error re-raises
        # in the caller, and no thread outlives the call
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        original = simulate._day_steps
        created, failed_on = [], []

        def failing(*args):
            job = len(created)
            created.append(job)

            def steps():
                if job == 1:
                    failed_on.append(threading.get_ident())
                    raise NumericalError("day step failed")
                yield from original(*args)
            return steps()

        monkeypatch.setattr(simulate, "_day_steps", failing)
        st = stationary_state(zmlharg)
        before = threading.active_count()
        with pytest.raises(NumericalError, match="day step failed"):
            simulate._snapshot_runs(zmlharg, st, [5, 10], 50,
                                    [None, -3375.0], 1)
        assert threading.active_count() == before
        assert created == [0, 1]
        assert failed_on and failed_on[0] != threading.get_ident()

    def test_blocks_of_a_run_held_one_at_a_time(self, zmlharg, monkeypatch):
        # a run drains its 10 blocks in turn, so the call holds about one
        # block's working set per run, as a one-run call of 1 block does.
        # The baseline starts no thread: a two-run, 1-block call would
        # peak at one or two working sets, as its jobs overlap or not
        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 500)
        monkeypatch.setattr(simulate, "_cpus", lambda: 4)
        st = stationary_state(zmlharg)
        simulate_y_snapshots(zmlharg, st, [5], 10)    # warm caches

        def peak(nu1s, n_paths):
            tracemalloc.start()
            try:
                runs = simulate._snapshot_runs(zmlharg, st, [1, 21, 63],
                                               n_paths, nu1s, 3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - sum(out.nbytes for out, _ in runs)

        one_block = peak([None], 500)
        for nu1s in ([None], [None, -3375.0]):
            ten_blocks = peak(nu1s, 5000)
            assert ten_blocks <= 1.5 * len(nu1s) * one_block, \
                (nu1s, ten_blocks, one_block)

    def test_one_run_starts_no_thread(self, zmlharg, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a one-run call started a thread pool")

        monkeypatch.setattr(simulate, "DEFAULT_BLOCK", 500)
        monkeypatch.setattr(simulate, "_cpus", lambda: 4)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        ysnap, _ = simulate_y_snapshots(zmlharg, stationary_state(zmlharg),
                                        [5, 10], 2000, seed=3)
        assert ysnap.shape == (2000, 2)


class TestMcMgf:
    def test_zero_argument(self, plharg):
        paths = simulate_paths(plharg, stationary_state(plharg), 10, 200,
                               seed=16)
        est, se = mc_mgf_from_samples(paths.y_paths.sum(axis=1), [0.0])
        assert est[0] == 1.0
        assert se[0] == 0.0

    def test_se_scales_with_sample_size(self, plharg):
        st = stationary_state(plharg)
        small = simulate_paths(plharg, st, 22, 4000, seed=18)
        large = simulate_paths(plharg, st, 22, 16000, seed=18)
        _, se_small = mc_mgf_from_samples(small.y_paths.sum(axis=1), [1.0])
        _, se_large = mc_mgf_from_samples(large.y_paths.sum(axis=1), [1.0])
        ratio = se_small[0].real / se_large[0].real
        assert abs(ratio - 2.0) < 0.2

    def test_matches_analytic_within_se(self, zmlharg):
        from lharg import mgf_p
        st = stationary_state(zmlharg)
        paths = simulate_paths(zmlharg, st, 22, 50000, seed=19)
        zs = np.array([-1.0, 2.0, 1j * 10.0], dtype=complex)
        est, se = mc_mgf_from_samples(paths.y_paths.sum(axis=1), zs)
        analytic = mgf_p(zmlharg, st, zs, 22)
        for i in range(len(zs)):
            assert abs(analytic[i].real - est[i].real) < 3.0 * se[i].real
            if se[i].imag > 0:
                assert abs(analytic[i].imag - est[i].imag) < 3.0 * se[i].imag

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError, match="no samples"):
            mc_mgf_from_samples(np.empty(0), [1.0])


class TestConditionalCovarianceMC:
    def test_matches_simulation(self, zmlharg):
        # two-day simulation from a fixed state: cov(y_1, RV_2 | state)
        st = stationary_state(zmlharg)
        target = conditional_covariance(zmlharg, st)
        paths = simulate_paths(zmlharg, st, 2, 120000, seed=20)
        y1 = paths.y_paths[:, 0]
        rv2 = paths.rv_paths[:, 1]
        prod = (y1 - y1.mean()) * (rv2 - rv2.mean())
        cov = prod.mean()
        se = prod.std() / np.sqrt(len(prod))
        assert abs(cov - target) < 3.0 * se

    def test_exact_when_lam_zero(self, zmlharg):
        # with lam = 0 the dropped variance term vanishes and the formula
        # is exact, so a tighter Monte Carlo check applies
        params = zmlharg.__class__(**{**zmlharg.__dict__, "lam": 0.0})
        st = stationary_state(params)
        target = conditional_covariance(params, st)
        paths = simulate_paths(params, st, 2, 400000, seed=22)
        y1 = paths.y_paths[:, 0]
        rv2 = paths.rv_paths[:, 1]
        prod = (y1 - y1.mean()) * (rv2 - rv2.mean())
        se = prod.std() / np.sqrt(len(prod))
        assert abs(prod.mean() - target) < 3.0 * se
