"""Parameter containers, lag expansion, leverage kernels, measure change."""

from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from lharg import (
    MarketState,
    ModelParams,
    ParabolicForm,
    ValidationError,
    MappingSingularError,
    expand_weights,
    filter_innovations,
    leverage,
    mgf_p,
    mgf_q,
    parabolic_form,
    simulate_paths,
    state_from_series,
    stationarity_margin,
    stationary_mean_rv,
    stationary_state,
    theta_noncentrality,
)
from lharg.io import PARAM_FIELDS
from lharg.model import (
    _SCALE_FIELDS,
    risk_neutral_nu1,
    risk_neutral_parabolic,
    stationary_scale_floor,
)
from lharg.pricing import price_chain

from conftest import random_state_arrays
from oracles import risk_neutral_map
from test_pricing import make_quote


def _q_form(params, nu1):
    # the package's one P -> Q map
    return risk_neutral_parabolic(parabolic_form(params), nu1)


class TestModelParams:
    def test_variant_invariants_enforced(self, all_variants):
        # every variant is stored without a constant: one check ahead of the
        # variant's own rules
        for params in all_variants:
            with pytest.raises(ValidationError,
                               match=f"^{params.variant} requires d = 0$"):
                replace(params, d=1e-6)
        with pytest.raises(ValidationError, match="HARG requires all alphas"):
            ModelParams(variant="HARG", theta=1e-5, delta=1.0, d=0.0,
                        beta_d=100.0, beta_w=0.0, beta_m=0.0,
                        alpha_d=0.5, alpha_w=0.0, alpha_m=0.0,
                        gamma_lev=0.0, lam=0.0, r=0.0)
        with pytest.raises(ValidationError, match="nonnegative alphas"):
            ModelParams(variant="P-LHARG", theta=1e-5, delta=1.0, d=0.0,
                        beta_d=-1.0, beta_w=0.0, beta_m=0.0,
                        alpha_d=0.0, alpha_w=0.0, alpha_m=0.0,
                        gamma_lev=1.0, lam=0.0, r=0.0)
        # the simulator's gamma draw needs theta > 0 and delta > 0
        for theta, delta in ((-1e-5, 1.0), (0.0, 1.0), (1e-5, 0.0)):
            with pytest.raises(ValidationError, match="strictly positive"):
                ModelParams(variant="P-LHARG", theta=theta, delta=delta,
                            d=0.0, beta_d=0.0, beta_w=0.0, beta_m=0.0,
                            alpha_d=0.0, alpha_w=0.0, alpha_m=0.0,
                            gamma_lev=1.0, lam=0.0, r=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            ModelParams(variant="GARCH", theta=1e-5, delta=1.0, d=0.0,
                        beta_d=0.0, beta_w=0.0, beta_m=0.0,
                        alpha_d=0.0, alpha_w=0.0, alpha_m=0.0,
                        gamma_lev=0.0, lam=0.0, r=0.0)


class TestFieldsCarriedThrough:
    def test_every_field_carried_through(self, harg, plharg, zmlharg):
        # the params-file keys, the parabolic form and the Q map are read
        # off the dataclass fields: each field is kept, or rescaled by the
        # map's c, none is dropped or swapped
        names = tuple(f.name for f in fields(ParabolicForm))
        assert PARAM_FIELDS == ("variant", *names)
        # one declaration of the shared fields; the variant tag comes last
        # and only by keyword
        assert tuple(f.name for f in fields(ModelParams)) == (*names, "variant")
        with pytest.raises(TypeError):
            ModelParams(*(getattr(harg, name) for name in PARAM_FIELDS))
        for params in (harg, plharg):
            p = parabolic_form(params)
            for name in names:
                assert getattr(p, name) == getattr(params, name), name
        scaled = {"theta", "d", "beta_d", "beta_w", "beta_m",
                  "alpha_d", "alpha_w", "alpha_m"}
        assert set(_SCALE_FIELDS) == scaled
        nu1 = -3375.0
        p = parabolic_form(zmlharg)     # d != 0 on the zero-mean reduction
        q = risk_neutral_parabolic(p, nu1)
        c = 1.0 - p.theta * (-0.5 * p.lam**2 - nu1 + 0.125)
        for name in names:
            if name in scaled:
                assert getattr(q, name) == getattr(p, name) / c, name
        assert (q.delta, q.r) == (p.delta, p.r)
        assert (q.gamma_lev, q.lam) == (p.gamma_lev + p.lam + 0.5, -0.5)


class TestExpandWeights:
    def test_weekly_split(self, zmlharg):
        w = expand_weights(zmlharg)
        # 2.542e4 / 4 = 6355 on lags 2..5
        assert np.allclose(w[0, 1:5], 6355.0)

    def test_daily_passthrough(self, zmlharg):
        assert expand_weights(zmlharg)[0, 0] == 3.382e4

    def test_monthly_split(self, zmlharg):
        w = expand_weights(zmlharg)
        # 1.338e4 / 17 = 787.0588...
        assert np.allclose(w[0, 5:], 13380.0 / 17.0)
        assert abs(w[0, 5] - 787.0588235294118) < 1e-9

    def test_sums_recover_factor_loadings(self, all_variants):
        rng = np.random.default_rng(42)
        for params in all_variants:
            w = expand_weights(params)
            total_b = params.beta_d + params.beta_w + params.beta_m
            total_a = params.alpha_d + params.alpha_w + params.alpha_m
            assert abs(w[0].sum() - total_b) <= 1e-12 * max(total_b, 1.0)
            assert abs(w[1].sum() - total_a) <= 1e-12 * max(total_a, 1.0)
        for _ in range(50):
            bd, bw, bm = rng.uniform(0.0, 5e4, 3)
            p = ParabolicForm(theta=1e-5, delta=1.0, d=0.0, beta_d=bd,
                              beta_w=bw, beta_m=bm, alpha_d=0.1, alpha_w=0.2,
                              alpha_m=0.3, gamma_lev=100.0, lam=0.0, r=0.0)
            w = expand_weights(p)
            assert abs(w[0].sum() - (bd + bw + bm)) \
                <= 1e-12 * max(bd + bw + bm, 1.0)


class TestLeverage:
    def test_parabolic_origin(self):
        assert leverage(0.0, 0.0, 134.8, "P-LHARG") == 0.0

    def test_zero_mean_collapses(self):
        assert leverage(0.0, 3.3e-4, 134.8, "ZM-LHARG") == -1.0

    def test_parabolic_hand_value(self):
        # (-1 - 134.8*0.01)^2 = (-2.348)^2
        val = leverage(-1.0, 1e-4, 134.8, "P-LHARG")
        assert abs(val - 5.513104) < 1e-12

    def test_negative_rv_rejected(self):
        with pytest.raises(ValidationError):
            leverage(0.5, -1e-6, 100.0, "P-LHARG")

    def test_array_input(self):
        eps = np.array([0.0, 1.0, -1.0])
        rv = np.full(3, 1e-4)
        out = leverage(eps, rv, 100.0, "ZM-LHARG")
        assert out.shape == (3,)
        assert np.allclose(out, eps**2 - 1.0 - 2.0 * eps * 100.0 * 0.01)


class TestThetaNoncentrality:
    def test_empty_state_returns_constant(self):
        p = ParabolicForm(theta=1e-5, delta=1.0, d=0.37, beta_d=1e4,
                          beta_w=1e4, beta_m=1e4, alpha_d=0.1, alpha_w=0.1,
                          alpha_m=0.1, gamma_lev=50.0, lam=0.0, r=0.0)
        state = MarketState(rv=np.zeros(22), lev=np.zeros(22))
        assert theta_noncentrality(p, state) == 0.37

    def test_zero_mean_matches_parabolic_reduction(self, zmlharg):
        # the native Theta = beta . rv + alpha . lev_zm, by hand, against
        # the reduction on the same innovations' parabolic leverage
        beta, alpha = expand_weights(zmlharg)
        rng = np.random.default_rng(7)
        for _ in range(25):
            rv, eps = random_state_arrays(rng)
            native = beta @ rv + alpha @ leverage(eps, rv, zmlharg.gamma_lev,
                                                  "ZM-LHARG")
            state = MarketState(rv=rv, lev=np.asarray(
                leverage(eps, rv, zmlharg.gamma_lev, "P-LHARG")))
            reduced = theta_noncentrality(zmlharg, state)
            assert abs(native - reduced) <= 1e-12 * max(abs(native), 1.0)

    def test_zero_mean_stationary_value(self, zmlharg):
        # independent fixed-point oracle: with E[lev_zm] = 0 the mean solves
        # E[RV] = theta*delta / (1 - theta*(beta_d+beta_w+beta_m)), and the
        # stationary noncentrality is (beta_d+beta_w+beta_m) * E[RV]
        beta_sum = 3.382e4 + 2.542e4 + 1.338e4
        mean_oracle = 1.117e-5 * 1.78 / (1.0 - 1.117e-5 * beta_sum)
        nc_oracle = beta_sum * mean_oracle
        assert abs(mean_oracle - 1.0529e-4) < 1e-8   # magnitude check
        assert abs(stationary_mean_rv(zmlharg) - mean_oracle) \
            <= 1e-12 * mean_oracle
        st = stationary_state(zmlharg)
        nc = theta_noncentrality(zmlharg, st)
        assert abs(nc - nc_oracle) <= 1e-10 * nc_oracle

    def test_can_be_negative_for_zero_mean(self, zmlharg):
        # innovations at gamma*sqrt(RV) zero the parabolic leverage, and
        # tiny variances leave the constant d = -sum(alpha) to dominate
        rv = np.full(22, 1e-6)
        lev = np.zeros(22)
        state = MarketState(rv=rv, lev=lev)
        nc = theta_noncentrality(zmlharg, state)
        assert nc < 0.0


class TestNoArbitrage:
    def test_arbitrage_free_premia_identity(self, plharg):
        # the map's tilt is the kernel's general one at the no-arbitrage
        # equity premium nu2 = lam + 1/2
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = rng.uniform(-3, 3)
            nu1 = rng.uniform(-5000, 100)
            p = replace(parabolic_form(plharg), lam=lam)
            nu2 = lam + 0.5
            general = -nu2 * lam - nu1 + 0.5 * nu2**2
            expected = p.theta / (1.0 - p.theta * general)
            got = risk_neutral_parabolic(p, nu1).theta
            assert abs(got - expected) <= 1e-12 * expected

    def test_non_finite_rejected(self, plharg):
        st = stationary_state(plharg)
        quote = make_quote(1.0, 63, "call")
        for nu1 in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="finite"):
                risk_neutral_parabolic(parabolic_form(plharg), nu1)
            with pytest.raises(ValidationError, match="finite"):
                mgf_q(plharg, st, nu1, 0.5, 22)
            with pytest.raises(ValidationError, match="finite"):
                simulate_paths(plharg, st, 10, 10, nu1=nu1)
            with pytest.raises(ValidationError, match="finite"):
                price_chain(plharg, nu1, (quote,), {quote.quote_date: st})


class TestRiskNeutralMap:
    def test_table_arithmetic(self, zmlharg):
        nu1 = -3375.0
        # plain-arithmetic oracle for the rescaling
        y_star = -0.5 * 2.005**2 - nu1 + 0.125
        assert abs(y_star - 3373.1149875) < 1e-9
        scale = 1.0 - 1.117e-5 * y_star
        theta_star = 1.117e-5 / scale
        q = _q_form(zmlharg, nu1)
        assert abs(q.theta - theta_star) <= 1e-14
        assert abs(q.theta - 1.1608e-5) < 1e-9      # magnitude check
        assert abs(q.gamma_lev - 137.305) < 1e-12   # 134.8 + 2.005 + 0.5
        assert q.lam == -0.5
        assert q.delta == zmlharg.delta
        assert q.r == zmlharg.r

    def test_identity_at_fixed_point(self, plharg):
        nu1 = 0.125 - 0.5 * plharg.lam**2
        q = _q_form(plharg, nu1)
        for name in ("theta", "delta", "d", "beta_d", "beta_w", "beta_m",
                     "alpha_d", "alpha_w", "alpha_m"):
            assert abs(getattr(q, name) - getattr(plharg, name)) \
                <= 1e-12 * max(abs(getattr(plharg, name)), 1.0)
        assert abs(q.gamma_lev - (plharg.gamma_lev + plharg.lam + 0.5)) < 1e-12

    def test_singular_mapping_raises(self, plharg):
        # theta * y_star >= 1 has no risk-neutral counterpart
        nu1 = 0.125 - 0.5 * plharg.lam**2 - 1.1 / plharg.theta
        with pytest.raises(MappingSingularError):
            _q_form(plharg, nu1)

    def test_zero_mean_native_form_preserved(self, zmlharg):
        q = risk_neutral_map(zmlharg, -3375.0)
        # the mapped native form must reduce to the scaled parabolic form
        scale = 1.0 - zmlharg.theta * (-0.5 * zmlharg.lam**2 + 3375.0 + 0.125)
        p = parabolic_form(zmlharg)
        qp = parabolic_form(q)
        assert abs(qp.d - p.d / scale) < 1e-9 * abs(p.d)
        assert abs(qp.beta_d - p.beta_d / scale) < 1e-9 * abs(p.beta_d)
        assert abs(qp.alpha_w - p.alpha_w / scale) < 1e-12


class TestRiskNeutralInverse:
    def test_premium_of_each_scale(self, all_variants):
        # `risk_neutral_nu1` is the premium that the map takes to scale c;
        # at c = 1 the map leaves every scale field as it was, bit for bit
        for params in all_variants:
            p = parabolic_form(params)
            for c in (0.5, 0.97, 1.0, 1.3):
                q = risk_neutral_parabolic(p, risk_neutral_nu1(params, c))
                assert abs(q.theta * c - p.theta) <= 1e-15 * p.theta, c
            q = risk_neutral_parabolic(p, risk_neutral_nu1(params, 1.0))
            for name in _SCALE_FIELDS:
                assert getattr(q, name) == getattr(p, name), name

    def test_stationary_floor(self, all_variants):
        # the Q persistence crosses one at the floor of the scale
        for params in all_variants:
            floor = stationary_scale_floor(params)
            above, below = (
                _q_form(params, risk_neutral_nu1(params, floor * step))
                for step in (1.0 + 1e-9, 1.0 - 1e-9))
            assert stationarity_margin(above) < 1.0, params.variant
            assert stationarity_margin(below) >= 1.0, params.variant


class TestStationarityMargin:
    def test_zero_for_degenerate(self):
        p = ParabolicForm(theta=1e-5, delta=1.0, d=0.0, beta_d=0.0,
                          beta_w=0.0, beta_m=0.0, alpha_d=0.0, alpha_w=0.0,
                          alpha_m=0.0, gamma_lev=0.0, lam=0.0, r=0.0)
        assert stationarity_margin(p) == 0.0

    def test_published_persistence(self, harg, plharg, zmlharg):
        assert abs(stationarity_margin(plharg) - 0.8391) < 5e-4
        assert abs(stationarity_margin(zmlharg) - 0.8116) < 5e-4
        assert abs(stationarity_margin(harg) - 0.8532) < 5e-4


class TestFilterInnovations:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        rv = rng.gamma(2.0, 5e-5, 300)
        eps = rng.standard_normal(300)
        r, lam = 1e-4, 2.0
        y = r + lam * rv + np.sqrt(rv) * eps
        back = filter_innovations(y, rv, r, lam)
        assert np.max(np.abs(back - eps)) <= 1e-12

    def test_degenerate_variance(self):
        rv = np.array([1e-4, 0.0, 1e-4])
        y = np.zeros(3)
        with pytest.raises(ValidationError, match="index 1"):
            filter_innovations(y, rv, 0.0, 0.0)


class TestInputErrors:
    def test_each_rule_raises_its_message(self, plharg, zmlharg):
        # (call, exact message): series of unequal length, an unknown
        # variant, a persistence with no stationary mean, and non-finite
        # parameters or state lags, which `<` and `>` checks let through
        rv, y = np.full(30, 1e-4), np.zeros(30)
        explosive = replace(plharg, beta_m=4.0 * plharg.beta_m)
        margin = stationarity_margin(explosive)
        assert margin >= 1.0
        no_mean = f"persistence {margin:.4f} >= 1: no stationary mean"
        cases = (
            (lambda: leverage(0.5, 1e-4, 1.0, "GARCH"),
             "unknown variant 'GARCH'"),
            (lambda: filter_innovations(y[:29], rv, 0.0, 0.0),
             "returns and rv series must be aligned"),
            (lambda: state_from_series(plharg, rv, y[:29]),
             "rv and returns series must be aligned"),
            (lambda: stationary_mean_rv(explosive), no_mean),
            (lambda: stationary_state(explosive), no_mean),
            (lambda: replace(plharg, beta_d=np.nan),
             "beta_d must be finite, got nan"),
            (lambda: replace(plharg, r=np.inf), "r must be finite, got inf"),
            (lambda: replace(zmlharg, gamma_lev=np.inf),
             "gamma_lev must be finite, got inf"),
            (lambda: replace(zmlharg, lam=np.nan),
             "lam must be finite, got nan"),
            (lambda: MarketState(rv=np.full(22, np.nan), lev=np.ones(22)),
             "state rv lags must be finite"),
            (lambda: MarketState(rv=np.ones(22), lev=np.full(22, np.inf)),
             "state lev lags must be finite"),
        )
        for call, message in cases:
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == message


class TestMarketState:
    def test_length_enforced(self):
        with pytest.raises(ValidationError):
            MarketState(rv=np.zeros(21), lev=np.zeros(21))

    def test_negative_rv_rejected(self):
        rv = np.zeros(22)
        rv[3] = -1e-9
        with pytest.raises(ValidationError):
            MarketState(rv=rv, lev=np.zeros(22))

    def test_negative_leverage_rejected(self):
        # leverage is parabolic, so a zero-mean value below zero is an error
        # rather than a silently different price
        lev = np.zeros(22)
        lev[5] = -0.3
        with pytest.raises(ValidationError, match="leverage"):
            MarketState(rv=np.full(22, 1e-4), lev=lev)

    def test_stationary_state_one_convention(self, zmlharg):
        # the same state whichever form of the parameters asks for it: the
        # parabolic mean 1 + gamma^2 E[RV] of the leverage lags
        native = stationary_state(zmlharg)
        reduced = stationary_state(parabolic_form(zmlharg))
        assert np.array_equal(native.rv, reduced.rv)
        assert np.array_equal(native.lev, reduced.lev)
        m = stationary_mean_rv(zmlharg)
        assert np.all(native.lev == 1.0 + zmlharg.gamma_lev**2 * m)

    def test_short_history_rejected(self, plharg):
        rv = np.full(10, 1e-4)
        y = np.full(10, 1e-3)
        with pytest.raises(ValidationError):
            state_from_series(plharg, rv, y)

    def test_state_from_series_orientation(self, plharg):
        rng = np.random.default_rng(9)
        rv = rng.gamma(2.0, 5e-5, 40)
        eps = rng.standard_normal(40)
        y = plharg.r + plharg.lam * rv + np.sqrt(rv) * eps
        st = state_from_series(plharg, rv, y)
        assert st.rv[0] == rv[-1]         # index 0 is today
        assert st.rv[21] == rv[-22]
        lev_today = leverage(eps[-1], rv[-1], plharg.gamma_lev, "P-LHARG")
        assert abs(st.lev[0] - lev_today) < 1e-10

    def test_state_from_series_leverage_near_its_zero(self, zmlharg):
        # innovations within a few percent of gamma*sqrt(RV): the parabolic
        # leverage is a small difference squared, which a sum of O(1) terms
        # such as lev_zm + gamma^2 RV + 1 loses to cancellation
        rng = np.random.default_rng(5)
        rv = rng.gamma(2.0, 5e-5, 22)
        eps = zmlharg.gamma_lev * np.sqrt(rv) \
            * (1.0 + 3e-2 * rng.standard_normal(22))
        y = zmlharg.r + zmlharg.lam * rv + np.sqrt(rv) * eps
        st = state_from_series(zmlharg, rv, y)
        filtered = filter_innovations(y, rv, zmlharg.r, zmlharg.lam)
        with mpmath.workdps(40):
            exact = np.array([float((mpmath.mpf(e) - mpmath.mpf(
                zmlharg.gamma_lev) * mpmath.sqrt(mpmath.mpf(v))) ** 2)
                for e, v in zip(filtered[::-1], rv[::-1])])
        assert np.max(np.abs(st.lev - exact) / exact) <= 1e-12


class TestRiskNeutralState:
    def test_parabolic_untouched(self, plharg):
        # parabolic leverage is measure-invariant: the mapped parameters
        # take the physical state as it stands
        st = stationary_state(plharg)
        for z in (0.5, 1j * 10.0):
            direct = mgf_q(plharg, st, -3375.0, z, 22)
            mapped = mgf_p(_q_form(plharg, -3375.0), st, z, 22)
            assert abs(direct - mapped) <= 1e-12 * abs(direct)
