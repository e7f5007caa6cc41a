import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfdr import metrics
from streamfdr.controllers import (RULE_SPECS, ControllerConfig,
                                   MONOTONE_LORD_RULES, ORACLE_RULES,
                                   RULES, make_controller, rescale_factor,
                                   restore_controller, threshold_floor)
from streamfdr.gamma import (GammaSequence, discounted_sums, lord_gamma,
                             power_gamma)
from streamfdr.simulation import GeneratorConfig, generate_stream, method_config

H = 100_000


def small_config(rule, **kw):
    kw.setdefault("horizon", H)
    return method_config(rule, **kw)


def run_on(rule_cfg, pvalues):
    return metrics.run_log(make_controller(rule_cfg), pvalues)


class TestConfigValidation:
    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            ControllerConfig(rule="bonferroni")

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ControllerConfig(rule="lord", alpha=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(rule="lord", alpha=1.0)

    def test_tau_must_exceed_lambda(self):
        with pytest.raises(ValueError, match="tau must exceed lambda"):
            ControllerConfig(rule="addis", lam=0.6, tau=0.5, horizon=H)

    def test_w0_range(self):
        with pytest.raises(ValueError, match="w0"):
            ControllerConfig(rule="lord", alpha=0.1, w0=0.1, horizon=H)
        with pytest.raises(ValueError, match="w0"):
            ControllerConfig(rule="lord", alpha=0.1, w0=0.0, horizon=H)

    def test_delta_ignored_by_undecayed_rule(self):
        with pytest.warns(UserWarning, match="ignored by undecayed"):
            cfg = ControllerConfig(rule="lord", delta=0.9, horizon=H)
        assert cfg.delta == 1.0

    def test_saffron_forces_tau(self):
        with pytest.warns(UserWarning, match="forcing tau=1"):
            cfg = ControllerConfig(rule="saffron", tau=0.7, horizon=H)
        assert cfg.tau == 1.0
        assert cfg.lam == 0.5

    def test_lag_ignored_outside_dep_rules(self):
        with pytest.warns(UserWarning, match="lag is ignored"):
            cfg = ControllerConfig(rule="lord-decay", lag=4, horizon=H)
        assert cfg.lag == 0

    def test_per_family_gamma_defaults(self):
        assert ControllerConfig(rule="lord", horizon=H).gamma.kind == "lord-default"
        assert ControllerConfig(rule="addis", horizon=H).gamma.kind == "power-law"

    @pytest.mark.parametrize("rule", ["lord", "lord-decay", "addis", "fixed"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_eta_and_prune_epsilon(self, rule, value):
        with pytest.raises(ValueError, match="eta must be finite"):
            ControllerConfig(rule=rule, eta=value, horizon=H)
        with pytest.raises(ValueError, match="prune_epsilon must be finite"):
            ControllerConfig(rule=rule, prune_epsilon=value, horizon=H)

    def test_fixed_accepts_closed_endpoints(self):
        assert ControllerConfig(rule="fixed", alpha=1.0).alpha == 1.0
        assert ControllerConfig(rule="fixed", alpha=0.0).alpha == 0.0
        with pytest.raises(ValueError):
            ControllerConfig(rule="fixed", alpha=1.5)

    @pytest.mark.parametrize("rule", ["fixed", "lord-decay", "addis-decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.0, 0.0, -0.5])
    def test_delta_outside_unit_interval(self, rule, value):
        # every summary discounts by delta, the fixed baseline's too
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            ControllerConfig(rule=rule, delta=value, horizon=H)


class TestLordThresholds:
    def test_no_rejection_spend_is_w0_gamma(self):
        cfg = small_config("lord", alpha=0.1, w0=0.05)
        ctrl = make_controller(cfg)
        g = lord_gamma(H)
        for t in range(1, 51):
            d = ctrl.step(1.0)
            assert not d.rejected
            assert d.threshold == 0.05 * g.weight(t)

    def test_threshold_after_single_rejection(self):
        # rejection at t=3: alpha_5 = w0*(g5 - g2) + alpha*g2
        cfg = small_config("lord", alpha=0.1, w0=0.05)
        ctrl = make_controller(cfg)
        g = lord_gamma(H)
        for t in range(1, 6):
            d = ctrl.step(0.0 if t == 3 else 1.0)
        assert d.step == 5
        assert d.threshold == 0.05 * (1.0 * g.weight(5) - 1.0 * g.weight(2)) \
            + 0.1 * g.weight(2)

    def test_lord_oracle_bounded_on_uniform_stream(self):
        rng = np.random.default_rng(7)
        cfg = small_config("lord")
        log = run_on(cfg, rng.random(100))
        report = metrics.verify_oracle_and_surplus(log, cfg)
        assert report.passed
        assert report.max_oracle <= 0.1 + 1e-10


class TestRamdasDecay:
    def test_pre_rejection_threshold(self):
        cfg = small_config("lord-decay-ramdas", alpha=0.1, w0=0.05, delta=0.99)
        ctrl = make_controller(cfg)
        g = lord_gamma(H)
        for t in range(1, 20):
            d = ctrl.step(1.0)
            assert d.threshold == 0.05 * g.weight(t)

    def test_rejection_term_decays_away(self):
        cfg = small_config("lord-decay-ramdas", alpha=0.1, w0=0.05, delta=0.99)
        ctrl = make_controller(cfg)
        g = lord_gamma(H)
        thresholds = []
        for t in range(1, 3001):
            thresholds.append(ctrl.step(0.0 if t == 10 else 1.0).threshold)
        # by t = 3000 the credit 0.99**(t-10) * g_(t-10) is below 1e-13
        assert thresholds[-1] <= 0.05 * g.weight(3000) + 1e-13

    def test_delta_one_reproduces_lord_bit_exactly(self):
        rng = np.random.default_rng(11)
        p = np.concatenate([rng.random(500), np.zeros(3), rng.random(500)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ramdas = small_config("lord-decay-ramdas", delta=1.0)
        lord = small_config("lord")
        log_a = run_on(ramdas, p)
        log_b = run_on(lord, p)
        np.testing.assert_array_equal(log_a.alpha, log_b.alpha)
        np.testing.assert_array_equal(log_a.rejected, log_b.rejected)


class TestLordDecay:
    def test_floor_value_on_long_null_run(self):
        cfg = small_config("lord-decay", alpha=0.1, delta=0.99, eta=1.0)
        ctrl = make_controller(cfg)
        d = None
        for _ in range(2000):
            d = ctrl.step(1.0)
        assert d.threshold == 0.1 * 1.0 * (1.0 - 0.99)
        assert d.threshold >= 1e-3
        assert d.threshold <= threshold_floor(cfg)
        assert threshold_floor(cfg) == d.threshold
        assert rescale_factor(cfg) == 1.0

    def test_delta_one_has_zero_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = small_config("lord-decay", delta=1.0)
        assert threshold_floor(cfg) == 0.0

    def test_surplus_with_forced_rejections(self):
        cfg = small_config("lord-decay")
        rng = np.random.default_rng(3)
        p = rng.random(1000)
        p[[4, 299]] = 0.0
        log = run_on(cfg, p)
        assert log.rejected[4] and log.rejected[299]
        report = metrics.verify_oracle_and_surplus(log, cfg)
        assert report.passed
        assert report.min_surplus >= -1e-10


class TestAddisFamily:
    def test_first_step_threshold(self):
        cfg = small_config("addis", alpha=0.1, w0=0.05)
        ctrl = make_controller(cfg)
        g = power_gamma(1.6, H)
        d = ctrl.step(1.0)
        expected = min((0.5 - 0.25) * (0.05 * (g.weight(1) - g.weight(0))), 0.25)
        assert d.threshold == expected

    def test_candidate_indicator_advances_counters(self):
        cfg = small_config("addis")
        ctrl = make_controller(cfg)
        assert ctrl._s0 == 1
        ctrl.step(0.3)   # lambda=1/4 < 0.3 <= tau=1/2
        assert ctrl._s0 == 2
        ctrl.step(0.9)   # discarded: p > tau
        assert ctrl._s0 == 2
        ctrl.step(0.2)   # candidate region p <= lambda
        assert ctrl._s0 == 2

    def test_lambda_cap_reached_after_many_rejections(self):
        cfg = small_config("saffron", alpha=0.1, w0=0.05)
        ctrl = make_controller(cfg)
        capped = False
        for _ in range(40):
            d = ctrl.step(0.0)
            if d.threshold == cfg.lam:
                capped = True
        assert capped

    def test_saffron_oracle_bounded(self):
        rng = np.random.default_rng(5)
        cfg = small_config("saffron")
        log = run_on(cfg, rng.random(200))
        report = metrics.verify_oracle_and_surplus(log, cfg)
        assert report.passed

    def test_tau_one_addis_is_saffron_bit_exactly(self):
        rng = np.random.default_rng(13)
        p = rng.random(800)
        p[::97] = 0.001
        addis = small_config("addis", tau=1.0, lam=0.5)
        saffron = small_config("saffron")
        log_a = run_on(addis, p)
        log_b = run_on(saffron, p)
        np.testing.assert_array_equal(log_a.alpha, log_b.alpha)
        np.testing.assert_array_equal(log_a.oracle, log_b.oracle)

    def test_decay_floor(self):
        # p = 0.4 sits in the candidate band (lam, tau], so S0 advances every
        # step and gamma-tilde(S0) reaches its (1 - delta) floor
        cfg = small_config("addis-decay", alpha=0.1, delta=0.99, eta=1.0)
        ctrl = make_controller(cfg)
        for _ in range(500):
            d = ctrl.step(0.4)
        expected = min(0.1 * 1.0 * 0.25 * (1.0 - 0.99), 0.25)
        assert d.threshold == expected
        assert d.threshold <= threshold_floor(cfg)
        assert expected >= 2.5e-4


class TestDependencyRules:
    def test_lag_zero_reduces_to_plain_decay(self):
        rng = np.random.default_rng(17)
        p = rng.random(600)
        p[::71] = 0.0
        dep = small_config("lord-dep-decay", lag=0)
        plain = small_config("lord-decay")
        log_a = run_on(dep, p)
        log_b = run_on(plain, p)
        np.testing.assert_array_equal(log_a.alpha, log_b.alpha)

    def test_rejection_credit_delayed_by_lag(self):
        cfg = small_config("lord-dep-decay", lag=5, delta=0.99)
        ctrl = make_controller(cfg)
        tilde_floor = 0.1 * 1.0 * (1.0 - 0.99)
        thresholds = {}
        for t in range(1, 30):
            thresholds[t] = ctrl.step(0.0 if t == 10 else 1.0).threshold
        g = ControllerConfig(rule="lord-decay", horizon=H).gamma
        # gamma index t-10-5 stays <= 0 through t = 15
        for t in range(11, 16):
            assert thresholds[t] == pytest.approx(
                0.1 * max(g.weight(t), 0.01), rel=0, abs=0) or \
                thresholds[t] >= tilde_floor
            assert thresholds[t] == thresholds[t]  # no NaNs
        assert thresholds[15] < thresholds[16]  # credit arrives at t = 16

    def test_main_text_form_is_larger(self):
        rng = np.random.default_rng(23)
        p = rng.random(400)
        p[50] = 0.0
        proof = small_config("lord-dep-decay", lag=4)
        main = small_config("lord-dep-decay", lag=4, lag_decay_exponent=True)
        log_a = run_on(proof, p)
        log_b = run_on(main, p)
        assert np.all(log_b.alpha >= log_a.alpha - 1e-15)
        assert log_b.alpha.max() > log_a.alpha.max()

    def test_dep_surplus_nonnegative(self):
        rng = np.random.default_rng(29)
        p = rng.random(500)
        p[::83] = 0.0
        cfg = small_config("lord-dep-decay", lag=3)
        log = run_on(cfg, p)
        report = metrics.verify_oracle_and_surplus(log, cfg)
        assert report.passed


class TestFixedThreshold:
    def test_boundary_convention(self):
        ctrl = make_controller(ControllerConfig(rule="fixed", alpha=0.05))
        assert ctrl.step(0.01).rejected
        assert ctrl.step(0.05).rejected      # p <= alpha is inclusive
        assert not ctrl.step(0.051).rejected

    def test_oracle_is_nan(self):
        ctrl = make_controller(ControllerConfig(rule="fixed", alpha=0.05))
        assert math.isnan(ctrl.step(0.5).oracle_value)


class TestDependenceCorrection:
    def test_harmonic_divisor_schedule(self):
        base = small_config("lord-decay")
        corrected = small_config("lord-decay", dependence_correction=True)
        p = np.ones(10)
        log_a = run_on(base, p)
        log_b = run_on(corrected, p)
        assert log_b.alpha[0] == log_a.alpha[0]            # q(1) = 1
        assert log_b.alpha[1] == log_a.alpha[1] / 1.5      # q(2) = 1.5
        q10 = math.fsum(1.0 / k for k in range(1, 11))
        assert log_b.alpha[9] == pytest.approx(log_a.alpha[9] / q10, rel=1e-12)
        assert q10 == pytest.approx(2.9289682539682538, rel=1e-15)

    @staticmethod
    def _divisors(n):
        """q(1..n) as a stepped controller holds them, and q(n) after
        ``run_array``."""
        cfg = small_config("lord-decay", dependence_correction=True)
        ctrl = make_controller(cfg)
        stepped = []
        for _ in range(n):
            ctrl.step(1.0)
            stepped.append(json.loads(ctrl.snapshot())["harmonic_q"])
        batch = make_controller(cfg)
        batch.run_array(np.ones(n))
        return stepped, json.loads(batch.snapshot())["harmonic_q"]

    def test_harmonic_divisor_small_values(self):
        stepped, batch = self._divisors(2)
        assert stepped == [1.0, 1.5]
        assert batch == 1.5

    def test_harmonic_divisor_ten_terms_direct_summation(self):
        stepped, batch = self._divisors(10)
        exact = math.fsum(1.0 / k for k in range(1, 11))
        assert stepped[-1] == pytest.approx(exact, rel=1e-15)
        assert batch == stepped[-1]

    def test_correction_keeps_certificate(self):
        rng = np.random.default_rng(31)
        cfg = small_config("saffron-decay", dependence_correction=True)
        p = rng.random(400)
        p[::61] = 0.0
        log = run_on(cfg, p)
        assert metrics.verify_oracle_and_surplus(log, cfg).passed


class TestInputContract:
    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan")])
    def test_out_of_range_p_raises(self, bad):
        ctrl = make_controller(small_config("lord-decay"))
        with pytest.raises(ValueError, match="p-value"):
            ctrl.step(bad)

    def test_rejection_contract_all_rules(self):
        rng = np.random.default_rng(37)
        p = rng.random(300) ** 2
        for rule in RULES:
            cfg = small_config(rule, lag=2) if rule in ("lord-dep-decay", "lord-dep-decay-w0") \
                else small_config(rule)
            log = run_on(cfg, p)
            np.testing.assert_array_equal(log.rejected, p <= log.alpha)


class TestDeterminismAndPruning:
    def test_identical_runs_bit_identical(self):
        rng = np.random.default_rng(41)
        p = rng.random(1000)
        for rule in ("lord", "saffron-decay", "lord-dep-decay"):
            cfg1 = small_config(rule, lag=2 if rule.startswith("lord-dep") else 0)
            cfg2 = small_config(rule, lag=2 if rule.startswith("lord-dep") else 0)
            log_a = run_on(cfg1, p)
            log_b = run_on(cfg2, p)
            np.testing.assert_array_equal(log_a.alpha, log_b.alpha)
            np.testing.assert_array_equal(log_a.oracle, log_b.oracle)

    def test_pruning_only_lowers_thresholds(self):
        stream = generate_stream(GeneratorConfig(length=3000, pi1=0.05, seed=43))
        exact = small_config("lord-decay", prune_epsilon=0.0)
        pruned = small_config("lord-decay", prune_epsilon=1e-6)
        log_a = run_on(exact, stream.p)
        log_b = run_on(pruned, stream.p)
        assert np.all(log_b.alpha <= log_a.alpha + 1e-15)
        assert metrics.verify_oracle_and_surplus(log_b, pruned).passed

    def test_monotone_in_injected_rejections(self):
        # flipping one R_s from 0 to 1 never lowers later thresholds
        rng = np.random.default_rng(47)
        p = rng.random(200)
        for rule in sorted(MONOTONE_LORD_RULES):
            cfg = small_config(rule, prune_epsilon=0.0,
                               lag=2 if rule in ("lord-dep-decay", "lord-dep-decay-w0") else 0)
            base = run_on(cfg, p)
            for s in (0, 50, 150):
                if base.rejected[s]:
                    continue
                p2 = p.copy()
                p2[s] = 0.0
                alt = run_on(cfg, p2)
                assert np.all(alt.alpha[s + 1:] >= base.alpha[s + 1:] - 1e-15), rule

    def test_ramdas_decay_is_not_monotone(self):
        # regression pin for why lord-decay-ramdas sits outside
        # MONOTONE_LORD_RULES: a first rejection at s multiplies the
        # w0-term by delta**(t-s), so distant thresholds drop below the
        # never-rejected trajectory
        cfg = small_config("lord-decay-ramdas", prune_epsilon=0.0)
        p = np.ones(200)
        base = run_on(cfg, p)
        p2 = p.copy()
        p2[0] = 0.0
        alt = run_on(cfg, p2)
        assert alt.alpha[-1] < base.alpha[-1]


class TestSnapshots:
    @pytest.mark.parametrize("rule", ["lord", "lord-decay", "lord-dep-decay",
                                      "addis", "saffron-decay", "fixed",
                                      "addis-decay-w0"])
    def test_round_trip_is_decision_exact(self, rule):
        rng = np.random.default_rng(53)
        p = rng.random(400)
        p[::41] = 0.001
        lag = 2 if rule.startswith("lord-dep") else 0
        cfg = small_config(rule, lag=lag) if rule != "fixed" \
            else ControllerConfig(rule="fixed", alpha=0.05)
        whole = metrics.run_log(make_controller(cfg), p)

        ctrl = make_controller(cfg)
        first = metrics.run_log(ctrl, p[:137])
        snap = ctrl.snapshot()
        resumed = restore_controller(cfg, snap)
        second = metrics.run_log(resumed, p[137:])
        np.testing.assert_array_equal(
            np.concatenate([first.alpha, second.alpha]), whole.alpha)
        np.testing.assert_array_equal(
            np.concatenate([first.rejected, second.rejected]), whole.rejected)
        np.testing.assert_array_equal(
            np.concatenate([first.oracle, second.oracle]), whole.oracle)

    def test_snapshot_rejects_other_config(self):
        cfg = small_config("lord-decay")
        ctrl = make_controller(cfg)
        ctrl.step(0.5)
        snap = ctrl.snapshot()
        other = small_config("lord-decay", alpha=0.2)
        with pytest.raises(ValueError, match="different configuration"):
            restore_controller(other, snap)

    def test_snapshot_rejects_garbage(self):
        cfg = small_config("lord-decay")
        with pytest.raises(ValueError, match="snapshot"):
            restore_controller(cfg, json.dumps({"format": "nope"}))

    @pytest.mark.parametrize("rule, edit", [
        pytest.param("lord-decay", lambda s: s["rejection_times"].reverse(),
                     id="times-not-increasing"),
        pytest.param("lord-decay",
                     lambda s: s["rejection_times"].__setitem__(-1, s["t"] + 5),
                     id="time-after-t"),
        pytest.param("addis-decay",
                     lambda s: s["decay_weights"].__setitem__(0, 1.5),
                     id="weight-above-1"),
        pytest.param("addis-decay",
                     lambda s: s["decay_weights"].__setitem__(-1, 0.0),
                     id="weight-zero"),
        pytest.param("addis-decay",
                     lambda s: s["decay_weights"].__setitem__(0, math.nan),
                     id="weight-nan"),
        pytest.param("addis-decay", lambda s: s.update(
            decay_weights=[1.0] * len(s["decay_weights"])),
                     id="addis-weights-all-1"),
        pytest.param("lord-decay", lambda s: s.update(
            decay_weights=[1.0] * len(s["decay_weights"])),
                     id="lord-weights-all-1"),
        pytest.param("lord-decay", lambda s: s.update(first_decay_weight=1.0),
                     id="lord-first-weight-1"),
        pytest.param("addis-decay",
                     lambda s: s["candidate_counters"].__setitem__(0, 0),
                     id="counter-zero"),
        pytest.param("addis-decay",
                     lambda s: s["candidate_counters"].__setitem__(
                         0, s["s1"] + 1), id="counter-above-s1"),
        pytest.param("saffron", lambda s: s.update(s0=s["t"] + 2),
                     id="s0-beyond-t"),
        pytest.param("saffron", lambda s: s.update(s1=s["s0"] + 1),
                     id="s1-above-s0"),
        pytest.param("lord", lambda s: s.update(
            rejection_count=len(s["rejection_times"]) - 1),
                     id="count-below-times"),
        pytest.param("lord-dep-decay", lambda s: s.pop("harmonic_q"),
                     id="missing-field"),
        pytest.param("lord-decay-w0", lambda s: s.update(t="soon"),
                     id="t-not-integer"),
    ])
    def test_corrupt_snapshot_rejected(self, rule, edit):
        cfg = small_config(rule, lag=2 if rule.startswith("lord-dep") else 0)
        ctrl = make_controller(cfg)
        p = np.random.default_rng(71).random(300)
        p[::37] = 0.0
        metrics.run_log(ctrl, p)
        snap = json.loads(ctrl.snapshot())
        assert len(snap["rejection_times"]) >= 2
        restore_controller(cfg, json.dumps(snap))   # untouched, it restores
        edit(snap)
        with pytest.raises(ValueError, match="corrupt snapshot: "):
            restore_controller(cfg, json.dumps(snap))

    def test_clone_matches_original(self, clone):
        rng = np.random.default_rng(59)
        p = rng.random(3000)
        p[::37] = 0.0
        for rule in RULES:
            cfg = small_config(rule, lag=2 if rule.startswith("lord-dep") else 0)
            ctrl = make_controller(cfg)
            metrics.run_log(ctrl, p[:1500])
            twin = clone(ctrl)
            rest_a = metrics.run_log(ctrl, p[1500:])
            rest_b = metrics.run_log(twin, p[1500:])
            np.testing.assert_array_equal(rest_a.alpha, rest_b.alpha, rule)
            np.testing.assert_array_equal(rest_a.rejected, rest_b.rejected, rule)
            np.testing.assert_array_equal(rest_a.oracle, rest_b.oracle, rule)
            assert ctrl.snapshot() == twin.snapshot(), rule


class TestOracleRules:
    def test_eleven_rules_carry_oracles(self):
        assert len(ORACLE_RULES) == 11
        assert "fixed" not in ORACLE_RULES


KERNEL_RULES = ("lord", "lord-decay-ramdas", "lord-decay", "lord-dep-decay",
                "lord-decay-w0", "lord-dep-decay-w0")

#: written by the release before the decay kernel: lord-dep-decay-w0, lag 3,
#: horizon 100k, after 200 steps of the stream in test_v1_snapshot_resumes
V1_SNAPSHOT = (
    '{"decay_weights": [0.13533300490703207, 0.1605481911108965, '
    '0.19046145976502743, 0.22594815553398728, 0.26804671691687404, '
    '0.3179890638191435, 0.37723664692350434, 0.44752321376381066, '
    '0.5309055429551132, 0.6298236312032323, 0.7471720943315961, '
    '0.8863848717161291], "decayed_rejections": 4.917372592946347, '
    '"decayed_spend": 0.13978533220076028, '
    '"first_decay_weight": 0.13533300490703207, "first_rejection_time": 1, '
    '"format": "streamfdr-controller-state", "harmonic_q": 0.0, '
    '"params": {"alpha": 0.1, "delta": 0.99, "dependence_correction": false, '
    '"eta": 1.0, "gamma_kind": "lord-default", "gamma_param": null, '
    '"horizon": 100000, "lag": 3, "lag_decay_exponent": false, "lam": null, '
    '"prune_epsilon": 1e-12, "rule": "lord-dep-decay-w0", "tau": null, '
    '"w0": 0.05}, "rejection_count": 12, "rejection_times": [1, 18, 35, 52, '
    '69, 86, 103, 120, 137, 154, 171, 188], "t": 200, "version": 1}')


#: written by the release before ``lord`` ran on the decay kernel (its
#: credit was a dot product over the live rejection terms): lord,
#: prune_epsilon 1e-3, horizon 100k, after 200 steps of the stream in
#: test_v1_lord_snapshot_resumes; the rejections at 1..103 had been pruned
LORD_V1_SNAPSHOT = (
    '{"decay_weights": [1.0, 1.0, 1.0, 1.0, 1.0], "decayed_rejections": '
    '12.0, "decayed_spend": 0.4960327353873952, "first_decay_weight": '
    '1.0, "first_rejection_time": 1, "format": '
    '"streamfdr-controller-state", "harmonic_q": 0.0, "params": '
    '{"alpha": 0.1, "delta": 1.0, "dependence_correction": false, '
    '"eta": 1.0, "gamma_kind": "lord-default", "gamma_param": null, '
    '"horizon": 100000, "lag": 0, "lag_decay_exponent": false, "lam": '
    'null, "prune_epsilon": 0.001, "rule": "lord", "tau": null, "w0": '
    '0.05}, "rejection_count": 12, "rejection_times": [120, 137, 154, '
    '171, 188], "t": 200, "version": 1}')


#: written by the release that updated every candidate counter at each
#: candidate step: saffron, horizon 100k, after 200 steps of the stream in
#: test_v1_saffron_snapshot_resumes, whose first rejection (at 6) came after
#: a candidate, so s1 < s0
SAFFRON_V1_SNAPSHOT = (
    '{"candidate_counters": [92, 85, 78, 71, 62, 52, 45, 41, 33, 21, 12, '
    '5], "decay_weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, '
    '1.0, 1.0, 1.0], "decayed_rejections": 12.0, "decayed_spend": '
    '1.0841422851143745, "format": "streamfdr-controller-state", '
    '"harmonic_q": 0.0, "params": {"alpha": 0.1, "delta": 1.0, '
    '"dependence_correction": false, "eta": 1.0, "gamma_kind": '
    '"power-law", "gamma_param": 1.6, "horizon": 100000, "lag": 0, '
    '"lag_decay_exponent": false, "lam": 0.5, "prune_epsilon": 1e-12, '
    '"rule": "saffron", "tau": 1.0, "w0": 0.05}, "rejection_count": 12, '
    '"rejection_times": [6, 23, 40, 57, 74, 91, 108, 125, 142, 159, 176, '
    '193], "s0": 93, "s1": 92, "t": 200, "version": 1}')


#: the same release: addis-decay, delta 0.9, prune_epsilon 1e-3, horizon
#: 100k, after 200 steps of the stream in test_v1_addis_decay_snapshot_resumes;
#: 10 of its 14 rejections had been pruned
ADDIS_DECAY_V1_SNAPSHOT = (
    '{"candidate_counters": [11, 8, 5, 1], "decay_weights": '
    '[0.0030432527221704573, 0.01824800363140075, 0.10941898913151243, '
    '0.6561000000000001], "decayed_rejections": 0.7874489121452128, '
    '"decayed_spend": 0.02328863379910133, "format": '
    '"streamfdr-controller-state", "harmonic_q": 0.0, "params": '
    '{"alpha": 0.1, "delta": 0.9, "dependence_correction": false, "eta": '
    '1.0, "gamma_kind": "power-law", "gamma_param": 1.6, "horizon": '
    '100000, "lag": 0, "lag_decay_exponent": false, "lam": 0.25, '
    '"prune_epsilon": 0.001, "rule": "addis-decay", "tau": 0.5, "w0": '
    '0.05}, "rejection_count": 14, "rejection_times": [145, 162, 179, '
    '196], "s0": 37, "s1": 35, "t": 200, "version": 1}')


#: the release that kept the first rejection's decay weight by multiplying
#: it at every step: lord-decay-ramdas, horizon 100k, after 200 steps of the
#: stream in test_v1_ramdas_snapshot_resumes, the first rejection still held
RAMDAS_V1_SNAPSHOT = (
    '{"decay_weights": [0.13533300490703207, 0.1605481911108965, '
    '0.19046145976502743, 0.22594815553398728, 0.26804671691687404, '
    '0.2904884943099637, 0.3179890638191435, 0.37723664692350434, '
    '0.44752321376381066, 0.5309055429551132, 0.6298236312032323, '
    '0.7471720943315961, 0.8863848717161291], "decayed_rejections": '
    '5.20786108725631, "decayed_spend": 0.20855836563899932, '
    '"first_decay_weight": 0.13533300490703207, "first_rejection_time": '
    '1, "format": "streamfdr-controller-state", "harmonic_q": 0.0, '
    '"params": {"alpha": 0.1, "delta": 0.99, "dependence_correction": '
    'false, "eta": 1.0, "gamma_kind": "lord-default", "gamma_param": '
    'null, "horizon": 100000, "lag": 0, "lag_decay_exponent": false, '
    '"lam": null, "prune_epsilon": 1e-12, "rule": "lord-decay-ramdas", '
    '"tau": null, "w0": 0.05}, "rejection_count": 13, "rejection_times": '
    '[1, 18, 35, 52, 69, 77, 86, 103, 120, 137, 154, 171, 188], "t": '
    '200, "version": 1}')


def step_loop(ctrl, p):
    decisions = [ctrl.step(x) for x in p]
    return (np.array([d.threshold for d in decisions]),
            np.array([d.rejected for d in decisions], dtype=bool),
            np.array([d.oracle_value for d in decisions]))


class TestDecayKernel:
    @settings(max_examples=240, deadline=None, derandomize=True)
    @given(rule=st.sampled_from(ORACLE_RULES), lag=st.sampled_from((0, 3)),
           correction=st.booleans(), lag_exponent=st.booleans(),
           eps=st.sampled_from((0.0, 1e-12, 1e-3)),
           delta=st.sampled_from((0.5, 0.9, 0.99, 1.0)),
           n=st.integers(1, 2600), seed=st.integers(0, 2 ** 32 - 1),
           ties=st.integers(0, 4), split=st.floats(0.0, 1.0))
    def test_run_array_equals_step_loop(self, rule, lag, correction,
                                        lag_exponent, eps, delta, n, seed,
                                        ties, split):
        dep = RULE_SPECS[rule].lagged
        cfg = small_config(rule, delta=delta if RULE_SPECS[rule].decays
                           else None, lag=lag if dep else 0,
                           dependence_correction=correction,
                           lag_decay_exponent=lag_exponent and dep,
                           prune_epsilon=eps)
        rng = np.random.default_rng(seed)
        p = rng.random(n) ** 4
        # p == alpha_t exactly at a few steps, each set after the earlier ones
        for i in np.sort(rng.choice(n, size=min(ties, n), replace=False)):
            p[i] = step_loop(make_controller(cfg), p)[0][i]

        stepped = make_controller(cfg)
        alpha, rejected, oracle = step_loop(stepped, p)
        batch = make_controller(cfg)
        log = metrics.run_log(batch, p)
        np.testing.assert_array_equal(log.alpha, alpha)
        np.testing.assert_array_equal(log.rejected, rejected)
        np.testing.assert_array_equal(log.oracle, oracle)
        assert batch.snapshot() == stepped.snapshot()

        k = int(split * n)
        head = make_controller(cfg)
        first = metrics.run_log(head, p[:k])
        resumed = restore_controller(cfg, head.snapshot())
        second = metrics.run_log(resumed, p[k:])
        np.testing.assert_array_equal(
            np.concatenate([first.alpha, second.alpha]), alpha)
        np.testing.assert_array_equal(
            np.concatenate([first.rejected, second.rejected]), rejected)
        np.testing.assert_array_equal(
            np.concatenate([first.oracle, second.oracle]), oracle)
        assert resumed.snapshot() == stepped.snapshot()

    @staticmethod
    def _resumes_like_uninterrupted(cfg, text, seed, first=0):
        """A snapshot written by an earlier release, after 200 steps of a
        seeded stream (p = 1e-6 every 17 steps from row ``first``),
        continues with the thresholds and decisions of the uninterrupted run
        and its oracle carried on from the stored sums, and the state this
        release keeps or derives reproduces the stored one.  Returns the
        uninterrupted log's tail and the resumed log."""
        rng = np.random.default_rng(seed)
        p = rng.random(400)
        p[first::17] = 1e-6
        whole = metrics.run_log(make_controller(cfg), p)
        resumed = restore_controller(cfg, text)
        tail = metrics.run_log(resumed, p[200:])
        np.testing.assert_array_equal(tail.alpha, whole.alpha[200:])
        np.testing.assert_array_equal(tail.rejected, whole.rejected[200:])
        stored = json.loads(text)
        spend = tail.alpha
        if cfg.spec.numerator == "indicator":
            q = p[200:]
            spend = np.where((cfg.lam < q) & (q <= cfg.tau),
                             spend / (cfg.tau - cfg.lam), 0.0)
        spend = discounted_sums(spend, cfg.delta, stored["decayed_spend"])
        rdelta = discounted_sums(tail.rejected, cfg.delta,
                                 stored["decayed_rejections"])
        if cfg.spec.denominator == "smooth":
            np.testing.assert_array_equal(tail.oracle, spend / (rdelta + cfg.eta))
        else:
            np.testing.assert_array_equal(tail.oracle,
                                          spend / np.maximum(rdelta, 1.0))
        ctrl = make_controller(cfg)
        metrics.run_log(ctrl, p[:200])
        ours = json.loads(ctrl.snapshot())
        assert ours.keys() == stored.keys()
        family = (("candidate_counters", "s0", "s1")
                  if cfg.spec.family == "addis"
                  else ("first_rejection_time", "first_decay_weight"))
        for key in ("params", "t", "rejection_count", "rejection_times",
                    "decay_weights", "harmonic_q") + family:
            assert ours[key] == stored[key], key
        # and a restored controller writes the stored state back
        again = json.loads(restore_controller(cfg, text).snapshot())
        assert again == stored
        return whole.oracle[200:], tail.oracle

    def test_v1_snapshot_resumes(self):
        whole, tail = self._resumes_like_uninterrupted(
            small_config("lord-dep-decay-w0", lag=3), V1_SNAPSHOT, 61)
        np.testing.assert_allclose(tail, whole, rtol=1e-13)

    def test_v1_lord_snapshot_resumes(self):
        cfg = small_config("lord", prune_epsilon=1e-3)
        assert json.loads(LORD_V1_SNAPSHOT)["rejection_times"][0] == 120
        whole, tail = self._resumes_like_uninterrupted(cfg, LORD_V1_SNAPSHOT,
                                                       71)
        # the release that wrote it kept -w0 * g_{t-1} of the first
        # rejection (at 1, pruned at age 92) in its thresholds from step 94
        # on, so it spent less than this release does over the same steps
        assert np.all(tail < whole)

    def test_v1_saffron_snapshot_resumes(self):
        stored = json.loads(SAFFRON_V1_SNAPSHOT)
        assert 1 < stored["s1"] < stored["s0"]
        whole, tail = self._resumes_like_uninterrupted(
            small_config("saffron"), SAFFRON_V1_SNAPSHOT, 73, first=5)
        np.testing.assert_allclose(tail, whole, rtol=1e-13)

    def test_v1_addis_decay_snapshot_resumes(self):
        stored = json.loads(ADDIS_DECAY_V1_SNAPSHOT)
        assert stored["rejection_count"] > len(stored["rejection_times"])
        assert stored["s1"] < stored["s0"]
        cfg = small_config("addis-decay", delta=0.9, prune_epsilon=1e-3)
        whole, tail = self._resumes_like_uninterrupted(
            cfg, ADDIS_DECAY_V1_SNAPSHOT, 79, first=8)
        np.testing.assert_allclose(tail, whole, rtol=1e-13)

    def test_v1_ramdas_snapshot_resumes(self):
        stored = json.loads(RAMDAS_V1_SNAPSHOT)
        assert stored["rejection_times"][0] == stored["first_rejection_time"]
        assert 0.0 < stored["first_decay_weight"] < 1.0
        whole, tail = self._resumes_like_uninterrupted(
            small_config("lord-decay-ramdas"), RAMDAS_V1_SNAPSHOT, 83)
        np.testing.assert_allclose(tail, whole, rtol=1e-13)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("short", [False, True], ids=["default", "short"])
    def test_lord_matches_a_direct_sum(self, eps, short):
        self._matches_a_direct_sum("lord", eps, short)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("short", [False, True], ids=["default", "short"])
    def test_lord_decay_ramdas_matches_a_direct_sum(self, eps, short):
        self._matches_a_direct_sum("lord-decay-ramdas", eps, short)

    @staticmethod
    def _matches_a_direct_sum(rule, eps, short):
        # an independent computation of the classic thresholds over the
        # rejection terms the prune rule keeps.  lord: w0*(g_t - g_{t-r1})
        # + alpha * fsum(g_{t-rj}), a term used last at the first age u
        # with g_u < prune_epsilon.  lord-decay-ramdas at delta = 0.99:
        # w0*delta**(t-r1)*g_t while the first rejection is held (0 after),
        # + (alpha - w0)*delta**u1*g_u1 + alpha * fsum(delta**uj*g_uj), a
        # term used last at the first age u with delta**u < prune_epsilon.
        # Either way the kernel ends at the horizon.  The short custom table
        # ends at 150, where its weights are still above 1e-4.
        gamma = GammaSequence.custom(0.02 * 0.97 ** np.arange(150)) \
            if short else None
        decays = rule != "lord"
        cfg = small_config(rule, prune_epsilon=eps, gamma=gamma,
                           delta=0.99 if decays else None)
        g, w0, alpha, delta = cfg.gamma.weight, cfg.w0, cfg.alpha, cfg.delta
        last = cfg.gamma.horizon
        if eps > 0.0:
            small = (lambda u: delta ** u < eps) if decays else \
                (lambda u: g(u) < eps)
            last = next((u for u in range(1, last) if small(u)), last)
        rng = np.random.default_rng(89)
        n = 3000
        p = np.ones(n)
        # rejections up to 60 steps apart, so that at 1e-3 the older terms
        # are pruned (the first at age 92 for lord, 688 for
        # lord-decay-ramdas) while later ones are held, a dense burst, and
        # a quiet tail
        times = np.cumsum(rng.integers(1, 61, size=120))
        times = np.r_[times[times < 2500], np.arange(2500, 2530)]
        p[times - 1] = 0.0
        expected, rejected, held, r1 = [], [], [], None
        for t in range(1, n + 1):
            held = [r for r in held if t - r <= last]
            if r1 is None:
                pre = w0 * g(t)
            elif decays:
                pre = w0 * delta ** (t - r1) * g(t) if r1 in held else 0.0
            else:
                # the first rejection's -w0 * g goes with its pruned term
                pre = w0 * (g(t) - g(t - r1)) if r1 in held else w0 * g(t)
            first = {r1: alpha - w0} if decays else {}
            credit = math.fsum(first.get(r, alpha) * delta ** (t - r)
                               * g(t - r) for r in held)
            alpha_t = min(pre + credit, 1.0)
            expected.append(alpha_t)
            rejected.append(p[t - 1] <= alpha_t)
            if rejected[-1]:
                held.append(t)
                r1 = t if r1 is None else r1
        log = metrics.run_log(make_controller(cfg), p)
        np.testing.assert_array_equal(log.rejected, rejected)
        assert sum(rejected) > 100
        np.testing.assert_allclose(log.alpha, expected, rtol=1e-13, atol=0)

    def test_unpruned_decay_weights_outlast_the_kernel(self):
        # with nothing pruned, a rejection stays in the snapshot after its
        # kernel (cut at the custom horizon) has ended, with its weight
        # delta**age by repeated multiplication
        cfg = ControllerConfig(rule="lord-decay", delta=0.999,
                               prune_epsilon=0.0,
                               gamma=GammaSequence.custom([0.5, 0.25, 0.125]))
        ctrl = make_controller(cfg)
        metrics.run_log(ctrl, np.r_[0.0, np.ones(2999)])
        weight = 1.0
        for _ in range(2999):
            weight *= 0.999
        snap = json.loads(ctrl.snapshot())
        assert snap["rejection_times"] == [1]
        assert snap["decay_weights"] == [weight]

    def test_prune_point_follows_the_decay_weight(self):
        # a rejection term goes after the first step whose decay weight,
        # by repeated multiplication, is below prune_epsilon
        cfg = small_config("lord-decay", delta=0.99, prune_epsilon=1e-12)
        weight, age = 1.0, 0
        while weight >= 1e-12:
            weight *= 0.99
            age += 1
        ctrl = make_controller(cfg)
        metrics.run_log(ctrl, np.r_[0.0, np.ones(age - 1)])
        assert ctrl.rejection_times() == [1]
        ctrl.step(1.0)
        assert ctrl.rejection_times() == []

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-3])
    @pytest.mark.parametrize("rule", KERNEL_RULES)
    def test_thresholds_never_negative(self, rule, eps):
        # the first rejection's classic -w0 * g_{t-rho1} is pruned with its
        # kernel credit, so no threshold goes below 0 once it is gone
        rng = np.random.default_rng(97)
        quiet = np.ones(4000)
        quiet[[9, 19]] = 0.0
        streams = [quiet, rng.random(4000) ** 3]
        undecayed = RULE_SPECS[rule].undecayed
        for delta in (None,) if undecayed else (0.5, 0.99, 1.0):
            cfg = small_config(rule, delta=delta, prune_epsilon=eps,
                               lag=3 if rule.startswith("lord-dep") else 0)
            for p in streams:
                log = run_on(cfg, p)
                assert log.alpha.min() >= 0.0, (rule, delta)
                np.testing.assert_array_equal(
                    step_loop(make_controller(cfg), p)[0], log.alpha)

    @pytest.mark.parametrize("rule,delta,eps", [
        ("lord", None, 1e-3), ("lord-decay-ramdas", 0.5, 1e-12),
        ("lord-decay-ramdas", 0.99, 1e-3)])
    def test_zero_p_values_rejected_after_the_first_term_is_pruned(
            self, rule, delta, eps):
        # rejections at t = 10 and 20, then nothing until p = 0 from t = 501
        cfg = small_config(rule, delta=delta, prune_epsilon=eps)
        p = np.ones(1000)
        p[[9, 19]] = 0.0
        p[500:] = 0.0
        log = run_on(cfg, p)
        assert np.flatnonzero(log.rejected[:500]).tolist() == [9, 19]
        assert log.rejected[500:].all()
        assert metrics.verify_oracle_and_surplus(log, cfg).passed

    def test_bad_p_leaves_state_untouched(self):
        ctrl = make_controller(small_config("lord-decay"))
        metrics.run_log(ctrl, np.full(10, 0.5))
        before = ctrl.snapshot()
        with pytest.raises(ValueError, match="at step 13"):
            ctrl.run_array([0.5, 0.5, float("nan"), 0.5])
        assert ctrl.snapshot() == before


class TestBlockEdges:
    """The head table and the buffer cover one 1024-step block; stepping,
    ``run_array`` and resuming read them across block edges with the same
    bits."""

    @staticmethod
    def _configs():
        for rule in KERNEL_RULES:
            yield small_config(rule, lag=3 if RULE_SPECS[rule].lagged else 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield small_config("lord-decay-ramdas", delta=1.0)

    @staticmethod
    def _batch(ctrl, p):
        log = metrics.run_log(ctrl, p)
        return log.alpha, log.rejected, log.oracle

    def _same_run(self, cfg, p, cuts):
        """Stepping and ``run_array`` agree bit for bit, whole and resumed
        from a snapshot taken after each of ``cuts`` rows."""
        stepped = make_controller(cfg)
        whole = step_loop(stepped, p)
        batch = make_controller(cfg)
        for ours, theirs in zip(self._batch(batch, p), whole):
            np.testing.assert_array_equal(ours, theirs)
        assert batch.snapshot() == stepped.snapshot()
        for k in cuts:
            head = make_controller(cfg)
            metrics.run_log(head, p[:k])
            text = head.snapshot()
            for run in (step_loop, self._batch):
                resumed = restore_controller(cfg, text)
                for ours, theirs in zip(run(resumed, p[k:]), whole):
                    np.testing.assert_array_equal(ours, theirs[k:])
                assert resumed.snapshot() == stepped.snapshot()
        return whole[1]

    # the last cell of a block, the first cell of the next, a middle cell
    @pytest.mark.parametrize("first", [1024, 1025, 1536, 2048, 2049])
    def test_first_rejection_at_a_block_edge(self, first):
        rng = np.random.default_rng(first)
        p = np.ones(3600)
        p[first - 1] = 0.0
        p[first:] = rng.random(3600 - first) ** 6
        for cfg in self._configs():
            rejected = self._same_run(cfg, p, (first - 1, first, 1500, 2048,
                                               3072))
            assert np.flatnonzero(rejected)[0] == first - 1, cfg.rule

    def test_busy_stream(self):
        p = generate_stream(GeneratorConfig(length=3100, pi1=0.5,
                                            seed=5)).p
        for cfg in self._configs():
            rejected = self._same_run(cfg, p, (700, 1024, 2048, 2500))
            assert rejected.sum() > 300, cfg.rule

    @pytest.mark.parametrize("rule", RULES)
    def test_decisions_carry_python_floats(self, rule):
        cfg = small_config(rule, lag=3 if RULE_SPECS[rule].lagged else 0)
        ctrl = make_controller(cfg)
        p = np.random.default_rng(3).random(1100) ** 4
        metrics.run_log(ctrl, p[:1000])
        for x in p[1000:]:
            d = ctrl.step(x)
            assert type(d.threshold) is float and type(d.oracle_value) is float
        ctrl = restore_controller(cfg, ctrl.snapshot())
        d = ctrl.step(np.float64(0.5))
        assert type(d.threshold) is float and type(d.oracle_value) is float
