import numpy as np
import pytest

from streamfdr import metrics
from streamfdr.controllers import Decision, make_controller
from streamfdr.metrics import (DecisionLog, MetricsAccumulator, StreamRecord,
                               mfdr_estimate, verify_oracle_and_surplus)
from streamfdr.simulation import GeneratorConfig, generate_stream, method_config


def _decision(step, rejected, threshold=0.05):
    return Decision(step, threshold, rejected, 0.0, False)


class TestAccumulator:
    def test_discounted_counts_match_direct_arithmetic(self):
        # R_t = (1, 0, 1) with delta = 1/2: R_delta(3) = 0.25 + 0 + 1
        acc = MetricsAccumulator(delta=0.5)
        acc.update(StreamRecord(1, 0.01, True), _decision(1, True))
        acc.update(StreamRecord(2, 0.5, False), _decision(2, False))
        acc.update(StreamRecord(3, 0.01, False), _decision(3, True))
        assert acc.r_delta == 0.5 ** 2 * 1 + 0.5 * 0 + 1
        assert acc.v_delta == 0.25  # only t = 1 was null

    def test_delta_one_reduces_to_plain_counts(self):
        rng = np.random.default_rng(0)
        acc = MetricsAccumulator(delta=1.0)
        rejections = 0
        for t in range(1, 500):
            rej = bool(rng.random() < 0.2)
            rejections += rej
            acc.update(StreamRecord(t, 0.5, bool(rng.random() < 0.5)),
                       _decision(t, rej))
        assert acc.r_delta == acc.rejections == rejections

    def test_out_of_order_update_rejected(self):
        acc = MetricsAccumulator()
        acc.update(StreamRecord(1, 0.5, True), _decision(1, False))
        with pytest.raises(ValueError, match="out-of-order"):
            acc.update(StreamRecord(3, 0.5, True), _decision(3, False))

    def test_incremental_equals_recomputation(self):
        rng = np.random.default_rng(1)
        delta = 0.97
        acc = MetricsAccumulator(delta=delta)
        rejected, null = [], []
        for t in range(1, 2001):
            rej = bool(rng.random() < 0.1)
            is_null = bool(rng.random() < 0.8)
            rejected.append(rej)
            null.append(is_null)
            acc.update(StreamRecord(t, 0.5, is_null), _decision(t, rej))
            T = len(rejected)
            w = delta ** np.arange(T - 1, -1, -1)
            r_direct = float(np.dot(w, rejected))
            assert acc.r_delta == pytest.approx(r_direct, rel=1e-12)
        v_direct = float(np.dot(delta ** np.arange(T - 1, -1, -1),
                                np.asarray(rejected) & np.asarray(null)))
        assert acc.v_delta == pytest.approx(v_direct, rel=1e-12)


class TestProportions:
    def _worked_example(self):
        acc = MetricsAccumulator(delta=0.5, eta=1.0)
        acc.update(StreamRecord(1, 0.01, True), _decision(1, True))
        acc.update(StreamRecord(2, 0.5, False), _decision(2, False))
        acc.update(StreamRecord(3, 0.01, False), _decision(3, True))
        return acc

    def test_fdp_variants_worked_example(self):
        out = self._worked_example().fdp_variants()
        assert out["fdp_delta"] == pytest.approx(0.25 / 1.25)
        assert out["sfdp_delta"] == pytest.approx(0.25 / 2.25)
        assert out["fdp"] == 0.5

    def test_no_rejections_gives_zeros(self):
        acc = MetricsAccumulator()
        acc.update(StreamRecord(1, 0.9, True), _decision(1, False))
        out = acc.fdp_variants()
        assert out == {"fdp": 0.0, "fdp_delta": 0.0, "sfdp_delta": 0.0}

    def test_all_rejections_false_gives_fdp_one(self):
        acc = MetricsAccumulator()
        for t in range(1, 4):
            acc.update(StreamRecord(t, 0.01, True), _decision(t, True))
        assert acc.fdp_variants()["fdp"] == 1.0
        assert acc.power_precision()["precision"] == 0.0

    def test_power_counts(self):
        acc = MetricsAccumulator()
        t = 0
        for _ in range(4):
            t += 1
            acc.update(StreamRecord(t, 0.01, False), _decision(t, True))
        for _ in range(6):
            t += 1
            acc.update(StreamRecord(t, 0.5, False), _decision(t, False))
        assert acc.power_precision()["power"] == pytest.approx(0.4)

    def test_power_zero_alternatives_flagged(self):
        acc = MetricsAccumulator()
        acc.update(StreamRecord(1, 0.5, True), _decision(1, False))
        out = acc.power_precision()
        assert out["power"] == 0.0
        assert out["degenerate_power"]

    def test_unlabeled_stream_raises(self):
        acc = MetricsAccumulator()
        acc.update(StreamRecord(1, 0.5, None), _decision(1, False))
        with pytest.raises(ValueError, match="label"):
            acc.fdp_variants()

    def test_smoothing_ordering_when_rdelta_large(self):
        rng = np.random.default_rng(2)
        acc = MetricsAccumulator(delta=0.99)
        for t in range(1, 1500):
            acc.update(StreamRecord(t, 0.5, bool(rng.random() < 0.5)),
                       _decision(t, bool(rng.random() < 0.3)))
        assert acc.r_delta >= 1.0
        out = acc.fdp_variants()
        bound = out["fdp_delta"] * acc.r_delta / (acc.r_delta + acc.eta)
        assert out["sfdp_delta"] <= bound + 1e-15
        assert bound <= out["fdp_delta"] + 1e-15


class TestMfdr:
    def test_single_replication(self):
        assert mfdr_estimate([(1.0, 3.0)], eta=1.0) == 0.25

    def test_two_replications(self):
        assert mfdr_estimate([(0.0, 0.0), (1.0, 2.0)], eta=1.0) == 0.25

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mfdr_estimate([])

    def test_many_seeded_replications_match_recomputation(self):
        delta, eta = 0.95, 1.0
        pairs = []
        vs, rs = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rej = rng.random(300) < 0.05
            null = rng.random(300) < 0.9
            w = delta ** np.arange(299, -1, -1)
            v = float(np.dot(w, rej & null))
            r = float(np.dot(w, rej))
            pairs.append((v, r))
            vs.append(v)
            rs.append(r)
        expect = np.mean(vs) / (np.mean(rs) + eta)
        assert mfdr_estimate(pairs, eta=eta) == pytest.approx(expect, rel=1e-12)


class TestVerifier:
    def _log(self, rule="lord-decay", n=2000, seed=3, pi1=0.02):
        cfg = method_config(rule, horizon=100_000)
        stream = generate_stream(GeneratorConfig(length=n, pi1=pi1, seed=seed))
        log = metrics.run_log(make_controller(cfg), stream.p,
                              is_null=stream.is_null)
        return cfg, log

    def test_empty_log_surplus_is_alpha_eta(self):
        cfg = method_config("lord-decay", alpha=0.1, eta=1.0, horizon=100_000)
        report = verify_oracle_and_surplus(
            DecisionLog(p=np.zeros(0), alpha=np.zeros(0),
                        rejected=np.zeros(0, dtype=bool)), cfg)
        assert report.min_surplus == 0.1 * 1.0
        assert report.passed

    def test_clean_log_passes(self):
        cfg, log = self._log()
        report = verify_oracle_and_surplus(log, cfg)
        assert report.passed
        assert report.min_surplus >= -1e-10
        assert report.max_oracle <= cfg.alpha + 1e-10

    def test_tampered_log_detected(self):
        cfg, log = self._log()
        log.alpha = log.alpha.copy()
        log.alpha[700] *= 100.0
        log.rejected = log.p <= log.alpha  # keep the log self-consistent
        report = verify_oracle_and_surplus(log, cfg)
        assert not report.passed
        assert report.first_violation_at is not None
        assert report.min_surplus < 0.0

    def test_inconsistent_rejections_detected(self):
        cfg, log = self._log()
        log.rejected = log.rejected.copy()
        log.rejected[100] = not log.rejected[100]
        report = verify_oracle_and_surplus(log, cfg)
        assert not report.consistent
        assert not report.passed

    def test_recurrence_mode_matches_scratch(self):
        for rule in ("lord", "saffron", "lord-decay", "addis-decay",
                     "lord-decay-w0"):
            cfg, log = self._log(rule=rule, n=3000)
            a = verify_oracle_and_surplus(log, cfg, method="scratch")
            b = verify_oracle_and_surplus(log, cfg, method="recurrence")
            assert a.min_surplus == pytest.approx(b.min_surplus, rel=1e-10, abs=1e-12)
            assert a.max_oracle == pytest.approx(b.max_oracle, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 0.99, 1.0])
    def test_recurrence_prefixes_match_python_loop_bit_for_bit(self, delta):
        rng = np.random.default_rng(67)
        values = rng.random(5000) * 10.0 ** rng.uniform(-12, 0, 5000)
        values[rng.random(5000) < 0.3] = 0.0
        expected = []
        acc = 0.0
        for v in values.tolist():
            acc = delta * acc + v
            expected.append(acc)
        got = metrics._discounted_prefixes(values, delta, "recurrence")
        np.testing.assert_array_equal(got, np.asarray(expected))

    def test_incremental_oracle_matches_scratch_long_stream(self):
        # controller-side running oracle vs quadratic recomputation
        cfg, log = self._log(n=20_000, pi1=0.05)
        num = log.alpha
        powers = cfg.delta ** np.arange(len(log), dtype=np.float64)
        rev_num = num[::-1].copy()
        rev_rej = log.rejected[::-1].astype(np.float64)
        for T in (1, 137, 5000, 20_000):
            spend = float(np.dot(rev_num[len(log) - T:], powers[:T]))
            rdelta = float(np.dot(rev_rej[len(log) - T:], powers[:T]))
            oracle = spend / (rdelta + cfg.eta)
            assert log.oracle[T - 1] == pytest.approx(oracle, rel=1e-12)

    def test_fixed_rule_has_no_oracle(self):
        from streamfdr.controllers import ControllerConfig
        cfg = ControllerConfig(rule="fixed", alpha=0.05)
        with pytest.raises(ValueError, match="no oracle"):
            verify_oracle_and_surplus(
                DecisionLog(p=np.zeros(1), alpha=np.full(1, 0.05),
                            rejected=np.zeros(1, dtype=bool)), cfg)


class TestSummarize:
    def test_summary_matches_accumulator(self):
        cfg = method_config("saffron-decay", horizon=100_000)
        stream = generate_stream(GeneratorConfig(length=1500, pi1=0.1, seed=9))
        log = metrics.run_log(make_controller(cfg), stream.p,
                              is_null=stream.is_null)
        row = metrics.summarize_log(log, cfg)
        acc = metrics.accumulate_stream(log, delta=cfg.delta, eta=cfg.eta)
        variants = acc.fdp_variants()
        assert row["R"] == acc.rejections
        assert row["V"] == acc.false_positives
        assert row["fdp"] == pytest.approx(variants["fdp"])
        assert row["fdp_delta"] == pytest.approx(variants["fdp_delta"], rel=1e-12)
        assert row["sfdp_delta"] == pytest.approx(variants["sfdp_delta"], rel=1e-12)
        assert row["power"] == pytest.approx(acc.power_precision()["power"])

    def test_time_sliced_evaluation(self):
        cfg = method_config("lord-decay", horizon=100_000)
        stream = generate_stream(GeneratorConfig(length=2000, pi1=0.05, seed=11))
        log = metrics.run_log(make_controller(cfg), stream.p,
                              is_null=stream.is_null)
        sliced = metrics.summarize_log(log, cfg, upto=700)
        assert sliced["T"] == 700
        assert sliced["R"] == int(log.rejected[:700].sum())
        rerun = metrics.run_log(make_controller(cfg), stream.p[:700],
                                is_null=stream.is_null[:700])
        direct = metrics.summarize_log(rerun, cfg)
        assert sliced["fdp_delta"] == pytest.approx(direct["fdp_delta"], rel=1e-12)
        with pytest.raises(ValueError):
            metrics.summarize_log(log, cfg, upto=5000)

    def test_unlabeled_summary_has_null_fields(self):
        cfg = method_config("lord", horizon=100_000)
        rng = np.random.default_rng(4)
        log = metrics.run_log(make_controller(cfg), rng.random(100))
        row = metrics.summarize_log(log, cfg)
        assert row["V"] is None and row["fdp"] is None
        assert row["R"] >= 0 and row["min_surplus"] is not None
