import math
import warnings
from unittest import mock

import numpy as np
import pytest

from streamfdr import metrics
from streamfdr.controllers import ControllerConfig, make_controller
from streamfdr.gamma import discounted_sums
from streamfdr.metrics import (DecisionLog, mfdr_estimate,
                               verify_oracle_and_surplus)
from streamfdr.simulation import GeneratorConfig, generate_stream, method_config

#: a rule without an oracle, so summaries of hand-built logs skip the verifier
FIXED = ControllerConfig(rule="fixed", alpha=0.05)


def summary(rejected, is_null=None, delta=0.99, eta=1.0):
    """summarize_log of a hand-built log with the given decisions and labels."""
    rejected = np.asarray(rejected, dtype=bool)
    log = DecisionLog(p=np.where(rejected, 0.01, 0.5),
                      alpha=np.full(rejected.size, 0.05), rejected=rejected,
                      is_null=None if is_null is None
                      else np.asarray(is_null, dtype=bool))
    return metrics.summarize_log(log, FIXED, delta=delta, eta=eta)


def head(log, n):
    """The first n rows of a decision log."""
    return DecisionLog(**{k: None if v is None else v[:n]
                          for k, v in vars(log).items()})


class TestAccumulator:
    """The discounted counts R_delta and V_delta that summarize_log reports."""

    def test_discounted_counts_match_direct_arithmetic(self):
        # R_t = (1, 0, 1) with delta = 1/2: R_delta(3) = 0.25 + 0 + 1
        row = summary([True, False, True], [True, False, False], delta=0.5)
        assert row["r_delta"] == 0.5 ** 2 * 1 + 0.5 * 0 + 1
        assert row["v_delta"] == 0.25  # only t = 1 was null

    def test_delta_one_reduces_to_plain_counts(self):
        rng = np.random.default_rng(0)
        rejected = rng.random(499) < 0.2
        row = summary(rejected, rng.random(499) < 0.5, delta=1.0)
        assert row["r_delta"] == row["R"] == int(rejected.sum())

    def test_incremental_equals_recomputation(self):
        rng = np.random.default_rng(1)
        delta = 0.97
        rejected = rng.random(2000) < 0.1
        null = rng.random(2000) < 0.8
        r_acc = v_acc = 0.0
        for t in range(1, 2001):
            r = 1.0 if rejected[t - 1] else 0.0
            r_acc = delta * r_acc + r
            v_acc = delta * v_acc + (r if null[t - 1] else 0.0)
            if t in (1, 2, 137, 1000, 2000):
                row = summary(rejected[:t], null[:t], delta=delta)
                assert row["r_delta"] == pytest.approx(r_acc, rel=1e-12)
                assert row["v_delta"] == pytest.approx(v_acc, rel=1e-12)


class TestProportions:
    def test_fdp_variants_worked_example(self):
        row = summary([True, False, True], [True, False, False], delta=0.5,
                      eta=1.0)
        assert row["fdp_delta"] == pytest.approx(0.25 / 1.25)
        assert row["sfdp_delta"] == pytest.approx(0.25 / 2.25)
        assert row["fdp"] == 0.5

    def test_no_rejections_gives_zeros(self):
        row = summary([False], [True])
        assert (row["fdp"], row["fdp_delta"], row["sfdp_delta"]) == (0.0, 0.0, 0.0)

    def test_all_rejections_false_gives_fdp_one(self):
        row = summary([True] * 3, [True] * 3)
        assert row["fdp"] == 1.0
        assert row["precision"] == 0.0

    def test_power_counts(self):
        row = summary([True] * 4 + [False] * 6, [False] * 10)
        assert row["power"] == pytest.approx(0.4)

    def test_power_zero_alternatives_is_zero(self):
        assert summary([False], [True])["power"] == 0.0

    def test_unlabeled_stream_gives_none(self):
        row = summary([False, True])
        for key in ("V", "v_delta", "fdp", "fdp_delta", "sfdp_delta", "power",
                    "precision"):
            assert row[key] is None, key
        assert row["R"] == 1

    def test_smoothing_ordering_when_rdelta_large(self):
        rng = np.random.default_rng(2)
        null = rng.random(1499) < 0.5
        row = summary(rng.random(1499) < 0.3, null, delta=0.99)
        assert row["r_delta"] >= 1.0
        bound = row["fdp_delta"] * row["r_delta"] / (row["r_delta"] + row["eta"])
        assert row["sfdp_delta"] <= bound + 1e-15
        assert bound <= row["fdp_delta"] + 1e-15


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

    def test_nan_threshold_detected(self):
        cfg, log = self._log()
        log.alpha = log.alpha.copy()
        log.alpha[700] = np.nan
        log.rejected = log.p <= log.alpha
        report = verify_oracle_and_surplus(log, cfg)
        assert report.consistent
        assert not report.passed
        assert report.first_violation_at == 701

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
        got = discounted_sums(values, delta)
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

    @pytest.mark.parametrize("n", [0, 5])
    @pytest.mark.parametrize("tol, method", [
        (np.inf, "scratch"), (np.nan, "scratch"), (-1e-10, "recurrence"),
        (1e-10, "cubic"), (1e-10, "")])
    def test_bad_options_rejected_before_anything_else(self, n, tol, method):
        cfg, log = self._log(n=max(n, 1))
        log = head(log, n)
        with pytest.raises(ValueError, match="tol|method"):
            verify_oracle_and_surplus(log, cfg, tol=tol, method=method)
        with pytest.raises(ValueError, match="tol|method"):
            verify_oracle_and_surplus(log, FIXED, tol=tol, method=method)

    @pytest.mark.parametrize("rule", ["addis", "saffron", "addis-decay",
                                      "saffron-decay", "addis-decay-w0"])
    def test_addis_threshold_above_lambda_detected(self, rule):
        cfg, log = self._log(rule=rule)
        assert verify_oracle_and_surplus(log, cfg).passed
        assert log.alpha.max() <= cfg.lam
        # a row whose p lies outside (lambda, tau], so it spends nothing
        k = int(np.argmax((log.p <= cfg.lam) | (log.p > cfg.tau)))
        log.alpha = log.alpha.copy()
        log.alpha[k] = cfg.lam * (1.0 + 1e-6)
        log.rejected = log.p <= log.alpha
        report = verify_oracle_and_surplus(log, cfg)
        assert report.consistent
        assert not report.passed
        assert report.first_violation_at == k + 1

    def test_fixed_rule_has_no_oracle(self):
        cfg = ControllerConfig(rule="fixed", alpha=0.05)
        with pytest.raises(ValueError, match="no oracle"):
            verify_oracle_and_surplus(
                DecisionLog(p=np.zeros(1), alpha=np.full(1, 0.05),
                            rejected=np.zeros(1, dtype=bool)), cfg)


class TestSummarize:
    @pytest.mark.parametrize("rule, delta", [
        ("saffron-decay", None), ("lord-decay", None), ("addis-decay", None),
        # a summary delta other than the rule's, as a sweep gives its
        # undecayed rules, and one above a decay rule's
        ("lord", 0.99), ("saffron", 0.9), ("lord-decay", 0.999)])
    def test_summary_matches_direct_recomputation(self, rule, delta):
        cfg = method_config(rule, horizon=100_000)
        stream = generate_stream(GeneratorConfig(length=1500, pi1=0.1, seed=9))
        log = metrics.run_log(make_controller(cfg), stream.p,
                              is_null=stream.is_null)
        row = metrics.summarize_log(log, cfg, delta=delta)
        delta = cfg.delta if delta is None else delta
        r = v = tp = 0
        r_delta = v_delta = 0.0
        for rej, null in zip(log.rejected.tolist(), stream.is_null.tolist()):
            r += rej
            v += rej and null
            tp += rej and not null
            r_delta = delta * r_delta + rej
            v_delta = delta * v_delta + (rej and null)
        assert (row["R"], row["V"]) == (r, v) and r > 10
        # the bits of the recurrence, as the controllers accumulate it
        assert (row["r_delta"], row["v_delta"]) == (r_delta, v_delta)
        assert row["fdp"] == pytest.approx(v / max(r, 1))
        assert row["fdp_delta"] == pytest.approx(v_delta / max(r_delta, 1.0),
                                                 rel=1e-12)
        assert row["sfdp_delta"] == pytest.approx(v_delta / (r_delta + cfg.eta),
                                                  rel=1e-12)
        assert row["power"] == pytest.approx(tp / stream.n_alternatives)

    def test_time_sliced_evaluation(self):
        cfg = method_config("lord-decay", horizon=100_000)
        stream = generate_stream(GeneratorConfig(length=2000, pi1=0.05, seed=11))
        log = metrics.run_log(make_controller(cfg), stream.p,
                              is_null=stream.is_null)
        # a summary of the log's first 700 rows is the summary at step 700
        sliced = metrics.summarize_log(head(log, 700), cfg)
        assert sliced["T"] == 700
        assert sliced["R"] == int(log.rejected[:700].sum())
        rerun = metrics.run_log(make_controller(cfg), stream.p[:700],
                                is_null=stream.is_null[:700])
        direct = metrics.summarize_log(rerun, cfg)
        assert sliced["fdp_delta"] == pytest.approx(direct["fdp_delta"], rel=1e-12)

    def test_unlabeled_summary_has_null_fields(self):
        cfg = method_config("lord", horizon=100_000)
        rng = np.random.default_rng(4)
        log = metrics.run_log(make_controller(cfg), rng.random(100))
        row = metrics.summarize_log(log, cfg)
        assert row["V"] is None and row["fdp"] is None
        assert row["R"] >= 0 and row["min_surplus"] is not None


def _fsum_prefixes(values, delta):
    """Exactly rounded d(T) = sum_{t<=T} delta**(T-t) * values_t, per prefix."""
    values = values.tolist()
    return np.array([math.fsum(v * delta ** (T - t)
                               for t, v in enumerate(values[:T + 1]))
                     for T in range(len(values))])


class TestScratchPrefixes:
    """The block-anchored direct sums of the scratch verifier."""

    @pytest.mark.parametrize("delta", [0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 3, 43, 44, 45, 1023, 1024, 1025, 1999])
    def test_matches_exactly_rounded_sums(self, n, delta):
        # 43, 44 and 45 rows are one block size of the 1999-row case either
        # side of it; 1023, 1024 and 1025 rows end in a short block, fill
        # 32 blocks of 32 exactly, and end in a one-row block
        rng = np.random.default_rng(n)
        values = rng.random(n) * 10.0 ** rng.uniform(-12, 0, n)
        values[rng.random(n) < 0.3] = 0.0
        got = metrics._discounted_prefixes(values, delta)
        expected = _fsum_prefixes(values, delta)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 1, 43, 44, 45, 700, 1998])
    def test_bad_value_leaves_earlier_prefixes_unchanged(self, k, bad):
        rng = np.random.default_rng(5)
        values = rng.random(1999)
        clean = metrics._discounted_prefixes(values, 0.99)
        values[k] = bad
        got = metrics._discounted_prefixes(values, 0.99)
        assert np.isfinite(got[:k]).all()
        np.testing.assert_array_equal(got[:k], clean[:k])
        assert not np.isfinite(got[k:]).any()

    def test_scratch_matches_recurrence_on_long_lagged_log(self):
        cfg = method_config("lord-dep-decay", lag=100, horizon=100_000)
        stream = generate_stream(GeneratorConfig(length=100_000, pi1=0.01,
                                                 seed=21))
        log = metrics.run_log(make_controller(cfg), stream.p)
        a = verify_oracle_and_surplus(log, cfg, method="scratch")
        b = verify_oracle_and_surplus(log, cfg, method="recurrence")
        assert a.passed and b.passed
        assert a.min_surplus == pytest.approx(b.min_surplus, rel=1e-10, abs=1e-12)
        assert a.max_oracle == pytest.approx(b.max_oracle, rel=1e-10, abs=1e-12)
        for values in (log.alpha, log.rejected.astype(np.float64)):
            np.testing.assert_allclose(
                metrics._discounted_prefixes(values, cfg.delta),
                discounted_sums(values, cfg.delta),
                rtol=1e-10, atol=1e-12)


#: decays from tiny, where a few rows' weights underflow, to just below 1
DELTAS = [1e-6, 0.1, 0.5, 0.99, 1 - 1e-9]


def _shift_and_add_prefixes(values, delta):
    """Another form of the scratch prefixes: the same anchors, then
    isqrt(n) shift-and-add passes over each block."""
    n = values.size
    size = max(1, math.isqrt(n))
    powers = delta ** np.arange(max(n, size + 1), dtype=np.float64)
    rev = values[::-1].copy()
    anchors = np.array([np.dot(rev[n - s:], powers[:s])
                        for s in range(0, n, size)])
    grid = np.zeros(anchors.size * size)
    grid[:n] = values
    grid = grid.reshape(anchors.size, size)
    out = powers[1:size + 1] * anchors[:, None]
    for k in range(size):
        out[:, k:] += powers[k] * grid[:, :size - k]
    return out.reshape(-1)[:n]


class TestScratchPrefixesAtEveryDecay:
    """The recurrence run down each block from its direct anchor, at decays
    so small that some rows' weights underflow and at decays that barely
    discount."""

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
    def test_matches_exact_sums_and_the_recurrence(self, n, delta):
        rng = np.random.default_rng(n)
        values = rng.random(n) * 10.0 ** rng.uniform(-12, 0, n)
        got = metrics._discounted_prefixes(values, delta)
        assert got.shape == (n,) and np.isfinite(got).all()
        if n <= 1000:
            np.testing.assert_allclose(got, _fsum_prefixes(values, delta),
                                       rtol=1e-12, atol=0.0)
        else:
            np.testing.assert_allclose(
                got, discounted_sums(values, delta),
                rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_bad_threshold_in_a_block_is_reported_at_its_row(self, delta,
                                                             where, bad):
        n, size = 10_000, 100                  # blocks of isqrt(n) rows
        k = 3 * size + {"first": 0, "middle": 50, "last": 99}[where]
        cfg = ControllerConfig(rule="lord-decay", delta=delta)
        stream = generate_stream(GeneratorConfig(length=n, pi1=0.01, seed=8))
        log = metrics.run_log(make_controller(cfg), stream.p)
        assert verify_oracle_and_surplus(log, cfg).passed
        log.alpha[k] = bad
        with np.errstate(invalid="ignore"):
            got = metrics._discounted_prefixes(log.alpha, delta)
            with mock.patch.object(
                    metrics, "_discounted_prefixes",
                    _shift_and_add_prefixes):
                before = verify_oracle_and_surplus(log, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # verify warns of no NaN
            reports = [verify_oracle_and_surplus(log, cfg, method=method)
                       for method in ("scratch", "recurrence")]
        assert np.isfinite(got[:k]).all() and not np.isfinite(got[k])
        if bad == np.inf:
            # within its block an inf stays inf, as in the recurrence
            assert np.isposinf(got[k:4 * size]).all()
        assert before.first_violation_at == k + 1
        # both modes name the row of the bad threshold, where the first
        # prefix stops being finite, not a later NaN
        for report in reports:
            assert not report.passed
            assert (report.first_violation_at == report.min_surplus_at
                    == report.max_oracle_at == k + 1)
            assert not np.isfinite([report.min_surplus, report.max_oracle]).any()
