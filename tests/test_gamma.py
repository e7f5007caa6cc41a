import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

import streamfdr
from streamfdr import cli, metrics
from streamfdr.gamma import (DEFAULT_HORIZON, DecayedGammaSequence,
                             GammaSequence, _lord_default_raw, decayed_gamma,
                             discounted_sums, lord_gamma, power_gamma)

H_SMALL = 100_000


def _table(seq):
    """gamma_1..gamma_H of ``seq``, gathered by its lookups: a decayed
    sequence stores only the weights above its floor."""
    return seq.weights(np.arange(1, seq.horizon + 1))


def _lord_raw_scalar(t: int) -> float:
    return math.log(max(t, 2)) / (t * math.exp(math.sqrt(math.log(t))))


class TestLordDefault:
    def test_zero_outside_support(self):
        g = lord_gamma(H_SMALL)
        assert g.weight(0) == 0.0
        assert g.weight(-5) == 0.0
        assert g.weight(H_SMALL + 1) == 0.0

    def test_first_weight_against_fsum_oracle(self):
        # independent one-pass high-precision summation of the raw formula
        g = lord_gamma(H_SMALL)
        c = math.fsum(_lord_raw_scalar(t) for t in range(1, H_SMALL + 1))
        assert g.weight(1) == pytest.approx(math.log(2) / c, rel=1e-10)
        assert g.weight(137) == pytest.approx(_lord_raw_scalar(137) / c, rel=1e-10)

    def test_default_horizon_normalization(self):
        g = lord_gamma(DEFAULT_HORIZON)
        c = math.fsum(_lord_raw_scalar(t) for t in range(1, DEFAULT_HORIZON + 1))
        assert g.weight(1) == pytest.approx(math.log(2) / c, rel=1e-10)

    def test_monotone_and_partial_sums(self):
        g = lord_gamma(H_SMALL)
        assert np.all(np.diff(g.table) <= 0.0)
        assert np.all(g.table >= 0.0)
        assert np.cumsum(g.table).max() <= 1.0 + 1e-12

    def test_vector_lookup_matches_scalar(self):
        g = lord_gamma(H_SMALL)
        idx = np.array([-3, 0, 1, 2, 500, H_SMALL, H_SMALL + 7])
        expect = np.array([g.weight(int(i)) for i in idx])
        np.testing.assert_array_equal(g.weights(idx), expect)

    def test_in_place_raw_weights_match_the_formula(self):
        # the table is computed in one buffer; pin it to the plain expression
        t = np.arange(1, DEFAULT_HORIZON + 1, dtype=np.float64)
        expect = np.log(np.maximum(t, 2.0)) / (t * np.exp(np.sqrt(np.log(t))))
        np.testing.assert_array_equal(_lord_default_raw(t.copy()), expect)
        g = GammaSequence.lord_default(DEFAULT_HORIZON)
        np.testing.assert_array_equal(g.table, expect / float(expect.sum()))
        assert g.norm_const == float(expect.sum())


class TestPowerLaw:
    @pytest.mark.parametrize("s", [1.6, 2.0, 3.5])
    def test_in_place_table_matches_the_formula(self, s):
        t = np.arange(1, DEFAULT_HORIZON + 1, dtype=np.float64)
        raw = t ** (-s)
        g = GammaSequence.power_law(s, DEFAULT_HORIZON)
        np.testing.assert_array_equal(g.table, raw / float(raw.sum()))

    def test_ratio_cancels_normalization(self):
        g = power_gamma(1.6, H_SMALL)
        assert g.weight(1) / g.weight(2) == pytest.approx(2.0 ** 1.6, rel=1e-12)

    def test_rejects_non_summable_exponent(self):
        with pytest.raises(ValueError):
            GammaSequence.power_law(s=1.0)
        with pytest.raises(ValueError):
            GammaSequence.power_law(s=0.5)

    def test_first_weight_full_horizon(self):
        g = power_gamma(1.6, DEFAULT_HORIZON)
        partial = math.fsum(t ** -1.6 for t in range(1, DEFAULT_HORIZON + 1))
        assert g.weight(1) == pytest.approx(1.0 / partial, rel=1e-10)

    def test_zero_outside_support(self):
        g = power_gamma(1.6, H_SMALL)
        assert g.weight(0) == 0.0
        assert g.weight(-1) == 0.0


class TestCustomSequences:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("# comment\n0.5\n0.3\n\n0.2\n")
        g = GammaSequence.from_file(path)
        assert g.kind == "custom"
        assert g.horizon == 3
        assert g.weight(2) == 0.3
        assert g.weight(4) == 0.0

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("0.5\nbogus\n")
        with pytest.raises(ValueError, match="line 2"):
            GammaSequence.from_file(path)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GammaSequence.custom([0.5, -0.1])
        with pytest.raises(ValueError, match="non-increasing"):
            GammaSequence.custom([0.2, 0.3])
        with pytest.raises(ValueError, match="sum"):
            GammaSequence.custom([0.8, 0.8])

    @pytest.mark.parametrize("table", [[0.5, math.nan, 0.1], [math.inf]],
                             ids=["nan", "inf-one-line"])
    def test_non_finite_weight_rejected(self, table, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            GammaSequence.custom(table)
        path = tmp_path / "weights.txt"
        path.write_text("".join(f"{w!r}\n" for w in table))
        line = 1 + [math.isfinite(w) for w in table].index(False)
        with pytest.raises(ValueError, match=f"line {line}: not a finite"):
            GammaSequence.from_file(path)

    @settings(max_examples=50, derandomize=True)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1,
                    max_size=40))
    def test_any_normalized_sorted_table_is_valid(self, raw):
        values = np.sort(np.asarray(raw))[::-1]
        values = values / values.sum()
        g = GammaSequence.custom(values)
        assert np.all(np.diff(g.table) <= 0.0)
        assert np.cumsum(g.table).max() <= 1.0 + 1e-12
        assert g.weight(0) == 0.0


class TestDecayedSequence:
    def test_delta_one_is_identity(self):
        base = lord_gamma(H_SMALL)
        tilde = decayed_gamma(base, 1.0)
        np.testing.assert_array_equal(_table(tilde), base.table)
        assert tilde.floor == 0.0

    def test_floor_dominates_far_out(self):
        tilde = decayed_gamma(lord_gamma(H_SMALL), 0.99)
        assert tilde.rescale == 1.0
        # gamma_t < 0.01 well before t = 1000 for the log-based sequence
        assert tilde.weight(50_000) == 1.0 - 0.99
        assert tilde.weight(H_SMALL + 10) == tilde.floor
        assert tilde.weight(0) == 0.0

    def test_positive_non_increasing(self):
        tilde = decayed_gamma(lord_gamma(H_SMALL), 0.99)
        assert np.all(_table(tilde) > 0.0)
        assert np.all(np.diff(_table(tilde)) <= 0.0)

    @pytest.mark.parametrize("delta", [0.9, 0.99, 0.999, 1.0])
    def test_feasibility_by_exact_recurrence(self, delta):
        # exhaustive scan oracle: A(T) = delta*A(T-1) + gtilde_T over all T
        tilde = decayed_gamma(lord_gamma(H_SMALL), delta)
        acc = 0.0
        worst = 0.0
        for w in _table(tilde):
            acc = delta * acc + w
            worst = max(worst, acc)
        assert worst <= 1.0 + 1e-12
        assert tilde.max_decayed_sum == pytest.approx(worst, rel=1e-12)

    def test_feasibility_power_base(self):
        tilde = decayed_gamma(power_gamma(1.6, H_SMALL), 0.99)
        assert tilde.rescale == 1.0
        assert tilde.max_decayed_sum <= 1.0 + 1e-12

    def test_custom_base_feasible(self):
        base = GammaSequence.custom([0.6, 0.25, 0.1, 0.05])
        tilde = DecayedGammaSequence(base, 0.5)
        acc = 0.0
        for t in range(1, 50):
            acc = 0.5 * acc + tilde.weight(t)
            assert acc <= 1.0 + 1e-12

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            DecayedGammaSequence(lord_gamma(H_SMALL), 0.0)
        with pytest.raises(ValueError):
            DecayedGammaSequence(lord_gamma(H_SMALL), 1.2)


class TestVectorLookup:
    @pytest.mark.parametrize("seq", [
        lord_gamma(H_SMALL), decayed_gamma(lord_gamma(H_SMALL), 0.99),
        GammaSequence.custom([0.5, 0.25, 0.125]),
        DecayedGammaSequence(GammaSequence.custom([0.5, 0.25, 0.125]), 0.9),
    ], ids=["lord", "lord-decayed", "custom", "custom-decayed"])
    def test_weights_gather_what_np_clip_gathers(self, seq):
        h = seq.horizon
        idx = np.array([-5, -1, 0, 1, 2, h // 2, h - 1, h, h + 1, h + 2,
                        10 * h + 7], dtype=np.int64)
        # 0 before the table; past it 0, or the floor of a decayed sequence
        full = np.r_[0.0, _table(seq), getattr(seq, "floor", 0.0)]
        expect = full[np.clip(idx, 0, h + 1)]
        np.testing.assert_array_equal(seq.weights(idx), expect)
        assert [float(w) for w in seq.weights(idx)] == [
            seq.weight(int(i)) for i in idx]


def _lfilter_sums(values, delta, start=0.0):
    """The reference: scipy's first-order filter from state delta * start,
    down each column of a 2-d ``values``."""
    values = np.asarray(values, dtype=np.float64)
    zi = np.full((1,) + values.shape[1:], delta * start)
    return lfilter([1.0], [1.0, -delta], values, axis=0, zi=zi)[0]


def _loop_sums(values, delta, start=0.0):
    y, out = start, []
    for x in np.asarray(values, dtype=np.float64).tolist():
        y = delta * y + x
        out.append(y)
    return np.array(out, dtype=np.float64)


def _finite_values(rng, n, zeros, negatives):
    """Values spread over many magnitudes, some zero, some negative."""
    x = rng.random(n) * 10.0 ** rng.uniform(-8, 4, n)
    x[rng.random(n) < zeros] = 0.0
    if negatives:
        x[rng.random(n) < 0.5] *= -1.0
    return x


_DELTAS = st.one_of(st.just(1.0), st.sampled_from((0.5, 0.9, 0.99, 0.999)),
                    st.floats(0.0, 1.0, exclude_min=True))


class TestDiscountedSums:
    """``discounted_sums`` gives the bits of the scalar loop and of lfilter."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(0, 2000), delta=_DELTAS,
           start=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
           zeros=st.sampled_from((0.0, 0.3, 1.0)), negatives=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_loop_and_lfilter(self, n, delta, start, zeros, negatives,
                                     seed):
        x = _finite_values(np.random.default_rng(seed), n, zeros, negatives)
        got = discounted_sums(x, delta, start)
        assert got.dtype == np.float64 and got.shape == (n,)
        np.testing.assert_array_equal(got, _loop_sums(x, delta, start))
        if n:
            np.testing.assert_array_equal(got, _lfilter_sums(x, delta, start))

    def test_million_row_table(self):
        x = _finite_values(np.random.default_rng(5), 10 ** 6, 0.1, True)
        got = discounted_sums(x, 0.99, 0.25)
        np.testing.assert_array_equal(got, _lfilter_sums(x, 0.99, 0.25))
        np.testing.assert_array_equal(got, _loop_sums(x, 0.99, 0.25))

    def test_input_left_alone(self):
        x = np.array([0.5, 0.25, 1.0])
        discounted_sums(x, 0.5, 2.0)
        np.testing.assert_array_equal(x, [0.5, 0.25, 1.0])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5000), delta=_DELTAS,
           start=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
           bad=st.sampled_from((math.nan, math.inf, -math.inf, 1e308)),
           where=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_non_finite_rows_as_lfilter(self, n, delta, start, bad, where,
                                        seed):
        # 1e308 twice in a row overflows to inf for delta > 0.8
        x = _finite_values(np.random.default_rng(seed), n, 0.2, True)
        k = min(int(where * n), n - 1)
        x[k:k + (2 if bad == 1e308 else 1)] = bad
        got = discounted_sums(x, delta, start)
        np.testing.assert_array_equal(got, _lfilter_sums(x, delta, start))
        # nothing reaches a row before k
        np.testing.assert_array_equal(got[:k], discounted_sums(x[:k], delta,
                                                               start))

    @pytest.mark.parametrize("n", [2, 3, 1000, 50_000])
    @pytest.mark.parametrize("delta", [0.5, 0.99, 1.0])
    @pytest.mark.parametrize("bad, where", [(None, None)] + [
        (bad, where) for bad in (math.nan, math.inf, -math.inf)
        for where in ("first", "middle", "last")])
    def test_two_columns_equal_two_calls(self, n, delta, bad, where):
        # one dgtsv call with two right-hand sides gives each column the
        # bits of its own call, with an inf or NaN in one column or both
        rng = np.random.default_rng(n)
        spend = _finite_values(rng, n, 0.1, True)
        rejected = (rng.random(n) < 0.2).astype(np.float64)
        if bad is not None:
            k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
            spend[k] = bad
            rejected[n - 1 - k] = bad
        starts = (0.3, 1.5)
        got = discounted_sums(np.column_stack((spend, rejected)), delta,
                              starts)
        assert got.shape == (n, 2)
        for column, values, start in zip(got.T, (spend, rejected), starts):
            assert column.tobytes() == discounted_sums(
                values, delta, start).tobytes()
            np.testing.assert_array_equal(
                column, _lfilter_sums(values, delta, start))
        one_start = discounted_sums(np.column_stack((spend, rejected)), delta,
                                    0.7)
        assert one_start[:, 1].tobytes() == discounted_sums(
            rejected, delta, 0.7).tobytes()


def _lfilter_decayed(base, delta):
    """DecayedGammaSequence's table, rescale and peak as built with lfilter."""
    table = np.maximum(base.table, 1.0 - delta)
    peak = float(_lfilter_sums(table, delta).max())
    rescale = 1.0
    if peak > 1.0 + 1e-12:
        rescale = 1.0 / peak
        table = table * rescale
        peak = float(_lfilter_sums(table, delta).max())
    return table, rescale, peak


class TestDecayedBuildBitExact:
    @pytest.mark.parametrize("delta", [0.9, 0.99, 0.999])
    def test_default_table(self, delta):
        base = lord_gamma(DEFAULT_HORIZON)
        tilde = DecayedGammaSequence(base, delta)
        table, rescale, peak = _lfilter_decayed(base, delta)
        np.testing.assert_array_equal(_table(tilde), table)
        assert tilde.rescale == rescale == 1.0
        assert tilde.max_decayed_sum == peak

    def test_rescaled_table(self):
        # the public constructors keep every discounted sum at or below 1,
        # so the rescale is reached through a base whose weights sum to 5
        base = SimpleNamespace(table=np.r_[np.full(100, 0.05), np.zeros(900)],
                               horizon=1000)
        tilde = DecayedGammaSequence(base, 0.99)
        table, rescale, peak = _lfilter_decayed(base, 0.99)
        assert 0.3 < rescale < 0.4
        np.testing.assert_array_equal(_table(tilde), table)
        assert tilde.rescale == rescale
        assert tilde.max_decayed_sum == peak


    @pytest.mark.parametrize("horizon", [10, 1000, DEFAULT_HORIZON])
    @pytest.mark.parametrize("kind", ["lord", "power"])
    def test_compact_table_matches_full_construction(self, kind, horizon):
        # only the weights above the floor are stored; every lookup, out to
        # ten past the horizon, gives the bits of the full table
        base = lord_gamma(horizon) if kind == "lord" else power_gamma(1.6, horizon)
        idx = np.arange(-3, horizon + 11)
        for delta in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0):
            tilde = DecayedGammaSequence(base, delta)
            table, rescale, peak = _lfilter_decayed(base, delta)
            floor = (1.0 - delta) * rescale
            full = np.r_[0.0, table, floor]
            np.testing.assert_array_equal(
                tilde.weights(idx), full[np.clip(idx, 0, horizon + 1)])
            assert [tilde.weight(int(t)) for t in idx[:40]] == full[
                np.clip(idx[:40], 0, horizon + 1)].tolist()
            assert tilde.weight(horizon + 10) == floor
            np.testing.assert_array_equal(_table(tilde), table)
            assert (tilde.rescale, tilde.floor, tilde.max_decayed_sum) == (
                rescale, floor, peak)

    @pytest.mark.parametrize("delta", [0.99, 0.999, 0.9999, 1.0])
    def test_rescaled_compact_table(self, delta):
        base = SimpleNamespace(table=np.r_[np.full(100, 0.05), np.zeros(900)],
                               horizon=1000)
        tilde = DecayedGammaSequence(base, delta)
        table, rescale, peak = _lfilter_decayed(base, delta)
        assert rescale < 1.0
        idx = np.arange(-3, 1011)
        full = np.r_[0.0, table, (1.0 - delta) * rescale]
        np.testing.assert_array_equal(tilde.weights(idx),
                                      full[np.clip(idx, 0, 1001)])
        assert (tilde.rescale, tilde.floor, tilde.max_decayed_sum) == (
            rescale, (1.0 - delta) * rescale, peak)

    def test_table_is_read_only(self):
        tilde = decayed_gamma(lord_gamma(H_SMALL), 0.99)
        with pytest.raises(ValueError):
            tilde._padded[1] = 1.0
        tilde.weights(np.arange(1, 4))[0] = 1.0    # a copy
        assert tilde.weight(1) < 1.0
        with pytest.raises(ValueError):
            lord_gamma(H_SMALL).table[0] = 1.0


#: a fresh interpreter builds the lord-decay controller at its defaults
#: under tracemalloc and prints the memory it holds and its peak, in MiB
_FOOTPRINT = """
import tracemalloc

from streamfdr import ControllerConfig, make_controller

tracemalloc.start()
ctrl = make_controller(ControllerConfig(rule="lord-decay"))
held, peak = tracemalloc.get_traced_memory()
print(held / 2 ** 20, peak / 2 ** 20)
"""


class TestFootprint:
    def test_decay_controller_holds_one_base_table(self):
        # the 10**6-weight base (7.6 MiB) and a few decayed weights; the
        # full gtilde table and the scan's running sums are never built
        src = os.path.dirname(os.path.dirname(streamfdr.__file__))
        done = subprocess.run([sys.executable, "-c", _FOOTPRINT],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        held, peak = map(float, done.stdout.split())
        assert held <= 9.0
        assert peak <= 16.0


class TestVerifyForgedLogs:
    @pytest.mark.parametrize("forged", ["nan", "inf", "1e308"])
    def test_recurrence_report_as_lfilter(self, tmp_path, monkeypatch, forged):
        # a threshold of nan, inf or 1e308 (twice, which overflows) in a log
        # gets the report the lfilter recurrence gives
        def run(*argv):
            return cli.main(["--output-dir", str(tmp_path)]
                            + [str(a) for a in argv])

        assert run("simulate", "--pi1", "0.05", "--length", "1500",
                   "--seed", "3", "--out", "stream") == 0
        assert run("detect", "--input", tmp_path / "stream.csv", "--method",
                   "lord-decay", "--out", "det") == 0
        log = tmp_path / "det.csv"
        lines = log.read_text().splitlines()
        for t in (700, 701):
            cells = lines[t].split(",")
            cells[2], cells[3] = forged, "1"
            lines[t] = ",".join(cells)
        log.write_text("\n".join(lines) + "\n")
        argv = ["verify", "--input", log, "--manifest",
                tmp_path / "det.manifest.json", "--allow-modified",
                "--method", "recurrence", "--out"]
        assert run(*argv, "ours.json") == cli.EXIT_VERIFICATION
        monkeypatch.setattr(metrics, "discounted_sums", _lfilter_sums)
        assert run(*argv, "lfilter.json") == cli.EXIT_VERIFICATION
        ours = (tmp_path / "ours.json").read_bytes()
        assert ours == (tmp_path / "lfilter.json").read_bytes()
        assert json.loads(ours)["first_violation_at"] == 700
