import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfdr.gamma import (DEFAULT_HORIZON, DecayedGammaSequence,
                             GammaSequence, decayed_gamma, harmonic_number,
                             lord_gamma, power_gamma)

H_SMALL = 100_000


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


class TestPowerLaw:
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
        np.testing.assert_array_equal(tilde.table, base.table)
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
        assert np.all(tilde.table > 0.0)
        assert np.all(np.diff(tilde.table) <= 0.0)

    @pytest.mark.parametrize("delta", [0.9, 0.99, 0.999, 1.0])
    def test_feasibility_by_exact_recurrence(self, delta):
        # exhaustive scan oracle: A(T) = delta*A(T-1) + gtilde_T over all T
        tilde = decayed_gamma(lord_gamma(H_SMALL), delta)
        acc = 0.0
        worst = 0.0
        for w in tilde.table:
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
        expect = seq._padded[np.clip(idx, 0, h + 1)]
        np.testing.assert_array_equal(seq.weights(idx), expect)
        assert [float(w) for w in seq.weights(idx)] == [
            seq.weight(int(i)) for i in idx]


class TestHarmonic:
    def test_small_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == 1.5

    def test_ten_terms_direct_summation(self):
        assert harmonic_number(10) == pytest.approx(
            math.fsum(1.0 / k for k in range(1, 11)), rel=1e-15)
