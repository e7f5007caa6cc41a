from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from streamfdr import forecaster, metrics
from streamfdr.controllers import make_controller
from streamfdr.forecaster import (SeriesFrame, ingest_csv, min_across_dims,
                                  rolling_gaussian_pvalues, score_frame)
from streamfdr.simulation import method_config, to_pvalue


class TestRollingPvalues:
    def test_warmup_rows_are_one(self):
        rng = np.random.default_rng(0)
        p = rolling_gaussian_pvalues(rng.standard_normal(500), window=100)
        assert np.all(p[:100] == 1.0)
        assert np.any(p[100:] < 1.0)

    def test_constant_series_scores_one(self):
        # 0.5 sums exactly in binary, so the residual is exactly zero
        p = rolling_gaussian_pvalues(np.full(50, 0.5), window=10)
        assert np.all(p == 1.0)

    def test_near_constant_series_scores_near_one(self):
        p = rolling_gaussian_pvalues(np.full(50, 0.1), window=10)
        assert np.all(p > 0.999)

    def test_spike_off_flat_window_hits_far_tail(self):
        x = np.zeros(30)
        x[20] = 5.0
        p = rolling_gaussian_pvalues(x, window=4)
        assert p[20] < 1e-12
        assert p[19] == 1.0

    def test_matches_manual_window_computation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        n = 50
        p = rolling_gaussian_pvalues(x, window=n)
        for t in (n, 77, 199):
            window = x[t - n:t]
            resid = (x[t] - window.mean()) / window.std(ddof=1)
            assert p[t] == pytest.approx(to_pvalue(resid, "two"), rel=1e-12)

    def test_strictly_past_window_locality(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400)
        n = 60
        base = rolling_gaussian_pvalues(x, window=n)
        t = 200
        bumped = x.copy()
        bumped[t] += 10.0
        alt = rolling_gaussian_pvalues(bumped, window=n)
        np.testing.assert_array_equal(alt[:t], base[:t])   # past untouched
        assert alt[t] != base[t]                           # own score moves
        assert np.any(alt[t + 1:t + n + 1] != base[t + 1:t + n + 1])
        np.testing.assert_array_equal(alt[t + n + 1:], base[t + n + 1:])

    def test_one_sided_variant(self):
        x = np.concatenate([np.zeros(20), [3.0]])
        x[:20] += np.linspace(-0.01, 0.01, 20)  # tiny spread, nonzero sd
        up = rolling_gaussian_pvalues(x, window=20, sidedness="upper")
        lo = rolling_gaussian_pvalues(x, window=20, sidedness="lower")
        assert up[20] < 1e-6
        assert lo[20] > 1.0 - 1e-6

    @pytest.mark.parametrize("block_cells", [None, 7 * 4, 7 * 5 + 3])
    @pytest.mark.parametrize("n", [5, 7, 8, 9, 30, 31, 34, 35, 1001, 40000])
    def test_blocks_equal_one_pass_bit_for_bit(self, n, block_cells):
        """The block-by-block fit gives the bytes of one pass over all
        windows; n runs from below the window to many blocks, on and off
        block multiples (7 + 4k rows fill the 4-row blocks exactly)."""
        window = 7
        x = np.random.default_rng(n).standard_normal(n) * 1e3
        expected = np.ones(n)
        if n > window:
            windows = sliding_window_view(x, window)[:-1]
            sd = np.maximum(windows.std(axis=-1, ddof=1), forecaster.SD_FLOOR)
            resid = (x[window:] - windows.mean(axis=-1)) / sd
            expected[window:] = to_pvalue(resid, "two")
        with mock.patch.object(forecaster, "_BLOCK_CELLS",
                               block_cells or forecaster._BLOCK_CELLS):
            got = rolling_gaussian_pvalues(x, window)
        assert got.tobytes() == expected.tobytes()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            rolling_gaussian_pvalues(np.zeros(10), window=1)
        with pytest.raises(ValueError):
            rolling_gaussian_pvalues(np.zeros((5, 2)), window=3)


class TestMinAcrossDims:
    def test_single_dimension_identity(self):
        x = np.array([0.3, 0.7, 0.1])
        np.testing.assert_array_equal(min_across_dims([x]), x)

    def test_rowwise_minimum(self):
        out = min_across_dims([np.array([0.2]), np.array([0.05]),
                               np.array([0.9])])
        assert out[0] == 0.05

    def test_matches_bruteforce_on_random_matrix(self):
        rng = np.random.default_rng(3)
        mat = rng.random((500, 38))
        out = min_across_dims(mat)
        brute = np.array([min(row) for row in mat])
        np.testing.assert_array_equal(out, brute)
        assert np.all(out[:, None] <= mat)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            min_across_dims([np.zeros(3), np.zeros(4)])


class TestIngest:
    def test_basic_frame(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        frame = ingest_csv(path)
        assert frame.n_rows == 3
        assert frame.n_dims == 2
        assert frame.values[2, 1] == 6.0
        assert frame.labels is None

    def test_label_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("m1,m2,label\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,0\n")
        frame = ingest_csv(path, label_column="label")
        assert frame.columns == ["m1", "m2"]
        assert frame.labels.tolist() == [False, True, False]
        assert frame.anomaly_fraction() == pytest.approx(1 / 3)

    def test_missing_cell_names_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,\n")
        with pytest.raises(ValueError, match="row 2"):
            ingest_csv(path)

    def test_forward_fill(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a\n1.0\n\n" .replace("\n\n", "\nnan\n"))
        path.write_text("a\n1.5\nnan\n2.5\n")
        frame = ingest_csv(path, forward_fill=True)
        assert frame.values[:, 0].tolist() == [1.5, 1.5, 2.5]

    def test_malformed_number_names_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a\n1.0\noops\n")
        with pytest.raises(ValueError, match="row 2"):
            ingest_csv(path)

    def test_column_selection(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        frame = ingest_csv(path, value_columns=["c", "a"])
        assert frame.values.tolist() == [[3.0, 1.0], [6.0, 4.0]]

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError, match="not found"):
            ingest_csv(path, value_columns=["zz"])


class TestPipeline:
    def test_injected_anomalies_are_detectable_downstream(self):
        rng = np.random.default_rng(7)
        rows, dims, window = 1200, 3, 100
        values = rng.standard_normal((rows, dims))
        anomaly_rows = np.arange(200, rows, 150)
        values[anomaly_rows] += 6.0
        labels = np.zeros(rows, dtype=bool)
        labels[anomaly_rows] = True
        frame = SeriesFrame(values=values, columns=list("abc"), labels=labels)
        p = score_frame(frame, window=window)
        assert np.all(p[anomaly_rows] < 1e-6)

        cfg = method_config("lord-decay", alpha=0.1, delta=0.99,
                            horizon=100_000)
        log = metrics.run_log(make_controller(cfg), p, is_null=~labels)
        summary = metrics.summarize_log(log, cfg)
        assert summary["power"] > 0.5
