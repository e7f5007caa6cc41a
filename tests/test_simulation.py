import math
import os

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from streamfdr import simulation
from streamfdr.simulation import (BurstConfig, FrontierConfig, GeneratorConfig,
                                  SweepConfig, fixed_threshold_frontier,
                                  generate_burst_stream, generate_stream,
                                  method_config, run_sweep, to_pvalue)


class TestToPvalue:
    def test_center_of_null_is_one(self):
        assert to_pvalue(0.0, "two") == 1.0

    def test_quantile_975_two_sided(self):
        z = ndtri(0.975)
        assert to_pvalue(z, "two") == pytest.approx(0.05, rel=1e-12)

    def test_z3_against_high_precision_erfc(self):
        import mpmath
        expected = float(2 * (1 - mpmath.ncdf(3)))
        assert to_pvalue(3.0, "two") == pytest.approx(expected, abs=1e-15)
        assert to_pvalue(3.0, "two") == pytest.approx(0.0026997960632602, rel=1e-12)

    def test_one_sided_tails(self):
        assert to_pvalue(2.0, "upper") == pytest.approx(
            float(math.erfc(2.0 / math.sqrt(2)) / 2), rel=1e-12)
        assert to_pvalue(-1.5, "lower") == pytest.approx(
            to_pvalue(1.5, "upper"), rel=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=4.0, size=1000)
        p = to_pvalue(z, "two")
        assert np.all((p >= 0.0) & (p <= 1.0))
        np.testing.assert_array_equal(p, to_pvalue(-z, "two"))

    def test_extreme_tail_accuracy(self):
        import mpmath
        expected = float(2 * mpmath.ncdf(-8))
        assert to_pvalue(8.0, "two") == pytest.approx(expected, rel=1e-12)


class TestGenerator:
    def test_null_stream_pvalues_uniform(self):
        stream = generate_stream(GeneratorConfig(length=100_000, pi1=0.0, seed=1))
        assert stream.n_alternatives == 0
        stat = kstest(stream.p, "uniform").statistic
        assert stat < 0.006
        # one-sided super-uniformity: the empirical CDF never sits far above u
        grid = np.linspace(0.001, 1.0, 200)
        ecdf = np.searchsorted(np.sort(stream.p), grid, side="right") / stream.p.size
        assert np.all(ecdf <= grid + 0.006)

    def test_all_alternatives(self):
        stream = generate_stream(GeneratorConfig(length=500, pi1=1.0, seed=2))
        assert stream.n_alternatives == 500

    def test_anomaly_count_concentrates(self):
        bound = 3 * math.sqrt(20000 * 0.01 * 0.99)
        for seed in range(5):
            stream = generate_stream(GeneratorConfig(
                length=20000, pi1=0.01, seed=seed))
            assert abs(stream.n_alternatives - 200) <= bound

    def test_mean_shift_raises_signal(self):
        stream = generate_stream(GeneratorConfig(length=5000, pi1=0.3, seed=3,
                                                 alternative="mean", effect=3.0))
        assert stream.z[~stream.is_null].mean() == pytest.approx(3.0, abs=0.1)

    def test_scale_shift_widens(self):
        stream = generate_stream(GeneratorConfig(length=20000, pi1=0.5, seed=4,
                                                 alternative="scale", effect=3.0))
        assert stream.z[~stream.is_null].std() == pytest.approx(3.0, abs=0.1)
        assert stream.z[stream.is_null].std() == pytest.approx(1.0, abs=0.05)

    def test_determinism(self):
        a = generate_stream(GeneratorConfig(length=1000, pi1=0.1, seed=5))
        b = generate_stream(GeneratorConfig(length=1000, pi1=0.1, seed=5))
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.is_null, b.is_null)
        c = generate_stream(GeneratorConfig(length=1000, pi1=0.1, seed=6))
        assert not np.array_equal(a.p, c.p)

    def test_moving_average_injects_local_dependence(self):
        cfg = GeneratorConfig(length=200_000, pi1=0.0, seed=8, ma_lag=3)
        stream = generate_stream(cfg)
        z = stream.z
        assert z.std() == pytest.approx(1.0, abs=0.01)

        def autocorr(x, lag):
            return float(np.corrcoef(x[:-lag], x[lag:])[0, 1])

        assert autocorr(z, 1) > 0.5
        assert autocorr(z, 3) > 0.1
        assert abs(autocorr(z, 4)) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(length=0, pi1=0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(length=10, pi1=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(length=10, pi1=0.1, sidedness="both")

    @pytest.mark.parametrize("effect", [math.nan, math.inf, -math.inf])
    def test_effect_must_be_finite(self, effect):
        for alternative in ("mean", "scale"):
            with pytest.raises(ValueError, match="effect must be finite"):
                GeneratorConfig(length=10, pi1=0.1, alternative=alternative,
                                effect=effect)
        with pytest.raises(ValueError, match="effect must be finite"):
            BurstConfig(effect=effect)


    @pytest.mark.parametrize("kwargs, match", [
        ({"alternative": "bogus"}, "alternative must be one of"),
        ({"alternative": "scale", "effect": -2.0},
         "scale-shift effect must be positive"),
        ({"sidedness": "both"}, "sidedness must be one of"),
    ])
    def test_burst_mixture_checked_like_generator(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GeneratorConfig(length=10, pi1=0.1, **kwargs)
        with pytest.raises(ValueError, match=match):
            BurstConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"reps": 0}, "reps must be positive"),
        ({"workers": 0}, "workers must be positive"),
        ({"delta": 2.0}, "delta must lie in"),
        ({"alpha_grid": (0.1, 1.5)}, "alpha must lie in"),
    ])
    def test_frontier_settings_checked_up_front(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FrontierConfig(**kwargs)

    def test_sweep_rule_settings_checked_up_front(self):
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            SweepConfig(methods=("lord-dep-decay",), lag=-1)


class TestBurstScenario:
    def test_shape_and_determinism(self):
        cfg = BurstConfig(burst_length=1000, burst_anomalies=50, gap=10000,
                          seed=11)
        stream = generate_burst_stream(cfg)
        assert len(stream) == 12000
        w = cfg.windows()
        alt = ~stream.is_null
        assert alt[slice(*w["burst1"])].sum() == 50
        assert alt[slice(*w["gap"])].sum() == 0
        assert alt[slice(*w["burst2"])].sum() == 50
        again = generate_burst_stream(cfg)
        np.testing.assert_array_equal(stream.p, again.p)


class TestSweep:
    def test_single_cell_shapes(self):
        cfg = SweepConfig(methods=("lord-decay",), pi1_grid=(0.05,),
                          length=400, reps=1, seed_base=3)
        result = run_sweep(cfg)
        assert len(result.raw) == 1
        assert len(result.aggregate) == 1
        row = result.raw[0]
        assert row["method"] == "lord-decay"
        assert row["T"] == 400
        assert 0.0 <= row["fdp"] <= 1.0
        assert row["min_surplus"] >= -1e-10
        agg = result.aggregate[0]
        assert agg["reps"] == 1
        assert agg["power_se"] == 0.0

    def test_methods_share_streams_per_seed(self):
        cfg = SweepConfig(methods=("lord", "lord-decay"), pi1_grid=(0.2,),
                          length=300, reps=2, seed_base=10)
        result = run_sweep(cfg)
        by_method = {}
        for row in result.raw:
            by_method.setdefault(row["method"], []).append(row["seed"])
        assert by_method["lord"] == by_method["lord-decay"] == [10, 11]

    def test_parallel_equals_serial(self):
        base = dict(methods=("lord-decay", "saffron"), pi1_grid=(0.1, 0.3),
                    length=250, reps=2, seed_base=0)
        serial = run_sweep(SweepConfig(**base, workers=1))
        parallel = run_sweep(SweepConfig(**base, workers=2))
        assert serial.raw == parallel.raw
        assert serial.aggregate == parallel.aggregate

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # each worker starts with the thread variables at 1; the parent's
        # own values come back afterwards, unset ones unset
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
        assert simulation._map_cells(os.getenv, names, 2) == ["1", "1"]
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            SweepConfig(methods=("lord", "mystery"))

    @pytest.mark.parametrize("setting, name", [
        ({"length": 0}, "length"), ({"pi1_grid": (0.1, math.nan)}, "pi1"),
        ({"pi1_grid": (1.5,)}, "pi1"), ({"alpha": math.nan}, "alpha"),
        ({"alpha": 0.0}, "alpha"), ({"delta": math.inf}, "delta"),
        ({"delta": 0.0}, "delta"), ({"eta": math.nan}, "eta"),
        ({"eta": -1.0}, "eta")])
    def test_grid_settings_checked_up_front(self, setting, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            SweepConfig(**setting)

    def test_aggregate_mean_of_raw(self):
        cfg = SweepConfig(methods=("saffron-decay",), pi1_grid=(0.3,),
                          length=300, reps=4, seed_base=1)
        result = run_sweep(cfg)
        powers = [r["power"] for r in result.raw]
        agg = result.aggregate[0]
        assert agg["power_mean"] == pytest.approx(float(np.mean(powers)))
        assert agg["power_se"] == pytest.approx(
            float(np.std(powers, ddof=1) / math.sqrt(len(powers))))


class TestFrontier:
    def test_degenerate_thresholds(self):
        cfg = FrontierConfig(
            burst=BurstConfig(burst_length=200, burst_anomalies=20, gap=500,
                              seed=0),
            alpha_grid=(0.1,), threshold_grid=(0.0, 1.0), reps=2)
        result = fixed_threshold_frontier(cfg)
        rows = {(r["kind"], r["param"]): r for r in result.aggregate}
        assert rows[("fixed", 1.0)]["power_mean"] == 1.0   # everything rejected
        assert rows[("fixed", 0.0)]["power_mean"] == 0.0   # only p = 0 rejected
        # 900 rows, 40 anomalies: rejecting everything gives FDP = 860/900
        assert rows[("fixed", 1.0)]["fdp_mean"] == pytest.approx(860 / 900)

    def test_method_config_passthrough(self):
        cfg = method_config("lord-dep-decay", alpha=0.2, delta=0.95, lag=4)
        assert cfg.lag == 4
        assert cfg.delta == 0.95
        cfg2 = method_config("lord", alpha=0.2, delta=0.95)  # no warning
        assert cfg2.delta == 1.0
