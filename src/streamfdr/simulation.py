"""Synthetic labeled p-value streams and Monte-Carlo experiment sweeps.

Observations are drawn from a two-component mixture: standard normal
background, and with probability pi1 an anomalous component that is either
a mean shift (N(effect, 1)) or a scale shift (N(0, effect**2)).  P-values
are computed under the null via the standard normal CDF, so with pi1 = 0
they are exactly uniform.  An optional moving-average injector correlates
neighbouring observations (order ``ma_lag``) while keeping the marginal
distribution standard normal, which is what the lag-aware rules are for.

All randomness flows through numpy's seeded PCG64 generator with a fixed
draw order (labels, then innovations), so identical configurations produce
byte-identical streams on any platform.  Sweep replications are seeded as
``seed_base + replication`` and share streams across methods, which makes
per-seed comparisons between methods paired.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import controllers, metrics
from .controllers import ControllerConfig

SIDEDNESS = ("two", "upper", "lower")
ALTERNATIVES = ("mean", "scale")


def to_pvalue(z, sidedness: str = "two"):
    """P-value of z under the standard normal null.

    two:   2 * min(F(z), 1 - F(z)), evaluated through the lower tail of -|z|
           so extreme values keep full relative accuracy
    upper: 1 - F(z);  lower: F(z)
    """
    from scipy.special import ndtr  # here: stepping loads no scipy
    z = np.asarray(z, dtype=np.float64)
    if sidedness == "two":
        p = 2.0 * ndtr(-np.abs(z))
    elif sidedness == "upper":
        p = ndtr(-z)
    elif sidedness == "lower":
        p = ndtr(z)
    else:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    return float(p) if p.ndim == 0 else p


def _check_mixture(alternative: str, effect: float, sidedness: str):
    """The checks of the anomalous component that both generators share."""
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    if not math.isfinite(effect):
        raise ValueError(f"effect must be finite, got {effect!r}")
    if alternative == "scale" and effect <= 0.0:
        raise ValueError("scale-shift effect must be positive")
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")


def _mixture(base, is_alt, alternative: str, effect: float):
    """``base`` shifted (mean) or scaled (scale) by ``effect`` at is_alt."""
    if alternative == "mean":
        return base + effect * is_alt
    return base * np.where(is_alt, effect, 1.0)


@dataclass
class GeneratorConfig:
    length: int = 20000
    pi1: float = 0.01
    alternative: str = "mean"
    effect: float = 3.0
    sidedness: str = "two"
    seed: int = 0
    ma_lag: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError(f"pi1 must lie in [0, 1], got {self.pi1!r}")
        _check_mixture(self.alternative, self.effect, self.sidedness)
        if self.ma_lag < 0:
            raise ValueError("ma_lag must be nonnegative")


@dataclass
class Stream:
    """A generated stream: scores, p-values and ground-truth null labels."""

    z: np.ndarray
    p: np.ndarray
    is_null: np.ndarray

    def __len__(self):
        return int(self.p.size)

    @property
    def n_alternatives(self) -> int:
        return int((~self.is_null).sum())


def _ma_background(rng, length: int, lag: int) -> np.ndarray:
    eps = rng.standard_normal(length + lag)
    if lag == 0:
        return eps
    kernel = np.ones(lag + 1) / math.sqrt(lag + 1)
    return np.convolve(eps, kernel, mode="valid")


def generate_stream(config: GeneratorConfig) -> Stream:
    """Labeled mixture stream; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    is_alt = rng.random(config.length) < config.pi1
    base = _ma_background(rng, config.length, config.ma_lag)
    z = _mixture(base, is_alt, config.alternative, config.effect)
    return Stream(z=z, p=to_pvalue(z, config.sidedness), is_null=~is_alt)


@dataclass
class BurstConfig:
    """Two anomaly bursts separated by a long quiet gap.

    The shape behind the alpha-death comparisons: without memory decay a
    rule that spends its budget on the first burst cannot recover in time
    for the second.  Anomalies arrive at a regular cadence inside each
    burst (burst_length // burst_anomalies steps apart); only the
    observation noise varies with the seed.
    """

    burst_length: int = 1000
    burst_anomalies: int = 50
    gap: int = 10000
    effect: float = 3.0
    alternative: str = "mean"
    sidedness: str = "two"
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burst_anomalies <= self.burst_length:
            raise ValueError("burst_anomalies must fit inside the burst")
        if self.gap < 0:
            raise ValueError("gap must be nonnegative")
        _check_mixture(self.alternative, self.effect, self.sidedness)

    @property
    def length(self) -> int:
        return 2 * self.burst_length + self.gap

    def windows(self) -> dict:
        b, g = self.burst_length, self.gap
        return {"burst1": (0, b), "gap": (b, b + g),
                "burst2": (b + g, 2 * b + g)}


def generate_burst_stream(config: BurstConfig) -> Stream:
    rng = np.random.default_rng(config.seed)
    n = config.length
    is_alt = np.zeros(n, dtype=bool)
    if config.burst_anomalies:
        step = config.burst_length // config.burst_anomalies
        positions = np.arange(0, config.burst_length, step)[:config.burst_anomalies]
        is_alt[positions] = True
        is_alt[config.burst_length + config.gap + positions] = True
    z = _mixture(rng.standard_normal(n), is_alt, config.alternative,
                 config.effect)
    return Stream(z=z, p=to_pvalue(z, config.sidedness), is_null=~is_alt)


def method_config(method: str, alpha: float = ControllerConfig.alpha,
                  delta: Optional[float] = ControllerConfig.delta,
                  eta: float = ControllerConfig.eta,
                  lag: int = ControllerConfig.lag,
                  **overrides) -> ControllerConfig:
    """ControllerConfig with sweep-level knobs and per-rule defaults.

    ``delta`` is only forwarded to decay rules and ``lag`` only to the
    dependency-aware ones, so building undecayed baselines stays silent.
    """
    spec = controllers.rule_spec(method)
    if spec.decays:
        overrides["delta"] = delta
    if spec.lagged:
        overrides["lag"] = lag
    return ControllerConfig(rule=method, alpha=alpha, eta=eta, **overrides)


@dataclass
class SweepConfig:
    methods: Sequence[str] = ("lord", "saffron", "addis", "lord-decay",
                              "saffron-decay")
    pi1_grid: Sequence[float] = (1e-4, 1e-3, 1e-2, 1e-1, 0.5, 0.9)
    length: int = 20000
    reps: int = 20
    alpha: float = 0.1
    delta: float = 0.99
    eta: float = 1.0
    lag: int = 0
    alternative: str = "mean"
    effect: float = 3.0
    sidedness: str = "two"
    ma_lag: int = 0
    seed_base: int = 0
    workers: int = 1

    def __post_init__(self):
        self.methods = tuple(self.methods)
        self.pi1_grid = tuple(float(x) for x in self.pi1_grid)
        for name in ("methods", "pi1_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for m in self.methods:
            if m not in controllers.RULES:
                raise ValueError(f"unknown method {m!r}")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        # checked here, so that a bad setting fails before any cell runs
        for pi1 in self.pi1_grid:
            self.stream_config(pi1, self.seed_base)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        self.method_configs()   # and each rule's own checks

    def stream_config(self, pi1: float, seed: int) -> GeneratorConfig:
        """The stream of the cell at ``pi1`` drawn with ``seed``."""
        return GeneratorConfig(
            length=self.length, pi1=pi1, alternative=self.alternative,
            effect=self.effect, sidedness=self.sidedness, seed=seed,
            ma_lag=self.ma_lag)

    def method_configs(self) -> list:
        """The ControllerConfig of each method, in order."""
        return [method_config(method, alpha=self.alpha, delta=self.delta,
                              eta=self.eta, lag=self.lag)
                for method in self.methods]


@dataclass
class SweepResult:
    raw: list
    aggregate: list
    errors: list = field(default_factory=list)


_RAW_COLUMNS = ("method", "alpha_target", "delta", "eta", "pi1", "seed", "T",
                "R", "V", "fdp", "fdp_delta", "sfdp_delta", "power",
                "precision", "min_surplus")


def _sweep_cell(cfg: SweepConfig, pi1: float, rep: int) -> list:
    seed = cfg.seed_base + rep
    stream = generate_stream(cfg.stream_config(pi1, seed))
    rows = []
    for method, config in zip(cfg.methods, cfg.method_configs()):
        row = _summarize(config, stream, cfg.delta, cfg.eta)
        row.update({"method": method, "pi1": pi1, "seed": seed})
        rows.append(row)
    return rows


def _summarize(config: ControllerConfig, stream: Stream, delta: float,
               eta: float) -> dict:
    """Metrics row of one rule run over a labeled stream."""
    log = metrics.run_log(controllers.make_controller(config), stream.p,
                          is_null=stream.is_null)
    return metrics.summarize_log(log, config, delta=delta, eta=eta)


def _sweep_task(args):
    # failures are reported per cell, never silently dropped
    cfg, pi1, rep = args
    try:
        return _sweep_cell(cfg, pi1, rep)
    except Exception as exc:
        return [{"error": f"{type(exc).__name__}: {exc}",
                 "pi1": pi1, "seed": cfg.seed_base + rep}]


_AGG_METRICS = ("fdp", "fdp_delta", "sfdp_delta", "power", "precision")
_AGG_COLUMNS = (("method", "pi1", "alpha_target", "delta", "eta", "reps")
                + tuple(f"{m}_{s}" for m in _AGG_METRICS for s in ("mean", "se"))
                + ("r_mean", "v_mean", "mfdr"))


def _mean_se(rows: list, names) -> dict:
    """``<name>_mean`` and ``<name>_se`` (standard error) over rows, per name."""
    out = {}
    for name in names:
        arr = np.asarray([r[name] for r in rows], dtype=np.float64)
        out[f"{name}_mean"] = float(arr.mean())
        out[f"{name}_se"] = (float(arr.std(ddof=1) / math.sqrt(arr.size))
                             if arr.size > 1 else 0.0)
    return out


def _group(rows: list, *keys) -> dict:
    """Rows grouped by their values under ``keys``, in first-seen order."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    return groups


#: thread-count variables set to 1 in the environment of pool workers
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _map_cells(task, tasks: list, workers: int) -> list:
    """``task`` over ``tasks``, in order; in a process pool when workers > 1.

    The cells are the unit of parallel work, so each worker runs BLAS on one
    thread: the workers are spawned, not forked, so that numpy loads afresh
    in each of them under the thread variables set here (a script that
    sweeps with workers > 1 thus needs an ``if __name__ == "__main__":``
    guard).  The parent's environment is restored afterwards.
    """
    if workers <= 1:
        return [task(t) for t in tasks]
    import multiprocessing  # only a pool needs these
    from concurrent.futures import ProcessPoolExecutor
    saved = {name: os.environ.get(name) for name in _ONE_THREAD}
    os.environ.update(dict.fromkeys(_ONE_THREAD, "1"))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(task, tasks, chunksize=1))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def aggregate_rows(raw: list, eta: float) -> list:
    """Mean and standard error per (method, pi1) cell, in first-seen order."""
    out = []
    for (method, pi1), rows in _group(raw, "method", "pi1").items():
        agg = {"method": method, "pi1": pi1,
               "alpha_target": rows[0]["alpha_target"],
               "delta": rows[0]["delta"], "eta": rows[0]["eta"],
               "reps": len(rows)}
        agg.update(_mean_se(rows, _AGG_METRICS))
        agg["r_mean"] = float(np.mean([r["R"] for r in rows]))
        agg["v_mean"] = float(np.mean([r["V"] for r in rows]))
        agg["mfdr"] = metrics.mfdr_estimate(
            [(r["v_delta"], r["r_delta"]) for r in rows], eta=eta)
        out.append(agg)
    return out


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """One metrics row per (pi1, method, replication) plus aggregate rows.

    Cells that raise are collected in ``result.errors`` with their grid
    coordinates; surviving cells are aggregated normally.
    """
    tasks = [(cfg, pi1, rep) for pi1 in cfg.pi1_grid for rep in range(cfg.reps)]
    cells = _map_cells(_sweep_task, tasks, cfg.workers)
    raw, errors = [], []
    for cell in cells:
        for row in cell:
            (errors if "error" in row else raw).append(row)
    return SweepResult(raw=raw, aggregate=aggregate_rows(raw, cfg.eta),
                       errors=errors)


@dataclass
class FrontierConfig:
    """Precision-recall frontier study on the burst scenario."""

    burst: BurstConfig = field(default_factory=BurstConfig)
    method: str = "lord-decay"
    alpha_grid: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
    threshold_grid: Sequence[float] = tuple(
        float(x) for x in np.geomspace(3e-5, 0.5, 28))
    delta: float = 0.99
    eta: float = 1.0
    reps: int = 20
    workers: int = 1

    def __post_init__(self):
        self.alpha_grid = tuple(float(a) for a in self.alpha_grid)
        self.threshold_grid = tuple(float(c) for c in self.threshold_grid)
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        self.configs()   # a bad rule setting fails before any stream is drawn

    def configs(self) -> list:
        """The decay rule at each alpha, then the fixed thresholds."""
        return ([method_config(self.method, alpha=alpha, delta=self.delta,
                               eta=self.eta) for alpha in self.alpha_grid]
                + [ControllerConfig(rule="fixed", alpha=c)
                   for c in self.threshold_grid])


def _frontier_task(args):
    cfg, rep = args
    stream = generate_burst_stream(replace(cfg.burst, seed=cfg.burst.seed + rep))
    rows = []
    for config in cfg.configs():
        row = _summarize(config, stream, cfg.delta, cfg.eta)
        rows.append({"kind": config.rule, "param": config.alpha, "seed": rep,
                     "fdp": row["fdp"], "power": row["power"]})
    return rows


def fixed_threshold_frontier(cfg: FrontierConfig) -> SweepResult:
    """Trace (realized FDP, power) for the decay rule and a threshold sweep."""
    cells = _map_cells(_frontier_task, [(cfg, rep) for rep in range(cfg.reps)],
                       cfg.workers)
    raw = [row for cell in cells for row in cell]
    agg = []
    for (kind, param), rows in _group(raw, "kind", "param").items():
        agg.append({"kind": kind, "param": param, "reps": len(rows),
                    **_mean_se(rows, ("fdp", "power"))})
    return SweepResult(raw=raw, aggregate=agg)
