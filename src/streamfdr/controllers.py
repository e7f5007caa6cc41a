"""Sequential decision rules for online false discovery rate control.

Each controller is a one-owner state machine: feed it one p-value per step
and it returns the decision threshold alpha_t, the rejection indicator
R_t = 1{p_t <= alpha_t}, and the rule's running oracle estimate of the
false discovery proportion.  Keeping that oracle at or below the target
alpha is what certifies FDR control, so it is tracked incrementally and can
be re-verified from the decision log (see ``metrics.verify_oracle_and_surplus``).

Rule families
-------------
LORD family  (spending indexed by time since each rejection):
    lord               classic rule, w0 * (g_t - g_{t-r1}) + alpha * sum_j g_{t-rj}
    lord-decay-ramdas  same shape with each rejection term discounted by
                       delta**(t-rj); the thresholds still vanish between
                       rejections
    lord-decay         alpha*eta*gtilde_t + alpha * sum_j delta**(t-rj) g_{t-rj};
                       the gtilde floor keeps thresholds >= alpha*eta*(1-delta)
    lord-dep-decay     lord-decay with rejection credit delayed by the
                       dependency lag L: gamma index t-rj-L
    lord-decay-w0      w0*gtilde_t + (alpha-w0) * sum_j delta**(t-rj) g_{t-rj};
                       certifies the unsmoothed discounted FDR (denominator
                       max(R_delta, 1)); floor w0*(1-delta)
    lord-dep-decay-w0  lagged variant of lord-decay-w0

ADDIS family (spending indexed by candidate counts; SAFFRON is tau = 1):
    saffron, addis            (tau-lam)*(w0*(g_{S0}-g_{S1}) + alpha*sum_j g_{Sj}) ^ lam
    saffron-decay, addis-decay  alpha*(tau-lam)*(eta*gtilde_{S0} +
                                sum_j delta**(t-rj) g_{Sj}) ^ lam
    addis-decay-w0            (tau-lam)*(w0*gtilde_{S0} +
                              (alpha-w0)*sum_j delta**(t-rj) g_{Sj}) ^ lam

fixed: a constant threshold, the classical baseline.

Decay kernel
------------
With delta < 1 the LORD rules (all but ``lord``) credit each rejection with
one fixed kernel: a rejection at r adds h(t - r) to every later threshold,
h(u) = coef * delta**u * gamma_{u-L}, for u = 1..W, where delta**W is the
first power below ``prune_epsilon``.  Those controllers keep the kernel's
sum for the next steps in a future-contribution buffer, so a step reads
one cell, and ``run_array`` scans whole chunks up to the next rejection.  The
undecayed rules and the ADDIS family take a dot product over the live
rejection terms instead.

State is prunable (dropping a rejection term only lowers thresholds, so
memory stays bounded on infinite streams), serializable to a versioned
plain-text snapshot for resumable streams, and cheap to clone for replay
experiments.
"""

from __future__ import annotations

import copy
import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .gamma import (DEFAULT_HORIZON, DecayedGammaSequence, GammaSequence,
                    decayed_gamma, lord_gamma, power_gamma)

RULES = (
    "lord",
    "lord-decay-ramdas",
    "lord-decay",
    "saffron",
    "addis",
    "saffron-decay",
    "addis-decay",
    "lord-dep-decay",
    "lord-decay-w0",
    "addis-decay-w0",
    "lord-dep-decay-w0",
    "fixed",
)

#: rules carrying an oracle FDP estimate (everything except the fixed baseline)
ORACLE_RULES = tuple(r for r in RULES if r != "fixed")

LORD_FAMILY = frozenset({
    "lord", "lord-decay-ramdas", "lord-decay", "lord-dep-decay",
    "lord-decay-w0", "lord-dep-decay-w0",
})
ADDIS_FAMILY = frozenset({
    "saffron", "addis", "saffron-decay", "addis-decay", "addis-decay-w0",
})
UNDECAYED_RULES = frozenset({"lord", "saffron", "addis"})
DEP_RULES = frozenset({"lord-dep-decay", "lord-dep-decay-w0"})
SAFFRON_RULES = frozenset({"saffron", "saffron-decay"})
#: rules whose oracle denominator is the smoothed R_delta + eta
SMOOTH_ORACLE_RULES = frozenset({
    "lord-decay-ramdas", "lord-decay", "lord-dep-decay",
    "saffron-decay", "addis-decay",
})
#: rules spending w0 before the first rejection
W0_RULES = frozenset({
    "lord", "lord-decay-ramdas", "saffron", "addis",
    "lord-decay-w0", "addis-decay-w0", "lord-dep-decay-w0",
})
#: LORD rules whose thresholds are coordinate-wise non-decreasing in the
#: rejection indicators.  lord-decay-ramdas is excluded: its pre-rejection
#: term w0 * delta**(t - min(rho1, t)) * gamma_t shrinks by delta**(t - rho1)
#: once a first rejection exists, so injecting one can lower later thresholds.
MONOTONE_LORD_RULES = frozenset({
    "lord", "lord-decay", "lord-dep-decay",
    "lord-decay-w0", "lord-dep-decay-w0",
})

SNAPSHOT_FORMAT = "streamfdr-controller-state"
SNAPSHOT_VERSION = 1

#: cells in the decay kernel's future-contribution buffer, which covers the
#: times base+1 .. base+_BLOCK
_BLOCK = 1024
#: powers of delta computed per numpy call when building decay tables
_CHUNK = 1 << 16
#: ``run_array`` steps one row at a time, not scanning, after a rejection
#: that came within this many rows of the previous one
_DENSE = 8


def oracle_denominator_kind(rule: str) -> str:
    """'smooth' for R_delta + eta denominators, 'vee' for max(R_delta, 1)."""
    if rule not in ORACLE_RULES:
        raise ValueError(f"rule {rule!r} has no oracle")
    return "smooth" if rule in SMOOTH_ORACLE_RULES else "vee"


def oracle_numerator_kind(rule: str) -> str:
    """'plain' spends alpha_t itself, 'indicator' spends
    alpha_t * 1{lam < p <= tau} / (tau - lam)."""
    if rule not in ORACLE_RULES:
        raise ValueError(f"rule {rule!r} has no oracle")
    return "indicator" if rule in ADDIS_FAMILY else "plain"


@dataclass(slots=True)
class Decision:
    """Outcome of a single test: threshold, verdict, and oracle snapshot."""

    step: int
    threshold: float
    rejected: bool
    oracle_value: float
    floor_active: bool


def threshold_floor(config: "ControllerConfig") -> float:
    """Analytic pointwise lower bound on the rule's thresholds (0 if none).

    Decay rules with a gtilde floor can never drop below it, no matter how
    long ago the last rejection happened; the undecayed classics decay to 0.
    """
    rule = config.rule
    if rule == "fixed":
        return config.alpha
    if rule in ("lord", "lord-decay-ramdas", "saffron", "addis"):
        return 0.0
    tilde = decayed_gamma(config.gamma, config.delta)
    if rule in ("lord-decay", "lord-dep-decay"):
        return config.alpha * config.eta * tilde.floor
    if rule in ("lord-decay-w0", "lord-dep-decay-w0"):
        return config.w0 * tilde.floor
    span = config.tau - config.lam
    if rule in ("saffron-decay", "addis-decay"):
        return min(config.alpha * config.eta * span * tilde.floor, config.lam)
    return min(span * config.w0 * tilde.floor, config.lam)  # addis-decay-w0


def rescale_factor(config: "ControllerConfig") -> float:
    """Feasibility rescale applied to gtilde (1.0 when none was needed)."""
    if config.rule in UNDECAYED_RULES or config.rule == "fixed":
        return 1.0
    return decayed_gamma(config.gamma, config.delta).rescale


@dataclass
class ControllerConfig:
    """Resolved parameters for one decision rule.

    Unset fields take per-rule defaults: delta=0.99 for decay rules (forced
    to 1 for the undecayed classics), w0=alpha/2, lam=1/2 and tau=1 for
    SAFFRON rules, lam=1/4 and tau=1/2 for ADDIS rules, the log-based gamma
    sequence for the LORD family and the power-law (s=1.6) one for the
    ADDIS family.
    """

    rule: str
    alpha: float = 0.1
    delta: Optional[float] = None
    eta: float = 1.0
    w0: Optional[float] = None
    lam: Optional[float] = None
    tau: Optional[float] = None
    lag: int = 0
    gamma: Optional[GammaSequence] = None
    dependence_correction: bool = False
    prune_epsilon: float = 1e-12
    lag_decay_exponent: bool = False
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(
                f"unknown rule {self.rule!r}; expected one of {', '.join(RULES)}")
        if self.prune_epsilon < 0.0:
            raise ValueError("prune_epsilon must be nonnegative")
        if self.rule == "fixed":
            # alpha doubles as the constant threshold; the closed endpoints
            # are meaningful degenerate baselines (reject nothing/everything)
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError("fixed threshold must lie in [0, 1]")
            self.delta = 1.0 if self.delta is None else self.delta
            return
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

        if self.rule in UNDECAYED_RULES:
            if self.delta is not None and self.delta != 1.0:
                warnings.warn(
                    f"delta={self.delta} is ignored by undecayed rule "
                    f"{self.rule!r}; forcing delta=1")
            self.delta = 1.0
        elif self.delta is None:
            self.delta = 0.99
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")

        if self.w0 is None:
            self.w0 = self.alpha / 2.0
        if self.rule in W0_RULES and not 0.0 < self.w0 < self.alpha:
            raise ValueError("w0 must lie in (0, alpha)")
        if self.rule == "lord-decay-ramdas" and self.w0 > self.alpha * self.eta:
            warnings.warn(
                "lord-decay-ramdas certifies its oracle bound only for "
                "w0 <= alpha*eta; the configured w0 exceeds it")

        if self.rule in ADDIS_FAMILY:
            if (self.lam is not None and self.tau is not None
                    and self.lam >= self.tau):
                raise ValueError(
                    f"tau must exceed lambda (got lambda={self.lam}, "
                    f"tau={self.tau})")
            if self.rule in SAFFRON_RULES:
                if self.tau is not None and self.tau != 1.0:
                    warnings.warn(
                        f"tau={self.tau} is ignored by {self.rule!r}; forcing tau=1")
                self.tau = 1.0
                if self.lam is None:
                    self.lam = 0.5
            else:
                if self.lam is None:
                    self.lam = 0.25
                if self.tau is None:
                    self.tau = 0.5
            if not 0.0 <= self.lam < self.tau <= 1.0:
                raise ValueError(
                    f"tau must exceed lambda with 0 <= lambda < tau <= 1 "
                    f"(got lambda={self.lam}, tau={self.tau})")
        else:
            if self.lam is not None or self.tau is not None:
                warnings.warn(
                    f"lambda/tau are ignored by rule {self.rule!r}")
            self.lam = None
            self.tau = None

        if self.rule in DEP_RULES:
            if self.lag < 0:
                raise ValueError("dependency lag must be nonnegative")
        else:
            if self.lag != 0:
                warnings.warn(f"lag is ignored by rule {self.rule!r}; forcing 0")
            self.lag = 0
            if self.lag_decay_exponent:
                warnings.warn(
                    f"lag_decay_exponent is ignored by rule {self.rule!r}")
                self.lag_decay_exponent = False

        if self.gamma is None:
            if self.rule in ADDIS_FAMILY:
                self.gamma = power_gamma(1.6, self.horizon)
            else:
                self.gamma = lord_gamma(self.horizon)
        else:
            self.horizon = self.gamma.horizon

    def scalar_params(self) -> dict:
        """Scalar parameters only; used for manifests and snapshot checks."""
        return {
            "rule": self.rule,
            "alpha": self.alpha,
            "delta": self.delta,
            "eta": self.eta,
            "w0": self.w0,
            "lam": self.lam,
            "tau": self.tau,
            "lag": self.lag,
            "dependence_correction": self.dependence_correction,
            "prune_epsilon": self.prune_epsilon,
            "lag_decay_exponent": self.lag_decay_exponent,
            "gamma_kind": None if self.gamma is None else self.gamma.kind,
            "gamma_param": None if self.gamma is None else self.gamma.param,
            "horizon": self.horizon,
        }


def _power_runs(value: float, delta: float):
    """value*delta, value*delta**2, ... by repeated multiplication, in chunks.

    ``np.cumprod`` multiplies in order, so every power equals the one a loop
    multiplying by delta once per step would hold.
    """
    size = 4096
    while True:
        run = np.full(size, delta)
        run[0] = value * delta
        run = np.cumprod(run)
        yield run
        value = float(run[-1])
        size = min(2 * size, _CHUNK)


@lru_cache(maxsize=8)
def _decay_table(delta: float, eps: float, cap: int):
    """Decay weights delta**u for u = 0..n, and the age at which to prune.

    The table stops at the first power below ``eps`` (the weight a rejection
    term is last used with before it is pruned), at ``cap``, past which the
    spending sequence is 0, or, when ``eps`` is 0, where the powers have
    underflowed so far that multiplying by delta no longer changes them.
    The kernel stops with the table.  The prune age is None when ``eps`` is
    0, which keeps every rejection.
    """
    pieces, n = [np.ones(1)], 0
    for run in _power_runs(1.0, delta):
        run = run[:cap - n]
        end = np.flatnonzero(run < eps if eps > 0.0 else run * delta == run)
        if end.size:
            run = run[:end[0] + 1]
        pieces.append(run)
        n += run.size
        if end.size or n == cap:
            break
    table = np.concatenate(pieces)
    table.flags.writeable = False
    return table, (n if eps > 0.0 else None)


def _powers_at(table: np.ndarray, delta: float, ages: np.ndarray) -> np.ndarray:
    """delta**age for each age: from the table, or past its end (only when
    nothing is pruned) by carrying on the repeated multiplication."""
    n = table.size - 1
    out = table[np.minimum(ages, n)]
    far = np.flatnonzero(ages > n)
    if far.size and table[n] * delta != table[n]:
        steps = ages[far] - n
        done = 0
        for run in _power_runs(float(table[n]), delta):
            pick = (steps > done) & (steps <= done + run.size)
            out[far[pick]] = run[steps[pick] - done - 1]
            done += run.size
            if done >= steps.max():
                break
    return out


class _BaseController:
    """Shared bookkeeping: step counter, oracle accumulators, buffers."""

    def __init__(self, config: ControllerConfig):
        self.config = config
        self._t = 0
        self._rcount = 0
        self._dspend = 0.0   # discounted oracle numerator
        self._rdelta = 0.0   # discounted rejection count R_delta
        self._q = 0.0        # harmonic divisor q(t), if correction enabled
        self._rho = np.zeros(64, dtype=np.int64)
        self._decay = np.zeros(64, dtype=np.float64)
        self._start = 0
        self._k = 0
        #: per-rejection arrays, kept parallel to the rejection times _rho
        self._columns = ("_rho", "_decay")

    @property
    def t(self) -> int:
        """Number of steps consumed so far."""
        return self._t

    @property
    def rejections(self) -> int:
        return self._rcount

    def rejection_times(self) -> list[int]:
        """Times of the rejections still held in state (pruned ones dropped)."""
        return self._rho[self._live()].tolist()

    def _live(self):
        return slice(self._start, self._start + self._k)

    def _append_rejection(self, t: int) -> int:
        """Record a rejection at t; returns its slot in the per-rejection arrays."""
        if self._start + self._k == self._rho.size:
            live = self._live()
            size = max(64, 2 * self._k)
            for name in self._columns:
                old = getattr(self, name)
                new = np.zeros(size, dtype=old.dtype)
                new[:self._k] = old[live]
                setattr(self, name, new)
            self._start = 0
        i = self._start + self._k
        self._rho[i] = t
        self._k += 1
        return i

    def _check_p(self, p: float) -> float:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value must lie in [0, 1], got {p!r}")
        return p

    def run(self, pvalues) -> list[Decision]:
        """Process a whole sequence, returning one Decision per element."""
        return [self.step(p) for p in pvalues]

    def run_array(self, pvalues):
        """Process a whole sequence into (alpha, rejected, oracle) arrays.

        The result equals, bit for bit, calling ``step`` on each element in
        turn.  Every p-value is checked before any state changes.
        """
        p = np.asarray(pvalues, dtype=np.float64)
        bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"p-value must lie in [0, 1], got {float(p[i])!r} "
                             f"at step {self._t + i + 1}")
        return self._run_array(p)

    def _run_array(self, p: np.ndarray):
        n = p.size
        alpha = np.empty(n, dtype=np.float64)
        rejected = np.empty(n, dtype=bool)
        oracle = np.empty(n, dtype=np.float64)
        step = self.step
        for i, x in enumerate(p.tolist()):
            d = step(x)
            alpha[i] = d.threshold
            rejected[i] = d.rejected
            oracle[i] = d.oracle_value
        return alpha, rejected, oracle

    def clone(self):
        """Independent copy: writable arrays are copied, read-only tables shared."""
        other = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                setattr(other, name, value.copy())
        return other

    # -- snapshots ---------------------------------------------------------

    def _decay_weights(self) -> list[float]:
        return self._decay[self._live()].tolist()

    def _snapshot_common(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "params": self.config.scalar_params(),
            "t": self._t,
            "rejection_count": self._rcount,
            "rejection_times": self.rejection_times(),
            "decay_weights": self._decay_weights(),
            "decayed_spend": self._dspend,
            "decayed_rejections": self._rdelta,
            "harmonic_q": self._q,
        }

    def snapshot(self) -> str:
        """Serialize state to versioned plain text (JSON); exact round trip."""
        return json.dumps(self._snapshot_dict(), sort_keys=True)

    def _restore_common(self, snap: dict):
        if snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not a controller state snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        if snap["params"] != self.config.scalar_params():
            raise ValueError("snapshot was produced under a different configuration")
        times = np.asarray(snap["rejection_times"], dtype=np.int64)
        weights = np.asarray(snap["decay_weights"], dtype=np.float64)
        if times.size != weights.size:
            raise ValueError("corrupt snapshot: mismatched state arrays")
        size = max(64, int(times.size))
        self._rho = np.zeros(size, dtype=np.int64)
        self._rho[:times.size] = times
        if self._decay is not None:
            self._decay = np.zeros(size, dtype=np.float64)
            self._decay[:times.size] = weights
        self._start = 0
        self._k = int(times.size)
        self._t = int(snap["t"])
        self._rcount = int(snap["rejection_count"])
        self._dspend = float(snap["decayed_spend"])
        self._rdelta = float(snap["decayed_rejections"])
        self._q = float(snap["harmonic_q"])


class LordController(_BaseController):
    """LORD and its memory-decay / dependency-lagged / w0 variants.

    With delta < 1 the rejection credit comes from the decay kernel (see the
    module docstring); with delta = 1 from a dot product over the live
    rejection terms.
    """

    def __init__(self, config: ControllerConfig):
        if config.rule not in LORD_FAMILY:
            raise ValueError(f"rule {config.rule!r} is not in the LORD family")
        super().__init__(config)
        self._gamma = config.gamma
        self._rho1: Optional[int] = None
        self._decay1 = 0.0
        rule = config.rule
        self._smooth = rule in SMOOTH_ORACLE_RULES
        self._classic_pre = rule in ("lord", "lord-decay-ramdas")
        if self._classic_pre:
            self._tilde = None
            self._floor = 0.0
            self._rej_coef = config.alpha
        else:
            self._tilde = decayed_gamma(config.gamma, config.delta)
            if rule in ("lord-decay", "lord-dep-decay"):
                self._pre_coef = config.alpha * config.eta
                self._rej_coef = config.alpha
            else:  # the w0-spending variants
                self._pre_coef = config.w0
                self._rej_coef = config.alpha - config.w0
            self._floor = self._pre_coef * self._tilde.floor
        self._lag = config.lag
        self._kernel = None
        if config.delta != 1.0:
            self._init_kernel()

    def _init_kernel(self):
        cfg = self.config
        powers, self._prune_age = _decay_table(
            cfg.delta, cfg.prune_epsilon, cfg.horizon + cfg.lag)
        kernel = powers * self._gamma.weights(np.arange(powers.size) - cfg.lag)
        if cfg.lag_decay_exponent and cfg.lag:
            # main-text dependency form: the decay exponent is lagged as well
            kernel *= cfg.delta ** (-cfg.lag)
        kernel *= self._rej_coef
        kernel.flags.writeable = False
        self._powers = powers   # delta**u, u = 0..n
        self._kernel = kernel   # credit of one rejection u = 0..n steps later
        self._buf = np.zeros(_BLOCK, dtype=np.float64)
        self._base = 0
        self._decay = None
        self._columns = ("_rho",)

    def _pre(self, t: int) -> float:
        """The part of alpha_t that is not rejection credit."""
        if self._classic_pre:
            gt = self._gamma.weight(t)
            if self._rho1 is None:
                return self.config.w0 * gt
            d1 = self._decay1
            g1 = self._gamma.weight(t - self._rho1)
            return self.config.w0 * (d1 * gt - d1 * g1)
        return self._pre_coef * self._tilde.weight(t)

    def _pre_many(self, times: np.ndarray, d1) -> np.ndarray:
        """``_pre`` for consecutive times, d1 holding the first rejection's
        decay weight at each of them."""
        if self._classic_pre:
            gt = self._gamma.weights(times)
            if self._rho1 is None:
                return self.config.w0 * gt
            g1 = self._gamma.weights(times - self._rho1)
            return self.config.w0 * (d1 * gt - d1 * g1)
        return self._pre_coef * self._tilde.weights(times)

    def _threshold(self, t: int) -> float:
        """alpha_t of the undecayed form (delta = 1), before correction and clip."""
        if self._k:
            live = self._live()
            idx = t - self._rho[live]
            if self._lag:
                idx = idx - self._lag
            s = float(np.dot(self._decay[live], self._gamma.weights(idx)))
        else:
            s = 0.0
        return self._pre(t) + self._rej_coef * s

    def step(self, p) -> Decision:
        p = self._check_p(p)
        cfg = self.config
        delta = cfg.delta
        t = self._t + 1
        if self._kernel is None:
            threshold = self._threshold(t)
        else:
            if self._rho1 is not None:
                self._decay1 *= delta
            threshold = self._pre(t) + float(self._buf[t - self._base - 1])
        floor = self._floor
        if cfg.dependence_correction:
            self._q += 1.0 / t
            threshold /= self._q
            floor /= self._q
        if threshold > 1.0:
            threshold = 1.0
        rejected = p <= threshold

        self._dspend = delta * self._dspend + threshold
        self._rdelta = delta * self._rdelta + (1.0 if rejected else 0.0)
        if self._smooth:
            oracle = self._dspend / (self._rdelta + cfg.eta)
        else:
            oracle = self._dspend / max(self._rdelta, 1.0)

        self._t = t
        if rejected:
            self._rcount += 1
            self._record_rejection(t)
        if self._kernel is None:
            self._prune_undecayed(t)
        elif t == self._base + _BLOCK:
            self._refill(t)
        return Decision(t, threshold, rejected, oracle, threshold <= floor)

    def _record_rejection(self, t: int):
        i = self._append_rejection(t)
        if self._kernel is None:
            self._decay[i] = 1.0
        else:
            self._add_kernel(t)
        if self._rho1 is None:
            self._rho1 = t
            self._decay1 = 1.0

    def _prune_undecayed(self, t: int):
        eps = self.config.prune_epsilon
        # lagged terms start contributing only once t - rho > lag, so never
        # drop an entry whose gamma index has not turned positive
        while eps > 0.0 and self._k:
            idx = t - int(self._rho[self._start]) - self._lag
            if idx >= 1 and self._gamma.weight(idx) < eps:
                self._start += 1
                self._k -= 1
            else:
                break

    # -- decay kernel --------------------------------------------------------

    def _add_kernel(self, r: int):
        """Add the credit of a rejection at r to the buffer cells after r."""
        base = self._base
        lo = max(base, r)
        hi = min(base + _BLOCK, r + self._kernel.size - 1)
        if lo < hi:
            self._buf[lo - base:hi - base] += self._kernel[lo + 1 - r:hi + 1 - r]

    def _prune(self, now: int):
        """Drop the rejections whose kernel ended by ``now``."""
        if self._prune_age is not None and self._k:
            live = self._rho[self._live()]
            drop = int(np.searchsorted(live, now - self._prune_age, side="right"))
            self._start += drop
            self._k -= drop

    def _refill(self, base: int):
        """Move the buffer to times base+1 .. base+_BLOCK and add the live
        rejections' credit to it, oldest first.

        Each cell thus sums its credits in rejection order, whether they
        arrived here or as the rejections happened, so stepping, ``run_array``
        and restoring from a snapshot give the same bits.
        """
        self._prune(base)
        self._base = base
        self._buf.fill(0.0)
        live = self._rho[self._live()]
        first = int(np.searchsorted(live, base + 1 - (self._kernel.size - 1)))
        for r in live[first:].tolist():
            self._add_kernel(r)

    def _run_array(self, p: np.ndarray):
        if self._kernel is None:
            return super()._run_array(p)
        cfg = self.config
        delta = cfg.delta
        n = p.size
        alpha = np.empty(n, dtype=np.float64)
        rejected = np.zeros(n, dtype=bool)
        oracle = np.empty(n, dtype=np.float64)
        i = done = 0       # rows [done, i) still need their oracle
        quiet = _DENSE     # steps since the last rejection, up to _DENSE
        while i < n:
            if quiet < _DENSE:
                # rejections come close together: stepping costs less than
                # a scan that stops after a few rows
                if done < i:
                    oracle[done:i] = self._oracle_many(alpha[done:i],
                                                       rejected[done:i])
                d = self.step(p[i])
                alpha[i], rejected[i], oracle[i] = (d.threshold, d.rejected,
                                                    d.oracle_value)
                quiet = 0 if d.rejected else quiet + 1
                i = done = i + 1
                continue
            # scan to the end of the buffer's block or to the next rejection
            t0 = self._t
            cell = t0 - self._base
            m = min(n - i, _BLOCK - cell)
            times = np.arange(t0 + 1, t0 + m + 1)
            d1 = None
            if self._rho1 is not None:
                d1 = np.full(m, delta)
                d1[0] = self._decay1 * delta
                d1 = np.cumprod(d1)
            thr = self._pre_many(times, d1) + self._buf[cell:cell + m]
            if cfg.dependence_correction:
                q = 1.0 / times
                q[0] += self._q
                q = np.cumsum(q)
                thr /= q
            np.minimum(thr, 1.0, out=thr)
            hits = np.flatnonzero(p[i:i + m] <= thr)
            if hits.size:
                m = int(hits[0]) + 1
            alpha[i:i + m] = thr[:m]
            if cfg.dependence_correction:
                self._q = float(q[m - 1])
            if d1 is not None:
                self._decay1 = float(d1[m - 1])
            self._t = t = t0 + m
            i += m
            if hits.size:
                rejected[i - 1] = True
                self._rcount += 1
                self._record_rejection(t)
                quiet = 0 if m <= _DENSE else _DENSE
            if t == self._base + _BLOCK:
                self._refill(t)
        oracle[done:] = self._oracle_many(alpha[done:], rejected[done:])
        return alpha, rejected, oracle

    def _oracle_many(self, spend: np.ndarray, rejected: np.ndarray) -> np.ndarray:
        """Oracle after each of a run of steps; advances the accumulators."""
        cfg = self.config
        delta = cfg.delta
        if not spend.size:
            return np.empty(0, dtype=np.float64)
        dspend, _ = lfilter([1.0], [1.0, -delta], spend,
                            zi=[delta * self._dspend])
        rdelta, _ = lfilter([1.0], [1.0, -delta], rejected.astype(np.float64),
                            zi=[delta * self._rdelta])
        self._dspend = float(dspend[-1])
        self._rdelta = float(rdelta[-1])
        if self._smooth:
            return dspend / (rdelta + cfg.eta)
        return dspend / np.maximum(rdelta, 1.0)

    # -- snapshots -----------------------------------------------------------

    def rejection_times(self) -> list[int]:
        if self._kernel is not None:
            self._prune(self._t)
        return self._rho[self._live()].tolist()

    def _decay_weights(self) -> list[float]:
        if self._kernel is None:
            return super()._decay_weights()
        self._prune(self._t)
        ages = self._t - self._rho[self._live()]
        return _powers_at(self._powers, self.config.delta, ages).tolist()

    def _snapshot_dict(self) -> dict:
        snap = self._snapshot_common()
        snap["first_rejection_time"] = self._rho1
        snap["first_decay_weight"] = self._decay1
        return snap

    @classmethod
    def restore(cls, config: ControllerConfig, text: str) -> "LordController":
        ctrl = cls(config)
        snap = json.loads(text)
        ctrl._restore_common(snap)
        rho1 = snap.get("first_rejection_time")
        ctrl._rho1 = None if rho1 is None else int(rho1)
        ctrl._decay1 = float(snap.get("first_decay_weight", 0.0))
        if ctrl._kernel is not None:
            ctrl._refill(ctrl._t)
        return ctrl


class AddisController(_BaseController):
    """SAFFRON/ADDIS and their memory-decay variants.

    Candidate counters S_j(t) = 1{t > rho_j} + #{rho_j < i < t : lam < p_i <= tau}
    are maintained incrementally: every active counter goes up by one on a
    step whose p-value lands in (lam, tau], and a fresh counter starts at 1
    on the step after each rejection (S_0 exists from the start).
    """

    def __init__(self, config: ControllerConfig):
        if config.rule not in ADDIS_FAMILY:
            raise ValueError(f"rule {config.rule!r} is not in the ADDIS family")
        super().__init__(config)
        self._gamma = config.gamma
        self._scount = np.zeros(64, dtype=np.int64)
        self._columns = ("_rho", "_decay", "_scount")
        self._s0 = 1
        self._s1 = 0
        rule = config.rule
        self._smooth = rule in SMOOTH_ORACLE_RULES
        self._variant = ("plain" if rule in ("saffron", "addis")
                         else "smooth" if self._smooth else "w0")
        span = config.tau - config.lam
        if self._variant == "plain":
            self._tilde = None
            self._floor = 0.0
        else:
            self._tilde = decayed_gamma(config.gamma, config.delta)
            if self._variant == "smooth":
                base = config.alpha * config.eta * span * self._tilde.floor
            else:
                base = span * config.w0 * self._tilde.floor
            self._floor = min(base, config.lam)

    def _threshold(self, t: int) -> float:
        cfg = self.config
        span = cfg.tau - cfg.lam
        if self._k:
            live = self._live()
            s = float(np.dot(self._decay[live],
                             self._gamma.weights(self._scount[live])))
        else:
            s = 0.0
        if self._variant == "plain":
            raw = span * (cfg.w0 * (self._gamma.weight(self._s0)
                                    - self._gamma.weight(self._s1))
                          + cfg.alpha * s)
        elif self._variant == "smooth":
            raw = cfg.alpha * span * (cfg.eta * self._tilde.weight(self._s0) + s)
        else:
            raw = span * (cfg.w0 * self._tilde.weight(self._s0)
                          + (cfg.alpha - cfg.w0) * s)
        return min(raw, cfg.lam)

    def step(self, p) -> Decision:
        p = self._check_p(p)
        cfg = self.config
        delta = cfg.delta
        t = self._t + 1
        if delta != 1.0 and self._k:
            self._decay[self._live()] *= delta
        threshold = self._threshold(t)
        floor = self._floor
        if cfg.dependence_correction:
            self._q += 1.0 / t
            threshold /= self._q
            floor /= self._q
        if threshold > 1.0:
            threshold = 1.0
        rejected = p <= threshold
        candidate = cfg.lam < p <= cfg.tau

        spend = threshold / (cfg.tau - cfg.lam) if candidate else 0.0
        self._dspend = delta * self._dspend + spend
        self._rdelta = delta * self._rdelta + (1.0 if rejected else 0.0)
        if rejected:
            self._rcount += 1
        if self._smooth:
            oracle = self._dspend / (self._rdelta + cfg.eta)
        else:
            oracle = self._dspend / max(self._rdelta, 1.0)

        if candidate:
            self._s0 += 1
            if self._s1:
                self._s1 += 1
            if self._k:
                self._scount[self._live()] += 1
        if rejected:
            i = self._append_rejection(t)
            self._decay[i] = 1.0
            self._scount[i] = 1
            if self._s1 == 0:
                self._s1 = 1
        eps = cfg.prune_epsilon
        if eps > 0.0 and self._k:
            if delta != 1.0:
                while self._k and self._decay[self._start] < eps:
                    self._start += 1
                    self._k -= 1
            else:
                while self._k and self._gamma.weight(
                        int(self._scount[self._start])) < eps:
                    self._start += 1
                    self._k -= 1
        self._t = t
        return Decision(t, threshold, rejected, oracle, threshold <= floor)

    def _snapshot_dict(self) -> dict:
        snap = self._snapshot_common()
        snap["candidate_counters"] = self._scount[self._live()].tolist()
        snap["s0"] = self._s0
        snap["s1"] = self._s1
        return snap

    @classmethod
    def restore(cls, config: ControllerConfig, text: str) -> "AddisController":
        ctrl = cls(config)
        snap = json.loads(text)
        ctrl._restore_common(snap)
        counters = np.asarray(snap["candidate_counters"], dtype=np.int64)
        if counters.size != ctrl._k:
            raise ValueError("corrupt snapshot: mismatched state arrays")
        ctrl._scount = np.zeros(ctrl._rho.size, dtype=np.int64)
        ctrl._scount[:counters.size] = counters
        ctrl._s0 = int(snap["s0"])
        ctrl._s1 = int(snap["s1"])
        return ctrl


class FixedThresholdController(_BaseController):
    """Constant-threshold baseline; alpha doubles as the threshold c."""

    def __init__(self, config: ControllerConfig):
        if config.rule != "fixed":
            raise ValueError("FixedThresholdController requires rule='fixed'")
        super().__init__(config)

    def step(self, p) -> Decision:
        p = self._check_p(p)
        t = self._t + 1
        threshold = self.config.alpha
        rejected = p <= threshold
        if rejected:
            self._rcount += 1
        self._rdelta = self.config.delta * self._rdelta + (1.0 if rejected else 0.0)
        self._t = t
        return Decision(t, threshold, rejected, float("nan"), False)

    def _snapshot_dict(self) -> dict:
        return self._snapshot_common()

    @classmethod
    def restore(cls, config: ControllerConfig, text: str) -> "FixedThresholdController":
        ctrl = cls(config)
        ctrl._restore_common(json.loads(text))
        return ctrl


def make_controller(config: ControllerConfig):
    """Instantiate the controller class matching ``config.rule``."""
    if config.rule in LORD_FAMILY:
        return LordController(config)
    if config.rule in ADDIS_FAMILY:
        return AddisController(config)
    return FixedThresholdController(config)


def restore_controller(config: ControllerConfig, text: str):
    """Rebuild a controller from a snapshot produced under ``config``."""
    if config.rule in LORD_FAMILY:
        return LordController.restore(config, text)
    if config.rule in ADDIS_FAMILY:
        return AddisController.restore(config, text)
    return FixedThresholdController.restore(config, text)
