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

``RULE_SPECS`` holds the properties of every rule; everything else reads
them from there.

Decay kernel
------------
Every LORD rule credits each rejection with one fixed kernel: a rejection
at r adds h(u) = coef * delta**u * gamma_{u-L} to the threshold u = t - r
steps later, for u = 1..W.  With delta < 1, delta**W is the first power
below ``prune_epsilon`` in a table of powers; with delta = 1 (``lord``, or
any LORD rule run undecayed) W is the first u > L with gamma_{u-L} below
it.  In the classic form the first rejection's coef is alpha - w0, which
holds the -w0 * g_{t-r1} half of its pre-rejection term, and that term's
factor delta**(t-r1) is read from the table of powers, 0 past its end: so
the first rejection's whole credit ends at age W.  The controller keeps
the kernel's sum for the next steps in a future-contribution buffer, and
beside it a head table of the same block: the pre-rejection term
pre_coef * delta**(t-r1) * head_t (the factor is 1 outside the classic
form), rebuilt at each refill, at a restore and when the classic form's
first rejection arrives.  A step reads one buffer cell and one head-table
cell, and ``run_array`` slices both to scan whole chunks up to the next
rejection.  The ADDIS family records the candidate count S_0 at each
rejection and takes a dot product over the live rejection terms.

State is prunable (dropping a rejection term only lowers thresholds, so
memory stays bounded on infinite streams) and serializable to a versioned
plain-text snapshot for resumable streams.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from .gamma import (DEFAULT_HORIZON, GammaSequence, decayed_gamma,
                    discounted_sums, lord_gamma, power_gamma)


@dataclass(frozen=True)
class RuleSpec:
    """What tells one decision rule apart from the others.

    ``pre`` is the spending beside the rejection credit, which fixes the pre
    and rejection coefficients (``_coefficients``): "classic"
    w0 * (g_t - g_{t-rho1}), "eta" alpha*eta*gtilde_t or "w0" w0*gtilde_t.
    """

    family: str                        # "lord", "addis" or "fixed"
    pre: Optional[str] = None          # "classic", "eta" or "w0"
    denominator: Optional[str] = None  # oracle: "smooth" R_delta + eta,
    #                                    or "vee" max(R_delta, 1)
    undecayed: bool = False            # delta is forced to 1
    lagged: bool = False               # credit delayed by the dependency lag
    saffron: bool = False              # tau is forced to 1
    monotone: bool = False             # see MONOTONE_LORD_RULES

    @property
    def numerator(self) -> str:
        """'plain' spends alpha_t itself, 'indicator' spends
        alpha_t * 1{lam < p <= tau} / (tau - lam)."""
        return "indicator" if self.family == "addis" else "plain"

    @property
    def uses_w0(self) -> bool:
        return self.pre in ("classic", "w0")

    @property
    def decays(self) -> bool:
        """Whether delta is a parameter of the thresholds."""
        return self.family != "fixed" and not self.undecayed

    @property
    def lam_tau(self) -> tuple:
        """Default (lambda, tau) of the ADDIS family."""
        return (0.5, 1.0) if self.saffron else (0.25, 0.5)

    def default_gamma(self, horizon: int) -> GammaSequence:
        if self.family == "addis":
            return power_gamma(1.6, horizon)
        return lord_gamma(horizon)

    @property
    def controller(self):
        return _CONTROLLERS[self.family]


#: the one source of rule properties, in the order rules are listed
RULE_SPECS = {
    "lord": RuleSpec("lord", "classic", "vee", undecayed=True, monotone=True),
    "lord-decay-ramdas": RuleSpec("lord", "classic", "smooth"),
    "lord-decay": RuleSpec("lord", "eta", "smooth", monotone=True),
    "saffron": RuleSpec("addis", "classic", "vee", undecayed=True,
                        saffron=True),
    "addis": RuleSpec("addis", "classic", "vee", undecayed=True),
    "saffron-decay": RuleSpec("addis", "eta", "smooth", saffron=True),
    "addis-decay": RuleSpec("addis", "eta", "smooth"),
    "lord-dep-decay": RuleSpec("lord", "eta", "smooth", lagged=True,
                               monotone=True),
    "lord-decay-w0": RuleSpec("lord", "w0", "vee", monotone=True),
    "addis-decay-w0": RuleSpec("addis", "w0", "vee"),
    "lord-dep-decay-w0": RuleSpec("lord", "w0", "vee", lagged=True,
                                  monotone=True),
    "fixed": RuleSpec("fixed"),
}

RULES = tuple(RULE_SPECS)
#: rules carrying an oracle FDP estimate (everything except the fixed baseline)
ORACLE_RULES = tuple(r for r, s in RULE_SPECS.items() if s.family != "fixed")
LORD_FAMILY = frozenset(r for r, s in RULE_SPECS.items() if s.family == "lord")
ADDIS_FAMILY = frozenset(r for r, s in RULE_SPECS.items()
                         if s.family == "addis")
#: LORD rules whose thresholds are coordinate-wise non-decreasing in the
#: rejection indicators.  lord-decay-ramdas is excluded: its pre-rejection
#: term w0 * delta**(t - min(rho1, t)) * gamma_t shrinks by delta**(t - rho1)
#: once a first rejection exists, so injecting one can lower later thresholds.
MONOTONE_LORD_RULES = frozenset(r for r, s in RULE_SPECS.items() if s.monotone)

SNAPSHOT_FORMAT = "streamfdr-controller-state"
SNAPSHOT_VERSION = 1

#: cells in the decay kernel's future-contribution buffer and head table,
#: which cover the times base+1 .. base+_BLOCK
_BLOCK = 1024
#: powers of delta computed per numpy call when building decay tables
_CHUNK = 1 << 16
#: the decay table of the undecayed kernel: every power of 1 is 1
_ONE = np.ones(1)
_ONE.flags.writeable = False
#: ``run_array`` steps one row at a time, not scanning, after a rejection
#: that came within this many rows of the previous one
_DENSE = 8


def rule_spec(rule: str) -> RuleSpec:
    """The table row of ``rule``; ValueError for an unknown rule."""
    spec = RULE_SPECS.get(rule)
    if spec is None:
        raise ValueError(
            f"unknown rule {rule!r}; expected one of {', '.join(RULES)}")
    return spec


@dataclass(slots=True)
class Decision:
    """Outcome of a single test: threshold, verdict, and oracle snapshot."""

    step: int
    threshold: float
    rejected: bool
    oracle_value: float


def _coefficients(config: "ControllerConfig") -> tuple:
    """(pre, rejection) coefficients, fixed by the pre-rejection form."""
    if config.spec.pre == "eta":
        return config.alpha * config.eta, config.alpha
    if config.spec.pre == "w0":
        return config.w0, config.alpha - config.w0
    return config.w0, config.alpha


def threshold_floor(config: "ControllerConfig") -> float:
    """Analytic pointwise lower bound on the rule's thresholds (0 if none).

    Decay rules with a gtilde floor can never drop below it, no matter how
    long ago the last rejection happened; the classic pre-rejection form
    decays to 0.
    """
    spec = config.spec
    if spec.family == "fixed":
        return config.alpha
    if spec.pre == "classic":
        return 0.0
    coef = _coefficients(config)[0]
    if spec.family == "addis":
        coef *= config.tau - config.lam
    floor = coef * decayed_gamma(config.gamma, config.delta).floor
    return min(floor, config.lam) if spec.family == "addis" else floor


def rescale_factor(config: "ControllerConfig") -> float:
    """Feasibility rescale applied to gtilde (1.0 when none was needed)."""
    if not config.spec.decays:
        return 1.0
    return decayed_gamma(config.gamma, config.delta).rescale


@dataclass
class ControllerConfig:
    """Resolved parameters for one decision rule.

    Unset fields take per-rule defaults from ``RULE_SPECS``: delta=0.99 for
    decay rules (forced to 1 for the undecayed classics), w0=alpha/2, lam=1/2
    and tau=1 for SAFFRON rules, lam=1/4 and tau=1/2 for ADDIS rules, the
    log-based gamma sequence for the LORD family and the power-law (s=1.6)
    one for the ADDIS family.
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

    @property
    def spec(self) -> RuleSpec:
        return RULE_SPECS[self.rule]

    def __post_init__(self):
        spec = rule_spec(self.rule)
        if not (math.isfinite(self.prune_epsilon) and self.prune_epsilon >= 0.0):
            raise ValueError("prune_epsilon must be finite and nonnegative")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            # every rule's summary divides by R_delta + eta
            raise ValueError("eta must be finite and positive")
        if self.w0 is not None and not math.isfinite(self.w0):
            # a rule that ignores w0 still records it, and resumes check it
            raise ValueError("w0 must be finite")
        for name, value in (("lambda", self.lam), ("tau", self.tau)):
            # fixed records them as given, and resumes check them
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if spec.family == "fixed":
            # alpha doubles as the constant threshold; the closed endpoints
            # are meaningful degenerate baselines (reject nothing/everything)
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError("fixed threshold must lie in [0, 1]")
            self.delta = 1.0 if self.delta is None else self.delta
            if not 0.0 < self.delta <= 1.0:
                # the summary discounts its counts by delta
                raise ValueError("delta must lie in (0, 1]")
            return
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

        if spec.undecayed:
            if self.delta is not None and self.delta != 1.0:
                warnings.warn(
                    f"delta={self.delta} is ignored by undecayed rule "
                    f"{self.rule!r}; forcing delta=1")
            self.delta = 1.0
        elif self.delta is None:
            self.delta = 0.99
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")

        if self.w0 is None:
            self.w0 = self.alpha / 2.0
        if spec.uses_w0 and not 0.0 < self.w0 < self.alpha:
            raise ValueError("w0 must lie in (0, alpha)")
        if (spec.uses_w0 and spec.denominator == "smooth"
                and self.w0 > self.alpha * self.eta):
            warnings.warn(
                f"{self.rule} certifies its oracle bound only for "
                "w0 <= alpha*eta; the configured w0 exceeds it")

        if spec.family == "addis":
            if (self.lam is not None and self.tau is not None
                    and self.lam >= self.tau):
                raise ValueError(
                    f"tau must exceed lambda (got lambda={self.lam}, "
                    f"tau={self.tau})")
            if spec.saffron and self.tau not in (None, 1.0):
                warnings.warn(
                    f"tau={self.tau} is ignored by {self.rule!r}; forcing tau=1")
            lam, tau = spec.lam_tau
            self.lam = lam if self.lam is None else self.lam
            self.tau = tau if self.tau is None or spec.saffron else self.tau
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

        if spec.lagged:
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
            self.gamma = spec.default_gamma(self.horizon)
        else:
            self.horizon = self.gamma.horizon

    def scalar_params(self) -> dict:
        """Scalar parameters only; used for manifests and snapshot checks."""
        params = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "gamma"}
        params["gamma_kind"] = None if self.gamma is None else self.gamma.kind
        params["gamma_param"] = None if self.gamma is None else self.gamma.param
        return params


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
    """Decay weights delta**u for u = 0..n, and the age at which to prune,
    for delta < 1 (the undecayed kernel needs no table: ``_undecayed_age``).

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


def _undecayed_age(gamma: GammaSequence, eps: float, lag: int):
    """The age at which an undecayed rejection term is pruned: the first
    u > lag with gamma_{u-lag} < ``eps``, or None when ``eps`` is 0.

    gamma is non-increasing, so the weights at or above ``eps`` are a prefix
    of its table.
    """
    if eps == 0.0:
        return None
    return lag + 1 + int(np.count_nonzero(gamma.table >= eps))


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


def _check(ok, problem: str):
    """Raise for a snapshot field that fails a check (see ``restore``)."""
    if not ok:
        raise ValueError(problem)


class _BaseController:
    """Shared bookkeeping, the step loop and snapshots.

    A family supplies ``_raw(t)``, its threshold at step t before the
    dependence correction and the clip at 1, and ``_advance(t, p, rejected)``,
    its bookkeeping after the decision, which runs after every rejection and
    at every step from ``_due`` on.  ``_extra_state`` and ``_load_extra``
    carry its own snapshot fields.
    """

    family: str = ""

    def __init__(self, config: ControllerConfig):
        spec = config.spec
        if spec.family != self.family:
            raise ValueError(
                f"{type(self).__name__} cannot run rule {config.rule!r}")
        self.config = config
        self._gamma = config.gamma
        self._tilde = (decayed_gamma(config.gamma, config.delta)
                       if spec.pre in ("eta", "w0") else None)
        #: pre-rejection sequence: gtilde, or gamma in the classic form
        self._head = self._gamma if self._tilde is None else self._tilde
        self._smooth = spec.denominator == "smooth"
        self._indicator = spec.numerator == "indicator"
        self._pre_coef, self._rej_coef = _coefficients(config)
        if self._indicator:
            self._span = config.tau - config.lam
        self._t = 0
        self._rcount = 0
        self._dspend = 0.0   # discounted oracle numerator
        self._rdelta = 0.0   # discounted rejection count R_delta
        self._q = 0.0        # harmonic divisor q(t), if correction enabled
        self._rho = np.zeros(64, dtype=np.int64)
        #: delta**u for u = 0..n (LORD's decay table), carried on past its
        #: end by ``_decay_weights``
        self._powers = _ONE
        self._start = 0
        self._k = 0
        #: per-rejection arrays, kept parallel to the rejection times _rho
        self._columns = ("_rho",)
        #: the next step whose bookkeeping must run without a rejection
        self._due = 0

    @property
    def t(self) -> int:
        """Number of steps consumed so far."""
        return self._t

    @property
    def rejections(self) -> int:
        return self._rcount

    def rejection_times(self) -> list[int]:
        """Times of the rejections still held in state (pruned ones dropped)."""
        self._prune(self._t)
        return self._rho[self._live()].tolist()

    def _prune(self, now: int):
        """Drop rejection terms that no longer count at ``now``; families
        that prune as they step have nothing left to drop."""

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

    def step(self, p) -> Decision:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value must lie in [0, 1], got {p!r}")
        cfg = self.config
        delta = cfg.delta
        t = self._t + 1
        threshold = self._raw(t)
        if cfg.dependence_correction:
            self._q += 1.0 / t
            threshold /= self._q
        if threshold > 1.0:
            threshold = 1.0
        rejected = p <= threshold

        if self._indicator:
            spend = threshold / self._span if cfg.lam < p <= cfg.tau else 0.0
        else:
            spend = threshold
        self._dspend = delta * self._dspend + spend
        self._rdelta = delta * self._rdelta + (1.0 if rejected else 0.0)
        if self._smooth:
            oracle = self._dspend / (self._rdelta + cfg.eta)
        else:
            oracle = self._dspend / max(self._rdelta, 1.0)

        self._t = t
        if rejected:
            self._rcount += 1
            self._advance(t, p, rejected)
        elif t >= self._due:
            self._advance(t, p, rejected)
        return Decision(t, threshold, rejected, oracle)

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

    # -- snapshots ---------------------------------------------------------

    def _decay_weights(self, ages: np.ndarray) -> np.ndarray:
        """The decay weight delta**age of a rejection term at each of the
        int64 ``ages``, by repeated multiplication from 1.0."""
        return _powers_at(self._powers, self.config.delta, ages)

    def _extra_state(self) -> dict:
        return {}

    def _load_extra(self, snap: dict):
        pass

    def _snapshot_dict(self) -> dict:
        times = np.asarray(self.rejection_times(), dtype=np.int64)
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "params": self.config.scalar_params(),
            "t": self._t,
            "rejection_count": self._rcount,
            "rejection_times": times.tolist(),
            "decay_weights": self._decay_weights(self._t - times).tolist(),
            "decayed_spend": self._dspend,
            "decayed_rejections": self._rdelta,
            "harmonic_q": self._q,
            **self._extra_state(),
        }

    def snapshot(self) -> str:
        """Serialize state to versioned plain text (JSON); exact round trip."""
        return json.dumps(self._snapshot_dict(), sort_keys=True)

    @classmethod
    def restore(cls, config: ControllerConfig, text: str):
        """Rebuild a controller from ``snapshot()`` text, checking it first."""
        snap = json.loads(text)
        if not isinstance(snap, dict) or snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not a controller state snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        if snap.get("params") != config.scalar_params():
            raise ValueError("snapshot was produced under a different configuration")
        ctrl = cls(config)
        try:
            ctrl._load(snap)
        except KeyError as exc:
            raise ValueError(f"corrupt snapshot: missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"corrupt snapshot: {exc}") from None
        return ctrl

    def _load(self, snap: dict):
        times = np.asarray(snap["rejection_times"], dtype=np.int64)
        weights = np.asarray(snap["decay_weights"], dtype=np.float64)
        t = int(snap["t"])
        rcount = int(snap["rejection_count"])
        sums = [float(snap[k]) for k in ("decayed_spend", "decayed_rejections",
                                         "harmonic_q")]
        _check(times.ndim == 1 and times.shape == weights.shape,
               "mismatched state arrays")
        _check(0 <= rcount <= t, "rejection count outside 0..t")
        _check(rcount >= times.size,
               "fewer rejections counted than rejection times held")
        _check(times.size == 0 or (times[0] >= 1 and times[-1] <= t
                                   and bool(np.all(np.diff(times) > 0))),
               "rejection times must increase strictly within 1..t")
        _check(np.array_equal(weights, self._decay_weights(t - times)),
               "decay weights must equal delta**age")
        _check(all(math.isfinite(x) and x >= 0.0 for x in sums),
               "oracle sums must be finite and nonnegative")
        size = max(64, int(times.size))
        self._rho = np.zeros(size, dtype=np.int64)
        self._rho[:times.size] = times
        self._start = 0
        self._k = int(times.size)
        self._t = t
        self._rcount = rcount
        self._dspend, self._rdelta, self._q = sums
        self._load_extra(snap)


class LordController(_BaseController):
    """LORD and its memory-decay / dependency-lagged / w0 variants.

    The rejection credit comes from the decay kernel (see the module
    docstring), for every delta in (0, 1].
    """

    family = "lord"

    def __init__(self, config: ControllerConfig):
        super().__init__(config)
        self._rho1: Optional[int] = None
        classic = config.spec.pre == "classic"
        self._first_decays = classic and config.delta != 1.0
        cap = config.horizon + config.lag
        if config.delta == 1.0:
            # undecayed: every power is 1, so the kernel is gamma itself
            self._powers = _ONE
            self._prune_age = _undecayed_age(self._gamma, config.prune_epsilon,
                                             config.lag)
            size = 1 + (cap if self._prune_age is None else self._prune_age)
        else:
            self._powers, self._prune_age = _decay_table(
                config.delta, config.prune_epsilon, cap)
            size = self._powers.size
        kernel = self._gamma.weights(np.arange(size) - config.lag)
        if config.delta != 1.0:
            kernel *= self._powers
        if config.lag_decay_exponent and config.lag:
            # main-text dependency form: the decay exponent is lagged as well
            kernel *= config.delta ** (-config.lag)
        # credit of one rejection u = 0..n steps later; alpha - w0 for the
        # first one in the classic form, whose -w0 * g_{t-rho1} it holds
        self._kernel = kernel * self._rej_coef
        self._first_kernel = (np.multiply(kernel, config.alpha - config.w0,
                                          out=kernel) if classic
                              else self._kernel)
        self._kernel.flags.writeable = self._first_kernel.flags.writeable = False
        self._buf = np.zeros(_BLOCK, dtype=np.float64)
        #: the pre-rejection term of the block's times (``_fill_heads``);
        #: ``_head_list`` is its Python list, built when a step needs it
        self._heads = np.empty(_BLOCK, dtype=np.float64)
        self._base = 0
        self._due = _BLOCK
        self._fill_heads(0)

    def _raw(self, t: int) -> float:
        c = t - self._base - 1
        heads = self._head_list
        if heads is None:
            # built on the block's first step: a scan reads only the array
            heads = self._head_list = self._heads.tolist()
        return heads[c] + self._buf.item(c)

    def _advance(self, t: int, p: float, rejected: bool):
        if rejected:
            self._record_rejection(t)
        if t == self._due:
            self._refill(t)

    def _record_rejection(self, t: int):
        self._append_rejection(t)
        if self._rho1 is None:
            self._rho1 = t
            if self._first_decays:
                self._fill_heads(t - self._base)
        self._add_kernel(t)

    # -- decay kernel --------------------------------------------------------

    def _fill_heads(self, lo: int):
        """Set the head table's cells lo.. of the block, the pre-rejection
        term pre_coef * d1 * head_t of the times base+1+lo .. base+_BLOCK.

        In the classic form d1 = delta**(t - rho1) from the decay table, 0
        past its end, where rho1 is pruned; otherwise d1 = 1.
        """
        times = np.arange(self._base + 1 + lo, self._base + _BLOCK + 1)
        d1 = 1.0
        if self._first_decays and self._rho1 is not None:
            ages, n_powers = times - self._rho1, self._powers.size
            d1 = np.where(ages < n_powers, self._powers[
                np.minimum(ages, n_powers - 1)], 0.0)
        np.multiply(self._pre_coef * d1, self._head.weights(times),
                    out=self._heads[lo:])
        self._head_list = None

    def _add_kernel(self, r: int):
        """Add the credit of a rejection at r to the buffer cells after r."""
        base = self._base
        lo = max(base, r)
        kernel = self._first_kernel if r == self._rho1 else self._kernel
        hi = min(base + _BLOCK, r + kernel.size - 1)
        if lo < hi:
            self._buf[lo - base:hi - base] += kernel[lo + 1 - r:hi + 1 - r]

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
        self._due = base + _BLOCK
        self._buf.fill(0.0)
        live = self._rho[self._live()]
        first = int(np.searchsorted(live, base + 1 - (self._kernel.size - 1)))
        for r in live[first:].tolist():
            self._add_kernel(r)
        self._fill_heads(0)

    def _run_array(self, p: np.ndarray):
        cfg = self.config
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
            thr = self._heads[cell:cell + m] + self._buf[cell:cell + m]
            if cfg.dependence_correction:
                q = 1.0 / np.arange(t0 + 1, t0 + m + 1)
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
        dspend, rdelta = discounted_sums(np.column_stack((spend, rejected)),
                                         delta, (self._dspend, self._rdelta)).T
        self._dspend = float(dspend[-1])
        self._rdelta = float(rdelta[-1])
        if self._smooth:
            return dspend / (rdelta + cfg.eta)
        return dspend / np.maximum(rdelta, 1.0)

    # -- snapshots -----------------------------------------------------------

    def _first_decay_weight(self) -> float:
        """The first rejection's decay weight, 0.0 before it."""
        rho1 = self._rho1
        return 0.0 if rho1 is None else float(
            self._decay_weights(np.array([self._t - rho1]))[0])

    def _extra_state(self) -> dict:
        return {"first_rejection_time": self._rho1,
                "first_decay_weight": self._first_decay_weight()}

    def _load_extra(self, snap: dict):
        rho1 = snap.get("first_rejection_time")
        self._rho1 = None if rho1 is None else int(rho1)
        _check(self._rho1 is None or 1 <= self._rho1 <= self._t,
               "first rejection time outside 1..t")
        _check(float(snap.get("first_decay_weight", 0.0))
               == self._first_decay_weight(),
               "first decay weight must equal delta**age")
        self._refill(self._t)


class AddisController(_BaseController):
    """SAFFRON/ADDIS and their memory-decay variants.

    Candidate counts come from one counter, S_0(t) = 1 + #{i < t : lam < p_i
    <= tau}.  Each rejection records c_j = S_0 after its step (a rejected p
    is never a candidate), so its counter is S_j(t) = S_0(t) + 1 - c_j, and
    the first rejection's c_1 gives S_1 (0 before it).
    """

    family = "addis"

    def __init__(self, config: ControllerConfig):
        super().__init__(config)
        self._decay = np.zeros(64, dtype=np.float64)
        self._c = np.zeros(64, dtype=np.int64)
        self._columns = ("_rho", "_decay", "_c")
        self._s0 = 1
        self._c1: Optional[int] = None

    def _s1(self) -> int:
        return 0 if self._c1 is None else self._s0 + 1 - self._c1

    def _counters(self) -> np.ndarray:
        return self._s0 + 1 - self._c[self._live()]

    def _raw(self, t: int) -> float:
        cfg = self.config
        if self._k:
            live = self._live()
            if cfg.delta != 1.0:
                self._decay[live] *= cfg.delta
            s = float(np.dot(self._decay[live],
                             self._gamma.weights(self._counters())))
        else:
            s = 0.0
        head = self._head.weight(self._s0)
        if self._tilde is None:
            head -= self._gamma.weight(self._s1())
        return min(self._span * (self._pre_coef * head + self._rej_coef * s),
                   cfg.lam)

    def _advance(self, t: int, p: float, rejected: bool):
        cfg = self.config
        if cfg.lam < p <= cfg.tau:
            self._s0 += 1
        if rejected:
            i = self._append_rejection(t)
            self._decay[i] = 1.0
            self._c[i] = self._s0
            if self._c1 is None:
                self._c1 = self._s0
        eps = cfg.prune_epsilon
        if eps > 0.0 and self._k:
            if cfg.delta != 1.0:
                while self._k and self._decay[self._start] < eps:
                    self._start += 1
                    self._k -= 1
            else:
                while self._k and self._gamma.weight(
                        self._s0 + 1 - int(self._c[self._start])) < eps:
                    self._start += 1
                    self._k -= 1

    def _extra_state(self) -> dict:
        return {"candidate_counters": self._counters().tolist(),
                "s0": self._s0, "s1": self._s1()}

    def _load_extra(self, snap: dict):
        counters = np.asarray(snap["candidate_counters"], dtype=np.int64)
        _check(counters.shape == (self._k,), "mismatched state arrays")
        self._s0 = int(snap["s0"])
        s1 = int(snap["s1"])
        _check(1 <= self._s0 <= self._t + 1 and 0 <= s1 <= self._s0,
               "candidate counts s0, s1 out of range")
        _check(bool(np.all((counters >= 1) & (counters <= s1))),
               "candidate counters outside 1..s1")
        self._c1 = None if s1 == 0 else self._s0 + 1 - s1
        self._c = np.zeros(self._rho.size, dtype=np.int64)
        self._c[:counters.size] = self._s0 + 1 - counters
        self._decay = np.zeros(self._rho.size, dtype=np.float64)
        self._decay[:self._k] = self._decay_weights(
            self._t - self._rho[:self._k])


class FixedThresholdController(_BaseController):
    """Constant-threshold baseline; alpha doubles as the threshold c."""

    family = "fixed"

    def step(self, p) -> Decision:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value must lie in [0, 1], got {p!r}")
        t = self._t + 1
        threshold = self.config.alpha
        rejected = p <= threshold
        if rejected:
            self._rcount += 1
        self._rdelta = self.config.delta * self._rdelta + (1.0 if rejected else 0.0)
        self._t = t
        return Decision(t, threshold, rejected, float("nan"))


_CONTROLLERS = {"lord": LordController, "addis": AddisController,
                "fixed": FixedThresholdController}


def make_controller(config: ControllerConfig):
    """Instantiate the controller class matching ``config.rule``."""
    return config.spec.controller(config)


def restore_controller(config: ControllerConfig, text: str):
    """Rebuild a controller from a snapshot produced under ``config``."""
    return config.spec.controller.restore(config, text)
