"""Spending-weight sequences used by every online FDR decision rule.

A rule distributes its testing budget over an infinite stream through a
non-increasing weight sequence gamma_1 >= gamma_2 >= ... >= 0 whose partial
sums never exceed 1.  Two canonical families are provided:

* ``lord_gamma``   -- gamma_t proportional to log(max(t, 2)) / (t * exp(sqrt(log t))),
  the usual choice for LORD-style rules.
* ``power_gamma``  -- gamma_t proportional to t**(-s) with s > 1, the usual
  choice for SAFFRON/ADDIS-style rules (s = 1.6 by default).

Weights are normalized over a finite horizon H (default 10**6); everything
beyond the horizon is treated as zero, which only lowers thresholds and is
therefore always safe.

``DecayedGammaSequence`` wraps a base sequence for memory-decay rules with
discount factor delta in (0, 1]: gtilde_t = max(gamma_t, 1 - delta), which
keeps weights bounded away from zero.  Feasibility -- the discounted sums
sum_{t<=T} delta**(T-t) * gtilde_t must stay <= 1 for every T -- is verified
numerically at construction and repaired by a global rescale if ever violated
(for the max() construction the scan provably never triggers, but custom
bases get the same safety net).

``discounted_sums`` runs that recurrence, y_t = delta * y_{t-1} + x_t, over
a whole array; the controllers and the verifier use it too.  It rounds every
step as the scalar loop does, so its results are bit-identical to that loop
(and to ``scipy.signal.lfilter([1], [1, -delta], x)``).

Instances are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

DEFAULT_HORIZON = 1_000_000

# Slack for floating-point accumulation when checking sum constraints.
_SUM_TOL = 1e-12


def discounted_sums(values, delta: float, start: float = 0.0) -> np.ndarray:
    """y_t = delta * y_{t-1} + x_t for every t, from y_0 = delta * start + x_0.

    Each step rounds as the scalar loop ``y = delta * y + x`` does, so the
    result equals that loop, and ``lfilter([1], [1, -delta], x,
    zi=[delta * start])``, bit for bit.  It is the solution of the unit lower
    bidiagonal system y_t - delta * y_{t-1} = x_t, solved by LAPACK's dgtsv:
    delta <= 1 keeps it from pivoting, its elimination computes
    x_t - (-delta) * y_{t-1}, which rounds as delta * y_{t-1} + x_t does, and
    its back pass divides by 1 and subtracts 0 * y_{t+1}, exact for finite
    values.  With an inf or NaN that 0 * y_{t+1} would be NaN and reach
    earlier rows, so a non-finite result is recomputed by a scalar loop in
    lfilter's own form, where a non-finite value at row k reaches no row
    before k.
    """
    y = np.array(values, dtype=np.float64)
    n = y.size
    if n == 0:
        return y
    y[0] += delta * start
    if n == 1:  # dgtsv's wrapper refuses empty off-diagonals
        return y
    y = dgtsv(np.full(n - 1, -delta), np.ones(n), np.zeros(n - 1), y,
              1, 1, 1, 1)[3]
    if np.isfinite(y).all():
        # a non-finite input leaves a non-finite value at its own row
        return y
    z, out = delta * start, []
    for x in np.asarray(values, dtype=np.float64).tolist():
        out.append(z + x)
        z = 0.0 * x - out[-1] * (-delta)
    return np.array(out)


def _lord_default_raw(t: np.ndarray) -> np.ndarray:
    # log(max(t, 2)) / (t * exp(sqrt(log t))); at t = 1 this is log 2.
    t = t.astype(np.float64)
    logt = np.log(t)
    return np.log(np.maximum(t, 2.0)) / (t * np.exp(np.sqrt(logt)))


class GammaSequence:
    """Normalized non-increasing spending weights gamma_1..gamma_H.

    ``weight(t)`` returns gamma_t, with gamma_t = 0 for t <= 0 and t > H.
    ``weights(idx)`` is the vectorized equivalent for integer index arrays.
    """

    __slots__ = ("kind", "param", "horizon", "norm_const", "table", "_padded")

    def __init__(self, kind: str, raw: np.ndarray, param: float | None = None,
                 normalize: bool = True):
        self.kind = kind
        self.param = param
        self.horizon = int(raw.size)
        if np.any(raw < 0.0):
            raise ValueError("gamma weights must be nonnegative")
        if np.any(np.diff(raw) > 0.0):
            raise ValueError("gamma weights must be non-increasing")
        total = float(raw.sum())
        if normalize:
            if total <= 0.0:
                raise ValueError("gamma weights must have positive sum")
            self.norm_const = total
            table = raw / total
        else:
            if total > 1.0 + _SUM_TOL:
                raise ValueError(
                    f"gamma weights must sum to at most 1 (got {total!r})")
            self.norm_const = 1.0
            table = np.asarray(raw, dtype=np.float64)
        # padded[i] = gamma_i for 1 <= i <= H; index 0 and H+1 hold the
        # out-of-range value 0, so lookups can clip instead of branch
        # (np.minimum/np.maximum: np.clip costs several times more per call).
        padded = np.zeros(self.horizon + 2, dtype=np.float64)
        padded[1:-1] = table
        self.table = table
        self._padded = padded
        self.table.flags.writeable = False
        self._padded.flags.writeable = False

    def weight(self, t: int) -> float:
        """gamma_t as a scalar (0 outside 1..horizon)."""
        if t < 1 or t > self.horizon:
            return 0.0
        return float(self.table[t - 1])

    def weights(self, idx: np.ndarray) -> np.ndarray:
        """gamma_idx for an integer array, mapping out-of-range indices to 0."""
        return self._padded[np.minimum(np.maximum(idx, 0), self.horizon + 1)]

    def __repr__(self):
        p = "" if self.param is None else f", param={self.param}"
        return f"GammaSequence(kind={self.kind!r}{p}, horizon={self.horizon})"

    @classmethod
    def lord_default(cls, horizon: int = DEFAULT_HORIZON) -> "GammaSequence":
        if horizon < 1:
            raise ValueError("horizon must be positive")
        t = np.arange(1, horizon + 1, dtype=np.int64)
        return cls("lord-default", _lord_default_raw(t))

    @classmethod
    def power_law(cls, s: float = 1.6, horizon: int = DEFAULT_HORIZON) -> "GammaSequence":
        if s <= 1.0:
            raise ValueError("power-law exponent must exceed 1 for summability")
        if horizon < 1:
            raise ValueError("horizon must be positive")
        t = np.arange(1, horizon + 1, dtype=np.float64)
        return cls("power-law", t ** (-s), param=float(s))

    @classmethod
    def custom(cls, weights) -> "GammaSequence":
        """A user-supplied table, validated but not renormalized."""
        raw = np.asarray(list(weights), dtype=np.float64)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("custom gamma table must be a nonempty 1-d sequence")
        if not np.isfinite(raw).all():
            # NaN would slip past the sign and order checks below
            raise ValueError("gamma weights must be finite")
        return cls("custom", raw, normalize=False)

    @classmethod
    def from_file(cls, path) -> "GammaSequence":
        """Load a custom table from a one-weight-per-line text file."""
        values = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: not a number: {text!r}") from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: line {lineno}: not a finite number: {text!r}")
                values.append(value)
        return cls.custom(values)


class DecayedGammaSequence:
    """Floor-adjusted weights gtilde_t = max(gamma_t, 1 - delta) for decay rules.

    The discounted-sum constraint max_T sum_{t<=T} delta**(T-t) gtilde_t <= 1
    is scanned over the whole horizon with the exact recurrence
    A(T) = delta * A(T-1) + gtilde_T.  If the maximum exceeds 1 the table is
    rescaled by 1/max, which restores feasibility while preserving the
    positive floor (now (1 - delta) * rescale).
    """

    __slots__ = ("base", "delta", "rescale", "floor", "max_decayed_sum",
                 "table", "_padded")

    def __init__(self, base: GammaSequence, delta: float):
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        self.base = base
        self.delta = float(delta)
        table = np.maximum(base.table, 1.0 - self.delta)
        running = discounted_sums(table, self.delta)
        peak = float(running.max())
        if peak > 1.0 + _SUM_TOL:
            self.rescale = 1.0 / peak
            table = table * self.rescale
            running = discounted_sums(table, self.delta)
            peak = float(running.max())
            if peak > 1.0 + 1e-9:
                raise ValueError(
                    "decayed gamma sequence infeasible even after rescaling")
        else:
            self.rescale = 1.0
        self.max_decayed_sum = peak
        self.floor = (1.0 - self.delta) * self.rescale
        padded = np.zeros(base.horizon + 2, dtype=np.float64)
        padded[1:-1] = table
        padded[-1] = self.floor  # beyond the horizon the floor is all that remains
        self.table = table
        self._padded = padded
        self.table.flags.writeable = False
        self._padded.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.base.horizon

    def weight(self, t: int) -> float:
        """gtilde_t as a scalar (floor value beyond the horizon, 0 for t <= 0)."""
        if t < 1:
            return 0.0
        if t > self.base.horizon:
            return self.floor
        return float(self.table[t - 1])

    def weights(self, idx: np.ndarray) -> np.ndarray:
        return self._padded[np.minimum(np.maximum(idx, 0),
                                       self.base.horizon + 1)]

    def __repr__(self):
        return (f"DecayedGammaSequence(base={self.base!r}, delta={self.delta}, "
                f"rescale={self.rescale})")


@lru_cache(maxsize=8)
def lord_gamma(horizon: int = DEFAULT_HORIZON) -> GammaSequence:
    """Shared default LORD spending sequence."""
    return GammaSequence.lord_default(horizon)


@lru_cache(maxsize=8)
def power_gamma(s: float = 1.6, horizon: int = DEFAULT_HORIZON) -> GammaSequence:
    """Shared default SAFFRON/ADDIS spending sequence."""
    return GammaSequence.power_law(s, horizon)


@lru_cache(maxsize=32)
def _cached_decayed(kind: str, param: float | None, horizon: int,
                    delta: float) -> DecayedGammaSequence:
    if kind == "lord-default":
        base = lord_gamma(horizon)
    elif kind == "power-law":
        base = power_gamma(param, horizon)
    else:  # pragma: no cover - cache is only used for the builtin kinds
        raise ValueError(f"cannot cache decayed sequence for kind {kind!r}")
    return DecayedGammaSequence(base, delta)


def decayed_gamma(base: GammaSequence, delta: float) -> DecayedGammaSequence:
    """Decayed counterpart of ``base``, cached for the builtin families."""
    if base.kind in ("lord-default", "power-law"):
        return _cached_decayed(base.kind, base.param, base.horizon, delta)
    return DecayedGammaSequence(base, delta)


def harmonic_number(t: int) -> float:
    """q(t) = sum_{k<=t} 1/k, the divisor used under arbitrary dependence."""
    return float(math.fsum(1.0 / k for k in range(1, t + 1)))
