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
keeps weights bounded away from zero.  As the base is non-increasing, gtilde
is a head of the weights above 1 - delta followed by a constant floor, and
it is stored that way: a few weights, not H.  Feasibility -- the discounted
sums sum_{t<=T} delta**(T-t) * gtilde_t must stay <= 1 for every T -- is
checked at construction by an exact scan of the head and the floor run, and
repaired by a global rescale if ever violated (for a base summing to at most
1 it provably never triggers in exact arithmetic, but round-off and custom
bases get the same safety net).

``discounted_sums`` runs that recurrence, y_t = delta * y_{t-1} + x_t, over
a whole array, or down both columns of a pair in one LAPACK call; the
controllers' ``run_array`` and the verifier run their spend and rejection
series that way.  It rounds every step as the scalar loop does, so its
results are bit-identical to that loop (and to
``scipy.signal.lfilter([1], [1, -delta], x)``).  It imports scipy's LAPACK
on its first call, so building and stepping a controller imports no scipy.

Instances are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DEFAULT_HORIZON = 1_000_000

# Slack for floating-point accumulation when checking sum constraints.
_SUM_TOL = 1e-12


def discounted_sums(values, delta: float, start=0.0) -> np.ndarray:
    """y_t = delta * y_{t-1} + x_t for every t, from y_0 = delta * start + x_0,
    down a 1-d ``values`` or down each column of a 2-d one (``start`` then
    a number or one per column).

    Each step rounds as the scalar loop ``y = delta * y + x`` does, so the
    result equals that loop, and ``lfilter([1], [1, -delta], x,
    zi=[delta * start])``, bit for bit.  It is the solution of the unit lower
    bidiagonal system y_t - delta * y_{t-1} = x_t, solved by LAPACK's dgtsv:
    delta <= 1 keeps it from pivoting, its elimination computes
    x_t - (-delta) * y_{t-1}, which rounds as delta * y_{t-1} + x_t does, and
    its back pass divides by 1 and subtracts 0 * y_{t+1}, exact for finite
    values.  The columns of a 2-d input are the right-hand sides of one
    call, each taking the operations of its own.  With an inf or NaN that
    0 * y_{t+1} would be NaN and reach earlier rows, so a column with a
    non-finite result is recomputed by a scalar loop in lfilter's own form,
    where a non-finite value at row k reaches no row before k.
    """
    y = np.array(values, dtype=np.float64, order="F")
    n = y.shape[0]
    if n == 0:
        return y
    y[0] += delta * np.asarray(start, dtype=np.float64)
    if n == 1:  # dgtsv's wrapper refuses empty off-diagonals
        return y
    from scipy.linalg.lapack import dgtsv  # here: stepping loads no scipy
    y = dgtsv(np.full(n - 1, -delta), np.ones(n), np.zeros(n - 1), y,
              1, 1, 1, 1)[3]
    # a non-finite input leaves a non-finite value at its own row
    sums = y.reshape(n, -1)
    starts = np.broadcast_to(start, sums.shape[1]).tolist()
    x = np.asarray(values, dtype=np.float64).reshape(n, -1)
    for j in np.flatnonzero(~np.isfinite(sums).all(axis=0)).tolist():
        z, out = delta * starts[j], []
        for v in x[:, j].tolist():
            out.append(z + v)
            z = 0.0 * v - out[-1] * (-delta)
        sums[:, j] = out
    return y


def _lord_default_raw(t: np.ndarray) -> np.ndarray:
    """log(max(t, 2)) / (t * exp(sqrt(log t))) for a float array t, written
    over t itself; at t = 1 this is log 2."""
    den = np.log(t)
    np.sqrt(den, out=den)
    np.exp(den, out=den)
    den *= t
    np.maximum(t, 2.0, out=t)
    np.log(t, out=t)
    t /= den
    return t


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
        if np.any(raw[1:] > raw[:-1]):
            raise ValueError("gamma weights must be non-increasing")
        total = float(raw.sum())
        if normalize:
            if total <= 0.0:
                raise ValueError("gamma weights must have positive sum")
            self.norm_const = total
        else:
            if total > 1.0 + _SUM_TOL:
                raise ValueError(
                    f"gamma weights must sum to at most 1 (got {total!r})")
            self.norm_const = 1.0  # dividing by it is exact
        # padded[i] = gamma_i for 1 <= i <= H; index 0 and H+1 hold the
        # out-of-range value 0, so lookups can clip instead of branch
        # (np.minimum/np.maximum: np.clip costs several times more per call).
        padded = np.zeros(self.horizon + 2, dtype=np.float64)
        np.divide(raw, self.norm_const, out=padded[1:-1])
        padded.flags.writeable = False
        self._padded = padded
        self.table = padded[1:-1]

    def weight(self, t: int) -> float:
        """gamma_t as a scalar (0 outside 1..horizon)."""
        if t < 1 or t > self.horizon:
            return 0.0
        return float(self._padded[t])

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
        t = np.arange(1, horizon + 1, dtype=np.float64)
        return cls("lord-default", _lord_default_raw(t))

    @classmethod
    def power_law(cls, s: float = 1.6, horizon: int = DEFAULT_HORIZON) -> "GammaSequence":
        if s <= 1.0:
            raise ValueError("power-law exponent must exceed 1 for summability")
        if horizon < 1:
            raise ValueError("horizon must be positive")
        t = np.arange(1, horizon + 1, dtype=np.float64)
        return cls("power-law", np.power(t, -s, out=t), param=float(s))

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


def _peak_decayed_sum(head: np.ndarray, floor: float, delta: float,
                      horizon: int) -> float:
    """max over T <= horizon of A(T) = delta * A(T-1) + gtilde_T, A(0) = 0,
    where gtilde is ``head`` followed by ``floor``, each step rounded as the
    scalar loop rounds it (see ``DecayedGammaSequence``)."""
    if delta == 1.0:
        # fl(1.0 * y) is y, so the loop is a running sum; cumsum adds in order
        sums = np.cumsum(head)
        peak, y = ((float(sums.max()), float(sums[-1])) if sums.size
                   else (-math.inf, 0.0))
    else:
        peak, y = -math.inf, 0.0
        for x in head.tolist():
            y = delta * y + x
            if y > peak:
                peak = y
    run = horizon - head.size
    if run:
        # the floor run is monotone: its maximum is its first or last value
        first = y = delta * y + floor
        for _ in range(run - 1):
            nxt = delta * y + floor
            if nxt == y:  # a fixed point: the rest of the run stays here
                break
            y = nxt
        peak = max(peak, first, y)
    return peak


class DecayedGammaSequence:
    """Floor-adjusted weights gtilde_t = max(gamma_t, 1 - delta) for decay rules.

    Storage.  Let k be the number of base weights above 1 - delta.  The base
    is non-increasing, so they are gamma_1..gamma_k, and every later gtilde_t
    is exactly 1 - delta (times ``rescale``), which is ``floor`` bit for
    bit.  So only that head is stored: ``_padded`` is
    [0, gtilde_1..gtilde_k, floor], and lookups clip to index k + 1.

    Feasibility.  The discounted sums A(T) = delta * A(T-1) + gtilde_T must
    stay <= 1 for every T <= H.  The scan rounds each step as the scalar loop
    (and ``discounted_sums`` over the full table) does: a loop over the head
    (a cumsum at delta = 1, where fl(1.0 * y) is y), then the floor run
    T = k+1..H, which iterates F(y) = fl(fl(delta * y) + floor).  F is
    non-decreasing, so the run is monotone and its maximum is its first or
    its last value; once F(y) == y it stays put, so the loop stops at that
    fixed point, or at H.  If the maximum exceeds 1 the weights are rescaled
    by 1/max, which restores feasibility while keeping a positive floor,
    now (1 - delta) * rescale.

    In exact arithmetic the rescale never triggers for a base whose weights
    sum to at most 1: for T <= k, A(T) <= gamma_1 + ... + gamma_T <= 1, and
    for T > k, A(T) = delta**(T-k) * A(k) + (1 - delta**(T-k)), a convex
    combination of A(k) <= 1 and 1.  It is there for round-off and for
    duck-typed bases (any object with a non-increasing ``table`` and its
    ``horizon``).
    """

    __slots__ = ("base", "delta", "rescale", "floor", "max_decayed_sum",
                 "_head_size", "_padded")

    def __init__(self, base: GammaSequence, delta: float):
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        self.base = base
        self.delta = float(delta)
        floor = 1.0 - self.delta
        head = base.table[:int(np.count_nonzero(base.table > floor))]
        peak = _peak_decayed_sum(head, floor, self.delta, base.horizon)
        if peak > 1.0 + _SUM_TOL:
            self.rescale = 1.0 / peak
            head = head * self.rescale
            floor = floor * self.rescale
            peak = _peak_decayed_sum(head, floor, self.delta, base.horizon)
            if peak > 1.0 + 1e-9:
                raise ValueError(
                    "decayed gamma sequence infeasible even after rescaling")
        else:
            self.rescale = 1.0
        self.max_decayed_sum = peak
        self.floor = floor
        self._head_size = head.size
        padded = np.zeros(head.size + 2, dtype=np.float64)
        padded[1:-1] = head
        padded[-1] = floor  # past the head the floor is all that remains
        padded.flags.writeable = False
        self._padded = padded

    @property
    def horizon(self) -> int:
        return self.base.horizon

    def weight(self, t: int) -> float:
        """gtilde_t as a scalar (the floor past the head, 0 for t <= 0)."""
        if t < 1:
            return 0.0
        if t > self._head_size:
            return self.floor
        return float(self._padded[t])

    def weights(self, idx: np.ndarray) -> np.ndarray:
        return self._padded[np.minimum(np.maximum(idx, 0),
                                       self._head_size + 1)]

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

