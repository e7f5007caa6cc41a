"""Independent reference for the benchmark's correctness gate.

Nothing here imports ``streamfdr``.  The input generators reproduce the
program's seeded draws (``simulate`` and the sweep cells), and the decision
rules are recomputed from the paper's closed forms with an event-driven
kernel: each rejection adds a fixed contribution to every later threshold,
so a run costs one vectorised add per rejection instead of one Python step
per row.  Thresholds therefore agree with the program's step loop up to the
order of floating-point summation, which is what ``RTOL`` allows for; the
reject columns must agree exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtr

#: relative tolerance on thresholds, p-values and derived real-valued metrics
RTOL = 1e-9
#: surplus tolerance of the program's own ``verify`` (its ``--tol`` default)
SURPLUS_TOL = 1e-10

HORIZON = 1_000_000
ALPHA = 0.1
DELTA = 0.99
ETA = 1.0
PRUNE_EPSILON = 1e-12

#: per-rule constants (defaults of the seed program)
LORD_RULES = ("lord", "lord-decay", "lord-dep-decay")
ADDIS_RULES = {"saffron": (0.5, 1.0), "addis": (0.25, 0.5),
               "saffron-decay": (0.5, 1.0)}
UNDECAYED = ("lord", "saffron", "addis")
SMOOTH_ORACLE = ("lord-decay", "lord-dep-decay", "saffron-decay")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def pvalues_two_sided(z):
    return 2.0 * ndtr(-np.abs(z))


def mixture_stream(length: int, pi1: float, seed: int, effect: float = 3.0):
    """(p, is_alt) drawn as ``streamfdr simulate`` draws them (mean shift)."""
    rng = np.random.default_rng(seed)
    is_alt = rng.random(length) < pi1
    z = rng.standard_normal(length) + effect * is_alt
    return pvalues_two_sided(z), is_alt


def labelled_series(length: int, seed: int, dims: int = 3,
                    anomaly_rate: float = 1e-3, shift: float = 6.0):
    """Slowly seasonal Gaussian series with rare spikes in one random
    dimension; the season is long against the scorer's window, so the
    rolling scores stay close to calibrated and rejections stay rare."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    phase = rng.uniform(0.0, 2.0 * np.pi, dims)
    level = np.sin(2.0 * np.pi * t[:, None] / 5000.0 + phase[None, :])
    values = level + rng.standard_normal((length, dims))
    is_alt = rng.random(length) < anomaly_rate
    which = rng.integers(0, dims, length)
    values[is_alt, which[is_alt]] += shift
    return values, is_alt


def rolling_pvalues(values: np.ndarray, window: int) -> np.ndarray:
    """Min over dimensions of two-sided p-values against the previous window."""
    n, dims = values.shape
    out = np.ones(n, dtype=np.float64)
    if n <= window:
        return out
    per_dim = []
    for d in range(dims):
        x = values[:, d]
        hist = np.lib.stride_tricks.sliding_window_view(x, window)[:-1]
        sd = np.maximum(hist.std(axis=-1, ddof=1), 1e-12)
        p = np.ones(n, dtype=np.float64)
        p[window:] = pvalues_two_sided((x[window:] - hist.mean(axis=-1)) / sd)
        per_dim.append(p)
    return np.min(np.stack(per_dim, axis=1), axis=1)


# ---------------------------------------------------------------------------
# spending sequences
# ---------------------------------------------------------------------------

class Tables:
    """Padded spending tables: index i holds gamma_i, 0 at i = 0 and i > H."""

    def __init__(self, horizon: int = HORIZON):
        t = np.arange(1, horizon + 1, dtype=np.float64)
        lord = np.log(np.maximum(t, 2.0)) / (t * np.exp(np.sqrt(np.log(t))))
        power = t ** -1.6
        self.horizon = horizon
        self.lord = self._pad(lord / lord.sum())
        self.power = self._pad(power / power.sum())
        self.lord_tilde = self._decayed(self.lord)
        self.power_tilde = self._decayed(self.power)

    @staticmethod
    def _pad(table, tail=0.0):
        out = np.zeros(table.size + 2, dtype=np.float64)
        out[1:-1] = table
        out[-1] = tail
        return out

    def _decayed(self, padded):
        tilde = np.maximum(padded[1:-1], 1.0 - DELTA)
        peak = float(lfilter([1.0], [1.0, -DELTA], tilde).max())
        scale = 1.0 / peak if peak > 1.0 + 1e-12 else 1.0
        return self._pad(tilde * scale, (1.0 - DELTA) * scale)


def _decay_kernel(delta: float) -> np.ndarray:
    """delta**u for u = 1..W by repeated multiplication, W the first u with
    delta**u below the prune threshold (that term is still used once)."""
    weights = []
    w = 1.0
    while True:
        w *= delta
        weights.append(w)
        if w < PRUNE_EPSILON:
            return np.asarray(weights)


# ---------------------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------------------

def _scan(p, threshold, on_reject):
    """Thresholds and rejections of a rule given its threshold function.

    ``threshold(i, j)`` gives alpha_t for rows i..j-1 from the rejections
    seen so far, and ``on_reject(k)`` records a rejection at row k.  Rows
    are scanned in growing chunks up to the next ``p <= alpha_t``.
    """
    n = p.size
    alpha = np.empty(n, dtype=np.float64)
    rejected = np.zeros(n, dtype=bool)
    i, chunk = 0, 64
    while i < n:
        j = min(n, i + chunk)
        thr = threshold(i, j)
        hits = np.flatnonzero(p[i:j] <= thr)
        if hits.size == 0:
            alpha[i:j] = thr
            i, chunk = j, min(chunk * 2, 1 << 16)
            continue
        k = i + int(hits[0])
        alpha[i:k + 1] = thr[:k + 1 - i]
        rejected[k] = True
        on_reject(k)
        i, chunk = k + 1, 64
    return alpha, rejected


def lord_log(p, rule: str, tables: Tables, lag: int = 0):
    """LORD (w0 spending), lord-decay and lord-dep-decay with lag ``lag``.

    ``contrib[i]`` holds sum_j w_j(t) * gamma_{t - r_j - lag} for row i,
    with w_j the decay weight of rejection j at t = i + 1.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    g = tables.lord
    contrib = np.zeros(n, dtype=np.float64)
    if rule == "lord":
        w0 = ALPHA / 2.0
        first = []

        def threshold(i, j):
            t = np.arange(i + 1, j + 1)
            pre = w0 * (g[t] - g[t - first[0]]) if first else w0 * g[t]
            return np.minimum(pre + ALPHA * contrib[i:j], 1.0)

        def on_reject(k):
            if not first:
                first.append(k + 1)
            contrib[k + 1:] += g[1:n - k]
    elif rule in ("lord-decay", "lord-dep-decay"):
        tilde = tables.lord_tilde
        decay = _decay_kernel(DELTA)
        u = np.arange(1, decay.size + 1) - lag
        kernel = decay * g[np.clip(u, 0, tables.horizon + 1)]

        def threshold(i, j):
            pre = ALPHA * ETA * tilde[np.arange(i + 1, j + 1)]
            return np.minimum(pre + ALPHA * contrib[i:j], 1.0)

        def on_reject(k):
            stop = min(n, k + 1 + kernel.size)
            contrib[k + 1:stop] += kernel[:stop - k - 1]
    else:
        raise ValueError(f"no LORD reference for {rule!r}")
    return _scan(p, threshold, on_reject)


def addis_log(p, rule: str, tables: Tables):
    """SAFFRON, ADDIS and saffron-decay via candidate counts known offline.

    A rejection at row k contributes w(t) * gamma_{S(t)} to row i > k, where
    S(t) = 1 + #candidates in rows k+1..i-1 and w the decay weight.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    lam, tau = ADDIS_RULES[rule]
    span = tau - lam
    g = tables.power
    cand = (lam < p) & (p <= tau)
    before = np.cumsum(cand) - cand          # candidates strictly before row i
    contrib = np.zeros(n, dtype=np.float64)
    decay = None if rule in UNDECAYED else _decay_kernel(DELTA)
    first = []

    if rule == "saffron-decay":
        tilde = tables.power_tilde

        def threshold(i, j):
            raw = ALPHA * span * (ETA * tilde[1 + before[i:j]] + contrib[i:j])
            return np.minimum(raw, lam)
    else:
        w0 = ALPHA / 2.0

        def threshold(i, j):
            g0 = g[1 + before[i:j]]
            # a rejected row is never a candidate, so S1 counts from the row
            # after the first rejection
            g1 = g[1 + before[i:j] - before[first[0] - 1]] if first else 0.0
            raw = span * (w0 * (g0 - g1) + ALPHA * contrib[i:j])
            return np.minimum(raw, lam)

    def on_reject(k):
        if not first:
            first.append(k + 1)
        stop = n if decay is None else min(n, k + 1 + decay.size)
        w = g[1 + before[k + 1:stop] - before[k]]
        if decay is not None:
            w = decay[:stop - k - 1] * w
        contrib[k + 1:stop] += w

    return _scan(p, threshold, on_reject)


def rule_log(p, rule: str, tables: Tables, lag: int = 0):
    if rule in LORD_RULES:
        return lord_log(p, rule, tables, lag)
    return addis_log(p, rule, tables)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _discounted(values, delta):
    return lfilter([1.0], [1.0, -delta], values)


def min_surplus(p, alpha, rejected, rule: str) -> float:
    """min over prefixes of alpha * denominator - discounted spend."""
    delta = 1.0 if rule in UNDECAYED else DELTA
    if rule in ADDIS_RULES:
        lam, tau = ADDIS_RULES[rule]
        spend = np.where((lam < p) & (p <= tau), alpha / (tau - lam), 0.0)
    else:
        spend = alpha
    rdelta = _discounted(rejected.astype(np.float64), delta)
    denom = rdelta + ETA if rule in SMOOTH_ORACLE else np.maximum(rdelta, 1.0)
    return float(np.min(ALPHA * denom - _discounted(spend, delta)))


def sweep_row(p, is_alt, alpha, rejected, rule: str) -> dict:
    """The metrics a sweep writes for one (method, pi1, seed) row."""
    n = p.size
    null = ~is_alt
    r = int(rejected.sum())
    v = int((rejected & null).sum())
    weights = DELTA ** np.arange(n - 1, -1, -1, dtype=np.float64)
    r_delta = float(np.dot(weights, rejected))
    v_delta = float(np.dot(weights, rejected & null))
    alternatives = int(is_alt.sum())
    tp = int((rejected & is_alt).sum())
    return {
        "T": n, "R": r, "V": v,
        "fdp": v / max(r, 1),
        "fdp_delta": v_delta / max(r_delta, 1.0),
        "sfdp_delta": v_delta / (r_delta + ETA),
        "power": tp / alternatives if alternatives else 0.0,
        "precision": 1.0 - v / max(r, 1),
        "min_surplus": min_surplus(p, alpha, rejected, rule),
    }


def close(a: float, b: float) -> bool:
    """Equal within RTOL, relative to the larger magnitude (at least 1)."""
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0
