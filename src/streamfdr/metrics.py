"""Evaluation quantities and the independent oracle/surplus verifier.

``summarize_log`` reports plain counts (rejections R, false positives V)
and their exponentially discounted versions R_delta, V_delta, the sums
X(T) = sum_{t<=T} delta**(T-t) * x_t of the exact recurrence
X <- delta * X + x_t.  From these it derives the three false-discovery
proportions reported everywhere:

    FDP        = V / max(R, 1)
    FDP_delta  = V_delta / max(R_delta, 1)
    sFDP_delta = V_delta / (R_delta + eta)

``verify_oracle_and_surplus`` is the test-suite backbone: given a decision
log and the rule configuration it recomputes, independently of the
controller's internal accumulators, the rule's oracle FDP estimate and the
surplus

    P(T) = alpha * denominator(T) - discounted spend(T)

at every prefix T.  The rule is certified iff the oracle never exceeds
alpha and the surplus never dips below zero (for the ADDIS family, also
that no threshold exceeds lambda).  "scratch" mode recomputes every prefix
from the raw arrays without replaying the whole recurrence: blocks of
B = isqrt(n) rows, each block anchored by a direct dot product over all
raw values before it (about n**1.5 / 2 multiply-adds per series), and
then the recurrence X <- delta * X + x_t down each block from its anchor
(B steps, all blocks in step, with no scaling and so no bound on values).
Its prefixes agree with exactly rounded sums within a relative 1e-12
(tested against ``math.fsum`` at decays from 1e-6 to 1 - 1e-9).
"recurrence" mode replays the exact linear recurrence from the first row
instead, in linear time, through ``gamma.discounted_sums``, which gives
the bits of the scalar loop (an inf or NaN at row k reaches no prefix
before k, in either mode).  The two differ by round-off only, so they
give the same verdict unless a surplus or oracle lies within about 1e-15
of its bound; ``verify`` uses scratch by default.  ``summarize_log``
takes R_delta and V_delta from the last row of that same recurrence, so
they carry the bits of the controllers' own accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

import numpy as np

from . import controllers
from .controllers import ControllerConfig
from .gamma import discounted_sums


@dataclass
class DecisionLog:
    """Column-oriented record of a finished run, as written to decision CSVs."""

    p: np.ndarray
    alpha: np.ndarray
    rejected: np.ndarray
    oracle: Optional[np.ndarray] = None
    is_null: Optional[np.ndarray] = None

    def __len__(self):
        return int(self.p.size)


def run_log(controller, pvalues, is_null=None) -> DecisionLog:
    """Drive ``controller`` over a p-value sequence and collect the log."""
    p = np.asarray(pvalues, dtype=np.float64)
    alpha, rejected, oracle = controller.run_array(p)
    labels = None if is_null is None else np.asarray(is_null, dtype=bool)
    return DecisionLog(p=p, alpha=alpha, rejected=rejected, oracle=oracle,
                       is_null=labels)


def mfdr_estimate(summaries, eta: float = 1.0) -> float:
    """mean(V_delta) / (mean(R_delta) + eta) across replication summaries,
    given as (v_delta, r_delta) pairs."""
    vs, rs = [], []
    for v, r in summaries:
        vs.append(float(v))
        rs.append(float(r))
    if not vs:
        raise ValueError("mfdr_estimate needs at least one replication")
    return float(np.mean(vs) / (np.mean(rs) + eta))


@dataclass
class VerificationReport:
    rule: str
    steps: int
    min_surplus: float
    min_surplus_at: int
    max_oracle: float
    max_oracle_at: int
    oracle_bound: float
    consistent: bool
    first_violation_at: Optional[int]
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"{status}: rule={self.rule} steps={self.steps} "
                f"min_surplus={self.min_surplus:.6e} (T={self.min_surplus_at}) "
                f"max_oracle={self.max_oracle:.6e} (T={self.max_oracle_at})")
        if not self.passed and self.first_violation_at is not None:
            line += f" first_offending_T={self.first_violation_at}"
        return line


def _oracle_numerator(log: DecisionLog, config: ControllerConfig) -> np.ndarray:
    if config.spec.numerator == "plain":
        return log.alpha
    inside = (config.lam < log.p) & (log.p <= config.tau)
    return np.where(inside, log.alpha / (config.tau - config.lam), 0.0)


def _discounted_prefixes(values: np.ndarray, delta: float) -> np.ndarray:
    """d(T) = sum_{t<=T} delta**(T-t) * values_t for every prefix T, each
    block's start summed directly from the raw values
    (``gamma.discounted_sums`` runs the recurrence from the first row)."""
    n = values.size
    if delta == 1.0:
        # prefix sums of raw values; no discounting to redo per step
        return np.cumsum(values)
    # Blocks of size = isqrt(n) rows.  Each block starts from an anchor, the
    # prefix just before it as a direct dot over the raw values (no anchor is
    # built from another), and all blocks then run d <- delta * d + v_t in
    # step, one row of each per pass.  This only carries forward, so a NaN
    # or inf at row k still reaches no prefix before k.
    size = max(1, isqrt(n))
    powers = delta ** np.arange(n, dtype=np.float64)
    rev = values[::-1].copy()
    d = np.array([np.dot(rev[n - s:], powers[:s]) for s in range(0, n, size)])
    grid = np.zeros((d.size, size), dtype=np.float64)
    grid.flat[:n] = values
    for k in range(size):
        d = delta * d + grid[:, k]
        grid[:, k] = d
    return grid.reshape(-1)[:n]


def check_verify_options(tol: float, method: str) -> None:
    """Raise ValueError unless tol is finite and nonnegative and the method
    is "scratch" or "recurrence"."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if method not in ("scratch", "recurrence"):
        raise ValueError(f"unknown verification method {method!r}")


def _worst(prefixes, pick) -> int:
    """The index of the first prefix that is not finite, where the two
    verify methods agree; else ``pick`` (argmin or argmax) of them."""
    bad = ~np.isfinite(prefixes)
    return int(np.argmax(bad)) if bad.any() else int(pick(prefixes))


def verify_oracle_and_surplus(log: DecisionLog, config: ControllerConfig,
                              tol: float = 1e-10,
                              method: str = "scratch") -> VerificationReport:
    """Recompute the rule oracle and surplus P(T) at every prefix of a log."""
    check_verify_options(tol, method)
    if config.rule not in controllers.ORACLE_RULES:
        raise ValueError(f"rule {config.rule!r} carries no oracle to verify")
    n = len(log)
    alpha = config.alpha
    smooth = config.spec.denominator == "smooth"
    if n == 0:
        base = alpha * (config.eta if smooth else 1.0)
        return VerificationReport(config.rule, 0, base, 0, 0.0, 0,
                                  alpha + tol, True, None, True)
    # an inf or NaN threshold makes NaN prefixes (inf * 0, inf - inf); the
    # report names them, so numpy need not warn
    with np.errstate(invalid="ignore"):
        num = _oracle_numerator(log, config)
        if method == "recurrence":
            # both series in one dgtsv call, each with the bits of its own
            spend, rdelta = discounted_sums(
                np.column_stack((num, log.rejected)), config.delta).T
        else:
            spend = _discounted_prefixes(num, config.delta)
            rdelta = _discounted_prefixes(log.rejected.astype(np.float64),
                                          config.delta)
        if smooth:
            denom = rdelta + config.eta
        else:
            denom = np.maximum(rdelta, 1.0)
        oracle = spend / denom
        surplus = alpha * denom - spend

    consistent = bool(np.array_equal(log.rejected, log.p <= log.alpha))
    i_min = _worst(surplus, np.argmin)
    i_max = _worst(oracle, np.argmax)
    # written so that a NaN (from a NaN or infinite threshold) is a violation
    ok = (surplus >= -tol) & (oracle <= alpha + tol)
    if config.spec.family == "addis":
        # the indicator numerator estimates the spend only while every
        # threshold stays at or below lambda, where the controllers cap it
        ok &= log.alpha <= config.lam + tol
    first = None if ok.all() else int(np.argmin(ok)) + 1
    passed = first is None and consistent
    return VerificationReport(
        rule=config.rule,
        steps=n,
        min_surplus=float(surplus[i_min]),
        min_surplus_at=i_min + 1,
        max_oracle=float(oracle[i_max]),
        max_oracle_at=i_max + 1,
        oracle_bound=alpha + tol,
        consistent=consistent,
        first_violation_at=first,
        passed=passed,
    )


def summarize_log(log: DecisionLog, config: ControllerConfig,
                  delta: Optional[float] = None,
                  eta: Optional[float] = None) -> dict:
    """Metrics row for one run, evaluated at the end of the log.

    Labels are optional; unlabeled fields come back as None.
    """
    delta = config.delta if delta is None else delta
    eta = config.eta if eta is None else eta
    n = len(log)
    rej = log.rejected
    r = int(rej.sum())
    row = {"T": n, "R": r, "alpha_target": config.alpha,
           "delta": delta, "eta": eta}
    labeled = log.is_null is not None
    hits = np.column_stack((rej, rej & log.is_null) if labeled else (rej,))
    # the recurrence's last row, as the controllers accumulate it
    sums = discounted_sums(hits, delta)[-1] if n else np.zeros(hits.shape[1])
    r_delta = float(sums[0])
    row["r_delta"] = r_delta
    if labeled:
        null = log.is_null
        v = int((rej & null).sum())
        v_delta = float(sums[1])
        alternatives = int((~null).sum())
        tp = int((rej & ~null).sum())
        row.update({
            "V": v,
            "v_delta": v_delta,
            "fdp": v / max(r, 1),
            "fdp_delta": v_delta / max(r_delta, 1.0),
            "sfdp_delta": v_delta / (r_delta + eta),
            "power": (tp / alternatives) if alternatives else 0.0,
            "precision": 1.0 - v / max(r, 1),
        })
    else:
        row.update({"V": None, "v_delta": None, "fdp": None, "fdp_delta": None,
                    "sfdp_delta": None, "power": None, "precision": None})
    if config.rule in controllers.ORACLE_RULES:
        report = verify_oracle_and_surplus(log, config, method="recurrence")
        row["min_surplus"] = report.min_surplus
        row["max_oracle"] = report.max_oracle
    else:
        row["min_surplus"] = None
        row["max_oracle"] = None
    return row
