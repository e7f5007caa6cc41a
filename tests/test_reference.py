"""The controllers against a second independent source: the benchmark's
event-driven reference (``bench/reference.py``, which imports no
streamfdr), on its six rules at its defaults."""

import importlib.util
import os

import numpy as np
import pytest

from streamfdr import metrics
from streamfdr.controllers import make_controller
from streamfdr.simulation import method_config

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "reference.py")
_SPEC = importlib.util.spec_from_file_location("reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

#: the reference's rules, with the lag it runs lord-dep-decay at
RULES = [("lord", 0), ("lord-decay", 0), ("lord-dep-decay", 100),
         ("saffron", 0), ("addis", 0), ("saffron-decay", 0)]


@pytest.fixture(scope="module")
def tables():
    return reference.Tables()


@pytest.mark.parametrize("pi1", [1e-3, 0.05, 0.5])
@pytest.mark.parametrize("rule, lag", RULES)
def test_run_log_and_step_match_the_reference(tables, rule, lag, pi1):
    # at pi1 = 1e-3 this seed is one where even the undecayed rules reject
    p, _ = reference.mixture_stream(5000, pi1, seed=1)
    ref_alpha, ref_rejected = reference.rule_log(p, rule, tables, lag)
    config = method_config(rule, alpha=reference.ALPHA, delta=reference.DELTA,
                           eta=reference.ETA, lag=lag,
                           horizon=reference.HORIZON,
                           prune_epsilon=reference.PRUNE_EPSILON)
    log = metrics.run_log(make_controller(config), p)
    controller = make_controller(config)
    steps = [controller.step(x) for x in p.tolist()]
    stepped = (np.array([d.threshold for d in steps]),
               np.array([d.rejected for d in steps]))
    assert ref_rejected.any()
    for alpha, rejected in ((log.alpha, log.rejected), stepped):
        np.testing.assert_array_equal(rejected, ref_rejected)
        assert reference.max_rel_diff(alpha, ref_alpha) <= reference.RTOL
