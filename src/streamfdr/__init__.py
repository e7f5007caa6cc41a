"""Online false discovery rate control for streaming anomaly detection.

Decision rules (LORD, SAFFRON, ADDIS and their memory-decay variants) that
assign a rejection threshold to every incoming p-value while keeping a
certified false-discovery-rate estimate below a target, plus generators,
a rolling-Gaussian scorer, metrics, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .controllers import (ADDIS_FAMILY, LORD_FAMILY, ORACLE_RULES, RULES,
                          ControllerConfig, Decision, make_controller,
                          restore_controller, rescale_factor, threshold_floor)
from .forecaster import (SeriesFrame, ingest_csv, min_across_dims,
                         rolling_gaussian_pvalues, score_frame)
from .gamma import (DecayedGammaSequence, GammaSequence, decayed_gamma,
                    lord_gamma, power_gamma)
from .metrics import (DecisionLog, VerificationReport, mfdr_estimate, run_log,
                      summarize_log, verify_oracle_and_surplus)
from .simulation import (BurstConfig, FrontierConfig, GeneratorConfig, Stream,
                         SweepConfig, SweepResult, fixed_threshold_frontier,
                         generate_burst_stream, generate_stream, method_config,
                         run_sweep, to_pvalue)

__all__ = [
    "ADDIS_FAMILY", "LORD_FAMILY", "ORACLE_RULES", "RULES",
    "ControllerConfig", "Decision", "make_controller", "restore_controller",
    "rescale_factor", "threshold_floor",
    "SeriesFrame", "ingest_csv", "min_across_dims",
    "rolling_gaussian_pvalues", "score_frame",
    "DecayedGammaSequence", "GammaSequence", "decayed_gamma",
    "lord_gamma", "power_gamma",
    "DecisionLog", "VerificationReport", "mfdr_estimate", "run_log",
    "summarize_log", "verify_oracle_and_surplus",
    "BurstConfig", "FrontierConfig", "GeneratorConfig", "Stream",
    "SweepConfig", "SweepResult", "fixed_threshold_frontier",
    "generate_burst_stream", "generate_stream", "method_config", "run_sweep",
    "to_pvalue",
]
