"""Command-line harness wiring generators, scorers, rules, and metrics.

Subcommands
-----------
simulate  generate a labeled synthetic p-value stream (CSV: t,p,label)
score     turn a raw time-series CSV into a p-value stream (rolling scorer)
detect    run one decision rule over a p-value CSV (CSV: t,p,alpha,reject[,label])
sweep     run a preset: a grid (raw + aggregate CSVs), two bursts (a decision
          log per rule) or a frontier (one CSV), on its kind's settings only
verify    recompute oracle and surplus for a produced decision log
rerun     re-execute any command from its manifest, byte-identically

Every command writes a manifest JSON next to its outputs holding the fully
resolved configuration, input digests, and output digests; re-running from
the manifest reproduces the outputs bit for bit.  Exit codes: 0 success,
2 validation error, 3 I/O error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__, controllers, csvio, forecaster, metrics, simulation
from .controllers import ControllerConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_VERIFICATION = 4

OUTPUT_DIR_ENV = "STREAMFDR_OUTPUT_DIR"


class VerificationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# formatting / file helpers
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_csv(path, header, columns):
    """Write equal-length columns under ``header``."""
    with open(path, "w", newline="") as fh:
        csvio.write_columns(fh, header, columns)


def _write_rows(path, names, rows):
    """Write dict rows' values under ``names``."""
    _write_csv(path, names, [[row[name] for row in rows] for name in names])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(path, command: str, resolved: dict, inputs: dict,
                   outputs: dict):
    _write_json(path, {
        "tool": "streamfdr",
        "tool_version": __version__,
        "command": command,
        "resolved": resolved,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "outputs": {name: {"file": os.path.basename(str(p)),
                           "sha256": _sha256(p)}
                    for name, p in outputs.items()},
    })


def read_stream_csv(path):
    """Read a (t,p[,label]) CSV; label is 1 for anomalous rows.

    ``t`` counts 1, 2, 3, ... and ``p`` lies in [0, 1].  ``csvio.read_table``
    holds the rules for ``t`` and labels; a malformed row raises ValueError
    naming it (row 1 is the first data row).
    """
    with open(path, newline="") as fh:
        header = csvio.read_header(fh)
        if header[:2] != ["t", "p"]:
            raise ValueError(f"{path}: expected columns t,p[,label]")
        columns = [("t", 0, int), ("p", 1, float)]
        if "label" in header:
            columns.append(("label", header.index("label"), csvio.label))
        p, *label = csvio.read_table(fh, len(header), columns, 1,
                                     "indices must be gapless from 1")
    _check_p(path, p)
    return p, ~label[0] if label else None


def _check_p(path, p):
    """ValueError naming the first row whose p-value is not in [0, 1]."""
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0] + 1}: p-value must lie in "
                         f"[0, 1], got {float(p[bad[0]])!r}")


def read_decisions_csv(path) -> metrics.DecisionLog:
    """Read a (t,p,alpha,reject[,label]) decision log.

    ``t`` counts up by 1 from the first row's, which may exceed 1 (a resumed
    log starts after its snapshot), and ``p`` lies in [0, 1].  The rules for
    ``t``, ``reject`` and labels are ``csvio.read_table``'s; a malformed row
    raises ValueError naming it (row 1 is the first data row).
    """
    with open(path, newline="") as fh:
        header = csvio.read_header(fh)
        for col in ("t", "p", "alpha", "reject"):
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        columns = [(name, header.index(name), parse) for name, parse in (
            ("t", int), ("p", float), ("alpha", float), ("reject", csvio.flag),
            ("label", csvio.label)) if name in header]
        p, alpha, rejected, *label = csvio.read_table(
            fh, len(header), columns, None,
            "t must count up by 1 from a first t of 1 or more")
    _check_p(path, p)
    return metrics.DecisionLog(p=p, alpha=alpha, rejected=rejected,
                               is_null=~label[0] if label else None)


def _outpath(args, name: str) -> str:
    outdir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _config_params(config: ControllerConfig) -> dict:
    """The rule settings a manifest records; ``config_from_resolved`` reads
    them back."""
    params = config.scalar_params()
    params["method"] = params.pop("rule")
    del params["gamma_kind"], params["gamma_param"]
    return params


def _read_manifest(path) -> dict:
    """A manifest that records its resolved settings and its outputs."""
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a manifest")
    if not all(isinstance(o, dict)
               for o in _setting(manifest, "outputs", {}).values()):
        raise ValueError(f"{path}: manifest records an output that is not "
                         "an object")
    _setting(manifest, "resolved", {})
    return manifest


#: the types a manifest may give a value, by the type of its default
_TYPES = {float: (int, float), type(None): (int, float, type(None)),
          tuple: (list, tuple)}


class _OrNone:
    """The default of a setting that is None or has the type of ``of``,
    such as a path that may be absent."""

    def __init__(self, of):
        self.of = of


def _has_type(value, default) -> bool:
    """Whether ``value`` has the type of ``default`` by ``_TYPES`` (a
    list's items that of ``default[0]``)."""
    if isinstance(default, _OrNone):
        return value is None or _has_type(value, default.of)
    if type(value) not in _TYPES.get(type(default), (type(default),)):
        return False
    return not isinstance(value, list) or all(
        _has_type(item, default[0]) for item in value)


def _setting(record: dict, name: str, default):
    """``record[name]`` if it has the type of ``default`` (see
    ``_has_type``), else ValueError naming it."""
    if name not in record:
        raise ValueError(f"manifest records no {name!r}")
    value = record[name]
    if not _has_type(value, default):
        raise ValueError(f"manifest records {name!r} as {value!r}")
    return value


#: a path that may be absent, and a list of names that may be absent
_PATH, _NAMES = _OrNone(""), _OrNone(("",))


def config_from_resolved(resolved: dict) -> ControllerConfig:
    """Rebuild a controller config from manifest-resolved parameters."""
    from .gamma import GammaSequence
    rule = _setting(resolved, "method", "")
    params = {f.name: _setting(resolved, f.name, f.default)
              for f in fields(ControllerConfig) if f.name not in ("rule", "gamma")}
    # a sweep's decision logs record no gamma file
    path = (_setting(resolved, "gamma_file", _PATH)
            if "gamma_file" in resolved else None)
    gamma = GammaSequence.from_file(path) if path else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ControllerConfig(rule=rule, gamma=gamma, **params)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_simulate(resolved: dict, args) -> int:
    config = simulation.GeneratorConfig(
        **{f.name: _setting(resolved, f.name, f.default)
           for f in fields(simulation.GeneratorConfig)})
    prefix = _setting(resolved, "out", "")
    stream = simulation.generate_stream(config)
    csv_path = _outpath(args, f"{prefix}.csv")
    _write_csv(csv_path, ["t", "p", "label"],
               [np.arange(1, len(stream) + 1), stream.p, ~stream.is_null])
    manifest = _outpath(args, f"{prefix}.manifest.json")
    write_manifest(manifest, "simulate", resolved, {}, {"stream": csv_path})
    print(f"wrote {csv_path} ({len(stream)} rows, "
          f"{stream.n_alternatives} anomalies)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    resolved = {f.name: getattr(args, f.name)
                for f in fields(simulation.GeneratorConfig)}
    return _run_simulate(dict(resolved, out=args.out), args)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _run_score(resolved: dict, args) -> int:
    path = _setting(resolved, "input", "")
    columns = _setting(resolved, "columns", _NAMES)
    label_column = _setting(resolved, "label_column", _PATH)
    forward_fill = _setting(resolved, "forward_fill", False)
    window = _setting(resolved, "window", 0)
    sidedness = _setting(resolved, "sidedness", "")
    prefix = _setting(resolved, "out", "")
    frame = forecaster.ingest_csv(path, value_columns=columns,
                                  label_column=label_column,
                                  forward_fill=forward_fill)
    p = forecaster.score_frame(frame, window, sidedness)
    csv_path = _outpath(args, f"{prefix}.csv")
    t = np.arange(1, frame.n_rows + 1)
    if frame.labels is not None:
        _write_csv(csv_path, ["t", "p", "label"], [t, p, frame.labels])
        print(f"anomaly fraction: {frame.anomaly_fraction():.4%}")
    else:
        _write_csv(csv_path, ["t", "p"], [t, p])
    manifest = _outpath(args, f"{prefix}.manifest.json")
    write_manifest(manifest, "score", resolved, {"series": path},
                   {"pvalues": csv_path})
    print(f"wrote {csv_path} ({frame.n_rows} rows, {frame.n_dims} dims)")
    return EXIT_OK


def cmd_score(args) -> int:
    resolved = {
        "input": args.input,
        "columns": args.columns.split(",") if args.columns else None,
        "label_column": args.label_column,
        "window": args.window,
        "sidedness": args.sidedness,
        "forward_fill": args.forward_fill,
        "out": args.out,
    }
    return _run_score(resolved, args)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _detect_resolved(args) -> dict:
    from .gamma import GammaSequence
    gamma = GammaSequence.from_file(args.gamma_file) if args.gamma_file else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ControllerConfig(  # each flag has its field's name
            rule=args.method, gamma=gamma, **{
                f.name: getattr(args, f.name) for f in fields(ControllerConfig)
                if f.name not in ("rule", "gamma", "horizon")})
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return dict(_config_params(config), input=args.input, out=args.out,
                resume_from=args.resume_from, save_state=args.save_state,
                gamma_file=args.gamma_file)


def _run_detect(resolved: dict, args) -> int:
    path = _setting(resolved, "input", "")
    prefix = _setting(resolved, "out", "")
    resume_from = _setting(resolved, "resume_from", _PATH)
    save_state = _setting(resolved, "save_state", _PATH)
    gamma_file = _setting(resolved, "gamma_file", _PATH)
    config = config_from_resolved(resolved)
    p, is_null = read_stream_csv(path)
    if resume_from:
        with open(resume_from) as fh:
            controller = controllers.restore_controller(config, fh.read())
        offset = controller.t
    else:
        controller = controllers.make_controller(config)
        offset = 0
    log = metrics.run_log(controller, p, is_null=is_null)
    floor = controllers.threshold_floor(config)
    if floor > 0.0 and config.rule != "fixed":
        print(f"threshold floor {floor!r} "
              f"(rescale factor {controllers.rescale_factor(config)!r})")

    csv_path = _outpath(args, f"{prefix}.csv")
    header = ["t", "p", "alpha", "reject"]
    columns = [np.arange(offset + 1, offset + len(log) + 1), p, log.alpha,
               log.rejected]
    if is_null is not None:
        header.append("label")
        columns.append(~is_null)
    _write_csv(csv_path, header, columns)

    summary = metrics.summarize_log(log, config)
    footer_path = _outpath(args, f"{prefix}.metrics.json")
    _write_json(footer_path, summary)

    outputs = {"decisions": csv_path, "metrics": footer_path}
    if save_state:
        state_path = _outpath(args, save_state)
        with open(state_path, "w") as fh:
            fh.write(controller.snapshot())
            fh.write("\n")
        outputs["state"] = state_path
    manifest = _outpath(args, f"{prefix}.manifest.json")
    inputs = {"pvalues": path}
    if resume_from:
        inputs["state"] = resume_from
    if gamma_file:
        inputs["gamma"] = gamma_file
    write_manifest(manifest, "detect", resolved, inputs, outputs)
    print(f"wrote {csv_path} ({len(log)} rows, {int(log.rejected.sum())} "
          f"rejections)")
    return EXIT_OK


def cmd_detect(args) -> int:
    return _run_detect(_detect_resolved(args), args)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: the one table of sweep settings: SweepConfig's fields, defaults fig4's
_SETTINGS = {f.name: f.default for f in fields(simulation.SweepConfig)}
#: the settings of the burst stream and of its rules
_BURST = ("delta", "eta", "effect", "alternative", "sidedness", "seed_base")
#: the settings each kind of sweep runs on; it accepts and records no other
_KIND_SETTINGS = {"grid": tuple(_SETTINGS),
                  "burst": ("methods", "alpha", *_BURST),
                  "frontier": ("reps", "workers", *_BURST)}

#: each preset's kind, and the defaults it overrides
PRESETS = {
    "fig1": {"kind": "grid", "methods": ("lord", "saffron", "addis"),
             "pi1_grid": (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5, 0.9)},
    "fig4": {"kind": "grid"},
    "fig3": {"kind": "burst", "methods": ("saffron", "saffron-decay")},
    "fig6": {"kind": "frontier"},
}


def _parse_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in text.split("=", 1))
            out[key] = value if key == "preset" else _coerce_setting(key, value)
    return out


def _coerce_setting(name: str, text: str):
    """A config-file value as the type of the setting's default; a list is
    comma-separated."""
    if name not in _SETTINGS:
        raise ValueError(f"unknown sweep setting {name!r}")
    default = _SETTINGS[name]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(v.strip())
                         for v in text.split(",") if v.strip())
        return type(default)(text)
    except ValueError:
        raise ValueError(f"sweep setting {name}: cannot read {text!r}") from None


def _run_sweep(resolved: dict, args) -> int:
    kind = resolved.get("kind")
    if kind not in _KIND_SETTINGS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    # a rerun reads the kind's settings and no other key of its manifest
    settings = {name: _setting(resolved, name, _SETTINGS[name])
                for name in _KIND_SETTINGS[kind]}
    prefix = _setting(resolved, "out", "")
    resolved = dict(settings, kind=kind, preset=resolved.get("preset"),
                    out=prefix, config_file=resolved.get("config_file"))
    cfg = simulation.SweepConfig(**settings)
    burst = simulation.BurstConfig(effect=cfg.effect, alternative=cfg.alternative,
                                   sidedness=cfg.sidedness, seed=cfg.seed_base)
    outputs, failed_cells = {}, []
    if kind == "grid":
        result = simulation.run_sweep(cfg)
        failed_cells = result.errors
        for err in failed_cells:
            print(f"error: sweep cell pi1={err['pi1']} seed={err['seed']}: "
                  f"{err['error']}", file=sys.stderr)
        raw_path = _outpath(args, f"{prefix}.raw.csv")
        _write_rows(raw_path, simulation._RAW_COLUMNS, result.raw)
        agg_path = _outpath(args, f"{prefix}.agg.csv")
        _write_rows(agg_path, simulation._AGG_COLUMNS, result.aggregate)
        outputs = {"raw": raw_path, "aggregate": agg_path}
        print(f"wrote {raw_path} ({len(result.raw)} rows) and {agg_path} "
              f"({len(result.aggregate)} rows)")
    elif kind == "burst":
        stream = simulation.generate_burst_stream(burst)
        resolved["logs"] = {}
        for method, config in zip(cfg.methods, cfg.method_configs()):
            log = metrics.run_log(controllers.make_controller(config),
                                  stream.p, is_null=stream.is_null)
            path = _outpath(args, f"{prefix}.{method}.csv")
            _write_csv(path, ["t", "p", "alpha", "reject", "label"],
                       [np.arange(1, len(log) + 1), stream.p, log.alpha,
                        log.rejected, ~stream.is_null])
            outputs[method] = path
            resolved["logs"][os.path.basename(path)] = _config_params(config)
            print(f"wrote {path} ({int(log.rejected.sum())} rejections)")
    else:
        result = simulation.fixed_threshold_frontier(simulation.FrontierConfig(
            burst=burst, delta=cfg.delta, eta=cfg.eta, reps=cfg.reps,
            workers=cfg.workers))
        path = _outpath(args, f"{prefix}.frontier.csv")
        _write_rows(path, list(result.aggregate[0]), result.aggregate)
        outputs = {"frontier": path}
        print(f"wrote {path} ({len(result.aggregate)} rows)")
    manifest = _outpath(args, f"{prefix}.manifest.json")
    inputs = {"config": resolved["config_file"]} if resolved["config_file"] else {}
    write_manifest(manifest, "sweep", resolved, inputs, outputs)
    if failed_cells:
        print(f"error: {len(failed_cells)} sweep cell(s) failed",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _sweep_resolved(args) -> dict:
    settings = _parse_config_file(args.config) if args.config else {}
    preset = args.preset or settings.get("preset")   # the flag wins
    settings.pop("preset", None)
    if preset is None:
        raise ValueError("sweep needs --preset or a config file naming one")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"choose from {', '.join(sorted(PRESETS))}")
    flags = {"reps": args.reps, "length": args.length, "workers": args.workers,
             "seed_base": args.seed, "alpha": args.alpha, "delta": args.delta}
    settings.update((k, v) for k, v in flags.items() if v is not None)
    kind = PRESETS[preset]["kind"]
    for name in settings:
        if name not in _KIND_SETTINGS[kind]:
            raise ValueError(
                f"preset {preset} (a {kind} sweep) does not use {name}")
    defaults = {name: PRESETS[preset].get(name, _SETTINGS[name])
                for name in _KIND_SETTINGS[kind]}
    return dict(defaults, **settings, kind=kind, preset=preset, out=args.out,
                config_file=args.config)


def cmd_sweep(args) -> int:
    return _run_sweep(_sweep_resolved(args), args)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    metrics.check_verify_options(args.tol, args.method)
    manifest = _read_manifest(args.manifest)
    resolved, outputs = manifest["resolved"], manifest["outputs"]
    basename = os.path.basename(args.input)
    if manifest.get("command") == "detect":
        recorded = outputs.get("decisions", {})
    elif (manifest.get("command") == "sweep"
          and isinstance(resolved.get("logs"), dict)):
        resolved = resolved["logs"].get(basename)
        if not isinstance(resolved, dict):
            raise ValueError(
                f"manifest does not describe a decision log named {basename!r}")
        recorded = next((o for o in outputs.values()
                         if o.get("file") == basename), {"file": basename})
    else:
        raise ValueError("manifest does not describe a decision log")
    if recorded.get("file") != basename:
        raise ValueError(
            f"manifest mismatch: it records {recorded.get('file')!r}, "
            f"not {basename!r}")
    if not args.allow_modified and recorded.get("sha256") != _sha256(args.input):
        raise ValueError(
            "manifest mismatch: decision log digest differs from the "
            "manifest record (pass --allow-modified to verify anyway)")
    config = config_from_resolved(resolved)
    log = read_decisions_csv(args.input)
    report = metrics.verify_oracle_and_surplus(log, config, tol=args.tol,
                                               method=args.method)
    print(report.summary())
    if args.out:
        payload = {k: getattr(report, k) for k in (
            "rule", "steps", "min_surplus", "min_surplus_at", "max_oracle",
            "max_oracle_at", "oracle_bound", "consistent",
            "first_violation_at", "passed")}
        _write_json(_outpath(args, args.out), payload)
    if not report.passed:
        raise VerificationFailure(report.summary())
    return EXIT_OK


# ---------------------------------------------------------------------------
# rerun
# ---------------------------------------------------------------------------

def cmd_rerun(args) -> int:
    manifest = _read_manifest(args.manifest)
    command, resolved = manifest.get("command"), manifest["resolved"]
    runners = {"simulate": _run_simulate, "score": _run_score,
               "detect": _run_detect, "sweep": _run_sweep}
    if command not in runners:
        raise ValueError(f"cannot rerun command {command!r}")
    return runners[command](resolved, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfdr",
        description="online FDR control for streaming anomaly detection")
    parser.add_argument("--output-dir", default=None,
                        help=f"directory for outputs (default: "
                             f"${OUTPUT_DIR_ENV} or the working directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic p-value stream")
    p.add_argument("--length", type=int, default=20000)
    p.add_argument("--pi1", type=float, required=True,
                   help="anomaly proportion in [0,1]")
    p.add_argument("--alternative", choices=simulation.ALTERNATIVES,
                   default="mean")
    p.add_argument("--effect", type=float, default=3.0,
                   help="mean shift, or scale factor for --alternative scale")
    p.add_argument("--sidedness", choices=simulation.SIDEDNESS, default="two")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ma-lag", type=int, default=0,
                   help="moving-average order for locally dependent streams")
    p.add_argument("--out", default="stream")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("score", help="rolling-Gaussian p-values from a series CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--columns", default=None,
                   help="comma-separated value columns (default: all non-label)")
    p.add_argument("--label-column", default=None)
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--sidedness", choices=simulation.SIDEDNESS, default="two")
    p.add_argument("--forward-fill", action="store_true",
                   help="impute missing cells from the previous row")
    p.add_argument("--out", default="scores")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("detect", help="run one decision rule over a p-value CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=controllers.RULES)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--w0", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lag", type=int, default=0,
                   help="dependency lag for the lord-dep-* rules")
    p.add_argument("--dependence-correction", action="store_true",
                   help="divide thresholds by the harmonic number q(t)")
    p.add_argument("--lag-decay-exponent", action="store_true",
                   help="also delay the decay exponent by the lag "
                        "(larger thresholds, weaker certificate)")
    p.add_argument("--prune-epsilon", type=float, default=1e-12)
    p.add_argument("--gamma-file", default=None,
                   help="custom spending sequence, one weight per line")
    p.add_argument("--resume-from", default=None,
                   help="controller state snapshot to resume from")
    p.add_argument("--save-state", default=None,
                   help="write the final controller state to this file")
    p.add_argument("--out", default="decisions")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="run a preset or config-file experiment")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", default=None, help="key=value settings file")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", default="sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="recompute oracle/surplus for a log")
    p.add_argument("--input", required=True, help="decision CSV to verify")
    p.add_argument("--manifest", required=True)
    p.add_argument("--method", choices=("scratch", "recurrence"),
                   default="scratch")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--allow-modified", action="store_true",
                   help="skip the manifest digest check")
    p.add_argument("--out", default=None, help="also write a JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure:
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
