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
import functools
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict, fields
from typing import NamedTuple, Optional, Sequence

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


def _create(path, **kwargs):
    """``path`` opened for writing, its directory made if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", **kwargs)


def _write_csv(path, header, columns):
    """Write equal-length columns under ``header``."""
    with _create(path, newline="") as fh:
        csvio.write_columns(fh, header, columns)


def _write_rows(path, names, rows):
    """Write dict rows' values under ``names``."""
    _write_csv(path, names, [[row[name] for row in rows] for name in names])


def _write_json(path, payload):
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(args, command: str, table: dict, resolved: dict,
                   outputs: dict):
    """Write ``<out>.manifest.json``: the ``resolved`` settings of
    ``table``, and the digests of the files they name and of ``outputs``."""
    inputs = {s.digest: resolved[name] for name, s in table.items()
              if s.digest and resolved[name]}
    _write_json(_outpath(args, f"{resolved['out']}.manifest.json"), {
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
    return os.path.join(outdir, name)


def _check_outputs(outputs, inputs, source=None):
    """ValueError naming both paths if an output path is the same file as
    one of ``inputs`` or ``source``, or as the manifest beside ``source``
    (``<stem>.manifest.json``, which records where it came from)."""
    if source:
        inputs = [source, os.path.splitext(source)[0] + ".manifest.json",
                  *inputs]
    for out in outputs:
        for path in filter(None, inputs):
            try:
                same = os.path.samefile(out, path)
            except OSError:     # a missing output overwrites nothing
                continue
            if same:
                raise ValueError(f"output {out} would overwrite the input "
                                 f"{path}")


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


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

#: the types a manifest may give a value, by the type of its template
_TYPES = {float: (int, float), type(None): (int, float, type(None)),
          tuple: (list, tuple)}


class _OrNone(NamedTuple):
    """The template of a setting that is None or has the type of ``of``,
    such as a path that may be absent."""

    of: object


def _has_type(value, template) -> bool:
    """Whether ``value`` has the type of ``template`` by ``_TYPES`` (a
    list's items that of ``template[0]``)."""
    if isinstance(template, _OrNone):
        return value is None or _has_type(value, template.of)
    if type(value) not in _TYPES.get(type(template), (type(template),)):
        return False
    return not isinstance(value, list) or all(
        _has_type(item, template[0]) for item in value)


def _setting(record: dict, name: str, template):
    """``record[name]`` if it has the type of ``template`` (see
    ``_has_type``), else ValueError naming it."""
    if name not in record:
        raise ValueError(f"manifest records no {name!r}")
    value = record[name]
    if not _has_type(value, template):
        raise ValueError(f"manifest records {name!r} as {value!r}")
    return value


#: a path that may be absent, and a list of names that may be absent
_PATH, _NAMES = _OrNone(""), _OrNone(("",))


class Setting(NamedTuple):
    """A setting of a command: its flag ("" if no flag sets it), the template
    of its type and its flag's default (see ``_has_type``; None is a float
    or None), the flag's choices and help, and for a file read as an input
    the name of its digest in the manifest.

    Each command declares its settings once, in a table by name: its flags,
    the settings its manifest records and what a rerun or verify reads back
    all come from that table.
    """

    flag: str
    template: object
    choices: Optional[Sequence] = None
    help: Optional[str] = None
    required: bool = False
    digest: Optional[str] = None

    def flag_kwargs(self) -> dict:
        """The flag's action, or its default, type and choices."""
        t = self.template
        t = t.of if isinstance(t, _OrNone) else t
        if isinstance(t, bool):
            return {"action": "store_true"}
        return {"default": t if t is self.template else None,
                "choices": self.choices, "type": float if t is None
                else str if isinstance(t, tuple) else type(t)}


def _resolve(table: dict, args=None, record=None) -> dict:
    """The settings of ``table`` that a manifest's ``record`` records (a
    missing or mistyped one is a ValueError naming it), or else the values
    of its flags in ``args``, a list of names as comma-separated text in
    which no name may be empty."""
    if record is not None:
        return {name: _setting(record, name, s.template)
                for name, s in table.items()}
    values = {name: getattr(args, name) for name, s in table.items() if s.flag}
    for name, s in table.items():
        if s.template is _NAMES and values[name] is not None:
            names = values[name] = values[name].split(",")
            if not all(names):
                raise ValueError(
                    f"{s.flag}: empty name in {getattr(args, name)!r}")
    return values


_RULE = ControllerConfig   # a dataclass's class attributes are its defaults
#: the settings of a rule: ``method`` feeds ControllerConfig.rule, each
#: other its field of the same name
_RULE_SETTINGS = {
    "method": Setting("--method", "", controllers.RULES, required=True),
    "alpha": Setting("--alpha", _RULE.alpha),
    "delta": Setting("--delta", _RULE.delta),
    "eta": Setting("--eta", _RULE.eta),
    "w0": Setting("--w0", _RULE.w0),
    "lam": Setting("--lambda", _RULE.lam),
    "tau": Setting("--tau", _RULE.tau),
    "lag": Setting("--lag", _RULE.lag,
                   help="dependency lag for the lord-dep-* rules"),
    "dependence_correction": Setting(
        "--dependence-correction", _RULE.dependence_correction,
        help="divide thresholds by the harmonic number q(t)"),
    "lag_decay_exponent": Setting(
        "--lag-decay-exponent", _RULE.lag_decay_exponent,
        help="also delay the decay exponent by the lag "
             "(larger thresholds, weaker certificate)"),
    "prune_epsilon": Setting("--prune-epsilon", _RULE.prune_epsilon),
    "horizon": Setting("", _RULE.horizon),
}


def _config_params(config: ControllerConfig) -> dict:
    """The rule settings a manifest records; ``_config`` reads them back."""
    return {name: getattr(config, "rule" if name == "method" else name)
            for name in _RULE_SETTINGS}


def _config(values: dict, report: bool = False) -> ControllerConfig:
    """The controller config of a command's rule settings and its gamma
    file, if it has one; ``report`` prints its warnings."""
    from .gamma import GammaSequence
    path = values.get("gamma_file")
    gamma = GammaSequence.from_file(path) if path else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ControllerConfig(rule=values["method"], gamma=gamma, **{
            name: values[name] for name in _RULE_SETTINGS
            if name != "method" and name in values})
    for w in caught if report else ():
        print(f"warning: {w.message}", file=sys.stderr)
    return config


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_GENERATOR = simulation.GeneratorConfig
_SIMULATE = {
    "length": Setting("--length", _GENERATOR.length),
    "pi1": Setting("--pi1", _GENERATOR.pi1, required=True,
                   help="anomaly proportion in [0,1]"),
    "alternative": Setting("--alternative", _GENERATOR.alternative,
                           simulation.ALTERNATIVES),
    "effect": Setting("--effect", _GENERATOR.effect, help="mean shift, or "
                      "scale factor for --alternative scale"),
    "sidedness": Setting("--sidedness", _GENERATOR.sidedness,
                         simulation.SIDEDNESS),
    "seed": Setting("--seed", _GENERATOR.seed),
    "ma_lag": Setting("--ma-lag", _GENERATOR.ma_lag, help="moving-average "
                      "order for locally dependent streams"),
    "out": Setting("--out", "stream"),
}


def cmd_simulate(args, resolved=None) -> int:
    resolved = _resolve(_SIMULATE, args, resolved)
    settings = dict(resolved)
    prefix = settings.pop("out")
    stream = simulation.generate_stream(simulation.GeneratorConfig(**settings))
    csv_path = _outpath(args, f"{prefix}.csv")
    _write_csv(csv_path, ["t", "p", "label"],
               [np.arange(1, len(stream) + 1), stream.p, ~stream.is_null])
    write_manifest(args, "simulate", _SIMULATE, resolved, {"stream": csv_path})
    print(f"wrote {csv_path} ({len(stream)} rows, "
          f"{stream.n_alternatives} anomalies)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

_SCORE = {
    "input": Setting("--input", "", required=True, digest="series"),
    "columns": Setting("--columns", _NAMES, help="comma-separated value "
                       "columns (default: all non-label)"),
    "label_column": Setting("--label-column", _PATH),
    "window": Setting("--window", 100),
    "sidedness": _SIMULATE["sidedness"],
    "forward_fill": Setting("--forward-fill", False, help="impute missing "
                            "cells from the previous row"),
    "out": Setting("--out", "scores"),
}


def cmd_score(args, resolved=None) -> int:
    resolved = _resolve(_SCORE, args, resolved)
    path, prefix = resolved["input"], resolved["out"]
    csv_path = _outpath(args, f"{prefix}.csv")
    _check_outputs([csv_path, _outpath(args, f"{prefix}.manifest.json")], [],
                   source=path)
    frame = forecaster.ingest_csv(path, value_columns=resolved["columns"],
                                  label_column=resolved["label_column"],
                                  forward_fill=resolved["forward_fill"])
    p = forecaster.score_frame(frame, resolved["window"],
                               resolved["sidedness"])
    t = np.arange(1, frame.n_rows + 1)
    if frame.labels is not None:
        _write_csv(csv_path, ["t", "p", "label"], [t, p, frame.labels])
        print(f"anomaly fraction: {frame.anomaly_fraction():.4%}")
    else:
        _write_csv(csv_path, ["t", "p"], [t, p])
    write_manifest(args, "score", _SCORE, resolved, {"pvalues": csv_path})
    print(f"wrote {csv_path} ({frame.n_rows} rows, {frame.n_dims} dims)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

_DETECT = {
    "input": Setting("--input", "", required=True, digest="pvalues"),
    **_RULE_SETTINGS,
    "gamma_file": Setting("--gamma-file", _PATH, help="custom spending "
                          "sequence, one weight per line", digest="gamma"),
    "resume_from": Setting("--resume-from", _PATH, help="controller state "
                           "snapshot to resume from", digest="state"),
    "save_state": Setting("--save-state", _PATH, help="write the final "
                          "controller state to this file"),
    "out": Setting("--out", "decisions"),
}


def cmd_detect(args, resolved=None) -> int:
    fresh = resolved is None    # a rerun repeats the warnings silently
    resolved = _resolve(_DETECT, args, resolved)
    config = _config(resolved, report=fresh)
    if fresh:
        resolved.update(_config_params(config))
    path, prefix = resolved["input"], resolved["out"]
    resume_from, save_state = resolved["resume_from"], resolved["save_state"]
    csv_path = _outpath(args, f"{prefix}.csv")
    footer_path = _outpath(args, f"{prefix}.metrics.json")
    state_path = _outpath(args, save_state) if save_state else None
    inputs = [resolved["gamma_file"]]
    _check_outputs([csv_path, footer_path,
                    _outpath(args, f"{prefix}.manifest.json")],
                   [*inputs, resume_from], source=path)
    if state_path:   # it may rewrite the snapshot it resumes from
        _check_outputs([state_path], inputs, source=path)
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

    header = ["t", "p", "alpha", "reject"]
    columns = [np.arange(offset + 1, offset + len(log) + 1), p, log.alpha,
               log.rejected]
    if is_null is not None:
        header.append("label")
        columns.append(~is_null)
    _write_csv(csv_path, header, columns)

    _write_json(footer_path, metrics.summarize_log(log, config))

    outputs = {"decisions": csv_path, "metrics": footer_path}
    if state_path:
        with _create(state_path) as fh:
            fh.write(controller.snapshot())
            fh.write("\n")
        outputs["state"] = state_path
    write_manifest(args, "detect", _DETECT, resolved, outputs)
    print(f"wrote {csv_path} ({len(log)} rows, {int(log.rejected.sum())} "
          f"rejections)")
    return EXIT_OK


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

#: the sweep settings a flag overrides, by the flag's name
_SWEEP_FLAGS = {"reps": "reps", "length": "length", "workers": "workers",
                "seed": "seed_base", "alpha": "alpha", "delta": "delta"}
#: sweep's flags; one that overrides a setting is None unless given
_SWEEP = {
    "preset": Setting("--preset", _OrNone(""), sorted(PRESETS)),
    "config": Setting("--config", _PATH, help="key=value settings file",
                      digest="config"),
    **{flag: Setting("--" + flag, _OrNone(_SETTINGS[name]))
       for flag, name in _SWEEP_FLAGS.items()},
    "out": Setting("--out", "sweep"),
}
#: what a sweep manifest records besides its kind and the kind's settings
_SWEEP_RECORD = {"preset": _SWEEP["preset"], "out": _SWEEP["out"],
                 "config_file": _SWEEP["config"]}


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


def cmd_sweep(args, resolved=None) -> int:
    resolved = _sweep_resolved(args) if resolved is None else resolved
    kind = resolved.get("kind")
    if kind not in _KIND_SETTINGS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    # a rerun reads the kind's settings and no other key of its manifest
    settings = {name: _setting(resolved, name, _SETTINGS[name])
                for name in _KIND_SETTINGS[kind]}
    resolved = dict(settings, kind=kind,
                    **_resolve(_SWEEP_RECORD, record=resolved))
    prefix = resolved["out"]
    cfg = simulation.SweepConfig(**settings)
    names = {"grid": ("raw", "agg"), "burst": cfg.methods,
             "frontier": ("frontier",)}[kind]
    paths = {name: _outpath(args, f"{prefix}.{name}.csv") for name in names}
    _check_outputs([*paths.values(), _outpath(args, f"{prefix}.manifest.json")],
                   [resolved["config_file"]])
    burst = simulation.BurstConfig(effect=cfg.effect, alternative=cfg.alternative,
                                   sidedness=cfg.sidedness, seed=cfg.seed_base)
    outputs, failed_cells = {}, []
    if kind == "grid":
        result = simulation.run_sweep(cfg)
        failed_cells = result.errors
        for err in failed_cells:
            print(f"error: sweep cell pi1={err['pi1']} seed={err['seed']}: "
                  f"{err['error']}", file=sys.stderr)
        raw_path, agg_path = paths["raw"], paths["agg"]
        _write_rows(raw_path, simulation._RAW_COLUMNS, result.raw)
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
            path = paths[method]
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
        path = paths["frontier"]
        _write_rows(path, list(result.aggregate[0]), result.aggregate)
        outputs = {"frontier": path}
        print(f"wrote {path} ({len(result.aggregate)} rows)")
    write_manifest(args, "sweep", _SWEEP_RECORD, resolved, outputs)
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
    settings.update((name, getattr(args, flag))
                    for flag, name in _SWEEP_FLAGS.items()
                    if getattr(args, flag) is not None)
    kind = PRESETS[preset]["kind"]
    for name in settings:
        if name not in _KIND_SETTINGS[kind]:
            raise ValueError(
                f"preset {preset} (a {kind} sweep) does not use {name}")
    defaults = {name: PRESETS[preset].get(name, _SETTINGS[name])
                for name in _KIND_SETTINGS[kind]}
    return dict(defaults, **settings, kind=kind, preset=preset, out=args.out,
                config_file=args.config)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY = {
    "input": Setting("--input", "", required=True,
                     help="decision CSV to verify"),
    "manifest": Setting("--manifest", "", required=True),
    "method": Setting("--method", "scratch", ("scratch", "recurrence")),
    "tol": Setting("--tol", 1e-10),
    "allow_modified": Setting("--allow-modified", False,
                              help="skip the manifest digest check"),
    "out": Setting("--out", _PATH, help="also write a JSON report"),
}


def cmd_verify(args) -> int:
    metrics.check_verify_options(args.tol, args.method)
    report_path = _outpath(args, args.out) if args.out else None
    if report_path:
        _check_outputs([report_path], [args.manifest], source=args.input)
    manifest = _read_manifest(args.manifest)
    resolved, outputs = manifest["resolved"], manifest["outputs"]
    basename = os.path.basename(args.input)
    if manifest.get("command") == "detect":
        recorded, table = outputs.get("decisions", {}), _DETECT
    elif (manifest.get("command") == "sweep"
          and isinstance(resolved.get("logs"), dict)):
        resolved = resolved["logs"].get(basename)
        if not isinstance(resolved, dict):
            raise ValueError(
                f"manifest does not describe a decision log named {basename!r}")
        recorded = next((o for o in outputs.values()
                         if o.get("file") == basename), {"file": basename})
        table = _RULE_SETTINGS   # a sweep's logs record no gamma file
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
    config = _config(_resolve(table, record=resolved))
    log = read_decisions_csv(args.input)
    report = metrics.verify_oracle_and_surplus(log, config, tol=args.tol,
                                               method=args.method)
    print(report.summary())
    if report_path:
        _write_json(report_path, asdict(report))
    if not report.passed:
        raise VerificationFailure(report.summary())
    return EXIT_OK


# ---------------------------------------------------------------------------
# rerun
# ---------------------------------------------------------------------------

def cmd_rerun(args) -> int:
    """Run a manifest's command on the settings it records, not on flags."""
    manifest = _read_manifest(args.manifest)
    command = manifest.get("command")
    if command not in ("simulate", "score", "detect", "sweep"):
        raise ValueError(f"cannot rerun command {command!r}")
    return _COMMANDS[command][2](args, manifest["resolved"])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

#: each subcommand with a flag for each of its settings: help, settings, run
_COMMANDS = {
    "simulate": ("generate a synthetic p-value stream", _SIMULATE,
                 cmd_simulate),
    "score": ("rolling-Gaussian p-values from a series CSV", _SCORE,
              cmd_score),
    "detect": ("run one decision rule over a p-value CSV", _DETECT,
               cmd_detect),
    "sweep": ("run a preset or config-file experiment", _SWEEP, cmd_sweep),
    "verify": ("recompute oracle/surplus for a log", _VERIFY, cmd_verify),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="streamfdr",
        description="online FDR control for streaming anomaly detection")
    parser.add_argument("--output-dir", default=None,
                        help=f"directory for outputs (default: "
                             f"${OUTPUT_DIR_ENV} or the working directory)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, table, func) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, s in table.items():
            if s.flag:
                p.add_argument(s.flag, dest=name, required=s.required,
                               help=s.help, **s.flag_kwargs())
        p.set_defaults(func=func)
    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
