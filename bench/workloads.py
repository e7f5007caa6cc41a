"""The benchmark's workloads: seeded inputs, the operations a job runs, and
the reference each operation's output is checked against.

``prepare`` runs in the harness process before anything is timed.  It
writes the generated inputs and the reference into the run's work
directory, and returns the plan that ``job.py`` executes.  The ``check_*``
functions run in the job process after the timed loop.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import reference as ref

FIG4_METHODS = ("lord", "saffron", "addis", "lord-decay", "saffron-decay")
FIG4_PI1 = (1e-4, 1e-3, 1e-2, 1e-1, 0.5, 0.9)
#: the busy corner of the fig4 grid, used by the parallel-sweep diagnostic
BUSY_PI1 = (0.5, 0.9)
BUSY_GRID = {"full": {"length": 20_000, "reps": 2},
             "tiny": {"length": 1_000, "reps": 1}}

#: input sizes; "tiny" is the smoke-test scale
SIZES = {
    "detect-quiet": {"full": {"rows": 50_000}, "tiny": {"rows": 4_000}},
    "sweep-fig4": {"full": {"length": 20_000, "reps": 1},
                   "tiny": {"length": 1_000, "reps": 1}},
    "audit": {"full": {"rows": 100_000}, "tiny": {"rows": 3_000}},
}
WORKLOADS = tuple(SIZES)
QUIET_PI1 = 1e-3
AUDIT_WINDOW = 100
AUDIT_LAG = AUDIT_WINDOW


def _write_rows(path, header, rows):
    # floats are written with repr, as the program writes them
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _op(kind, argv, **extra):
    return {"kind": kind, "argv": argv, **extra}


def prepare(workload: str, seed: int, scale: str, workdir: str) -> dict:
    """Generate inputs and reference for one run; return the job plan."""
    size = SIZES[workload][scale]
    tables = ref.Tables()
    out = ["--output-dir", workdir]
    refs = {}
    if workload == "detect-quiet":
        n = size["rows"]
        p, is_alt = ref.mixture_stream(n, QUIET_PI1, seed)
        stream = os.path.join(workdir, "stream.csv")
        _write_rows(stream, ["t", "p", "label"],
                    zip(range(1, n + 1), map(repr, p.tolist()),
                        is_alt.astype(int).tolist()))
        alpha, rejected = ref.rule_log(p, "lord-decay", tables)
        refs.update(p=p, alpha=alpha, rejected=rejected)
        rules = [("lord-decay", 0)]
        ops = [_op("detect", out + ["detect", "--input", stream,
                                    "--method", "lord-decay",
                                    "--out", "dq{it}"], log="dq{it}")]
        rows_per_job = n
        latency = {"source": "p", "rules": rules}
    elif workload == "sweep-fig4":
        length, reps = size["length"], size["reps"]
        cells = {}
        for pi1 in FIG4_PI1:
            for rep in range(reps):
                p, is_alt = ref.mixture_stream(length, pi1, seed + rep)
                rows = {}
                for method in FIG4_METHODS:
                    alpha, rejected = ref.rule_log(p, method, tables)
                    rows[method] = ref.sweep_row(p, is_alt, alpha, rejected,
                                                 method)
                cells[f"{pi1!r}/{seed + rep}"] = rows
        with open(os.path.join(workdir, "ref_cells.json"), "w") as fh:
            json.dump(cells, fh)
        rules = [(m, 0) for m in FIG4_METHODS]
        ops = [_op("sweep", out + ["sweep", "--preset", "fig4",
                                   "--workers", "1", "--reps", str(reps),
                                   "--length", str(length),
                                   "--seed", str(seed), "--out", "sw{it}"],
                   raw="sw{it}.raw.csv", cells=len(cells))]
        rows_per_job = len(cells) * length * len(FIG4_METHODS)
        # the undecayed rules' state grows along the stream; time its last
        # quarter, where it holds up to ~19k live terms
        latency = {"source": "fig4", "rules": rules, "length": length,
                   "seeds": [seed], "warm_rows": length * 3 // 4}
    elif workload == "audit":
        n = size["rows"]
        values, is_alt = ref.labelled_series(n, seed)
        series = os.path.join(workdir, "series.csv")
        _write_rows(series, ["x0", "x1", "x2", "label"],
                    ([repr(a), repr(b), repr(c), lab] for (a, b, c), lab in
                     zip(values.tolist(), is_alt.astype(int).tolist())))
        p = ref.rolling_pvalues(values, AUDIT_WINDOW)
        alpha, rejected = ref.rule_log(p, "lord-dep-decay", tables, AUDIT_LAG)
        refs.update(p=p, alpha=alpha, rejected=rejected, is_alt=is_alt)
        rules = [("lord-dep-decay", AUDIT_LAG)]
        scores = os.path.join(workdir, "sc{it}.csv")
        ops = [
            _op("score", out + ["score", "--input", series, "--label-column",
                                "label", "--window", str(AUDIT_WINDOW),
                                "--out", "sc{it}"], scores="sc{it}.csv"),
            _op("detect", out + ["detect", "--input", scores,
                                 "--method", "lord-dep-decay",
                                 "--lag", str(AUDIT_LAG), "--out", "ad{it}"],
                log="ad{it}"),
            _op("verify", out + ["verify", "--input",
                                 os.path.join(workdir, "ad{it}.csv"),
                                 "--manifest",
                                 os.path.join(workdir, "ad{it}.manifest.json"),
                                 "--method", "scratch"]),
        ]
        rows_per_job = n
        latency = {"source": "p", "rules": rules}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if refs:
        np.savez(os.path.join(workdir, "ref.npz"), **refs)
    return {"workload": workload, "seed": seed, "scale": scale,
            "workdir": workdir, "rules": rules, "ops": ops,
            "rows_per_job": rows_per_job, "latency": latency,
            "busy_grid": dict(BUSY_GRID[scale], methods=FIG4_METHODS,
                              pi1_grid=BUSY_PI1, seed_base=seed)}


def fill(value, it: int):
    """Substitute the iteration number into an op's argv or output names."""
    if isinstance(value, list):
        return [fill(v, it) for v in value]
    return value.replace("{it}", str(it)) if isinstance(value, str) else value


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def check_decisions(plan, path, metrics_path) -> list:
    """Reject column, threshold and count checks for one decision log."""
    refs = np.load(os.path.join(plan["workdir"], "ref.npz"))
    cols = _read_csv(path)
    problems = []
    if cols["p"].size != refs["p"].size:
        return [f"{path}: {cols['p'].size} rows, expected {refs['p'].size}"]
    if ref.max_rel_diff(cols["p"], refs["p"]) > ref.RTOL:
        problems.append(f"{path}: p column differs from the input")
    rejected = cols["reject"].astype(bool)
    if not np.array_equal(rejected, refs["rejected"]):
        first = int(np.argmax(rejected != refs["rejected"])) + 1
        problems.append(f"{path}: reject column differs from the reference "
                        f"first at t={first}")
    diff = ref.max_rel_diff(cols["alpha"], refs["alpha"])
    if diff > ref.RTOL:
        problems.append(f"{path}: thresholds differ from the reference "
                        f"(max relative difference {diff:.3e})")
    with open(metrics_path) as fh:
        count = json.load(fh)["R"]
    if count != int(refs["rejected"].sum()):
        problems.append(f"{metrics_path}: R={count}, reference "
                        f"{int(refs['rejected'].sum())}")
    return problems


def check_scores(plan, path) -> list:
    refs = np.load(os.path.join(plan["workdir"], "ref.npz"))
    cols = _read_csv(path)
    if cols["p"].size != refs["p"].size:
        return [f"{path}: {cols['p'].size} rows, expected {refs['p'].size}"]
    problems = []
    diff = ref.max_rel_diff(cols["p"], refs["p"])
    if diff > ref.RTOL:
        problems.append(f"{path}: p-values differ from the reference "
                        f"(max relative difference {diff:.3e})")
    if not np.array_equal(cols["label"].astype(bool), refs["is_alt"]):
        problems.append(f"{path}: label column differs from the input")
    return problems


def check_sweep(plan, path) -> tuple:
    """Per-cell problems of one sweep: (failed cells, notes)."""
    with open(os.path.join(plan["workdir"], "ref_cells.json")) as fh:
        cells = json.load(fh)
    got = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"{float(row['pi1'])!r}/{int(row['seed'])}"
            got.setdefault(key, {})[row["method"]] = row
    failed, notes = 0, []
    for key, expected in cells.items():
        bad = []
        for method, want in expected.items():
            row = got.get(key, {}).get(method)
            if row is None:
                bad.append(f"{method} missing")
                continue
            for name, value in want.items():
                if name in ("T", "R", "V"):
                    ok = int(row[name]) == value
                else:
                    ok = ref.close(float(row[name]), value)
                if not ok:
                    bad.append(f"{method} {name}={row[name]} "
                               f"reference {value!r}")
            if float(row["min_surplus"]) < -ref.SURPLUS_TOL:
                bad.append(f"{method} surplus certificate fails")
        if bad:
            failed += 1
            notes.append(f"cell {key}: " + "; ".join(bad))
    return failed, notes
