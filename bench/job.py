"""Child process of the benchmark: runs the program and measures it.

Modes (each in a fresh interpreter started by ``run.py``):

  job       run the plan's operations in a loop for the given seconds through
            ``streamfdr.cli.main``, untraced and, with --trace, traced; run
            the latency pass and the set-up probes between jobs; then check
            every output
  parallel  time one ``run_sweep`` of the plan's busy grid with --workers N

The program is imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
import workloads
from tracer import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def program():
    """Import streamfdr from the checkout's ``src/``, refusing other copies."""
    sys.path.insert(0, SRC)
    import streamfdr
    from streamfdr import cli, controllers, simulation
    if not os.path.abspath(streamfdr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"streamfdr imported from {streamfdr.__file__}, "
                         f"not from {SRC}")
    return cli, controllers, simulation


def build_tables(controllers, simulation, rules):
    """Build the gamma tables of ``rules`` by constructing their controllers."""
    for rule, lag in rules:
        controllers.make_controller(simulation.method_config(rule, lag=lag))


def cmd_parallel(args, plan):
    _, controllers, simulation = program()
    grid = plan["busy_grid"]
    build_tables(controllers, simulation, [(m, 0) for m in grid["methods"]])
    cfg = simulation.SweepConfig(
        methods=grid["methods"], pi1_grid=grid["pi1_grid"],
        length=grid["length"], reps=grid["reps"], seed_base=grid["seed_base"],
        workers=args.workers)
    start = time.perf_counter()
    result = simulation.run_sweep(cfg)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "errors": len(result.errors),
                      "rows": len(result.raw)}))


# ---------------------------------------------------------------------------
# job
# ---------------------------------------------------------------------------

#: the latency pass is timed in blocks of at least this many calls, spread
#: over the run; 1000 leaves ten calls beyond each block's 99th percentile
BLOCK_CALLS = 1000
#: fresh-interpreter set-up runs per benchmark run, spread over the run
SETUP_RUNS = 5


class LatencyPass:
    """One closed-loop pass of ``controller.step`` over the workload's streams.

    Every stream is stepped by a fresh controller of every rule the workload
    runs, in lockstep (row by row), one caller waiting for each decision.
    The first ``warm_rows`` rows are stepped untimed, so that a workload
    whose state grows along the stream is timed where the state is large.
    The pass is cut into short blocks of about ``BLOCK_CALLS`` calls that
    run between job iterations, so that it samples the whole run.  A block
    lasts milliseconds, so it sits either inside or outside a spell in
    which the machine is slowed; each block yields its own 50th and 99th
    percentile, and the run reports the first quartile of each over the
    blocks.
    """

    def __init__(self, plan, controllers, simulation):
        spec = plan["latency"]
        if spec["source"] == "p":
            streams = [np.load(os.path.join(plan["workdir"], "ref.npz"))["p"]]
        else:
            streams = [reference.mixture_stream(spec["length"], pi1, seed)[0]
                       for pi1 in workloads.FIG4_PI1 for seed in spec["seeds"]]
        self.streams = streams
        ctrls = [controllers.make_controller(
            simulation.method_config(rule, lag=lag))
            for _ in streams for rule, lag in spec["rules"]]
        self.per_stream = len(spec["rules"])
        warm = spec.get("warm_rows", 0)
        for k, ctrl in enumerate(ctrls):
            for x in streams[k // self.per_stream][:warm].tolist():
                ctrl.step(x)
        self.steps = [ctrl.step for ctrl in ctrls]
        rows = -(-BLOCK_CALLS // len(ctrls))
        end = int(streams[0].size)
        # the last block takes the remainder, so no block is short
        self.bounds = list(range(warm, end - rows + 1, rows)) or [warm]
        self.bounds.append(end)
        self.done = 0
        self.p50, self.p99, self.calls = [], [], 0

    @property
    def blocks(self) -> int:
        return len(self.bounds) - 1

    def run_block(self):
        lo, hi = self.bounds[self.done], self.bounds[self.done + 1]
        lanes = [(step, self.streams[k // self.per_stream][lo:hi].tolist())
                 for k, step in enumerate(self.steps)]
        clock = time.perf_counter_ns
        samples = []
        for i in range(hi - lo):
            for step, values in lanes:
                x = values[i]
                start = clock()
                step(x)
                samples.append(clock() - start)
        us = np.asarray(samples, dtype=np.float64) / 1000.0
        self.p50.append(float(np.percentile(us, 50)))
        self.p99.append(float(np.percentile(us, 99)))
        self.calls += us.size
        self.done += 1


def _setup_probe(args, trace):
    proc = subprocess.run([sys.executable,
                           os.path.join(BENCH, "setup_probe.py"),
                           "--plan", args.plan, "--trace", str(trace)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_loop(cli, plan, budget, first_it, records, between=None):
    """Run whole jobs until the ops have taken ``budget`` seconds (at least
    one job).

    Returns the seconds of every op, per op of the job.  ``between(spent)``
    runs after each job, outside the timed ops.
    """
    op_seconds = [[] for _ in plan["ops"]]
    spent = 0.0
    it = first_it
    while it == first_it or spent < budget:
        for k, op in enumerate(plan["ops"]):
            argv = workloads.fill(op["argv"], it)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an op that crashes is a failed op
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            op_seconds[k].append(seconds)
            spent += seconds
            records.append({"op": op, "it": it, "code": code})
        it += 1
        if between is not None:
            between(spent)
    return op_seconds


def lower_quartile(values):
    """First quartile: the level a run's timings reach while the machine is
    not slowed by its neighbours (which can halve its speed for seconds at a
    time, so a run's median moves with the share of time it was slowed)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _rows_per_s(plan, op_seconds):
    """Rows of one job over the sum of each op's first-quartile seconds."""
    return plan["rows_per_job"] / sum(map(lower_quartile, op_seconds))


def _output_bytes(workdir, it, op):
    outs = [workloads.fill(v, it) for k, v in op.items()
            if k in ("log", "scores", "raw")]
    total = 0
    for name in os.listdir(workdir):
        stem = name.split(".")[0]
        if any(stem == o.split(".")[0] for o in outs):
            total += os.path.getsize(os.path.join(workdir, name))
    return total


def _check(cli, plan, records):
    """Correctness gate over every op run: (ops, failed ops, notes)."""
    workdir = plan["workdir"]
    ops = failed = 0
    notes = []
    for rec in records:
        op, it = rec["op"], rec["it"]
        if op["kind"] == "sweep":
            ops += op["cells"]
            if rec["code"] != 0:
                failed += op["cells"]
                notes.append(f"sweep it={it}: exit {rec['code']}")
                continue
            bad, cell_notes = workloads.check_sweep(
                plan, os.path.join(workdir, workloads.fill(op["raw"], it)))
            failed += bad
            notes += cell_notes
            continue
        ops += 1
        problems = []
        if rec["code"] != 0:
            problems.append(f"exit {rec['code']}")
        elif op["kind"] == "detect":
            log = os.path.join(workdir, workloads.fill(op["log"], it))
            problems += workloads.check_decisions(
                plan, log + ".csv", log + ".metrics.json")
            code = cli.main(["verify", "--input", log + ".csv",
                             "--manifest", log + ".manifest.json",
                             "--method", "recurrence"])
            if code != 0:
                problems.append(f"{log}.csv fails verify (exit {code})")
        elif op["kind"] == "score":
            problems += workloads.check_scores(
                plan, os.path.join(workdir, workloads.fill(op["scores"], it)))
        if problems:
            failed += 1
            notes.append(f"{op['kind']} it={it}: " + "; ".join(problems))
    return ops, failed, notes


def _trace_summary(tracer, plan, op_seconds):
    iters = len(op_seconds[0])
    job = float(sum(map(sum, op_seconds)))
    layer_self = tracer.layer_self()
    read_self = (tracer.self_time("read_stream_csv")
                 + tracer.self_time("read_decisions_csv"))
    cells = [s[5] - s[4] for s in tracer.by_name("_sweep_task")]
    uncovered = job - tracer.covered()
    accounted = sum(layer_self.values()) + tracer.sample_s + uncovered
    m = {
        "controllers.steps": tracer.steps / iters,
        "controllers.step_self_s": tracer.step_s / iters,
        "controllers.ns_per_step": (tracer.step_s / tracer.steps * 1e9
                                    if tracer.steps else 0.0),
        "controllers.live_terms_mean": (tracer.live_sum / tracer.live_samples
                                        if tracer.live_samples else 0.0),
        "controllers.live_terms_max": tracer.live_max,
        "metrics.run_log_self_s": tracer.self_time("run_log") / iters,
        "metrics.summarize_s": tracer.total("summarize_log") / iters,
        "metrics.verify_scratch_s": tracer.total(
            "verify_oracle_and_surplus[scratch]") / iters,
        "metrics.verify_recurrence_s": tracer.total(
            "verify_oracle_and_surplus[recurrence]") / iters,
        "simulation.generate_s": tracer.total("generate_stream") / iters,
        "simulation.cells": len(cells) / iters,
        "simulation.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "simulation.cell_s_max": max(cells) if cells else 0.0,
        "forecaster.ingest_s": tracer.total("ingest_csv") / iters,
        "forecaster.score_s": tracer.total("score_frame") / iters,
        "cli.read_s": read_self / iters,
        "cli.self_s": (layer_self["cli"] - read_self) / iters,
        "trace.job_s": job / iters,
        "trace.rows_per_s": _rows_per_s(plan, op_seconds),
        "trace.uncovered_s": uncovered / iters,
        "trace.sample_s": tracer.sample_s / iters,
        "trace.accounting_gap_s": abs(job - accounted) / iters,
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds / iters
        m[f"{layer}.errors"] = tracer.errors[layer]
    return m


def _bytes_read(records):
    total = 0
    for rec in records:
        argv = rec["op"]["argv"]
        if "--input" in argv:
            path = argv[argv.index("--input") + 1]
            total += os.path.getsize(workloads.fill(path, rec["it"]))
    return total


def cmd_job(args, plan):
    cli, controllers, simulation = program()
    build_tables(controllers, simulation, plan["rules"])
    records = []
    out = {}
    if args.trace:
        untraced = _run_loop(cli, plan, args.seconds / 2, 0, records)
        tracer = Tracer()
        traced_records = []
        tracer.install()
        try:
            traced = _run_loop(cli, plan, args.seconds / 2, len(untraced[0]),
                               traced_records)
        finally:
            tracer.uninstall()
        iters = len(traced[0])
        trace = _trace_summary(tracer, plan, traced)
        trace["cli.bytes_read"] = _bytes_read(traced_records) / iters
        trace["cli.bytes_written"] = sum(
            _output_bytes(plan["workdir"], r["it"], r["op"])
            for r in traced_records) / iters
        with open(os.path.join(plan["workdir"], "spans.json"), "w") as fh:
            json.dump({"columns": ["id", "parent", "layer", "name", "start",
                                   "end", "self"], "spans": tracer.spans}, fh)
        out["trace"] = trace
        records += traced_records
        out["setup"] = [_setup_probe(args, 1) for _ in range(SETUP_RUNS)]
    else:
        latency = LatencyPass(plan, controllers, simulation)
        setups = []

        def between(spent):
            # keep the latency blocks and set-up runs level with the job
            share = min(1.0, spent / args.seconds)
            while latency.done < round(share * latency.blocks):
                latency.run_block()
            while len(setups) < round(share * SETUP_RUNS):
                setups.append(_setup_probe(args, 0))

        untraced = _run_loop(cli, plan, args.seconds, 0, records, between)
        while latency.done < latency.blocks:
            latency.run_block()
        while len(setups) < SETUP_RUNS:
            setups.append(_setup_probe(args, 0))
        out["setup"] = setups
        out["latency_us"] = {"p50": lower_quartile(latency.p50),
                             "p99": lower_quartile(latency.p99),
                             "blocks": latency.blocks,
                             "calls": latency.calls}
    out["op_s"] = untraced
    out["rows_per_s"] = _rows_per_s(plan, untraced)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ops"], out["ops_failed"], out["notes"] = _check(cli, plan, records)
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("job", "parallel"))
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)
    {"job": cmd_job, "parallel": cmd_parallel}[args.mode](args, plan)


if __name__ == "__main__":
    main()
