"""streamfdr benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Generates the workload's inputs and reference from the seed (untimed),
times set-up in fresh interpreters, runs the job in a child process for
about S seconds, checks every output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  Workloads, metrics and the known parallel-sweep defect
are described in bench/README.md.  --smoke runs every workload at a tiny
size, traced and untraced, and checks that every metric is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
JOB = os.path.join(BENCH, "job.py")

#: a run is cut off here, well inside the benchmark's 180 s limit
JOB_TIMEOUT_S = 150.0
#: the parallel diagnostic's workers=2 run is cut off here; on the current
#: code it sometimes takes ten times the serial time (see README.md)
PARALLEL_TIMEOUT_S = 20.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_child(args, timeout, stdout=subprocess.PIPE):
    """Run ``job.py`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen([sys.executable, JOB] + args, stdout=stdout,
                            env=_child_env(), start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return None, None
    _kill_group(proc)   # reap anything the child left behind
    return proc.returncode, out


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def machine_record() -> dict:
    import numpy as np
    import scipy
    blas = (np.show_config(mode="dicts") or {}).get(
        "Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads_after_numpy_import": threads,
    }


def _parallel_diagnostic(plan_path):
    """Time the busy grid serially and with two workers; never gated."""
    out = {}
    for workers, timeout in ((1, JOB_TIMEOUT_S), (2, PARALLEL_TIMEOUT_S)):
        start = time.perf_counter()
        code, text = _run_child(["parallel", "--plan", plan_path,
                                 "--workers", str(workers)], timeout)
        wall = time.perf_counter() - start
        if code is None:
            out[workers] = {"seconds": wall, "timed_out": True}
        elif code != 0:
            raise RuntimeError(f"parallel diagnostic failed (exit {code})")
        else:
            out[workers] = dict(json.loads(text.strip().splitlines()[-1]),
                                timed_out=False)
    serial, parallel = out[1]["seconds"], out[2]["seconds"]
    print(f"parallel diagnostic: workers=1 {serial:.3f} s, workers=2 "
          f"{parallel:.3f} s{' (cut off)' if out[2]['timed_out'] else ''}",
          file=sys.stderr)
    return {"simulation.serial_s": serial, "simulation.parallel_s": parallel,
            "simulation.parallel_speedup": serial / parallel,
            "simulation.parallel_cut_off": int(out[2]["timed_out"])}


def run_once(workload, seed, seconds, trace, scale="full"):
    """One benchmark run; returns the result object."""
    workdir = os.path.join(WORK, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        plan = workloads.prepare(workload, seed, scale, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        result_path = os.path.join(workdir, "job.json")
        code, _ = _run_child(["job", "--plan", plan_path, "--seconds",
                              str(seconds), "--trace", str(trace),
                              "--out", result_path], JOB_TIMEOUT_S,
                             stdout=subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"job child failed (exit {code})")
        with open(result_path) as fh:
            job = json.load(fh)
        setups = job["setup"]
        for note in job["notes"]:
            print(f"gate: {note}", file=sys.stderr)
        correct = job["ops_failed"] == 0
        if trace:
            metrics = dict(job["trace"])
            metrics["gamma.build_s"] = statistics.median(
                s["gamma_s"] for s in setups)
            metrics["gamma.errors"] += sum(s["gamma_errors"] for s in setups)
            metrics["trace.rows_per_s_ratio"] = (
                metrics["trace.rows_per_s"] / job["rows_per_s"])
            metrics.update(_parallel_diagnostic(plan_path))
            gap = metrics.pop("trace.accounting_gap_s")
            print(f"trace: self times + sampling + uncovered time differ from "
                  f"the job time by {gap:.3e} s per job", file=sys.stderr)
            if gap > 1e-3 * metrics["trace.job_s"]:
                correct = False
        else:
            metrics = {
                "rows_per_s": job["rows_per_s"],
                "step_p50_us": job["latency_us"]["p50"],
                "step_p99_us": job["latency_us"]["p99"],
                "peak_rss_mb": job["peak_rss_mb"],
                "setup_s": statistics.median(s["setup_s"] for s in setups),
            }
        detail = {"workload": workload, "seed": seed, "trace": trace,
                  "scale": scale, "rows_per_job": plan["rows_per_job"],
                  "op_s": job["op_s"],
                  "setup_s": [s["setup_s"] for s in setups],
                  "latency": job.get("latency_us"),
                  "threshold_rtol": workloads.ref.RTOL}
        print("detail: " + json.dumps(detail), file=sys.stderr)
        if trace:
            os.makedirs(WORK, exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(WORK, f"spans-{workload}.json"))
        return {"correct": correct, "attempted": job["ops"],
                "failed": job["ops_failed"],
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _with_units(metrics, units):
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units}


def smoke() -> int:
    e2e, layers = _declared_metrics()
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, units in ((0, e2e), (1, layers)):
            result = run_once(workload, 1, 0.5, trace, scale="tiny")
            missing = sorted(set(units) - set(result["metrics"]))
            good = result["correct"] and not missing and result["failed"] == 0
            ok &= good
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAIL'} ops={result['attempted']} "
                  f"failed={result['failed']}"
                  + (f" missing={missing}" if missing else ""))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "streamfdr", "__init__.py")):
        print(f"error: no program at {SRC}/streamfdr; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    e2e, layers = _declared_metrics()
    print("machine: " + json.dumps(machine_record()))
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    result["metrics"] = _with_units(result["metrics"],
                                    layers if args.trace else e2e)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
