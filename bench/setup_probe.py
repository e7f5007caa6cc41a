"""Set-up probe: a fresh interpreter's cost to get ready for a workload.

    python3 bench/setup_probe.py --plan PLAN.json [--trace 1]

Times ``import streamfdr`` plus building the gamma tables of the plan's
rules (with cold caches, since the interpreter is new) and prints one JSON
line.  With --trace 1 the layers are wrapped after the import, and the
gamma layer's share of the table build is reported as well.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(args.plan) as fh:
        rules = json.load(fh)["rules"]
    sys.path.insert(0, SRC)
    import streamfdr
    from streamfdr import controllers, simulation
    imported = time.perf_counter()
    if not os.path.abspath(streamfdr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"streamfdr imported from {streamfdr.__file__}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    for rule, lag in rules:
        controllers.make_controller(simulation.method_config(rule, lag=lag))
    done = time.perf_counter()
    out = {"setup_s": (imported - _STARTED) + (done - start),
           "import_s": imported - _STARTED, "tables_s": done - start}
    if tracer is not None:
        tracer.uninstall()
        out["gamma_s"] = tracer.layer_self()["gamma"]
        out["gamma_errors"] = tracer.errors["gamma"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
