"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json`` (Chrome/Perfetto format).
A traced run measures its own workload's layers over the full window and
the layers it bypasses from one round of the workload that owns them.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when every output checked correct, 1 when a check
failed, and 2 when the run could not start (for example without ``src/``).
"""

import os
import sys
import time

_STARTED = time.perf_counter()
# Pinned before NumPy is first imported, here and in the server process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_cold", "serve_mixed", "matmul_exec")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One CPU for the whole run, inherited by the plan server process: on a
    # shared 2-CPU VM the two CPUs ran at different, drifting speeds, and a
    # server hand-off across CPUs had to wake an idle one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import matmul_exec, plan_cold, serve_mixed
    import_s = time.perf_counter() - _STARTED
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    modules = {"plan_cold": plan_cold, "serve_mixed": serve_mixed,
               "matmul_exec": matmul_exec}

    outcome = modules[args.workload].run(args.seed, args.seconds, bool(args.trace))
    outcome.end_to_end["setup_s"] += import_s
    outcomes = [outcome]
    if args.trace:
        print("traced end-to-end: " + json.dumps(outcome.end_to_end, sort_keys=True))
        for name in WORKLOADS:
            if name != args.workload:
                probe = modules[name].run(args.seed, 0.0, True, setup_reps=1)
                for key, value in probe.per_layer.items():
                    outcome.per_layer.setdefault(key, value)
                outcomes.append(probe)
        _write_trace(args, outcomes)

    for item in outcomes:
        for line in item.notes:
            print(line)
        for error in item.errors:
            print(f"CHECK FAILED: {error}")
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    correct = not any(item.errors for item in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(item.attempted for item in outcomes),
        "failed": sum(item.failed for item in outcomes),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def _write_trace(args, outcomes) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    events = [event for item in outcomes for event in item.trace_events]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    print(f"trace written to {os.path.relpath(path)}")


if __name__ == "__main__":
    sys.exit(main())
