"""Regenerate ``perfbench/REFERENCE.md``: reference figures for this host.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs every workload once untraced and once traced with the same seed, then
writes the end-to-end metrics, the traced run's end-to-end metrics and the
tracing overhead between the two, the untraced run's raw milliseconds, and
the per-layer split, together with the host facts the figures depend on.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_cold", "serve_mixed", "matmul_exec")
TRACED_PREFIX = "traced end-to-end: "
#: Per-layer metric prefixes each workload measures over its full window.
OWNED = {
    "plan_cold": ("search.", "batch.", "graph."),
    "serve_mixed": ("service.", "signature.", "protocol.", "serve."),
    "matmul_exec": ("slicing.", "direct.", "lowering.", "ir.", "runtime.", "dist.",
                    "baseline.", "matmul."),
}


def run(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    traced = next((json.loads(line[len(TRACED_PREFIX):]) for line in lines
                   if line.startswith(TRACED_PREFIX)), None)
    raw = [line for line in lines if "raw p50" in line or line.startswith("warm lane:")]
    return json.loads(lines[-1]), traced, raw


def host_facts() -> list:
    probe = ("import os; os.environ['OPENBLAS_NUM_THREADS'] = '1'; import numpy; "
             "print(numpy.__version__)")
    numpy_version = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                   text=True, check=True).stdout.strip()
    return [
        f"- `nproc`: {os.cpu_count()}",
        f"- Python {platform.python_version()}, NumPy {numpy_version}",
        "- BLAS threads: 1 (`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and "
        "`MKL_NUM_THREADS` are pinned before NumPy is imported)",
        f"- platform: {platform.platform()}",
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    out = ["# Reference figures", "",
           f"Generated by `python3 perfbench/report.py --seed {args.seed} "
           f"--seconds {args.seconds:g}`; one untraced and one traced run per "
           "workload.  Single runs on a shared host: read them as orders of "
           "magnitude, and compare commits only through repeated runs.", "",
           "## Host", ""] + host_facts()
    for workload in WORKLOADS:
        plain, _, raw = run(workload, args.seed, args.seconds, 0)
        traced, traced_e2e, _ = run(workload, args.seed, args.seconds, 1)
        out += ["", f"## {workload}", "",
                f"Untraced: correct={plain['correct']}, attempted={plain['attempted']}, "
                f"failed={plain['failed']}.", "",
                "| metric | untraced | traced | tracing overhead |",
                "| --- | --- | --- | --- |"]
        for name, metric in plain["metrics"].items():
            base, unit = metric["value"], metric["unit"]
            with_trace = traced_e2e.get(name)
            overhead = (f"{(with_trace / base - 1) * 100:+.1f}%"
                        if with_trace is not None and name != "setup_s" else "-")
            shown = f"{with_trace:.4g}" if with_trace is not None else "-"
            out.append(f"| `{name}` | {base:.4g} {unit} | {shown} | {overhead} |")
        out += ["", "Raw milliseconds of the untraced run:", ""]
        out += [f"- {line}" for line in raw]
        out += ["", "| per-layer metric | value |", "| --- | --- |"]
        out += [f"| `{name}` | {m['value']:.6g} {m['unit']} |"
                for name, m in traced["metrics"].items()
                if name.startswith(OWNED[workload])]
    path = os.path.join(HERE, "REFERENCE.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out) + "\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
