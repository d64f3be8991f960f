"""The serve_mixed server process: one ``PlanServer`` worker on a Unix socket.

Usage: ``python3 perfbench/serve_child.py <socket path> <trace 0|1>``.

The load generator starts this as its own process so that the server's
dispatcher and supervisor threads never compete with the generator's
threads for the interpreter lock.  It prints ``READY`` once the worker is
listening and shuts the server down when its standard input closes, which
also happens if the generator dies.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from repro.serve import PlanServer  # noqa: E402
from repro.topology.machines import uniform_system  # noqa: E402


def main() -> int:
    path, trace = sys.argv[1], sys.argv[2] == "1"
    with PlanServer(uniform_system(8), num_workers=1, address=path,
                    enable_tracing=trace):
        print("READY", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
