"""Arithmetic, checks and timing discipline shared by the three workloads.

Everything here is plain Python (plus NumPy for the matmul check) so that
``perfbench/tests`` can exercise it without a server or a planner.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Float32 unit roundoff (2**-24); the matmul tolerance scales it by k.
FLOAT32_UNIT_ROUNDOFF = 2.0 ** -24

#: Iterations of ``reference_loop`` that make one ``ref``, the unit of every
#: end-to-end latency (about 0.65-0.95 ms on the 2-CPU VM the reference
#: figures come from).
REF_ITERATIONS = 10_000


# --------------------------------------------------------------------- #
# the reference clock
# --------------------------------------------------------------------- #
def reference_loop(iterations: int) -> int:
    """A fixed piece of pure-Python work that never touches the program."""
    total = 0
    for i in range(iterations):
        total += i * i
    return total


def ref_ms(iterations: int = REF_ITERATIONS) -> float:
    """Milliseconds one ref takes on this CPU right now, timed over ``iterations``.

    The shared host's speed swings by up to 1.5x within seconds; an
    operation's time divided by the ref timed next to it is the operation's
    cost with that swing taken out.
    """
    started = time.perf_counter()
    reference_loop(iterations)
    return (time.perf_counter() - started) * 1e3 * REF_ITERATIONS / iterations


def timed_in_refs(fn: Callable[[], object],
                  iterations: int = 2 * REF_ITERATIONS) -> Tuple[object, float, float]:
    """``(result, milliseconds, refs)`` of one call to ``fn``.

    The ref is the mean of one timed just before and one just after the
    call, so a change of host speed during the call is split between them.
    An exception from ``fn`` propagates.
    """
    before = ref_ms(iterations)
    started = time.perf_counter()
    result = fn()
    elapsed = (time.perf_counter() - started) * 1e3
    after = ref_ms(iterations)
    return result, elapsed, elapsed / ((before + after) / 2.0)


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Matches NumPy's default ("linear") method: rank ``(n - 1) * q / 100``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def raw_note(label: str, values: Sequence[float]) -> str:
    """A notes line with the raw p50/p90 and count of a millisecond sample."""
    return (f"{label}: {len(values)} samples, raw p50 {median(values):.3f} ms, "
            f"p90 {percentile(values, 90):.3f} ms")


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def open_loop_due_times(start: float, interval: float, count: int) -> List[float]:
    """Send schedule of an open loop: request ``i`` is due at ``start + i*interval``."""
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    return [start + i * interval for i in range(count)]


@dataclass
class DueTimed:
    """One open-loop request's three instants (perf_counter seconds)."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Seconds from when the request was *due* to its answer.

        Timing from the due time, not the send time, charges a stall to
        every request scheduled behind it (no coordinated omission).
        """
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How late the generator sent it (0 when on time)."""
        return max(0.0, self.sent - self.due)


def flops(m: int, n: int, k: int) -> int:
    """Useful floating-point operations of one ``m x k @ k x n`` product."""
    return 2 * m * n * k


def gflops_rate(shapes: Sequence[Sequence[int]], seconds: float) -> float:
    """Sum of ``2*m*n*k`` over ``shapes`` divided by the wall time, in GFLOP/s.

    The numerator is the problem's flops, never the library's op count, so
    a change that issues fewer local ops can only read as faster.
    """
    if seconds <= 0:
        raise ValueError(f"wall time must be positive, got {seconds}")
    return sum(flops(m, n, k) for m, n, k in shapes) / seconds / 1e9


# --------------------------------------------------------------------- #
# correctness checks (each returns an error string, or None when correct)
# --------------------------------------------------------------------- #
def matmul_reference(a, b):
    """Float64 reference product and its elementwise float32 error bound.

    The bound is the standard ``|fl(AB) - AB| <= gamma_k |A||B|`` with
    ``gamma_k`` taken as ``2 k u`` for float32 roundoff ``u``, plus a tiny
    absolute floor for exact zeros.
    """
    import numpy as np

    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    k = a.shape[1]
    bound = 2.0 * k * FLOAT32_UNIT_ROUNDOFF * (np.abs(a64) @ np.abs(b64)) + 1e-30
    return a64 @ b64, bound


def check_matmul(c, reference, bound) -> Optional[str]:
    """Reject a product that leaves the float32 tolerance anywhere."""
    import numpy as np

    if c.shape != reference.shape:
        return f"C has shape {c.shape}, expected {reference.shape}"
    excess = np.abs(c.astype(np.float64) - reference) - bound
    worst = float(np.max(excess))
    if not worst <= 0.0:  # also catches NaN
        index = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return f"C{tuple(int(i) for i in index)} is off by {worst:.3e} beyond tolerance"
    return None


def recommendation_key(rec) -> tuple:
    """Everything a served recommendation must agree on, exactly."""
    return (rec.scheme.name, tuple(rec.replication), rec.stationary,
            rec.simulated_time, rec.percent_of_peak, rec.memory_per_device)


def check_same_plan(served: Sequence, reference: Sequence) -> Optional[str]:
    """Served recommendations must equal the reference ones, field by field."""
    got = [recommendation_key(rec) for rec in served]
    want = [recommendation_key(rec) for rec in reference]
    if got != want:
        return f"served plan {got} differs from reference {want}"
    return None


def check_reproduces(rec, point) -> Optional[str]:
    """A re-executed winner must reproduce its claimed modelled time exactly."""
    if point.simulated_time != rec.simulated_time:
        return (f"{rec.scheme.name}{tuple(rec.replication)}/{rec.stationary} "
                f"claims {rec.simulated_time!r} s, re-execution gives "
                f"{point.simulated_time!r} s")
    return None


def check_not_beaten(winner, label: str, point) -> Optional[str]:
    """No sampled candidate may model faster than the recommended winner."""
    if point.simulated_time < winner.simulated_time:
        return (f"candidate {label} models {point.simulated_time!r} s, faster "
                f"than the winner's {winner.simulated_time!r} s")
    return None


def check_graph_makespan(makespan: float, greedy_makespan: float) -> Optional[str]:
    """A joint plan may never be worse than the per-op greedy assignment."""
    if not makespan <= greedy_makespan:
        return f"joint makespan {makespan!r} exceeds greedy {greedy_makespan!r}"
    return None


# --------------------------------------------------------------------- #
# run bookkeeping
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)
    #: Chrome/Perfetto events of a traced run.
    trace_events: List[Dict[str, object]] = field(default_factory=list)

    def check(self, error: Optional[str]) -> None:
        """Record one correctness verdict (``None`` means correct)."""
        if error is not None:
            self.errors.append(error)


def quiesce() -> None:
    """Collect and freeze the heap so a timed window starts without GC debt."""
    gc.collect()
    gc.freeze()


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """High-water resident set size in MiB (this process, or ``pid``'s)."""
    if pid is None or pid == os.getpid():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
