"""matmul_exec: ``universal_matmul`` on real float32 data over a seeded sweep.

One round calls every configuration of the sweep once: regular blocks,
``BlockCyclic`` and irregular CuPy-style ``CustomTiles`` splits, several
replication factors, every stationary choice, and both the DIRECT and IR
execution modes.  Eight configurations are small enough that the library's
per-op overhead dominates; three are large enough that BLAS does.  Odd
counts put each median inside one configuration's samples rather than in
the gap between two.  The seed
draws the operand values and the call order; shapes and splits stay fixed
so a round costs the same for every seed.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import repro.core.matmul as matmul_module
from repro.core.config import ExecutionConfig, ExecutionMode
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, BlockCyclic, ColumnBlock, CustomTiles, RowBlock
from repro.obs.tracing import Tracer
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system

from perfbench.common import (
    REF_ITERATIONS,
    Outcome,
    check_matmul,
    gflops_rate,
    matmul_reference,
    mean,
    median,
    peak_rss_mib,
    quiesce,
    raw_note,
    timed_in_refs,
)

DIRECT, IR = ExecutionMode.DIRECT, ExecutionMode.IR
#: Shapes of the BLAS-dominated configurations (reported as side_op_ref_p50).
LARGE = (1024, 1024, 1024)


#: Uneven cut points, as fractions of an extent, in the style of CuPy's
#: distributed-matmul index maps (for example rows ``[0, 60, 100]``).
#: They are fixed rather than seeded: the op count of a call depends on
#: how the three operands' cuts interleave, and a seeded cut would make
#: the cost of a round depend on the seed.
UNEVEN = {
    3: (0.3, 0.6),
    4: (0.14, 0.55, 0.7),
    5: (0.1, 0.35, 0.6, 0.85),
    6: (0.2, 0.3, 0.55, 0.7, 0.9),
}


def uneven(extent: int, tiles: int) -> List[int]:
    """Splits of ``extent`` into ``tiles`` uneven tiles on a 16-element grid."""
    return [0] + [16 * round(extent * f / 16) for f in UNEVEN[tiles]] + [extent]


def sweep(rng: random.Random) -> List[Tuple]:
    """``(shape, partitions A/B/C, replication, stationary, mode)`` per call,
    in a seeded order."""
    def custom(rows, cols, row_tiles, col_tiles):
        return CustomTiles(uneven(rows, row_tiles), uneven(cols, col_tiles))

    configs = [
        ((384, 384, 384), (RowBlock(), ColumnBlock(), Block2D()), (1, 1, 1), "C", DIRECT),
        ((384, 384, 384), (RowBlock(), ColumnBlock(), Block2D()), (1, 1, 1), "C", IR),
        ((256, 256, 256), (BlockCyclic((64, 64)), Block2D(), RowBlock()), (2, 1, 1), "A", DIRECT),
        ((384, 320, 256), (BlockCyclic((64, 64)), Block2D(), RowBlock()), (2, 1, 2), "B", IR),
        ((448, 384, 320), (custom(448, 320, 6, 5), custom(320, 384, 5, 4),
                           custom(448, 384, 4, 6)), (1, 1, 1), "C", DIRECT),
        ((448, 384, 320), (custom(448, 320, 5, 3), custom(320, 384, 3, 5),
                           custom(448, 384, 6, 4)), (2, 2, 1), "A", IR),
        ((256, 320, 256), (Block2D(), BlockCyclic((96, 64)), custom(256, 320, 4, 4)),
         (1, 1, 2), "B", DIRECT),
        ((448, 512, 448), (custom(448, 448, 3, 4), ColumnBlock(), BlockCyclic((64, 96))),
         (4, 1, 1), "C", IR),
        (LARGE, (RowBlock(), ColumnBlock(), Block2D()), (1, 1, 1), "C", DIRECT),
        (LARGE, (Block2D(), Block2D(), Block2D()), (1, 2, 1), "A", IR),
        (LARGE, (BlockCyclic((256, 256)), RowBlock(), ColumnBlock()), (1, 1, 1), "B", DIRECT),
    ]
    rng.shuffle(configs)
    return configs


@dataclass
class _Call:
    shape: Tuple[int, int, int]
    a: DistributedMatrix
    b: DistributedMatrix
    c: DistributedMatrix
    stationary: str
    config: ExecutionConfig
    dense_a: np.ndarray
    dense_b: np.ndarray


def build(configs, seed: int, tracer) -> List[_Call]:
    """Operand generation plus ``from_dense`` scatter for the whole sweep."""
    rng = np.random.default_rng(seed)
    runtime = Runtime(machine=uniform_system(8))
    calls = []
    for (m, n, k), (part_a, part_b, part_c), (rep_a, rep_b, rep_c), stationary, mode in configs:
        dense_a = rng.standard_normal((m, k), dtype=np.float32)
        dense_b = rng.standard_normal((k, n), dtype=np.float32)
        with tracer.span("dist.scatter"):
            a = DistributedMatrix.from_dense(runtime, dense_a, part_a, replication=rep_a,
                                             name="A")
        with tracer.span("dist.scatter"):
            b = DistributedMatrix.from_dense(runtime, dense_b, part_b, replication=rep_b,
                                             name="B")
        c = DistributedMatrix.create(runtime, (m, n), part_c, replication=rep_c, name="C")
        calls.append(_Call((m, n, k), a, b, c, stationary,
                           ExecutionConfig(mode=mode), dense_a, dense_b))
    return calls


def setup(reps: int, configs, seed: int, tracer) -> Tuple[float, List[_Call]]:
    """Median seconds of ``build`` over ``reps`` repetitions; keeps the last."""
    times = []
    calls = None
    for _ in range(reps):
        calls = None  # free the previous sweep before building the next
        started = time.perf_counter()
        calls = build(configs, seed, tracer)
        times.append(time.perf_counter() - started)
    return median(times), calls


class _LayerTimer:
    """Wraps the executors ``universal_matmul`` calls in spans, from outside."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved = []

    def _wrap(self, owner, attribute: str, span: str) -> None:
        original = getattr(owner, attribute)
        tracer = self.tracer

        def timed(*args, **kwargs):
            with tracer.span(span):
                return original(*args, **kwargs)

        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, timed)

    def __enter__(self):
        self._wrap(matmul_module, "generate_all_ops", "slicing.generate")
        self._wrap(matmul_module.DirectExecutor, "execute", "direct.execute")
        self._wrap(matmul_module, "lower_all_ranks", "lowering.lower")
        self._wrap(matmul_module.IRExecutor, "execute", "ir.execute")
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)


def run(seed: int, seconds: float, trace: bool, setup_reps: int = 3) -> Outcome:
    outcome = Outcome()
    configs = sweep(random.Random(seed))
    tracer = Tracer(enabled=trace, max_spans=1_000_000)
    setup_s, calls = setup(setup_reps, configs, seed, tracer)
    references = [matmul_reference(call.dense_a, call.dense_b) for call in calls]

    all_ms: List[float] = []
    all_refs: List[float] = []
    large_ms: List[float] = []
    large_refs: List[float] = []
    shapes: List[Tuple[int, int, int]] = []
    round0: Dict[str, int] = {}
    with _LayerTimer(tracer) if trace else nullcontext():
        window_start = time.perf_counter()
        while True:
            quiesce()
            totals = {"ops": 0, "get": 0, "acc": 0}
            for call, (reference, bound) in zip(calls, references):
                call.c.zero()
                outcome.attempted += 1
                try:
                    result, elapsed, refs = timed_in_refs(
                        lambda: matmul_module.universal_matmul(
                            call.a, call.b, call.c, stationary=call.stationary,
                            config=call.config),
                        REF_ITERATIONS)
                except Exception as error:
                    outcome.failed += 1
                    outcome.notes.append(f"universal_matmul {call.shape} failed: {error!r}")
                    continue
                all_ms.append(elapsed)
                all_refs.append(refs)
                shapes.append(call.shape)
                if call.shape == LARGE:
                    large_ms.append(elapsed)
                    large_refs.append(refs)
                totals["ops"] += result.total_ops
                totals["get"] += result.remote_get_bytes
                totals["acc"] += result.remote_accumulate_bytes
                with tracer.span("dist.gather"):
                    dense_c = call.c.to_dense()
                outcome.check(check_matmul(dense_c, reference, bound))
            if not round0:
                round0 = totals
            if time.perf_counter() - window_start >= seconds:
                break

    outcome.notes += [raw_note("universal_matmul calls", all_ms),
                      raw_note(f"{LARGE} calls", large_ms)]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib(),
        "op_ref_p50": median(all_refs),
        "side_op_ref_p50": median(large_refs),
    }
    if trace:
        per_span: Dict[str, List[float]] = {}
        for span in tracer.spans():
            per_span.setdefault(span.name, []).append(span.duration * 1e3)
        baseline = []
        for call in calls:
            started = time.perf_counter()
            call.dense_a @ call.dense_b
            baseline.append((time.perf_counter() - started) * 1e3)
        outcome.per_layer = {
            "slicing.generate_ms": mean(per_span["slicing.generate"]),
            "slicing.ops": round0["ops"],
            "direct.execute_ms": mean(per_span["direct.execute"]),
            "lowering.lower_ms": mean(per_span["lowering.lower"]),
            "ir.execute_ms": mean(per_span["ir.execute"]),
            "runtime.remote_get_bytes": round0["get"],
            "runtime.remote_accumulate_bytes": round0["acc"],
            "dist.scatter_ms": mean(per_span["dist.scatter"]),
            "dist.gather_ms": mean(per_span["dist.gather"]),
            "baseline.numpy_ms": mean(baseline),
            "matmul.gflops": gflops_rate(shapes, sum(all_ms) / 1e3),
        }
        outcome.trace_events = tracer.chrome_trace()["traceEvents"]
    return outcome
