"""plan_cold: a seeded stream of never-cached requests through PlannerService.

Each round plans the same seven single-op requests and three graph requests on
fresh services (default options: every replication factor, ``top_k=1``),
so every ``plan()`` runs the full pruned search and none is a cache hit.
The seed draws each request's raw dimensions inside a fixed signature
bucket (and the block-sparse mask and MoE routing), so the planner sees
seed-dependent inputs while the planned representatives, and therefore the
cost of a round, stay the same from seed to seed.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import run_ua_point, valid_replication_factors
from repro.bench.workloads import (
    attention_workload,
    block_sparse_workload,
    mlp1_workload,
    mlp2_workload,
    moe_workload,
)
from repro.core.config import ExecutionConfig
from repro.core.graph import attention_chain, mlp_chain
from repro.obs.tracing import Tracer
from repro.planner import PlannerService, enumerate_candidates, op_workload
from repro.planner.signature import bucket_dim
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import h100_system, pvc_system, uniform_system

from perfbench.common import (
    Outcome,
    check_graph_makespan,
    check_not_beaten,
    check_reproduces,
    mean,
    median,
    peak_rss_mib,
    quiesce,
    raw_note,
    recommendation_key,
    timed_in_refs,
)

MACHINES = {
    "pvc12": lambda: pvc_system(12),
    "uniform8": lambda: uniform_system(8),
    "h100x8": lambda: h100_system(8),
}

#: Candidates per single-op request re-simulated to check the winner: the
#: ones with the lowest occupancy bound (the likeliest winners) plus a
#: seeded random sample of the rest.
LIKELY_RIVALS = 3
SAMPLED_RIVALS = 3

#: MoE routing: a seeded permutation of fixed per-expert token counts, so
#: the routed total (and its bucket) never depends on the seed.
MOE_TOKENS = (96, 160, 224, 288, 352, 416, 480, 512)


def in_bucket(rng: random.Random, nominal: int) -> int:
    """A raw dimension drawn near ``nominal`` that shares its signature bucket."""
    corner = bucket_dim(nominal)
    members = [v for v in range(int(nominal * 0.9), int(nominal * 1.1) + 1)
               if bucket_dim(v) == corner]
    return rng.choice(members)


def make_requests(seed: int):
    """``(singles, graphs)``: lists of ``(machine name, workload or graph)``."""
    rng = random.Random(seed)
    tokens = list(MOE_TOKENS)
    rng.shuffle(tokens)
    singles = [
        ("pvc12", mlp1_workload(in_bucket(rng, 2048))),
        ("pvc12", mlp2_workload(in_bucket(rng, 2048))),
        ("uniform8", attention_workload(in_bucket(rng, 1024))),
        ("h100x8", attention_workload(in_bucket(rng, 1024))),
        ("pvc12", attention_workload(in_bucket(rng, 2048))),
        ("uniform8", block_sparse_workload(1024, 2048, 2048, 0.5, block_k=512,
                                           block_n=512, seed=rng.randrange(1 << 30))),
        ("h100x8", moe_workload(8, 512, 2048, 2048, expert_tokens=tokens)),
    ]
    graphs = [
        ("uniform8", mlp_chain(in_bucket(rng, 1024), 4096)),
        ("uniform8", attention_chain(in_bucket(rng, 1024), 128, 4096)),
        ("h100x8", mlp_chain(in_bucket(rng, 1024), 4096)),
    ]
    return singles, graphs


def _services(machines, tracer=None) -> Dict[str, PlannerService]:
    return {name: PlannerService(machine, tracer=tracer)
            for name, machine in machines.items()}


def setup(reps: int) -> Tuple[float, Dict]:
    """Median seconds to build the services and finish one warm-up plan."""
    times = []
    machines = None
    for _ in range(reps):
        started = time.perf_counter()
        machines = {name: build() for name, build in MACHINES.items()}
        services = _services(machines)
        # One small cold plan finishes the process's lazy set-up (first
        # NumPy paths, topology tables) before anything is timed.
        services["uniform8"].plan(attention_workload(512, head_dim=64))
        times.append(time.perf_counter() - started)
        for service in services.values():
            service.close()
    return median(times), machines


class _OpCounter:
    """Counts rows of every op table the batch evaluator compiles."""

    def __init__(self) -> None:
        self.ops = 0
        self._seen = set()
        self._original = BatchEvaluator.compile

    def __enter__(self):
        counter = self
        original = self._original

        def compile_counted(evaluator, candidate):
            program = original(evaluator, candidate)
            if id(program) not in counter._seen:
                counter._seen.add(id(program))
                counter.ops += program.num_ops
            return program

        BatchEvaluator.compile = compile_counted
        return self

    def __exit__(self, *_exc) -> None:
        BatchEvaluator.compile = self._original

    def reset(self) -> None:
        self._seen.clear()


def run(seed: int, seconds: float, trace: bool, setup_reps: int = 3) -> Outcome:
    outcome = Outcome()
    setup_s, machines = setup(setup_reps)
    singles, graphs = make_requests(seed)
    tracer = Tracer(max_spans=1_000_000) if trace else None

    single_ms: List[float] = []
    single_refs: List[float] = []
    graph_ms: List[float] = []
    graph_refs: List[float] = []
    rounds: List[Tuple[list, list]] = []
    phase_rows: List[Tuple[float, float, float, float, float]] = []
    round0_counts = None
    with _OpCounter() if trace else nullcontext() as counter:
        window_start = time.perf_counter()
        while True:
            services = _services(machines, tracer)
            quiesce()
            single_answers, graph_answers = [], []
            counts = [0, 0, 0, 0, 0]
            for name, workload in singles:
                if counter is not None:
                    counter.reset()
                    before = counter.ops
                outcome.attempted += 1
                try:
                    response, elapsed_ms, refs = timed_in_refs(
                        lambda: services[name].plan(workload))
                except Exception as error:  # a failed request is counted, not fatal
                    outcome.failed += 1
                    outcome.notes.append(f"plan {workload.name} failed: {error!r}")
                    single_answers.append(None)
                    continue
                elapsed = elapsed_ms / 1e3
                single_ms.append(elapsed_ms)
                single_refs.append(refs)
                if response.cache_hit or response.search_stats is None:
                    outcome.check(f"{workload.name} was served from cache")
                    single_answers.append(None)
                    continue
                single_answers.append(response)
                if trace:
                    stats = response.search_stats
                    phases = (stats.opgen_seconds, stats.bound_seconds,
                              stats.refine_seconds, stats.simulate_seconds)
                    residual = elapsed - sum(phases)
                    phase_rows.append(tuple(p * 1e3 for p in phases) + (residual * 1e3,))
                    outcome.notes.append(
                        f"cold plan {workload.name} on {name}: {elapsed * 1e3:.2f} ms, "
                        f"opgen {stats.opgen_seconds * 1e3:.2f} bound "
                        f"{stats.bound_seconds * 1e3:.2f} refine "
                        f"{stats.refine_seconds * 1e3:.2f} simulate "
                        f"{stats.simulate_seconds * 1e3:.2f}, unattributed "
                        f"{residual * 1e3:.3f} ms")
                    for i, value in enumerate((stats.num_candidates, stats.num_refined,
                                               stats.num_simulated, stats.num_pruned,
                                               counter.ops - before)):
                        counts[i] += value
            for name, graph in graphs:
                outcome.attempted += 1
                try:
                    response, elapsed_ms, refs = timed_in_refs(
                        lambda: services[name].plan_graph(graph))
                except Exception as error:
                    outcome.failed += 1
                    outcome.notes.append(f"plan_graph {graph.name} failed: {error!r}")
                    graph_answers.append(None)
                    continue
                graph_ms.append(elapsed_ms)
                graph_refs.append(refs)
                if response.cache_hit:
                    outcome.check(f"graph {graph.name} was served from cache")
                graph_answers.append(response)
            for service in services.values():
                service.close()
            rounds.append((single_answers, graph_answers))
            if round0_counts is None:
                round0_counts = counts
            if time.perf_counter() - window_start >= seconds:
                break

    _check(outcome, machines, singles, graphs, rounds, seed)

    outcome.notes += [raw_note("cold single-op plans", single_ms),
                      raw_note("cold graph plans", graph_ms)]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib(),
        "op_ref_p50": median(single_refs),
        "side_op_ref_p50": median(graph_refs),
    }
    if trace:
        spans = tracer.spans()
        lattice = [s.duration * 1e3 for s in spans if s.name == "graph.lattice"]
        solve = [s.duration * 1e3 for s in spans if s.name == "graph.solve"]
        columns = list(zip(*phase_rows))
        outcome.per_layer = {
            "search.opgen_ms": mean(columns[0]),
            "search.bound_ms": mean(columns[1]),
            "search.refine_ms": mean(columns[2]),
            "search.simulate_ms": mean(columns[3]),
            "search.residual_ms": mean(columns[4]),
            "search.candidates": round0_counts[0],
            "search.refined": round0_counts[1],
            "search.simulated": round0_counts[2],
            "search.pruned": round0_counts[3],
            "batch.ops_compiled": round0_counts[4],
            "graph.lattice_ms": mean(lattice),
            "graph.solve_ms": mean(solve),
        }
        outcome.trace_events = tracer.chrome_trace()["traceEvents"]
    return outcome


def _check(outcome: Outcome, machines, singles, graphs, rounds, seed: int) -> None:
    """Verify round 0 independently; later rounds must repeat it exactly."""
    first_singles, first_graphs = rounds[0]
    for answers, graph_answers in rounds[1:]:
        for i, response in enumerate(answers):
            if response is not None and first_singles[i] is not None and \
                    recommendation_key(response.recommendation) != \
                    recommendation_key(first_singles[i].recommendation):
                outcome.check(f"{singles[i][1].name} changed its answer between rounds")
        for i, response in enumerate(graph_answers):
            if response is not None and first_graphs[i] is not None and \
                    response.assignment != first_graphs[i].assignment:
                outcome.check(f"{graphs[i][1].name} changed its answer between rounds")

    rng = random.Random(seed ^ 0x5EED)
    config = ExecutionConfig(simulate_only=True)
    for (name, _), response in zip(singles, first_singles):
        if response is None:
            continue
        machine = machines[name]
        representative = response.signature.representative_workload()
        winner = response.recommendation
        point = run_ua_point(machine, representative, winner.scheme,
                             winner.replication, winner.stationary, config)
        outcome.check(check_reproduces(winner, point))
        candidates, _ = enumerate_candidates(
            machine, representative, machine.memory_capacity, ua_schemes(),
            valid_replication_factors(machine.num_devices), ("A", "B", "C"))
        bounds = BatchEvaluator(machine, representative, config) \
            .frontier_occupancy_bounds(candidates)
        ranked = sorted(range(len(candidates)), key=lambda i: (bounds[i], i))
        rest = [candidates[i] for i in ranked[LIKELY_RIVALS:]]
        rivals = [candidates[i] for i in ranked[:LIKELY_RIVALS]] + \
            rng.sample(rest, min(SAMPLED_RIVALS, len(rest)))
        for rival in rivals:
            point = run_ua_point(machine, representative, rival.scheme,
                                 rival.replication, rival.stationary, config)
            outcome.check(check_not_beaten(
                winner, f"{rival.scheme.name}{rival.replication}/{rival.stationary}",
                point))
    for (name, _), response in zip(graphs, first_graphs):
        if response is None:
            continue
        outcome.check(check_graph_makespan(response.makespan, response.greedy_makespan))
        for op, rec in zip(response.graph.ops, response.recommendations):
            point = run_ua_point(machines[name], op_workload(op), rec.scheme,
                                 rec.replication, rec.stationary, config)
            outcome.check(check_reproduces(rec, point))
