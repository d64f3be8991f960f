"""serve_mixed: warm reads beside cold inserts on one PlanServer worker.

The server runs in its own process (``serve_child.py``) with one worker on a
Unix socket under ``perfbench/out``, on the generator's CPU (it inherits the
affinity ``run.py`` sets).  This process is a single load
generator with two threads, one connection each:

* the warm lane, an open loop every ``WARM_INTERVAL`` seconds, cycles a
  pre-warmed set of four single-op and two graph signatures;
* the cold lane, an open loop every ``COLD_INTERVAL`` seconds, sends
  never-seen single-op signatures of similar cost, so the worker plans cold
  for a minority of the wall time.

A round is one cold request plus the warm requests due in the same
interval; a run is ``ceil(seconds / COLD_INTERVAL)`` whole rounds, fixed
before the first send.  Every latency is timed from the request's due time.
The end-to-end metrics are the p50s of the warm single-op and the warm
graph requests that found the worker idle (``found_idle``): the warm hit
path itself, whatever share of requests the cold lane delays.  The cold
round trip, the warm p99 and the p50 of the warm requests due during a cold
plan (``due_during_cold``, head-of-line blocking) are printed as notes
lines and as the traced ``serve.warm_during_cold*`` metrics, but carry no
bound: they follow the cold plans' duration in the server process, which
drifted by 20-50% between runs on the shared reference host while the
reference loop beside it did not.  The tail of the idle requests moved by
a factor of four between runs.

Latencies are reported in refs (``common.ref_ms``).  The warm lane times a
short reference loop in the idle gap before every ``REF_EVERY``-th warm
request, when the server has long finished the previous one and no cold
request is in flight, and each latency is divided by the median of the
samples within ``REF_WINDOW`` seconds of its due time.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import (
    Workload,
    attention_workload,
    block_sparse_workload,
    mlp1_workload,
    moe_workload,
)
from repro.core.graph import OpGraph, attention_chain, mlp_chain
from repro.obs.tracing import Tracer
from repro.planner import PlannerService
from repro.serve import (
    FrameDecoder,
    PlanClient,
    RemoteGraphPlanResponse,
    RemotePlanResponse,
    encode_frame,
    graph_plan_response_payload,
    ok_response,
    plan_graph_request,
    plan_request,
    plan_response_payload,
)
from repro.topology.machines import uniform_system

from perfbench.common import (
    DueTimed,
    Outcome,
    check_same_plan,
    median,
    open_loop_due_times,
    peak_rss_mib,
    percentile,
    quiesce,
    raw_note,
    ref_ms,
    reference_loop,
)
from perfbench.plan_cold import in_bucket

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WARM_INTERVAL = 0.004
COLD_INTERVAL = 0.6
WARM_PER_ROUND = round(COLD_INTERVAL / WARM_INTERVAL)
#: The warm lane samples the ref before every ``REF_EVERY``-th request,
#: over ``REF_SAMPLE_ITERATIONS`` loop iterations after an untimed quarter
#: of them (about 0.55 ms together, 3% of the CPU), and only when at least
#: ``REF_GAP`` seconds remain before it is due.
REF_EVERY = 5
REF_SAMPLE_ITERATIONS = 5_000
REF_GAP = 0.002
#: Half-width, in seconds, of the span of ref samples a latency is divided by.
REF_WINDOW = 0.5
#: Cold-lane catalogue in a fixed order: a run plans its first ``rounds``
#: signatures, in a seeded order, so the set (and the cost of the lane)
#: never depends on the seed.
COLD_CATALOGUE = tuple((int(900 * 1.25 ** i), int(1500 * 1.25 ** j), int(1100 * 1.25 ** l))
                       for l in range(6) for i in range(5) for j in range(5))
#: Samples per in-process micro-measurement of one warm item.
MICRO_REPS = 200


def warm_set(rng: random.Random) -> List[object]:
    tokens = [40, 72, 104, 136, 168, 200, 232, 256]
    rng.shuffle(tokens)
    return [
        attention_workload(in_bucket(rng, 1024)),
        mlp1_workload(in_bucket(rng, 2048), hidden=512),
        moe_workload(8, 256, 1024, 1024, expert_tokens=tokens),
        block_sparse_workload(1024, 2048, 2048, 0.5, block_k=512, block_n=512,
                              seed=rng.randrange(1 << 30)),
        mlp_chain(in_bucket(rng, 512), 1024),
        attention_chain(in_bucket(rng, 512), 64, 1024),
    ]


def cold_set(rng: random.Random, count: int) -> List[Workload]:
    if count > len(COLD_CATALOGUE):
        raise ValueError(f"the cold catalogue holds fewer than {count} signatures")
    chosen = list(COLD_CATALOGUE[:count])
    rng.shuffle(chosen)
    return [Workload(name=f"cold{i}", m=in_bucket(rng, m), n=in_bucket(rng, n),
                     k=in_bucket(rng, k))
            for i, (m, n, k) in enumerate(chosen)]


def _send(client: PlanClient, item):
    if isinstance(item, OpGraph):
        return client.plan_graph(item)
    return client.plan(item)


class _Server:
    """One server process plus the two lane clients."""

    def __init__(self, trace: bool, tracer: Optional[Tracer]) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.sockdir = tempfile.mkdtemp(prefix="sock-", dir=OUT_DIR)
        # A relative path keeps the socket name under the AF_UNIX length
        # limit however deep the checkout is; both processes share the cwd.
        path = os.path.relpath(os.path.join(self.sockdir, "s"))
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_child.py"), path,
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.warm = self.cold = None
        if self.process.stdout.readline().strip() != "READY":
            self.close()
            raise RuntimeError("the plan server did not start")
        self.warm = PlanClient(path, pool_size=1, tracer=tracer)
        self.cold = PlanClient(path, pool_size=1, tracer=tracer)

    def close(self) -> None:
        for client in (self.warm, self.cold):
            if client is not None:
                client.close()
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        shutil.rmtree(self.sockdir, ignore_errors=True)


def setup(reps: int, items, trace: bool, tracer) -> Tuple[float, _Server, list]:
    """Median seconds from server spawn to a warmed cache; keeps the last."""
    times = []
    server = None
    for _ in range(reps):
        if server is not None:
            server.close()
        started = time.perf_counter()
        server = _Server(trace, tracer)
        try:
            prewarm = [_send(server.warm, item) for item in items]
        except BaseException:
            server.close()
            raise
        times.append(time.perf_counter() - started)
    return median(times), server, prewarm


def _lane(client, items, due_times, records, responses, errors, cold_in_flight,
          ref_samples=None) -> None:
    """One open-loop lane.  The cold lane (``ref_samples`` None) flags its
    requests in flight; the warm lane samples the ref while none is."""
    for i, due in enumerate(due_times):
        item = items[i % len(items)]
        if ref_samples is not None and i % REF_EVERY == 0:
            _sample_ref(due, cold_in_flight, ref_samples)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        if ref_samples is None:
            cold_in_flight.set()
        try:
            response = _send(client, item)
        except Exception as error:  # a lost request is counted as failed
            errors.append(f"{getattr(item, 'name', item)}: {error!r}")
            continue
        finally:
            if ref_samples is None:
                cold_in_flight.clear()
        records.append(DueTimed(due, sent, time.perf_counter()))
        responses.append((i, response))


def _sample_ref(due: float, cold_in_flight: threading.Event, samples: list) -> None:
    """Time one ref just before ``due`` if the server is idle until then."""
    wait = due - REF_GAP / 2 - time.perf_counter()
    if wait < REF_GAP / 2 or cold_in_flight.is_set():
        return
    time.sleep(wait)
    # An untimed pass first: the loop's code and the interpreter's state
    # come back into the caches the server process used meanwhile.
    reference_loop(REF_SAMPLE_ITERATIONS // 4)
    at = time.perf_counter()
    value = ref_ms(REF_SAMPLE_ITERATIONS)
    if not cold_in_flight.is_set() and time.perf_counter() < due:
        samples.append((at, value))


def found_idle(warm_records: List[DueTimed],
               cold_records: List[DueTimed]) -> List[int]:
    """Positions of the warm requests that found the worker idle: the
    previous warm request had returned by their due time, and no cold
    request was in flight at any moment between their due time and their
    answer."""
    idle = []
    previous_done = float("-inf")
    for position, record in enumerate(warm_records):
        if previous_done <= record.due and not any(
                cold.sent < record.done and cold.done > record.due
                for cold in cold_records):
            idle.append(position)
        previous_done = record.done
    return idle


def due_during_cold(warm_records: List[DueTimed],
                    cold_records: List[DueTimed]) -> List[DueTimed]:
    """The warm requests that came due while a cold request was in flight."""
    return [record for record in warm_records
            if any(cold.sent <= record.due <= cold.done for cold in cold_records)]


def in_refs(records: List[DueTimed], samples: List[Tuple[float, float]]) -> List[float]:
    """Each record's latency divided by the median ref sampled within
    ``REF_WINDOW`` seconds of its due time (the nearest sample if none is)."""
    samples = sorted(samples)
    times = [at for at, _ in samples]
    out = []
    for record in records:
        lo = bisect.bisect_left(times, record.due - REF_WINDOW)
        hi = bisect.bisect_right(times, record.due + REF_WINDOW)
        if lo == hi:
            nearest = min(range(len(times)), key=lambda j: abs(times[j] - record.due))
            lo, hi = nearest, nearest + 1
        out.append(record.latency * 1e3 / median([v for _, v in samples[lo:hi]]))
    return out


def _same_answer(served, reference) -> Optional[str]:
    error = check_same_plan(served.recommendations, reference.recommendations)
    if error is None and isinstance(served, RemoteGraphPlanResponse) and (
            tuple(served.assignment) != tuple(reference.assignment)
            or served.makespan != reference.makespan):
        error = f"served graph plan {served.assignment} differs from reference"
    return error


def _micro_us(fn, reps: int = MICRO_REPS) -> float:
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples) * 1e6


def _decode(frame: bytes, graph: bool):
    result = FrameDecoder().feed(frame)[0]["result"]
    return (RemoteGraphPlanResponse if graph else RemotePlanResponse).from_dict(result)


def run(seed: int, seconds: float, trace: bool, setup_reps: int = 3) -> Outcome:
    rng = random.Random(seed)
    items = warm_set(rng)
    rounds = max(1, math.ceil(seconds / COLD_INTERVAL))
    colds = cold_set(rng, rounds)
    outcome = Outcome()
    tracer = Tracer(max_spans=1_000_000) if trace else None
    setup_s, server, prewarm = setup(setup_reps, items, trace, tracer)
    warm_records: List[DueTimed] = []
    cold_records: List[DueTimed] = []
    warm_responses: List[Tuple[int, object]] = []
    cold_responses: List[Tuple[int, object]] = []
    errors: List[str] = []
    ref_samples: List[Tuple[float, float]] = []
    cold_in_flight = threading.Event()
    try:
        quiesce()
        start = time.perf_counter() + 0.05
        lanes = [
            threading.Thread(target=_lane, args=(
                server.warm, items,
                open_loop_due_times(start, WARM_INTERVAL, rounds * WARM_PER_ROUND),
                warm_records, warm_responses, errors, cold_in_flight, ref_samples)),
            threading.Thread(target=_lane, args=(
                server.cold, colds, open_loop_due_times(start, COLD_INTERVAL, rounds),
                cold_records, cold_responses, errors, cold_in_flight)),
        ]
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
        window = max(r.done for r in warm_records + cold_records) - start
        pids = {response.pid for _, response in warm_responses + cold_responses}
        rss = max(peak_rss_mib(pid) for pid in pids)
    finally:
        server.close()

    outcome.attempted = rounds * (WARM_PER_ROUND + 1)
    outcome.failed = len(errors)
    outcome.notes.extend(f"lost request {error}" for error in errors)

    # Checks, outside the window: every answer against in-process planning.
    reference = PlannerService(uniform_system(8))
    answers = [reference.plan_graph(item) if isinstance(item, OpGraph)
               else reference.plan(item) for item in items]
    for item, served, want in zip(items, prewarm, answers):
        outcome.check(_same_answer(served, want))
    for i, served in warm_responses:
        outcome.check(_same_answer(served, answers[i % len(items)]))
        if not served.cache_hit:
            outcome.check(f"warm request {items[i % len(items)].name} missed the cache")
    for i, served in cold_responses:
        outcome.check(_same_answer(served, reference.plan(colds[i])))
        if served.cache_hit:
            outcome.check(f"cold request {colds[i].name} hit the cache")

    warm_ms = [r.latency * 1e3 for r in warm_records]
    idle = found_idle(warm_records, cold_records)
    idle_single = [warm_records[j] for j in idle
                   if not isinstance(items[warm_responses[j][0] % len(items)], OpGraph)]
    idle_graph = [warm_records[j] for j in idle
                  if isinstance(items[warm_responses[j][0] % len(items)], OpGraph)]
    lateness = [r.lateness * 1e3 for r in warm_records + cold_records]
    outcome.notes.append(
        f"warm lane: {len(warm_ms)} requests, ms at p10/p25/p50/p75/p90/p99: "
        + "/".join(f"{percentile(warm_ms, q):.3f}" for q in (10, 25, 50, 75, 90, 99))
        + f"; generator lateness p50 "
        f"{median(lateness):.3f} ms, p99 {percentile(lateness, 99):.3f} ms, "
        f"max {max(lateness):.3f} ms; {len(ref_samples)} ref samples, median "
        f"{median([v for _, v in ref_samples]):.4f} ms; served "
        f"{(len(warm_records) + len(cold_records)) / window:.2f} requests/s; "
        f"{len(idle)} warm requests found the worker idle")
    outcome.notes.append(raw_note("cold lane", [r.latency * 1e3 for r in cold_records]))
    outcome.notes.append(raw_note("warm requests due during a cold plan", [
        r.latency * 1e3 for r in due_during_cold(warm_records, cold_records)]))
    outcome.notes.append(raw_note("cold lane, server-reported planning time",
                                  [response.planning_time * 1e3
                                   for _, response in cold_responses]))
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "op_ref_p50": median(in_refs(idle_single, ref_samples)),
        "side_op_ref_p50": median(in_refs(idle_graph, ref_samples)),
    }
    if trace:
        outcome.per_layer = _layers(reference, items, warm_records, warm_responses,
                                    cold_records)
        outcome.trace_events = tracer.chrome_trace()["traceEvents"]
    reference.close()
    return outcome


def _layers(reference, items, warm_records, warm_responses,
            cold_records) -> Dict[str, float]:
    """Per-hop split of the warm round trip, measured item by item."""
    hit, key, encode, decode = [], [], [], []
    for item in items:
        graph = isinstance(item, OpGraph)
        if graph:
            hit.append(_micro_us(lambda: reference.plan_graph(item)))
            key.append(_micro_us(lambda: reference.graph_signature_for(item).key()))
            encode.append(_micro_us(lambda: encode_frame(plan_graph_request(item))))
            payload = graph_plan_response_payload(reference.plan_graph(item), 0, 0)
        else:
            hit.append(_micro_us(lambda: reference.plan(item)))
            key.append(_micro_us(lambda: reference.signature_for(item).key()))
            encode.append(_micro_us(lambda: encode_frame(plan_request(item))))
            payload = plan_response_payload(reference.plan(item), 0, 0)
        frame = encode_frame(ok_response(payload))
        decode.append(_micro_us(lambda: _decode(frame, graph)))
    rtt_us = median([r.latency for r in warm_records]) * 1e6
    server_us = median([response.planning_time for _, response in warm_responses]) * 1e6
    during = [r.latency * 1e3 for r in due_during_cold(warm_records, cold_records)]
    return {
        "service.warm_hit_us": median(hit),
        "signature.key_us": median(key),
        "protocol.encode_us": median(encode),
        "protocol.decode_us": median(decode),
        "serve.server_plan_us": server_us,
        "serve.unattributed_us": rtt_us - median(encode) - median(decode) - server_us,
        "serve.warm_during_cold": len(during),
        "serve.warm_during_cold_ms_p50": median(during) if during else 0.0,
    }
