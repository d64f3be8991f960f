"""Tests of the benchmark's own arithmetic and correctness checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import os
import random
import sys

import numpy as np
import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import common  # noqa: E402
from perfbench.matmul_exec import UNEVEN, uneven  # noqa: E402
from perfbench.plan_cold import in_bucket  # noqa: E402
from perfbench.serve_mixed import (  # noqa: E402
    cold_set,
    due_during_cold,
    found_idle,
    in_refs,
    warm_set,
)
from repro.bench.sweep import run_ua_point  # noqa: E402
from repro.bench.workloads import Workload  # noqa: E402
from repro.core.config import ExecutionConfig  # noqa: E402
from repro.core.graph import OpGraph  # noqa: E402
from repro.planner import PlannerService  # noqa: E402
from repro.planner.signature import bucket_dim  # noqa: E402
from repro.topology.machines import uniform_system  # noqa: E402


# ------------------------------------------------------------------ #
# percentiles and open-loop latency
# ------------------------------------------------------------------ #
def test_percentile_matches_numpy_linear():
    rng = random.Random(7)
    for size in (1, 2, 3, 10, 101):
        values = [rng.uniform(0, 100) for _ in range(size)]
        for q in (0, 10, 50, 90, 99, 100):
            assert common.percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12, abs=1e-12)


def test_percentile_small_samples_exactly():
    assert common.median([3.0, 1.0, 2.0]) == 2.0
    assert common.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert common.percentile([0.0, 10.0], 90) == 9.0


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1.0], 101)


def test_due_time_latency_charges_a_stall_to_later_requests():
    due = common.open_loop_due_times(10.0, 1.0, 3)
    assert due == [10.0, 11.0, 12.0]
    # The first request stalls for 2.5 s; the next two go out late.
    first = common.DueTimed(due=10.0, sent=10.0, done=12.5)
    second = common.DueTimed(due=11.0, sent=12.5, done=12.6)
    third = common.DueTimed(due=12.0, sent=12.6, done=12.7)
    assert [r.latency for r in (first, second, third)] == pytest.approx([2.5, 1.6, 0.7])
    assert [r.lateness for r in (first, second, third)] == pytest.approx([0.0, 1.5, 0.6])


def test_lateness_is_never_negative():
    assert common.DueTimed(due=5.0, sent=4.9, done=5.2).lateness == 0.0


def test_due_times_reject_a_non_positive_interval():
    with pytest.raises(ValueError):
        common.open_loop_due_times(0.0, 0.0, 3)


# ------------------------------------------------------------------ #
# the reference clock
# ------------------------------------------------------------------ #
def test_ref_ms_is_per_ref_whatever_the_sample_length(monkeypatch):
    ticks = iter([0.0, 0.002])  # 2 ms for half a ref
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(ticks))
    assert common.ref_ms(common.REF_ITERATIONS // 2) == pytest.approx(4.0)


def test_timed_in_refs_divides_by_the_mean_of_the_refs_around_the_call(monkeypatch):
    # ref before: 0.0 -> 0.001; call: 0.001 -> 0.031; ref after: 0.031 -> 0.034
    ticks = iter([0.0, 0.001, 0.001, 0.031, 0.031, 0.034])
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(ticks))
    result, elapsed, refs = common.timed_in_refs(lambda: "answer", common.REF_ITERATIONS)
    assert result == "answer"
    assert elapsed == pytest.approx(30.0)
    assert refs == pytest.approx(30.0 / 2.0)


def test_timed_in_refs_lets_a_failure_through():
    def fail():
        raise RuntimeError("lost")
    with pytest.raises(RuntimeError):
        common.timed_in_refs(fail, 10)


def test_in_refs_uses_the_samples_near_each_due_time():
    samples = [(0.0, 1.0), (0.2, 1.0), (5.0, 2.0), (5.1, 2.0), (5.3, 4.0)]
    records = [common.DueTimed(due=0.1, sent=0.1, done=0.104),   # 4 ms at 1 ms/ref
               common.DueTimed(due=5.2, sent=5.2, done=5.208),   # 8 ms at 2 ms/ref
               common.DueTimed(due=9.0, sent=9.0, done=9.008)]   # only 5.3 is near
    assert in_refs(records, samples) == pytest.approx([4.0, 4.0, 2.0])


def test_found_idle_drops_requests_behind_a_cold_plan_or_a_backlog():
    cold = [common.DueTimed(due=1.0, sent=1.0, done=1.1)]
    warm = [common.DueTimed(due=0.90, sent=0.90, done=0.901),  # idle
            common.DueTimed(due=0.99, sent=0.99, done=1.02),   # cold starts meanwhile
            common.DueTimed(due=1.05, sent=1.05, done=1.106),  # due during the cold plan
            common.DueTimed(due=1.103, sent=1.106, done=1.107),  # backlog behind it
            common.DueTimed(due=1.20, sent=1.20, done=1.201)]  # idle again
    assert found_idle(warm, cold) == [0, 4]
    assert due_during_cold(warm, cold) == [warm[2]]


# ------------------------------------------------------------------ #
# flops accounting
# ------------------------------------------------------------------ #
def test_flops_counts_two_per_multiply_add():
    assert common.flops(2, 3, 4) == 48


def test_gflops_is_problem_flops_over_wall_time():
    assert common.gflops_rate([(1000, 1000, 1000)], 2.0) == pytest.approx(1.0)
    assert common.gflops_rate([(1000, 1000, 1000), (500, 1000, 1000)], 1.5) == \
        pytest.approx(2.0)
    with pytest.raises(ValueError):
        common.gflops_rate([(1, 1, 1)], 0.0)


# ------------------------------------------------------------------ #
# matmul check
# ------------------------------------------------------------------ #
def _operands(m=48, n=40, k=64, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, k), dtype=np.float32),
            rng.standard_normal((k, n), dtype=np.float32))


def test_matmul_check_accepts_a_float32_product():
    a, b = _operands()
    reference, bound = common.matmul_reference(a, b)
    assert common.check_matmul(a @ b, reference, bound) is None


def test_matmul_check_rejects_a_perturbed_block():
    a, b = _operands()
    reference, bound = common.matmul_reference(a, b)
    c = a @ b
    c[8:16, 16:24] += np.float32(1e-2)
    error = common.check_matmul(c, reference, bound)
    assert error is not None and "beyond tolerance" in error


def test_matmul_check_rejects_nan_and_wrong_shape():
    a, b = _operands()
    reference, bound = common.matmul_reference(a, b)
    c = a @ b
    c[0, 0] = np.nan
    assert common.check_matmul(c, reference, bound) is not None
    assert common.check_matmul((a @ b)[:-1], reference, bound) is not None


def test_matmul_tolerance_scales_with_k():
    a, b = _operands(k=16)
    _, small = common.matmul_reference(a, b)
    a2, b2 = np.tile(a, (1, 4)), np.tile(b, (4, 1))
    _, large = common.matmul_reference(a2, b2)
    # Four times the k and four times the |A||B| sum: sixteen times the bound.
    np.testing.assert_allclose(large, 16 * small, rtol=1e-12)


# ------------------------------------------------------------------ #
# planner checks
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def small_plan():
    machine = uniform_system(4)
    service = PlannerService(machine, top_k=10)
    response = service.plan(Workload(name="small", m=256, n=192, k=128))
    service.close()
    return machine, response


def _point(machine, response, rec):
    return run_ua_point(machine, response.signature.representative_workload(),
                        rec.scheme, rec.replication, rec.stationary,
                        ExecutionConfig(simulate_only=True))


def test_winner_reproduces_and_is_not_beaten(small_plan):
    machine, response = small_plan
    winner = response.recommendation
    assert common.check_reproduces(winner, _point(machine, response, winner)) is None
    for rival in response.recommendations[1:]:
        assert common.check_not_beaten(
            winner, "rival", _point(machine, response, rival)) is None


def test_swapped_recommendation_is_rejected(small_plan):
    machine, response = small_plan
    winner = response.recommendation
    runner_up = next(rec for rec in response.recommendations
                     if rec.simulated_time > winner.simulated_time)
    # The runner-up's layout presented with the winner's claimed time.
    swapped = dataclasses.replace(runner_up, simulated_time=winner.simulated_time)
    assert common.check_reproduces(swapped, _point(machine, response, swapped)) is not None
    # The runner-up presented as the winner is beaten by the true winner.
    assert common.check_not_beaten(
        runner_up, "winner", _point(machine, response, winner)) is not None


def test_served_plan_that_differs_is_rejected(small_plan):
    _, response = small_plan
    served = list(response.recommendations)
    assert common.check_same_plan(served, response.recommendations) is None
    served[0] = dataclasses.replace(served[0], stationary="A" if served[0].stationary != "A"
                                    else "B")
    assert common.check_same_plan(served, response.recommendations) is not None
    assert common.check_same_plan(served[:1], response.recommendations) is not None


def test_graph_makespan_check():
    assert common.check_graph_makespan(1.0, 1.0) is None
    assert common.check_graph_makespan(0.9, 1.0) is None
    assert common.check_graph_makespan(1.1, 1.0) is not None


# ------------------------------------------------------------------ #
# generated inputs
# ------------------------------------------------------------------ #
def test_in_bucket_keeps_the_signature_bucket():
    rng = random.Random(0)
    for nominal in (512, 1024, 2048):
        for _ in range(20):
            assert bucket_dim(in_bucket(rng, nominal)) == bucket_dim(nominal)


def test_cold_lane_signatures_are_distinct_and_never_warm():
    service = PlannerService(uniform_system(8))
    rng = random.Random(11)
    warm = {service.signature_for(item).key() for item in warm_set(rng)
            if not isinstance(item, OpGraph)}
    cold = [service.signature_for(w).key() for w in cold_set(rng, 150)]
    service.close()
    assert len(set(cold)) == len(cold)
    assert not warm & set(cold)


def test_uneven_splits_cover_the_extent():
    for tiles in UNEVEN:
        for extent in (320, 384, 448):
            splits = uneven(extent, tiles)
            assert splits[0] == 0 and splits[-1] == extent
            assert len(splits) == tiles + 1
            assert all(lo < hi for lo, hi in zip(splits, splits[1:]))
