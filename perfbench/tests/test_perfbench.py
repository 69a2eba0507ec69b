"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import stats, workloads
from perfbench.tracer import Tracer
from perfbench.workloads import Inputs, Record, Request

ROOT = Path(__file__).resolve().parents[2]

#: Prints a small chat run's virtual metrics and every request's virtual
#: record as JSON.
_VIRTUAL_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench import stats, workloads
inputs = workloads.make_inputs("chat", 3, scale=0.1)
dep = workloads.build(inputs)
workloads.run(dep)
metrics, _ = stats.end_to_end(inputs, dep.records, dep.samples)
records = [dep.records[i].virtual() for i in sorted(dep.records)]
print(json.dumps({"metrics": metrics, "records": records, "now": dep.sim.now}))
"""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    first = workloads.make_inputs(name, 7, scale=0.25)
    again = workloads.make_inputs(name, 7, scale=0.25)
    other = workloads.make_inputs(name, 8, scale=0.25)
    assert first.requests == again.requests
    assert first.requests != other.requests
    if first.window is not None:
        assert all(r.due is not None for r in first.requests)
        assert [r.due for r in first.requests] == sorted(r.due for r in first.requests)


def test_chat_ladder_steps_hold_their_counts_and_class_mix():
    inputs = workloads.make_inputs("chat", 1)
    for step, ((rate, start, end), count) in enumerate(
        zip(inputs.steps, workloads.CHAT_STEP_REQUESTS)
    ):
        members = [r for r in inputs.requests if r.step == step]
        assert len(members) == count
        assert all(start <= r.due < end for r in members)
        assert count / (end - start) == pytest.approx(rate)
        interactive = sum(1 for r in members if len(r.turns[0]) == 16)
        assert interactive == round(0.6 * count)


def test_virtual_metrics_are_identical_across_processes():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", _VIRTUAL_RUN, str(ROOT)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["metrics"]["completed_share"] == 1.0


@pytest.mark.parametrize(
    "count, percentile",
    [(1000, 99.0), (999, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_tail_takes_the_highest_percentile_with_ten_samples_beyond(count, percentile):
    samples = [float(i) for i in range(count)]
    value, chosen, n = stats.tail(samples)
    assert (chosen, n) == (percentile, count)
    assert sum(1 for s in samples if s > value) >= stats.TAIL_MIN_BEYOND


def test_tail_refuses_a_sample_too_small_for_any_percentile():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def _request(index, phase, due=None):
    return Request(index=index, program="chat", turns=((1, 2),), decode=2,
                   ttft_limit_s=1.0, tpot_limit_s=1.0, due=due, phase=phase)


def _finished(due, done):
    return Record(status="finished", tokens=(1, 2), due=due, done=done,
                  turn_times=((due, due + 0.1, due + 0.2),))


def test_goodput_excludes_the_drain_tail_of_an_open_loop():
    requests = tuple(_request(i, "measure", due=1.0 + i / 10) for i in range(10))
    inputs = Inputs(name="t", seed=0, config=None, requests=requests, window=(1.0, 2.0))
    # The last request finishes long after the window: the drain.
    records = {r.index: _finished(r.due, r.due + (50.0 if r.index == 9 else 0.3))
               for r in requests}
    assert stats.goodput_rps(inputs, records) == pytest.approx(10.0)


def test_goodput_window_of_a_closed_loop_ends_at_the_drain_phase():
    phases = ["warm"] * 2 + ["measure"] * 6 + ["cool"] * 2
    requests = tuple(_request(i, phase) for i, phase in enumerate(phases))
    inputs = Inputs(name="t", seed=0, config=None, requests=requests, clients=2)
    records = {i: _finished(0.5 * i, 0.5 * i + 0.3) for i in range(len(phases))}
    # Measured submissions start at 1.0; the first drain-phase one is at 4.0.
    assert stats.measured_window(inputs, records) == (1.0, 4.0)
    assert stats.goodput_rps(inputs, records) == pytest.approx(6 / 3.0)


def test_a_failed_request_misses_its_limits():
    request = _request(0, "measure", due=0.0)
    assert stats.is_good(request, _finished(0.0, 0.3))
    assert not stats.is_good(request, Record(status="terminated", due=0.0, done=0.3))


def test_tracing_keeps_virtual_results_and_accounts_within_wall_time():
    inputs = workloads.make_inputs("agents", 2, scale=0.25)
    plain = workloads.build(inputs)
    workloads.run(plain)
    tracer = Tracer()
    traced = workloads.build(inputs, wrap_main=tracer.wrap_main)
    tracer.sim = traced.sim
    with tracer.installed():
        import time

        begin = time.perf_counter()
        workloads.run(traced)
        wall = time.perf_counter() - begin
    assert [traced.records[i].virtual() for i in sorted(traced.records)] == [
        plain.records[i].virtual() for i in sorted(plain.records)
    ]
    self_s = tracer.layer_self_s()
    assert all(seconds >= 0 for seconds in self_s.values())
    assert sum(self_s.values()) == pytest.approx(tracer.root_seconds())
    assert tracer.root_seconds() <= wall
    assert self_s["model"] > 0 and self_s["core.messaging"] > 0
    assert len(tracer.tool_waits) == len(inputs.requests) * workloads.AGENT_TOOL_CALLS
    # The patches are gone once the block ends.
    from repro.sim.simulator import Simulator

    assert not hasattr(Simulator.step, "__wrapped__")


def test_the_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
