"""Pie benchmark: one workload, its end-to-end or per-layer metrics, checked.

Run from the repository root::

    python3 perfbench/run.py --workload chat --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a traced
run and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  Everything before it is a human-readable report.
The program is imported from ``src/`` beside this directory; without it
the command fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# One BLAS thread: the simulator is single-threaded, and a second math
# thread contending for the two cores of a small machine only adds noise.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

#: Units of the end-to-end metrics, in report order.
END_TO_END_UNITS = {
    "ttft_p50_ms": "ms",
    "ttft_tail_ms": "ms",
    "tpot_p50_ms": "ms",
    "tpot_tail_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "goodput_rps": "1/s",
    "slo_attainment": "ratio",
    "sustained_rps": "1/s",
    "output_tok_per_s": "1/s",
    "completed_share": "ratio",
    "token_match_share": "ratio",
    "host_ms_per_request": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 9
#: CPU seconds of one reference start (``import numpy``) on an unloaded machine.
REFERENCE_START_S = 0.25
REFERENCE_SAMPLE = 6


def _import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: repro was imported from {repro.__file__}, not {SRC}")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chat", "agents", "docs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up, reach the first arrival, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Set up exactly as a measured run does, up to its first arrival."""
    from perfbench import workloads

    inputs = workloads.make_inputs(workload, seed)
    dep = workloads.build(inputs)
    workloads.start(dep)
    first = min((r.due for r in inputs.requests if r.due is not None), default=0.0)
    dep.sim.run(until=first)
    print("ready", flush=True)


def _child_cpu(command) -> Tuple[float, str]:
    """CPU seconds a child process spends running ``command``, and its output."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise RuntimeError(f"{command[1:]} failed: {done.stdout!r} {done.stderr!r}")
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime), done.stdout


#: The speed reference for set-up: a fresh interpreter that imports NumPy,
#: the same kind of work (interpreter start, imports) that dominates
#: set-up, but none of the program's.
_REFERENCE_START = [sys.executable, "-c", "import numpy"]


def measure_setup(workload: str, seed: int) -> float:
    """Median CPU time, at reference speed, of a fresh interpreter that
    sets the run up and reaches its first arrival (see :func:`setup_probe`).

    Probes alternate with reference starts; each probe is scaled by
    ``REFERENCE_START_S ÷ mean of the two reference starts beside it``.
    The in-run calibration chunk of :class:`Speedometer` does not track
    the speed of interpreter start-up, which set-up mostly is.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    reference = [_child_cpu(_REFERENCE_START)[0]]
    times = []
    for _ in range(SETUP_PROBES):
        cpu, output = _child_cpu(command)
        if output.strip() != "ready":
            raise RuntimeError(f"setup probe printed {output!r}")
        reference.append(_child_cpu(_REFERENCE_START)[0])
        times.append(cpu * REFERENCE_START_S * 2 / (reference[-2] + reference[-1]))
    return statistics.median(times)


class Speedometer:
    """Samples how fast the machine runs.

    Every :data:`INTERVAL_S` of CPU time it times one fixed calibration
    chunk (interpreter work plus a NumPy contraction, the two kinds of work
    the simulator does), outside any simulator event.  Neighbours on a
    shared machine can slow the core by half from one minute to the next;
    dividing a repetition's CPU time by the chunk's mean time measured
    during it, and multiplying by the chunk's time on an unloaded machine
    (:data:`REFERENCE_S`), takes most of that out.  The program never runs
    the chunk, so a faster program still shows as a faster program.
    """

    INTERVAL_S = 0.1
    REFERENCE_S = 0.003

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._q = rng.standard_normal((4, 96, 16))
        self._k = rng.standard_normal((4, 384, 16))
        self._np = np
        self.spent = 0.0
        self.chunks = 0
        self._next = time.process_time()

    def _chunk(self) -> None:
        table, total = {}, 0
        for i in range(4000):
            table[i & 255] = total
            total += (i * 7) % 13
        self._np.einsum("hqd,hkd->hqk", self._q, self._k)

    def sample(self) -> None:
        """Time one calibration chunk."""
        begin = time.process_time()
        self._chunk()
        self.spent += time.process_time() - begin
        self.chunks += 1

    def tick(self) -> None:
        if time.process_time() >= self._next:
            self.sample()
            self._next = time.process_time() + self.INTERVAL_S

    def at_reference(self, cpu_seconds: float) -> float:
        """``cpu_seconds`` as they would read at the reference speed."""
        return cpu_seconds * self.REFERENCE_S * self.chunks / self.spent


def measure(inputs, seconds: float):
    """Untraced repetitions of the workload for about ``seconds``.

    Returns the first repetition's results, every repetition's host time
    (CPU seconds at reference speed, see :class:`Speedometer`) and the
    generator's worst lateness.  Every repetition must reproduce the first
    one's virtual results exactly.
    """
    from perfbench import workloads

    host, first, lateness = [], None, 0.0
    started = time.perf_counter()
    while True:
        dep = workloads.build(inputs)
        gc.collect()
        speed = Speedometer()
        begin = time.process_time()
        lateness = max(lateness, workloads.run(dep, between=speed.tick))
        host.append(speed.at_reference(time.process_time() - begin - speed.spent))
        result = Result(dep.records, dep.samples, _virtual(dep), dep.sim.processed_events,
                        _peak_rss_mb())
        del dep
        if first is None:
            first = result
        elif result.virtual != first.virtual:
            raise AssertionError("a repetition changed the virtual results")
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(host) / 2 >= seconds:
            return first, host, lateness


@dataclass
class Result:
    """What an untraced repetition leaves behind."""

    records: dict
    samples: list
    virtual: tuple
    events: int
    #: Peak resident memory so far, read after the repetition: later
    #: repetitions would add allocator growth that depends on their count.
    peak_rss_mb: float


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _virtual(dep):
    return [dep.records[i].virtual() for i in sorted(dep.records)], dep.sim.now


def references(inputs):
    """Tokens of a fixed request sample, each rerun alone on a fresh server.

    Runs before the timed repetitions, so it also warms up the code paths
    and allocator they use.
    """
    from perfbench import stats, workloads

    tokens = {}
    for index in stats.reference_sample(inputs, REFERENCE_SAMPLE):
        alone = workloads.reference(inputs, index)
        if alone.status != "finished":
            raise AssertionError(f"reference run of request {index} ended {alone.status}")
        tokens[index] = alone.tokens
    return tokens


def traced(inputs, untraced, host):
    """One traced repetition; returns its per-layer metrics and tracer."""
    from perfbench import tracer as tracing
    from perfbench import workloads

    tracer = tracing.Tracer()
    dep = workloads.build(inputs, wrap_main=tracer.wrap_main)
    tracer.sim = dep.sim
    gc.collect()
    speed = Speedometer()
    with tracer.installed():
        begin, begin_cpu = time.perf_counter(), time.process_time()
        workloads.run(dep, between=speed.tick)
        wall = time.perf_counter() - begin
        cpu = speed.at_reference(time.process_time() - begin_cpu - speed.spent)
    if _virtual(dep) != untraced.virtual:
        raise AssertionError("tracing changed tokens or virtual times")
    if tracer.root_seconds() > wall:
        raise AssertionError("layer self times exceed the traced run's wall time")
    values = tracing.per_layer(
        tracer, dep, statistics.median(host), untraced.events, cpu, wall
    )
    return values, tracer, wall


def _result_line(correct, attempted, failed, values, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    args = _arguments(argv)
    _import_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    from perfbench import stats, workloads

    setup_s = measure_setup(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = references(inputs)
    result, host, lateness = measure(inputs, args.seconds)
    problems = stats.check(inputs, result.records)
    if lateness != 0.0:
        problems.append(f"the load generator ran {lateness:.3g} s late")
    match = sum(result.records[i].tokens == t for i, t in reference.items()) / len(reference)
    values, detail = stats.end_to_end(inputs, result.records, result.samples)
    requests = len(inputs.requests)
    values["token_match_share"] = match
    values["host_ms_per_request"] = statistics.median(host) / requests * 1e3
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = result.peak_rss_mb
    failed = sum(1 for r in result.records.values() if r.status != "finished")

    print(f"workload {args.workload} seed {args.seed}: {requests} requests, "
          f"{len(host)} untraced repetitions, host {[round(h, 3) for h in host]} s")
    for name in ("ttft", "tpot", "latency"):
        tail = detail[f"{name}_tail"]
        print(f"  {name}_tail is p{tail['percentile']:g} of {tail['samples']} samples")
    print(f"  measured window {detail['window'][0]:.4f}-{detail['window'][1]:.4f} s virtual")
    for step in detail["ladder"]:
        print(f"  ladder step {step}")
    units = dict(END_TO_END_UNITS)
    if args.trace:
        layer_values, tracer, wall = traced(inputs, result, host)
        path = OUT / f"spans-{args.workload}-{args.seed}.npz"
        tracer.write(path)
        print(f"  traced run: {tracer.spans} spans in {wall:.3f} s, written to "
              f"{path.relative_to(ROOT)}")
        for layer, seconds in tracer.layer_self_s().items():
            print(f"  self {layer:<18} {seconds:9.4f} s")
        from perfbench.tracer import PER_LAYER_UNITS, REPORT_ONLY_UNITS

        for name, unit in REPORT_ONLY_UNITS.items():
            print(f"  {name:<36} {layer_values[name]:>14.6g} {unit}  (report only)")
        values, units = layer_values, PER_LAYER_UNITS
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(_result_line(not problems, requests, failed, values, units), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
