"""End-to-end metrics of one workload run, from its per-request records.

Every quantity here except the host-time ones is virtual: it comes from
simulator timestamps and is identical across processes for one seed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from perfbench.workloads import Inputs, Record, Request

#: Candidate tail percentiles, highest first.  The tail of a sample is the
#: highest of these with at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: A ladder step is sustained when at least this share of its requests met
#: both limits (the repo's default availability objective, ``slo_target``) ...
ATTAINMENT_LIMIT = 0.95
#: ... and the requests in flight at its end are at most this multiple of
#: the steady level an unloaded server would hold at the step's rate (the
#: rate times the first step's mean latency, by Little's law).  Twice that
#: level means requests now wait as long again as they are served: the
#: backlog is growing.
BACKLOG_LIMIT = 2.0


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the sample's tail.

    The percentile is the highest of :data:`TAIL_PERCENTILES` that leaves
    at least :data:`TAIL_MIN_BEYOND` samples beyond its rank.
    """
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= TAIL_MIN_BEYOND:
            return percentile(samples, p), p, n
    raise ValueError(
        f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond any of {TAIL_PERCENTILES}"
    )


def well_formed(request: Request, record: Record) -> bool:
    """A finished request returned one greedy token per decode step."""
    tokens = record.tokens
    return (
        isinstance(tokens, tuple)
        and len(tokens) == request.decode * len(request.turns)
        and all(isinstance(t, int) and t >= 0 for t in tokens)
        and len(record.turn_times) == len(request.turns)
    )


def _ttfts(record: Record) -> List[float]:
    """Per-turn TTFT.  The first turn is timed from the request's due time,
    every later one from the tool result it follows."""
    return [
        first - (record.due if turn == 0 else start)
        for turn, (start, first, _) in enumerate(record.turn_times)
    ]


def _tpot(request: Request, record: Record) -> float:
    """Mean time per output token over the request's decode steps: from
    each turn's first token to its last, so tool calls and the prefills
    between turns do not count."""
    decoding = sum(last - first for _, first, last in record.turn_times)
    return decoding / (len(record.turn_times) * (request.decode - 1))


def is_good(request: Request, record: Record) -> bool:
    """Finished, every turn's TTFT and the TPOT within the request's limits."""
    if record.status != "finished":
        return False
    return (
        all(t <= request.ttft_limit_s for t in _ttfts(record))
        and _tpot(request, record) <= request.tpot_limit_s
    )


def measured_window(inputs: Inputs, records: Dict[int, Record]) -> Tuple[float, float]:
    """The virtual window whose arrivals are measured.

    An open loop has it fixed by its schedule.  In a closed loop it runs
    from the first measured submission to the first drain-phase one, so
    the drain tail, when clients run out of work, is never counted.
    """
    if inputs.window is not None:
        return inputs.window
    measured = [records[r.index].due for r in inputs.requests if r.phase == "measure"]
    cool = [records[r.index].due for r in inputs.requests if r.phase == "cool"]
    return min(measured), min(cool)


def goodput_rps(inputs: Inputs, records: Dict[int, Record]) -> float:
    """Good measured-window requests per virtual second of that window."""
    start, end = measured_window(inputs, records)
    good = sum(
        1 for r in inputs.requests if r.phase == "measure" and is_good(r, records[r.index])
    )
    return good / (end - start)


def sustained_rps(
    inputs: Inputs, records: Dict[int, Record], samples: Sequence[Tuple[float, int]]
) -> Tuple[float, List[dict]]:
    """The sustained rate, plus a per-step verdict table.

    For the ladder of an open loop with several steps it is the highest
    step that meets :data:`ATTAINMENT_LIMIT` and :data:`BACKLOG_LIMIT`,
    every lower step passing too.  A workload run at one offered load reports
    its measured-window completion rate instead.
    """
    if len(inputs.steps) <= 1:
        start, end = measured_window(inputs, records)
        done = sum(
            1 for r in inputs.requests
            if r.phase == "measure" and records[r.index].status == "finished"
        )
        return done / (end - start), []
    first = [records[r.index] for r in inputs.requests if r.step == 0]
    base_latency = sum(record.done - record.due for record in first) / len(first)
    table = []
    sustained = 0.0
    passing = True
    for step, (rate, start, end) in enumerate(inputs.steps):
        members = [r for r in inputs.requests if r.step == step]
        attained = sum(1 for r in members if is_good(r, records[r.index])) / len(members)
        inflight = next(n for t, n in samples if t >= end)
        backlog = inflight / (rate * base_latency)
        ok = attained >= ATTAINMENT_LIMIT and backlog <= BACKLOG_LIMIT
        passing = passing and ok
        if passing:
            sustained = rate
        table.append(
            {"rate": rate, "requests": len(members), "attainment": attained,
             "inflight_end": inflight, "backlog": backlog, "ok": ok}
        )
    return sustained, table


def end_to_end(inputs: Inputs, records: Dict[int, Record], samples) -> Tuple[Dict[str, float], dict]:
    """The virtual end-to-end metrics and a detail table for the report."""
    measured = [r for r in inputs.requests if r.phase == "measure"]
    ttfts, tpots, latencies = [], [], []
    for request in measured:
        record = records[request.index]
        if record.status != "finished":
            continue
        ttfts += _ttfts(record)
        tpots.append(_tpot(request, record))
        latencies.append(record.done - record.due)
    metrics: Dict[str, float] = {}
    detail: dict = {}
    for name, values in (("ttft", ttfts), ("tpot", tpots), ("latency", latencies)):
        value, p, n = tail(values)
        metrics[f"{name}_p50_ms"] = percentile(values, 50) * 1e3
        metrics[f"{name}_tail_ms"] = value * 1e3
        detail[f"{name}_tail"] = {"percentile": p, "samples": n}
    good = sum(1 for r in measured if is_good(r, records[r.index]))
    metrics["goodput_rps"] = goodput_rps(inputs, records)
    metrics["slo_attainment"] = good / len(measured)
    metrics["sustained_rps"], detail["ladder"] = sustained_rps(inputs, records, samples)
    everything = list(records.values())
    first = min(record.due for record in everything)
    last = max(record.done for record in everything)
    output_tokens = sum(len(record.tokens) for record in everything if record.tokens)
    metrics["output_tok_per_s"] = output_tokens / (last - first)
    finished = sum(1 for record in everything if record.status == "finished")
    metrics["completed_share"] = finished / len(everything)
    detail["window"] = measured_window(inputs, records)
    return metrics, detail


def check(inputs: Inputs, records: Dict[int, Record]) -> List[str]:
    """Problems with the outputs: missing requests or malformed results."""
    problems = []
    for request in inputs.requests:
        record = records[request.index]
        if record.status == "missing":
            problems.append(f"request {request.index} never completed")
        elif record.status == "finished" and not well_formed(request, record):
            problems.append(f"request {request.index} returned a malformed result")
    return problems


def reference_sample(inputs: Inputs, count: int) -> List[int]:
    """A fixed, evenly spaced sample of measured request indices."""
    measured = [r.index for r in inputs.requests if r.phase == "measure"]
    stride = max(1, len(measured) // count)
    return measured[stride // 2 :: stride][:count]
