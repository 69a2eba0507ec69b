"""The three benchmark workloads: inputs, deployments, inferlet programs, one run.

Everything a workload sends is a pure function of its seed (:func:`make_inputs`
draws from its own ``np.random.default_rng(seed)``); the server never sees
the seed.  Each workload names its own deployment as a :class:`PieConfig`
built from ``GpuConfig`` / ``ControlLayerConfig`` fields.

Arrivals of the open-loop workloads are a Poisson process conditioned on
the number of arrivals in each segment (warm-up, every ladder step,
cool-down): each segment's arrival times are sorted uniform draws over the
segment.  That keeps the process memoryless within a segment while fixing
how many requests fall into the measured window, so rate metrics do not
inherit the count noise of an unconditioned process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import InferletProgram, PieConfig, PieServer
from repro.core.config import ControlLayerConfig
from repro.gpu.config import GpuConfig
from repro.sim import ConstantLatency, Simulator
from repro.support import Context

WORKLOADS = ("chat", "agents", "docs")
TOOL_URL = "http://bench.tools/search"
VOCAB = 250  # token ids below the tokenizer's special ids
NUM_DEVICES = 4


@dataclass(frozen=True)
class Request:
    """One request: what is sent, when, and the limits it is judged by.

    ``turns[0]`` is the prompt; every later turn is the token result of a
    tool call that precedes it.  ``due`` is the virtual send time (None in a
    closed loop, where a request is due when its client submits it).
    """

    index: int
    program: str
    turns: Tuple[Tuple[int, ...], ...]
    decode: int
    ttft_limit_s: float
    tpot_limit_s: float
    due: Optional[float] = None
    phase: str = "measure"  # "warm" | "measure" | "cool"
    step: int = -1


@dataclass(frozen=True)
class Inputs:
    """A workload's generated inputs and its deployment."""

    name: str
    seed: int
    config: PieConfig
    requests: Tuple[Request, ...]
    #: Ladder steps as (offered rate, start, end) in virtual seconds.
    steps: Tuple[Tuple[float, float, float], ...] = ()
    #: Measured arrival window (virtual seconds) of an open loop.
    window: Optional[Tuple[float, float]] = None
    clients: int = 0
    system_prompts: Tuple[Tuple[int, ...], ...] = ()
    tool_latency_s: float = 0.0


# -- chat: open-loop 3-class mix over an ascending ladder of offered rates ----

#: (class, weight, prompt tokens, output tokens, TTFT limit s, TPOT limit s)
CHAT_CLASSES = (
    ("interactive", 0.6, 16, 4, 0.400, 0.120),
    ("agent", 0.3, 48, 6, 0.800, 0.150),
    ("batch", 0.1, 96, 4, 2.500, 0.400),
)
#: Offered rates (req/s) of the ladder.  ROADMAP places the sustained knee
#: between 600 and 900 req/s; doubling steps put one step on each side of
#: it with margin, so the step a seed lands on does not hinge on noise.
CHAT_LADDER = (300.0, 600.0, 1200.0)
#: Requests per step.  The lower steps last long enough for in-flight work
#: to settle; the top step long enough for an overload backlog to show,
#: while carrying under half of the measured requests.
CHAT_STEP_REQUESTS = (400, 200, 390)
CHAT_WARM_S = 0.1
CHAT_COOL_S = 0.05

# -- agents: open-loop multi-turn tool-calling agents over shared prompts ----

AGENT_COUNT = 96
#: Agents/s.  Well below the devices' saturation, where the per-turn tails
#: would be set by how bursty a seed's arrivals happen to be.
AGENT_RATE = 60.0
AGENT_SYSTEM_PROMPTS = 4
AGENT_SYSTEM_TOKENS = 192
AGENT_TASK_TOKENS = 24
AGENT_TOOL_CALLS = 3
AGENT_TOOL_RESULT_TOKENS = 16
AGENT_DECODE = 5
AGENT_TOOL_LATENCY_S = 0.030
AGENT_TTFT_LIMIT_S = 0.300
AGENT_TPOT_LIMIT_S = 0.100
#: Device KV pool per device, sized so the fleet's unshared working set
#: exceeds it (without the prefix cache some agents are terminated): the
#: host tier and prefix sharing are what keep every agent alive.
AGENT_KV_PAGES = 160
AGENT_HOST_KV_PAGES = 4096

# -- docs: closed-loop offline batch of long unshared prompts ----------------

DOC_COUNT = 48
DOC_CLIENTS = 4
DOC_TOKENS = (320, 448)  # inclusive range of prompt lengths
DOC_DECODE = 4
DOC_TTFT_LIMIT_S = 0.250
DOC_TPOT_LIMIT_S = 0.050


def deployment(name: str) -> PieConfig:
    """The fixed simulated deployment of a workload (4 devices)."""
    if name == "chat":
        return PieConfig(
            gpu=GpuConfig(num_devices=NUM_DEVICES),
            control=ControlLayerConfig(prefix_cache=True),
        )
    if name == "agents":
        return PieConfig(
            gpu=GpuConfig(
                num_devices=NUM_DEVICES,
                num_kv_pages=AGENT_KV_PAGES,
                host_kv_pages=AGENT_HOST_KV_PAGES,
            ),
            control=ControlLayerConfig(
                prefix_cache=True,
                placement_policy="cache_affinity",
                swap_policy="proactive",
            ),
        )
    if name == "docs":
        return PieConfig(
            gpu=GpuConfig(num_devices=NUM_DEVICES),
            control=ControlLayerConfig(prefix_cache=True),
        )
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")


def _tokens(rng: np.random.Generator, n: int) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, VOCAB, size=n))


def _segment_times(rng: np.random.Generator, start: float, end: float, count: int) -> List[float]:
    return sorted(float(t) for t in rng.uniform(start, end, size=count))


def _classes(rng: np.random.Generator, count: int) -> List[int]:
    """Class indices for ``count`` requests: the mix's exact proportions
    (largest remainders), in a random order."""
    weights = np.array([cls[1] for cls in CHAT_CLASSES])
    exact = weights / weights.sum() * count
    counts = np.floor(exact).astype(int)
    for index in np.argsort(counts - exact)[: count - counts.sum()]:
        counts[index] += 1
    classes = np.repeat(np.arange(len(CHAT_CLASSES)), counts)
    rng.shuffle(classes)
    return [int(c) for c in classes]


def _chat(seed: int, scale: float) -> Inputs:
    rng = np.random.default_rng(seed)
    segments = []  # (phase, step, start, end, count)
    t = 0.0
    warm = max(1, int(round(CHAT_LADDER[0] * CHAT_WARM_S * scale)))
    segments.append(("warm", -1, t, t + CHAT_WARM_S, warm))
    t += CHAT_WARM_S
    steps = []
    for step, (rate, count) in enumerate(zip(CHAT_LADDER, CHAT_STEP_REQUESTS)):
        count = max(10, int(round(count * scale)))
        duration = count / rate
        segments.append(("measure", step, t, t + duration, count))
        steps.append((rate, t, t + duration))
        t += duration
    window = (CHAT_WARM_S, t)
    cool = max(1, int(round(CHAT_LADDER[-1] * CHAT_COOL_S * scale)))
    segments.append(("cool", -1, t, t + CHAT_COOL_S, cool))
    requests: List[Request] = []
    for phase, step, start, end, count in segments:
        times = _segment_times(rng, start, end, count)
        for due, cls in zip(times, _classes(rng, count)):
            _, _, prompt, decode, ttft, tpot = CHAT_CLASSES[cls]
            requests.append(
                Request(
                    index=len(requests),
                    program="chat",
                    turns=(_tokens(rng, prompt),),
                    decode=decode,
                    ttft_limit_s=ttft,
                    tpot_limit_s=tpot,
                    due=due,
                    phase=phase,
                    step=step,
                )
            )
    return Inputs(
        name="chat",
        seed=seed,
        config=deployment("chat"),
        requests=tuple(requests),
        steps=tuple(steps),
        window=window,
    )


def _agents(seed: int, scale: float) -> Inputs:
    rng = np.random.default_rng(seed)
    prompts = tuple(_tokens(rng, AGENT_SYSTEM_TOKENS) for _ in range(AGENT_SYSTEM_PROMPTS))
    count = max(8, int(round(AGENT_COUNT * scale)))
    span = count / AGENT_RATE
    trim = count // 8
    segments = (
        ("warm", 0.0, span / 8, trim),
        ("measure", span / 8, span * 7 / 8, count - 2 * trim),
        ("cool", span * 7 / 8, span, trim),
    )
    requests: List[Request] = []
    for phase, start, end, n in segments:
        # Each system prompt serves an equal share of the agents.
        which_prompt = np.arange(n) % AGENT_SYSTEM_PROMPTS
        rng.shuffle(which_prompt)
        for due, which in zip(_segment_times(rng, start, end, n), which_prompt):
            which = int(which)
            turns = [prompts[which] + _tokens(rng, AGENT_TASK_TOKENS)]
            turns += [_tokens(rng, AGENT_TOOL_RESULT_TOKENS) for _ in range(AGENT_TOOL_CALLS)]
            requests.append(
                Request(
                    index=len(requests),
                    program=f"agent{which}",
                    turns=tuple(turns),
                    decode=AGENT_DECODE,
                    ttft_limit_s=AGENT_TTFT_LIMIT_S,
                    tpot_limit_s=AGENT_TPOT_LIMIT_S,
                    due=due,
                    phase=phase,
                    step=0 if phase == "measure" else -1,
                )
            )
    return Inputs(
        name="agents",
        seed=seed,
        config=deployment("agents"),
        requests=tuple(requests),
        steps=((AGENT_RATE, span / 8, span * 7 / 8),),
        window=(span / 8, span * 7 / 8),
        system_prompts=prompts,
        tool_latency_s=AGENT_TOOL_LATENCY_S,
    )


def _docs(seed: int, scale: float) -> Inputs:
    rng = np.random.default_rng(seed)
    count = max(2 * DOC_CLIENTS + 1, int(round(DOC_COUNT * scale)))
    lo, hi = DOC_TOKENS
    requests = []
    for index in range(count):
        # Submission order is fixed, so the first and last ``clients`` docs
        # are the closed loop's start-up and drain transients.
        phase = (
            "warm" if index < DOC_CLIENTS
            else "cool" if index >= count - DOC_CLIENTS
            else "measure"
        )
        requests.append(
            Request(
                index=index,
                program="doc",
                turns=(_tokens(rng, int(rng.integers(lo, hi + 1))),),
                decode=DOC_DECODE,
                ttft_limit_s=DOC_TTFT_LIMIT_S,
                tpot_limit_s=DOC_TPOT_LIMIT_S,
                phase=phase,
                step=0 if phase == "measure" else -1,
            )
        )
    return Inputs(
        name="docs",
        seed=seed,
        config=deployment("docs"),
        requests=tuple(requests),
        clients=DOC_CLIENTS,
    )


def make_inputs(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """Generate a workload's inputs; a pure function of its arguments.

    ``scale`` shrinks request counts for the benchmark's own tests; the
    benchmark itself always runs at 1.0.
    """
    builders = {"chat": _chat, "agents": _agents, "docs": _docs}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    return builders[name](seed, scale)


# -- serving -------------------------------------------------------------------


@dataclass
class Record:
    """What one request produced, all in virtual seconds."""

    status: str = "missing"
    tokens: Optional[Tuple[int, ...]] = None
    due: float = 0.0
    done: float = 0.0
    #: Per turn: (turn start, first token, last token).
    turn_times: Tuple[Tuple[float, float, float], ...] = ()
    kv_tokens: int = 0
    kv_capacity: int = 0

    def virtual(self) -> tuple:
        """The fields that must be identical across runs of one seed."""
        return (self.status, self.tokens, self.due, self.done, self.turn_times)


def _program(
    sim: Simulator, name: str, requests: Sequence[Request], records: Dict[int, Record],
    prefix_hint: Optional[Tuple[int, ...]] = None,
) -> InferletProgram:
    """An inferlet running requests of ``requests`` by index.

    Per turn it fills the turn's tokens (after a tool call for every turn
    but the first) and samples ``decode`` greedy tokens one at a time, so
    every output token lands at its own virtual timestamp.  Timestamps are
    read from the simulator directly: an API call would charge overhead
    and change the virtual times being measured.
    """

    async def main(ctx):
        request = requests[int(ctx.get_arg()[0])]
        context = Context(ctx)
        times = []
        start = sim.now
        for turn, tokens in enumerate(request.turns):
            if turn:
                await ctx.http_get(TOOL_URL)
                start = sim.now
            await context.fill(list(tokens))
            first = None
            for _ in range(request.decode):
                await context.generate_once()
                first = sim.now if first is None else first
            times.append((start, first, sim.now))
        record = records[request.index]
        record.turn_times = tuple(times)
        record.kv_tokens = context.num_cached_tokens
        record.kv_capacity = len(context.pages) * context.page_size
        generated = tuple(context.generated_ids)
        context.free()
        return generated

    return InferletProgram(
        name=name,
        main=main,
        description=f"benchmark {name} request",
        prefix_hint=list(prefix_hint) if prefix_hint is not None else None,
    )


@dataclass
class Deployment:
    """A freshly built simulator + server with the workload's programs."""

    inputs: Inputs
    sim: Simulator
    server: PieServer
    records: Dict[int, Record]
    inflight: List[int]
    #: (virtual time, requests in flight) samples taken during the run.
    samples: List[Tuple[float, int]]


def build(inputs: Inputs, wrap_main: Optional[Callable] = None) -> Deployment:
    """Build the workload's deployment; no virtual time has passed yet.

    ``wrap_main`` lets the tracer time the programs' own code.
    """
    sim = Simulator(seed=inputs.seed)
    server = PieServer(sim, config=inputs.config)
    records = {request.index: Record() for request in inputs.requests}
    if inputs.tool_latency_s:
        server.register_external(
            TOOL_URL, lambda payload: "ok", ConstantLatency(inputs.tool_latency_s)
        )
    names = {request.program for request in inputs.requests}
    for name in sorted(names):
        hint = None
        if name.startswith("agent"):
            hint = inputs.system_prompts[int(name[len("agent"):])]
        program = _program(sim, name, inputs.requests, records, hint)
        if wrap_main is not None:
            program.main = wrap_main(program.main)
        server.register_program(program)
    return Deployment(inputs, sim, server, records, [0], [])


async def _send(dep: Deployment, request: Request, due: float) -> None:
    record = dep.records[request.index]
    record.due = due
    dep.inflight[0] += 1
    try:
        result = await dep.server.run_inferlet(request.program, args=[str(request.index)])
    except Exception as exc:  # noqa: BLE001 - a refused launch is a failed request
        record.status = f"error:{type(exc).__name__}"
    else:
        record.status = result.status
        if result.status == "finished":
            record.tokens = result.result
    record.done = dep.sim.now
    dep.inflight[0] -= 1


def _open_loop(dep: Deployment):
    sim = dep.sim
    lateness = [0.0]

    async def arrival(request: Request):
        await sim.sleep(request.due)
        # Arrivals are coroutines on the virtual clock that start at t=0,
        # so each wakes exactly at its due time; anything else is a bug in
        # the generator, not load.
        lateness[0] = max(lateness[0], sim.now - request.due)
        await _send(dep, request, request.due)

    def sample() -> None:
        dep.samples.append((sim.now, dep.inflight[0]))

    for _, _, end in dep.inputs.steps:
        sim.call_at(end, sample)
    tasks = [sim.create_task(arrival(request)) for request in dep.inputs.requests]
    return tasks, lateness


def _closed_loop(dep: Deployment):
    sim = dep.sim
    pending = list(dep.inputs.requests)
    pending.reverse()

    async def client():
        while pending:
            request = pending.pop()
            await _send(dep, request, sim.now)

    return [sim.create_task(client()) for _ in range(dep.inputs.clients)], [0.0]


def start(dep: Deployment):
    """Create the load generator's coroutines; returns (tasks, lateness)."""
    if dep.inputs.clients:
        return _closed_loop(dep)
    return _open_loop(dep)


def run(dep: Deployment, between: Optional[Callable[[], None]] = None) -> float:
    """Run the workload to completion; returns the generator's lateness (s).

    ``between`` is called every 16 simulator events, outside any of them.
    """
    tasks, lateness = start(dep)
    sim = dep.sim
    done = sim.gather(tasks)
    events = 0
    while not done.done():
        if not sim.step():
            raise RuntimeError("the simulation stalled before every request finished")
        events += 1
        if between is not None and events % 16 == 0:
            between()
    done.result()
    # Trailing deallocation batches may still be in flight.
    sim.run()
    return lateness[0]


def reference(inputs: Inputs, index: int) -> Record:
    """Run request ``index`` alone on a fresh deployment, at time zero."""
    dep = build(inputs)
    dep.sim.run_until_complete(_send(dep, inputs.requests[index], 0.0))
    dep.sim.run()
    return dep.records[index]
