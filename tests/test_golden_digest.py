"""Golden digest of what the system emits on a small fixed scenario.

The determinism suite compares two runs of the *same* code, so a change to
the numerics (attention kernel, KV layout, sampling) that shifts a token or
a virtual timestamp would pass it.  These tests pin a SHA-256 digest of
every emitted token and the virtual time it was emitted at, for a Pie fleet
and for a baseline engine, to the values the code produced before the KV
data plane was vectorised.  A change that moves the digest must say why
and re-pin it deliberately.
"""

import hashlib

from repro.baselines import GenerationRequest, MonolithicEngine, SamplingConfig
from repro.core import InferletProgram, PieServer
from repro.core.config import ControlLayerConfig, PieConfig
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams

PIE_DIGEST = "f1054c5f889407a8cfff6069f5e5bb9ff8c90b547f4900438a13e8fca242e16c"
ENGINE_DIGEST = "a5948c3f4dbcbd5b950705f735345d96e3d0ec0412352c5ac362b67a899a2527"

TOOL_URL = "http://tools/golden"
PROMPT = (
    "System: you are one agent of a golden-digest fleet; every run must "
    "emit the same tokens at the same virtual times. "
)


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _agent(index, sim, log):
    # Odd agents sample at temperature 1.5, so the digest also covers the
    # probabilities the sampler draws from, not only each argmax.
    params = SamplingParams(temperature=1.5) if index % 2 else SamplingParams()

    async def main(ctx):
        context = Context(ctx, sampling=params)
        await context.fill(PROMPT + f"Task {index}: summarise ticket {index * 7}. ")
        for _ in range(4):
            log.append((index, sim.now, await context.generate_once()))
        observation = await ctx.http_get(TOOL_URL)
        await context.fill(f"obs:{observation} ")
        for _ in range(3):
            log.append((index, sim.now, await context.generate_once()))
        context.free()

    return InferletProgram(name=f"golden{index}", main=main, prefix_hint=PROMPT)


def run_pie_fleet():
    """Two devices with a tight KV pool, host tier, prefix cache and chunked
    prefill: the fleet shares a prompt, swaps around its tool call and
    slices its prefills."""
    sim = Simulator(seed=11)
    config = PieConfig(
        gpu=GpuConfig(num_kv_pages=32, num_devices=2, host_kv_pages=64),
        control=ControlLayerConfig(
            prefix_cache=True,
            placement_policy="cache_affinity",
            chunked_prefill=True,
            prefill_chunk_tokens=16,
            max_batch_tokens=24,
        ),
    )
    server = PieServer(sim, config=config)
    server.register_external(TOOL_URL, lambda payload: "ok", ConstantLatency(0.05))
    log = []
    programs = [_agent(i, sim, log) for i in range(6)]
    for program in programs:
        server.register_program(program)

    async def one(program, delay):
        await sim.sleep(delay)
        return await server.run_inferlet(program.name)

    async def run_all():
        tasks = [sim.create_task(one(p, i * 0.05)) for i, p in enumerate(programs)]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    assert [r.status for r in results] == ["finished"] * len(programs)
    return log, server.metrics


def run_engine():
    """A prefix-caching engine with n-gram speculation, so KV writes keep
    only the accepted prefix of a step's tokens."""
    sim = Simulator(seed=11)
    engine = MonolithicEngine(
        sim,
        gpu_config=GpuConfig(num_kv_pages=64),
        enable_prefix_caching=True,
        enable_ngram_speculation=True,
    )
    requests = [
        GenerationRequest(
            prompt=PROMPT + f"Question {i}: " + "abc " * i,
            sampling=SamplingConfig(max_tokens=12, temperature=1.5 * (i % 2), seed=i),
        )
        for i in range(4)
    ]

    async def run_all():
        return await sim.gather([engine.submit(request) for request in requests])

    outputs = sim.run_until_complete(run_all())
    return [(out.token_ids, out.latency, out.steps) for out in outputs], sim.now


def test_pie_fleet_tokens_and_times_match_golden_digest():
    log, metrics = run_pie_fleet()
    # The scenario exercises the paths a numerics change could disturb.
    assert metrics.prefix_cache_hits > 0
    assert metrics.swap_outs > 0
    assert metrics.prefill_chunks_dispatched > 0
    assert len(log) == 6 * 7
    assert _digest(log) == PIE_DIGEST


def test_engine_tokens_and_times_match_golden_digest():
    outputs, now = run_engine()
    assert _digest((outputs, now)) == ENGINE_DIGEST
