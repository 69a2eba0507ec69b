"""The monolithic continuous-batching engine shared by all baselines (§2.1).

The engine implements the classic serving loop the paper describes: a
central scheduler admits waiting requests, advances every running sequence
by one step per iteration (prefill for new sequences, one decode token for
running ones), applies system-wide KV policies (automatic prefix caching or
radix-tree reuse), and samples on the "GPU" — embedding and sampling are
fused with the forward pass, which is exactly the pipelining advantage
Table 3 attributes to monolithic designs.

The engine runs on the same simulated device, memory and toy transformer as
Pie, so results are token-exact comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BaselineError, OutOfResourcesError
from repro.baselines.block_manager import BlockManager
from repro.baselines.radix_tree import RadixTree
from repro.baselines.request import EngineStats, GenerationRequest, RequestOutput, SamplingConfig
from repro.gpu.config import GpuConfig
from repro.gpu.device import SimDevice
from repro.gpu.kernels import ForwardRow, KernelCostModel
from repro.gpu.memory import DeviceMemory
from repro.model.config import get_model_config
from repro.model.registry import ModelEntry
from repro.model.sampling import TokenDistribution, sample_from_dist, top_k_dist
from repro.model.transformer import KvContext
from repro.sim.futures import SimFuture
from repro.sim.latency import milliseconds
from repro.sim.simulator import Simulator


@dataclass
class _Sequence:
    """Engine-internal state of one request."""

    request: GenerationRequest
    future: SimFuture
    prompt_tokens: List[int]
    output_tokens: List[int] = field(default_factory=list)
    page_ids: List[int] = field(default_factory=list)
    cached_page_ids: List[int] = field(default_factory=list)
    cached_tokens: int = 0
    computed_tokens: int = 0
    last_hidden: Optional[np.ndarray] = None
    rng: Optional[np.random.Generator] = None
    steps: int = 0
    finish_reason: Optional[str] = None
    radix_matched: int = 0

    @property
    def all_tokens(self) -> List[int]:
        return self.prompt_tokens + self.output_tokens

    @property
    def prefilled(self) -> bool:
        return self.computed_tokens >= len(self.prompt_tokens)


class MonolithicEngine:
    """Continuous-batching prefill/decode engine."""

    def __init__(
        self,
        sim: Simulator,
        model_name: str = "llama-sim-1b",
        gpu_config: Optional[GpuConfig] = None,
        enable_prefix_caching: bool = False,
        use_radix: bool = False,
        per_step_overhead_ms: float = 0.0,
        kernel_penalty: float = 1.0,
        enable_ngram_speculation: bool = False,
        speculation_lookahead: int = 3,
        name: str = "engine",
    ) -> None:
        self.sim = sim
        self.name = name
        self.gpu_config = gpu_config or GpuConfig()
        self.entry = ModelEntry(get_model_config(model_name))
        self.memory = DeviceMemory(self.entry.config, self.gpu_config)
        self.cost_model = KernelCostModel(self.entry.config)
        self.device = SimDevice(sim, name=f"{name}-gpu")
        self.block_manager = BlockManager(
            self.memory.kv_pages, enable_prefix_caching=enable_prefix_caching and not use_radix
        )
        self.radix: Optional[RadixTree] = (
            RadixTree(self.entry.config.kv_page_size) if use_radix else None
        )
        self.per_step_overhead_ms = per_step_overhead_ms
        self.kernel_penalty = kernel_penalty
        self.enable_ngram_speculation = enable_ngram_speculation
        self.speculation_lookahead = speculation_lookahead
        self.stats = EngineStats()
        self._waiting: List[_Sequence] = []
        self._running: List[_Sequence] = []
        self._loop_task = None
        self._wake: Optional[SimFuture] = None
        self.page_size = self.entry.config.kv_page_size

    # -- public interface ---------------------------------------------------------

    def submit(self, request: GenerationRequest) -> SimFuture:
        """Queue a generation request; the future resolves with RequestOutput."""
        request.arrival_time = self.sim.now
        prompt_tokens = self.entry.tokenizer.encode(request.prompt)
        future = self.sim.create_future(name=f"{self.name}:req{request.request_id}")
        sequence = _Sequence(
            request=request,
            future=future,
            prompt_tokens=prompt_tokens,
            rng=np.random.default_rng(request.sampling.seed),
        )
        self._waiting.append(sequence)
        self._ensure_loop()
        self._wake_loop()
        return future

    async def generate(self, prompt: str, sampling: Optional[SamplingConfig] = None) -> RequestOutput:
        """Convenience wrapper: submit and await one request."""
        request = GenerationRequest(prompt=prompt, sampling=sampling or SamplingConfig())
        return await self.submit(request)

    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def num_waiting(self) -> int:
        return len(self._waiting)

    # -- engine loop ------------------------------------------------------------------

    def _ensure_loop(self) -> None:
        if self._loop_task is None:
            self._loop_task = self.sim.create_task(self._engine_loop(), name=f"{self.name}-loop")

    def _wake_loop(self) -> None:
        if self._wake is not None and not self._wake.done():
            self._wake.set_result(None)

    async def _engine_loop(self) -> None:
        while True:
            if not self._waiting and not self._running:
                self._wake = self.sim.create_future(name=f"{self.name}-idle")
                await self._wake
                self._wake = None
            self._admit()
            if self._running:
                await self._step()

    # -- admission -----------------------------------------------------------------------

    def _admit(self) -> None:
        still_waiting: List[_Sequence] = []
        for sequence in self._waiting:
            if len(self._running) >= self.gpu_config.max_batch_rows:
                still_waiting.append(sequence)
                continue
            try:
                self._allocate_for(sequence)
            except OutOfResourcesError:
                still_waiting.append(sequence)
                continue
            self._running.append(sequence)
        self._waiting = still_waiting

    def _allocate_for(self, sequence: _Sequence) -> None:
        prompt = sequence.prompt_tokens
        if self.radix is not None:
            cached_pages, cached_tokens = self.radix.match_prefix(prompt)
            sequence.radix_matched = cached_tokens
        else:
            cached_pages, cached_tokens = self.block_manager.match_prefix(prompt)
        sequence.cached_page_ids = list(cached_pages)
        sequence.cached_tokens = cached_tokens
        sequence.computed_tokens = cached_tokens
        total_tokens = len(prompt) + sequence.request.sampling.max_tokens
        fresh_tokens = max(0, total_tokens - cached_tokens)
        fresh_pages_needed = self.block_manager.pages_needed_for(fresh_tokens)
        if self.radix is not None:
            while self.memory.kv_pages.num_free < fresh_pages_needed:
                evicted = self.radix.evict_lru_leaf()
                if evicted is None:
                    break
                self.memory.kv_pages.free(evicted)
            if self.memory.kv_pages.num_free < fresh_pages_needed:
                raise OutOfResourcesError("radix engine out of KV pages")
            fresh_pages = self.memory.kv_pages.allocate(fresh_pages_needed)
            self.block_manager.cache_misses += fresh_pages_needed
        else:
            fresh_pages = self.block_manager.allocate_pages(fresh_pages_needed)
        sequence.page_ids = list(cached_pages) + fresh_pages
        self.stats.total_prompt_tokens += len(prompt)
        self.stats.total_cached_prompt_tokens += min(cached_tokens, len(prompt))

    # -- one engine step ---------------------------------------------------------------------

    async def _step(self) -> None:
        plan: List[Tuple[_Sequence, List[int], List[int]]] = []
        rows: List[ForwardRow] = []
        for sequence in self._running:
            input_tokens, positions = self._next_inputs(sequence)
            plan.append((sequence, input_tokens, positions))
            rows.append(
                ForwardRow(
                    n_input_tokens=len(input_tokens), context_tokens=sequence.computed_tokens
                )
            )
        cost = self.cost_model.fused_step_cost(rows) * self.kernel_penalty
        cost += milliseconds(self.per_step_overhead_ms)
        self.stats.batch_sizes.append(len(plan))
        self.stats.decode_steps += 1

        def run_step() -> None:
            for sequence, input_tokens, positions in plan:
                self._advance_sequence(sequence, input_tokens, positions)

        await self.device.submit("engine_step", run_step, cost_seconds=cost, size=len(plan))
        self._finish_completed()

    def _next_inputs(self, sequence: _Sequence) -> Tuple[List[int], List[int]]:
        if not sequence.prefilled:
            start = sequence.computed_tokens
            tokens = sequence.prompt_tokens[start:]
            positions = list(range(start, start + len(tokens)))
            self.stats.prefill_tokens_computed += len(tokens)
            return tokens, positions
        tokens = [sequence.all_tokens[-1]]
        positions = [len(sequence.all_tokens) - 1]
        if self.enable_ngram_speculation and sequence.output_tokens:
            proposals = self._ngram_proposals(sequence)
            tokens.extend(proposals)
            positions.extend(range(positions[0] + 1, positions[0] + 1 + len(proposals)))
        return tokens, positions

    def _ngram_proposals(self, sequence: _Sequence) -> List[int]:
        """Prompt-lookup (n-gram) speculative proposals, as in vLLM."""
        history = sequence.all_tokens
        if len(history) < 2:
            return []
        bigram = tuple(history[-2:])
        for start in range(len(history) - 3, -1, -1):
            if tuple(history[start : start + 2]) == bigram:
                lookahead = history[start + 2 : start + 2 + self.speculation_lookahead]
                return list(lookahead)
        return []

    # -- per-sequence math -----------------------------------------------------------------------

    def _advance_sequence(
        self, sequence: _Sequence, input_tokens: List[int], positions: List[int]
    ) -> None:
        transformer = self.entry.transformer
        context = self._gather_context(sequence)
        embeds = transformer.embed_tokens(input_tokens, positions)
        result = transformer.forward(embeds, positions, context)
        sequence.steps += 1

        if not sequence.prefilled:
            # Prefill: store KV for every prompt token, keep the last hidden.
            self._write_kv(sequence, result, count=len(input_tokens))
            sequence.last_hidden = result.hidden[-1]
            self._sample_next(sequence, sequence.last_hidden)
            return

        if len(input_tokens) == 1:
            self._write_kv(sequence, result, count=1)
            sequence.last_hidden = result.hidden[-1]
            self._sample_next(sequence, sequence.last_hidden)
            return

        # Speculative decode: verify proposals against the model's own choices.
        accepted = 0
        proposals = input_tokens[1:]
        for index, proposal in enumerate(proposals):
            predicted = self._choose_token(sequence, result.hidden[index])
            if predicted != proposal or sequence.finish_reason is not None:
                break
            sequence.output_tokens.append(predicted)
            self._check_finished(sequence)
            accepted += 1
        # KV is kept for the base token plus the accepted proposals only.
        self._write_kv(sequence, result, count=1 + accepted)
        sequence.last_hidden = result.hidden[accepted]
        if sequence.finish_reason is None:
            self._sample_next(sequence, sequence.last_hidden)

    def _sample_next(self, sequence: _Sequence, hidden: np.ndarray) -> None:
        token = self._choose_token(sequence, hidden)
        sequence.output_tokens.append(token)
        self.stats.total_output_tokens += 1
        self._check_finished(sequence)

    def _choose_token(self, sequence: _Sequence, hidden: np.ndarray) -> int:
        sampling = sequence.request.sampling
        logits = self.entry.transformer.logits(hidden)[0]
        dist = top_k_dist(logits, k=256)
        if sampling.allowed_bytes_fn is not None:
            allowed = sampling.allowed_bytes_fn(bytes(self._generated_bytes(sequence)))
            restricted = dist.restricted(list(allowed))
            if len(restricted):
                dist = restricted
        if sampling.temperature == 0.0:
            return dist.max_index()
        reshaped = np.asarray(dist.probs, dtype=np.float64) ** (1.0 / sampling.temperature)
        reshaped = reshaped / reshaped.sum()
        dist = TokenDistribution(dist.token_ids, tuple(float(p) for p in reshaped))
        if sampling.top_k is not None and sampling.top_k < len(dist):
            pairs = dist.top(sampling.top_k)
            total = sum(p for _, p in pairs)
            dist = TokenDistribution(
                tuple(t for t, _ in pairs), tuple(p / total for _, p in pairs)
            )
        return sample_from_dist(dist, sequence.rng, top_p=sampling.top_p)

    def _generated_bytes(self, sequence: _Sequence) -> bytes:
        return bytes(t for t in sequence.output_tokens if t < 256)

    def _check_finished(self, sequence: _Sequence) -> None:
        sampling = sequence.request.sampling
        if sequence.output_tokens and sequence.output_tokens[-1] == self.entry.tokenizer.EOS_TOKEN:
            sequence.finish_reason = "eos"
            return
        text = self.entry.tokenizer.decode(sequence.output_tokens)
        if any(stop and text.endswith(stop) for stop in sampling.stop_strings):
            sequence.finish_reason = "stop"
            return
        if len(sequence.output_tokens) >= sampling.max_tokens:
            sequence.finish_reason = "length"

    # -- KV bookkeeping -------------------------------------------------------------------------------

    def _gather_context(self, sequence: _Sequence) -> KvContext:
        needed = sequence.computed_tokens
        pages = sequence.page_ids[: -(-needed // self.page_size)]
        context = self.memory.kv_pages.gather(pages)
        if not self.memory.kv_pages.valid[pages].reshape(-1)[:needed].all():
            raise BaselineError("engine KV accounting error: unwritten slot in context")
        return context

    def _write_kv(self, sequence: _Sequence, result, count: int) -> None:
        self.memory.kv_pages.scatter(
            sequence.page_ids,
            sequence.computed_tokens,
            result.positions[:count],
            [k[:count] for k in result.new_keys],
            [v[:count] for v in result.new_values],
        )
        sequence.computed_tokens += count

    # -- completion ----------------------------------------------------------------------------------------

    def _finish_completed(self) -> None:
        still_running: List[_Sequence] = []
        for sequence in self._running:
            if sequence.finish_reason is None:
                still_running.append(sequence)
                continue
            self._release_sequence(sequence)
            output = RequestOutput(
                request_id=sequence.request.request_id,
                prompt=sequence.request.prompt,
                text=self.entry.tokenizer.decode(sequence.output_tokens),
                token_ids=list(sequence.output_tokens),
                prompt_tokens=len(sequence.prompt_tokens),
                cached_prompt_tokens=min(sequence.cached_tokens, len(sequence.prompt_tokens)),
                finish_reason=sequence.finish_reason,
                latency=self.sim.now - sequence.request.arrival_time,
                steps=sequence.steps,
            )
            self.stats.requests_completed += 1
            if not sequence.future.done():
                sequence.future.set_result(output)
        self._running = still_running

    def _release_sequence(self, sequence: _Sequence) -> None:
        computed = sequence.computed_tokens
        full_pages = computed // self.page_size
        token_chain = sequence.all_tokens[: full_pages * self.page_size]
        page_ids = sequence.page_ids[:full_pages]
        if self.radix is not None:
            self.radix.release_path(sequence.prompt_tokens, sequence.radix_matched)
            adopted_pages = set()
            if page_ids:
                before = self.radix.cached_pages()
                self.radix.insert(token_chain, page_ids)
                # Pages newly adopted by the tree stay resident.
                adopted_pages = self._radix_owned_pages(token_chain, page_ids)
            to_free = [pid for pid in sequence.page_ids if pid not in adopted_pages]
            # Never free pages that belonged to the matched (shared) prefix.
            shared = set(sequence.cached_page_ids)
            to_free = [pid for pid in to_free if pid not in shared]
            if to_free:
                self.memory.kv_pages.free(to_free)
            return
        if self.block_manager.enable_prefix_caching and page_ids:
            self.block_manager.register_prefix(token_chain, page_ids)
        self.block_manager.release_pages(sequence.page_ids, sequence.cached_page_ids)

    def _radix_owned_pages(self, token_chain: List[int], page_ids: List[int]) -> set:
        owned = set()
        node = self.radix.root
        for index in range(len(page_ids)):
            chunk = tuple(token_chain[index * self.page_size : (index + 1) * self.page_size])
            child = node.child_for(chunk[0]) if chunk else None
            if child is None or child.tokens != chunk:
                break
            owned.update(child.page_ids)
            node = child
        return owned
