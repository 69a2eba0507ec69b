"""Inference-layer API handlers (§5.3).

Each handler executes one *kind* of batched command against device memory
and the transformer.  The handlers are pure with respect to scheduling —
they are invoked by the device with a list of commands and return a list of
per-command results — and they are the only code that touches tensors.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.errors import ResourceError, SchedulingError
from repro.core.command_queue import Command
from repro.gpu.kernels import ForwardRow, KernelCostModel
from repro.gpu.memory import DeviceMemory
from repro.model.registry import ModelEntry
from repro.model.sampling import top_k_dist


class ApiHandlers:
    """The set of handlers serving one model on one device."""

    def __init__(
        self,
        model_entry: ModelEntry,
        memory: DeviceMemory,
        cost_model: KernelCostModel,
        default_top_k: int = 256,
    ) -> None:
        self.model_entry = model_entry
        self.memory = memory
        self.cost_model = cost_model
        self.default_top_k = default_top_k
        self._dispatch = {
            "embed_text": self._run_embed_text,
            "embed_image": self._run_embed_image,
            "forward": self._run_forward,
            "sample": self._run_sample,
            "copy_kv": self._run_copy_kv,
            "copy_emb": self._run_copy_emb,
            "mask_kv": self._run_mask_kv,
            "clear_kv": self._run_clear_kv,
            "dealloc_kv": self._run_release,
            "dealloc_emb": self._run_release,
        }

    # -- public interface -----------------------------------------------------

    def supported_kinds(self) -> List[str]:
        return sorted(self._dispatch)

    def execute_batch(self, kind: str, commands: Sequence[Command]) -> List[Any]:
        """Execute a batch; returns per-command results in command order.

        A failing command yields its exception object in the result list
        instead of failing the whole batch — commands from unrelated
        inferlets share batches, so one inferlet's invalid resource use must
        not take down its batch-mates.
        """
        try:
            handler = self._dispatch[kind]
        except KeyError:
            raise SchedulingError(f"no handler for command kind {kind!r}") from None
        results: List[Any] = []
        for command in commands:
            try:
                results.append(handler(command.payload))
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results.append(exc)
        return results

    def batch_cost_seconds(self, kind: str, commands: Sequence[Command]) -> float:
        """Virtual-time cost of executing the batch on the device."""
        if kind == "forward":
            rows = [
                ForwardRow(
                    n_input_tokens=max(1, command.input_tokens),
                    context_tokens=command.context_tokens,
                )
                for command in commands
            ]
            return self.cost_model.forward_batch_cost(rows)
        if kind in ("embed_text", "embed_image"):
            total_tokens = sum(command.input_tokens for command in commands)
            return self.cost_model.embed_batch_cost(total_tokens)
        if kind == "sample":
            total_rows = sum(command.rows for command in commands)
            return self.cost_model.sample_batch_cost(total_rows)
        if kind in ("copy_kv", "copy_emb"):
            return self.cost_model.copy_batch_cost(len(commands))
        if kind in ("mask_kv", "clear_kv"):
            return self.cost_model.mask_batch_cost(len(commands))
        if kind in ("dealloc_kv", "dealloc_emb"):
            return self.cost_model.alloc_batch_cost(len(commands))
        raise SchedulingError(f"no cost model for command kind {kind!r}")

    # -- embed handlers -----------------------------------------------------------

    def _run_embed_text(self, payload: Dict[str, Any]) -> int:
        token_ids = payload["token_ids"]
        positions = payload["positions"]
        slots = payload["emb_slots"]
        if not (len(token_ids) == len(positions) == len(slots)):
            raise ResourceError("embed_txt: token/position/slot counts must match")
        vectors = self.model_entry.transformer.embed_tokens(token_ids, positions)
        self.memory.embeds.write(slots, vectors, positions)
        return len(slots)

    def _run_embed_image(self, payload: Dict[str, Any]) -> int:
        blob = payload["blob"]
        positions = payload["positions"]
        slots = payload["emb_slots"]
        vectors = self.model_entry.transformer.embed_image(blob, len(slots), positions)
        self.memory.embeds.write(slots, vectors, positions)
        return len(slots)

    # -- forward handler -------------------------------------------------------------

    def _run_forward(self, payload: Dict[str, Any]) -> int:
        """Execute one forward row (whole command or chunked-prefill slice).

        Chunked prefill (repro.core.batching) relies on two properties of
        this handler, both stateful through device memory rather than the
        payload: the gathered context includes every token *committed so
        far* into the input pages — so a later slice attends to the KV its
        predecessors wrote — and the auto-offset of
        :meth:`~repro.gpu.memory.KvPageStore.scatter` (the pages' written
        slot count) lands each slice's KV right after them.  A slice
        therefore needs no extra bookkeeping here; the scheduler only
        resolves the caller's future when the final slice completes.
        """
        ikv: List[int] = payload.get("ikv", [])
        iemb: List[int] = payload.get("iemb", [])
        okv: List[int] = payload.get("okv", [])
        oemb: List[int] = payload.get("oemb", [])
        mask = payload.get("mask")
        adapter_name = payload.get("adapter")
        okv_offset = payload.get("okv_offset")

        if not iemb:
            raise ResourceError("forward: at least one input embedding is required")
        input_embeds = self.memory.embeds.read(iemb)
        positions = self.memory.embeds.positions(iemb)
        context = self.memory.kv_pages.gather(ikv)
        adapter = (
            self.model_entry.adapters.get(adapter_name) if adapter_name is not None else None
        )
        result = self.model_entry.transformer.forward(
            input_embeds,
            positions,
            context,
            attn_mask=np.asarray(mask, dtype=bool) if mask is not None else None,
            adapter=adapter,
        )
        if okv:
            self.memory.kv_pages.scatter(
                okv, okv_offset, result.positions, result.new_keys, result.new_values
            )
        if oemb:
            n_out = len(oemb)
            if n_out > len(iemb):
                raise ResourceError("forward: more output embeddings than input tokens")
            hidden = result.hidden[-n_out:]
            out_positions = positions[-n_out:]
            self.memory.embeds.write(oemb, hidden, out_positions)
        return len(iemb)

    # -- sample handler ----------------------------------------------------------------

    def _run_sample(self, payload: Dict[str, Any]) -> List:
        slots = payload["emb_slots"]
        top_k = payload.get("top_k") or self.default_top_k
        temperature = payload.get("temperature", 1.0)
        hidden = self.memory.embeds.read(slots)
        logits = self.model_entry.transformer.logits(hidden)
        return [top_k_dist(row, k=top_k, temperature=temperature) for row in logits]

    # -- cache manipulation handlers ------------------------------------------------------

    def _run_copy_kv(self, payload: Dict[str, Any]) -> int:
        src = self.memory.kv_pages.page(payload["src"])
        dst = self.memory.kv_pages.page(payload["dst"])
        src_slots = payload.get("src_slots")
        dst_slots = payload.get("dst_slots")
        if src_slots is None:
            src_slots = np.flatnonzero(src.valid).tolist()
        if dst_slots is None:
            dst_slots = list(range(len(src_slots)))
        if len(src_slots) != len(dst_slots):
            raise ResourceError("copy_kvpage: slot count mismatch")
        for src_slot, dst_slot in zip(src_slots, dst_slots):
            dst.copy_token_from(src, src_slot, dst_slot)
        return len(src_slots)

    def _run_copy_emb(self, payload: Dict[str, Any]) -> int:
        src_slots = payload["src"]
        dst_slots = payload["dst"]
        data = self.memory.embeds.read(src_slots)
        positions = self.memory.embeds.positions(src_slots)
        self.memory.embeds.write(dst_slots, data, positions)
        return len(src_slots)

    def _run_mask_kv(self, payload: Dict[str, Any]) -> int:
        page = self.memory.kv_pages.page(payload["page"])
        page.mask_tokens(payload["mask"])
        return 1

    def _run_clear_kv(self, payload: Dict[str, Any]) -> int:
        page = self.memory.kv_pages.page(payload["page"])
        page.clear()
        return 1

    # -- deferred deallocation -------------------------------------------------------------

    @staticmethod
    def _run_release(payload: Dict[str, Any]) -> int:
        release = payload["release"]
        release()
        return 1
