"""A small, deterministic transformer with paged-KV-friendly forward passes.

The class implements the three stages the Pie API exposes:

* :meth:`TinyTransformer.embed_tokens` — the ``embed_txt`` handler.
* :meth:`TinyTransformer.forward` — the ``forward`` handler: given input
  embeddings (with explicit positions) and a gathered KV context, compute
  output hidden states and the new per-layer K/V for the input tokens.
* :meth:`TinyTransformer.logits` / :meth:`next_token_dist` — the
  ``get_next_dist`` handler.

The math is ordinary pre-norm multi-head attention with grouped-query KV
heads and a two-layer MLP.  What matters for the reproduction is that K/V
computed in one forward call and re-used in a later call produce *exactly*
the same outputs as a single fused call — the property the paper's paged KV
cache relies on — and that position-based causal masks, explicit boolean
masks and token-level cache masking all behave as documented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ReproError
from repro.model.config import ModelConfig
from repro.model.positional import sinusoidal_positions
from repro.model.lora import LoraAdapter


@dataclass
class KvContext:
    """Per-layer keys/values gathered from KV pages for one forward call.

    ``positions`` and ``visible`` are shared across layers: entry *i*
    describes the *i*-th gathered context token.  ``visible`` is False for
    tokens masked out with ``mask_kvpage`` (they are still resident in the
    cache but must not be attended to).
    """

    keys: List[np.ndarray] = field(default_factory=list)
    values: List[np.ndarray] = field(default_factory=list)
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    visible: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @classmethod
    def empty(cls, config: ModelConfig) -> "KvContext":
        shape = (0, config.n_kv_heads, config.d_head)
        return cls(
            keys=[np.zeros(shape, dtype=np.float32) for _ in range(config.n_layers)],
            values=[np.zeros(shape, dtype=np.float32) for _ in range(config.n_layers)],
            positions=np.zeros(0, dtype=np.int64),
            visible=np.zeros(0, dtype=bool),
        )

    @property
    def length(self) -> int:
        return int(self.positions.shape[0])


@dataclass
class ForwardResult:
    """Output of a forward call.

    ``hidden`` holds the final-layer hidden state of every *input* token (in
    input order); ``new_keys``/``new_values`` hold the per-layer K/V of the
    input tokens, ready to be written into KV pages.
    """

    hidden: np.ndarray
    new_keys: List[np.ndarray]
    new_values: List[np.ndarray]
    positions: np.ndarray


class _LayerWeights:
    """Weights for one transformer block (created deterministically)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        d = config.d_model
        kv_dim = config.n_kv_heads * config.d_head
        scale = 1.0 / np.sqrt(d)
        self.wq = rng.normal(0.0, scale, size=(d, d)).astype(np.float32)
        self.wk = rng.normal(0.0, scale, size=(d, kv_dim)).astype(np.float32)
        self.wv = rng.normal(0.0, scale, size=(d, kv_dim)).astype(np.float32)
        self.wo = rng.normal(0.0, scale, size=(d, d)).astype(np.float32)
        self.w1 = rng.normal(0.0, scale, size=(d, config.d_ff)).astype(np.float32)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(config.d_ff), size=(config.d_ff, d)).astype(
            np.float32
        )


def _layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


class TinyTransformer:
    """Deterministic numpy transformer used by the simulated inference layer."""

    def __init__(self, config: ModelConfig, seed: Optional[int] = None) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        d = config.d_model
        self.token_embedding = rng.normal(0.0, 0.5, size=(config.vocab_size, d)).astype(
            np.float32
        )
        self.layers = [_LayerWeights(config, rng) for _ in range(config.n_layers)]
        self.output_norm_gain = np.ones(d, dtype=np.float32)

    # -- embed stage -------------------------------------------------------

    def embed_tokens(self, token_ids: Sequence[int], positions: Sequence[int]) -> np.ndarray:
        """Embed token ids at explicit positions (the ``embed_txt`` handler)."""
        tokens = np.asarray(list(token_ids), dtype=np.int64)
        pos = list(positions)
        if tokens.shape[0] != len(pos):
            raise ReproError(
                f"embed_tokens: {tokens.shape[0]} tokens but {len(pos)} positions"
            )
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ReproError("embed_tokens: token id outside the vocabulary")
        embeds = self.token_embedding[tokens]
        return embeds + sinusoidal_positions(pos, self.config.d_model)

    def embed_image(self, blob: bytes, n_slots: int, positions: Sequence[int]) -> np.ndarray:
        """Deterministic pseudo-embedding of an image blob (``embed_img``)."""
        digest = np.frombuffer(
            np.asarray(bytearray(blob or b"\x00")), dtype=np.uint8
        ).astype(np.float32)
        seed = int(digest.sum()) % (2**31)
        rng = np.random.default_rng(seed)
        base = rng.normal(0.0, 0.5, size=(n_slots, self.config.d_model)).astype(np.float32)
        return base + sinusoidal_positions(positions, self.config.d_model)

    def num_image_embeds_needed(self, image_size: int) -> int:
        """Number of embedding slots an image of ``image_size`` bytes needs."""
        patch_bytes = 1024
        return max(1, (image_size + patch_bytes - 1) // patch_bytes)

    # -- forward stage -------------------------------------------------------

    def forward(
        self,
        input_embeds: np.ndarray,
        positions: Sequence[int],
        context: Optional[KvContext] = None,
        attn_mask: Optional[np.ndarray] = None,
        adapter: Optional[LoraAdapter] = None,
    ) -> ForwardResult:
        """Run the transformer over the input tokens.

        ``attn_mask`` (if given) is a boolean matrix of shape
        ``(n_inputs, n_context + n_inputs)``; True means the query may attend
        to that key.  Without it, a causal mask is inferred from positions.
        Tokens masked at the cache level (``context.visible == False``) are
        never attended to, regardless of the explicit mask.
        """
        config = self.config
        x = np.asarray(input_embeds, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != config.d_model:
            raise ReproError(f"forward: bad input embedding shape {x.shape}")
        n_in = x.shape[0]
        pos_in = np.asarray(list(positions), dtype=np.int64)
        if pos_in.shape[0] != n_in:
            raise ReproError("forward: positions length must match input embeddings")
        if context is None:
            context = KvContext.empty(config)
        n_ctx = context.length

        mask = self._build_mask(pos_in, context, attn_mask)

        new_keys: List[np.ndarray] = []
        new_values: List[np.ndarray] = []
        hidden = x
        for layer_index, layer in enumerate(self.layers):
            normed = _layer_norm(hidden)
            q = normed @ self._wq(layer, adapter, layer_index)
            k_new = normed @ layer.wk
            v_new = normed @ layer.wv
            q = q.reshape(n_in, config.n_heads, config.d_head)
            k_new = k_new.reshape(n_in, config.n_kv_heads, config.d_head)
            v_new = v_new.reshape(n_in, config.n_kv_heads, config.d_head)
            new_keys.append(k_new)
            new_values.append(v_new)

            k_ctx = context.keys[layer_index] if n_ctx else np.zeros(
                (0, config.n_kv_heads, config.d_head), dtype=np.float32
            )
            v_ctx = context.values[layer_index] if n_ctx else np.zeros(
                (0, config.n_kv_heads, config.d_head), dtype=np.float32
            )
            keys = np.concatenate([k_ctx, k_new], axis=0)
            values = np.concatenate([v_ctx, v_new], axis=0)

            attn_out = self._attention(q, keys, values, mask)
            hidden = hidden + attn_out @ layer.wo
            normed = _layer_norm(hidden)
            mlp = np.maximum(normed @ layer.w1, 0.0) @ layer.w2
            hidden = hidden + mlp

        hidden = _layer_norm(hidden) * self.output_norm_gain
        return ForwardResult(
            hidden=hidden, new_keys=new_keys, new_values=new_values, positions=pos_in
        )

    def _wq(
        self, layer: _LayerWeights, adapter: Optional[LoraAdapter], layer_index: int
    ) -> np.ndarray:
        if adapter is None:
            return layer.wq
        return adapter.apply_to_query(layer.wq, layer_index)

    def _build_mask(
        self,
        pos_in: np.ndarray,
        context: KvContext,
        attn_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        n_in = pos_in.shape[0]
        n_ctx = context.length
        total = n_ctx + n_in
        if attn_mask is not None:
            mask = np.asarray(attn_mask, dtype=bool)
            if mask.shape != (n_in, total):
                raise ReproError(
                    f"forward: explicit mask shape {mask.shape} != ({n_in}, {total})"
                )
            mask = mask.copy()
        else:
            key_positions = np.concatenate([context.positions, pos_in])
            mask = key_positions[None, :] <= pos_in[:, None]
            # Within the same call, later inputs may not attend to earlier
            # inputs that share a position (ties broken by input order).
            same_pos = key_positions[None, :] == pos_in[:, None]
            key_order = np.arange(total)
            query_order = n_ctx + np.arange(n_in)
            mask &= ~(same_pos & (key_order[None, :] > query_order[:, None]))
        if n_ctx:
            mask[:, :n_ctx] &= context.visible[None, :]
        return mask

    def _attention(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        config = self.config
        n_in = q.shape[0]
        n_kv, group, d_head = config.n_kv_heads, config.gqa_group_size, config.d_head
        n_keys = keys.shape[0]
        # Fold each KV head's query group into its rows, so both products
        # are batched matmuls over the KV heads: (n_kv, group * n_in, d_head).
        q_rows = q.reshape(n_in, n_kv, group, d_head).transpose(1, 2, 0, 3)
        q_rows = q_rows.reshape(n_kv, group * n_in, d_head)
        scores = (q_rows @ keys.transpose(1, 2, 0)) / np.sqrt(d_head)
        scores = scores.reshape(n_kv, group, n_in, n_keys)
        neg = np.finfo(np.float32).min / 2
        scores = np.where(mask, scores, neg)
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        # Rows with no visible key at all produce a zero attention output.
        denom = weights.sum(axis=-1, keepdims=True)
        row_has_key = mask.any(axis=-1)[:, None]
        weights = np.where(row_has_key, weights / np.maximum(denom, 1e-9), 0.0)
        weights = weights.reshape(n_kv, group * n_in, n_keys)
        attn = (weights @ values.transpose(1, 0, 2)).reshape(n_kv, group, n_in, d_head)
        return attn.transpose(2, 0, 1, 3).reshape(n_in, config.d_model)

    # -- sample stage --------------------------------------------------------

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project hidden states onto the vocabulary (tied embeddings)."""
        hidden = np.asarray(hidden, dtype=np.float32)
        if hidden.ndim == 1:
            hidden = hidden[None, :]
        return hidden @ self.token_embedding.T

    def next_token_logits(self, hidden_row: np.ndarray) -> np.ndarray:
        return self.logits(hidden_row)[0]
