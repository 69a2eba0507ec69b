"""Tests for the toy transformer substrate: determinism and KV-cache exactness."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ReproError
from repro.model import (
    ByteTokenizer,
    KvContext,
    LoraAdapter,
    TinyTransformer,
    get_model_config,
)


@pytest.fixture(scope="module")
def config():
    return get_model_config("llama-sim-1b")


@pytest.fixture(scope="module")
def model(config):
    return TinyTransformer(config)


@pytest.fixture(scope="module")
def tokenizer(config):
    return ByteTokenizer(config.vocab_size)


def run_full(model, token_ids):
    """Single-call forward over all tokens with no KV cache."""
    positions = list(range(len(token_ids)))
    embeds = model.embed_tokens(token_ids, positions)
    return model.forward(embeds, positions)


def context_from_result(config, result, upto=None):
    """Build a KvContext from a ForwardResult's new K/V (first ``upto`` tokens)."""
    upto = upto if upto is not None else result.hidden.shape[0]
    return KvContext(
        keys=[k[:upto] for k in result.new_keys],
        values=[v[:upto] for v in result.new_values],
        positions=result.positions[:upto].copy(),
        visible=np.ones(upto, dtype=bool),
    )


class TestEmbedding:
    def test_shapes(self, model, config):
        emb = model.embed_tokens([1, 2, 3], [0, 1, 2])
        assert emb.shape == (3, config.d_model)

    def test_deterministic(self, model):
        a = model.embed_tokens([10, 20], [0, 1])
        b = model.embed_tokens([10, 20], [0, 1])
        np.testing.assert_array_equal(a, b)

    def test_position_changes_embedding(self, model):
        a = model.embed_tokens([42], [0])
        b = model.embed_tokens([42], [5])
        assert not np.allclose(a, b)

    def test_token_out_of_vocab_rejected(self, model, config):
        with pytest.raises(ReproError):
            model.embed_tokens([config.vocab_size], [0])

    def test_length_mismatch_rejected(self, model):
        with pytest.raises(ReproError):
            model.embed_tokens([1, 2], [0])

    def test_image_embedding_shape_and_determinism(self, model, config):
        blob = b"\x01\x02\x03" * 100
        a = model.embed_image(blob, 4, [0, 1, 2, 3])
        b = model.embed_image(blob, 4, [0, 1, 2, 3])
        assert a.shape == (4, config.d_model)
        np.testing.assert_array_equal(a, b)

    def test_num_image_embeds_needed(self, model):
        assert model.num_image_embeds_needed(1) == 1
        assert model.num_image_embeds_needed(1024) == 1
        assert model.num_image_embeds_needed(1025) == 2


class TestForwardBasics:
    def test_output_shapes(self, model, config):
        result = run_full(model, [1, 2, 3, 4])
        assert result.hidden.shape == (4, config.d_model)
        assert len(result.new_keys) == config.n_layers
        assert result.new_keys[0].shape == (4, config.n_kv_heads, config.d_head)

    def test_deterministic(self, model):
        r1 = run_full(model, [5, 6, 7])
        r2 = run_full(model, [5, 6, 7])
        np.testing.assert_array_equal(r1.hidden, r2.hidden)

    def test_causality_prefix_invariance(self, model):
        """Adding future tokens must not change earlier tokens' hidden states."""
        short = run_full(model, [9, 8, 7])
        longer = run_full(model, [9, 8, 7, 6, 5])
        np.testing.assert_allclose(short.hidden, longer.hidden[:3], atol=1e-5)

    def test_logits_shape(self, model, config):
        result = run_full(model, [1, 2])
        logits = model.logits(result.hidden)
        assert logits.shape == (2, config.vocab_size)

    def test_bad_input_shape_rejected(self, model):
        with pytest.raises(ReproError):
            model.forward(np.zeros((2, 3), dtype=np.float32), [0, 1])

    def test_positions_mismatch_rejected(self, model, config):
        with pytest.raises(ReproError):
            model.forward(np.zeros((2, config.d_model), dtype=np.float32), [0])


class TestKvCacheExactness:
    """Splitting a forward pass across KV-cache reuse must be exact."""

    def test_split_prefill_matches_fused(self, model, config, tokenizer):
        tokens = tokenizer.encode("Hello, world! This is a KV cache test.")
        fused = run_full(model, tokens)

        split_point = len(tokens) // 2
        first = run_full(model, tokens[:split_point])
        ctx = context_from_result(config, first)
        rest_pos = list(range(split_point, len(tokens)))
        rest_emb = model.embed_tokens(tokens[split_point:], rest_pos)
        second = model.forward(rest_emb, rest_pos, ctx)

        np.testing.assert_allclose(
            fused.hidden[split_point:], second.hidden, atol=1e-4
        )
        for layer in range(config.n_layers):
            np.testing.assert_allclose(
                fused.new_keys[layer][split_point:], second.new_keys[layer], atol=1e-4
            )

    def test_token_by_token_decode_matches_fused(self, model, config):
        tokens = [72, 101, 108, 108, 111, 44, 32, 87]
        fused = run_full(model, tokens)

        keys = [np.zeros((0, config.n_kv_heads, config.d_head), np.float32) for _ in range(config.n_layers)]
        values = [np.zeros((0, config.n_kv_heads, config.d_head), np.float32) for _ in range(config.n_layers)]
        positions = np.zeros(0, dtype=np.int64)
        last_hidden = None
        for i, tok in enumerate(tokens):
            ctx = KvContext(
                keys=[k.copy() for k in keys],
                values=[v.copy() for v in values],
                positions=positions.copy(),
                visible=np.ones(len(positions), dtype=bool),
            )
            emb = model.embed_tokens([tok], [i])
            res = model.forward(emb, [i], ctx)
            last_hidden = res.hidden[0]
            keys = [np.concatenate([keys[l], res.new_keys[l]]) for l in range(config.n_layers)]
            values = [np.concatenate([values[l], res.new_values[l]]) for l in range(config.n_layers)]
            positions = np.concatenate([positions, np.array([i], dtype=np.int64)])

        np.testing.assert_allclose(fused.hidden[-1], last_hidden, atol=1e-4)

    def test_masked_context_token_changes_output(self, model, config):
        tokens = [10, 20, 30, 40, 50]
        first = run_full(model, tokens[:4])
        ctx_visible = context_from_result(config, first)
        ctx_masked = context_from_result(config, first)
        ctx_masked.visible[1] = False  # hide the second cached token

        emb = model.embed_tokens([tokens[4]], [4])
        out_visible = model.forward(emb, [4], ctx_visible)
        out_masked = model.forward(emb, [4], ctx_masked)
        assert not np.allclose(out_visible.hidden, out_masked.hidden)

    def test_masked_context_equivalent_to_never_seeing_token(self, model, config):
        """Masking cached token t is equivalent to a context without t,
        provided the cached K/V were produced without attending to t."""
        tokens = [3, 5, 7, 11]
        # Compute each token's KV independently (window = itself only) so the
        # cached values do not embed information about other tokens.
        keys = [[] for _ in range(config.n_layers)]
        values = [[] for _ in range(config.n_layers)]
        for i, tok in enumerate(tokens):
            emb = model.embed_tokens([tok], [i])
            res = model.forward(emb, [i])
            for l in range(config.n_layers):
                keys[l].append(res.new_keys[l][0])
                values[l].append(res.new_values[l][0])

        def build_ctx(indices, visible_flags):
            return KvContext(
                keys=[np.stack([keys[l][i] for i in indices]) for l in range(config.n_layers)],
                values=[np.stack([values[l][i] for i in indices]) for l in range(config.n_layers)],
                positions=np.array(indices, dtype=np.int64),
                visible=np.array(visible_flags, dtype=bool),
            )

        query_emb = model.embed_tokens([13], [len(tokens)])
        ctx_masked = build_ctx([0, 1, 2, 3], [True, False, True, True])
        ctx_dropped = build_ctx([0, 2, 3], [True, True, True])
        out_masked = model.forward(query_emb, [len(tokens)], ctx_masked)
        out_dropped = model.forward(query_emb, [len(tokens)], ctx_dropped)
        np.testing.assert_allclose(out_masked.hidden, out_dropped.hidden, atol=1e-5)

    def test_explicit_mask_overrides_causality(self, model, config):
        tokens = [1, 2, 3]
        embeds = model.embed_tokens(tokens, [0, 1, 2])
        causal = model.forward(embeds, [0, 1, 2])
        # An explicit mask identical to the inferred causal mask gives the
        # same result; a full bidirectional mask changes it (tokens now see
        # the future).
        causal_mask = np.tril(np.ones((3, 3), dtype=bool))
        explicit = model.forward(embeds, [0, 1, 2], attn_mask=causal_mask)
        np.testing.assert_allclose(causal.hidden, explicit.hidden, atol=1e-6)
        full_mask = np.ones((3, 3), dtype=bool)
        bidirectional = model.forward(embeds, [0, 1, 2], attn_mask=full_mask)
        assert not np.allclose(causal.hidden[0], bidirectional.hidden[0])

    def test_explicit_mask_wrong_shape_rejected(self, model):
        embeds = model.embed_tokens([1, 2], [0, 1])
        with pytest.raises(ReproError):
            model.forward(embeds, [0, 1], attn_mask=np.ones((2, 5), dtype=bool))


def reference_attention(config, q, keys, values, mask):
    """Grouped-query attention with the KV heads expanded by np.repeat and
    both products as einsums: the form the BLAS kernel replaced."""
    group = config.gqa_group_size
    k_full = np.repeat(keys, group, axis=1)
    v_full = np.repeat(values, group, axis=1)
    scores = np.einsum("ihd,jhd->hij", q, k_full) / np.sqrt(config.d_head)
    scores = np.where(mask[None, :, :], scores, np.finfo(np.float32).min / 2)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    denom = weights.sum(axis=-1, keepdims=True)
    weights = np.where(mask.any(axis=-1)[None, :, None], weights / np.maximum(denom, 1e-9), 0.0)
    return np.einsum("hij,jhd->ihd", weights, v_full).reshape(q.shape[0], config.d_model)


class TestAttentionKernel:
    """TinyTransformer._attention folds each GQA group into its KV head's
    query rows and runs both products as batched matmuls."""

    @pytest.mark.parametrize("n_heads, n_kv_heads", [(4, 2), (8, 2), (4, 4), (4, 1)])
    @pytest.mark.parametrize("n_in, n_keys", [(1, 1), (3, 40), (17, 17)])
    def test_matches_einsum_reference(self, config, n_heads, n_kv_heads, n_in, n_keys):
        cfg = replace(config, n_heads=n_heads, n_kv_heads=n_kv_heads)
        model = TinyTransformer(cfg)
        rng = np.random.default_rng(n_in * 100 + n_keys)
        q = rng.normal(size=(n_in, n_heads, cfg.d_head)).astype(np.float32)
        keys = rng.normal(size=(n_keys, n_kv_heads, cfg.d_head)).astype(np.float32)
        values = rng.normal(size=(n_keys, n_kv_heads, cfg.d_head)).astype(np.float32)
        mask = rng.random((n_in, n_keys)) < 0.6
        mask[:, 0] = True
        got = model._attention(q, keys, values, mask)
        want = reference_attention(cfg, q, keys, values, mask)
        assert got.shape == want.shape == (n_in, cfg.d_model)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_rows_without_a_visible_key_are_exactly_zero(self, model, config):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(4, config.n_heads, config.d_head)).astype(np.float32)
        keys = rng.normal(size=(6, config.n_kv_heads, config.d_head)).astype(np.float32)
        values = rng.normal(size=(6, config.n_kv_heads, config.d_head)).astype(np.float32)
        mask = np.ones((4, 6), dtype=bool)
        mask[1] = False
        mask[3] = False
        out = model._attention(q, keys, values, mask)
        assert np.all(out[[1, 3]] == 0.0)
        assert np.all(np.abs(out[[0, 2]]).sum(axis=-1) > 0)


class TestLora:
    def test_adapter_changes_output(self, model, config):
        adapter = LoraAdapter("test", config, rank=2, alpha=8.0, seed=3)
        tokens = [50, 60, 70]
        embeds = model.embed_tokens(tokens, [0, 1, 2])
        base = model.forward(embeds, [0, 1, 2])
        adapted = model.forward(embeds, [0, 1, 2], adapter=adapter)
        assert not np.allclose(base.hidden, adapted.hidden)

    def test_zero_alpha_is_identity(self, model, config):
        adapter = LoraAdapter("zero", config, rank=2, alpha=0.0, seed=3)
        tokens = [50, 60, 70]
        embeds = model.embed_tokens(tokens, [0, 1, 2])
        base = model.forward(embeds, [0, 1, 2])
        adapted = model.forward(embeds, [0, 1, 2], adapter=adapter)
        np.testing.assert_allclose(base.hidden, adapted.hidden, atol=1e-6)

    def test_invalid_rank_rejected(self, config):
        with pytest.raises(ReproError):
            LoraAdapter("bad", config, rank=0)

    def test_parameter_count(self, config):
        adapter = LoraAdapter("count", config, rank=4)
        expected = config.n_layers * (config.d_model * 4 + 4 * config.d_model)
        assert adapter.parameter_count == expected
