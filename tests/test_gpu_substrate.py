"""Tests for the simulated GPU: memory pools, cost model, serial device."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfResourcesError, ResourceError, SimulationError
from repro.gpu import (
    DeviceMemory,
    ForwardRow,
    GpuConfig,
    KernelCostModel,
    KvPageStore,
    SimDevice,
)
from repro.model import get_model_config
from repro.sim import Simulator


@pytest.fixture()
def config():
    return get_model_config("llama-sim-1b")


@pytest.fixture()
def memory(config):
    return DeviceMemory(config, GpuConfig(num_kv_pages=8, num_embed_slots=16))


class TestGpuConfig:
    def test_defaults_valid(self):
        cfg = GpuConfig()
        assert cfg.num_kv_pages > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_kv_pages": 0},
            {"num_embed_slots": 0},
            {"max_batch_rows": 0},
            {"max_batch_tokens": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(Exception):
            GpuConfig(**kwargs)


def _write_slot(store, page_id, slot, position, keys, values):
    """Write one token's per-layer K/V vectors at ``slot`` of a page."""
    store.scatter(
        [page_id], slot, np.array([position]), [k[None] for k in keys], [v[None] for v in values]
    )


class TestKvPageStore:
    def test_allocate_and_free(self, memory):
        ids = memory.kv_pages.allocate(3)
        assert len(ids) == 3
        assert memory.kv_pages.num_allocated == 3
        memory.kv_pages.free(ids)
        assert memory.kv_pages.num_allocated == 0
        assert memory.kv_pages.num_free == 8

    def test_exhaustion(self, memory):
        memory.kv_pages.allocate(8)
        with pytest.raises(OutOfResourcesError):
            memory.kv_pages.allocate(1)

    def test_double_free_rejected(self, memory):
        ids = memory.kv_pages.allocate(1)
        memory.kv_pages.free(ids)
        with pytest.raises(ResourceError):
            memory.kv_pages.free(ids)

    def test_unallocated_page_access_rejected(self, memory):
        with pytest.raises(ResourceError):
            memory.kv_pages.page(0)

    def test_page_reuse_is_cleared(self, memory, config):
        ids = memory.kv_pages.allocate(1)
        page = memory.kv_pages.page(ids[0])
        k = [np.ones((config.n_kv_heads, config.d_head), np.float32)] * config.n_layers
        _write_slot(memory.kv_pages, ids[0], 0, position=5, keys=k, values=k)
        assert page.num_valid == 1
        memory.kv_pages.free(ids)
        ids2 = memory.kv_pages.allocate(1)
        page2 = memory.kv_pages.page(ids2[0])
        assert page2.num_valid == 0

    def test_write_and_copy_token(self, memory, config):
        ids = memory.kv_pages.allocate(2)
        src = memory.kv_pages.page(ids[0])
        dst = memory.kv_pages.page(ids[1])
        k = [np.full((config.n_kv_heads, config.d_head), 2.0, np.float32)] * config.n_layers
        v = [np.full((config.n_kv_heads, config.d_head), 3.0, np.float32)] * config.n_layers
        _write_slot(memory.kv_pages, ids[0], 1, position=7, keys=k, values=v)
        dst.copy_token_from(src, src_slot=1, dst_slot=0)
        assert dst.valid[0]
        assert dst.positions[0] == 7
        np.testing.assert_array_equal(dst.keys[0][0], k[0])

    def test_copy_unwritten_slot_rejected(self, memory):
        ids = memory.kv_pages.allocate(2)
        src = memory.kv_pages.page(ids[0])
        dst = memory.kv_pages.page(ids[1])
        with pytest.raises(ResourceError):
            dst.copy_token_from(src, 0, 0)

    def test_mask_tokens(self, memory, config):
        ids = memory.kv_pages.allocate(1)
        page = memory.kv_pages.page(ids[0])
        mask = [False] * config.kv_page_size
        mask[3] = True
        page.mask_tokens(mask)
        assert page.visible[3]
        assert not page.visible[0]

    def test_mask_wrong_length_rejected(self, memory):
        ids = memory.kv_pages.allocate(1)
        with pytest.raises(ResourceError):
            memory.kv_pages.page(ids[0]).mask_tokens([True, False])

    def test_write_bad_slot_rejected(self, memory, config):
        ids = memory.kv_pages.allocate(1)
        k = [np.zeros((config.n_kv_heads, config.d_head), np.float32)] * config.n_layers
        with pytest.raises(ResourceError):
            _write_slot(memory.kv_pages, ids[0], config.kv_page_size, 0, k, k)
        assert memory.kv_pages.page(ids[0]).num_valid == 0

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_allocation_accounting_property(self, sizes):
        store = KvPageStore(get_model_config("llama-sim-1b"), num_pages=32)
        allocated = []
        for size in sizes:
            allocated.append(store.allocate(size))
        assert store.num_allocated == sum(len(a) for a in allocated)
        for ids in allocated:
            store.free(ids)
        assert store.num_allocated == 0
        assert store.num_free == 32


class TestPoolFreeHardening:
    """_Pool.free must reject bad batches atomically (swap churn makes a
    silently corrupted free list a live failure mode)."""

    def test_double_free_raises(self, memory):
        ids = memory.kv_pages.allocate(2)
        memory.kv_pages.free(ids)
        with pytest.raises(ResourceError, match="double free or unknown"):
            memory.kv_pages.free([ids[0]])

    def test_unknown_id_raises(self, memory):
        with pytest.raises(ResourceError, match="double free or unknown"):
            memory.kv_pages.free([12345])

    def test_duplicate_within_batch_raises(self, memory):
        [pid] = memory.kv_pages.allocate(1)
        with pytest.raises(ResourceError, match="double free or unknown"):
            memory.kv_pages.free([pid, pid])

    def test_failed_free_leaves_pool_untouched(self, memory):
        ids = memory.kv_pages.allocate(3)
        free_before = memory.kv_pages.num_free
        # A batch that is partially valid must not be partially applied:
        # the valid prefix stays allocated when the bad tail raises.
        with pytest.raises(ResourceError):
            memory.kv_pages.free([ids[0], ids[1], 99999])
        assert memory.kv_pages.num_free == free_before
        assert memory.kv_pages.num_allocated == 3
        # The ids are still allocated and can be freed cleanly afterwards.
        memory.kv_pages.free(ids)
        assert memory.kv_pages.num_allocated == 0


def _reference_gather(store, page_ids):
    """The per-slot loop the pool-wide gather replaced: written slots in
    page order, then slot order."""
    n_layers = store.model_config.n_layers
    keys = [[] for _ in range(n_layers)]
    values = [[] for _ in range(n_layers)]
    positions, visible = [], []
    for page_id in page_ids:
        page = store.page(page_id)
        for slot in range(page.page_size):
            if not page.valid[slot]:
                continue
            for layer in range(n_layers):
                keys[layer].append(page.keys[layer][slot])
                values[layer].append(page.values[layer][slot])
            positions.append(int(page.positions[slot]))
            visible.append(bool(page.visible[slot]))
    return keys, values, positions, visible


def _token_kv(config, n_tokens, seed):
    rng = np.random.default_rng(seed)
    shape = (n_tokens, config.n_kv_heads, config.d_head)
    keys = [rng.normal(size=shape).astype(np.float32) for _ in range(config.n_layers)]
    values = [rng.normal(size=shape).astype(np.float32) for _ in range(config.n_layers)]
    return keys, values


class TestKvGatherScatter:
    """KvPageStore.gather / scatter: one fancy index over the pool tensor."""

    @given(
        st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=16, max_size=16),  # written slots
                st.lists(st.booleans(), min_size=16, max_size=16),  # mask_kv mask
                st.booleans(),  # apply the mask
            ),
            min_size=0,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_gather_matches_per_slot_reference(self, pages, seed):
        config = get_model_config("llama-sim-1b")
        assert config.kv_page_size == 16
        store = KvPageStore(config, num_pages=8)
        store.allocate(2)  # the gathered pages need not start at row 0
        ids = store.allocate(len(pages))
        rng = np.random.default_rng(seed)
        for page_id, (written, mask, masked) in zip(ids, pages):
            for slot in np.flatnonzero(written):
                keys, values = _token_kv(config, 1, int(rng.integers(2**31)))
                store.scatter([page_id], int(slot), np.array([rng.integers(1000)]), keys, values)
            if masked:
                store.page(page_id).mask_tokens(mask)
        order = list(reversed(ids)) if seed % 2 else ids
        context = store.gather(order)
        keys, values, positions, visible = _reference_gather(store, order)
        assert context.positions.dtype == np.int64
        assert context.positions.tolist() == positions
        assert context.visible.tolist() == visible
        for layer in range(config.n_layers):
            expect_shape = (len(positions), config.n_kv_heads, config.d_head)
            if positions:
                np.testing.assert_array_equal(context.keys[layer], np.stack(keys[layer]))
                np.testing.assert_array_equal(context.values[layer], np.stack(values[layer]))
            assert context.keys[layer].shape == expect_shape
            assert context.values[layer].shape == expect_shape

    def test_scatter_lands_chunked_prefill_across_page_boundaries(self, memory, config):
        store = memory.kv_pages
        ids = store.allocate(3)
        keys, values = _token_kv(config, 40, seed=1)
        positions = np.arange(100, 140)
        # Three prefill slices of 10, 20 and 10 tokens, each appended after
        # the slots the previous ones wrote (offset=None).
        for start, stop in ((0, 10), (10, 30), (30, 40)):
            store.scatter(
                ids,
                None,
                positions[start:stop],
                [k[start:stop] for k in keys],
                [v[start:stop] for v in values],
            )
        for token in range(40):
            page = store.page(ids[token // 16])
            slot = token % 16
            assert page.valid[slot] and page.visible[slot]
            assert page.positions[slot] == 100 + token
            for layer in range(config.n_layers):
                np.testing.assert_array_equal(page.keys[layer][slot], keys[layer][token])
                np.testing.assert_array_equal(page.values[layer][slot], values[layer][token])
        assert store.page(ids[2]).num_valid == 8
        context = store.gather(ids)
        assert context.positions.tolist() == list(range(100, 140))
        np.testing.assert_array_equal(context.keys[1], keys[1])

    def test_scatter_at_explicit_offset(self, memory, config):
        store = memory.kv_pages
        ids = store.allocate(2)
        keys, values = _token_kv(config, 5, seed=2)
        store.scatter(ids, 14, np.arange(5), keys, values)
        first, second = store.page(ids[0]), store.page(ids[1])
        assert np.flatnonzero(first.valid).tolist() == [14, 15]
        assert np.flatnonzero(second.valid).tolist() == [0, 1, 2]
        np.testing.assert_array_equal(second.keys[0][2], keys[0][4])

    @pytest.mark.parametrize("offset, n_tokens", [(None, 33), (30, 3), (-1, 1)])
    def test_scatter_overflow_rejected_without_writing(self, memory, config, offset, n_tokens):
        store = memory.kv_pages
        ids = store.allocate(2)
        keys, values = _token_kv(config, n_tokens, seed=3)
        with pytest.raises(ResourceError):
            store.scatter(ids, offset, np.arange(n_tokens), keys, values)
        assert store.valid.sum() == 0
        assert not store.kv.any()

    def test_unallocated_pages_rejected(self, memory, config):
        store = memory.kv_pages
        ids = store.allocate(2)
        store.free(ids[1:])
        keys, values = _token_kv(config, 1, seed=4)
        with pytest.raises(ResourceError):
            store.gather([ids[0], ids[1]])
        with pytest.raises(ResourceError):
            store.scatter([ids[0], ids[1]], 20, np.arange(1), keys, values)
        with pytest.raises(ResourceError):
            store.gather([7])

    def test_page_fields_are_views_of_the_pool(self, memory, config):
        store = memory.kv_pages
        src, dst = (store.page(pid) for pid in store.allocate(2))
        keys, values = _token_kv(config, 1, seed=5)
        store.scatter([src.page_id], 3, np.array([9]), keys, values)
        dst.copy_page_from(src)
        np.testing.assert_array_equal(store.kv[dst.page_id], store.kv[src.page_id])
        assert store.positions[dst.page_id, 3] == 9 and store.valid[dst.page_id, 3]
        dst.clear()
        assert not store.kv[dst.page_id].any() and not store.valid[dst.page_id].any()


class TestEmbedStore:
    def test_write_read_roundtrip(self, memory, config):
        ids = memory.embeds.allocate(2)
        data = np.arange(2 * config.d_model, dtype=np.float32).reshape(2, -1)
        memory.embeds.write(ids, data)
        np.testing.assert_array_equal(memory.embeds.read(ids), data)
        assert memory.embeds.is_written(ids[0])

    def test_read_unallocated_rejected(self, memory):
        with pytest.raises(ResourceError):
            memory.embeds.read([0])

    def test_write_count_mismatch_rejected(self, memory, config):
        ids = memory.embeds.allocate(1)
        with pytest.raises(ResourceError):
            memory.embeds.write(ids, np.zeros((2, config.d_model), np.float32))

    def test_exhaustion(self, memory):
        memory.embeds.allocate(16)
        with pytest.raises(OutOfResourcesError):
            memory.embeds.allocate(1)

    def test_capacity_token_count(self, memory, config):
        assert memory.kv_tokens_capacity == 8 * config.kv_page_size


class TestKernelCostModel:
    def test_single_decode_matches_tpot(self, config):
        model = KernelCostModel(config)
        cost = model.forward_batch_cost([ForwardRow(1, 100)])
        assert cost * 1e3 == pytest.approx(config.cost.decode_ms_base, rel=0.01)

    def test_batching_is_sublinear(self, config):
        model = KernelCostModel(config)
        one = model.forward_batch_cost([ForwardRow(1)])
        many = model.forward_batch_cost([ForwardRow(1)] * 32)
        assert many < 32 * one
        assert many > one

    def test_prefill_scales_with_tokens(self, config):
        model = KernelCostModel(config)
        short = model.forward_batch_cost([ForwardRow(16)])
        long = model.forward_batch_cost([ForwardRow(512)])
        assert long > short

    def test_empty_batch_free(self, config):
        model = KernelCostModel(config)
        assert model.forward_batch_cost([]) == 0.0

    def test_context_term(self, config):
        model = KernelCostModel(config)
        small_ctx = model.forward_batch_cost([ForwardRow(1, 0)])
        big_ctx = model.forward_batch_cost([ForwardRow(1, 8192)])
        assert big_ctx > small_ctx

    def test_embed_and_sample_costs_positive(self, config):
        model = KernelCostModel(config)
        assert model.embed_batch_cost(10) > 0
        assert model.sample_batch_cost(1) > 0
        assert model.sample_batch_cost(8) > model.sample_batch_cost(1)

    def test_fused_equals_forward(self, config):
        model = KernelCostModel(config)
        rows = [ForwardRow(1, 256)] * 4
        assert model.fused_step_cost(rows) == model.forward_batch_cost(rows)

    def test_costs_ordered_by_model_size(self):
        costs = [
            KernelCostModel(get_model_config(name)).single_decode_step_ms()
            for name in ("llama-sim-1b", "llama-sim-3b", "llama-sim-8b")
        ]
        assert costs == sorted(costs)

    def test_misc_costs(self, config):
        model = KernelCostModel(config)
        assert model.copy_batch_cost(4) > model.copy_batch_cost(1)
        assert model.mask_batch_cost(4) > 0
        assert model.alloc_batch_cost(10) > 0
        assert model.prefill_ms(100) > model.single_decode_step_ms()


class TestSimDevice:
    def test_serial_execution_accumulates_time(self):
        sim = Simulator()
        device = SimDevice(sim)
        results = []

        async def main():
            f1 = device.submit("op", lambda: "a", cost_seconds=0.010)
            f2 = device.submit("op", lambda: "b", cost_seconds=0.020)
            results.append(await f1)
            results.append(await f2)

        sim.run_until_complete(main())
        assert results == ["a", "b"]
        assert sim.now == pytest.approx(0.030)
        assert device.stats.batches_executed == 2

    def test_busy_flag_and_idle_notification(self):
        sim = Simulator()
        device = SimDevice(sim)
        idle_times = []
        device.on_idle(lambda: idle_times.append(sim.now))

        device.submit("op", lambda: None, cost_seconds=0.005)
        assert device.busy
        sim.run()
        assert not device.busy
        assert idle_times == [pytest.approx(0.005)]

    def test_error_propagates_through_future(self):
        sim = Simulator()
        device = SimDevice(sim)

        def failing():
            raise ValueError("kernel crash")

        async def main():
            await device.submit("op", failing, cost_seconds=0.001)

        with pytest.raises(ValueError, match="kernel crash"):
            sim.run_until_complete(main())

    def test_negative_cost_rejected(self):
        sim = Simulator()
        device = SimDevice(sim)
        with pytest.raises(SimulationError):
            device.submit("op", lambda: None, cost_seconds=-1.0)

    def test_utilization(self):
        sim = Simulator()
        device = SimDevice(sim)
        device.submit("op", lambda: None, cost_seconds=0.5)
        sim.run()
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert device.utilization() == pytest.approx(0.5)

    def test_stats_by_kind(self):
        sim = Simulator()
        device = SimDevice(sim)
        device.submit("forward", lambda: None, cost_seconds=0.01, size=4)
        device.submit("embed", lambda: None, cost_seconds=0.01)
        sim.run()
        assert device.stats.batches_by_kind == {"forward": 1, "embed": 1}
        assert device.stats.items_executed == 5
