"""Physical device memory: paged KV cache and embedding slots.

Following PagedAttention, the KV cache is carved into fixed-size pages of
``kv_page_size`` token slots; each slot stores per-layer key/value vectors,
the token's sequence position, a validity flag (has the slot been written?)
and a visibility flag (has it been masked out with ``mask_kvpage``?).  The
pages of one device are rows of one pool tensor (:class:`KvPageStore`).

The pools are shared by Pie's control layer and by the baseline engines'
block managers — the paper's "same FlashInfer backend" setup — and enforce
capacity limits so resource-contention policies can be exercised.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import OutOfResourcesError, ResourceError
from repro.gpu.config import GpuConfig
from repro.model.config import ModelConfig
from repro.model.transformer import KvContext


class PhysicalKvPage:
    """One physical KV page: ``page_size`` token slots across all layers.

    The fields are views of the page's row of its :class:`KvPageStore`'s
    pool arrays; ``keys``/``values`` (indexed ``[layer][slot]``) are the
    two halves of ``kv``.
    """

    __slots__ = ("page_id", "page_size", "kv", "keys", "values", "positions", "valid", "visible")

    def __init__(self, page_id: int, store: "KvPageStore") -> None:
        self.page_id = page_id
        self.page_size = store.page_size
        self.kv = store.kv[page_id]
        self.keys = self.kv[0]
        self.values = self.kv[1]
        self.positions = store.positions[page_id]
        self.valid = store.valid[page_id]
        self.visible = store.visible[page_id]

    def clear(self) -> None:
        """Reset the page for reuse by a future allocation."""
        self.kv[...] = 0.0
        self.positions[:] = 0
        self.valid[:] = False
        self.visible[:] = True

    def copy_page_from(self, other: "PhysicalKvPage") -> None:
        """Whole-page copy (used for device-to-device KV transfers)."""
        if other.page_size != self.page_size:
            raise ResourceError(
                f"page size mismatch: {other.page_size} -> {self.page_size}"
            )
        self.kv[...] = other.kv
        self.positions[:] = other.positions
        self.valid[:] = other.valid
        self.visible[:] = other.visible

    def copy_token_from(self, other: "PhysicalKvPage", src_slot: int, dst_slot: int) -> None:
        """Token-level copy (used by ``copy_kvpage``)."""
        if not other.valid[src_slot]:
            raise ResourceError("cannot copy from an unwritten KV slot")
        self.kv[:, :, dst_slot] = other.kv[:, :, src_slot]
        self.positions[dst_slot] = other.positions[src_slot]
        self.valid[dst_slot] = True
        self.visible[dst_slot] = other.visible[src_slot]

    def mask_tokens(self, mask: Sequence[bool]) -> None:
        """Apply a token-level visibility mask (True = keep attending)."""
        mask_arr = np.asarray(list(mask), dtype=bool)
        if mask_arr.shape[0] != self.page_size:
            raise ResourceError(
                f"mask length {mask_arr.shape[0]} != page size {self.page_size}"
            )
        self.visible[:] = mask_arr

    @property
    def num_valid(self) -> int:
        return int(self.valid.sum())


class _Pool:
    """Free-list allocator over a fixed number of integer ids."""

    def __init__(self, capacity: int, kind: str) -> None:
        self.capacity = capacity
        self.kind = kind
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._allocated: set = set()

    def allocate(self, count: int) -> List[int]:
        if count < 0:
            raise ResourceError(f"cannot allocate {count} {self.kind}s")
        if count > len(self._free):
            raise OutOfResourcesError(
                f"out of {self.kind}s: requested {count}, free {len(self._free)}"
            )
        ids = [self._free.pop() for _ in range(count)]
        self._allocated.update(ids)
        return ids

    def free(self, ids: Iterable[int]) -> None:
        """Return ids to the free list.

        The whole batch is validated *before* any id is released, so a
        double free / unknown id / duplicate within the batch raises without
        mutating the pool (a partially applied free would corrupt the free
        list, which swap churn would then silently hand out twice).
        """
        items = list(ids)
        seen: set = set()
        for item in items:
            if item in seen or item not in self._allocated:
                raise ResourceError(f"double free or unknown {self.kind} id {item}")
            seen.add(item)
        for item in items:
            self._allocated.remove(item)
            self._free.append(item)

    @property
    def num_free(self) -> int:
        return len(self._free)

    @property
    def num_allocated(self) -> int:
        return len(self._allocated)

    def is_allocated(self, item: int) -> bool:
        return item in self._allocated


class KvPageStore:
    """Physical KV pages plus their allocator.

    All pages of the device live in one page-major pool tensor ``kv`` of
    shape ``[num_pages, 2 (k/v), n_layers, page_size, n_kv_heads, d_head]``,
    with ``positions``, ``valid`` and ``visible`` of shape
    ``[num_pages, page_size]``.  :meth:`gather` and :meth:`scatter` move a
    forward call's context and new K/V with one fancy index each.
    """

    def __init__(self, model_config: ModelConfig, num_pages: int) -> None:
        self.model_config = model_config
        self.page_size = model_config.kv_page_size
        self._pool = _Pool(num_pages, "kv page")
        layers, heads, d_head = model_config.n_layers, model_config.n_kv_heads, model_config.d_head
        shape = (num_pages, 2, layers, self.page_size, heads, d_head)
        self.kv = np.zeros(shape, dtype=np.float32)
        self.positions = np.zeros((num_pages, self.page_size), dtype=np.int64)
        self.valid = np.zeros((num_pages, self.page_size), dtype=bool)
        self.visible = np.ones((num_pages, self.page_size), dtype=bool)
        self._pages: Dict[int, PhysicalKvPage] = {}

    def allocate(self, count: int) -> List[int]:
        ids = self._pool.allocate(count)
        for pid in ids:
            page = self._pages.get(pid)
            if page is None:
                self._pages[pid] = PhysicalKvPage(pid, self)
            else:
                page.clear()
        return ids

    def free(self, ids: Iterable[int]) -> None:
        self._pool.free(ids)

    def page(self, page_id: int) -> PhysicalKvPage:
        self._check(page_id)
        return self._pages[page_id]

    def gather(self, page_ids: Sequence[int]) -> KvContext:
        """The written slots of ``page_ids`` as a forward call's context,
        in page order and slot order within a page."""
        rows = self._rows(page_ids)
        page_index, slots = np.nonzero(self.valid[rows])
        rows = rows[page_index]
        kv = self.kv[rows, :, :, slots].transpose(1, 2, 0, 3, 4)
        return KvContext(
            keys=list(kv[0]),
            values=list(kv[1]),
            positions=self.positions[rows, slots],
            visible=self.visible[rows, slots],
        )

    def scatter(
        self,
        page_ids: Sequence[int],
        offset: Optional[int],
        positions: np.ndarray,
        keys: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
    ) -> None:
        """Write ``len(positions)`` tokens' per-layer K/V into consecutive
        slots of ``page_ids``, starting ``offset`` slots into the first page
        and crossing page boundaries.  ``offset=None`` starts after as many
        slots as the pages have written."""
        rows = self._rows(page_ids)
        n_tokens = len(positions)
        capacity = len(rows) * self.page_size
        if offset is None:
            offset = int(self.valid[rows].sum())
        if offset < 0 or offset + n_tokens > capacity:
            raise ResourceError(
                f"forward: writing {n_tokens} tokens at offset {offset} exceeds the "
                f"{capacity}-token capacity of the provided KV pages"
            )
        flat = np.arange(offset, offset + n_tokens)
        rows = rows[flat // self.page_size]
        slots = flat % self.page_size
        self.kv[rows, 0, :, slots] = np.stack(keys, axis=1)
        self.kv[rows, 1, :, slots] = np.stack(values, axis=1)
        self.positions[rows, slots] = positions
        self.valid[rows, slots] = True
        self.visible[rows, slots] = True

    def _rows(self, page_ids: Sequence[int]) -> np.ndarray:
        for page_id in page_ids:
            self._check(page_id)
        return np.asarray(page_ids, dtype=np.intp)

    def _check(self, page_id: int) -> None:
        if not self._pool.is_allocated(page_id):
            raise ResourceError(f"KV page {page_id} is not allocated")

    @property
    def num_free(self) -> int:
        return self._pool.num_free

    @property
    def num_allocated(self) -> int:
        return self._pool.num_allocated

    @property
    def capacity(self) -> int:
        return self._pool.capacity


class EmbedStore:
    """Physical embedding slots (one d_model vector per slot)."""

    def __init__(self, model_config: ModelConfig, num_slots: int) -> None:
        self.model_config = model_config
        self._pool = _Pool(num_slots, "embedding slot")
        self._data = np.zeros((num_slots, model_config.d_model), dtype=np.float32)
        self._positions = np.zeros(num_slots, dtype=np.int64)
        self._written = np.zeros(num_slots, dtype=bool)

    def allocate(self, count: int) -> List[int]:
        ids = self._pool.allocate(count)
        for slot in ids:
            self._data[slot] = 0.0
            self._positions[slot] = 0
            self._written[slot] = False
        return ids

    def free(self, ids: Iterable[int]) -> None:
        self._pool.free(ids)

    def write(
        self,
        slot_ids: Sequence[int],
        vectors: np.ndarray,
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[0] != len(slot_ids):
            raise ResourceError("write: slot/vector count mismatch")
        if positions is not None and len(positions) != len(slot_ids):
            raise ResourceError("write: slot/position count mismatch")
        for index, (slot, vector) in enumerate(zip(slot_ids, vectors)):
            self._check(slot)
            self._data[slot] = vector
            if positions is not None:
                self._positions[slot] = positions[index]
            self._written[slot] = True

    def positions(self, slot_ids: Sequence[int]) -> List[int]:
        """Sequence positions associated with the given slots."""
        for slot in slot_ids:
            self._check(slot)
        return [int(self._positions[slot]) for slot in slot_ids]

    def read(self, slot_ids: Sequence[int]) -> np.ndarray:
        for slot in slot_ids:
            self._check(slot)
        return self._data[list(slot_ids)].copy()

    def is_written(self, slot: int) -> bool:
        self._check(slot)
        return bool(self._written[slot])

    def clone_slot_from(self, dst_slot: int, other: "EmbedStore", src_slot: int) -> None:
        """Copy one slot's full state (vector, position, written flag) from
        another store — the disaggregation handoff path migrating embeds
        between devices.  Content-exact so sampled distributions are
        bit-identical on the destination."""
        self._check(dst_slot)
        other._check(src_slot)
        self._data[dst_slot] = other._data[src_slot]
        self._positions[dst_slot] = other._positions[src_slot]
        self._written[dst_slot] = other._written[src_slot]

    def _check(self, slot: int) -> None:
        if not self._pool.is_allocated(slot):
            raise ResourceError(f"embedding slot {slot} is not allocated")

    @property
    def num_free(self) -> int:
        return self._pool.num_free

    @property
    def num_allocated(self) -> int:
        return self._pool.num_allocated

    @property
    def capacity(self) -> int:
        return self._pool.capacity


class DeviceMemory:
    """The device's physical memory: one KV page store + one embed store."""

    def __init__(self, model_config: ModelConfig, gpu_config: Optional[GpuConfig] = None) -> None:
        gpu_config = gpu_config or GpuConfig()
        self.gpu_config = gpu_config
        self.model_config = model_config
        self.kv_pages = KvPageStore(model_config, gpu_config.num_kv_pages)
        self.embeds = EmbedStore(model_config, gpu_config.num_embed_slots)

    @property
    def kv_tokens_capacity(self) -> int:
        return self.kv_pages.capacity * self.model_config.kv_page_size
