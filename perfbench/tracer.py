"""Span tracing of Pie's layers, installed from outside the program.

The traced run patches a fixed list of public entry points with wrappers
that record one span per call: layer, parent span, host ``perf_counter``
start/end, virtual ``sim.now`` start/end and the request it serves.  A
coroutine entry point records one span per resumption, so its host time is
the time its own frames ran, not the virtual time it waited.  A layer's
self time is its spans' time minus the time of their child spans; it is
accumulated as spans close.  Spans stay in memory and are written once,
when the run ends.  Nothing is patched outside :meth:`Tracer.installed`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.api import InferletContext
from repro.core.controller import Controller
from repro.core.handlers import ApiHandlers
from repro.core.lifecycle import InferletLifecycleManager
from repro.core.messaging import ExternalServices
from repro.core.prefix_cache import PrefixCacheService
from repro.core.resources import ResourceManager
from repro.core.router import Router
from repro.core.scheduler import BatchScheduler
from repro.core.swap import SwapManager
from repro.gpu.device import SimDevice
from repro.model.transformer import TinyTransformer
from repro.sim.simulator import Simulator
from repro.support.context import Context

#: Layer names, after the modules the wrapped entry points live in.
#: ``app`` is the benchmark's own inferlet programs.
LAYERS = (
    "sim",
    "app",
    "support",
    "core.api",
    "core.lifecycle",
    "core.controller",
    "core.scheduler",
    "core.handlers",
    "model",
    "gpu.device",
    "core.prefix_cache",
    "core.resources",
    "core.swap",
    "core.router",
    "core.messaging",
)
_INDEX = {name: index for index, name in enumerate(LAYERS)}
_NO_REQUEST = -1


def _public_methods(cls) -> List[str]:
    """Names of the plain public functions ``cls`` defines itself."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Tracer:
    """Records spans of one traced run and the counts taken beside them."""

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self._stack: List[list] = []
        self._next_id = 0
        self._requests: Dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.layer = array("b")
        self.request = array("q")
        self.host = array("d")  # start, end pairs
        self.virtual = array("d")  # start, end pairs
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        # Counts recorded at the layer boundaries.
        self.submitted_at: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        self.forward_tokens = 0
        self.prefill_s = 0.0
        self.decode_s = 0.0
        self.device_busy: Dict[str, float] = {}
        self.kv_pages_peak = 0
        self.tool_waits: List[float] = []

    # -- spans ---------------------------------------------------------------

    def _request_id(self, instance_id: str) -> int:
        return self._requests.setdefault(instance_id, len(self._requests))

    def _enter(self, layer: int, request: int) -> None:
        stack = self._stack
        if request == _NO_REQUEST and stack:
            request = stack[-1][4]
        span = self._next_id
        self._next_id = span + 1
        now = self.sim.now if self.sim is not None else 0.0
        stack.append([layer, perf_counter(), 0.0, span, request, now])
        self.calls[layer] += 1

    def _exit(self) -> None:
        end = perf_counter()
        layer, start, children, span, request, v_start = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - children
        stack = self._stack
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        else:
            parent = -1
        self.span_id.append(span)
        self.parent.append(parent)
        self.layer.append(layer)
        self.request.append(request)
        self.host.append(start)
        self.host.append(end)
        self.virtual.append(v_start)
        self.virtual.append(self.sim.now if self.sim is not None else 0.0)

    def _sync(self, layer: str, fn: Callable, request_of=None, after=None) -> Callable:
        index = _INDEX[layer]
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(index, request_of(args) if request_of else _NO_REQUEST)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _async(self, layer: str, fn: Callable, request_of=None, after=None) -> Callable:
        index = _INDEX[layer]
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            v_start = tracer.sim.now
            request = request_of(args) if request_of else _NO_REQUEST
            result = await _Resumptions(tracer, index, request, fn(*args, **kwargs))
            if after is not None:
                after(v_start, tracer.sim.now)
            return result

        return wrapper

    def wrap_main(self, main: Callable) -> Callable:
        """Time an inferlet program's own frames as the ``app`` layer."""
        return self._async("app", main, lambda args: self._request_id(args[0].instance_id))

    # -- counts taken at the boundaries --------------------------------------

    def _on_submit(self, args, kwargs, result) -> None:
        command = args[2] if len(args) > 2 else kwargs["command"]
        self.submitted_at[command.command_id] = self.sim.now

    def _on_execute(self, args, kwargs, result) -> None:
        handlers, kind, commands = args[0], args[1], args[2]
        now = self.sim.now
        for command in commands:
            issued = self.submitted_at.pop(command.command_id, None)
            if issued is not None:
                self.queue_waits.append(now - issued)
        if kind == "forward":
            cost = handlers.batch_cost_seconds(kind, commands)
            if any(command.input_tokens > 1 for command in commands):
                self.prefill_s += cost
            else:
                self.decode_s += cost

    def _on_forward(self, args, kwargs, result) -> None:
        self.forward_tokens += len(args[1])

    def _on_device_submit(self, args, kwargs, result) -> None:
        device = args[0]
        cost = kwargs["cost_seconds"] if "cost_seconds" in kwargs else args[3]
        self.device_busy[device.name] = self.device_busy.get(device.name, 0.0) + cost

    def _on_alloc(self, args, kwargs, result) -> None:
        manager = args[0]
        used = manager.memory.kv_pages.capacity - manager.kv_pages_free
        self.kv_pages_peak = max(self.kv_pages_peak, used)

    def _on_tool(self, v_start: float, v_end: float) -> None:
        self.tool_waits.append(v_end - v_start)

    # -- installation -----------------------------------------------------------

    def _patches(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        api_request = lambda args: self._request_id(args[0].instance_id)  # noqa: E731
        support_request = lambda args: self._request_id(args[0].api.instance_id)  # noqa: E731
        patches = [
            (Simulator, "step", self._sync("sim", Simulator.step)),
            (InferletLifecycleManager, "launch",
             self._sync("core.lifecycle", InferletLifecycleManager.launch)),
            (Controller, "submit_command",
             self._sync("core.controller", Controller.submit_command)),
            (BatchScheduler, "submit",
             self._sync("core.scheduler", BatchScheduler.submit, after=self._on_submit)),
            (ApiHandlers, "execute_batch",
             self._sync("core.handlers", ApiHandlers.execute_batch, after=self._on_execute)),
            (TinyTransformer, "forward",
             self._sync("model", TinyTransformer.forward, after=self._on_forward)),
            (SimDevice, "submit",
             self._sync("gpu.device", SimDevice.submit, after=self._on_device_submit)),
            (PrefixCacheService, "begin_forward",
             self._sync("core.prefix_cache", PrefixCacheService.begin_forward)),
            (ResourceManager, "alloc_kv_pages",
             self._sync("core.resources", ResourceManager.alloc_kv_pages, after=self._on_alloc)),
            (ResourceManager, "dealloc_kv_pages",
             self._sync("core.resources", ResourceManager.dealloc_kv_pages)),
            (SwapManager, "swap_out", self._sync("core.swap", SwapManager.swap_out)),
            (SwapManager, "fault_in", self._sync("core.swap", SwapManager.fault_in)),
            (Router, "place", self._sync("core.router", Router.place)),
            (ExternalServices, "request",
             self._async("core.messaging", ExternalServices.request, after=self._on_tool)),
        ]
        # ``top_k_dist`` and ``form_candidate_batches`` are module
        # functions; patch each name where its caller looks it up.
        import repro.core.handlers as handlers_module
        import repro.core.scheduler as scheduler_module

        patches += [
            (handlers_module, "top_k_dist", self._sync("model", handlers_module.top_k_dist)),
            (scheduler_module, "form_candidate_batches",
             self._sync("core.scheduler", scheduler_module.form_candidate_batches)),
        ]
        for cls, layer, request_of in (
            (InferletContext, "core.api", api_request),
            (Context, "support", support_request),
        ):
            for name in _public_methods(cls):
                fn = vars(cls)[name]
                wrap = self._async if inspect.iscoroutinefunction(fn) else self._sync
                patches.append((cls, name, wrap(layer, fn, request_of)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        patches = self._patches()
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- results ------------------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self.span_id)

    def layer_self_s(self) -> Dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    def root_seconds(self) -> float:
        """Host time covered by spans without a parent."""
        host = np.frombuffer(self.host, dtype=np.float64).reshape(-1, 2)
        roots = np.frombuffer(self.parent, dtype=np.int64) < 0
        return float((host[roots, 1] - host[roots, 0]).sum())

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (an ``.npz`` of parallel arrays)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(LAYERS),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            request=np.frombuffer(self.request, dtype=np.int64),
            host=np.frombuffer(self.host, dtype=np.float64).reshape(-1, 2),
            virtual=np.frombuffer(self.virtual, dtype=np.float64).reshape(-1, 2),
        )


class _Resumptions:
    """Awaitable that drives a coroutine, one span per resumption."""

    __slots__ = ("_tracer", "_layer", "_request", "_coro")

    def __init__(self, tracer: Tracer, layer: int, request: int, coro) -> None:
        self._tracer = tracer
        self._layer = layer
        self._request = request
        self._coro = coro

    def __await__(self):
        inner = self._coro.__await__()
        enter, exit_ = self._tracer._enter, self._tracer._exit
        value, error = None, None
        while True:
            enter(self._layer, self._request)
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into the coroutine
                error = exc


#: Units of the per-layer metrics the result line carries, in report order.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.self_s": "s",
    "core.controller.submits": "count",
    "core.controller.self_s": "s",
    "core.api.calls_per_request": "count",
    "core.api.self_s": "s",
    "support.self_s": "s",
    "core.scheduler.rows_per_batch": "count",
    "core.scheduler.tokens_per_batch": "count",
    "core.scheduler.queue_wait_mean_ms": "ms",
    "core.scheduler.queue_wait_tail_ms": "ms",
    "core.scheduler.commands_dropped": "count",
    "core.scheduler.self_s": "s",
    "core.handlers.self_s": "s",
    "model.forward_tokens": "count",
    "model.self_s": "s",
    "model.host_us_per_token": "us",
    "gpu.device.busy_share": "ratio",
    "gpu.device.busy_imbalance": "ratio",
    "gpu.device.prefill_s": "s",
    "gpu.device.decode_s": "s",
    "gpu.device.self_s": "s",
    "core.prefix_cache.hit_ratio": "ratio",
    "core.prefix_cache.saved_token_share": "ratio",
    "core.prefix_cache.inserted_pages": "count",
    "core.prefix_cache.self_s": "s",
    "core.router.placement_imbalance": "ratio",
    "core.router.self_s": "s",
    "core.resources.kv_pages_peak": "count",
    "core.resources.kv_fill": "ratio",
    "core.resources.self_s": "s",
    "core.swap.swap_outs": "count",
    "core.swap.swap_ins": "count",
    "core.swap.terminations": "count",
    "core.lifecycle.self_s": "s",
    "core.messaging.tool_calls": "count",
    "app.self_s": "s",
    "trace.overhead": "ratio",
    "trace.self_share": "ratio",
}
#: Per-layer values only the readable report shows.  Each reads the same
#: on every run of some workload (zero where the layer does no work, or a
#: constant the deployment fixes), which a result line must not carry.
REPORT_ONLY_UNITS = {
    "core.scheduler.queue_wait_p50_ms": "ms",
    "core.swap.stall_s": "s",
    "core.swap.self_s": "s",
    "core.lifecycle.launch_ms_p50": "ms",
    "core.messaging.tool_wait_ms_p50": "ms",
    "core.messaging.self_s": "s",
}


def _imbalance(values: List[float]) -> float:
    """Largest over mean; 1.0 is perfectly even."""
    mean = sum(values) / len(values)
    return max(values) / mean if mean else 1.0


def per_layer(tracer: Tracer, dep, untraced_host: float, untraced_events: int,
              traced_host: float, traced_wall: float) -> Dict[str, float]:
    """Per-layer values of a traced run (see :data:`PER_LAYER_UNITS` and
    :data:`REPORT_ONLY_UNITS`).

    ``*_host`` are CPU times of the untraced and the traced repetition;
    ``traced_wall`` is the traced repetition's wall time, the clock spans use.
    """
    from perfbench.stats import percentile, tail

    server, sim, inputs = dep.server, dep.sim, dep.inputs
    metrics = server.metrics
    combined = server.cluster_stats().combined
    devices = inputs.config.gpu.num_devices
    self_s = tracer.layer_self_s()
    busy = list(tracer.device_busy.values())
    busy += [0.0] * (devices - len(busy))
    placements = list(metrics.placements_by_device.values())
    placements += [0] * (devices - len(placements))
    forward_batches = combined.batches_by_kind.get("forward", 0)
    lookups = metrics.prefix_cache_hits + metrics.prefix_cache_misses
    prompt_tokens = sum(len(turn) for r in inputs.requests for turn in r.turns)
    records = dep.records.values()
    waits = tracer.queue_waits
    calls = sum(record.total_calls for record in metrics.per_inferlet.values())
    values = {
        "sim.events": sim.processed_events,
        "sim.host_us_per_event": untraced_host / untraced_events * 1e6,
        "core.controller.submits": tracer.calls[_INDEX["core.controller"]],
        "core.api.calls_per_request": calls / len(inputs.requests),
        "core.scheduler.rows_per_batch": (
            (combined.decode_rows_dispatched + combined.prefill_rows_dispatched)
            / forward_batches
        ),
        "core.scheduler.tokens_per_batch": combined.forward_tokens_dispatched / forward_batches,
        "core.scheduler.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "core.scheduler.queue_wait_mean_ms": sum(waits) / len(waits) * 1e3,
        "core.scheduler.queue_wait_tail_ms": tail(waits)[0] * 1e3,
        "core.scheduler.commands_dropped": metrics.commands_dropped,
        "model.forward_tokens": tracer.forward_tokens,
        "model.host_us_per_token": self_s["model"] / tracer.forward_tokens * 1e6,
        "gpu.device.busy_share": sum(busy) / (devices * sim.now),
        "gpu.device.busy_imbalance": _imbalance(busy),
        "gpu.device.prefill_s": tracer.prefill_s,
        "gpu.device.decode_s": tracer.decode_s,
        "core.prefix_cache.hit_ratio": metrics.prefix_cache_hits / lookups if lookups else 0.0,
        "core.prefix_cache.saved_token_share": metrics.prefix_cache_saved_tokens / prompt_tokens,
        "core.prefix_cache.inserted_pages": metrics.prefix_cache_inserted_pages,
        "core.router.placement_imbalance": _imbalance([float(p) for p in placements]),
        "core.resources.kv_pages_peak": tracer.kv_pages_peak,
        "core.resources.kv_fill": (
            sum(r.kv_tokens for r in records) / sum(r.kv_capacity for r in records)
        ),
        "core.swap.swap_outs": metrics.swap_outs,
        "core.swap.swap_ins": metrics.swap_ins,
        "core.swap.stall_s": metrics.swap_stall_seconds,
        "core.swap.terminations": metrics.inferlets_terminated,
        "core.lifecycle.launch_ms_p50": metrics.launch_latency.percentile(50) * 1e3,
        "core.messaging.tool_calls": len(tracer.tool_waits),
        "core.messaging.tool_wait_ms_p50": (
            percentile(tracer.tool_waits, 50) * 1e3 if tracer.tool_waits else 0.0
        ),
        "trace.overhead": traced_host / untraced_host,
        "trace.self_share": sum(self_s.values()) / traced_wall,
    }
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = seconds
    return {name: float(values[name]) for name in {**PER_LAYER_UNITS, **REPORT_ONLY_UNITS}}
