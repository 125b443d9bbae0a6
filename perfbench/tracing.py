"""Layer tracer for the benchmark's traced run.

The tracer wraps, from outside the program, the public entry points of
each layer and every callback that ``Engine.schedule`` dispatches.  Each
wrapper opens a span (layer, start, end, parent) when control enters a
layer from a different one, and records per-layer call counts at the
same boundaries.  A layer's self time is its span time minus the time
its child spans cover, so the self times of all layers plus the root
span's own time (the ``other`` bucket) add up to the traced wall time.

Spans are aggregated as they close; the first ``SPAN_SAMPLE`` raw spans
are kept in memory and written out by the benchmark when it ends.

Tracing is passive: wrappers call through with the same arguments, and
the engine still receives one event per ``schedule`` call, so simulated
results are identical with and without it (the benchmark checks this).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: raw spans kept in memory for the end-of-run dump
SPAN_SAMPLE = 50_000

#: module prefix -> layer for dispatched callbacks (longest match wins)
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.devices", "devices"),
    ("repro.mem.cache", "mem.cache"),
    ("repro.mem.mshr", "mem.mshr"),
    ("repro.mem.dram", "mem.dram"),
    ("repro.mem.store_buffer", "protocols"),
    ("repro.protocols", "protocols"),
    ("repro.coherence", "protocols"),
    ("repro.core.home", "core.home"),
    ("repro.core.llc", "core.home"),
    ("repro.core.shard", "core.home"),
    ("repro.core.tu", "core.tu"),
    ("repro.core.policy", "core.policy"),
    ("repro.network", "network"),
    ("repro.faults", "faults"),
    ("repro.verify.systems", "verify.build"),
    ("repro.verify.legality", "verify.check"),
    ("repro.analysis.invariants", "verify.check"),
    ("repro.verify", "verify.explore"),
)


def module_layer(module: Optional[str]) -> str:
    best, layer = -1, "other"
    for prefix, name in MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best:
            best, layer = len(prefix), name
    return layer


class LayerTracer:
    """Span stack plus per-layer self time and call counts."""

    def __init__(self):
        self.clock = time.perf_counter
        #: open frames: [layer, start, child_time, opaque, span_id]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: host seconds inside Engine.run (outermost calls only)
        self.engine_run_s = 0.0
        #: host seconds of each explored verify schedule
        self.schedule_s: List[float] = []
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._class_layers: Dict[type, str] = {}
        self._code_layers: Dict[object, Optional[str]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _close(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        parent = self.stack[-1]
        duration = end - frame[1]
        layer = frame[0]
        self.self_s[layer] += duration - frame[2]
        self.calls[layer] += 1
        parent[2] += duration
        if len(self.spans) < SPAN_SAMPLE:
            self.spans.append((frame[4], parent[4], layer, frame[1], end))

    @contextmanager
    def root(self):
        """The whole traced pass; its self time is the ``other`` bucket."""
        frame = ["other", self.clock(), 0.0, False, next(self._ids)]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            self.self_s["other"] += end - frame[1] - frame[2]
            self.spans.append((frame[4], 0, "other", frame[1], end))

    @contextmanager
    def span(self, layer: str, opaque: bool = False):
        """A span opened by the benchmark itself.  ``opaque`` spans keep
        their callees' time (set-up and validation reach into layers
        whose run-phase cost is what those layers report)."""
        frame = [layer, self.clock(), 0.0, opaque, next(self._ids)]
        self.stack.append(frame)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stack, clock, ids, close = self.stack, self.clock, self._ids, \
            self._close

        def traced(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer or top[3]:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0, False, next(ids)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    # -- callback attribution ----------------------------------------------
    def class_layer(self, cls: type) -> str:
        layer = self._class_layers.get(cls)
        if layer is None:
            layer = self._class_layers[cls] = module_layer(cls.__module__)
        return layer

    def callback_layer(self, fn: Callable) -> str:
        """The layer owning a scheduled callback: the class of the bound
        instance (or of the ``self`` a closure captured), else the
        module that defined the function."""
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            return self.class_layer(type(owner))
        code = getattr(fn, "__code__", None)
        if code is None:
            return "other"
        if code not in self._code_layers:
            self._code_layers[code] = (
                None if "self" in code.co_freevars
                else module_layer(getattr(fn, "__module__", None)))
        layer = self._code_layers[code]
        if layer is None:
            cell = fn.__closure__[code.co_freevars.index("self")]
            layer = self.class_layer(type(cell.cell_contents))
        return layer

    # -- patching ------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def patch_class(self, layer: str, cls: type, names: Tuple[str, ...]):
        """Wrap ``names`` on ``cls`` (own or inherited) and on every
        subclass that overrides them."""
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            for name in names:
                if name in klass.__dict__ or klass is cls:
                    self._set(klass, name, self.wrap(layer,
                                                     getattr(klass, name)))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark measures."""
        from repro.analysis.invariants import InvariantChecker
        from repro.core.llc import SpandexLLC
        from repro.core.policy import OwnerPredictor, RequestPolicy
        from repro.core.tu import TranslationUnit
        from repro.faults.injector import FaultInjector
        from repro.mem.cache import CacheArray
        from repro.mem.dram import MainMemory
        from repro.mem.mshr import MSHRFile
        # registers ReliableNetwork as a Network subclass to patch
        from repro.network import reliable  # noqa: F401
        from repro.network.noc import Network
        from repro.protocols.base import L1Controller
        from repro.protocols.gpu_l2 import GPUL2
        from repro.protocols.mesi_llc import MESIDirectoryLLC
        from repro.sim.engine import Engine
        from repro.system.builder import System
        from repro.verify import explorer
        from repro.verify.systems import VerifySystem

        self.patch_class("sim", System, ("run",))
        self.patch_class("mem.cache", CacheArray,
                         ("lookup", "victim_for", "install", "evict"))
        self.patch_class("mem.mshr", MSHRFile,
                         ("lookup", "allocate", "attach", "release",
                          "drain", "stalled"))
        self.patch_class("mem.dram", MainMemory,
                         ("peek", "poke", "fetch", "writeback"))
        self.patch_class("protocols", L1Controller,
                         ("try_access", "receive", "fence_acquire",
                          "fence_release", "self_invalidate"))
        self.patch_class("protocols", GPUL2, ("receive",))
        self.patch_class("protocols", MESIDirectoryLLC, ("receive",))
        self.patch_class("core.home", SpandexLLC, ("receive",))
        self.patch_class("core.tu", TranslationUnit,
                         ("from_device", "receive"))
        self.patch_class("core.policy", RequestPolicy,
                         ("select", "wants_prediction", "observe_forward"))
        self.patch_class("core.policy", OwnerPredictor,
                         ("train", "predict", "mispredict", "invalidate",
                          "lookup"))
        self.patch_class("network.send", Network, ("send",))
        self.patch_class("faults", FaultInjector,
                         ("in_burst", "extra_delay", "should_nack",
                          "drop_reason", "should_duplicate",
                          "reorder_skew"))
        self.patch_class("verify.build", VerifySystem, ("__init__",))
        self.patch_class("verify.check", InvariantChecker, ("audit",))
        self._set(explorer, "check_value_legality",
                  self.wrap("verify.check", explorer.check_value_legality))
        self._set(explorer, "run_schedule",
                  self._timed_schedule(explorer.run_schedule))
        self._set(Engine, "run", self._engine_run(Engine.run))
        self._set(Engine, "schedule", self._engine_schedule(Engine.schedule))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _timed_schedule(self, run_schedule: Callable) -> Callable:
        clock, times = self.clock, self.schedule_s

        def timed(*args, **kwargs):
            start = clock()
            try:
                return run_schedule(*args, **kwargs)
            finally:
                times.append(clock() - start)
        return timed

    def _engine_run(self, run: Callable) -> Callable:
        traced = self.wrap("sim", run)

        def engine_run(*args, **kwargs):
            start = self.clock()
            try:
                return traced(*args, **kwargs)
            finally:
                self.engine_run_s += self.clock() - start
        return engine_run

    def _engine_schedule(self, schedule: Callable) -> Callable:
        """Attribute each event to its callback's layer, and the
        scheduling itself to the kernel."""
        wrap, layer_of = self.wrap, self.callback_layer
        traced_schedule = wrap("sim", schedule)

        def engine_schedule(engine, delay, callback, *args, **kwargs):
            return traced_schedule(engine, delay,
                                   wrap(layer_of(callback), callback),
                                   *args, **kwargs)
        return engine_schedule
