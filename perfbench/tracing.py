"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer of ``repro`` — the
calls the program makes into its parser, collapser, linter, code generator,
native loader, planner, shared-memory buffers, engine, native module,
profile store and session — and records one span per call: layer name,
start, end and parent span.  Wrappers are installed between rounds and
removed again, so untraced rounds of the same run execute the unmodified
program; spans stay in memory and are summarised when the run ends.

Only the calling process is traced.  Engine workers are forked before the
wrappers are installed, so worker-side work is reported through what the
engine hands back (``chunk_seconds``), never through wrappers of its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: the span name of the benchmark's own call around one op
OP = "op"
#: the session span: its self time is the program's unattributed residual
SESSION = "runtime.session.run"


class Span:
    __slots__ = ("name", "start", "end", "parent", "children")

    def __init__(self, name: str, start: int, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children: List["Span"] = []

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_time(self) -> int:
        return self.duration - sum(child.duration for child in self.children)


class TraceAccountingError(AssertionError):
    """The spans of one op do not nest, so they cannot add up to its time."""


def check_nesting(root: Span) -> None:
    """Children lie inside their parent and never overlap their siblings.

    Under that condition the self times of a span tree sum exactly (in
    integer nanoseconds) to the root's duration, which is what lets the
    report say spans plus the unattributed residual equal the op time.
    """
    stack = [root]
    while stack:
        span = stack.pop()
        previous_end = span.start
        for child in span.children:
            if child.start < previous_end or child.end > span.end or child.end < child.start:
                raise TraceAccountingError(
                    f"span {child.name!r} [{child.start}, {child.end}] escapes or overlaps "
                    f"inside {span.name!r} [{span.start}, {span.end}]"
                )
            previous_end = child.end
            stack.append(child)


class Tracer:
    """Spans plus per-op counters, recorded around calls into ``repro``."""

    def __init__(self):
        self._current: Optional[Span] = None
        self._patches: List[tuple] = []
        #: per-layer totals over traced ops: inclusive ns and named counts
        self.layer_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_ns: List[int] = []
        self.unattributed_ns = 0
        #: (plan, result) of the latest engine execution, for the batch probe
        self.last_execute: Optional[tuple] = None

    # -- spans ---------------------------------------------------------- #
    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        span = Span(name, 0, self._current)
        if self._current is not None:
            self._current.children.append(span)
        self._current = span
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._current = span.parent
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def run_op(self, fn: Callable):
        """Run one op under a root span; fold its spans into the totals."""
        root = Span(OP, 0, None)
        self._current = root
        root.start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            root.end = time.perf_counter_ns()
            self._current = None
            self._fold(root)

    def probe(self, fn: Callable):
        """Run untimed layer calls after an op (counted, not part of its time)."""
        root = Span("probe", time.perf_counter_ns(), None)
        self._current = root
        try:
            return fn()
        finally:
            root.end = time.perf_counter_ns()
            self._current = None
            self._add_inclusive(root)

    def _add_inclusive(self, root: Span) -> None:
        # a layer's time is that of its outermost span: a nested call into
        # the same layer (compile_native_kernel -> compile_collapsed) is not
        # counted twice
        stack = [(child, frozenset()) for child in root.children]
        while stack:
            span, enclosing = stack.pop()
            if span.name not in enclosing:
                self.layer_ns[span.name] += span.duration
            inner = enclosing | {span.name}
            stack.extend((child, inner) for child in span.children)

    def _fold(self, root: Span) -> None:
        check_nesting(root)
        self.ops += 1
        self.op_ns.append(root.duration)
        self._add_inclusive(root)
        residual = root.self_time
        stack = list(root.children)
        while stack:
            span = stack.pop()
            if span.name == SESSION:
                residual += span.self_time
            stack.extend(span.children)
        self.unattributed_ns += residual

    # -- instrumentation ------------------------------------------------- #
    def _wrap(self, name: str, fn: Callable, after) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after)

        return traced

    def wrap_function(self, name: str, module: str, attr: str, after=None) -> None:
        """Replace every binding of ``module.attr`` in the loaded ``repro`` modules."""
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrap(name, original, after)
        for module_name, loaded in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
                    self._patches.append((loaded, key, original))

    def wrap_method(self, name: str, cls: type, attr: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrap(name, raw.__func__, after))
        else:
            traced = self._wrap(name, raw, after)
        setattr(cls, attr, traced)
        self._patches.append((cls, attr, raw))

    def wrap_field(self, name: str, instance, attr: str, after=None) -> None:
        """Wrap a callable stored on a (frozen dataclass) instance."""
        original = getattr(instance, attr)
        object.__setattr__(instance, attr, self._wrap(name, original, after))
        self._patches.append((instance, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, (type, types.ModuleType)):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------- #
# the layer table
# ---------------------------------------------------------------------- #
def _count(name: str, value) -> Callable:
    def after(tracer, args, kwargs, result):
        tracer.counts[name] += value(args, kwargs, result)
    return after


def _nbytes(arrays) -> int:
    return sum(int(getattr(array, "nbytes", 0)) for array in arrays)


def _engine_after(tracer, args, kwargs, result) -> None:
    # the critical path of the substrate: the busiest worker's chunk seconds
    busy: Dict[int, float] = defaultdict(float)
    for worker, seconds in zip(result.assignments, result.chunk_seconds):
        busy[worker] += seconds
    tracer.counts["runtime.engine.substrate_ns"] += max(busy.values(), default=0.0) * 1e9
    tracer.counts["runtime.engine.chunks"] += len(result.chunks)
    tracer.last_execute = (args[1], result)  # RuntimeSession passes the plan positionally


def _native_run_after(tracer, args, kwargs, result) -> None:
    tracer.counts["native.substrate_ns"] += max(result.chunk_seconds, default=0.0) * 1e9


def install_layers(tracer: Tracer, kernels=()) -> None:
    """Wrap every layer boundary the per-layer report names."""
    from repro.core.batch import BatchRecovery
    from repro.native.module import NativeModule
    from repro.runtime.engine import RuntimeEngine
    from repro.runtime.plan import ExecutionPlan
    from repro.runtime.profile import ProfileStore
    from repro.runtime.session import RuntimeSession
    from repro.runtime.shm import SharedBuffers

    function = tracer.wrap_function
    function("ir.parse", "repro.ir.parser", "parse_loop_nest")
    function("core.ranking", "repro.core.ranking", "ranking_polynomial")
    function("core.unranking", "repro.core.unranking", "build_unranking")
    function("core.collapse", "repro.core.collapse", "collapse")
    function("lint.overflow", "repro.lint.registry", "static_check_plan")
    function(
        "core.codegen_c", "repro.core.codegen_c", "generate_translation_unit",
        _count("core.codegen_c.bytes", lambda a, k, r: len(r.encode("utf-8"))),
    )
    function("native.load", "repro.native.module", "compile_collapsed")
    function("native.load", "repro.native.module", "compile_native_kernel")
    function("runtime.plan", "repro.runtime.plan", "build_plan")

    method = tracer.wrap_method
    method("runtime.plan.chunks", ExecutionPlan, "chunks")
    method(
        "runtime.shm.create", SharedBuffers, "create",
        _count("runtime.shm.bytes", lambda a, k, r: _nbytes(r.arrays.values())),
    )
    method(
        "runtime.shm.fill", SharedBuffers, "fill_from",
        _count("runtime.shm.bytes", lambda a, k, r: _nbytes(a[1].values())),
    )
    method(
        "runtime.shm.snapshot", SharedBuffers, "snapshot",
        _count("runtime.shm.bytes", lambda a, k, r: _nbytes(r.values())),
    )
    method("runtime.shm.close", SharedBuffers, "close")
    method("runtime.engine.execute", RuntimeEngine, "execute", _engine_after)
    method("native.run", NativeModule, "run", _native_run_after)
    method(
        "native.recover", NativeModule, "recover_range",
        _count("native.recoveries", lambda a, k, r: int(r.shape[0])),
    )
    method("core.batch.recover", BatchRecovery, "recover_range")
    method(
        "runtime.profile.record", ProfileStore, "record",
        _count("runtime.profile.writes", lambda a, k, r: 1),
    )
    method(SESSION, RuntimeSession, "run")
    for kernel in kernels:
        tracer.wrap_field("kernels.make_data", kernel, "make_data")
