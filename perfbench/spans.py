"""Spans recorded from outside the program, around its public functions.

:func:`install` replaces each function named in :data:`LAYER_TARGETS`
with a wrapper that records a span (name, start, end, parent) in a
:class:`Recorder`.  The program's own code is not modified: the
wrappers are installed by the benchmark at run time, in the benchmark's
process or, for the server, by ``perfbench/serve_main.py`` before it
calls ``repro.cli.main``.  A target that no longer exists is reported
as absent, not raised.

Garbage collection is recorded as ``py.gc`` spans from ``gc.callbacks``,
so collector time is taken out of the self time of the span it
interrupted.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time

from stats import self_times

#: ``(span name, module, attribute path)``: the public entry points of
#: each layer of ``src/repro``.  The span name's prefix is the layer.
LAYER_TARGETS = [
    ("core.seed", "repro.core.seed", "SeedBuilder.build"),
    ("core.snowball", "repro.core.snowball", "SnowballExpander.expand"),
    ("analysis.victims", "repro.analysis.victims", "VictimAnalyzer.analyze"),
    ("analysis.operators", "repro.analysis.operators", "OperatorAnalyzer.analyze"),
    ("analysis.affiliates", "repro.analysis.affiliates", "AffiliateAnalyzer.analyze"),
    ("analysis.clustering", "repro.analysis.families", "FamilyClusterer.cluster"),
    ("serve.build_index", "repro.serve.index", "build_index"),
    ("serve.version", "repro.serve.index", "IntelIndex.version"),
    ("serve.to_bytes", "repro.serve.index", "IntelIndex.to_bytes"),
    ("serve.load_index", "repro.serve.index", "IntelIndex.from_bytes"),
    ("stream.fold", "repro.stream.pipeline", "StreamPipeline.tick"),
    ("stream.expand", "repro.stream.snowball", "IncrementalExpander.advance"),
    ("stream.derive_dataset", "repro.stream.snowball", "IncrementalExpander.derive_dataset"),
    ("stream.derive_clustering", "repro.stream.clusters", "derive_clustering"),
    ("stream.delta_compute", "repro.stream.publish", "compute_index_delta"),
    ("stream.delta_apply", "repro.stream.publish", "apply_index_delta"),
    ("stream.sink_write", "repro.runtime.atomicio", "atomic_write_bytes"),
    ("stream.publish", "repro.stream.publish", "StreamPublisher.publish"),
    ("serve.handle", "repro.serve.handler", "IntelHandlerCore.handle"),
    ("obs.telemetry", "repro.serve.handler", "IntelHandlerCore.begin_request"),
    ("obs.telemetry", "repro.serve.handler", "IntelHandlerCore.finish_request"),
    ("serve.query", "repro.serve.query", "QueryEngine.lookup_address"),
    ("serve.query", "repro.serve.query", "QueryEngine.screen_batch"),
    ("risk.fuse", "repro.serve.query", "QueryEngine.fused_verdict"),
    ("risk.fusion", "repro.risk.fusion", "FusionEngine.fuse"),
    ("serve.payload", "repro.serve.query", "ScreenVerdict.to_payload"),
    ("serve.payload", "repro.serve.index", "AddressIntel.to_payload"),
]

#: Modules whose globals may hold re-exported copies of a target
#: function (``from x import f``); each copy is replaced too.
_IMPORT_ROOTS = ("repro.api", "repro.cli", "repro.serve", "repro.stream")


class Recorder:
    """Spans kept in memory: ``(span_id, parent_id, name, start, end)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self._gc_open: dict[int, tuple[int, int | None, float]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def begin(self, name: str) -> tuple[int, int | None, str, float]:
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def end(self, token) -> None:
        span_id, parent, name, start = token
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(token)

        return wrapper

    # -- garbage collection --------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        tid = threading.get_ident()
        if phase == "start":
            stack = self._stack()
            span_id = self._new_id()
            self._gc_open[tid] = (span_id, stack[-1] if stack else None,
                                  time.perf_counter())
        else:
            opened = self._gc_open.pop(tid, None)
            if opened is not None:
                span_id, parent, start = opened
                self.spans.append(
                    (span_id, parent, "py.gc", start, time.perf_counter()))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reading -------------------------------------------------------------

    def take(self) -> list:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def summary(self, spans=None) -> dict[str, list[float]]:
        """Per name, ``[self seconds, calls, inclusive seconds]``."""
        spans = self.spans if spans is None else spans
        out = {name: [total, count, 0.0]
               for name, (total, count) in self_times(spans).items()}
        for _, _, name, start, end in spans:
            out[name][2] += end - start
        return out


def _resolve(module_name: str, path: str):
    """``(owner, attribute, raw value)`` or ``None`` when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def _cached_property_wrapper(recorder: Recorder, prop: property, name: str) -> property:
    """Time a lazily cached property only when it computes: a cached
    read is a dict hit, and a span per read would only measure the span."""
    fget = prop.fget

    def timed(self):
        if getattr(self, "_version", None) is not None:
            return fget(self)
        token = recorder.begin(name)
        try:
            return fget(self)
        finally:
            recorder.end(token)

    return property(functools.wraps(fget)(timed), prop.fset, prop.fdel, prop.__doc__)


def install(recorder: Recorder, targets=LAYER_TARGETS) -> tuple[list[str], list[str]]:
    """Wrap every target; returns ``(installed, absent)`` target labels."""
    for root in _IMPORT_ROOTS:
        try:
            importlib.import_module(root)
        except ImportError:
            pass
    installed: list[str] = []
    absent: list[str] = []
    for name, module_name, path in targets:
        label = f"{module_name}.{path}"
        found = _resolve(module_name, path)
        if found is None:
            absent.append(label)
            continue
        owner, attr, raw = found
        if isinstance(raw, property):
            setattr(owner, attr, _cached_property_wrapper(recorder, raw, name))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(raw.__func__, name)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(raw.__func__, name)))
        elif callable(raw):
            wrapped = recorder.wrap(raw, name)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                _replace_reexports(raw, wrapped)
        else:
            absent.append(label)
            continue
        installed.append(label)
    return installed, absent


def _replace_reexports(original, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
