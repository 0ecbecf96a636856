"""Outside-in tracing: spans around each layer's public entry points.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces *class attributes* (never instances, never subclasses) with
wrappers that record a span — name, start, end, parent span, request
id — and calls the original.  Class-level patching matters twice over:
``repro.gil.compile.supports`` accepts only the exact stock state-model
types, so a traced subclass would silently switch off the compiled arm;
and compiled programs bind ``sm.branch_on`` / ``sm.execute_action``
when a command is first bound, so the patch must be on the class before
any state model of the pass exists.  :meth:`Tracer.install` is therefore
called between passes and :meth:`Tracer.uninstall` restores every
attribute exactly (deleting the ones that were only inherited).

Spans are kept in memory as tuples and written out by
:meth:`Tracer.dump` when the run ends.  Self time — a span's duration
minus its child spans' durations — is computed afterwards from the
parent links, as is the calling layer of each solver query.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: (module, class, attribute, span name) for every traced entry point
ENTRY_POINTS = (
    ("repro.targets.while_lang", "WhileLanguage", "compile", "targets.compile"),
    ("repro.targets.js_like", "MiniJSLanguage", "compile", "targets.compile"),
    ("repro.targets.c_like", "MiniCLanguage", "compile", "targets.compile"),
    ("repro.targets.rust_like", "MiniRustLanguage", "compile", "targets.compile"),
    ("repro.testing.harness", "SymbolicTester", "run_test", "harness.run_test"),
    ("repro.testing.harness", "SymbolicTester", "replay_model", "soundness.replay"),
    ("repro.engine.explorer", "Explorer", "explore", "engine.drive"),
    ("repro.engine.explorer", "Explorer", "explore_frontier", "engine.drive"),
    ("repro.state.symbolic", "SymbolicStateModel", "branch_on", "state.branch_on"),
    ("repro.state.symbolic", "SymbolicStateModel", "execute_action",
     "state.execute_action"),
    ("repro.memlib.core", "PartSymbolicModel", "execute", "memlib.execute"),
    ("repro.memlib.core", "PartConcreteModel", "execute", "memlib.execute"),
    ("repro.logic.solver", "Solver", "check", "logic.solver.check"),
    ("repro.logic.solver", "Solver", "check_batch", "logic.solver.check_batch"),
    ("repro.logic.solver", "Solver", "get_model", "logic.solver.get_model"),
    ("repro.logic.simplify", "Simplifier", "simplify", "logic.simplify"),
    ("repro.specs.engine", "SummaryEngine", "try_call", "specs.try_call"),
    ("repro.service.daemon", "AnalysisService", "__init__", "service.open"),
    ("repro.service.daemon", "AnalysisService", "submit", "service.submit"),
    ("repro.service.daemon", "AnalysisService", "process_one", "service.process_one"),
    ("repro.service.queue", "DurableQueue", "submit", "service.queue.submit"),
    ("repro.service.queue", "DurableQueue", "claim", "service.queue.claim"),
    ("repro.service.queue", "DurableQueue", "ack", "service.queue.ack"),
    ("repro.service.store", "GilStore", "get", "service.gil_store.get"),
    ("repro.service.store", "GilStore", "put", "service.gil_store.put"),
    ("repro.service.store", "ResultStore", "get", "service.results.get"),
    ("repro.service.store", "ResultStore", "put", "service.results.put"),
    ("repro.service.runner", "JobRunner", "run", "service.runner"),
)

#: span names, each once, in entry-point order
SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in ENTRY_POINTS))

#: layers whose solver queries are attributed to them (the nearest
#: enclosing one wins), and the label each bucket is reported under
_CALLER_LABEL = {
    "state.branch_on": "branch_on",
    "state.execute_action": "execute_action",
    "specs.try_call": "specs.try_call",
}


class Tracer:
    """Records spans from class-attribute wrappers while installed.

    ``request`` is the id of the test or job in flight; every span
    records it.  ``observed`` collects per-pass facts read off return
    values (store hits, replay confirmations, queue timestamps) and
    from ``shards`` span events on :attr:`bus`, the event bus a traced
    service pass attaches.
    """

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request id); a span's
        #: slot is reserved when it opens, so parents precede children
        self.spans: List[Optional[Tuple[str, float, float, int, str]]] = []
        self.request = ""
        self.observed: Dict[str, float] = defaultdict(float)
        self.queue_waits: List[float] = []
        self.bus = None
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []
        self._submitted: Dict[str, float] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point and attach a fresh event bus."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, cls_name, attr, span in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
            setattr(cls, attr, self._wrap(getattr(cls, attr), span, attr))
        from repro.engine.events import EventBus, SpanEnd

        self.bus = EventBus()
        self.bus.subscribe(self._on_span_end, kinds=[SpanEnd])

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was."""
        for cls, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._saved = []
        self.bus = None

    def _on_span_end(self, event) -> None:
        if event.name == "shards":
            self.observed["engine.parallel.shard_rounds"] += 1

    def _wrap(self, fn: Callable, name: str, attr: str) -> Callable:
        """``fn`` recording a ``name`` span per call, then observing its
        return value."""
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        observe = self._observer(name, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(result, end)
            return result

        return traced

    def _observer(self, name: str, attr: str) -> Optional[Callable]:
        """What to read off an entry point's return value, if anything."""
        obs = self.observed

        def hit(result, _end):
            obs[name + ".hits"] += result is not None

        def confirmed(result, _end):
            obs["soundness.confirmed"] += result is not None

        def frontier(result, _end):
            obs["engine.parallel.shard_items"] += len(result[0])

        def submitted(job_id, end):
            self._submitted[job_id] = end

        def claimed(lease, end):
            if lease is not None and lease.job_id in self._submitted:
                self.queue_waits.append(end - self._submitted.pop(lease.job_id))

        if attr == "explore_frontier":
            return frontier
        return {
            "service.gil_store.get": hit,
            "service.results.get": hit,
            "soundness.replay": confirmed,
            "service.queue.submit": submitted,
            "service.queue.claim": claimed,
        }.get(name)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer calls and self seconds, solver queries split by
        calling layer, and the pass share no top-level span covers."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        top_level = 0.0
        for index, (name, start, end, parent, _req) in enumerate(self.spans):
            own = end - start - child[index]
            calls[name] += 1
            self_s[name] += own
            if parent < 0:
                top_level += end - start
            if name == "logic.solver.check":
                caller = self._caller(parent)
                calls[f"logic.solver.check.{caller}"] += 1
                self_s[f"logic.solver.check.{caller}"] += own
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for label in list(_CALLER_LABEL.values()) + ["other"]:
            key = f"logic.solver.check.{label}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out["trace.unattributed_frac"] = max(0.0, wall_s - top_level) / wall_s
        out["trace.spans"] = len(self.spans)
        out["service.queue.wait_p50_ms"] = (
            statistics.median(self.queue_waits) * 1e3 if self.queue_waits else 0.0
        )
        out["service.queue.wait_samples"] = len(self.queue_waits)
        for name in ("service.gil_store.get", "service.results.get"):
            gets = calls.get(name, 0)
            out[f"{name}.hit_rate"] = self.observed[name + ".hits"] / gets if gets else 0.0
        out["soundness.confirmed"] = self.observed["soundness.confirmed"]
        for name in ("engine.parallel.shard_rounds", "engine.parallel.shard_items"):
            out[name] = self.observed[name]
        return out

    def _caller(self, parent: int) -> str:
        """The nearest enclosing solver-calling layer of a span."""
        while parent >= 0:
            name, _s, _e, grand, _r = self.spans[parent]
            if name in _CALLER_LABEL:
                return _CALLER_LABEL[name]
            parent = grand
        return "other"

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "request": req},
                    separators=(",", ":"),
                ) + "\n")

