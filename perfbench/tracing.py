"""Benchmark-side spans around the calls into each layer's public functions.

The traced run wraps the public entry points listed in :data:`TARGETS`
(functions are rebound in every loaded module that imported them,
methods are replaced on their class) and records one span per call:
name, start, end, op id and process.  Spans stay in memory and are
written out when the run ends.  Nothing in the program is edited.
The wrappers stay installed for the whole traced run and record only
while :attr:`Recorder.active` is set, so untraced and traced ops can
alternate.

Process-mode batch workers are forked while the wrappers are installed,
so they record too.  A worker cannot append to the parent's list, so it
emits each span as a ``bench_span`` event through the program's own
worker tracer, which ships it back with the batch's trace.

A span's *self time* is its duration minus the part of it covered by
the spans it contains (children in worker processes may overlap one
another, so coverage is the union of their intervals).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: (module, attribute, span name).  ``Class.method`` attributes are
#: patched on the class; everything else is a module-level function.
TARGETS = (
    ("repro.prairie.dsl.lexer", "tokenize", "dsl.tokenize"),
    ("repro.prairie.dsl.parser", "parse_spec", "dsl.parse_spec"),
    ("repro.prairie.dsl.parser", "compile_spec", "dsl.compile_spec"),
    ("repro.prairie.translate", "translate", "p2v.translate"),
    ("repro.workloads.queries", "make_query_instance", "workloads.make_query_instance"),
    ("repro.volcano.search", "VolcanoOptimizer.__init__", "search.engine_init"),
    ("repro.volcano.search", "VolcanoOptimizer.optimize", "search.optimize"),
    ("repro.volcano.plancache", "PlanCache.key_for", "plancache.key_for"),
    ("repro.parallel.batch", "BatchOptimizer.run", "parallel.run"),
    ("repro.engine.executor", "Database.__init__", "engine.database"),
    ("repro.engine.executor", "execute_plan", "engine.execute_plan"),
)

def _annotate(name: str, args: tuple, result) -> dict:
    """Per-span facts read off the call: cache hit, rows, tokens."""
    if name == "search.optimize":
        return {"hit": bool(result.stats.plan_cache_hits)}
    if name == "engine.execute_plan":
        return {"rows": len(result)}
    if name == "dsl.tokenize":
        return {"tokens": len(result), "source": hash(args[0])}
    if name == "dsl.compile_spec":
        counts = result.counts()
        return {"rules": counts["t_rules"] + counts["i_rules"], "spec": result.name}
    return {}


class Recorder:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: "list[dict]" = []
        self.op: "int | None" = None
        self.active = False
        self._undo: list = []
        # In a forked batch worker: that process's program tracer.
        self._worker_tracer = None

    # -- recording -----------------------------------------------------------

    def record(self, name: str, start: float, end: float, **facts) -> None:
        if os.getpid() == self.pid:
            self.spans.append(
                {"name": name, "start": start, "end": end, "op": self.op, "pid": self.pid, **facts}
            )
        elif self._worker_tracer is not None:
            self._worker_tracer.emit("bench_span", name=name, start=start, end=end, **facts)

    def absorb(self, op: int, event: dict) -> None:
        """Adopt a span a worker shipped back as a ``bench_span`` event."""
        facts = {k: v for k, v in event.items() if k not in ("type", "ts", "span", "worker")}
        self.spans.append({**facts, "op": op, "pid": event["worker"]})

    def _wrap(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            if name.startswith("search.") and os.getpid() != recorder.pid:
                tracer = kwargs.get("tracer") if name == "search.engine_init" else args[0].tracer
                recorder._worker_tracer = tracer
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            recorder.record(name, started, time.perf_counter(), **_annotate(name, args, result))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrap(original.__func__, name))
                else:
                    replacement = self._wrap(original, name)
                setattr(cls, method, replacement)
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            _swap(modules, original, wrapper)
            self._undo.append((None, wrapper, original))

    def uninstall(self) -> None:
        """Restore every patched name, including copies of a wrapper that
        modules imported while it was installed."""
        modules = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
        for cls, patched, original in reversed(self._undo):
            if cls is not None:
                setattr(cls, patched, original)
            else:
                _swap(modules, patched, original)
        self._undo.clear()


def _swap(modules: list, old, new) -> None:
    """Rebind every module-level name bound to ``old`` to ``new``."""
    for module in modules:
        namespace = module.__dict__
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new


# -- analysis ------------------------------------------------------------------


def _covered(start: float, end: float, children: "list[dict]") -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    total, reach = 0.0, start
    for child in sorted(children, key=lambda s: s["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: "list[dict]") -> None:
    """Set ``span["self"]`` on every span.

    Spans are grouped by op; a span's parent is the shortest span of the
    same op that contains it and runs in the same process, or, for a
    worker's outermost spans, in the parent process.
    """
    by_op: "dict[object, list[dict]]" = {}
    for span in spans:
        by_op.setdefault(span["op"], []).append(span)
    main = os.getpid()
    for group in by_op.values():
        children: "dict[int, list[dict]]" = {}
        for idx, span in enumerate(group):
            parent = None
            for jdx, other in enumerate(group):
                if jdx == idx or not (other["start"] <= span["start"] and span["end"] <= other["end"]):
                    continue
                # Spans are recorded as they close, so of two with the same
                # interval the one recorded first is the inner one.
                if other["end"] - other["start"] == span["end"] - span["start"] and jdx < idx:
                    continue
                if other["pid"] not in (span["pid"], main):
                    continue
                if parent is None or _rank(other, span) < _rank(group[parent], span):
                    parent = jdx
            if parent is not None:
                children.setdefault(parent, []).append(span)
        for idx, span in enumerate(group):
            span["self"] = (span["end"] - span["start"]) - _covered(
                span["start"], span["end"], children.get(idx, [])
            )


def _rank(candidate: dict, span: dict) -> "tuple[int, float]":
    """Prefer a same-process container, then the tightest one."""
    return (0 if candidate["pid"] == span["pid"] else 1, candidate["end"] - candidate["start"])
