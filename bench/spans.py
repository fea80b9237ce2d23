"""Per-layer spans around apprepo's public layer functions.

The traced run calls ``apprepo.cli.main`` in-process with every function in
:data:`LAYER_FUNCTIONS` replaced, in each ``apprepo`` module that holds it
(``parse_class`` and ``iter_class_entries`` are imported by name into
``callgraph``, ``metrics`` and ``project``), by a wrapper that records a
span: name, start, end and parent. A span's self time is its duration
minus the time its child spans cover. Each ``next()`` on
``iter_class_entries`` is its own span, so container reading is timed
apart from the parsing its consumer does between entries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (layer, defining module, function); spans are named "<layer>.<function>"
LAYER_FUNCTIONS = (
    ("containers", "apprepo.containers", "iter_class_entries"),
    ("classfile", "apprepo.classfile.parser", "parse_class"),
    ("callgraph", "apprepo.callgraph", "build_hierarchy"),
    ("callgraph", "apprepo.callgraph", "hierarchy_from_classes"),
    ("callgraph", "apprepo.callgraph", "build_callgraph"),
    ("callgraph", "apprepo.callgraph", "serialize_callgraph"),
    ("callgraph", "apprepo.callgraph", "parse_callgraph"),
    ("guimodel", "apprepo.guimodel", "transform_external"),
    ("guimodel", "apprepo.guimodel", "persist_gui"),
    ("guimodel", "apprepo.guimodel", "load_gui"),
    ("guimodel", "apprepo.guimodel", "link_event_handlers"),
    ("metrics", "apprepo.metrics", "count_loc"),
    ("metrics", "apprepo.metrics", "count_classes"),
    ("project", "apprepo.project", "validate_project"),
    ("project", "apprepo.project", "build_code_model"),
)
LAYERS = ("containers", "classfile", "callgraph", "guimodel", "metrics", "project", "cli")

# (metric, unit) of one traced iteration, in the order they are reported
PER_LAYER_UNITS = {
    "containers.iter_s": "s", "containers.entries": "count", "containers.bytes": "bytes",
    "containers.iter_calls": "count", "containers.iter_calls_per_container": "count",
    "classfile.parse_s": "s", "classfile.parse_calls": "count",
    "classfile.classes_per_s": "1/s", "classfile.mb_per_s": "MB/s",
    "classfile.parse_calls_per_class": "count",
    "callgraph.hierarchy_s": "s", "callgraph.duplicates": "count",
    "callgraph.externals": "count",
    "callgraph.closure_s": "s", "callgraph.nodes": "count", "callgraph.edges": "count",
    "callgraph.methods_per_s": "1/s",
    "callgraph.serialize_s": "s", "callgraph.xml_bytes": "bytes",
    "callgraph.parse_s": "s", "callgraph.parse_calls": "count",
    "guimodel.transform_s": "s", "guimodel.persist_s": "s", "guimodel.load_s": "s",
    "guimodel.link_s": "s", "guimodel.widgets": "count",
    "guimodel.handlers_resolved": "count",
    "metrics.count_loc_s": "s", "metrics.count_classes_s": "s",
    "project.validate_s": "s", "project.code_model_s": "s",
    "cli.self_s": "s",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "trace.spans": "count", "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 for a root
    end: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Spans and counters of one traced iteration, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()  # largest value seen, not a sum
        self.containers: Counter = Counter()  # iter_class_entries calls per container
        self.parsed_names: set[str] = set()

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.end - span.start

    def keep_max(self, key: str, value: int) -> None:
        self.sizes[key] = max(self.sizes[key], value)

    def wrap(self, name: str, original):
        observe = _OBSERVERS.get(name)
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                observe(self, args, None)
                inner = original(*args, **kwargs)
                while True:
                    span = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(span)
                    self.counts["containers.entries"] += 1
                    self.counts["containers.bytes"] += len(item[1])
                    yield item
            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def fired(self) -> set[str]:
        return {s.name for s in self.spans}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this iteration (overhead excluded)."""
        self_by_name: dict[str, float] = defaultdict(float)
        for span in self.spans:
            self_by_name[span.name] += span.self_time
        total = sum(self_by_name.values())

        def busy(*functions: str) -> float:
            return sum(self_by_name.get(f, 0.0) for f in functions)

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        parse_s = busy("classfile.parse_class")
        closure_s = busy("callgraph.build_callgraph")
        m = {
            "containers.iter_s": busy("containers.iter_class_entries"),
            "containers.entries": c["containers.entries"],
            "containers.bytes": c["containers.bytes"],
            "containers.iter_calls": sum(self.containers.values()),
            "containers.iter_calls_per_container": rate(sum(self.containers.values()),
                                                        len(self.containers)),
            "classfile.parse_s": parse_s,
            "classfile.parse_calls": c["classfile.parse_calls"],
            "classfile.classes_per_s": rate(c["classfile.parse_calls"], parse_s),
            "classfile.mb_per_s": rate(c["classfile.parse_bytes"] / 1e6, parse_s),
            "classfile.parse_calls_per_class": rate(c["classfile.parse_calls"],
                                                    len(self.parsed_names)),
            "callgraph.hierarchy_s": busy("callgraph.build_hierarchy",
                                          "callgraph.hierarchy_from_classes"),
            "callgraph.duplicates": self.sizes["callgraph.duplicates"],
            "callgraph.externals": self.sizes["callgraph.externals"],
            "callgraph.closure_s": closure_s,
            "callgraph.nodes": c["callgraph.nodes"],
            "callgraph.edges": c["callgraph.edges"],
            "callgraph.methods_per_s": rate(c["callgraph.nodes"], closure_s),
            "callgraph.serialize_s": busy("callgraph.serialize_callgraph"),
            "callgraph.xml_bytes": c["callgraph.xml_bytes"],
            "callgraph.parse_s": busy("callgraph.parse_callgraph"),
            "callgraph.parse_calls": c["callgraph.parse_calls"],
            "guimodel.transform_s": busy("guimodel.transform_external"),
            "guimodel.persist_s": busy("guimodel.persist_gui"),
            "guimodel.load_s": busy("guimodel.load_gui"),
            "guimodel.link_s": busy("guimodel.link_event_handlers"),
            "guimodel.widgets": self.sizes["guimodel.widgets"],
            "guimodel.handlers_resolved": c["guimodel.handlers_resolved"],
            "metrics.count_loc_s": busy("metrics.count_loc"),
            "metrics.count_classes_s": busy("metrics.count_classes"),
            "project.validate_s": busy("project.validate_project"),
            "project.code_model_s": busy("project.build_code_model"),
            "cli.self_s": sum(t for n, t in self_by_name.items() if n.startswith("cli.")),
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            layer_s = sum(t for n, t in self_by_name.items() if n.startswith(layer + "."))
            m[f"share.{layer}"] = 100.0 * rate(layer_s, total)
        return m


def _observe_iter(tracer: Tracer, args, _result) -> None:
    tracer.containers[str(args[0])] += 1


def _observe_parse(tracer: Tracer, args, result) -> None:
    tracer.counts["classfile.parse_calls"] += 1
    tracer.counts["classfile.parse_bytes"] += len(args[0])
    tracer.parsed_names.add(result.class_name)


def _observe_hierarchy(tracer: Tracer, _args, result) -> None:
    tracer.keep_max("callgraph.duplicates", len(result.duplicates))
    tracer.keep_max("callgraph.externals", len(result.externals))


def _observe_closure(tracer: Tracer, _args, result) -> None:
    tracer.counts["callgraph.nodes"] += len(result.nodes)
    tracer.counts["callgraph.edges"] += len(result.edges)


def _observe_serialize(tracer: Tracer, _args, result) -> None:
    tracer.counts["callgraph.xml_bytes"] += len(result)


def _observe_parse_callgraph(tracer: Tracer, _args, _result) -> None:
    tracer.counts["callgraph.parse_calls"] += 1


def _observe_model(tracer: Tracer, _args, result) -> None:
    tracer.keep_max("guimodel.widgets", result.counts()[0])


def _observe_link(tracer: Tracer, _args, result) -> None:
    tracer.counts["guimodel.handlers_resolved"] += sum(
        1 for b in result if b.status == "resolved")


_OBSERVERS = {
    "containers.iter_class_entries": _observe_iter,
    "classfile.parse_class": _observe_parse,
    "callgraph.build_hierarchy": _observe_hierarchy,
    "callgraph.hierarchy_from_classes": _observe_hierarchy,
    "callgraph.build_callgraph": _observe_closure,
    "callgraph.serialize_callgraph": _observe_serialize,
    "callgraph.parse_callgraph": _observe_parse_callgraph,
    "guimodel.transform_external": _observe_model,
    "guimodel.load_gui": _observe_model,
    "guimodel.link_event_handlers": _observe_link,
}


@contextmanager
def installed(tracer: Tracer):
    """Route every layer function through ``tracer`` while the block runs.

    Each function is replaced under every name an ``apprepo`` module binds
    it to, and restored afterwards. A function that no longer exists
    raises here, so a refactor cannot silently drop a layer.
    """
    patches = []
    try:
        for layer, module_name, function in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function)
            wrapper = tracer.wrap(f"{layer}.{function}", original)
            for module in [m for n, m in sys.modules.items()
                           if n == "apprepo" or n.startswith("apprepo.")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
