"""Span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder rebinds a public function or method of the program to a
wrapper, in every ``srv6sfc`` module that holds it (``inject`` is
rebound in ``srv6sfc.sim`` and in ``srv6sfc.cli``, for example). Each
span keeps its name, the span that was open when it started, the phase
of the run and its start and end in ``perf_counter_ns``. Spans stay in
memory until the run ends; self time is a span's duration minus that of
its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

from srv6sfc.trace import EventKind

# Metric prefix, defining module, attribute path. Methods are rebound on
# their class, functions in every srv6sfc module that imports them.
TARGETS = (
    ("wire.parse_packet", "srv6sfc.wire", "parse_packet"),
    ("wire.serialize_packet", "srv6sfc.wire", "serialize_packet"),
    ("chain.longest_prefix_match", "srv6sfc.chain", "longest_prefix_match"),
    ("chain.classify", "srv6sfc.chain", "classify"),
    ("chain.next_after", "srv6sfc.chain", "next_after"),
    ("chain.ChainRegistry.mapped_chain", "srv6sfc.chain", "ChainRegistry.mapped_chain"),
    ("dataplane.reencap_unaware", "srv6sfc.dataplane", "reencap_unaware"),
    ("dataplane.connector_process", "srv6sfc.dataplane", "connector_process"),
    ("dataplane.advance_segment", "srv6sfc.dataplane", "advance_segment"),
    ("dataplane.encapsulate", "srv6sfc.dataplane", "encapsulate"),
    ("dataplane.decapsulate", "srv6sfc.dataplane", "decapsulate"),
    ("dataplane.egress_process", "srv6sfc.dataplane", "egress_process"),
    ("dataplane.apply_edit", "srv6sfc.dataplane", "apply_edit"),
    ("trace.Trace.add", "srv6sfc.trace", "Trace.add"),
    ("trace.Trace.to_jsonl", "srv6sfc.trace", "Trace.to_jsonl"),
    ("sim.inject", "srv6sfc.sim", "inject"),
    ("config.load_config", "srv6sfc.config", "load_config"),
    ("config.build_network", "srv6sfc.config", "ScenarioConfig.build_network"),
    ("bench.measure_per_packet_cost", "srv6sfc.bench", "measure_per_packet_cost"),
    ("bench.run_sweep", "srv6sfc.bench", "run_sweep"),
)


class Recorder:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.phases: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.phase = 0
        self._name = array("q")
        self._parent = array("q")
        self._phase = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        # Counters the wrappers feed: codec bytes and inter-node hops.
        self.wire_bytes = 0
        self.hops = 0
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
        self.phase = self.phases.index(phase)

    def _open(self, name_id: int) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._phase.append(self.phase)
        self._start.append(0)
        self._end.append(0)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark's own, e.g. a CLI call."""
        index = self._open(self.name_id(name))
        self._start[index] = perf_counter_ns()
        try:
            yield
        finally:
            self._end[index] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, observe):
        name_id = self.name_id(name)
        open_span, stack, starts, ends = self._open, self._stack, self._start, self._end

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                starts[index] = start
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self) -> dict:
        def parsed(args, result):
            self.wire_bytes += len(args[0])

        def serialized(args, result):
            self.wire_bytes += len(result)

        def added(args, result):
            if args[2] is EventKind.FORWARDED:
                self.hops += 1

        return {
            "wire.parse_packet": parsed,
            "wire.serialize_packet": serialized,
            "trace.Trace.add": added,
        }

    def install(self) -> None:
        observers = self._observers()
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "srv6sfc" or name.startswith("srv6sfc.")
        ]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, original, self._wrap(original, name, observers.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        self._undo.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def totals(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(phase, name) -> (calls, self time in ns)."""
        count = len(self._name)
        child = [0] * count
        durations = [end - start for start, end in zip(self._start, self._end)]
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += durations[index]
        totals: dict[tuple[str, str], list[int]] = {}
        for index in range(count):
            key = (self.phases[self._phase[index]], self.names[self._name[index]])
            entry = totals.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += durations[index] - child[index]
        return {key: (calls, self_ns) for key, (calls, self_ns) in totals.items()}

    def dump(self, path: Path) -> None:
        """Write every span as CSV: span, parent, phase, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,phase,name,start_ns,end_ns\n")
            for index in range(len(self._name)):
                out.write(
                    f"{index},{self._parent[index]},{self.phases[self._phase[index]]},"
                    f"{self.names[self._name[index]]},{self._start[index]},{self._end[index]}\n"
                )
