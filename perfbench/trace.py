"""The traced run: wrappers around each layer's public calls.

:class:`LayerTrace` installs thin wrappers on the functions and
methods listed in :data:`LAYER_CALLS`, from outside the program.  Each
wrapper enters its layer on a per-thread stack; the time between two
stack changes is charged to the layer on top, which gives every layer
its self time (its spans minus the time its child spans cover)
without keeping one record per call.  Generator calls (the probe and
the join) are charged per ``next()``.  The coarse layers also keep one
span per call in memory; :meth:`LayerTrace.write_spans` writes them out
as Chrome trace-event JSON when the run ends.

Counters come from the program's own ``repro.obs`` counters through a
recorder installed with ``obs.recording``; two call counts that have
no counter of their own (``Range.admits`` and ``Fact.subsumes``) are
counted by wrappers.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter, defaultdict

# (module path, attribute path, layer, metric).  A dotted attribute
# path patches a method on a class.  ``metric`` names a call whose
# total time and call count are also kept.  Functions imported by name
# are patched where the caller looks them up.
LAYER_CALLS = [
    ("repro.driver", "parse_program_and_queries", "lang", None),
    ("repro.service.engine", "parse_program_and_queries", "lang", None),
    ("repro.service.engine", "parse_program", "lang", None),
    ("repro.service.engine", "parse_query", "lang", None),
    ("repro.serve.supervisor", "parse_query", "lang", None),
    ("repro.driver", "optimize", "core", "compile"),
    ("repro.service.session", "optimize", "core", "service.compile"),
    ("repro.driver", "constraint_rewrite", "core", None),
    ("repro.driver", "apply_sequence", "core", None),
    ("repro.driver", "gen_predicate_constraints", "core", None),
    ("repro.driver", "gen_prop_qrp_constraints", "core", None),
    ("repro.core.pipeline", "gen_prop_predicate_constraints", "core", None),
    ("repro.core.pipeline", "gen_prop_qrp_constraints", "core", None),
    ("repro.core.pipeline", "adorn_program", "magic", None),
    ("repro.core.pipeline", "constraint_magic", "magic", None),
    ("repro.planner", "collect_stats", "planner", None),
    ("repro.planner", "plan_query", "planner", None),
    ("repro.driver", "evaluate", "engine.fixpoint", None),
    ("repro.service.session", "evaluate", "engine.fixpoint", None),
    ("repro.service.session", "resume", "engine.resume", None),
    ("repro.engine.relation", "Relation.matching", "engine.probe", None),
    ("repro.engine.relation", "Relation.insert", "engine.insert", None),
    ("repro.engine.ruleeval", "RuleEvaluator.derive_with_parents",
     "engine.join", None),
    ("repro.constraints.conjunction", "Conjunction.project",
     "constraints", None),
    ("repro.constraints.conjunction", "Conjunction.is_satisfiable",
     "constraints", None),
    ("repro.constraints.conjunction", "Conjunction.implies_atom",
     "constraints", None),
    ("repro.constraints.conjunction", "Conjunction.implies_set",
     "constraints", None),
    ("repro.constraints.conjunction", "eliminate_variables",
     "constraints", None),
    ("repro.constraints.conjunction", "is_satisfiable", "constraints", None),
    ("repro.service.session", "Session.query", "service.session", None),
    ("repro.service.session", "Session.add_facts", "service.session", None),
    ("repro.service.sync", "RWLock.acquire_read", "serve.wait", None),
    ("repro.service.sync", "RWLock.acquire_write", "serve.wait", None),
    ("repro.serve.snapshot", "Snapshotter.append_log", "serve.wal", "wal"),
    ("repro.serve.snapshot", "Snapshotter.snapshot", "serve.checkpoint",
     "checkpoint"),
    ("repro.serve.snapshot", "Snapshotter.recover", "serve.recover",
     "recover"),
]

# Generator functions: timed per next() call.
GENERATORS = {"Relation.matching", "RuleEvaluator.derive_with_parents"}

# Calls that are only counted (as calls of the given name).
COUNTED_CALLS = [
    ("repro.engine.relation", "Range.admits", "range_admits"),
    ("repro.engine.facts", "Fact.subsumes", "subsumes"),
]

# Layers fine-grained enough that one span per call would be most of
# the trace; they keep self time only.
NO_SPANS = {
    "engine.probe", "engine.insert", "engine.join", "constraints",
}


class _NullSpan:
    """The span handed back for ``obs`` spans the trace does not use."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def set(self, _name, _value):
        return None

    def add(self, _name, _value=1):
        return None


_NULL_SPAN = _NullSpan()


class _LayerSpan(_NullSpan):
    """An ``obs`` span that enters a layer for its duration."""

    __slots__ = ("_trace", "_layer", "_metric")

    def __init__(self, trace, layer, metric):
        self._trace = trace
        self._layer = layer
        self._metric = metric

    def __enter__(self):
        self._trace.enter(self._layer, self._metric)
        return self

    def __exit__(self, *exc_info):
        self._trace.exit()
        return None


class _ThreadState:
    __slots__ = ("stack", "self_s", "total_s", "calls", "name")

    def __init__(self, name: str) -> None:
        self.stack: list[list] = []
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.name = name


class LayerTrace:
    """Per-layer self time, call totals, obs counters and spans."""

    enabled = True  # the obs recorder protocol

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []
        self._epoch = time.perf_counter()
        self.request = 0   # tag for the spans of the current CLI operation

    # -- the layer stack ------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, layer: str, metric: str | None = None) -> None:
        now = time.perf_counter()
        state = self._state()
        if state.stack:
            top = state.stack[-1]
            state.self_s[top[0]] += now - top[1]
        state.stack.append([layer, now, now, metric])

    def exit(self) -> None:
        now = time.perf_counter()
        state = self._state()
        layer, segment, start, metric = state.stack.pop()
        state.self_s[layer] += now - segment
        if metric is not None:
            state.total_s[metric] += now - start
            state.calls[metric] += 1
        if state.stack:
            state.stack[-1][1] = now
        if layer not in NO_SPANS:
            self.spans.append(
                (layer, state.name, start, now, len(state.stack), self.request)
            )

    # -- the obs recorder protocol ----------------------------------------

    def span(self, name: str, **_attrs):
        if name == "serve.worker":
            # A worker's request handling outside every other layer is
            # dispatch: it counts as waiting, like the queue and locks.
            return _LayerSpan(self, "serve.wait", "serve.worker")
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def record_time(self, _name: str, _seconds: float) -> None:
        return None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, original, layer, metric, generator):
        enter, exit_ = self.enter, self.exit
        if generator:
            def timed_iter(iterator):
                while True:
                    enter(layer, metric)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item

            def wrapper(*args, **kwargs):
                return timed_iter(original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                enter(layer, metric)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_()
        wrapper.__wrapped__ = original
        return wrapper

    def _count_wrap(self, original, name):
        state = self._state

        def wrapper(*args, **kwargs):
            state().calls[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    @staticmethod
    def _resolve(module_path: str, attribute: str):
        owner = importlib.import_module(module_path)
        *parents, name = attribute.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, name

    def _patch(self, owner, name, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch every listed call; :meth:`uninstall` restores them."""
        for module_path, attribute, layer, metric in LAYER_CALLS:
            owner, name = self._resolve(module_path, attribute)
            self._patch(owner, name, self._wrap(
                getattr(owner, name), layer, metric, attribute in GENERATORS
            ))
        for module_path, attribute, counter in COUNTED_CALLS:
            owner, name = self._resolve(module_path, attribute)
            self._patch(owner, name, self._count_wrap(getattr(owner, name), counter))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: self seconds, metric seconds/calls, counts."""
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
            counters = Counter(self.counters)
        for state in threads:
            for key, value in list(state.self_s.items()):
                self_s[key] += value
            for key, value in list(state.total_s.items()):
                total_s[key] += value
            calls.update(dict(state.calls))
        return {
            "self_s": dict(self_s), "total_s": dict(total_s),
            "calls": dict(calls), "counters": dict(counters),
        }

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        events = [
            {
                "name": layer, "ph": "X", "pid": 1, "tid": thread,
                "ts": round((start - self._epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"depth": depth, "request": request},
            }
            for layer, thread, start, end, depth, request in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def diff(after: dict, before: dict) -> dict:
    """The totals accumulated between two snapshots."""
    return {
        section: {
            key: value - before[section].get(key, 0)
            for key, value in after[section].items()
        }
        for section in after
    }


def add(total: dict | None, more: dict) -> dict:
    """The sum of two sets of totals; ``None`` is no totals yet."""
    if total is None:
        return more
    return {
        section: {
            key: total[section].get(key, 0) + more[section].get(key, 0)
            for key in total[section].keys() | more[section].keys()
        }
        for section in more
    }
