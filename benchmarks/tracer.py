"""Outside-in spans around stochopt's public entry points.

The benchmark wraps functions at the names the program actually resolves
at call time: problem methods on their classes, `Run.evaluate` on the
meter, algorithm entry points in the `stochopt.cli` namespace that
`run_experiment` calls them through, and helpers in the module namespace their callers
use.  No file of the library changes.

A span records its name, start, end, parent span and whether the call
returned.  Spans stay in memory, in flat arrays, until the pass ends and
`save` writes them out; `layer_metrics` turns a saved file into counts,
busy time and self time (busy time minus the part its child spans
cover).  Everything runs in one thread, so spans nest strictly.

A wrapped name that no longer exists raises `MissingTarget` instead of
silently measuring nothing.
"""

from __future__ import annotations

import time
from array import array
from functools import wraps

_PROBLEM_CLASSES = (
    "stochopt.problems.tsp:TspInstance",
    "stochopt.problems.binpacking:BinPackingInstance",
    "stochopt.problems.continuous:ContinuousLandscape",
    "stochopt.problems.tabletop:TabletopInstance",
)
_PROBLEM_METHODS = ("validate", "evaluate", "sample_neighbor", "neighbors", "freeze")

# The algorithm entry points `run_experiment` calls once per replica, by layer.
ENTRY_POINTS = {
    "random_search": "local_search",
    "hill_climb_first_accept": "local_search",
    "hill_climb_steepest": "local_search",
    "simulated_annealing": "annealing",
    "tabu_search": "tabu",
    "aco_run": "aco",
    "pso_run": "swarm",
    "hopfield_solve": "hopfield",
}

# (span name, "module:owner" or "module", attribute)
TARGETS = (
    tuple(
        (f"problems.{method}", cls, method)
        for cls in _PROBLEM_CLASSES
        for method in _PROBLEM_METHODS
    )
    + (("core.evaluate", "stochopt.core:Run", "evaluate"),)
    + tuple((f"{layer}.{attr}", "stochopt.cli", attr) for attr, layer in ENTRY_POINTS.items())
    + (
        ("annealing.calibrate_t0", "stochopt.annealing", "calibrate_t0"),
        ("tabu.select_best_admissible", "stochopt.tabu", "select_best_admissible"),
        ("aco.choose_next_city", "stochopt.aco", "choose_next_city"),
        ("aco.local_update", "stochopt.aco", "local_update"),
        ("aco.global_update", "stochopt.aco", "global_update"),
        ("swarm.step_swarm", "stochopt.swarm", "step_swarm"),
        ("swarm.update_velocity", "stochopt.swarm", "update_velocity"),
        ("hopfield.build_weights", "stochopt.hopfield", "build_weights"),
        ("hopfield.async_step", "stochopt.hopfield", "async_step"),
        ("hopfield.is_fixed_point", "stochopt.hopfield", "is_fixed_point"),
        ("effort.computational_effort", "stochopt.cli", "computational_effort"),
        ("cli.run_experiment", "stochopt.cli", "run_experiment"),
        ("cli.load_instance", "stochopt.cli", "load_instance"),
        ("cli.config_load", "stochopt.cli:ExperimentConfig", "from_file"),
    )
)


class MissingTarget(RuntimeError):
    """A name the benchmark wraps is gone; the trace would read zero."""


def _resolve(owner: str):
    import importlib

    module_name, _, attr = owner.partition(":")
    obj = importlib.import_module(module_name)
    if attr:
        obj = getattr(obj, attr, None)
        if obj is None:
            raise MissingTarget(f"{owner} no longer exists")
    return obj


def _patch(owner: str, attr: str, make):
    """Replace owner.attr by make(original); keeps classmethods classmethods."""
    obj = _resolve(owner)
    if not hasattr(obj, attr):
        raise MissingTarget(f"{owner}.{attr} no longer exists")
    raw = None
    if isinstance(obj, type):
        for klass in obj.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
    if isinstance(raw, classmethod):
        setattr(obj, attr, classmethod(make(raw.__func__)))
    else:
        setattr(obj, attr, make(getattr(obj, attr) if raw is None else raw))


def time_replicas(sink: list):
    """Append (start, end) of every replica `run_experiment` runs to `sink`."""
    clock = time.perf_counter

    def make(fn):
        @wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((start, clock()))

        return timed

    for attr in ENTRY_POINTS:
        _patch("stochopt.cli", attr, make)


class Tracer:
    """Span recorder for the wrapped targets; install once per process."""

    def __init__(self):
        self.names = list(dict.fromkeys(name for name, _, _ in TARGETS))
        self.name_id = array("B")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.neighbor_sizes = 0
        self._stack = [-1]

    def _make(self, name: str):
        ident = self.names.index(name)
        name_id, parent, start, end, ok = (
            self.name_id, self.parent, self.start, self.end, self.ok)
        stack = self._stack
        clock = time.perf_counter_ns
        count_sizes = name == "problems.neighbors"

        def make(fn):
            @wraps(fn)
            def traced(*args, **kwargs):
                index = len(name_id)
                name_id.append(ident)
                parent.append(stack[-1])
                ok.append(0)
                end.append(0)
                stack.append(index)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    ok[index] = 1
                    if count_sizes:
                        self.neighbor_sizes += len(result)
                    return result
                finally:
                    end[index] = clock()
                    stack.pop()

            return traced

        return make

    def install(self):
        for name, owner, attr in TARGETS:
            _patch(owner, attr, self._make(name))

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint8),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            ok=np.frombuffer(self.ok, dtype=np.int8),
            neighbor_sizes=np.int64(self.neighbor_sizes),
        )


def layer_metrics(path) -> dict:
    """Per span name: calls (returned), raised, busy seconds, self seconds."""
    import numpy as np

    with np.load(path) as f:
        names = [str(n) for n in f["names"]]
        name_id, parent, ok = f["name_id"], f["parent"], f["ok"]
        dur = (f["end"] - f["start"]).astype(np.float64) * 1e-9
        neighbor_sizes = int(f["neighbor_sizes"])
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - covered
    k = len(names)
    calls = np.bincount(name_id, weights=ok, minlength=k)
    total = np.bincount(name_id, minlength=k)
    busy = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=self_time, minlength=k)
    spans = {
        name: {
            "calls": int(calls[i]),
            "raised": int(total[i] - calls[i]),
            "s": float(busy[i]),
            "self_s": float(own[i]),
        }
        for i, name in enumerate(names)
    }
    return {"spans": spans, "neighbor_sizes": neighbor_sizes}
