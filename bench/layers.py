"""Per-layer tracing from outside the package.

Each traced public function, method or constructor is replaced, at every
name it is bound to in the package, by a wrapper that opens a span on
entry and closes it on exit.  A span's self time is its duration minus
the durations of the traced spans it encloses; spans are folded into
per-name call counts and self-time totals as they close, so memory stays
flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("words", "marked_graph", "currents", "intersection", "dynamics", "splittings", "catalog", "cli")

# metric prefix -> (module, function name)
FUNCTIONS = {
    "words.cyclic_reduce": ("words", "cyclic_reduce"),
    "marked_graph.translation_length": ("marked_graph", "translation_length"),
    "marked_graph.cyclic_reduce_path": ("marked_graph", "cyclic_reduce_path"),
    "currents.cylinder_count": ("currents", "cylinder_count"),
    "currents.frequency_vector": ("currents", "frequency_vector"),
    "intersection.intersect_report": ("intersection", "intersect_report"),
    "dynamics.iwip_rows": ("dynamics", "iwip_rows"),
    "dynamics.eigencurrent_approx": ("dynamics", "eigencurrent_approx"),
    "dynamics.pf_eigenpair": ("dynamics", "pf_eigenpair"),
    "splittings.bfs_distance": ("splittings", "bfs_distance"),
    "splittings.vertex_key": ("splittings", "vertex_key"),
    "splittings.splitting_length": ("splittings", "splitting_length"),
}
# metric prefix -> (module, class, method)
METHODS = {
    "words.apply": ("words", "Automorphism", "apply"),
    "marked_graph.word_to_path": ("marked_graph", "MarkedMetricGraph", "word_to_path"),
    "marked_graph.path_length": ("marked_graph", "MarkedMetricGraph", "path_length"),
}
# metric prefix -> (module, class); the span is the validation in __post_init__
CONSTRUCTORS = {
    "words.word": ("words", "Word"),
    "words.cyclic_word": ("words", "CyclicWord"),
    "marked_graph.chart": ("marked_graph", "MarkedMetricGraph"),
    "currents.current": ("currents", "RationalCurrent"),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.keyed: set = set()
        self._stack: list[list] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, on_call=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = [sys.modules["outerint"]] + [
            importlib.import_module(f"outerint.{m}") for m in MODULES
        ]
        for name, (mod, fn_name) in FUNCTIONS.items():
            original = getattr(sys.modules[f"outerint.{mod}"], fn_name)
            hook = self._key_recorder(original) if fn_name == "vertex_key" else None
            wrapper = self._wrap(name, original, hook)
            for m in mods:  # every `from .x import y` binding too
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, attr, wrapper)
        for name, (mod, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules[f"outerint.{mod}"], cls_name)
            self._rebind(cls, meth, self._wrap(name, getattr(cls, meth)))
        for name, (mod, cls_name) in CONSTRUCTORS.items():
            cls = getattr(sys.modules[f"outerint.{mod}"], cls_name)
            self._rebind(cls, "__post_init__", self._wrap(name, cls.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _key_recorder(self, vertex_key):
        default_depth = inspect.signature(vertex_key).parameters["depth"].default

        def record(args) -> None:
            self.keyed.add((args[0], args[1] if len(args) > 1 else default_depth))

        return record

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in FUNCTIONS.keys() | METHODS.keys():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in CONSTRUCTORS:
            out[f"{name}.built"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        calls = self.calls["splittings.vertex_key"]
        out["splittings.vertex_key.distinct_ratio"] = len(self.keyed) / calls if calls else 0.0
        return out
