"""Span tracer that wraps the public functions of every dispmodels module.

Used as a context manager around a traced pass.  On entry it replaces each
public function (the functions named in a module's ``__all__`` and defined
there) by a wrapper that records a span, and it does so at every binding
site: modules hold their own ``from .deviance import eval_deviance``
copies, so every ``dispmodels.*`` module dict is scanned for the original
object.  ``RealInterval.contains`` and its alias ``__contains__`` only
count calls, because a span per containment test would swamp the run.
The callables returned by ``expressions.compile_expression`` get spans
too.  On exit every original is put back.

A span is (id, name, parent id, start, end), kept in memory in a flat
array until the tracer is analysed; ``layer_report`` turns them into
per-module call counts, self times and error counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "checks",
    "regression",
    "edm",
    "deviance",
    "tweedie",
    "saddlepoint",
    "pdm",
    "cf_construct",
    "_numdiff",
    "expressions",
)
ROOT = -1  # parent id of a top-level span
_FIELDS = 5  # id, name, parent, start, end


class Tracer:
    def __init__(self, package: str = "dispmodels"):
        self.package = package
        self.names: list[str] = []  # span name by name id, "<layer>.<function>"
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []  # layer by name id
        self.errors: dict[str, int] = {}
        self.counts: dict[str, float] = {}  # boundary counters
        self.records = array("d")
        self._stack = [ROOT]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        qualified = f"{layer}.{name}"
        if qualified not in self._ids:
            self._ids[qualified] = len(self.names)
            self.names.append(qualified)
            self.layer_of.append(layer)
        return self._ids[qualified]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, layer: str, name: str, after=None):
        name_id = self._name_id(layer, name)
        stack = self._stack
        records = self.records
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                records.extend((span_id, name_id, parent, start, end))
            if after is not None:
                result = after(self, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, layer: str = "op"):
        """A span around a block of benchmark code (an op)."""
        return _Span(self, self._name_id(layer, name))

    # --- patching ----------------------------------------------------

    def _modules(self):
        """The package and all its loaded submodules: every binding site."""
        for layer in (*LAYERS, "support"):
            importlib.import_module(f"{self.package}.{layer}")
        prefix = self.package + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = self._modules()
        replacements = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name in getattr(module, "__all__", ()):
                fn = module.__dict__.get(name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = self._wrap(fn, layer, name, _AFTER.get((layer, name)))
        for module in modules:
            for attr, value in list(module.__dict__.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        interval = sys.modules[f"{self.package}.support"].RealInterval
        original = interval.__dict__["contains"]

        def counted(self_, x, _orig=original, _counts=self.counts):
            _counts["support.calls"] = _counts.get("support.calls", 0) + 1
            return _orig(self_, x)

        for attr in ("contains", "__contains__"):
            self._set(interval, attr, counted)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # --- analysis ----------------------------------------------------

    def spans(self) -> np.ndarray:
        """Recorded spans as an (n, 5) array: id, name id, parent id, start, end."""
        return np.frombuffer(self.records, dtype=float).reshape(-1, _FIELDS)

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self seconds) per span: duration minus direct children."""
        s = self.spans()
        if len(s) == 0:
            return np.zeros(0, dtype=int), np.zeros(0)
        ids = s[:, 0].astype(np.int64)
        parents = s[:, 2].astype(np.int64)
        duration = s[:, 4] - s[:, 3]
        child = np.zeros(self._next_id + 1)
        has_parent = parents != ROOT
        np.add.at(child, parents[has_parent], duration[has_parent])
        return s[:, 1].astype(np.int64), duration - child[ids]

    def layer_report(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_ms and errors over everything recorded."""
        name_ids, self_s = self.self_times()
        layer_idx = {layer: i for i, layer in enumerate(LAYERS)}
        per_name_layer = np.array([layer_idx.get(l, -1) for l in self.layer_of], dtype=np.int64)
        span_layer = per_name_layer[name_ids] if len(name_ids) else name_ids
        report = {}
        for layer, i in layer_idx.items():
            mine = span_layer == i
            report[layer] = {
                "calls": int(np.count_nonzero(mine)),
                "self_ms": float(self_s[mine].sum() * 1e3),
                "errors": self.errors.get(layer, 0),
            }
        return report

    def calls_of(self, qualified: str) -> int:
        """Number of spans named ``<layer>.<function>``."""
        if qualified not in self._ids:
            return 0
        return int(np.count_nonzero(self.spans()[:, 1] == self._ids[qualified]))


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        t = self.tracer
        self.span_id = t._next_id
        t._next_id += 1
        self.parent = t._stack[-1]
        t._stack.append(self.span_id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t._stack.pop()
        t.records.extend((self.span_id, self.name_id, self.parent, self.start, end))
        return False


# --- boundary counters -------------------------------------------------

# Each runs after a successful call and returns the (possibly wrapped) result.

def _after_fit(tracer, args, kwargs, result):
    tracer.count("regression.iterations", result.iterations)
    y = args[2] if len(args) > 2 else kwargs["y"]
    tracer.count("regression.observations", len(y))
    return result


def _after_grid(tracer, args, kwargs, result):
    tracer.count("cf_construct.cg_iterations", result.iterations)
    return result


def _after_compile(tracer, args, kwargs, result):
    # the compiled expression is what the predictor calls per observation
    return tracer._wrap(result, "expressions", result.__name__)


_AFTER = {
    ("regression", "fit"): _after_fit,
    ("cf_construct", "solve_convolution_grid"): _after_grid,
    ("expressions", "compile_expression"): _after_compile,
}
