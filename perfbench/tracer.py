"""Span tracing of lcmoments from outside the package.

Every public function of every layer is wrapped at every module-level
binding that refers to it.  The rebinding matters: ``expfamily``,
``simplex`` and ``constants`` import names with ``from .specfun import
...``, so patching ``specfun`` alone would miss their calls.  Spans
(name, start, end, parent) are kept in flat arrays and turned into self
times after the run; nothing is written while the program runs.

Three kinds of work are counted where they happen rather than as spans:

* ``specfun.quad.neval`` wraps the integrand where ``specfun`` passes it
  to ``scipy.integrate.quad``;
* the objective evaluations of ``search.bisect_root`` and of
  ``search.golden_section_min`` (which ``golden_section_max`` calls);
* the abscissae at which ``crossings.detect_sign_changes`` evaluates its
  function.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "expfamily", "constants", "search", "crossings", "simplex", "mc", "cli")

# functions whose first argument is a callable to count evaluations of
_COUNTED_ARGUMENT = {
    "search.bisect_root": "search.bisect_root.f_evals",
    "search.golden_section_min": "search.golden_section.f_evals",
    "crossings.detect_sign_changes": "crossings.detect_sign_changes.points",
}


def _restarts(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("restarts", 20)


# per-span integer tag: the size of the work a call was given
_TAGS = {
    "simplex.density_at_zero": lambda a, k: len(a[0]) - 1,  # dimension n
    "simplex.maximize_section": _restarts,
    "mc.sample_xab": lambda a, k: a[1].samples,
    "mc.estimate_abs_moment": lambda a, k: len(a[0]),
    "mc.estimate_density_at_zero": lambda a, k: a[1].samples,
}


def _public_functions(module):
    """Callables defined in ``module`` whose names do not start with '_'."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _points(x) -> int:
    return int(np.size(x))


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.tag = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [importlib.import_module(f"lcmoments.{layer}") for layer in LAYERS]
        holders = [importlib.import_module("lcmoments"), *modules]
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module):
                if layer == "cli" and name != "main":
                    # parser construction counts as main's own time
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapped)
        specfun = modules[LAYERS.index("specfun")]
        self._patch(specfun, "integrate", types.SimpleNamespace(quad=self._counting_quad(specfun.integrate.quad)))
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        return False

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _counting_quad(self, quad):
        counters = self.counters

        def traced_quad(f, *args, **kwargs):
            def integrand(x, *rest):
                counters["specfun.quad.neval"] += 1
                return f(x, *rest)

            return quad(integrand, *args, **kwargs)

        return traced_quad

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tag_of = _TAGS.get(name)
        counter = _COUNTED_ARGUMENT.get(name)
        counters, stack = self.counters, self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        failed, tag = self.failed, self.tag

        def counted(f):
            def inner(x, *rest, **kw):
                counters[counter] += _points(x) if counter.endswith(".points") else 1
                return f(x, *rest, **kw)

            return inner

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                args = (counted(args[0]), *args[1:])
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            tag.append(tag_of(args, kwargs) if tag_of else 0)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = time.perf_counter()
                stack.pop()

        return traced

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with each span's self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child_time = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": parent.copy(),
            "start": start.copy(),
            "end": end.copy(),
            "self": duration - child_time,
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
        }

    def within(self, spans, ancestors: set[str]) -> np.ndarray:
        """Mask of spans that have an ancestor named in ``ancestors``."""
        ids = {self._name_ids[a] for a in ancestors if a in self._name_ids}
        name, parent = spans["name"], spans["parent"]
        inside = np.zeros(name.size, dtype=bool)
        is_anchor = np.isin(name, list(ids))
        for i in range(name.size):  # parents precede children
            p = parent[i]
            if p >= 0 and (inside[p] or is_anchor[p]):
                inside[i] = True
        return inside

    def summary(self) -> dict:
        """Calls, total time, self time and failures per span name."""
        s = self.spans()
        duration = s["end"] - s["start"]
        out = {}
        for i, name in enumerate(self.names):
            m = s["name"] == i
            if m.any():
                out[name] = {
                    "calls": int(m.sum()),
                    "total_s": float(duration[m].sum()),
                    "self_s": float(s["self"][m].sum()),
                    "failed": int(s["failed"][m].sum()),
                }
        return out

    def save(self, path) -> None:
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **s)
