"""In-memory call tracing for the benchmark's traced run.

The tracer wraps the public functions of the package modules from outside:
every module-level function whose name does not start with an underscore,
plus the ``admits`` methods of the threshold schedules.  Each wrapper is
bound under every name that refers to the original function in any package
module, so ``variety.in_nef`` and ``counting.in_nef`` both go through it.

Most functions record one span per call: name, start, end and parent span.
Hot leaf functions (called once per lattice point or per (class, d) pair)
record a call count plus total and self time instead, which keeps the span
list small.  The exact dot product in ``variety`` is left unwrapped.  Spans
stay in memory until the run ends.  Nothing in the package itself is
changed on disk; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import inspect
from time import perf_counter

# The exact dot product is called once per facet per lattice point; a
# wrapper would cost as much as the call and distort every caller, so it
# stays unwrapped and its time counts in its callers.
UNWRAPPED = frozenset({"variety.dot"})
# Functions that are called per point or per (class, d) pair; recorded as
# aggregates rather than spans.  None of them calls a span-recorded
# function, so a span's self time is its duration minus its child spans and
# the leaf calls made directly from it.
LEAF_LABELS = frozenset(
    {
        "variety.in_nef",
        "variety.esp",
        "variety.liberated_lower_bound",
        "counting.xi_value",
        "counting.eps_admits",
    }
)
# Every splitting function is a cheap leaf as well.
LEAF_LAYERS = frozenset({"splitting"})


class Tracer:
    """Collects spans and leaf aggregates for one traced pass."""

    def __init__(self) -> None:
        # span record: [name, parent index or -1, start, end, leaf_s], where
        # leaf_s is the time spent in leaf calls made directly from the span
        self.spans: list[list] = []
        self.leaves: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        # frame: [span index or -1, is_leaf, child_s, leaf_s]
        self._stack: list[list] = [[-1, False, 0.0, 0.0]]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn, hook=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            rec = [name, parent[0], 0.0, 0.0, 0.0]
            spans.append(rec)
            frame = [idx, False, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[2] = t0
                rec[3] = t1
                rec[4] = frame[3]
                parent[2] += t1 - t0
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, name: str, fn):
        stats = self.leaves.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], True, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[2]
                parent[2] += dt
                if not parent[1]:
                    parent[3] += dt

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package, layers: dict[str, object], hooks: dict) -> None:
        """Wrap the public functions of ``layers`` (layer name -> module)
        and rebind them in every module of ``package``.  ``hooks`` maps a
        span name to a function called with the arguments and result of
        each call, outside its timing."""
        wrappers = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                label = f"{layer}.{attr}"
                if label in UNWRAPPED:
                    continue
                if label in LEAF_LABELS or layer in LEAF_LAYERS:
                    wrappers[obj] = self._leaf_wrapper(label, obj)
                else:
                    wrappers[obj] = self._span_wrapper(label, obj, hooks.get(label))
        namespaces = [package] + list(layers.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        counting = layers["counting"]
        for cls in (counting.EpsPower, counting.EpsTable):
            self._patch(cls, "admits", self._leaf_wrapper("counting.eps_admits", cls.admits))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries --------------------------------------------------------

    def span_stats(self) -> dict[str, list[float]]:
        """Per span name: [calls, total_s, self_s], self time computed from
        the spans as duration minus direct child spans minus direct leaf
        calls."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, leaf_s in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, parent, start, end, leaf_s) in enumerate(self.spans):
            stats = out.setdefault(name, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += end - start
            stats[2] += end - start - child_s[i] - leaf_s
        return out

    def all_stats(self) -> dict[str, list[float]]:
        stats = self.span_stats()
        stats.update(self.leaves)
        return stats

    def spans_for_output(self) -> list[list]:
        """Spans with times relative to the first span, for the results file."""
        if not self.spans:
            return []
        t0 = self.spans[0][2]
        return [
            [name, parent, start - t0, end - t0, leaf_s]
            for name, parent, start, end, leaf_s in self.spans
        ]
