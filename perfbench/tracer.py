"""Spans around calls into tame3's public functions, recorded from outside.

`Tracer.install` replaces every binding of each traced function in every
loaded tame3 module -- the defining module's own name, and every name
another module brought in with ``from ... import`` -- by one wrapper that
records a span: name, start, end, parent span and item id.  Calls made
inside tame3 look their callees up through these bindings, so nested calls
nest their spans.  `uninstall` puts the original functions back.

Spans stay in memory until `write`.  A span's self time is its duration
minus the time its direct children cover.  Work the tracer adds itself
(operand keys for repeat counting, system sizes) is timed as a span of the
``trace`` layer, so it is charged neither to the traced call nor to its
caller.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# Public functions that are not traced: graded-lex degree arithmetic and
# constructors that take well under a microsecond, called so often that a
# wrapper around each would cost more than the work it measures.  Their time
# counts as self time of their traced caller.
UNTRACED = {
    "poly": {
        "grlex_key", "mdeg_cmp", "mdeg_lt", "mdeg_le", "mdeg_gt", "mdeg_ge",
        "mdeg_max", "mdeg_add", "mdeg_sub", "mdeg_scale", "deg", "top_term",
        "zero", "const", "variable", "monomial", "is_zero", "equal",
    },
}

LAYERS = (
    "poly", "forms", "analysis", "linalg", "vertices", "reduction",
    "wordgen", "parsing", "cli",
)

SETUP_ITEM = -1


def _form_key(a, b):
    return tuple(frozenset(c.items()) for c in a.coefficients + b.coefficients)


class Tracer:
    """Records spans for one process; install, run, uninstall, summarize."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.item = SETUP_ITEM
        self.counters: dict[str, int] = {}
        self._wedge_keys: set = set()
        self._originals: dict = {}
        self._bindings: list[tuple[object, str, object]] = []

    # -- bookkeeping ------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self.item = item
        self._wedge_keys = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, post=None):
        spans, stack = self.spans, self.stack
        nid = self._name_id(name)
        tid = self._name_id("trace.bookkeeping") if post else None
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.item)
            if post is not None:
                post(args, result)
                spans.append((tid, end, perf_counter(), parent, tracer.item))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _posts(self):
        def mul(args, result):
            a, b = args
            self.count("poly.mul.term_pairs", len(a) * len(b))

        def wedge11(args, result):
            key = _form_key(*args)
            if key in self._wedge_keys:
                self.count("forms.wedge11.repeats")
            else:
                self._wedge_keys.add(key)

        def solve_exact(args, result):
            columns, rhs = args
            rows = set(rhs)
            for col in columns:
                rows.update(col)
            self.count("linalg.solve_exact.cells", len(rows) * len(columns))
            if result is None:
                self.count("linalg.solve_exact.infeasible")

        def elementary_search(args, result):
            if result is not None:
                self.count("reduction.elementary_search.found")

        def classify_elementary_K(args, result):
            if result is not None:
                self.count("reduction.classify_elementary_K.hits")

        return {
            "poly.mul": mul,
            "forms.wedge11": wedge11,
            "linalg.solve_exact": solve_exact,
            "reduction.elementary_search": elementary_search,
            "reduction.classify_elementary_K": classify_elementary_K,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in loaded tame3 modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tame3" or n.startswith("tame3.")]
        posts = self._posts()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"tame3.{layer}")
            if mod is None:
                continue
            skip = UNTRACED.get(layer, set())
            for name, fn in vars(mod).items():
                if (name.startswith("_") or name in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(key, fn, posts.get(key))
                self._originals[id(fn)] = fn
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and self._originals[id(val)] is val:
                    setattr(mod, attr, w)
                    self._bindings.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in self._bindings:
            setattr(mod, attr, val)
        self._bindings = []

    def traced_names(self) -> set[str]:
        return {n for n in self.names if not n.startswith("trace.")}

    # -- results ----------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """The span count and the counters so far, to delimit a stretch of run."""
        return len(self.spans), dict(self.counters)

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls and self time per function and per layer over spans [first, last)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans[first:last]:
            if parent >= 0:
                child_time[parent] += end - start
        per: dict[str, dict[str, float]] = {}
        for idx in range(first, last):
            nid, start, end, parent, _ = spans[idx]
            name = self.names[nid]
            own = (end - start) - child_time[idx]
            for key in (name, name.split(".")[0]):
                entry = per.setdefault(key, {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += own
        return per

    def write(self, path) -> None:
        """Write every span as one JSON document: names, then span rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
