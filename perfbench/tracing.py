"""Traced runs: spans around the package's layer entry points.

The package is not instrumented.  `Tracer.install` wraps the public
functions and methods listed below from outside, rebinding each
function in every `hochschild` module that holds it (the engine and the
CLI import several of them by name, and `ideals` calls `buchberger`
internally), and `Tracer.restore` puts the originals back.  Spans are
kept in memory as flat arrays; self times are computed after the run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (span name, module, function name)
FUNCTIONS = (
    ("cli", "hochschild.cli", "main"),
    ("parsing.parse", "hochschild.parsing", "parse_polynomial"),
    ("grading.detect_weights", "hochschild.grading", "detect_weights"),
    ("ideals.buchberger", "hochschild.ideals", "buchberger"),
    ("ideals.colon_ideal", "hochschild.ideals", "colon_ideal"),
    ("koszul.build", "hochschild.koszul", "cochain_complex"),
    ("koszul.build", "hochschild.koszul", "chain_complex"),
    ("linalg.rank", "hochschild.linalg", "rank_dense"),
    ("linalg.rank", "hochschild.linalg", "rank_sparse"),
    ("engine.analyze", "hochschild.engine", "analyze"),
    ("engine.kernel", "hochschild.engine", "kernel_description"),
)

# (span name, module, class, method name)
METHODS = (
    ("grading.quotient_basis", "hochschild.grading", "GradedQuotient", "basis"),
    ("ideals.normal_form", "hochschild.ideals", "GroebnerBasis",
     "normal_form"),
    ("koszul.verify", "hochschild.koszul", "KoszulComplex", "verify_entries"),
    ("koszul.verify", "hochschild.koszul", "KoszulComplex",
     "verify_d_squared_zero"),
    ("koszul.verify", "hochschild.koszul", "KoszulComplex", "assign_weights"),
    ("engine.analysis", "hochschild.engine", "Analysis", "__init__"),
    ("engine.route", "hochschild.engine", "Analysis", "route"),
    ("engine.oracle", "hochschild.engine", "Analysis", "oracle_dim"),
)

LAYERS = ("cli", "parsing", "grading", "ideals", "koszul", "linalg", "engine")

# Work the tracer itself does inside a span (hashing rank matrices); its
# time is taken out of the enclosing span and left unattributed.
STATS = "trace.stats"


def _matrix_stats(rows):
    """(cells, nonzeros, content hash) of a dense or sparse row list."""
    if not rows:
        return 0, 0, hash(())
    if isinstance(rows[0], dict):
        width = len(set().union(*rows))
        nonzeros = sum(1 for r in rows for v in r.values() if v)
        key = tuple(tuple(sorted((c, v) for c, v in r.items() if v))
                    for r in rows)
    else:
        width = len(rows[0])
        nonzeros = sum(1 for r in rows for v in r if v)
        key = tuple(tuple(r) for r in rows)
    return len(rows) * width, nonzeros, hash(key)


class Tracer:
    """Span recorder.  One instance traces one pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = defaultdict(int)
        self._matrices: set = set()
        self._patches: list = []
        self.missing: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _before(self, name: str, args) -> tuple:
        """Count what a call is given; returns the arguments to pass on
        (the rows are read into a list once, here, so that an iterator
        is not used up)."""
        if name == "ideals.normal_form":
            self.counters["ideals.normal_form.terms_in"] += len(args[1].terms)
        elif name == "linalg.rank":
            idx = self._open(self._id(STATS))
            t0 = time.perf_counter()
            args = (list(args[0]),) + args[1:]
            cells, nonzeros, key = _matrix_stats(args[0])
            self._matrices.add(key)
            c = self.counters
            c["linalg.rank.cells"] += cells
            c["linalg.rank.nonzeros"] += nonzeros
            c["linalg.rank.max_cells"] = max(c["linalg.rank.max_cells"], cells)
            self._close(idx, t0, time.perf_counter())
        return args

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counted = name in ("ideals.normal_form", "linalg.rank")
        route = name == "engine.route"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counted:
                args = self._before(name, args)
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if route and result is None:
                self.counters["engine.route.none"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.traced_span = name
        return traced

    def install(self) -> None:
        """Wrap every listed entry point that exists in the package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "hochschild" or key.startswith("hochschild.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append("%s.%s" % (module, attr))
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append("%s.%s.%s" % (module, cls_name, attr))
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive time and self time; per layer:
        self time; and the counters."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        names = self.names
        for i in range(n):
            key = names[self.name[i]]
            dur = end[i] - start[i]
            calls[key] += 1
            total[key] += dur
            own[key] += dur - child[i]
        layers = {layer: sum((v for k, v in own.items()
                              if k == layer or k.startswith(layer + ".")),
                             0.0)
                  for layer in LAYERS}
        rank_calls = calls["linalg.rank"]
        counters = dict(self.counters)
        counters["linalg.rank.distinct_ratio"] = (
            len(self._matrices) / rank_calls if rank_calls else 0.0)
        return {"calls": dict(calls), "time": dict(total), "self": dict(own),
                "layers": layers, "counters": counters}


def patched_names() -> list:
    """Every place in the loaded package that still holds a wrapper."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if key != "hochschild" and not key.startswith("hochschild."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "traced_span"):
                found.append("%s.%s" % (key, attr))
            if isinstance(value, type) and value.__module__ == key:
                found.extend("%s.%s.%s" % (key, attr, m)
                             for m, v in vars(value).items()
                             if hasattr(v, "traced_span"))
    return found
