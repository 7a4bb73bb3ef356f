"""Span tracing from outside the package.

:class:`Tracer` rebinds every public function of every ``bridgelab`` module to
a wrapper that records a span, and rebinds the same name in each module that
imported the function by value (``from .divergences import phi_entropy``), so
calls that never go through the home module are seen too.  It also counts
``numpy.linalg.eigh`` / ``eigvalsh`` calls against the innermost open span.

:meth:`Tracer.spans` gives the spans as ``[name, start, end, parent, op,
nested, counts]`` lists indexed by span id: ``parent`` is the id of the
enclosing span (``None`` for an operation's root span), ``op`` the operation
id, ``nested`` whether a span of the same name was already open, and
``counts`` a dict of counters recorded while the span was innermost (or
``None``).  Nothing is recorded outside
:meth:`Tracer.operation`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

NAME, START, END, PARENT, OP, NESTED, COUNTS = range(7)
OP_SPAN = "op"
STEP_SPAN = "gaussian.sinkhorn_step"
COUNTED_LINALG = ("eigh", "eigvalsh")
LINALG_KEYS = tuple(f"{name}.calls" for name in COUNTED_LINALG)


def _lip_norm_pairs(args, kwargs, result):
    kernel = args[0] if args else kwargs["kernel"]
    rows = np.shape(kernel)[0]
    return {"pairs": rows * (rows - 1) // 2}


def _solve_bridge_sweeps(args, kwargs, result):
    return {"sweeps": result.iterations_used}


# Counters derived from a call's inputs or result, keyed by span name.
HOOKS = {
    "contraction.lip_norm": _lip_norm_pairs,
    "discrete.solve_bridge": _solve_bridge_sweeps,
}


def package_modules(package) -> list:
    """The package's submodules, imported."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Tracer:
    def __init__(self) -> None:
        self.op: int | None = None
        # Closed spans as (id, name, start, end, parent, op, nested) tuples.
        # Tuples of plain values drop out of the cyclic garbage collector's
        # tracking, so a long run's spans do not slow every collection.
        self._closed: list[tuple] = []
        self._counts: dict[int, dict[str, int]] = {}
        self._next = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._rebound: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every submodule of ``package``."""
        modules = package_modules(package)
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(module, name, wrapper)
        for name in COUNTED_LINALG:
            self._rebind(np.linalg, name, self._counter(f"{name}.calls", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    def _rebind(self, owner, name: str, replacement) -> None:
        self._rebound.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, span_name: str, fn):
        hook = HOOKS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            token = self._push(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(token)
            if hook is not None:
                self._count(token[0], hook(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                self._count(self._stack[-1], {key: 1})
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _push(self, name: str) -> tuple:
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        nested = self._open[name] > 0
        self._stack.append(span_id)
        self._open[name] += 1
        return span_id, name, parent, nested, time.perf_counter()

    def _pop(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, name, parent, nested, start = token
        self._closed.append((span_id, name, start, end, parent, self.op, nested))
        self._stack.pop()
        self._open[name] -= 1

    def _count(self, span_id: int, counts: dict) -> None:
        own = self._counts.setdefault(span_id, {})
        for key, value in counts.items():
            own[key] = own.get(key, 0) + value

    def operation(self, op_id: int):
        """Context manager: one timed operation, recorded as a root ``op`` span."""
        return _Operation(self, op_id)

    def spans(self) -> list[list]:
        """Closed spans as ``[name, start, end, parent, op, nested, counts]``, indexed by id."""
        records: list = [None] * self._next
        for span_id, name, start, end, parent, op, nested in self._closed:
            records[span_id] = [name, start, end, parent, op, nested, self._counts.get(span_id)]
        return records


class _Operation:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer.op = self.op_id
        self.token = self.tracer._push(OP_SPAN)
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self.token)
        self.tracer.op = None
        return False


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------


def write_spans(spans, path) -> None:
    """One JSON list per line."""
    with open(path, "w") as fh:
        for record in spans:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    return [
        (record[END] - record[START]) - covered(record[START], record[END], children.get(i, ()))
        for i, record in enumerate(spans)
    ]


class Summary:
    """Per-name totals over a list of spans: calls, inclusive and self seconds, counts."""

    def __init__(self, spans) -> None:
        self.ops = sum(1 for r in spans if r[NAME] == OP_SPAN)
        self.op_seconds = sum(r[END] - r[START] for r in spans if r[NAME] == OP_SPAN)
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.step_counts: Counter = Counter()
        in_step = []
        for record, own in zip(spans, self_times(spans)):
            name = record[NAME]
            self.calls[name] += 1
            self.self_s[name] += own
            if not record[NESTED]:
                self.inclusive[name] += record[END] - record[START]
            parent = record[PARENT]
            inside = name == STEP_SPAN or (parent is not None and in_step[parent])
            in_step.append(inside)
            for key, value in (record[COUNTS] or {}).items():
                self.counts[f"{name}.{key}"] += value
                if key in LINALG_KEYS:
                    self.counts[key] += value
                    if inside:
                        self.step_counts[key] += value

    @property
    def step_factorizations(self) -> int:
        """``eigh`` + ``eigvalsh`` calls inside ``sinkhorn_step`` spans."""
        return sum(self.step_counts.values())

    def per_step(self) -> dict[str, float]:
        """Each counted factorization per ``sinkhorn_step`` call (0 without steps)."""
        steps = self.calls[STEP_SPAN]
        return {key: self.step_counts[key] / steps if steps else 0.0 for key in LINALG_KEYS}

    def module_self_share(self, module: str) -> float:
        """Self time of ``module``'s functions as a share of operation time."""
        own = sum(s for name, s in self.self_s.items() if name.split(".")[0] == module)
        return own / self.op_seconds

    def top_self(self, k: int = 10) -> list[tuple[str, float]]:
        return [(name, s / self.ops) for name, s in self.self_s.most_common(k)]
