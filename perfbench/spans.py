"""Span tracing of the matroidal layers, installed from outside the library.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span (name, start, end, parent) per call,
plus work counts read from the call's arguments and return value.  The
replacement is done on every module-level name bound to the function, in
the package namespace and in each module that imported it from another,
so calls across module boundaries (``enumeration`` calling
``quotients.find_ordering``, ``oracle.buchberger`` calling
``oracle.reduce``) are seen.  Nothing under ``src/`` is modified.

Spans are kept in flat arrays and written out by ``dump``.  A span's self
time is its duration minus the time its direct children cover; calls are
single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = (
    "ideals",
    "matroids",
    "quotients",
    "decomposition",
    "svrank",
    "oracle",
    "enumeration",
    "cli",
)

# Per-monomial helpers run inside every layer's inner loops (several are
# used as sort keys); a span per call would swamp the layers that call them.
UNTRACED = frozenset(
    {"mono", "mono_vars", "mono_degree", "mono_divides", "mono_str", "parse_mono"}
)


def _search_counts(counts, args, kwargs, result):
    counts["svrank.search_cert.nodes"] += result.nodes
    if result.partition is not None:
        counts["svrank.search_cert.found"] += 1
    elif result.exhausted:
        counts["svrank.search_cert.exhausted"] += 1
    else:
        counts["svrank.search_cert.budget_out"] += 1


def _colon_counts(counts, args, kwargs, result):
    if result is None:
        counts["quotients.colon_step_vars.rejects"] += 1


def _primes_counts(counts, args, kwargs, result):
    counts["decomposition.minimal_primes.primes"] += len(result.primes)


def _check_counts(counts, args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    counts["matroids.check_matroidal.gens"] += len(ideal.gens)


def _basis_counts(counts, args, kwargs, result):
    counts["oracle.basis_terms"] += sum(len(p.terms) for p in result)


OBSERVERS = {
    "svrank.search_cert": _search_counts,
    "quotients.colon_step_vars": _colon_counts,
    "decomposition.minimal_primes": _primes_counts,
    "matroids.check_matroidal": _check_counts,
    "oracle.buchberger": _basis_counts,
}


# Every count an observer can add, for the metrics that report them.
COUNTER_NAMES = frozenset(
    {
        "svrank.search_cert.nodes",
        "svrank.search_cert.found",
        "svrank.search_cert.exhausted",
        "svrank.search_cert.budget_out",
        "quotients.colon_step_vars.rejects",
        "decomposition.minimal_primes.primes",
        "matroids.check_matroidal.gens",
        "oracle.basis_terms",
    }
)


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        # Unwinding after an exception may skip inner closes; drop them too.
        while self.stack and self.stack.pop() != idx:
            pass

    def reset_stack(self) -> None:
        """Close spans left open by an exception that escaped a wrapper."""
        now = time.perf_counter_ns()
        for idx in self.stack:
            if not self.span_end[idx]:
                self.span_end[idx] = now
        self.stack.clear()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span measured elsewhere (a child process's wall)."""
        idx = self.open(self.name_id(name))
        self.span_start[idx] = start_ns
        self.close(idx)
        self.span_end[idx] = end_ns

    # -- patching ---------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        nid = self.name_id(name)
        observe = OBSERVERS.get(name)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; yields are counted."""
        nid = self.name_id(name)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sym = kwargs.get("up_to_symmetry", args[2] if len(args) > 2 else False)
            key = f"{name}.sym_ideals" if sym else f"{name}.ideals"

            def resume():
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    counts[key] += 1
                    yield item

            return resume()

        return wrapper

    def install(self) -> None:
        """Route every public function of the traced modules through spans."""
        modules = [importlib.import_module("matroidal")]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"matroidal.{layer}")
            modules.append(module)
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = self._wrap_generator(name, fn)
                else:
                    wrappers[id(fn)] = self._wrap_function(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, max ms.

        Inclusive time counts only spans with no ancestor of the same name,
        so a function that reaches itself through another is not counted
        twice.
        """
        total = len(self.span_start)
        child_ns = [0] * total
        durations = [self.span_end[i] - self.span_start[i] for i in range(total)]
        for i in range(total):
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += durations[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(total):
            nid = self.span_name[i]
            entry = out.setdefault(
                self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0, "max_ms": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += (durations[i] - child_ns[i]) / 1e9
            entry["max_ms"] = max(entry["max_ms"], durations[i] / 1e6)
            ancestor = self.span_parent[i]
            while ancestor >= 0 and self.span_name[ancestor] != nid:
                ancestor = self.span_parent[ancestor]
            if ancestor < 0:
                entry["s"] += durations[i] / 1e9
        return out

    def dump(self, path) -> None:
        """Write the spans as TSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]}"
                    f"\t{self.span_end[i]}\t{self.span_parent[i]}\n"
                )
