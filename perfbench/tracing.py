"""Spans around calls into nsg's public functions, recorded from outside.

The tracer replaces each listed public function, in every nsg module that
refers to it, with a wrapper that records a span: name, start, end, parent
span and the current item id.  A few more functions get a wrapper that
only counts, so that their time stays inside the span of their caller.  Recursive and nested calls nest through the
module globals the program already calls them by, so lru caches keep
behaving as in production.  Spans stay in memory; forked pool workers
append theirs to a spool file whenever one of their top-level spans closes,
because pool workers exit without running atexit hooks.

Counters are taken from the arguments and results of a few calls, keyed by
the semigroup's generators, so that one semigroup counts once however many
processes or cache misses compute it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# layer -> public functions timed in the traced run: those whose time is a
# metric, and the others the workloads and the CLI handlers they use call
# directly, so that every top-level call and every library call inside a
# command is a span.  Hot leaf predicates such as core.contains are left
# out: their call count would swamp the rest.
TRACED = {
    "core": ("make_semigroup", "gaps"),
    "presentations": ("minimal_presentation",),
    "gluing": ("glue", "extra_degree", "ci_tree", "a_invariant"),
    "star": ("star_report", "classify_exception", "check_star_gluing"),
    "census": ("enumerate_records", "record_for", "summarize", "write_records"),
    "cli": ("run",),
}
# functions whose results are counted but which get no span: each is called
# only inside one traced function, whose time then includes theirs
COUNTED = {
    "presentations": ("betti_elements",),
    "gluing": ("find_gluings",),
}


def _counts(name: str, args, result) -> dict | None:
    """Work counted from one call's inputs and outputs, or None."""
    if name == "presentations.betti_elements":
        s = args[0]
        gens = s.generators
        if len(gens) < 2:
            return {"betti_elements": 0}
        return {
            # the guard enumerates every fiber in (bound, bound + a_e]
            "guard_fibers": gens[-1],
            # the scan visits 2m .. F + a_{e-1} + a_e
            "scan_candidates": s.frobenius + gens[-2] + gens[-1] - 2 * s.multiplicity + 1,
            "betti_elements": len(result),
            "betti": list(result),
        }
    if name == "presentations.minimal_presentation":
        return {"relations": len(result.relations)}
    if name == "gluing.find_gluings":
        return {"splits_found": len(result)}
    if name == "gluing.ci_tree":
        return {"ci_count": int(result is not None)}
    return None


class Tracer:
    def __init__(self, spool_dir: str, only: tuple[str, ...] | None = None):
        self.spool_dir = spool_dir
        self.only = only
        self.active = False
        self.item = None
        self.after_call = None  # called when a top-level span closes
        self.spans: list[tuple] = []  # (name, start, end, parent, item)
        self.stack: list[int] = []
        self.counts: dict[tuple, dict] = {}  # (name, generators) -> counts
        self._installed: list[tuple] = []
        self._spool_file = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans, self.stack, self.counts = [], [], {}
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        self._spool_file = open(path, "a", encoding="utf-8")

    def span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed by the caller."""
        self.spans.append((name, start, end, None, self.item))

    def _wrap(self, name: str, fn, timed: bool = True):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts.setdefault((name, tuple(args[0].generators)), _counts(name, args, result))
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.item)
            counts = _counts(name, args, result)
            if counts is not None:
                tracer.counts.setdefault((name, tuple(args[0].generators)), counts)
            if not stack:
                if tracer._spool_file is not None:
                    tracer._spool()
                if tracer.after_call is not None:
                    tracer.after_call()
            return result

        return traced if timed else counted

    def _spool(self) -> None:
        # flushed at once: the worker may be ended without closing the file
        self._spool_file.write(json.dumps({
            "spans": self.spans,
            "counts": [[k[0], list(k[1]), v] for k, v in self.counts.items()],
        }) + "\n")
        self._spool_file.flush()
        self.spans, self.counts = [], {}

    def install(self) -> None:
        """Wrap every listed function in each nsg module that refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "nsg" or n.startswith("nsg.")]
        wanted = [(layer, fname, True) for layer, names in TRACED.items() for fname in names]
        if not self.only:
            wanted += [(layer, fname, False) for layer, names in COUNTED.items() for fname in names]
        for layer, fname, timed in wanted:
            home = sys.modules[f"nsg.{layer}"]
            original = getattr(home, fname, None)
            if original is None or (self.only and f"{layer}.{fname}" not in self.only):
                continue
            wrapper = self._wrap(f"{layer}.{fname}", original, timed)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def processes(self) -> list[tuple[list, dict]]:
        """(spans, counts) of this process first, then of each pool worker."""
        out = [(self.spans, dict(self.counts))]
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.startswith("worker-"):
                continue
            spans, counts = [], {}
            with open(os.path.join(self.spool_dir, fname), encoding="utf-8") as handle:
                for line in handle:
                    chunk = json.loads(line)
                    base = len(spans)
                    for name, start, end, parent, item in chunk["spans"]:
                        spans.append((name, start, end, None if parent is None else parent + base, item))
                    for name, gens, value in chunk["counts"]:
                        counts.setdefault((name, tuple(gens)), value)
            out.append((spans, counts))
        return out
