"""In-memory spans around surfcut's layer calls, plus self-time accounting.

Tracing wraps module attributes that the solver and the CLI look up at call
time, so the traced run executes the same public entry points as the
untraced one.  Every wrapper is removed again when `instrument` exits.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name): the calls `SolveContext.solve_detailed`
# and `cli.run` make into each layer, in the order they make them
LAYER_CALLS = (
    ("solver", "SolveContext.solve_detailed", "solver.solve"),
    ("cli", "parse_embedding", "embedding.parse"),
    ("solver", "trace_faces", "embedding.faces"),
    ("solver", "build_dual", "dual.build"),
    ("solver", "build_weight", "homology.weight"),
    ("solver", "build_loop_system", "homology.loops"),
    ("solver", "shortest_tagged_walks", "cover.build"),
    ("solver", "combine_and_minimize", "solver.combine"),
    ("solver", "recover_cut", "solver.recover"),
    ("cli", "brute_force_cut", "oracle.brute_force"),
    ("cli", "dump_walks", "cover.dump"),
)
HOOK = "trace.hook"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()


def dump(span_list: list[Span], fh, pass_id: int) -> None:
    """Write spans as JSON lines; parents are indices within the same pass."""
    for i, s in enumerate(span_list):
        row = {"pass": pass_id, "id": i, "name": s.name, "start": s.start, "end": s.end,
               "parent": s.parent, "request": s.request}
        fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def layer_self_times(spans: list[Span]) -> Counter:
    """Self time summed per span name."""
    totals: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return totals


def _count_cover(c: Counter, cover, args) -> None:
    per_start = getattr(cover, "states_per_start", ())
    c["cover.states"] += sum(per_start)
    c["cover.max_states"] = max(c["cover.max_states"], max(per_start, default=0))
    c["cover.tags"] += len(getattr(cover, "walks", ()))


def _count_combine(c: Counter, comb, args) -> None:
    """Candidates scanned, and table walks that pass combine's entry filter."""
    c["solver.candidates"] += getattr(comb, "candidates", 0)
    cover, m = args[0], args[4]
    c["solver.table_entries"] += sum(
        1 for w in cover.walks.values() if w.length and not w.chain.is_zero and w.chain.size <= m
    )


def _count_oracle(c: Counter, report, args) -> None:
    c["oracle.cuts"] += len(getattr(report, "all_values", ()))


COUNTERS = {"cover.build": _count_cover, "solver.combine": _count_combine,
            "oracle.brute_force": _count_oracle}


def _wrap(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            with tracer.span(HOOK):
                count(tracer.counters, result, args)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, mods):
    """Route the layer calls and balance evaluations through `tracer`.

    `mods` maps short module names (solver, cli, balance) to the loaded
    surfcut modules.  A layer call the loaded code no longer has is skipped,
    and its span is simply absent.
    """
    saved = []
    try:
        for mod_name, path, name in LAYER_CALLS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn))
        cls = mods["balance"].BalanceFunction
        call = cls.__call__

        def counted(self, x):
            tracer.counters["balance.evals"] += 1
            return call(self, x)

        saved.append((cls, "__call__", call))
        cls.__call__ = counted
        yield tracer
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)
