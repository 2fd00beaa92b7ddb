"""Shortest closed walks in the dual, indexed by weight and homology tag.

For every start vertex a BFS runs over states (vertex, accumulated weight,
accumulated crossing vector), the fibers of a covering of the dual.  A state
equal to the start describes a closed walk; per tag (k, v) the overall
shortest walk is kept, ties going to the lexicographically smallest dart
sequence.  Walk length is capped at the edge count m, which is enough for
every chain the minimizer may need.
"""

from __future__ import annotations

from dataclasses import dataclass

from surfcut.dual import DualGraph, IntegerChain
from surfcut.homology import LoopSystem, WeightFunction


@dataclass(frozen=True)
class TaggedWalk:
    """A closed dual walk with its weight k and crossing vector v."""

    darts: tuple[int, ...]
    k: int
    v: tuple[int, ...]
    chain: IntegerChain

    @property
    def length(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class CoverResult:
    """All per-tag shortest closed walks plus search accounting."""

    walks: dict[tuple[int, tuple[int, ...]], TaggedWalk]
    depth_cap: int
    k_bound: int
    v_bounds: tuple[int, ...]
    states_per_start: tuple[int, ...]

    @property
    def max_states(self) -> int:
        return max(self.states_per_start)

    @property
    def state_space_bound(self) -> int:
        """Size of the covering state space V' x [-K..K] x prod [-Vj..Vj]."""
        bound = len(self.states_per_start) * (2 * self.k_bound + 1)
        for vb in self.v_bounds:
            bound *= 2 * vb + 1
        return bound


def shortest_tagged_walks(dual: DualGraph, w: WeightFunction, system: LoopSystem) -> CoverResult:
    """BFS the covering of the dual from every start vertex and merge.

    FIFO expansion in ascending dart order makes the first path recorded for
    a state the lexicographically smallest among shortest, so the result is
    independent of dict iteration accidents.
    """
    dg = dual.graph
    m = dg.m
    g2 = 2 * system.genus
    zero_v = (0,) * g2

    heads = dg.heads
    step = []
    for d in range(dg.num_darts):
        row = system.theta_dart(d)
        step.append((heads[d], w.dart_value(d), row, any(row)))
    out_darts = dg.out_darts

    k_bound = m * dual.primal.n
    v_bounds = tuple(m * lc.size for lc in system.loop_chains)

    best: dict[tuple[int, tuple[int, ...]], TaggedWalk] = {}
    states_per_start = []
    for start in range(dg.n):
        visited: dict[tuple[int, int, tuple[int, ...]], int] = {(start, 0, zero_v): -1}
        frontier = [(start, 0, zero_v)]
        depth = 0
        while frontier and depth < m:
            nxt = []
            for state in frontier:
                u, k, v = state
                for d in out_darts[u]:
                    head, dk, row, crosses = step[d]
                    nv = tuple(a + b for a, b in zip(v, row)) if crosses else v
                    ns = (head, k + dk, nv)
                    if ns not in visited:
                        visited[ns] = d
                        nxt.append(ns)
            frontier = nxt
            depth += 1
        states_per_start.append(len(visited))

        for state, last in visited.items():
            if state[0] != start:
                continue
            if abs(state[1]) > k_bound or any(abs(x) > vb for x, vb in zip(state[2], v_bounds)):
                raise AssertionError("covering state escaped its analytic bounds")
            darts = []
            s = state
            d = last
            while d != -1:
                darts.append(d)
                head, dk, row, _ = step[d]
                s = (dg.tails[d], s[1] - dk, tuple(a - b for a, b in zip(s[2], row)))
                d = visited[s]
            darts.reverse()
            key = (state[1], state[2])
            cand = TaggedWalk(
                darts=tuple(darts),
                k=state[1],
                v=state[2],
                chain=IntegerChain.of_walk(m, tuple(darts)),
            )
            cur = best.get(key)
            if cur is None or (cand.length, cand.darts) < (cur.length, cur.darts):
                best[key] = cand

    return CoverResult(
        walks=best,
        depth_cap=m,
        k_bound=k_bound,
        v_bounds=v_bounds,
        states_per_start=tuple(states_per_start),
    )


def dump_walks(cover: CoverResult) -> str:
    """One line per tag: k, the crossing coordinates, length, dart sequence."""
    lines = []
    for (k, v), walk in sorted(cover.walks.items()):
        parts = [str(k), *map(str, v), str(walk.length), *map(str, walk.darts)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
