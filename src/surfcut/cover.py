"""Shortest closed walks in the dual, indexed by weight and homology tag.

A BFS runs over states (face, accumulated weight k, accumulated crossing
vector v), the fibers of a covering of the dual.  A state back at its start
face describes a closed walk; per tag (k, v) the table keeps the shortest
closed walk, ties going to the lexicographically smallest dart sequence.
Walk length is capped at a depth D, at most the edge count m.  The solver
picks D = min(m, floor(U * F)) from the value U of some cut and the peak
F of the balance function: an optimal cut has at most OPT * F <= U * F
edges, so no walk the minimizer may need is longer.  The BFS goes level by
level with lexicographic ties inside a level, so the depth-D table is the
depth-m table restricted to walks of at most D darts (`restrict`).

A dart's weight is a subtree size, at most n - 1, and each loop crosses an
edge at most once, so walks of at most D darts keep k and v inside a box
known before the search.  A state is then one int in mixed radix (digits:
face, k + K, v_j + V_j) and a dart moves every state by the same
precomputed int.  One BFS runs per start dart d0, using only darts >= d0:
every closed walk has a rotation starting at its smallest dart, so no class
is missed.  The minimum-face rule (Johnson 1975: start at the smallest face
and stay on faces >= it) would prune more, but it finds a different member
of a tie than the lexicographic minimum and so changes the stored dart
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from surfcut.dual import IntegerChain
from surfcut.embedding import EmbeddedGraph
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
    """All per-tag shortest closed walks of at most depth_cap darts.

    The other fields account for the search that built the table, which for
    a restricted table went deeper: states_per_start has one entry per start
    dart, the states its run visited, and state_space_bound is the size of
    the covering state space V' x [-K..K] x prod [-Vj..Vj] that bounds every
    run.
    """

    walks: dict[tuple[int, tuple[int, ...]], TaggedWalk]
    depth_cap: int
    state_space_bound: int
    states_per_start: tuple[int, ...]

    @property
    def max_states(self) -> int:
        return max(self.states_per_start)


def shortest_tagged_walks(
    dual: EmbeddedGraph, w: WeightFunction, system: LoopSystem, depth: int
) -> CoverResult:
    """BFS the covering of the dual once per start dart and merge.

    Walks have at most `depth` darts, and n, the primal vertex count, is the
    length of the weight's BFS order.  The stored walk of a tag is the
    lexicographically smallest of its shortest closed walks.  That set is
    closed under rotation, so its smallest member starts with its own
    smallest dart d0 and uses no dart below it.  The run from d0 expands
    darts >= d0 in ascending order with a FIFO frontier, so the first path
    recorded for a state is the lexicographically smallest shortest one, and
    the run finds that walk.  Runs go by ascending d0, so the merge keeps
    the first walk of the shortest length it meets for a tag.
    """
    m = dual.m
    n = len(w.order)
    faces = dual.n
    tails = dual.tails
    nd = dual.num_darts
    weights = [w.dart_value(d) for d in range(nd)]
    thetas = [system.theta_dart(d) for d in range(nd)]

    # walks of at most `depth` darts that move k by at most n - 1 and each
    # v_j by at most 1 per dart stay in this box; an int state whose
    # coordinate escaped would silently alias another state
    if any(abs(x) > n - 1 for x in weights) or any(abs(x) > 1 for row in thetas for x in row):
        raise AssertionError("covering state escaped its analytic bounds")
    k_bound = depth * (n - 1)
    v_bounds = (depth,) * (2 * system.genus)

    sizes = (2 * k_bound + 1, *(2 * vb + 1 for vb in v_bounds))
    radix = [faces]
    for size in sizes[:-1]:
        radix.append(radix[-1] * size)
    offset = sum(r * b for r, b in zip(radix, (k_bound, *v_bounds)))
    step = [
        dual.heads[d] - tails[d] + sum(r * x for r, x in zip(radix, (weights[d], *thetas[d])))
        for d in range(nd)
    ]
    # moves[u]: (step, dart) for the darts leaving u that the current run may
    # use, ascending; each run drops its start dart when it is done
    moves = [[(step[d], d) for d in ds] for ds in dual.out_darts]

    best: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {(0, (0,) * len(v_bounds)): ()}
    states_per_start = []
    for d0 in range(nd):
        t0 = tails[d0]
        origin = t0 + offset
        visited = {origin: -1}
        if step[d0]:
            frontier = [origin + step[d0]]
            visited[frontier[0]] = d0
            level = 1
            while frontier and level < depth:
                nxt = []
                for s in frontier:
                    for st, d in moves[s % faces]:
                        ns = s + st
                        if ns not in visited:
                            visited[ns] = d
                            nxt.append(ns)
                frontier = nxt
                level += 1
        moves[t0].pop(0)
        states_per_start.append(len(visited))

        for s, last in visited.items():
            if last == -1 or s % faces != t0:
                continue
            darts = []
            x, d = s, last
            while d != -1:
                darts.append(d)
                x -= step[d]
                d = visited[x]
            darts = tuple(reversed(darts))
            q = s // faces
            coords = []
            for size, bound in zip(sizes, (k_bound, *v_bounds)):
                q, r = divmod(q, size)
                coords.append(r - bound)
            key = (coords[0], tuple(coords[1:]))
            cur = best.get(key)
            # a walk stored by an earlier run starts with a smaller dart, and
            # one run reaches each tag at most once, so at equal length the
            # stored walk is the lexicographically smaller one
            if cur is None or len(darts) < len(cur):
                best[key] = darts

    walks = {
        key: TaggedWalk(darts=darts, k=key[0], v=key[1], chain=IntegerChain.of_walk(m, darts))
        for key, darts in sorted(best.items())
    }
    return CoverResult(
        walks=walks,
        depth_cap=depth,
        state_space_bound=radix[-1] * sizes[-1],
        states_per_start=tuple(states_per_start),
    )


def restrict(cover: CoverResult, depth: int) -> CoverResult:
    """The table of a BFS to `depth`, read off a table at least that deep."""
    if depth >= cover.depth_cap:
        return cover
    walks = {key: walk for key, walk in cover.walks.items() if walk.length <= depth}
    return replace(cover, walks=walks, depth_cap=depth)


def dump_walks(cover: CoverResult) -> str:
    """One line per tag: k, the crossing coordinates, length, dart sequence."""
    lines = []
    for (k, v), walk in sorted(cover.walks.items()):
        parts = [str(k), *map(str, v), str(walk.length), *map(str, walk.darts)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
