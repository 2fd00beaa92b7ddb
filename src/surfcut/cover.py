"""Shortest closed walks in the dual, indexed by weight and homology tag.

A BFS runs over states (face, accumulated weight k, accumulated crossing
vector v), the fibers of a covering of the dual.  A state back at its start
face describes a closed walk; per tag (k, v) the table keeps the shortest
closed walk, ties going to the lexicographically smallest dart sequence.
Walk length is capped at a depth D <= m.  The solver picks
D = min(m, floor(U * F)) from the value U of some cut and the peak F of the
balance function, as an optimal cut has at most OPT * F <= U * F edges.
The BFS goes level by level with lexicographic ties inside a level, so the
depth-D table is the walks of at most D darts of any deeper table.

A dart's weight is a subtree size, at most n - 1, and each loop crosses an
edge at most once, so walks of at most D darts keep k and v inside a box:
|k| <= K = D (n - 1) and |v_j| <= D.  A state is then one int in mixed
radix, digits from the lowest: face, v_2g + D, ..., v_1 + D, k + K, and a
dart moves every state by the same precomputed int.  q = state // faces
orders states as their tags (k, v) sort, so sorting the closed states'
ints puts the table in tag order.  One BFS runs per start dart d0, using
only darts >= d0: every closed walk has a rotation starting at its
smallest dart.  The minimum-face rule (Johnson 1975) would prune more, but
it finds a different member of a tie and so changes the stored darts.

Each run prunes with an admissible bound, as in A* (Hart, Nilsson & Raphael
1968).  With dist(u) the fewest darts >= d0 from face u back to the start
face t0, and dist(t0) = 1, a state at level l on face u is expanded only
when l + dist(u) <= D: no other state has a closed walk within D darts
through it.  A usable table, above genus 0, keeps only the walks combine can
use: a walk with crossing vector v needs partners of max_j |v_j| darts or
more to cancel it, and combine scores sums of at most D darts.  Its runs
expand a state only when l + max(dist(u), max_j |v_j|) <= D and store a walk
only when its length + max_j |v_j| <= D.  Neither bound falls along a path:
a dart moves each v_j by at most 1, and a dart from u' to u gives dist(u')
<= dist(u) + 1 (at t0 too: raising dist(t0) to 1 only grows the right side
when u = t0, and 1 <= dist(u) + 1 when u' = t0).  So each expanded state's
first path has every prefix expanded, in the same FIFO order as with no
prune, and a stored walk's last state before closing passes too (a level
less, max_j |v_j| at most one more).  Every stored walk keeps the darts of
the full table; only states drop.

A state is settled where it is first reached: it is tested, checked for
closing and pruned there, and only a state to be expanded joins the next
frontier.  It expands through the darts out of its face less the twin of
the dart it came by, which leads back to a visited state, so no visited
state, first path or count changes.

The table keeps each walk's darts under its q and is never decoded on the
way to combine.  The v digits use a power-of-two radix R above
4 (g + 1) D, not the 2 D + 1 the box needs.  So the v part of q, less its
offsets, is v packed as an int in which a sum of at most g + 1 walks never
carries, and each digit's field has a guard bit, R / 2, that lets a usable
run test every |v_j| <= D - l with two adds and two masks.
CoverResult.by_length reads k and that packed v off q, orders the walks by
length in buckets filled in q order, and holds a slot per walk for its
chain coefficients, filled when a sum first uses the walk.  Only the dump,
the tests and the walks a solve picks decode q into its tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from surfcut.dual import IntegerChain, walk_coeffs
from surfcut.embedding import EmbeddedGraph
from surfcut.homology import LoopSystem, WeightFunction


def tag_layout(n: int, genus: int, depth: int) -> tuple[int, int, int, int]:
    """How tags of walks of at most `depth` darts pack into q: the radix R of
    the v digits, the place of k's digit, the offset K = depth (n - 1) of k,
    and ones = sum_j R**j, a 1 in each of the 2g v digits, so the v part of
    q is offset by depth * ones.  R is a power of two above 2 * 2 (g + 1)
    depth, so each digit's field has a guard bit, R / 2, that no digit and
    no sum of g + 1 walks reaches."""
    radix = 1 << ((2 * (genus + 1) * depth).bit_length() + 1)
    coords = 2 * genus
    return radix, radix**coords, depth * (n - 1), sum(radix**j for j in range(coords))


@dataclass(frozen=True, slots=True)
class TaggedWalk:
    """A closed dual walk of a graph with m edges; its tag (k, v) is its table key.

    chain is built anew on every read; combine reads darts off the table, not this.
    """

    darts: tuple[int, ...]
    m: int

    @property
    def length(self) -> int:
        return len(self.darts)

    @property
    def chain(self) -> IntegerChain:
        return IntegerChain(walk_coeffs(self.m, self.darts))


@dataclass(frozen=True)
class CoverResult:
    """All per-tag shortest closed walks of at most depth_cap darts.

    darts maps each walk's packed tag q to the walk's darts, in ascending q,
    which is tag order.  q packs the tag (k, v), the weight and crossing
    vector of a walk, in mixed radix, digits from the lowest: v_2g + D, ...,
    v_1 + D in the power-of-two radix R of tag_layout, then k + K, with D the
    depth cap and K = D (n - 1).  tag decodes q, and walks is the table
    decoded, tag -> TaggedWalk, built on first read for the dump and the
    tests; a solve never reads it.  A usable table (genus above 0 only)
    keeps only the walks with length + max_j |v_j| <= D, the ones a sum of
    at most D darts can use, each with the darts the full table has; a full
    table keeps every tag.  states_per_start has one entry per start dart,
    the states its run visited after the prunes (those it reached, expanded
    or not).

    by_length is the index the combine step reads, built on first read and
    kept with the table object, so every solve that reads one table, at
    whatever depth, shares it; a `dataclasses.replace`d table is a new
    object and builds its own.
    """

    darts: dict[int, tuple[int, ...]]
    n: int
    m: int
    genus: int
    depth_cap: int
    usable: bool
    states_per_start: tuple[int, ...]

    @cached_property
    def _layout(self) -> tuple[int, int, int, int]:
        return tag_layout(self.n, self.genus, self.depth_cap)

    def tag(self, q: int) -> tuple[int, tuple[int, ...]]:
        """The tag (k, v) that q packs."""
        radix, place, k_offset, _ = self._layout
        k, rest = divmod(q, place)
        v = []
        for _ in range(2 * self.genus):
            rest, digit = divmod(rest, radix)
            v.append(digit - self.depth_cap)
        return k - k_offset, tuple(reversed(v))

    @cached_property
    def walks(self) -> dict[tuple[int, tuple[int, ...]], TaggedWalk]:
        return {self.tag(q): TaggedWalk(darts, self.m) for q, darts in self.darts.items()}

    @cached_property
    def by_length(self) -> tuple[list, dict[int, list[int]], list]:
        """The nonempty walks as (length, q, k, packed v, darts), sorted by
        length then q; for each packed v the ascending indices of its
        entries; and per entry a slot combine fills with the walk's chain coefficients.

        q orders like the tag and tags are unique, so the entries of the
        walks within any depth are the first ones, in the same order as in a
        table built to that depth.  The packed v is the v part of q less its
        offsets, sum v_j R**(2g - j): a walk has |v_j| <= depth_cap, so a sum
        of at most g + 1 walks has digits below R / 2, no carry, and packs to
        0 only when its v is 0.
        """
        _, place, k_offset, ones = self._layout
        v_offset = self.depth_cap * ones
        buckets: list[list] = [[] for _ in range(self.depth_cap + 1)]
        for q, darts in self.darts.items():
            if darts:
                k, v = divmod(q, place)
                buckets[len(darts)].append((len(darts), q, k - k_offset, v - v_offset, darts))
        entries = [entry for bucket in buckets for entry in bucket]
        by_v: dict[int, list[int]] = {}
        for i, entry in enumerate(entries):
            by_v.setdefault(entry[3], []).append(i)
        return entries, by_v, [None] * len(entries)


def shortest_tagged_walks(
    dual: EmbeddedGraph, w: WeightFunction, system: LoopSystem, depth: int, usable: bool = False
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

    The run from d0 finds dist[u] by one BFS backward from t0 (faces that
    cannot get back get depth + 1) and prunes as the module docstring says.
    Each state is settled where it is reached, at the level the loop is on,
    its walk's length.  With `usable` (kept only above genus 0), a state at
    level l with some |v_j| > depth - l is neither stored nor expanded,
    tested on the guard bits of its q.  Each other state is checked for
    closing before the dist prune, and its darts are rebuilt only when that
    beats the stored walk's length.  With dist[t0] = 1 no state at level
    `depth` passes the prune, so a run ends when its frontier is empty.
    """
    m = dual.m
    n = len(w.order)
    faces = dual.n
    tails, heads, out_darts = dual.tails, dual.heads, dual.out_darts
    nd = dual.num_darts

    # walks of at most `depth` darts that move k by at most n - 1 and each
    # v_j by at most 1 per dart stay in this box; an int state whose
    # coordinate escaped would silently alias another state
    if any(abs(x) > n - 1 for x in w.values.coeffs) or any(
        abs(x) > 1 for loop in system.loops for x in loop.coeffs
    ):
        raise AssertionError("covering state escaped its analytic bounds")
    # the tag digits of q = s // faces, as tag_layout packs them: high_first
    # holds their place values in q, k's first, then v_1 .. v_2g
    genus = system.genus
    radix, place, k_bound, ones = tag_layout(n, genus, depth)
    high_first = [place] + [radix**j for j in reversed(range(2 * genus))]
    origin_q = k_bound * place + depth * ones
    offset = faces * origin_q
    usable = usable and genus > 0
    # q & vmask is the v part of q, and guard the top bit, R / 2, of each digit's field
    vmask, half = place - 1, radix >> 1
    guard = half * ones
    # dart 2e moves the state by its face change plus its moves of k and
    # v_1 .. v_2g, its edge's coefficients; its twin moves it back
    step = [0] * nd
    for e, tag_move in enumerate(zip(w.values.coeffs, *(loop.coeffs for loop in system.loops))):
        d = 2 * e
        step[d] = heads[d] - tails[d] + faces * sum(map(mul, high_first, tag_move))
        step[d + 1] = -step[d]
    # after[d]: (step, dart, head face) for the darts leaving heads[d] that the
    # current run may use, ascending, less the twin d ^ 1; the origin, visited
    # as -1, reads after[-1], the start dart alone.  into[x]: the tail faces of
    # the darts into x that it may use.  Each run drops its start dart from all.
    after = [[(step[e], e, heads[e]) for e in out_darts[heads[d]] if e != d ^ 1] for d in range(nd)] + [None]
    into = [[] for _ in range(faces)]
    for d in range(nd):
        into[heads[d]].append(tails[d])

    # a closed state s at the start face t0 has tag digits q = s // faces,
    # the same int in every run, so best is keyed by q
    best = {origin_q: ()}
    unreachable = depth + 1
    states_per_start = []
    for d0 in range(nd):
        t0 = tails[d0]
        # dist[u]: fewest darts >= d0 from face u back to t0
        dist = [unreachable] * faces
        dist[t0] = 0
        queue = [t0]
        for x in queue:
            for y in into[x]:
                if dist[y] == unreachable:
                    dist[y] = dist[x] + 1
                    queue.append(y)

        # leaving t0 and closing again takes at least one dart
        dist[t0] = 1

        origin = t0 + offset
        after[-1] = [(step[d0], d0, heads[d0])]
        visited = {origin: -1}
        # at depth 0 the box has no room for a dart, and no walk may take one
        frontier = [origin] if depth else []
        level = 1
        while frontier:
            budget = depth - level
            if usable:
                # every |v_j| <= budget iff adding `over` sets no guard bit and `under` sets all
                over, under = (half - 1 - depth - budget) * ones, (half - depth + budget) * ones
            nxt = []
            for s in frontier:
                for st, d, h in after[visited[s]]:
                    ns = s + st
                    if ns in visited:
                        continue
                    visited[ns] = d
                    if usable:
                        qv = ns // faces & vmask
                        if (qv + over) & guard or (qv + under) & guard != guard:
                            continue
                    if h == t0:
                        # a closed walk of `level` darts; a walk stored by an earlier
                        # run starts with a smaller dart, and one run reaches each tag
                        # at most once, so at equal length the stored walk sorts first
                        q = ns // faces
                        cur = best.get(q)
                        if cur is None or level < len(cur):
                            darts = []
                            x, e = ns, d
                            while e != -1:
                                darts.append(e)
                                x -= step[e]
                                e = visited[x]
                            best[q] = tuple(reversed(darts))
                    if dist[h] <= budget:
                        nxt.append(ns)
            frontier = nxt
            level += 1
        # the darts into t0 are the twins of those out of it; after[d0 ^ 1] lacks d0
        for e in out_darts[t0]:
            if e != d0:
                after[e ^ 1].pop(0)
        into[heads[d0]].remove(t0)
        states_per_start.append(len(visited))

    # q sorts like the tag, so the table comes out in tag order
    return CoverResult(
        darts={q: best[q] for q in sorted(best)},
        n=n,
        m=m,
        genus=genus,
        depth_cap=depth,
        usable=usable,
        states_per_start=tuple(states_per_start),
    )


def dump_walks(cover: CoverResult) -> str:
    """One line per tag, in tag order: k, the crossing coordinates, length, dart sequence."""
    lines = []
    for q, darts in cover.darts.items():
        k, v = cover.tag(q)
        lines.append(" ".join(map(str, (k, *v, len(darts), *darts))))
    return "\n".join(lines) + "\n"
