"""Slow, independent references for the walk table, used only by the tests.

The walk enumeration lists all short closed walks of a dual up to rotation
and reversal, each as its darts and its tag (k, v), giving an independent
check of the tagged walk table; it builds no chains, reads nothing of the
cover, blows up exponentially and carries a hard cap.  The companion cycles
are dual cycles that cross one loop of a loop system each.
"""

from __future__ import annotations

from surfcut.dual import IntegerChain, walk_coeffs
from surfcut.embedding import EmbeddedGraph, bfs_tree
from surfcut.homology import LoopSystem, WeightFunction, _via_root


def theta_dart(system: LoopSystem, d: int) -> tuple[int, ...]:
    """How often dual dart d crosses each loop of the system."""
    return tuple(loop.dart_coeff(d) for loop in system.loops)


def companion_cycles(
    dual: EmbeddedGraph, w: WeightFunction, system: LoopSystem
) -> tuple[IntegerChain, ...]:
    """One dual cycle per leftover edge, crossing its own loop once and no other.

    The cycle closes the leftover edge by the path through the dual's root,
    vertex 0, in the dual BFS tree that avoids the primal tree's edges: the
    cotree of `system`.  The tree paths cross no loop, and a loop holds its
    own leftover edge and no other.
    """
    parent, _ = bfs_tree(dual, 0, skip=w.tree_edges)
    cotree = frozenset(parent[f] >> 1 for f in range(dual.n) if parent[f] != -1)
    assert cotree == system.cotree_edges
    cycles = []
    for e in system.leftover_edges:
        d = 2 * e
        walk = (d, *_via_root(parent, dual.tails, dual.heads[d], dual.tails[d]))
        cycles.append(IntegerChain(walk_coeffs(dual.m, walk)))
    return tuple(cycles)


def mirror_image(g: EmbeddedGraph) -> EmbeddedGraph:
    """The same graph with every rotation reversed (opposite orientation)."""
    inv = [0] * g.num_darts
    for d, e in enumerate(g.rotation):
        inv[e] = d
    return EmbeddedGraph(
        n=g.n, tails=g.tails, heads=g.heads, rotation=tuple(inv), allow_loops=g.allow_loops
    )


def _represents_class(seq: tuple[int, ...]) -> bool:
    """Whether seq is the smallest closed walk modulo rotation and reversal.

    seq[0] must be the smallest dart of seq and of its reverse, so the
    smallest member of the class is a rotation of one of them starting there.
    When seq holds d0 = seq[0] once and not d0 ^ 1, the only such rotation
    is seq itself, since the reverse holds d0 only where seq holds d0 ^ 1.
    """
    d0 = seq[0]
    if seq.count(d0) == 1 and d0 ^ 1 not in seq:
        return True
    rev = tuple(d ^ 1 for d in reversed(seq))
    return all(seq <= s[i:] + s[:i] for s in (seq, rev) for i, d in enumerate(s) if d == seq[0])


def enumerate_closed_walks(
    dual: EmbeddedGraph,
    w: WeightFunction,
    system: LoopSystem,
    max_len: int,
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """All closed walks of the dual up to max_len, one per symmetry class.

    Each class comes as (darts, k, v): its smallest walk, that walk's weight
    and its crossing vector.  Classes identify rotations of the same walk and
    the reverse walk (whose tags are negated).  The trivial empty walk comes
    first, and the rest are sorted by length, then darts.
    """
    if max_len > 8:
        raise ValueError("walk enumeration capped at length 8")
    classes: list[tuple[int, ...]] = []

    def go(start: int, current: int, seq: list[int], moves: list[tuple[int, ...]]):
        if current == start:
            walk = tuple(seq)
            if _represents_class(walk):
                classes.append(walk)
        if len(seq) == max_len:
            return
        for d in moves[current]:
            seq.append(d)
            go(start, dual.heads[d], seq, moves)
            seq.pop()

    # let d0 be the smallest dart of a class's walk and its reverse: the one
    # holding d0 has a rotation that starts at d0 and uses no dart below it,
    # so one search per d0 over darts >= d0 meets the smallest member of every
    # class exactly once.  d0 is even, since an odd dart d in one direction
    # puts d - 1 in the other, and the walks a search from an even d0 meets
    # have no dart below d0 in either direction
    for d0 in range(0, dual.num_darts if max_len > 0 else 0, 2):
        moves = [tuple(d for d in ds if d >= d0) for ds in dual.out_darts]
        go(dual.tails[d0], dual.heads[d0], [d0], moves)

    weights = [w.values.dart_coeff(d) for d in range(dual.num_darts)]
    thetas = [theta_dart(system, d) for d in range(dual.num_darts)]
    walks = [((), 0, (0,) * (2 * system.genus))]
    for seq in sorted(classes, key=lambda s: (len(s), s)):
        v = tuple(map(sum, zip(*(thetas[d] for d in seq))))
        walks.append((seq, sum(weights[d] for d in seq), v))
    return walks


def min_tag_table(walks: list[tuple]) -> dict[tuple[int, tuple[int, ...]], int]:
    """Shortest length per (k, v) tag over (darts, k, v) walks, counting each
    walk and its reverse."""
    table: dict[tuple[int, tuple[int, ...]], int] = {}
    for darts, k, v in walks:
        for key in ((k, v), (-k, tuple(-x for x in v))):
            if key not in table or len(darts) < table[key]:
                table[key] = len(darts)
    return table
