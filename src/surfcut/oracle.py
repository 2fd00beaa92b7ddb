"""Brute-force references the solver is tested against.

Subset enumeration scores every proper cut from the definition, building
each side from a smaller one plus its top vertex so that a cut size costs a
few popcounts; loops are never cut and are skipped.  A cut's value depends
only on its size and |S|, so the balance function is called once per such
pair.  Walk enumeration lists all short closed walks of a dual up to
rotation and reversal, giving an independent check of the tagged walk
table.  Both blow up exponentially and carry hard caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from surfcut.balance import BalanceFunction
from surfcut.cover import TaggedWalk
from surfcut.dual import IntegerChain
from surfcut.embedding import EmbeddedGraph
from surfcut.homology import LoopSystem, WeightFunction
from surfcut.solver import CutResult, score_cut


@dataclass(frozen=True)
class OracleReport:
    """Every cut of a graph, scored, with the best and a connected witness."""

    best: CutResult
    minimal_witness: CutResult | None
    all_values: dict[tuple[int, ...], Fraction]


def _side_connected(g: EmbeddedGraph, side: set[int]) -> bool:
    start = next(iter(side))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for d in g.out_darts[v]:
            u = g.heads[d]
            if u in side and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(side)


def brute_force_cut(g: EmbeddedGraph, f: BalanceFunction, cap: int = 16) -> OracleReport:
    """Score all 2^(n-1) - 1 cuts whose side S contains vertex 0.

    Sides are n-bit masks holding bit 0, visited in ascending order, which is
    also the insertion order of `all_values`.  A side S with top vertex v
    follows its parent S - v, visited earlier: cut(S) = cut(S - v) + deg(v)
    - 2 e(v, S - v), with e read off v's neighbour-multiplicity masks by
    popcount.  Loop edges are skipped, since no side ever cuts one.  The
    value |cut| / f(|S| / n) depends on (|cut|, |S|) alone, so `f` is called
    once per distinct pair and the sides sharing a pair share its value.
    Only the sides tied at the minimum are sorted, by (|cut|, S), the
    `CutResult.sort_key` order; `best` is the first of them and
    `minimal_witness` the first whose S and complement are both connected,
    each scored by `score_cut`.
    """
    n = g.n
    if n > cap:
        raise ValueError(f"brute force capped at {cap} vertices, graph has {n}")
    if n < 2:
        raise ValueError(f"brute force needs at least 2 vertices to cut, graph has {n}")
    count = [[0] * n for _ in range(n)]
    for d in range(0, g.num_darts, 2):
        u, v = g.tails[d], g.heads[d]
        if u != v:
            count[u][v] += 1
            count[v][u] += 1
    deg = [sum(row) for row in count]
    # layers[v][j] holds the neighbours joined to v by more than j edges
    layers = [
        [sum(1 << u for u in range(n) if row[u] > j) for j in range(max(row))] for row in count
    ]
    # sides[i] is the side 2i + 1: vertex v >= 1 is in it when bit v - 1 of i is
    sides: list[tuple[int, ...]] = [(0,)]
    cuts = [deg[0]]
    for i in range(1, 2 ** (n - 1) - 1):
        v = i.bit_length()
        p = i ^ (1 << (v - 1))
        c = cuts[p] + deg[v]
        for lay in layers[v]:
            c -= 2 * ((2 * p + 1) & lay).bit_count()
        cuts.append(c)
        sides.append(sides[p] + (v,))
    values: dict[tuple[int, int], Fraction] = {}
    all_values: dict[tuple[int, ...], Fraction] = {}
    for c, S in zip(cuts, sides):
        key = (c, len(S))
        if key not in values:
            values[key] = Fraction(c) / f(Fraction(len(S), n))
        all_values[S] = values[key]
    low = min(values.values())
    tied_keys = {key for key, value in values.items() if value == low}
    tied = sorted((c, S) for c, S in zip(cuts, sides) if (c, len(S)) in tied_keys)
    best = score_cut(g, tied[0][1], f)
    witness = None
    for _, S in tied:
        side = set(S)
        if _side_connected(g, side) and _side_connected(g, set(range(n)) - side):
            witness = score_cut(g, S, f)
            break
    return OracleReport(best=best, minimal_witness=witness, all_values=all_values)


def _canonical_class(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest representative of a closed walk modulo rotation and reversal."""
    rev = tuple(d ^ 1 for d in reversed(seq))
    lo = min(min(seq), min(rev))
    return min(s[i:] + s[:i] for s in (seq, rev) for i, d in enumerate(s) if d == lo)


def enumerate_closed_walks(
    dual: EmbeddedGraph,
    w: WeightFunction,
    system: LoopSystem,
    max_len: int,
) -> list[TaggedWalk]:
    """All closed walks of the dual up to max_len, one per symmetry class.

    Classes identify rotations of the same walk and the reverse walk (whose
    tags are negated).  The trivial empty walk is included once.
    """
    if max_len > 8:
        raise ValueError("walk enumeration capped at length 8")
    classes: set[tuple[int, ...]] = set()

    def go(start: int, current: int, seq: list[int], moves: list[tuple[int, ...]]):
        if current == start:
            classes.add(_canonical_class(tuple(seq)))
        if len(seq) == max_len:
            return
        for d in moves[current]:
            seq.append(d)
            go(start, dual.heads[d], seq, moves)
            seq.pop()

    # every class has a rotation that starts at its smallest dart d0 and so
    # never uses a dart below d0: one search per d0 over darts >= d0
    for d0 in range(dual.num_darts if max_len > 0 else 0):
        moves = [tuple(d for d in ds if d >= d0) for ds in dual.out_darts]
        go(dual.tails[d0], dual.heads[d0], [d0], moves)

    weights = [w.dart_value(d) for d in range(dual.num_darts)]
    thetas = [system.theta_dart(d) for d in range(dual.num_darts)]
    walks = [TaggedWalk(darts=(), k=0, v=(0,) * (2 * system.genus), chain=IntegerChain.zero(dual.m))]
    for seq in sorted(classes, key=lambda s: (len(s), s)):
        walks.append(
            TaggedWalk(
                darts=seq,
                k=sum(weights[d] for d in seq),
                v=tuple(map(sum, zip(*(thetas[d] for d in seq)))),
                chain=IntegerChain.of_walk(dual.m, seq),
            )
        )
    return walks


def min_tag_table(walks: list[TaggedWalk]) -> dict[tuple[int, tuple[int, ...]], int]:
    """Shortest length per (k, v) tag, counting each walk and its reverse."""
    table: dict[tuple[int, tuple[int, ...]], int] = {}
    for walk in walks:
        for key in ((walk.k, walk.v), (-walk.k, tuple(-x for x in walk.v))):
            if key not in table or walk.length < table[key]:
                table[key] = walk.length
    return table
