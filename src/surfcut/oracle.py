"""The brute-force cut reference the solver is tested against.

Subset enumeration scores every proper cut from the definition, building
each side from a smaller one plus its top vertex so that a cut size costs a
few popcounts; loops are never cut and are skipped.  A cut's value depends
only on its size and |S|, and at a fixed |S| it rises with the size, so the
best cut is found with one balance function call per side size, from each
size's fewest cut; only the best cut and a connected witness are kept.
The scan blows up exponentially and carries a hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from surfcut.balance import BalanceFunction
from surfcut.embedding import EmbeddedGraph
from surfcut.solver import CutResult, score_cut


@dataclass(frozen=True)
class OracleReport:
    """The best cut of a graph, and the best one whose two sides are connected."""

    best: CutResult
    minimal_witness: CutResult | None


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
    """Find the best of the 2^(n-1) - 1 cuts whose side S contains vertex 0.

    Sides are n-bit masks holding bit 0, visited in ascending order.  A side S
    with top vertex v follows its parent S - v, visited earlier: cut(S) =
    cut(S - v) + deg(v) - 2 e(v, S - v), with e read off v's
    neighbour-multiplicity masks by popcount.  Loop edges are skipped, since
    no side ever cuts one.  Each side's (|cut|, |S|) is packed into one int
    key, |cut| << shift | |S|, and taken from its parent's key.  The value
    |cut| / f(|S| / n) depends on the key alone and, at a fixed |S|, rises
    with |cut|, so only each size's fewest cut can be least: `best` costs one
    `f` call per size.  Only the sides tied at the minimum are built and
    sorted, by (|cut|, S), the `CutResult.sort_key` order; `best` is the first
    of them and `minimal_witness` the first whose S and complement are both
    connected, each scored by `score_cut`.
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
    # keys[i] belongs to the side 2i + 1: vertex v >= 1 is in it when bit
    # v - 1 of i is.  The sides with top vertex v are i = 2^(v-1) + p, whose
    # parents p come first; the last of them, the whole vertex set, is left out
    shift = n.bit_length()
    size_mask = (1 << shift) - 1
    total = 2 ** (n - 1) - 1
    keys = [deg[0] << shift | 1]
    for v in range(1, n):
        step = deg[v] << shift | 1
        parents = keys[: min(1 << (v - 1), total - len(keys))]
        for lay in layers[v]:
            # e(v, S - v) counts vertex 0 from bit 0 of lay, the rest from p
            step -= (lay & 1) << (shift + 1)
            rest = lay >> 1
            parents = [key - ((p & rest).bit_count() << (shift + 1)) for p, key in enumerate(parents)]
        keys += [key + step for key in parents]

    fewest: dict[int, int] = {}
    for key in sorted(set(keys)):
        fewest.setdefault(key & size_mask, key)
    scored = {
        key: Fraction(key >> shift) / f(Fraction(key & size_mask, n)) for key in fewest.values()
    }
    low = min(scored.values())
    tied_keys = {key for key, val in scored.items() if val == low}
    tied = sorted(
        (keys[i] >> shift, tuple(v for v in range(n) if (2 * i + 1) >> v & 1))
        for i in compress(range(total), map(tied_keys.__contains__, keys))
    )
    best = score_cut(g, tied[0][1], f)
    witness = None
    for _, S in tied:
        side = set(S)
        if _side_connected(g, side) and _side_connected(g, set(range(n)) - side):
            witness = score_cut(g, S, f)
            break
    return OracleReport(best=best, minimal_witness=witness)
