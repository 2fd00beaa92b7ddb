"""The brute-force cut reference the solver is tested against.

Subset enumeration scores every proper cut from the definition, building
each side from a smaller one plus its top vertex, whose increments to all
its smaller sides are one list built by doubling; loops are never cut and
are skipped.  A cut's value depends only on its size and |S|, and at a
fixed |S| it rises with the size, so the best cut is found with one balance
function call per side size, from each size's fewest cut; only the best cut
is kept.  The scan blows up exponentially and carries a hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, sub

from surfcut.balance import BalanceFunction
from surfcut.embedding import EmbeddedGraph
from surfcut.solver import CutResult, score_cut


@dataclass(frozen=True)
class OracleReport:
    """The best cut of a graph."""

    best: CutResult


def brute_force_cut(g: EmbeddedGraph, f: BalanceFunction, cap: int = 16) -> OracleReport:
    """Find the best of the 2^(n-1) - 1 cuts whose side S contains vertex 0.

    Sides are n-bit masks holding bit 0, visited in ascending order.  A side S
    with top vertex v follows its parent S - v, visited earlier: cut(S) =
    cut(S - v) + deg(v) - 2 e(v, S - v).  Loop edges are skipped, since no
    side ever cuts one.  Each side's (|cut|, |S|) is packed into one int
    key, |cut| << shift | |S|, its parent's key plus v's increment.  The
    increments for all parents are one list doubled over 0 < u < v: those
    for the parents with u are those without it, less 2 mult(v, u) cut
    edges; vertex 0, in every parent, takes its 2 mult(v, 0) off the start.
    The value |cut| / f(|S| / n) depends on the key alone and, at a fixed
    |S|, rises with |cut|, so only each size's fewest cut can be least:
    `best` costs one `f` call per size.  Only the sides tied at the minimum
    are built, found by `list.index` scans for each tied key, and `best` is
    the least of them by (|cut|, S), the `CutResult.sort_key` order, scored
    by `score_cut`.
    """
    n = g.n
    if n > cap:
        raise ValueError(f"brute force capped at {cap} vertices, graph has {n}")
    if n < 2:
        raise ValueError(f"brute force needs at least 2 vertices to cut, graph has {n}")
    # layers[v][j] holds the neighbours joined to v by more than j edges
    layers, deg = g.neighbour_masks
    # keys[i] belongs to the side 2i + 1: vertex v >= 1 is in it when bit
    # v - 1 of i is.  The sides with top vertex v are i = 2^(v-1) + p, whose
    # parents p come first; the last of them, the whole vertex set, is left out
    shift = n.bit_length()
    size_mask = (1 << shift) - 1
    total = 2 ** (n - 1) - 1
    keys = [deg[0] << shift | 1]
    for v in range(1, n):
        # cuts[u] = 2 mult(v, u) in the key's cut field, from v's layers
        cuts = [sum(lay >> u & 1 for lay in layers[v]) << (shift + 1) for u in range(v)]
        moves = [(deg[v] << shift | 1) - cuts[0]]
        for c in cuts[1:]:
            # repeat stops the map at the old length of the list it extends
            moves += map(sub, moves, repeat(c, len(moves))) if c else moves
        keys += map(add, keys[: min(1 << (v - 1), total - len(keys))], moves)

    fewest: dict[int, int] = {}
    for key in sorted(set(keys)):
        fewest.setdefault(key & size_mask, key)
    scored = {
        key: Fraction(key >> shift) / f(Fraction(key & size_mask, n)) for key in fewest.values()
    }
    low = min(scored.values())
    tied = []
    for key, val in scored.items():
        if val == low:
            i = keys.index(key)
            while True:
                tied.append(i)
                try:
                    i = keys.index(key, i + 1)
                except ValueError:
                    break
    _, S = min(
        (keys[i] >> shift, tuple(v for v in range(n) if (2 * i + 1) >> v & 1)) for i in tied
    )
    return OracleReport(best=score_cut(g, S, f))
