"""Balance weights and homology coordinates for chains.

Both structures hang off one primal BFS tree, which build_weight grows and
keeps in the WeightFunction.  The weight of a tree dart parent->child is the
size of the child's subtree, so that the weight of any cut chain with the
root inside equals the size of the far side.  build_loop_system reads the
tree from the weight, grows a spanning cotree in the dual, and takes the
loops through the 2g edges left over, so the genus is read off that split.
The weight and each loop are IntegerChains.  The weight of a chain is its
dot product with the weight chain, and theta, the signed crossings of a
chain with each loop, is one dot product per loop chain.  Primal and dual
darts share ids, so both maps read a dual chain directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from surfcut.dual import IntegerChain, walk_coeffs
from surfcut.embedding import EmbeddedGraph, EmbeddingError, bfs_tree


@dataclass(frozen=True)
class WeightFunction:
    """Antisymmetric edge weights measuring cut balance, and their BFS tree.

    parent_dart[v] is the tree dart parent->v (-1 at the root, order[0]) and
    order lists the vertices in BFS order.  values is a chain, nonzero only
    on tree_edges, where the dart pointing away from the root carries the
    size of the subtree it enters; values.dot(c) is the weight of a chain c.
    """

    values: IntegerChain
    parent_dart: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def tree_edges(self) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.parent_dart if d != -1)


def build_weight(g: EmbeddedGraph, root: int = 0) -> WeightFunction:
    parent_dart, order = bfs_tree(g, root)
    subtree = [1] * g.n
    values = [0] * g.m
    for v in reversed(order[1:]):
        d = parent_dart[v]
        subtree[g.tails[d]] += subtree[v]
        values[d >> 1] = subtree[v] if d % 2 == 0 else -subtree[v]
    return WeightFunction(values=IntegerChain(tuple(values)), parent_dart=parent_dart, order=order)


@dataclass(frozen=True)
class LoopSystem:
    """A homology basis of 2g loops through the root, with crossing data.

    loops[j] is the chain of a closed primal walk: tree path out from the
    root, one leftover edge, tree path back.  A dual dart d crosses loop j
    loops[j].dart_coeff(d) times, so theta of a dual chain is its dot
    product with each loop.  The edges split into the tree edges
    (WeightFunction.tree_edges), cotree_edges, the spanning tree of the dual
    that avoids them, and the 2g leftover_edges, one per loop.
    """

    loops: tuple[IntegerChain, ...]
    cotree_edges: frozenset[int]
    leftover_edges: tuple[int, ...]

    @property
    def genus(self) -> int:
        return len(self.loops) // 2

    def theta(self, c: IntegerChain) -> tuple[int, ...]:
        """Crossing vector of a chain with each loop of the system."""
        return tuple(c.dot(loop) for loop in self.loops)


def _via_root(parent_dart, tails, a: int, b: int) -> list[int]:
    """Darts of the tree walk a -> root -> b (a tree path when a or b is the root)."""

    def up(v: int):
        while parent_dart[v] != -1:
            yield parent_dart[v] ^ 1
            v = tails[parent_dart[v]]

    return [*up(a), *(d ^ 1 for d in reversed([*up(b)]))]


def build_loop_system(g: EmbeddedGraph, dual: EmbeddedGraph, w: WeightFunction) -> LoopSystem:
    """Split the edges into tree, cotree and 2g leftover edges, and build loops.

    Reads the primal BFS tree from the weight w, then grows a spanning tree
    of the dual avoiding its edges.  The tree has n - 1 edges and the cotree
    F - 1, so m - n - F + 2 = 2g edges remain, and the genus is half their
    count.  Each leftover edge, closed by the primal tree path from its head
    through the root (w.order[0]) back to its tail, gives its loop.  Where
    that path runs to the root and back along the same edges, they cancel
    in the chain.
    """
    parent_dart, tree_edges = w.parent_dart, w.tree_edges

    dual_parent, order = bfs_tree(dual, 0, skip=tree_edges)
    if len(order) != dual.n:
        raise EmbeddingError("dual cotree failed to span; embedding data is inconsistent")
    cotree_edges = frozenset(dual_parent[f] >> 1 for f in range(dual.n) if dual_parent[f] != -1)

    leftover = tuple(sorted(set(range(g.m)) - tree_edges - cotree_edges))

    loops = tuple(
        IntegerChain(walk_coeffs(g.m, (2 * e, *_via_root(parent_dart, g.tails, g.heads[2 * e], g.tails[2 * e]))))
        for e in leftover
    )
    return LoopSystem(loops=loops, cotree_edges=cotree_edges, leftover_edges=leftover)
