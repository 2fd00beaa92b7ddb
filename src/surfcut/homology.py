"""Balance weights and homology coordinates for chains.

Both structures hang off one primal BFS tree, which build_weight grows and
keeps in the WeightFunction.  The weight of a tree dart parent->child is the
size of the child's subtree, so that the weight of any cut chain with the
root inside equals the size of the far side.  build_loop_system reads the
tree from the weight, grows a spanning cotree in the dual, and takes the
loops through the 2g edges left over, so the genus is read off that split.
The theta map counts signed crossings of a chain with each loop.  Primal
and dual darts share ids, so both maps read a dual chain directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from surfcut.dual import IntegerChain
from surfcut.embedding import EmbeddedGraph, EmbeddingError


def _bfs_tree(g: EmbeddedGraph, root: int):
    """Deterministic BFS tree: FIFO queue, darts scanned in ascending id.

    Returns (parent_dart, order) where parent_dart[v] is the dart parent->v
    (-1 at the root) and order lists vertices by discovery.  Every
    EmbeddedGraph is connected, so order holds all of them.
    """
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range for {g.n} vertices")
    parent_dart = [-1] * g.n
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    for v in order:
        for d in g.out_darts[v]:
            u = g.heads[d]
            if not seen[u]:
                seen[u] = True
                parent_dart[u] = d
                order.append(u)
    return tuple(parent_dart), tuple(order)


@dataclass(frozen=True)
class WeightFunction:
    """Antisymmetric edge weights measuring cut balance, and their BFS tree.

    parent_dart[v] is the tree dart parent->v (-1 at the root, order[0]) and
    order lists the vertices in BFS order.  values[i] lives on dart 2i.
    Nonzero only on tree_edges, where the dart pointing away from the root
    carries the size of the subtree it enters.
    """

    values: tuple[int, ...]
    parent_dart: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def tree_edges(self) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.parent_dart if d != -1)

    def dart_value(self, d: int) -> int:
        v = self.values[d >> 1]
        return v if d % 2 == 0 else -v

    def evaluate(self, c: IntegerChain) -> int:
        return sum(a * b for a, b in zip(c.coeffs, self.values, strict=True))


def build_weight(g: EmbeddedGraph, root: int = 0) -> WeightFunction:
    parent_dart, order = _bfs_tree(g, root)
    subtree = [1] * g.n
    values = [0] * g.m
    for v in reversed(order[1:]):
        d = parent_dart[v]
        subtree[g.tails[d]] += subtree[v]
        values[d >> 1] = subtree[v] if d % 2 == 0 else -subtree[v]
    return WeightFunction(values=tuple(values), parent_dart=parent_dart, order=order)


@dataclass(frozen=True)
class LoopSystem:
    """A homology basis of 2g loops through the root, with crossing data.

    loops[j] is a closed dart walk in the primal: tree path out, one leftover
    edge, tree path back.  theta_rows[i] holds the crossing counts of edge
    i's even dual dart with each loop, so theta of a dual chain is a plain
    dot product per loop.  companions[j] is a dual cycle crossing loop j
    exactly once and the other loops not at all.  The edges split into the
    tree edges (WeightFunction.tree_edges), cotree_edges, the spanning tree
    of the dual that avoids them, and the 2g leftover_edges, one per loop.
    """

    genus: int
    loops: tuple[tuple[int, ...], ...]
    theta_rows: tuple[tuple[int, ...], ...]
    companions: tuple[IntegerChain, ...]
    cotree_edges: frozenset[int]
    leftover_edges: tuple[int, ...]

    def theta_dart(self, d: int) -> tuple[int, ...]:
        row = self.theta_rows[d >> 1]
        return row if d % 2 == 0 else tuple(-x for x in row)

    def theta(self, c: IntegerChain) -> tuple[int, ...]:
        """Crossing vector of a chain with each loop of the system."""
        out = [0] * (2 * self.genus)
        for i, a in enumerate(c.coeffs):
            if a:
                row = self.theta_rows[i]
                for j in range(len(out)):
                    out[j] += a * row[j]
        return tuple(out)


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
    count.  Their fundamental cycles in the primal tree, closed at the root
    w.order[0], are the loops.  A companion runs through the root of the
    dual tree; the stretch it shares with the tree path cancels in its chain.
    """
    parent_dart, root, tree_edges = w.parent_dart, w.order[0], w.tree_edges

    dual_parent = [-1] * dual.n
    seen = [False] * dual.n
    seen[0] = True
    queue = [0]
    for f in queue:
        for d in dual.out_darts[f]:
            if (d >> 1) in tree_edges:
                continue
            u = dual.heads[d]
            if not seen[u]:
                seen[u] = True
                dual_parent[u] = d
                queue.append(u)
    if not all(seen):
        raise EmbeddingError("dual cotree failed to span; embedding data is inconsistent")
    cotree_edges = frozenset(dual_parent[f] >> 1 for f in range(dual.n) if dual_parent[f] != -1)

    leftover = tuple(sorted(set(range(g.m)) - tree_edges - cotree_edges))

    loops = []
    loop_chains = []
    companions = []
    for e in leftover:
        d = 2 * e
        walk = tuple(
            _via_root(parent_dart, g.tails, root, g.tails[d])
            + [d]
            + _via_root(parent_dart, g.tails, g.heads[d], root)
        )
        loops.append(walk)
        loop_chains.append(IntegerChain.of_walk(g.m, walk))
        cwalk = [d] + _via_root(dual_parent, dual.tails, dual.heads[d], dual.tails[d])
        companions.append(IntegerChain.of_walk(g.m, tuple(cwalk)))

    theta_rows = tuple(
        tuple(lc.coeffs[i] for lc in loop_chains) for i in range(g.m)
    )

    return LoopSystem(
        genus=len(leftover) // 2,
        loops=tuple(loops),
        theta_rows=theta_rows,
        companions=tuple(companions),
        cotree_edges=cotree_edges,
        leftover_edges=leftover,
    )
