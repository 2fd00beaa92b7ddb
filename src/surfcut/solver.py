"""Minimum f-quotient cuts via null-homologous dual chains.

The minimizer scores dual chains by |chain| / f(|weight|/n), exactly the cut
quotient when the chain is a cut.  Let F be the peak of f over k/n,
k = 1 .. n-1.  An optimal cut has at most OPT * F edges, and its circuits
can be swapped for the stored shortest walks with the same tags, which are
no longer.  So a solve first takes the value U of the best known cut: the
BFS balls grown from every vertex (the first k vertices of a BFS, which
include the single vertices) and the subtree sides of the weight tree.
Their fewest cut edges per side size depend only on the graph and are found
once per context, so U costs one f call per side size up to n/2.  The solve
reads the walk table only to depth D = min(m, floor(U * F)), and scans sums
of at most genus+1 tagged walks whose crossing vectors cancel: one pass over
the walks sorted by chain mass, cut off where the mass passes floor(best * F)
for the best value found so far, with the last walk of each sum looked up by
the crossing vector that cancels the rest.  The best chain becomes a vertex
cut by thresholding a potential function, which can only improve the score.
The two values must agree at the optimum, and the solver checks that.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor
from operator import add

from surfcut.balance import BalanceFunction
from surfcut.cover import CoverResult, restrict, shortest_tagged_walks
from surfcut.dual import IntegerChain, build_dual, cut_chain
from surfcut.embedding import EmbeddedGraph, FaceStructure, trace_faces
from surfcut.homology import LoopSystem, WeightFunction, build_loop_system, build_weight


class SolverError(RuntimeError):
    """An internal consistency check failed during solving."""


@dataclass(frozen=True)
class CutResult:
    """A vertex cut with its exact scores.

    S is the side containing vertex 0, sorted, and cut_size the number of
    edges between S and the rest.  balance is min(|S|, n-|S|)/n and
    expansion is |cut| / min(|S|, n-|S|).  value is |cut| / f(balance) for
    whatever balance function produced the result.
    """

    S: tuple[int, ...]
    cut_size: int
    balance: Fraction
    value: Fraction
    expansion: Fraction

    @property
    def sort_key(self):
        return (self.value, self.cut_size, self.S)


def score_cut(g: EmbeddedGraph, S, f: BalanceFunction) -> CutResult:
    """Score a nonempty proper subset of the vertices as a cut, else ValueError."""
    side = set(S)
    size = cut_chain(g, side).size
    if 0 not in side:
        side = set(range(g.n)) - side
    k = len(side)
    small = min(k, g.n - k)
    return CutResult(
        S=tuple(sorted(side)),
        cut_size=size,
        balance=Fraction(small, g.n),
        value=Fraction(size) / f(Fraction(k, g.n)),
        expansion=Fraction(size, small),
    )


def balance_peak(f: BalanceFunction, n: int) -> Fraction:
    """F = max f(k/n) over k = 1 .. n-1: a cut of value v has at most v * F edges.

    f is symmetric and nondecreasing on [0, 1/2], so the peak is at k = n // 2.
    """
    return f(Fraction(n // 2, n))


def fewest_cut_edges(g: EmbeddedGraph, w: WeightFunction) -> dict[int, int]:
    """min(|S|, n-|S|) -> the fewest cut edges among the known sides S.

    The known sides are the n - 1 subtree sides of the tree of the weight w
    and the BFS balls: from every vertex r, the first k vertices of the BFS
    from r, k = 1 .. n-1 (k = 1 gives the single-vertex sides).  A ball
    grows one vertex v at a time and its cut changes by deg(v) - 2 e(v, S).
    None of this depends on f, and f is symmetric, so a side and its
    complement share one entry.
    """
    n = g.n
    fewest: dict[int, int] = {}

    def keep(k: int, cut: int):
        k = min(k, n - k)
        if cut < fewest.get(k, cut + 1):
            fewest[k] = cut

    # sides as bit masks; below[v] grows into the subtree of v
    ends = list(zip(g.tails[::2], g.heads[::2]))
    below = [1 << v for v in range(n)]
    for v in reversed(w.order[1:]):
        S = below[v]
        keep(S.bit_count(), sum((S >> a ^ S >> b) & 1 for a, b in ends))
        below[g.tails[w.parent_dart[v]]] |= S

    # the BFS of build_weight (FIFO, darts ascending); when v is scanned, the
    # ball is the vertices ranked before it, so e(v, S) counts the
    # neighbours of lower rank
    nbrs = [[g.heads[d] for d in ds] for ds in g.out_darts]
    for r in range(n):
        rank = [n] * n
        rank[r] = 0
        order = [r]
        cut = 0
        for k, v in enumerate(order):
            inner = 0
            for u in nbrs[v]:
                if rank[u] == n:
                    rank[u] = len(order)
                    order.append(u)
                elif rank[u] < k:
                    inner += 1
            cut += len(nbrs[v]) - 2 * inner
            if k + 1 < n:
                keep(k + 1, cut)
    return fewest


@dataclass(frozen=True)
class CombineResult:
    """Best null-homologous combination found in the walk table."""

    sigma: IntegerChain
    k: int
    value: Fraction
    walks_used: tuple[tuple[int, tuple[int, ...]], ...]
    candidates: int


def combine_and_minimize(
    cover: CoverResult, system: LoopSystem, f: BalanceFunction, n: int, m: int
) -> CombineResult:
    """Scan sums of at most genus+1 tagged walks with cancelling crossings.

    With F = balance_peak(f, n), an optimal cut chain splits into circuits
    of total size at most OPT * F <= best * F for the best value found so
    far, and at most m.  So only multisets of walks whose chain sizes (their
    mass) sum to at most limit = min(m, floor(best * F)) are scanned, and
    the limit tightens as best improves.  The walks are sorted by mass and
    each multiset is taken once, as a nondecreasing index sequence.  A slot
    that has `left` slots still to fill stops at the first walk with
    mass + its mass * left > limit: every later walk weighs at least as
    much, so this prune is exact.  It is strict, so chains tied at the best
    value are still scanned.  The last slot must cancel the crossings so
    far, so it reads only the walks with that crossing vector.  Ties break
    on value, then chain size, then chain coefficients.
    """
    entries = sorted(
        (walk.chain.size, (walk.k, walk.v), walk.chain)
        for walk in cover.walks.values()
        if not walk.chain.is_zero
    )
    by_v: dict[tuple[int, ...], list[int]] = {}
    for i, (_, (_, v), _) in enumerate(entries):
        by_v.setdefault(v, []).append(i)

    fcache: dict[int, Fraction] = {}

    def fval(k: int) -> Fraction:
        if k not in fcache:
            fcache[k] = f(Fraction(k, n))
        return fcache[k]

    peak = balance_peak(f, n)
    best: tuple | None = None
    limit = m
    candidates = 0

    def consider(picked: tuple[int, ...], k: int):
        nonlocal best, candidates, limit
        candidates += 1
        chain = entries[picked[0]][2]
        for i in picked[1:]:
            chain = chain + entries[i][2]
        value = Fraction(chain.size) / fval(abs(k))
        key = (value, chain.size, chain.coeffs)
        if best is None or key < best[0]:
            best = (key, chain, k, picked)
            limit = min(m, floor(value * peak))

    def extend(picked: tuple[int, ...], left: int, k: int, v: tuple[int, ...], mass: int):
        """Fill `left` more slots with entries at indices >= the last one picked."""
        start = picked[-1] if picked else 0
        if left == 1:
            same = by_v.get(tuple(-x for x in v), ())
            for i in same[bisect_left(same, start):]:
                emass, (ek, _), _ = entries[i]
                if mass + emass > limit:
                    break
                if 1 <= abs(k + ek) <= n - 1:
                    consider(picked + (i,), k + ek)
            return
        for i in range(start, len(entries)):
            emass, (ek, ev), _ = entries[i]
            if mass + emass * left > limit:
                break
            extend(picked + (i,), left - 1, k + ek, tuple(map(add, v, ev)), mass + emass)

    for r in range(1, system.genus + 2):
        extend((), r, 0, (0,) * (2 * system.genus), 0)

    if best is None:
        raise SolverError("no null-homologous combination found; walk table is incomplete")
    (value, _, _), sigma, k, picked = best
    return CombineResult(
        sigma=sigma,
        k=k,
        value=value,
        walks_used=tuple(entries[i][1] for i in picked),
        candidates=candidates,
    )


def recover_cut(g: EmbeddedGraph, sigma: IntegerChain, f: BalanceFunction) -> CutResult:
    """Turn a primal chain that is a sum of cuts into its best threshold cut.

    The chain must satisfy coeff(a -> b) = lam(a) - lam(b) for a potential
    lam, which is checked.  Level sets {lam >= i} then decompose the chain,
    and the cheapest level is at most as expensive as the chain itself.
    """
    if sigma.is_zero:
        raise ValueError("cannot recover a cut from the zero chain")
    lam = [None] * g.n
    lam[0] = 0
    stack = [0]
    while stack:
        a = stack.pop()
        for d in g.out_darts[a]:
            b = g.heads[d]
            want = lam[a] - sigma.dart_coeff(d)
            if lam[b] is None:
                lam[b] = want
                stack.append(b)
            elif lam[b] != want:
                raise SolverError("chain is not a potential difference, cannot recover a cut")
    low = min(lam)
    lam = [x - low + 1 for x in lam]
    top = max(lam)
    if top == 1:
        raise SolverError("potential is constant for a nonzero chain")
    best = None
    for level in range(2, top + 1):
        S = [v for v in range(g.n) if lam[v] >= level]
        cand = score_cut(g, S, f)
        if best is None or cand.sort_key < best.sort_key:
            best = cand
    return best


@dataclass
class SolveDetails:
    """Everything the pipeline produced on the way to a cut.

    result is the recovered cut and combine the minimizer's best chain,
    with its value, walks and candidate count.  cover is the walk table the
    solve read, restricted to its depth D (cover.depth_cap).
    """

    result: CutResult
    combine: CombineResult
    cover: CoverResult


class SolveContext:
    """Caches the f-independent pipeline stages for one embedded graph.

    Faces, dual, weights, loops, the fewest cut edges behind U and the walk
    table depend only on the graph and the root, so solving for several
    balance functions reuses them.  The weight holds the one BFS tree that
    the loops and the subtree cuts behind U read.
    The context keeps the deepest walk table it has built and answers any
    depth up to it by restricting that table.
    """

    def __init__(self, g: EmbeddedGraph, root: int = 0):
        self.g = g
        self.root = root
        self._table: CoverResult | None = None

    @cached_property
    def faces(self) -> FaceStructure:
        return trace_faces(self.g)

    @property
    def genus(self) -> int:
        return self.loops.genus

    @cached_property
    def dual(self) -> EmbeddedGraph:
        return build_dual(self.g, self.faces)

    @cached_property
    def weight(self) -> WeightFunction:
        return build_weight(self.g, self.root)

    @cached_property
    def loops(self) -> LoopSystem:
        return build_loop_system(self.g, self.dual, self.weight)

    @cached_property
    def fewest_cut_edges(self) -> dict[int, int]:
        return fewest_cut_edges(self.g, self.weight)

    def upper_bound(self, f: BalanceFunction) -> Fraction:
        """U for f, from the cached fewest cut edges: one f call per side size."""
        n = self.g.n
        return min(Fraction(cut) / f(Fraction(k, n)) for k, cut in self.fewest_cut_edges.items())

    def walk_table(self, depth: int) -> CoverResult:
        """The walk table of walks with at most `depth` darts."""
        if self._table is None or self._table.depth_cap < depth:
            self._table = shortest_tagged_walks(self.dual, self.weight, self.loops, depth)
        return restrict(self._table, depth)

    @property
    def cover(self) -> CoverResult:
        """The full walk table, capped at the edge count m."""
        return self.walk_table(self.g.m)

    def solve_detailed(self, f: BalanceFunction) -> SolveDetails:
        n, m = self.g.n, self.g.m
        try:
            depth = min(m, floor(self.upper_bound(f) * balance_peak(f, n)))
            cover = self.walk_table(depth)
            comb = combine_and_minimize(cover, self.loops, f, n, m)
            if self.loops.theta(comb.sigma) != (0,) * (2 * self.genus):
                raise SolverError("minimizer returned a chain with nonzero crossings")
            cut = recover_cut(self.g, comb.sigma, f)
            if cut.value > comb.value:
                raise SolverError("recovered cut scores worse than its chain")
            if cut.value < comb.value:
                raise SolverError("chain minimum missed a cheaper cut; walk table is incomplete")
        except SolverError as e:
            raise SolverError(f"{e} (n={n}, m={m}, genus {self.genus})") from None
        return SolveDetails(result=cut, combine=comb, cover=cover)

    def solve(self, f: BalanceFunction) -> CutResult:
        return self.solve_detailed(f).result


def solve(g: EmbeddedGraph, f: BalanceFunction, root: int = 0) -> CutResult:
    """Minimum f-quotient cut of a connected embedded multigraph."""
    return SolveContext(g, root).solve(f)
