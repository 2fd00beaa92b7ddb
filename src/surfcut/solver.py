"""Minimum f-quotient cuts via null-homologous dual chains.

The minimizer scores dual chains by |chain| / f(|weight|/n), exactly the cut
quotient when the chain is a cut.  Let F be the peak of f over k/n,
k = 1 .. n-1.  An optimal cut has at most OPT * F edges, and its circuits
can be swapped for the stored shortest walks with the same tags, which are
no longer.  So a solve first takes the value U of the best known cut.  The
BFS balls grown from every vertex (the first k vertices of a BFS, which
include the single vertices) and the subtree sides of the weight tree seed
the best known side of each size, and single-vertex moves improve those
sides until no size's cut falls.  These fewest cut edges per side size
depend only on the graph and are found once per context, and U >= OPT, as
U is a real cut's value.  U, F and combine read one table of f per solve,
f(a/n) as an integer pair for each side size a.  The solve reads the walk
table only to depth D = min(m, floor(U * F)), and scans sums of at most
genus+1 tagged walks whose crossing vectors cancel: one pass over the walks
sorted by length, cut off where the length passes floor(best * F) for the
best value found so far, with the last walk of each sum looked up by the
crossing vector that cancels the rest and skipped when the sum's length
passes best * f(|k|/n) at the sum's own weight k.  The table keys each walk
by its tag packed into one int, and the crossing-vector part of that int
sums over g + 1 walks without carries, so summing crossing vectors is
adding ints; sums are coefficient tuples scored in integers, and only the
winner becomes a Fraction and an IntegerChain.  The sorted list, its lookup
and the walk coefficients do not depend on f, so each walk table holds
them once, and the solves that read one table share them.
The best chain becomes a vertex cut by thresholding its potential, read
down the weight tree, which can only improve the score.  The solver checks
that both values agree at the optimum and that the cut scores at most U.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from surfcut.balance import BalanceFunction
from surfcut.cover import CoverResult, shortest_tagged_walks
from surfcut.dual import IntegerChain, build_dual, cut_chain, walk_coeffs
from surfcut.embedding import EmbeddedGraph, trace_faces
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


def balance_table(f: BalanceFunction, n: int) -> list[tuple[int, int] | None]:
    """f(a/n) = f(1 - a/n) as (numerator, denominator) at index a = 1 .. n-1.

    f is symmetric and nondecreasing on [0, 1/2], so the entry at n // 2 is
    the peak F = max f(k/n) over k = 1 .. n-1: a cut of value v has at most
    v * F edges."""
    half = [f.ratio(a, n) for a in range(1, n // 2 + 1)]
    return [None, *half, *reversed(half[: (n - 1) // 2])]


def fewest_cut_edges(g: EmbeddedGraph, w: WeightFunction) -> dict[int, tuple[int, int]]:
    """min(|S|, n-|S|) -> (the fewest cut edges found, a side of that size with them).

    A side is a bit mask of its vertices.  The seeds are the n - 1 subtree
    sides of the tree of the weight w and the BFS balls: from every vertex
    r, the first k vertices of the BFS from r, k = 1 .. n-1 (k = 1 gives
    the single-vertex sides).  Each BFS grows on bit masks: a vertex it
    scans adds its unseen neighbours, read off the first layer of
    `neighbour_masks`, in the order of its darts, and a vertex whose
    neighbours are all seen costs no dart scan.  Then single-vertex moves
    improve each size's side, as in Fiduccia and Mattheyses (1982): adding
    v to S changes its cut by deg(v) - 2 e(v, S), where e(v, S) counts the
    edges between v and S, parallel ones included, and removing v changes
    it by the negative of that.  Every move of a size's side is tried on
    the entry of the size it reaches (sizes stay within 1 .. n-1), and a
    side is moved again whenever its entry improves, until none does.  Each
    improvement lowers a non-negative integer, so this stops.  Every entry
    is the cut of its side, so U, the best value among them, is at least
    OPT.  None of this depends on f, and f is symmetric, so a side and its
    complement share one entry.
    """
    n, half = g.n, g.n // 2
    full = (1 << n) - 1
    # cuts[k], sides[k]: the fewest cut edges found for size k and a side with
    # them.  The empty and the full side cut nothing, so cuts[0] = 0 and no
    # move reaches them.
    cuts = [0] + [g.m + 1] * half
    sides = [0] * (half + 1)

    def keep(k: int, cut: int, S: int) -> int:
        """Record side S, of k vertices, with `cut` edges; its entry's size."""
        if 2 * k > n:
            k, S = n - k, full ^ S
        if cut < cuts[k]:
            cuts[k], sides[k] = cut, S
        return k

    # nbr[v][j]: the vertices joined to v by more than j edges, so e(v, S)
    # sums the popcounts of S & nbr[v][j]
    nbr, deg = g.neighbour_masks

    # below[v], with its vertices members[v] and its cut edges below_cut[v],
    # grows into the subtree of v; merging a child's subtree C into its
    # parent's P gives cut(P + C) = cut(P) + cut(C) - 2 e(P, C)
    below = [1 << v for v in range(n)]
    members = [[v] for v in range(n)]
    below_cut = list(deg)
    for v in reversed(w.order[1:]):
        S = below[v]
        keep(len(members[v]), below_cut[v], S)
        p = g.tails[w.parent_dart[v]]
        P = below[p]
        e = sum((P & mask).bit_count() for u in members[v] for mask in nbr[u])
        below_cut[p] += below_cut[v] - 2 * e
        below[p] = P | S
        members[p] += members[v]

    # the BFS of build_weight (FIFO, darts ascending); S is the ball of the
    # vertices scanned before v.  ball[k]: the fewest cut edges of a k-ball,
    # folded into the entries after the last root.
    heads = [[g.heads[d] for d in ds] for ds in g.out_darts]
    first = [masks[0] for masks in nbr]
    rest = [masks[1:] for masks in nbr]
    ball = [g.m + 1] * n
    ball_side = [0] * n
    for r in range(n):
        seen, order = 1 << r, [r]
        S = cut = 0
        for k in range(1, n):
            v = order[k - 1]
            adj = first[v]
            new = adj & ~seen
            if new:
                seen |= new
                for u in heads[v]:
                    if new >> u & 1:
                        order.append(u)
                        new ^= 1 << u
            cut += deg[v] - 2 * (S & adj).bit_count()
            for mask in rest[v]:
                cut -= 2 * (S & mask).bit_count()
            S |= 1 << v
            if cut < ball[k]:
                ball[k], ball_side[k] = cut, S
    for k in range(1, n):
        keep(k, ball[k], ball_side[k])

    todo = set(range(1, half + 1))
    while todo:
        k = min(todo)
        todo.remove(k)
        cut, S = cuts[k], sides[k]
        for v in range(n):
            e = 0
            for mask in nbr[v]:
                e += (S & mask).bit_count()
            if S >> v & 1:
                size, after = k - 1, cut - deg[v] + 2 * e
            else:
                size, after = k + 1, cut + deg[v] - 2 * e
            if after < cuts[min(size, n - size)]:
                todo.add(keep(size, after, S ^ 1 << v))
    return {k: (cuts[k], sides[k]) for k in range(1, half + 1)}


@dataclass(frozen=True)
class CombineResult:
    """Best null-homologous combination found in the walk table."""

    sigma: IntegerChain
    value: Fraction
    walks_used: tuple[tuple[int, tuple[int, ...]], ...]
    candidates: int


def combine_and_minimize(
    cover: CoverResult, system: LoopSystem, f: list[tuple[int, int] | None], n: int, m: int, depth: int
) -> CombineResult | None:
    """Scan sums of at most genus+1 tagged walks with cancelling crossings.

    With F = f[n // 2], the peak, an optimal cut chain splits into circuits
    of total size at most OPT * F <= best * F for the best value found so
    far.  Their stored replacements R, the walks with the same tags, are no
    longer, so each has at most `depth` darts, together at most limit =
    min(m, floor(best * F)).  So only multisets of walks of at most `depth`
    darts whose lengths sum to at most the limit are scanned, each once, as
    a nondecreasing index sequence into the table's `by_length` index, and
    the limit tightens as best improves.  A slot with `left` slots still to
    fill stops at the first walk longer than `depth` or with length + its
    length * left > limit: every later walk is at least as long, so this
    prune is exact and strict: ties at the best value are scanned.  A sum
    whose chain is smaller than its length, one whose walks cancel, may not
    win.  R's sum may: its chain has value at least OPT and size at most its
    length, at most OPT * f(|k|/n), so size = length and its value is OPT.
    The last slot knows the sum's weight k, and it skips, before counting it
    a candidate, a walk that takes the sum's length past best * f(|k|/n):
    that sum's size is at most its length, and equal to it if it may win,
    so its value is above best.  R's sum and every sum eligible at OPT have
    length at most OPT * f(|k|/n), so the skip is exact and strict too, and
    a deeper full table gives the result of the depth-`depth` one,
    candidate count included.  Every sum eligible at OPT has size = length
    <= floor(OPT * F), and each of its walks, cancelled by the others, has
    length + max_j |v_j| at most that: a usable table as deep as the solve
    scans it too, in the same order, and gives the same winner.
    Each entry carries its weight k and its crossing vector packed into an
    int, read off the table's packed tag, and the last slot reads only the
    walks whose int cancels the sum so far.  A sum is a tuple of chain
    coefficients, a walk's built when a sum first uses it and kept in the
    index's slot, and its size is the sum of their absolute values.  Values
    and lengths compare in integers: f(|k|/n) as a numerator and a
    denominator, read off the table f = balance_table(f, n), against the
    best value top / bottom, first 1 / 0.  Ties break on value, then chain
    size, then chain coefficients.  Only the winner becomes a Fraction and
    an IntegerChain, and walks_used decodes the tags of its walks.  None
    when no sum of walks within `depth` has cancelling crossings and a
    proper balance.
    """
    entries, by_v, slots = cover.by_length

    def coeffs_at(i: int) -> tuple[int, ...]:
        if slots[i] is None:
            slots[i] = walk_coeffs(m, entries[i][4])
        return slots[i]

    peak_num, peak_den = f[n // 2]
    top, bottom, best = 1, 0, (0, (), ())
    limit = m
    candidates = 0

    def extend(picked: tuple[int, ...], left: int, k: int, v: int, length: int):
        """Fill `left` more slots with entries at indices >= the last one picked."""
        nonlocal top, bottom, best, limit, candidates
        start = picked[-1] if picked else 0
        if left > 1:
            for i in range(start, len(entries)):
                elength, _, ek, ev, _ = entries[i]
                if elength > depth or length + elength * left > limit:
                    break
                extend(picked + (i,), left - 1, k + ek, v + ev, length + elength)
            return
        same = by_v.get(-v, ())
        partial = None
        for i in same[bisect_left(same, start):]:
            elength, _, ek, _, _ = entries[i]
            if elength > depth or length + elength > limit:
                break
            a = abs(k + ek)
            if not 1 <= a <= n - 1:
                continue
            num, den = f[a]
            # a sum longer than best * f(a / n) cannot win: its size is at most
            # its length, and equal to it if it may win
            if (length + elength) * bottom * den > top * num:
                continue
            candidates += 1
            coeffs = coeffs_at(i)
            if picked:
                if partial is None:
                    partial = tuple(map(sum, zip(*map(coeffs_at, picked))))
                coeffs = tuple(map(add, partial, coeffs))
            size = sum(map(abs, coeffs))
            if size < length + elength:  # the walks cancel: such a sum may not win
                continue
            # size / f(a / n) = size * den / num, against top / bottom
            here, there = size * den * bottom, top * num
            if here > there:
                continue
            if here < there or (size, coeffs) < best[:2]:
                top, bottom, best = size * den, num, (size, coeffs, picked + (i,))
                limit = min(limit, top * peak_num // (bottom * peak_den))

    for r in range(1, system.genus + 2):
        extend((), r, 0, 0, 0)
    # extend reaches itself through its closure cell; dropping it lets the
    # scan's closures and state go by refcount, not by the cyclic collector
    extend = None

    if not bottom:
        return None
    _, coeffs, picked = best
    return CombineResult(
        sigma=IntegerChain(coeffs),
        value=Fraction(top, bottom),
        walks_used=tuple(cover.tag(entries[i][1]) for i in picked),
        candidates=candidates,
    )


def recover_cut(g: EmbeddedGraph, w: WeightFunction, sigma: IntegerChain, f: BalanceFunction) -> CutResult:
    """Turn a primal chain that is a sum of cuts into its best threshold cut.

    The chain must satisfy coeff(a -> b) = lam(a) - lam(b) for a potential
    lam, read down the tree of the weight w (lam(v) = lam(parent) less the
    parent dart's coefficient) and checked on every edge.  On a connected
    graph lam is unique up to a constant, so the tree does not matter.
    Level sets {lam >= i} then decompose the chain, and the cheapest level
    is at most as expensive as the chain itself.
    """
    if sigma.is_zero:
        raise ValueError("cannot recover a cut from the zero chain")
    tails, heads = g.tails, g.heads
    lam = [0] * g.n
    for v in w.order[1:]:
        d = w.parent_dart[v]
        lam[v] = lam[tails[d]] - sigma.dart_coeff(d)
    if any(c != lam[tails[2 * e]] - lam[heads[2 * e]] for e, c in enumerate(sigma.coeffs)):
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
    solve read at its depth D, depth; it may be deeper, and usable.
    """

    result: CutResult
    combine: CombineResult
    cover: CoverResult
    depth: int


class SolveContext:
    """Caches the f-independent pipeline stages for one embedded graph.

    The dual, weights, loops, the fewest cut edges behind U and the walk
    table depend only on the graph and the root, so solving for several
    balance functions reuses them; the faces are traced for the dual and
    not kept.  The weight holds the one BFS tree that the loops, the subtree
    cuts behind U and the cut recovery read.
    The context keeps one walk table, the deepest it has built, and each
    solve reads it at its own depth, so all solves share its combine index.
    A solve deeper than the table builds a deeper usable one in its place,
    holding only the walks combine can use at that depth; cover puts the
    full depth-m table, which serves every solve, in place of a usable one.
    """

    def __init__(self, g: EmbeddedGraph, root: int = 0):
        if g.n < 2:
            raise ValueError(f"a solve needs at least 2 vertices to cut, graph has {g.n}")
        if not (0 <= root < g.n):
            raise ValueError(f"root {root} out of range for {g.n} vertices")
        self.g = g
        self.root = root
        self._table: CoverResult | None = None

    @property
    def genus(self) -> int:
        return self.loops.genus

    @cached_property
    def dual(self) -> EmbeddedGraph:
        return build_dual(self.g, trace_faces(self.g))

    @cached_property
    def weight(self) -> WeightFunction:
        return build_weight(self.g, self.root)

    @cached_property
    def loops(self) -> LoopSystem:
        return build_loop_system(self.g, self.dual, self.weight)

    @cached_property
    def fewest_cut_edges(self) -> dict[int, tuple[int, int]]:
        return fewest_cut_edges(self.g, self.weight)

    def upper_bound(self, table: list[tuple[int, int] | None]) -> Fraction:
        """U, the least cut / f(k/n) over the cached fewest cut edges, read off balance_table(f, n)."""
        return min(Fraction(cut * table[k][1], table[k][0]) for k, (cut, _) in self.fewest_cut_edges.items())

    def walk_table(self, depth: int) -> CoverResult:
        """The context's walk table, first built to `depth`, usable, if it is shallower."""
        if self._table is None or self._table.depth_cap < depth:
            self._table = shortest_tagged_walks(self.dual, self.weight, self.loops, depth, usable=True)
        return self._table

    @property
    def cover(self) -> CoverResult:
        """The full walk table, capped at the edge count m, in place of a usable or shallower one."""
        if self._table is None or self._table.usable or self._table.depth_cap < self.g.m:
            self._table = shortest_tagged_walks(self.dual, self.weight, self.loops, self.g.m)
        return self._table

    def solve_detailed(self, f: BalanceFunction) -> SolveDetails:
        n, m = self.g.n, self.g.m
        try:
            table = balance_table(f, n)
            bound, (peak_num, peak_den) = self.upper_bound(table), table[n // 2]
            depth = min(m, bound.numerator * peak_num // (bound.denominator * peak_den))
            cover = self.walk_table(depth)
            comb = combine_and_minimize(cover, self.loops, table, n, m, depth)
            if comb is None:
                raise SolverError("no null-homologous combination found; walk table is incomplete")
            if self.loops.theta(comb.sigma) != (0,) * (2 * self.genus):
                raise SolverError("minimizer returned a chain with nonzero crossings")
            cut = recover_cut(self.g, self.weight, comb.sigma, f)
            if cut.value > bound:
                raise SolverError("recovered cut scores worse than the upper bound U; walk table too shallow")
            if cut.value > comb.value:
                raise SolverError("recovered cut scores worse than its chain")
            if cut.value < comb.value:
                raise SolverError("chain minimum missed a cheaper cut; walk table is incomplete")
        except SolverError as e:
            raise SolverError(f"{e} (n={n}, m={m}, genus {self.genus})") from None
        return SolveDetails(result=cut, combine=comb, cover=cover, depth=depth)

    def solve(self, f: BalanceFunction) -> CutResult:
        return self.solve_detailed(f).result


def solve(g: EmbeddedGraph, f: BalanceFunction, root: int = 0) -> CutResult:
    """Minimum f-quotient cut of a connected embedded multigraph."""
    return SolveContext(g, root).solve(f)
