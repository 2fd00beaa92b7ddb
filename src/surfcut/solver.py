"""Minimum f-quotient cuts via null-homologous dual chains.

The minimizer scores dual chains by |chain| / f(|weight|/n), exactly the cut
quotient when the chain is a cut.  It scans sums of at most genus+1 tagged
walks whose crossing vectors cancel, then converts the best chain into a
vertex cut by thresholding a potential function, which can only improve the
score.  The two values must agree at the optimum, and the solver checks that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from surfcut.balance import BalanceFunction
from surfcut.cover import CoverResult, shortest_tagged_walks
from surfcut.dual import DualGraph, IntegerChain, build_dual
from surfcut.embedding import EmbeddedGraph, FaceStructure, genus, trace_faces
from surfcut.homology import LoopSystem, WeightFunction, build_loop_system, build_weight


class SolverError(RuntimeError):
    """An internal consistency check failed during solving."""


@dataclass(frozen=True)
class CutResult:
    """A vertex cut with its exact scores.

    S is the side containing vertex 0, sorted.  balance is min(|S|, n-|S|)/n
    and expansion is |cut| / min(|S|, n-|S|).  value is |cut| / f(balance)
    for whatever balance function produced the result.
    """

    S: tuple[int, ...]
    cut_edges: tuple[int, ...]
    cut_size: int
    balance: Fraction
    value: Fraction
    expansion: Fraction

    @property
    def sort_key(self):
        return (self.value, self.cut_size, self.S)


def score_cut(g: EmbeddedGraph, S, f: BalanceFunction) -> CutResult:
    """Score a nonempty proper vertex subset as a cut."""
    inside = [False] * g.n
    for v in S:
        inside[v] = True
    k = sum(inside)
    if k == 0 or k == g.n:
        raise ValueError("cut side must be a nonempty proper subset")
    if not inside[0]:
        inside = [not b for b in inside]
        k = g.n - k
    edges = tuple(
        e for e in range(g.m) if inside[g.tails[2 * e]] != inside[g.heads[2 * e]]
    )
    small = min(k, g.n - k)
    return CutResult(
        S=tuple(v for v in range(g.n) if inside[v]),
        cut_edges=edges,
        cut_size=len(edges),
        balance=Fraction(small, g.n),
        value=Fraction(len(edges)) / f(Fraction(k, g.n)),
        expansion=Fraction(len(edges), small),
    )


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

    Partial sums are pruned once their chains alone weigh more than m, since
    an optimal cut chain splits into circuits of total size at most m.  Ties
    break on value, then chain size, then chain coefficients.
    """
    g2 = 2 * system.genus
    slots = system.genus + 1
    zero_v = (0,) * g2

    entries = []
    for key in sorted(cover.walks):
        walk = cover.walks[key]
        if walk.length == 0 or walk.chain.is_zero:
            continue
        if walk.chain.size > m:
            continue
        entries.append((walk.k, walk.v, walk.chain, walk.chain.size))
    entries.sort(key=lambda e: (e[1], e[0]))

    # group entries by crossing vector; the crossing algebra only sees groups
    group_v: list[tuple[int, ...]] = []
    group_span: list[tuple[int, int]] = []
    group_min_mass: list[int] = []
    gid_of: dict[tuple[int, ...], int] = {}
    pos = 0
    for v, grp in itertools.groupby(entries, key=lambda e: e[1]):
        block = list(grp)
        gid_of[v] = len(group_v)
        group_v.append(v)
        group_span.append((pos, pos + len(block)))
        group_min_mass.append(min(e[3] for e in block))
        pos += len(block)
    max_coord = [max((abs(v[j]) for v in group_v), default=0) for j in range(g2)]

    fcache: dict[int, Fraction] = {}

    def fval(k: int) -> Fraction:
        if k not in fcache:
            fcache[k] = f(Fraction(k, n))
        return fcache[k]

    best: tuple | None = None
    candidates = 0
    chosen: list[int] = []

    def consider(k: int):
        nonlocal best, candidates
        candidates += 1
        chain = entries[chosen[0]][2]
        for idx in chosen[1:]:
            chain = chain + entries[idx][2]
        value = Fraction(chain.size) / fval(abs(k))
        key = (value, chain.size, chain.coeffs)
        if best is None or key < best[0]:
            best = (key, chain, k, tuple(entries[idx][:2] for idx in chosen))

    def fill(gids: list[int], pos: int, i0: int, acc_k: int, acc_mass: int):
        """Pick one entry per chosen group slot, nondecreasing within a group."""
        if pos == len(gids):
            if 1 <= abs(acc_k) <= n - 1:
                consider(acc_k)
            return
        gid = gids[pos]
        lo, hi = group_span[gid]
        start = max(lo, i0) if pos > 0 and gids[pos - 1] == gid else lo
        for idx in range(start, hi):
            k, _, _, mass = entries[idx]
            if acc_mass + mass > m:
                continue
            chosen.append(idx)
            fill(gids, pos + 1, idx, acc_k + k, acc_mass + mass)
            chosen.pop()

    gids: list[int] = []

    def scan(g0: int, acc_v: tuple[int, ...], acc_min_mass: int, left: int):
        """Enumerate nondecreasing group multisets whose vectors cancel."""
        if left == 1:
            target = tuple(-x for x in acc_v)
            gid = gid_of.get(target)
            if gid is not None and gid >= g0 and acc_min_mass + group_min_mass[gid] <= m:
                gids.append(gid)
                fill(gids, 0, 0, 0, 0)
                gids.pop()
            return
        for gid in range(g0, len(group_v)):
            mm = acc_min_mass + group_min_mass[gid]
            if mm > m:
                continue
            v = group_v[gid]
            nv = tuple(a + b for a, b in zip(acc_v, v))
            gids.append(gid)
            if nv == zero_v:
                fill(gids, 0, 0, 0, 0)
            if all(abs(x) <= (left - 1) * mc for x, mc in zip(nv, max_coord)):
                scan(gid, nv, mm, left - 1)
            gids.pop()

    scan(0, zero_v, 0, slots)

    if best is None:
        raise SolverError("no null-homologous combination found; walk table is incomplete")
    (value, _, _), sigma, k, walks_used = best
    return CombineResult(
        sigma=sigma,
        k=k,
        value=value,
        walks_used=walks_used,
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
    """Everything the pipeline produced on the way to a cut."""

    result: CutResult
    sigma: IntegerChain
    sigma_value: Fraction
    walks_used: tuple
    candidates: int
    genus: int
    cover: CoverResult


class SolveContext:
    """Caches the f-independent pipeline stages for one embedded graph.

    Faces, dual, weights, loops and the walk table depend only on the graph
    and the root, so solving for several balance functions reuses them.
    """

    def __init__(self, g: EmbeddedGraph, root: int = 0):
        self.g = g
        self.root = root

    @cached_property
    def faces(self) -> FaceStructure:
        return trace_faces(self.g)

    @cached_property
    def genus(self) -> int:
        return genus(self.g, self.faces)

    @cached_property
    def dual(self) -> DualGraph:
        return build_dual(self.g, self.faces)

    @cached_property
    def weight(self) -> WeightFunction:
        return build_weight(self.g, self.root)

    @cached_property
    def loops(self) -> LoopSystem:
        return build_loop_system(self.g, self.dual, self.root)

    @cached_property
    def cover(self) -> CoverResult:
        return shortest_tagged_walks(self.dual, self.weight, self.loops)

    def solve_detailed(self, f: BalanceFunction) -> SolveDetails:
        comb = combine_and_minimize(self.cover, self.loops, f, self.g.n, self.g.m)
        if self.loops.theta(comb.sigma) != (0,) * (2 * self.genus):
            raise SolverError("minimizer returned a chain with nonzero crossings")
        cut = recover_cut(self.g, comb.sigma, f)
        if cut.value > comb.value:
            raise SolverError("recovered cut scores worse than its chain")
        if cut.value < comb.value:
            raise SolverError("chain minimum missed a cheaper cut; walk table is incomplete")
        return SolveDetails(
            result=cut,
            sigma=comb.sigma,
            sigma_value=comb.value,
            walks_used=comb.walks_used,
            candidates=comb.candidates,
            genus=self.genus,
            cover=self.cover,
        )

    def solve(self, f: BalanceFunction) -> CutResult:
        return self.solve_detailed(f).result


def solve(g: EmbeddedGraph, f: BalanceFunction, root: int = 0) -> CutResult:
    """Minimum f-quotient cut of a connected embedded multigraph."""
    return SolveContext(g, root).solve(f)
