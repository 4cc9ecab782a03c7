"""Structural analyzers: complete pairs, diamonds, numberings, rings, posets.

Witness objects (Diamond, Ring, CompletePair) are plain value types; their
invariants depend on the ambient tournament, so each has a validate_* that
takes it. Every search returning a witness validates it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    CapacityError,
    Deadline,
    Numbering,
    OrderedTournament,
    Tournament,
    backedge_graph,
    backedge_sets,
    bits,
    complete_to,
    induce_graph,
    is_transitive_set,
    numberings,
)
from .solvers import Submeasure, chi, chi_all_subsets, graph_chi, graph_omega


@dataclass(frozen=True)
class Diamond:
    """a => p => {b} => q => {a} with p, q nonempty and disjoint from {a, b}."""

    a: int
    b: int
    p: int
    q: int


def validate_diamond(t: Tournament, d: Diamond):
    ab = 1 << d.a | 1 << d.b
    if d.a == d.b:
        raise ValueError("diamond apexes coincide")
    if not d.p or not d.q:
        raise ValueError("diamond sides must be nonempty")
    if (d.p | d.q) & ab:
        raise ValueError("apex appears inside a side")
    if d.p & d.q:
        raise ValueError("diamond sides intersect")
    for lhs, rhs in (
        (1 << d.a, d.p),
        (d.p, 1 << d.b),
        (1 << d.b, d.q),
        (d.q, 1 << d.a),
    ):
        if not complete_to(t, lhs, rhs):
            raise ValueError("diamond completeness relation fails")


@dataclass(frozen=True)
class Ring:
    """Cyclically arranged sets, each complete to the next, neighbours disjoint."""

    sets: tuple[int, ...]

    def __post_init__(self):
        if len(self.sets) < 3:
            raise ValueError("a ring needs at least 3 sets")


def validate_ring(t: Tournament, r: Ring):
    k = len(r.sets)
    for i in range(k):
        x, y = r.sets[i], r.sets[(i + 1) % k]
        if x & y:
            raise ValueError(f"consecutive ring sets {i} and {(i + 1) % k} intersect")
        if not complete_to(t, x, y):
            raise ValueError(f"ring set {i} is not complete to its follower")


@dataclass(frozen=True)
class CompletePair:
    """Disjoint a => b; quality = min of the two chromatic numbers."""

    a: int
    b: int
    quality: int


def validate_complete_pair(t: Tournament, cp: CompletePair):
    if cp.a & cp.b:
        raise ValueError("pair sides intersect")
    if not complete_to(t, cp.a, cp.b):
        raise ValueError("a is not complete to b")
    q = min(chi(t, cp.a).value, chi(t, cp.b).value)
    if q != cp.quality:
        raise ValueError(f"pair quality {cp.quality} should be {q}")


class PairResult(NamedTuple):
    pair: CompletePair
    exact: bool
    """exact=False marks the sampled search used beyond 15 vertices."""


def _max_source_side(t: Tournament, b: int) -> int:
    """The inclusion-maximal a ⊆ V - b with a => b; best possible by monotonicity."""
    a = 0
    for v in bits(t.full_mask & ~b):
        if not b & ~t.out_sets[v]:
            a |= 1 << v
    return a


def best_complete_pair(
    t: Tournament, deadline: Optional[Deadline] = None, seed: int = 0
) -> PairResult:
    """Complete pair maximizing min(chi(a), chi(b)).

    Exact up to 15 vertices: b runs over all subsets and a is the maximal
    source side, which never lowers the quality. The source sides form one
    doubling table: a[0] is every vertex, and one numpy pass per vertex v
    sets a[b | v] = a[b] & in(v) for every b below v. Of the pairs of best
    quality the one with the least b is kept, and a best quality of 0 gives
    the empty pair. Beyond 15 the b candidates are the in/out
    neighbourhoods plus seeded random masks, and the result is only a lower
    bound (exact=False).
    """
    if t.n <= 15:
        tbl = chi_all_subsets(t, deadline)
        a = np.empty(1 << t.n, np.intp)
        a[0] = t.full_mask
        for v in range(t.n):
            np.bitwise_and(a[: 1 << v], t.in_set(v), out=a[1 << v : 2 << v])
            if deadline is not None:
                deadline.check()
        q = np.minimum(tbl[a], tbl)
        b = int(q.argmax())
        best = CompletePair(int(a[b]), b, int(q[b])) if q[b] else CompletePair(0, 0, 0)
        validate_complete_pair(t, best)
        return PairResult(best, True)
    cands = {t.out_sets[v] for v in range(t.n)} | {t.in_set(v) for v in range(t.n)}
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(200):
        cands.add(int(rng.integers(0, 1 << t.n)))
    best = CompletePair(0, 0, 0)
    for b in sorted(cands):
        if deadline is not None:
            deadline.check()
        a = _max_source_side(t, b)
        q = min(chi(t, a, deadline).value, chi(t, b, deadline).value)
        if q > best.quality:
            best = CompletePair(a, b, q)
    validate_complete_pair(t, best)
    return PairResult(best, False)


def c_good(t: Tournament, c: int, deadline: Optional[Deadline] = None) -> bool:
    """True iff some complete pair has both sides of chromatic number >= c.

    Beyond 15 vertices this inherits the sampled search, so only a True
    answer is conclusive there.
    """
    if c <= 0:
        return True
    return best_complete_pair(t, deadline).pair.quality >= c


class DiamondResult(NamedTuple):
    diamond: Diamond
    value: int
    """min(chi(p), chi(q)), the diamond's chromatic number."""


def max_diamond(t: Tournament, deadline: Optional[Deadline] = None) -> Optional[DiamondResult]:
    """Diamond maximizing min(chi(p), chi(q)), or None when no diamond exists.

    For fixed apexes (a, b) the chromatic numbers only grow with the sides,
    so p = N+(a) & N-(b) and q = N-(a) & N+(b) dominate all other choices;
    the pair loop replaces the 4^n quadruple search.
    """
    if t.n > 15:
        raise CapacityError("exact diamond search capped at 15 vertices")
    tbl = chi_all_subsets(t, deadline)
    best: Optional[DiamondResult] = None
    for a in range(t.n):
        if deadline is not None:
            deadline.check()
        for b in range(t.n):
            if a == b:
                continue
            p = t.out_sets[a] & t.in_set(b)
            q = t.in_set(a) & t.out_sets[b]
            if not p or not q:
                continue
            val = min(int(tbl[p]), int(tbl[q]))
            if best is None or val > best.value:
                best = DiamondResult(Diamond(a, b, p, q), val)
    if best is not None:
        validate_diamond(t, best.diamond)
    return best


def _subset_chi(t: Tournament, table, deadline: Optional[Deadline]):
    if table is not None:
        return lambda m: int(table[m])
    if t.n <= 20:
        tbl = chi_all_subsets(t, deadline)
        return lambda m: int(tbl[m])
    return lambda m: chi(t, m, deadline).value


def local_sets(ot: OrderedTournament) -> list[int]:
    """Per vertex in numbering order, its backward out-neighbours plus forward
    in-neighbours: its neighbourhood in the backedge graph (core.backedge_sets)."""
    adj = backedge_sets(ot)
    return [adj[v] for v in ot.order.perm]


def local_chromatic_number(
    ot: OrderedTournament, table=None, deadline: Optional[Deadline] = None
) -> int:
    """Max over vertices of chi(backward out-neighbours + forward in-neighbours).

    The local sets are the backedge sets of core.backedge_sets; a max does
    not depend on their order, so they are not put in numbering order as
    local_sets does.
    """
    value_of = _subset_chi(ot.t, table, deadline)
    return max((value_of(s) for s in backedge_sets(ot)), default=0)


def strong_chromatic_number(ot: OrderedTournament, deadline: Optional[Deadline] = None) -> int:
    """Max over vertices of the backedge graph's chromatic number on its neighbourhood."""
    g = backedge_graph(ot)
    best = 0
    for v in range(g.n):
        sub = induce_graph(g, g.adj[v]).sub
        best = max(best, graph_chi(sub, deadline))
    return best


def numbering_clique(ot: OrderedTournament, deadline: Optional[Deadline] = None) -> int:
    """Clique number of the backedge graph."""
    return graph_omega(backedge_graph(ot), deadline)


def diamond_free_numbering(
    t: Tournament, c: int, deadline: Optional[Deadline] = None
) -> Union[Numbering, Diamond]:
    """Either a numbering whose auxiliary digraph is acyclic, or a rich diamond.

    The auxiliary digraph H puts an edge a -> b when
    chi(N+(a) & N-(b)) >= 2c + 2. If H is acyclic, a topological numbering is
    returned (the caller measures its local chromatic number). A directed
    cycle instead yields a diamond of chromatic number > c, extracted by
    splitting each cycle gap at the first vertex of the cycle.
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    value_of = _subset_chi(t, None, deadline)
    threshold = 2 * c + 2
    in_sets = [t.in_set(v) for v in range(t.n)]
    h_out = [0] * t.n
    for a in range(t.n):
        if deadline is not None:
            deadline.check()
        for b in range(t.n):
            if a != b and value_of(t.out_sets[a] & in_sets[b]) >= threshold:
                h_out[a] |= 1 << b

    indeg = [0] * t.n
    for a in range(t.n):
        for b in bits(h_out[a]):
            indeg[b] += 1
    remaining = t.full_mask
    order = []
    ready = sorted(v for v in range(t.n) if indeg[v] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        remaining &= ~(1 << v)
        fresh = []
        for u in bits(h_out[v] & remaining):
            indeg[u] -= 1
            if indeg[u] == 0:
                fresh.append(u)
        ready = sorted(ready + fresh)
    if not remaining:
        return Numbering(tuple(order))

    # Kahn peels a vertex only when no unpeeled in-edges remain, so every
    # vertex left keeps an in-edge inside the core; walking those backwards
    # must repeat, and the repeated stretch read in reverse is a directed cycle.
    h_in = [0] * t.n
    for a in range(t.n):
        for b in bits(h_out[a]):
            h_in[b] |= 1 << a
    walk = [(remaining & -remaining).bit_length() - 1]
    seen = {walk[0]: 0}
    while True:
        prev = h_in[walk[-1]] & remaining
        v = (prev & -prev).bit_length() - 1
        if v in seen:
            cycle = list(reversed(walk[seen[v] :]))
            break
        seen[v] = len(walk)
        walk.append(v)

    k = len(cycle)
    a_sets = [
        t.out_sets[cycle[i]] & in_sets[cycle[(i + 1) % k]] for i in range(k)
    ]
    v1 = cycle[0]
    b_sets = [s & t.out_sets[v1] for s in a_sets]
    c_sets = [s & in_sets[v1] for s in a_sets]
    jstar = next(i for i in range(1, k) if value_of(c_sets[i]) > c)
    p = b_sets[jstar - 1]
    q = c_sets[jstar]
    if value_of(p) <= c:
        raise AssertionError("cycle extraction lost the chromatic guarantee")
    d = Diamond(v1, cycle[jstar], p, q)
    validate_diamond(t, d)
    return d


def min_local_numbering(
    t: Tournament, mode: str = "exact", deadline: Optional[Deadline] = None
) -> tuple[Numbering, int]:
    """Numbering minimizing the local chromatic number.

    Exact mode (n <= 9) is a branch-and-bound on core.numberings. A vertex's
    local set is its backedge set, final the moment it is placed, so reach[k]
    holds the largest local chromatic value among the first k placed
    vertices, and the walk's cut drops a prefix once that running maximum
    reaches the best value found. Every numbering the walk still yields
    beats the best so far and replaces it, so the result is the first
    numbering in itertools.permutations order that attains the minimum.
    Heuristic mode runs the diamond-free construction at c = 0, 1, ... and
    returns the first numbering it yields.
    """
    if mode == "heuristic":
        c = 0
        while True:
            got = diamond_free_numbering(t, c, deadline)
            if isinstance(got, Numbering):
                ot = OrderedTournament(t, got)
                return got, local_chromatic_number(ot, deadline=deadline)
            c += 1
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if t.n > 9:
        raise CapacityError("exact numbering search capped at 9 vertices")
    tbl = chi_all_subsets(t, deadline).tolist()
    best_val = t.n + 1
    best_perm: tuple[int, ...] = ()
    reach = [0] * (t.n + 1)  # reach[k]: the running maximum after k placements

    def cut(v: int, placed: int, row: int) -> bool:
        k = placed.bit_count()
        value = max(reach[k], tbl[row])
        if value >= best_val:
            return True
        reach[k + 1] = value
        return False

    for perm, _ in numberings(t, cut, deadline):
        best_val, best_perm = reach[t.n], perm
    return Numbering(best_perm), best_val


def density_out(t: Tournament, p: int, q: int, c: float, mu: Submeasure) -> int:
    """Vertices v of p with mu(N+(v) & q) <= c."""
    if p & q:
        raise ValueError("p and q must be disjoint")
    if (p | q) & ~t.full_mask:
        raise ValueError("p or q leaves the vertex set")
    return sum(1 << v for v in bits(p) if mu(t.out_sets[v] & q) <= c)


def density_in(t: Tournament, p: int, q: int, c: float, mu: Submeasure) -> int:
    """Vertices v of p with mu(N-(v) & q) <= c."""
    if p & q:
        raise ValueError("p and q must be disjoint")
    if (p | q) & ~t.full_mask:
        raise ValueError("p or q leaves the vertex set")
    return sum(1 << v for v in bits(p) if mu(t.in_set(v) & q) <= c)


class DensityEvidence(NamedTuple):
    cases_checked: int
    violations: tuple[tuple[int, int, float], ...]
    """(c, q_subset, mu_of_filtered) for each sampled failure."""
    evidence_only: bool = True


def out_density_evidence(
    t: Tournament,
    p: int,
    q: int,
    mu: Submeasure,
    g: Callable[[int], float],
    k: float,
    c_values: Optional[Sequence[int]] = None,
    samples: int = 100,
    seed: int = 0,
) -> DensityEvidence:
    """Grid-sampled check of the branching property: evidence, not a decision.

    The property quantifies over every c >= 0 and every subset of q with
    mu at least g(c): the c-filtered part of p must keep mu below k. Only the
    given c grid and a seeded sample of subsets of q (plus q itself) are
    tried, so a clean run refutes nothing.
    """
    if c_values is None:
        c_values = range(int(mu(q)) + 1)
    qbits = list(bits(q))
    rng = np.random.Generator(np.random.PCG64(seed))
    subsets = {q}
    for _ in range(samples):
        pick = rng.integers(0, 2, size=len(qbits))
        subsets.add(sum(1 << v for v, take in zip(qbits, pick) if take))
    checked = 0
    violations = []
    for c in c_values:
        for sub in sorted(subsets):
            if mu(sub) < g(c):
                continue
            checked += 1
            got = mu(density_out(t, p, sub, c, mu))
            if got >= k:
                violations.append((c, sub, got))
    return DensityEvidence(checked, tuple(violations))


def find_ring(
    t: Tournament,
    family: Sequence[int],
    successor: Callable[[int], Optional[int]],
) -> Optional[Ring]:
    """Close a ring by iterating a choice rule that picks a beating member.

    successor(x) must return a family member disjoint from x with
    successor(x) => x, or None. Following it from each start until a repeat
    closes a directed cycle in the "beats" direction; reversing it gives the
    ring orientation x_1 => x_2 => ... A repeat after fewer than 3 steps
    means the members involved were empty, which is rejected.
    """
    for start in family:
        path = [start]
        index = {start: 0}
        while True:
            nxt = successor(path[-1])
            if nxt is None:
                break
            if nxt in index:
                cycle = path[index[nxt] :]
                if len(cycle) < 3:
                    raise ValueError("degenerate ring: cycle shorter than 3")
                ring = Ring(tuple(reversed(cycle)))
                validate_ring(t, ring)
                return ring
            index[nxt] = len(path)
            path.append(nxt)
    return None


def ordered_contains(
    g: OrderedTournament, h: OrderedTournament
) -> Optional[tuple[int, ...]]:
    """Strictly increasing positions of g realizing h position-by-position.

    Positions are 0-based into g's numbering; the induced ordered
    subtournament on them must match h's edges exactly.
    """
    gp, hp = g.order.perm, h.order.perm
    n, m = len(gp), len(hp)
    if m > n:
        return None
    chosen: list[int] = []

    def extend(i: int, start: int) -> bool:
        if i == m:
            return True
        for pos in range(start, n - (m - i) + 1):
            ok = True
            for j, prev in enumerate(chosen):
                if g.t.has_edge(gp[prev], gp[pos]) != h.t.has_edge(hp[j], hp[i]):
                    ok = False
                    break
            if ok:
                chosen.append(pos)
                if extend(i + 1, pos + 1):
                    return True
                chosen.pop()
        return False

    if extend(0, 0):
        return tuple(chosen)
    return None


def is_ordered_poset(ot: OrderedTournament) -> bool:
    """Forward transitivity: i < j < k with v_i -> v_j and v_j -> v_k forces v_i -> v_k."""
    t, perm = ot.t, ot.order.perm
    n = t.n
    suffix = 0
    suffixes = [0] * n
    for j in range(n - 1, -1, -1):
        suffixes[j] = suffix
        suffix |= 1 << perm[j]
    for i in range(n):
        vi = perm[i]
        for j in range(i + 1, n):
            vj = perm[j]
            if t.has_edge(vi, vj) and t.out_sets[vj] & suffixes[j] & ~t.out_sets[vi]:
                return False
    return True


class PosetResult(NamedTuple):
    is_poset: bool
    order: Optional[tuple[int, ...]]
    """A witnessing circular order (read clockwise) when is_poset."""


def is_poset_tournament(t: Tournament) -> PosetResult:
    """Search for a circular order with no clockwise cyclic triangle (n <= 10).

    Clockwise-ness of a triangle is invariant under rotating the circle, so
    vertex 0 is pinned first and the linear cut is tested for forward
    transitivity, extending a prefix only while no violating triple exists.
    """
    if t.n > 10:
        raise CapacityError("circular-order search capped at 10 vertices")
    if t.n == 0:
        return PosetResult(True, ())
    order = [0]

    def fits(v: int) -> bool:
        for j in range(len(order)):
            if t.has_edge(order[j], v):
                for i in range(j):
                    if t.has_edge(order[i], order[j]) and not t.has_edge(order[i], v):
                        return False
        return True

    def dfs(used: int) -> bool:
        if len(order) == t.n:
            return True
        for v in range(1, t.n):
            if not used >> v & 1 and fits(v):
                order.append(v)
                if dfs(used | 1 << v):
                    return True
                order.pop()
        return False

    if dfs(1):
        return PosetResult(True, tuple(order))
    return PosetResult(False, None)


def inout_witness(t: Tournament, c: int, deadline: Optional[Deadline] = None) -> Optional[int]:
    """Lowest vertex with chi(N+(v)) >= c and chi(N-(v)) >= c, or None."""
    value_of = _subset_chi(t, None, deadline)
    for v in range(t.n):
        if value_of(t.out_sets[v]) >= c and value_of(t.in_set(v)) >= c:
            return v
    return None
