"""Exact solvers for tournament and graph colouring/domination parameters.

Every solver is exact on its documented input range; nothing here returns an
approximation presented as an exact value. The only non-exact path in this
module is the n > 20 branch of subdom, which is flagged as a lower bound in
its result; validate_submeasure samples for user submeasures, as its
docstring says. Elsewhere, structure.best_complete_pair and c_good sample
beyond 15 vertices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _kernels
from .core import (
    CapacityError,
    Deadline,
    Graph,
    OrderedTournament,
    Tournament,
    bits,
    contains,
    induce,
    is_transitive,
    is_transitive_set,
)


class ChiResult(NamedTuple):
    value: int
    classes: tuple[int, ...]
    """Witness cover; disjoint masks sorted by least element."""


class DomResult(NamedTuple):
    value: int
    dominating: int
    """Witness dominating set as a mask."""


class SubdomResult(NamedTuple):
    value: int
    exact: bool
    """exact=False marks the sampled lower bound used beyond 20 vertices."""


def _extend_maximal(s: int, rest: int, banned: int, can_add, other=None, deadline=None):
    """The supersets of s inside s | rest that no vertex of rest or banned can
    extend under a hereditary property: with banned = 0, the maximal ones.

    can_add(S, w) answers whether S | {w} keeps the property; heredity lets a
    vertex rejected once be dropped for good. Each maximal set is produced
    exactly once, the greedy index-order extension first.

    With other given (a mask with the property, disjoint from s | rest), the
    walk also needs the vertices it leaves out of the set to keep the
    property together with other: each dropped or excluded vertex joins
    other, and a branch ends as soon as can_add(other, w) fails. By heredity
    every set that branch could produce has a complement without the
    property, so the cut is exact and the surviving sets keep their order.
    The deadline, when given, is checked once per include branch, since the
    pruned walk can run long without yielding.
    """
    scan = rest
    while scan:
        b = scan & -scan
        w = b.bit_length() - 1
        if can_add(s, w):
            if deadline is not None:
                deadline.check()
            yield from _extend_maximal(s | b, scan ^ b, banned, can_add, other, deadline)
            if other is None:
                yield from _extend_maximal(s, scan ^ b, banned | b, can_add, None, deadline)
            elif can_add(other, w):
                yield from _extend_maximal(s, scan ^ b, banned | b, can_add, other | b, deadline)
            return
        if other is not None:
            if not can_add(other, w):
                return
            other |= b
        scan ^= b
    while banned:
        b = banned & -banned
        if can_add(s, b.bit_length() - 1):
            return
        banned ^= b
    yield s


def _min_cover(
    full: int,
    can_add: Callable[[int, int], bool],
    set_ok: Callable[[int], bool],
    deadline: Optional[Deadline] = None,
    largest: Optional[int] = None,
) -> tuple[int, tuple[int, ...]]:
    """Minimum number of hereditary-property classes covering full, plus one witness.

    Iterative deepening on the class count; each level covers the least
    uncovered vertex by a maximal property subset of the uncovered set, so the
    chosen classes are disjoint and the search tree is canonical. Failed
    (uncovered, budget) states are memoized by the largest budget that failed,
    from budget 2 up: a one-class failure is a single set_ok test, cheaper to
    repeat than to store (it made up 99 % of the entries on 24 vertices).

    With two classes left, a part works only if the rest of the uncovered set
    has the property too, so that walk carries the rest as it goes and drops
    every branch whose rest already fails (see _extend_maximal). Only the
    parts the complement test would reject are skipped, in an unchanged tree
    order, so value and witness are those of the unpruned search; the
    set_ok test on the last class still confirms each answer.

    largest, when given, bounds the size of every class with the property
    (chi passes the largest transitive subset of full). No k classes can
    then cover more than k * largest vertices, so deepening starts at
    ceil(|full| / largest) and any state with more uncovered vertices than
    its budget times largest fails at once. Each subset U of full is bounded
    by the same number, so both cuts skip only states that fail anyway: the
    levels skipped are all infeasible, and the first feasible level walks
    its tree in the same order, so value and witness do not change.
    """
    if full == 0:
        return 0, ()
    if set_ok(full):
        return 1, (full,)
    fail_at: dict[int, int] = {}

    def feasible(uncovered: int, k: int, chosen: list[int]) -> bool:
        if uncovered == 0:
            return True
        if deadline is not None:
            deadline.check()
        if largest is not None and uncovered.bit_count() > k * largest:
            return False
        if fail_at.get(uncovered, 0) >= k:
            return False
        if k == 1:
            if set_ok(uncovered):
                chosen.append(uncovered)
                return True
            return False
        u = (uncovered & -uncovered).bit_length() - 1
        other = 0 if k == 2 else None
        for part in _extend_maximal(1 << u, uncovered ^ (1 << u), 0, can_add, other, deadline):
            chosen.append(part)
            if feasible(uncovered & ~part, k - 1, chosen):
                return True
            chosen.pop()
        fail_at[uncovered] = k
        return False

    n = full.bit_count()
    start = 2 if largest is None else max(2, -(-n // largest))
    for k in range(start, n + 1):
        chosen: list[int] = []
        if feasible(full, k, chosen):
            return k, tuple(sorted(chosen, key=lambda m: m & -m))
    raise AssertionError("singleton classes always cover")


def _largest_transitive(out: list[int], full: int, deadline: Optional[Deadline] = None) -> int:
    """Most vertices of a transitive subset of full.

    A transitive set is its source plus a transitive set the source beats,
    so the search recurses on u & out[v] for each v in u, and cuts a branch
    that could not beat the best size found even if all of u & out[v] were
    transitive. The deadline is checked once per source branch.
    """
    best = 0

    def grow(size: int, u: int):
        nonlocal best
        if size > best:
            best = size
        scan = u
        while scan:
            b = scan & -scan
            sub = u & out[b.bit_length() - 1]
            if size + 1 + sub.bit_count() > best:
                if deadline is not None:
                    deadline.check()
                grow(size + 1, sub)
            scan ^= b

    grow(0, full)
    return best


def chi(t: Tournament, s: Optional[int] = None, deadline: Optional[Deadline] = None) -> ChiResult:
    """Chromatic number of the subtournament on s (default: all vertices).

    Minimum number of transitive classes covering s, with one witness
    partition; classes are reported sorted by least element. The cover
    search starts at ceil(|s| / alpha), alpha the largest transitive subset
    of s, which settles lower bounds like chi(paley(23)) >= 5 without
    refuting 2, 3 and 4 classes one by one; see _min_cover for why the
    witness is the one a search from 2 classes finds.
    """
    full = t.full_mask if s is None else s
    if full & ~t.full_mask:
        raise ValueError("s is not a subset of the vertex set")
    out, in_ = t.out_sets, [t.in_set(v) for v in range(t.n)]

    def can_add(cls: int, w: int) -> bool:
        # a cyclic triangle w -> a -> c -> w needs a in cls & out[w] and c in
        # cls & in_[w] with a -> c
        outs, ins = cls & out[w], cls & in_[w]
        while outs:
            low = outs & -outs
            if out[low.bit_length() - 1] & ins:
                return False
            outs ^= low
        return True

    largest = _largest_transitive(out, full, deadline)
    value, classes = _min_cover(
        full, can_add, lambda m: is_transitive_set(t, m), deadline, largest
    )
    return ChiResult(value, classes)


def chi_all_subsets(t: Tournament, deadline: Optional[Deadline] = None) -> np.ndarray:
    """Table of chromatic numbers for all 2^n vertex subsets (n <= 20).

    Cover products over the transitivity table, one zeta/Mobius round per
    colour in int64 (exact: counts stay at most 4^n <= 2^40); entry m is the
    chromatic number of the subtournament induced on mask m. The deadline is
    checked once per transform pass.
    """
    if t.n > 20:
        raise CapacityError(f"subset table for n={t.n} exceeds the n<=20 guard")
    trans = _kernels.transitive_table(t.out_sets, t.n)
    return _kernels.chi_table_from_trans(trans, deadline)


def chi_h(t: Tournament, h: Tournament, deadline: Optional[Deadline] = None) -> ChiResult:
    """Minimum number of h-free classes covering the vertex set.

    h must have at least 2 vertices; a single vertex leaves no nonempty
    h-free part. Transitive h is accepted with a warning since the parameter
    is then driven by class size alone.
    """
    if h.n <= 1:
        raise ValueError("h needs at least 2 vertices; no nonempty part avoids it")
    if is_transitive(h):
        warnings.warn("h is transitive; every class is capped at |h|-1 vertices")
    hfree: dict[int, bool] = {0: True}

    def ok(mask: int) -> bool:
        v = hfree.get(mask)
        if v is None:
            v = contains(induce(t, mask).sub, h) is None
            hfree[mask] = v
        return v

    value, classes = _min_cover(
        t.full_mask, lambda cls, w: ok(cls | 1 << w), ok, deadline
    )
    return ChiResult(value, classes)


@dataclass(frozen=True)
class Law:
    """Family of vertex subsets, each meant to contain a cyclic triangle.

    Containment of a triangle depends on the ambient tournament, so it is
    checked by validate_law at solve time rather than at construction.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.n) - 1
        for m in self.members:
            if m & ~full:
                raise ValueError("law member leaves the vertex range")

    @property
    def order(self) -> int:
        if not self.members:
            return self.n
        return max(m.bit_count() for m in self.members)


def validate_law(t: Tournament, law: Law):
    if law.n != t.n:
        raise ValueError("law ambient size differs from the tournament")
    for m in law.members:
        if is_transitive_set(t, m):
            raise ValueError(f"law member {m:#x} contains no cyclic triangle")


def all_triangle_law(t: Tournament) -> Law:
    """The law whose members are the vertex sets of all cyclic triangles."""
    members = []
    for a in range(t.n):
        for b in bits(t.out_sets[a] >> a << a):
            for c in bits(t.out_sets[b] & t.in_set(a)):
                if c > a:
                    members.append(1 << a | 1 << b | 1 << c)
    return Law(t.n, tuple(sorted(members)))


def chi_law(t: Tournament, law: Law, deadline: Optional[Deadline] = None) -> ChiResult:
    """Minimum partition of the vertices with no class containing a law member."""
    validate_law(t, law)
    by_vertex: list[list[int]] = [[] for _ in range(t.n)]
    for m in law.members:
        for v in bits(m):
            by_vertex[v].append(m)

    def can_add(cls: int, w: int) -> bool:
        new = cls | 1 << w
        return all(m & ~new for m in by_vertex[w])

    def ok(mask: int) -> bool:
        return all(m & ~mask for m in law.members)

    value, classes = _min_cover(t.full_mask, can_add, ok, deadline)
    return ChiResult(value, classes)


def _greedy_dom(t: Tournament, targets: int) -> int:
    """Greedy dominating set for targets; upper bound seed for the exact search."""
    x = 0
    und = targets
    while und:
        best_v, best_gain = -1, -1
        for v in range(t.n):
            gain = ((1 << v | t.out_sets[v]) & und).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        x |= 1 << best_v
        und &= ~(1 << best_v | t.out_sets[best_v])
    return x


def _min_dom(t: Tournament, targets: int, deadline: Optional[Deadline]) -> int:
    """A smallest X in V covering targets, by deepening below the greedy bound."""
    greedy = _greedy_dom(t, targets)
    in_sets = [t.in_set(v) for v in range(t.n)]
    for k in range(1, greedy.bit_count()):
        x = _kernels.dom_search(t.out_sets, in_sets, t.full_mask, targets, k, deadline)
        if x is not None:
            return x
    return greedy


def dom(t: Tournament, deadline: Optional[Deadline] = None) -> DomResult:
    """Minimum dominating set: every vertex outside it has an in-neighbour in it."""
    x = _min_dom(t, t.full_mask, deadline)
    return DomResult(x.bit_count(), x)


def edom(t: Tournament, a: int, deadline: Optional[Deadline] = None) -> int:
    """External domination: smallest X anywhere in V with a \\ X out-dominated by X."""
    if a & ~t.full_mask:
        raise ValueError("a is not a subset of the vertex set")
    return _min_dom(t, a, deadline).bit_count()


def subdom(
    t: Tournament, seed: int = 0, deadline: Optional[Deadline] = None
) -> SubdomResult:
    """Largest domination number over all induced subtournaments.

    Exhaustive over all 2^n subsets up to n = 20. Beyond that the result is a
    sampled lower bound (whole set, every in/out neighbourhood, and seeded
    random subsets) and is flagged exact=False. Both paths run
    _kernels.subdom_scan with the whole set first, so the maximum starts at
    dom(t); the scan certifies dom(S) <= that maximum greedily in numpy
    chunks and solves exactly only the subsets a certificate misses.
    paley(19), the worst case up to 20 vertices, takes about 0.1-0.2 s.
    """
    if t.n <= 20:
        return SubdomResult(_kernels.subdom_scan(t.out_sets, t.n, deadline=deadline), True)
    masks = {t.out_sets[v] for v in range(t.n)} | {t.in_set(v) for v in range(t.n)}
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(2000):
        masks.add(int(rng.integers(0, 1 << t.n)))
    masks.discard(0)
    best = _kernels.subdom_scan(t.out_sets, t.n, [t.full_mask, *masks], deadline)
    return SubdomResult(best, False)


def _check_graph_capacity(g: Graph):
    if g.n > 40:
        raise CapacityError(f"graph solver capped at 40 vertices, got {g.n}")


def graph_omega(g: Graph, deadline: Optional[Deadline] = None) -> int:
    """Exact clique number; branch and bound with a greedy-colouring bound."""
    _check_graph_capacity(g)
    if g.n == 0:
        return 0
    adj = g.adj
    best = 1

    def expand(size: int, cand: int):
        nonlocal best
        if deadline is not None:
            deadline.check()
        order: list[int] = []
        bound: list[int] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            q = rest
            while q:
                b = q & -q
                v = b.bit_length() - 1
                q &= ~(adj[v] | b)
                rest ^= b
                order.append(v)
                bound.append(colour)
        remaining = cand
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best:
                return
            v = order[i]
            if size + 1 > best:
                best = size + 1
            sub = remaining & adj[v]
            if sub:
                expand(size + 1, sub)
            remaining &= ~(1 << v)

    expand(0, g.full_mask)
    return best


def _greedy_graph_colouring(g: Graph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))
    classes: list[int] = []
    for v in order:
        for i, cls in enumerate(classes):
            if not cls & g.adj[v]:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _graph_colourable(g: Graph, k: int, deadline: Optional[Deadline]) -> bool:
    adj = g.adj
    classes = [0] * k
    full = g.full_mask

    def dfs(coloured: int) -> bool:
        if coloured == full:
            return True
        if deadline is not None:
            deadline.check()
        best_v, best_key = -1, (-1, -1)
        rest = full & ~coloured
        for v in bits(rest):
            sat = sum(1 for cls in classes if cls and cls & adj[v])
            key = (sat, adj[v].bit_count())
            if key > best_key:
                best_v, best_key = v, key
        used = sum(1 for cls in classes if cls)
        vb = 1 << best_v
        for i in range(min(k, used + 1)):
            if classes[i] & adj[best_v]:
                continue
            classes[i] |= vb
            if dfs(coloured | vb):
                return True
            classes[i] ^= vb
        return False

    return dfs(0)


def graph_chi(g: Graph, deadline: Optional[Deadline] = None) -> int:
    """Exact graph chromatic number by branch and bound between clique and greedy bounds."""
    _check_graph_capacity(g)
    if g.n == 0:
        return 0
    lb = graph_omega(g, deadline)
    ub = len(_greedy_graph_colouring(g))
    for k in range(lb, ub):
        if _graph_colourable(g, k, deadline):
            return k
    return ub


def dilworth_partition(ot: OrderedTournament, x: int) -> list[int]:
    """Partition a transitive set into backedge-stable classes by chain levels.

    Positions i < j with the tournament edge pointing j -> i are comparable;
    on a transitive set comparability composes, so longest-chain levels give
    at most omega(backedge graph on x) classes, each free of backedges.
    """
    t = ot.t
    if x & ~t.full_mask:
        raise ValueError("x is not a subset of the vertex set")
    if not is_transitive_set(t, x):
        raise ValueError("x does not induce a transitive subtournament")
    pos = ot.order.position_of()
    verts = sorted(bits(x), key=lambda v: pos[v])
    level: dict[int, int] = {}
    top = 0
    for j, v in enumerate(verts):
        lv = 1
        for u in verts[:j]:
            if t.has_edge(v, u) and level[u] + 1 > lv:
                lv = level[u] + 1
        level[v] = lv
        top = max(top, lv)
    classes = [0] * top
    for v in verts:
        classes[level[v] - 1] |= 1 << v
    return classes


class Submeasure:
    """Memoized non-negative set function promising mu(0)=0, monotone, subadditive.

    The promises are the caller's; validate_submeasure spot-checks them. The
    memo accepts concurrent readers since writes are idempotent.
    """

    def __init__(self, fn: Callable[[int], float], name: str = "mu", builtin: bool = False):
        self.fn = fn
        self.name = name
        self.builtin = builtin
        self._memo: dict[int, float] = {}

    def __call__(self, mask: int) -> float:
        v = self._memo.get(mask)
        if v is None:
            v = self.fn(mask)
            self._memo[mask] = v
        return v


def cardinality_submeasure() -> Submeasure:
    return Submeasure(lambda m: float(m.bit_count()), name="card", builtin=True)


def chi_submeasure(t: Tournament) -> Submeasure:
    """mu(S) = chromatic number of the subtournament on S; table-backed when n <= 20."""
    if t.n <= 20:
        tbl = chi_all_subsets(t)
        return Submeasure(lambda m: float(tbl[m]), name="chi", builtin=True)
    return Submeasure(lambda m: float(chi(t, m).value), name="chi", builtin=True)


def edom_submeasure(t: Tournament) -> Submeasure:
    """mu(S) = external domination number of S; mu(V) is the domination number."""
    return Submeasure(lambda m: float(edom(t, m)), name="edom", builtin=True)


def validate_submeasure(
    mu: Submeasure,
    n: int,
    exhaustive: Optional[bool] = None,
    samples: int = 2000,
    seed: int = 0,
):
    """Check mu(0)=0, monotonicity, subadditivity; raise ValueError on a violation.

    Exhaustive over all subset pairs for built-ins up to n = 12 (the 4^n pair
    space is chunked through numpy); sampled triples otherwise, since
    arbitrary user submeasures are accepted.
    """
    if exhaustive is None:
        exhaustive = mu.builtin and n <= 12
    if mu(0) != 0:
        raise ValueError(f"{mu.name}(empty) = {mu(0)}, expected 0")
    if exhaustive:
        size = 1 << n
        vals = np.array([mu(m) for m in range(size)], dtype=np.float64)
        idx = np.arange(size)
        for v in range(n):
            withv = idx[(idx >> v) & 1 == 1]
            if np.any(vals[withv] < vals[withv ^ (1 << v)]):
                bad = withv[vals[withv] < vals[withv ^ (1 << v)]][0]
                raise ValueError(f"{mu.name} not monotone at {bad:#x} minus bit {v}")
            if np.any(vals < 0):
                raise ValueError(f"{mu.name} takes a negative value")
        for a in range(size):
            if np.any(vals[idx | a] > vals[a] + vals):
                b = int(idx[vals[idx | a] > vals[a] + vals][0])
                raise ValueError(f"{mu.name} not subadditive at {a:#x}, {b:#x}")
        return
    rng = np.random.Generator(np.random.PCG64(seed))
    full = (1 << n) - 1
    for _ in range(samples):
        a = int(rng.integers(0, full + 1))
        b = int(rng.integers(0, full + 1))
        if mu(a) < 0:
            raise ValueError(f"{mu.name}({a:#x}) is negative")
        if mu(a & b) > mu(a):
            raise ValueError(f"{mu.name} not monotone at {a & b:#x} vs {a:#x}")
        if mu(a | b) > mu(a) + mu(b):
            raise ValueError(f"{mu.name} not subadditive at {a:#x}, {b:#x}")
