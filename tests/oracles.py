"""Definitional brute-force oracles, kept independent of the library solvers.

Each oracle recomputes its quantity straight from the definition (all
partitions, all subsets, all vertex combinations, all relabellings), sharing
nothing with the algorithms under test beyond the Tournament container. Slow
on purpose; sized for the test corpus only. Two exceptions keep a search the
library replaced, as a reference for the faster one:

- subdom_by_scan, the per-subset loop the chunked subdom scan replaced: it
  reuses the kernel's dom_search, which is itself checked against
  dom_by_combinations;
- min_cover_unpruned, the cover search without the two-class cut or the
  class-size bound: it takes the solver's own property tests, which the
  solver tests check against chi_by_partitions and the triangle-law and
  h-free definitions;
- best_pair_by_loop, the per-b loop the subset-doubling table of
  best_complete_pair replaced: it takes the chi table under test, as
  best_pair_by_assignment does, and returns the library's CompletePair.
"""

from __future__ import annotations

import itertools

import numpy as np

from tourlab._kernels import dom_search
from tourlab.core import Graph, Tournament, bits
from tourlab.structure import CompletePair


def transitive_by_degrees(t: Tournament, mask: int) -> bool:
    """A set is transitive iff its internal out-degrees are 0..k-1 in some order."""
    degrees = sorted((t.out_sets[v] & mask).bit_count() for v in bits(mask))
    return degrees == list(range(len(degrees)))


def max_transitive_by_subsets(t: Tournament, mask: int | None = None) -> int:
    """Most vertices of a transitive subset of mask, over every subset."""
    if mask is None:
        mask = t.full_mask
    best, sub = 0, mask
    while sub:
        if sub.bit_count() > best and transitive_by_degrees(t, sub):
            best = sub.bit_count()
        sub = (sub - 1) & mask
    return best


def iter_partitions(items: list[int]):
    """All set partitions via restricted growth strings."""
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def grow(i: int, top: int):
        if i == n:
            classes: list[list[int]] = [[] for _ in range(top + 1)]
            for item, label in zip(items, rgs):
                classes[label].append(item)
            yield classes
            return
        for label in range(top + 2):
            rgs[i] = label
            yield from grow(i + 1, max(top, label))

    yield from grow(1, 0)


def chi_by_partitions(t: Tournament, mask: int | None = None) -> int:
    """Minimum classes over every partition with all classes transitive."""
    if mask is None:
        mask = t.full_mask
    items = list(bits(mask))
    if not items:
        return 0
    best = len(items)
    for classes in iter_partitions(items):
        if len(classes) >= best:
            continue
        if all(
            transitive_by_degrees(t, sum(1 << v for v in cls)) for cls in classes
        ):
            best = len(classes)
    return best


def chi_table_by_partitions(t: Tournament) -> list[int]:
    """chi_by_partitions for every subset; meant for n <= 7."""
    return [chi_by_partitions(t, m) for m in range(1 << t.n)]


def chi_table_by_subset_dp(trans) -> np.ndarray:
    """chi of every subset from a transitive-subset table, by a 3^n subset DP.

    chi[S] = 0 for empty S, 1 for transitive S, else 1 + min over transitive
    T <= S containing the least vertex of S of chi[S \\ T]. Restricting T to
    the class of the least vertex loses nothing: some optimal class contains
    it, and enlarging a class never hurts the remainder.
    """
    tr = list(trans)
    out = [0] * len(tr)
    for s in range(1, len(tr)):
        if tr[s]:
            out[s] = 1
            continue
        low = s & (-s)
        rest = s ^ low
        best = 255
        sub = rest
        while True:
            t = sub | low
            if tr[t]:
                best = min(best, 1 + out[s ^ t])
            if sub == 0:
                break
            sub = (sub - 1) & rest
        out[s] = best
    return np.array(out, dtype=np.uint8)


def chi_by_cover_bfs(t: Tournament) -> int:
    """Breadth-first closure of unions of maximal transitive sets.

    Level k holds every mask coverable by k transitive sets; the answer is the
    first level containing the full mask. Covers and partitions agree because
    subsets of transitive sets are transitive. Handles n = 15.
    """
    if t.n == 0:
        return 0
    size = 1 << t.n
    trans = np.zeros(size, dtype=bool)
    for m in range(size):
        trans[m] = transitive_by_degrees(t, m)
    maximal = [
        m
        for m in range(1, size)
        if trans[m]
        and not any(trans[m | 1 << v] for v in bits(t.full_mask & ~m))
    ]
    maximal_arr = np.array(maximal, dtype=np.int64)
    covered = np.zeros(size, dtype=bool)
    frontier = maximal_arr.copy()
    covered[frontier] = True
    level = 1
    full = t.full_mask
    while not covered[full]:
        fresh = []
        for start in range(0, len(frontier), 1024):
            chunk = frontier[start : start + 1024]
            unions = np.unique(chunk[:, None] | maximal_arr[None, :])
            new = unions[~covered[unions]]
            covered[new] = True
            fresh.append(new)
        frontier = np.concatenate(fresh)
        level += 1
    return level


def dom_by_combinations(t: Tournament, mask: int | None = None) -> int:
    """Smallest k such that some k vertices of the subtournament dominate it."""
    if mask is None:
        mask = t.full_mask
    verts = list(bits(mask))
    if not verts:
        return 0
    for k in range(1, len(verts) + 1):
        for picks in itertools.combinations(verts, k):
            hit = 0
            for v in picks:
                hit |= (t.out_sets[v] & mask) | 1 << v
            if hit == mask:
                return k
    return len(verts)


def edom_by_combinations(t: Tournament, a: int) -> int:
    """Smallest X (from all vertices) with a - X dominated from X."""
    if a == 0:
        return 0
    verts = list(range(t.n))
    for k in range(0, t.n + 1):
        for picks in itertools.combinations(verts, k):
            x = sum(1 << v for v in picks)
            hit = x
            for v in picks:
                hit |= t.out_sets[v]
            if a & ~hit == 0:
                return k
    return t.n


def subdom_by_subsets(t: Tournament) -> int:
    return max(
        (dom_by_combinations(t, m) for m in range(1, 1 << t.n)), default=0
    )


def subdom_by_scan(out_sets, n: int, masks=None) -> int:
    """max over the nonempty subsets (or the given masks) of their domination
    number, one exact search per subset: a feasibility test at the best value
    so far, and deepening only where a subset beats it."""
    if n == 0:
        return 0
    full = (1 << n) - 1
    in_sets = [full & ~(o | (1 << v)) for v, o in enumerate(out_sets)]
    best = 0
    for mask in range(1, 1 << n) if masks is None else masks:
        if best >= 1 and dom_search(out_sets, in_sets, mask, mask, best) is not None:
            continue
        k = best + 1
        while dom_search(out_sets, in_sets, mask, mask, k) is None:
            k += 1
        best = k
    return best


def extend_maximal_unpruned(s: int, rest: int, banned: int, can_add):
    """The supersets of s inside s | rest that no vertex of rest or banned can
    extend under a hereditary property, the greedy index-order one first."""
    scan = rest
    while scan:
        b = scan & -scan
        w = b.bit_length() - 1
        if can_add(s, w):
            yield from extend_maximal_unpruned(s | b, scan ^ b, banned, can_add)
            yield from extend_maximal_unpruned(s, scan ^ b, banned | b, can_add)
            return
        scan ^= b
    while banned:
        b = banned & -banned
        if can_add(s, b.bit_length() - 1):
            return
        banned ^= b
    yield s


def min_cover_unpruned(full: int, can_add, set_ok, deadline=None, largest=None):
    """solvers._min_cover without the two-class cut or the class-size bound:
    every maximal part is tried from 2 classes up, and only set_ok rejects a
    last class that lacks the property. deadline and largest are accepted
    for the solver's call signature and ignored."""
    if full == 0:
        return 0, ()
    if set_ok(full):
        return 1, (full,)
    fail_at: dict[int, int] = {}

    def feasible(uncovered: int, k: int, chosen: list[int]) -> bool:
        if uncovered == 0:
            return True
        if fail_at.get(uncovered, 0) >= k:
            return False
        if k == 1:
            if set_ok(uncovered):
                chosen.append(uncovered)
                return True
            return False
        u = (uncovered & -uncovered).bit_length() - 1
        for part in extend_maximal_unpruned(1 << u, uncovered ^ (1 << u), 0, can_add):
            chosen.append(part)
            if feasible(uncovered & ~part, k - 1, chosen):
                return True
            chosen.pop()
        fail_at[uncovered] = k
        return False

    for k in range(2, full.bit_count() + 1):
        chosen: list[int] = []
        if feasible(full, k, chosen):
            return k, tuple(sorted(chosen, key=lambda m: m & -m))
    raise AssertionError("singleton classes always cover")


def graph_chi_by_assignment(g: Graph) -> int:
    """Smallest k admitting a proper colouring, by trying all assignments."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colours in itertools.product(range(k), repeat=g.n):
            if all(
                colours[u] != colours[v]
                for u in range(g.n)
                for v in bits(g.adj[u])
                if u < v
            ):
                return k
    return g.n


def graph_omega_by_subsets(g: Graph) -> int:
    best = 0
    for m in range(1 << g.n):
        vs = list(bits(m))
        if all(g.adj[u] >> v & 1 for u in vs for v in vs if u != v):
            best = max(best, len(vs))
    return best


def _code_of_edges(n: int, beats) -> int:
    # matches the compact file format: pairs scanned (i, j<i) ascending, first pair most significant
    code = 0
    for i in range(n):
        for j in range(i):
            code = code << 1 | (1 if beats(i, j) else 0)
    return code


def canonical_code_by_relabelling(n: int, code: int) -> int:
    """Min lower-triangle code over all relabellings, from scratch."""
    edge = {}
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i):
            pos -= 1
            edge[(i, j)] = code >> pos & 1

    def beats(a: int, b: int) -> bool:
        return bool(edge[(a, b)]) if a > b else not edge[(b, a)]

    best = None
    for perm in itertools.permutations(range(n)):
        relabel = _code_of_edges(n, lambda i, j: beats(perm[i], perm[j]))
        if best is None or relabel < best:
            best = relabel
    return best


def classes_by_bucketing(n: int) -> set[int]:
    """Canonical codes of all 2^C(n,2) tournaments, bucketed by relabelling."""
    m = n * (n - 1) // 2
    return {
        canonical_code_by_relabelling(n, code) for code in range(1 << m)
    }


def max_diamond_by_quadruples(t: Tournament, chi_table) -> int | None:
    """Max over apexes a, b and every nonempty side-subset pair of min side chi."""
    best = None
    for a in range(t.n):
        for b in range(t.n):
            if a == b:
                continue
            p_full = t.out_sets[a] & t.in_set(b)
            q_full = t.in_set(a) & t.out_sets[b]
            if not p_full or not q_full:
                continue
            p_subsets = _nonempty_subsets(p_full)
            q_subsets = _nonempty_subsets(q_full)
            for p in p_subsets:
                for q in q_subsets:
                    value = min(chi_table[p], chi_table[q])
                    if best is None or value > best:
                        best = value
    return best


def _nonempty_subsets(mask: int) -> list[int]:
    sub = mask
    out = []
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def best_pair_by_assignment(t: Tournament, chi_table) -> int:
    """Max quality over all 3^n (a-side, b-side, neither) assignments."""
    best = 0
    for assign in itertools.product(range(3), repeat=t.n):
        a = sum(1 << v for v, side in enumerate(assign) if side == 1)
        b = sum(1 << v for v, side in enumerate(assign) if side == 2)
        if not a or not b:
            continue
        if any(not t.out_sets[u] >> v & 1 for u in bits(a) for v in bits(b)):
            continue
        best = max(best, min(chi_table[a], chi_table[b]))
    return best


def best_pair_by_loop(t: Tournament, chi_table) -> CompletePair:
    """Best complete pair over every b, with a all vertices outside b beating b.

    Keeps the first pair of strictly highest quality, so ties go to the least
    b, and a best quality of 0 gives the empty pair.
    """
    best = CompletePair(0, 0, 0)
    for b in range(1 << t.n):
        a = sum(
            1 << v for v in range(t.n) if not b >> v & 1 and not b & ~t.out_sets[v]
        )
        q = min(int(chi_table[a]), int(chi_table[b]))
        if q > best.quality:
            best = CompletePair(a, b, q)
    return best


def local_sets_by_positions(t: Tournament, perm) -> list[int]:
    """Local sets recomputed with explicit position comparisons."""
    position = {v: i for i, v in enumerate(perm)}
    out = []
    for v in perm:
        s = 0
        for u in range(t.n):
            if u == v:
                continue
            if position[u] < position[v] and t.out_sets[v] >> u & 1:
                s |= 1 << u
            if position[u] > position[v] and t.out_sets[u] >> v & 1:
                s |= 1 << u
        out.append(s)
    return out


def avoids_ordered_by_positions(t: Tournament, perm, h: Tournament, sigma) -> bool:
    """Whether numbering perm of t has no copy of the ordered pattern (h, sigma).

    Tries every increasing tuple of positions and compares the edge of every
    position pair with the pattern's edge between the same pattern positions.
    """
    m = len(sigma)
    for positions in itertools.combinations(range(len(perm)), m):
        if all(
            (t.out_sets[perm[positions[a]]] >> perm[positions[b]] & 1)
            == (h.out_sets[sigma[a]] >> sigma[b] & 1)
            for a, b in itertools.combinations(range(m), 2)
        ):
            return False
    return True
