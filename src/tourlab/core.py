"""Tournament and numbering data model plus elementary structural operations.

Vertices are integers 0..n-1 and every vertex subset is an int bitmask, so a
subset fits one machine word up to the capacity of 64 vertices. All types are
immutable values; every operation is a pure function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

MAX_VERTICES = 64


class CapacityError(Exception):
    """Input exceeds a documented size cap."""


class DeadlineExceeded(Exception):
    """A cooperative deadline expired inside a long search."""


class Deadline:
    """Wall-clock budget checked cooperatively inside search loops."""

    def __init__(self, seconds: float):
        self.expiry = time.monotonic() + seconds

    def check(self):
        if time.monotonic() > self.expiry:
            raise DeadlineExceeded("search exceeded its deadline")

    def expired(self) -> bool:
        return time.monotonic() > self.expiry


def bits(mask: int):
    """Vertex indices of a bitmask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Tournament:
    """Complete orientation of K_n stored as per-vertex out-neighbour bitsets."""

    n: int
    out_sets: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.out_sets) != self.n:
            raise ValueError("out_sets length differs from n")
        full = (1 << self.n) - 1
        for v, out in enumerate(self.out_sets):
            if out & ~full:
                raise ValueError(f"out_sets[{v}] leaves the vertex range")
            if out & (1 << v):
                raise ValueError(f"vertex {v} lists itself as an out-neighbour")
            for u in bits(out):
                if self.out_sets[u] & (1 << v):
                    raise ValueError(f"edge between {u} and {v} oriented both ways")
        degsum = sum(o.bit_count() for o in self.out_sets)
        if degsum != self.n * (self.n - 1) // 2:
            raise ValueError("some vertex pair has no edge")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def out_set(self, v: int) -> int:
        return self.out_sets[v]

    def in_set(self, v: int) -> int:
        return self.full_mask & ~(self.out_sets[v] | (1 << v))

    def has_edge(self, u: int, v: int) -> bool:
        """True iff u -> v."""
        return bool(self.out_sets[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out_sets[v].bit_count()


def tournament_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Tournament:
    """Build a tournament from an explicit list of directed edges (u, v) = u -> v."""
    out = [0] * n
    for u, v in edges:
        out[u] |= 1 << v
    return Tournament(n, tuple(out))


@dataclass(frozen=True)
class Numbering:
    """A permutation of 0..n-1; perm[0] is numbered first."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.perm)

    def position_of(self) -> tuple[int, ...]:
        """Inverse permutation: position_of()[v] = position of vertex v."""
        pos = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            pos[v] = i
        return tuple(pos)


def natural_numbering(n: int) -> Numbering:
    return Numbering(tuple(range(n)))


@dataclass(frozen=True)
class OrderedTournament:
    t: Tournament
    order: Numbering

    def __post_init__(self):
        if not isinstance(self.order, Numbering):
            object.__setattr__(self, "order", Numbering(tuple(self.order)))
        if len(self.order) != self.t.n:
            raise ValueError("numbering length differs from vertex count")


@dataclass(frozen=True)
class Graph:
    """Undirected graph as symmetric adjacency bitsets, no loops."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adj length differs from n")
        full = (1 << self.n) - 1
        adj = self.adj
        for v, a in enumerate(adj):
            if a & ~full:
                raise ValueError(f"adj[{v}] leaves the vertex range")
            if a & (1 << v):
                raise ValueError(f"loop at vertex {v}")
            while a:
                low = a & -a
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at {u},{v}")
                a ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


class InducedTournament(NamedTuple):
    sub: Tournament
    vertices: tuple[int, ...]
    """vertices[k] is the original index of compressed vertex k (ascending)."""


class InducedGraph(NamedTuple):
    sub: Graph
    vertices: tuple[int, ...]


def induce_graph(g: Graph, s: int) -> InducedGraph:
    """Subgraph on the vertex set s, compressed like induce."""
    if s & ~g.full_mask:
        raise ValueError("s is not a subset of the vertex set")
    verts = tuple(bits(s))
    new_index = {v: k for k, v in enumerate(verts)}
    adj = []
    for v in verts:
        m = 0
        for u in bits(g.adj[v] & s):
            m |= 1 << new_index[u]
        adj.append(m)
    return InducedGraph(Graph(len(verts), tuple(adj)), verts)


def induce(t: Tournament, s: int) -> InducedTournament:
    """Subtournament on the vertex set s, compressed to indices 0..|s|-1.

    The compression map follows ascending order of original indices and is
    returned explicitly so callers never guess it.
    """
    if s & ~t.full_mask:
        raise ValueError("s is not a subset of the vertex set")
    verts = tuple(bits(s))
    new_index = {v: k for k, v in enumerate(verts)}
    out = []
    for v in verts:
        m = 0
        for u in bits(t.out_sets[v] & s):
            m |= 1 << new_index[u]
        out.append(m)
    return InducedTournament(Tournament(len(verts), tuple(out)), verts)


def reverse(t: Tournament) -> Tournament:
    """Reverse the direction of all edges; an involution."""
    return Tournament(t.n, tuple(t.in_set(v) for v in range(t.n)))


def is_transitive(t: Tournament) -> bool:
    """True iff no cyclic triangle; equivalently the out-degrees are 0..n-1."""
    return sorted(o.bit_count() for o in t.out_sets) == list(range(t.n))


def is_transitive_set(t: Tournament, s: int) -> bool:
    """True iff the subtournament induced on s has no cyclic triangle."""
    rem = s
    while rem:
        b = rem & -rem
        v = b.bit_length() - 1
        rem ^= b
        outs = t.out_sets[v] & s
        ins = t.in_set(v) & s
        for u in bits(outs):
            if t.out_sets[u] & ins:
                return False
    return True


def complete_to(t: Tournament, a: int, b: int) -> bool:
    """True iff every edge between a and b is directed a -> b (a => b)."""
    if a & b:
        raise ValueError("a and b must be disjoint")
    for v in bits(a):
        if b & ~t.out_sets[v]:
            return False
    return True


def backedge_sets(ot: OrderedTournament) -> list[int]:
    """Backedge neighbourhood of each vertex, indexed by vertex.

    v's neighbours are its out-neighbours numbered before it plus its
    in-neighbours numbered after it, which is out(v) ^ after(v) with after(v)
    the vertices numbered after v: one O(n) pass. The same masks are the
    local sets of structure.local_sets.
    """
    t = ot.t
    adj = [0] * t.n
    after = t.full_mask
    for v in ot.order.perm:
        after ^= 1 << v
        adj[v] = t.out_sets[v] ^ after
    return adj


def numberings(
    t: Tournament,
    cut: Optional[Callable[[int, int, int], bool]] = None,
    deadline: Optional[Deadline] = None,
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every numbering of t in itertools.permutations order, as (perm, rows).

    The walk places one vertex at a time, trying the unplaced vertices in
    increasing index order. rows[v] is v's backedge set (backedge_sets),
    out(v) ^ (the unplaced vertices minus v), which is final the moment v is
    placed. The one rows list is updated in place and yielded with every
    numbering, so a caller copies what it keeps. If cut(v, placed, row) is
    true, v is not placed after the prefix whose vertex set is placed, and
    every numbering beginning with that prefix plus v is skipped. The
    deadline is checked once per step: each vertex tried and each backtrack.
    """
    n, out, full = t.n, t.out_sets, t.full_mask
    rows = [0] * n
    if n == 0:
        if deadline is not None:
            deadline.check()
        yield (), rows
        return
    perm: list[int] = []
    todo = [full]  # todo[k]: the vertices still to try at position k
    placed = 0
    while todo:
        if deadline is not None:
            deadline.check()
        rest = todo[-1]
        if not rest:
            todo.pop()
            if perm:
                placed ^= 1 << perm.pop()
            continue
        b = rest & -rest
        todo[-1] = rest ^ b
        v = b.bit_length() - 1
        row = out[v] ^ full ^ placed ^ b
        if cut is not None and cut(v, placed, row):
            continue
        rows[v] = row
        perm.append(v)
        placed |= b
        if placed == full:
            yield tuple(perm), rows
            perm.pop()
            placed ^= b
        else:
            todo.append(full ^ placed)


def backedge_graph(ot: OrderedTournament) -> Graph:
    """Graph joining numbering pairs whose tournament edge points right to left.

    For positions i < j, {v_i, v_j} is an edge iff v_j -> v_i in the
    tournament; adj[v] is backedge_sets(ot)[v]. Round-trips with
    tournament_from_backedge.
    """
    return Graph(ot.t.n, tuple(backedge_sets(ot)))


def tournament_from_backedge(g: Graph, nb: Numbering) -> OrderedTournament:
    """The unique ordered tournament whose backedge graph under nb is g."""
    if len(nb) != g.n:
        raise ValueError("numbering length differs from graph order")
    perm = nb.perm
    out = [0] * g.n
    for i in range(g.n):
        vi = perm[i]
        for j in range(i + 1, g.n):
            vj = perm[j]
            if g.adj[vi] >> vj & 1:
                out[vj] |= 1 << vi
            else:
                out[vi] |= 1 << vj
    return OrderedTournament(Tournament(g.n, tuple(out)), nb)


def contains(g: Tournament, h: Tournament) -> Optional[tuple[int, ...]]:
    """Injective map realizing h as a subtournament of g, or None if g is h-free.

    Exact backtracking; the returned tuple maps h-vertex k to image[k] in g.
    Assigns h-vertices in descending out-degree order and prunes candidates
    whose out-degree in g is below the h-vertex's out-degree.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    hdeg = sorted((o.bit_count() for o in h.out_sets), reverse=True)
    gdeg = sorted((o.bit_count() for o in g.out_sets), reverse=True)
    if any(hd > gd for hd, gd in zip(hdeg, gdeg)):
        return None
    order = sorted(range(h.n), key=lambda v: (-h.out_degree(v), v))
    image = [-1] * h.n
    used = 0

    def extend(k: int) -> bool:
        nonlocal used
        if k == h.n:
            return True
        hv = order[k]
        need_out = h.out_degree(hv)
        for cand in range(g.n):
            cbit = 1 << cand
            if used & cbit:
                continue
            if g.out_degree(cand) < need_out:
                continue
            ok = True
            for j in range(k):
                hj = order[j]
                if h.has_edge(hv, hj) != g.has_edge(cand, image[hj]):
                    ok = False
                    break
            if not ok:
                continue
            image[hv] = cand
            used |= cbit
            if extend(k + 1):
                return True
            used &= ~cbit
            image[hv] = -1
        return False

    if extend(0):
        return tuple(image)
    return None


def blowup(t: Tournament, parts: list[Tournament]) -> Tournament:
    """Substitute parts[i] for vertex i; between parts, edges follow t."""
    if len(parts) != t.n:
        raise ValueError("need exactly one part per vertex of t")
    sizes = [p.n for p in parts]
    total = sum(sizes)
    if total > MAX_VERTICES:
        raise CapacityError(f"blow-up has {total} vertices, cap is {MAX_VERTICES}")
    offsets = []
    acc = 0
    for s in sizes:
        offsets.append(acc)
        acc += s
    out = [0] * total
    for i, p in enumerate(parts):
        base = offsets[i]
        for v in range(p.n):
            m = 0
            for u in bits(p.out_sets[v]):
                m |= 1 << (base + u)
            out[base + v] = m
    for i in range(t.n):
        for j in bits(t.out_sets[i]):
            block_j = ((1 << sizes[j]) - 1) << offsets[j]
            for v in range(sizes[i]):
                out[offsets[i] + v] |= block_j
    return Tournament(total, tuple(out))


def isomorphic(g: Tournament, h: Tournament) -> bool:
    """Whole-tournament isomorphism, exposed as containment at equal sizes."""
    return g.n == h.n and contains(g, h) is not None
