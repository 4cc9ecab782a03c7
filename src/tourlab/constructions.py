"""Generators for the named tournament families and random instances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .core import (
    CapacityError,
    MAX_VERTICES,
    Numbering,
    Tournament,
    blowup,
    natural_numbering,
)


def transitive_tournament(n: int) -> Tournament:
    """Transitive tournament with i -> j for i < j."""
    if n > MAX_VERTICES:
        raise CapacityError(f"n = {n} exceeds the {MAX_VERTICES}-vertex cap")
    full = (1 << n) - 1
    return Tournament(n, tuple(full & ~((1 << (v + 1)) - 1) for v in range(n)))


def cyclic_triangle() -> Tournament:
    return Tournament(3, (0b010, 0b100, 0b001))


TournamentLike = Union[Tournament, int]


def _as_tournament(x: TournamentLike) -> Tournament:
    if isinstance(x, Tournament):
        return x
    return transitive_tournament(x)


def delta(h1: TournamentLike, h2: TournamentLike, h3: TournamentLike) -> Tournament:
    """Disjoint union of three blocks with A1 => A2 => A3 => A1.

    Blocks keep argument order in the vertex numbering; integers stand for
    transitive tournaments of that size.
    """
    return blowup(cyclic_triangle(), [_as_tournament(h) for h in (h1, h2, h3)])


def s_t(t: int) -> Tournament:
    """The recursive family S_1 = single vertex, S_t = delta(S_{t-1}, S_{t-1}, 1).

    |S_t| = 2^t - 1; capped at t = 6 (63 vertices).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > 6:
        raise CapacityError("s_t capped at t = 6 (63 vertices)")
    cur = transitive_tournament(1)
    for _ in range(t - 1):
        cur = delta(cur, cur, 1)
    return cur


def t_t(t: int) -> Tournament:
    """The recursive family T_1 = single vertex, T_t = delta applied to three copies.

    |T_t| = 3^(t-1); capped at t = 4 (27 vertices).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > 4:
        raise CapacityError("t_t capped at t = 4 (27 vertices)")
    cur = transitive_tournament(1)
    for _ in range(t - 1):
        cur = delta(cur, cur, cur)
    return cur


class ChainPower(NamedTuple):
    t: Tournament
    parts: tuple[int, ...]
    """Vertex masks of the r copies in chain order; part i is complete to part j for i < j."""


def chain_power(h: Tournament, r: int) -> ChainPower:
    """r stacked copies of h, earlier copies complete to later ones."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if r * h.n > MAX_VERTICES:
        raise CapacityError(f"chain power has {r * h.n} vertices, cap is {MAX_VERTICES}")
    t = blowup(transitive_tournament(r), [h] * r)
    parts = tuple(((1 << h.n) - 1) << (i * h.n) for i in range(r))
    return ChainPower(t, parts)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def paley(q: int) -> Tournament:
    """Quadratic-residue tournament on Z_q: x -> y iff x - y is a nonzero square.

    Needs q prime with q = 3 (mod 4) so that exactly one of x - y, y - x is a
    residue; regular of out-degree (q - 1) / 2.
    """
    if q > MAX_VERTICES:
        raise CapacityError(f"q = {q} exceeds the {MAX_VERTICES}-vertex cap")
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError("q must be a prime congruent to 3 mod 4")
    residues = {x * x % q for x in range(1, q)}
    out = [0] * q
    for x in range(q):
        for y in range(q):
            if x != y and (x - y) % q in residues:
                out[x] |= 1 << y
    return Tournament(q, tuple(out))


def k_majority(orderings: Sequence[Numbering], k: int) -> Tournament:
    """u -> v iff v comes later than u in at least k of the 2k-1 orderings."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(orderings) != 2 * k - 1:
        raise ValueError(f"need exactly {2 * k - 1} orderings, got {len(orderings)}")
    n = len(orderings[0])
    if any(len(o) != n for o in orderings):
        raise ValueError("orderings cover different vertex sets")
    positions = [o.position_of() for o in orderings]
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            later = sum(1 for pos in positions if pos[v] > pos[u])
            if later >= k:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return Tournament(n, tuple(out))


@dataclass(frozen=True)
class IntegerMatching:
    """Pairs of integers (a, b) with a < b and all endpoints distinct."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if a >= b:
                raise ValueError(f"pair ({a}, {b}) is not increasing")
            for e in (a, b):
                if e in seen:
                    raise ValueError(f"endpoint {e} used twice")
                seen.add(e)

    def __len__(self) -> int:
        return len(self.pairs)

    def endpoints(self) -> list[int]:
        return sorted(e for p in self.pairs for e in p)

    def normalized(self) -> "IntegerMatching":
        """Order-preserving relabelling of the endpoints to 1..2|pairs|.

        Pairs come out sorted by second coordinate, matching the canonical
        vertex order of the crossing construction.
        """
        rank = {e: i + 1 for i, e in enumerate(self.endpoints())}
        pairs = sorted(((rank[a], rank[b]) for a, b in self.pairs), key=lambda p: p[1])
        return IntegerMatching(tuple(pairs))

    def shifted(self, offset: int) -> "IntegerMatching":
        return IntegerMatching(tuple((a + offset, b + offset) for a, b in self.pairs))


class CrossingTournament(NamedTuple):
    t: Tournament
    matching: IntegerMatching
    numbering: Numbering
    """Canonical numbering: vertices already sit in ascending order of second coordinate."""


def crossing(m: IntegerMatching) -> CrossingTournament:
    """Tournament on the pairs of a matching under the crossing rule.

    Vertex (c, d) is adjacent from (a, b) iff a < d and (c < a or c > b).
    The matching is renormalized to endpoints 1..2|m| first; vertex i is the
    pair with the i-th smallest second coordinate, which is the canonical
    numbering all the crossing results reason about.
    """
    norm = m.normalized()
    pairs = norm.pairs
    n = len(pairs)
    if n > MAX_VERTICES:
        raise CapacityError(f"matching has {n} pairs, cap is {MAX_VERTICES}")
    out = [0] * n
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i != j and a < d and (c < a or c > b):
                out[i] |= 1 << j
    return CrossingTournament(Tournament(n, tuple(out)), norm, natural_numbering(n))


def ramsey_amplify(p: IntegerMatching, bigN: int) -> IntegerMatching:
    """The edge-indexed matching Q = {((a-1)N + b, (b-1)N + a) : 1 <= a < b <= N}.

    One pair per edge of K_N, so |Q| = C(N, 2). Whether N is actually large
    enough that every 2-colouring of Q leaves a monochromatic copy of p is a
    Ramsey condition the caller must supply; it is never computed here.
    """
    if bigN < 2:
        raise ValueError("bigN must be at least 2")
    if len(p) < 1:
        raise ValueError("p must be a nonempty matching")
    pairs = []
    for a in range(1, bigN + 1):
        for b in range(a + 1, bigN + 1):
            pairs.append(((a - 1) * bigN + b, (b - 1) * bigN + a))
    return IntegerMatching(tuple(sorted(pairs, key=lambda q: q[1])))


class UkTournament(NamedTuple):
    t: Tournament
    matching: IntegerMatching
    numbering: Numbering


def u_k(k: int, ramsey_witnesses: Sequence[int] = ()) -> UkTournament:
    """Inductive crossing tournament forcing backedge cliques at every numbering.

    Level 1 is a single pair. Level k amplifies the previous matching with
    the caller-supplied threshold N = ramsey_witnesses[k-2] into Q (|Q| = q
    pairs, renormalized to 1..2q), then assembles
    R = {(i, b_i)} with b_i = k + 1 + (2q+1) * i for 1 <= i <= k, and
    S = R plus k-1 copies of Q shifted by b_1, ..., b_{k-1}.
    The clique guarantee holds only when every witness meets its Ramsey
    condition; the construction reports what it used and promises no more.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(ramsey_witnesses) != k - 1:
        raise ValueError(f"need {k - 1} ramsey witnesses, got {len(ramsey_witnesses)}")
    if k == 1:
        m = IntegerMatching(((1, 2),))
        c = crossing(m)
        return UkTournament(c.t, c.matching, c.numbering)
    prev = u_k(k - 1, ramsey_witnesses[: k - 2])
    big_n = ramsey_witnesses[k - 2]
    q_matching = ramsey_amplify(prev.matching, big_n).normalized()
    q = len(q_matching)
    if k + (k - 1) * q > MAX_VERTICES:
        raise CapacityError(
            f"u_k needs {k + (k - 1) * q} vertices, cap is {MAX_VERTICES}"
        )
    b = [k + 1 + (2 * q + 1) * i for i in range(1, k + 1)]
    pairs = [(i, b[i - 1]) for i in range(1, k + 1)]
    for i in range(1, k):
        pairs.extend(q_matching.shifted(b[i - 1]).pairs)
    c = crossing(IntegerMatching(tuple(pairs)))
    return UkTournament(c.t, c.matching, c.numbering)


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament from numpy's PCG64 stream.

    One bit per unordered pair in lexicographic pair order, so a given
    (n, seed) reproduces the same tournament everywhere.
    """
    if n > MAX_VERTICES:
        raise CapacityError(f"n = {n} exceeds the {MAX_VERTICES}-vertex cap")
    rng = np.random.Generator(np.random.PCG64(seed))
    m = n * (n - 1) // 2
    coin = rng.integers(0, 2, size=m)
    out = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if coin[idx]:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
            idx += 1
    return Tournament(n, tuple(out))


def random_numbering(n: int, seed: int) -> Numbering:
    """Uniform random numbering from the same PCG64 stream family."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Numbering(tuple(int(v) for v in rng.permutation(n)))
