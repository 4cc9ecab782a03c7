import itertools
import random
import re

import pytest

import oracles as orc

from tourlab import (
    CapacityError,
    Deadline,
    DeadlineExceeded,
    Graph,
    Numbering,
    OrderedTournament,
    Tournament,
    backedge_graph,
    bits,
    blowup,
    complete_to,
    contains,
    cyclic_triangle,
    graph_from_edges,
    induce,
    induce_graph,
    is_transitive,
    is_transitive_set,
    isomorphic,
    mask_of,
    natural_numbering,
    random_tournament,
    reverse,
    s_t,
    tournament_from_backedge,
    tournament_from_edges,
    transitive_tournament,
)
from tourlab.core import numberings


def test_bits_and_mask_roundtrip():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert list(bits(0)) == []


def test_tournament_validation():
    with pytest.raises(ValueError):
        Tournament(2, (0b01, 0b00))  # self-loop at 0
    with pytest.raises(ValueError):
        Tournament(2, (0b10, 0b01))  # edge both ways
    with pytest.raises(ValueError):
        Tournament(2, (0, 0))  # missing edge
    with pytest.raises(ValueError):
        Tournament(2, (0b110, 0))  # out of range
    with pytest.raises(CapacityError):
        Tournament(65, tuple([0] * 65))


def test_out_in_degrees_partition_each_pair():
    t = random_tournament(9, seed=4)
    for v in range(t.n):
        assert t.out_set(v) & t.in_set(v) == 0
        assert t.out_set(v) | t.in_set(v) | 1 << v == t.full_mask
        assert t.out_degree(v) == t.out_set(v).bit_count()
    assert sum(t.out_degree(v) for v in range(t.n)) == t.n * (t.n - 1) // 2


def test_edges_roundtrip():
    edges = [(0, 1), (2, 1), (0, 2)]
    t = tournament_from_edges(3, edges)
    assert t.has_edge(0, 1) and t.has_edge(2, 1) and t.has_edge(0, 2)
    with pytest.raises(ValueError):
        tournament_from_edges(3, edges[:2])  # incomplete
    with pytest.raises(ValueError):
        tournament_from_edges(3, edges + [(1, 0)])  # duplicated pair


def test_cyclic_triangle_shape():
    t = cyclic_triangle()
    assert [t.out_degree(v) for v in range(3)] == [1, 1, 1]
    assert not is_transitive(t)
    assert is_transitive(transitive_tournament(6))


def test_transitive_set_matches_degree_oracle():
    for seed in range(4):
        t = random_tournament(6, seed)
        for mask in range(1 << 6):
            assert is_transitive_set(t, mask) == orc.transitive_by_degrees(t, mask)


def test_induce_compresses_ascending():
    t = tournament_from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 1), (3, 1), (2, 3)])
    sub, vertices = induce(t, 0b1101)  # drop vertex 1
    assert vertices == (0, 2, 3)
    assert sub.n == 3
    assert sub.has_edge(0, 1) == t.has_edge(0, 2)
    assert sub.has_edge(1, 2) == t.has_edge(2, 3)
    empty, none = induce(t, 0)
    assert empty.n == 0 and none == ()


def test_reverse_is_involution_and_flips():
    t = random_tournament(7, seed=1)
    r = reverse(t)
    assert reverse(r) == t
    for u in range(t.n):
        for v in range(t.n):
            if u != v:
                assert t.has_edge(u, v) == r.has_edge(v, u)


def test_complete_to_and_disjointness():
    t = transitive_tournament(4)
    assert complete_to(t, 0b0011, 0b1100)
    assert not complete_to(t, 0b1100, 0b0011)
    with pytest.raises(ValueError):
        complete_to(t, 0b0011, 0b0110)


def test_backedge_graph_roundtrip():
    t = random_tournament(8, seed=3)
    nb = Numbering((3, 1, 4, 0, 2, 6, 5, 7))
    ot = OrderedTournament(t, nb)
    g = backedge_graph(ot)
    for i in range(t.n):
        for j in range(i + 1, t.n):
            expected = t.has_edge(nb.perm[j], nb.perm[i])
            assert bool(g.adj[nb.perm[i]] >> nb.perm[j] & 1) == expected
    assert tournament_from_backedge(g, nb).t == t


def test_contains_finds_and_rejects():
    s2 = s_t(2)
    assert contains(s2, cyclic_triangle()) is not None
    assert contains(transitive_tournament(5), cyclic_triangle()) is None
    image = contains(s_t(3), s2)
    assert image is not None
    sub = induce(s_t(3), mask_of(image))[0]
    # witness image really induces a copy
    assert isomorphic(sub, s2)


def test_contains_matches_exhaustive_search(corpus):
    import itertools

    for t in corpus[5]:
        for h in corpus[3]:
            found = any(
                all(
                    t.has_edge(img[a], img[b]) == h.has_edge(a, b)
                    for a in range(3)
                    for b in range(3)
                    if a != b
                )
                for img in itertools.permutations(range(5), 3)
            )
            assert (contains(t, h) is not None) == found


def test_blowup_structure():
    parts = [transitive_tournament(2), cyclic_triangle(), transitive_tournament(1)]
    t = blowup(cyclic_triangle(), parts)
    assert t.n == 6
    # part 0 = {0,1}, part 1 = {2,3,4}, part 2 = {5}; template C3: 0->1->2->0
    assert complete_to(t, 0b000011, 0b011100)
    assert complete_to(t, 0b011100, 0b100000)
    assert complete_to(t, 0b100000, 0b000011)
    assert t.has_edge(0, 1) and t.has_edge(2, 3)
    with pytest.raises(ValueError):
        blowup(cyclic_triangle(), parts[:2])


def test_isomorphic_basic():
    assert isomorphic(cyclic_triangle(), reverse(cyclic_triangle()))
    assert not isomorphic(cyclic_triangle(), transitive_tournament(3))


def test_numbering_validation():
    with pytest.raises(ValueError):
        Numbering((0, 2))
    with pytest.raises(ValueError):
        Numbering((0, 0, 1))
    nb = Numbering((2, 0, 1))
    assert nb.position_of() == (1, 2, 0)
    assert natural_numbering(3).perm == (0, 1, 2)
    with pytest.raises(ValueError):
        OrderedTournament(cyclic_triangle(), Numbering((0, 1)))


def test_graph_validation_and_induce():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sub, vertices = induce_graph(g, 0b1011)
    assert vertices == (0, 1, 3)
    assert sub.adj == (0b010, 0b001, 0b000)  # only the 0-1 edge survives


def test_graph_validation_names_the_first_bad_entry():
    # vertex by vertex: the range, then a loop, then symmetry in increasing
    # neighbour order
    for adj, message in (
        ((0b110, 0b001, 0), "adjacency not symmetric at 2,0"),
        ((0b110, 0, 0), "adjacency not symmetric at 1,0"),
        ((0, 0b100, 0), "adjacency not symmetric at 2,1"),
        ((0b010, 0, 0b1000), "adjacency not symmetric at 1,0"),
        ((0b010, 0b001, 0b1000), "adj[2] leaves the vertex range"),
        ((0b1001, 0, 0), "adj[0] leaves the vertex range"),
        ((0b010, 0b011, 0), "loop at vertex 1"),
        ((0b011, 0, 0), "loop at vertex 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(3, adj)
    assert Graph(3, (0b110, 0b101, 0b011)).adj == (0b110, 0b101, 0b011)


def test_deadline_expires():
    d = Deadline(-1.0)
    assert d.expired()
    with pytest.raises(DeadlineExceeded):
        d.check()
    assert not Deadline(60.0).expired()


def test_numberings_walk_every_permutation_in_order(corpus):
    classes = [transitive_tournament(0)] + [t for n in range(1, 6) for t in corpus[n]]
    for t in classes:
        walked = []
        for perm, rows in numberings(t):
            assert [rows[v] for v in perm] == orc.local_sets_by_positions(t, perm)
            walked.append(perm)
        assert walked == list(itertools.permutations(range(t.n)))


def test_numberings_cut_drops_exactly_the_cut_prefixes(corpus):
    classes = [t for n in range(1, 6) for t in corpus[n]]
    classes += [random_tournament(6, seed) for seed in range(3)]
    for seed, t in enumerate(classes):
        def cuts(v, placed):
            # a fixed pseudo-random verdict per (placed vertex set, next vertex)
            return random.Random(f"{seed}:{placed}:{v}").random() < 0.15

        def cut(v, placed, row):
            assert row == t.out_sets[v] ^ (t.full_mask & ~placed & ~(1 << v))
            return cuts(v, placed)

        want = [perm for perm in itertools.permutations(range(t.n))
                if not any(cuts(perm[k], mask_of(perm[:k])) for k in range(t.n))]
        assert [perm for perm, _ in numberings(t, cut)] == want


def test_numberings_honour_deadline():
    for t in (transitive_tournament(0), cyclic_triangle(), random_tournament(8, 0)):
        with pytest.raises(DeadlineExceeded):
            next(numberings(t, deadline=Deadline(-1.0)))
