import itertools
import time

import numpy as np
import pytest

import oracles as orc

import tourlab.structure as structure
from tourlab import (
    CapacityError,
    CompletePair,
    Deadline,
    DeadlineExceeded,
    Diamond,
    Numbering,
    OrderedTournament,
    Ring,
    backedge_graph,
    best_complete_pair,
    bits,
    c_good,
    cardinality_submeasure,
    chi,
    chi_all_subsets,
    chi_submeasure,
    complete_to,
    cyclic_triangle,
    delta,
    density_in,
    density_out,
    diamond_free_numbering,
    dom,
    find_ring,
    graph_chi,
    inout_witness,
    is_ordered_poset,
    is_poset_tournament,
    local_chromatic_number,
    local_sets,
    mask_of,
    max_diamond,
    min_local_numbering,
    natural_numbering,
    numbering_clique,
    ordered_contains,
    out_density_evidence,
    paley,
    random_tournament,
    s_t,
    strong_chromatic_number,
    tournament_from_edges,
    transitive_tournament,
    validate_complete_pair,
    validate_diamond,
    validate_ring,
)


def _double_triangle():
    """a=0 beats triangle {1,2,3}, which beats b=4, which beats triangle {5,6,7}, which beats a."""
    edges = []
    tri1, tri2 = [1, 2, 3], [5, 6, 7]
    for p in tri1:
        edges.append((0, p))
        edges.append((p, 4))
    for q in tri2:
        edges.append((4, q))
        edges.append((q, 0))
    edges += [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 5)]
    edges.append((0, 4))
    for p in tri1:
        for q in tri2:
            edges.append((p, q))
    return tournament_from_edges(8, edges)


def test_diamond_validation():
    t = _double_triangle()
    good = Diamond(0, 4, mask_of([1, 2, 3]), mask_of([5, 6, 7]))
    validate_diamond(t, good)
    with pytest.raises(ValueError):
        validate_diamond(t, Diamond(0, 4, 0, mask_of([5])))  # empty side
    with pytest.raises(ValueError):
        validate_diamond(t, Diamond(0, 0, mask_of([1]), mask_of([5])))
    with pytest.raises(ValueError):
        validate_diamond(t, Diamond(0, 4, mask_of([1, 5]), mask_of([6])))
    with pytest.raises(ValueError):
        validate_diamond(t, Diamond(4, 0, mask_of([1, 2, 3]), mask_of([5, 6, 7])))


def test_max_diamond_matches_quadruple_oracle(corpus):
    for n in range(2, 6):
        for t in corpus[n]:
            tbl = chi_all_subsets(t)
            expected = orc.max_diamond_by_quadruples(t, tbl)
            got = max_diamond(t)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.value == expected
                validate_diamond(t, got.diamond)


def test_max_diamond_absent_on_transitive():
    assert max_diamond(transitive_tournament(6)) is None
    assert max_diamond(cyclic_triangle()) is None  # no vertex pair has both sides
    with pytest.raises(CapacityError):
        max_diamond(random_tournament(16, seed=0))


def test_max_diamond_on_double_triangle():
    got = max_diamond(_double_triangle())
    assert got is not None and got.value == 2


def test_best_complete_pair_matches_assignment_oracle(corpus):
    for t in corpus[5]:
        tbl = chi_all_subsets(t)
        got = best_complete_pair(t)
        assert got.exact
        assert got.pair.quality == orc.best_pair_by_assignment(t, tbl)
        validate_complete_pair(t, got.pair)


def test_best_complete_pair_matches_loop_oracle(corpus):
    inputs = [t for n in range(1, 7) for t in corpus[n]]
    inputs += [paley(7), paley(11), s_t(4)]
    inputs += [transitive_tournament(n) for n in range(3)]
    inputs += [random_tournament(n, seed=n) for n in range(7, 16)]
    for t in inputs:
        want = orc.best_pair_by_loop(t, chi_all_subsets(t))
        assert best_complete_pair(t) == (want, True)


def test_best_complete_pair_heuristic_flagged():
    t = random_tournament(18, seed=6)
    got = best_complete_pair(t)
    assert not got.exact
    validate_complete_pair(t, got.pair)


def test_complete_pair_validation():
    t = transitive_tournament(4)
    validate_complete_pair(t, CompletePair(0b0011, 0b1100, 1))
    with pytest.raises(ValueError):
        validate_complete_pair(t, CompletePair(0b1100, 0b0011, 1))  # wrong direction
    with pytest.raises(ValueError):
        validate_complete_pair(t, CompletePair(0b0011, 0b1100, 2))  # wrong quality


def test_c_good():
    t = _double_triangle()
    assert c_good(t, 0)
    assert c_good(t, -1)
    assert c_good(t, 2)
    assert not c_good(t, 3)


def test_local_sets_match_position_oracle(corpus):
    cases = [(t, perm) for n in range(1, 6) for t in corpus[n]
             for perm in itertools.permutations(range(n))]
    for n, seed in ((12, 0), (12, 1), (40, 2), (40, 3)):
        perm = tuple(int(v) for v in np.random.Generator(np.random.PCG64(seed)).permutation(n))
        cases.append((random_tournament(n, seed), perm))
    for t, perm in cases:
        ot = OrderedTournament(t, Numbering(perm))
        want = orc.local_sets_by_positions(t, perm)
        assert local_sets(ot) == want
        # the local set of v is its backedge neighbourhood
        adj = backedge_graph(ot).adj
        assert [adj[v] for v in perm] == want


def test_local_chromatic_number_golden():
    t = cyclic_triangle()
    # natural order: vertex 1 sees backward-out 2? no; it sees forward-in set {2}
    assert local_chromatic_number(OrderedTournament(t, natural_numbering(3))) == 1
    tr = transitive_tournament(5)
    assert local_chromatic_number(OrderedTournament(tr, natural_numbering(5))) == 0
    rev = Numbering((4, 3, 2, 1, 0))
    assert local_chromatic_number(OrderedTournament(tr, rev)) == 1


def test_strong_and_clique_numbers():
    tr = transitive_tournament(4)
    rev = OrderedTournament(tr, Numbering((3, 2, 1, 0)))
    # every edge is a backedge: neighbourhood chromatic numbers of K4 minus a vertex
    assert numbering_clique(rev) == 4
    assert strong_chromatic_number(rev) == 3
    nat = OrderedTournament(tr, natural_numbering(4))
    assert numbering_clique(nat) == 1
    assert strong_chromatic_number(nat) == 0


def test_sandwich_on_ordered_corpus(corpus):
    for t in corpus[4]:
        value = chi(t).value
        for perm in itertools.permutations(range(4)):
            ot = OrderedTournament(t, Numbering(perm))
            g = backedge_graph(ot)
            assert value <= graph_chi(g) <= numbering_clique(ot) * value


def test_diamond_free_numbering_returns_numbering_when_no_rich_diamond():
    got = diamond_free_numbering(cyclic_triangle(), 0)
    assert isinstance(got, Numbering)
    got = diamond_free_numbering(paley(7), 1)
    assert isinstance(got, Numbering)
    with pytest.raises(ValueError):
        diamond_free_numbering(cyclic_triangle(), -1)


def test_diamond_free_numbering_extracts_diamond_from_cycle():
    t = _double_triangle()
    got = diamond_free_numbering(t, 0)
    assert isinstance(got, Diamond)
    validate_diamond(t, got)
    tbl = chi_all_subsets(t)
    assert min(int(tbl[got.p]), int(tbl[got.q])) > 0


def test_diamond_free_numbering_rich_threshold():
    # at c = 1 the double triangle has no chi >= 4 gap sets, so H is acyclic
    got = diamond_free_numbering(_double_triangle(), 1)
    assert isinstance(got, Numbering)


def _min_local_by_enumeration(t):
    tbl = chi_all_subsets(t)
    best = t.n + 1
    for perm in itertools.permutations(range(t.n)):
        ot = OrderedTournament(t, Numbering(perm))
        best = min(best, local_chromatic_number(ot, table=tbl))
    return best


def test_min_local_numbering_exact_matches_enumeration(corpus):
    for n in (3, 4):
        for t in corpus[n]:
            nb, value = min_local_numbering(t)
            assert value == _min_local_by_enumeration(t)
            ot = OrderedTournament(t, Numbering(nb.perm))
            assert local_chromatic_number(ot) == value
    for seed in range(3):
        t = random_tournament(6, seed)
        nb, value = min_local_numbering(t)
        assert value == _min_local_by_enumeration(t)


def test_min_local_numbering_returns_first_minimal_permutation(corpus):
    for t in [t for n in range(1, 7) for t in corpus[n]] + [s_t(3)]:
        tbl = chi_all_subsets(t).tolist()

        def value(perm):
            return max(tbl[s] for s in orc.local_sets_by_positions(t, perm))

        first = min(itertools.permutations(range(t.n)), key=value)  # min keeps the first
        nb, got = min_local_numbering(t)
        assert (nb.perm, got) == (first, value(first))


def test_min_local_numbering_modes_and_caps():
    t = random_tournament(10, seed=0)
    with pytest.raises(CapacityError):
        min_local_numbering(t)
    nb, value = min_local_numbering(t, mode="heuristic")
    assert sorted(nb.perm) == list(range(10))
    assert value == local_chromatic_number(OrderedTournament(t, nb))
    with pytest.raises(ValueError):
        min_local_numbering(t, mode="fast")


def test_density_counts():
    t = transitive_tournament(5)
    mu = cardinality_submeasure()
    p, q = 0b00011, 0b11100
    # every p vertex beats all three of q
    assert density_out(t, p, q, 2, mu) == 0
    assert density_out(t, p, q, 3, mu) == p
    assert density_in(t, p, q, 0, mu) == p
    with pytest.raises(ValueError):
        density_out(t, 0b00111, 0b00100, 1, mu)


def test_density_evidence_shapes():
    t = paley(7)
    mu = chi_submeasure(t)
    p, q = 0b0001111, 0b1110000
    ev = out_density_evidence(t, p, q, mu, g=lambda c: 0.0, k=100.0, samples=20)
    assert ev.evidence_only
    assert ev.cases_checked > 0
    assert ev.violations == ()
    ev2 = out_density_evidence(t, p, q, mu, g=lambda c: 0.0, k=0.0, samples=20)
    assert len(ev2.violations) > 0


def test_ring_of_delta_parts():
    d = delta(cyclic_triangle(), cyclic_triangle(), cyclic_triangle())
    parts = [0b000000111, 0b000111000, 0b111000000]
    nxt = {parts[1]: parts[0], parts[2]: parts[1], parts[0]: parts[2]}
    ring = find_ring(d, parts, lambda x: nxt[x])
    assert ring is not None and len(ring.sets) == 3
    validate_ring(d, ring)
    assert find_ring(d, parts, lambda x: None) is None
    with pytest.raises(ValueError):
        Ring((parts[0], parts[1]))


def test_ordered_contains_basics():
    t = random_tournament(6, seed=8)
    ot = OrderedTournament(t, Numbering((3, 0, 5, 1, 4, 2)))
    assert ordered_contains(ot, ot) == (0, 1, 2, 3, 4, 5)
    fwd = OrderedTournament(transitive_tournament(2), natural_numbering(2))
    pos = ordered_contains(ot, fwd)
    assert pos is not None and pos[0] < pos[1]
    p, q = ot.order.perm[pos[0]], ot.order.perm[pos[1]]
    assert t.has_edge(p, q)
    big = OrderedTournament(transitive_tournament(7), natural_numbering(7))
    assert ordered_contains(ot, big) is None


def test_ordered_contains_matches_position_bruteforce():
    t = random_tournament(6, seed=2)
    ot = OrderedTournament(t, Numbering((2, 4, 0, 1, 5, 3)))
    for h in (cyclic_triangle(), transitive_tournament(3)):
        for sigma in itertools.permutations(range(3)):
            oh = OrderedTournament(h, Numbering(sigma))
            expected = None
            for triple in itertools.combinations(range(6), 3):
                if all(
                    t.has_edge(ot.order.perm[triple[i]], ot.order.perm[triple[j]])
                    == h.has_edge(sigma[i], sigma[j])
                    for i in range(3)
                    for j in range(3)
                    if i != j
                ):
                    expected = triple
                    break
            got = ordered_contains(ot, oh)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got == expected  # both scan lexicographically


def test_ordered_poset_goldens():
    c3 = cyclic_triangle()
    assert not is_ordered_poset(OrderedTournament(c3, Numbering((0, 1, 2))))
    assert is_ordered_poset(OrderedTournament(c3, Numbering((0, 2, 1))))
    tr = transitive_tournament(6)
    assert is_ordered_poset(OrderedTournament(tr, natural_numbering(6)))
    assert is_ordered_poset(OrderedTournament(tr, Numbering((5, 4, 3, 2, 1, 0))))


def test_poset_tournament_matches_bruteforce(corpus):
    def brute(t):
        if t.n == 0:
            return True
        for rest in itertools.permutations(range(1, t.n)):
            if is_ordered_poset(OrderedTournament(t, Numbering((0,) + rest))):
                return True
        return False

    assert is_poset_tournament(cyclic_triangle()) == (True, (0, 2, 1))
    for n in range(1, 6):
        for t in corpus[n]:
            got = is_poset_tournament(t)
            assert got.is_poset == brute(t)
            if got.is_poset:
                assert is_ordered_poset(OrderedTournament(t, Numbering(got.order)))
    with pytest.raises(CapacityError):
        is_poset_tournament(random_tournament(11, seed=0))


def test_inout_witness():
    assert inout_witness(transitive_tournament(5), 2) is None
    assert inout_witness(transitive_tournament(5), 1) == 1  # both sides nonempty, chi 1
    assert inout_witness(paley(7), 1) == 0
    assert inout_witness(paley(7), 2) == 0  # neighbourhoods are cyclic triangles
    assert inout_witness(paley(7), 3) is None
    big = delta(cyclic_triangle(), cyclic_triangle(), cyclic_triangle())
    v = inout_witness(big, 2)
    assert v is not None
    tbl = chi_all_subsets(big)
    assert int(tbl[big.out_set(v)]) >= 2 and int(tbl[big.in_set(v)]) >= 2


def test_subset_table_path_honours_deadline():
    # the n = 20 table takes about 0.3 s, so the deadline fires inside it
    t = random_tournament(20, seed=1)
    ot = OrderedTournament(t, natural_numbering(t.n))
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        local_chromatic_number(ot, deadline=Deadline(0.05))
    assert time.monotonic() - start < 0.5
    # max_diamond and best_complete_pair finish their n <= 15 range in a few
    # milliseconds, well inside any useful deadline, so they get an expired one
    t = random_tournament(15, seed=1)
    for analyzer in (max_diamond, best_complete_pair):
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            analyzer(t, deadline=Deadline(-1.0))
        assert time.monotonic() - start < 0.5
    with pytest.raises(DeadlineExceeded):
        min_local_numbering(random_tournament(9, seed=1), deadline=Deadline(-1.0))


def test_complete_pair_pass_checks_deadline(monkeypatch):
    # the chi table gets no deadline, so only the pair pass itself can raise
    table = structure.chi_all_subsets
    monkeypatch.setattr(structure, "chi_all_subsets", lambda t, deadline=None: table(t))
    with pytest.raises(DeadlineExceeded):
        best_complete_pair(random_tournament(15, seed=1), deadline=Deadline(-1.0))
