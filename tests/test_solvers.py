import time
import warnings

import numpy as np
import pytest

import oracles as orc

from tourlab import (
    CapacityError,
    Deadline,
    DeadlineExceeded,
    Law,
    Numbering,
    OrderedTournament,
    all_triangle_law,
    backedge_graph,
    bits,
    cardinality_submeasure,
    chi,
    chi_all_subsets,
    chi_h,
    chi_law,
    chi_submeasure,
    cyclic_triangle,
    dilworth_partition,
    dom,
    edom,
    edom_submeasure,
    graph_chi,
    graph_from_edges,
    graph_omega,
    Graph,
    induce,
    is_transitive_set,
    mask_of,
    paley,
    random_tournament,
    s_t,
    subdom,
    Submeasure,
    transitive_tournament,
    validate_law,
    validate_submeasure,
)


def _assert_chi_witness(t, s, result):
    union = 0
    for cls in result.classes:
        assert cls and cls & ~s == 0
        assert union & cls == 0
        assert is_transitive_set(t, cls)
        union |= cls
    assert union == s
    assert len(result.classes) == result.value


def test_chi_goldens():
    assert chi(cyclic_triangle()).value == 2
    assert chi(transitive_tournament(7)).value == 1
    assert chi(cyclic_triangle(), s=0).value == 0
    assert chi(cyclic_triangle(), s=0b011).value == 1


def test_chi_matches_partition_oracle_on_corpus(corpus):
    for n in range(1, 7):
        for t in corpus[n]:
            got = chi(t)
            assert got.value == orc.chi_by_partitions(t)
            _assert_chi_witness(t, t.full_mask, got)


def test_chi_on_subsets_matches_oracle():
    t = random_tournament(8, seed=11)
    for mask in (0b10110011, 0b01011100, 0b11111111, 0b1, 0):
        got = chi(t, s=mask)
        assert got.value == orc.chi_by_partitions(t, mask)
        _assert_chi_witness(t, mask, got)


def test_chi_table_matches_pointwise(corpus):
    for t in corpus[5]:
        tbl = chi_all_subsets(t)
        for mask in range(1 << t.n):
            assert int(tbl[mask]) == chi(t, s=mask).value


def test_chi_table_triangle_example():
    tbl = chi_all_subsets(cyclic_triangle())
    assert int(tbl[0b111]) == 2
    assert all(int(tbl[m]) <= 1 for m in range(7))
    assert int(tbl[0]) == 0


def test_chi_table_capacity():
    with pytest.raises(CapacityError):
        chi_all_subsets(random_tournament(21, seed=0))


def test_chi_h_rejects_tiny_and_warns_transitive():
    t = random_tournament(5, seed=1)
    with pytest.raises(ValueError):
        chi_h(t, transitive_tournament(1))
    with pytest.raises(ValueError):
        chi_h(t, transitive_tournament(0))
    with pytest.warns(UserWarning):
        chi_h(t, transitive_tournament(2))


def test_chi_h_triangle_free_equals_chi(corpus):
    # triangle-free classes are exactly transitive classes
    for t in corpus[5]:
        assert chi_h(t, cyclic_triangle()).value == chi(t).value


def test_chi_h_larger_part_never_needs_more_classes(corpus):
    s2 = s_t(2)
    for t in corpus[6]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert chi_h(t, s2).value <= chi(t).value
        got = chi_h(t, s2)
        from tourlab import contains

        for cls in got.classes:
            assert contains(induce(t, cls)[0], s2) is None


def test_law_validation():
    t = cyclic_triangle()
    law = all_triangle_law(t)
    assert law.members == (0b111,)
    assert law.order == 3
    validate_law(t, law)
    with pytest.raises(ValueError):
        validate_law(t, Law(3, (0b011,)))  # transitive member
    with pytest.raises(ValueError):
        Law(3, (0b1111,))  # member outside range
    assert Law(3, ()).order == 3


def test_chi_law_triangle_law_equals_chi(corpus):
    # avoiding every triangle member is the same as transitivity
    for t in corpus[5]:
        if all_triangle_law(t).members:
            assert chi_law(t, all_triangle_law(t)).value == chi(t).value


def test_chi_law_coarse_law_needs_fewer_classes():
    t = s_t(3)
    law = Law(t.n, (t.full_mask,))
    got = chi_law(t, law)
    assert got.value <= 2
    for cls in got.classes:
        assert cls != t.full_mask


def test_dom_goldens_and_witness(corpus):
    assert dom(cyclic_triangle()).value == 2
    assert dom(transitive_tournament(9)).value == 1
    for n in range(1, 7):
        for t in corpus[n]:
            got = dom(t)
            assert got.value == orc.dom_by_combinations(t)
            hit = got.dominating
            for v in bits(got.dominating):
                hit |= t.out_sets[v]
            assert hit == t.full_mask
            assert got.dominating.bit_count() == got.value


def test_edom_matches_oracle():
    for seed in range(3):
        t = random_tournament(6, seed)
        for a in (0, 0b1, 0b101010, 0b111111, t.out_set(0)):
            assert edom(t, a) == orc.edom_by_combinations(t, a)
    with pytest.raises(ValueError):
        edom(random_tournament(3, 0), 0b11111)


def test_edom_special_values(corpus):
    for t in corpus[5]:
        assert edom(t, t.full_mask) == dom(t).value
        for v in range(t.n):
            if t.out_set(v):
                assert edom(t, t.out_set(v)) == 1
    assert edom(cyclic_triangle(), 0) == 0


def test_subdom_exhaustive_matches_oracle(corpus):
    for n in range(1, 6):
        for t in corpus[n]:
            got = subdom(t)
            assert got.exact
            assert got.value == orc.subdom_by_subsets(t)


def test_subdom_sampled_is_flagged_lower_bound():
    t = random_tournament(22, seed=9)
    got = subdom(t)
    assert not got.exact
    assert got.value >= dom(t).value


def test_graph_chi_omega_goldens():
    empty = Graph(0, ())
    assert graph_chi(empty) == 0 and graph_omega(empty) == 0
    edgeless = Graph(3, (0, 0, 0))
    assert graph_chi(edgeless) == 1 and graph_omega(edgeless) == 1
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert graph_omega(c5) == 2
    assert graph_chi(c5) == 3  # odd hole
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert graph_chi(k4) == 4 and graph_omega(k4) == 4


def test_graph_chi_omega_match_oracle():
    # every labelled graph on up to 4 vertices, then seeded random ones on 5-8
    graphs = []
    for n in range(5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for chosen in range(1 << len(pairs)):
            graphs.append(graph_from_edges(n, [p for k, p in enumerate(pairs) if chosen >> k & 1]))
    rng = np.random.Generator(np.random.PCG64(2))
    for n in range(5, 9):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for density in (0.3, 0.5, 0.8):
            for _ in range(3 if n < 8 else 1):  # the assignment oracle is slow at 8
                graphs.append(graph_from_edges(n, [p for p in pairs if rng.random() < density]))
    assert len(graphs) == 76 + 30
    for g in graphs:
        assert graph_chi(g) == orc.graph_chi_by_assignment(g), g
        assert graph_omega(g) == orc.graph_omega_by_subsets(g), g


def test_graph_capacity():
    with pytest.raises(CapacityError):
        graph_chi(Graph(41, tuple([0] * 41)))


def test_dilworth_requires_transitive_base():
    t = cyclic_triangle()
    ot = OrderedTournament(t, Numbering((0, 1, 2)))
    with pytest.raises(ValueError):
        dilworth_partition(ot, 0b111)


def test_dilworth_partitions_into_clique_many_stable_classes():
    rng = np.random.Generator(np.random.PCG64(7))
    for seed in range(6):
        t = random_tournament(8, seed)
        perm = tuple(int(x) for x in rng.permutation(8))
        ot = OrderedTournament(t, Numbering(perm))
        # grow a transitive subset greedily
        x = 0
        for v in range(t.n):
            if is_transitive_set(t, x | 1 << v):
                x |= 1 << v
        classes = dilworth_partition(ot, x)
        assert sum(classes) == x and all(c for c in classes)
        g = backedge_graph(ot)
        for cls in classes:
            for u in bits(cls):
                assert g.adj[u] & cls == 0  # no backedge inside a class
        from tourlab import induce_graph

        assert len(classes) == graph_omega(induce_graph(g, x)[0])


def test_submeasures_validate():
    validate_submeasure(cardinality_submeasure(), 6)
    t = random_tournament(6, seed=3)
    validate_submeasure(chi_submeasure(t), t.n)
    validate_submeasure(edom_submeasure(t), t.n)


def test_submeasure_values_match_solvers():
    t = random_tournament(7, seed=5)
    mu_chi = chi_submeasure(t)
    mu_edom = edom_submeasure(t)
    for mask in (0, 0b1, 0b1010101, t.full_mask):
        assert mu_chi(mask) == chi(t, s=mask).value
        assert mu_edom(mask) == edom(t, mask)
    assert mu_edom(t.full_mask) == dom(t).value


def test_validate_submeasure_catches_violations():
    bad_monotone = Submeasure(lambda m: float(-(m.bit_count())), builtin=True)
    with pytest.raises(ValueError):
        validate_submeasure(bad_monotone, 4)
    bad_empty = Submeasure(lambda m: 1.0, builtin=True)
    with pytest.raises(ValueError):
        validate_submeasure(bad_empty, 4)
    parity = Submeasure(lambda m: float(m.bit_count() % 2), builtin=True)
    with pytest.raises(ValueError):
        validate_submeasure(parity, 4)  # not monotone
    sampled_bad = Submeasure(lambda m: float(m.bit_count() ** 2))
    with pytest.raises(ValueError):
        validate_submeasure(sampled_bad, 10)  # subadditivity fails on samples


def test_deadline_propagates():
    t = random_tournament(18, seed=2)
    with pytest.raises(DeadlineExceeded):
        chi(t, deadline=Deadline(-1.0))
    with pytest.raises(DeadlineExceeded):
        dom(t, deadline=Deadline(-1.0))


def test_subdom_honours_deadline():
    with pytest.raises(DeadlineExceeded):
        subdom(random_tournament(22, seed=9), deadline=Deadline(-1.0))
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        subdom(paley(19), deadline=Deadline(0.05))
    assert time.monotonic() - start < 0.5


def test_chunked_subdom_scan_honours_deadline():
    # about 0.25 s of chunked scanning; the deadline is checked per chunk
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        subdom(random_tournament(20, seed=1), deadline=Deadline(0.05))
    assert time.monotonic() - start < 0.5
