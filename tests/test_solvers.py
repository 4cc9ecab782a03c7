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
    solvers,
    subdom,
    Submeasure,
    tournament_from_edges,
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


def test_chi_paley23_is_five():
    # above the 20-vertex table cap only the branch-and-bound proves this
    t = paley(23)
    got = chi(t)
    assert got.value == 5 == len(got.classes)
    union = 0
    for cls in got.classes:
        assert union & cls == 0 and orc.transitive_by_degrees(t, cls)
        union |= cls
    assert union == t.full_mask


def test_pruned_cover_search_matches_unpruned(corpus, monkeypatch):
    # the two-class cut skips only parts whose complement set_ok rejects, so
    # chi, chi_h and chi_law keep the unpruned search's value and witness
    tri, s2 = cyclic_triangle(), s_t(2)
    solves = []
    for n in range(1, 7):
        for t in corpus[n]:
            solves += [
                lambda t=t: chi(t),
                lambda t=t: chi_h(t, tri),
                lambda t=t: chi_h(t, s2),
                lambda t=t: chi_law(t, all_triangle_law(t)),
            ]
    randoms = [(n, seed) for n in range(8, 21, 2) for seed in range(3)]
    for n, seed in randoms + [(22, 0), (24, 1)]:
        t = random_tournament(n, seed)
        solves.append(lambda t=t: chi(t))
        if n <= 14:
            solves += [
                lambda t=t: chi_h(t, tri),
                lambda t=t: chi_law(t, all_triangle_law(t)),
            ]
        if n <= 12:
            solves.append(lambda t=t: chi_h(t, s2))
    r20 = random_tournament(20, seed=1)
    solves += [
        lambda: chi(r20, s=r20.full_mask & ~0b1000100101),
        lambda: chi(paley(19), s=paley(19).full_mask ^ 1),
    ]
    for q in (7, 11):
        solves += [
            lambda q=q: chi_h(paley(q), tri),
            lambda q=q: chi_law(paley(q), all_triangle_law(paley(q))),
        ]
    solves += [lambda q=q: chi(paley(q)) for q in (7, 11, 19)]
    solves += [lambda: chi(s_t(4)), lambda: chi_law(s_t(4), all_triangle_law(s_t(4)))]
    got = [solve() for solve in solves]
    with monkeypatch.context() as m:
        m.setattr(solvers, "_min_cover", orc.min_cover_unpruned)
        want = [solve() for solve in solves]
    assert [i for i in range(len(got)) if got[i] != want[i]] == []

    # every part the two-class walk yields leaves a complement with the
    # property, so set_ok can fail only on the whole set
    for t in [random_tournament(n, seed) for n, seed in randoms if n <= 16] + [paley(11)]:
        failed = []

        def set_ok(mask, t=t):
            ok = orc.transitive_by_degrees(t, mask)
            if not ok:
                failed.append(mask)
            return ok

        def can_add(cls, w, t=t):
            return orc.transitive_by_degrees(t, cls | 1 << w)

        want = orc.min_cover_unpruned(t.full_mask, can_add, set_ok)
        failed.clear()
        assert solvers._min_cover(t.full_mask, can_add, set_ok) == want
        assert failed in ([], [t.full_mask])


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


def _transitive_then_paley7(m: int):
    """A transitive m-vertex prefix beating every vertex of a paley(7) tail.

    chi is 3, and the first two-class walk splits the prefix all 2^(m - 1)
    ways before the tail rejects each split, yielding no part."""
    p7 = paley(7)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m + 7)]
    edges += [(m + a, m + b) for a in range(7) for b in bits(p7.out_sets[a])]
    return tournament_from_edges(m + 7, edges)


def test_cover_search_honours_deadline_inside_two_class_walk():
    # Without deadlines these take about 5 s (chi, random n = 30), 2 s and
    # 12 s (chi_h and chi_law, paley(23)), and 3.7 s, over 2 min and 11 s
    # (chi, chi_h and chi_law on the 25-vertex input). There, the first
    # two-class walk yields nothing for over 1 s, so only the check inside
    # the walk meets the deadline.
    p23, g = paley(23), _transitive_then_paley7(18)
    tri = cyclic_triangle()
    p23_law, g_law = all_triangle_law(p23), all_triangle_law(g)
    solves = [
        lambda d: chi(random_tournament(30, seed=1), deadline=d),
        lambda d: chi_h(p23, tri, deadline=d),
        lambda d: chi_law(p23, p23_law, deadline=d),
        lambda d: chi(g, deadline=d),
        lambda d: chi_h(g, tri, deadline=d),
        lambda d: chi_law(g, g_law, deadline=d),
    ]
    for solve in solves:
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            solve(Deadline(0.05))
        assert time.monotonic() - start < 0.5
