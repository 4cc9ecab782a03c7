"""The bitset kernels against the solvers and the brute-force oracles."""

import numpy as np

import oracles as orc

import tourlab._kernels as _kernels
import tourlab.enumeration as en
from tourlab import (
    Tournament,
    chi,
    chi_all_subsets,
    enumerate_all,
    formats,
    is_transitive_set,
    paley,
    random_tournament,
    s_t,
    transitive_tournament,
)


def test_transitive_table_matches_definition():
    t = random_tournament(9, seed=1)
    trans = _kernels.transitive_table(t.out_sets, t.n)
    for s in range(1 << t.n):
        assert bool(trans[s]) == is_transitive_set(t, s)


def test_chi_table_matches_subset_dp():
    # every class up to 6 vertices, paley(7), s_t(3), random n = 9..12, and
    # the empty and one-vertex tournaments: whole tables, dtype included
    cases = [t for n in range(7) for t in enumerate_all(n)]
    cases += [paley(7), s_t(3), transitive_tournament(0), transitive_tournament(1)]
    cases += [random_tournament(n, seed=n) for n in range(9, 13)]
    for t in cases:
        trans = _kernels.transitive_table(t.out_sets, t.n)
        got = _kernels.chi_table_from_trans(trans)
        want = orc.chi_table_by_subset_dp(trans)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_chi_table_matches_solver():
    # n = 20 is the table guard, where the 4^n bound on cover counts is 2^40
    t = random_tournament(20, seed=2)
    trans = _kernels.transitive_table(t.out_sets, t.n)
    tbl = _kernels.chi_table_from_trans(trans)
    masks = [(1 << t.n) - 1] + _sample_subsets(t.n, seed=3, k=20)
    for s in masks:
        assert int(tbl[s]) == chi(t, s).value
    # over the whole table, adding a vertex raises chi by 0 or 1
    for v in range(t.n):
        pairs = tbl.reshape(-1, 2, 1 << v)
        assert ((pairs[:, 1] >= pairs[:, 0]) & (pairs[:, 1] <= pairs[:, 0] + 1)).all()


def test_min_code_matches_relabelling_oracle():
    # every labelled tournament on at most 5 vertices, the tie-heavy paley(7)
    # and transitive_tournament(7), and random 8-vertex inputs; is_least_code
    # must say whether the labelling's own code is the least
    cases = [formats.tournament_from_code(n, code)
             for n in range(6) for code in range(1 << n * (n - 1) // 2)]
    cases += [paley(7), transitive_tournament(7)]
    cases += [random_tournament(8, seed) for seed in (0, 1)]
    for t in cases:
        own = formats.tournament_code(t)
        want = orc.canonical_code_by_relabelling(t.n, own)
        assert _kernels.min_code(t.out_sets, t.n) == want
        assert _kernels.is_least_code(t.out_sets, t.n) == (own == want)


def _level_candidates(n):
    """Every candidate orderly generation tests at n vertices: each canonical
    (n-1)-vertex class extended by each in/out pattern of a final vertex."""
    newbit = 1 << (n - 1)
    for parent in en._level(n - 1):
        for pattern in range(1 << (n - 1)):
            out = [o if pattern >> v & 1 else o | newbit for v, o in enumerate(parent)]
            yield tuple(out) + (pattern,)


def test_is_least_code_agrees_with_min_code():
    # the level-building candidates up to n = 7, the tie-heavy paley(7) and
    # transitive tournaments, and random 8-vertex inputs
    cases = [(n, out) for n in range(2, 8) for out in _level_candidates(n)]
    assert len(cases) == 4054
    kept = sum(_kernels.is_least_code(out, n) for n, out in cases)
    assert kept == 1 + 2 + 4 + 12 + 56 + 456  # A000568, n = 2..7
    tours = [paley(7), transitive_tournament(7), transitive_tournament(8)]
    tours += [random_tournament(8, seed) for seed in range(40)]
    cases += [(t.n, t.out_sets) for t in tours]
    for n, out in cases:
        want = formats.tournament_code(Tournament(n, out)) == _kernels.min_code(out, n)
        assert _kernels.is_least_code(out, n) == want


def test_subdom_scan_matches_oracle():
    t = random_tournament(10, seed=3)
    got = int(_kernels.subdom_scan(t.out_sets, t.n))
    want = max(
        orc.dom_by_combinations(t, s)
        for s in _sample_subsets(t.n, seed=0, k=40)
    )
    assert got >= want  # scan is exact over all subsets, sample is a lower bound
    assert got == orc.subdom_by_subsets(t)


def _sample_subsets(n, seed, k):
    rng = np.random.Generator(np.random.PCG64(seed))
    full = (1 << n) - 1
    return [int(rng.integers(1, full + 1)) for _ in range(k)]


def test_kernels_on_the_empty_tournament():
    t = transitive_tournament(0)
    assert chi_all_subsets(t).tolist() == [0]
    assert _kernels.transitive_table(t.out_sets, 0).tolist() == [1]
    assert _kernels.subdom_scan(t.out_sets, 0) == 0


def test_dom_search_finds_minimum_dominating_sets_inside_a_mask():
    t = random_tournament(10, seed=4)
    in_sets = [t.in_set(v) for v in range(t.n)]
    for mask in _sample_subsets(t.n, seed=1, k=30):
        want = orc.dom_by_combinations(t, mask)
        assert _kernels.dom_search(t.out_sets, in_sets, mask, mask, want - 1) is None
        x = _kernels.dom_search(t.out_sets, in_sets, mask, mask, want)
        assert x is not None and x & ~mask == 0 and x.bit_count() <= want
        hit = x
        for v in range(t.n):
            if x >> v & 1:
                hit |= t.out_sets[v]
        assert mask & ~hit == 0


def test_subdom_scan_over_given_masks():
    t = random_tournament(12, seed=5)
    masks = _sample_subsets(t.n, seed=2, k=25)
    got = _kernels.subdom_scan(t.out_sets, t.n, masks)
    assert got == max(orc.dom_by_combinations(t, s) for s in masks)


def _scan_fallbacks(monkeypatch, t):
    """subdom_scan's value, and the subsets its exact search was run on
    (each top-level dom_search call has und == within)."""
    searched = set()
    search = _kernels.dom_search

    def spy(out_sets, in_sets, within, und, k, deadline=None):
        if und == within:
            searched.add(within)
        return search(out_sets, in_sets, within, und, k, deadline)

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "dom_search", spy)
        value = _kernels.subdom_scan(t.out_sets, t.n)
    return value, searched


def test_chunked_subdom_scan_matches_per_subset_scan(monkeypatch):
    # every class up to 6 vertices, paley(11) and random n = 9..14, with the
    # default chunk and with 64-subset chunks so every input spans several
    p11 = paley(11)
    cases = [p11] + [t for n in range(7) for t in enumerate_all(n)]
    cases += [random_tournament(n, seed) for n in range(9, 15) for seed in (0, 1, 2)]
    want = [orc.subdom_by_scan(t.out_sets, t.n) for t in cases]
    assert want[0] == orc.subdom_by_subsets(p11) == 3
    assert [_kernels.subdom_scan(t.out_sets, t.n) for t in cases] == want
    monkeypatch.setattr(_kernels, "_CHUNK", 64)
    assert [_kernels.subdom_scan(t.out_sets, t.n) for t in cases] == want


def test_subdom_scan_falls_back_where_the_certificate_fails(monkeypatch):
    # these inputs leave subsets the greedy certificate cannot settle; the
    # exact search must run on them and keep the value; random_tournament(13, 2)
    # also raises the maximum above the full set's domination number
    for n, seed in ((12, 2), (13, 2)):
        t = random_tournament(n, seed)
        value, searched = _scan_fallbacks(monkeypatch, t)
        assert searched - {t.full_mask}
        assert value == orc.subdom_by_scan(t.out_sets, t.n)
    assert value == 3 > orc.dom_by_combinations(t) == 2


def test_subdom_scan_on_paley_19():
    # the smallest tournament with domination number 4 (E. and G. Szekeres)
    t = paley(19)
    assert _kernels.subdom_scan(t.out_sets, t.n) == 4


def test_chunked_subdom_scan_over_given_masks(monkeypatch):
    # a one-vertex first mask seeds 1; the full paley(7) then deepens to 3
    t = paley(7)
    assert _kernels.subdom_scan(t.out_sets, t.n, [1, t.full_mask]) == 3
    t = random_tournament(12, seed=5)
    assert _kernels.subdom_scan(t.out_sets, t.n, []) == 0
    masks = _sample_subsets(t.n, seed=4, k=300)
    want = orc.subdom_by_scan(t.out_sets, t.n, masks)
    assert want == max(orc.dom_by_combinations(t, s) for s in masks)
    assert _kernels.subdom_scan(t.out_sets, t.n, masks) == want
    monkeypatch.setattr(_kernels, "_CHUNK", 16)
    assert _kernels.subdom_scan(t.out_sets, t.n, masks) == want
    # masks up to 64 bits wide go through uint64 unchanged
    t = random_tournament(64, seed=1)
    halves = np.random.Generator(np.random.PCG64(5)).integers(0, 1 << 32, (200, 2))
    masks = [t.full_mask] + [int(hi) << 32 | int(lo) | 1 for hi, lo in halves]
    masks += [m | 1 << 63 for m in masks[1:40]]
    assert _kernels.subdom_scan(t.out_sets, t.n, masks) == orc.subdom_by_scan(
        t.out_sets, t.n, masks)
