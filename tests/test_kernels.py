"""The bitset kernels against the solvers and the brute-force oracles."""

import numpy as np

import oracles as orc

import tourlab._kernels as _kernels
from tourlab import (
    chi,
    chi_all_subsets,
    is_transitive_set,
    random_tournament,
    transitive_tournament,
)


def test_transitive_table_matches_definition():
    t = random_tournament(9, seed=1)
    trans = _kernels.transitive_table(t.out_sets, t.n)
    for s in range(1 << t.n):
        assert bool(trans[s]) == is_transitive_set(t, s)


def test_chi_table_matches_solver():
    t = random_tournament(9, seed=2)
    trans = _kernels.transitive_table(t.out_sets, t.n)
    tbl = _kernels.chi_table_from_trans(trans)
    for s in (0, 1, 0b101010101, (1 << t.n) - 1, 0b111, 0b110010):
        assert int(tbl[s]) == chi(t, s).value


def test_min_code_matches_relabelling_oracle():
    from tourlab import formats
    from tourlab.enumeration import _adj_matrix, _perms

    for seed in range(4):
        t = random_tournament(5, seed)
        want = orc.canonical_code_by_relabelling(5, formats.tournament_code(t))
        got = int(_kernels.min_code(_adj_matrix(t), _perms(5)))
        assert got == want


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
