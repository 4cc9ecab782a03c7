import hashlib
import itertools
import json
import time

import numpy as np
import pytest

import oracles as orc

import tourlab.enumeration as en
from tourlab import (
    CanonicalForm,
    Numbering,
    CapacityError,
    SearchReport,
    Tournament,
    canonical_code,
    count_classes,
    cyclic_triangle,
    dom,
    enumerate_all,
    formats,
    is_canonical,
    isomorphic,
    legend_frontier,
    random_tournament,
    read_corpus,
    revalidate_witness,
    scan_backdom,
    scan_chi2,
    scan_theorem_suite,
    scan_tribip,
    tournament_code,
    transitive_tournament,
    write_corpus,
)

COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}


def test_counts_match_known_sequence():
    for n, want in COUNTS.items():
        if n <= 6:
            assert count_classes(n) == want
    assert count_classes(0) == 1


def test_counts_match_bucketing_oracle():
    for n in range(1, 6):
        assert count_classes(n) == len(orc.classes_by_bucketing(n))


def test_representatives_are_canonical_and_pairwise_nonisomorphic(corpus):
    for n in range(1, 6):
        reps = corpus[n]
        assert all(is_canonical(t) for t in reps)
        for a, b in itertools.combinations(reps, 2):
            assert not isomorphic(a, b)


def test_canonical_code_invariant_under_relabelling():
    t = random_tournament(6, seed=3)
    base = canonical_code(t)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        perm = [int(v) for v in rng.permutation(6)]
        outs = [0] * 6
        for u in range(6):
            for v in bits_of(t.out_set(u)):
                outs[perm[u]] |= 1 << perm[v]
        assert canonical_code(Tournament(6, tuple(outs))) == base
    assert base == orc.canonical_code_by_relabelling(6, tournament_code(t))


def bits_of(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_canonical_form_equality_tracks_isomorphism(corpus):
    for n in (3, 4):
        for a in corpus[n]:
            for b in corpus[n]:
                same = CanonicalForm(n, canonical_code(a)) == CanonicalForm(n, canonical_code(b))
                assert same == isomorphic(a, b)


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        list(enumerate_all(8))
    with pytest.raises(CapacityError):
        canonical_code(random_tournament(9, seed=0))


def test_corpus_roundtrip_and_determinism(tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_corpus(p1, 5)
    write_corpus(p2, 5)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_corpus(p1)
    assert [tournament_code(t) for t in back] == [tournament_code(t) for t in enumerate_all(5)]


def test_report_roundtrip_and_revalidation():
    rep = scan_chi2(2, 4)
    assert rep.outcome == "exhausted"
    assert rep.witness is None
    per_n = rep.counters["per_n"]
    assert {int(k): v["classes"] for k, v in per_n.items()} == {n: COUNTS[n] for n in (1, 2, 3, 4)}
    text = rep.to_json()
    again = SearchReport.from_json(text, revalidate=True)
    assert again.scan == "chi2"
    assert json.loads(text) == json.loads(again.to_json())


def test_doctored_witness_fails_revalidation():
    rep = scan_tribip(2, 6)
    assert rep.outcome == "witness"
    revalidate_witness(rep)
    # a=3 has chi below d; a=-29 and b=-36 wrap around as numpy indexes and
    # as complements; 1024 lies outside the six vertices.
    for side, value in (("a", 3), ("a", -29), ("b", -36), ("a", 1024)):
        doctored = json.loads(rep.to_json())
        doctored["witness"][side] = value
        with pytest.raises(ValueError):
            SearchReport.from_json(json.dumps(doctored), revalidate=True)
    unknown = json.loads(rep.to_json())
    unknown["scan"] = "nonsense"
    with pytest.raises(ValueError):
        SearchReport.from_json(json.dumps(unknown), revalidate=True)


def test_scan_chi2_small_exhausts():
    rep = scan_chi2(2, 6)
    assert rep.outcome == "exhausted"
    assert rep.params == {"c": 2, "n_max": 6}
    assert all(v["chi_at_least_2c"] == 0 for v in rep.counters["per_n"].values())


def test_scan_tribip_witness_golden():
    rep = scan_tribip(2, 6)
    assert rep.witness == {"tournament": "6:0050", "a": 35, "b": 28}
    t = formats.parse_compact(rep.witness["tournament"])
    from tourlab import chi

    assert chi(t, 35).value >= 2 and chi(t, 28).value >= 2


def test_scan_theorem_suite_exhausts():
    rep = scan_theorem_suite(5)
    assert rep.outcome == "exhausted"
    per_n = rep.counters["per_n"]
    assert {int(k): v["numberings"] for k, v in per_n.items()} == {1: 1, 2: 2, 3: 12, 4: 96, 5: 1440}


def test_scan_theorem_suite_catches_corrupted_solver(monkeypatch):
    monkeypatch.setattr(en, "dom", lambda t, deadline=None: FakeDom(t.n))
    rep = scan_theorem_suite(4)
    assert rep.outcome == "witness"
    assert rep.witness["theorem"] == "dom_le_chi"
    assert list(rep.counters["per_n"]) == ["1"]


class FakeDom:
    def __init__(self, n):
        self.value = n + 5
        self.witness = (1 << max(n, 1)) - 1


def test_scan_backdom_frontier_golden():
    rep = scan_backdom(2, 5)
    assert rep.outcome == "exhausted"
    front = rep.findings["frontier"]
    assert front["1"]["max_reverse_subdom"] == 1
    assert front["2"]["max_reverse_subdom"] == 2


def test_legend_frontier_golden():
    h = transitive_tournament(2)
    for sigma in ((0, 1), (1, 0)):
        rep = legend_frontier(h, Numbering(sigma), 4)
        assert rep.outcome == "exhausted"
        assert rep.findings["frontier"] == 1
        assert rep.params["bound"] == 8
    with pytest.raises(ValueError):
        legend_frontier(cyclic_triangle(), (0, 1, 2), 4)


REPORT_DIGESTS = [
    ("chi2", lambda: scan_chi2(2, 6), "2c10209eafd921c1"),
    ("tribip", lambda: scan_tribip(2, 6), "434902a8e4c3b80d"),
    ("theorem-suite", lambda: scan_theorem_suite(5), "fd9f047c991bb9cf"),
    ("backdom", lambda: scan_backdom(2, 5), "187605ce9308e9f6"),
    ("legends-01", lambda: legend_frontier(transitive_tournament(2), Numbering((0, 1)), 6),
     "45e90728aa309f75"),
    ("legends-10", lambda: legend_frontier(transitive_tournament(2), Numbering((1, 0)), 6),
     "b607f9276c968974"),
]


@pytest.mark.parametrize("run, want", [r[1:] for r in REPORT_DIGESTS],
                         ids=[r[0] for r in REPORT_DIGESTS])
def test_report_json_is_pinned(run, want):
    d = json.loads(run().to_json())
    d.pop("wall_time")
    text = json.dumps(d, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


def test_deadline_interrupts_scan():
    from tourlab import Deadline, DeadlineExceeded

    with pytest.raises(DeadlineExceeded):
        scan_theorem_suite(6, deadline=Deadline(-1.0))


def test_deadline_interrupts_cold_corpus_build(monkeypatch):
    from tourlab import Deadline, DeadlineExceeded

    monkeypatch.setattr(en, "_LEVELS", {0: ((),)})
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        scan_chi2(2, 7, deadline=Deadline(0.5))
    assert time.monotonic() - start < 2.0
    assert 7 not in en._LEVELS


def test_deadline_interrupts_legend_sampling(monkeypatch):
    from tourlab import Deadline, DeadlineExceeded, paley

    # one n=7 class that contains TT2 under every numbering, so all samples run
    levels = {0: ((),), **{n: () for n in range(1, 7)}, 7: (paley(7).out_sets,)}
    monkeypatch.setattr(en, "_LEVELS", levels)
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        legend_frontier(transitive_tournament(2), Numbering((0, 1)), 7, deadline=Deadline(0.05))
    assert time.monotonic() - start < 0.5


def test_scan_deadline_is_keyword_only():
    from tourlab import Deadline

    with pytest.raises(TypeError):
        scan_chi2(2, 4, 1, Deadline(10.0))


def test_suite_witness_revalidates_against_its_theorem(monkeypatch):
    monkeypatch.setattr(en, "dom", lambda t, deadline=None: FakeDom(t.n))
    text = scan_theorem_suite(3).to_json()
    SearchReport.from_json(text, revalidate=True)
    renamed = json.loads(text)
    renamed["witness"]["theorem"] = "diamond_le_2local"
    with pytest.raises(ValueError):
        SearchReport.from_json(json.dumps(renamed), revalidate=True)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        SearchReport.from_json(text, revalidate=True)


def test_suite_skips_diamond_without_numberings(monkeypatch):
    def unused(t):
        raise AssertionError("max_diamond called with no numbering to check")

    monkeypatch.setattr(en, "max_diamond", unused)
    assert en._suite_violation(random_tournament(7, seed=1), ()) == (None, 0)
