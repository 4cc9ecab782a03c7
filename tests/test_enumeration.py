import hashlib
import importlib.util
import itertools
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles as orc

import tourlab.enumeration as en
import tourlab.solvers as solvers
import tourlab.structure as structure
from tourlab.core import backedge_sets
from tourlab import (
    CanonicalForm,
    Numbering,
    CapacityError,
    Graph,
    OrderedTournament,
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
    paley,
    random_tournament,
    read_corpus,
    revalidate_witness,
    s_t,
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


def test_is_canonical_caps_and_small_cases():
    # one notion of canonicity: the kernel's yes/no answer, capped like
    # canonical_code, and vacuously true below two vertices
    with pytest.raises(CapacityError):
        is_canonical(random_tournament(9, seed=0))
    assert is_canonical(transitive_tournament(0))
    assert is_canonical(transitive_tournament(1))
    for t in (transitive_tournament(8), random_tournament(8, seed=1)):
        assert is_canonical(t) == (tournament_code(t) == canonical_code(t))


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
    # n = 7 is exact too: every numbering of all 456 classes is covered
    rep = legend_frontier(h, Numbering((0, 1)), 7)
    assert rep.params["n7_sampling"] is None
    assert rep.counters["per_n"]["7"] == {"classes": 456, "classes_with_avoiding_numbering": 1}
    assert rep.findings["frontier"] == 1
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

    # levels 0-6 stay warm, so the deadline bites inside the level-7 build
    # (about 0.3-0.45 s, over ten times the deadline), not in the few ms
    # of scanning below it
    monkeypatch.setattr(en, "_LEVELS", {n: en._level(n) for n in range(7)})
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        scan_chi2(2, 7, deadline=Deadline(0.02))
    assert time.monotonic() - start < 2.0
    assert 7 not in en._LEVELS


def test_deadline_interrupts_legend_search(monkeypatch):
    from tourlab import Deadline, DeadlineExceeded, OrderedTournament, paley

    # the whole n=7 level against the forward-transitive 3-vertex pattern:
    # the search needs far more than ten times the deadline to exhaust it
    levels = {0: ((),), **{n: () for n in range(1, 7)}, 7: en._level(7)}
    monkeypatch.setattr(en, "_LEVELS", levels)
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        legend_frontier(transitive_tournament(3), Numbering((0, 1, 2)), 7, deadline=Deadline(0.05))
    assert time.monotonic() - start < 0.5
    # inside one class the search checks the deadline at every node
    with pytest.raises(DeadlineExceeded):
        en._first_avoiding_numbering(
            paley(7), OrderedTournament(transitive_tournament(2), Numbering((0, 1))), Deadline(-1.0)
        )


def test_legend_search_matches_bruteforce(corpus):
    from tourlab import OrderedTournament, paley

    classes = [t for n in range(1, 7) for t in corpus[n]] + [paley(7), transitive_tournament(7)]
    for m in range(4):
        h = transitive_tournament(m)
        for sigma in itertools.permutations(range(m)):
            oh = OrderedTournament(h, Numbering(sigma))
            for t in classes:
                want = next(
                    (perm for perm in itertools.permutations(range(t.n))
                     if orc.avoids_ordered_by_positions(t, perm, h, sigma)),
                    None,
                )
                assert en._first_avoiding_numbering(t, oh, None) == want


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


def test_malformed_reports_raise_value_error():
    good = json.loads(scan_tribip(2, 6).to_json())
    texts = ["[]", "{}"]
    for key, value in (
        ("witness", []),
        ("witness", {"a": 35, "b": 28}),
        ("witness", {**good["witness"], "tournament": 5}),
        ("params", {}),
    ):
        texts.append(json.dumps({**good, key: value}))
    for text in texts:
        with pytest.raises(ValueError):
            SearchReport.from_json(text, revalidate=True)


def test_self_contradicting_reports_fail_to_load():
    good = json.loads(scan_tribip(2, 6).to_json())
    SearchReport.from_json(json.dumps(good), revalidate=True)
    per_n = good["counters"]["per_n"]
    for doctored in (
        {**good, "outcome": "exhausted"},
        {**good, "params": {**good["params"], "n_max": 3}},
        {**good, "witness": None},
        {**good, "corpus": {**good["corpus"], "n_max": 5}},
        {**good, "params": {**good["params"], "n_max": 10**9}},
        {**good, "counters": {"per_n": {k: v for k, v in per_n.items() if k != "6"}}},
    ):
        with pytest.raises(ValueError):
            SearchReport.from_json(json.dumps(doctored), revalidate=True)
    # no scan writes a report that n_max 0 would describe
    with pytest.raises(ValueError):
        scan_chi2(2, 0)


def test_suite_consults_the_module_graph_omega(monkeypatch):
    monkeypatch.setattr(en, "graph_omega", lambda g: 0)
    rep = scan_theorem_suite(3)
    assert rep.witness["theorem"] == "backedge_sandwich"
    assert formats.parse_compact(rep.witness["tournament"]).n == 1
    assert list(rep.counters["per_n"]) == ["1"]


def test_suite_solves_each_distinct_backedge_graph_once(monkeypatch, corpus):
    solved = []
    real = en.graph_chi

    def counted(g):
        solved.append(g.adj)
        return real(g)

    monkeypatch.setattr(en, "graph_chi", counted)
    d = json.loads(scan_theorem_suite(5).to_json())
    distinct = {
        tuple(backedge_sets(OrderedTournament(t, Numbering(perm))))
        for n in range(1, 6)
        for t in corpus[n]
        for perm in itertools.permutations(range(n))
    }
    assert len(solved) == len(set(solved)) == len(distinct)
    assert set(solved) == distinct
    d.pop("wall_time")
    text = json.dumps(d, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "fd9f047c991bb9cf"


def suite_by_permutations(corpus, n_max, max_diamond):
    """(witness, per_n) of the theorem suite, every numbering checked in turn.

    Local sets come from orc.local_sets_by_positions, numberings from
    itertools.permutations, and each other value but the diamond from a
    brute-force oracle.
    """
    witness, per_n = None, {}
    for n in range(1, n_max + 1):
        row = {"classes": 0, "numberings": 0}
        for t in corpus[n]:
            row["classes"] += 1
            tbl = orc.chi_table_by_partitions(t)
            chi_value, dom_value = tbl[t.full_mask], orc.dom_by_combinations(t)
            best = max_diamond(t)
            diamond = 0 if best is None else best.value
            found = None
            if dom_value > chi_value:
                found = {"theorem": "dom_le_chi", "numbering": None,
                         "lhs": dom_value, "rhs": chi_value}
            for perm in () if found else itertools.permutations(range(n)):
                row["numberings"] += 1
                sets = orc.local_sets_by_positions(t, perm)
                adj = [0] * n
                for v, s in zip(perm, sets):
                    adj[v] = s
                g = Graph(n, tuple(adj))
                gchi, gomega = orc.graph_chi_by_assignment(g), orc.graph_omega_by_subsets(g)
                local = max((tbl[s] for s in sets), default=0)
                if not chi_value <= gchi <= gomega * max(chi_value, 1):
                    found = {"theorem": "backedge_sandwich", "lhs": [chi_value, gchi, gomega],
                             "rhs": None}
                elif diamond > 2 * local:
                    found = {"theorem": "diamond_le_2local", "lhs": diamond, "rhs": local}
                elif dom_value > local + 1:
                    found = {"theorem": "dom_le_local_plus_1", "lhs": dom_value, "rhs": local}
                if found:
                    found["numbering"] = list(perm)
                    break
            if found and witness is None:
                witness = {"tournament": formats.emit_compact(t), **found}
        per_n[str(n)] = row
        if witness is not None:
            break
    return witness, per_n


@pytest.mark.parametrize("value, from_n, tournament, numbering, tried", [
    (1, 2, "2:0", [0, 1], 1),
    (3, 4, "4:00", [0, 1, 2, 3], 4),
])
def test_suite_falls_back_to_every_numbering_when_uncertified(
    monkeypatch, corpus, value, from_n, tournament, numbering, tried
):
    # a fake diamond value above twice the least local chromatic number
    # fails the class certificate, so each numbering is checked in turn
    def fake(t):
        return SimpleNamespace(value=value) if t.n >= from_n else None

    monkeypatch.setattr(en, "max_diamond", fake)
    rep = scan_theorem_suite(5)
    witness, per_n = suite_by_permutations(corpus, 5, fake)
    assert rep.witness == witness
    assert rep.counters["per_n"] == per_n
    assert (witness["tournament"], witness["numbering"]) == (tournament, numbering)
    assert witness["theorem"] == "diamond_le_2local"
    assert list(per_n) == [str(n) for n in range(1, from_n + 1)]
    assert per_n[str(from_n)]["numberings"] == tried


def test_suite_refuses_a_least_local_value_its_numbering_misses(monkeypatch):
    def off_by_one(t):
        nb, value = structure.min_local_numbering(t)
        return nb, value + 1

    monkeypatch.setattr(en, "min_local_numbering", off_by_one)
    with pytest.raises(AssertionError):
        scan_theorem_suite(3)


def test_suite_certifies_the_local_checks_once_per_class(monkeypatch):
    calls = {"local_chromatic_number": 0, "min_local_numbering": 0}

    def counting(name):
        real = getattr(en, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(en, name, counting(name))
    rep = scan_theorem_suite(5)
    per_n = rep.counters["per_n"].values()
    assert sum(row["classes"] for row in per_n) == 20
    assert sum(row["numberings"] for row in per_n) == 1551
    assert calls == {"local_chromatic_number": 20, "min_local_numbering": 20}


def test_benchmark_tracer_sees_every_suite_binding():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scan_theorem_suite(4)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    for name in ("backedge_graph", "graph_chi", "graph_omega", "local_chromatic_number",
                 "max_diamond", "dom"):
        assert tracer.binding_calls[f"tourlab.enumeration.{name}"] > 0, name
    assert tracer.binding_calls["tourlab.solvers.graph_omega"] > 0


def test_benchmark_tracer_sees_every_instances_binding():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # called through the module, as the benchmark does, so the bindings see them
        solvers.subdom(paley(11))
        solvers.subdom(random_tournament(21, 0))  # the sampled path beyond 20 vertices
        solvers.chi(s_t(3))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    for name in ("_kernels.subdom_scan", "solvers.subdom", "solvers.chi"):
        assert tracer.binding_calls[f"tourlab.{name}"] > 0, name


def test_benchmark_tracer_sees_the_walker_searches():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # called through the module, as the benchmark does, so the bindings see them
        structure.min_local_numbering(s_t(3))
        legend_frontier(transitive_tournament(2), Numbering((0, 1)), 4)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    for name in ("structure.min_local_numbering", "enumeration.ordered_contains"):
        assert tracer.binding_calls[f"tourlab.{name}"] > 0, name


def all_sets_chi_two(t, deadline=None):
    return np.array([0] + [2] * t.full_mask)


# scan name -> (name patched in the enumeration module, its fake, a scan run
# that the fake drives to a witness no real tournament up to n = 3 gives)
FORCED = {
    "chi2": ("chi_all_subsets", all_sets_chi_two, lambda: scan_chi2(1, 3)),
    "tribip": ("chi_all_subsets", all_sets_chi_two, lambda: scan_tribip(2, 3)),
    "theorem-suite": ("dom", lambda t, deadline=None: FakeDom(t.n), lambda: scan_theorem_suite(3)),
    "backdom": ("reverse", lambda t: transitive_tournament(0), lambda: scan_backdom(1, 3)),
    "legends": ("dom", lambda t, deadline=None: FakeDom(t.n),
                lambda: legend_frontier(transitive_tournament(2), Numbering((0, 1)), 3)),
}


def changed(key, value):
    if key == "tournament":
        return formats.emit_compact(cyclic_triangle())
    if value is None:
        return 0
    if isinstance(value, list):
        return value + [0]
    return value + (1 if isinstance(value, int) else "x")


@pytest.mark.parametrize("scan", list(FORCED))
def test_forced_witness_revalidates_only_while_forced(monkeypatch, scan):
    name, fake, run = FORCED[scan]
    monkeypatch.setattr(en, name, fake)
    rep = run()
    assert rep.scan == scan and rep.outcome == "witness"
    text = rep.to_json()
    SearchReport.from_json(text, revalidate=True)
    for key, value in rep.witness.items():
        doctored = json.loads(text)
        doctored["witness"][key] = changed(key, value)
        assert doctored["witness"][key] != value
        with pytest.raises(ValueError):
            SearchReport.from_json(json.dumps(doctored), revalidate=True)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        SearchReport.from_json(text, revalidate=True)


def test_cli_scan_names_are_the_scan_table():
    import argparse

    from tourlab import cli

    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    name = next(a for a in sub.choices["scan"]._actions if a.dest == "name")
    assert list(name.choices) == list(en._SCANS) == list(FORCED)
