"""Workload definitions and the checks that do not trust the program.

``scans`` and ``instances`` run in process: each is a list of operations over
inputs built in set-up. ``corpus`` runs as CLI subprocesses (see run.py); its
outputs are checked here by ``check_corpus``.

Expected values come from sources outside the code under test:

- OEIS A000568 for the number of tournaments per order;
- values asserted in tests/test_acceptance.py, tests/test_enumeration.py and
  README.md (chi(s_t(4)) = 4, dom(paley(19)) = 4, the tribip witness
  ``6:0050`` with a = 35 and b = 28, the two-vertex legend frontier 1, and
  min_local_numbering(s_t(3)) = 1);
- the brute-force oracles of tests/oracles.py, run after the timed phase;
- known minimum orders: a tournament of chromatic number 4 has at least 11
  vertices (Neumann-Lara 1994), and one of domination number above k has at
  least (k + 2) * 2^(k - 1) - 1 (E. and G. Szekeres 1965), so 47 for
  domination 5.

Seeded inputs are checked by validating every witness and by two independent
algorithms agreeing: the subset table against the chi branch-and-bound, and
dom(t) against edom(t, full). The corpus sha256 was recorded from the
unmodified package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from typing import Callable, NamedTuple, Optional

A000568 = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}
CORPUS7_SHA256 = "fdcd6e058329630bbead04f6fb839edd5138cab75df991afa730521f8d8c16d6"
TRIBIP_WITNESS = {"tournament": "6:0050", "a": 35, "b": 28}

# A probe that raises DeadlineExceeded later than this after its deadline,
# or returns a value after its deadline, has missed it.
DEADLINE_TOLERANCE_S = 0.25


def deadline_met(raised: bool, overrun_s: float) -> bool:
    return overrun_s <= (DEADLINE_TOLERANCE_S if raised else 0.0)


class Mismatch(Exception):
    """An output disagrees with its independent check."""


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


class Op(NamedTuple):
    name: str
    run: Callable  # (tourlab, inputs) -> output
    check: Callable  # (output, Checker) -> None, raises Mismatch
    deadline_s: Optional[float] = None  # set for deadline probes


class Probe(NamedTuple):
    """Outcome of a call made under a Deadline."""

    raised: bool
    overrun_s: float  # time past the deadline at raise or return; < 0 if early
    value: object

    @property
    def met(self) -> bool:
        return deadline_met(self.raised, self.overrun_s)


def run_probe(tl, call, seconds: float) -> Probe:
    deadline = tl.core.Deadline(seconds)
    try:
        value = call(deadline)
    except tl.core.DeadlineExceeded:
        return Probe(True, time.monotonic() - deadline.expiry, None)
    return Probe(False, time.monotonic() - deadline.expiry, value)


def report_digest(text: str) -> str:
    """Digest of a SearchReport's JSON without its wall time."""
    raw = json.loads(text)
    raw.pop("wall_time", None)
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


def fingerprint(output) -> str:
    """A digest equal for equal outputs, ignoring report wall times."""
    if hasattr(output, "to_json"):
        return report_digest(output.to_json())
    if hasattr(output, "tobytes"):
        text = f"{output.dtype}:{output.shape}:" + hashlib.sha256(output.tobytes()).hexdigest()
    elif isinstance(output, tuple) and not hasattr(output, "_fields"):
        text = "(" + ",".join(fingerprint(x) for x in output) + ")"
    else:
        text = repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# independent helpers: plain definitions on out-neighbour bitsets
# ---------------------------------------------------------------------------


def _bits(mask: int):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def beats_all(t, a: int, b: int) -> bool:
    """Every vertex of a beats every vertex of b."""
    return all(t.out_sets[u] >> v & 1 for u in _bits(a) for v in _bits(b))


def compact(n: int, code: int) -> str:
    digits = max(1, (n * (n - 1) // 2 + 3) // 4)
    return f"{n}:{code:0{digits}x}"


def lower_code(t) -> int:
    code = 0
    for i in range(t.n):
        for j in range(i):
            code = code << 1 | (t.out_sets[i] >> j & 1)
    return code


def dominates(t, x: int, target: int) -> bool:
    hit = x
    for v in _bits(x):
        hit |= t.out_sets[v]
    return not target & ~hit


def reverse_dom(t, s: int) -> int:
    """Domination number of the reversed subtournament on s, by combinations."""
    verts = _bits(s)
    for k in range(1, len(verts) + 1):
        for picks in itertools.combinations(verts, k):
            hit = 0
            for v in picks:
                in_v = s & ~t.out_sets[v] & ~(1 << v)
                hit |= in_v | 1 << v
            if hit == s:
                return k
    return 0


def avoids_ordered(t, perm, h, sigma) -> bool:
    """No increasing positions of (t, perm) induce (h, sigma) edge by edge."""
    m = len(sigma)
    for pos in itertools.combinations(range(len(perm)), m):
        if all(
            (t.out_sets[perm[pos[i]]] >> perm[pos[j]] & 1)
            == (h.out_sets[sigma[i]] >> sigma[j] & 1)
            for i in range(m)
            for j in range(m)
            if i != j
        ):
            return False
    return True


class Checker:
    """Shared state for the checks of one run: oracles, inputs, memos."""

    def __init__(self, tl, orc, inputs: dict, seed: int):
        self.tl = tl
        self.orc = orc
        self.inputs = inputs
        self.rng = random.Random(seed)
        self._chi: dict = {}
        self._corpus: Optional[dict] = None

    def chi_bb(self, t, mask: int) -> int:
        """Branch-and-bound chi of a subset, memoized per input."""
        key = (t.out_sets, mask)
        if key not in self._chi:
            self._chi[key] = self.tl.solvers.chi(t, mask).value
        return self._chi[key]

    def partition(self, t, classes, value: int):
        """classes partition the vertices into value transitive classes."""
        expect(len(classes) == value, f"witness has {len(classes)} classes, value {value}")
        union = 0
        for c in classes:
            expect(c and not union & c, "witness classes overlap or are empty")
            expect(self.orc.transitive_by_degrees(t, c), f"class {c:#x} is not transitive")
            union |= c
        expect(union == t.full_mask, "witness classes do not cover the vertices")

    def sample_masks(self, n: int, count: int, max_size: Optional[int] = None):
        out = []
        while len(out) < count:
            mask = self.rng.getrandbits(n)
            if mask and (max_size is None or mask.bit_count() <= max_size):
                out.append(mask)
        return out

    def table(self, t, tbl, want_full: Optional[int] = None):
        """A subset chi table against the definitions and the branch-and-bound."""
        full = int(tbl[t.full_mask])
        expect(full == self.chi_bb(t, t.full_mask), "table disagrees with chi at the full set")
        if want_full is not None:
            expect(full == want_full, f"chi = {full}, expected {want_full}")
        for m in self.sample_masks(t.n, 24, max_size=7):
            expect(int(tbl[m]) == self.orc.chi_by_partitions(t, m),
                   f"table[{m:#x}] disagrees with the partition oracle")
        for m in self.sample_masks(t.n, 48):
            expect(int(tbl[m]) == self.chi_bb(t, m),
                   f"table[{m:#x}] disagrees with the branch-and-bound")

    def local_number(self, t, perm) -> int:
        """Local chromatic number from position-defined local sets."""
        return max((self.chi_bb(t, s) for s in self.orc.local_sets_by_positions(t, perm)),
                   default=0)

    def corpus(self) -> dict:
        """Library representatives for n <= 6, verified to be one per class."""
        if self._corpus is None:
            got = {}
            for n in range(1, 7):
                reps = list(self.tl.enumeration.enumerate_all(n))
                codes = [lower_code(t) for t in reps]
                expect(len(reps) == A000568[n], f"{len(reps)} classes at n={n}")
                expect(len(set(codes)) == len(codes), f"repeated class at n={n}")
                expect(codes == sorted(codes), f"corpus at n={n} is not in code order")
                for t, code in zip(reps, codes):
                    expect(self.orc.canonical_code_by_relabelling(n, code) == code,
                           f"{compact(n, code)} is not canonical")
                got[n] = reps
            self._corpus = got
        return self._corpus


# ---------------------------------------------------------------------------
# scans: many small solver and analyzer calls behind the scan functions
# ---------------------------------------------------------------------------


def scans_inputs(tl, seed: int) -> dict:
    # exhaustive: the seed changes nothing here
    return {"tt2": tl.constructions.transitive_tournament(2)}


def _exhausted(rep, scan: str, params: dict):
    expect(rep.scan == scan, f"scan name {rep.scan!r}")
    expect(rep.outcome == "exhausted", f"{scan} outcome {rep.outcome!r}")
    expect(rep.witness is None, f"{scan} reports a witness")
    for key, value in params.items():
        expect(rep.params.get(key) == value, f"{scan} param {key} = {rep.params.get(key)!r}")
    classes = {int(k): v for k, v in rep.corpus["classes"].items()}
    expect(classes == {n: A000568[n] for n in classes} and len(classes) == params["n_max"],
           f"{scan} corpus classes {classes}")
    for n, row in rep.counters["per_n"].items():
        expect(row["classes"] == A000568[int(n)], f"{scan} n={n} classes {row['classes']}")


def check_suite(rep, ck: Checker):
    _exhausted(rep, "theorem-suite", {"n_max": 6})
    got = {int(n): row["numberings"] for n, row in rep.counters["per_n"].items()}
    want = {n: A000568[n] * math.factorial(n) for n in range(1, 7)}
    expect(got == want, f"numberings {got}, expected {want}")


def check_backdom(rep, ck: Checker):
    _exhausted(rep, "backdom", {"c": 2, "n_max": 6})
    frontier: dict = {}
    for n, reps in ck.corpus().items():
        for t in reps:
            d = ck.orc.dom_by_combinations(t)
            best = max(reverse_dom(t, s) for s in range(1, 1 << n))
            row = frontier.get(d)
            if row is None or best < row["max_reverse_subdom"]:
                frontier[d] = {"max_reverse_subdom": best,
                               "tournament": compact(n, lower_code(t))}
    want = {str(d): frontier[d] for d in sorted(frontier)}
    expect(rep.findings["frontier"] == want,
           f"backdom frontier {rep.findings['frontier']}, oracle {want}")
    expect(want["1"]["max_reverse_subdom"] == 1 and want["2"]["max_reverse_subdom"] == 2,
           "backdom frontier differs from tests/test_enumeration.py")


def tribip_round_trip(tl, inp):
    rep = tl.enumeration.scan_tribip(2, 6)
    back = tl.enumeration.SearchReport.from_json(rep.to_json(), revalidate=True)
    return rep, back


def check_tribip(out, ck: Checker):
    rep, back = out
    expect(rep.outcome == "witness", f"tribip outcome {rep.outcome!r}")
    expect(rep.witness == TRIBIP_WITNESS, f"tribip witness {rep.witness}")
    expect(back.witness == rep.witness and back.counters == rep.counters,
           "tribip report changed in the JSON round trip")
    t = ck.tl.formats.parse_compact(rep.witness["tournament"])
    a, b = rep.witness["a"], rep.witness["b"]
    expect(not a & b, "tribip sides intersect")
    expect(ck.orc.chi_by_partitions(t, a) >= 2 and ck.orc.chi_by_partitions(t, b) >= 2,
           "a tribip side has chi below 2")
    cyclic = [sum(1 << v for v in tri) for tri in itertools.combinations(range(t.n), 3)
              if not ck.orc.transitive_by_degrees(t, sum(1 << v for v in tri))]
    tri_a = [m for m in cyclic if not m & ~a]
    tri_b = [m for m in cyclic if not m & ~b]
    expect(not any(beats_all(t, x, y) or beats_all(t, y, x) for x in tri_a for y in tri_b),
           "tribip witness has a complete triangle pair")


def check_legends(sigma):
    def check(rep, ck: Checker):
        _exhausted(rep, "legends", {"n_max": 6, "bound": 8, "sigma": list(sigma)})
        expect(rep.findings["frontier"] == 1, f"legend frontier {rep.findings['frontier']}")
        ex = rep.findings["example"]
        t = ck.tl.formats.parse_compact(ex["tournament"])
        expect(ck.orc.dom_by_combinations(t) == ex["dom"] == 1, "legend example dom")
        expect(avoids_ordered(t, ex["numbering"], ck.inputs["tt2"], sigma),
               "legend example contains the pattern")
    return check


def check_suite_probe(probe: Probe, ck: Checker):
    if not probe.raised:
        check_suite(probe.value, ck)


SCANS = (
    Op("theorem_suite", lambda tl, inp: tl.enumeration.scan_theorem_suite(6), check_suite),
    Op("backdom", lambda tl, inp: tl.enumeration.scan_backdom(2, 6), check_backdom),
    Op("tribip", tribip_round_trip, check_tribip),
    Op("legends_01",
       lambda tl, inp: tl.enumeration.legend_frontier(inp["tt2"], tl.core.Numbering((0, 1)), 6),
       check_legends((0, 1))),
    Op("legends_10",
       lambda tl, inp: tl.enumeration.legend_frontier(inp["tt2"], tl.core.Numbering((1, 0)), 6),
       check_legends((1, 0))),
    Op("probe_suite",
       lambda tl, inp: run_probe(
           tl, lambda d: tl.enumeration.scan_theorem_suite(6, deadline=d), 0.1),
       check_suite_probe, deadline_s=0.1),
)


# ---------------------------------------------------------------------------
# instances: few large inputs, table path beside search path
# ---------------------------------------------------------------------------


def instances_inputs(tl, seed: int) -> dict:
    c, core = tl.constructions, tl.core
    s4 = c.s_t(4)
    r16 = c.random_tournament(16, seed)
    return {
        "s3": c.s_t(3),
        "s4": s4,
        "s4_natural": core.OrderedTournament(s4, core.natural_numbering(s4.n)),
        "r16": r16,
        "r16_natural": core.OrderedTournament(r16, core.natural_numbering(r16.n)),
        "r24": c.random_tournament(24, seed),
        "p19": c.paley(19),
        "p23": c.paley(23),
        "p43": c.paley(43),
    }


def check_table(name: str, want_full: Optional[int] = None):
    def check(tbl, ck: Checker):
        t = ck.inputs[name]
        if want_full is not None:
            expect(ck.orc.chi_by_cover_bfs(t) == want_full, "cover oracle disagrees")
        ck.table(t, tbl, want_full)
    return check


def check_local_s4(value, ck: Checker):
    t = ck.inputs["s4"]
    expect(value == ck.local_number(t, tuple(range(t.n))),
           "local chromatic number of s_t(4) disagrees with its local sets")


def check_diamond(got, ck: Checker):
    t = ck.inputs["s4"]
    d = got.diamond
    ab = 1 << d.a | 1 << d.b
    expect(d.a != d.b and d.p and d.q and not (d.p | d.q) & ab and not d.p & d.q,
           "diamond sides are malformed")
    expect(beats_all(t, 1 << d.a, d.p) and beats_all(t, d.p, 1 << d.b)
           and beats_all(t, 1 << d.b, d.q) and beats_all(t, d.q, 1 << d.a),
           "diamond completeness fails")
    expect(got.value == min(ck.chi_bb(t, d.p), ck.chi_bb(t, d.q)), "diamond value")
    # sides only grow chi, so the maximal sides of each apex pair decide
    best = max(
        min(ck.chi_bb(t, t.out_sets[a] & t.in_set(b)), ck.chi_bb(t, t.in_set(a) & t.out_sets[b]))
        for a in range(t.n) for b in range(t.n)
        if a != b and t.out_sets[a] & t.in_set(b) and t.in_set(a) & t.out_sets[b]
    )
    expect(got.value == best, f"diamond value {got.value}, best {best}")


def check_pair(got, ck: Checker):
    t = ck.inputs["s4"]
    p = got.pair
    expect(got.exact, "pair search on 15 vertices must be exact")
    expect(not p.a & p.b and beats_all(t, p.a, p.b), "pair is not complete")
    expect(p.quality == min(ck.chi_bb(t, p.a), ck.chi_bb(t, p.b)), "pair quality")
    # the two copies of s_t(3) give 3; quality 4 needs two disjoint 11-vertex sets
    expect(p.quality == 3, f"pair quality {p.quality}, expected 3")


def check_subdom(got, ck: Checker):
    # dom(paley(19)) = 4 bounds it below; domination 5 needs at least 47 vertices
    expect(got.exact and got.value == 4, f"subdom(paley(19)) = {got}, expected exact 4")
    expect(ck.orc.dom_by_combinations(ck.inputs["p19"]) == 4, "dom oracle on paley(19)")


def check_chi(name: str, want: Optional[int] = None):
    def check(got, ck: Checker):
        t = ck.inputs[name]
        ck.partition(t, got.classes, got.value)
        if want is not None:
            expect(got.value == want, f"chi({name}) = {got.value}, expected {want}")
        if name == "p19":
            # no transitive 6-set, so 19 vertices need at least ceil(19/5) = 4 classes
            expect(not any(ck.orc.transitive_by_degrees(t, sum(1 << v for v in s))
                           for s in itertools.combinations(range(t.n), 6)),
                   "paley(19) has a transitive 6-set")
        if name == "s4":
            expect(ck.orc.chi_by_cover_bfs(t) == got.value, "cover oracle disagrees")
    return check


def check_dom_p43(got, ck: Checker):
    t = ck.inputs["p43"]
    expect(dominates(t, got.dominating, t.full_mask), "dom witness does not dominate")
    expect(got.dominating.bit_count() == got.value, "dom witness size")
    expect(got.value == ck.tl.solvers.edom(t, t.full_mask), "dom disagrees with edom")
    expect(got.value == ck.orc.dom_by_combinations(t), "dom disagrees with the oracle")


def check_min_local(got, ck: Checker):
    numbering, value = got
    t = ck.inputs["s3"]
    expect(sorted(numbering.perm) == list(range(t.n)), "not a numbering")
    local = max(ck.orc.chi_by_partitions(t, s)
                for s in ck.orc.local_sets_by_positions(t, numbering.perm))
    expect(value == local == 1, f"min local numbering value {value}, witness gives {local}")


def check_probe_local(probe: Probe, ck: Checker):
    if not probe.raised:
        t = ck.inputs["r16"]
        expect(probe.value == ck.local_number(t, tuple(range(t.n))),
               "late local chromatic number is wrong")


def check_probe_chi(probe: Probe, ck: Checker):
    if not probe.raised:
        ck.partition(ck.inputs["p23"], probe.value.classes, probe.value.value)


INSTANCES = (
    Op("table_s4", lambda tl, inp: tl.solvers.chi_all_subsets(inp["s4"]), check_table("s4", 4)),
    Op("table_r16", lambda tl, inp: tl.solvers.chi_all_subsets(inp["r16"]), check_table("r16")),
    Op("local_s4", lambda tl, inp: tl.structure.local_chromatic_number(inp["s4_natural"]),
       check_local_s4),
    Op("diamond_s4", lambda tl, inp: tl.structure.max_diamond(inp["s4"]), check_diamond),
    Op("pair_s4", lambda tl, inp: tl.structure.best_complete_pair(inp["s4"]), check_pair),
    Op("subdom_p19", lambda tl, inp: tl.solvers.subdom(inp["p19"]), check_subdom),
    Op("chi_r24", lambda tl, inp: tl.solvers.chi(inp["r24"]), check_chi("r24")),
    Op("chi_p19", lambda tl, inp: tl.solvers.chi(inp["p19"]), check_chi("p19", 4)),
    Op("chi_s4", lambda tl, inp: tl.solvers.chi(inp["s4"]), check_chi("s4", 4)),
    Op("dom_p43", lambda tl, inp: tl.solvers.dom(inp["p43"]), check_dom_p43),
    Op("min_local_s3", lambda tl, inp: tl.structure.min_local_numbering(inp["s3"]),
       check_min_local),
    # The table path takes no deadline: this probe returns seconds late on
    # the unmodified package and must stay at this size so that shows.
    Op("probe_local_r16",
       lambda tl, inp: run_probe(
           tl, lambda d: tl.structure.local_chromatic_number(inp["r16_natural"], deadline=d),
           0.05),
       check_probe_local, deadline_s=0.05),
    Op("probe_chi_p23",
       lambda tl, inp: run_probe(tl, lambda d: tl.solvers.chi(inp["p23"], deadline=d), 0.5),
       check_probe_chi, deadline_s=0.5),
)

WORKLOADS = {
    "scans": (scans_inputs, SCANS),
    "instances": (instances_inputs, INSTANCES),
}


# ---------------------------------------------------------------------------
# corpus: outputs of the CLI runs
# ---------------------------------------------------------------------------


def check_corpus(tl, orc, corpus_bytes: bytes, seed: int):
    """The n=7 corpus file written by `tourlab enum --n 7`."""
    expect(hashlib.sha256(corpus_bytes).hexdigest() == CORPUS7_SHA256, "corpus sha256")
    lines = corpus_bytes.decode().splitlines()
    expect(len(lines) == A000568[7], f"corpus has {len(lines)} lines")
    codes = []
    for line in lines:
        head, _, digits = line.partition(":")
        expect(head == "7" and len(digits) == 6, f"corpus line {line!r}")
        codes.append(int(digits, 16))
    expect(codes == sorted(set(codes)), "corpus is not strictly ascending")
    for code in random.Random(seed).sample(codes, 4):
        expect(orc.canonical_code_by_relabelling(7, code) == code,
               f"{compact(7, code)} is not canonical")


def check_chi2_report(tl, report_text: str):
    """The report written by `tourlab scan chi2 --c 2 --nmax 7`."""
    rep = tl.enumeration.SearchReport.from_json(report_text, revalidate=True)
    _exhausted(rep, "chi2", {"c": 2, "n_max": 7})
    expect(len(rep.counters["per_n"]) == 7, "chi2 report misses a level")
    # chi >= 4 needs at least 11 vertices, so nothing qualifies up to 7
    expect(all(row["chi_at_least_2c"] == 0 for row in rep.counters["per_n"].values()),
           "chi2 counts tournaments with chi >= 4 below 11 vertices")
