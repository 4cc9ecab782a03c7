"""Canonical enumeration of small tournaments and the scanning harness.

Canonical form is the lexicographically least lower-triangle code over all
vertex permutations, found by exhaustive minimization (exact by brute force,
which is the point at desk scale). Generation is orderly: canonical parents
are extended by every in/out pattern of one new final vertex, and a child
survives iff it is its own canonical form. Deleting the last vertex of a
canonical code leaves a canonical prefix, so each class appears exactly once.

Scans walk that corpus, verify proved theorems instance-by-instance, and hunt
witnesses against open conjectures; results are SearchReports whose witnesses
re-validate from their serialized form on load.

Solvers are referenced through this module's namespace so a test can swap in
a corrupted solver and confirm the harness catches it.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .core import (
    CapacityError,
    Deadline,
    Numbering,
    OrderedTournament,
    Tournament,
    backedge_graph,
    bits,
    complete_to,
    induce,
    is_transitive,
    reverse,
)
from .formats import parse_compact, emit_compact, tournament_code
from .solvers import all_triangle_law, chi_all_subsets, dom, graph_chi, graph_omega
from .structure import local_chromatic_number, max_diamond, ordered_contains

ENUM_CAP = 7

_PERMS: dict[int, np.ndarray] = {}
_LEVELS: dict[int, tuple[tuple[int, ...], ...]] = {0: ((),)}


def _perms(n: int) -> np.ndarray:
    got = _PERMS.get(n)
    if got is None:
        got = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        _PERMS[n] = got
    return got


def _adj_matrix(t: Tournament) -> np.ndarray:
    adj = np.zeros((t.n, t.n), dtype=np.uint8)
    for v in range(t.n):
        for u in bits(t.out_sets[v]):
            adj[v, u] = 1
    return adj


@dataclass(frozen=True)
class CanonicalForm:
    """n plus the lex-least lower-triangle code; equal iff isomorphic (n <= 8)."""

    n: int
    code: int


def canonical_code(t: Tournament) -> int:
    if t.n > 8:
        raise CapacityError("exhaustive canonicalization capped at 8 vertices")
    if t.n < 2:
        return 0
    return int(_kernels.min_code(_adj_matrix(t), _perms(t.n)))


def canonical_form(t: Tournament) -> CanonicalForm:
    return CanonicalForm(t.n, canonical_code(t))


def is_canonical(t: Tournament) -> bool:
    return tournament_code(t) == canonical_code(t)


def _level(n: int, deadline: Optional[Deadline] = None) -> tuple[tuple[int, ...], ...]:
    """Canonical out-set tuples at n vertices; a level is cached only once complete."""
    got = _LEVELS.get(n)
    if got is not None:
        return got
    parents = _level(n - 1, deadline)
    kept: list[tuple[int, tuple[int, ...]]] = []
    newbit = 1 << (n - 1)
    for parent in parents:
        if deadline is not None:
            deadline.check()
        for pattern in range(1 << (n - 1)):
            out = list(parent)
            for v in range(n - 1):
                if not pattern >> v & 1:
                    out[v] |= newbit
            out.append(pattern)
            cand = Tournament(n, tuple(out))
            code = tournament_code(cand)
            if code == canonical_code(cand):
                kept.append((code, cand.out_sets))
    kept.sort()
    result = tuple(outs for _, outs in kept)
    _LEVELS[n] = result
    return result


def enumerate_all(n: int) -> Iterator[Tournament]:
    """One representative per isomorphism class, ascending canonical code."""
    if n > ENUM_CAP:
        raise CapacityError(f"enumeration capped at {ENUM_CAP} vertices")
    if n < 0:
        raise ValueError("n must be non-negative")
    for outs in _level(n):
        yield Tournament(n, outs)


def count_classes(n: int) -> int:
    return len(_level(n)) if n <= ENUM_CAP else 0


def write_corpus(path: str, n: int):
    """Corpus cache: one compact-format tournament per line, canonical order."""
    with open(path, "w") as fh:
        for t in enumerate_all(n):
            fh.write(emit_compact(t) + "\n")


def read_corpus(path: str) -> list[Tournament]:
    with open(path) as fh:
        return [parse_compact(line) for line in fh if line.strip()]


@dataclass
class SearchReport:
    """Self-describing scan result; serializes to JSON with sorted keys.

    Reports are deterministic for identical inputs except wall_time. The
    witness payload, when present, must re-validate against the scan's
    predicate on load; findings carry informational aggregates (frontier
    tables, recorded minima) that are not witnesses.
    """

    scan: str
    params: dict
    corpus: dict
    outcome: str
    witness: Optional[dict]
    findings: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_json(self) -> str:
        payload = {
            "scan": self.scan,
            "params": self.params,
            "corpus": self.corpus,
            "outcome": self.outcome,
            "witness": self.witness,
            "findings": self.findings,
            "counters": self.counters,
            "wall_time": self.wall_time,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str, revalidate: bool = True) -> "SearchReport":
        raw = json.loads(text)
        report = SearchReport(
            scan=raw["scan"],
            params=raw["params"],
            corpus=raw["corpus"],
            outcome=raw["outcome"],
            witness=raw.get("witness"),
            findings=raw.get("findings", {}),
            counters=raw.get("counters", {}),
            wall_time=raw.get("wall_time", 0.0),
        )
        if revalidate:
            revalidate_witness(report)
        return report


_VALIDATORS: dict[str, Callable[[SearchReport], None]] = {}


def _validator(name: str):
    def deco(fn):
        _VALIDATORS[name] = fn
        return fn

    return deco


def revalidate_witness(report: SearchReport):
    """Re-check a loaded witness against its defining predicate; raise if stale."""
    if report.witness is None:
        return
    checker = _VALIDATORS.get(report.scan)
    if checker is None:
        raise ValueError(f"no witness validator registered for scan {report.scan!r}")
    checker(report)


def _corpus_dict(n_max: int) -> dict:
    return {
        "description": "all tournaments up to isomorphism, canonical order",
        "n_max": n_max,
        "classes": {str(n): count_classes(n) for n in range(1, n_max + 1)},
    }


def _scan(
    name: str,
    params: dict,
    n_max: int,
    deadline: Optional[Deadline],
    examine: Callable[[Tournament], tuple[int, Optional[dict]]],
    *,
    count: Optional[str] = None,
    findings: Optional[dict] = None,
    stop_at_witness: bool = True,
) -> SearchReport:
    """The corpus loop behind every scan.

    Walks the canonical corpus for n = 1..n_max, checking the deadline while
    a level is built and before each class. examine(t) returns (k, found):
    k is summed into the level's `count` counter, and the first found that
    is not None, with t's compact form added, becomes the witness. A scan
    that stops at a witness ends after the level yielding it; otherwise
    every level is walked. findings is the scan's own state, which examine
    fills in as it goes.
    """
    if n_max > ENUM_CAP:
        raise CapacityError(f"scan capped at {ENUM_CAP} vertices")
    start = time.monotonic()
    per_n: dict[str, dict] = {}
    witness = None
    for n in range(1, n_max + 1):
        _level(n, deadline)
        row = {"classes": 0} if count is None else {"classes": 0, count: 0}
        for t in enumerate_all(n):
            if deadline is not None:
                deadline.check()
            k, found = examine(t)
            row["classes"] += 1
            if count is not None:
                row[count] += k
            if found is not None and witness is None:
                witness = {"tournament": emit_compact(t), **found}
        per_n[str(n)] = row
        if witness is not None and stop_at_witness:
            break
    return SearchReport(
        scan=name,
        params=params,
        corpus=_corpus_dict(n_max),
        outcome="witness" if witness else "exhausted",
        witness=witness,
        findings={} if findings is None else findings,
        counters={"per_n": per_n},
        wall_time=time.monotonic() - start,
    )


def _chi2_profile(t: Tournament, c: int) -> Optional[tuple[int, list[int], bool]]:
    """None when chi(t) < 2c; else chi(t), each out-neighbourhood's chi, and
    whether all of those are below c, which makes t a witness."""
    tbl = chi_all_subsets(t)
    value = int(tbl[t.full_mask])
    if value < 2 * c:
        return None
    neigh = [int(tbl[t.out_sets[v]]) for v in range(t.n)]
    return value, neigh, all(x < c for x in neigh)


def scan_chi2(c: int, n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Hunt a tournament with chi >= 2c whose every out-neighbourhood has chi < c.

    Exhausts the canonical corpus up to n_max; a find would refute the
    out-neighbourhood colouring conjecture at this c.
    """

    def examine(t: Tournament):
        got = _chi2_profile(t, c)
        if got is None:
            return 0, None
        value, neigh, hit = got
        return 1, {"chi": value, "out_neighbourhood_chis": neigh} if hit else None

    params = {"c": c, "n_max": n_max}
    return _scan("chi2", params, n_max, deadline, examine, count="chi_at_least_2c")


@_validator("chi2")
def _check_chi2(report: SearchReport):
    c = report.params["c"]
    got = _chi2_profile(parse_compact(report.witness["tournament"]), c)
    if got is None:
        raise ValueError("chi2 witness fails: chromatic number below 2c")
    if not got[2]:
        raise ValueError("chi2 witness fails: some out-neighbourhood reaches c")


def _triangle_pair_between(t: Tournament, tris: Sequence[int], a: int, b: int) -> bool:
    """Whether a cyclic triangle inside a is complete to or from one inside b."""
    tri_b = [m for m in tris if not m & ~b]
    return any(
        complete_to(t, ta, tb) or complete_to(t, tb, ta)
        for ta in tris
        if not ta & ~a
        for tb in tri_b
    )


def scan_tribip(d: int, n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Hunt disjoint sets of chi >= d with no complete pair of triangles between them.

    For every canonical tournament and every disjoint (a, b) with both sides
    of chromatic number at least d, some cyclic triangle inside one side must
    be complete to one inside the other (in either orientation); a pair with
    no such triangles is a witness.
    """

    def examine(t: Tournament):
        tbl = chi_all_subsets(t)
        tris = all_triangle_law(t).members
        pairs = 0
        for a in range(1, 1 << t.n):
            if int(tbl[a]) < d:
                continue
            rest = t.full_mask & ~a
            b = rest
            # iterate the nonempty submasks of the complement
            while b:
                if int(tbl[b]) >= d and (a & -a) < (b & -b):
                    pairs += 1
                    if not _triangle_pair_between(t, tris, a, b):
                        return pairs, {"a": a, "b": b}
                b = (b - 1) & rest
        return pairs, None

    params = {"d": d, "n_max": n_max}
    return _scan("tribip", params, n_max, deadline, examine, count="qualifying_pairs")


@_validator("tribip")
def _check_tribip(report: SearchReport):
    d = report.params["d"]
    t = parse_compact(report.witness["tournament"])
    a, b = report.witness["a"], report.witness["b"]
    for side in (a, b):
        if not isinstance(side, int) or side <= 0 or side & ~t.full_mask:
            raise ValueError("tribip witness fails: a side is empty or outside the vertices")
    if a & b:
        raise ValueError("tribip witness fails: sides intersect")
    tbl = chi_all_subsets(t)
    if int(tbl[a]) < d or int(tbl[b]) < d:
        raise ValueError("tribip witness fails: a side has chi below d")
    if _triangle_pair_between(t, all_triangle_law(t).members, a, b):
        raise ValueError("tribip witness fails: a complete triangle pair exists")


def _suite_violation(t: Tournament, perms) -> tuple[Optional[tuple], int]:
    """The first proved theorem t breaks, as (name, numbering, lhs, rhs), or None.

    dom <= chi is checked first, then each numbering of perms in turn; the
    second value is the number of numberings tried.
    """
    tbl = chi_all_subsets(t)
    chi_value = int(tbl[t.full_mask])
    dom_value = dom(t).value
    if dom_value > chi_value:
        return ("dom_le_chi", None, dom_value, chi_value), 0
    diamond_value = None  # only the numbering checks use it
    tried = 0
    for perm in perms:
        tried += 1
        if diamond_value is None:
            best = max_diamond(t)
            diamond_value = 0 if best is None else best.value
        ot = OrderedTournament(t, Numbering(perm))
        local = local_chromatic_number(ot, table=tbl)
        g = backedge_graph(ot)
        gchi = graph_chi(g)
        gomega = graph_omega(g)
        if not chi_value <= gchi <= gomega * max(chi_value, 1):
            return ("backedge_sandwich", perm, (chi_value, gchi, gomega), None), tried
        if diamond_value > 2 * local:
            return ("diamond_le_2local", perm, diamond_value, local), tried
        if dom_value > local + 1:
            return ("dom_le_local_plus_1", perm, dom_value, local), tried
    return None, tried


def scan_theorem_suite(n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Assert proved theorems over the corpus; any violation is a bug certificate.

    Numbering-free checks (dom <= chi) run for all n <= n_max (cap 7); the
    per-numbering checks (backedge sandwich, diamond bound against twice the
    local chromatic number, dom <= local + 1) run for n <= 6.
    """

    def examine(t: Tournament):
        perms = itertools.permutations(range(t.n)) if t.n <= 6 else ()
        bad, tried = _suite_violation(t, perms)
        if bad is None:
            return tried, None
        name, perm, lhs, rhs = bad
        numbering = list(perm) if perm is not None else None
        return tried, {"theorem": name, "numbering": numbering, "lhs": lhs, "rhs": rhs}

    params = {"n_max": n_max}
    return _scan("theorem-suite", params, n_max, deadline, examine, count="numberings")


@_validator("theorem-suite")
def _check_theorem_suite(report: SearchReport):
    t = parse_compact(report.witness["tournament"])
    name = report.witness["theorem"]
    perm = report.witness["numbering"]
    bad, _ = _suite_violation(t, [] if perm is None else [tuple(perm)])
    if bad is None or bad[0] != name:
        raise ValueError(f"suite witness fails: {name!r} holds after all")


def _max_reverse_subdom(t: Tournament) -> int:
    """The largest domination number of a reversed nonempty induced subtournament."""
    return max((dom(reverse(induce(t, s).sub)).value for s in range(1, 1 << t.n)), default=0)


def scan_backdom(c: int, n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Frontier of reverse subdomination against domination.

    For each tournament, records dom(t) and the largest domination number of
    a reversed induced subtournament; the findings table keeps, per dom
    value, the smallest such maximum with an example. A tournament with
    dom >= c whose maximum stays below c would witness against the reverse
    rebel belief at this c (proved impossible for c = 2).
    """
    frontier: dict[str, dict] = {}

    def examine(t: Tournament):
        d = dom(t).value
        best = _max_reverse_subdom(t)
        row = frontier.get(str(d))
        if row is None or best < row["max_reverse_subdom"]:
            frontier[str(d)] = {"max_reverse_subdom": best, "tournament": emit_compact(t)}
        if d >= c and best < c:
            return 0, {"dom": d, "max_reverse_subdom": best}
        return 0, None

    params = {"c": c, "n_max": n_max}
    return _scan(
        "backdom", params, n_max, deadline, examine,
        findings={"frontier": frontier}, stop_at_witness=False,
    )


@_validator("backdom")
def _check_backdom(report: SearchReport):
    c = report.params["c"]
    t = parse_compact(report.witness["tournament"])
    if dom(t).value < c:
        raise ValueError("backdom witness fails: dom below c")
    if _max_reverse_subdom(t) >= c:
        raise ValueError("backdom witness fails: reverse subdomination reaches c")


LEGEND_SAMPLE_SEED = 20240809
LEGEND_SAMPLES = 100000


def legend_frontier(
    h: Tournament,
    sigma: Numbering,
    n_max: int,
    *,
    deadline: Optional[Deadline] = None,
) -> SearchReport:
    """Largest domination number among ordered tournaments avoiding (h, sigma).

    h must be transitive (only transitive ordered tournaments are unavoidable
    at high domination). All numberings are tried for n <= 6; at n = 7 a
    fixed PCG64 sample of 10^5 numberings per class stands in, and the report
    flags that level as evidence-only. The frontier is asserted below
    |h| * 2^|h|.
    """
    if not is_transitive(h):
        raise ValueError("h must be transitive")
    if not isinstance(sigma, Numbering):
        sigma = Numbering(tuple(sigma))
    if len(sigma) != h.n:
        raise ValueError("sigma length differs from h")
    bound = h.n * (1 << h.n)
    oh = OrderedTournament(h, sigma)
    findings = {"frontier": 0, "example": None}

    def numberings_for(t: Tournament):
        if t.n <= 6:
            return itertools.permutations(range(t.n))
        rng = np.random.Generator(np.random.PCG64(LEGEND_SAMPLE_SEED))
        return (
            tuple(int(x) for x in rng.permutation(t.n)) for _ in range(LEGEND_SAMPLES)
        )

    def examine(t: Tournament):
        for perm in numberings_for(t):
            if deadline is not None:
                deadline.check()
            if ordered_contains(OrderedTournament(t, Numbering(perm)), oh) is None:
                break
        else:
            return 0, None
        value = dom(t).value
        if value > findings["frontier"]:
            findings["frontier"] = value
            findings["example"] = {
                "tournament": emit_compact(t),
                "numbering": list(perm),
                "dom": value,
            }
        return 1, {"numbering": list(perm), "dom": value} if value >= bound else None

    params = {
        "h": emit_compact(h),
        "sigma": list(sigma.perm),
        "n_max": n_max,
        "bound": bound,
        "n7_sampling": {"seed": LEGEND_SAMPLE_SEED, "samples": LEGEND_SAMPLES}
        if n_max >= 7
        else None,
    }
    return _scan(
        "legends", params, n_max, deadline, examine,
        count="classes_with_avoiding_numbering", findings=findings, stop_at_witness=False,
    )


@_validator("legends")
def _check_legends(report: SearchReport):
    h = parse_compact(report.params["h"])
    sigma = Numbering(tuple(report.params["sigma"]))
    t = parse_compact(report.witness["tournament"])
    nb = Numbering(tuple(report.witness["numbering"]))
    if ordered_contains(OrderedTournament(t, nb), OrderedTournament(h, sigma)) is not None:
        raise ValueError("legend witness fails: the pattern is contained after all")
    if dom(t).value < report.params["bound"]:
        raise ValueError("legend witness fails: domination below the bound")
