"""Canonical enumeration of small tournaments and the scanning harness.

Canonical form is the lexicographically least lower-triangle code over all
vertex permutations. The kernel finds it exactly by building the relabelling
one row at a time and extending only the prefixes that tie the least rows so
far, so no permutation table is materialized. Generation is orderly:
canonical parents are extended by every in/out pattern of one new final
vertex, and a child survives iff it is its own canonical form. Deleting the
last vertex of a canonical code leaves a canonical prefix, so each class
appears exactly once. Whether a child is its own canonical form is a yes/no
question, answered by the kernel behind is_canonical: a depth-first prefix
search stops at the first relabelling whose rows fall below the child's own,
so no rejected child has its least code computed. Each kept child's code is
confirmed against canonical_code before the level is cached.

Scans walk that corpus, verify proved theorems instance-by-instance, and hunt
witnesses against open conjectures; results are SearchReports. Each scan
states its claim once, as an examine function built from the report's params
(the _SCANS table). A witness loaded from a report is valid iff that examine,
rebuilt from the loaded params, finds the same witness again on the witness
tournament.

Solvers are referenced through this module's namespace so a test can swap in
a corrupted solver and confirm the harness catches it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterator, Optional, Sequence

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
    numberings,
    reverse,
)
from .formats import parse_compact, emit_compact, tournament_code
from .solvers import all_triangle_law, chi_all_subsets, dom, graph_chi, graph_omega
from .structure import local_chromatic_number, max_diamond, min_local_numbering, ordered_contains

ENUM_CAP = 7

_LEVELS: dict[int, tuple[tuple[int, ...], ...]] = {0: ((),)}


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
    return _kernels.min_code(t.out_sets, t.n)


def canonical_form(t: Tournament) -> CanonicalForm:
    return CanonicalForm(t.n, canonical_code(t))


def is_canonical(t: Tournament) -> bool:
    """True iff t's own code is its canonical code (no relabelling beats it)."""
    if t.n > 8:
        raise CapacityError("exhaustive canonicalization capped at 8 vertices")
    return _kernels.is_least_code(t.out_sets, t.n)


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
            if not _kernels.is_least_code(out, n):
                continue
            cand = Tournament(n, tuple(out))
            code = tournament_code(cand)
            if canonical_code(cand) != code:
                raise AssertionError(f"kept candidate {out} at n={n} is not canonical")
            kept.append((code, cand.out_sets))
    kept.sort()
    result = tuple(outs for _, outs in kept)
    _LEVELS[n] = result
    return result


def enumerate_all(n: int, *, deadline: Optional[Deadline] = None) -> Iterator[Tournament]:
    """One representative per isomorphism class, ascending canonical code.

    A level not yet cached is built first, checking the deadline once per
    parent class; nothing is yielded until the whole level is built.
    """
    if n > ENUM_CAP:
        raise CapacityError(f"enumeration capped at {ENUM_CAP} vertices")
    if n < 0:
        raise ValueError("n must be non-negative")
    for outs in _level(n, deadline):
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
    witness payload, when present, is valid iff the scan's own examine,
    rebuilt from params, finds it again on load; findings carry
    informational aggregates (frontier tables, recorded minima) that are
    not witnesses.
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
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str, revalidate: bool = True) -> "SearchReport":
        """Load a report; a malformed report raises ValueError.

        With revalidate, so does a report that contradicts itself or whose
        witness the scan no longer finds (revalidate_witness).
        """
        raw = json.loads(text)
        names = [f.name for f in fields(SearchReport)]
        try:
            report = SearchReport(**{k: raw[k] for k in names if k in raw})
            if revalidate:
                revalidate_witness(report)
        except (LookupError, TypeError, AttributeError, CapacityError) as exc:
            # a field of the wrong shape surfaces where the scan first reads it
            raise ValueError(f"malformed report: {exc!r}") from exc
        return report


def revalidate_witness(report: SearchReport):
    """Raise ValueError unless the report agrees with itself and its scan
    finds the same witness again.

    The checks that run no scan come first: params["n_max"] is an int in
    1..ENUM_CAP; the outcome is "witness" iff there is a witness, whose
    order lies in 1..n_max; corpus is _corpus_dict(n_max); and per_n holds
    the levels 1..k, k being the witness's order for a scan that stops at a
    witness and n_max otherwise. Then the scan's examine, rebuilt from
    report.params, is re-run on the witness tournament.
    """
    n_max = report.params["n_max"]
    # first, so nothing below loops over a huge n_max, and no witness is
    # re-run above the cap (tribip there costs 3^n subset pairs)
    if type(n_max) is not int or not 1 <= n_max <= ENUM_CAP:
        raise ValueError(f"params n_max {n_max!r} is not an int in 1..{ENUM_CAP}")
    entry = _SCANS.get(report.scan)
    if entry is None:
        raise ValueError(f"no scan named {report.scan!r}")
    if report.outcome != ("exhausted" if report.witness is None else "witness"):
        raise ValueError(f"outcome {report.outcome!r} disagrees with witness {report.witness}")
    t = None if report.witness is None else parse_compact(report.witness["tournament"])
    if t is not None and not 1 <= t.n <= n_max:
        raise ValueError(f"witness has {t.n} vertices; the scan walks n = 1..{n_max}")
    if report.corpus != _corpus_dict(n_max):
        raise ValueError(f"corpus {report.corpus} is not the corpus up to n = {n_max}")
    last = t.n if t is not None and entry[2] else n_max
    per_n = report.counters["per_n"]
    if not isinstance(per_n, dict) or set(per_n) != {str(n) for n in range(1, last + 1)}:
        raise ValueError(f"per_n levels {list(per_n)} are not 1..{last}")
    if t is None:
        return
    examine, _ = entry[0](report.params, None)
    _, found = examine(t)
    if found is None or {"tournament": emit_compact(t), **found} != report.witness:
        raise ValueError(f"{report.scan} witness fails: the scan finds {found} on it")


def _corpus_dict(n_max: int) -> dict:
    return {
        "description": "all tournaments up to isomorphism, canonical order",
        "n_max": n_max,
        "classes": {str(n): count_classes(n) for n in range(1, n_max + 1)},
    }


def _scan(name: str, params: dict, deadline: Optional[Deadline]) -> SearchReport:
    """The corpus loop behind every scan.

    The scan's _SCANS entry gives its examine factory, its counter name and
    whether it stops at a witness. Walks the canonical corpus for
    n = 1..params["n_max"], checking the deadline while a level is built and
    before each class. examine(t) returns (k, found): k is summed into the
    level's counter, and the first found that is not None, with t's compact
    form added, becomes the witness. revalidate_witness re-runs the same
    examine, so a witness is valid iff the scan finds it again. A scan that
    stops at a witness ends after the level yielding it; otherwise every
    level is walked. findings is the scan's own state, which examine fills
    in as it goes.
    """
    make, count, stop_at_witness = _SCANS[name]
    n_max = params["n_max"]
    if n_max < 1:
        raise ValueError("a scan walks at least the 1-vertex level")
    if n_max > ENUM_CAP:
        raise CapacityError(f"scan capped at {ENUM_CAP} vertices")
    start = time.monotonic()
    examine, findings = make(params, deadline)
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
        findings=findings,
        counters={"per_n": per_n},
        wall_time=time.monotonic() - start,
    )


def _chi2_examine(params: dict, deadline: Optional[Deadline]):
    c = params["c"]

    def examine(t: Tournament):
        tbl = chi_all_subsets(t)
        value = int(tbl[t.full_mask])
        if value < 2 * c:
            return 0, None
        neigh = [int(tbl[t.out_sets[v]]) for v in range(t.n)]
        hit = all(x < c for x in neigh)
        return 1, {"chi": value, "out_neighbourhood_chis": neigh} if hit else None

    return examine, {}


def scan_chi2(c: int, n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Hunt a tournament with chi >= 2c whose every out-neighbourhood has chi < c.

    Exhausts the canonical corpus up to n_max; a find would refute the
    out-neighbourhood colouring conjecture at this c.
    """
    return _scan("chi2", {"c": c, "n_max": n_max}, deadline)


def _triangle_pair_between(t: Tournament, tris: Sequence[int], a: int, b: int) -> bool:
    """Whether a cyclic triangle inside a is complete to or from one inside b."""
    tri_b = [m for m in tris if not m & ~b]
    return any(
        complete_to(t, ta, tb) or complete_to(t, tb, ta)
        for ta in tris
        if not ta & ~a
        for tb in tri_b
    )


def _tribip_examine(params: dict, deadline: Optional[Deadline]):
    d = params["d"]

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

    return examine, {}


def scan_tribip(d: int, n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Hunt disjoint sets of chi >= d with no complete pair of triangles between them.

    For every canonical tournament and every disjoint (a, b) with both sides
    of chromatic number at least d, some cyclic triangle inside one side must
    be complete to one inside the other (in either orientation); a pair with
    no such triangles is a witness.
    """
    return _scan("tribip", {"d": d, "n_max": n_max}, deadline)


def _suite_violation(
    t: Tournament, walk, solved: Optional[dict] = None
) -> tuple[Optional[tuple], int]:
    """The first proved theorem t breaks, as (name, numbering, lhs, rhs), or None.

    dom <= chi is checked first, then each numbering of walk in turn; walk
    yields (perm, rows) as core.numberings does, rows[v] being v's backedge
    set under perm. The second value is the number of numberings tried.

    The two local checks, diamond <= 2 local and dom <= local + 1, hold under
    every numbering iff they hold at the least local chromatic number, which
    depends on the class alone. So on the first numbering min_local_numbering
    finds that least value (exact), one local_chromatic_number call on its
    numbering confirms it, and the class is certified when both checks hold
    there: a proof for every numbering. Only an uncertified class computes
    each numbering's local chromatic number, in the same check order, so the
    first violation and the count of numberings tried do not change.

    Every numbering is still checked against the backedge sandwich. solved
    maps a labelled backedge graph to its (graph_chi, graph_omega) pair, so
    each distinct graph is solved once for as long as the caller keeps the
    dict (one scan in _suite_examine; this call alone when it is None). The
    key packs rows one byte each under a leading 1 byte, in C by bytes and
    int.from_bytes: each row is below 2^n <= 2^8 for a walk up to 8
    vertices, and the leading byte sets the orders apart, so no two graphs
    share a key. An int takes 8 bytes less per stored graph than the bytes
    object would. Each pair is also kept keyed by itself, so the entries
    share one tuple per distinct pair instead of one per graph. The cache is
    exact: chi and omega are functions of the graph alone, and a miss builds
    the graph with backedge_graph, which validates it, before either solver
    sees it.
    """
    if solved is None:
        solved = {}
    tbl = chi_all_subsets(t).tolist()  # list indexing beats numpy scalars per numbering
    chi_value = tbl[t.full_mask]
    dom_value = dom(t).value
    if dom_value > chi_value:
        return ("dom_le_chi", None, dom_value, chi_value), 0
    certified = None  # only the numbering checks need it
    tried = 0
    for perm, rows in walk:
        tried += 1
        if certified is None:
            best = max_diamond(t)
            diamond_value = 0 if best is None else best.value
            least_numbering, least = min_local_numbering(t)
            if local_chromatic_number(OrderedTournament(t, least_numbering), table=tbl) != least:
                raise AssertionError(
                    f"min_local_numbering reports {least} for a numbering it does not attain"
                )
            certified = diamond_value <= 2 * least and dom_value <= least + 1
        key = int.from_bytes(bytes(rows) + b"\x01", "little")
        pair = solved.get(key)
        if pair is None:
            g = backedge_graph(OrderedTournament(t, Numbering(perm)))
            pair = (graph_chi(g), graph_omega(g))
            pair = solved[key] = solved.setdefault(pair, pair)
        gchi, gomega = pair
        if not chi_value <= gchi <= gomega * max(chi_value, 1):
            # a list, as JSON reads it back, so a loaded witness compares equal
            return ("backedge_sandwich", perm, [chi_value, gchi, gomega], None), tried
        if certified:
            continue
        local = local_chromatic_number(OrderedTournament(t, Numbering(perm)), table=tbl)
        if diamond_value > 2 * local:
            return ("diamond_le_2local", perm, diamond_value, local), tried
        if dom_value > local + 1:
            return ("dom_le_local_plus_1", perm, dom_value, local), tried
    return None, tried


def _suite_examine(params: dict, deadline: Optional[Deadline]):
    solved: dict = {}  # graph key -> pair, and each pair -> itself

    def examine(t: Tournament):
        bad, tried = _suite_violation(t, numberings(t) if t.n <= 6 else (), solved)
        if bad is None:
            return tried, None
        name, perm, lhs, rhs = bad
        numbering = list(perm) if perm is not None else None
        return tried, {"theorem": name, "numbering": numbering, "lhs": lhs, "rhs": rhs}

    return examine, {}


def scan_theorem_suite(n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Assert proved theorems over the corpus; any violation is a bug certificate.

    Numbering-free checks (dom <= chi) run for all n <= n_max (cap 7); the
    numbering checks (backedge sandwich, diamond bound against twice the
    local chromatic number, dom <= local + 1) run for n <= 6. The two local
    checks are certified once per class at its least local chromatic number
    (min_local_numbering), which proves them for every numbering; a class
    that fails the certificate is checked numbering by numbering. The
    sandwich is checked on every numbering of the walk of core.numberings.
    Within one scan each distinct labelled backedge graph is solved once:
    its (graph_chi, graph_omega) pair is cached under its backedge sets,
    taken from the walk, which is exact because both values depend on the
    graph alone. Up to n = 6 that is 10,715 solves for 41,871 numberings.
    """
    return _scan("theorem-suite", {"n_max": n_max}, deadline)


def _max_reverse_subdom(t: Tournament) -> int:
    """The largest domination number of a reversed nonempty induced subtournament."""
    return max((dom(reverse(induce(t, s).sub)).value for s in range(1, 1 << t.n)), default=0)


def _backdom_examine(params: dict, deadline: Optional[Deadline]):
    c = params["c"]
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

    return examine, {"frontier": frontier}


def scan_backdom(c: int, n_max: int, *, deadline: Optional[Deadline] = None) -> SearchReport:
    """Frontier of reverse subdomination against domination.

    For each tournament, records dom(t) and the largest domination number of
    a reversed induced subtournament; the findings table keeps, per dom
    value, the smallest such maximum with an example. A tournament with
    dom >= c whose maximum stays below c would witness against the reverse
    rebel belief at this c (proved impossible for c = 2).
    """
    return _scan("backdom", {"c": c, "n_max": n_max}, deadline)


def _first_avoiding_numbering(
    t: Tournament, oh: OrderedTournament, deadline: Optional[Deadline]
) -> Optional[tuple[int, ...]]:
    """The first numbering of t in itertools.permutations order that avoids oh.

    The first numbering core.numberings yields when its cut drops every
    prefix that contains a copy of the pattern. A copy appears the moment its
    last vertex is placed, so the cut seeks only copies ending at the vertex
    being placed, by a search that fills the pattern's positions from the
    last one down. The walk checks the deadline once per step.
    """
    hp, m = oh.order.perm, oh.t.n
    if m == 0:
        return None  # the empty pattern occurs under every numbering
    ins = [t.in_set(v) for v in range(t.n)]
    # rel[b][a][u]: the vertices that may fill pattern position a < b when u fills b
    rel = [[ins if oh.t.has_edge(hp[a], hp[b]) else t.out_sets for a in range(b)]
           for b in range(m)]
    before = [0] * t.n  # before[u]: the vertices numbered before u
    last = rel[m - 1]

    def completes(cands: list[int]) -> bool:
        # cands[a]: the vertices that may fill pattern position a, the
        # positions from len(cands) up being filled already
        b = len(cands) - 1
        if b < 0:
            return True
        if not all(cands):
            return False
        row = rel[b]
        for u in bits(cands[b]):
            below = before[u]
            if completes([cands[a] & below & row[a][u] for a in range(b)]):
                return True
        return False

    def cut(v: int, placed: int, row: int) -> bool:
        if completes([placed & r[v] for r in last]):
            return True
        before[v] = placed
        return False

    return next((perm for perm, _ in numberings(t, cut, deadline)), None)


def _legends_examine(params: dict, deadline: Optional[Deadline]):
    oh = OrderedTournament(parse_compact(params["h"]), Numbering(tuple(params["sigma"])))
    bound = params["bound"]
    findings = {"frontier": 0, "example": None}

    def examine(t: Tournament):
        perm = _first_avoiding_numbering(t, oh, deadline)
        if perm is None:
            return 0, None
        if ordered_contains(OrderedTournament(t, Numbering(perm)), oh) is not None:
            raise AssertionError("prefix search returned a numbering containing the pattern")
        value = dom(t).value
        if value > findings["frontier"]:
            findings["frontier"] = value
            findings["example"] = {
                "tournament": emit_compact(t),
                "numbering": list(perm),
                "dom": value,
            }
        return 1, {"numbering": list(perm), "dom": value} if value >= bound else None

    return examine, findings


def legend_frontier(
    h: Tournament,
    sigma: Numbering,
    n_max: int,
    *,
    deadline: Optional[Deadline] = None,
) -> SearchReport:
    """Largest domination number among ordered tournaments avoiding (h, sigma).

    h must be transitive (only transitive ordered tournaments are unavoidable
    at high domination). Every numbering of every class is covered, at each
    n and without sampling, by the cut walk of _first_avoiding_numbering;
    the numbering it returns is confirmed with ordered_contains before it is
    reported. The frontier is asserted below |h| * 2^|h|.
    """
    if not is_transitive(h):
        raise ValueError("h must be transitive")
    if not isinstance(sigma, Numbering):
        sigma = Numbering(tuple(sigma))
    if len(sigma) != h.n:
        raise ValueError("sigma length differs from h")
    # n7_sampling stays in the params, always null, so reports keep their keys
    params = {
        "h": emit_compact(h),
        "sigma": list(sigma.perm),
        "n_max": n_max,
        "bound": h.n * (1 << h.n),
        "n7_sampling": None,
    }
    return _scan("legends", params, deadline)


# scan name -> (examine factory, per-level counter name, stops at a witness)
_SCANS: dict[str, tuple[Callable, Optional[str], bool]] = {
    "chi2": (_chi2_examine, "chi_at_least_2c", True),
    "tribip": (_tribip_examine, "qualifying_pairs", True),
    "theorem-suite": (_suite_examine, "numberings", True),
    "backdom": (_backdom_examine, None, False),
    "legends": (_legends_examine, "classes_with_avoiding_numbering", False),
}
