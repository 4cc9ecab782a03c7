"""Invariants checked over randomized inputs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from tourlab import (
    CapacityError,
    FormatError,
    Numbering,
    OrderedTournament,
    Tournament,
    backedge_graph,
    canonical_code,
    chi,
    chi_all_subsets,
    contains,
    dom,
    edom,
    formats,
    graph_chi,
    graph_omega,
    induce,
    numbering_clique,
    reverse,
    tournament_from_backedge,
)

SLOW = settings(max_examples=40, deadline=None)
FAST = settings(max_examples=100, deadline=None)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def tournaments(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return formats.tournament_from_code(n, code)


@st.composite
def ordered_tournaments(draw, min_n=1, max_n=6):
    t = draw(tournaments(min_n, max_n))
    perm = draw(st.permutations(range(t.n)))
    return OrderedTournament(t, Numbering(tuple(perm)))


@FAST
@given(tournaments())
def test_tmt_roundtrip(t):
    assert formats.parse_tmt(formats.emit_tmt(t)) == t


@FAST
@given(tournaments())
def test_compact_roundtrip(t):
    assert formats.parse_compact(formats.emit_compact(t)) == t


@FAST
@given(tournaments())
def test_code_roundtrip(t):
    assert formats.tournament_from_code(t.n, formats.tournament_code(t)) == t


@FAST
@given(tournaments())
def test_reverse_involution_preserves_chi(t):
    assert reverse(reverse(t)) == t
    assert chi(reverse(t)).value == chi(t).value


@SLOW
@given(tournaments(min_n=1, max_n=8), st.integers(0, (1 << 8) - 1))
def test_induced_subtournament_is_contained(t, raw):
    s = raw & t.full_mask
    sub = induce(t, s)
    if sub.sub.n >= 1:
        assert contains(t, sub.sub) is not None


@SLOW
@given(tournaments(min_n=1, max_n=8), st.integers(0, (1 << 8) - 1))
def test_chi_table_pointwise(t, raw):
    s = raw & t.full_mask
    assert int(chi_all_subsets(t)[s]) == chi(t, s).value


@SLOW
@given(ordered_tournaments())
def test_backedge_sandwich(ot):
    g = backedge_graph(ot)
    value = chi(ot.t).value
    gchi = graph_chi(g)
    assert value <= gchi <= max(numbering_clique(ot), 1) * max(value, 1)
    assert graph_omega(g) <= gchi


@SLOW
@given(ordered_tournaments())
def test_backedge_reconstruction(ot):
    g = backedge_graph(ot)
    assert tournament_from_backedge(g, ot.order).t == ot.t


@SLOW
@given(tournaments(min_n=1, max_n=8))
def test_dom_at_most_chi(t):
    assert dom(t).value <= chi(t).value


@SLOW
@given(tournaments(min_n=1, max_n=8), st.integers(0, 255), st.integers(0, 255))
def test_edom_monotone_and_subadditive(t, raw_a, raw_b):
    a, b = raw_a & t.full_mask, raw_b & t.full_mask
    assert edom(t, a) <= edom(t, a | b) <= edom(t, a) + edom(t, b)
    assert edom(t, 0) == 0


@SLOW
@given(tournaments(min_n=1, max_n=6), st.data())
def test_canonical_code_relabelling_invariant(t, data):
    perm = data.draw(st.permutations(range(t.n)))
    outs = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if u != v and t.has_edge(u, v):
                outs[perm[u]] |= 1 << perm[v]
    assert canonical_code(Tournament(t.n, tuple(outs))) == canonical_code(t)


@FAST
@given(st.permutations(range(7)))
def test_numbering_inverse(perm):
    nb = Numbering(tuple(perm))
    pos = nb.position_of()
    assert all(pos[nb.perm[i]] == i for i in range(7))


# Parser fuzzing: whatever the text, a parser returns or raises FormatError or
# CapacityError. Besides arbitrary text, each parser gets valid output with one
# stretch overwritten, which reaches the checks past the header.


def _splice(text, at, piece):
    at %= len(text) + 1
    return text[:at] + piece + text[at + len(piece):]


def _mangled(emit, alphabet):
    return st.builds(_splice, tournaments(0, 6).map(emit), st.integers(0, 60),
                     st.text(alphabet=alphabet, min_size=1, max_size=3))


def _parses_or_rejects(parse, text):
    try:
        parse(text)
    except (FormatError, CapacityError):
        pass


@FUZZ
@given(st.one_of(st.text(), _mangled(formats.emit_tmt, "01\n ")))
def test_parse_tmt_raises_only_format_or_capacity_errors(text):
    _parses_or_rejects(formats.parse_tmt, text)


@FUZZ
@given(st.one_of(st.text(), _mangled(formats.emit_compact, "019af:-")))
def test_parse_compact_raises_only_format_or_capacity_errors(text):
    _parses_or_rejects(formats.parse_compact, text)


@FUZZ
@given(st.one_of(
    st.text(),
    st.lists(st.text(alphabet="0123456789-+_ ", max_size=6)).map(" ".join),
))
def test_parse_matching_raises_only_format_or_capacity_errors(text):
    _parses_or_rejects(formats.parse_matching, text)
