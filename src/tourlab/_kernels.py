"""Bitset kernels behind the hot loops.

Vectorized numpy where the computation vectorizes (transitive tables, chi
tables by zeta/Mobius cover products, the greedy domination certificates of
the subdomination scan) and plain Python loops over int bitsets where it is
sequential (canonical-code branch-and-bound and the orderly generation test,
domination search, and the scan's exact fallback on the subsets no
certificate settles).
"""

from typing import Optional

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, stamped into run records."""
    return "pure"


# ---------------------------------------------------------------------------
# canonical lower-triangular codes
#
# The code of a labeled tournament is the C(n,2)-bit integer whose bits are
# the entries (i,j) with i > j in row-major order ((1,0),(2,0),(2,1),...),
# first bit most significant, entry = 1 iff i -> j. The canonical form is the
# least code over all relabellings. Rows have fixed widths, so the least code
# has the least row 1, then the least row 2 among those, and so on: the
# relabelling is built one position at a time, and only the prefixes whose
# rows so far tie the minimum are extended. Row i of a prefix extended by v
# is v's out-bits against the prefix vertices, earliest vertex first.
#
# Orderly generation needs only a yes/no answer: is the identity labelling's
# code already least? Its own rows are the bound, and a prefix that ties the
# bound on every earlier row and falls below it on the next one is a
# relabelling with a smaller code, whatever comes after, so the search stops
# on the first such row. A row above the bound ends its prefix. Only prefixes
# tying the bound are extended, depth-first, so a candidate that is not least
# is refuted without its least code ever being computed.
# ---------------------------------------------------------------------------

def min_code(out_sets, n: int) -> int:
    """Least lower-triangular code of the tournament over all relabellings."""
    code = 0
    tied = [()]
    for i in range(n):
        best = 1 << i
        keep = []
        for prefix in tied:
            for v in range(n):
                if v in prefix:
                    continue
                out = out_sets[v]
                row = 0
                for u in prefix:
                    row = row << 1 | out >> u & 1
                if row <= best:
                    if row < best:
                        best = row
                        keep = []
                    keep.append(prefix + (v,))
        code = code << i | best
        tied = keep
    return code


def is_least_code(out_sets, n: int) -> bool:
    """True iff no relabelling has a smaller lower-triangular code."""
    bound = []
    for i in range(n):
        out = out_sets[i]
        row = 0
        for u in range(i):
            row = row << 1 | out >> u & 1
        bound.append(row)
    stack = [()]
    while stack:
        prefix = stack.pop()
        i = len(prefix)
        if i == n:
            continue
        b = bound[i]
        # pushed in descending order, so the lowest tying vertex is popped first
        for v in range(n - 1, -1, -1):
            if v in prefix:
                continue
            out = out_sets[v]
            row = 0
            for u in prefix:
                row = row << 1 | out >> u & 1
            if row < b:
                return False  # rows 0..i-1 tie, so this relabelling's code is smaller
            if row == b:
                stack.append(prefix + (v,))
    return True


# ---------------------------------------------------------------------------
# transitive-subset table
#
# tbl[mask] = 1 iff the subtournament induced on mask has no cyclic triangle.
# Peeling the highest vertex h of the mask: transitive iff the rest is and no
# cyclic triangle runs through h.
# ---------------------------------------------------------------------------

def transitive_table(out_sets, n: int) -> np.ndarray:
    """0/1 array over all 2**n vertex subsets: induced set is transitive."""
    size = 1 << n
    tbl = np.ones(size, np.uint8)
    full = size - 1
    in_sets = [full & ~(o | (1 << v)) for v, o in enumerate(out_sets)]
    for h in range(n):
        block = 1 << h
        rests = np.arange(block, dtype=np.int64)
        below = block - 1
        tri = np.zeros(block, dtype=bool)
        outs_h = out_sets[h] & below
        in_h = in_sets[h]
        u = 0
        rem = outs_h
        while rem:
            if rem & 1:
                hit = out_sets[u] & in_h & below
                tri |= (((rests >> u) & 1) != 0) & ((rests & hit) != 0)
            rem >>= 1
            u += 1
        tbl[block:2 * block] = tbl[:block] & (~tri).astype(np.uint8)
    return tbl


# ---------------------------------------------------------------------------
# chromatic-number table (cover products)
#
# zeta turns a[S] into the sum of a[T] over the subsets T of S, one pass per
# coordinate; the Mobius transform (inverse=True) undoes it. Let cover_1 be
# the transitive table (the empty set counts as transitive) and
#   cover_k = [mobius(zeta(cover_{k-1}) * zeta(trans)) > 0].
# Before the threshold, entry S counts the pairs (X, Y) with X covered by
# k-1 transitive sets, Y transitive and X | Y = S, so cover_k[S] says S is
# covered by k transitive sets; chi[S] is the least such k. Exactness in
# int64: at every pass of either transform, entry S counts pairs (X, Y)
# whose union is pinned to S on the coordinates processed so far, so values
# stay between 0 and 4^n <= 2^40 under the n <= 20 guard.
# ---------------------------------------------------------------------------

def zeta(a: np.ndarray, deadline=None, inverse: bool = False) -> np.ndarray:
    """Subset-sum (or, inverse, Mobius) transform of a, in place.

    a has 2**n entries indexed by vertex mask. The deadline, if any, is
    checked once per pass over a coordinate.
    """
    for i in range(len(a).bit_length() - 1):
        if deadline is not None:
            deadline.check()
        pairs = a.reshape(-1, 2, 1 << i)
        if inverse:
            pairs[:, 1] -= pairs[:, 0]
        else:
            pairs[:, 1] += pairs[:, 0]
    return a


def chi_table_from_trans(trans: np.ndarray, deadline=None) -> np.ndarray:
    """chi of every vertex subset, given the transitive-subset table.

    One pair of transforms per colour; the deadline, if any, is checked once
    per transform pass.
    """
    cover = trans.astype(np.int64)
    cover[0] = 1
    zt = zeta(cover.copy(), deadline)
    hit = cover > 0
    tbl = np.zeros(len(trans), np.uint8)
    # tbl counts the rounds that leave a subset uncovered: chi is one more,
    # except for the empty set
    while not hit.all():
        tbl += ~hit
        zeta(cover, deadline)
        cover *= zt
        zeta(cover, deadline, inverse=True)
        np.greater(cover, 0, out=hit)
        cover[:] = hit
    tbl[1:] += 1
    return tbl


# ---------------------------------------------------------------------------
# domination search and subset-domination scan
#
# A vertex is covered by X when it lies in X or has an in-neighbour in X.
# The search branches on the lowest uncovered vertex: it, or one of its
# in-neighbours, must be in X. The scan takes the maximum over subsets S of
# the domination number of the subtournament induced on S. It seeds the
# maximum `best` with the exact value of the first subset, then takes the
# subsets in numpy chunks and certifies dom(S) <= best for a whole chunk at
# once: best - 1 greedy steps, each adding the vertex of S that covers the
# most still-uncovered vertices of S, then an exact last step asking whether
# one vertex of S covers the rest. A certificate is at most best vertices of
# S dominating S, so a certified subset cannot raise the maximum. Only the
# subsets it leaves open go through the exact search, one at a time: a
# feasibility test at best, and on failure deepening to the new maximum.
# On a 2-core x86 box, paley(19) (524,287 subsets, none left open) takes
# about 0.1-0.2 s this way, against 0.8-1.5 s for one exact search per
# subset; random 20-vertex tournaments (seeds 0-3) leave 33 to 7,554
# subsets open and take about 0.2-0.4 s.
# ---------------------------------------------------------------------------

_CHUNK = 1 << 12  # about 0.3 MB of certificate work arrays at 20 vertices


def dom_search(out_sets, in_sets, within: int, und: int, k: int,
               deadline=None) -> Optional[int]:
    """A set X of at most k vertices of within covering und, or None.

    Candidates are tried in index order; the deadline, if any, is checked
    once per search node.
    """
    if und == 0:
        return 0
    if k == 0:
        return None
    if deadline is not None:
        deadline.check()
    u = (und & -und).bit_length() - 1
    cand = (in_sets[u] | (1 << u)) & within
    while cand:
        c = cand & -cand
        cand ^= c
        rest = und & ~(out_sets[c.bit_length() - 1] | c)
        x = dom_search(out_sets, in_sets, within, rest, k - 1, deadline)
        if x is not None:
            return x | c
    return None


def _certified(closed: np.ndarray, masks: np.ndarray, k: int) -> np.ndarray:
    """Boolean per mask S: k greedy steps inside S dominate S.

    closed[v] holds v and its out-neighbours, and masks is a 1-d array; both
    are uint64. Each step adds the vertex of S that covers the most
    still-uncovered vertices of S (the highest index among ties), so the
    last step is exact: it empties the uncovered set iff one vertex of S
    covers all of it. True proves dom(S) <= k; False proves nothing.
    """
    n = len(closed)
    index = np.arange(n, dtype=np.uint16)[:, None]
    # filled one vertex row at a time, so no n x 64-bit array is ever built
    inside = np.empty((n, len(masks)), bool)
    key = np.empty((n, len(masks)), np.uint16)
    row = np.empty_like(masks)
    for v in range(n):
        np.bitwise_and(masks, np.uint64(1 << v), out=row)
        np.not_equal(row, 0, out=inside[v])
    und = masks.copy()
    for _ in range(k):
        for v in range(n):
            np.bitwise_and(und, closed[v], out=row)
            np.bitwise_count(row, out=key[v])
        # gain << 6 | v orders by gain, then by index (v < 64); 0 outside S
        key <<= 6
        key |= index
        key *= inside
        und &= ~closed[key.max(axis=0) & 63]
        if not und.any():
            break
    return und == 0


def subdom_scan(out_sets, n: int, masks=None, deadline=None) -> int:
    """max over nonempty subsets S of dom(induced subtournament on S).

    S runs over every nonempty subset, or over the given nonempty masks.
    The maximum starts at the exact value of the first subset scanned (the
    full set when masks is None, else masks[0]). The subsets are then taken
    in chunks of up to 4096 (every subset in increasing order, or the masks
    in their given order); a vectorized greedy certificate of dom(S) <= best
    settles most of each chunk, and the exact search runs only on the rest.
    The deadline, if any, is checked once per chunk and inside the search.
    """
    if n == 0:
        return 0
    full = (1 << n) - 1
    if masks is None:
        first = full
        chunks = (np.arange(lo, min(lo + _CHUNK, full + 1), dtype=np.uint64)
                  for lo in range(1, full + 1, _CHUNK))
    else:
        masks = np.array(masks, dtype=np.uint64)
        if len(masks) == 0:
            return 0
        first = int(masks[0])
        chunks = (masks[lo:lo + _CHUNK] for lo in range(0, len(masks), _CHUNK))
    in_sets = [full & ~(o | (1 << v)) for v, o in enumerate(out_sets)]
    closed = np.array([o | 1 << v for v, o in enumerate(out_sets)], dtype=np.uint64)
    best = 1
    while dom_search(out_sets, in_sets, first, first, best, deadline) is None:
        best += 1
    for chunk in chunks:
        if deadline is not None:
            deadline.check()
        for mask in chunk[~_certified(closed, chunk, best)].tolist():
            if dom_search(out_sets, in_sets, mask, mask, best, deadline) is not None:
                continue
            best += 1
            while dom_search(out_sets, in_sets, mask, mask, best, deadline) is None:
                best += 1
    return best
