"""Bitset kernels behind the hot loops.

Vectorized numpy where the computation vectorizes (canonical codes,
transitive tables) and plain Python loops where it is inherently sequential
(subset DP, subset-domination scan).
"""

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, stamped into run records."""
    return "pure"


# ---------------------------------------------------------------------------
# canonical lower-triangular codes
#
# The code of a labeled tournament is the C(n,2)-bit integer whose bits are
# the entries (i,j) with i > j in row-major order ((1,0),(2,0),(2,1),...),
# first bit most significant, entry = 1 iff i -> j. Minimizing over a
# permutation table gives the canonical form.
# ---------------------------------------------------------------------------

def min_code(adj: np.ndarray, perms: np.ndarray) -> int:
    """Minimum lower-triangular code of adj over the given permutations."""
    n = adj.shape[0]
    if n < 2:
        return 0
    tri_i = np.array([i for i in range(1, n) for _ in range(i)])
    tri_j = np.array([j for i in range(1, n) for j in range(i)])
    nbits = len(tri_i)
    weights = (np.int64(1) << np.arange(nbits - 1, -1, -1,
                                        dtype=np.int64))
    bits = adj[perms[:, tri_i], perms[:, tri_j]].astype(np.int64)
    return int((bits * weights).sum(axis=1).min())


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
# chromatic-number table (subset DP)
#
# chi[S] = 0 for empty S, 1 for transitive S, else 1 + min over transitive
# T <= S containing the least vertex of S of chi[S \ T]. Restricting T to
# the class of the least vertex loses nothing: some optimal class contains
# it, and enlarging a class never hurts the remainder.
# ---------------------------------------------------------------------------

def chi_table_from_trans(trans: np.ndarray) -> np.ndarray:
    """chi of every vertex subset, given the transitive-subset table."""
    size = len(trans)
    tbl = np.zeros(size, np.uint8)
    tr = trans.tolist()
    out = tbl.tolist()
    for s in range(1, size):
        if tr[s]:
            out[s] = 1
            continue
        low = s & (-s)
        rest = s ^ low
        best = 255
        sub = rest
        while True:
            t = sub | low
            if tr[t]:
                v = 1 + out[s ^ t]
                if v < best:
                    best = v
            if sub == 0:
                break
            sub = (sub - 1) & rest
        out[s] = best
    return np.array(out, dtype=np.uint8)


# ---------------------------------------------------------------------------
# subset-domination scan
#
# Maximum over all vertex subsets S of the domination number of the
# subtournament induced on S. Work per subset is a feasibility test at the
# current best (usually cheap); only subsets beating it pay for an exact
# solve.
# ---------------------------------------------------------------------------

def _dom_feasible(out_sets, in_sets, mask, und, k):
    if und == 0:
        return True
    if k == 0:
        return False
    u = (und & -und).bit_length() - 1
    cand = (in_sets[u] | (1 << u)) & mask
    while cand:
        c = cand & -cand
        cand ^= c
        ci = c.bit_length() - 1
        if _dom_feasible(out_sets, in_sets, mask,
                         und & ~(out_sets[ci] | c), k - 1):
            return True
    return False


def subdom_scan(out_sets, n: int) -> int:
    """max over subsets S of dom(induced subtournament on S)."""
    if n == 0:
        return 0
    full = (1 << n) - 1
    in_sets = [full & ~(o | (1 << v)) for v, o in enumerate(out_sets)]
    best = 0
    for mask in range(1, 1 << n):
        if best >= 1 and _dom_feasible(out_sets, in_sets, mask, mask, best):
            continue
        k = best + 1
        while not _dom_feasible(out_sets, in_sets, mask, mask, k):
            k += 1
        best = k
    return best
