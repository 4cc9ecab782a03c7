"""Text formats: the tmt/1 matrix format, the compact code, matching lists.

tmt/1 is a line-oriented adjacency matrix: the first line holds n, then n
lines of n characters from {0,1} where row v column u is 1 iff v -> u. The
parser is strict and reports 1-based line/column positions.

The compact form is "n:hex" where hex encodes the lower triangle row-major,
pair (i, j) with i > j contributing bit 1 iff i -> j, first pair in the most
significant bit, left-padded to ceil(bits / 4) hex digits (at least one).
"""

from __future__ import annotations

from .core import CapacityError, MAX_VERTICES, Tournament


class FormatError(ValueError):
    """Malformed input text; line and col are 1-based when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


def emit_tmt(t: Tournament) -> str:
    rows = [str(t.n)]
    for v in range(t.n):
        rows.append("".join("1" if t.out_sets[v] >> u & 1 else "0" for u in range(t.n)))
    return "\n".join(rows) + "\n"


def parse_tmt(text: str) -> Tournament:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty input, expected a vertex count", line=1)
    head = lines[0].strip()
    try:
        n = int(head)
    except ValueError:
        raise FormatError(f"vertex count {head!r} is not an integer", line=1) from None
    if n < 0:
        raise FormatError("vertex count is negative", line=1)
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    if len(lines) - 1 < n:
        raise FormatError(
            f"expected {n} matrix rows, found {len(lines) - 1}", line=len(lines) + 1
        )
    if len(lines) - 1 > n:
        raise FormatError(f"unexpected content after {n} matrix rows", line=n + 2)
    out = [0] * n
    for v in range(n):
        row = lines[v + 1]
        ln = v + 2
        if len(row) != n:
            raise FormatError(
                f"row has {len(row)} characters, expected {n}",
                line=ln,
                col=min(len(row), n) + 1,
            )
        for u, ch in enumerate(row):
            if ch not in "01":
                raise FormatError(f"character {ch!r} is not 0 or 1", line=ln, col=u + 1)
            if ch == "1":
                out[v] |= 1 << u
        if out[v] >> v & 1:
            raise FormatError("diagonal entry is not 0", line=ln, col=v + 1)
        for u in range(v):
            fwd = out[v] >> u & 1
            bwd = out[u] >> v & 1
            if fwd and bwd:
                raise FormatError(
                    f"edge between {u} and {v} appears in both directions",
                    line=ln,
                    col=u + 1,
                )
            if not fwd and not bwd:
                raise FormatError(
                    f"edge between {u} and {v} missing in both directions",
                    line=ln,
                    col=u + 1,
                )
    return Tournament(n, tuple(out))


def _tri_bits(n: int) -> int:
    return n * (n - 1) // 2


def emit_compact(t: Tournament) -> str:
    digits = max(1, (_tri_bits(t.n) + 3) // 4)
    return f"{t.n}:{tournament_code(t):0{digits}x}"


def parse_compact(text: str) -> Tournament:
    s = text.strip()
    if s.count(":") != 1:
        raise FormatError(f"compact form {s!r} is not n:hex")
    head, hexpart = s.split(":")
    try:
        n = int(head)
    except ValueError:
        raise FormatError(f"vertex count {head!r} is not an integer") from None
    if n < 0:
        raise FormatError("vertex count is negative")
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    digits = max(1, (_tri_bits(n) + 3) // 4)
    if len(hexpart) != digits:
        raise FormatError(
            f"hex part has {len(hexpart)} digits, expected {digits} for n={n}"
        )
    try:
        code = int(hexpart, 16)
    except ValueError:
        raise FormatError(f"hex part {hexpart!r} is not hexadecimal") from None
    m = _tri_bits(n)
    if code >> m:
        raise FormatError("hex part has bits beyond the triangle size")
    return tournament_from_code(n, code)


def tournament_from_code(n: int, code: int) -> Tournament:
    """Rebuild a tournament from its lower-triangle code (see emit_compact)."""
    out = [0] * n
    pos = _tri_bits(n)
    for i in range(n):
        for j in range(i):
            pos -= 1
            if code >> pos & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament(n, tuple(out))


def tournament_code(t: Tournament) -> int:
    code = 0
    for i in range(t.n):
        for j in range(i):
            code = code << 1 | (t.out_sets[i] >> j & 1)
    return code


def format_matching(pairs) -> str:
    return " ".join(f"{a}-{b}" for a, b in pairs)


def parse_matching(text: str) -> list[tuple[int, int]]:
    pairs = []
    for token in text.split():
        a, sep, b = token.partition("-")
        if not sep:
            raise FormatError(f"pair {token!r} is not a-b")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise FormatError(f"pair {token!r} has a non-integer endpoint") from None
    return pairs
