"""Command-line front end.

Tournaments travel between commands as tmt/1 text on stdin/stdout, so
subcommands pipe:

    tourlab gen s_t --t 3 | tourlab solve chi

Each subcommand takes only the shared flags it reads: --json on all of
them, --seed on gen, solve and analyze, --deadline-seconds on all but gen,
and --nmax on scan. Exit codes: 0 success, 1 a scan found a witness, 2
usage or malformed input, 3 capacity or deadline exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional

from . import constructions, enumeration, formats, solvers, structure
from .core import (
    CapacityError,
    Deadline,
    DeadlineExceeded,
    Numbering,
    OrderedTournament,
    Tournament,
    bits,
    mask_of,
    natural_numbering,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_tournament(path: str) -> Tournament:
    return formats.parse_tmt(_read_text(path))


def _vertices(mask: int) -> list[int]:
    return list(bits(mask))


def _joined(items: Iterable[int]) -> str:
    return " ".join(map(str, items))


def _parse_vertex_list(text: str) -> int:
    try:
        return mask_of(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected a list of vertices, got {text!r}")


def _parse_perm(text: str) -> Numbering:
    try:
        return Numbering(tuple(int(x) for x in text.replace(",", " ").split()))
    except ValueError:
        raise ValueError(f"expected a permutation, got {text!r}")


def _emit(args, kind: str, data: dict, human: str, path: str = "-"):
    """Write the --json envelope or the human text (if any) to path."""
    if args.json:
        human = json.dumps({"kind": kind, "data": data}, sort_keys=True, indent=2)
    if human:
        _write_text(path, human + "\n")


def _deadline(args) -> Optional[Deadline]:
    if args.deadline_seconds is None:
        return None
    return Deadline(args.deadline_seconds)


# One-integer families: `gen FAMILY --n/--t` and the FAMILY:N shorthand.
_INDEXED = {
    "transitive": (constructions.transitive_tournament, "n"),
    "s_t": (constructions.s_t, "t"),
    "t_t": (constructions.t_t, "t"),
}


def _named_tournament(spec: str) -> Tournament:
    """A small-family shorthand: c3, transitive:N, s_t:T, t_t:T, or a file path."""
    if spec == "c3":
        return constructions.cyclic_triangle()
    family, sep, index = spec.partition(":")
    if sep and family in _INDEXED:
        return _INDEXED[family][0](int(index))
    return _read_tournament(spec)


def _diamond(d) -> tuple[dict, str]:
    """JSON payload and text of a diamond."""
    data = {"a": d.a, "b": d.b, "p": _vertices(d.p), "q": _vertices(d.q)}
    return data, f"a={d.a} b={d.b} p: {_joined(data['p'])} q: {_joined(data['q'])}"


def _cmd_gen(args) -> int:
    meta: dict = {}
    if args.family in _INDEXED:
        maker, flag = _INDEXED[args.family]
        t = maker(getattr(args, flag))
    elif args.family == "c3":
        t = constructions.cyclic_triangle()
    elif args.family == "paley":
        t = constructions.paley(args.q)
    elif args.family == "chain-power":
        cp = constructions.chain_power(_named_tournament(args.base), args.r)
        t = cp.t
        meta["parts"] = [_vertices(p) for p in cp.parts]
    elif args.family == "majority":
        orderings = [_parse_perm(block) for block in args.orderings.split(";")]
        t = constructions.k_majority(orderings, args.k)
    elif args.family == "crossing":
        m = constructions.IntegerMatching(tuple(formats.parse_matching(args.pairs)))
        ct = constructions.crossing(m)
        t = ct.t
        meta["matching"] = formats.format_matching(ct.matching.pairs)
    elif args.family == "u_k":
        witnesses = [int(x) for x in args.witnesses.replace(",", " ").split()]
        uk = constructions.u_k(args.k, witnesses)
        t = uk.t
        meta["matching"] = formats.format_matching(uk.matching.pairs)
    else:
        t = constructions.random_tournament(args.n, args.seed)
    _write_text(args.output, formats.emit_tmt(t))
    _emit(args, "gen", {"n": t.n, "compact": formats.emit_compact(t), **meta}, "")
    return 0


def _law(t: Tournament, spec: str) -> solvers.Law:
    if spec == "triangles":
        return solvers.all_triangle_law(t)
    raw = json.loads(_read_text(spec))
    members = raw.get("members") if isinstance(raw, dict) else None
    if not isinstance(members, list) or not all(
        isinstance(m, list)
        and all(type(v) is int and 0 <= v < t.n for v in m)
        for m in members
    ):
        raise formats.FormatError(
            'law file must be an object whose "members" is a list of '
            f"lists of vertex indices below {t.n}"
        )
    return solvers.Law(t.n, tuple(mask_of(m) for m in members))


def _cmd_solve(args) -> int:
    t = _read_tournament(args.input)
    deadline = _deadline(args)
    problem = args.problem
    if problem in ("chi", "chi-h", "chi-law"):
        if problem == "chi":
            got = solvers.chi(t, deadline=deadline)
        elif problem == "chi-h":
            got = solvers.chi_h(t, _named_tournament(args.h), deadline=deadline)
        else:
            got = solvers.chi_law(t, _law(t, args.law), deadline=deadline)
        classes = [_vertices(c) for c in got.classes]
        data = {"value": got.value, "classes": classes}
        human = "{} = {}\nclasses: {}".format(
            problem.replace("-", "_"), got.value, " | ".join(map(_joined, classes))
        )
    elif problem == "dom":
        got = solvers.dom(t, deadline=deadline)
        data = {"value": got.value, "dominating": _vertices(got.dominating)}
        human = f"dom = {got.value}\ndominating: {_joined(data['dominating'])}"
    elif problem == "edom":
        a = _parse_vertex_list(args.a) if args.a else t.full_mask
        value = solvers.edom(t, a, deadline=deadline)
        data, human = {"value": value}, f"edom = {value}"
    else:
        got = solvers.subdom(t, seed=args.seed, deadline=deadline)
        data = {"value": got.value, "exact": got.exact}
        human = "subdom {} {}".format("=" if got.exact else ">=", got.value)
    _emit(args, "solve", {"problem": problem, **data}, human)
    return 0


def _cmd_analyze(args) -> int:
    t = _read_tournament(args.input)
    deadline = _deadline(args)
    if args.what == "numbering":
        order = _parse_perm(args.order) if args.order else natural_numbering(t.n)
        ot = OrderedTournament(t, order)
        local = structure.local_chromatic_number(ot, deadline=deadline)
        strong = structure.strong_chromatic_number(ot, deadline=deadline)
        clique = structure.numbering_clique(ot, deadline=deadline)
        data = {"order": list(order.perm), "local": local, "strong": strong, "clique": clique}
        human = f"local = {local}\nstrong = {strong}\nclique = {clique}"
    elif args.what == "diamonds":
        got = structure.max_diamond(t, deadline=deadline)
        if got is None:
            data, human = {"diamond": None}, "no diamond"
        else:
            diamond, text = _diamond(got.diamond)
            data = {"value": got.value, "diamond": diamond}
            human = f"max diamond value = {got.value}\n{text}"
    elif args.what == "pairs":
        got = structure.best_complete_pair(t, deadline=deadline, seed=args.seed)
        pair = got.pair
        data = {
            "a": _vertices(pair.a),
            "b": _vertices(pair.b),
            "quality": pair.quality,
            "exact": got.exact,
        }
        human = "quality {} {}\na: {}\nb: {}".format(
            "=" if got.exact else ">=", pair.quality, _joined(data["a"]), _joined(data["b"])
        )
    elif args.order:  # poset, under the given numbering
        ot = OrderedTournament(t, _parse_perm(args.order))
        ok = structure.is_ordered_poset(ot)
        data = {"is_poset": ok, "order": list(ot.order.perm)}
        human = f"ordered poset: {'yes' if ok else 'no'}"
    else:  # poset, by a search for a circular order
        got = structure.is_poset_tournament(t)
        order = list(got.order) if got.is_poset else None
        data = {"is_poset": got.is_poset, "order": order}
        human = "poset tournament: " + (
            f"yes, order {_joined(order)}" if got.is_poset else "no"
        )
    _emit(args, "analyze", {"what": args.what, **data}, human)
    return 0


def _cmd_numbering(args) -> int:
    t = _read_tournament(args.input)
    deadline = _deadline(args)
    if args.what == "min-local":
        order, value = structure.min_local_numbering(t, mode=args.mode, deadline=deadline)
        data = {"mode": args.mode, "order": list(order.perm), "local": value}
        human = f"local = {value}\norder: {_joined(order.perm)}"
    else:
        got = structure.diamond_free_numbering(t, args.c, deadline=deadline)
        if isinstance(got, Numbering):
            data = {"result": "numbering", "order": list(got.perm)}
            human = "order: " + _joined(got.perm)
        else:
            diamond, text = _diamond(got)
            data = {"result": "diamond", "diamond": diamond}
            human = "diamond: " + text
    _emit(args, "numbering", {"what": args.what, **data}, human)
    return 0


def _cmd_scan(args) -> int:
    deadline = _deadline(args)
    if args.name == "chi2":
        report = enumeration.scan_chi2(args.c, args.nmax, deadline=deadline)
    elif args.name == "tribip":
        report = enumeration.scan_tribip(args.d, args.nmax, deadline=deadline)
    elif args.name == "theorem-suite":
        report = enumeration.scan_theorem_suite(args.nmax, deadline=deadline)
    elif args.name == "backdom":
        report = enumeration.scan_backdom(args.c, args.nmax, deadline=deadline)
    else:
        h = constructions.transitive_tournament(args.h_n)
        sigma = _parse_perm(args.sigma) if args.sigma else natural_numbering(args.h_n)
        report = enumeration.legend_frontier(h, sigma, args.nmax, deadline=deadline)
    text = report.to_json()
    if args.out:
        _write_text(args.out, text + "\n")
    human = f"{report.scan}: {report.outcome}"
    if report.witness is not None:
        human += "\n" + json.dumps(report.witness, sort_keys=True)
    _emit(args, "scan", json.loads(text), human)
    return 1 if report.outcome == "witness" else 0


def _cmd_enum(args) -> int:
    corpus = enumeration.enumerate_all(args.n, deadline=_deadline(args))
    lines = [formats.emit_compact(t) for t in corpus]
    data = {"n": args.n, "count": len(lines), "tournaments": lines}
    _emit(args, "enum", data, "\n".join(lines), args.output)
    return 0


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    as_json = _flag("--json", action="store_true", help="machine-readable output")
    seed = _flag("--seed", type=int, default=0, help="seed for randomized steps")
    deadline = _flag("--deadline-seconds", type=float, default=None, help="wall-clock budget")

    parser = argparse.ArgumentParser(
        prog="tourlab",
        description="exact computation on small tournaments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[as_json, seed], help="emit a named construction")
    gen.add_argument(
        "family",
        choices=[
            "transitive",
            "c3",
            "s_t",
            "t_t",
            "paley",
            "chain-power",
            "majority",
            "crossing",
            "u_k",
            "random",
        ],
    )
    gen.add_argument("--n", type=int, default=3, help="vertex count (transitive, random)")
    gen.add_argument("--t", type=int, default=2, help="index for s_t / t_t")
    gen.add_argument("--q", type=int, default=7, help="prime for paley")
    gen.add_argument("--k", type=int, default=2, help="index for majority / u_k")
    gen.add_argument("--r", type=int, default=2, help="power for chain-power")
    gen.add_argument("--base", default="c3", help="base tournament for chain-power")
    gen.add_argument(
        "--orderings", default="", help="semicolon-separated orderings for majority"
    )
    gen.add_argument("--pairs", default="", help="matching for crossing, e.g. '1-6 2-9'")
    gen.add_argument(
        "--witnesses", default="", help="amplification sizes for u_k, e.g. '2,4'"
    )
    gen.add_argument("--output", default="-", help="tmt/1 destination (default stdout)")

    solve = sub.add_parser("solve", parents=[as_json, seed, deadline], help="exact solvers")
    solve.add_argument(
        "problem", choices=["chi", "chi-h", "chi-law", "dom", "edom", "subdom"]
    )
    solve.add_argument("--input", default="-", help="tmt/1 source (default stdin)")
    solve.add_argument("--h", default="c3", help="forbidden part for chi-h")
    solve.add_argument("--law", default="triangles", help="law file or 'triangles'")
    solve.add_argument("--a", default="", help="target vertices for edom")

    analyze = sub.add_parser(
        "analyze", parents=[as_json, seed, deadline], help="structure analyzers"
    )
    analyze.add_argument("what", choices=["numbering", "diamonds", "pairs", "poset"])
    analyze.add_argument("--input", default="-", help="tmt/1 source (default stdin)")
    analyze.add_argument("--order", default="", help="numbering, e.g. '2,0,1'")

    numbering = sub.add_parser(
        "numbering", parents=[as_json, deadline], help="numbering search"
    )
    numbering.add_argument("what", choices=["min-local", "diamond-free"])
    numbering.add_argument("--input", default="-", help="tmt/1 source (default stdin)")
    numbering.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    numbering.add_argument("--c", type=int, default=1, help="target for diamond-free")

    scan = sub.add_parser("scan", parents=[as_json, deadline], help="corpus scans")
    scan.add_argument(
        "name", choices=["chi2", "tribip", "theorem-suite", "backdom", "legends"]
    )
    scan.add_argument("--nmax", type=int, default=6, help="scan size ceiling")
    scan.add_argument("--c", type=int, default=2, help="parameter for chi2 / backdom")
    scan.add_argument("--d", type=int, default=2, help="parameter for tribip")
    scan.add_argument("--h-n", type=int, default=2, help="pattern size for legends")
    scan.add_argument("--sigma", default="", help="pattern numbering for legends")
    scan.add_argument("--out", default="", help="write the full report here")

    enum = sub.add_parser("enum", parents=[as_json, deadline], help="canonical corpus")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--output", default="-", help="corpus destination (default stdout)")

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "numbering": _cmd_numbering,
    "scan": _cmd_scan,
    "enum": _cmd_enum,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except formats.FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CapacityError, DeadlineExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
