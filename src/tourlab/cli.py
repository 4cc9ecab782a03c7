"""Command-line front end.

Tournaments travel between commands as tmt/1 text on stdin/stdout, so
subcommands pipe:

    tourlab gen s_t --t 3 | tourlab solve chi

Shared flags (--json, --seed, --deadline-seconds, --nmax) are accepted
after every subcommand. Exit codes: 0 success, 1 a scan found a
witness, 2 usage or malformed input, 3 capacity or deadline exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

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


def _emit(args, kind: str, data: dict, human: str):
    if args.json:
        print(json.dumps({"kind": kind, "data": data}, sort_keys=True, indent=2))
    elif human:
        print(human)


def _deadline(args) -> Optional[Deadline]:
    if args.deadline_seconds is None:
        return None
    return Deadline(args.deadline_seconds)


def _named_tournament(spec: str) -> Tournament:
    """A small-family shorthand: c3, transitive:N, s_t:T, t_t:T, or a file path."""
    if spec == "c3":
        return constructions.cyclic_triangle()
    for prefix, maker in (
        ("transitive:", constructions.transitive_tournament),
        ("s_t:", constructions.s_t),
        ("t_t:", constructions.t_t),
    ):
        if spec.startswith(prefix):
            return maker(int(spec[len(prefix) :]))
    return _read_tournament(spec)


def _cmd_gen(args) -> int:
    meta: dict = {}
    if args.family == "transitive":
        t = constructions.transitive_tournament(args.n)
    elif args.family == "c3":
        t = constructions.cyclic_triangle()
    elif args.family == "s_t":
        t = constructions.s_t(args.t)
    elif args.family == "t_t":
        t = constructions.t_t(args.t)
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
        witnesses = (
            [int(x) for x in args.witnesses.replace(",", " ").split()]
            if args.witnesses
            else []
        )
        uk = constructions.u_k(args.k, witnesses)
        t = uk.t
        meta["matching"] = formats.format_matching(uk.matching.pairs)
    elif args.family == "random":
        t = constructions.random_tournament(args.n, args.seed)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    _write_text(args.output, formats.emit_tmt(t))
    if args.json:
        data = {"n": t.n, "compact": formats.emit_compact(t), **meta}
        print(json.dumps({"kind": "gen", "data": data}, sort_keys=True, indent=2))
    return 0


def _cmd_solve(args) -> int:
    t = _read_tournament(args.input)
    deadline = _deadline(args)
    if args.problem == "chi":
        got = solvers.chi(t, deadline=deadline)
        classes = [_vertices(c) for c in got.classes]
        _emit(
            args,
            "solve",
            {"problem": "chi", "value": got.value, "classes": classes},
            "chi = {}\nclasses: {}".format(
                got.value, " | ".join(" ".join(map(str, c)) for c in classes)
            ),
        )
    elif args.problem == "chi-h":
        h = _named_tournament(args.h)
        got = solvers.chi_h(t, h, deadline=deadline)
        classes = [_vertices(c) for c in got.classes]
        _emit(
            args,
            "solve",
            {"problem": "chi-h", "value": got.value, "classes": classes},
            "chi_h = {}\nclasses: {}".format(
                got.value, " | ".join(" ".join(map(str, c)) for c in classes)
            ),
        )
    elif args.problem == "chi-law":
        if args.law == "triangles":
            law = solvers.all_triangle_law(t)
        else:
            raw = json.loads(_read_text(args.law))
            law = solvers.Law(t.n, tuple(mask_of(m) for m in raw["members"]))
        got = solvers.chi_law(t, law, deadline=deadline)
        classes = [_vertices(c) for c in got.classes]
        _emit(
            args,
            "solve",
            {"problem": "chi-law", "value": got.value, "classes": classes},
            "chi_law = {}\nclasses: {}".format(
                got.value, " | ".join(" ".join(map(str, c)) for c in classes)
            ),
        )
    elif args.problem == "dom":
        got = solvers.dom(t, deadline=deadline)
        _emit(
            args,
            "solve",
            {"problem": "dom", "value": got.value, "dominating": _vertices(got.dominating)},
            "dom = {}\ndominating: {}".format(
                got.value, " ".join(map(str, _vertices(got.dominating)))
            ),
        )
    elif args.problem == "edom":
        a = _parse_vertex_list(args.a) if args.a else t.full_mask
        value = solvers.edom(t, a, deadline=deadline)
        _emit(args, "solve", {"problem": "edom", "value": value}, f"edom = {value}")
    elif args.problem == "subdom":
        got = solvers.subdom(t, seed=args.seed)
        _emit(
            args,
            "solve",
            {"problem": "subdom", "value": got.value, "exact": got.exact},
            "subdom {} {}".format("=" if got.exact else ">=", got.value),
        )
    else:
        raise ValueError(f"unknown problem {args.problem!r}")
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
        _emit(
            args,
            "analyze",
            {
                "what": "numbering",
                "order": list(order.perm),
                "local": local,
                "strong": strong,
                "clique": clique,
            },
            f"local = {local}\nstrong = {strong}\nclique = {clique}",
        )
    elif args.what == "diamonds":
        got = structure.max_diamond(t, deadline=deadline)
        if got is None:
            _emit(args, "analyze", {"what": "diamonds", "diamond": None}, "no diamond")
        else:
            d = got.diamond
            _emit(
                args,
                "analyze",
                {
                    "what": "diamonds",
                    "value": got.value,
                    "diamond": {
                        "a": d.a,
                        "b": d.b,
                        "p": _vertices(d.p),
                        "q": _vertices(d.q),
                    },
                },
                "max diamond value = {}\na={} b={} p: {} q: {}".format(
                    got.value,
                    d.a,
                    d.b,
                    " ".join(map(str, _vertices(d.p))),
                    " ".join(map(str, _vertices(d.q))),
                ),
            )
    elif args.what == "pairs":
        got = structure.best_complete_pair(t, deadline=deadline, seed=args.seed)
        pair = got.pair
        _emit(
            args,
            "analyze",
            {
                "what": "pairs",
                "a": _vertices(pair.a),
                "b": _vertices(pair.b),
                "quality": pair.quality,
                "exact": got.exact,
            },
            "quality {} {}\na: {}\nb: {}".format(
                "=" if got.exact else ">=",
                pair.quality,
                " ".join(map(str, _vertices(pair.a))),
                " ".join(map(str, _vertices(pair.b))),
            ),
        )
    elif args.what == "poset":
        if args.order:
            ot = OrderedTournament(t, _parse_perm(args.order))
            ok = structure.is_ordered_poset(ot)
            _emit(
                args,
                "analyze",
                {"what": "poset", "is_poset": ok, "order": list(ot.order.perm)},
                f"ordered poset: {'yes' if ok else 'no'}",
            )
        else:
            got = structure.is_poset_tournament(t)
            _emit(
                args,
                "analyze",
                {
                    "what": "poset",
                    "is_poset": got.is_poset,
                    "order": list(got.order) if got.order is not None else None,
                },
                "poset tournament: {}".format(
                    "yes, order " + " ".join(map(str, got.order))
                    if got.is_poset
                    else "no"
                ),
            )
    else:
        raise ValueError(f"unknown analysis {args.what!r}")
    return 0


def _cmd_numbering(args) -> int:
    t = _read_tournament(args.input)
    deadline = _deadline(args)
    if args.what == "min-local":
        order, value = structure.min_local_numbering(t, mode=args.mode, deadline=deadline)
        _emit(
            args,
            "numbering",
            {
                "what": "min-local",
                "mode": args.mode,
                "order": list(order.perm),
                "local": value,
            },
            "local = {}\norder: {}".format(value, " ".join(map(str, order.perm))),
        )
    elif args.what == "diamond-free":
        got = structure.diamond_free_numbering(t, args.c, deadline=deadline)
        if isinstance(got, Numbering):
            _emit(
                args,
                "numbering",
                {"what": "diamond-free", "result": "numbering", "order": list(got.perm)},
                "order: " + " ".join(map(str, got.perm)),
            )
        else:
            _emit(
                args,
                "numbering",
                {
                    "what": "diamond-free",
                    "result": "diamond",
                    "diamond": {
                        "a": got.a,
                        "b": got.b,
                        "p": _vertices(got.p),
                        "q": _vertices(got.q),
                    },
                },
                "diamond: a={} b={} p: {} q: {}".format(
                    got.a,
                    got.b,
                    " ".join(map(str, _vertices(got.p))),
                    " ".join(map(str, _vertices(got.q))),
                ),
            )
    else:
        raise ValueError(f"unknown numbering task {args.what!r}")
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
    elif args.name == "legends":
        h = constructions.transitive_tournament(args.h_n)
        sigma = _parse_perm(args.sigma) if args.sigma else natural_numbering(args.h_n)
        report = enumeration.legend_frontier(h, sigma, args.nmax, deadline=deadline)
    else:
        raise ValueError(f"unknown scan {args.name!r}")
    if args.out:
        _write_text(args.out, report.to_json() + "\n")
    if args.json:
        print(json.dumps({"kind": "scan", "data": json.loads(report.to_json())},
                         sort_keys=True, indent=2))
    else:
        print(f"{report.scan}: {report.outcome}")
        if report.witness is not None:
            print(json.dumps(report.witness, sort_keys=True))
    return 1 if report.outcome == "witness" else 0


def _cmd_enum(args) -> int:
    lines = [formats.emit_compact(t) for t in enumeration.enumerate_all(args.n)]
    if args.json:
        data = {"n": args.n, "count": len(lines), "tournaments": lines}
        text = json.dumps({"kind": "enum", "data": data}, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(line + "\n" for line in lines)
    _write_text(args.output, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    shared.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    shared.add_argument(
        "--deadline-seconds", type=float, default=None, help="wall-clock budget"
    )
    shared.add_argument("--nmax", type=int, default=6, help="scan size ceiling")

    parser = argparse.ArgumentParser(
        prog="tourlab",
        description="exact computation on small tournaments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[shared], help="emit a named construction")
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

    solve = sub.add_parser("solve", parents=[shared], help="exact solvers")
    solve.add_argument(
        "problem", choices=["chi", "chi-h", "chi-law", "dom", "edom", "subdom"]
    )
    solve.add_argument("--input", default="-", help="tmt/1 source (default stdin)")
    solve.add_argument("--h", default="c3", help="forbidden part for chi-h")
    solve.add_argument("--law", default="triangles", help="law file or 'triangles'")
    solve.add_argument("--a", default="", help="target vertices for edom")

    analyze = sub.add_parser("analyze", parents=[shared], help="structure analyzers")
    analyze.add_argument("what", choices=["numbering", "diamonds", "pairs", "poset"])
    analyze.add_argument("--input", default="-", help="tmt/1 source (default stdin)")
    analyze.add_argument("--order", default="", help="numbering, e.g. '2,0,1'")

    numbering = sub.add_parser("numbering", parents=[shared], help="numbering search")
    numbering.add_argument("what", choices=["min-local", "diamond-free"])
    numbering.add_argument("--input", default="-", help="tmt/1 source (default stdin)")
    numbering.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    numbering.add_argument("--c", type=int, default=1, help="target for diamond-free")

    scan = sub.add_parser("scan", parents=[shared], help="corpus scans")
    scan.add_argument(
        "name", choices=["chi2", "tribip", "theorem-suite", "backdom", "legends"]
    )
    scan.add_argument("--c", type=int, default=2, help="parameter for chi2 / backdom")
    scan.add_argument("--d", type=int, default=2, help="parameter for tribip")
    scan.add_argument("--h-n", type=int, default=2, help="pattern size for legends")
    scan.add_argument("--sigma", default="", help="pattern numbering for legends")
    scan.add_argument("--out", default="", help="write the full report here")

    enum = sub.add_parser("enum", parents=[shared], help="canonical corpus")
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
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
