import hashlib
import importlib.resources
import io
import json
import shlex
import time

import jsonschema
import pytest

from tourlab import (
    Numbering,
    OrderedTournament,
    SearchReport,
    chi,
    cyclic_triangle,
    dom,
    formats,
    local_chromatic_number,
    natural_numbering,
    numbering_clique,
    paley,
    random_tournament,
    s_t,
    strong_chromatic_number,
    transitive_tournament,
)
import tourlab.enumeration as en
from tourlab.cli import main

SCHEMA = json.loads(
    importlib.resources.files("tourlab").joinpath("report_schema.json").read_text()
)


@pytest.fixture
def run(monkeypatch, capsys):
    def go(argv, stdin_text=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    return go


def _data(stdout, kind):
    env = json.loads(stdout)
    jsonschema.validate(env, SCHEMA)
    assert env["kind"] == kind
    return env["data"]


def test_gen_c3_golden(run):
    code, out, _ = run(["gen", "c3"])
    assert code == 0
    assert out == formats.emit_tmt(cyclic_triangle())


def test_gen_json_envelope(run):
    code, out, _ = run(["gen", "transitive", "--n", "4", "--json", "--output", "/dev/null"])
    assert code == 0
    data = _data(out, "gen")
    assert data == {"n": 4, "compact": formats.emit_compact(transitive_tournament(4))}


def test_gen_uk_meta(run):
    code, out, _ = run(["gen", "u_k", "--k", "2", "--witnesses", "2", "--json", "--output", "/dev/null"])
    assert code == 0
    data = _data(out, "gen")
    assert data["matching"] == "1-3 4-5 2-6"


def test_gen_crossing_and_majority(run):
    code, out, _ = run(["gen", "crossing", "--pairs", "1-4 2-5"])
    assert code == 0
    t = formats.parse_tmt(out)
    assert t.n == 2
    code, out, _ = run(["gen", "majority", "--orderings", "0,1,2", "--k", "1"])
    assert code == 0
    assert formats.parse_tmt(out) == transitive_tournament(3)


def test_gen_random_deterministic(run):
    _, a, _ = run(["gen", "random", "--n", "6", "--seed", "3"])
    _, b, _ = run(["gen", "random", "--n", "6", "--seed", "3"])
    _, c, _ = run(["gen", "random", "--n", "6", "--seed", "4"])
    assert a == b != c


def test_pipe_matches_library_composition(run):
    _, piped, _ = run(["gen", "s_t", "--t", "2"])
    t = s_t(2)
    assert piped == formats.emit_tmt(t)
    code, out, _ = run(["solve", "chi", "--json"], stdin_text=piped)
    assert code == 0
    got = chi(t)
    data = _data(out, "solve")
    assert data["value"] == got.value
    assert data["classes"] == [[v for v in range(t.n) if c >> v & 1] for c in got.classes]


def test_solve_human_and_json_agree(run):
    tmt = formats.emit_tmt(s_t(2))
    _, human, _ = run(["solve", "chi"], stdin_text=tmt)
    code, machine, _ = run(["solve", "chi", "--json"], stdin_text=tmt)
    value = int(human.splitlines()[0].split("=")[1])
    assert value == _data(machine, "solve")["value"]
    _, human, _ = run(["solve", "dom"], stdin_text=tmt)
    code, machine, _ = run(["solve", "dom", "--json"], stdin_text=tmt)
    assert int(human.splitlines()[0].split("=")[1]) == _data(machine, "solve")["value"]


def test_solve_edom_subset(run):
    tmt = formats.emit_tmt(cyclic_triangle())
    code, out, _ = run(["solve", "edom", "--a", "0,1", "--json"], stdin_text=tmt)
    assert code == 0
    assert _data(out, "solve")["value"] == 1


def test_solve_chi_law_from_file(run, tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"members": [[0, 1, 2]]}))
    tmt = formats.emit_tmt(cyclic_triangle())
    code, out, _ = run(["solve", "chi-law", "--law", str(law), "--json"], stdin_text=tmt)
    assert code == 0
    assert _data(out, "solve")["value"] >= 1


def test_missing_files_and_malformed_laws_exit_two(run, tmp_path):
    tmt = formats.emit_tmt(cyclic_triangle())
    missing = str(tmp_path / "missing.tmt")
    invocations = [
        (["solve", "chi", "--input", missing], ""),
        (["solve", "chi-h", "--h", missing], tmt),
        (["gen", "chain-power", "--base", missing], ""),
        (["solve", "chi-law", "--law", missing], tmt),
    ]
    bad_laws = ["{}", "[1]", '{"members": 3}', '{"members": [1]}',
                '{"members": [[0, "1"]]}', '{"members": [[0, true]]}',
                '{"members": [[0, 3]]}', '{"members": [[-1]]}']
    for i, text in enumerate(bad_laws):
        law = tmp_path / f"law{i}.json"
        law.write_text(text)
        invocations.append((["solve", "chi-law", "--law", str(law)], tmt))
    for argv, stdin_text in invocations:
        code, out, err = run(argv, stdin_text=stdin_text)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_solve_subdom_reports_exactness(run):
    tmt = formats.emit_tmt(s_t(2))
    code, out, _ = run(["solve", "subdom", "--json"], stdin_text=tmt)
    assert code == 0
    data = _data(out, "solve")
    assert data["exact"] is True and data["value"] == 2


def test_analyze_numbering_matches_library(run):
    t = s_t(2)
    tmt = formats.emit_tmt(t)
    code, out, _ = run(["analyze", "numbering", "--order", "2,0,1", "--json"], stdin_text=tmt)
    assert code == 0
    data = _data(out, "analyze")
    ot = OrderedTournament(t, Numbering((2, 0, 1)))
    assert data["local"] == local_chromatic_number(ot)
    assert data["strong"] == strong_chromatic_number(ot)
    assert data["clique"] == numbering_clique(ot)
    _, human, _ = run(["analyze", "numbering", "--order", "2,0,1"], stdin_text=tmt)
    assert int(human.splitlines()[0].split("=")[1]) == data["local"]


def test_analyze_diamonds_none(run):
    tmt = formats.emit_tmt(cyclic_triangle())
    code, out, _ = run(["analyze", "diamonds", "--json"], stdin_text=tmt)
    assert code == 0
    assert _data(out, "analyze")["diamond"] is None
    _, human, _ = run(["analyze", "diamonds"], stdin_text=tmt)
    assert human.strip() == "no diamond"


def test_analyze_pairs_and_poset(run):
    tmt = formats.emit_tmt(cyclic_triangle())
    code, out, _ = run(["analyze", "pairs", "--json"], stdin_text=tmt)
    assert code == 0
    assert _data(out, "analyze")["exact"] is True
    code, out, _ = run(["analyze", "poset", "--json"], stdin_text=tmt)
    assert code == 0
    assert _data(out, "analyze") == {"what": "poset", "is_poset": True, "order": [0, 2, 1]}
    code, out, _ = run(["analyze", "poset", "--order", "0,1,2", "--json"], stdin_text=tmt)
    assert _data(out, "analyze")["is_poset"] is False


def test_numbering_commands(run):
    tmt = formats.emit_tmt(cyclic_triangle())
    code, out, _ = run(["numbering", "min-local", "--json"], stdin_text=tmt)
    assert code == 0
    data = _data(out, "numbering")
    assert data["local"] == 1 and data["mode"] == "exact"
    code, out, _ = run(["numbering", "diamond-free", "--c", "0", "--json"], stdin_text=tmt)
    assert code == 0
    assert _data(out, "numbering")["result"] == "numbering"


def test_scan_exhausted_exits_zero(run):
    code, out, _ = run(["scan", "theorem-suite", "--nmax", "5", "--json"])
    assert code == 0
    data = _data(out, "scan")
    assert data["outcome"] == "exhausted"


def test_scan_witness_exits_one_and_report_revalidates(run, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(["scan", "tribip", "--nmax", "6", "--out", str(out_path), "--json"])
    assert code == 1
    data = _data(out, "scan")
    assert data["outcome"] == "witness"
    report = SearchReport.from_json(out_path.read_text(), revalidate=True)
    assert report.witness == data["witness"]


def test_scan_human_mode_prints_witness(run):
    code, out, _ = run(["scan", "tribip", "--nmax", "6"])
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "tribip: witness"
    assert json.loads(lines[1])["tournament"] == "6:0050"


def test_scan_legends(run):
    code, out, _ = run(["scan", "legends", "--h-n", "2", "--nmax", "4", "--json"])
    assert code == 0
    data = _data(out, "scan")
    assert data["outcome"] == "exhausted" and data["findings"]["frontier"] == 1


def test_enum_deterministic_bytes(run, tmp_path):
    p1, p2 = tmp_path / "a", tmp_path / "b"
    assert run(["enum", "--n", "5", "--output", str(p1)])[0] == 0
    assert run(["enum", "--n", "5", "--output", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_text().splitlines()) == 12
    code, out, _ = run(["enum", "--n", "4", "--json"])
    data = _data(out, "enum")
    assert data["count"] == 4


def test_exit_codes(run, tmp_path):
    code, _, err = run(["solve", "chi"], stdin_text="not a tournament\n")
    assert code == 2 and "error:" in err
    code, _, err = run(["solve", "chi"], stdin_text="65\n")
    assert code == 3
    code, _, err = run(["enum", "--n", "9"])
    assert code == 3
    code, _, _ = run(["gen", "nonsense"])
    assert code == 2
    code, _, err = run(["analyze", "numbering", "--order", "0,0,1"],
                       stdin_text=formats.emit_tmt(cyclic_triangle()))
    assert code == 2
    code, _, err = run(["gen", "paley", "--q", "6"])
    assert code == 2
    # a transitive size past the 64-vertex cap is refused before it is built
    for argv in (["gen", "transitive", "--n", "100000000"],
                 ["scan", "legends", "--h-n", "100000000", "--nmax", "2"],
                 ["gen", "chain-power", "--base", "transitive:100000000", "--r", "2"]):
        code, out, err = run(argv)
        assert code == 3 and out == "" and "64-vertex cap" in err
    code, _, err = run(["gen", "transitive", "--n", "-1"])
    assert code == 2 and "error:" in err


def test_deadline_flag_exits_three(run):
    tmt = formats.emit_tmt(s_t(4))
    for problem in ("chi", "subdom"):
        code, _, err = run(["solve", problem, "--deadline-seconds", "-1"], stdin_text=tmt)
        assert code == 3 and "error:" in err


def test_enum_deadline_interrupts_cold_level(run, monkeypatch):
    # levels 0-6 stay warm, so the deadline is measured against the level-7
    # build alone (about 0.3-0.45 s, over ten times the deadline)
    monkeypatch.setattr(en, "_LEVELS", {n: en._level(n) for n in range(7)})
    start = time.monotonic()
    code, out, err = run(["enum", "--n", "7", "--deadline-seconds", "0.02"])
    assert code == 3 and out == "" and "error:" in err
    assert time.monotonic() - start < 2.0
    assert 7 not in en._LEVELS


# Each flag is accepted only by the subcommands that read it.
REMOVED_FLAGS = [
    ("gen c3", "--nmax 3"),
    ("solve chi", "--nmax 3"),
    ("analyze poset", "--nmax 3"),
    ("numbering min-local", "--nmax 3"),
    ("enum --n 4", "--nmax 3"),
    ("numbering min-local", "--seed 1"),
    ("scan chi2 --nmax 3", "--seed 1"),
    ("enum --n 4", "--seed 1"),
    ("gen c3", "--deadline-seconds 1"),
]


def test_removed_flags_exit_two(run):
    tmt = formats.emit_tmt(cyclic_triangle())
    for base, flag in REMOVED_FLAGS:
        assert run(shlex.split(base), tmt)[0] == 0, base
        code, _, err = run(shlex.split(f"{base} {flag}"), tmt)
        assert code == 2 and "unrecognized arguments" in err, (base, flag)


def test_help_exits_zero(run):
    code, out, _ = run(["--help"])
    assert code == 0


# ---------------------------------------------------------------------------
# pinned CLI output: sha256 of stdout + stderr + exit code per invocation
# ---------------------------------------------------------------------------

_INPUTS = {
    "p7": lambda: formats.emit_tmt(paley(7)),
    "r8": lambda: formats.emit_tmt(random_tournament(8, 7)),
    "r22": lambda: formats.emit_tmt(random_tournament(22, 9)),
    "bad": lambda: "not a tournament\n",
    "n65": lambda: "65\n",
}

_GEN = [
    "transitive --n 4",
    "c3",
    "s_t --t 2",
    "t_t --t 2",
    "paley --q 11",
    "chain-power --base c3 --r 2",
    "chain-power --base transitive:2 --r 3",
    "chain-power --base s_t:2",
    "majority --orderings '0,1,2;2,0,1;1,2,0' --k 2",
    "crossing --pairs '1-4 2-5'",
    "u_k --k 2 --witnesses 2",
    "random --n 6 --seed 3",
]
_PER_INPUT = [
    "solve chi",
    "solve chi-h",
    "solve chi-law",
    "solve dom",
    "solve edom",
    "solve subdom",
    "analyze numbering",
    "analyze diamonds",
    "analyze pairs",
    "analyze poset",
    "numbering min-local",
    "numbering min-local --mode heuristic",
    "numbering diamond-free",
    "numbering diamond-free --c 0",
]
_ON_P7 = [
    "solve chi-h --h t_t:2",
    "solve edom --a 0,1,2",
    "analyze numbering --order 6,5,4,3,2,1,0",
    "analyze poset --order 0,1,2,3,4,5,6",
]
_SCANS = [
    "scan chi2 --nmax 4",
    "scan tribip --nmax 4",
    "scan theorem-suite --nmax 4",
    "scan backdom --nmax 4",
    "scan legends --nmax 4",
    "scan legends --h-n 2 --sigma 1,0 --nmax 4",
    "scan tribip --nmax 6",
]


def _cli_cases() -> list[tuple[str, str]]:
    """(command line, input name or '') for every pinned invocation."""
    cases = [(f"gen {g}", "") for g in _GEN]
    cases += [(cmd, name) for cmd in _PER_INPUT for name in ("p7", "r8")]
    cases += [(cmd, "p7") for cmd in _ON_P7]
    cases += [("solve subdom", "r22")]
    cases += [(s, "") for s in _SCANS]
    cases += [("enum --n 5", ""), ("solve chi", "bad"), ("solve chi", "n65"),
              ("enum --n 9", "")]
    return [(cmd + mode, name) for cmd, name in cases for mode in ("", " --json")]


def cli_digests(run) -> dict[str, str]:
    """Digest per case; scan JSON is hashed without its wall time."""
    got = {}
    for cmd, name in _cli_cases():
        argv = shlex.split(cmd)
        code, out, err = run(argv, _INPUTS[name]() if name else "")
        if argv[0] == "scan" and "--json" in argv:
            env = json.loads(out)
            env["data"].pop("wall_time")
            out = json.dumps(env, sort_keys=True, indent=2) + "\n"
        key = f"{cmd} < {name}" if name else cmd
        got[key] = hashlib.sha256(f"{out}\0{err}\0{code}".encode()).hexdigest()[:16]
    return got


CLI_DIGESTS = {
    'gen transitive --n 4': 'c3c5c23c53d5acd5',
    'gen transitive --n 4 --json': '59596f35be1a2b84',
    'gen c3': '99bcd33bd2458d06',
    'gen c3 --json': '8b82a54489211506',
    'gen s_t --t 2': '99bcd33bd2458d06',
    'gen s_t --t 2 --json': '8b82a54489211506',
    'gen t_t --t 2': '99bcd33bd2458d06',
    'gen t_t --t 2 --json': '8b82a54489211506',
    'gen paley --q 11': '321b25e50e475241',
    'gen paley --q 11 --json': '7d70413fa7a13586',
    'gen chain-power --base c3 --r 2': 'a93223c90b389f84',
    'gen chain-power --base c3 --r 2 --json': 'e129f8ad85c8de1b',
    'gen chain-power --base transitive:2 --r 3': 'eb1481198b1f8b14',
    'gen chain-power --base transitive:2 --r 3 --json': '606736a51fc32779',
    'gen chain-power --base s_t:2': 'a93223c90b389f84',
    'gen chain-power --base s_t:2 --json': 'e129f8ad85c8de1b',
    "gen majority --orderings '0,1,2;2,0,1;1,2,0' --k 2": '99bcd33bd2458d06',
    "gen majority --orderings '0,1,2;2,0,1;1,2,0' --k 2 --json": '8b82a54489211506',
    "gen crossing --pairs '1-4 2-5'": '035352c6fccf7fea',
    "gen crossing --pairs '1-4 2-5' --json": '37acc5d7c40b2306',
    'gen u_k --k 2 --witnesses 2': '99bcd33bd2458d06',
    'gen u_k --k 2 --witnesses 2 --json': 'e6911369ff30742a',
    'gen random --n 6 --seed 3': '08ce8457e41753ca',
    'gen random --n 6 --seed 3 --json': '3b9e4892a5cba498',
    'solve chi < p7': 'b79ab6b267ea896c',
    'solve chi --json < p7': '7fc5b6e950ed7460',
    'solve chi < r8': '9d1980fbf656e0e2',
    'solve chi --json < r8': '61e4ad038c5115ce',
    'solve chi-h < p7': '8edd93e283f0bcc8',
    'solve chi-h --json < p7': 'f31da9d6b2ee025a',
    'solve chi-h < r8': '80ce135e564a303d',
    'solve chi-h --json < r8': 'cf0ce74d53f3875d',
    'solve chi-law < p7': '77b4a87a4c2d6cdd',
    'solve chi-law --json < p7': '7d08d2d30ee7b40f',
    'solve chi-law < r8': '9dae5dfea268381c',
    'solve chi-law --json < r8': '175bab767e028cac',
    'solve dom < p7': 'd801ea2f375fa209',
    'solve dom --json < p7': '2d345ec1b5602ed4',
    'solve dom < r8': '8d792f138737c5ab',
    'solve dom --json < r8': 'bbf1d63c3a6f8a6a',
    'solve edom < p7': '3119c3f212a0402e',
    'solve edom --json < p7': '7a757da113f045bf',
    'solve edom < r8': '23ea463d9609a698',
    'solve edom --json < r8': '5eec8872c717f78c',
    'solve subdom < p7': 'ad1cd66d693bf43e',
    'solve subdom --json < p7': '23aa534f84ecaca5',
    'solve subdom < r8': 'beda431cbaa80d82',
    'solve subdom --json < r8': 'a754171ea82cb03d',
    'analyze numbering < p7': 'a60459a4a3b65055',
    'analyze numbering --json < p7': 'fc9cbef5eb95a600',
    'analyze numbering < r8': 'f8b06186963c21ed',
    'analyze numbering --json < r8': '0ba467edd306b526',
    'analyze diamonds < p7': '8b8d61e2b3cbf59d',
    'analyze diamonds --json < p7': 'e1e7ab08b7953e51',
    'analyze diamonds < r8': '6ec35c7fdf518666',
    'analyze diamonds --json < r8': '12498ce78651a8f2',
    'analyze pairs < p7': 'b2d2d7c5800ca2ba',
    'analyze pairs --json < p7': 'ed892c067b78b8f5',
    'analyze pairs < r8': 'a79ef2cdcafba904',
    'analyze pairs --json < r8': 'db4843dacf269ea8',
    'analyze poset < p7': 'e4384cb308b35164',
    'analyze poset --json < p7': 'baae386e32644148',
    'analyze poset < r8': 'c3d8bdf723276872',
    'analyze poset --json < r8': '8a61d5ddacc90dcf',
    'numbering min-local < p7': 'dbfaf4e1e14bab97',
    'numbering min-local --json < p7': '4b1081337632cda0',
    'numbering min-local < r8': '7df22c965b83381a',
    'numbering min-local --json < r8': 'bf1cc906f8c90d2b',
    'numbering min-local --mode heuristic < p7': 'dbfaf4e1e14bab97',
    'numbering min-local --mode heuristic --json < p7': '9ca564b13fcf30a6',
    'numbering min-local --mode heuristic < r8': 'fe0e2839cb89f6c0',
    'numbering min-local --mode heuristic --json < r8': '010dd415959285e2',
    'numbering diamond-free < p7': 'fe37565ec1d8ff95',
    'numbering diamond-free --json < p7': '6e537e2fb832f431',
    'numbering diamond-free < r8': 'b0fb47e0e6ec062c',
    'numbering diamond-free --json < r8': 'c863e04495908e11',
    'numbering diamond-free --c 0 < p7': 'fe37565ec1d8ff95',
    'numbering diamond-free --c 0 --json < p7': '6e537e2fb832f431',
    'numbering diamond-free --c 0 < r8': '21d547470dc4961d',
    'numbering diamond-free --c 0 --json < r8': '84671a6239527a2c',
    'solve chi-h --h t_t:2 < p7': '8edd93e283f0bcc8',
    'solve chi-h --h t_t:2 --json < p7': 'f31da9d6b2ee025a',
    'solve edom --a 0,1,2 < p7': '23ea463d9609a698',
    'solve edom --a 0,1,2 --json < p7': '5eec8872c717f78c',
    'analyze numbering --order 6,5,4,3,2,1,0 < p7': 'a60459a4a3b65055',
    'analyze numbering --order 6,5,4,3,2,1,0 --json < p7': 'b8c12d76210185b6',
    'analyze poset --order 0,1,2,3,4,5,6 < p7': '6461d4287b58cc04',
    'analyze poset --order 0,1,2,3,4,5,6 --json < p7': 'baae386e32644148',
    'solve subdom < r22': 'b069aa8d4fd607ad',
    'solve subdom --json < r22': '56586d517f3adf9a',
    'scan chi2 --nmax 4': 'd6016181acbb33f6',
    'scan chi2 --nmax 4 --json': '55983d97677d1182',
    'scan tribip --nmax 4': '88c543e25e505311',
    'scan tribip --nmax 4 --json': 'd2c2a942880ee9c8',
    'scan theorem-suite --nmax 4': '752649c513b7ec18',
    'scan theorem-suite --nmax 4 --json': 'a2f27c1ebe5e6505',
    'scan backdom --nmax 4': '8ca15ac038937e12',
    'scan backdom --nmax 4 --json': '7185876eec988e38',
    'scan legends --nmax 4': 'c8eef24ba2b72649',
    'scan legends --nmax 4 --json': '83deb5be174cfc4f',
    'scan legends --h-n 2 --sigma 1,0 --nmax 4': 'c8eef24ba2b72649',
    'scan legends --h-n 2 --sigma 1,0 --nmax 4 --json': '7d7998565f6b1761',
    'scan tribip --nmax 6': '496f20325493e273',
    'scan tribip --nmax 6 --json': '34c61093fb04eef0',
    'enum --n 5': 'e695bd1164c0e325',
    'enum --n 5 --json': '87fccab516c89765',
    'solve chi < bad': '38547174249f582d',
    'solve chi --json < bad': '38547174249f582d',
    'solve chi < n65': 'b68ab02c976f7f47',
    'solve chi --json < n65': 'b68ab02c976f7f47',
    'enum --n 9': '1859211150e06d43',
    'enum --n 9 --json': '1859211150e06d43',
}


def test_cli_output_is_pinned(run):
    assert cli_digests(run) == CLI_DIGESTS
