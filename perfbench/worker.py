"""Child process of the benchmark: one fresh interpreter per task.

    worker.py facts --out F                       machine and package facts
    worker.py setup WORKLOAD --seed N --out F     import tourlab, build inputs, stop
    worker.py run WORKLOAD --seed N --out F [--trace] [--check]
                                                  run one pass of an in-process workload
    worker.py cli --span NAME --out F -- ARGV...  tourlab.cli.main(ARGV) with wrappers
    worker.py check-corpus --corpus C --report R --seed N --out F

Every task writes one JSON object to F. run.py starts these; they are not
meant to be called by hand.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: str, data: dict):
    Path(path).write_text(json.dumps(data, sort_keys=True))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def facts(args):
    import numpy

    import tourlab
    from tourlab import _kernels

    _write(args.out, {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": _kernels.backend(),
        "tourlab_version": tourlab.__version__,
    })


def setup(args):
    import tourlab

    build, _ = workloads.WORKLOADS[args.workload]
    build(tourlab, args.seed)
    _write(args.out, {"ready": time.monotonic()})


def _verdict(check, *args):
    try:
        check(*args)
    except workloads.Mismatch as exc:
        return f"wrong output: {exc}"
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def run_pass(tourlab, workload: str, seed: int, check: bool, tracer=None) -> dict:
    """Build the inputs, time one pass over the operations, then check them.

    With check False only the deadline probes are checked; the other outputs
    are returned as digests for run.py to compare with a checked pass.
    """
    build, ops = workloads.WORKLOADS[workload]
    inputs = build(tourlab, seed)
    ready = time.monotonic()

    outputs, records = [], []
    root0 = tracer.root_s if tracer else 0.0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for op in ops:
        begin = time.perf_counter()
        try:
            out, error = op.run(tourlab, inputs), None
        except Exception as exc:  # an unexpected raise fails the operation
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        outputs.append(out)
        records.append({"name": op.name, "wall_s": time.perf_counter() - begin, "error": error})
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_kb = _peak_rss_kb()
    trace = None
    if tracer:
        tracer.uninstall()
        trace = tracer.dump()
        trace["unattributed_s"] = wall_s - (tracer.root_s - root0)

    checker = workloads.Checker(tourlab, _oracles(), inputs, seed)
    numberings = 0
    for op, out, rec in zip(ops, outputs, records):
        if rec["error"] is not None:
            continue
        if op.deadline_s is not None:
            rec["probe"] = {"raised": out.raised, "overrun_s": out.overrun_s, "met": out.met,
                            "deadline_s": op.deadline_s}
        else:
            rec["digest"] = workloads.fingerprint(out)
        if check or op.deadline_s is not None:
            rec["error"] = _verdict(op.check, out, checker)
        if op.name == "theorem_suite":
            numberings = sum(row["numberings"] for row in out.counters["per_n"].values())
    return {"ready": ready, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_kb": peak_kb,
            "ops": records, "trace": trace, "numberings": numberings}


def run(args):
    start = time.perf_counter()
    import tourlab

    import_s = time.perf_counter() - start
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_pass(tourlab, args.workload, args.seed, args.check, tracer)
    _write(args.out, {**result, "import_s": import_s})


def cli(args):
    start = time.perf_counter()
    import tourlab.cli

    import_s = time.perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    code = 1
    try:
        with tracer.span(args.span):
            code = tourlab.cli.main(args.argv)
    finally:
        tracer.uninstall()
        trace = tracer.dump()
        trace["import_s"] = import_s
        _write(args.out, trace)
    sys.exit(code)


def check_corpus(args):
    import tourlab

    _write(args.out, {
        "enum": _verdict(workloads.check_corpus, tourlab, _oracles(),
                         Path(args.corpus).read_bytes(), args.seed),
        "scan_chi2": _verdict(workloads.check_chi2_report, tourlab,
                              Path(args.report).read_text()),
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="task", required=True)
    p = sub.add_parser("facts")
    p.add_argument("--out", required=True)
    for name in ("setup", "run"):
        p = sub.add_parser(name)
        p.add_argument("workload", choices=("scans", "instances"))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        if name == "run":
            p.add_argument("--trace", action="store_true")
            p.add_argument("--check", action="store_true",
                           help="check every output, not only the probes")
    p = sub.add_parser("cli")
    p.add_argument("--span", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("check-corpus")
    for flag in ("--corpus", "--report", "--out"):
        p.add_argument(flag, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.task == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {"facts": facts, "setup": setup, "run": run, "cli": cli,
     "check-corpus": check_corpus}[args.task](args)


if __name__ == "__main__":
    main()
