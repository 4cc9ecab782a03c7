#!/usr/bin/env python3
"""tourlab benchmark: time to a proved answer on three fixed workloads.

    python3 perfbench/run.py --workload corpus|scans|instances|all \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the package is imported from
the checkout's src/, and the oracles from its tests/oracles.py.

Workloads (closed loop, one client, every pass in fresh interpreters, scan
threads left at their default of 1):

  corpus     `tourlab enum --n 7`, then `tourlab scan chi2 --c 2 --nmax 7`,
             each a cold CLI process, then one CLI deadline probe.
  scans      theorem suite, backdom, tribip (with a JSON round trip) and both
             two-vertex legend frontiers, all to n = 6, then a deadline probe
             on the suite: tens of thousands of small solver calls.
  instances  subset tables, analyzers and exact searches on a few large
             tournaments, then two deadline probes. Only this workload uses
             the seed, for its random 16- and 24-vertex tournaments.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics named in BENCHMARK.json. Passes repeat while the measured
time plus one more pass stays within --seconds (at least one pass runs), and
each metric is the median over passes; setup_s is the median of separate
set-up runs. With --trace 1 one untraced and one traced pass run, and the
metrics are the per-layer ones of the traced pass (see tracing.py).
error_rate (failed / attempted) and deadline_missed are printed beside the
metrics; the result line carries the former as `failed` and `attempted`.

Every output is checked (workloads.py): the first pass in full, and each
later pass must reproduce its outputs exactly. A wrong output or an
unexpected exception counts in `failed` and makes the exit code 1. A record
of the run, stamped with machine facts, is written to .perfbench_out/.
The benchmark's own tests: python3 -m pytest perfbench/bench_tests.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import deadline_met, report_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = str(HERE / "worker.py")
WORKLOADS = ("corpus", "scans", "instances")
SETUP_RUNS = 7
RUN_LIMIT_S = 165  # children still running then are killed, so a run ends within 180 s
CLI_PROBE_DEADLINE_S = 0.2
SETUP_OUTPUT = "3\n011\n001\n000\n"  # what `tourlab gen transitive --n 3` prints


class Child:
    """A reaped child process with its own resource usage."""

    def __init__(self, start, code, wall_s, usage, stdout, stderr):
        self.start, self.code, self.wall_s = start, code, wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_kb = usage.ru_maxrss
        self.stdout, self.stderr = stdout, stderr

    def failure(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {self.code}: {tail[0][:300]}"


class Runner:
    """Starts, times and reaps the children of one benchmark run."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.stop_at = time.monotonic() + RUN_LIMIT_S  # reset for each workload
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
        self.count = 0

    def path(self, name: str) -> Path:
        self.count += 1
        return self.tmp / f"{self.count:04d}-{name}"

    def spawn(self, args: list[str]) -> Child:
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.stop_at - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(start, proc.returncode, wall, usage,
                     out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def worker(self, task: list[str], argv: tuple[str, ...] = ()) -> tuple[Child, dict]:
        """A worker.py task and the JSON object it wrote ({} if none)."""
        result = self.path("result.json")
        child = self.spawn([WORKER, *task, "--out", str(result), *argv])
        try:
            return child, json.loads(result.read_text())
        except (OSError, ValueError):
            return child, {}

    def cli(self, argv: list[str], span: str, trace: bool) -> tuple[Child, dict]:
        """`tourlab ARGV` in its own process, through the tracing shim if asked."""
        if trace:
            return self.worker(["cli", "--span", span], ("--", *argv))
        return self.spawn(["-m", "tourlab.cli", *argv]), {}


def _op(name: str, wall_s: float, error=None, **extra) -> dict:
    return {"name": name, "wall_s": wall_s, "error": error, **extra}


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------


def setup_runs(r: Runner, workload: str) -> tuple[list[float], list[dict]]:
    """Start-up to ready inputs, several times; for corpus a no-op CLI run."""
    times, ops = [], []
    for _ in range(SETUP_RUNS):
        if workload == "corpus":
            child = r.spawn(["-m", "tourlab.cli", "gen", "transitive", "--n", "3"])
            ok = child.code == 0 and child.stdout == SETUP_OUTPUT
            error = None if ok else (child.failure() if child.code else "wrong gen output")
            took = child.wall_s
        else:
            child, data = r.worker(["setup", workload, "--seed", str(r.seed)])
            error = None if child.code == 0 and "ready" in data else child.failure()
            took = data["ready"] - child.start if error is None else child.wall_s
        times.append(took)
        ops.append(_op("setup", took, error))
    return times, ops


def corpus_pass(r: Runner, trace: bool, check: bool, setup_s: float) -> dict:
    corpus, report = r.path("corpus7.txt"), r.path("chi2.json")
    commands = (
        ("enum", "cli.enum", ["enum", "--n", "7", "--output", str(corpus)]),
        ("scan_chi2", "cli.scan", ["scan", "chi2", "--c", "2", "--nmax", "7",
                                   "--out", str(report)]),
        ("probe_suite", "cli.probe", ["scan", "theorem-suite", "--nmax", "6",
                                      "--deadline-seconds", str(CLI_PROBE_DEADLINE_S)]),
    )
    ops, traces = [], []
    wall = cpu = 0.0
    peak = 0
    for name, span, argv in commands:
        child, trace_data = r.cli(argv, span, trace)
        wall += child.wall_s
        cpu += child.cpu_s
        peak = max(peak, child.maxrss_kb)
        if trace_data:
            trace_data["process_s"] = child.wall_s
            traces.append(trace_data)
        op = _op(name, child.wall_s)
        if name == "probe_suite":
            # the deadline starts after start-up, which setup_s measures
            overrun = child.wall_s - setup_s - CLI_PROBE_DEADLINE_S
            raised = child.code == 3 and "deadline" in child.stderr
            if raised or (child.code == 0 and "theorem-suite: exhausted" in child.stdout):
                op["probe"] = {"raised": raised, "overrun_s": overrun,
                               "met": deadline_met(raised, overrun),
                               "deadline_s": CLI_PROBE_DEADLINE_S}
            else:
                op["error"] = child.failure()
        elif child.code != 0:
            op["error"] = child.failure()
        elif name == "enum":
            op["digest"] = hashlib.sha256(corpus.read_bytes()).hexdigest()
            op["bytes"] = corpus.stat().st_size
        else:
            if child.stdout.strip() != "chi2: exhausted":
                op["error"] = f"unexpected output {child.stdout.strip()[:200]!r}"
            op["digest"] = report_digest(report.read_text())
        ops.append(op)
    if check and not ops[0]["error"] and not ops[1]["error"]:
        child, verdict = r.worker(["check-corpus", "--corpus", str(corpus),
                                   "--report", str(report), "--seed", str(r.seed)])
        for op in ops[:2]:
            op["error"] = verdict.get(op["name"], child.failure()) if verdict else child.failure()
    return {"wall_s": wall, "cpu_s": cpu, "peak_kb": peak, "ops": ops, "traces": traces}


def inprocess_pass(r: Runner, workload: str, trace: bool, check: bool) -> dict:
    task = ["run", workload, "--seed", str(r.seed)]
    task += ["--trace"] if trace else []
    task += ["--check"] if check else []
    child, data = r.worker(task)
    if child.code != 0 or "ops" not in data:
        return {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_kb": child.maxrss_kb,
                "ops": [_op("worker", child.wall_s, child.failure())], "traces": []}
    traces = [data["trace"]] if data["trace"] else []
    return {"wall_s": data["wall_s"], "cpu_s": data["cpu_s"], "peak_kb": data["peak_rss_kb"],
            "ops": data["ops"], "traces": traces, "import_s": data["import_s"],
            "numberings": data["numberings"]}


def compare_to_first(passes: list[dict]):
    """Later passes must reproduce the outputs the first pass had checked."""
    first = {op["name"]: op for op in passes[0]["ops"]}
    for p in passes[1:]:
        for op in p["ops"]:
            ref = first.get(op["name"])
            if op["error"] or "digest" not in op:
                continue
            if ref is None or ref.get("digest") != op["digest"]:
                op["error"] = "output differs from the checked first pass"
            elif ref["error"]:
                op["error"] = ref["error"]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def measure(r: Runner, workload: str, seconds: float, trace: bool) -> dict:
    r.stop_at = time.monotonic() + RUN_LIMIT_S
    setups, setup_ops = setup_runs(r, workload)
    setup_s = statistics.median(setups)

    def one_pass(traced: bool, check: bool) -> dict:
        if workload == "corpus":
            return corpus_pass(r, traced, check, setup_s)
        return inprocess_pass(r, workload, traced, check)

    passes = []
    if trace:
        passes = [one_pass(False, True), one_pass(True, False)]
    else:
        measured = 0.0
        while True:
            started = time.monotonic()
            passes.append(one_pass(False, not passes))
            last = passes[-1]["wall_s"]
            measured += last
            now = time.monotonic()
            if measured + last > seconds or now + (now - started) > r.stop_at:
                break
    compare_to_first(passes)

    ops = setup_ops + [op for p in passes for op in p["ops"]]
    probes = [op["probe"] for p in passes for op in p["ops"] if op.get("probe")]
    result = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"]),
        "failures": [f"{op['name']}: {op['error']}" for op in ops if op["error"]],
        "probes": probes,
        "setup_runs_s": setups,
        "passes": passes,
    }
    if trace:
        result["metrics"] = layer_metrics(workload, passes[0], passes[1])
    else:
        result["metrics"] = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": setup_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_kb"] for p in passes) / 1024,
            "deadline_met": sum(p["met"] for p in probes) / len(probes) if probes else 0.0,
        }
    return result


def layer_metrics(workload: str, plain: dict, traced: dict) -> dict:
    merged = tracing.merge(traced["traces"])
    m = tracing.layer_metrics(merged)
    probes = [op["probe"] for op in traced["ops"] if op.get("probe")]
    m["structure.deadline_overrun_s"] = max((max(0.0, p["overrun_s"]) for p in probes),
                                            default=0.0)
    m["enumeration.numberings"] = traced.get("numberings", 0)
    m["formats.corpus_bytes"] = sum(op.get("bytes", 0) for op in traced["ops"])
    if workload == "corpus":
        cli = traced["traces"]
        m["cli.import_s"] = statistics.median(t["import_s"] for t in cli) if cli else 0.0
        m["trace.unattributed_s"] = sum(t["process_s"] - t["import_s"] - t["root_s"]
                                        for t in cli)
    else:
        m["cli.import_s"] = traced.get("import_s", 0.0)
        m["trace.unattributed_s"] = sum(t["unattributed_s"] for t in traced["traces"])
    m["cli.enum.wall_s"] = merged["total_s"].get("cli.enum", 0.0)
    m["cli.scan.wall_s"] = merged["total_s"].get("cli.scan", 0.0)
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return m


# ---------------------------------------------------------------------------
# facts, output
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(r: Runner) -> dict:
    child, data = r.worker(["facts"])
    return {"nproc": os.cpu_count(), "git_commit": git_commit(), **data,
            **({} if child.code == 0 else {"facts_error": child.failure()})}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def usable_checkout() -> str | None:
    for need in ("src/tourlab/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}; run from a tourlab source checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tourlab benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = usable_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # turn a kill into an exception, so the child being waited for is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        r = Runner(args.seed, tmp)
        facts = machine_facts(r)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: measure(r, w, args.seconds, trace) for w in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"# tourlab benchmark seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in sorted(facts.items())))
    metrics = {}
    for w, res in results.items():
        passes = len(res["passes"])
        print(f"{w}: {passes} passes, {res['failed']}/{res['attempted']} operations failed")
        prefix = "" if len(results) == 1 else f"{w}."
        for spec in declared:
            value = res["metrics"][spec["name"]]
            metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"  {spec['name']:40s} {value:14.6g} {spec['unit']}")
        if not trace:
            probes = res["probes"]
            missed = sum(not p["met"] for p in probes)
            print(f"  {'error_rate':40s} {res['failed'] / res['attempted']:14.6g} "
                  f"failed/attempted")
            overruns = ", ".join(f"{p['overrun_s']:.3g}" for p in probes)
            print(f"  {'deadline_missed':40s} {missed / max(1, len(probes)):14.6g} "
                  f"share of {len(probes)} probes (overruns in s: {overruns})")
        for failure in res["failures"]:
            print(f"FAILED {w}/{failure}", file=sys.stderr)
        record = {"workload": w, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "claim": None, "facts": facts, **res}
        (OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))

    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
