"""Per-layer tracing from outside the package.

Each traced function is wrapped at the name binding its caller looks up at
call time: a module attribute such as ``tourlab.enumeration.dom`` (the name
the scan functions call) or ``tourlab._kernels.min_code`` (looked up through the
``_kernels`` module by every caller). Nothing under ``src/`` changes; the
wrappers exist only in a traced process and are removed by ``uninstall``.

Spans nest through a stack. A span's self time is its duration minus the
time its child spans cover, and an exception is counted against a layer only
when it leaves that layer, i.e. when the enclosing span belongs to another
layer or there is none. A binding that no longer exists is skipped and listed
in ``missing``, so a later refactor of the package degrades the trace instead
of breaking it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("kernels", "enumeration", "solvers", "structure", "core", "formats",
          "constructions", "cli")

# (module, attribute path, metric name). The layer is the metric's first part.
# Only bindings some workload reaches are listed, so each one shows calls.
BINDINGS = (
    ("tourlab._kernels", "min_code", "kernels.min_code"),
    ("tourlab._kernels", "transitive_table", "kernels.transitive_table"),
    ("tourlab._kernels", "chi_table_from_trans", "kernels.chi_table"),
    ("tourlab._kernels", "subdom_scan", "kernels.subdom_scan"),
    ("tourlab.enumeration", "canonical_code", "enumeration.canonical_code"),
    ("tourlab.enumeration", "enumerate_all", "enumeration.enumerate_all"),
    ("tourlab.enumeration", "scan_chi2", "enumeration.scan.chi2"),
    ("tourlab.enumeration", "scan_tribip", "enumeration.scan.tribip"),
    ("tourlab.enumeration", "scan_theorem_suite", "enumeration.scan.theorem_suite"),
    ("tourlab.enumeration", "scan_backdom", "enumeration.scan.backdom"),
    ("tourlab.enumeration", "legend_frontier", "enumeration.scan.legends"),
    ("tourlab.enumeration", "SearchReport.to_json", "formats.report_json"),
    ("tourlab.solvers", "chi_all_subsets", "solvers.chi_all_subsets"),
    ("tourlab.enumeration", "chi_all_subsets", "solvers.chi_all_subsets"),
    ("tourlab.structure", "chi_all_subsets", "solvers.chi_all_subsets"),
    ("tourlab.solvers", "chi", "solvers.chi"),
    ("tourlab.solvers", "subdom", "solvers.subdom"),
    ("tourlab.solvers", "dom", "solvers.dom"),
    ("tourlab.enumeration", "dom", "solvers.dom"),
    ("tourlab.enumeration", "graph_chi", "solvers.graph_chi"),
    ("tourlab.solvers", "graph_omega", "solvers.graph_omega"),
    ("tourlab.enumeration", "graph_omega", "solvers.graph_omega"),
    ("tourlab.structure", "local_chromatic_number", "structure.local_chromatic_number"),
    ("tourlab.enumeration", "local_chromatic_number", "structure.local_chromatic_number"),
    ("tourlab.structure", "max_diamond", "structure.max_diamond"),
    ("tourlab.enumeration", "max_diamond", "structure.max_diamond"),
    ("tourlab.structure", "best_complete_pair", "structure.best_complete_pair"),
    ("tourlab.structure", "min_local_numbering", "structure.min_local_numbering"),
    ("tourlab.enumeration", "ordered_contains", "structure.ordered_contains"),
    ("tourlab.enumeration", "backedge_graph", "core.backedge_graph"),
    ("tourlab.enumeration", "induce", "core.induce"),
    ("tourlab.formats", "emit_compact", "formats.emit_compact"),
    ("tourlab.enumeration", "emit_compact", "formats.emit_compact"),
    ("tourlab.constructions", "transitive_tournament", "constructions.build"),
    ("tourlab.constructions", "s_t", "constructions.build"),
    ("tourlab.constructions", "paley", "constructions.build"),
    ("tourlab.constructions", "random_tournament", "constructions.build"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Aggregated spans and work counters for one process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.work: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.root_s = 0.0
        self.missing: list[str] = []
        self._tables: set = set()
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, failed: bool):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
        if failed and (not self._stack or self._stack[-1][0] != frame[0]):
            self.raised[frame[0]] += 1

    @contextmanager
    def span(self, name: str):
        """An explicit span, e.g. around a CLI main()."""
        self.calls[name] += 1
        frame = self._enter(name.split(".")[0])
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(name, frame, failed)

    # -- wrapping ----------------------------------------------------------

    def _note(self, name: str, args, result):
        """Work counts read from a call's arguments and result.

        A call whose signature no longer fits is still timed; only its work
        count is skipped, so a refactored kernel does not break the trace.
        """
        try:
            if name == "kernels.min_code":
                self.work["kernels.min_code.labellings"] += len(args[1])
            elif name == "kernels.chi_table":
                self.work["kernels.chi_table.entries"] += len(args[0])
            elif name == "enumeration.canonical_code":
                if result == self._tournament_code(args[0]):
                    self.work["enumeration.canonical_code.kept"] += 1
            elif name == "solvers.chi_all_subsets":
                self._tables.add((args[0].n, args[0].out_sets))
        except (AttributeError, IndexError, TypeError):
            pass

    def _wrap(self, fn, name: str, binding: str):
        layer = name.split(".")[0]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                tracer.binding_calls[binding] += 1
                inner = fn(*args, **kwargs)

                def resumed():
                    while True:
                        frame = tracer._enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer._exit(name, frame, False)
                            return
                        except BaseException:
                            tracer._exit(name, frame, True)
                            raise
                        tracer._exit(name, frame, False)
                        yield item

                return resumed()

            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.binding_calls[binding] += 1
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, frame, True)
                raise
            tracer._exit(name, frame, False)
            tracer._note(name, args, result)
            return result

        return traced

    def install(self, bindings=BINDINGS):
        from tourlab.formats import tournament_code

        self._tournament_code = tournament_code
        for module, path, name in bindings:
            binding = f"{module}.{path}"
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(binding)
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, binding))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data state, mergeable across processes with ``merge``."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "raised": dict(self.raised),
            "work": dict(self.work),
            "binding_calls": dict(self.binding_calls),
            "distinct_tables": len(self._tables),
            "root_s": self.root_s,
            "missing": list(self.missing),
        }


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several traced processes."""
    keys = ("calls", "self_s", "total_s", "raised", "work", "binding_calls")
    out = {key: Counter() for key in keys}
    out.update(distinct_tables=0, root_s=0.0, missing=[])
    for d in dumps:
        for key in keys:
            out[key].update(d[key])
        out["distinct_tables"] += d["distinct_tables"]
        out["root_s"] += d["root_s"]
        out["missing"] += [m for m in d["missing"] if m not in out["missing"]]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a merged trace."""
    calls, self_s, work = trace["calls"], trace["self_s"], trace["work"]
    m: dict[str, float] = {}

    def add(name: str, *fields: str):
        for f in fields:
            m[f"{name}.{f}"] = calls.get(name, 0) if f == "calls" else self_s.get(name, 0.0)

    add("kernels.min_code", "calls", "self_s")
    m["kernels.min_code.labellings"] = work.get("kernels.min_code.labellings", 0)
    add("kernels.transitive_table", "self_s")
    add("kernels.chi_table", "calls", "self_s")
    m["kernels.chi_table.entries"] = work.get("kernels.chi_table.entries", 0)
    add("kernels.subdom_scan", "calls", "self_s")
    add("enumeration.canonical_code", "calls")
    m["enumeration.keep_ratio"] = _ratio(
        work.get("enumeration.canonical_code.kept", 0),
        calls.get("enumeration.canonical_code", 0))
    add("enumeration.enumerate_all", "self_s")
    for scan in ("chi2", "tribip", "theorem_suite", "backdom", "legends"):
        add(f"enumeration.scan.{scan}", "self_s")
    add("solvers.chi_all_subsets", "calls", "self_s")
    m["solvers.chi_all_subsets.distinct_ratio"] = _ratio(
        trace["distinct_tables"], calls.get("solvers.chi_all_subsets", 0))
    add("solvers.chi", "calls", "self_s")
    add("solvers.subdom", "self_s")
    for name in ("solvers.dom", "solvers.graph_chi", "solvers.graph_omega",
                 "structure.local_chromatic_number", "structure.ordered_contains",
                 "core.backedge_graph", "core.induce", "formats.emit_compact"):
        add(name, "calls", "self_s")
    for name in ("structure.max_diamond", "structure.best_complete_pair",
                 "structure.min_local_numbering", "formats.report_json",
                 "constructions.build"):
        add(name, "self_s")
    for layer in LAYERS:
        m[f"{layer}.raised"] = trace["raised"].get(layer, 0)
    return m
