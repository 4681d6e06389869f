"""orientdiam benchmark: time to a certified orientation, to re-verify it, and to the oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The library is imported from ./src; nothing is
installed. One process runs one workload in a closed loop on one thread: each
graph is oriented (``run_pipeline``), its orientation and trace are written,
and ``orientdiam verify`` re-checks them through ``cli.main`` in process.
Corpus graphs with at most 24 edges also go through ``exact_oriented_diameter``.
Passes over the workload's graphs repeat until ``--seconds`` have passed; the
first pass always completes.

Outside the timed calls, every orientation is checked against the independent
``oracle.directed_diameter_of_arcs``, ``verify`` must exit 0 with every check
ok, and ``oracle <= achieved <= bound.floor_total`` must hold. A miss makes the
run incorrect and the exit code 1. ``CertifiedFailureError`` is an honest
refusal, not a wrong output: it counts as a failed operation.

``attempted`` and ``failed`` count the distinct operations of the workload
(one ``run_pipeline`` per graph and epsilon, one oracle call per oracle-sized
graph), all of which the first pass runs. Later passes re-time the same
deterministic calls; each must reproduce its first-pass outcome, or the run
is incorrect. So the counts depend on the seed alone, not on how many passes
fit in ``--seconds``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, taken from spans recorded around the library's public
functions (see spans.py). Either way a human-readable report comes first and
one JSON object is the last line of standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("random-extend", "circulant-grow", "corpus-sandwich")


def _load_library():
    """Import orientdiam from ./src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import orientdiam
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import orientdiam from {SRC}: {exc}")
    origin = Path(orientdiam.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: orientdiam came from {origin}, not from {SRC}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    xs = sorted(xs)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def ratio(num, den):
    return num / den if den else 0.0


def eps_tag(eps: Fraction) -> str:
    return f"{eps.numerator}-{eps.denominator}"


class Run:
    """One workload, one seed: set-up, closed-loop passes, gate, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        # imported here because ./src joins sys.path only in _load_library
        from orientdiam import cli
        from orientdiam.errors import CertifiedFailureError
        from orientdiam.oracle import directed_diameter_of_arcs, exact_oriented_diameter
        from orientdiam.pipeline import run_pipeline

        import calibrate
        import spans
        import workloads

        # bound before any patching, so the gate and the untraced calls never
        # go through a span wrapper
        self.cli_main = cli.main
        self.failure_type = CertifiedFailureError
        self.slow_diameter = directed_diameter_of_arcs
        self.exact = exact_oriented_diameter
        self.run_pipeline = run_pipeline
        self.spans_mod = spans
        self.oracle_budget = workloads.ORACLE_BUDGET

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cases = workloads.WORKLOADS[workload](seed)
        self.tracer = spans.Tracer() if traced else None
        self.probe = calibrate.Probe()
        self.reference_s = calibrate.REFERENCE_S
        self.work = BENCH_DIR / "_work" / f"{workload}-{seed}-{os.getpid()}"

        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.graphs: list[dict] = []  # per graph: case, graph, file, set-up intervals, oracle
        self.results: dict[tuple[str, Fraction], dict] = {}  # first-pass outcome per op
        # timed calls as (op key, start, end); scaled by the speed probe at the end
        self.orient_calls: list[tuple] = []
        self.verify_calls: list[tuple] = []
        self.passes: list[dict] = []  # per complete pass: oracle calls, span slice, orient sums

    # -- calls, traced or not ------------------------------------------------

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def _verify(self, files: dict) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", str(files["graph"]), "--orientation", str(files["orientation"]),
                "--trace", str(files["trace"])]
        with redirect_stdout(out), redirect_stderr(err):
            rc = self._call("cli.verify", self.cli_main, argv)
        return rc, out.getvalue(), err.getvalue()

    # -- phases ----------------------------------------------------------------

    def setup(self) -> None:
        from orientdiam import format_graph

        self.work.mkdir(parents=True, exist_ok=True)
        self.probe.run()
        if self.tracer:
            self.tracer.install()
        for idx, case in enumerate(self.cases):
            self.probe.maybe()
            t0 = time.perf_counter()
            if self.tracer:
                self.tracer.graph_id = case.label
            g = self._call("generators.gen", case.make)
            text = format_graph(g, comment=case.label)
            t1 = time.perf_counter()
            path = self.work / f"g{idx}.txt"
            path.write_text(text)
            self.graphs.append(
                {"case": case, "graph": g, "idx": idx, "path": path,
                 "setup": [(t0, t1)], "oracle": None}
            )
        self.probe.run()
        self.setup_spans = len(self.tracer.spans) if self.tracer else 0

    def _write_artifacts(self, entry: dict, eps: Fraction, result) -> dict:
        from orientdiam import format_orientation

        t0 = time.perf_counter()
        orientation = format_orientation(result.orientation)
        trace = "\n".join(json.dumps(rec) for rec in result.trace_records()) + "\n"
        entry["setup"].append((t0, time.perf_counter()))
        stem = self.work / f"g{entry['idx']}-e{eps_tag(eps)}"
        files = {"graph": entry["path"], "orientation": stem.with_suffix(".orientation"),
                 "trace": stem.with_suffix(".jsonl")}
        files["orientation"].write_text(orientation)
        files["trace"].write_text(trace)
        files["trace_bytes"] = files["trace"].stat().st_size
        return files

    def _gate(self, entry: dict, eps: Fraction, result) -> list[str]:
        """Independent checks of one produced orientation; returns the misses."""
        g, label = entry["graph"], entry["case"].label
        misses = []
        slow = self.slow_diameter(g.n, result.orientation.arcs())
        if slow != result.achieved:
            misses.append(f"{label} eps={eps}: cross-check diameter {slow} != {result.achieved}")
        if result.achieved > result.bound.floor_total:
            misses.append(f"{label} eps={eps}: achieved {result.achieved} > floor bound "
                          f"{result.bound.floor_total}")
        orc = entry["oracle"]
        if orc is not None and (orc.value is None or orc.value > result.achieved):
            misses.append(f"{label} eps={eps}: oracle {orc.value} above achieved {result.achieved}")
        return misses

    def _op(self, entry: dict, eps: Fraction, first: bool, sums: dict) -> None:
        g, label = entry["graph"], entry["case"].label
        key = (label, eps)
        if first:
            self.attempted += 1
        if self.tracer:
            self.tracer.uninstall()
            self.probe.maybe()
            t0 = time.perf_counter()
            try:
                self.run_pipeline(g, eps)
            except self.failure_type:
                pass
            sums["untraced"].append((t0, time.perf_counter()))
            self.tracer.install()
        self.probe.maybe()
        t0 = time.perf_counter()
        try:
            result = self._call("pipeline.run", self.run_pipeline, g, eps)
        except self.failure_type as exc:
            sums["traced"].append((t0, time.perf_counter()))
            if first:
                self.failed += 1
                self.results[key] = {"failed": str(exc)}
            elif "failed" not in self.results[key]:
                self.misses.append(f"{label} eps={eps}: failed after succeeding on pass 1: {exc}")
            return
        t1 = time.perf_counter()
        self.probe.maybe()
        sums["traced"].append((t0, t1))
        self.orient_calls.append((key, t0, t1))
        if first:
            files = self._write_artifacts(entry, eps, result)
            misses = self._gate(entry, eps, result)
            self.results[key] = {"result": result, "files": files, "arcs": result.orientation.arcs()}
        elif "failed" in self.results[key]:
            self.misses.append(f"{label} eps={eps}: succeeded after failing on pass 1")
            return
        else:
            files = self.results[key]["files"]
            same = result.orientation.arcs() == self.results[key]["arcs"]
            misses = [] if same else [f"{label} eps={eps}: orientation changed between passes"]
        self.probe.maybe()
        t0 = time.perf_counter()
        rc, out, err = self._verify(files)
        self.verify_calls.append((key, t0, time.perf_counter()))
        self.probe.maybe()
        if rc != 0:
            misses.append(f"{label} eps={eps}: verify exited {rc}: {err.strip()}")
        elif not all(c["ok"] for c in json.loads(out)["checks"]):
            misses.append(f"{label} eps={eps}: verify reported a failed check")
        if misses:
            self.failed += first
            self.misses.extend(misses)

    def _oracle(self, entry: dict, first: bool) -> tuple[float, float]:
        g = entry["graph"]
        self.attempted += first
        self.probe.maybe()
        t0 = time.perf_counter()
        res = self._call("oracle.exact", self.exact, g, self.oracle_budget)
        t1 = time.perf_counter()
        self.probe.maybe()
        if first:
            entry["oracle"] = res
            if not res.feasible:
                self.failed += 1
                self.misses.append(f"{entry['case'].label}: oracle found no strong orientation")
        return t0, t1

    def measure(self) -> None:
        """Closed loop of passes until the deadline; the first pass always completes.

        Untraced runs may stop mid-pass, since their samples are single calls.
        Traced runs report per-pass totals, so they start a pass only when the
        previous one suggests it will end before the deadline.
        """
        deadline = time.perf_counter() + self.seconds
        while True:
            first = not self.passes
            start = time.perf_counter()
            lo = len(self.tracer.spans) if self.tracer else 0
            sums = {"oracle": [], "traced": [], "untraced": []}
            complete = True
            for entry in self.graphs:
                if not first and time.perf_counter() >= deadline and not self.tracer:
                    complete = False
                    break
                if self.tracer:
                    self.tracer.graph_id = entry["case"].label
                if entry["case"].sandwich and entry["graph"].m <= self.oracle_budget:
                    sums["oracle"].append(self._oracle(entry, first))
                for eps in entry["case"].epsilons:
                    self._op(entry, eps, first, sums)
            if not complete:
                break
            sums["spans"] = (lo, len(self.tracer.spans) if self.tracer else 0)
            self.passes.append(sums)
            now = time.perf_counter()
            if now >= deadline or (self.tracer and now + (now - start) > deadline):
                break
        if self.tracer:
            self.tracer.uninstall()
        self.probe.run()

    # -- metrics -----------------------------------------------------------------

    def _ok_results(self):
        return [r["result"] for r in self.results.values() if "result" in r]

    def end_to_end(self) -> tuple[dict, list[str]]:
        ok = self._ok_results()
        oracle_vals = {e["case"].label: e["oracle"] for e in self.graphs if e["oracle"]}
        trace_sizes = [r["files"]["trace_bytes"] for r in self.results.values() if "files" in r]
        scaled = self.probe.scaled
        quality = [float(r.achieved / r.bound.total) for r in ok]
        orient = [scaled(t0, t1) for _, t0, t1 in self.orient_calls]
        raw = {
            "orient_s": median([t1 - t0 for _, t0, t1 in self.orient_calls]),
            "verify_s": median([t1 - t0 for _, t0, t1 in self.verify_calls]),
            "setup_s": median([sum(t1 - t0 for t0, t1 in e["setup"]) for e in self.graphs]),
        }
        metrics = {
            "orient_s": median(orient),
            "verify_s": median([scaled(t0, t1) for _, t0, t1 in self.verify_calls]),
            "setup_s": median([sum(scaled(t0, t1) for t0, t1 in e["setup"]) for e in self.graphs]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace_bytes": median(trace_sizes),
            "diam_over_bound_max": max(quality, default=0.0),
            "ok_frac": ratio(self.attempted - self.failed, self.attempted),
        }
        notes = [
            f"times are at reference speed: {self.probe_note()}",
            "raw wall medians: " + ", ".join(f"{n} {v:.6f} s" for n, v in raw.items()),
            f"orient_s          median of {len(self.orient_calls)} run_pipeline calls",
            f"verify_s          median of {len(self.verify_calls)} verify calls",
            f"setup_s           median over {len(self.graphs)} graphs (generate, then format "
            f"the graph, orientation and trace files; file creation untimed)",
            f"ok_frac           {self.attempted - self.failed} ok / {self.attempted} distinct "
            f"operations attempted ({len(self.passes)} complete pass(es) timed)",
        ]
        extra = [f"diam_over_bound   {median(quality):.6f} ratio  (median of {len(quality)}; "
                 f"the JSON reports the worst case, which stays steady where the values are bimodal)",
                 f"failed_frac       {ratio(self.failed, self.attempted):.6f} ratio "
                 f"({self.failed} failed / {self.attempted} attempted)"]
        t = tail(orient)
        extra.append(
            f"orient_tail_s     {t[0]:.6f} s  (p{t[1]:.1f} of {t[2]} samples)" if t
            else f"orient_tail_s     n/a ({len(orient)} samples < 11)"
        )
        if oracle_vals:
            orc_s = median([sum(scaled(*c) for c in p["oracle"]) for p in self.passes])
            extra.append(f"oracle_s          {orc_s:.6f} s  (total per pass, {len(oracle_vals)} "
                         f"graphs, median of {len(self.passes)} passes)")
            ratios = [
                r["result"].achieved / oracle_vals[label].value
                for (label, _), r in self.results.items()
                if "result" in r and label in oracle_vals and oracle_vals[label].value
            ]
            extra.append(f"diam_over_oracle  {median(ratios):.6f} ratio  (median of {len(ratios)})")
            leaves = sum(o.leaves for o in oracle_vals.values())
            extra.append(f"oracle leaves     {leaves} count")
        else:
            extra.append("oracle_s          n/a (no oracle-sized graphs in this workload)")
            extra.append("diam_over_oracle  n/a")
        return metrics, notes + extra

    def per_case(self) -> list[str]:
        by_op: dict[tuple, dict[str, list[float]]] = {}
        for name, calls in (("orient", self.orient_calls), ("verify", self.verify_calls)):
            for key, t0, t1 in calls:
                by_op.setdefault(key, {"orient": [], "verify": []})[name].append(t1 - t0)
        lines = ["per (graph, eps), wall seconds; grow and extend are run_pipeline's own timings",
                 "label                                 n     m   eps    orient    grow  "
                 "extend    verify  achieved  bound"]
        for (label, eps), r in self.results.items():
            if "result" not in r:
                lines.append(f"{label:34s} eps={eps}  CERTIFIED FAILURE: {r['failed']}")
                continue
            res = r["result"]
            lines.append(
                f"{label:34s} {res.graph['n']:5d} {res.graph['m']:5d} {str(eps):>5s} "
                f"{median(by_op[(label, eps)]['orient']):9.4f} {res.timings['grow']:7.4f} "
                f"{res.timings['extend']:7.4f} {median(by_op[(label, eps)]['verify']):9.4f} "
                f"{res.achieved:9d} {str(res.bound.total):>6s}"
            )
        return lines

    def per_layer(self) -> tuple[dict, list[str]]:
        spans = self.spans_mod

        def factor(root):
            t0, t1 = root[spans.START], root[spans.END]
            return self.probe.scaled(t0, t1) / (t1 - t0) if t1 > t0 else 1.0

        summaries = [spans.SpanSummary(self.tracer.spans, *p["spans"], factor) for p in self.passes]
        first = summaries[0]

        def timed(fn):
            return median([fn(s) for s in summaries])

        ok = self._ok_results()
        iters = [it for r in ok for it in r.growth.trace.iterations]
        steps = [rec for r in ok for rec in r.extension.records if rec["type"] == "extension_step"]
        certify = {"orientation.is_strong", "orientation.diameter", "extension.core_diameter"}
        oracles = [e["oracle"] for e in self.graphs if e["oracle"]]
        exact_s = timed(lambda s: s.total["oracle.exact"])
        leaves = sum(o.leaves for o in oracles)
        achieved_over_oracle = [
            r["result"].achieved / e["oracle"].value
            for e in self.graphs if e["oracle"] and e["oracle"].value
            for (label, _), r in self.results.items()
            if label == e["case"].label and "result" in r
        ]
        setup = spans.SpanSummary(self.tracer.spans, 0, self.setup_spans, factor)

        def scaled_total(calls):
            return sum(self.probe.scaled(t0, t1) for t0, t1 in calls)

        overhead = median([scaled_total(p["traced"]) - scaled_total(p["untraced"])
                           for p in self.passes])
        untraced = median([scaled_total(p["untraced"]) for p in self.passes])
        m = {
            "graph.bfs_calls": first.calls["graph.bfs"],
            "graph.bfs_visited": first.visited["graph.bfs"],
            "graph.bfs_self_s": timed(lambda s: s.self_time["graph.bfs"]),
            "graph.path_calls": first.calls["graph.path"],
            "graph.path_self_s": timed(lambda s: s.self_time["graph.path"]),
            "graph.bridges_calls": first.calls["graph.bridges"],
            "graph.bridges_s": timed(lambda s: s.total["graph.bridges"]),
            "graph.ball_calls": first.calls["graph.ball"],
            "graph.ball_s": timed(lambda s: s.total["graph.ball"]),
            "graph.girth_s": timed(lambda s: s.total["graph.girth"]),
            "growth.grow_s": timed(lambda s: s.total["growth.grow"]),
            "growth.self_s": timed(lambda s: s.self_time["growth.grow"]),
            "growth.cover_path_calls": first.calls["growth.cover_path"],
            "growth.cover_path_s": timed(lambda s: s.total["growth.cover_path"]),
            "growth.iterations": len(iters),
            "growth.fallback_frac": ratio(sum(it.fallback for it in iters), len(iters)),
            "growth.splices": sum(it.splices for it in iters),
            "growth.cover_steps": sum(it.cover_steps for it in iters),
            "orientation.orient_core_s": timed(lambda s: s.total["orientation.orient_core"]),
            "orientation.dbfs_calls": first.calls["orientation.dbfs"],
            "orientation.dbfs_visited": first.visited["orientation.dbfs"],
            "orientation.dbfs_self_s": timed(lambda s: s.self_time["orientation.dbfs"]),
            "orientation.is_strong_s": timed(lambda s: s.total["orientation.is_strong"]),
            "orientation.diameter_calls": first.calls["orientation.diameter"],
            "orientation.diameter_s": timed(lambda s: s.total["orientation.diameter"]),
            "extension.extend_s": timed(lambda s: s.total["extension.extend"]),
            "extension.construct_s": timed(
                lambda s: s.total["extension.extend"] - s.children_total("extension.extend", certify)
            ),
            "extension.certify_s": timed(lambda s: s.children_total("extension.extend", certify)),
            "extension.rounds": sum(r.extension.final["rounds"] for r in ok),
            "extension.steps": len(steps),
            "extension.chain_frac": ratio(sum(rec["case"] == "chain" for rec in steps), len(steps)),
            "extension.window_empty": sum(bool(rec.get("window_empty")) for rec in steps),
            "pipeline.run_s": timed(lambda s: s.total["pipeline.run"]),
            "pipeline.self_s": timed(lambda s: s.self_time["pipeline.run"]),
            "pipeline.failures": sum(1 for r in self.results.values() if "failed" in r),
            "cli.verify_s": timed(lambda s: s.total["cli.verify"]),
            "cli.diameter_calls": first.calls_under_root("orientation.diameter", "cli.verify"),
            "cli.cross_check_s": timed(lambda s: s.total["oracle.cross_check"]),
            "oracle.exact_s": exact_s,
            "oracle.leaves": leaves,
            "oracle.leaves_per_s": ratio(leaves, exact_s),
            "oracle.diam_over_oracle": median(achieved_over_oracle),
            "generators.gen_s": setup.total["generators.gen"],
            "trace.overhead_s": overhead,
            "trace.overhead_frac": ratio(overhead, untraced),
        }
        notes = [
            f"times are at reference speed: {self.probe_note()}",
            f"{len(self.passes)} traced pass(es) over {len(self.graphs)} graphs; "
            f"counts from pass 1, times are per-pass totals (median over passes)",
            f"growth.fallback_frac base: {len(iters)} iterations; "
            f"extension.chain_frac base: {len(steps)} steps",
            f"trace.overhead_s: traced minus untraced run_pipeline time per pass "
            f"(untraced {untraced:.4f} s)",
            f"split: grow {ratio(m['growth.grow_s'], m['pipeline.run_s']):.1%} and extend "
            f"{ratio(m['extension.extend_s'], m['pipeline.run_s']):.1%} of pipeline.run_s",
        ]
        return m, notes

    def probe_note(self) -> str:
        return (f"each call x {self.reference_s} s / its neighbouring speed probes; "
                f"{len(self.probe.samples)} probes, median {median(self.probe.samples):.6f} s")

    def spans_path(self) -> Path:
        return BENCH_DIR / "_out" / f"spans-{self.workload}-{self.seed}.jsonl"


def load_declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    _load_library()
    declared = load_declared(bool(args.trace))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        run.measure()
    finally:
        if run.tracer:
            run.tracer.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  graphs {len(run.graphs)}  passes {len(run.passes)}")
    if args.trace:
        values, notes = run.per_layer()
        run.tracer.write(run.spans_path())
        notes.append(f"spans written to {run.spans_path().relative_to(ROOT)}")
    else:
        values, notes = run.end_to_end()
        notes.extend(run.per_case())
    missing = set(declared) - set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {sorted(missing)}")
    for name, unit in declared.items():
        print(f"{name:28s} {values[name]:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for miss in run.misses:
        print(f"  GATE MISS: {miss}")
    correct = not run.misses
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process, one at a time."""
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]) if lines else "", flush=True)
            if proc.returncode != 0:
                print(f"# {name} trace {trace}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
