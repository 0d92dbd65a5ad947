"""Benchmark of the `fot` command line: one workload per process.

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 20 --trace 0

Runs `fot.cli.main(argv)` in this process, one op at a time (a closed loop
with one client), on inputs generated from the seed, and checks every
result exactly.  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics; the last line of stdout is one JSON
object.  `--workload all` runs every workload, each in a fresh process.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans as layer_trace
from clock import CalibratedClock
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 9
FOT_MODULES = ("cli", "core", "gen", "braess", "topology", "equilibrium", "dynamics", "pwl")
MAX_REPORTED_FAILURES = 20


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    the smallest sample a run can have: the first pass, run twice.  Fixed
    per input set, so a faster program does not move the reported
    percentile."""
    n = 2 * ops_per_pass
    return max(50, math.floor(100 * (n - 10) / n))


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def load_fot() -> SimpleNamespace:
    """Import `fot` afresh from this checkout's `src`, never from elsewhere."""
    for name in [m for m in sys.modules if m == "fot" or m.startswith("fot.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"fot.{name}") for name in FOT_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "fot":
        raise ImportError(f"fot was imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, workdir: Path, tiny: bool, now):
    """Import, input generation and input files, repeated SETUP_REPS times;
    `setup_s` is their median.  Returns the last import, its inputs and the
    median duration in seconds on the clock `now`."""
    times = []
    for rep in range(SETUP_REPS):
        start = now()
        fot = load_fot()
        ops = workloads.make_ops(fot, workload, seed, tiny)
        directory = workdir / f"setup{rep}"
        directory.mkdir()
        workloads.write_inputs(ops, directory)
        times.append(now() - start)
    return fot, ops, statistics.median(times)


def child_cpu() -> float:
    """CPU seconds of ended child processes, such as a process pool's workers."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def invoke(main, argv, tracer=None):
    """One op: (exit code, stdout, stderr, milliseconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = tracer.call_op(main, argv) if tracer else main(argv)
        except Exception:  # an op that crashes is a failed op, not a crash of the run
            rc = None
            traceback.print_exc(file=err)
        elapsed = time.perf_counter_ns() - start
    return rc, out.getvalue(), err.getvalue(), elapsed / 1e6


class Runner:
    """Runs passes over the input set and keeps the samples and failures.
    Each op is timed in wall milliseconds and in seconds on the clock `now`."""

    def __init__(self, fot, ops, pins, now):
        self.main, self.now = fot.cli.main, now
        self.ops, self.pins = ops, pins
        self.samples: list[float] = []  # op durations in seconds on `now`
        self.raw_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, op, tracer=None):
        start = self.now()
        rc, stdout, stderr, ms = invoke(self.main, op.argv, tracer)
        self.samples.append(self.now() - start)
        self.raw_ms.append(ms)
        return rc, stdout, stderr

    def record(self, op, rc, stdout, stderr, reference=None) -> None:
        self.attempted += 1
        problems = workloads.check(op, rc, stdout, self.pins)
        if reference is not None and stdout != reference:
            problems.append("stdout differs from the first run of this input")
        if problems:
            detail = "; ".join(problems)
            if stderr.strip():
                detail += f"; stderr: {stderr.strip().splitlines()[-1]}"
            self.failures.append(
                f"FAIL {op.command} {op.name} input={Path(op.path).name}: {detail}")

    def run_pass(self, tracer=None, twice=False, references=None, after_op=None) -> list[str]:
        """One pass over every input; with `twice` each op runs twice in a row
        and both stdouts must be byte-identical.  Returns the stdouts."""
        outputs = []
        for i, op in enumerate(self.ops):
            rc, stdout, stderr = self.invoke(op, tracer)
            self.record(op, rc, stdout, stderr, None if references is None else references[i])
            if twice:
                self.record(op, *self.invoke(op, tracer), reference=stdout)
            if after_op is not None:
                after_op()
            outputs.append(stdout)
        return outputs


def end_to_end(runner: Runner, probes: int, setup_s: float, wall_s: float,
               passes: int) -> tuple[dict, list[str]]:
    samples = [seconds * 1000 for seconds in runner.samples]
    raw = runner.raw_ms
    q = tail_percentile(len(runner.ops))
    tail = percentile(samples, q)
    failed = len(runner.failures)
    metrics = {
        "op_p50_ms": (statistics.median(samples), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (len(samples) / (sum(samples) / 1000), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"input set: {len(runner.ops)} inputs, {len(samples)} ops in {passes} passes, "
        f"{wall_s:.1f} s wall",
        f"op_tail_ms is p{q}: {sum(s > tail for s in samples)} of {len(samples)} samples "
        "lie beyond it",
        f"error_rate {failed / runner.attempted:.4f} ratio "
        f"({failed} of {runner.attempted} ops failed)",
        f"setup_s is the median of {SETUP_REPS} set-ups",
        f"times are at full machine speed (clock.py, {probes} probes); raw wall "
        f"times: op_p50_ms {statistics.median(raw):.6g}, op_tail_ms {percentile(raw, q):.6g}, "
        f"ops_per_s {len(raw) / (sum(raw) / 1000):.6g}",
    ]
    return metrics, notes


class TracedRun:
    """Per-layer accounting over traced passes."""

    def __init__(self, workload, ops, now):
        self.tracer = layer_trace.Tracer(now)
        self.workload, self.ops = workload, ops
        self.passes: list[tuple[int, int]] = []
        self.phases = self.max_active = self.max_bits = 0

    def after_op(self) -> None:
        for run in self.tracer.runs:
            self.phases += len(run.phases)
            for phase in run.phases:
                self.max_active = max(self.max_active, len(phase.active))
                values = [phase.start, phase.end, run.social_cost,
                          *phase.label_slopes.values(), *phase.edge_rates.values()]
                self.max_bits = max(self.max_bits, *(
                    max(v.numerator.bit_length(), v.denominator.bit_length())
                    for v in values if isinstance(v, Fraction)))
        self.tracer.runs.clear()

    def metrics(self, untraced_s: list[float], traced_s: list[float],
                child_cpu_s: float) -> dict:
        spans, n = self.tracer.spans, len(self.passes)
        names: dict[str, list[int]] = {}
        io_s = dyn_pwl_s = engine_runs = 0
        for lo, hi in self.passes:
            agg = layer_trace.layer_times(spans, lo, hi)
            for name, (calls, total, own) in agg["names"].items():
                entry = names.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            io_s += agg["io_top_s"]
            dyn_pwl_s += agg["dynamics_pwl_s"]
            engine_runs += agg["braess_engine_runs"]

        def calls(name):
            return names.get(name, [0, 0, 0])[0] / n

        def ms(name, index=1):
            return names.get(name, [0, 0, 0])[index] / n * 1000

        def share(part, whole):
            return part / whole if whole else 0.0

        subsets = no_path = cores = 0
        if self.workload == "braess":
            for op in self.ops:
                s, p, c = workloads.st_cores(op.obj)
                subsets, no_path, cores = subsets + s, no_path + p, cores + c
        with_path = subsets - no_path
        total_ms = ms(layer_trace.OP_SPAN)
        values = {
            "equilibrium.thin_flow_ms": (ms("equilibrium.thin_flow"), "ms"),
            "equilibrium.solve_exact_calls": (calls("equilibrium.solve_exact"), "count"),
            "equilibrium.solve_exact_ms": (ms("equilibrium.solve_exact"), "ms"),
            "equilibrium.verify_thin_flow_calls": (calls("equilibrium.verify_thin_flow"), "count"),
            "equilibrium.solves_per_phase": (share(calls("equilibrium.solve_exact"),
                                                   calls("equilibrium.thin_flow")), "ratio"),
            "equilibrium.nash_flow_calls": (calls("equilibrium.nash_flow"), "count"),
            "equilibrium.nash_flow_self_ms": (ms("equilibrium.nash_flow", 2), "ms"),
            "equilibrium.next_event_ms": (ms("equilibrium.next_event"), "ms"),
            "equilibrium.phases": (self.phases / n, "count"),
            "equilibrium.max_active_edges": (self.max_active, "count"),
            "equilibrium.max_bits": (self.max_bits, "bits"),
            "dynamics.validate_feasible_ms": (ms("dynamics.validate_feasible"), "ms"),
            "dynamics.certify_nash_ms": (ms("dynamics.certify_nash"), "ms"),
            "dynamics.labels_calls": (calls("dynamics.labels"), "count"),
            "dynamics.labels_ms": (ms("dynamics.labels"), "ms"),
            "pwl.self_ms": (ms(layer_trace.PWL_SPAN), "ms"),
            "pwl.calls": (calls(layer_trace.PWL_SPAN), "count"),
            "braess.subsets": (subsets, "count"),
            "braess.engine_runs": (engine_runs / n, "count"),
            "braess.engine_runs_per_core": (share(cores, engine_runs / n), "ratio"),
            "braess.repeat_core_share": (share(with_path - cores, with_path), "ratio"),
            "braess.no_path_share": (share(no_path, subsets), "ratio"),
            "core.restrict_ms": (ms("core.restrict"), "ms"),
            "topology.find_subdivision_ms": (ms("topology.find_subdivision"), "ms"),
            "topology.find_subdivision_calls": (calls("topology.find_subdivision"), "count"),
            "topology.found_share": (share(self.tracer.found / n,
                                           calls("topology.find_subdivision")), "ratio"),
            "topology.uses_only_chains_ms": (ms("topology.uses_only_chains"), "ms"),
            "topology.series_parallel_ms": (ms("topology.series_parallel"), "ms"),
            "cli.self_ms": (ms(layer_trace.OP_SPAN, 2), "ms"),
            "core.io_ms": (io_s / n * 1000, "ms"),
            "split.thin_flow_share": (share(ms("equilibrium.thin_flow"), total_ms), "ratio"),
            "split.dynamics_pwl_share": (share(dyn_pwl_s / n * 1000, total_ms), "ratio"),
            "split.topology_share": (share(ms("topology.classify"), total_ms), "ratio"),
            "trace.overhead_s": (statistics.mean(traced_s) - statistics.mean(untraced_s), "s"),
            "proc.child_cpu_s": (child_cpu_s, "s"),
        }
        return values


# The layer each workload is chosen to stress, and the share that shows it.
EXPECTED_SPLIT = {
    "simulate": ("split.thin_flow_share", "equilibrium thin-flow solve"),
    "braess": ("split.dynamics_pwl_share", "dynamics validators plus pwl"),
    "classify": ("split.topology_share", "topology"),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, pins: dict | None = None) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns (result, report lines)."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    pins = workloads.load_pins() if pins is None else pins
    try:
        with CalibratedClock() as clock:
            fot, ops, setup_s = set_up(workload, seed, workdir, tiny, clock.now)
            runner = Runner(fot, ops, pins, clock.now)
            start = time.perf_counter()
            if trace:
                values, notes = traced_passes(workload, seed, seconds, runner, clock.now)
            else:
                runner.run_pass(twice=True)
                passes = 1
                while time.perf_counter() - start < seconds:
                    runner.run_pass()
                    passes += 1
                values, notes = end_to_end(runner, len(clock.probes), setup_s,
                                           time.perf_counter() - start, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    lines = [f"workload {workload} seed {seed} trace {int(trace)}", *notes,
             *runner.failures[:MAX_REPORTED_FAILURES]]
    if failed > MAX_REPORTED_FAILURES:
        lines.append(f"... {failed - MAX_REPORTED_FAILURES} more failures")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in values.items()]
    return result, lines


def traced_passes(workload, seed, seconds, runner, now):
    """Alternate untraced and traced passes until `seconds` of wall time have
    passed; spans and pass durations are read on the clock `now`.  The first
    traced pass must print exactly what the first untraced pass printed."""
    traced = TracedRun(workload, runner.ops, now)
    tracer = traced.tracer
    child_start, start = child_cpu(), time.perf_counter()
    untraced_s, traced_s, references = [], [], None
    while not traced_s or time.perf_counter() - start < seconds:
        t0 = now()
        outputs = runner.run_pass()
        untraced_s.append(now() - t0)
        references = references or outputs
        lo = len(tracer.spans)
        tracer.install()
        t0 = now()
        try:
            runner.run_pass(tracer, references=references if not traced_s else None,
                            after_op=traced.after_op)
        finally:
            tracer.uninstall()
        traced_s.append(now() - t0)
        traced.passes.append((lo, len(tracer.spans)))
    values = traced.metrics(untraced_s, traced_s, child_cpu() - child_start)
    spans_file = OUT / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write_spans(spans_file, *traced.passes[0])
    metric_name, layer = EXPECTED_SPLIT[workload]
    share = values[metric_name][0]
    notes = [
        f"traced {len(traced_s)} passes, untraced {len(untraced_s)}; per-layer values are per pass",
        f"spans of the first traced pass: {spans_file.relative_to(ROOT)}",
        "spans cover this process only: work in worker processes is not seen "
        "and shows up only in proc.child_cpu_s",
        f"split check: {layer} takes {share:.1%} of op time on {workload} "
        f"({'majority, as predicted' if share > 0.5 else 'NOT a majority, prediction not met'})",
    ]
    (OUT / f"layers-{workload}-seed{seed}.json").write_text(
        json.dumps({name: {"value": v, "unit": u} for name, (v, u) in values.items()},
                   indent=1) + "\n", encoding="utf-8")
    return values, notes


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fot" / "__init__.py").is_file():
        print(f"run.py: no fot package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
