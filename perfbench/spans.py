"""Layer spans recorded from outside the package.

Each hook replaces a module attribute that a caller looks up at call time,
for example `fot.equilibrium.validate_feasible`, the name `nash_flow`
calls, or `fot.dynamics.labels`, the name `certify_nash` calls.  The
piecewise-linear layer is hooked on the `PiecewiseLinear` class itself and
records only top-level calls, those not made from inside another `pwl`
call.  Generator methods are not hooked, because their work happens while
the caller iterates; it is charged to the caller.

A span is [name, start, end, parent, op], with times in seconds on the
clock the tracer is given.  Self time is a span's duration minus the
durations of its direct children.  Spans are only seen
in this process: work done in worker processes shows up in
`proc.child_cpu_s` and nowhere else.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect

# (module, attribute, span name)
FUNCTION_HOOKS = (
    ("fot.core", "instance_from_obj", "core.instance_from_obj"),
    ("fot.core", "network_from_obj", "core.network_from_obj"),
    ("fot.core", "dumps", "core.dumps"),
    ("fot.equilibrium", "nash_flow", "equilibrium.nash_flow"),
    ("fot.equilibrium", "thin_flow", "equilibrium.thin_flow"),
    ("fot.equilibrium", "solve_exact", "equilibrium.solve_exact"),
    ("fot.equilibrium", "verify_thin_flow", "equilibrium.verify_thin_flow"),
    ("fot.equilibrium", "next_event", "equilibrium.next_event"),
    ("fot.equilibrium", "validate_feasible", "dynamics.validate_feasible"),
    ("fot.equilibrium", "certify_nash", "dynamics.certify_nash"),
    ("fot.dynamics", "labels", "dynamics.labels"),
    ("fot.braess", "braess_ratio", "braess.braess_ratio"),
    ("fot.braess", "restrict", "core.restrict"),
    ("fot.topology", "classify", "topology.classify"),
    ("fot.topology", "find_subdivision", "topology.find_subdivision"),
    ("fot.topology", "uses_only_chains", "topology.uses_only_chains"),
    ("fot.topology", "series_parallel", "topology.series_parallel"),
)
PWL_FUNCTION_HOOKS = (("fot.pwl", "minimum"), ("fot.dynamics", "minimum"))
PWL_DUNDERS = ("__call__", "__add__", "__sub__")
OP_SPAN = "cli.main"
PWL_SPAN = "pwl"
IO_SPANS = ("core.instance_from_obj", "core.network_from_obj", "core.dumps")
DYNAMICS_SPANS = ("dynamics.validate_feasible", "dynamics.certify_nash", "dynamics.labels")


class Tracer:
    """Records spans on the clock `now` while installed; `install` and
    `uninstall` swap the hooked attributes in and out of the loaded `fot`
    modules."""

    def __init__(self, now):
        self.now = now
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.in_pwl = False
        self.runs: list = []  # EquilibriumRun results of the current op
        self.found = 0  # find_subdivision calls that returned an embedding
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.now()
        return span

    def _exit(self, span: list) -> None:
        span[2] = self.now()
        self.stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if name == "equilibrium.nash_flow":
                self.runs.append(result)
            elif name == "topology.find_subdivision" and result is not None:
                self.found += 1
            return result
        return traced

    def wrap_pwl(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.in_pwl:
                return fn(*args, **kwargs)
            self.in_pwl = True
            span = self._enter(PWL_SPAN)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
                self.in_pwl = False
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name in FUNCTION_HOOKS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(getattr(mod, attr), name))
        for module, attr in PWL_FUNCTION_HOOKS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap_pwl(getattr(mod, attr)))
        cls = importlib.import_module("fot.pwl").PiecewiseLinear
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in PWL_DUNDERS:
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap_pwl(raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, attr, self.wrap_pwl(raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call_op(self, main, argv):
        """Run one op under a root span named after the CLI entry point."""
        self.op += 1
        span = self._enter(OP_SPAN)
        try:
            return main(argv)
        finally:
            self._exit(span)

    def write_spans(self, path, lo: int, hi: int) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i in range(lo, hi):
                name, start, end, parent, op = self.spans[i]
                fh.write(f"{i},{name},{start},{end},{parent},{op}\n")


def layer_times(spans: list[list], lo: int, hi: int) -> dict:
    """Per span name over spans[lo:hi]: calls, total and self seconds, plus
    the derived unions the per-layer metrics need."""
    child = {}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            child[parent] = child.get(parent, 0) + spans[i][2] - spans[i][1]
    stats: dict[str, list] = {}
    io_top = dyn_pwl = under_braess_runs = 0
    flagged = {}  # index -> (inside a dynamics/pwl span, inside braess_ratio)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child.get(i, 0)
        in_dyn, in_braess = flagged.get(parent, (False, False))
        if name in IO_SPANS and (parent < lo or spans[parent][0] not in IO_SPANS):
            io_top += dur
        is_dyn = name in DYNAMICS_SPANS or name == PWL_SPAN
        if is_dyn and not in_dyn:
            dyn_pwl += dur
        if name == "equilibrium.nash_flow" and in_braess:
            under_braess_runs += 1
        flagged[i] = (in_dyn or is_dyn, in_braess or name == "braess.braess_ratio")
    return {"names": stats, "io_top_s": io_top, "dynamics_pwl_s": dyn_pwl,
            "braess_engine_runs": under_braess_runs}
