"""Command-line interface.

Subcommands: simulate, validate, braess, classify, gen, sweep, reproduce,
export-plotdata.  All numeric input and output is exact ("p/q" strings);
JSON output is deterministic byte-for-byte.  Exit codes: 0 success / checks
pass, 1 an assertion or validation failed, 2 usage or input error (including
a cyclic input, one with no source-sink path or one beyond a size or phase
cap, and a path that cannot be read or written), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from fractions import Fraction

from . import braess as braess_mod
from . import core, dynamics, equilibrium, gen, reproduce, topology
from .core import (
    INF,
    ContractError,
    DomainError,
    FotError,
    MalformedFlowError,
    NoPathError,
    ParameterError,
    PhaseCapError,
    Q,
    SizeCapError,
    UnsupportedTopologyError,
    _field,
    _pairs,
    _typed,
    format_scalar,
    parse_scalar,
)
from .pwl import PiecewiseLinear

USAGE_ERROR, ASSERTION_ERROR, INTERNAL_ERROR = 2, 1, 3


# -- serialization helpers -----------------------------------------------------


_ATOMS = frozenset({str, int, bool, type(None)})


def to_obj(value) -> object:
    """The JSON form of a report: strings, integers, booleans and None as
    they are, `Q` and `INF` as "p/q" strings, lists, tuples and dicts item
    by item (a sequence of strings, such as a Braess entry's kept edges, is
    copied whole), curves as their breakpoints, and a dataclass as its
    fields (without an `error` that is None).  Scalars and containers are
    matched by exact type, so any other type raises TypeError."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is Q or value is INF:
        return format_scalar(value)
    if kind is tuple or kind is list:
        if all(type(item) is str for item in value):
            return list(value)
        return [to_obj(item) for item in value]
    if kind is dict:
        return {key: to_obj(item) for key, item in value.items()}
    if isinstance(value, PiecewiseLinear):
        return dynamics.pwl_to_obj(value)
    obj = {f.name: to_obj(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if "error" in obj and obj["error"] is None:
        del obj["error"]
    return obj


def run_to_obj(run: equilibrium.EquilibriumRun) -> dict:
    inst = run.instance
    queues = {eid: dynamics.pwl_to_obj(dynamics._edge_curves(inst, run.flow, eid).queue)
              for eid in inst.edge_ids}
    return {
        "instance": core.instance_to_obj(inst),
        "phases": to_obj(run.phases),
        "events": to_obj(run.events),
        "labels": to_obj(run.labels),
        "queues": queues,
        "flow": dynamics.flow_to_obj(run.flow),
        "social_cost": format_scalar(run.social_cost),
        "steady": run.steady,
        "diverging": run.diverging,
    }


def classification_to_obj(report: topology.ClassificationReport) -> dict:
    minors = {}
    for pid, emb in report.minors.items():
        if emb is None:
            minors[pid] = None
        else:
            minors[pid] = {
                "nodes": dict(emb.node_images),
                "paths": {k: list(v) for k, v in emb.edge_paths.items()},
            }
    return {
        "minors": minors,
        "uses_only_chains": report.uses_only_chains,
        "chain_witness": None if report.chain_witness is None else {
            "from": report.chain_witness[0],
            "to": report.chain_witness[1],
            "union": list(report.chain_witness[2]),
        },
        "series_parallel": report.series_parallel,
        "forward_paradox": report.forward_paradox,
        "either_direction_paradox": report.either_direction_paradox,
    }


# -- flat CSV bijection ---------------------------------------------------------


def flatten(obj, prefix="") -> list[tuple[str, str]]:
    """Flatten a JSON object into (path, typed-value) rows; lossless."""
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        if not obj:
            rows.append((prefix or ".", "d:"))
            return rows
        for key in sorted(obj):
            # A dotted key would split, and an integer key read back as a list index.
            if "." in key or key.lstrip("-").isdigit():
                raise ParameterError(f"key {key!r} cannot be flattened")
            rows.extend(flatten(obj[key], f"{prefix}.{key}" if prefix else key))
    elif isinstance(obj, list):
        if not obj:
            rows.append((prefix or ".", "l:"))
            return rows
        for i, item in enumerate(obj):
            rows.extend(flatten(item, f"{prefix}.{i}" if prefix else str(i)))
    elif isinstance(obj, bool):
        rows.append((prefix, "b:true" if obj else "b:false"))
    elif isinstance(obj, int):
        rows.append((prefix, f"i:{obj}"))
    elif obj is None:
        rows.append((prefix, "n:"))
    elif isinstance(obj, str):
        rows.append((prefix, f"s:{obj}"))
    else:
        raise ParameterError(f"cannot flatten value of type {type(obj).__name__}")
    return rows


def _decimal_text(value: str, places: int) -> str:
    scalar = parse_scalar(value)
    if scalar is INF:
        return "inf"
    whole, frac = divmod(abs(scalar.numerator) * 10 ** places, scalar.denominator)
    # round half away from zero, display only
    if 2 * frac >= scalar.denominator:
        whole += 1
    sign = "-" if scalar.numerator < 0 else ""
    text = str(whole).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}" if places else f"{sign}{text}"


def write_csv(obj, stream, decimal: int | None = None) -> None:
    writer = csv.writer(stream)
    header = ["path", "value"]
    if decimal is not None:
        header.append(f"decimal_{decimal}_display_only_not_authoritative")
    writer.writerow(header)
    for path, cell in flatten(obj):
        row = [path, cell]
        if decimal is not None:
            extra = ""
            if cell.startswith("s:"):
                try:
                    extra = _decimal_text(cell[2:], decimal)
                except FotError:
                    extra = ""
            row.append(extra)
        writer.writerow(row)


# -- shared I/O helpers -----------------------------------------------------------


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_object(path: str) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ParameterError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj


def _write(text: str, path: str | None) -> None:
    """Write `text` to the file `path`, or to stdout without one.  The file is
    opened without newline translation, so it gets exactly `text`."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, args) -> None:
    fmt = getattr(args, "format", "json")
    decimal = getattr(args, "decimal", None)
    if fmt == "csv":
        buf = io.StringIO()
        write_csv(obj, buf, decimal)
        text = buf.getvalue()
    else:
        text = core.dumps(obj)
    _write(text, args.output)


def _instance(obj: dict, where: str) -> core.Instance:
    if not core.is_instance_obj(obj):
        raise ParameterError(f"{where} holds a bare network; an instance is needed")
    return core.instance_from_obj(obj)


def _load_instance(path: str) -> core.Instance:
    return _instance(_read_object(path), path)


def _load_network(path: str) -> core.Network:
    return core.network_from_obj(_read_object(path))


def _fraction_arg(text: str) -> Fraction:
    value = parse_scalar(text)
    if value is INF:
        raise argparse.ArgumentTypeError("expected a finite rational")
    return value


def _int_at_least(least: int):
    """An argparse type: an integer of at least `least`, else a usage error."""
    what = "a nonnegative integer" if least == 0 else f"an integer of at least {least}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_nonnegative_arg = _int_at_least(0)
_phase_cap_arg = _int_at_least(1)


# -- subcommand implementations ----------------------------------------------------


def _cmd_simulate(args) -> int:
    if args.decimal is not None and args.format != "csv":
        raise ParameterError("--decimal adds a CSV column and needs --format csv")
    inst = _load_instance(args.instance)
    run = equilibrium.nash_flow(inst, phase_cap=args.phase_cap)
    _emit(run_to_obj(run), args)
    return 0


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    try:
        flow = dynamics.flow_from_obj(_read_object(args.flow))
    except ContractError as exc:
        # Breakpoints out of order make no curve: a fault of the flow file.
        raise ParameterError(f"{args.flow}: {exc}") from exc
    grid = [parse_scalar(p) for p in args.grid.split(",")] if args.grid else []
    if INF in grid:
        raise ParameterError("field '--grid' must hold finite probe times, not inf")
    try:
        report = dynamics.validate_feasible(inst, flow, sample_grid=grid)
    except (DomainError, MalformedFlowError) as exc:
        # A negative probe time or a malformed flow file is a fault of the input.
        raise ParameterError(f"{type(exc).__name__}: {exc}") from exc
    result = {"feasible": report.ok, "violations": to_obj(report.violations)}
    ok = report.ok
    if report.ok:
        nash, nash_report = dynamics.certify_nash(inst, flow)
        result["nash"] = nash
        result["nash_violations"] = to_obj(nash_report.violations)
        if args.nash:
            ok = ok and nash
    _emit(result, args)
    return 0 if ok else ASSERTION_ERROR


def _cmd_braess(args) -> int:
    inst = _load_instance(args.instance)
    subsets = None
    if args.subsets:
        entries = _typed(_read_json(args.subsets), list, "subsets")
        subsets = [tuple(_typed(eid, str, "subsets") for eid in _typed(entry, list, "subsets"))
                   for entry in entries]
    report = braess_mod.braess_ratio(inst, subsets=subsets, cap=args.cap,
                                     phase_cap=args.phase_cap)
    _emit(to_obj(report), args)
    return 0


def _cmd_classify(args) -> int:
    report = topology.classify(_load_network(args.network),
                               node_cap=args.node_cap, edge_cap=args.edge_cap)
    _emit(classification_to_obj(report), args)
    return 0


def _cmd_sweep(args) -> int:
    points = None
    if args.grid:
        points = []
        for entry in _typed(_read_json(args.grid), list, "grid"):
            entry = _typed(entry, dict, "grid")
            points.append((_field(entry, "grid.label", str),
                           _instance(_field(entry, "grid.instance", dict),
                                     "field 'grid.instance'")))
    report = braess_mod.sweep_transpose_m3(points, phase_cap=args.phase_cap)
    _emit(to_obj(report), args)
    if report.any_paradox or report.failures:
        return ASSERTION_ERROR
    return 0


def _cmd_gen(args) -> int:
    if args.family == "mn":
        obj = core.instance_to_obj(
            gen.make_ladder(args.n, args.eps, args.j, args.T, integer=args.integer))
        if args.integer:
            obj["_meta"] = {
                "cost_target": format_scalar(
                    gen.integer_alpha_bound(args.n, args.eps, args.T))}
        _emit(obj, args)
        return 0
    if args.family in ("m3prime", "m3doubleprime"):
        pid = "M3Prime" if args.family == "m3prime" else "M3DoublePrime"
        net = topology.pattern_network(pid)
        if args.eps is not None:
            inst = gen.embed_paradox_instance(net, topology.find_subdivision(net, pid), args.T,
                                              gen.geometric_alphas(3, args.eps, args.j))
            _emit(core.instance_to_obj(inst), args)
        else:  # the bare network uses neither value, but refuses what --eps refuses
            gen.check_exponent(args.j)
            gen.check_horizon(args.T)
            _emit(core.network_to_obj(net), args)
        return 0
    if args.family == "random":
        _emit(core.network_to_obj(gen.random_dag(args.nodes, args.edges, args.seed)),
              args)
        return 0
    raise ParameterError(f"unknown generator {args.family!r}")


def _cmd_reproduce(args) -> int:
    overrides = {}
    for name in ("n", "eps", "j", "T", "samples", "seed", "nodes", "edges"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    result = reproduce.run_preset(args.preset, **overrides)
    _emit({**to_obj(result), "ok": result.ok}, args)
    if not result.ok:
        failure = result.first_failure()
        print(f"FAILED: {failure.description}: required {failure.required}, "
              f"observed {failure.observed}", file=sys.stderr)
        return ASSERTION_ERROR
    return 0


def _cmd_export_plotdata(args) -> int:
    run_obj = _read_object(args.run)
    rows = [("series", "name", "x", "value")]
    for series, field in (("label", "labels"), ("queue", "queues")):
        curves = _field(run_obj, field, dict)
        for name in sorted(curves):
            if series == "label" and curves[name] == "inf":
                continue
            where = f"{field}.{name}.breakpoints"
            points = _pairs(_field(_typed(curves[name], dict, f"{field}.{name}"), where),
                            where)
            rows.extend((series, name, x, y) for x, y in points)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write(buf.getvalue(), args.output)
    return 0


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fot",
        description="Exact laboratory for congestion games with flow over time.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats=False):
        p.add_argument("-o", "--output", help="write to a file instead of stdout")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--decimal", type=_nonnegative_arg, default=None,
                           help="add a display-only decimal column (CSV only)")

    p = sub.add_parser("simulate", help="compute the equilibrium phase by phase")
    p.add_argument("instance")
    p.add_argument("--phase-cap", type=_phase_cap_arg, default=equilibrium.PHASE_CAP)
    add_output(p, formats=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check a flow against the model conditions")
    p.add_argument("instance")
    p.add_argument("flow")
    p.add_argument("--grid", default="", help="extra probe times, comma-separated p/q")
    p.add_argument("--nash", action="store_true",
                   help="require the equilibrium certificates as well")
    add_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("braess", help="cost ratio over all kept-edge subsets")
    p.add_argument("instance")
    p.add_argument("--cap", type=_nonnegative_arg, default=braess_mod.SUBSET_CAP)
    p.add_argument("--subsets", help="JSON file with an explicit subset list")
    p.add_argument("--phase-cap", type=_phase_cap_arg, default=equilibrium.PHASE_CAP)
    add_output(p)
    p.set_defaults(func=_cmd_braess)

    p = sub.add_parser("classify", help="structural classification of a network")
    p.add_argument("network")
    p.add_argument("--node-cap", type=_nonnegative_arg, default=topology.NODE_CAP)
    p.add_argument("--edge-cap", type=_nonnegative_arg, default=topology.EDGE_CAP)
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="evaluate a grid of instances")
    p.add_argument("--preset", required=True, choices=("transpose-m3",))
    p.add_argument("--grid", help="JSON file: [{label, instance}, ...]")
    p.add_argument("--phase-cap", type=_phase_cap_arg, default=equilibrium.PHASE_CAP)
    add_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen", help="generate instances and networks")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("mn")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--T", type=_fraction_arg, default=Q(1))
    g.add_argument("--eps", type=_fraction_arg, required=True)
    g.add_argument("--j", type=int, default=1)
    g.add_argument("--integer", action="store_true")
    add_output(g)
    g.set_defaults(func=_cmd_gen)
    for family in ("m3prime", "m3doubleprime"):
        g = gsub.add_parser(family)
        g.add_argument("--eps", type=_fraction_arg, default=None,
                       help="instantiate with ladder parameters instead of "
                            "emitting the bare network")
        g.add_argument("--j", type=int, default=1)
        g.add_argument("--T", type=_fraction_arg, default=Q(1))
        add_output(g)
        g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("random")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--edges", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    add_output(g)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reproduce", help="run a reproduction preset")
    p.add_argument("preset", choices=sorted(reproduce.PRESETS))
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=_fraction_arg)
    p.add_argument("--j", type=int)
    p.add_argument("--T", type=_fraction_arg)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--edges", type=int)
    add_output(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("export-plotdata",
                       help="CSV of label and queue series from a run file")
    p.add_argument("run")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParameterError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"fot: input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NoPathError, SizeCapError, PhaseCapError, UnsupportedTopologyError) as exc:
        # Properties of the input, not faults of the program.
        print(f"fot: input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FotError as exc:
        print(f"fot: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
