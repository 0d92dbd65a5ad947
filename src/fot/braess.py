"""Braess ratio by exhaustive subgraph enumeration, plus sweep harnesses.

The ratio of an instance is the largest factor by which deleting edges can
shrink the equilibrium cost: max over kept-edge subsets H of cost(G)/cost(H),
with the extended-real rules below for unbounded costs.  Keeping everything
is always an entry, so the ratio is at least one, and a ratio above one is
the paradox: some deletion helps.

Costs refer to the canonical computed equilibrium of each subnetwork; every
report carries that caveat explicitly.

A subset's cost depends only on its s-t core (`fot.core.st_core`): the kept
edges on some source-sink path of kept edges.  An in-edge (u,v) of a core
node v with u reachable from the source is on such a path, so it is in the
core; thin-flow supports are path-closed, so no flow leaves the core, and
the labels at core nodes, hence the sink cost, equal those of the core
alone.  `braess_ratio` therefore solves each distinct core once per call and
reuses its cost, or its error, for every subset with that core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

# Looked up as `equilibrium.nash_flow` at each call, so that a replacement of
# that attribute (a tracer, a test that counts runs) sees every engine run.
from . import equilibrium
from .core import (
    FotError,
    INF,
    Instance,
    Network,
    ParameterError,
    Scalar,
    SizeCapError,
    restrict,
    st_core,
    transpose,
)
from .gen import make_ladder
from .topology import pattern_network

CANONICAL_NOTE = ("costs are those of the canonical computed equilibrium of "
                  "each subnetwork")


def extended_ratio(full: Scalar, sub: Scalar) -> Scalar:
    """Cost ratio with unbounded values: two unbounded costs compare as even,
    an unbounded numerator dominates, an unbounded denominator vanishes."""
    if full is INF:
        return Fraction(1) if sub is INF else INF
    if sub is INF:
        return Fraction(0)
    if sub == 0:
        return Fraction(1) if full == 0 else INF
    return full / sub


@dataclass(frozen=True)
class SubgraphCost:
    kept: tuple[str, ...]
    cost: Scalar
    error: Optional[str] = None


@dataclass(frozen=True)
class BraessReport:
    label: str
    full_cost: Scalar
    entries: tuple[SubgraphCost, ...]
    ratio: Scalar
    argmax: tuple[str, ...]
    paradox: bool
    note: str = CANONICAL_NOTE


def _core_cost(inst: Instance, core: frozenset[str],
               phase_cap: int) -> tuple[Scalar, Optional[str]]:
    """Cost of the sub-instance on an s-t core, with the error string of a
    failed run (recorded per core, never fatal)."""
    try:
        run = equilibrium.nash_flow(restrict(inst, core), phase_cap=phase_cap)
        return run.social_cost, None
    except FotError as exc:
        return INF, f"{type(exc).__name__}: {exc}"


def braess_ratio(inst: Instance, subsets: Optional[Sequence[Sequence[str]]] = None,
                 cap: int = 16, label: str = "", phase_cap: int = 200) -> BraessReport:
    """Evaluate the equilibrium cost of every kept-edge subset and take the
    worst cost ratio against the full network.

    A subset without a source-sink path costs INF.  Every other subset takes
    the cost of its s-t core (`st_core`), and the engine runs once per
    distinct core in this call.  A failed run is recorded in its subsets'
    entries, but that of the full network, which leaves no ratio, is raised.

    Without an explicit subset list all 2^|E| subsets are enumerated, so
    instances above `cap` edges are refused rather than silently sampled.
    """
    edge_ids = list(inst.edge_ids)
    if subsets is None:
        if len(edge_ids) > cap:
            raise SizeCapError(
                f"{len(edge_ids)} edges exceed the exhaustive cap {cap}; "
                "pass an explicit subset list")
        subsets = [tuple(eid for eid, bit in zip(edge_ids, mask) if bit)
                   for mask in product((0, 1), repeat=len(edge_ids))]
    else:
        subsets = [tuple(s) for s in subsets]
        known = set(edge_ids)
        for s in subsets:
            if not set(s) <= known:
                raise ParameterError(f"unknown edges in subset {s}")
        full = tuple(edge_ids)
        if full not in subsets:
            subsets.append(full)

    entries = []
    full_cost: Scalar = INF
    by_core: dict[frozenset[str], tuple[Scalar, Optional[str]]] = {}
    full_core = st_core(inst.network, edge_ids)
    if full_core is not None:  # run outside `_core_cost`, so a failure is raised
        full_cost = equilibrium.nash_flow(restrict(inst, full_core),
                                          phase_cap=phase_cap).social_cost
        by_core[full_core] = full_cost, None
    for kept in subsets:
        core = st_core(inst.network, kept)
        if core is None:
            entry = SubgraphCost(kept, INF)  # unbounded by convention
        else:
            if core not in by_core:
                by_core[core] = _core_cost(inst, core, phase_cap)
            entry = SubgraphCost(kept, *by_core[core])
        entries.append(entry)

    ratio: Scalar = Fraction(0)
    argmax: tuple[str, ...] = tuple(edge_ids)
    for entry in entries:
        contribution = extended_ratio(full_cost, entry.cost)
        if contribution > ratio:
            ratio = contribution
            argmax = entry.kept
    return BraessReport(
        label=label,
        full_cost=full_cost,
        entries=tuple(entries),
        ratio=ratio,
        argmax=argmax,
        paradox=ratio > 1,
    )


# -- parameter sweeps ------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    label: str
    ratio: Optional[Scalar]
    paradox: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepReport:
    description: str
    points: tuple[SweepPoint, ...]
    max_ratio: Optional[Scalar]
    any_paradox: bool
    note: str = CANONICAL_NOTE

    @property
    def failures(self) -> tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if p.error is not None)


def sweep(description: str, points: Sequence[tuple[str, Instance]],
          phase_cap: int = 200) -> SweepReport:
    out = []
    max_ratio: Optional[Scalar] = None
    any_paradox = False
    for point_label, inst in points:
        try:
            report = braess_ratio(inst, label=point_label, phase_cap=phase_cap)
        except FotError as exc:
            out.append(SweepPoint(point_label, None, False,
                                  error=f"{type(exc).__name__}: {exc}"))
            continue
        broken = [e for e in report.entries if e.error is not None]
        if broken:
            out.append(SweepPoint(
                point_label, None, False,
                error=f"{len(broken)} subsets failed, first: {broken[0].error}"))
            continue
        out.append(SweepPoint(point_label, report.ratio, report.paradox))
        any_paradox = any_paradox or report.paradox
        if max_ratio is None or report.ratio > max_ratio:
            max_ratio = report.ratio
    return SweepReport(description, tuple(out), max_ratio, any_paradox)


def transposed_ladder3_instance(capacity: dict[str, Fraction],
                                transit: dict[str, Fraction],
                                supply: Fraction,
                                source: str = "v3", sink: str = "v1") -> Instance:
    base = pattern_network("M3T")
    net = base if (base.source, base.sink) == (source, sink) else Network(
        nodes=base.nodes, edges=base.edges, source=source, sink=sink)
    return Instance(net, capacity, transit, supply)


def default_transpose_m3_grid() -> list[tuple[str, Instance]]:
    """A deterministic grid of instances on the transposed three-level ladder:
    transit assignments covering all relative orders of the three route
    times, capacity ladders tight and slack, supplies below, at, and above
    the network capacity, and the alternative terminal placements."""
    F = Fraction
    points: list[tuple[str, Instance]] = []
    for eps_denom in (10, 100):
        for j in (1, 2):
            inst = transpose(make_ladder(3, F(1, eps_denom), j))
            points.append((f"ladder-eps=1/{eps_denom}-j={j}", inst))

    transit_cases = [
        (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (1, 1, 1, 1),
        (0, 2, 1, 1), (0, 3, 1, 2), (2, 0, 5, 1), (0, 1, 1, 3),
        (1, 0, 4, 2), (0, 0, 3, 1), (3, 1, 0, 2), (0, 1, 5, 0),
    ]
    capacity_cases = [
        ("tight", (2, 1, 1, 1), (2, 4)),
        ("slack", (5, 4, 4, 4), (3, 20)),
        ("narrow", (1, 1, F(1, 2), F(1, 2)), (F(3, 2), 3)),
    ]
    for taus in transit_cases:
        for cap_name, caps, supplies in capacity_cases:
            for supply in supplies:
                te1, te2, tf1, tf2 = (F(t) for t in taus)
                ce1, ce2, cf1, cf2 = (F(c) for c in caps)
                inst = transposed_ladder3_instance(
                    capacity={"e1": ce1, "e2": ce2, "f1": cf1, "f2": cf2},
                    transit={"e1": te1, "e2": te2, "f1": tf1, "f2": tf2},
                    supply=F(supply))
                points.append(
                    (f"tau={taus}-caps={cap_name}-supply={supply}", inst))

    for source, sink in (("v1", "v3"), ("v3", "v2"), ("v2", "v1"), ("v2", "v3")):
        inst = transposed_ladder3_instance(
            capacity={"e1": F(2), "e2": F(1), "f1": F(1), "f2": F(1)},
            transit={"e1": F(0), "e2": F(1), "f1": F(2), "f2": F(1)},
            supply=F(1), source=source, sink=sink)
        points.append((f"terminals={source}->{sink}", inst))
    return points


def sweep_transpose_m3(points: Optional[Sequence[tuple[str, Instance]]] = None,
                       phase_cap: int = 200) -> SweepReport:
    """Braess ratios across instances on the transposed three-level ladder.

    Every point must report ratio one; a larger ratio would contradict the
    structural result the sweep corroborates and is surfaced as a suspected
    implementation bug rather than a discovery.
    """
    if points is None:
        points = default_transpose_m3_grid()
    shape = {(e.tail, e.head) for e in pattern_network("M3T").edges}
    for label, inst in points:
        got = {(e.tail, e.head) for e in inst.network.edges}
        if got != shape:
            raise ParameterError(f"point {label!r} is not on the transposed ladder")
    return sweep("transposed three-level ladder grid", points, phase_cap=phase_cap)

