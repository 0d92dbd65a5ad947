"""Braess ratio by exhaustive subgraph enumeration, and the transposed-ladder sweep.

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

from dataclasses import dataclass, replace
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
    ParameterError,
    Scalar,
    SizeCapError,
    restrict,
    st_core,
    transpose,
)
from .equilibrium import PHASE_CAP
from .gen import ladder_network, make_ladder
from .pwl import ONE, ZERO

CANONICAL_NOTE = ("costs are those of the canonical computed equilibrium of "
                  "each subnetwork")
_TRANSPOSED_LADDER3 = ladder_network(3).transposed()
# The most edges whose 2^|E| kept-edge subsets `braess_ratio` enumerates.
SUBSET_CAP = 16


def extended_ratio(full: Scalar, sub: Scalar) -> Scalar:
    """Cost ratio with unbounded values: two unbounded costs compare as even,
    an unbounded numerator dominates, an unbounded denominator vanishes."""
    if full is INF:
        return ONE if sub is INF else INF
    if sub is INF:
        return ZERO
    if sub == 0:
        return ONE if full == 0 else INF
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


def braess_ratio(inst: Instance, subsets: Optional[Sequence[Sequence[str]]] = None,
                 cap: int = SUBSET_CAP, label: str = "",
                 phase_cap: int = PHASE_CAP) -> BraessReport:
    """Evaluate the equilibrium cost of every kept-edge subset and take the
    worst cost ratio against the full network.

    A subset without a source-sink path costs INF.  Every other subset takes
    the outcome of its s-t core (`st_core`): the cost of the engine's run on
    the core, or the `FotError` that run raised.  The engine runs once per
    distinct core in this call, the full network's core first.  A failed
    run is recorded in its subsets' entries, but that of the full network,
    which leaves no ratio, is raised.

    The runs of one call share one dict of thin flows, keyed by a phase's
    competitive and resetting edge sets (`equilibrium.nash_flow` says why
    that is exact), so a phase system that recurs in another core is
    solved once per call.  The dict lives as long as the call.

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

    by_core: dict[frozenset[str], Scalar | FotError] = {}
    thin_flows: dict = {}

    def outcome(kept: Sequence[str]) -> Scalar | FotError:
        core = st_core(inst.network, kept)
        if core is None:
            return INF  # unbounded by convention
        if core not in by_core:
            try:
                by_core[core] = equilibrium.nash_flow(
                    restrict(inst, core), phase_cap=phase_cap,
                    thin_flows=thin_flows).social_cost
            except FotError as exc:
                by_core[core] = exc
        return by_core[core]

    full_cost = outcome(edge_ids)
    if isinstance(full_cost, FotError):
        raise full_cost
    entries = []
    ratio: Scalar = ZERO
    argmax: tuple[str, ...] = tuple(edge_ids)
    for kept in subsets:
        cost = outcome(kept)
        if isinstance(cost, FotError):
            entry = SubgraphCost(kept, INF, f"{type(cost).__name__}: {cost}")
        else:
            entry = SubgraphCost(kept, cost)
        entries.append(entry)
        contribution = extended_ratio(full_cost, entry.cost)
        if contribution > ratio:
            ratio = contribution
            argmax = kept
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


def transposed_ladder3_instance(capacity: dict[str, Fraction],
                                transit: dict[str, Fraction],
                                supply: Fraction,
                                source: str = "v3", sink: str = "v1") -> Instance:
    net = replace(_TRANSPOSED_LADDER3, source=source, sink=sink)
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
                       phase_cap: int = PHASE_CAP) -> SweepReport:
    """Braess ratios across instances on the transposed three-level ladder.

    Every point must report ratio one; a larger ratio would contradict the
    structural result the sweep corroborates and is surfaced as a suspected
    implementation bug rather than a discovery.
    """
    if points is None:
        points = default_transpose_m3_grid()
    # Edges as a multiset of (tail, head) pairs: parallel copies count.
    shape = sorted((e.tail, e.head) for e in _TRANSPOSED_LADDER3.edges)
    for label, inst in points:
        if sorted((e.tail, e.head) for e in inst.network.edges) != shape:
            raise ParameterError(f"point {label!r} is not on the transposed ladder")
    out = []
    for label, inst in points:
        try:
            report = braess_ratio(inst, label=label, phase_cap=phase_cap)
        except FotError as exc:
            out.append(SweepPoint(label, None, False, error=f"{type(exc).__name__}: {exc}"))
            continue
        broken = [e for e in report.entries if e.error is not None]
        if broken:
            out.append(SweepPoint(
                label, None, False,
                error=f"{len(broken)} subsets failed, first: {broken[0].error}"))
        else:
            out.append(SweepPoint(label, report.ratio, report.paradox))
    ratios = [p.ratio for p in out if p.ratio is not None]
    return SweepReport("transposed three-level ladder grid", tuple(out),
                       max(ratios, default=None), any(p.paradox for p in out))

