"""Queue and label mechanics for a given flow over time.

The deterministic queueing model: flow entering an edge faster than its
capacity waits in a point queue at the tail; total edge delay is queue wait
plus free-flow transit.  Given a flow (cumulative in/outflow per edge plus
cumulative sink arrivals), `_edge_curves` is the one derivation of an edge's
transit-shifted outflow, queue, wait and exit map.  On these rest the
earliest-arrival labels, the four feasibility conditions and both
equilibrium characterizations (flow only on currently shortest paths; no
particle overtakes another); an edge's curves are derived once per flow
and reused by every check, probe and report on it.  Every test that runs
over two curves piece by piece (curve identity, a queue draining at
capacity, flow only on shortest edges) walks them together with
`pwl.joint_segments`, never evaluating a curve point by point.

Checks skip only what the curves already settle.  An edge whose inflow
is its shifted outflow is queue-free: it gets the zero queue and wait and
the exit map entry + transit with no arithmetic, and `validate_feasible`
skips its link-conservation and queue-discipline tests, which that equality
already decides.  `certify_nash` skips the gap and inflow tests of an edge
whose head-arrival curve is its head's label, where the gap is zero; a
falling tail label still fails in `labels`, which composes it first.  Node
conservation is decided from the slope changes of a node's curves, which
all start at (0, 0); only a node that fails sums its curves, for the
witness.

Everything here is an independent check: it never trusts the phase engine
that produced a flow, only the curves themselves.  `validate_feasible` and
`certify_nash` share only the memoized derivation of edge curves from the
flow (`_edge_curves`, a pure function of an edge's inflow and outflow curves,
transit and capacity); everything else each derives from the flow given.
A passing `certify_nash` returns the labels it derived on its report, and
`nash_flow` takes its run's labels from there, so a run's labels are
derived once, by the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import (
    ContractError,
    DomainError,
    INF,
    Instance,
    InternalConsistencyError,
    MalformedFlowError,
    Scalar,
    _field,
    _pairs,
    _typed,
    as_fraction,
    format_scalar,
)
from .pwl import ONE, ZERO, PiecewiseLinear, joint_segments, minimum


@dataclass(frozen=True)
class FlowOverTime:
    """Cumulative edge inflows/outflows and cumulative sink arrivals."""

    inflow: Mapping[str, PiecewiseLinear]
    outflow: Mapping[str, PiecewiseLinear]
    sink_cumulative: PiecewiseLinear
    # `_edge_curves` results for this flow, by edge id; every new flow,
    # `replace`d ones included, starts empty.
    _edge_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def derive_sink_cumulative(inst: Instance,
                           inflow: Mapping[str, PiecewiseLinear],
                           outflow: Mapping[str, PiecewiseLinear]) -> PiecewiseLinear:
    """Sink arrivals implied by the edge curves: inflow to the sink node minus
    what leaves it again."""
    net = inst.network
    return (_total(outflow[e.id] for e in net.in_edges[net.sink])
            - _total(inflow[e.id] for e in net.out_edges[net.sink]))


def _total(curves) -> PiecewiseLinear:
    total = None
    for curve in curves:
        total = curve if total is None else total + curve
    return PiecewiseLinear.constant(ZERO) if total is None else total


# -- queueing primitives -----------------------------------------------------


class _EdgeCurves(NamedTuple):
    """An edge's queueing curves, as functions of queue-entry time."""
    shifted_out: PiecewiseLinear  # cumulative outflow one transit later
    queue: PiecewiseLinear  # cumulative inflow minus shifted_out
    wait: PiecewiseLinear  # queue over capacity
    exit_map: PiecewiseLinear  # entry + transit + wait


# The queue and the wait of a queue-free edge.
_NO_QUEUE = PiecewiseLinear.constant(ZERO)


def _edge_curves(inst: Instance, flow: FlowOverTime, edge_id: str) -> _EdgeCurves:
    """The edge's curves, derived once per flow, transit and capacity.  The
    memo entry, keyed by edge id, also holds the two curves, transit and
    capacity it was derived from, so a flow whose mapping was changed in
    place, or a check against another instance, derives again.  An edge
    whose inflow is its shifted outflow gets `_NO_QUEUE` as queue and wait
    and the exit map entry + transit."""
    transit, capacity = inst.transit[edge_id], inst.capacity[edge_id]
    inflow, outflow = flow.inflow[edge_id], flow.outflow[edge_id]
    known = flow._edge_memo.get(edge_id)
    if (known is not None and known[0] is inflow and known[1] is outflow
            and known[2] == transit and known[3] == capacity):
        return known[4]
    shifted_out = outflow.translate(transit)
    shift = PiecewiseLinear.affine(ONE, transit)  # entry + transit
    if inflow == shifted_out:
        curves = _EdgeCurves(shifted_out, _NO_QUEUE, _NO_QUEUE, shift)
    else:
        queue = inflow - shifted_out
        wait = queue.scale(ONE / capacity)
        curves = _EdgeCurves(shifted_out, queue, wait, wait + shift)
    flow._edge_memo[edge_id] = (inflow, outflow, transit, capacity, curves)
    return curves


def labels(inst: Instance, flow: FlowOverTime) -> tuple[dict, dict]:
    """Earliest-arrival label per node, as a function of network entry time,
    and the head-arrival curve of every edge whose tail is reachable.

    The source labels the entry time itself.  An edge's head-arrival curve
    is its tail label pushed through its exit map (entry + wait + transit),
    and every other reachable node takes the pointwise minimum of these over
    its incoming edges.  Unreachable nodes get the INF sentinel, and no
    curve of an edge with an unreachable tail is derived.  Restricted to
    acyclic networks (the recursion follows a topological order).
    """
    net = inst.network
    reachable = net.reachable_from(net.source)
    out: dict[str, PiecewiseLinear | object] = {}
    arrivals: dict[str, PiecewiseLinear] = {}
    for v in net.topological_order():
        if v not in reachable:
            out[v] = INF
            continue
        if v == net.source:
            out[v] = PiecewiseLinear.identity()
            continue
        candidates = []
        for e in net.in_edges[v]:
            tail_label = out[e.tail]
            if tail_label is INF:
                continue
            exit_map = _edge_curves(inst, flow, e.id).exit_map
            arrivals[e.id] = exit_map.compose(tail_label)
            candidates.append(arrivals[e.id])
        out[v] = minimum(*candidates)
    return out, arrivals


# -- feasibility -------------------------------------------------------------

CAPACITY = "Capacity(1)"
LINK_CONSERVATION = "LinkConservation(2)"
NODE_CONSERVATION = "NodeConservation(3)"
QUEUE_DISCIPLINE = "QueueDiscipline(4)"
SHORTEST_PATHS = "ShortestPaths"
NO_OVERTAKING = "NoOvertaking"


@dataclass(frozen=True)
class Violation:
    condition: str
    where: str
    at: Optional[Fraction]
    lhs: Scalar
    rhs: Scalar
    detail: str = ""

    def __str__(self) -> str:
        at = "-" if self.at is None else format_scalar(self.at)
        return (f"{self.condition} at {self.where}, time {at}: "
                f"{format_scalar(self.lhs)} vs {format_scalar(self.rhs)} {self.detail}")


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...] = ()
    # The labels that a passing `certify_nash` derived; None otherwise.
    labels: Optional[dict] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "no violations"
        return "\n".join(str(v) for v in self.violations)


def _first_difference(f: PiecewiseLinear, g: PiecewiseLinear) -> Optional[Fraction]:
    """A witness point where two curves differ (None if equal): the later
    start when they start apart, else the first joint breakpoint where
    their values differ, else a point on the final ray, where only their
    slopes differ."""
    if f == g:
        return None
    if f.xs[0] != g.xs[0]:
        return max(f.xs[0], g.xs[0])
    for a, _, fa, _, ga, _ in joint_segments(f, g):
        if fa != ga:
            return a
    return max(f.xs[-1], g.xs[-1]) + 1


def _balanced(plus: Sequence[PiecewiseLinear], minus: Sequence[PiecewiseLinear]) -> bool:
    """Whether the curves of `plus` sum to the curves of `minus`, all of
    them starting at (0, 0).  One curve on each side is compared as it
    stands.  Otherwise the sums are equal exactly when their slopes are on
    every piece, that is, when the slope changes of all the curves cancel
    at every breakpoint, those of `minus` counted negative (a curve's first
    slope is its change at 0).  Breakpoints are keyed by their integer
    ratio, which hashes faster than the rational itself."""
    if len(plus) == 1 and len(minus) == 1:
        return plus[0] == minus[0]
    change: dict[tuple[int, int], Fraction] = {}
    for curves, sign in ((plus, 1), (minus, -1)):
        for curve in curves:
            before = ZERO
            for x, slope in zip(curve.xs, curve.slopes()):
                key = x.as_integer_ratio()
                step = slope - before if sign > 0 else before - slope
                change[key] = change.get(key, ZERO) + step
                before = slope
    return not any(change.values())


def _check_structure(inst: Instance, flow: FlowOverTime) -> None:
    ids = set(inst.edge_ids)
    if set(flow.inflow) != ids or set(flow.outflow) != ids:
        raise MalformedFlowError("flow curves must cover exactly the edge set")
    for name, curves in (("inflow", flow.inflow), ("outflow", flow.outflow)):
        for eid, curve in curves.items():
            if curve.xs[0] != 0 or curve.ys[0] != 0:
                raise MalformedFlowError(f"{name} of {eid} must start at (0, 0)")
            if not curve.is_nondecreasing():
                raise MalformedFlowError(f"{name} of {eid} must be nondecreasing")
    gamma = flow.sink_cumulative
    if gamma.xs[0] != 0 or gamma.ys[0] != 0 or not gamma.is_nondecreasing():
        raise MalformedFlowError("sink arrivals must be nondecreasing from (0, 0)")


def validate_feasible(inst: Instance, flow: FlowOverTime,
                      sample_grid: Sequence[Fraction] = ()) -> ViolationReport:
    """Check the four feasibility conditions exactly.

    Within a segment of the piecewise-linear curves every condition is
    affine, so exact curve identities plus per-segment slope checks decide
    the universally quantified statements; the optional `sample_grid` adds
    redundant pointwise probes on top.  A probe whose exit time falls before
    time 0, which only a negative queue can cause, is skipped.
    """
    _check_structure(inst, flow)
    found: list[Violation] = []
    exit_maps: dict[str, PiecewiseLinear] = {}

    for eid in inst.edge_ids:
        cap = inst.capacity[eid]
        outflow = flow.outflow[eid]
        inflow = flow.inflow[eid]

        # (1) outflow rate never exceeds capacity; the pieces are walked
        # only when the largest rate does
        slopes = outflow.slopes()
        if max(slopes) > cap:
            for a, slope in zip(outflow.xs, slopes):
                if slope > cap:
                    found.append(Violation(CAPACITY, eid, a, slope, cap,
                                           "outflow rate above capacity"))

        shifted_out, _, wait, exit_map = _edge_curves(inst, flow, eid)
        exit_maps[eid] = exit_map
        if wait is _NO_QUEUE:
            # inflow is the shifted outflow, which is (2) for the exit map
            # entry + transit, and without a queue (4) cannot fail
            continue

        # (4a) waiting times are never negative
        neg_at = _first_below_zero(wait)
        if neg_at is not None:
            found.append(Violation(QUEUE_DISCIPLINE, eid, neg_at, wait(neg_at), ZERO,
                                   "negative queue"))
            continue  # the remaining conditions are meaningless here

        # queue-entry order must be preserved, otherwise the exit map is no
        # function of entry time and condition (2) cannot even be posed
        if not exit_map.is_nondecreasing():
            found.append(Violation(LINK_CONSERVATION, eid, exit_map.xs[0],
                                   ZERO, ZERO, "exit map decreases (overtaking inside queue)"))
            continue

        # (2) everything that entered by time x has left by exit_map(x)
        composed = outflow.compose(exit_map)
        witness = _first_difference(inflow, composed)
        if witness is not None:
            found.append(Violation(LINK_CONSERVATION, eid, witness,
                                   inflow(witness), composed(witness),
                                   "cumulative in/outflow mismatch"))

        # (4b) a nonempty queue drains at full capacity; the wait is never
        # negative here, so it is positive on a piece iff it starts or rises so
        for a, _, wait_a, wait_slope, _, rate in joint_segments(wait, shifted_out):
            if (wait_a > 0 or wait_slope > 0) and rate != cap:
                found.append(Violation(QUEUE_DISCIPLINE, eid, a, rate, cap,
                                       "queued edge not draining at capacity"))

    # (3) node conservation, with source and sink exceptions: decided from
    # the slopes at each node, and only a node that fails builds its sums
    # for the witness
    net = inst.network
    supplied = PiecewiseLinear.affine(inst.supply, ZERO)
    for v in net.nodes:
        into = [flow.outflow[e.id] for e in net.in_edges[v]]
        outof = [flow.inflow[e.id] for e in net.out_edges[v]]
        if v == net.source:
            into.append(supplied)
        if _balanced(outof + [flow.sink_cumulative] if v == net.sink else outof, into):
            continue
        expected = _total(into)
        if v == net.sink:
            expected = expected - flow.sink_cumulative
        outof = _total(outof)
        witness = _first_difference(outof, expected)
        if witness is not None:
            found.append(Violation(NODE_CONSERVATION, v, witness,
                                   outof(witness), expected(witness),
                                   "flow conservation broken"))

    for at in sample_grid:
        if at < 0:
            raise DomainError("waiting time is defined for nonnegative times only")
        for eid in inst.edge_ids:
            exit_at = exit_maps[eid](at)
            if exit_at < 0:
                continue  # a negative queue, reported above; no outflow yet
            if flow.inflow[eid](at) != flow.outflow[eid](exit_at):
                found.append(Violation(LINK_CONSERVATION, eid, at,
                                       flow.inflow[eid](at), flow.outflow[eid](exit_at),
                                       "pointwise probe failed"))

    return ViolationReport(tuple(found))


def _first_below_zero(curve: PiecewiseLinear) -> Optional[Fraction]:
    for x, y in zip(curve.xs, curve.ys):
        if y < 0:
            return x
    if curve.final_slope < 0:
        # crosses zero somewhere on the final ray
        x, y = curve.xs[-1], curve.ys[-1]
        return x - y / curve.final_slope + 1
    return None


# -- equilibrium characterizations -------------------------------------------


def certify_nash(inst: Instance, flow: FlowOverTime) -> tuple[bool, ViolationReport]:
    """Check both equilibrium characterizations and assert they agree.

    (a) Flow is sent only over currently shortest paths: whenever an edge is
        strictly slower than the best route to its head, its inflow at the
        tail-arrival time is zero.
    (b) No flow overtakes any other flow: cumulative sink arrivals evaluated
        at the sink label equal supply times entry time, identically.

    A passing flow's report carries the labels that `labels` derived for
    the check, in `ViolationReport.labels`.  The flow must be feasible.
    The two verdicts must coincide for feasible flows; a disagreement is an
    internal bug, not a property of the input.
    When the check fails on an infeasible flow, whether the verdicts
    disagree or a curve cannot be composed, a `ContractError` names the
    first violation `validate_feasible` finds; only this failure path runs
    it.
    """
    try:
        return _certify_nash(inst, flow)
    except (ContractError, InternalConsistencyError) as exc:
        report = validate_feasible(inst, flow)
        if report.ok:
            raise
        raise ContractError(
            f"certify_nash needs a feasible flow; first violation: {report.violations[0]}"
        ) from exc


def _certify_nash(inst: Instance, flow: FlowOverTime) -> tuple[bool, ViolationReport]:
    lab, arrivals = labels(inst, flow)
    net = inst.network
    found: list[Violation] = []

    for e in net.edges:
        tail_label = lab[e.tail]
        head_label = lab[e.head]
        if tail_label is INF:
            if flow.inflow[e.id] != PiecewiseLinear.constant(ZERO):
                found.append(Violation(SHORTEST_PATHS, e.id, None, ZERO, ZERO,
                                       "flow on an edge unreachable from the source"))
            continue
        if arrivals[e.id] == head_label:
            continue  # a gap of zero, as on the head's one candidate
        # The head label is the minimum over its in-edges, so the gap is never
        # negative: the edge is slower on a piece iff the gap starts or rises so.
        gap = arrivals[e.id] - head_label
        pushed = flow.inflow[e.id].compose(tail_label)
        for a, _, gap_a, gap_slope, _, rate in joint_segments(gap, pushed):
            if (gap_a > 0 or gap_slope > 0) and rate > 0:
                found.append(Violation(SHORTEST_PATHS, e.id, a, gap_a, ZERO,
                                       "inflow on a currently non-shortest edge"))
    sent_shortest = not found

    sink_label = lab[net.sink]
    overtake_free = False
    if sink_label is INF:
        found.append(Violation(NO_OVERTAKING, net.sink, None, ZERO, inst.supply,
                               "sink unreachable"))
    else:
        onboard = flow.sink_cumulative.compose(sink_label)
        target = PiecewiseLinear.affine(inst.supply, ZERO)
        witness = _first_difference(onboard, target)
        if witness is None:
            overtake_free = True
        else:
            found.append(Violation(NO_OVERTAKING, net.sink, witness,
                                   onboard(witness), target(witness),
                                   "sink arrivals out of step with entries"))

    if sent_shortest != overtake_free:
        raise InternalConsistencyError(
            "shortest-path and no-overtaking characterizations disagree: "
            f"{sent_shortest} vs {overtake_free}")
    return sent_shortest, ViolationReport(tuple(found), lab if sent_shortest else None)


# -- JSON / CSV interchange ---------------------------------------------------
#
# Flow JSON: {"inflow": {edge: [[start, rate], ...]}, "outflow": {...},
#             "sink": {"breakpoints": [[x, y], ...], "final_slope": "p/q"}}


def pwl_to_obj(curve: PiecewiseLinear) -> dict:
    return {
        "breakpoints": [[format_scalar(x), format_scalar(y)]
                        for x, y in zip(curve.xs, curve.ys)],
        "final_slope": format_scalar(curve.final_slope),
    }


def pwl_from_obj(obj: dict) -> PiecewiseLinear:
    points = [(as_fraction(x), as_fraction(y))
              for x, y in _pairs(_field(obj, "breakpoints"), "breakpoints")]
    return PiecewiseLinear.from_points(points, as_fraction(_field(obj, "final_slope")))


def _rates_to_obj(curve: PiecewiseLinear) -> list[list[str]]:
    return [[format_scalar(x), format_scalar(r)] for x, r in curve.rate_pairs()]


def _rates_from_obj(pairs, field: str) -> PiecewiseLinear:
    return PiecewiseLinear.from_rate_segments(
        [(as_fraction(x), as_fraction(r)) for x, r in _pairs(pairs, field)])


def _curves_from_obj(obj, field: str) -> dict[str, PiecewiseLinear]:
    return {key: _rates_from_obj(pairs, f"{field}.{key}")
            for key, pairs in _typed(obj, dict, field).items()}


def flow_to_obj(flow: FlowOverTime) -> dict:
    return {
        "inflow": {eid: _rates_to_obj(c) for eid, c in sorted(flow.inflow.items())},
        "outflow": {eid: _rates_to_obj(c) for eid, c in sorted(flow.outflow.items())},
        "sink": pwl_to_obj(flow.sink_cumulative),
    }


def flow_from_obj(obj: dict) -> FlowOverTime:
    """Read a flow file; keys other than the three curve fields are ignored."""
    return FlowOverTime(
        inflow=_curves_from_obj(_field(obj, "inflow"), "inflow"),
        outflow=_curves_from_obj(_field(obj, "outflow"), "outflow"),
        sink_cumulative=pwl_from_obj(_field(obj, "sink", dict)),
    )

