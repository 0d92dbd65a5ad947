"""Constructive equilibrium computation, phase by phase.

Within a phase the arrival labels are affine in the network entry time.
Their slopes, together with a static flow of value equal to the supply on the
currently competitive edges, solve a small derivative system: on an edge with
a queue the head label grows with the queue drain rate (flow rate over
capacity); on a queue-free edge it grows with the larger of the tail label
slope and the drain rate; labels always take the minimum over incoming
competitive edges, and only edges attaining it may carry flow.

Phases end when an idle edge becomes competitive or a queue empties.  Both
event times are exact roots of affine functions, so the whole run is exact.

The derivative system is solved by enumerating support and tightness
patterns in a fixed order; the first pattern whose solution verifies wins,
which makes the computed equilibrium canonical.  A support qualifies only if
every one of its edges lies on a source-sink path inside it, that is, if it
is its own s-t core (`fot.core.st_core`, the predicate the Braess search
uses too).  Each pattern is a linear system of sparse integer rows,
multiplied through by their denominators.  The patterns of a support share
their rows up to the first one they differ in, so the search walks them
depth first and extends one fraction-free Gauss-Jordan elimination by one
row per level; rationals appear only in the values it reads off.  A
subtree is cut as soon as its rows contradict each other or a value they
already determine breaks a local condition of the axioms.  Every solution
found is re-verified against the full axiom list by an independent
checker.

A queued edge whose head reaches the sink through competitive edges carries
flow in every solution, so every support holds it and only the other, free,
edges are enumerated; fixing those mask bits keeps the order of the
patterns left (`_walk` has the argument).
`MAX_ACTIVE_EDGES` bounds the free edges.

Labels come first where they can.  All label slopes are one exactly when
the supply fits into a flow that fills every queued edge and stays within
the capacity of every other competitive edge; one exact integer maximum
flow (`fot.core.first_feasible_support`) decides it.  In such a steady
phase the search starts at the first support mask that such a flow fits,
and skips every mask before it, which holds no solution.

Where the phase's structure proposes a flow, `thin_flow` certifies it and
skips the walk.  The proposal comes from the first of three sources that
has one: the supply on the core when the core is a forest (then one s-t
path), else the steady test's flow, else, when the core is two-terminal
series-parallel, the flow that a recursion over its decomposition tree
routes (after Kaiser, "Computation of dynamic equilibria in
series-parallel networks", Math. Oper. Res. 2022).  One label pass along
the network's topological order derives its labels l*.  One lemma
certifies it.  Labels are unique, so every verified solution has labels
l*, and they fix its rate on every competitive edge but the slack ones,
queue-free with equal labels at both ends.  The network must be acyclic (a
cycle raises `UnsupportedTopologyError`, as in `nash_flow`), so a verified
solution, an s-t flow of the supply, carries nothing off the competitive
s-t core.  When the proposal passes `verify_thin_flow` and the slack core
edges, taken undirected, form a forest, conservation fixes the rest: the
proposal is the only verified solution, hence the walk's first.  When
they close a cycle, the walk still runs, but with the labels pinned where
they are known: all one in a steady phase, and l* where a
series-parallel proposal verifies.  The label rows cut the walk and change
none of its solutions.  A later label source (minimum cuts) plugs in at the
same place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

from .core import (
    ContractError,
    Edge,
    INF,
    Instance,
    InternalConsistencyError,
    Network,
    NoPathError,
    PhaseCapError,
    Q,
    Scalar,
    SizeCapError,
    _q,
    as_fraction,
    first_feasible_support,
    format_scalar,
    st_core,
)
from .dynamics import FlowOverTime, certify_nash, derive_sink_cumulative, validate_feasible
from .pwl import ONE, ZERO, PiecewiseLinear, _curve
from .topology import sp_tree

# The most free edges (competitive edges not forced into every support) of
# one pattern search: it visits up to 2**16 supports.
MAX_ACTIVE_EDGES = 16
# The most phases a run may take before it is refused without a final phase.
PHASE_CAP = 200


# -- exact linear algebra ------------------------------------------------------


def _eliminate(row: dict[int, int], c: int, pivot: Mapping[int, int]) -> None:
    """Clear column c of `row` in place with the pivot row of column c:
    row <- (p*row - a*pivot) / g, with the common factor of p and a taken
    out first and the row's own gcd after."""
    p, a = pivot[c], row[c]
    g = gcd(p, a)
    mp, ma = p // g, a // g
    if mp != 1:
        for k in row:
            row[k] *= mp
    for k, v in pivot.items():
        w = row.get(k, 0) - ma * v
        if w:
            row[k] = w
        else:
            del row[k]
    if row:
        g = gcd(*row.values())
        if g > 1:
            for k in row:
                row[k] //= g


class Elimination:
    """The reduced rows of a consistent system in n unknowns, as
    fraction-free Gauss-Jordan elimination leaves them.

    `pivots` maps each pivot column to its row: column -> integer
    coefficient, with the right-hand side at key n.  No pivot column occurs
    in another pivot row.  So a column is determined (it has the same value
    in every solution) exactly when its pivot row holds no other unknown,
    and `value` reads that value off.  `determined` lists the columns that
    the rows added to the parent state determined.  A state is never
    modified: `extend` returns a child that shares the parent's unchanged
    rows.
    """

    __slots__ = ("n", "pivots", "determined")

    def __init__(self, n: int, pivots: Optional[dict[int, dict[int, int]]] = None,
                 determined: Sequence[int] = ()):
        self.n = n
        self.pivots = {} if pivots is None else pivots
        self.determined = determined

    def value(self, c: int) -> Q:
        row = self.pivots[c]
        p, q = row.get(self.n, 0), row[c]
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        return _q(p // g, q // g)

    def extend(self, coeffs: Mapping[int, int], rhs: int) -> Optional[Elimination]:
        """The state with one more row, or None when the row contradicts
        the ones before it.  Only the new row is reduced and only the pivot
        rows holding its new pivot column are copied."""
        n, pivots = self.n, self.pivots
        row = {c: a for c, a in coeffs.items() if a}
        if rhs:
            row[n] = rhs
        for c in [c for c in row if c in pivots]:
            _eliminate(row, c, pivots[c])
        if not row:
            return Elimination(n, pivots)
        if len(row) == 1 and n in row:
            return None
        # The new pivot is the row's column held by the fewest pivot rows
        # (the lowest on ties), which keeps the rows to clear and their
        # fill-in down.
        holders = {k: [pc for pc, prow in pivots.items() if k in prow]
                   for k in row if k != n}
        c = min(holders, key=lambda k: (len(holders[k]), k))
        child = dict(pivots)
        determined = []
        for pc in holders[c]:
            prow = child[pc] = dict(pivots[pc])
            _eliminate(prow, c, row)
            if len(prow) - (n in prow) == 1:
                determined.append(pc)
        child[c] = row
        if len(row) - (n in row) == 1:
            determined.append(c)
        return Elimination(n, child, determined)


def solve_exact(rows: list[tuple[Mapping[int, int], int]], n: int,
                prefix: Elimination) -> tuple[str, Optional[Elimination]]:
    """Fraction-free Gauss-Jordan elimination on sparse integer rows, from
    `prefix`, the state that earlier rows left (`Elimination(n)` for none).

    Each row is ``(coeffs, rhs)``: ``coeffs`` maps a column in ``range(n)``
    to an integer coefficient (absent columns are zero) and ``rhs`` is an
    integer; a rational system enters multiplied through by its
    denominators.  The rows enter one at a time (`Elimination.extend`): a
    row is reduced by the pivot rows before it, takes one of its columns
    left as its pivot and clears that column from the pivot rows holding
    it.  Rows combine by cross-multiplication and are divided by the gcd of
    their entries, so no rational arises until the single division per
    unknown that `Elimination.value` makes.

    Returns ("inconsistent", None) when rank [A|b] > rank A for the earlier
    rows and these together, otherwise ("unique", state) when rank A = n
    and ("underdetermined", state) when it is less.  The state is the
    extended `Elimination`, whose `determined` lists the columns these rows
    determined.  The input rows are not modified.  The pattern search
    extends its states this way.
    """
    state = prefix
    determined = []
    for coeffs, rhs in rows:
        state = state.extend(coeffs, rhs)
        if state is None:
            return "inconsistent", None
        determined += state.determined
    status = "unique" if len(state.pivots) == n else "underdetermined"
    return status, Elimination(n, state.pivots, determined)


# -- per-phase derivative system ----------------------------------------------


@dataclass(frozen=True)
class ThinFlow:
    """Label slopes per reachable node and flow rates per competitive edge."""

    label_slopes: Mapping[str, Fraction]
    edge_rates: Mapping[str, Fraction]


def _drain_ratio(rate: Fraction, cap: Fraction, tail_slope: Fraction,
                 resetting: bool) -> Fraction:
    if resetting:
        return rate / cap
    return max(tail_slope, rate / cap)


def verify_thin_flow(net: Network, active: frozenset[str], resetting: frozenset[str],
                     capacity: Mapping[str, Fraction], supply: Fraction,
                     label_slopes: Mapping[str, Fraction],
                     edge_rates: Mapping[str, Fraction]) -> Optional[str]:
    """Standalone axiom checker; returns a reason string if invalid."""
    by_id = net.edge_by_id
    # The checks walk `label_slopes` in its own order, so the node a reason
    # names does not depend on the hash seed.
    nodes = label_slopes
    if net.source not in nodes or label_slopes[net.source] != 1:
        return "source label slope must be one"
    for v, slope in label_slopes.items():
        if slope < 0:
            return f"negative label slope at {v}"
    for eid in active:
        if edge_rates.get(eid, ZERO) < 0:
            return f"negative rate on {eid}"
    balance = {v: ZERO for v in nodes}
    for eid in active:
        e = by_id[eid]
        rate = edge_rates.get(eid, ZERO)
        balance[e.tail] -= rate
        balance[e.head] += rate
    for v in nodes:
        expected = ZERO
        if v == net.source:
            expected = -supply
        elif v == net.sink:
            expected = supply
        if balance[v] != expected:
            return f"conservation fails at {v}"
    incoming: dict[str, list[Fraction]] = {v: [] for v in nodes}
    for eid in active:
        e = by_id[eid]
        rate = edge_rates.get(eid, ZERO)
        ratio = _drain_ratio(rate, capacity[eid], label_slopes[e.tail],
                             eid in resetting)
        incoming[e.head].append(ratio)
        if label_slopes[e.head] > ratio:
            return f"head label of {eid} grows past its drain ratio"
        if rate > 0 and label_slopes[e.head] != ratio:
            return f"{eid} carries flow without attaining the head minimum"
    for v in nodes:
        if v == net.source:
            continue
        if not incoming[v]:
            return f"{v} has no competitive in-edge"
        if label_slopes[v] != min(incoming[v]):
            return f"label slope at {v} is not the incoming minimum"
    return None


def thin_flow(net: Network, active: frozenset[str], resetting: frozenset[str],
              capacity: Mapping[str, Fraction], supply: Fraction) -> ThinFlow:
    """Solve the per-phase derivative system on the competitive edge set: the
    first verified solution of the pattern walk `_walk`, so the flow split
    is a function of the pattern order alone.  This is the engine's one
    entry to the solve.

    Where the phase's structure proposes a flow, the proposal is certified
    and returned without the walk; being the only verified solution, it is
    the walk's first.  Every competitive capacity must be positive (a
    `ContractError` otherwise), and the first source that has a proposal
    makes it:

    - the path: when the competitive s-t core (`st_core(net, active)`) is
      a forest it is one s-t path, since every core edge lies on an s-t
      path inside it and two distinct s-t paths close an undirected cycle;
      the proposal is `supply` on that path and 0 elsewhere;
    - the steady test: the flow it finds in P(1), if any;
    - the series-parallel recursion: when the core is two-terminal
      series-parallel (`fot.topology.sp_tree`), `_exit_maps` gives each
      component of its tree its exit slope as a function of its inflow, a
      `PiecewiseLinear` curve, and `_sp_split` routes `supply` through the
      tree with them and their `_inverse`s.

    `_label_pass` derives the labels l* of any proposal.

    The certificate is one lemma.  Let (l*, x) pass `verify_thin_flow`.
    Labels are unique (Cominetti, Correa & Larré 2015), so every verified
    solution has labels l*, and its rates on a competitive edge e = (v, w)
    follow from them: x_e = capacity * l*_w when e is queued or when
    l*_w > l*_v, and x_e = 0 when e is queue-free and l*_w < l*_v.  Only
    the slack edges, queue-free with l*_v = l*_w, are free.  The network is
    acyclic (`_competitive` refuses a cycle) and a verified solution is an
    s-t flow of value `supply`, so it is the sum of s-t paths and carries
    nothing off the core.  So when the slack core edges, taken undirected,
    form a forest (`_forest`), conservation fixes their rates too, and x is
    the one verified solution, whatever proposed it.  A proposal whose
    slack core edges form a forest is therefore returned once
    `verify_thin_flow` accepts it.  A path flow with its own labels, or a
    flow in P(1) with all labels one, always passes, so a path or steady
    proposal that it refuses raises `InternalConsistencyError`.  A refused
    series-parallel proposal falls through to the walk: a fault in the
    recursion can cost time but cannot change the result.

    When the slack core edges close a cycle, the walk runs from the steady
    test's first mask, with the labels pinned where they are known
    (`_walk`'s label rows): to one when the steady test found a flow
    in P(1), and to l* when a series-parallel proposal passes
    `verify_thin_flow`.  A refused proposal pins nothing.  A walk that the
    steady test pinned to one and that ends without a solution shows a
    wrong verdict, and raises `InternalConsistencyError` naming the steady
    test.
    """
    edges, nodes, core, free, order = _competitive(net, active, resetting)
    if any(capacity[e.id] <= 0 for e in edges):
        raise ContractError("competitive capacities must be positive")
    steady = tree = pinned = None
    if _forest(e for e in edges if e.id in core):
        rates = {e.id: as_fraction(supply) if e.id in core else ZERO for e in edges}
    else:
        steady = first_feasible_support(net, active, resetting, capacity, supply, free)
        rates = None
        if steady is not None:
            rates = steady[1]
            pinned = dict.fromkeys(nodes, ONE)
        else:
            tree = sp_tree((e for e in edges if e.id in core), net.source, net.sink)
            if tree is not None:
                rates = dict.fromkeys((e.id for e in edges), ZERO)
                _sp_split(_exit_maps(tree, capacity, resetting), ONE, as_fraction(supply), rates)
    if rates is not None:
        slopes = _label_pass(net, nodes, order, resetting, capacity, rates)
        if _forest(e for e in edges if e.id in core and e.id not in resetting
                   and slopes[e.tail] == slopes[e.head]):
            reason = verify_thin_flow(net, active, resetting, capacity, supply, slopes, rates)
            if reason is None:
                return ThinFlow(slopes, rates)
            if tree is None:
                raise InternalConsistencyError(
                    f"the thin flow that the phase's structure decides fails: {reason}")
        elif tree is not None and verify_thin_flow(net, active, resetting, capacity, supply,
                                                   slopes, rates) is None:
            pinned = slopes
    for tf in _walk(net, active, resetting, capacity, supply, edges, nodes, free,
                    None if steady is None else steady[0], pinned):
        return tf
    if steady is not None:
        raise InternalConsistencyError(
            "the steady test found a flow in P(1), but no verified thin flow has "
            "every label slope one")
    raise InternalConsistencyError(
        "no valid derivative pattern found (this should be impossible for a "
        "feasible competitive edge set)")


def _competitive(net: Network, active: frozenset[str], resetting: frozenset[str]
                 ) -> tuple[list[Edge], list[str], frozenset[str], list[str], tuple[str, ...]]:
    """The competitive edges in edge order, the nodes they reach in node
    order, their s-t core, the free edges and the network's topological
    order, after the input checks; `UnsupportedTopologyError` on a cycle."""
    if not resetting <= active:
        raise ContractError("resetting edges must be competitive")
    edges = [e for e in net.edges if e.id in active]

    # Reachability inside the competitive subgraph defines the node set.
    reach = net.reachable_from(net.source, active)
    for e in edges:
        if e.tail not in reach:
            raise ContractError(f"competitive edge {e.id} is unreachable from the source")
    if net.sink not in reach:
        raise NoPathError("sink not reachable through competitive edges")

    to_sink = net.reaching_to(net.sink, active)
    free = [e.id for e in edges if e.id not in resetting or e.head not in to_sink]
    if len(free) > MAX_ACTIVE_EDGES:
        raise SizeCapError(
            f"more than {MAX_ACTIVE_EDGES} free edges in a thin-flow pattern search")
    order = net.topological_order()
    # Every tail is reachable, so the core is the edges whose head reaches t.
    core = frozenset(e.id for e in edges if e.head in to_sink)
    return edges, [v for v in net.nodes if v in reach], core, free, order


def _label_pass(net: Network, nodes: list[str], order: Sequence[str],
                resetting: frozenset[str], capacity: Mapping[str, Fraction],
                rates: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """The label slopes that the competitive edge rates `rates` leave, by
    one pass along the topological `order`: l'_s = 1, and l'_w is the
    minimum of rho_e(l'_v, x_e) over the competitive in-edges e = (v, w) of
    w (see `_walk` for rho).  Keyed in the order of
    `nodes`."""
    slopes = {net.source: ONE}
    for w in order:
        ratios = [_drain_ratio(rates[e.id], capacity[e.id], slopes[e.tail], e.id in resetting)
                  for e in net.in_edges[w] if e.id in rates]
        if ratios:
            slopes[w] = min(ratios)
    return {v: slopes[v] for v in nodes}


def _forest(edges) -> bool:
    """Whether the edges, taken undirected, hold no cycle (a pair of
    parallel edges is one)."""
    parent: dict[str, str] = {}

    def root(v: str) -> str:
        while v in parent:
            v = parent[v]
        return v

    for e in edges:
        a, b = root(e.tail), root(e.head)
        if a == b:
            return False
        parent[a] = b
    return True


# -- series-parallel proposals ----------------------------------------------------
#
# An exit map is a `PiecewiseLinear` f on r >= 0: a component entered at slope
# 1 with inflow r exits at f(r); entered at slope l with inflow x, at l * f(x / l).


def _inverse(f: PiecewiseLinear, y: Fraction, side) -> Fraction:
    """An inverse of the nondecreasing exit map f at y: with `side` =
    `bisect_left` the least inflow at which f reaches y (0 when f(0) >= y),
    with `bisect_right` the largest at which f stays at most y (0 when
    f(0) > y)."""
    k = side(f.ys, y) - 1
    if k < 0:
        return ZERO
    return f.xs[k] + (y - f.ys[k]) / f.slopes()[k]


def _series(f1: PiecewiseLinear, f2: PiecewiseLinear) -> PiecewiseLinear:
    """The exit map of f1 followed by f2: f(r) = f1(r) * f2(r / f1(r)).
    q(r) = r / f1(r) is nondecreasing, so f breaks at f1's breakpoints and
    where q meets a breakpoint of f2; on a piece f1(r) = a r + b where f2(q)
    = c q + d, f(r) = c r + d (a r + b) is linear."""
    rs1, ys1, ss1 = f1.xs, f1.ys, f1.slopes()
    rs2, ys2, ss2 = f2.xs, f2.ys, f2.slopes()
    # q at f1's breakpoints (its limit where f1(0) = 0), then q's limit.
    qs = [r / y if y else 1 / s for r, y, s in zip(rs1, ys1, ss1)]
    qs.append(1 / ss1[-1])
    cuts = []
    for q in rs2[1:]:
        k = bisect_right(qs, q) - 1
        if 0 <= k < len(rs1) and qs[k] < q:
            a = ss1[k]
            cuts.append(q * (ys1[k] - rs1[k] * a) / (1 - q * a))
    points = []
    for r in sorted((*rs1, *cuts)):
        y = f1(r)
        points.append((r, y * f2(r / y) if y else ZERO))
    j = bisect_left(rs2, qs[-1]) - 1
    return PiecewiseLinear.from_points(points, ss2[j] + (ys2[j] - rs2[j] * ss2[j]) * ss1[-1])


def _parallel(fs: list[PiecewiseLinear]) -> PiecewiseLinear:
    """The exit map of components side by side: at exit slope y each takes
    an inflow between its two `_inverse`s at y, so f is the inverse of
    their sums, which break where a part's map does."""
    points = []
    for y in sorted({y for f in fs for y in f.ys}):
        lo = sum((_inverse(f, y, bisect_left) for f in fs), ZERO)
        hi = sum((_inverse(f, y, bisect_right) for f in fs), ZERO)
        points.append((lo, y))
        if hi > lo:
            points.append((hi, y))
    return PiecewiseLinear.from_points(points, 1 / sum((1 / f.final_slope for f in fs), ZERO))


def _exit_maps(tree, capacity: Mapping[str, Fraction], resetting: frozenset[str]):
    """(exit map, tree, the parts' own) for a `fot.topology.sp_tree`, each
    map a `PiecewiseLinear` curve: an edge exits at x / capacity with a
    queue and at max(1, x / capacity) without one.  A leaf's map is built
    as the canonical curve it is (one piece, or flat at 1 up to the
    capacity and then of slope 1 / capacity)."""
    if type(tree) is not tuple:
        cap = as_fraction(capacity[tree.id])
        if tree.id in resetting:
            return PiecewiseLinear.affine(1 / cap, ZERO), tree, ()
        return _curve((ZERO, cap), (ONE, ONE), (ZERO, 1 / cap)), tree, ()
    kind, parts = tree
    parts = [_exit_maps(part, capacity, resetting) for part in parts]
    if kind == "parallel":
        return _parallel([f for f, _, _ in parts]), tree, parts
    f = parts[0][0]
    for g, _, _ in parts[1:]:
        f = _series(f, g)
    return f, tree, parts


def _sp_split(node, slope: Fraction, inflow: Fraction, rates: dict) -> None:
    """Route `inflow` through the component `node` of `_exit_maps`, entered
    at label slope `slope`, into `rates`: a series passes it on at each
    part's exit slope, and a parallel gives each part its lower inverse at
    the common exit slope plus, in order, what the rest needs up to its
    upper inverse."""
    f, tree, parts = node
    if not inflow:
        return
    if not parts:
        rates[tree.id] = inflow
    elif tree[0] == "series":
        for part in parts:
            _sp_split(part, slope, inflow, rates)
            slope *= part[0](inflow / slope)
    else:
        r = inflow / slope
        y = f(r)
        lows = [_inverse(part[0], y, bisect_left) for part in parts]
        spare = r - sum(lows, ZERO)
        for part, low in zip(parts, lows):
            more = min(spare, _inverse(part[0], y, bisect_right) - low)
            spare -= more
            _sp_split(part, slope, (low + more) * slope, rates)


def _walk(net: Network, active: frozenset[str], resetting: frozenset[str],
          capacity: Mapping[str, Fraction], supply: Fraction, edges: list[Edge],
          nodes: list[str], free: list[str], marks: Optional[tuple[bool, ...]],
          pinned: Optional[Mapping[str, Fraction]]):
    """Yield every verified pattern solution of a phase system in
    deterministic order, from the first mask that `marks`, the steady
    test's verdict (`first_feasible_support`), allows.  `edges`, `nodes` and
    `free` come from `_competitive`, which checks the input and refuses a
    cyclic network.  `pinned`, when given, holds the phase's labels l*;
    the walk then adds their rows to the base rows, which yields the same
    list sooner (see "Label rows" below).
    `thin_flow` takes the first solution, and the tests exhaust the walk as
    an oracle.

    Patterns (which edges carry flow, a support that is its own `st_core`;
    for each flow edge whether the capacity term or the tail slope pins the
    head; for each flow-free node which in-edge attains its minimum) are
    enumerated in a fixed order and each one is solved exactly; a solution
    is yielded when `verify_thin_flow` accepts it.  Supports come in
    lexicographic order of their edge masks, so the first one is the
    lexicographically smallest valid support.  Patterns whose linear system
    is degenerate are skipped: their solution sets are faces whose corners
    other patterns pin down.

    Different patterns may realize different flow splits, but their label
    slopes all agree (labels are the unique observable); the test suite
    asserts that agreement by exhausting this generator on small systems.

    Every support holds the forced edges: the resetting edges whose head
    reaches the sink through competitive edges.  Only the other, free,
    edges are enumerated, and `MAX_ACTIVE_EDGES` bounds them.  Skipping the
    supports that leave out a forced edge skips no verified solution.  Write
    rho_e(l_v, x) for the drain ratio of edge e = (v, w): x / capacity when
    e is resetting, the larger of l_v and x / capacity otherwise.  Suppose a
    verified solution has x_e = 0 on a forced edge e = (v, w).  Then
    l'_w <= rho_e(l'_v, 0) = 0.  A node u other than s with l'_u = 0 has
    no inflow, because a flow edge into u attains u's minimum with a ratio
    of at least x / capacity > 0; by conservation it has no outflow either,
    so every competitive out-edge (u, y) gives l'_y <= rho(l'_u, 0) = 0.
    Following w's competitive path to the sink gives l'_t = 0, but the sink
    receives supply > 0 over flow edges, each with a positive ratio (and a
    path through s would give l'_s = 0, not 1).  Fixing the forced bits of a
    mask keeps the lexicographic order of the rest, so the sequence is
    exactly that of the search over all competitive edges.

    The patterns of one support are the product of its rows' options: the
    base rows (source slope, conservation, a zero rate on each edge off the
    support), then one branch row per support
    edge, then one argmin row per flow-free node.  A row with a single
    option takes no part in the order, so it joins the base rows.  The
    search walks the product depth first, in the same order, with one
    recursive generator: each level extends its parent's elimination state
    by one option (`solve_exact`), the base rows at once and then one row
    per level, so each prefix is eliminated once and not once per pattern
    below it.  It cuts a subtree when the new rows make the prefix
    inconsistent, or when a variable they determine fails one of
    `verify_thin_flow`'s local conditions: a negative slope or rate,
    l'_w > rho_e(l'_v, x_e) on a competitive edge, or a flow edge that
    does not attain its head's minimum.  Whether a node's slope is the
    minimum of its in-edge ratios is left to `verify_thin_flow`, which
    checks it on every solution: as a cut it never fired on the benchmark
    inputs or the test suite.  Cutting is exact.  Rows are only ever
    added, so a determined value is the same in every completion of the
    prefix, and an inconsistent prefix stays inconsistent.  Every pattern
    below a cut therefore has no solution, or no unique one, or a unique
    one that fails `verify_thin_flow`: the patterns cut are ones the
    whole-pattern search rejects, and the ones left come in the same
    order.  Each solution found is still checked by `verify_thin_flow`
    before it is yielded.

    Labels first.  Write P(1) for the flows x of value `supply` on the
    competitive edges with x_e = capacity on each queued edge and 0 <= x_e
    <= capacity on the others.  Any x in P(1) with l' = 1 everywhere meets
    every condition `verify_thin_flow` checks: every drain ratio is 1 (a
    queued edge is full, the others are at most full), each reachable node
    other than s has a competitive in-edge, and conservation holds.
    Conversely, labels are unique (Cominetti, Correa & Larré 2015), so when
    P(1) is nonempty every verified solution has l' = 1, hence lies in
    P(1), and is zero on the free edges its mask leaves out.  Whether P(1)
    holds a flow that is zero on the free edges outside a mask M is
    up-closed in M, and `fot.core.first_feasible_support` returns the
    lexicographically first mask M0 for which it does.  No mask before M0
    holds a verified solution, so the walk starts at M0 and yields exactly
    the list that the walk from mask 0 yields.  When P(1) is empty the walk
    starts at mask 0.

    Label rows.  Given labels l* that every verified solution has (labels
    are unique, so any verified solution's labels will do, and in a steady
    phase l* = 1), the base rows also take the rows l_v = l*_v for every
    node v other than s, ahead of the others.  They determine values early,
    so the walk cuts dead prefixes sooner, and it yields the same list in
    the same order.  Two facts make this exact.  A verified solution
    satisfies the label rows, so a prefix that they make inconsistent, or
    whose values they determine so that a local condition fails, has no
    verified completion.  And they add no rank to a whole pattern: its own
    rows already determine its labels, so a pattern is unique with the
    label rows exactly when it is unique without them, and no pattern that
    the walk without them skips as underdetermined gets through.  So the
    walk needs no test at its leaves beyond the full rank it already
    checks.  Proof of the second fact: take (dl, dx) in the null space of
    a pattern's own rows.  Then dl_s = 0; dx is a circulation (the
    conservation rows); dx_e = 0 off the support; a support edge
    e = (v, w) gives dx_e = capacity * dl_w on its capacity row and
    dl_w = dl_v on its idle row (only queue-free support edges have one);
    and a flow-free node w has dl_w = dl_v for an in-edge (v, w), or
    dl_w = 0 when that edge has a queue.  Let Z be the nodes with dl > 0,
    and z the first of them in topological order.  z is not s, and it is
    not flow-free (that would tie dl_z to an earlier node or to 0), so it
    has support in-edges.  A support edge on its idle row has both ends in
    Z or neither.  So every support edge that enters Z, and z has one, is
    on its capacity row and carries dx > 0 into Z, and every support edge
    that leaves Z is on its capacity row and carries dx <= 0.  More of dx
    then enters Z than leaves it, which no circulation does: Z is empty,
    and by the same argument no node has dl < 0.  The proof needs
    positive capacities, which `thin_flow` requires.  Given wrong labels,
    the walk yields nothing, since every solution it yields is still
    verified; `thin_flow` turns that into an error.

    Rows are sparse integer rows (column -> coefficient, rhs).  The columns
    are fixed for the whole call: the node labels, then the rate of every
    competitive edge in edge order.  A support leaves edge e out by adding
    the row x_e = 0 to its base rows, so the tables of rows, columns and
    conditions are built once, not once per support.  This is exact too.
    Substituting x_e = 0 gives the system that has a column for the support
    rates alone, so the status of each pattern (unique, inconsistent or
    underdetermined) is the same.  Whether a column is determined depends
    only on the set of rows, so the same subtrees are cut and the survivors
    come in the same order.
    """
    forced = frozenset(e.id for e in edges).difference(free)

    # Columns: node i is column i, the rate of edge i is column x0 + i.  Per
    # edge: its tail column (None when it has a queue, as its ratio then
    # ignores the tail), head column and capacity.
    index = {v: i for i, v in enumerate(nodes)}
    x0 = len(nodes)
    n = x0 + len(edges)
    tail_col = [None if e.id in resetting else index[e.tail] for e in edges]
    head_col = [index[e.head] for e in edges]
    caps = [capacity[e.id] for e in edges]
    source_col = index[net.source]
    in_terms = [[i for i, e in enumerate(edges) if e.head == v] for v in nodes]

    # Label slope one at the source.  Conservation: inflow minus outflow is
    # -supply at the source (scaled by the supply's denominator) and zero at
    # every other non-sink node.
    fixed_rows = [({source_col: 1}, 1)]
    for v in nodes:
        if v != net.sink:
            scale = supply.denominator if v == net.source else 1
            fixed_rows.append((
                {x0 + i: scale if e.head == v else -scale
                 for i, e in enumerate(edges) if v in (e.tail, e.head)},
                -supply.numerator if v == net.source else 0))
    # The idle row of edge e = (v, w) says l_w = rho_e(l_v, 0): l_w = l_v, or
    # l_w = 0 when e has a queue.  A flow edge takes the capacity row
    # p*l_w - q*x_e = 0 for capacity p/q or, without a queue, its idle row;
    # an edge off the support takes x_e = 0; a flow-free node takes the idle
    # row of the in-edge attaining its minimum.
    idle_rows = [({w: 1} if v is None else {w: 1, v: -1}, 0)
                 for v, w in zip(tail_col, head_col)]
    edge_options = [[({w: c.numerator, x0 + i: -c.denominator}, 0)]
                    + ([] if v is None else [idle_rows[i]])
                    for i, (v, w, c) in enumerate(zip(tail_col, head_col, caps))]
    zero_rows = [({x0 + i: 1}, 0) for i in range(len(edges))]
    argmin_options = [[idle_rows[i] for i in terms] for terms in in_terms]
    # The edges whose local condition reads each column.
    watch = [[i for i in range(len(edges)) if c in (tail_col[i], head_col[i], x0 + i)]
             for c in range(n)]

    # value[c] is the value of column c once the prefix determines it;
    # `ratio` divides an edge's rate by its capacity on each call.
    value: list[Optional[Fraction]] = [None] * n

    def ratio(i: int) -> Optional[Fraction]:
        # rho_e(l'_v, x_e), or None while a value it needs is unknown.
        rate = value[x0 + i]
        if rate is None:
            return None
        rate /= caps[i]
        if tail_col[i] is None:
            return rate
        tail = value[tail_col[i]]
        if tail is None:
            return None
        return max(tail, rate)

    def violates(state: Elimination) -> bool:
        # Records the values of the columns that the rows which made the
        # state determined, and reports whether a local condition they
        # complete fails.
        touched = set()
        for c in state.determined:
            v = value[c] = state.value(c)
            if v.numerator < 0:
                return True
            touched.update(watch[c])
        for i in touched:
            # l'_w <= rho_e(l'_v, x_e), with equality when x_e > 0.
            head = value[head_col[i]]
            rho = None if head is None else ratio(i)
            if rho is not None and (head > rho or head != rho and value[x0 + i].numerator > 0):
                return True
        return False

    def forget(state: Elimination) -> None:
        for c in state.determined:
            value[c] = None

    # The label rows l_v = l*_v (v != s) of the pinned labels l*.
    label_rows = [] if pinned is None else [
        ({index[v]: pinned[v].denominator}, pinned[v].numerator) for v in nodes if v != net.source]

    def walk(state: Elimination, levels: list, d: int):
        # Depth first below `state`, the elimination of the first d levels:
        # each option of level d extends it, and the last level verifies.
        for rows in levels[d]:
            _, child = solve_exact(rows, n, state)
            if child is None:
                continue
            if not (child.determined and violates(child)):
                if d + 1 < len(levels):
                    yield from walk(child, levels, d + 1)
                elif len(child.pivots) == n:
                    label_slopes = dict(zip(nodes, value))
                    edge_rates = {e.id: value[x0 + i] for i, e in enumerate(edges)}
                    if verify_thin_flow(net, active, resetting, capacity, supply,
                                        label_slopes, edge_rates) is None:
                        yield ThinFlow(label_slopes, edge_rates)
            forget(child)

    # Labels first: when the steady test finds a flow in P(1), every mask
    # before the first feasible one is skipped.
    bits = [1 << j for j in reversed(range(len(free)))]
    start = 0 if marks is None else sum(b for b, m in zip(bits, marks) if m)
    for mask in range(start, 1 << len(free)):
        chosen = forced.union(eid for eid, b in zip(free, bits) if mask & b)
        if st_core(net, chosen) != chosen:
            continue
        kept = [e.id in chosen for e in edges]

        # The options of each pattern row: per support edge its capacity row
        # and, without a queue, its idle row; per flow-free node the idle row
        # of each in-edge.  A row with one option does not branch, so it
        # joins the base rows, and level 0 adds them all at once; each later
        # level adds one row.
        options = [rows for rows, k in zip(edge_options, kept) if k]
        options.extend(argmin_options[w] for w, terms in enumerate(in_terms)
                       if w != source_col and not any(kept[i] for i in terms))
        base = label_rows + [row for row, k in zip(zero_rows, kept) if not k]
        base += fixed_rows
        base.extend(rows[0] for rows in options if len(rows) == 1)
        levels = [[base]] + [[[row] for row in rows] for rows in options if len(rows) > 1]

        yield from walk(Elimination(n), levels, 0)


# -- phase engine ---------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    start: Fraction
    end: Scalar  # Fraction, or INF for the final phase
    active: tuple[str, ...]
    resetting: tuple[str, ...]
    label_slopes: Mapping[str, Fraction]
    edge_rates: Mapping[str, Fraction]


@dataclass(frozen=True)
class Event:
    """A phase boundary: which edges became competitive and which queues
    emptied, with the wall-clock tail arrival time of each activated edge."""

    time: Fraction
    activations: tuple[str, ...]
    depletions: tuple[str, ...]
    tail_arrival: Mapping[str, Fraction]


@dataclass(frozen=True)
class EquilibriumRun:
    instance: Instance
    phases: tuple[Phase, ...]
    events: tuple[Event, ...]
    labels: Mapping[str, object]  # PiecewiseLinear, or INF for unreachable nodes
    flow: FlowOverTime
    social_cost: Scalar
    steady: bool
    diverging: bool


def _tight_sets(inst: Instance, arrival: Mapping[str, Fraction],
                queue: Mapping[str, Fraction]) -> tuple[frozenset[str], frozenset[str]]:
    """Competitive edges (tail arrival + wait + transit equals head arrival)
    and the subset with a positive queue."""
    active = set()
    resetting = set()
    for e in inst.network.edges:
        if e.tail not in arrival:
            continue
        wait = queue[e.id] / inst.capacity[e.id]
        if arrival[e.tail] + wait + inst.transit[e.id] == arrival[e.head]:
            active.add(e.id)
            if queue[e.id] > 0:
                resetting.add(e.id)
    return frozenset(active), frozenset(resetting)


def next_event(inst: Instance, arrival: Mapping[str, Fraction],
               queue: Mapping[str, Fraction], tf: ThinFlow,
               active: frozenset[str]) -> tuple[Scalar, tuple[str, ...], tuple[str, ...]]:
    """Earliest phase-ending event from the given state under the given
    derivatives: queue depletions and activations of idle edges.  Returns
    (delta, activations, depletions); delta is INF when the phase is final.
    """
    slopes = tf.label_slopes
    best: Scalar = INF
    activations: list[str] = []
    depletions: list[str] = []
    for e in inst.network.edges:
        if e.tail not in arrival:
            continue
        rate = tf.edge_rates.get(e.id, ZERO)
        tail_slope = slopes[e.tail]
        if queue[e.id] > 0:
            drain = rate - inst.capacity[e.id] * tail_slope
            if drain < 0:
                delta = -queue[e.id] / drain
                if delta < best:
                    best, activations, depletions = delta, [], [e.id]
                elif delta == best:
                    depletions.append(e.id)
        if e.id not in active:
            wait = queue[e.id] / inst.capacity[e.id]
            gap = arrival[e.tail] + wait + inst.transit[e.id] - arrival[e.head]
            entry_slope = ZERO if queue[e.id] > 0 else tail_slope
            closing = slopes[e.head] - entry_slope
            if closing > 0:
                delta = gap / closing
                if delta < best:
                    best, activations, depletions = delta, [e.id], []
                elif delta == best:
                    activations.append(e.id)
    return best, tuple(activations), tuple(depletions)


def nash_flow(inst: Instance, phase_cap: int = PHASE_CAP,
              thin_flows: Optional[dict[tuple[frozenset[str], frozenset[str]],
                                        ThinFlow]] = None) -> EquilibriumRun:
    """Compute the equilibrium of an acyclic instance with constant supply.

    The run terminates with a final phase in which either all labels grow at
    unit speed (steady) or the sink label grows faster forever (diverging,
    unbounded cost).  The resulting flow is re-validated by the independent
    feasibility and equilibrium checkers, and the run's labels are the ones
    `certify_nash` derived from that flow, accepted and returned on its
    report (labels are unique, Cominetti, Correa & Larré 2015, so they are
    the phases' labels).  The cost is read off the sink label: INF when its
    final slope exceeds 1, else its largest y - x over its breakpoints,
    where the latency y - x peaks.

    Each phase takes its thin flow from `thin_flows`, keyed by its
    competitive and resetting edge sets, and solves it with `thin_flow` on
    a miss.  Without a dict from the caller the run uses a fresh one of its
    own.  A caller may share one dict across runs on `restrict(inst, S)`
    for several edge sets S of one instance, as `fot.braess.braess_ratio`
    does.  That is exact: `thin_flow` returns the first solution of
    `_walk`, which reads its network only through the competitive edges in
    edge order, the nodes they reach in node order, the source and the
    sink, and it reads the capacities of the competitive edges and the
    supply.  `restrict` keeps the node tuple, the edge order, the
    terminals, the capacities and the supply, so equal keys mean equal
    inputs, and the search is deterministic.  A run only reads a `ThinFlow`
    and copies what its phases keep, and every run's flow is still checked
    in full below.
    """
    if thin_flows is None:
        thin_flows = {}
    net = inst.network
    order = net.topological_order()
    reachable = net.reachable_from(net.source)
    if net.sink not in reachable:
        raise NoPathError("no source-sink path; cost is unbounded by convention")

    # Earliest arrivals on the empty network: free-flow distances.
    arrival: dict[str, Fraction] = {net.source: ZERO}
    for v in order:
        if v not in reachable or v == net.source:
            continue
        arrival[v] = min(arrival[e.tail] + inst.transit[e.id]
                         for e in net.in_edges[v] if e.tail in arrival)
    queue: dict[str, Fraction] = {eid: ZERO for eid in inst.edge_ids}

    now = ZERO
    phases: list[Phase] = []
    events: list[Event] = []
    in_segments: dict[str, list[tuple[Fraction, Fraction]]] = {
        eid: [] for eid in inst.edge_ids}
    out_segments: dict[str, list[tuple[Fraction, Fraction]]] = {
        eid: [] for eid in inst.edge_ids}
    final_slopes: Optional[Mapping[str, Fraction]] = None

    for _ in range(phase_cap):
        key = _tight_sets(inst, arrival, queue)
        active, resetting = key
        tf = thin_flows.get(key)
        if tf is None:
            tf = thin_flows[key] = thin_flow(net, active, resetting,
                                             inst.capacity, inst.supply)
        delta, activations, depletions = next_event(inst, arrival, queue, tf, active)

        phases.append(Phase(
            start=now,
            end=INF if delta is INF else now + delta,
            active=tuple(sorted(active)),
            resetting=tuple(sorted(resetting)),
            label_slopes=dict(tf.label_slopes),
            edge_rates={eid: tf.edge_rates.get(eid, ZERO) for eid in inst.edge_ids},
        ))

        # One pass over the edges: emit this phase's constant-rate flow
        # segments, on each edge's own wall clock (tail arrival time; head
        # side shifted by the transit), and, unless the phase is final,
        # advance the queue to the event time.
        for e in net.edges:
            if e.tail not in arrival:
                continue
            rate = tf.edge_rates.get(e.id, ZERO)
            cap = inst.capacity[e.id]
            tail_slope = tf.label_slopes[e.tail]
            drain = rate - cap * tail_slope
            queued = queue[e.id] > 0
            if tail_slope != 0:  # else the local clock is frozen: nothing enters or drains
                wall_start = arrival[e.tail]
                inflow_rate = rate / tail_slope
                in_segments[e.id].append((wall_start, inflow_rate))
                out_segments[e.id].append((wall_start + inst.transit[e.id],
                                           cap if queued or drain > 0 else inflow_rate))
            if delta is INF:
                continue
            if queued:
                queue[e.id] = queue[e.id] + drain * delta
                if queue[e.id] < 0:
                    raise InternalConsistencyError(f"queue of {e.id} went negative")
            elif drain > 0:
                queue[e.id] = drain * delta

        if delta is INF:
            final_slopes = tf.label_slopes
            break

        # Advance the labels to the event time.
        for v in arrival:
            arrival[v] = arrival[v] + tf.label_slopes[v] * delta
        now = now + delta
        events.append(Event(
            time=now,
            activations=activations,
            depletions=depletions,
            tail_arrival={eid: arrival[net.edge_by_id[eid].tail] for eid in activations},
        ))
    else:
        summary = ", ".join(
            f"[{format_scalar(p.start)}, {format_scalar(p.end)})" for p in phases[-5:])
        raise PhaseCapError(
            f"no final phase within {phase_cap} phases; last intervals: {summary}")

    inflow = {eid: PiecewiseLinear.from_rate_segments(segs)
              for eid, segs in in_segments.items()}
    outflow = {eid: PiecewiseLinear.from_rate_segments(segs)
               for eid, segs in out_segments.items()}
    flow = FlowOverTime(
        inflow=inflow,
        outflow=outflow,
        sink_cumulative=derive_sink_cumulative(inst, inflow, outflow),
    )

    report = validate_feasible(inst, flow)
    if not report.ok:
        raise InternalConsistencyError(f"engine flow is infeasible:\n{report}")
    ok, nash_report = certify_nash(inst, flow)
    if not ok:
        raise InternalConsistencyError(f"engine flow is not an equilibrium:\n{nash_report}")

    labels = nash_report.labels
    sink = labels[net.sink]
    return EquilibriumRun(
        instance=inst,
        phases=tuple(phases),
        events=tuple(events),
        labels={v: labels[v] for v in net.nodes},
        flow=flow,
        social_cost=(INF if sink.final_slope > 1
                     else max(y - x for x, y in zip(sink.xs, sink.ys))),
        steady=all(s == 1 for s in final_slopes.values()),
        diverging=final_slopes[net.sink] > 1,
    )
