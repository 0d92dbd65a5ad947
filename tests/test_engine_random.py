"""Randomized cross-checks of the phase engine.

The engine is validated against checkers it does not share code with: the
exact feasibility conditions, both equilibrium certificates, the uniqueness
of per-phase label slopes across all solver patterns, the pattern search
over every support as the oracle of the one with forced edges, the walk
as the oracle of the series-parallel proposal on every phase it should
settle and of the walk with pinned labels, the rank lemma that makes
pinning exact, the flat-or-proportional shape of every series-parallel
exit map,
the structural guarantee that networks using only chains of
parallel paths never benefit from deletions, and facts the theory proves
outright: a run ends steady exactly when the supply fits through a minimum
cut, labels obey the exact scaling laws of capacity and time, transposing
twice is the identity, and an edge off every source-sink path changes
nothing.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from fot import equilibrium
from fot.braess import braess_ratio
from fot.cli import main
from fot.core import (INF, ContractError, Edge, FotError, Instance, InternalConsistencyError,
                      Network, NoPathError, Q, SizeCapError, dumps, first_feasible_support,
                      instance_to_obj, restrict, st_core, transpose)
from fot.dynamics import certify_nash, labels, validate_feasible
from fot.equilibrium import (
    MAX_ACTIVE_EDGES,
    Elimination,
    ThinFlow,
    nash_flow,
    solve_exact,
    thin_flow,
    verify_thin_flow,
)
from fot.gen import make_ladder, random_dag
from fot.pwl import PiecewiseLinear
from fot.topology import series_parallel, sp_tree, uses_only_chains

from helpers import (ENGINE_PHASES, build_instance, enumerate_thin_flows, max_flow_value,
                     solve_system)

F = Fraction

small_caps = st.fractions(min_value=F(1, 3), max_value=6, max_denominator=6)
small_taus = st.fractions(min_value=0, max_value=4, max_denominator=3)


@st.composite
def random_instances(draw):
    seed = draw(st.integers(min_value=1, max_value=10_000))
    nodes = draw(st.integers(min_value=3, max_value=6))
    rng = random.Random(seed)
    edges = rng.randrange(2, nodes * (nodes - 1) // 2 + 1)
    net = random_dag(nodes, edges, seed)
    if draw(st.booleans()) and net.edges:
        twin = net.edges[rng.randrange(len(net.edges))]
        net = Network(net.nodes, net.edges + (Edge("tw", twin.tail, twin.head),),
                      net.source, net.sink)
    zero_heavy = draw(st.booleans())
    capacity = {}
    transit = {}
    for e in net.edges:
        capacity[e.id] = draw(small_caps)
        transit[e.id] = F(0) if (zero_heavy and draw(st.booleans())) else draw(small_taus)
    supply = draw(st.fractions(min_value=F(1, 2), max_value=8, max_denominator=4))
    return Instance(net, capacity, transit, supply)


@st.composite
def tied_instances(draw):
    """Degenerate ties: a path through every node plus parallel copies and
    shortcuts, with transits that are potential differences (often zero) so
    that many routes share a free-flow time, a late unit on some edges so
    that activations coincide, and capacities and supplies from a small set."""
    n = draw(st.integers(min_value=3, max_value=5))
    names = tuple(f"v{i}" for i in range(n))
    potential = sorted(draw(st.lists(st.integers(min_value=0, max_value=2),
                                     min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [(i, i + 1) for i in range(n - 1)]
    chosen += draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5))
    edges = tuple(Edge(f"e{k}", names[i], names[j]) for k, (i, j) in enumerate(chosen))
    few = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
    late = st.sampled_from([0, 0, 1])
    return Instance(Network(names, edges, names[0], names[-1]),
                    {e.id: draw(few) for e in edges},
                    {e.id: F(potential[j] - potential[i] + draw(late))
                     for e, (i, j) in zip(edges, chosen)},
                    draw(st.sampled_from([F(1), F(2), F(5, 2), F(4)])))


@settings(max_examples=60, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances(), tied_instances()))
def test_random_instances_produce_certified_equilibria(inst):
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    assert validate_feasible(inst, run.flow).ok
    ok, report = certify_nash(inst, run.flow)
    assert ok, str(report)
    # the run's labels are those the certificate derives from the flow curves
    assert dict(run.labels) == labels(inst, run.flow)[0]
    # phases partition the half-line and labels stay continuous across them
    assert run.phases[0].start == 0
    for a, b in zip(run.phases, run.phases[1:]):
        assert a.end == b.start
    assert run.phases[-1].end is not None
    # The run's labels and cost come from the certificate; the engine's own
    # phase slopes, event times and cost formula must agree with them.
    reached = [v for v in inst.network.nodes if run.labels[v] is not INF]
    for phase in run.phases:
        for v in reached:
            assert slope_on(run.labels[v], phase.start, phase.end) == phase.label_slopes[v]
    for event in run.events:
        for eid, when in event.tail_arrival.items():
            assert run.labels[inst.network.edge_by_id[eid].tail](event.time) == when
    # the cost is the latency's supremum: INF when it grows on its last ray
    latency = run.labels[inst.network.sink] - PiecewiseLinear.identity()
    assert run.social_cost == (INF if latency.final_slope > 0 else max(latency.ys))


def slope_on(curve, start, end):
    """The slope of `curve` on [start, end), or None where it bends inside."""
    if any(start < x < end for x in curve.xs):
        return None
    return curve.slopes()[max(k for k, x in enumerate(curve.xs) if x <= start)]


@settings(max_examples=25, deadline=None, phases=ENGINE_PHASES)
@given(random_instances())
def test_label_slopes_agree_across_all_solver_patterns(inst):
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    for phase in run.phases:
        solutions = list(enumerate_thin_flows(
            inst.network, frozenset(phase.active), frozenset(phase.resetting),
            inst.capacity, inst.supply))
        assert solutions
        reference = solutions[0].label_slopes
        for other in solutions[1:]:
            assert other.label_slopes == reference


def reference_enumerate_thin_flows(net, active, resetting, capacity, supply):
    """The pattern search without forced edges or skipped masks: every
    support over all competitive edges in lexicographic mask order, each
    pattern solved and verified as in `enumerate_thin_flows`.  Exponential
    in the competitive edges; the oracle the search must match solution for
    solution."""
    for _, tf in reference_solutions(net, active, resetting, capacity, supply):
        yield tf


def reference_solutions(net, active, resetting, capacity, supply):
    """Each solution of `reference_enumerate_thin_flows` with its support
    mask: a bit per competitive edge, in edge order."""
    for mask, nodes, support, rows in reference_patterns(net, active, resetting, capacity, supply):
        status, sol = solve_system(rows, len(nodes) + len(support))
        if status != "unique":
            continue
        slopes = dict(zip(nodes, sol))
        rates = {e.id: F(0) for e in net.edges if e.id in active}
        rates.update((e.id, sol[len(nodes) + i]) for i, e in enumerate(support))
        if verify_thin_flow(net, active, resetting, capacity, supply,
                            slopes, rates) is None:
            yield mask, ThinFlow(slopes, rates)


def reference_patterns(net, active, resetting, capacity, supply):
    """Every pattern of the search over all supports, in its order: the
    support mask, the nodes (columns 0, 1, ...), the support edges (the
    rate columns after them) and the pattern's rows."""
    if not resetting <= active:
        raise ContractError("resetting edges must be competitive")
    edges = [e for e in net.edges if e.id in active]
    reach = net.reachable_from(net.source, active)
    for e in edges:
        if e.tail not in reach:
            raise ContractError(f"competitive edge {e.id} is unreachable from the source")
    if net.sink not in reach:
        raise NoPathError("sink not reachable through competitive edges")
    if len(edges) > MAX_ACTIVE_EDGES:
        raise SizeCapError(
            f"more than {MAX_ACTIVE_EDGES} free edges in a thin-flow pattern search")
    nodes = [v for v in net.nodes if v in reach]
    col = {v: i for i, v in enumerate(nodes)}

    def idle_row(e):
        # l_w = l_v, or l_w = 0 behind a queue
        if e.id in resetting:
            return {col[e.head]: 1}, 0
        return {col[e.head]: 1, col[e.tail]: -1}, 0

    for mask in product((0, 1), repeat=len(edges)):
        support = [e for e, bit in zip(edges, mask) if bit]
        ids = frozenset(e.id for e in support)
        if st_core(net, ids) != ids:
            continue
        x = {e.id: len(nodes) + i for i, e in enumerate(support)}
        rows = [({col[net.source]: 1}, 1)]
        for v in nodes:
            if v == net.sink:
                continue
            scale = supply.denominator if v == net.source else 1
            rows.append(({x[e.id]: scale if e.head == v else -scale
                          for e in support if v in (e.tail, e.head)},
                         -supply.numerator if v == net.source else 0))
        options = []
        for e in support:
            cap = capacity[e.id]
            options.append([({col[e.head]: cap.numerator, x[e.id]: -cap.denominator}, 0)]
                           + ([] if e.id in resetting else [idle_row(e)]))
        for v in nodes:
            if v != net.source and not any(e.head == v for e in support):
                options.append([idle_row(e) for e in edges if e.head == v])
        for pattern in product(*options):
            yield mask, nodes, support, rows + list(pattern)


def assert_matches_the_unforced_oracle(args):
    """The forced search yields the oracle's solutions in the oracle's
    order, and `thin_flow` returns the first; errors agree by class and
    message."""
    try:
        reference = list(reference_enumerate_thin_flows(*args))
    except FotError as exc:
        with pytest.raises(type(exc)) as raised:
            list(enumerate_thin_flows(*args))
        assert str(raised.value) == str(exc)
        return
    assert list(enumerate_thin_flows(*args)) == reference
    assert reference
    assert thin_flow(*args) == reference[0]


@settings(max_examples=40, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances(), tied_instances()))
def test_forced_search_matches_the_unforced_oracle_on_engine_phases(inst):
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    for phase in run.phases:
        assert_matches_the_unforced_oracle(
            (inst.network, frozenset(phase.active), frozenset(phase.resetting),
             inst.capacity, inst.supply))


@settings(max_examples=30, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances().filter(lambda inst: len(inst.edge_ids) <= 9),
                 tied_instances()))
def test_a_phase_thin_flow_is_the_same_on_every_core_holding_its_edges(inst):
    # `braess_ratio` shares one thin flow per (competitive, resetting) pair
    # across its runs on the s-t cores of an instance.  That is exact only
    # if the search reads no edge outside the competitive ones: so every
    # phase of every core's run is solved again on every core that holds
    # its competitive edges, and must give the same thin flow.
    ids = inst.edge_ids
    cores = {st_core(inst.network, [eid for eid, bit in zip(ids, mask) if bit])
             for mask in product((0, 1), repeat=len(ids))}
    cores.discard(None)
    cores = sorted(cores, key=sorted)
    nets = {core: restrict(inst, core).network for core in cores}
    phases = {}
    for core in cores:
        try:
            run = nash_flow(restrict(inst, core), phase_cap=400)
        except FotError:
            continue
        for phase in run.phases:
            phases.setdefault((frozenset(phase.active), frozenset(phase.resetting)), core)
    for (active, resetting), core in phases.items():
        expected = thin_flow(nets[core], active, resetting, inst.capacity, inst.supply)
        for other in cores:
            if active <= other:
                assert thin_flow(nets[other], active, resetting,
                                 inst.capacity, inst.supply) == expected


@st.composite
def thin_flow_systems(draw):
    """Arbitrary (competitive, resetting) edge sets on small DAGs, which a
    phase of the engine need not produce: any competitive subset closed
    under reachability from the source, any queued subset of it, and a
    dead-end node d that queued edges may feed."""
    nodes = draw(st.integers(min_value=3, max_value=5))
    edges = draw(st.integers(min_value=2, max_value=nodes * (nodes - 1) // 2))
    net = random_dag(nodes, edges, draw(st.integers(min_value=0, max_value=10_000)))
    tails = draw(st.lists(st.sampled_from(net.nodes[:-1]), max_size=3))
    net = Network(net.nodes + ("d",),
                  net.edges + tuple(Edge(f"q{k}", v, "d") for k, v in enumerate(tails)),
                  net.source, net.sink)
    kept = {e.id for e in net.edges if draw(st.integers(min_value=0, max_value=4))}
    reach = net.reachable_from(net.source, kept)
    active = frozenset(e.id for e in net.edges if e.id in kept and e.tail in reach)
    resetting = frozenset(eid for eid in sorted(active) if draw(st.booleans()))
    capacity = {e.id: draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]))
                for e in net.edges}
    supply = draw(st.sampled_from([F(1), F(2), F(5, 2), F(4)]))
    return net, active, resetting, capacity, supply


@settings(max_examples=150, deadline=None)
@given(thin_flow_systems())
def test_forced_search_matches_the_unforced_oracle_on_arbitrary_systems(args):
    assert_matches_the_unforced_oracle(args)


def _recording_statuses(monkeypatch, module, name):
    """Replace the solver `module.<name>` by a wrapper that lists the
    status of every call."""
    statuses = []
    solve = getattr(module, name)

    def recorded(*args):
        status, result = solve(*args)
        statuses.append(status)
        return status, result

    monkeypatch.setattr(module, name, recorded)
    return statuses


def test_search_cuts_an_inconsistent_prefix_as_the_oracle_skips_it(monkeypatch):
    # On positive capacities no pattern prefix was seen to turn
    # inconsistent (none in 3313 random systems): the rates of the flow
    # edges absorb whatever the rows pin down.  A queued link of capacity
    # zero does it: its capacity row says x = 0, conservation says x = 2,
    # and being queued it is forced into every support.  A solution would
    # need its drain ratio 0/0, so no pattern survives either search.
    net = build_instance([("q", "s", "t", 1, 0)], source="s", sink="t", supply=2).network
    args = (net, frozenset({"q"}), frozenset({"q"}), {"q": F(0)}, F(2))
    statuses = _recording_statuses(monkeypatch, equilibrium, "solve_exact")
    assert list(enumerate_thin_flows(*args)) == list(reference_enumerate_thin_flows(*args))
    assert "inconsistent" in statuses


def test_search_skips_an_underdetermined_pattern_as_the_oracle_does(monkeypatch):
    # Two idle rows l_t = l_s leave the split of the supply between the
    # parallel links open: that pattern's system is underdetermined, and
    # the pattern search over every support sees it whole.
    inst = build_instance([("a", "s", "t", 1, 0), ("b", "s", "t", 2, 0)],
                          source="s", sink="t", supply=2)
    args = (inst.network, frozenset({"a", "b"}), frozenset(), inst.capacity, inst.supply)
    statuses = _recording_statuses(monkeypatch, sys.modules[__name__], "solve_system")
    reference = list(reference_enumerate_thin_flows(*args))
    assert "underdetermined" in statuses
    assert list(enumerate_thin_flows(*args)) == reference
    assert reference


def test_pruning_bounds_the_search_on_the_steady_transposed_ladder_phase(monkeypatch):
    # The last phase of the transposed ladder n = 6: the solution is the
    # last support in mask order.  Without the cuts the search makes 6732
    # `solve_exact` calls and verifies 2665 patterns; the whole-pattern
    # search before it made 3378 solves and the same 2665 verifications.
    inst = transpose(make_ladder(6, F(1, 1000)))
    last = nash_flow(inst).phases[-1]
    calls = Counter()
    for name in ("solve_exact", "verify_thin_flow"):
        def counted(*args, name=name, call=getattr(equilibrium, name)):
            calls[name] += 1
            return call(*args)
        monkeypatch.setattr(equilibrium, name, counted)
    tf = next(enumerate_thin_flows(inst.network, frozenset(last.active),
                                   frozenset(last.resetting), inst.capacity, inst.supply))
    assert tf.label_slopes == last.label_slopes
    assert calls["verify_thin_flow"] <= 1
    assert calls["solve_exact"] <= 2976


def _thin_flow_route(args):
    """`thin_flow` on one phase system and how it got there: "path" when
    the core is one s-t path (the call never reaches the steady test),
    "walk" when it walked the patterns, else "sp" when it tried the
    series-parallel proposal, and "point" when it stopped at the steady
    test's flow (a steady phase whose P(1) is one point)."""
    routes = []
    steady, tree, walk = equilibrium.first_feasible_support, equilibrium.sp_tree, equilibrium._walk

    def tested(*args):
        routes.append("point")
        return steady(*args)

    def reduced(*args):
        routes.append("sp")
        return tree(*args)

    def walked(*args):
        routes.append("walk")
        return walk(*args)

    with patch.object(equilibrium, "first_feasible_support", tested), \
            patch.object(equilibrium, "sp_tree", reduced), \
            patch.object(equilibrium, "_walk", walked):
        tf = thin_flow(*args)
    return tf, routes[-1] if routes else "path"


@settings(max_examples=60, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances(), tied_instances()))
def test_thin_flow_is_the_first_solution_of_the_walk_on_engine_phases(inst):
    # A thin flow that the phase's structure decides is the one the walk
    # finds first: the same items in the same order, all of them `Q`.  It
    # is also the only one: every later solution of the walk equals it.
    for args in _engine_phases(inst):
        tf, route = _thin_flow_route(args)
        solutions = enumerate_thin_flows(*args)
        first = next(solutions)
        assert list(tf.label_slopes.items()) == list(first.label_slopes.items())
        assert list(tf.edge_rates.items()) == list(first.edge_rates.items())
        assert all(type(x) is Q for x in (*tf.label_slopes.values(), *tf.edge_rates.values()))
        if route != "walk":
            assert all(other == tf for other in solutions)


@pytest.mark.parametrize("route", ["path", "point", "sp", "walk"])
def test_engine_phases_take_every_thin_flow_route(route):
    # Each proposal source settles engine phases, and phases outside them
    # fall through to the walk.
    def takes(inst):
        return any(_thin_flow_route(args)[1] == route for args in _engine_phases(inst))

    find(st.one_of(random_instances(), tied_instances()), takes, settings=settings(
        max_examples=100, derandomize=True, database=None, phases=[Phase.generate]))


@st.composite
def series_parallel_systems(draw):
    """Two-terminal series-parallel networks, all edges competitive and some
    queued: from one source-sink edge, each step splits an edge in two, in
    series or side by side; the edges come in a drawn order, which orders
    the parts of the decomposition tree."""
    pairs, nodes = [("s", "t")], ["s", "t"]
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        k = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
        u, w = pairs[k]
        if draw(st.booleans()):
            nodes.append(f"v{len(nodes)}")
            pairs[k:k + 1] = [(u, nodes[-1]), (nodes[-1], w)]
        else:
            pairs.insert(k, (u, w))
    edges = draw(st.permutations([Edge(f"e{k}", u, w) for k, (u, w) in enumerate(pairs)]))
    net = Network(tuple(nodes), tuple(edges), "s", "t")
    few = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
    return (net, frozenset(e.id for e in edges),
            frozenset(e.id for e in edges if draw(st.integers(min_value=0, max_value=2)) == 0),
            {e.id: draw(few) for e in edges}, draw(st.sampled_from([F(1), F(2), F(5, 2), F(4)])))


def _assert_sp_settles(args):
    """Where `thin_flow` should settle the phase system by the
    series-parallel proposal (no flow in P(1), a core that is
    series-parallel and not one path, and slack edges of the walk's first
    solution that form a forest), it does, with the walk's first solution
    item for item."""
    net, _, resetting, _, _ = args
    edges, _, core, _, _ = equilibrium._competitive(*args[:3])
    core_edges = [e for e in edges if e.id in core]
    if (_steady_marks(*args) is not None or equilibrium._forest(core_edges)
            or series_parallel(Network(net.nodes, tuple(core_edges),
                                       net.source, net.sink)) is None):
        return
    first = next(enumerate_thin_flows(*args))
    slopes = first.label_slopes
    if not equilibrium._forest(e for e in core_edges if e.id not in resetting
                               and slopes[e.tail] == slopes[e.head]):
        return
    tf, route = _thin_flow_route(args)
    assert route == "sp"
    assert list(tf.label_slopes.items()) == list(first.label_slopes.items())
    assert list(tf.edge_rates.items()) == list(first.edge_rates.items())


@settings(max_examples=60, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances(), tied_instances()))
def test_series_parallel_phases_take_the_sp_proposal(inst):
    # A wrong recursion cannot hide behind the walk it falls through to.
    for args in _engine_phases(inst):
        _assert_sp_settles(args)


@settings(max_examples=150, deadline=None)
@given(series_parallel_systems())
def test_series_parallel_systems_take_the_sp_proposal(args):
    _assert_sp_settles(args)


@settings(max_examples=150, deadline=None)
@given(series_parallel_systems())
def test_exit_maps_are_curves_of_flat_and_proportional_pieces(args):
    # Each component's exit map is a nondecreasing curve from inflow 0 that
    # rises for ever, and each piece is flat (a slope entered) or y = s * x
    # (a bottleneck of capacity 1 / s).
    net, _, resetting, capacity, _ = args
    nodes = [equilibrium._exit_maps(sp_tree(net.edges, "s", "t"), capacity, resetting)]
    while nodes:
        f, _, parts = nodes.pop()
        nodes.extend(parts)
        assert type(f) is PiecewiseLinear and f.xs[0] == 0
        assert f.is_nondecreasing() and f.final_slope > 0
        assert all(s == 0 or y == s * x for x, y, s in zip(f.xs, f.ys, f.slopes()))


def test_thin_flow_refuses_a_nonpositive_competitive_capacity():
    # A queued s-t link of capacity zero is a forced path whose drain ratio
    # would be 0/0; an `Instance` refuses such a capacity, and so does
    # `thin_flow`, before any proposal or walk.  An edge off the competitive
    # set may have any capacity.
    net = build_instance([("q", "s", "t", 1, 0), ("r", "s", "t", 1, 0)],
                         source="s", sink="t", supply=2).network
    for cap in (F(0), F(-1)):
        with pytest.raises(ContractError, match="^competitive capacities must be positive$"):
            thin_flow(net, frozenset({"q"}), frozenset({"q"}), {"q": cap, "r": F(1)}, F(2))
    tf = thin_flow(net, frozenset({"r"}), frozenset(), {"q": F(0), "r": F(1)}, F(2))
    assert tf.edge_rates == {"r": 2}


def test_a_proposed_flow_that_fails_verification_raises(monkeypatch):
    # A queued s-t link beside a queue-free path s-a-t: the core is no
    # forest, so the steady test proposes the flow.  This proposal fills
    # the queued link but breaks conservation at a.  Its labels are all
    # one and its slack edges x, y form a forest, so only `verify_thin_flow`
    # stands between it and the result.
    inst = build_instance([("q", "s", "t", 1, 0), ("x", "s", "a", 4, 0), ("y", "a", "t", 4, 0)],
                          source="s", sink="t", supply=2)
    proposal = ((True, True), {"q": Q(1), "x": Q(1), "y": Q(2)})
    monkeypatch.setattr(equilibrium, "first_feasible_support", lambda *args: proposal)
    with pytest.raises(InternalConsistencyError,
                       match="^the thin flow that the phase's structure decides fails"):
        thin_flow(inst.network, frozenset({"q", "x", "y"}), frozenset({"q"}),
                  inst.capacity, inst.supply)


def test_a_steady_verdict_on_a_phase_that_is_not_steady_raises(monkeypatch):
    # Two parallel links of capacity 1 carry supply 2 at slope one but not
    # supply 3.  Handed the verdict for supply 2, the walk pins every label
    # slope to one, so it finds no verified solution: the one there is has
    # l'_t = 3/2.
    inst = build_instance([("a", "s", "t", 1, 0), ("b", "s", "t", 1, 0)],
                          source="s", sink="t", supply=3)
    args = (inst.network, frozenset({"a", "b"}), frozenset(), inst.capacity)
    assert first_feasible_support(*args, inst.supply, ["a", "b"]) is None
    verdict = first_feasible_support(*args, Q(2), ["a", "b"])
    monkeypatch.setattr(equilibrium, "first_feasible_support", lambda *_: verdict)
    with pytest.raises(InternalConsistencyError, match=r"^the steady test found a flow in P\(1\), "
                       "but no verified thin flow has every label slope one$"):
        thin_flow(*args, inst.supply)


def _walk_pins(args):
    """The labels that `thin_flow` pins in its walk on one phase system,
    or None when it pins none or does not walk."""
    pins = []
    walk = equilibrium._walk

    def walked(*args):
        pins.append(args[-1])
        return walk(*args)

    with patch.object(equilibrium, "_walk", walked):
        thin_flow(*args)
    return pins[0] if pins else None


@settings(max_examples=60, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances(), tied_instances()))
def test_pinned_labels_leave_the_walk_unchanged_on_engine_phases(inst):
    # The walk with label rows yields the list of the walk without them,
    # item for item, whether the labels are those `thin_flow` pins (of a
    # series-parallel proposal that passes `verify_thin_flow`, or all one
    # after a steady verdict) or those of the walk's own first solution.
    for args in _engine_phases(inst):
        unpinned = list(enumerate_thin_flows(*args))
        pins = [unpinned[0].label_slopes, _walk_pins(args)]
        for pinned in filter(None, pins):
            walked = list(enumerate_thin_flows(*args, pinned=pinned))
            assert [list(tf.edge_rates.items()) for tf in walked] == [
                list(tf.edge_rates.items()) for tf in unpinned]
            assert walked == unpinned


@settings(max_examples=60, deadline=None)
@given(st.one_of(thin_flow_systems(), series_parallel_systems()))
def test_label_rows_add_no_rank_to_a_whole_pattern(args):
    # The lemma that lets the walk pin labels with no test at its leaves
    # (see `_walk`): with positive capacities a pattern's own rows fix its
    # labels, so the rows l_v = c (v other than s) add no rank to any
    # pattern of any support.  Rank is a matter of the coefficients, so
    # the rows are taken homogeneous.
    net = args[0]
    try:
        patterns = list(reference_patterns(*args))
    except FotError:
        return
    for _, nodes, support, rows in patterns:
        n = len(nodes) + len(support)
        own = [(coeffs, 0) for coeffs, _ in rows]
        pinned = [({c: 1}, 0) for c, v in enumerate(nodes) if v != net.source]
        rank = len(solve_exact(own, n, Elimination(n))[1].pivots)
        assert len(solve_exact(own + pinned, n, Elimination(n))[1].pivots) == rank


def test_only_a_verified_series_parallel_proposal_pins_its_labels(monkeypatch):
    # Two parallel links into a, then one link a-t that the supply
    # overloads: no flow in P(1), a series-parallel core, and slack links
    # s-a that close a cycle, so the walk runs.  The verified proposal pins
    # its labels (1, 1, 2).  A proposal that `verify_thin_flow` refuses, here
    # no flow at all, pins nothing: pinned labels of its own, all one, would
    # leave the walk with no solution.
    inst = build_instance([("x", "s", "a", 2, 0), ("y", "s", "a", 2, 0), ("z", "a", "t", 1, 0)],
                          source="s", sink="t", supply=2)
    args = (inst.network, frozenset({"x", "y", "z"}), frozenset(), inst.capacity, inst.supply)
    first = next(enumerate_thin_flows(*args))
    assert _walk_pins(args) == {"s": 1, "a": 1, "t": 2} == first.label_slopes
    assert thin_flow(*args) == first
    monkeypatch.setattr(equilibrium, "_sp_split", lambda *_: None)
    assert _walk_pins(args) is None
    assert thin_flow(*args) == first


def _seed_84_instance():
    """`random_dag(5, 10, 84)`, all ten node pairs, with its attributes
    drawn from `random.Random(84)`: the node and edge counts first, then the
    capacities `randint(1, 4)/randint(1, 2)` in edge order, the transits
    `choice([0, 0, 1, 2])` and the supply `randint(1, 12)/2`."""
    net = random_dag(5, 10, 84)
    rng = random.Random(84)
    nodes = rng.randint(3, 7)
    assert (nodes, rng.randint(nodes - 1, min(12, nodes * (nodes - 1) // 2))) == (5, 10)
    capacity = {e.id: Q(rng.randint(1, 4), rng.randint(1, 2)) for e in net.edges}
    transit = {e.id: Q(rng.choice([0, 0, 1, 2])) for e in net.edges}
    return Instance(net, capacity, transit, Q(rng.randint(1, 12), 2))


def test_the_steady_phase_of_seed_84_is_pinned(tmp_path, capsys):
    # One steady phase whose queue-free core is no forest, and whose
    # maximum flow is not the walk's first solution: a single-point test
    # that let it through would put 1/2, 2, 1/2 on g2, g3, g9.
    path = tmp_path / "seed84.json"
    path.write_text(dumps(instance_to_obj(_seed_84_instance())))
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a839bb33d4dd09af531acfe7fd920836b43dcea41e997576c438d95965f835fd")
    [phase] = json.loads(out)["phases"]
    assert [phase["edge_rates"][eid] for eid in ("g2", "g3", "g9")] == ["1", "3/2", "1"]


def test_the_skip_bounds_the_search_of_the_transposed_ladder(monkeypatch):
    # The steady last phase of the transposed ladder n = 8 has 13 free
    # edges, and its canonical mask is all ones.  Walked from mask 0, the
    # run made 75294 `solve_exact` calls; from the first feasible mask it
    # makes 71.
    calls = Counter()
    solve = equilibrium.solve_exact

    def counted(*args):
        calls["solve_exact"] += 1
        return solve(*args)

    monkeypatch.setattr(equilibrium, "solve_exact", counted)
    assert nash_flow(transpose(make_ladder(8, F(1, 1000)))).steady
    assert calls["solve_exact"] <= 100


def _free_edges(net, active, resetting):
    # The edges `enumerate_thin_flows` enumerates, in its mask order.
    to_sink = net.reaching_to(net.sink, active)
    return [e.id for e in net.edges
            if e.id in active and (e.id not in resetting or e.head not in to_sink)]


def _steady_marks(net, active, resetting, capacity, supply):
    steady = first_feasible_support(net, active, resetting, capacity, supply,
                                    _free_edges(net, active, resetting))
    return None if steady is None else steady[0]


def bounded_flow_exists(net, active, resetting, capacity, supply, zero):
    """Whether a flow of value `supply` on the competitive edges carries
    exactly its capacity on each queued edge, at most its capacity on the
    others and nothing on the edges of `zero`: lower bounds reduced to one
    maximum flow between a new source and sink, on `max_flow_value`."""
    edges, cap = [], {}

    def add(tail, head, c):
        eid = f"r{len(edges)}"
        edges.append(Edge(eid, tail, head))
        cap[eid] = c

    add("S*", net.source, supply)
    add(net.sink, "T*", supply)
    needed = supply
    for e in net.edges:
        if e.id not in active:
            continue
        if e.id in resetting:
            if e.id in zero:
                return False
            add("S*", e.head, capacity[e.id])
            add(e.tail, "T*", capacity[e.id])
            needed += capacity[e.id]
        elif e.id not in zero:
            add(e.tail, e.head, capacity[e.id])
    reduced = Network(net.nodes + ("S*", "T*"), tuple(edges), "S*", "T*")
    return max_flow_value(reduced, cap) == needed


@st.composite
def bounded_flow_systems(draw):
    """Competitive edge sets on small DAGs with parallel copies, few queued
    edges and a small supply, so that most have a flow in P(1) and many of
    their edges can be rerouted."""
    nodes = draw(st.integers(min_value=3, max_value=6))
    edges = draw(st.integers(min_value=2, max_value=min(10, nodes * (nodes - 1) // 2)))
    net = random_dag(nodes, edges, draw(st.integers(min_value=0, max_value=10_000)))
    copies = draw(st.lists(st.sampled_from(net.edges), max_size=3))
    net = Network(net.nodes, net.edges + tuple(Edge(f"c{k}", e.tail, e.head)
                                               for k, e in enumerate(copies)),
                  net.source, net.sink)
    reach = net.reachable_from(net.source)
    active = frozenset(e.id for e in net.edges if e.tail in reach)
    resetting = frozenset(eid for eid in sorted(active)
                          if draw(st.integers(min_value=0, max_value=5)) == 0)
    capacity = {e.id: draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]))
                for e in net.edges}
    supply = draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
    return net, active, resetting, capacity, supply


@settings(max_examples=150, deadline=None)
@given(st.one_of(thin_flow_systems(), bounded_flow_systems()))
def test_the_first_feasible_support_is_the_lexicographically_first(args):
    # Against the reduction to one maximum flow: the marked support has a
    # flow, and for each edge it marks, the masks that share the marks
    # before it and leave it out have none.  Feasibility is up-closed in
    # the mask, so this is every earlier mask.  The flow that comes with
    # the marks is one of the bounded flows, on the marked support.
    net, active, resetting, capacity, supply = args
    if net.sink not in net.reachable_from(net.source, active):
        return
    free = _free_edges(net, active, resetting)
    steady = first_feasible_support(net, active, resetting, capacity, supply, free)
    if not bounded_flow_exists(net, active, resetting, capacity, supply, frozenset()):
        assert steady is None
        return
    marks, rates = steady
    assert len(marks) == len(free)
    assert list(rates) == [e.id for e in net.edges if e.id in active]
    balance = Counter()
    for e in net.edges:
        if e.id in active:
            x = rates[e.id]
            assert type(x) is Q and 0 <= x <= capacity[e.id]
            assert e.id not in resetting or x == capacity[e.id]
            balance[e.tail] -= x
            balance[e.head] += x
    assert +balance == Counter({net.sink: supply}) and -balance == Counter({net.source: supply})
    assert marks == tuple(rates[eid] > 0 for eid in free)
    zero = {eid for eid, m in zip(free, marks) if not m}
    assert bounded_flow_exists(net, active, resetting, capacity, supply, zero)
    for j, (eid, m) in enumerate(zip(free, marks)):
        if m:
            earlier = {e for e, mark in zip(free[:j], marks) if not mark}
            assert not bounded_flow_exists(net, active, resetting, capacity, supply,
                                           earlier | {eid})


def _steady_phase_masks(args):
    """(first feasible mask, canonical mask) on the free edges when the
    steady test finds a flow, else None.  The canonical mask is that of the
    first solution of the unforced oracle."""
    marks = _steady_marks(*args)
    if marks is None:
        return None
    net, active = args[0], args[1]
    free = set(_free_edges(*args[:3]))
    mask, _ = next(reference_solutions(*args))
    competitive = [e.id for e in net.edges if e.id in active]
    return marks, tuple(bool(bit) for bit, eid in zip(mask, competitive) if eid in free)


def _engine_phases(inst):
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return []
    return [(inst.network, frozenset(phase.active), frozenset(phase.resetting),
             inst.capacity, inst.supply) for phase in run.phases]


@settings(max_examples=60, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(random_instances().map(_engine_phases),
                 thin_flow_systems().map(lambda args: [args])))
def test_the_core_is_a_forest_exactly_when_it_is_one_path(phases):
    # `thin_flow` takes a core that is a forest for one s-t path.  The
    # oracle counts the s-t paths of the network of the core's edges.
    for args in phases:
        net, capacity = args[0], args[3]
        try:
            edges, _, core, _, _ = equilibrium._competitive(*args[:3])
            _, route = _thin_flow_route(args)
        except FotError:
            continue
        core_edges = tuple(e for e in edges if e.id in core)
        paths = Network(net.nodes, core_edges, net.source, net.sink).path_counts[net.source]
        one_path = paths.get(net.sink, 0) == 1
        assert equilibrium._forest(core_edges) == one_path
        assert (route == "path") == (one_path and all(capacity[e.id] > 0 for e in edges))


@settings(max_examples=40, deadline=None, phases=ENGINE_PHASES)
@given(st.one_of(tied_instances().map(_engine_phases),
                 thin_flow_systems().map(lambda args: [args])))
def test_the_first_feasible_mask_never_comes_after_the_canonical_one(phases):
    for args in phases:
        try:
            masks = _steady_phase_masks(args)
        except FotError:
            continue
        if masks is not None:
            first, canonical = masks
            assert first <= canonical


def test_tied_instances_reach_steady_phases_that_skip_masks():
    # Some steady phase where the skip passes over masks (the first
    # feasible mask is not all zeros) and more than one mask is feasible
    # (it is not all ones either), so the skipping search is tested on
    # engine phases where it matters.
    def skips(inst):
        for args in _engine_phases(inst):
            marks = _steady_marks(*args)
            if marks is not None and any(marks) and not all(marks):
                return True
        return False

    find(tied_instances(), skips, settings=settings(
        max_examples=100, derandomize=True, database=None, phases=[Phase.generate]))


@settings(max_examples=30, deadline=None, phases=ENGINE_PHASES)
@given(random_instances())
def test_the_steady_test_matches_the_minimum_cut_on_queue_free_phases(inst):
    # Without queues, P(1) holds the flows of value `supply` within the
    # capacities of the competitive edges: it is nonempty exactly when the
    # supply fits through a minimum cut of the competitive subnetwork.
    net = inst.network
    for args in _engine_phases(inst):
        active, resetting = args[1], args[2]
        if resetting:
            continue
        competitive = Network(net.nodes, tuple(e for e in net.edges if e.id in active),
                              net.source, net.sink)
        fits = inst.supply <= max_flow_value(competitive, inst.capacity)
        assert (_steady_marks(*args) is not None) == fits


# -- oracles from theory --------------------------------------------------------


def _assert_steady_exactly_when_the_supply_fits(inst):
    run = nash_flow(inst, phase_cap=400)
    assert run.steady == (inst.supply <= max_flow_value(inst.network, inst.capacity))


@settings(max_examples=40, deadline=None, phases=ENGINE_PHASES)
@given(random_instances())
def test_steady_exactly_when_the_supply_fits_through_a_minimum_cut(inst):
    # Cominetti, Correa & Olver (2022): queues stay bounded, and every label
    # ends with slope one, exactly when the supply is at most the capacity
    # of a minimum source-sink cut.
    try:
        _assert_steady_exactly_when_the_supply_fits(inst)
    except NoPathError:
        return


@pytest.mark.parametrize("transposed", [False, True], ids=["ladder", "transposed"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ladders_are_steady_exactly_when_the_supply_fits(n, transposed):
    inst = make_ladder(n, F(1, 1000))
    _assert_steady_exactly_when_the_supply_fits(transpose(inst) if transposed else inst)


scale_factors = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)


@settings(max_examples=25, deadline=None, phases=ENGINE_PHASES)
@given(random_instances(), scale_factors)
def test_scaling_capacities_and_supply_leaves_the_labels(inst, k):
    # Every rate, capacity and queue scales by k; waits and so the labels
    # do not change.
    scaled = Instance(inst.network, {eid: c * k for eid, c in inst.capacity.items()},
                      inst.transit, inst.supply * k)
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    again = nash_flow(scaled, phase_cap=400)
    assert again.labels == run.labels
    assert again.social_cost == run.social_cost


@settings(max_examples=25, deadline=None, phases=ENGINE_PHASES)
@given(random_instances(), scale_factors)
def test_scaling_transit_times_stretches_labels_and_cost(inst, k):
    # Time runs k times slower: l'(k x) = k l(x), so every label breakpoint
    # (x, y) moves to (k x, k y) with the same slopes, and the cost scales
    # by k.
    slow = Instance(inst.network, inst.capacity,
                    {eid: tau * k for eid, tau in inst.transit.items()}, inst.supply)
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    again = nash_flow(slow, phase_cap=400)
    for v, label in run.labels.items():
        if label is INF:
            assert again.labels[v] is INF
        else:
            stretched = again.labels[v]
            assert stretched.xs == tuple(x * k for x in label.xs)
            assert stretched.ys == tuple(y * k for y in label.ys)
            assert stretched.final_slope == label.final_slope
    assert again.social_cost == (INF if run.social_cost is INF else run.social_cost * k)


@settings(max_examples=40, deadline=None)
@given(random_instances())
def test_transposing_twice_is_the_identity(inst):
    assert transpose(transpose(inst)) == inst


@settings(max_examples=25, deadline=None, phases=ENGINE_PHASES)
@given(random_instances(), st.data())
def test_a_dead_end_edge_changes_nothing(inst, data):
    # An edge from a node the source reaches to a new node lies on no
    # source-sink path, so no flow enters it: the run on the original nodes
    # is the same, and the new node's label follows its tail's.
    net = inst.network
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    tail = data.draw(st.sampled_from(sorted(net.reachable_from(net.source))))
    grown = Instance(
        Network(net.nodes + ("dead",), net.edges + (Edge("to-dead", tail, "dead"),),
                net.source, net.sink),
        {**inst.capacity, "to-dead": data.draw(small_caps)},
        {**inst.transit, "to-dead": data.draw(small_taus)},
        inst.supply)
    try:
        again = nash_flow(grown, phase_cap=400)
    except SizeCapError:
        # The cap counts free edges, and the new edge can be one more.
        assert len(net.edges) == MAX_ACTIVE_EDGES
        return
    assert again.social_cost == run.social_cost
    assert again.steady == run.steady
    assert again.diverging == run.diverging
    assert {v: again.labels[v] for v in net.nodes} == run.labels


@settings(max_examples=25, deadline=None, phases=ENGINE_PHASES)
@given(random_instances(), st.data())
def test_edges_between_nodes_off_every_path_change_nothing(inst, data):
    # A node off every source-sink path either is reached from the source
    # and does not reach the sink (group A), or is not reached (group B,
    # which also takes two new nodes).  New edges inside A, inside B and
    # from B into A keep both groups so: no edge leaves A, none enters B.
    # Drawn along a topological order, they keep the network acyclic.  The
    # run is the same, and so is every label but those of A nodes that a
    # new edge from A enters and of the nodes below them, all in A; every
    # Braess cost is that of the subset without the new edges.
    net = inst.network
    from_source = net.reachable_from(net.source)
    on_paths = from_source & net.reaching_to(net.sink)
    order = ("x0", "x1") + net.topological_order()
    group_a = [v for v in order if v in from_source and v not in on_paths]
    group_b = [v for v in order if v not in from_source]
    pairs = [(u, w) for i, u in enumerate(order) for w in order[i + 1:]
             if w in group_a and u in group_a + group_b or w in group_b and u in group_b]
    drawn = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    new = [Edge(f"off{k}", u, w) for k, (u, w) in enumerate(drawn)]
    grown = Instance(
        Network(net.nodes + ("x0", "x1"), net.edges + tuple(new), net.source, net.sink),
        {**inst.capacity, **{e.id: data.draw(small_caps) for e in new}},
        {**inst.transit, **{e.id: data.draw(small_taus) for e in new}},
        inst.supply)
    try:
        run = nash_flow(inst, phase_cap=400)
    except NoPathError:
        return
    try:
        again = nash_flow(grown, phase_cap=400)
    except SizeCapError:
        # The cap counts free edges, and the new edges can add some.
        assert len(grown.network.edges) > MAX_ACTIVE_EDGES
        return
    assert (again.social_cost, again.steady, again.diverging) == (
        run.social_cost, run.steady, run.diverging)
    entered = set().union(*(grown.network.reachable_from(e.head)
                            for e in new if e.tail in group_a))
    assert entered <= set(group_a)
    assert {v: again.labels[v] for v in net.nodes if v not in entered} == {
        v: label for v, label in run.labels.items() if v not in entered}
    assert again.labels["x0"] is INF and again.labels["x1"] is INF
    if len(grown.network.edges) <= 10:
        report = braess_ratio(inst)
        cost = {entry.kept: (entry.cost, entry.error) for entry in report.entries}
        again = braess_ratio(grown)
        assert (again.full_cost, again.ratio) == (report.full_cost, report.ratio)
        for entry in again.entries:
            kept = tuple(eid for eid in entry.kept if eid in inst.capacity)
            assert (entry.cost, entry.error) == cost[kept]


def subdivided_chain_instance(rng):
    """Random chain of parallel paths with random attributes."""
    sections = rng.randrange(1, 3)
    nodes = [f"j{k}" for k in range(sections + 1)]
    edges = []
    for k in range(sections):
        for i in range(rng.randrange(1, 4)):
            pieces = rng.randrange(1, 3)  # keeps the edge count within the subset cap
            here = nodes[k]
            for p in range(pieces):
                target = nodes[k + 1] if p == pieces - 1 else f"m{k}_{i}_{p}"
                if target not in nodes and p != pieces - 1:
                    nodes.append(target)
                edges.append(Edge(f"c{k}_{i}_{p}", here, target))
                here = target
    all_nodes = []
    for e in edges:
        for v in (e.tail, e.head):
            if v not in all_nodes:
                all_nodes.append(v)
    net = Network(tuple(all_nodes), tuple(edges), f"j0", f"j{sections}")
    capacity = {e.id: F(rng.randrange(1, 7), rng.randrange(1, 3)) for e in edges}
    transit = {e.id: F(rng.randrange(0, 4)) for e in edges}
    return Instance(net, capacity, transit, F(rng.randrange(1, 7), rng.randrange(1, 3)))


def test_chain_of_parallel_paths_networks_never_benefit_from_deletions():
    # cross-module oracle: whenever the topology module certifies the
    # chains-of-parallel-paths property, the ratio must be exactly one
    rng = random.Random(99)
    checked = 0
    for _ in range(12):
        inst = subdivided_chain_instance(rng)
        ok, _ = uses_only_chains(inst.network)
        assert ok
        report = braess_ratio(inst)
        assert report.ratio == 1, (inst, report.ratio)
        checked += 1
    assert checked == 12

