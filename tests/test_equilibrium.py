from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot.core import (
    INF,
    ContractError,
    NoPathError,
    PhaseCapError,
    SizeCapError,
    UnsupportedTopologyError,
    restrict,
    transpose,
)
from fot.dynamics import certify_nash, validate_feasible
from fot import equilibrium
from fot.equilibrium import (
    MAX_ACTIVE_EDGES,
    nash_flow,
    next_event,
    thin_flow,
    verify_thin_flow,
)
from fot.gen import MnParams, geometric_alphas, make_chain, make_mn
from fot.pwl import PiecewiseLinear
from fot.topology import sp_tree

from helpers import ENGINE_PHASES, build_instance, enumerate_thin_flows, two_link_base_instance

F = Fraction


def ladder(n, eps, j=1, horizon=F(1)):
    return make_mn(MnParams(n=n, horizon=F(horizon),
                            alphas=geometric_alphas(n, F(eps), j)))


# -- per-phase derivative system ----------------------------------------------


def test_thin_flow_single_uncongested_edge():
    inst = build_instance([("e", "s", "t", 3, 0)], "s", "t", 1)
    tf = thin_flow(inst.network, frozenset({"e"}), frozenset(),
                   inst.capacity, inst.supply)
    assert tf.edge_rates["e"] == 1
    assert tf.label_slopes["t"] == 1


def test_thin_flow_two_link_first_phase():
    inst = two_link_base_instance()
    tf = thin_flow(inst.network, frozenset({"e1"}), frozenset(),
                   inst.capacity, inst.supply)
    assert tf.edge_rates["e1"] == 2
    assert tf.label_slopes["v2"] == 2


def test_thin_flow_two_link_second_phase():
    inst = two_link_base_instance()
    tf = thin_flow(inst.network, frozenset({"e1", "f1"}), frozenset({"e1"}),
                   inst.capacity, inst.supply)
    assert tf.edge_rates == {"e1": 1, "f1": 1}
    assert tf.label_slopes["v2"] == 1


def test_verify_thin_flow_rejects_tampering():
    inst = two_link_base_instance()
    active = frozenset({"e1", "f1"})
    resetting = frozenset({"e1"})
    good = thin_flow(inst.network, active, resetting, inst.capacity, inst.supply)
    assert verify_thin_flow(inst.network, active, resetting, inst.capacity,
                            inst.supply, good.label_slopes, good.edge_rates) is None
    bad_rates = dict(good.edge_rates)
    bad_rates["e1"], bad_rates["f1"] = F(2), F(0)
    assert verify_thin_flow(inst.network, active, resetting, inst.capacity,
                            inst.supply, good.label_slopes, bad_rates) is not None

    def reason(labels, rates):
        return verify_thin_flow(inst.network, active, resetting, inst.capacity,
                                inst.supply, {v: F(x) for v, x in labels.items()},
                                {e: F(x) for e, x in rates.items()})

    assert reason({"v1": 2, "v2": 1}, good.edge_rates) == "source label slope must be one"
    assert reason({"v1": 1, "v2": -1}, good.edge_rates) == "negative label slope at v2"
    # Conservation fails at both v1 and v2: the reason names the node that
    # comes first in `label_slopes`, whatever the hash seed.
    slopes = dict(good.label_slopes)
    for order in (["v1", "v2"], ["v2", "v1"]):
        assert reason({v: slopes[v] for v in order}, {"e1": 1, "f1": 0}) == (
            f"conservation fails at {order[0]}")

    # `reason` reads inst, active and resetting when called.  u's only
    # in-edge d is idle: with d off the competitive set u has no in-edge,
    # and with d on it u's slope 0 is below d's ratio max(1, 0/1).
    inst = build_instance([("e", "s", "t", 1, 0), ("d", "s", "u", 1, 0)], "s", "t", 1)
    labels, rates = {"s": 1, "t": 1, "u": 0}, {"e": 1, "d": 0}
    active, resetting = frozenset({"e"}), frozenset()
    assert reason(labels, rates) == "u has no competitive in-edge"
    active = frozenset({"e", "d"})
    assert reason(labels, rates) == "label slope at u is not the incoming minimum"
    assert reason({**labels, "u": 1}, rates) is None


def test_queued_edge_into_a_dead_end_is_not_forced():
    # The queued edge q feeds the dead end d, which reaches no sink, so q
    # carries no flow and d's slope is 0.  Only queued edges whose head
    # reaches the sink are forced into every support; forcing q would leave
    # no support that is its own s-t core.
    inst = build_instance([("e", "s", "t", 1, 1), ("q", "s", "d", 1, 1)], "s", "t", 2)
    args = (inst.network, frozenset({"e", "q"}), frozenset({"q"}),
            inst.capacity, inst.supply)
    solutions = list(enumerate_thin_flows(*args))
    assert solutions and all(tf.label_slopes == {"s": 1, "t": 2, "d": 0}
                             for tf in solutions)
    assert thin_flow(*args) == solutions[0]
    assert solutions[0].edge_rates == {"e": 2, "q": 0}


def test_next_event_two_link_first_phase():
    inst = two_link_base_instance()
    arrival = {"v1": F(0), "v2": F(0)}
    queue = {"e1": F(0), "f1": F(0)}
    active = frozenset({"e1"})
    tf = thin_flow(inst.network, active, frozenset(), inst.capacity, inst.supply)
    delta, activations, depletions = next_event(inst, arrival, queue, tf, active)
    assert delta == 1 and activations == ("f1",) and depletions == ()


def test_next_event_final_phase_returns_infinity():
    inst = two_link_base_instance()
    arrival = {"v1": F(1), "v2": F(2)}
    queue = {"e1": F(1), "f1": F(0)}
    active = frozenset({"e1", "f1"})
    tf = thin_flow(inst.network, active, frozenset({"e1"}),
                   inst.capacity, inst.supply)
    delta, _, _ = next_event(inst, arrival, queue, tf, active)
    assert delta is INF


# -- full runs ------------------------------------------------------------------


def test_two_link_run():
    run = nash_flow(two_link_base_instance())
    assert len(run.phases) == 2
    assert run.phases[0].end == 1
    assert run.events[0].activations == ("f1",)
    assert run.events[0].tail_arrival["f1"] == 1
    assert run.social_cost == 1
    assert run.steady and not run.diverging
    assert run.labels["v2"] == PiecewiseLinear.from_points(
        [(F(0), F(0)), (F(1), F(2))], F(1))
    assert run.flow.inflow["e1"](F(2)) == 3  # rate 2 until 1, then rate 1


def test_ladder3_run_matches_closed_forms():
    # Frozen from the closed forms of the three-level geometric ladder with
    # eps = 1/10: first bypass activates at 1001/99 with unit-speed tail,
    # second at 109291/990 with tail arrival 1001/9; the first chain edge
    # has waiting time 91/101 at the first boundary; cost settles at 201/110.
    run = nash_flow(ladder(3, F(1, 10)))
    assert len(run.phases) == 3
    assert [p.start for p in run.phases] == [F(0), F(1001, 99), F(109291, 990)]

    assert run.events[0].activations == ("f1",)
    assert run.events[0].tail_arrival["f1"] == F(1001, 99)
    assert run.events[1].activations == ("f2",)
    assert run.events[1].tail_arrival["f2"] == F(1001, 9)

    p0, p1, p2 = run.phases
    assert p0.active == ("e1", "e2") and p0.resetting == ()
    assert p0.label_slopes["v2"] == F(110, 101)
    assert p0.label_slopes["v3"] == F(100, 91)
    assert p1.active == ("e1", "e2", "f1") and p1.resetting == ("e1", "e2")
    assert p1.label_slopes["v3"] == F(1100, 1091)
    assert p1.label_slopes["v2"] == F(110110, 110191)
    assert p1.edge_rates["e1"] == F(11011, 10910)
    assert p1.edge_rates["f1"] == F(99, 1091)
    assert p2.active == ("e1", "e2", "f1", "f2")
    assert all(s == 1 for s in p2.label_slopes.values())

    theta1 = F(1001, 99)
    assert run.labels["v2"](theta1) - theta1 == F(91, 101)
    assert run.social_cost == F(201, 110)
    assert run.steady and not run.diverging


def test_ladder3_cost_at_hundredth():
    assert nash_flow(ladder(3, F(1, 100))).social_cost == F(20001, 10100)


def test_ladder3_sink_latency_past_second_bypass_arrival():
    # Past the second bypass arrival time 1001/9 the run is in its final
    # phase, so the sink latency sits at its supremum, well above the
    # guaranteed (1 - 2n*eps)(n-1)T = 4/5.
    run = nash_flow(ladder(3, F(1, 10)))
    for probe in (F(1001, 9), F(1001, 9) + 1):
        latency = run.labels["v3"](probe) - probe
        assert latency == F(201, 110)
        assert latency > F(4, 5)


def test_ladder4_bypass_arrival_times_match_closed_form():
    eps = F(1, 10)
    run = nash_flow(ladder(4, eps))
    alphas = geometric_alphas(4, eps, 1)
    expected = {f"f{k}": alphas[3] / (alphas[k - 1] - alphas[3]) for k in (1, 2, 3)}
    seen = {}
    for event in run.events:
        for eid in event.activations:
            seen[eid] = event.tail_arrival[eid]
    assert seen == expected
    assert run.steady
    assert run.social_cost > (1 - 2 * 4 * eps) * 3  # strict exact comparison


@pytest.mark.parametrize("n", [10, 12])
def test_long_ladders_meet_the_lemma1_bound(n):
    # More competitive edges than the cap, but the label slopes leave at
    # most n - 1 of them free.
    eps = F(1, 1000)
    run = nash_flow(ladder(n, eps))
    assert max(len(p.active) for p in run.phases) > MAX_ACTIVE_EDGES
    assert run.social_cost > (1 - 2 * n * eps) * (n - 1)


def test_seventeen_parallel_links_exceed_the_free_edge_cap():
    inst = build_instance([(f"e{k}", "s", "t", 1, 1) for k in range(17)], "s", "t", 1)
    with pytest.raises(SizeCapError, match="free edges"):
        nash_flow(inst)


def test_ladder_chain_queues_never_drain():
    # Queues on the chain edges shrink between the first and last boundary
    # but never empty, and hold constant afterwards.
    run = nash_flow(ladder(3, F(1, 10)))
    assert all(not e.depletions for e in run.events)
    final = run.phases[-1]
    for eid in ("e1", "e2"):
        assert eid in final.resetting
        assert final.edge_rates[eid] == run.instance.capacity[eid]


def test_transposed_ladder_single_queue_then_even_split():
    inst = transpose(ladder(3, F(1, 10)))
    run = nash_flow(inst)
    assert len(run.phases) == 2
    # both bypasses become competitive at the same boundary
    assert set(run.events[0].activations) == {"f1", "f2"}
    assert run.phases[0].resetting == ()
    assert run.phases[1].resetting == ("e2",)  # the single queue
    assert run.social_cost == 1
    assert run.steady


def test_queue_depletion_and_divergence_on_partial_ladder():
    # Keeping only e1, e2, f1 of the three-level ladder: after the first
    # bypass joins, the first chain queue drains at 81/109100 per entry unit
    # from mass 91/100 and empties at exactly 100100/81; afterwards the label
    # clock at the middle node snaps back to unit speed while the remaining
    # capacity (9/100 + 1001/1000 < 11/10) cannot carry the supply, so the
    # run diverges.  All values derived by hand from the phase equations.
    inst = restrict(ladder(3, F(1, 10)), ["e1", "e2", "f1"])
    run = nash_flow(inst)
    assert [p.start for p in run.phases] == [F(0), F(91, 9), F(100100, 81)]
    assert run.events[0].activations == ("f1",)
    assert run.events[1].activations == ()
    assert run.events[1].depletions == ("e1",)
    middle = run.phases[1]
    assert middle.resetting == ("e1", "e2")
    assert middle.label_slopes["v2"] == F(110110, 110191)
    final = run.phases[2]
    assert final.resetting == ("e2", "f1")
    assert final.label_slopes["v2"] == 1
    assert final.label_slopes["v3"] == F(1100, 1091)
    assert run.diverging and not run.steady
    assert run.social_cost is INF


def test_reduced_ladder_is_immediately_steady():
    inst = restrict(ladder(3, F(1, 10)), ["e1", "f1", "f2"])
    run = nash_flow(inst)
    assert len(run.phases) == 1
    assert run.social_cost == 1
    assert run.steady


def test_overloaded_instance_diverges():
    inst = build_instance([("e", "s", "t", 1, 0)], "s", "t", 2)
    run = nash_flow(inst)
    assert run.diverging and not run.steady
    assert run.social_cost is INF


def test_no_path_raises():
    inst = restrict(two_link_base_instance(), [])
    with pytest.raises(NoPathError):
        nash_flow(inst)


def test_cyclic_network_rejected():
    inst = build_instance(
        [("a", "s", "x", 1, 0), ("b", "x", "s", 1, 0), ("c", "x", "t", 1, 0)],
        "s", "t", 1)
    with pytest.raises(UnsupportedTopologyError):
        nash_flow(inst)


def test_thin_flow_refuses_a_cyclic_network():
    # As `nash_flow` does before it: the structural shortcuts and the label
    # pass read the network's topological order.
    inst = build_instance(
        [("a", "s", "x", 1, 0), ("b", "x", "s", 1, 0), ("c", "x", "t", 1, 0)],
        "s", "t", 1)
    args = (inst.network, frozenset({"a", "b", "c"}), frozenset(), inst.capacity, inst.supply)
    with pytest.raises(UnsupportedTopologyError):
        thin_flow(*args)
    with pytest.raises(UnsupportedTopologyError):
        list(enumerate_thin_flows(*args))


def test_thin_flow_refuses_inconsistent_edge_sets():
    # A resetting edge must be competitive, and a competitive edge must
    # hang off the source through competitive edges.
    inst = build_instance([("a", "s", "x", 1, 0), ("b", "x", "t", 1, 0)], "s", "t", 1)
    net, capacity, supply = inst.network, inst.capacity, inst.supply
    with pytest.raises(ContractError, match="^resetting edges must be competitive$"):
        thin_flow(net, frozenset({"b"}), frozenset({"a"}), capacity, supply)
    with pytest.raises(ContractError, match="^competitive edge b is unreachable from the source$"):
        thin_flow(net, frozenset({"b"}), frozenset(), capacity, supply)


def test_phase_cap():
    with pytest.raises(PhaseCapError):
        nash_flow(two_link_base_instance(), phase_cap=1)


def test_runs_pass_independent_validators():
    for inst in [two_link_base_instance(), ladder(3, F(1, 10)),
                 transpose(ladder(3, F(1, 10)))]:
        run = nash_flow(inst)
        assert validate_feasible(inst, run.flow).ok
        ok, _ = certify_nash(inst, run.flow)
        assert ok


# -- series-parallel exit maps -----------------------------------------------------


def _exit_map(edges, resetting=()):
    """The exit map of the series-parallel network of `edges`, each (id,
    tail, head, capacity), from s to t, with the edges of `resetting`
    queued."""
    inst = build_instance([(eid, u, w, c, 0) for eid, u, w, c in edges], "s", "t", 1)
    tree = sp_tree(inst.network.edges, "s", "t")
    return equilibrium._exit_maps(tree, inst.capacity, frozenset(resetting))[0]


@pytest.mark.parametrize("edges, resetting, exit_slope", [
    # Both links free: slope one until the supply fills both, then r / 3.
    ([("a", "s", "t", 1), ("b", "s", "t", 2)], (), lambda r: max(1, r / 3)),
    # The queued link alone up to slope one, where the free link takes
    # [0, 2] at slope one, then both.
    ([("a", "s", "t", 1), ("b", "s", "t", 2)], ("a",), lambda r: r if r <= 1 else max(1, r / 3)),
    # Two free edges in series: the narrow second one breaks at r = 1, where
    # r / f1(r) meets its breakpoint, inside the first edge's flat part.
    ([("a", "s", "m", 2), ("b", "m", "t", 1)], (), lambda r: max(1, r)),
    # A queued edge, then a free edge it overfills: 2r.
    ([("a", "s", "m", 1), ("b", "m", "t", F(1, 2))], ("a",), lambda r: 2 * r),
    # A queued edge parallel to the free two-edge path above: the queued
    # edge alone up to slope one, the path fills [0, 1] at slope one, and
    # beyond that both take y each.
    ([("a", "s", "m", 2), ("b", "m", "t", 1), ("c", "s", "t", 1)], ("c",),
     lambda r: r if r <= 1 else max(1, r / 2)),
], ids=["two-links", "queued-link", "series", "queued-series", "edge-beside-path"])
def test_exit_maps_match_hand_computed_components(edges, resetting, exit_slope):
    f = _exit_map(edges, resetting)
    grid = [F(k, 4) for k in range(25)]
    assert [f(r) for r in grid] == [exit_slope(r) for r in grid]


def test_exit_map_inverses_bracket_the_flat_part():
    # The queued link of capacity 1 beside a free link of capacity 2 exits
    # at slope one for every inflow in [1, 3].
    f = _exit_map([("a", "s", "t", 1), ("b", "s", "t", 2)], ("a",))
    def inverses(y):
        return tuple(equilibrium._inverse(f, y, side) for side in (bisect_left, bisect_right))

    assert inverses(F(1)) == (1, 3)
    assert inverses(F(1, 2)) == (F(1, 2), F(1, 2))
    assert inverses(F(2)) == (6, 6)


def test_the_split_fills_each_part_to_its_lower_inverse_first():
    # Two paths side by side, the free one (a, b) first in the tree: at
    # inflow 3/2 the exit slope is one, where the path through the queued
    # edge c needs 1 and the free path takes anything in [0, 1].  So the
    # free path gets the 1/2 left over, not all it could take.
    inst = build_instance([("c", "s", "n", 1, 0), ("d", "n", "t", 2, 0),
                           ("a", "s", "m", 2, 0), ("b", "m", "t", 1, 0)], "s", "t", 1)
    tree = sp_tree(inst.network.edges, "s", "t")
    assert [part[1][0].id for part in tree[1]] == ["a", "c"]
    rates = {}
    equilibrium._sp_split(equilibrium._exit_maps(tree, inst.capacity, frozenset({"c"})),
                          F(1), F(3, 2), rates)
    assert rates == {"a": F(1, 2), "b": F(1, 2), "c": 1, "d": 1}


def test_the_series_parallel_proposal_routes_the_edge_beside_the_path():
    # Supply 3 exits at slope 3/2: the queued edge c takes 3/2, and so does
    # the path, whose first edge a stays at slope one (slack, a forest).
    # The full queued edge and the path's capacity hold 2 < 3: not steady.
    inst = build_instance([("a", "s", "m", 2, 0), ("b", "m", "t", 1, 0), ("c", "s", "t", 1, 0)],
                          "s", "t", 3)
    tf = thin_flow(inst.network, frozenset({"a", "b", "c"}), frozenset({"c"}),
                   inst.capacity, inst.supply)
    assert tf.label_slopes == {"s": 1, "m": 1, "t": F(3, 2)}
    assert tf.edge_rates == {"a": F(3, 2), "b": F(3, 2), "c": F(3, 2)}


# -- independent oracle for chains of parallel links ----------------------------


def chain_cost_oracle(sections, supply):
    """Cost of a chain instance from first principles: per section, sort the
    links by transit time and charge the transit of the last link needed to
    cover the supply; sections add up; short capacity means unbounded."""
    total = F(0)
    for section in sections:
        links = sorted(section)
        running = F(0)
        cost = None
        for tau, cap in links:
            running += cap
            if running >= supply:
                cost = tau
                break
        if cost is None:
            return INF
        total += cost
    return total


transits = st.fractions(min_value=0, max_value=5, max_denominator=8)
capacities = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8)
sections_strategy = st.lists(
    st.lists(st.tuples(transits, capacities), min_size=1, max_size=4),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, phases=ENGINE_PHASES)
@given(sections_strategy, st.fractions(min_value=F(1, 2), max_value=6, max_denominator=8))
def test_chain_cost_matches_oracle(sections, supply):
    inst = make_chain(sections, supply)
    run = nash_flow(inst)
    assert run.social_cost == chain_cost_oracle(sections, supply)
    # on chains the sink latency never decreases over entry time
    sink_label = run.labels[inst.network.sink]
    assert all(s >= 1 for s in sink_label.slopes())
