import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot import dynamics, equilibrium
from fot.core import INF, ContractError, FotError, Instance, MalformedFlowError
from fot.dynamics import (
    CAPACITY,
    NODE_CONSERVATION,
    NO_OVERTAKING,
    SHORTEST_PATHS,
    FlowOverTime,
    certify_nash,
    flow_from_obj,
    flow_to_obj,
    labels,
    validate_feasible,
)
from fot.pwl import PiecewiseLinear

from helpers import (
    build_instance,
    ladder3_minus_middle_flow,
    ladder3_minus_middle_instance,
    rates,
    two_link_all_on_slow_flow,
    two_link_base_instance,
    two_link_equilibrium_flow,
    zero_flow,
)

F = Fraction


def waiting_time(inst, flow, edge_id, at):
    return dynamics._edge_curves(inst, flow, edge_id).wait(at)


def test_waiting_time_empty_edge_is_zero():
    inst = two_link_base_instance()
    flow = zero_flow(inst)
    for at in [F(0), F(1), F(100)]:
        assert waiting_time(inst, flow, "e1", at) == 0


def test_waiting_time_two_link_run():
    inst = two_link_base_instance()
    flow = two_link_equilibrium_flow()
    assert waiting_time(inst, flow, "e1", F(1)) == F(1)
    assert waiting_time(inst, flow, "e1", F(1, 2)) == F(1, 2)
    assert waiting_time(inst, flow, "f1", F(3)) == F(0)


def test_labels_zero_queue_zero_transit():
    inst = build_instance(
        [("a", "v1", "v2", 5, 0), ("b", "v2", "v3", 5, 0)],
        source="v1", sink="v3", supply=1)
    flow = FlowOverTime(
        inflow={"a": rates((0, 1)), "b": rates((0, 1))},
        outflow={"a": rates((0, 1)), "b": rates((0, 1))},
        sink_cumulative=rates((0, 1)),
    )
    for v, label in labels(inst, flow)[0].items():
        assert label == PiecewiseLinear.identity()


def test_labels_two_link_run():
    inst = two_link_base_instance()
    lab, _ = labels(inst, two_link_equilibrium_flow())
    assert lab["v1"] == PiecewiseLinear.identity()
    assert lab["v2"] == PiecewiseLinear.from_points([(F(0), F(0)), (F(1), F(2))], F(1))


def _unreachable_tail_case():
    inst = build_instance(
        [("a", "v1", "v2", 1, 0), ("b", "v3", "v2", 1, 0)],
        source="v1", sink="v2", supply=1)
    flow = FlowOverTime(
        inflow={"a": rates((0, 1)), "b": rates()},
        outflow={"a": rates((0, 1)), "b": rates()},
        sink_cumulative=rates((0, 1)),
    )
    return inst, flow


def test_labels_unreachable_node_is_infinite():
    inst, flow = _unreachable_tail_case()
    lab, arrivals = labels(inst, flow)
    assert lab["v3"] is INF
    assert set(arrivals) == {"a"}  # no head-arrival curve from an unreachable tail


def test_labels_reduced_ladder_constant_transit():
    inst = ladder3_minus_middle_instance()
    lab, _ = labels(inst, ladder3_minus_middle_flow())
    assert lab["v3"] == PiecewiseLinear.affine(F(1), F(1))  # entry time plus one


def test_node_latency():
    lab, _ = labels(two_link_base_instance(), two_link_equilibrium_flow())
    for v, at, latency in (("v1", F(5), 0), ("v2", F(1), 1), ("v2", F(7), 1),
                           ("v2", F(1, 2), F(1, 2))):
        assert lab[v](at) - at == latency


def test_validate_feasible_accepts_equilibrium():
    inst = two_link_base_instance()
    report = validate_feasible(inst, two_link_equilibrium_flow(),
                               sample_grid=[F(0), F(1, 3), F(5)])
    assert report.ok, str(report)


def test_validate_feasible_accepts_reduced_ladder():
    inst = ladder3_minus_middle_instance()
    assert validate_feasible(inst, ladder3_minus_middle_flow()).ok


def test_validate_all_zero_flow_breaks_source_conservation():
    inst = two_link_base_instance()
    report = validate_feasible(inst, zero_flow(inst))
    assert any(v.condition == NODE_CONSERVATION and v.where == "v1"
               for v in report.violations)
    assert str(report) == "NodeConservation(3) at v1, time 1: 0 vs 2 flow conservation broken"


rate_curves = st.lists(
    st.tuples(st.fractions(min_value=0, max_value=6, max_denominator=4),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    max_size=4).map(lambda pairs: PiecewiseLinear.from_rate_segments(sorted(pairs)))


@settings(max_examples=200)
@given(st.lists(rate_curves, max_size=3), st.lists(rate_curves, max_size=3), rate_curves)
def test_a_node_balances_exactly_when_its_sums_agree(plus, minus, part):
    # Node conservation is decided from slope changes, without the sums
    # that a failing node builds for its witness.
    assert dynamics._balanced(plus, minus) == (dynamics._total(plus) == dynamics._total(minus))
    assert dynamics._balanced(plus, [dynamics._total(plus) - part, part])


def test_validate_capacity_violation():
    inst = two_link_base_instance()
    flow = FlowOverTime(
        inflow={"e1": rates((0, 2)), "f1": rates()},
        outflow={"e1": rates((0, 2)), "f1": rates()},
        sink_cumulative=rates((0, 2)),
    )
    report = validate_feasible(inst, flow)
    assert any(v.condition == CAPACITY and v.where == "e1"
               for v in report.violations)
    assert str(report) == "Capacity(1) at e1, time 0: 2 vs 1 outflow rate above capacity"


def test_validate_rejects_malformed_flow():
    inst = two_link_base_instance()
    broken = FlowOverTime(
        inflow={"e1": rates((0, 1))},  # missing f1
        outflow={"e1": rates((0, 1)), "f1": rates()},
        sink_cumulative=rates((0, 1)),
    )
    with pytest.raises(MalformedFlowError):
        validate_feasible(inst, broken)
    decreasing = FlowOverTime(
        inflow={"e1": PiecewiseLinear.from_points([(F(0), F(0)), (F(1), F(-1))], F(0)),
                "f1": rates()},
        outflow={"e1": rates(), "f1": rates()},
        sink_cumulative=rates(),
    )
    with pytest.raises(MalformedFlowError):
        validate_feasible(inst, decreasing)


def test_certify_nash_accepts_equilibrium():
    inst = two_link_base_instance()
    ok, report = certify_nash(inst, two_link_equilibrium_flow())
    assert ok and report.ok


def test_certify_nash_returns_its_labels_and_leaves_only_edge_curves_in_the_memo():
    # The labels a passing check derived come back on its report and stay
    # out of the flow's memo, which holds one curve entry per edge id; a
    # failing check returns no labels, and the report compares without them.
    inst = two_link_base_instance()
    flow = two_link_equilibrium_flow()
    ok, report = certify_nash(inst, flow)
    assert ok and set(flow._edge_memo) <= set(inst.edge_ids)
    assert report.labels == labels(inst, flow)[0]
    assert report == dynamics.ViolationReport()
    slow = two_link_all_on_slow_flow()
    ok, report = certify_nash(inst, slow)
    assert not ok and report.labels is None
    assert set(slow._edge_memo) <= set(inst.edge_ids)


def test_certify_nash_accepts_reduced_ladder_even_split():
    inst = ladder3_minus_middle_instance()
    ok, _ = certify_nash(inst, ladder3_minus_middle_flow())
    assert ok


def test_certify_nash_rejects_all_on_slow_link():
    # The fast link is free at time zero, so pushing everything onto the slow
    # one violates both characterizations, and they must agree on that.
    inst = two_link_base_instance()
    ok, report = certify_nash(inst, two_link_all_on_slow_flow())
    assert not ok
    conditions = {v.condition for v in report.violations}
    assert SHORTEST_PATHS in conditions and NO_OVERTAKING in conditions
    assert str(report) == (
        "ShortestPaths at f1, time 0: 1 vs 0 inflow on a currently non-shortest edge\n"
        "NoOvertaking at v2, time 1: 0 vs 2 sink arrivals out of step with entries")


def test_certify_nash_rejects_inflow_as_the_edge_turns_slower():
    # Everything rides the fast link: its wait grows as t and overtakes the
    # slow link's transit 1 at time 1.  From there the gap of the fast link
    # starts at zero and rises while it still takes inflow.
    inst = two_link_base_instance()
    flow = FlowOverTime(
        inflow={"e1": rates((0, 2)), "f1": rates()},
        outflow={"e1": rates((0, 1)), "f1": rates()},
        sink_cumulative=rates((0, 1)),
    )
    assert validate_feasible(inst, flow).ok
    ok, report = certify_nash(inst, flow)
    assert not ok
    first = report.violations[0]
    assert (first.condition, first.where, first.at, first.lhs) == (SHORTEST_PATHS, "e1", 1, 0)
    assert str(report) == (
        "ShortestPaths at e1, time 1: 0 vs 0 inflow on a currently non-shortest edge\n"
        "NoOvertaking at v2, time 2: 3 vs 4 sink arrivals out of step with entries")


@pytest.mark.parametrize("case", ["f1-transit-2", "e1-outflow-rate-3"])
def test_certify_nash_names_the_first_violation_of_an_infeasible_flow(case, monkeypatch):
    # The engine's two-link flow, checked against the instance with f1's
    # transit raised to 2 (the verdicts disagree), or with e1's outflow
    # rate raised to 3 (the exit map cannot be composed).
    inst = two_link_base_instance()
    flow = equilibrium.nash_flow(inst).flow
    if case == "f1-transit-2":
        inst = Instance(inst.network, inst.capacity, {**inst.transit, "f1": F(2)}, inst.supply)
    else:
        flow = FlowOverTime(flow.inflow, {**flow.outflow, "e1": rates((0, 3))},
                            flow.sink_cumulative)
    first = validate_feasible(inst, flow).violations[0]
    with pytest.raises(ContractError) as raised:
        certify_nash(inst, flow)
    assert str(raised.value) == f"certify_nash needs a feasible flow; first violation: {first}"
    # A feasible flow never runs the feasibility check.
    calls = []
    monkeypatch.setattr(dynamics, "validate_feasible",
                        lambda *args: calls.append(args) or validate_feasible(*args))
    assert certify_nash(two_link_base_instance(), two_link_equilibrium_flow())[0]
    assert not certify_nash(two_link_base_instance(), two_link_all_on_slow_flow())[0]
    assert calls == []


@pytest.mark.parametrize("path", [("s", "t"), ("s", "v", "t")])
def test_certify_nash_names_a_violation_on_an_edge_into_a_one_edge_head(path):
    # Edge a lets out at rate 3 what enters at rate 1, so its exit map and
    # the label of its head, which has no other in-edge, fall.  The
    # certificate skips the zero gap of a, and still meets the falling
    # label where the next edge or the sink arrivals are composed with it.
    names = "ab"[:len(path) - 1]
    inst = build_instance([(name, tail, head, 1, 0)
                           for name, tail, head in zip(names, path, path[1:])],
                          source="s", sink="t", supply=1)
    flow = FlowOverTime(inflow={name: rates((0, 1)) for name in names},
                        outflow={name: rates((0, 3 if name == "a" else 1)) for name in names},
                        sink_cumulative=rates((0, 1)))
    if len(names) == 1:
        lab, arrivals = labels(inst, flow)
        assert arrivals["a"] is lab["t"] and not lab["t"].is_nondecreasing()
    else:
        with pytest.raises(ContractError):
            labels(inst, flow)
    first = validate_feasible(inst, flow).violations[0]
    assert first.where == "a"
    with pytest.raises(ContractError) as raised:
        certify_nash(inst, flow)
    assert str(raised.value) == f"certify_nash needs a feasible flow; first violation: {first}"


def test_flow_json_roundtrip():
    flow = two_link_all_on_slow_flow()
    again = flow_from_obj(flow_to_obj(flow))
    assert again.inflow == dict(flow.inflow)
    assert again.outflow == dict(flow.outflow)
    assert again.sink_cumulative == flow.sink_cumulative


def _reachable_tail_edges(inst):
    reach = inst.network.reachable_from(inst.network.source)
    return [e.id for e in inst.network.edges if e.tail in reach]


@pytest.mark.parametrize("check, edges", [
    (certify_nash, _reachable_tail_edges),
    (lambda inst, flow: validate_feasible(inst, flow,
                                          sample_grid=[F(0), F(1, 3), F(1), F(5)]),
     lambda inst: list(inst.edge_ids)),
], ids=["certify_nash", "validate_feasible"])
def test_checkers_derive_each_edge_curves_once(monkeypatch, check, edges):
    # One call derives each edge's shifted outflow, queue, wait and exit map
    # once, however many probes, labels or certificates then use them.  The
    # certificate reads only edges whose tail the source reaches; the
    # feasibility check reads every edge.
    derived = []
    derive = dynamics._edge_curves

    def counted(inst, flow, edge_id):
        derived.append(edge_id)
        return derive(inst, flow, edge_id)

    monkeypatch.setattr(dynamics, "_edge_curves", counted)
    for inst, flow in [
        (two_link_base_instance(), two_link_equilibrium_flow()),
        (ladder3_minus_middle_instance(), ladder3_minus_middle_flow()),
        _unreachable_tail_case(),
    ]:
        derived.clear()
        check(inst, flow)
        assert sorted(derived) == sorted(edges(inst))


def _outcome(check, inst, flow):
    """What a check reports, or the error it raises."""
    try:
        return str(check(inst, flow))
    except FotError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_memoized_edge_curves_hide_no_violation():
    # The engine has checked its flow with both checkers, so the flow holds
    # the curves of every edge.  Each case below must be judged as a flow
    # that never met a checker is.
    inst = two_link_base_instance()
    flow = equilibrium.nash_flow(inst).flow
    assert validate_feasible(inst, flow).ok and certify_nash(inst, flow)[0]
    broken = {**flow.outflow, "e1": rates((0, 3))}  # above capacity 1
    edited = dataclasses.replace(flow, outflow=dict(flow.outflow))
    validate_feasible(inst, edited)
    edited.outflow["e1"] = broken["e1"]  # in place, after a check
    cases = [
        (inst, FlowOverTime(flow.inflow, broken, flow.sink_cumulative)),
        (inst, dataclasses.replace(flow, outflow=broken)),
        (inst, edited),
        (dataclasses.replace(inst, capacity={**inst.capacity, "e1": F(2)}), flow),
        (dataclasses.replace(inst, transit={**inst.transit, "f1": F(2)}), flow),
    ]
    for case_inst, case_flow in cases:
        unchecked = FlowOverTime(dict(case_flow.inflow), dict(case_flow.outflow),
                                 case_flow.sink_cumulative)
        assert not validate_feasible(case_inst, case_flow).ok
        for check in (validate_feasible, certify_nash):
            assert _outcome(check, case_inst, case_flow) == _outcome(check, case_inst, unchecked)
    # The wider edge no longer drains at capacity, and its flow no longer
    # keeps to shortest paths.
    assert certify_nash(cases[3][0], flow)[0] is False


def test_certify_nash_derives_labels_through_the_module_attribute(monkeypatch):
    # Hooks that replace `fot.dynamics.labels` (tracing, this counter) must see
    # every label derivation: once per certificate, once per engine run.
    calls = []
    derive = dynamics.labels

    def counted(inst, flow):
        calls.append(inst)
        return derive(inst, flow)

    monkeypatch.setattr(dynamics, "labels", counted)
    inst = two_link_base_instance()
    assert certify_nash(inst, two_link_equilibrium_flow())[0]
    assert calls == [inst]
    calls.clear()
    equilibrium.nash_flow(inst)
    assert calls == [inst]
