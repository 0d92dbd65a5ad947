import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from fot import equilibrium
from fot.cli import main
from fot.braess import (
    braess_ratio,
    default_transpose_m3_grid,
    extended_ratio,
    sweep_transpose_m3,
    transposed_ladder3_instance,
)
from fot.core import (
    INF,
    Instance,
    NoPathError,
    ParameterError,
    PhaseCapError,
    SizeCapError,
    dumps,
    instance_to_obj,
    restrict,
    st_core,
    transpose,
)
from fot.gen import MnParams, geometric_alphas, make_chain, make_ladder, make_mn, random_dag

from helpers import build_instance, two_link_base_instance

F = Fraction


def ladder(n, eps, j=1):
    return make_mn(MnParams(n=n, horizon=F(1), alphas=geometric_alphas(n, F(eps), j)))


def test_extended_ratio_rules():
    assert extended_ratio(INF, INF) == 1
    assert extended_ratio(INF, F(2)) is INF
    assert extended_ratio(F(2), INF) == 0
    assert extended_ratio(F(3), F(2)) == F(3, 2)
    assert extended_ratio(F(0), F(0)) == 1
    assert extended_ratio(F(1), F(0)) is INF
    assert extended_ratio(F(0), F(5)) == 0


def test_braess_ratio_ladder3_at_hundredth():
    report = braess_ratio(ladder(3, F(1, 100)), label="ladder3")
    assert report.full_cost == F(20001, 10100)
    assert report.ratio == F(20001, 10100)
    assert report.ratio > F(99, 50)
    assert report.argmax == ("e1", "f1", "f2")  # everything except e2
    assert report.paradox
    assert len(report.entries) == 16
    by_kept = {e.kept: e.cost for e in report.entries}
    assert by_kept[("e1", "f1", "f2")] == 1  # the reduced network costs the horizon
    assert by_kept[()] is INF
    assert by_kept[("e1", "e2")] is INF  # chain alone cannot carry the supply


def test_braess_ratio_transposed_ladders_are_even():
    for n in (3, 4):
        inst = transpose(ladder(n, F(1, 10)))
        report = braess_ratio(inst)
        assert report.full_cost == 1
        assert report.ratio == 1
        assert not report.paradox


def test_two_parallel_links_have_no_paradox():
    report = braess_ratio(two_link_base_instance())
    assert report.ratio == 1 and not report.paradox


def test_chains_have_no_paradox_and_monotone_costs():
    chains = [
        make_chain([[(F(0), F(1)), (F(2), F(3))]], supply=F(2)),
        make_chain([[(F(0), F(2))], [(F(1), F(1)), (F(1), F(2))]], supply=F(3, 2)),
        make_chain([[(F(0), F(1)), (F(1), F(1)), (F(2), F(1))]], supply=F(2)),
    ]
    for inst in chains:
        report = braess_ratio(inst)
        assert report.ratio == 1 and not report.paradox
        # deleting edges never helps on a chain: every subset costs at least
        # as much as the full network
        for entry in report.entries:
            assert entry.cost >= report.full_cost


def test_braess_cap_and_explicit_subsets():
    inst = ladder(3, F(1, 10))
    with pytest.raises(SizeCapError):
        braess_ratio(inst, cap=3)
    report = braess_ratio(inst, subsets=[("e1", "f1", "f2")])
    assert report.ratio == report.full_cost  # the reduced network costs 1
    with pytest.raises(ParameterError):
        braess_ratio(inst, subsets=[("nope",)])


def _random_dag_instance(nodes, edges, seed):
    net = random_dag(nodes, edges, seed)
    rng = random.Random(seed)
    return Instance(net,
                    capacity={e.id: F(rng.randint(1, 3)) for e in net.edges},
                    transit={e.id: F(rng.randint(0, 2)) for e in net.edges},
                    supply=F(rng.randint(2, 5)))


def _core_corpus():
    grid = default_transpose_m3_grid()
    corpus = [pytest.param(make_ladder(n, F(1, 1000)), id=f"ladder-n{n}") for n in (3, 4)]
    corpus += [pytest.param(grid[i][1], id=grid[i][0]) for i in (0, 3, 20, 45)]
    # Each of these DAGs has dead-end or unreachable edges.
    corpus += [pytest.param(_random_dag_instance(*shape), id=f"dag-{shape}")
               for shape in ((5, 6, 0), (5, 6, 3), (6, 7, 3), (5, 7, 1), (6, 7, 9))]
    return corpus


def _cost(inst):
    try:
        return equilibrium.nash_flow(inst).social_cost
    except NoPathError:
        return INF


@pytest.mark.parametrize("inst", _core_corpus())
def test_every_subset_costs_what_its_st_core_costs(inst):
    ids = inst.edge_ids
    core_costs = {}
    proper_cores = 0
    for mask in product((0, 1), repeat=len(ids)):
        kept = tuple(eid for eid, bit in zip(ids, mask) if bit)
        cost = _cost(restrict(inst, kept))
        core = st_core(inst.network, kept)
        if core is None:
            assert cost is INF, kept
            continue
        assert core <= set(kept)
        if core not in core_costs:
            core_costs[core] = _cost(restrict(inst, core))
        assert cost == core_costs[core], kept
        proper_cores += core != set(kept)
    assert proper_cores > 0  # some subset has edges off its core


def test_braess_ratio_runs_the_engine_once_per_distinct_core(monkeypatch):
    runs = []
    nash_flow = equilibrium.nash_flow

    def counted(inst, *args, **kwargs):
        runs.append(frozenset(inst.edge_ids))
        return nash_flow(inst, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "nash_flow", counted)
    report = braess_ratio(make_ladder(4, F(1, 1000)))
    assert len(report.entries) == 64
    assert len(runs) == len(set(runs)) == 15


def _phase_systems(inst):
    """The (competitive, resetting) pair of every phase of every s-t core's
    run, each run solving its own phases, and the number of phases."""
    ids = inst.edge_ids
    cores = {st_core(inst.network, [eid for eid, bit in zip(ids, mask) if bit])
             for mask in product((0, 1), repeat=len(ids))}
    cores.discard(None)
    systems = []
    for core in cores:
        systems += [(p.active, p.resetting)
                    for p in equilibrium.nash_flow(restrict(inst, core)).phases]
    return set(systems), len(systems)


_SLACK_POINT = "tau=(2, 0, 5, 1)-caps=slack-supply=3"


@pytest.mark.parametrize("inst, solves, phases", [
    pytest.param(make_ladder(4, F(1, 1000)), 20, 32, id="ladder-n4"),
    pytest.param(dict(default_transpose_m3_grid())[_SLACK_POINT], 3, 7, id=_SLACK_POINT),
])
def test_braess_ratio_solves_each_distinct_phase_system_once(inst, solves, phases,
                                                             monkeypatch):
    systems, phase_count = _phase_systems(inst)
    assert (len(systems), phase_count) == (solves, phases)
    calls = []
    thin_flow = equilibrium.thin_flow

    def counted(net, active, resetting, *args):
        calls.append((tuple(sorted(active)), tuple(sorted(resetting))))
        return thin_flow(net, active, resetting, *args)

    monkeypatch.setattr(equilibrium, "thin_flow", counted)
    braess_ratio(inst)
    assert len(calls) == len(set(calls)) == solves
    assert set(calls) == systems


@pytest.mark.parametrize("inst, solves, paths, proposals, walks, pinned", [
    pytest.param(make_ladder(4, F(1, 1000)), 20, 4, 14, 2, 2, id="ladder-n4"),
    pytest.param(dict(default_transpose_m3_grid())[_SLACK_POINT], 3, 3, 0, 0, 0, id=_SLACK_POINT),
])
def test_braess_ratio_walks_only_the_phases_structure_leaves_open(inst, solves, paths, proposals,
                                                                  walks, pinned, monkeypatch):
    # Exact counts of the thin-flow calls, of those whose core is one s-t
    # path (the calls that never reach the steady test), of the
    # series-parallel proposals, of the walks and of the walks with pinned
    # labels.  On ladder n = 4 two calls are steady, and one of them walks,
    # as its P(1) is not one point.  The other 14 are not steady, and all
    # their cores are series-parallel; one proposal's slack edges close a
    # cycle, and it walks.  Both walks have their labels pinned: to one by
    # the steady test, and to the verified proposal's.  A lost skip or a
    # lost pin fails here.
    calls = Counter()
    for name in ("thin_flow", "first_feasible_support", "sp_tree", "_walk"):
        def counted(*args, name=name, call=getattr(equilibrium, name)):
            result = call(*args)
            calls[name] += name != "sp_tree" or result is not None
            calls["pinned"] += name == "_walk" and args[-1] is not None
            return result
        monkeypatch.setattr(equilibrium, name, counted)
    braess_ratio(inst)
    path_calls = calls["thin_flow"] - calls["first_feasible_support"]
    assert (calls["thin_flow"], path_calls, calls["sp_tree"], calls["_walk"], calls["pinned"]) == (
        solves, paths, proposals, walks, pinned)


@pytest.mark.parametrize("n, transposed, digest", [
    (5, False, "f773678cf7ff7e2f7233e0e954e6e8a51ab920e0c292ac0bc132cce220858c2b"),
    (5, True, "6a812c308305c2e691f043200ff342c9b315c8653503a836ff1e01a0ca093bda"),
    (6, False, "d61c96759feb563cb5457256af736c41dbdaec13da1812f8a6e0555de4110110"),
    (6, True, "888a569613e033900314afade8985560e9cd4b0423f94dcbef49f2d7b799f848"),
    (7, False, "e893a47a3ceb6cac77949dd277dba2c7c2dab415de052568260517229d36c39d"),
    (7, True, "b11451639c08483e250102a98766adaedb5eb7b014d973820260df28e95e783b"),
], ids=["ladder-n5", "transposed-n5", "ladder-n6", "transposed-n6", "ladder-n7", "transposed-n7"])
def test_braess_stdout_of_the_ladders_is_pinned(n, transposed, digest, tmp_path, capsys):
    # The paper's own networks, every s-t core of which is series-parallel,
    # at sizes where the series-parallel proposals settle most phases and,
    # at n = 6, compose deeper series of exit maps; at n = 7 the ladder runs
    # 15 walks with the labels of a verified series-parallel proposal
    # pinned.  The n = 5 digests were recorded when the pattern walk
    # settled those phases, the n = 6 ones before the exit maps became
    # `PiecewiseLinear` curves, and the n = 7 ones before walks pinned
    # labels.
    inst = make_ladder(n, F(1, 1000))
    path = tmp_path / "ladder.json"
    path.write_text(dumps(instance_to_obj(transpose(inst) if transposed else inst)))
    assert main(["braess", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_braess_report_carries_equilibrium_caveat():
    report = braess_ratio(two_link_base_instance())
    assert "canonical" in report.note


def test_sweep_transpose_m3_small_grid():
    points = default_transpose_m3_grid()[:10]
    report = sweep_transpose_m3(points)
    assert len(report.points) == 10
    assert not report.failures
    assert all(p.ratio == 1 for p in report.points)
    assert report.max_ratio == 1 and not report.any_paradox


def test_default_grid_is_large_and_varied():
    points = default_transpose_m3_grid()
    assert len(points) >= 50
    labels = [label for label, _ in points]
    assert len(set(labels)) == len(labels)
    supplies = {inst.supply for _, inst in points}
    assert len(supplies) > 3
    terminals = {(inst.network.source, inst.network.sink) for _, inst in points}
    assert ("v1", "v3") in terminals  # includes a placement with no path


def test_sweep_rejects_points_off_the_shape():
    with pytest.raises(ParameterError):
        sweep_transpose_m3([("bad", two_link_base_instance())])


@pytest.mark.parametrize("edges", [
    pytest.param([("e1", "v2", "v1"), ("e2", "v3", "v2"), ("f1", "v3", "v1")], id="triangle"),
    pytest.param([("e1", "v2", "v1"), ("e2", "v3", "v2"), ("f1", "v3", "v1"),
                  ("f2", "v3", "v2"), ("g", "v3", "v2")], id="three-v3-v2-copies"),
])
def test_sweep_rejects_points_whose_edge_multiset_is_off_the_shape(edges):
    # Both have exactly the transposed ladder's set of (tail, head) pairs.
    inst = build_instance([(eid, tail, head, 1, 1) for eid, tail, head in edges],
                          "v3", "v1", 1, nodes=("v1", "v2", "v3"))
    with pytest.raises(ParameterError, match="not on the transposed ladder"):
        sweep_transpose_m3([("off", inst)])


def test_sweep_accepts_every_default_grid_point():
    # One phase per run: each point fails fast, but none is refused.
    report = sweep_transpose_m3(default_transpose_m3_grid(), phase_cap=1)
    assert len(report.points) == 80


def test_sweep_records_point_failures():
    inst = transposed_ladder3_instance(
        capacity={"e1": F(2), "e2": F(1), "f1": F(1), "f2": F(1)},
        transit={"e1": F(0), "e2": F(1), "f1": F(2), "f2": F(1)},
        supply=F(1))
    report = sweep_transpose_m3([("ok", inst), ("slow", inst)], phase_cap=200)
    assert not report.failures
    assert report.description == "transposed three-level ladder grid"
    two_phase = transpose(ladder(3, F(1, 10)))
    capped = sweep_transpose_m3([("fails", two_phase)], phase_cap=1)
    assert len(capped.failures) == 1
    assert capped.points[0].error is not None
    # Here the full network finishes within one phase, two other cores do not.
    point = "tau=(0, 2, 1, 1)-caps=tight-supply=2"
    subsets_fail = sweep_transpose_m3(
        [(point, dict(default_transpose_m3_grid())[point])], phase_cap=1)
    assert len(subsets_fail.points) == 1
    assert subsets_fail.points[0].ratio is None
    assert subsets_fail.points[0].error.startswith("2 subsets failed, first: PhaseCapError:")
    assert subsets_fail.max_ratio is None and not subsets_fail.any_paradox


def test_failed_subset_is_recorded_while_the_full_network_succeeds():
    inst = make_ladder(4, F(1, 100))
    report = braess_ratio(inst, phase_cap=4)
    assert len(report.entries) == 64
    failed = [e for e in report.entries if e.error is not None]
    assert [e.kept for e in failed] == [("e1", "e2", "e3", "f1", "f2")]
    assert failed[0].cost is INF
    assert failed[0].error.startswith("PhaseCapError: no final phase within 4 phases")
    default = braess_ratio(inst)
    assert (report.ratio, report.argmax) == (default.ratio, default.argmax)


def test_failed_run_of_the_full_network_is_raised_not_a_paradox():
    # Lemma 2: the transposed ladder's ratio is exactly 1.  With one phase
    # allowed, the full network's own run fails, so no ratio exists at all.
    with pytest.raises(PhaseCapError):
        braess_ratio(transpose(make_ladder(3, F(1, 10))), phase_cap=1)

