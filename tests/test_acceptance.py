"""Acceptance suite: the package's exit criteria.

Every criterion is checked exactly (tolerance zero) and prints one PASS line;
a failing assertion marks the criterion FAIL.  Runtime budgets are asserted
where stated.
"""

import time
from fractions import Fraction

from fot.braess import braess_ratio, default_transpose_m3_grid, sweep_transpose_m3
from fot.core import transpose
from fot.dynamics import certify_nash, validate_feasible
from fot.equilibrium import nash_flow
from fot.gen import (
    MnParams,
    embed_paradox_instance,
    geometric_alphas,
    make_mn,
    random_dag,
)
from fot.topology import classify, find_subdivision, pattern_network, series_parallel

F = Fraction


def ladder(n, eps, j=1):
    return make_mn(MnParams(n=n, horizon=F(1), alphas=geometric_alphas(n, F(eps), j)))


def self_oracle(inst, run):
    report = validate_feasible(inst, run.flow)
    assert report.ok, f"feasibility violations:\n{report}"
    ok, nash_report = certify_nash(inst, run.flow)
    assert ok, f"equilibrium certificates failed:\n{nash_report}"


def announce(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def test_criterion_1_base_case():
    started = time.perf_counter()
    inst = make_mn(MnParams(n=2, horizon=F(1), alphas=(F(2), F(1))))
    run = nash_flow(inst)
    assert run.events[0].activations == ("f1",)
    assert run.events[0].time == 1  # horizon * 1 / (2 - 1)
    assert run.social_cost == 1
    self_oracle(inst, run)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    announce(1, f"two-level base case: activation at 1, cost 1 ({elapsed:.2f}s)")


def test_criterion_2_ladder_cost_bounds_and_event_times():
    for n in (3, 4):
        for eps_denom in (10, 100):
            started = time.perf_counter()
            eps = F(1, eps_denom)
            alphas = geometric_alphas(n, eps, 1)
            inst = make_mn(MnParams(n=n, horizon=F(1), alphas=alphas))
            run = nash_flow(inst)
            probe = F(1) / eps ** (1 + n) + 1
            latency = run.labels[inst.network.sink](probe) - probe
            bound = (1 - 2 * n * eps) * (n - 1)
            assert latency > bound, (n, eps, latency, bound)
            arrivals = {}
            for event in run.events:
                for eid in event.activations:
                    arrivals[eid] = event.tail_arrival[eid]
            for k in range(1, n):
                expected = alphas[n - 1] / (alphas[k - 1] - alphas[n - 1])
                assert arrivals[f"f{k}"] == expected, (n, eps, k)
            self_oracle(inst, run)
            elapsed = time.perf_counter() - started
            assert elapsed < 10.0, f"n={n} eps={eps} took {elapsed:.2f}s"
    announce(2, "ladder latencies beat (1-2n*eps)(n-1)T and all bypass "
                "arrival times match the closed form exactly")


def test_criterion_3_best_deletion_on_ladder3():
    started = time.perf_counter()
    inst = ladder(3, F(1, 100))
    report = braess_ratio(inst)  # full 2^4 enumeration, self-oracle on
    assert len(report.entries) == 16
    assert report.argmax == ("e1", "f1", "f2")
    reduced_cost = next(e.cost for e in report.entries
                        if e.kept == ("e1", "f1", "f2"))
    assert reduced_cost == 1
    assert report.ratio > F(99, 50)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    announce(3, f"best deletion is the last chain edge; ratio "
                f"{report.ratio} > 99/50 ({elapsed:.2f}s)")


def test_criterion_4_transposed_ladders_are_even():
    for n in (3, 4):
        inst = transpose(ladder(n, F(1, 10)))
        report = braess_ratio(inst)
        assert report.ratio == 1, n
        assert report.full_cost == 1, n
        assert len(report.entries) == 2 ** len(inst.edge_ids)
    announce(4, "transposed ladders have ratio exactly 1 under full enumeration")


def test_criterion_5_transposed_ladder_sweep():
    grid = default_transpose_m3_grid()
    assert len(grid) >= 50
    report = sweep_transpose_m3(grid)  # every subset run is self-checked
    assert not report.failures, report.failures[:3]
    assert all(p.ratio == 1 for p in report.points), [
        p for p in report.points if p.ratio != 1][:3]
    assert not report.any_paradox
    announce(5, f"all {len(report.points)} grid points on the transposed "
                "ladder report ratio exactly 1")


def test_criterion_6_chain_property_equivalence_corpus():
    started = time.perf_counter()
    for seed in range(1, 501):
        net = random_dag(8, 14, seed)
        # classify() raises InternalConsistencyError on any disagreement
        # between the chain classifier and the pattern search
        report = classify(net)
        assert report.uses_only_chains == (not report.either_direction_paradox)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    announce(6, f"500-network corpus: chain property and pattern absence "
                f"agree everywhere ({elapsed:.2f}s)")


def test_criterion_7_embedded_ladder_in_host():
    eps = F(1, 100)
    host = make_mn(MnParams(n=4, horizon=F(1),
                            alphas=geometric_alphas(4, eps, 1))).network
    embedding = find_subdivision(host, "M3")
    assert embedding is not None
    inst = embed_paradox_instance(host, embedding, F(1), geometric_alphas(3, eps, 1))
    run = nash_flow(inst)
    priced_out = [eid for eid in inst.edge_ids if inst.transit[eid] == 3]
    assert priced_out
    for eid in priced_out:
        curve = run.flow.inflow[eid]
        assert curve.ys == (F(0),) and curve.final_slope == 0, eid
    report = braess_ratio(inst)
    assert report.ratio >= F(99, 50)
    self_oracle(inst, run)
    announce(7, f"embedded ladder in the four-level host: ratio "
                f"{report.ratio} >= 99/50 with priced-out edges untouched")


def test_criterion_8_self_oracle_on_headline_runs():
    # The equilibrium runs behind criteria 1-5 and 7 all pass the independent
    # validators: the engine runs them on every flow it returns and raises on
    # any violation, criteria 3-5's subset runs included; here the headline
    # runs are re-validated explicitly and exactly.
    cases = [
        make_mn(MnParams(n=2, horizon=F(1), alphas=(F(2), F(1)))),
        ladder(3, F(1, 10)),
        ladder(3, F(1, 100)),
        ladder(4, F(1, 10)),
        transpose(ladder(3, F(1, 10))),
        transpose(ladder(4, F(1, 10))),
    ]
    host = make_mn(MnParams(n=4, horizon=F(1),
                            alphas=geometric_alphas(4, F(1, 100), 1))).network
    embedding = find_subdivision(host, "M3")
    cases.append(embed_paradox_instance(host, embedding, F(1),
                                        geometric_alphas(3, F(1, 100), 1)))
    for inst in cases:
        run = nash_flow(inst)
        self_oracle(inst, run)
    announce(8, f"{len(cases)} headline runs re-validated: feasibility "
                "conditions empty, both equilibrium certificates exact")


def test_criterion_9_classifier_facts():
    for n in range(2, 9):
        inst = make_mn(MnParams(n=n, horizon=F(1),
                                alphas=geometric_alphas(n, F(1, 2 * n + 1), 1)))
        assert series_parallel(inst.network), n
    crossover = pattern_network("Wheatstone")
    emb = find_subdivision(crossover, "M3DoublePrime")
    assert emb is not None and all(len(p) == 1 for p in emb.edge_paths.values())
    assert find_subdivision(pattern_network("M3T"), "M3") is None
    announce(9, "ladders up to 8 levels are series-parallel; the second "
                "variant is the crossover network; the transposed ladder "
                "lacks the forward pattern")
