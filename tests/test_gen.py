from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot.core import ParameterError, restrict, transpose
from fot.equilibrium import nash_flow
from fot.gen import (
    MnParams,
    _pair,
    embed_paradox_instance,
    geometric_alphas,
    integer_alpha_bound,
    integer_alphas,
    make_chain,
    make_m3_variants,
    make_mn,
    random_dag,
)

F = Fraction


def test_geometric_alphas_values():
    assert geometric_alphas(3, F(1, 10), 1) == (F(11, 10), F(101, 100), F(1001, 1000))
    assert geometric_alphas(2, F(1, 10), 1) == (F(11, 10), F(101, 100))


def test_geometric_alphas_range_check():
    with pytest.raises(ParameterError):
        geometric_alphas(3, F(1, 4), 1)  # 1/4 > 1/6
    with pytest.raises(ParameterError):
        geometric_alphas(3, F(1, 10), 0)


def test_integer_alphas_values():
    assert integer_alphas(3, F(1, 8), 1) == (4608, 4160, 4104)
    assert integer_alphas(2, F(1, 8), 1) == (576, 520)
    with pytest.raises(ParameterError):
        integer_alphas(3, F(1, 4), 1)


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=4, max_value=20))
def test_integer_alphas_are_decreasing_integers(n, j, denom):
    eps = F(1, denom)
    if not eps < F(1, 2 * n):
        eps = F(1, 2 * n + 1)
    alphas = integer_alphas(n, eps, j)
    assert all(a.denominator == 1 for a in alphas)
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    MnParams(n=n, horizon=F(1), alphas=alphas)  # satisfies the ladder invariants


def test_integer_alpha_bound():
    # eps = 1/8 gives a = 3, so the target is (1 - n/4)(n-1) at unit horizon
    assert integer_alpha_bound(3, F(1, 8), F(1)) == (1 - F(3, 4)) * 2


@pytest.mark.parametrize("eps", [F(0), F(-1, 8)])
def test_integer_recipes_refuse_nonpositive_eps(eps):
    # No exponent a gives 1/2^a <= eps here, so the search for one must not start.
    with pytest.raises(ParameterError):
        integer_alpha_bound(4, eps, F(1))
    with pytest.raises(ParameterError):
        integer_alphas(4, eps, 1)


def test_make_mn_two_levels():
    inst = make_mn(MnParams(n=2, horizon=F(1), alphas=(F(2), F(1))))
    net = inst.network
    assert net.source == "v1" and net.sink == "v2"
    assert {(e.id, e.tail, e.head) for e in net.edges} == {
        ("e1", "v1", "v2"), ("f1", "v1", "v2")}
    assert inst.capacity == {"e1": 1, "f1": 2}
    assert inst.transit == {"e1": 0, "f1": 1}
    assert inst.supply == 2


def test_make_mn_three_levels_capacities():
    inst = make_mn(MnParams(n=3, horizon=F(1), alphas=geometric_alphas(3, F(1, 10), 1)))
    assert inst.capacity == {
        "e1": F(101, 100), "e2": F(1001, 1000),
        "f1": F(9, 100), "f2": F(101, 100)}
    assert inst.transit == {"e1": 0, "e2": 0, "f1": 1, "f2": 1}


def test_bypass_budget_closes_exactly():
    for n in (2, 3, 4, 5):
        inst = make_mn(MnParams(n=n, horizon=F(1),
                                alphas=geometric_alphas(n, F(1, 11), 1)))
        # the bypass capacities alone budget the whole supply
        bypass_total = sum(inst.capacity[f"f{k}"] for k in range(1, n))
        assert bypass_total == inst.supply
        if n >= 3:
            # dropping the last chain edge leaves capacity exactly the supply
            # and all remaining routes at the common free-flow time
            reduced = restrict(inst, [eid for eid in inst.edge_ids
                                      if eid != f"e{n - 1}"])
            assert nash_flow(reduced).social_cost == 1


def test_transpose_matches_reversed_figure():
    inst = transpose(make_mn(MnParams(n=3, horizon=F(1),
                                      alphas=geometric_alphas(3, F(1, 10), 1))))
    net = inst.network
    assert net.source == "v3" and net.sink == "v1"
    assert {(e.id, e.tail, e.head) for e in net.edges} == {
        ("e1", "v2", "v1"), ("e2", "v3", "v2"),
        ("f1", "v3", "v1"), ("f2", "v3", "v2")}
    # attributes are untouched by transposition
    assert inst.capacity["f2"] == F(101, 100)
    assert inst.transit["f2"] == 1


def test_m3_variant_shapes():
    prime, double_prime = make_m3_variants()
    assert {(e.id, e.tail, e.head) for e in prime.edges} == {
        ("e1", "s", "x"), ("e2", "x", "y"), ("g", "y", "t"),
        ("f1", "s", "t"), ("f2", "x", "y")}
    assert {(e.id, e.tail, e.head) for e in double_prime.edges} == {
        ("e1", "s", "x"), ("e2", "x", "t"), ("f1", "s", "B"),
        ("g", "B", "t"), ("f2", "x", "B")}


def test_variant_instances_behave_like_the_ladder():
    from fot.topology import find_subdivision

    params = MnParams(n=3, horizon=F(1), alphas=geometric_alphas(3, F(1, 10), 1))
    expected = nash_flow(make_mn(params)).social_cost
    a0, a1, a2 = params.alphas
    for net, pid in zip(make_m3_variants(), ("M3Prime", "M3DoublePrime")):
        inst = embed_paradox_instance(net, find_subdivision(net, pid), F(1), params.alphas)
        # The ladder's parameters on e1, e2, f1, f2; the extra edge g is free.
        assert inst.capacity == {"e1": a1, "e2": a2, "f1": a0 - a1, "f2": a1, "g": a0}
        assert inst.transit == {"e1": 0, "e2": 0, "f1": 1, "f2": 1, "g": 0}
        assert inst.supply == a0
        assert nash_flow(inst).social_cost == expected


def test_make_chain():
    inst = make_chain([[(F(0), F(1)), (F(2), F(3))], [(F(1), F(5))]], supply=F(2))
    assert inst.network.source == "n0" and inst.network.sink == "n2"
    assert len(inst.network.edges) == 3
    assert nash_flow(inst).social_cost == 3  # queue on the fast first link until 2


def test_embed_on_the_ladder_itself_reproduces_it():
    from fot.topology import find_subdivision

    params = MnParams(n=3, horizon=F(1), alphas=geometric_alphas(3, F(1, 100), 1))
    base = make_mn(params)
    embedding = find_subdivision(base.network, "M3")
    assert embedding is not None
    assert all(len(p) == 1 for p in embedding.edge_paths.values())
    planted = embed_paradox_instance(base.network, embedding, F(1), params.alphas)
    assert planted == base


def test_embedded_instance_matches_ladder_labels_at_branch_nodes():
    from fot.topology import find_subdivision

    eps = F(1, 10)
    host = make_mn(MnParams(n=4, horizon=F(1),
                            alphas=geometric_alphas(4, eps, 1))).network
    embedding = find_subdivision(host, "M3")
    planted = embed_paradox_instance(host, embedding, F(1),
                                     geometric_alphas(3, eps, 1))
    reference = make_mn(MnParams(n=3, horizon=F(1),
                                 alphas=geometric_alphas(3, eps, 1)))
    host_run = nash_flow(planted)
    base_run = nash_flow(reference)
    for pattern_node in ("v1", "v2", "v3"):
        image = embedding.node_images[pattern_node]
        assert host_run.labels[image] == base_run.labels[pattern_node]


@pytest.mark.parametrize("horizon", [F(0), F(-1)])
def test_embed_refuses_a_horizon_that_is_not_positive(horizon):
    # Zero would give every edge, priced-out ones included, zero transit.
    from fot.topology import find_subdivision

    prime = make_m3_variants()[0]
    embedding = find_subdivision(prime, "M3Prime")
    with pytest.raises(ParameterError, match="^bypass transit time must be positive$"):
        embed_paradox_instance(prime, embedding, horizon, geometric_alphas(3, F(1, 10), 1))


def test_random_dag_deterministic_and_forced_cases():
    assert random_dag(5, 6, seed=42) == random_dag(5, 6, seed=42)
    tiny = random_dag(2, 1, seed=7)
    assert [(e.tail, e.head) for e in tiny.edges] == [("n0", "n1")]
    with pytest.raises(ParameterError):
        random_dag(3, 4, seed=1)
    nets = {random_dag(6, 8, seed) for seed in range(10)}
    assert len(nets) > 1  # seeds actually vary the graph


def test_random_dag_edge_lists_are_pinned():
    # Every random corpus (lemma3, the benchmark's DAGs) is built on these
    # draws, so a change to how `random_dag` orders its pairs shows here.
    assert [(e.tail, e.head) for e in random_dag(8, 14, 1).edges] == [
        ("n0", "n1"), ("n0", "n2"), ("n0", "n6"), ("n1", "n4"), ("n1", "n5"),
        ("n1", "n6"), ("n2", "n3"), ("n2", "n6"), ("n2", "n7"), ("n3", "n5"),
        ("n4", "n5"), ("n4", "n6"), ("n5", "n7"), ("n6", "n7")]
    assert [(e.tail, e.head) for e in random_dag(6, 9, 14).edges] == [
        ("n0", "n1"), ("n0", "n3"), ("n0", "n5"), ("n1", "n2"), ("n1", "n3"),
        ("n1", "n4"), ("n3", "n4"), ("n3", "n5"), ("n4", "n5")]


def test_random_dag_decodes_pair_indices_in_lexicographic_order():
    for nodes in range(2, 12):
        pairs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
        assert [_pair(nodes, index) for index in range(len(pairs))] == pairs


@pytest.mark.parametrize("n", [0, 1, -3])
def test_ladder_recipes_check_the_node_count_first(n):
    # Before eps, whose bound 1/(2n) has no meaning below two nodes.
    for build in (lambda: geometric_alphas(n, F(1, 10), 1),
                  lambda: integer_alphas(n, F(1, 10), 1),
                  lambda: integer_alpha_bound(n, F(1, 10), F(1))):
        with pytest.raises(ParameterError, match="need at least two nodes"):
            build()


def test_random_dag_is_acyclic():
    for seed in range(1, 30):
        random_dag(8, 14, seed).topological_order()  # raises on a cycle
