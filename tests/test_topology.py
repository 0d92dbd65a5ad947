import random
from fractions import Fraction

import pytest

from fot.cli import main
from fot.core import (ContractError, Edge, Network, SizeCapError, UnsupportedTopologyError,
                      dumps, network_to_obj)
from fot.gen import MnParams, geometric_alphas, make_chain, make_mn, random_dag
from fot.topology import (
    PATTERN_IDS,
    PATTERNS,
    ClassificationReport,
    _smooth_edges,
    Embedding,
    classify,
    find_subdivision,
    pattern_network,
    series_parallel,
    uses_only_chains,
    verify_embedding,
)

F = Fraction

# Transposing a host is equivalent to searching the transposed pattern.
PATTERN_TRANSPOSE = {
    "M3": "M3T",
    "M3T": "M3",
    "M3Prime": "M3Prime",
    "M3DoublePrime": "M3DoublePrime",
    "Wheatstone": "Wheatstone",
}


def ladder_net(n):
    return make_mn(MnParams(n=n, horizon=F(1),
                            alphas=geometric_alphas(n, F(1, 10 * n), 1))).network


def subdivide(net: Network, edge_id: str, pieces: int) -> Network:
    """Replace an edge by a path of `pieces` edges through fresh nodes."""
    if pieces < 2:
        return net
    target = net.edge_by_id[edge_id]
    nodes = list(net.nodes)
    edges = [e for e in net.edges if e.id != edge_id]
    here = target.tail
    for i in range(pieces - 1):
        fresh = f"{edge_id}_mid{i}"
        nodes.append(fresh)
        edges.append(Edge(f"{edge_id}_part{i}", here, fresh))
        here = fresh
    edges.append(Edge(f"{edge_id}_part{pieces - 1}", here, target.head))
    return Network(tuple(nodes), tuple(edges), net.source, net.sink)


def parallel_links(counts):
    """Chain of parallel links with the given section sizes."""
    nodes = tuple(f"c{i}" for i in range(len(counts) + 1))
    edges = []
    for k, count in enumerate(counts):
        for i in range(count):
            edges.append(Edge(f"p{k}_{i}", nodes[k], nodes[k + 1]))
    return Network(nodes, tuple(edges), nodes[0], nodes[-1])


def chain_of_parallel_paths():
    # Sections of 4, 1, 4, 5 parallel routes with scattered subdivisions.
    net = parallel_links([4, 1, 4, 5])
    for eid, pieces in [("p0_0", 3), ("p0_2", 2), ("p0_3", 5),
                        ("p2_0", 3), ("p2_1", 4), ("p2_2", 6), ("p2_3", 2)]:
        net = subdivide(net, eid, pieces)
    return net


# -- patterns and embeddings -----------------------------------------------------


def test_pattern_registry():
    assert set(PATTERN_IDS) == set(PATTERNS)
    assert pattern_network("M3") == ladder_net(3)
    assert pattern_network("M3T") == pattern_network("M3").transposed()
    assert set(PATTERN_TRANSPOSE) == set(PATTERN_IDS)
    with pytest.raises(Exception):
        pattern_network("nope")


def test_find_subdivision_ladder4_hosts_ladder3():
    host = ladder_net(4)
    emb = find_subdivision(host, "M3")
    assert emb is not None
    verify_embedding(host, emb)
    assert emb.node_images == {"v1": "v1", "v2": "v2", "v3": "v4"}
    assert emb.edge_paths["e2"] == ("e2", "e3")
    assert emb.edge_paths["e1"] == ("e1",)


def test_find_subdivision_respects_subdivided_hosts():
    host = subdivide(subdivide(ladder_net(3), "f1", 3), "e1", 2)
    emb = find_subdivision(host, "M3")
    assert emb is not None
    verify_embedding(host, emb)


def test_transposed_ladder_has_no_forward_pattern():
    # the forward pattern needs a node of in-degree three; the transpose
    # tops out at two, and subdivisions preserve branch degrees
    assert find_subdivision(pattern_network("M3T"), "M3") is None


def test_crossover_and_second_variant_are_isomorphic():
    # The second four-node variant and the crossover network are the same
    # graph up to renaming: each embeds in the other, with no edge subdivided.
    emb = find_subdivision(pattern_network("Wheatstone"), "M3DoublePrime")
    assert emb is not None
    assert all(len(p) == 1 for p in emb.edge_paths.values())
    back = find_subdivision(pattern_network("M3DoublePrime"), "Wheatstone")
    assert back is not None
    assert all(len(p) == 1 for p in back.edge_paths.values())


def test_variant_prime_is_self_transpose():
    prime = pattern_network("M3Prime")
    emb = find_subdivision(prime.transposed(), "M3Prime")
    assert emb is not None and all(len(p) == 1 for p in emb.edge_paths.values())


def test_patterns_are_not_minors_of_each_other():
    for a in ("M3", "M3Prime", "M3DoublePrime"):
        for b in ("M3", "M3Prime", "M3DoublePrime"):
            found = find_subdivision(pattern_network(a), b)
            assert (found is not None) == (a == b)


def test_transpose_compatibility_on_random_hosts():
    for seed in range(1, 25):
        host = random_dag(7, 11, seed)
        flipped = host.transposed()
        for pid in ("M3", "M3T", "M3Prime", "M3DoublePrime"):
            one = find_subdivision(flipped, pid) is not None
            other = find_subdivision(host, PATTERN_TRANSPOSE[pid]) is not None
            assert one == other, (seed, pid)


def test_size_cap_is_loud():
    with pytest.raises(SizeCapError):
        find_subdivision(random_dag(20, 30, 1), "M3", node_cap=15, edge_cap=25)


def test_verify_embedding_rejects_defects():
    host = ladder_net(4)
    emb = find_subdivision(host, "M3")
    broken = Embedding(emb.pattern, dict(emb.node_images),
                       {**emb.edge_paths, "f2": ("f3",)})
    with pytest.raises(ContractError):
        verify_embedding(host, broken)
    not_injective = Embedding(emb.pattern,
                              {**emb.node_images, "v2": emb.node_images["v1"]},
                              dict(emb.edge_paths))
    with pytest.raises(ContractError):
        verify_embedding(host, not_injective)


# -- the parallel-edge cut against the unpruned search ---------------------------


def reference_find_subdivision(host: Network, pattern_id: str):
    """`find_subdivision` without the parallel-edge cut: every out-edge is
    tried, parallel copies included.  Exponential on parallel links; the
    oracle the cut search must match embedding for embedding."""
    pattern = pattern_network(pattern_id)
    p_nodes = list(pattern.nodes)
    p_in = {v: len(pattern.in_edges[v]) for v in p_nodes}
    p_out = {v: len(pattern.out_edges[v]) for v in p_nodes}
    h_in = {v: len(host.in_edges[v]) for v in host.nodes}
    h_out = {v: len(host.out_edges[v]) for v in host.nodes}
    reach = {v: host.reachable_from(v) for v in host.nodes}
    candidates = {
        v: [h for h in host.nodes if h_in[h] >= p_in[v] and h_out[h] >= p_out[v]]
        for v in p_nodes
    }
    pattern_edges = list(pattern.edges)

    def route(edge_index, images, used_edges, used_internal, paths):
        if edge_index == len(pattern_edges):
            return True
        pe = pattern_edges[edge_index]
        start, goal = images[pe.tail], images[pe.head]
        branch_images = set(images.values())

        def dfs(here, path):
            if here == goal:
                paths[pe.id] = tuple(path)
                for eid in path:
                    used_edges.add(eid)
                for eid in path[:-1]:
                    used_internal.add(host.edge_by_id[eid].head)
                if route(edge_index + 1, images, used_edges, used_internal, paths):
                    return True
                for eid in path:
                    used_edges.discard(eid)
                for eid in path[:-1]:
                    used_internal.discard(host.edge_by_id[eid].head)
                del paths[pe.id]
                return False
            for e in host.out_edges[here]:
                if e.id in used_edges or e.id in path:
                    continue
                nxt = e.head
                if nxt != goal and (nxt in branch_images or nxt in used_internal
                                    or goal not in reach[nxt]):
                    continue
                if nxt != goal and any(host.edge_by_id[eid].head == nxt for eid in path):
                    continue
                path.append(e.id)
                if dfs(nxt, path):
                    return True
                path.pop()
            return False

        return dfs(start, [])

    def assign(index, images, taken):
        if index == len(p_nodes):
            paths = {}
            if route(0, images, set(), set(), paths):
                return Embedding(pattern, dict(images), dict(paths))
            return None
        v = p_nodes[index]
        for h in candidates[v]:
            if h in taken:
                continue
            images[v] = h
            if all(images[pe.head] in reach[images[pe.tail]] for pe in pattern.edges
                   if pe.tail in images and pe.head in images):
                taken.add(h)
                found = assign(index + 1, images, taken)
                if found is not None:
                    return found
                taken.discard(h)
            del images[v]
        return None

    return assign(0, {}, set())


def unit_chain(sections, links):
    """Pattern-free host: `sections` bundles of `links` parallel links."""
    return make_chain([[(F(1), F(1))] * links] * sections, F(1)).network


def with_twins(net: Network, doubled) -> Network:
    """Add a parallel copy right after every edge whose id is in `doubled`."""
    edges = []
    for e in net.edges:
        edges.append(e)
        if e.id in doubled:
            edges.append(Edge(f"{e.id}_twin", e.tail, e.head))
    return Network(net.nodes, tuple(edges), net.source, net.sink)


def differential_hosts():
    for sections, links in [(5, 3), (4, 5), (10, 2)]:
        yield f"chain-{sections}x{links}", unit_chain(sections, links)
    for seed in range(100):
        nodes = 6 + seed % 4
        dag = random_dag(nodes, min(nodes * (nodes - 1) // 2, nodes + 2 + seed % 7), seed)
        # Every other host gets parallel twins on four seeded edges.
        ids = [e.id for e in dag.edges]
        doubled = set(random.Random(seed).sample(ids, 4)) if seed % 2 else set()
        yield f"dag-{seed}", with_twins(dag, doubled)
    for n in (3, 4, 5):
        for name, net in ((f"ladder-{n}", ladder_net(n)),
                          (f"tladder-{n}", ladder_net(n).transposed())):
            yield f"{name}-doubled", with_twins(net, {e.id for e in net.edges})


def test_parallel_edge_cut_matches_the_unpruned_search():
    for name, host in differential_hosts():
        for pid in PATTERN_IDS:
            got = find_subdivision(host, pid)
            want = reference_find_subdivision(host, pid)
            assert (got is None) == (want is None), (name, pid)
            if got is not None:
                assert dict(got.node_images) == dict(want.node_images), (name, pid)
                assert dict(got.edge_paths) == dict(want.edge_paths), (name, pid)


@pytest.mark.parametrize("sections, links", [(12, 2), (8, 3), (5, 5)])
def test_classify_pattern_free_chains_at_the_cap(sections, links):
    # Without the parallel-edge cut the 12x2 chain alone takes seconds.
    report = classify(unit_chain(sections, links))
    assert all(emb is None for emb in report.minors.values())
    assert report.uses_only_chains and report.series_parallel


# -- chains ------------------------------------------------------------------------


def test_single_path_uses_only_chains():
    net = parallel_links([1, 1, 1])
    ok, witness = uses_only_chains(net)
    assert ok and witness is None


def test_ladder3_breaks_the_chain_property():
    ok, witness = uses_only_chains(pattern_network("M3"))
    assert not ok
    assert witness[0] == "v1" and witness[1] == "v3"


def test_chain_of_parallel_paths_uses_only_chains():
    ok, witness = uses_only_chains(chain_of_parallel_paths())
    assert ok, witness


# -- the cut-node chain test and one-pass smoothing against the fixpoint code ------


def reference_chain_walk(nodes, edges, u, v):
    """Do the nodes admit a linear order from u to v with every edge joining
    consecutive positions?"""
    out_table = {n: [] for n in nodes}
    in_table = {n: [] for n in nodes}
    for e in edges:
        out_table[e.tail].append(e)
        in_table[e.head].append(e)
    if in_table[u] or out_table[v]:
        return False
    here = u
    seen = 1
    consumed = 0
    while here != v:
        outs = out_table[here]
        if not outs:
            return False
        heads = {e.head for e in outs}
        if len(heads) != 1:
            return False
        nxt = heads.pop()
        if any(e.tail != here for e in in_table[nxt]):
            return False
        consumed += len(outs)
        seen += 1
        if seen > len(nodes):
            return False
        here = nxt
    return seen == len(nodes) and consumed == len(edges)


def reference_smooth_edges(nodes, edges, protect):
    """Smoothing to a fixpoint, one merge per round: the first unprotected
    degree-(1,1) node goes, and the joined edge keeps the first edge's id
    and moves to the end of the edge list."""
    while True:
        in_table = {n: [] for n in nodes}
        out_table = {n: [] for n in nodes}
        for e in edges:
            out_table[e.tail].append(e)
            in_table[e.head].append(e)
        target = next((w for w in nodes if w not in protect
                       and len(in_table[w]) == 1 and len(out_table[w]) == 1), None)
        if target is None:
            return nodes, edges
        first = in_table[target][0]
        second = out_table[target][0]
        joined = Edge(first.id, first.tail, second.head)
        nodes = [n for n in nodes if n != target]
        edges = [e for e in edges if e.id not in (first.id, second.id)] + [joined]


def path_unions(net):
    """Every ordered pair's nonempty path union: (u, v, nodes, edges)."""
    reach = {v: net.reachable_from(v) for v in net.nodes}
    for u in net.nodes:
        for v in net.nodes:
            union = [e for e in net.edges if e.tail in reach[u] and v in reach[e.head]]
            if u != v and union:
                touched = [n for n in net.nodes
                           if any(n in (e.tail, e.head) for e in union)]
                yield u, v, touched, union


def reference_uses_only_chains(net):
    """Smooth each pair's path union to a fixpoint, then walk it."""
    for u, v, touched, union in path_unions(net):
        nodes, edges = reference_smooth_edges(touched, union, {u, v})
        if not reference_chain_walk(tuple(nodes), tuple(edges), u, v):
            return False, (u, v, tuple(e.id for e in union))
    return True, None


def subdivided_dags(count):
    """Random DAGs with parallel twins and subdivided edges, seeded."""
    for seed in range(count):
        rng = random.Random(seed)
        nodes = rng.randrange(3, 8)
        net = random_dag(nodes, rng.randrange(1, nodes * (nodes - 1) // 2 + 1), seed)
        ids = [e.id for e in net.edges]
        net = with_twins(net, set(rng.sample(ids, rng.randrange(len(ids) + 1))))
        for eid in rng.sample(ids, rng.randrange(min(3, len(ids)) + 1)):
            net = subdivide(net, eid, rng.randrange(2, 4))
        yield seed, net


def test_cut_node_chain_test_and_one_pass_smoothing_match_the_fixpoint_code():
    verdicts = set()
    for seed, net in subdivided_dags(400):
        got = uses_only_chains(net)
        assert got == reference_uses_only_chains(net), seed
        verdicts.add(got[0])
        protect = {net.source, net.sink}
        nodes, edges = _smooth_edges(list(net.nodes), list(net.edges), protect)
        want_nodes, want_edges = reference_smooth_edges(
            list(net.nodes), list(net.edges), protect)
        assert set(nodes) == set(want_nodes), seed
        assert {(e.id, e.tail, e.head) for e in edges} == {
            (e.id, e.tail, e.head) for e in want_edges}, seed
    assert verdicts == {True, False}


# -- smoothing ----------------------------------------------------------------------


@pytest.mark.parametrize("nodes, edges, smoothed", [
    # a path whose last edge is named like the join of the first two
    (("s", "x", "y", "t"), (("a", "s", "x"), ("b", "x", "y"), ("a+b", "y", "t")),
     {"a"}),
    # a smoothed path parallel to an edge named like the join
    (("s", "x", "t"), (("a", "s", "x"), ("b", "x", "t"), ("a+b", "s", "t")),
     {"a", "a+b"}),
], ids=["path", "parallel"])
def test_smoothing_keeps_the_first_edge_id(nodes, edges, smoothed, tmp_path, capsys):
    net = Network(nodes, tuple(Edge(*e) for e in edges), "s", "t")
    kept_nodes, kept_edges = _smooth_edges(list(nodes), list(net.edges), {"s", "t"})
    assert kept_nodes == ["s", "t"]
    assert {e.id: (e.tail, e.head) for e in kept_edges} == {
        eid: ("s", "t") for eid in smoothed}
    assert uses_only_chains(net) == (True, None)
    path = tmp_path / "net.json"
    path.write_text(dumps(network_to_obj(net)))
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().err == ""


# -- series-parallel and classification -----------------------------------------------


def test_series_parallel_facts():
    for n in range(2, 9):
        assert series_parallel(ladder_net(n))
    assert not series_parallel(pattern_network("Wheatstone"))
    assert not series_parallel(pattern_network("M3DoublePrime"))
    assert series_parallel(parallel_links([3, 1, 2]))
    assert series_parallel(pattern_network("M3"))
    assert series_parallel(pattern_network("M3Prime"))


def test_classify_ladder():
    report = classify(ladder_net(4))
    assert report.series_parallel
    assert report.minors["M3"] is not None
    assert report.minors["Wheatstone"] is None
    assert not report.uses_only_chains
    assert report.forward_paradox and report.either_direction_paradox


def test_classify_crossover():
    report = classify(pattern_network("Wheatstone"))
    assert not report.series_parallel
    assert report.minors["M3DoublePrime"] is not None
    assert report.forward_paradox


def test_classify_parallel_chain():
    report = classify(parallel_links([3]))
    assert report.uses_only_chains
    assert all(emb is None for emb in report.minors.values())
    assert not report.forward_paradox and not report.either_direction_paradox
    assert report.series_parallel


def test_classify_transposed_ladder():
    report = classify(pattern_network("M3T"))
    assert report.minors["M3"] is None
    assert report.minors["M3T"] is not None
    assert not report.forward_paradox
    assert report.either_direction_paradox
    assert not report.uses_only_chains


def test_chain_property_equals_pattern_absence_on_random_dags():
    # classify() enforces the equivalence internally as a hard error, so a
    # pass over a random corpus is already a two-classifier agreement check.
    for seed in range(1, 41):
        report = classify(random_dag(8, 14, seed))
        assert isinstance(report, ClassificationReport)
        assert report.uses_only_chains == (not report.either_direction_paradox)


@pytest.mark.parametrize("check", [
    lambda net: find_subdivision(net, "M3"),
    uses_only_chains,
    series_parallel,
], ids=["find_subdivision", "uses_only_chains", "series_parallel"])
def test_topology_tests_refuse_a_cycle(check):
    cyclic = Network(nodes=("s", "x", "t"),
                     edges=(Edge("a", "s", "x"), Edge("b", "x", "s"), Edge("c", "x", "t")),
                     source="s", sink="t")
    with pytest.raises(UnsupportedTopologyError):
        check(cyclic)
