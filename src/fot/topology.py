"""Structural network classification.

Decides which of the fixed four-route patterns (the three-node ladder, its
transpose, the two four-node variants, and the classic crossover network)
embed into a host as a subdivision; whether a network uses only chains of
parallel paths; whether it is two-terminal series-parallel; and performs
link smoothing, the inverse of edge subdivision.

All searches are exact backtracking with explicit size caps; every returned
embedding is re-checkable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .core import (
    ContractError,
    Edge,
    Instance,
    InternalConsistencyError,
    Network,
    ParameterError,
    SizeCapError,
    UnsupportedTopologyError,
)
from .gen import make_m3_variants

PATTERN_IDS = ("M3", "M3T", "M3Prime", "M3DoublePrime", "Wheatstone")

# Transposing a host is equivalent to searching the transposed pattern.
PATTERN_TRANSPOSE = {
    "M3": "M3T",
    "M3T": "M3",
    "M3Prime": "M3Prime",
    "M3DoublePrime": "M3DoublePrime",
    "Wheatstone": "Wheatstone",
}


def _build_patterns() -> dict[str, Network]:
    ladder3 = Network(
        nodes=("v1", "v2", "v3"),
        edges=(
            Edge("e1", "v1", "v2"),
            Edge("e2", "v2", "v3"),
            Edge("f1", "v1", "v3"),
            Edge("f2", "v2", "v3"),
        ),
        source="v1",
        sink="v3",
    )
    prime, double_prime = make_m3_variants()
    crossover = Network(
        nodes=("s", "a", "b", "t"),
        edges=(
            Edge("w1", "s", "a"),
            Edge("w2", "s", "b"),
            Edge("w3", "a", "b"),
            Edge("w4", "a", "t"),
            Edge("w5", "b", "t"),
        ),
        source="s",
        sink="t",
    )
    return {
        "M3": ladder3,
        "M3T": ladder3.transposed(),
        "M3Prime": prime,
        "M3DoublePrime": double_prime,
        "Wheatstone": crossover,
    }


PATTERNS = _build_patterns()


def pattern_network(pattern_id: str) -> Network:
    try:
        return PATTERNS[pattern_id]
    except KeyError:
        raise ParameterError(f"unknown pattern {pattern_id!r}") from None


@dataclass(frozen=True)
class Embedding:
    """Witness that a subdivision of `pattern` sits inside a host: injective
    branch-vertex images plus one host path per pattern edge, internally
    disjoint from each other and from every branch image."""

    pattern: Network
    node_images: Mapping[str, str]
    edge_paths: Mapping[str, tuple[str, ...]]


def verify_embedding(host: Network, emb: Embedding) -> None:
    """Independent validity check; raises ContractError on any defect."""
    pattern = emb.pattern
    images = emb.node_images
    if set(images) != set(pattern.nodes):
        raise ContractError("branch map must cover the pattern nodes")
    if len(set(images.values())) != len(images):
        raise ContractError("branch map must be injective")
    host_nodes = set(host.nodes)
    if not set(images.values()) <= host_nodes:
        raise ContractError("branch map leaves the host")
    if set(emb.edge_paths) != {e.id for e in pattern.edges}:
        raise ContractError("paths must cover the pattern edges")
    used_edges: set[str] = set()
    used_internal: set[str] = set()
    branch_images = set(images.values())
    for pe in pattern.edges:
        path = emb.edge_paths[pe.id]
        if not path:
            raise ContractError(f"empty path for pattern edge {pe.id}")
        here = images[pe.tail]
        for eid in path:
            edge = host.edge_by_id.get(eid)
            if edge is None or edge.tail != here:
                raise ContractError(f"path for {pe.id} is not edge-connected")
            if eid in used_edges:
                raise ContractError(f"host edge {eid} used twice")
            used_edges.add(eid)
            here = edge.head
        if here != images[pe.head]:
            raise ContractError(f"path for {pe.id} ends at the wrong node")
        for eid in path[:-1]:
            inner = host.edge_by_id[eid].head
            if inner in branch_images:
                raise ContractError(f"path for {pe.id} passes a branch image")
            if inner in used_internal:
                raise ContractError(f"internal node {inner} shared between paths")
            used_internal.add(inner)


def find_subdivision(host: Network, pattern: Union[str, Network],
                     node_cap: int = 15, edge_cap: int = 25) -> Optional[Embedding]:
    """Exhaustive backtracking search for a subdivision of the pattern.

    Branch images must offer the pattern-node degrees (subdivision preserves
    them); pattern edges are routed one by one as internally disjoint host
    paths over unused edges.  Returns the first embedding in deterministic
    order, or None.  Hosts over the size caps are refused loudly.

    A failed parallel edge is not retried: when routing from `here`
    through an out-edge to `nxt` has failed, the later out-edges of `here`
    that also end at `nxt` are skipped.  Such a copy is unused and off the
    current path, as the failed edge was, and routes and branch images
    depend only on nodes.  Swapping the two edges is therefore a host
    automorphism that fixes the rest of the search state, and it maps any
    completion through the copy to one through the failed edge.  None
    exists: the search below the failed edge was exhaustive, since by
    induction the cut drops only branches without a completion.  So only
    failing branches are cut, and the first embedding found is the same as
    without the cut.
    """
    if isinstance(pattern, str):
        pattern = pattern_network(pattern)
    if len(host.nodes) > node_cap or len(host.edges) > edge_cap:
        raise SizeCapError(
            f"host exceeds the search cap ({node_cap} nodes / {edge_cap} edges)")
    if not host.is_acyclic():
        raise UnsupportedTopologyError("subdivision search is restricted to acyclic hosts")

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

    def route(edge_index: int, images: dict[str, str],
              used_edges: set[str], used_internal: set[str],
              paths: dict[str, tuple[str, ...]]) -> bool:
        if edge_index == len(pattern_edges):
            return True
        pe = pattern_edges[edge_index]
        start, goal = images[pe.tail], images[pe.head]
        branch_images = set(images.values())

        def dfs(here: str, path: list[str]) -> bool:
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
            failed_heads: set[str] = set()
            for e in host.out_edges[here]:
                if e.id in used_edges or e.id in path or e.head in failed_heads:
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
                failed_heads.add(nxt)
            return False

        return dfs(start, [])

    def assign(index: int, images: dict[str, str], taken: set[str]) -> Optional[Embedding]:
        if index == len(p_nodes):
            used_edges: set[str] = set()
            used_internal: set[str] = set()
            paths: dict[str, tuple[str, ...]] = {}
            if route(0, images, used_edges, used_internal, paths):
                emb = Embedding(pattern, dict(images), dict(paths))
                verify_embedding(host, emb)
                return emb
            return None
        v = p_nodes[index]
        for h in candidates[v]:
            if h in taken:
                continue
            images[v] = h
            ok = True
            for pe in pattern.edges:
                if pe.tail in images and pe.head in images:
                    if images[pe.head] not in reach[images[pe.tail]]:
                        ok = False
                        break
            if ok:
                taken.add(h)
                found = assign(index + 1, images, taken)
                if found is not None:
                    return found
                taken.discard(h)
            del images[v]
        return None

    return assign(0, {}, set())


# -- chains of parallel paths ---------------------------------------------------


def _chain_walk(nodes: tuple[str, ...], edges: tuple[Edge, ...], u: str, v: str) -> bool:
    """Do the nodes admit a linear order from u to v with every edge joining
    consecutive positions?"""
    out_table: dict[str, list[Edge]] = {n: [] for n in nodes}
    in_table: dict[str, list[Edge]] = {n: [] for n in nodes}
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


def is_chain_of_parallel_links(net: Network, u: str, v: str) -> bool:
    """True iff the nodes line up u = w0, ..., wm = v with every edge joining
    consecutive nodes.  Requires every edge to lie on some u-v path."""
    if not net.is_acyclic():
        raise UnsupportedTopologyError("chain test is restricted to acyclic networks")
    from_u = net.reachable_from(u)
    to_v = net.reaching_to(v)
    for e in net.edges:
        if e.tail not in from_u or e.head not in to_v:
            raise ContractError(f"edge {e.id} lies on no path from {u} to {v}")
    return _chain_walk(net.nodes, net.edges, u, v)


def _smooth_edges(nodes: list[str], edges: list[Edge], protect: set[str]):
    """Graph-level smoothing to a fixpoint: merge every unprotected node with
    exactly one in-edge and one out-edge.  A merged edge keeps the id of its
    first (source-side) edge, so each original id survives in at most one
    edge and no two ids can collide; `merged` maps an id to its parts."""
    merged: dict[str, tuple[str, ...]] = {e.id: (e.id,) for e in edges}
    while True:
        in_table: dict[str, list[Edge]] = {n: [] for n in nodes}
        out_table: dict[str, list[Edge]] = {n: [] for n in nodes}
        for e in edges:
            out_table[e.tail].append(e)
            in_table[e.head].append(e)
        target = None
        for w in nodes:
            if w in protect:
                continue
            if len(in_table[w]) == 1 and len(out_table[w]) == 1:
                target = w
                break
        if target is None:
            return nodes, edges, merged
        first = in_table[target][0]
        second = out_table[target][0]
        joined = Edge(first.id, first.tail, second.head)
        merged[first.id] += merged.pop(second.id)
        nodes = [n for n in nodes if n != target]
        edges = [e for e in edges if e.id not in (first.id, second.id)] + [joined]


def uses_only_chains(net: Network):
    """Decide whether every ordered node pair's path union is a chain of
    parallel paths (or empty).

    Returns (True, None) or (False, (u, v, union_edge_ids)).  An edge lies on
    a simple u-v path iff u reaches its tail and its head reaches v, which is
    what restricts this test to acyclic networks.
    """
    if not net.is_acyclic():
        raise UnsupportedTopologyError(
            "path-union analysis is restricted to acyclic networks")
    reach = {v: net.reachable_from(v) for v in net.nodes}
    for u in net.nodes:
        for v in net.nodes:
            if u == v:
                continue
            union = [e for e in net.edges
                     if e.tail in reach[u] and v in reach[e.head]]
            if not union:
                continue
            touched = [n for n in net.nodes
                       if any(n in (e.tail, e.head) for e in union)]
            nodes, edges, _ = _smooth_edges(touched, union, {u, v})
            if not _chain_walk(tuple(nodes), tuple(edges), u, v):
                return False, (u, v, tuple(e.id for e in union))
    return True, None


def smooth(inst: Instance) -> Instance:
    """Merge internal degree-(1,1) nodes to a fixpoint; a merged edge takes
    the summed transit time and the minimum capacity, and keeps the id of its
    first (source-side) original edge, so merged ids never collide.
    Terminals are never smoothed away."""
    net = inst.network
    protect = {net.source, net.sink}
    nodes, edges, merged = _smooth_edges(list(net.nodes), list(net.edges), protect)
    capacity: dict[str, Fraction] = {}
    transit: dict[str, Fraction] = {}
    for e in edges:
        parts = merged[e.id]
        capacity[e.id] = min(inst.capacity[p] for p in parts)
        transit[e.id] = sum((inst.transit[p] for p in parts), Fraction(0))
    new_net = Network(nodes=tuple(nodes), edges=tuple(edges),
                      source=net.source, sink=net.sink)
    return Instance(new_net, capacity, transit, inst.supply)


# -- series-parallel recognition --------------------------------------------------


def series_parallel(net: Network) -> bool:
    """Two-terminal series-parallel test by exhaustive reduction: repeatedly
    splice out internal degree-(1,1) nodes and merge parallel edges; succeed
    iff a single source-sink edge remains.  Isolated nodes are ignored."""
    if not net.is_acyclic():
        raise UnsupportedTopologyError("series-parallel test is restricted to acyclic networks")
    s, t = net.source, net.sink
    nodes, edges = list(net.nodes), list(net.edges)
    while True:
        nodes, edges, _ = _smooth_edges(nodes, edges, {s, t})
        merged = list({(e.tail, e.head): e for e in edges}.values())
        if len(merged) == len(edges):
            return [(e.tail, e.head) for e in edges] == [(s, t)]
        edges = merged


# -- classification -----------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    minors: Mapping[str, Optional[Embedding]]
    uses_only_chains: bool
    chain_witness: Optional[tuple]
    series_parallel: bool
    forward_paradox: bool
    either_direction_paradox: bool


def classify(net: Network, node_cap: int = 15, edge_cap: int = 25) -> ClassificationReport:
    """Full structural report with the cross-checks between classifiers.

    The chain property must coincide with the absence of all four ladder-family
    patterns; a mismatch means one of the two implementations is wrong and is
    reported as a hard internal error.
    """
    minors = {pid: find_subdivision(net, pid, node_cap, edge_cap)
              for pid in PATTERN_IDS}
    chains, witness = uses_only_chains(net)
    ladder_family = ("M3", "M3T", "M3Prime", "M3DoublePrime")
    either = any(minors[pid] is not None for pid in ladder_family)
    if chains == either:
        raise InternalConsistencyError(
            "chain classifier and pattern search disagree: "
            f"uses_only_chains={chains}, patterns found="
            f"{[pid for pid in ladder_family if minors[pid] is not None]}")
    forward = any(minors[pid] is not None for pid in ("M3", "M3Prime", "M3DoublePrime"))
    return ClassificationReport(
        minors=minors,
        uses_only_chains=chains,
        chain_witness=witness,
        series_parallel=series_parallel(net),
        forward_paradox=forward,
        either_direction_paradox=either,
    )
