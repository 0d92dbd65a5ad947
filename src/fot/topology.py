"""Structural network classification.

Decides which of the fixed four-route patterns (the three-node ladder, its
transpose, the two four-node variants, and the classic crossover network)
embed into a host as a subdivision; whether a network uses only chains of
parallel paths; and whether it is two-terminal series-parallel, by link
smoothing (the inverse of edge subdivision) and parallel merging.

All searches are exact backtracking with explicit size caps; every returned
embedding is re-checkable in isolation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .core import (
    ContractError,
    Edge,
    InternalConsistencyError,
    Network,
    ParameterError,
    SizeCapError,
)
from .gen import ladder_network, make_m3_variants

PATTERN_IDS = ("M3", "M3T", "M3Prime", "M3DoublePrime", "Wheatstone")


def _build_patterns() -> dict[str, Network]:
    ladder3 = ladder_network(3)
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
    host.topological_order()  # raises on a cycle: the search needs an acyclic host

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
                if e.id in used_edges or e.head in failed_heads:
                    continue
                nxt = e.head
                if nxt != goal and (nxt in branch_images or nxt in used_internal
                                    or goal not in reach[nxt]):
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


def _path_counts(net: Network) -> dict[str, dict[str, int]]:
    """`paths[u][w]` is the number of u-w paths for every w that u reaches
    (one, the empty path, for w = u), from one pass over the reversed
    topological order."""
    paths: dict[str, dict[str, int]] = {}
    for u in reversed(net.topological_order()):
        row = {u: 1}
        for e in net.out_edges[u]:
            for w, count in paths[e.head].items():
                row[w] = row.get(w, 0) + count
        paths[u] = row
    return paths


def _on_every_path(paths: dict[str, dict[str, int]], u: str, v: str, nodes) -> bool:
    """Does each of `nodes` lie on every u-v path?  In a DAG a u-v path
    meets w at most once, so N(u,w)·N(w,v) of the N(u,v) paths pass w."""
    total = paths[u].get(v, 0)
    return all(paths[u].get(w, 0) * paths[w].get(v, 0) == total for w in nodes)


def _smooth_edges(nodes: list[str], edges: list[Edge], protect: set[str]):
    """Graph-level smoothing of an acyclic graph: merge away every
    unprotected node with exactly one in-edge and one out-edge.  Merging
    never changes another node's degrees, so one pass follows each chain of
    such nodes from its first edge.  A merged edge keeps the id of its first
    (source-side) edge and that edge's position, so each original id
    survives in at most one edge and no two ids can collide."""
    ins = dict.fromkeys(nodes, 0)
    outs = dict.fromkeys(nodes, 0)
    for e in edges:
        ins[e.head] += 1
        outs[e.tail] += 1
    inner = {w for w in nodes if ins[w] == outs[w] == 1 and w not in protect}
    onward = {e.tail: e for e in edges if e.tail in inner}
    kept: list[Edge] = []
    for e in edges:
        if e.tail in inner:
            continue
        last = e
        while last.head in inner:
            last = onward[last.head]
        kept.append(e if last is e else Edge(e.id, e.tail, last.head))
    return [w for w in nodes if w not in inner], kept


def uses_only_chains(net: Network):
    """Decide whether every ordered node pair's path union is a chain of
    parallel paths (or empty).

    Returns (True, None) or (False, (u, v, union_edge_ids)).  An edge lies on
    a simple u-v path iff u reaches its tail and its head reaches v, which is
    what restricts this test to acyclic networks (`_path_counts` raises
    `UnsupportedTopologyError` on a cycle).  A union is a chain iff
    its junctions, the nodes whose union degree is not (1, 1), all lie on
    every u-v path: the other nodes then form disjoint paths between
    consecutive junctions.
    """
    paths = _path_counts(net)
    for u in net.nodes:
        for v in net.nodes:
            if u == v or v not in paths[u]:
                continue
            union = [e for e in net.edges
                     if e.tail in paths[u] and v in paths[e.head]]
            ins = Counter(e.head for e in union)
            outs = Counter(e.tail for e in union)
            junctions = [w for w in ins.keys() | outs.keys() if (ins[w], outs[w]) != (1, 1)]
            if not _on_every_path(paths, u, v, junctions):
                return False, (u, v, tuple(e.id for e in union))
    return True, None


# -- series-parallel recognition --------------------------------------------------


def series_parallel(net: Network) -> bool:
    """Two-terminal series-parallel test by exhaustive reduction: repeatedly
    splice out internal degree-(1,1) nodes and merge parallel edges; succeed
    iff a single source-sink edge remains.  Isolated nodes are ignored."""
    net.topological_order()  # raises on a cycle
    s, t = net.source, net.sink
    nodes, edges = list(net.nodes), list(net.edges)
    while True:
        nodes, edges = _smooth_edges(nodes, edges, {s, t})
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
