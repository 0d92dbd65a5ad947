"""Generators for the instance families used throughout the package.

The central family is the ladder network: a fast chain of zero-transit edges
from source to sink whose capacities shrink along the chain, plus one slow
bypass edge from every chain node straight to the sink, all with the same
transit time.  Its capacity ladder is parameterized either by a geometric
recipe (exact rationals arbitrarily close to one) or by an all-integer
recipe, and the family's transposes, four-node variants, host embeddings,
random test DAGs, and plain parallel-link chains are generated here as well.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .core import (
    ContractError,
    Edge,
    Instance,
    Network,
    ParameterError,
)

F = Fraction


@dataclass(frozen=True)
class MnParams:
    """Size, common bypass transit time, and the strictly decreasing positive
    capacity ladder (first entry doubles as the supply)."""

    n: int
    horizon: Fraction  # transit time of every bypass edge
    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("need at least two nodes")
        if self.horizon <= 0:
            raise ParameterError("bypass transit time must be positive")
        if len(self.alphas) != self.n:
            raise ParameterError("need exactly one capacity per level")
        for a, b in zip(self.alphas, self.alphas[1:]):
            if not a > b:
                raise ParameterError("capacities must strictly decrease")
        if self.alphas[-1] <= 0:
            raise ParameterError("capacities must stay positive")


def ladder_network(n: int) -> Network:
    """The n-node ladder from v1 to v_n: chain edges e_k = v_k -> v_{k+1},
    then bypass edges f_k = v_k -> v_n, for k = 1, ..., n - 1."""
    edges = [Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(1, n)]
    edges += [Edge(f"f{k}", f"v{k}", f"v{n}") for k in range(1, n)]
    return Network(nodes=tuple(f"v{i}" for i in range(1, n + 1)), edges=tuple(edges),
                   source="v1", sink=f"v{n}")


def make_mn(params: MnParams) -> Instance:
    """The n-node ladder instance on `ladder_network(n)`.

    Chain edges e_k have zero transit and capacity alphas[k]; bypass edges
    f_k have transit `horizon`.  The bypass capacities are consecutive
    ladder differences, except the last one which closes the budget so that
    the total network capacity equals the supply alphas[0].
    """
    n = params.n
    alphas = params.alphas
    capacity: dict[str, Fraction] = {}
    transit: dict[str, Fraction] = {}
    for k in range(1, n):
        capacity[f"e{k}"] = alphas[k]
        transit[f"e{k}"] = F(0)
    for k in range(1, n):
        capacity[f"f{k}"] = alphas[k - 1] - alphas[k] if k <= n - 2 else alphas[n - 2]
        transit[f"f{k}"] = params.horizon
    return Instance(ladder_network(n), capacity, transit, supply=alphas[0])


def _check_ladder(n: int, eps: Fraction, j: int = 1) -> Fraction:
    """eps as a Fraction, once n >= 2, 0 < eps < 1/(2n) and j >= 1 hold."""
    if n < 2:
        raise ParameterError("need at least two nodes")
    eps = F(eps)
    if not 0 < eps < F(1, 2 * n):
        raise ParameterError(f"eps must lie in (0, 1/{2 * n})")
    if j < 1:
        raise ParameterError("j must be at least 1")
    return eps


def geometric_alphas(n: int, eps: Fraction, j: int) -> tuple[Fraction, ...]:
    """Capacity ladder 1 + eps^(j+k); valid for 0 < eps < 1/(2n), j >= 1."""
    eps = _check_ladder(n, eps, j)
    return tuple(1 + eps ** (j + k) for k in range(n))


def _integer_exponent(eps: Fraction) -> int:
    """The smallest a >= 1 with 1/2^a <= eps, for an eps that
    `_check_ladder` passed."""
    a = 1
    while F(1, 2 ** a) > eps:
        a += 1
    return a


def integer_alphas(n: int, eps: Fraction, j: int) -> tuple[Fraction, ...]:
    """All-integer ladder 2^(a(n+j)) + 2^(a(n-k)) with the smallest a such
    that 1/2^a <= eps; produces instances with integer capacities only."""
    a = _integer_exponent(_check_ladder(n, eps, j))
    return tuple(F(2 ** (a * (n + j)) + 2 ** (a * (n - k))) for k in range(n))


def integer_alpha_bound(n: int, eps: Fraction, horizon: Fraction) -> Fraction:
    """Cost target that the integer ladder is built to exceed:
    (1 - n/2^(a-1)) * (n-1) * horizon."""
    a = _integer_exponent(_check_ladder(n, eps))
    return (1 - F(n, 2 ** (a - 1))) * (n - 1) * F(horizon)


def make_ladder(n: int, eps: Fraction, j: int = 1,
                horizon: Fraction = F(1), integer: bool = False) -> Instance:
    """Convenience builder: ladder instance from either capacity recipe."""
    alphas = integer_alphas(n, eps, j) if integer else geometric_alphas(n, eps, j)
    return make_mn(MnParams(n=n, horizon=F(horizon), alphas=alphas))


# -- four-node variants --------------------------------------------------------


def make_m3_variants() -> tuple[Network, Network]:
    """The two four-node relatives of the three-node ladder.

    First variant: the sink side of the fast chain is stretched by an extra
    edge g, with the second bypass running parallel to the second chain edge.
    Second variant: the long bypass is subdivided by a node that also
    receives the short bypass (this one is isomorphic to the classic
    four-node crossover network).
    """
    prime = Network(
        nodes=("s", "x", "y", "t"),
        edges=(
            Edge("e1", "s", "x"),
            Edge("e2", "x", "y"),
            Edge("g", "y", "t"),
            Edge("f1", "s", "t"),
            Edge("f2", "x", "y"),
        ),
        source="s",
        sink="t",
    )
    double_prime = Network(
        nodes=("s", "x", "B", "t"),
        edges=(
            Edge("e1", "s", "x"),
            Edge("e2", "x", "t"),
            Edge("f1", "s", "B"),
            Edge("g", "B", "t"),
            Edge("f2", "x", "B"),
        ),
        source="s",
        sink="t",
    )
    return prime, double_prime


# -- host embeddings -----------------------------------------------------------


def embed_paradox_instance(host: Network, embedding, horizon: Fraction,
                           alphas: Sequence[Fraction]) -> Instance:
    """Plant a three-level ladder instance onto a host along a subdivision.

    The first edge of each embedded path takes the designated ladder
    parameters (chain edges zero transit with capacities alphas[1],
    alphas[2]; bypass edges `horizon` transit with capacities alphas[0] -
    alphas[1] and alphas[1]); the remaining edges of embedded paths are free
    (zero transit, supply capacity), and every other host edge is priced out
    with transit three times the horizon, which must be positive.  On a
    four-node variant embedded in itself, its extra edge g is such a free
    edge, so the instance behaves like the three-node ladder.
    """
    from .topology import verify_embedding

    horizon = F(horizon)
    if horizon <= 0:
        raise ParameterError("bypass transit time must be positive")
    a0, a1, a2 = (F(a) for a in alphas)
    if not 0 < a2 < a1 < a0:
        raise ParameterError("need 0 < alphas[2] < alphas[1] < alphas[0]")
    verify_embedding(host, embedding)
    designated = {
        "e1": (F(0), a1),
        "e2": (F(0), a2),
        "f1": (horizon, a0 - a1),
        "f2": (horizon, a1),
    }
    missing = set(designated) - set(embedding.edge_paths)
    if missing:
        raise ContractError(f"embedding lacks ladder edges {sorted(missing)}")
    capacity: dict[str, Fraction] = {}
    transit: dict[str, Fraction] = {}
    for eid in (e.id for e in host.edges):
        capacity[eid] = a0
        transit[eid] = 3 * horizon
    for pattern_edge, path in embedding.edge_paths.items():
        for eid in path:
            capacity[eid] = a0
            transit[eid] = F(0)
        if pattern_edge in designated:
            tau, cap = designated[pattern_edge]
            transit[path[0]] = tau
            capacity[path[0]] = cap
    net = replace(host, source=embedding.node_images[embedding.pattern.source],
                  sink=embedding.node_images[embedding.pattern.sink])
    return Instance(net, capacity, transit, supply=a0)


# -- plain chains and random DAGs -----------------------------------------------


def make_chain(sections: Sequence[Sequence[tuple[Fraction, Fraction]]],
               supply: Fraction) -> Instance:
    """Chain of parallel links: one node per junction, section k holding
    parallel edges with the given (transit, capacity) pairs."""
    if not sections or any(not s for s in sections):
        raise ParameterError("every section needs at least one link")
    nodes = tuple(f"n{i}" for i in range(len(sections) + 1))
    edges = []
    capacity: dict[str, Fraction] = {}
    transit: dict[str, Fraction] = {}
    for k, section in enumerate(sections):
        for i, (tau, cap) in enumerate(section):
            eid = f"s{k}_{i}"
            edges.append(Edge(eid, nodes[k], nodes[k + 1]))
            transit[eid] = F(tau)
            capacity[eid] = F(cap)
    net = Network(nodes=nodes, edges=tuple(edges), source=nodes[0], sink=nodes[-1])
    return Instance(net, capacity, transit, supply=F(supply))


def _pair(nodes: int, index: int) -> tuple[int, int]:
    """The pair (i, j), i < j < nodes, at `index` in lexicographic order."""
    # Row i holds the nodes - 1 - i pairs (i, j), so the last r rows hold
    # r(r + 1)/2 pairs: count back from the last pair.
    back = nodes * (nodes - 1) // 2 - 1 - index
    r = (isqrt(8 * back + 1) - 1) // 2
    return nodes - 2 - r, nodes - 1 - (back - r * (r + 1) // 2)


# The shuffle takes time and memory in the square of the node count, whatever
# the edge count: 1000 nodes shuffle 499500 pair indices (4 MB).
MAX_RANDOM_DAG_NODES = 1000


def check_random_dag(nodes: int, edges: int) -> int:
    """Refuse the parameters `random_dag` refuses, before any draw; returns
    the number of candidate edges, one per pair of nodes."""
    if nodes < 2:
        raise ParameterError("need at least two nodes")
    if nodes > MAX_RANDOM_DAG_NODES:
        raise ParameterError(f"at most {MAX_RANDOM_DAG_NODES} nodes")
    count = nodes * (nodes - 1) // 2
    if edges < 0:
        raise ParameterError("edge count must be nonnegative")
    if edges > count:
        raise ParameterError(f"at most {count} edges fit on {nodes} nodes")
    return count


def random_dag(nodes: int, edges: int, seed: int) -> Network:
    """Random DAG on `nodes` labeled vertices with `edges` edges.

    Deterministic construction: vertices n0..n{k-1} are in topological
    order; the candidate edge set is all ordered pairs (i, j) with i < j in
    lexicographic order; `random.Random(seed).shuffle` orders them and the
    first `edges` are kept.  Source is n0, sink is the last vertex.  The
    shuffle runs on the pairs' indices in a compact array (it only swaps
    by index, so it draws and moves the same), and only the kept indices
    are decoded into pairs.  At most `MAX_RANDOM_DAG_NODES` nodes.
    """
    count = check_random_dag(nodes, edges)
    order = array("q", range(count))
    random.Random(seed).shuffle(order)
    chosen = sorted(_pair(nodes, index) for index in order[:edges])
    names = tuple(f"n{i}" for i in range(nodes))
    edge_list = tuple(Edge(f"g{k}", names[i], names[j])
                      for k, (i, j) in enumerate(chosen))
    return Network(nodes=names, edges=edge_list, source=names[0], sink=names[-1])
