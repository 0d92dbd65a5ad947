"""Exact scalars, networks, instances, and the JSON interchange format.

Every numeric quantity in this package is an exact rational of type `Q`.
`Q` is a `fractions.Fraction` subclass that only makes the arithmetic the
engine does faster, so its values hash, print, compare and equal exactly
as `Fraction`s do: outputs and callers that pass or expect `Fraction`s are
unchanged.  The single non-rational value is the ``INF`` sentinel used
for unbounded costs; it supports comparisons but no arithmetic, so an
infinity can never leak silently into a computation.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence


class FotError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FotError):
    """An exact function was evaluated outside its domain."""


class ContractError(FotError):
    """A documented precondition was violated by the caller."""


class ParameterError(FotError):
    """Construction parameters are out of their documented range."""


class UnsupportedTopologyError(FotError):
    """The operation is restricted to acyclic networks."""


class NoPathError(FotError):
    """The instance has no directed source-sink path."""


class SizeCapError(FotError):
    """Input exceeds the exhaustive-search size cap."""


class PhaseCapError(FotError):
    """The phase computation exceeded its hard iteration cap."""


class InternalConsistencyError(FotError):
    """Two independent characterizations disagreed; indicates a bug."""


class MalformedFlowError(FotError):
    """A flow's curves are structurally inconsistent."""


class _PosInfinity:
    """Positive infinity sentinel.

    Orders above every rational; equality only with itself.  Arithmetic is
    deliberately undefined (a ``TypeError`` surfaces immediately), because no
    operation in this package may produce infinity implicitly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("fot.INF")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True


INF = _PosInfinity()


def _q(n: int, d: int) -> Q:
    """n/d as a `Q`, where n and d are coprime and d is positive.  It sets
    the private slots of the pure-Python `fractions.Fraction` directly, as
    `Fraction` does itself; the tests compare `Q` with `Fraction` on every
    interpreter that CI runs."""
    q = object.__new__(Q)
    q._numerator = n
    q._denominator = d
    return q


def _comparison(op, fallback):
    """A `Q` order comparison, fast on the same operand types as the
    arithmetic of `Q`."""

    def compare(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            return op(a._numerator * b._denominator, a._denominator * b._numerator)
        if kind is int:
            return op(a._numerator, a._denominator * b)
        return fallback(a, b)

    return compare


class Q(Fraction):
    """The exact rational that the package computes in.

    A `Fraction` whose ``+ - * /`` (both ways round), unary minus, `abs` and
    six comparisons skip the `numbers` ABC checks of `Fraction` when the
    other operand is exactly a `Q`, a `Fraction` or an int, and build the
    result from coprime integers.  Where a `Q` operand is already the
    result (x + 0, x - 0, x * 1, x / 1, 0 * x, 0 / x), ``+ - * /`` return it
    as it is.  Results of those operations are `Q`s; any other operand
    (`INF`, a bool, a float) gets the inherited `Fraction` behaviour.  Hash,
    `str`, equality with `Fraction` and int, pickling and copying are those
    of `Fraction`.
    """

    __slots__ = ()

    # The arithmetic: each operator reads both operands' numerators and
    # denominators once and applies the gcd formulas of CPython's
    # `Fraction._add` and `Fraction._mul` in its own body, so one exact
    # operation is one Python frame.  The reflected forms compute an int on
    # the left in place, the only left operand the engine gives them; a
    # `Fraction` on the left goes through the forward forms.  Before any gcd
    # the forward forms return an operand that is already the result; `b`
    # only when it is a `Q`, so that every result is one.  n == d reads
    # "is 1".  `Q` is immutable, so sharing an operand is safe.

    def __add__(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            nb, db = b._numerator, b._denominator
        elif kind is int:
            nb, db = b, 1
        else:
            return Fraction.__add__(a, b)
        if nb == 0:
            return a
        na, da = a._numerator, a._denominator
        if na == 0 and kind is Q:
            return b
        q = object.__new__(Q)
        g = gcd(da, db)
        if g == 1:
            q._numerator = na * db + da * nb
            q._denominator = da * db
            return q
        s = da // g
        t = na * (db // g) + nb * s
        g = gcd(t, g)
        q._numerator = t // g
        q._denominator = s * (db // g)
        return q

    def __sub__(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            nb, db = b._numerator, b._denominator
        elif kind is int:
            nb, db = b, 1
        else:
            return Fraction.__sub__(a, b)
        if nb == 0:
            return a
        na, da = a._numerator, a._denominator
        q = object.__new__(Q)
        g = gcd(da, db)
        if g == 1:
            q._numerator = na * db - da * nb
            q._denominator = da * db
            return q
        s = da // g
        t = na * (db // g) - nb * s
        g = gcd(t, g)
        q._numerator = t // g
        q._denominator = s * (db // g)
        return q

    def __mul__(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            nb, db = b._numerator, b._denominator
        elif kind is int:
            nb, db = b, 1
        else:
            return Fraction.__mul__(a, b)
        na, da = a._numerator, a._denominator
        if na == 0 or nb == db:
            return a
        if (nb == 0 or na == da) and kind is Q:
            return b
        g1, g2 = gcd(na, db), gcd(nb, da)
        q = object.__new__(Q)
        q._numerator = (na // g1) * (nb // g2)
        q._denominator = (da // g2) * (db // g1)
        return q

    def __truediv__(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            nb, db = b._numerator, b._denominator
        elif kind is int:
            nb, db = b, 1
        else:
            return Fraction.__truediv__(a, b)
        if nb == 0:
            raise ZeroDivisionError("division by zero")
        na, da = a._numerator, a._denominator
        if na == 0 or nb == db:
            return a
        g1 = gcd(na, nb) if nb > 0 else -gcd(na, nb)
        g2 = gcd(db, da)
        q = object.__new__(Q)
        q._numerator = (na // g1) * (db // g2)
        q._denominator = (da // g2) * (nb // g1)
        return q

    def __radd__(b, a):
        if type(a) is not int:
            return b + a if isinstance(a, Fraction) else Fraction.__radd__(b, a)
        q = object.__new__(Q)
        q._numerator = a * b._denominator + b._numerator
        q._denominator = b._denominator
        return q

    def __rsub__(b, a):
        if type(a) is not int:
            return -b + a if isinstance(a, Fraction) else Fraction.__rsub__(b, a)
        q = object.__new__(Q)
        q._numerator = a * b._denominator - b._numerator
        q._denominator = b._denominator
        return q

    def __rmul__(b, a):
        if type(a) is not int:
            return b * a if isinstance(a, Fraction) else Fraction.__rmul__(b, a)
        g = gcd(a, b._denominator)
        q = object.__new__(Q)
        q._numerator = a // g * b._numerator
        q._denominator = b._denominator // g
        return q

    def __rtruediv__(b, a):
        if type(a) is not int:
            return (1 / b) * a if isinstance(a, Fraction) else Fraction.__rtruediv__(b, a)
        nb = b._numerator
        if nb == 0:
            raise ZeroDivisionError("division by zero")
        g = gcd(a, nb) if nb > 0 else -gcd(a, nb)
        q = object.__new__(Q)
        q._numerator = a // g * b._denominator
        q._denominator = nb // g
        return q

    __lt__ = _comparison(operator.lt, Fraction.__lt__)
    __le__ = _comparison(operator.le, Fraction.__le__)
    __gt__ = _comparison(operator.gt, Fraction.__gt__)
    __ge__ = _comparison(operator.ge, Fraction.__ge__)

    def __eq__(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if kind is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __ne__(a, b):
        kind = type(b)
        if kind is Q or kind is Fraction:
            return a._numerator != b._numerator or a._denominator != b._denominator
        if kind is int:
            return a._numerator != b or a._denominator != 1
        equal = Fraction.__eq__(a, b)
        return equal if equal is NotImplemented else not equal

    __hash__ = Fraction.__hash__

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __abs__(a):
        return _q(abs(a._numerator), a._denominator)


Scalar = Q | _PosInfinity


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_scalar(text: str) -> Scalar:
    """Parse ``"p/q"``, ``"p"`` or ``"inf"`` into an exact scalar.

    Decimal and float syntax is rejected: exactness is a package-wide
    invariant, so the boundary accepts nothing but ratios of integers.
    """
    text = text.strip()
    if text == "inf":
        return INF
    if not _RATIONAL_RE.match(text):
        raise ParameterError(f"not an exact rational: {text!r}")
    try:
        return Q(text)
    except ZeroDivisionError as exc:
        raise ParameterError(f"zero denominator: {text!r}") from exc


def format_scalar(x: Scalar) -> str:
    if x is INF:
        return "inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def as_fraction(x) -> Q:
    """Coerce int/str/Fraction to `Q`, rejecting floats and booleans."""
    if type(x) is Q:
        return x
    if isinstance(x, Fraction):
        return _q(x.numerator, x.denominator)
    if isinstance(x, float):
        raise ParameterError("floats are not accepted; pass an exact rational")
    if isinstance(x, int) and not isinstance(x, bool):
        return _q(x, 1)
    if isinstance(x, str):
        value = parse_scalar(x)
        if value is INF:
            raise ParameterError("expected a finite rational, got 'inf'")
        return value
    raise ParameterError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Network:
    """Directed multigraph with designated source and sink.

    Parallel edges are allowed; edge ids are stable strings so that reports
    can refer to edges by name.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str

    def __post_init__(self):
        if self.source == self.sink:
            raise ParameterError("source and sink must differ")
        if len(set(self.nodes)) != len(self.nodes):
            raise ParameterError("duplicate node names")
        node_set = set(self.nodes)
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise ParameterError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.tail not in node_set or e.head not in node_set:
                raise ParameterError(f"edge {e.id!r} references unknown node")
        for terminal in (self.source, self.sink):
            if terminal not in node_set:
                raise ParameterError(f"terminal {terminal!r} is not a node")

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            table[e.tail].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            table[e.head].append(e)
        return {v: tuple(es) for v, es in table.items()}

    def topological_order(self) -> tuple[str, ...]:
        """Nodes in topological order, one tuple per network; raises on
        every call if the graph has a cycle."""
        if self._topological_order is None:
            raise UnsupportedTopologyError("network contains a directed cycle")
        return self._topological_order

    @cached_property
    def _topological_order(self) -> Optional[tuple[str, ...]]:
        """Kahn's order of the nodes, or None when the graph has a cycle."""
        indeg = {v: 0 for v in self.nodes}
        for e in self.edges:
            indeg[e.head] += 1
        ready = [v for v in self.nodes if indeg[v] == 0]
        order: list[str] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for e in self.out_edges[v]:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    ready.append(e.head)
        return tuple(order) if len(order) == len(self.nodes) else None

    @cached_property
    def path_counts(self) -> dict[str, dict[str, int]]:
        """`path_counts[u][w]` is the number of u-w paths for every w that u
        reaches (one, the empty path, for w = u), from one pass over the
        reversed topological order; so its rows are also the reachability
        closures.  Raises `UnsupportedTopologyError` on a cycle."""
        paths: dict[str, dict[str, int]] = {}
        for u in reversed(self.topological_order()):
            row = {u: 1}
            for e in self.out_edges[u]:
                for w, count in paths[e.head].items():
                    row[w] = row.get(w, 0) + count
            paths[u] = row
        return paths

    @cached_property
    def degree_profile(self) -> dict[str, tuple[int, int, int, int]]:
        """Per node: in-degree, out-degree, and the numbers of distinct in-
        and out-neighbours (parallel edges count once)."""
        return {v: (len(self.in_edges[v]), len(self.out_edges[v]),
                    len({e.tail for e in self.in_edges[v]}),
                    len({e.head for e in self.out_edges[v]}))
                for v in self.nodes}

    def _closure(self, start: str, forward: bool,
                 edge_ids: Optional[AbstractSet[str]]) -> frozenset[str]:
        """Nodes reached from `start` along edges (against them unless
        `forward`), using only the edges in `edge_ids` when it is given."""
        table = self.out_edges if forward else self.in_edges
        seen = {start}
        stack = [start]
        while stack:
            for e in table[stack.pop()]:
                w = e.head if forward else e.tail
                if w not in seen and (edge_ids is None or e.id in edge_ids):
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def reachable_from(self, start: str,
                       edge_ids: Optional[AbstractSet[str]] = None) -> frozenset[str]:
        return self._closure(start, True, edge_ids)

    def reaching_to(self, goal: str,
                    edge_ids: Optional[AbstractSet[str]] = None) -> frozenset[str]:
        return self._closure(goal, False, edge_ids)

    def transposed(self) -> "Network":
        return Network(
            nodes=self.nodes,
            edges=tuple(Edge(e.id, e.head, e.tail) for e in self.edges),
            source=self.sink,
            sink=self.source,
        )


@dataclass(frozen=True)
class Instance:
    """A routing game: network, per-edge capacity and transit time, supply.

    Capacities are flow units per unit time (all positive), transit times are
    nonnegative, supply is the constant inflow rate at the source.  A
    sub-instance produced by `restrict` may legally have no source-sink path;
    downstream operations then report unbounded cost.
    """

    network: Network
    capacity: Mapping[str, Q]
    transit: Mapping[str, Q]
    supply: Q

    def __post_init__(self):
        ids = {e.id for e in self.network.edges}
        if set(self.capacity) != ids or set(self.transit) != ids:
            raise ParameterError("capacity/transit maps must cover exactly the edge set")
        # Every scalar becomes a `Q`, or the instance is refused here.
        for name in ("capacity", "transit"):
            object.__setattr__(self, name, {eid: as_fraction(x)
                                            for eid, x in getattr(self, name).items()})
        object.__setattr__(self, "supply", as_fraction(self.supply))
        for eid in self.edge_ids:  # in edge order: the first bad edge is named
            if self.capacity[eid] <= 0:
                raise ParameterError(f"capacity of {eid!r} must be positive")
            if self.transit[eid] < 0:
                raise ParameterError(f"transit time of {eid!r} must be nonnegative")
        if self.supply <= 0:
            raise ParameterError("supply must be positive")

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.network.edges)


def transpose(inst: Instance) -> Instance:
    """Reverse every edge and swap source with sink; attributes unchanged."""
    return Instance(
        network=inst.network.transposed(),
        capacity=dict(inst.capacity),
        transit=dict(inst.transit),
        supply=inst.supply,
    )


def restrict(inst: Instance, keep: Iterable[str]) -> Instance:
    """Sub-instance on the given edge ids; nodes and terminals unchanged.

    A result without any source-sink path is legal; cost computations on it
    report unbounded values.
    """
    keep_set = set(keep)
    unknown = keep_set - set(inst.edge_ids)
    if unknown:
        raise ParameterError(f"unknown edge ids: {sorted(unknown)}")
    net = inst.network
    return Instance(
        network=Network(net.nodes, tuple(e for e in net.edges if e.id in keep_set),
                        net.source, net.sink),
        capacity={eid: inst.capacity[eid] for eid in keep_set},
        transit={eid: inst.transit[eid] for eid in keep_set},
        supply=inst.supply,
    )


def st_core(net: Network, keep: Iterable[str]) -> Optional[frozenset[str]]:
    """The kept edges that lie on some source-sink path of kept edges, or
    None when the kept edges hold no such path.

    An equilibrium on the kept edges sends no flow off its s-t core, so a
    subnetwork's cost depends on its core alone; and the thin flow of a
    phase may only use a support that is its own core.
    """
    keep = frozenset(keep)
    from_source = net.reachable_from(net.source, keep)
    if net.sink not in from_source:
        return None
    to_sink = net.reaching_to(net.sink, keep)
    return frozenset(e.id for e in net.edges
                     if e.id in keep and e.tail in from_source and e.head in to_sink)


def first_feasible_support(net: Network, keep: AbstractSet[str], full: AbstractSet[str],
                           capacity: Mapping[str, Fraction], supply: Fraction,
                           order: Sequence[str]
                           ) -> Optional[tuple[tuple[bool, ...], dict[str, Q]]]:
    """The lexicographically first support of a bounded s-t flow, and a
    flow on it.

    The flows in question have value `supply` on the kept edges; each edge
    of `full` carries exactly its capacity and every other kept edge
    between 0 and its capacity.  Returns None when there is no such flow.
    Otherwise the first item holds, for each edge of `order` in turn,
    whether the edge must carry flow, given that every earlier edge marked
    False carries none.  Such flows stay feasible when a zero edge may
    carry flow again, so deciding the edges greedily in this order gives
    the first feasible pattern: every pattern that comes earlier
    lexicographically, with False before True, has no feasible flow.  The
    second item is one such flow on that pattern: its rate on each kept
    edge, in edge order.

    Every value is scaled by the lcm of the denominators, so the search
    runs on integers.  Flow moves along shortest residual paths, found by
    breadth-first search in edge order, from nodes with too much inflow to
    nodes with too little.  The first feasible flow settles the imbalance
    that the supply and the `full` edges leave.  The greedy keeps that flow
    and takes each edge of `order` out in turn: its flow becomes an
    imbalance between its tail and its head, and the edge is marked False
    when that imbalance settles around it.  Otherwise the flow is restored
    and the edge is marked True.
    """
    edges = [e for e in net.edges if e.id in keep]
    caps = [capacity[e.id] for e in edges]
    scale = lcm(supply.denominator, *(c.denominator for c in caps))
    upper = [c.numerator * (scale // c.denominator) for c in caps]
    units = supply.numerator * (scale // supply.denominator)
    # The cuts around the source and the sink settle most empty cases.
    if (sum(c for e, c in zip(edges, upper) if e.tail == net.source) < units
            or sum(c for e, c in zip(edges, upper) if e.head == net.sink) < units):
        return None
    node = {net.source: 0, net.sink: 1}
    for e in edges:
        node.setdefault(e.tail, len(node))
        node.setdefault(e.head, len(node))
    tail = [node[e.tail] for e in edges]
    head = [node[e.head] for e in edges]
    flow = [0] * len(edges)
    # Inflow minus outflow still to settle at each node.
    excess = [0] * len(node)
    excess[0], excess[1] = units, -units
    # Residual arcs leave a node forward along its out-edges and backward
    # along its in-edges; an edge of `full` has none, its flow being fixed.
    out: list[list[int]] = [[] for _ in node]
    into: list[list[int]] = [[] for _ in node]
    for i, e in enumerate(edges):
        if e.id in full:
            flow[i] = upper[i]
            excess[head[i]] += upper[i]
            excess[tail[i]] -= upper[i]
        else:
            out[tail[i]].append(i)
            into[head[i]].append(i)

    def settle() -> bool:
        # Augment until no excess is left (True) or none can move (False).
        while True:
            starts = [v for v, x in enumerate(excess) if x > 0]
            if not starts:
                return True
            # A node's parent arc is i + 1 forward along edge i, -(i + 1)
            # backward, and 0 at a start.
            parent: list = [None] * len(node)
            for v in starts:
                parent[v] = 0
            for end in starts:  # grows: breadth first
                if excess[end] < 0:
                    break
                for i in out[end]:
                    if parent[head[i]] is None and flow[i] < upper[i]:
                        parent[head[i]] = i + 1
                        starts.append(head[i])
                for i in into[end]:
                    if parent[tail[i]] is None and flow[i] > 0:
                        parent[tail[i]] = -(i + 1)
                        starts.append(tail[i])
            else:
                return False
            path = []
            v, most = end, -excess[end]
            while parent[v]:
                i = abs(parent[v]) - 1
                if parent[v] > 0:
                    path.append((i, 1))
                    most = min(most, upper[i] - flow[i])
                    v = tail[i]
                else:
                    path.append((i, -1))
                    most = min(most, flow[i])
                    v = head[i]
            most = min(most, excess[v])
            for i, sign in path:
                flow[i] += sign * most
            excess[v] -= most
            excess[end] += most

    if not settle():
        return None
    position = {e.id: i for i, e in enumerate(edges)}
    marks = []
    for eid in order:
        i = position[eid]
        if eid not in full:
            saved, cap = flow[:], upper[i]
            excess[tail[i]], excess[head[i]] = flow[i], -flow[i]
            flow[i] = upper[i] = 0
            if not settle():
                flow[:] = saved
                upper[i] = cap
                excess[tail[i]] = excess[head[i]] = 0
        marks.append(flow[i] > 0)
    return tuple(marks), {e.id: Q(x, scale) for e, x in zip(edges, flow)}


# --- JSON interchange -------------------------------------------------------
#
# Instance:  {"nodes": [...],
#             "edges": [{"id", "tail", "head", "capacity": "p/q", "transit": "p/q"}],
#             "source": ..., "sink": ..., "supply": "p/q"}
# Network JSON is the same object without capacity/transit/supply.
# Rationals travel as "p/q" strings; unknown keys are ignored on input.


def network_to_obj(net: Network) -> dict:
    return {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in net.edges],
        "source": net.source,
        "sink": net.sink,
    }


_JSON_TYPE_NAMES = {list: "a list", dict: "an object", str: "a string"}


def _typed(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise ParameterError(f"field {field!r} must be {_JSON_TYPE_NAMES[kind]}, "
                             f"not {type(value).__name__}")
    return value


def _pairs(value, field: str) -> list:
    pairs = _typed(value, list, field)
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ParameterError(f"field {field!r} must be a list of [x, y] pairs")
    return pairs


def _field(obj: dict, field: str, kind: Optional[type] = None):
    """The value of the last part of the dotted name `field` in obj, of the
    JSON type `kind` when one is given.  A missing key is an input error
    that names the field."""
    key = field.rpartition(".")[2]
    if key not in obj:
        raise ParameterError(f"field {field!r} is missing")
    return obj[key] if kind is None else _typed(obj[key], kind, field)


def network_from_obj(obj: dict) -> Network:
    nodes = _field(obj, "nodes", list)
    edges = [_typed(d, dict, "edges") for d in _field(obj, "edges", list)]
    return Network(
        nodes=tuple(_typed(v, str, "nodes") for v in nodes),
        edges=tuple(Edge(*(_field(d, f"edges.{k}", str) for k in ("id", "tail", "head")))
                    for d in edges),
        source=_field(obj, "source", str),
        sink=_field(obj, "sink", str),
    )


def instance_to_obj(inst: Instance) -> dict:
    obj = network_to_obj(inst.network)
    for entry, edge in zip(obj["edges"], inst.network.edges):
        entry["capacity"] = format_scalar(inst.capacity[edge.id])
        entry["transit"] = format_scalar(inst.transit[edge.id])
    obj["supply"] = format_scalar(inst.supply)
    return obj


def instance_from_obj(obj: dict) -> Instance:
    net = network_from_obj(obj)
    capacity = {d["id"]: as_fraction(_field(d, "edges.capacity")) for d in obj["edges"]}
    transit = {d["id"]: as_fraction(_field(d, "edges.transit")) for d in obj["edges"]}
    return Instance(net, capacity, transit, as_fraction(_field(obj, "supply")))


def is_instance_obj(obj: dict) -> bool:
    return "supply" in obj


def dumps(obj: dict) -> str:
    """Deterministic JSON rendering: the text of ``json.dumps(obj,
    sort_keys=True, indent=2)`` and a newline.

    With an indent, `json.dumps` runs its pure-python encoder, so this
    small writer builds the same text itself: keys sorted, two spaces per
    level, ``[]`` and ``{}`` for empty containers, strings escaped to ASCII
    by the encoder's own function.  It writes str, bool, int, None, dicts
    with str keys, lists and tuples (as lists); anything else, a float
    included, raises TypeError.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_encode_string = json.encoder.encode_basestring_ascii


def _write_json(value, newline: str, write) -> None:
    # `newline` is a line break and the indent of the current level.
    if isinstance(value, str):
        write(_encode_string(value))
    elif value is None:
        write("null")
    elif isinstance(value, bool):  # before int: a bool is an int
        write("true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            write(sep)
            write(_encode_string(key))
            write(": ")
            _write_json(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
