"""Hand-built instances and flows shared across test modules, an exact
maximum-flow oracle, reference bodies of the two-curve `pwl` kernels, the
whole-system form of the exact solver, the thin-flow pattern enumerator,
and a reader that turns `--format csv` output back into its JSON object.

The fixture flows are written down from first principles (integrating the
narrated rates by hand), never taken from the engine under test.
"""

import csv
from collections import deque
from fractions import Fraction

from hypothesis import Phase

from fot import equilibrium
from fot.core import INF, Edge, Instance, Network, ParameterError
from fot.dynamics import FlowOverTime
from fot.equilibrium import Elimination, solve_exact
from fot.pwl import PiecewiseLinear

F = Fraction

# Property tests over whole `nash_flow` runs run without shrinking, which
# would re-run the engine per candidate: a failure reports the first
# failing example as drawn.
ENGINE_PHASES = [Phase.explicit, Phase.reuse, Phase.generate]


def build_instance(edges, source, sink, supply, nodes=None):
    """edges: iterable of (id, tail, head, capacity, transit)."""
    if nodes is None:
        seen = []
        for _, tail, head, _, _ in edges:
            for v in (tail, head):
                if v not in seen:
                    seen.append(v)
        nodes = tuple(seen)
    net = Network(
        nodes=tuple(nodes),
        edges=tuple(Edge(eid, tail, head) for eid, tail, head, _, _ in edges),
        source=source,
        sink=sink,
    )
    return Instance(
        network=net,
        capacity={eid: F(c) for eid, _, _, c, _ in edges},
        transit={eid: F(t) for eid, _, _, _, t in edges},
        supply=F(supply),
    )


def rates(*pairs):
    return PiecewiseLinear.from_rate_segments([(F(a), F(b)) for a, b in pairs])


def two_link_base_instance():
    """Two parallel links: fast narrow (capacity 1, transit 0) and slow wide
    (capacity 2, transit 1); supply 2."""
    return build_instance(
        [("e1", "v1", "v2", 1, 0), ("f1", "v1", "v2", 2, 1)],
        source="v1", sink="v2", supply=2)


def walk_budget_instance():
    """A bridge s -> u into a Wheatstone network on u, a, b, t with parallel
    copies (5 u -> a, 4 u -> b, 2 a -> b, 3 a -> t, 3 b -> t): 18 edges of
    capacity 1 and transit 0, supply 100.  Its first phase is neither
    steady nor series-parallel, so its pattern walk starts at mask 0; the
    bridge is the first free edge, so the first 2**17 masks hold no s-t
    path."""
    arcs = [("s", "u", 1), ("u", "a", 5), ("u", "b", 4), ("a", "b", 2),
            ("a", "t", 3), ("b", "t", 3)]
    ends = [(tail, head) for tail, head, copies in arcs for _ in range(copies)]
    return build_instance([(f"e{k}", tail, head, 1, 0) for k, (tail, head) in enumerate(ends)],
                          source="s", sink="t", supply=100)


def zero_flow(inst):
    """No flow anywhere, not even at the source."""
    zero = PiecewiseLinear.constant(F(0))
    return FlowOverTime(
        inflow={eid: zero for eid in inst.edge_ids},
        outflow={eid: zero for eid in inst.edge_ids},
        sink_cumulative=zero,
    )


def two_link_equilibrium_flow():
    """The equilibrium of the two-link base instance, integrated by hand:
    everything rides the fast link until its queue wait reaches 1, then the
    supply splits 1/1 and the queue holds steady."""
    return FlowOverTime(
        inflow={"e1": rates((0, 2), (1, 1)), "f1": rates((1, 1))},
        outflow={"e1": rates((0, 1)), "f1": rates((2, 1))},
        sink_cumulative=rates((0, 1), (2, 2)),
    )


def two_link_all_on_slow_flow():
    """Feasible but non-equilibrium: the whole supply on the slow link."""
    return FlowOverTime(
        inflow={"e1": rates(), "f1": rates((0, 2))},
        outflow={"e1": rates(), "f1": rates((1, 2))},
        sink_cumulative=rates((1, 2)),
    )


def ladder3_minus_middle_instance(eps=F(1, 10)):
    """The three-node ladder with its second rung of the fast chain removed:
    one direct slow link plus the fast first hop feeding a slow second hop.
    All routes have free-flow time 1 and the capacities sum to the supply."""
    a0 = 1 + eps
    a1 = 1 + eps ** 2
    return build_instance(
        [("e1", "v1", "v2", a1, 0),
         ("f1", "v1", "v3", a0 - a1, 1),
         ("f2", "v2", "v3", a1, 1)],
        source="v1", sink="v3", supply=a0)


def ladder3_minus_middle_flow(eps=F(1, 10)):
    """Even capacity split on the reduced ladder: no queue ever forms."""
    a0 = 1 + eps
    a1 = 1 + eps ** 2
    return FlowOverTime(
        inflow={"e1": rates((0, a1)), "f1": rates((0, a0 - a1)), "f2": rates((0, a1))},
        outflow={"e1": rates((0, a1)), "f1": rates((1, a0 - a1)), "f2": rates((1, a1))},
        sink_cumulative=rates((1, a0)),
    )


def max_flow_value(net, capacity):
    """The value of a maximum source-sink flow, which is the capacity of a
    minimum cut: shortest augmenting paths (Edmonds-Karp) on exact
    rationals, parallel edges adding their capacities.  Shares no code with
    the engine."""
    residual = {v: {} for v in net.nodes}
    for e in net.edges:
        residual[e.tail][e.head] = residual[e.tail].get(e.head, F(0)) + capacity[e.id]
        residual[e.head].setdefault(e.tail, F(0))
    value = F(0)
    while True:
        parent = {net.source: None}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            v = queue.popleft()
            for w, cap in residual[v].items():
                if cap > 0 and w not in parent:
                    parent[w] = v
                    queue.append(w)
        if net.sink not in parent:
            return value
        path = []
        w = net.sink
        while parent[w] is not None:
            path.append((parent[w], w))
            w = parent[w]
        push = min(residual[v][w] for v, w in path)
        for v, w in path:
            residual[v][w] -= push
            residual[w][v] += push
        value += push


# -- reference curve kernels ------------------------------------------------------
#
# The generator-based bodies `fot.pwl` used before its two-curve walks were
# written as one loop over local indices: every piece of a walk yielded,
# values read per piece, and the result merged into canonical form at the
# end by the checked constructor.  The property tests hold the kernels to
# these.


def reference_from_pieces(pieces):
    xs, ys, slopes = [], [], []
    for x, y, slope in pieces:
        if not slopes or slope != slopes[-1]:
            xs.append(x)
            ys.append(y)
            slopes.append(slope)
    return PiecewiseLinear(tuple(xs), tuple(ys), slopes[-1])


def reference_value(f, x):
    i = max(k for k, a in enumerate(f.xs) if a <= x)
    return f.ys[i] + f.slopes()[i] * (x - f.xs[i])


def reference_joint_segments(f, g):
    a = max(f.xs[0], g.xs[0])
    i = max(k for k, x in enumerate(f.xs) if x <= a)
    j = max(k for k, x in enumerate(g.xs) if x <= a)
    while True:
        f_next = f.xs[i + 1] if i + 1 < len(f.xs) else INF
        g_next = g.xs[j + 1] if j + 1 < len(g.xs) else INF
        b = min(f_next, g_next)
        yield (a, b, reference_value(f, a), f.slopes()[i],
               reference_value(g, a), g.slopes()[j])
        if b is INF:
            return
        if f_next == b:
            i += 1
        if g_next == b:
            j += 1
        a = b


def reference_add(f, g):
    return reference_from_pieces((a, fa + ga, fs + gs)
                                 for a, _, fa, fs, ga, gs in reference_joint_segments(f, g))


def reference_sub(f, g):
    return reference_from_pieces((a, fa - ga, fs - gs)
                                 for a, _, fa, fs, ga, gs in reference_joint_segments(f, g))


def reference_min2(f, g):
    pieces = []
    for a, b, fa, f_slope, ga, g_slope in reference_joint_segments(f, g):
        if fa < ga:
            pieces.append((a, fa, f_slope))
        elif ga < fa:
            pieces.append((a, ga, g_slope))
        else:
            pieces.append((a, fa, min(f_slope, g_slope)))
        if f_slope != g_slope:
            t = a - (fa - ga) / (f_slope - g_slope)
            if a < t and (b is INF or t < b):
                pieces.append((t, fa + f_slope * (t - a), min(f_slope, g_slope)))
    return reference_from_pieces(pieces)


def reference_compose(outer, inner):
    """outer(inner(x)) for a nondecreasing inner inside outer's domain,
    always by the walk over inner's segments and outer's breakpoints."""
    xs, slopes, last = outer.xs, outer.slopes(), len(outer.xs) - 1
    k = 0
    pieces = []
    for a, b, v, s in zip(inner.xs, (*inner.xs[1:], INF), inner.ys, inner.slopes()):
        while k < last and xs[k + 1] <= v:
            k += 1
        pieces.append((a, reference_value(outer, v), slopes[k] * s))
        if s == 0:
            continue
        end = INF if b is INF else v + s * (b - a)
        while k < last and xs[k + 1] < end:
            k += 1
            pieces.append((a + (xs[k] - v) / s, outer.ys[k], slopes[k] * s))
    return reference_from_pieces(pieces)


def reference_from_rate_segments(pairs):
    pieces = [(F(0), F(0), F(0))]
    for start, rate in pairs:
        x, y, slope = pieces[-1]
        if start > x:
            pieces.append((start, y + slope * (start - x), rate))
        else:
            pieces[-1] = (x, y, rate)
    return reference_from_pieces(pieces)


def solve_system(rows, n):
    """A whole system of sparse integer rows by `solve_exact` from no
    earlier rows: ("unique", the vector of its values) when rank A =
    rank [A|b] = n, otherwise ("inconsistent", None) or
    ("underdetermined", None).  `solve_exact` is bound here at import, so a
    test that wraps `equilibrium.solve_exact` sees only the walk's calls."""
    status, state = solve_exact(rows, n, Elimination(n))
    if status != "unique":
        return status, None
    return status, [state.value(c) for c in range(n)]


def enumerate_thin_flows(net, active, resetting, capacity, supply, pinned=None):
    """Every verified pattern solution of a phase system, in the order of
    `fot.equilibrium._walk` (whose docstring argues it exact), walked from
    the steady test's first mask, with the label rows of `pinned` when
    given: `thin_flow` returns the first one.  A cyclic network raises
    `UnsupportedTopologyError`."""
    edges, nodes, _, free, _ = equilibrium._competitive(net, active, resetting)
    steady = equilibrium.first_feasible_support(net, active, resetting, capacity, supply, free)
    yield from equilibrium._walk(net, active, resetting, capacity, supply, edges, nodes, free,
                                 None if steady is None else steady[0], pinned)


# -- reading back `fot ... --format csv` ------------------------------------------


def unflatten(rows) -> object:
    """Invert `fot.cli.flatten`: rebuild the JSON object from its rows."""
    def decode(cell: str):
        tag, _, rest = cell.partition(":")
        if tag == "s":
            return rest
        if tag == "i":
            return int(rest)
        if tag == "b":
            return rest == "true"
        if tag == "n":
            return None
        if tag == "d":
            return {}
        if tag == "l":
            return []
        raise ParameterError(f"bad value cell {cell!r}")

    root: dict = {}
    for path, cell in rows:
        parts = path.split(".")
        here = root
        for part in parts[:-1]:
            here = here.setdefault(part, {})
        here[parts[-1]] = decode(cell)

    def rebuild(node):
        if not isinstance(node, dict):
            return node
        if node and all(k.lstrip("-").isdigit() for k in node):
            return [rebuild(node[k]) for k in sorted(node, key=int)]
        return {k: rebuild(v) for k, v in node.items()}

    return rebuild(root)


def read_csv(stream) -> object:
    rows = list(csv.reader(stream))
    return unflatten([(r[0], r[1]) for r in rows[1:]])
