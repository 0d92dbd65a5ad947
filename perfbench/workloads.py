"""Inputs of the three benchmark workloads and the exact-output oracle.

Every workload is a fixed list of base inputs.  The workload seed never
changes which inputs run; it changes their numbers and names by a
transformation whose effect on the exact result is known:

* engine inputs (``simulate``, ``braess``): every transit time is multiplied
  by an integer ``kt`` and every capacity and the supply by an integer
  ``kc``.  The equilibrium of the scaled instance is the base equilibrium
  with time stretched by ``kt``: labels map breakpoints ``(x, y)`` to
  ``(kt x, kt y)``, costs are multiplied by ``kt``, ratios and the argmax
  subset are unchanged, and the pattern search visits the same patterns;
* networks (``classify``): nodes and edges are renamed and reordered, which
  leaves every structural verdict unchanged.

Seed 0 is the identity, so the pinned values in ``pins.json`` are the
outputs of the base inputs at the commit that introduced the benchmark, and
every other seed is checked against them through the rules above.  The
paper's own bounds are checked on top, independent of any pin.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

F = Fraction
WORKLOADS = ("simulate", "braess", "classify")
DEFAULT_SEED = 0
PINS_PATH = Path(__file__).with_name("pins.json")

# Ladder inputs: eps = 1/1000, j = 1, bypass transit T = 1.  Ladders with
# n >= 9 exceed the engine's cap on competitive edges and are left out.
LADDER_EPS = F(1, 1000)
SIMULATE_LADDERS = (5, 6, 7, 8)
SIMULATE_TRANSPOSED = (4, 5)
BRAESS_LADDERS = (3, 4)
# (random_dag seed, nodes, edges): runs of up to four phases with degenerate
# ties, including one diverging run and one with ten competitive edges.
SIMULATE_DAGS = ((14, 6, 9), (26, 6, 9), (1, 7, 11), (14, 7, 11), (12, 7, 11), (2, 7, 11))
# lemma3 corpus shape: a ladder-family pattern is found early.
CLASSIFY_DAGS = tuple(range(1, 101))
CLASSIFY_DAG_SHAPE = (8, 14)
# (sections, links): pattern-free chains, so every pattern search is
# exhaustive.
CLASSIFY_CHAINS = ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4), (4, 5), (10, 2), (8, 3))


@dataclass
class Op:
    """One `fot <command> <file>` call on one generated input."""

    name: str
    command: str
    kind: str  # ladder | tladder | grid | chain | pinned
    obj: dict
    params: dict = field(default_factory=dict)
    kt: Fraction = F(1)
    kc: Fraction = F(1)
    tiny: bool = False
    path: str = ""

    @property
    def argv(self) -> list[str]:
        return [self.command, self.path]


# -- base inputs ---------------------------------------------------------------


def _engine_chain(fot):
    """3x3 parallel-link chain with 3-bit transits and capacities (a 4x3
    chain takes about 44 s per op)."""
    sections = [[(F(i + k), F(1 + (3 * i + k) % 4)) for i in range(3)]
                for k in range(3)]
    return fot.gen.make_chain(sections, F(5))


def _engine_dag(fot, seed: int, nodes: int, edges: int):
    net = fot.gen.random_dag(nodes, edges, seed)
    rng = random.Random(1000 + seed)
    capacity = {e.id: F(rng.randint(1, 3)) for e in net.edges}
    transit = {e.id: F(rng.randint(0, 2)) for e in net.edges}
    return fot.core.Instance(net, capacity, transit, F(rng.randint(2, 5)))


def _plain_chain(fot, sections: int, links: int):
    return fot.gen.make_chain([[(F(1), F(1))] * links] * sections, F(1)).network


def base_ops(fot, workload: str) -> list[Op]:
    """The untransformed inputs of a workload, in pass order."""
    inst_obj = fot.core.instance_to_obj
    ops: list[Op] = []
    if workload == "simulate":
        for n in SIMULATE_LADDERS:
            ops.append(Op(f"ladder-n{n}", "simulate", "ladder",
                          inst_obj(fot.gen.make_ladder(n, LADDER_EPS)),
                          {"n": n}, tiny=n == 5))
        for n in SIMULATE_TRANSPOSED:
            inst = fot.core.transpose(fot.gen.make_ladder(n, LADDER_EPS))
            ops.append(Op(f"tladder-n{n}", "simulate", "tladder", inst_obj(inst),
                          {"n": n}, tiny=n == 4))
        ops.append(Op("chain-3x3", "simulate", "pinned", inst_obj(_engine_chain(fot))))
        for seed, nodes, edges in SIMULATE_DAGS:
            ops.append(Op(f"dag-{nodes}x{edges}-s{seed}", "simulate", "pinned",
                          inst_obj(_engine_dag(fot, seed, nodes, edges)),
                          tiny=(seed, nodes) == (2, 7)))
    elif workload == "braess":
        for i, (label, inst) in enumerate(fot.braess.default_transpose_m3_grid()):
            ops.append(Op(f"grid-{i:02d}", "braess", "grid", inst_obj(inst),
                          {"label": label}, tiny=i in (0, 10)))
        for n in BRAESS_LADDERS:
            ops.append(Op(f"ladder-n{n}", "braess", "ladder",
                          inst_obj(fot.gen.make_ladder(n, LADDER_EPS)),
                          {"n": n}, tiny=n == 3))
    elif workload == "classify":
        nodes, edges = CLASSIFY_DAG_SHAPE
        for seed in CLASSIFY_DAGS:
            net = fot.gen.random_dag(nodes, edges, seed)
            ops.append(Op(f"dag-{nodes}x{edges}-s{seed}", "classify", "pinned",
                          fot.core.network_to_obj(net), tiny=seed <= 3))
        for sections, links in CLASSIFY_CHAINS:
            net = _plain_chain(fot, sections, links)
            ops.append(Op(f"chain-{sections}x{links}", "classify", "chain",
                          fot.core.network_to_obj(net), tiny=(sections, links) == (5, 3)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# -- seed transformations --------------------------------------------------------


def _scale_instance(obj: dict, kt: Fraction, kc: Fraction) -> dict:
    out = dict(obj)
    out["edges"] = [dict(e, transit=_fmt(F(e["transit"]) * kt),
                         capacity=_fmt(F(e["capacity"]) * kc)) for e in obj["edges"]]
    out["supply"] = _fmt(F(obj["supply"]) * kc)
    return out


def _relabel_network(obj: dict, rng: random.Random) -> dict:
    nodes = list(obj["nodes"])
    names = dict(zip(nodes, (f"u{i}" for i in rng.sample(range(len(nodes)), len(nodes)))))
    edges = [{"id": f"a{i}", "tail": names[e["tail"]], "head": names[e["head"]]}
             for i, e in zip(rng.sample(range(len(obj["edges"])), len(obj["edges"])),
                             obj["edges"])]
    rng.shuffle(edges)
    relabeled = [names[v] for v in nodes]
    rng.shuffle(relabeled)
    return {"nodes": relabeled, "edges": edges,
            "source": names[obj["source"]], "sink": names[obj["sink"]]}


def make_ops(fot, workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """Base inputs transformed by the seed; seed 0 is the identity."""
    ops = [op for op in base_ops(fot, workload) if op.tiny or not tiny]
    if seed == DEFAULT_SEED:
        return ops
    rng = random.Random(seed)
    for op in ops:
        if op.command == "classify":
            op.obj = _relabel_network(op.obj, rng)
        else:
            op.kt, op.kc = F(rng.randint(1, 9)), F(rng.randint(1, 9))
            op.obj = _scale_instance(op.obj, op.kt, op.kc)
    return ops


def write_inputs(ops: list[Op], directory: Path) -> None:
    for op in ops:
        path = directory / f"{op.command}-{op.name}.json"
        path.write_text(json.dumps(op.obj, sort_keys=True), encoding="utf-8")
        op.path = str(path)


# -- exact-output oracle ---------------------------------------------------------


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scalar(text: str):
    return None if text == "inf" else F(text)


def _scaled(text: str, k: Fraction) -> str:
    return "inf" if text == "inf" else _fmt(F(text) * k)


def _scaled_labels(labels: dict, k: Fraction) -> dict:
    return {v: "inf" if lab == "inf" else {
        "breakpoints": [[_scaled(x, k), _scaled(y, k)] for x, y in lab["breakpoints"]],
        "final_slope": lab["final_slope"]} for v, lab in labels.items()}


def _paper_bounds(op: Op, out: dict) -> list[str]:
    """Facts the paper proves, checked without any pin."""
    problems = []
    n = op.params.get("n")
    horizon = op.kt  # every base ladder has bypass transit T = 1
    if op.command == "simulate" and op.kind == "ladder":
        cost = _scalar(out["social_cost"])
        bound = (1 - 2 * n * LADDER_EPS) * (n - 1) * horizon
        if cost is None or not cost > bound:
            problems.append(f"ladder cost {out['social_cost']} is not above "
                            f"(1-2n eps)(n-1)T = {_fmt(bound)}")
    if op.command == "simulate" and op.kind == "tladder":
        if _scalar(out["social_cost"]) != horizon:
            problems.append(f"transposed-ladder cost {out['social_cost']} != T = {_fmt(horizon)}")
    if op.command == "braess" and op.kind == "grid" and out["ratio"] != "1":
        problems.append(f"transposed-ladder ratio {out['ratio']} != 1")
    if op.command == "braess" and op.kind == "ladder":
        # Deleting e_{n-1} leaves cost exactly T, so the cost bound above
        # gives ratio > (1-2n eps)(n-1).  The sharper (1-eps)(n-1) of the
        # `theorem1` preset holds at n = 3 only: at n = 4, eps = 1/1000 the
        # exact ratio is 2.99600..., below 2.997.
        ratio = _scalar(out["ratio"])
        bound = (1 - LADDER_EPS) * (n - 1) if n == 3 else (1 - 2 * n * LADDER_EPS) * (n - 1)
        if ratio is None or not ratio > bound:
            problems.append(f"ladder ratio {out['ratio']} is not above {_fmt(bound)}")
        dropped = [e for e in (f"e{k}" for k in range(1, n)) if e not in out["argmax"]]
        if dropped != [f"e{n - 1}"] or len(out["argmax"]) != 2 * (n - 1) - 1:
            problems.append(f"argmax {out['argmax']} is not 'drop e{n - 1}'")
        best = [e["cost"] for e in out["entries"] if e["kept"] == out["argmax"]]
        if best != [_fmt(horizon)]:
            problems.append(f"cost after the best deletion is {best}, not T = {_fmt(horizon)}")
    if op.command == "classify" and op.kind == "chain":
        found = [pid for pid, emb in out["minors"].items() if emb is not None]
        if found or not out["uses_only_chains"] or not out["series_parallel"]:
            problems.append(f"parallel-link chain classified with patterns {found}")
    return problems


def pin_of(command: str, out: dict) -> dict:
    """The part of an output that is pinned: costs, ratios, labels, verdicts."""
    if command == "simulate":
        return {"social_cost": out["social_cost"], "labels": out["labels"]}
    if command == "braess":
        return {"full_cost": out["full_cost"], "ratio": out["ratio"],
                "argmax": out["argmax"],
                "costs": [[",".join(e["kept"]), e["cost"]] for e in out["entries"]],
                "errors": sum("error" in e for e in out["entries"])}
    return {key: out[key] for key in ("uses_only_chains", "series_parallel",
                                      "forward_paradox", "either_direction_paradox")} | {
        "minors_found": sorted(pid for pid, emb in out["minors"].items() if emb is not None)}


def expected_pin(op: Op, pin: dict) -> dict:
    """The pinned base value carried through the seed transformation."""
    if op.command == "simulate":
        return {"social_cost": _scaled(pin["social_cost"], op.kt),
                "labels": _scaled_labels(pin["labels"], op.kt)}
    if op.command == "braess":
        return dict(pin, full_cost=_scaled(pin["full_cost"], op.kt),
                    costs=[[kept, _scaled(cost, op.kt)] for kept, cost in pin["costs"]])
    return pin


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check(op: Op, rc, stdout: str, pins: dict) -> list[str]:
    """Every reason the op's result is wrong; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    key = f"{op.command}/{op.name}"
    if key not in pins:
        return [f"no pinned value for {key}"]
    problems = _paper_bounds(op, out)
    got, want = pin_of(op.command, out), expected_pin(op, pins[key])
    problems += [f"{field_name}: got {_short(got[field_name])}, pinned {_short(want[field_name])}"
                 for field_name in want if got.get(field_name) != want[field_name]]
    return problems


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


# -- input properties ------------------------------------------------------------


def st_cores(obj: dict) -> tuple[int, int, int]:
    """(subsets, subsets without an s-t path, distinct s-t cores) over all
    kept-edge subsets of an instance.  The s-t core of a subset is the set of
    its edges that lie on some source-sink path inside the subset; a subset's
    equilibrium cost depends only on its core."""
    edges = [(e["id"], e["tail"], e["head"]) for e in obj["edges"]]
    source, sink = obj["source"], obj["sink"]

    def closure(start, table):
        seen, stack = {start}, [start]
        while stack:
            for w in table.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    no_path, cores = 0, set()
    for mask in range(1 << len(edges)):
        kept = [e for i, e in enumerate(edges) if mask >> i & 1]
        fwd, back = {}, {}
        for _, tail, head in kept:
            fwd.setdefault(tail, []).append(head)
            back.setdefault(head, []).append(tail)
        from_source, to_sink = closure(source, fwd), closure(sink, back)
        if sink not in from_source:
            no_path += 1
            continue
        cores.add(frozenset(eid for eid, tail, head in kept
                            if tail in from_source and head in to_sink))
    return 1 << len(edges), no_path, len(cores)
