"""Reproduction presets: canned parameter bindings with exact assertions.

Each preset builds its instances, runs the relevant pipeline, and checks a
list of exact inequalities or equalities, reporting every intermediate value.
All presets run offline and are deterministic.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .braess import braess_ratio
from .core import ParameterError, format_scalar, transpose
from .equilibrium import nash_flow
from .gen import (check_random_dag, embed_paradox_instance, geometric_alphas, make_ladder,
                  random_dag)
from .pwl import PiecewiseLinear
from .topology import LADDER_FAMILY, check_search_cap, find_subdivision, uses_only_chains

F = Fraction


@dataclass(frozen=True)
class Assertion:
    description: str
    required: str
    observed: str
    holds: bool


@dataclass(frozen=True)
class PresetResult:
    preset: str
    parameters: Mapping[str, str]
    assertions: tuple[Assertion, ...]
    values: Mapping[str, str]

    @property
    def ok(self) -> bool:
        return all(a.holds for a in self.assertions)

    def first_failure(self) -> Assertion | None:
        for a in self.assertions:
            if not a.holds:
                return a
        return None


# A preset's checks and its reported values; `run_preset` adds the preset's
# name and its parameters as bound.
Outcome = tuple[list[Assertion], dict[str, str]]


def _preset_lemma1(n: int = 3, eps: Fraction = F(1, 10), j: int = 1,
                   T: Fraction = F(1)) -> Outcome:
    alphas = geometric_alphas(n, eps, j)
    inst = make_ladder(n, eps, j, T)
    run = nash_flow(inst)
    probe = T / eps ** (j + n) + 1
    latency = run.labels[inst.network.sink](probe) - probe
    bound = (1 - 2 * n * eps) * (n - 1) * T

    assertions = [Assertion(
        description=f"sink latency at entry time {format_scalar(probe)} exceeds the bound",
        required=f"> {format_scalar(bound)}",
        observed=format_scalar(latency),
        holds=latency > bound,
    )]
    values = {"probe": format_scalar(probe), "sink_latency": format_scalar(latency),
              "bound": format_scalar(bound), "social_cost": format_scalar(run.social_cost)}

    seen: dict[str, Fraction] = {}
    for event in run.events:
        for eid in event.activations:
            seen[eid] = event.tail_arrival[eid]
            values[f"activation_entry_{eid}"] = format_scalar(event.time)
            values[f"activation_tail_arrival_{eid}"] = format_scalar(event.tail_arrival[eid])
    for k in range(1, n):
        expected = T * alphas[n - 1] / (alphas[k - 1] - alphas[n - 1])
        got = seen.get(f"f{k}")
        assertions.append(Assertion(
            description=f"bypass f{k} becomes competitive when its tail clock "
                        f"reads the closed-form time",
            required=format_scalar(expected),
            observed="never" if got is None else format_scalar(got),
            holds=got == expected,
        ))
    assertions.append(Assertion(
        description="run reaches a steady final phase",
        required="steady", observed=str(run.steady), holds=run.steady))
    return assertions, values


def _preset_theorem1(n: int = 3, eps: Fraction = F(1, 100), j: int = 1,
                     T: Fraction = F(1)) -> Outcome:
    inst = make_ladder(n, eps, j, T)
    report = braess_ratio(inst, label=f"ladder-{n}")
    reduced = tuple(eid for eid in inst.edge_ids if eid != f"e{n - 1}")
    reduced_cost = next(e.cost for e in report.entries if e.kept == reduced)
    target = (1 - eps) * (n - 1)
    assertions = [
        Assertion(
            description=f"deleting the last chain edge e{n - 1} is the best deletion",
            required=str(reduced),
            observed=str(report.argmax),
            holds=report.argmax == reduced,
        ),
        Assertion(
            description="the reduced network costs exactly the bypass transit time",
            required=format_scalar(T),
            observed=format_scalar(reduced_cost),
            holds=reduced_cost == T,
        ),
        Assertion(
            description="cost ratio exceeds (1 - eps)(n - 1)",
            required=f"> {format_scalar(target)}",
            observed=format_scalar(report.ratio),
            holds=report.ratio > target,
        ),
    ]
    values = {"full_cost": format_scalar(report.full_cost),
              "ratio": format_scalar(report.ratio),
              "reduced_cost": format_scalar(reduced_cost),
              "subsets_evaluated": str(len(report.entries))}
    return assertions, values


def _preset_lemma2(n: int = 3, eps: Fraction = F(1, 10), j: int = 1,
                   T: Fraction = F(1)) -> Outcome:
    inst = transpose(make_ladder(n, eps, j, T))
    report = braess_ratio(inst, label=f"transposed-ladder-{n}")
    assertions = [
        Assertion(
            description="full subgraph enumeration yields ratio exactly one",
            required="1", observed=format_scalar(report.ratio), holds=report.ratio == 1),
        Assertion(
            description="the full network costs exactly the bypass transit time",
            required=format_scalar(T), observed=format_scalar(report.full_cost),
            holds=report.full_cost == T),
    ]
    values = {"ratio": format_scalar(report.ratio),
              "full_cost": format_scalar(report.full_cost),
              "subsets_evaluated": str(len(report.entries))}
    return assertions, values


def _preset_lemma3(samples: int = 500, seed: int = 1, nodes: int = 8,
                   edges: int = 14) -> Outcome:
    # The two classifiers run here, not through `classify`, which raises on
    # a disagreement: a disagreement reads as a failed assertion.
    if samples < 1:
        raise ParameterError("need at least one sample")
    # Every host has this size, so one over the search caps is refused
    # before the first draw, after the generator's own parameter errors.
    check_random_dag(nodes, edges)
    check_search_cap(nodes, edges)
    agreements = 0
    for s in range(seed, seed + samples):
        net = random_dag(nodes, edges, s)
        chains, _ = uses_only_chains(net)
        pattern = any(find_subdivision(net, pid) is not None for pid in LADDER_FAMILY)
        if chains != pattern:
            agreements += 1
    assertions = [Assertion(
        description="chain-of-parallel-paths property coincides with the "
                    "absence of all four ladder-family patterns",
        required=f"{samples} agreements",
        observed=f"{agreements} agreements",
        holds=agreements == samples,
    )]
    return assertions, {"agreements": str(agreements)}


def _preset_theorem5(eps: Fraction = F(1, 100), j: int = 1,
                     T: Fraction = F(1)) -> Outcome:
    alphas = geometric_alphas(3, eps, j)
    host = make_ladder(4, eps, j, T).network
    embedding = find_subdivision(host, "M3")
    if embedding is None:
        raise ParameterError("host unexpectedly lacks the three-level pattern")
    inst = embed_paradox_instance(host, embedding, T, alphas)
    run = nash_flow(inst)
    report = braess_ratio(inst, label="embedded-ladder")
    target = 2 * (1 - eps)
    priced_out = [eid for eid in inst.edge_ids if inst.transit[eid] == 3 * T]
    unused = all(run.flow.inflow[eid] == PiecewiseLinear.constant(F(0))
                 for eid in priced_out)
    assertions = [
        Assertion(
            description="ratio of the embedded instance reaches 2(1 - eps)",
            required=f">= {format_scalar(target)}",
            observed=format_scalar(report.ratio),
            holds=report.ratio >= target,
        ),
        Assertion(
            description="no equilibrium flow enters any priced-out edge",
            required="zero inflow on " + ",".join(priced_out),
            observed="zero" if unused else "nonzero",
            holds=unused,
        ),
    ]
    values = {"ratio": format_scalar(report.ratio),
              "full_cost": format_scalar(report.full_cost),
              "priced_out_edges": ",".join(priced_out),
              "embedding_nodes": str(dict(embedding.node_images))}
    return assertions, values


PRESETS: dict[str, Callable[..., Outcome]] = {
    "lemma1": _preset_lemma1,
    "theorem1": _preset_theorem1,
    "lemma2": _preset_lemma2,
    "lemma3": _preset_lemma3,
    "theorem5": _preset_theorem5,
}


def run_preset(preset: str, **overrides) -> PresetResult:
    if preset not in PRESETS:
        raise ParameterError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
    run = PRESETS[preset]
    signature = inspect.signature(run)
    for name in overrides:
        if name not in signature.parameters:
            raise ParameterError(f"preset {preset!r} does not take {name!r}; "
                                 f"it takes {', '.join(signature.parameters)}")
    bound = signature.bind(**overrides)
    bound.apply_defaults()
    assertions, values = run(**bound.arguments)
    parameters = {name: format_scalar(value) for name, value in bound.arguments.items()}
    return PresetResult(preset, parameters, tuple(assertions), values)

