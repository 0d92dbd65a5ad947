import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fot
from fot.core import (
    INF,
    Edge,
    Instance,
    Network,
    ParameterError,
    UnsupportedTopologyError,
    as_fraction,
    dumps,
    format_scalar,
    instance_from_obj,
    instance_to_obj,
    is_instance_obj,
    network_from_obj,
    parse_scalar,
    restrict,
    st_core,
    transpose,
)
from fot.gen import make_ladder, random_dag

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def two_link_instance():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t"), Edge("f1", "s", "t")),
        source="s",
        sink="t",
    )
    return Instance(
        network=net,
        capacity={"e1": Fraction(1), "f1": Fraction(2)},
        transit={"e1": Fraction(0), "f1": Fraction(1)},
        supply=Fraction(2),
    )


def test_parse_format_roundtrip():
    for text in ["3/4", "-7/2", "5", "0", "inf"]:
        assert format_scalar(parse_scalar(text)) == text


def test_parse_rejects_floats_and_junk():
    with pytest.raises(ParameterError):
        parse_scalar("0.5")
    with pytest.raises(ParameterError):
        parse_scalar("1/0")
    with pytest.raises(ParameterError):
        as_fraction(0.5)


def test_infinity_ordering():
    half = Fraction(1, 2)
    assert half < INF and INF > half
    assert not INF < half
    assert INF <= INF and INF >= half
    assert INF == INF and INF != half
    with pytest.raises(TypeError):
        INF + half  # arithmetic never produces or consumes infinity


@given(rationals, rationals)
def test_exact_addition_roundtrip(a, b):
    assert (a + b) - b == a


def test_network_validation():
    with pytest.raises(ParameterError):
        Network(("s",), (), "s", "s")
    with pytest.raises(ParameterError):
        Network(("s", "t"), (Edge("e", "s", "t"), Edge("e", "s", "t")), "s", "t")
    with pytest.raises(ParameterError):
        Network(("s", "t"), (Edge("e", "s", "x"),), "s", "t")


def test_instance_validation():
    inst = two_link_instance()
    with pytest.raises(ParameterError):
        Instance(inst.network, {"e1": Fraction(1)}, dict(inst.transit), Fraction(1))
    with pytest.raises(ParameterError):
        Instance(inst.network, {"e1": Fraction(0), "f1": Fraction(1)},
                 dict(inst.transit), Fraction(1))
    with pytest.raises(ParameterError):
        Instance(inst.network, dict(inst.capacity),
                 {"e1": Fraction(-1), "f1": Fraction(0)}, Fraction(1))
    with pytest.raises(ParameterError):
        Instance(inst.network, dict(inst.capacity), dict(inst.transit), Fraction(0))


def test_instance_names_the_first_bad_edge_in_edge_order():
    # Not in an order that depends on the string hash seed.
    net = Network(("s", "t"), tuple(Edge(x, "s", "t") for x in "abcdefgh"), "s", "t")
    zeros = {x: Fraction(0) for x in "abcdefgh"}
    with pytest.raises(ParameterError, match="capacity of 'a' must be positive"):
        Instance(net, zeros, dict(zeros), Fraction(1))


@pytest.mark.parametrize("field, value", [("capacity", 1.5), ("transit", 0.5),
                                          ("supply", True)])
def test_instance_refuses_non_rational_scalars_as_the_json_reader_does(field, value):
    # Found at construction, not deep in the engine (a float capacity used
    # to fail in the thin-flow search, a float transit in `format_scalar`,
    # and a supply of True to run as 1), with the error the CLI gives.
    inst = two_link_instance()
    parts = {"capacity": dict(inst.capacity), "transit": dict(inst.transit),
             "supply": inst.supply}
    obj = instance_to_obj(inst)
    if field == "supply":
        parts["supply"] = obj["supply"] = value
    else:
        parts[field]["e1"] = obj["edges"][0][field] = value
    with pytest.raises(ParameterError) as built:
        Instance(inst.network, **parts)
    with pytest.raises(ParameterError) as read:
        instance_from_obj(obj)
    assert str(built.value) == str(read.value)


def test_topological_order_and_cycle_detection():
    net = Network(
        nodes=("a", "b", "c"),
        edges=(Edge("x", "a", "b"), Edge("y", "b", "c")),
        source="a",
        sink="c",
    )
    assert net.topological_order() == ("a", "b", "c")
    # Computed once per network: every call returns the same tuple.
    assert net.topological_order() is net.topological_order()
    cyclic = Network(
        nodes=("a", "b"),
        edges=(Edge("x", "a", "b"), Edge("y", "b", "a")),
        source="a",
        sink="b",
    )
    for _ in range(2):  # the cycle is reported on every call, not only the first
        with pytest.raises(UnsupportedTopologyError):
            cyclic.topological_order()


REIMPORT = """
import gc, importlib, sys, weakref
from fractions import Fraction
core = importlib.import_module("fot.core")
gen = importlib.import_module("fot.gen")
importlib.import_module("fot.equilibrium").nash_flow(gen.make_ladder(2, Fraction(1, 10)))
refs = {name: weakref.ref(getattr(core, name)) for name in ("Q", "Network")}
del core, gen
for name in [m for m in sys.modules if m == "fot" or m.startswith("fot.")]:
    del sys.modules[name]
importlib.import_module("fot.cli")
gc.collect()
print(sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_a_reimport_of_fot_frees_the_old_core():
    # Nothing outside the package, such as typing's cache of subscripted
    # unions, may hold the first import's classes once its modules are
    # dropped: a fresh interpreter imports fot, runs the engine, drops
    # every fot module and imports fot again.
    src = str(Path(fot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_transpose_is_involution_and_preserves_attributes():
    inst = two_link_instance()
    flipped = transpose(inst)
    assert flipped.network.source == "t" and flipped.network.sink == "s"
    assert {(e.tail, e.head) for e in flipped.network.edges} == {("t", "s")}
    assert transpose(flipped) == inst
    assert sorted(flipped.capacity.values()) == sorted(inst.capacity.values())
    assert sorted(flipped.transit.values()) == sorted(inst.transit.values())
    assert flipped.supply == inst.supply


def test_restrict_full_set_is_identity():
    inst = two_link_instance()
    assert restrict(inst, ["e1", "f1"]) == inst


def test_restrict_subset_and_no_path_is_legal():
    inst = two_link_instance()
    sub = restrict(inst, ["e1"])
    assert sub.edge_ids == ("e1",)
    assert st_core(sub.network, sub.edge_ids) == {"e1"}
    empty = restrict(inst, [])
    assert st_core(empty.network, empty.edge_ids) is None  # legal; unbounded cost
    with pytest.raises(ParameterError):
        restrict(inst, ["nope"])


def test_instance_json_roundtrip():
    inst = two_link_instance()
    obj = instance_to_obj(inst)
    assert is_instance_obj(obj)
    assert instance_from_obj(json.loads(dumps(obj))) == inst
    # unknown keys are tolerated
    obj["_meta"] = {"anything": 1}
    assert instance_from_obj(obj) == inst


# Keys and strings with non-ASCII and control characters, quotes and
# backslashes; bools and ints (a bool is an int); lists and tuples, empty
# and nested.
json_texts = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\/\n\t\x00\x7f'))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_texts,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_texts, inner, max_size=4)),
    max_leaves=25)


@given(json_values)
def test_dumps_writes_the_text_of_json_dumps(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), {1: "a"}, {"a": [{None: 0}]}, {"a", "b"}, [b"x"]])
def test_dumps_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_network_json_without_attributes():
    inst = two_link_instance()
    obj = instance_to_obj(inst)
    del obj["supply"]
    assert not is_instance_obj(obj)
    net = network_from_obj(obj)
    assert net == inst.network


@pytest.mark.parametrize("field, value", [
    ("nodes", "st"),
    ("nodes", [["s"], "t"]),
    ("edges", 5),
    ("edges", [5]),
    ("source", 0),
])
def test_json_fields_of_the_wrong_type_are_parameter_errors(field, value):
    obj = instance_to_obj(two_link_instance())
    obj[field] = value
    for load in (network_from_obj, instance_from_obj):
        with pytest.raises(ParameterError, match=repr(field)):
            load(obj)


def test_json_edge_fields_of_the_wrong_type_are_parameter_errors():
    obj = instance_to_obj(two_link_instance())
    obj["edges"][1]["tail"] = None
    with pytest.raises(ParameterError, match="'edges.tail'"):
        instance_from_obj(obj)


def _on_simple_st_paths(net, kept):
    """Edges of `kept` on some simple source-sink path of `kept` edges, by
    exhaustive depth-first search."""
    found: set[str] = set()

    def walk(v, visited, path):
        if v == net.sink:
            found.update(path)
            return
        for e in net.out_edges[v]:
            if e.id in kept and e.head not in visited:
                walk(e.head, visited | {e.head}, path + [e.id])

    walk(net.source, {net.source}, [])
    return found


def _unit_instance(net):
    ones = {e.id: Fraction(1) for e in net.edges}
    return Instance(net, ones, dict(ones), Fraction(1))


@pytest.mark.parametrize("inst", [
    make_ladder(3, Fraction(1, 10)),
    make_ladder(4, Fraction(1, 10)),
    # Random DAGs with many s-t path unions; the last has dead-end edges.
    *(_unit_instance(random_dag(nodes, edges, seed))
      for nodes, edges, seed in ((5, 8, 24), (5, 8, 29), (6, 8, 3), (6, 8, 14))),
], ids=["ladder3", "ladder4", "dag-5-8-24", "dag-5-8-29", "dag-6-8-3", "dag-6-8-14"])
def test_st_core_and_filtered_reachability_on_every_edge_subset(inst):
    net = inst.network
    ids = [e.id for e in net.edges]
    for size in range(len(ids) + 1):
        for kept in map(frozenset, combinations(ids, size)):
            on_paths = _on_simple_st_paths(net, kept)
            core = st_core(net, kept)
            # The empty set holds no source-sink path, so it is not its own core.
            assert (core == kept) == (bool(kept) and on_paths == kept), sorted(kept)
            assert core == (frozenset(on_paths) if on_paths else None), sorted(kept)
            sub = restrict(inst, kept).network
            for v in net.nodes:
                assert net.reachable_from(v, kept) == sub.reachable_from(v)
                assert net.reaching_to(v, kept) == sub.reaching_to(v)
