"""Byte-identity lock on the stdout of every report the CLI writes, flow
split included.

Labels are unique, but the flow split of a phase (`phases[*].edge_rates`)
is whichever verified derivative pattern comes first in the fixed pattern
order.  These digests pin the full stdout, so any change to the solver or
the pattern order that moves a split fails here and must be made on
purpose, with the digests re-recorded.  The transposed ladders n = 5 and 6
are where the pattern search cuts the most subtrees; their digests were
recorded before it cut any.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fot.braess import default_transpose_m3_grid
from fot.cli import main
from fot.core import Instance, dumps, instance_to_obj, network_to_obj, transpose
from fot.dynamics import FlowOverTime, flow_to_obj
from fot.gen import make_ladder, random_dag

from helpers import rates, two_link_base_instance

F = Fraction
EPS = F(1, 1000)


def _random_instance(seed, nodes, edges):
    # Same capacities, transits and supply as the benchmark's random DAGs.
    net = random_dag(nodes, edges, seed)
    rng = random.Random(1000 + seed)
    capacity = {e.id: F(rng.randint(1, 3)) for e in net.edges}
    transit = {e.id: F(rng.randint(0, 2)) for e in net.edges}
    return Instance(net, capacity, transit, F(rng.randint(2, 5)))


INSTANCES = {
    "ladder-n3": lambda: make_ladder(3, EPS),
    "ladder-n4": lambda: make_ladder(4, EPS),
    "tladder-n3": lambda: transpose(make_ladder(3, EPS)),
    "tladder-n5": lambda: transpose(make_ladder(5, EPS)),
    "tladder-n6": lambda: transpose(make_ladder(6, EPS)),
    "dag-6x9-s14": lambda: _random_instance(14, 6, 9),
    "dag-7x11-s2": lambda: _random_instance(2, 7, 11),
}

SHA256 = {
    "ladder-n3": "61d9f1fe7a880c4fd1d653502f1a0b526ad293b36580cc8adf5fe26702005145",
    "ladder-n4": "c8176222deaf652833412f50ebb71e6c66142843ee8ac45f5753dc4b658c257f",
    "tladder-n3": "5618f753b85670df949006ac00d3f1745d99bf36191db473ef9410fa079a6956",
    "tladder-n5": "0e5fd618027e587fa69fa112ce818c62dc6aae6ba9eb1b1677e8ac98f6817b8b",
    "tladder-n6": "cfac9d0fcf3ee6351a575557bce9469b22ae107f196c11c5ea33439f03658591",
    "dag-6x9-s14": "60d3d50b168929b98114445136a00d7b3e6daaa52cbd17e79ea1522e78098309",
    "dag-7x11-s2": "06c99aecd8da0d7beca80988ea465b977c3858bbe148ccfcc19f7c98b19d7b44",
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_simulate_stdout_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(instance_to_obj(INSTANCES[name]())))
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHA256[name]


# -- every other report -------------------------------------------------------
#
# The checkers' verdicts, violation order and witness times, the
# subset-by-subset Braess costs, sweeps, presets, classifications and CSV
# output, pinned the same way.  The phase-capped braess and sweep runs pin
# how a report entry carries its `error` (and a sweep point its null
# ratio); the presets pin the `ok` key.

GRID = "0,1/3,1,5/2,1000,1000000000000"


def _violating_two_link_flow():
    # On the two-link instance: e1 drains faster than its capacity (a
    # negative queue), f1 keeps a queue that drains below its capacity, and
    # the source sends more than the supply.
    return FlowOverTime(
        inflow={"e1": rates((0, 2)), "f1": rates((0, 1))},
        outflow={"e1": rates((0, 3)), "f1": rates((2, 1))},
        sink_cumulative=rates((0, 3), (2, 4)),
    )


def _validate_engine_flow(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dumps(instance_to_obj(make_ladder(3, EPS))))
    assert main(["simulate", str(inst_path)]) == 0
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(json.loads(capsys.readouterr().out)["flow"]))
    return main(["validate", str(inst_path), str(flow_path), "--nash",
                 "--grid", GRID])


def _validate_violating_flow(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dumps(instance_to_obj(two_link_base_instance())))
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(flow_to_obj(_violating_two_link_flow())))
    return main(["validate", str(inst_path), str(flow_path), "--grid", GRID])


def _on_file(command, obj, *options):
    # `fot <command> <file holding obj()> <options>`
    def run(tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(dumps(obj()))
        return main([command, str(path), *options])
    return run


def _braess(inst, *options):
    return _on_file("braess", lambda: instance_to_obj(inst()), *options)


def _main(*argv):
    return lambda tmp_path, capsys: main(list(argv))


COMMANDS = {
    "validate-ladder-n3-grid": (_validate_engine_flow, 0),
    "validate-violating-grid": (_validate_violating_flow, 1),
    "braess-ladder-n3": (_braess(lambda: make_ladder(3, EPS)), 0),
    "braess-transpose-m3-grid42": (_braess(lambda: default_transpose_m3_grid()[42][1]), 0),
    "braess-ladder-n4-phase-cap-4": (
        _braess(lambda: make_ladder(4, EPS), "--phase-cap", "4"), 0),
    "sweep-transpose-m3": (_main("sweep", "--preset", "transpose-m3"), 0),
    "sweep-transpose-m3-phase-cap-2": (
        _main("sweep", "--preset", "transpose-m3", "--phase-cap", "2"), 1),
    "reproduce-lemma2": (_main("reproduce", "lemma2"), 0),
    "reproduce-theorem5": (_main("reproduce", "theorem5"), 0),
    "classify-dag-8x14-s7": (
        _on_file("classify", lambda: network_to_obj(random_dag(8, 14, 7))), 0),
    "simulate-csv-decimal4-ladder-n3": (
        _on_file("simulate", lambda: instance_to_obj(make_ladder(3, EPS)),
                 "--format", "csv", "--decimal", "4"), 0),
}

COMMAND_SHA256 = {
    "validate-ladder-n3-grid": "18c45fc2e6b0f396425c8a13cd1bf46db5f6998cc1a6eb49d6b2050d7fefe841",
    "validate-violating-grid": "97756c29cb3c77f1c66de2562a192269a8af63c399f705d6f63fa888e8c06068",
    "braess-ladder-n3": "4bfb10c35f9eb2dc0cdff85b530dd45e22a226470c745ced33bb5ab88d8fb011",
    "braess-transpose-m3-grid42": "2abaace18ac97489ce0e0b8c7a8fc538966d4651d175a7fb10326ae419df266d",
    "braess-ladder-n4-phase-cap-4": "b4dd799bdf50f93c111038e06a98b61d4f639e1e5fa776a66c7939dffc9bfb95",
    "sweep-transpose-m3": "f66edebed727ff3b678c76c184371fe425ac11e74c7a3f664bc5eff1d6fbddef",
    "sweep-transpose-m3-phase-cap-2": "e6449af8f2df45776837a52347d4c57754c3b0ff099626cc3cc17d23dea9db21",
    "reproduce-lemma2": "5dc8a73e1d45e6979a67df7588497aab3dcb3fb9a5a94e35db25a8ebdd95509d",
    "reproduce-theorem5": "25538c40b6647568902941796c1bdf419e7ceac98ea9bc4843fa3293ed6125ea",
    "classify-dag-8x14-s7": "1c08f4b0aa39be5f4b577461a7a6df2623b3f3859ce08d133fbbc5593b02f4b4",
    "simulate-csv-decimal4-ladder-n3": "3e5a9af407e7a86cd1ce16da22d8ff89281c8aefd950ce480a5c9a9f2cf6c2cc",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_stdout_is_pinned(name, tmp_path, capsys):
    command, exit_code = COMMANDS[name]
    assert command(tmp_path, capsys) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_SHA256[name]
