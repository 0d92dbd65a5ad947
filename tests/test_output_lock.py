"""Byte-identity lock on `fot simulate` output, flow split included.

Labels are unique, but the flow split of a phase (`phases[*].edge_rates`)
is whichever verified derivative pattern comes first in the fixed pattern
order.  These digests pin the full stdout, so any change to the solver or
the pattern order that moves a split fails here and must be made on
purpose, with the digests re-recorded.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fot.cli import main
from fot.core import Instance, dumps, instance_to_obj, transpose
from fot.gen import make_ladder, random_dag

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
    "dag-6x9-s14": lambda: _random_instance(14, 6, 9),
    "dag-7x11-s2": lambda: _random_instance(2, 7, 11),
}

SHA256 = {
    "ladder-n3": "61d9f1fe7a880c4fd1d653502f1a0b526ad293b36580cc8adf5fe26702005145",
    "ladder-n4": "c8176222deaf652833412f50ebb71e6c66142843ee8ac45f5753dc4b658c257f",
    "tladder-n3": "5618f753b85670df949006ac00d3f1745d99bf36191db473ef9410fa079a6956",
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
