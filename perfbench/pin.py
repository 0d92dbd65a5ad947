"""Regenerate pins.json: the pinned part of every base input's output.

    python3 perfbench/pin.py

Runs each workload's untransformed inputs once through `fot.cli.main` and
stores the costs, ratios, labels and classifier verdicts that the oracle in
workloads.py compares against.  Pins belong to the commit that defines the
benchmark; regenerate them only together with a change of the inputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    fot = run.load_fot()
    pins = {}
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=run.OUT)
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.make_ops(fot, workload, workloads.DEFAULT_SEED)
            workloads.write_inputs(ops, Path(workdir))
            for op in ops:
                rc, stdout, stderr, _ = run.invoke(fot.cli.main, op.argv)
                if rc != 0:
                    print(f"{op.command} {op.name}: exit {rc}: {stderr}", file=sys.stderr)
                    return 1
                pins[f"{op.command}/{op.name}"] = workloads.pin_of(op.command, json.loads(stdout))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"pinned {len(pins)} outputs to {workloads.PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
