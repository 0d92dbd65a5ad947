"""Mutation checks: each shortcut of the engine must be caught by a named test.

    python3 tests/mutants.py

Each row of `MUTANTS` is (file under `src/`, exact snippet, replacement,
test ids that must fail).  The script copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, checks that the named tests pass
there unmutated, then makes each row's replacement in a fresh copy and
runs its tests with pytest under a limit of `LIMIT` seconds.  A mutant is
killed when pytest reports a failed test.  The script exits 1 when a
snippet does not occur exactly once, when a mutant survives, when its run
passes the limit or when pytest stops for another reason (a collection
error, say).  pytest does not collect this file: its name does not start
with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 30

MUTANTS = [
    # The single-point test on the slack core edges accepts every proposal.
    ("fot/equilibrium.py",
     "if _forest(e for e in edges if e.id in core and e.id not in resetting\n"
     "                   and slopes[e.tail] == slopes[e.head]):",
     "if True:",
     ["tests/test_engine_random.py::test_the_steady_phase_of_seed_84_is_pinned"]),
    # `_forest` accepts every edge set: every core proposes a path flow.
    ("fot/equilibrium.py",
     "        if a == b:\n            return False",
     "        if a == b:\n            continue",
     ["tests/test_engine_random.py::test_the_steady_phase_of_seed_84_is_pinned"]),
    # The proposal is returned whatever `verify_thin_flow` says of it.
    ("fot/equilibrium.py",
     "reason = verify_thin_flow(net, active, resetting, capacity, supply, slopes, rates)",
     "reason = None",
     ["tests/test_engine_random.py::test_a_proposed_flow_that_fails_verification_raises"]),
    # A series-parallel proposal pins its labels in the walk whatever
    # `verify_thin_flow` says of it.
    ("fot/equilibrium.py",
     "elif tree is not None and verify_thin_flow(net, active, resetting, capacity, supply,\n"
     "                                                   slopes, rates) is None:",
     "elif tree is not None:",
     ["tests/test_engine_random.py::test_only_a_verified_series_parallel_proposal_pins_its_labels"]),
    # The label rows pin each label to its reciprocal.
    ("fot/equilibrium.py",
     "({index[v]: pinned[v].denominator}, pinned[v].numerator)",
     "({index[v]: pinned[v].numerator}, pinned[v].denominator)",
     ["tests/test_engine_random.py::test_only_a_verified_series_parallel_proposal_pins_its_labels",
      "tests/test_braess.py::test_braess_ratio_walks_only_the_phases_structure_leaves_open"]),
    # A steady verdict pins nothing: the walk from its mask takes whatever
    # it meets first, and a wrong verdict goes unnoticed.
    ("fot/equilibrium.py",
     "            pinned = dict.fromkeys(nodes, ONE)\n",
     "",
     ["tests/test_engine_random.py::test_a_steady_verdict_on_a_phase_that_is_not_steady_raises",
      "tests/test_braess.py::test_braess_ratio_walks_only_the_phases_structure_leaves_open"]),
    # A pinned walk that a wrong steady verdict leaves empty raises the
    # generic error, which does not name the steady test.
    ("fot/equilibrium.py",
     "    if steady is not None:\n        raise InternalConsistencyError(",
     "    if False:\n        raise InternalConsistencyError(",
     ["tests/test_engine_random.py::test_a_steady_verdict_on_a_phase_that_is_not_steady_raises"]),
    # All-one labels in place of the label pass.
    ("fot/equilibrium.py",
     "slopes = _label_pass(net, nodes, order, resetting, capacity, rates)",
     "slopes = dict.fromkeys(nodes, ONE)",
     ["tests/test_equilibrium.py::test_thin_flow_two_link_first_phase"]),
    # The positive-capacity precondition dropped: a zero capacity reaches
    # the proposals and the walk.
    ("fot/equilibrium.py",
     "if any(capacity[e.id] <= 0 for e in edges):",
     "if False:",
     ["tests/test_engine_random.py::test_thin_flow_refuses_a_nonpositive_competitive_capacity"]),
    # The series step drops the breakpoints of its second part.
    ("fot/equilibrium.py",
     "for r in sorted((*rs1, *cuts)):",
     "for r in sorted(rs1):",
     ["tests/test_equilibrium.py::test_exit_maps_match_hand_computed_components",
      "tests/test_engine_random.py::test_series_parallel_systems_take_the_sp_proposal"]),
    # The parallel split ignores each part's lower inverse.
    ("fot/equilibrium.py",
     "lows = [_inverse(part[0], y, bisect_left) for part in parts]",
     "lows = [ZERO for part in parts]",
     ["tests/test_equilibrium.py::test_the_split_fills_each_part_to_its_lower_inverse_first",
      "tests/test_engine_random.py::test_series_parallel_systems_take_the_sp_proposal"]),
    # `_inverse` ignores its side and always bisects right: the lower
    # inverse at a flat part's value is its upper end.
    ("fot/equilibrium.py",
     "k = side(f.ys, y) - 1",
     "k = bisect_right(f.ys, y) - 1",
     ["tests/test_equilibrium.py::test_exit_map_inverses_bracket_the_flat_part"]),
    # The reduction takes any source-sink tree for the whole network.
    ("fot/topology.py",
     "return trees.get((source, sink)) if len(trees) == 1 else None",
     "return trees.get((source, sink))",
     ["tests/test_topology.py::test_series_parallel_facts",
      "tests/test_topology.py::test_cut_node_chain_test_and_the_sp_reduction_match_the_fixpoint_code"]),
    # `st_core` keeps edges that are not kept.
    ("fot/core.py",
     "if e.id in keep and e.tail in from_source and e.head in to_sink)",
     "if e.tail in from_source and e.head in to_sink)",
     ["tests/test_core.py::test_st_core_and_filtered_reachability_on_every_edge_subset",
      "tests/test_braess.py::test_braess_ratio_ladder3_at_hundredth"]),
    # `Q.__add__` skips its second gcd reduction: a sum is not in lowest terms.
    ("fot/core.py",
     "t = na * (db // g) + nb * s\n        g = gcd(t, g)",
     "t = na * (db // g) + nb * s\n        g = 1",
     ["tests/test_rational.py::test_q_operators_agree_with_fraction"]),
    # `Q.__truediv__` skips its sign fix: a negative divisor leaves a
    # negative denominator.
    ("fot/core.py",
     "g1 = gcd(na, nb) if nb > 0 else -gcd(na, nb)",
     "g1 = gcd(na, nb)",
     ["tests/test_rational.py::test_q_operators_agree_with_fraction"]),
    # The reflected sum is the difference: 2 + q gives q - 2.
    ("fot/core.py",
     "__radd__ = __add__",
     "__radd__ = __sub__",
     ["tests/test_rational.py::test_q_operators_agree_with_fraction"]),
    # `Q.__add__` returns the zero operand for a + 0, not `a`.
    ("fot/core.py",
     "if nb == 0:\n            return a\n        na, da = a._numerator, a._denominator\n"
     "        if na == 0 and kind is Q:",
     "if nb == 0:\n            return b\n        na, da = a._numerator, a._denominator\n"
     "        if na == 0 and kind is Q:",
     ["tests/test_rational.py::test_q_operators_agree_with_fraction",
      "tests/test_rational.py::test_identity_operands_return_the_other_operand"]),
    # `Q.__mul__` returns `a` where `b` is the result: x * Q(0) gives x.
    ("fot/core.py",
     "if (nb == 0 or na == da) and kind is Q:\n            return b",
     "if (nb == 0 or na == da) and kind is Q:\n            return a",
     ["tests/test_rational.py::test_q_operators_agree_with_fraction",
      "tests/test_rational.py::test_identity_operands_return_the_other_operand"]),
    # `compose` has no outer x + 0 check: the outer x + c rebuilds inner.
    ("fot/pwl.py",
     "        if outer_shift and self.ys[0] == self.xs[0]:\n            return inner\n",
     "",
     ["tests/test_pwl.py::test_composing_with_the_identity_returns_the_curve",
      "tests/test_pwl.py::test_an_outer_x_plus_c_adds_c_to_the_inner_curve"]),
    # `__sub__` keeps every joint breakpoint: equal slopes stay unmerged.
    ("fot/pwl.py",
     "        if not slopes or slope != slopes[-1]:\n            fa = ",
     "        if not slopes or slope != slopes[-1] or op is sub:\n            fa = ",
     ["tests/test_pwl.py::test_one_loop_kernels_match_their_reference_bodies"]),
    # At a shared breakpoint `joint_segments` advances only the first curve,
    # so the walk yields an empty piece there.
    ("fot/pwl.py",
     "            g_at = j < n and gx[j + 1] == b\n            if g_at:\n                j += 1\n",
     "            g_at = False\n",
     ["tests/test_pwl.py::test_one_loop_kernels_match_their_reference_bodies"]),
    # A run's cost is INF already when the sink label ends at slope 1.
    ("fot/equilibrium.py",
     "INF if sink.final_slope > 1",
     "INF if sink.final_slope >= 1",
     ["tests/test_equilibrium.py::test_two_link_run"]),
    # The reachability closure ignores its edge filter.
    ("fot/core.py",
     "if w not in seen and (edge_ids is None or e.id in edge_ids):",
     "if w not in seen:",
     ["tests/test_core.py::test_st_core_and_filtered_reachability_on_every_edge_subset"]),
    # `_edge_curves` trusts any memo entry, whatever flow and instance made it.
    ("fot/dynamics.py",
     "if (known is not None and known[0] is inflow and known[1] is outflow\n"
     "            and known[2] == transit and known[3] == capacity):",
     "if known is not None:",
     ["tests/test_dynamics.py::test_memoized_edge_curves_hide_no_violation"]),
    # `_balanced` leaves out each curve's first slope, its change at 0.
    ("fot/dynamics.py",
     "            before = ZERO\n",
     "            before = curve.slopes()[0]\n",
     ["tests/test_dynamics.py::test_validate_all_zero_flow_breaks_source_conservation"]),
]


def copy_tree(target: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", target)


def run_tests(tree: Path, tests: list[str]) -> tuple[str, float]:
    """pytest's verdict on `tests` in `tree`: "passed", "failed", "timeout"
    or "error (exit N)", and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=LIMIT).returncode
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    verdict = {0: "passed", 1: "failed"}.get(code, f"error (exit {code})")
    return verdict, time.perf_counter() - start


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        verdict, seconds = run_tests(clean, named)
        print(f"unmutated: {verdict} in {seconds:.1f} s")
        if verdict != "passed":
            return 1
        for k, (name, snippet, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{k}"
            copy_tree(tree)
            path = tree / "src" / name
            text = path.read_text()
            if text.count(snippet) != 1:
                print(f"mutant {k} ({name}): the snippet occurs {text.count(snippet)} times")
                bad += 1
                continue
            path.write_text(text.replace(snippet, replacement))
            verdict, seconds = run_tests(tree, tests)
            killed = verdict == "failed"
            bad += not killed
            print(f"mutant {k} ({name}: {replacement!r}): "
                  f"{'killed' if killed else verdict.upper()} in {seconds:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
