import io
import json

import pytest

from fot.cli import flatten, main, write_csv
from fot.core import ParameterError, SizeCapError, dumps, instance_to_obj, network_to_obj
from fot.dynamics import flow_to_obj
from fot.gen import (MAX_RANDOM_DAG_NODES, MnParams, embed_paradox_instance,
                     geometric_alphas, make_m3_variants, make_mn)
from fot import reproduce
from fot.reproduce import PRESETS
from fot.topology import find_subdivision

from fractions import Fraction

from helpers import (build_instance, read_csv, two_link_all_on_slow_flow,
                     two_link_base_instance, unflatten, walk_budget_instance)

F = Fraction


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(dumps(instance_to_obj(inst)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flatten_unflatten_roundtrip():
    obj = {
        "a": [{"x": "1/2", "flag": True}, {"x": "3", "flag": False}],
        "empty_list": [],
        "empty_dict": {},
        "count": 7,
        "nothing": None,
        "name": "e1,e2",
    }
    assert unflatten(flatten(obj)) == obj
    buf = io.StringIO()
    write_csv(obj, buf)
    assert read_csv(io.StringIO(buf.getvalue())) == obj


@pytest.mark.parametrize("key", ["a.b", "0", "-1"])
def test_flatten_refuses_keys_it_cannot_read_back(key):
    # A dotted key would split; an integer key would come back as a list index.
    with pytest.raises(ParameterError, match=repr(key)):
        flatten({"x": {key: 1}})


def test_gen_and_simulate_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "mn", "--n", "2", "--eps", "1/10")
    assert code == 0
    inst_path = tmp_path / "m2.json"
    inst_path.write_text(out)
    code, out, _ = run_cli(capsys, "simulate", str(inst_path))
    assert code == 0
    run = json.loads(out)
    assert run["social_cost"] == "1"
    assert run["steady"] is True and run["diverging"] is False
    assert run["events"][0]["activations"] == ["f1"]


def test_gen_integer_carries_cost_target(capsys):
    code, out, _ = run_cli(capsys, "gen", "mn", "--n", "3", "--eps", "1/8",
                           "--integer")
    assert code == 0
    obj = json.loads(out)
    assert obj["_meta"]["cost_target"] == "1/2"
    assert all("/" not in e["capacity"] for e in obj["edges"])


@pytest.mark.parametrize("family", ["m3prime", "m3doubleprime"])
def test_gen_m3_variant_bare_and_instantiated(family, capsys):
    net = dict(zip(("m3prime", "m3doubleprime"), make_m3_variants()))[family]
    code, out, err = run_cli(capsys, "gen", family)
    assert code == 0 and err == ""
    assert json.loads(out) == json.loads(dumps(network_to_obj(net)))
    code, out, err = run_cli(capsys, "gen", family, "--eps", "1/7", "--j", "2", "--T", "3")
    assert code == 0 and err == ""
    pid = {"m3prime": "M3Prime", "m3doubleprime": "M3DoublePrime"}[family]
    inst = embed_paradox_instance(net, find_subdivision(net, pid), F(3),
                                  geometric_alphas(3, F(1, 7), 2))
    assert json.loads(out) == json.loads(dumps(instance_to_obj(inst)))


@pytest.mark.parametrize("family", ["m3prime", "m3doubleprime"])
@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_gen_m3_variant_refuses_a_horizon_that_is_not_positive(family, horizon, capsys):
    code, out, err = run_cli(capsys, "gen", family, "--eps", "1/10", "--T", horizon)
    assert (code, out) == (2, "")
    assert err == "fot: input error: bypass transit time must be positive\n"


@pytest.mark.parametrize("family", ["m3prime", "m3doubleprime"])
@pytest.mark.parametrize("option, message", [
    (("--T", "-1"), "bypass transit time must be positive"),
    (("--T", "0"), "bypass transit time must be positive"),
    (("--j", "0"), "j must be at least 1"),
    (("--j", "0", "--T", "-1"), "j must be at least 1"),
])
def test_gen_m3_variant_bare_refuses_what_the_instance_refuses(family, option, message, capsys):
    # The bare network reads neither value, but refuses them as --eps does.
    for eps in ((), ("--eps", "1/10")):
        code, out, err = run_cli(capsys, "gen", family, *eps, *option)
        assert (code, out) == (2, "")
        assert err == f"fot: input error: {message}\n"
    code, out, err = run_cli(capsys, "gen", family, "--j", "3", "--T", "1/2")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "gen", family)[1]


def test_subcommand_output_is_deterministic(tmp_path, capsys):
    inst = make_mn(MnParams(n=3, horizon=F(1),
                            alphas=geometric_alphas(3, F(1, 10), 1)))
    path = write_instance(tmp_path, inst)
    for argv in (["simulate", path], ["braess", path], ["classify", path]):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, argv


def test_simulate_csv_carries_identical_information(tmp_path, capsys):
    inst = two_link_base_instance()
    path = write_instance(tmp_path, inst)
    code, as_json, _ = run_cli(capsys, "simulate", path)
    assert code == 0
    code, as_csv, _ = run_cli(capsys, "simulate", path, "--format", "csv")
    assert code == 0
    assert read_csv(io.StringIO(as_csv)) == json.loads(as_json)


def test_simulate_csv_refuses_integer_node_names(tmp_path, capsys):
    inst = build_instance([("a", "0", "1", 1, 0), ("b", "1", "2", 1, 1), ("c", "0", "2", 1, 2)],
                          source="0", sink="2", supply=1)
    path = write_instance(tmp_path, inst)
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 0 and err == ""
    assert set(json.loads(out)["labels"]) == {"0", "1", "2"}
    code, out, err = run_cli(capsys, "simulate", path, "--format", "csv")
    assert code == 2 and out == ""
    assert "input error" in err and "key '0' cannot be flattened" in err


def test_simulate_csv_decimal_column_is_display_only(tmp_path, capsys):
    path = write_instance(tmp_path, two_link_base_instance())
    code, out, _ = run_cli(capsys, "simulate", path, "--format", "csv",
                           "--decimal", "3")
    assert code == 0
    header = out.splitlines()[0]
    assert "display_only" in header and "not_authoritative" in header
    row = next(line for line in out.splitlines() if line.startswith("social_cost"))
    assert row.endswith("1.000")


def test_negative_decimal_places_are_a_usage_error(tmp_path, capsys):
    path = write_instance(tmp_path, two_link_base_instance())
    code, out, err = run_cli(capsys, "simulate", path, "--format", "csv",
                             "--decimal", "-1")
    assert code == 2 and out == ""
    assert "--decimal" in err and "nonnegative" in err


def test_decimal_places_without_csv_are_an_input_error(tmp_path, capsys):
    # The decimal column exists only in CSV, so JSON output refuses the
    # option instead of dropping it, before any simulation.
    path = write_instance(tmp_path, two_link_base_instance())
    for fmt in ((), ("--format", "json")):
        code, out, err = run_cli(capsys, "simulate", path, *fmt, "--decimal", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--decimal" in err and "--format csv" in err


def test_validate_cli(tmp_path, capsys):
    inst = two_link_base_instance()
    inst_path = write_instance(tmp_path, inst)
    run_code, run_out, _ = run_cli(capsys, "simulate", inst_path)
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(json.loads(run_out)["flow"]))
    code, out, _ = run_cli(capsys, "validate", inst_path, str(flow_path), "--nash")
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] and report["nash"]

    bad = two_link_all_on_slow_flow()
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(dumps(flow_to_obj(bad)))
    code, out, _ = run_cli(capsys, "validate", inst_path, str(bad_path), "--nash")
    assert code == 1
    report = json.loads(out)
    assert report["feasible"] and not report["nash"]
    assert report["nash_violations"]


def _engine_flow_obj(capsys, inst_path):
    code, out, _ = run_cli(capsys, "simulate", inst_path)
    assert code == 0
    return json.loads(out)["flow"]


def test_validate_negative_probe_time_is_an_input_error(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(_engine_flow_obj(capsys, inst_path)))
    code, out, err = run_cli(capsys, "validate", inst_path, str(flow_path),
                             "--grid=-1/2")
    assert code == 2 and out == ""
    assert "input error" in err and "DomainError" in err


def test_validate_malformed_flow_is_an_input_error(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    missing_edge = _engine_flow_obj(capsys, inst_path)
    del missing_edge["inflow"]["f1"]
    decreasing = _engine_flow_obj(capsys, inst_path)
    decreasing["inflow"]["e1"] = [["0", "1"], ["1", "-1"]]
    for flow in (missing_edge, decreasing):
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(dumps(flow))
        code, out, err = run_cli(capsys, "validate", inst_path, str(flow_path))
        assert code == 2 and out == ""
        assert "input error" in err and "MalformedFlowError" in err


def test_fields_of_the_wrong_type_are_input_errors(tmp_path, capsys):
    for field, value in (("edges", 5), ("nodes", "v1v2")):
        obj = instance_to_obj(two_link_base_instance())
        obj[field] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        for command in ("simulate", "classify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2 and out == "", (field, command)
            assert "input error" in err and repr(field) in err, (field, command)


def test_json_booleans_are_not_rationals(tmp_path, capsys):
    for field in ("capacity", "transit", "supply"):
        obj = instance_to_obj(two_link_base_instance())
        if field == "supply":
            obj["supply"] = True
        else:
            obj["edges"][0][field] = field == "capacity"
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and out == "", field
        assert "input error" in err and "as an exact rational" in err, field
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow = _engine_flow_obj(capsys, inst_path)
    flow["sink"]["final_slope"] = True
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(json.dumps(flow))
    code, out, err = run_cli(capsys, "validate", inst_path, str(flow_path))
    assert code == 2 and out == ""
    assert "input error" in err and "as an exact rational" in err


def test_validate_reports_a_negative_queue_probed_before_time_zero(tmp_path, capsys):
    # Outflow three times faster than inflow: a negative queue, whose exit
    # map sends the probe at time 1 to time -1, before any outflow.
    inst_path = write_instance(tmp_path, build_instance(
        [("e1", "v1", "v2", 1, 0)], source="v1", sink="v2", supply=1))
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(json.dumps({"inflow": {"e1": [["0", "1"]]},
                                     "outflow": {"e1": [["0", "3"]]},
                                     "sink": {"breakpoints": [["0", "0"]],
                                              "final_slope": "3"}}))
    code, out, err = run_cli(capsys, "validate", inst_path, str(flow_path), "--grid", "1")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert not report["feasible"]
    assert [v["detail"] for v in report["violations"]] == [
        "outflow rate above capacity", "negative queue"]


def _assert_input_error(capsys, field, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "", argv
    assert "input error" in err and repr(field) in err, err


def test_flow_fields_of_the_wrong_type_are_input_errors(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow = _engine_flow_obj(capsys, inst_path)
    flow["inflow"] = 5
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(json.dumps(flow))
    _assert_input_error(capsys, "inflow", "validate", inst_path, str(flow_path))


def test_validate_infinite_probe_time_is_an_input_error(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(dumps(_engine_flow_obj(capsys, inst_path)))
    _assert_input_error(capsys, "--grid", "validate", inst_path, str(flow_path),
                        "--grid", "inf")


def test_sweep_grid_entries_of_the_wrong_type_are_input_errors(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([5]))
    _assert_input_error(capsys, "grid", "sweep", "--preset", "transpose-m3",
                        "--grid", str(grid_path))


def test_braess_subsets_of_the_wrong_type_are_input_errors(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    subsets_path = tmp_path / "subsets.json"
    for subsets in ([5], ["e1f1"], [[5]]):
        subsets_path.write_text(json.dumps(subsets))
        _assert_input_error(capsys, "subsets", "braess", inst_path,
                            "--subsets", str(subsets_path))


def test_braess_cli(tmp_path, capsys):
    from fot.core import transpose

    inst = transpose(make_mn(MnParams(n=3, horizon=F(1),
                                      alphas=geometric_alphas(3, F(1, 10), 1))))
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(capsys, "braess", path)
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == "1" and report["paradox"] is False
    assert len(report["entries"]) == 16

    subsets = tmp_path / "subsets.json"
    subsets.write_text(json.dumps([["e1", "e2"]]))
    code, out, _ = run_cli(capsys, "braess", path, "--subsets", str(subsets))
    assert code == 0
    assert len(json.loads(out)["entries"]) == 2  # given subset plus the full set


def test_a_failed_witness_subset_leaves_the_braess_verdict_undetermined(tmp_path, capsys,
                                                                        monkeypatch):
    # On ladder n = 3 only the core e1, f1, f2 (every edge but e2) costs
    # less than the full network.  When its run fails, the other subsets
    # give ratio 1: the report is written as it is, with the failure on its
    # entries, and the exit code and one stderr line say that the verdict
    # is open.  A failure elsewhere leaves a ratio above 1, which stands.
    from fot import equilibrium

    path = write_instance(tmp_path, make_mn(MnParams(
        n=3, horizon=F(1), alphas=geometric_alphas(3, F(1, 1000), 1))))
    code, out, err = run_cli(capsys, "braess", path)
    assert code == 0 and err == ""
    full = json.loads(out)
    assert full["paradox"] is True and full["argmax"] == ["e1", "f1", "f2"]
    nash_flow = equilibrium.nash_flow

    def failing(inst, *args, **kwargs):
        if sorted(inst.edge_ids) == failing.core:
            raise SizeCapError("the engine refuses this core")
        return nash_flow(inst, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "nash_flow", failing)
    for failing.core, expected in ((["e1", "f1", "f2"], 1), (["e1", "e2", "f2"], 0)):
        code, out, err = run_cli(capsys, "braess", path)
        report = json.loads(out)
        errors = sum("error" in entry for entry in report["entries"])
        assert errors > 0 and code == expected
        if expected:
            assert (report["ratio"], report["paradox"]) == ("1", False)
            assert err == (f"UNDETERMINED: {errors} of 16 subsets failed, and the others "
                           "give ratio 1, so the paradox verdict is unknown\n")
        else:
            assert (report["ratio"], report["argmax"]) == (full["ratio"], full["argmax"])
            assert err == ""


def test_classify_cli(tmp_path, capsys):
    inst = make_mn(MnParams(n=3, horizon=F(1),
                            alphas=geometric_alphas(3, F(1, 10), 1)))
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["series_parallel"] is True
    assert report["minors"]["M3"]["nodes"] == {"v1": "v1", "v2": "v2", "v3": "v3"}
    assert report["uses_only_chains"] is False


def test_sweep_cli_with_grid_file(tmp_path, capsys):
    from fot.braess import default_transpose_m3_grid

    grid = [{"label": label, "instance": instance_to_obj(inst)}
            for label, inst in default_transpose_m3_grid()[:6]]
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, _ = run_cli(capsys, "sweep", "--preset", "transpose-m3",
                           "--grid", str(grid_path))
    assert code == 0
    report = json.loads(out)
    assert report["any_paradox"] is False
    assert all(p["ratio"] == "1" for p in report["points"])


def test_reproduce_cli(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "lemma2", "--n", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_passes_at_its_defaults(preset, capsys):
    code, out, err = run_cli(capsys, "reproduce", preset)
    assert code == 0, err
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("preset, flag", [
    ("lemma1", "--samples"), ("theorem1", "--seed"), ("lemma2", "--nodes"),
    ("lemma3", "--n"), ("lemma3", "--T"), ("lemma3", "--eps"), ("theorem5", "--n"),
])
def test_flag_a_preset_does_not_take_is_an_input_error(preset, flag, capsys):
    code, out, err = run_cli(capsys, "reproduce", preset, flag, "4")
    assert code == 2 and out == ""
    assert "input error" in err and f"does not take {flag[2:]!r}" in err


def test_lemma3_disagreement_is_a_failed_assertion(monkeypatch, capsys):
    # With the chain classifier flipped, every sample disagrees with the
    # pattern search: a failed assertion (exit 1), not an internal error.
    chains = reproduce.uses_only_chains
    monkeypatch.setattr(reproduce, "uses_only_chains", lambda net: (not chains(net)[0], None))
    result = reproduce.run_preset("lemma3", samples=3)
    assert result.assertions[0].holds is False
    assert result.values == {"agreements": "0"}
    code, out, err = run_cli(capsys, "reproduce", "lemma3", "--samples", "3")
    assert code == 1 and json.loads(out)["ok"] is False
    assert err.startswith("FAILED: chain-of-parallel-paths property")


@pytest.mark.parametrize("argv", [
    ("gen", "mn", "--eps", "1/10"), ("gen", "mn", "--eps", "1/10", "--integer"),
    ("reproduce", "lemma1"),
])
@pytest.mark.parametrize("n", ["0", "1", "-3"])
def test_ladders_below_two_nodes_are_input_errors(argv, n, capsys):
    code, out, err = run_cli(capsys, *argv, "--n", n)
    assert code == 2 and out == ""
    assert err == "fot: input error: need at least two nodes\n"


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_lemma3_without_samples_is_an_input_error(samples, capsys):
    code, out, err = run_cli(capsys, "reproduce", "lemma3", "--samples", samples)
    assert code == 2 and out == ""
    assert err == "fot: input error: need at least one sample\n"


def test_lemma3_hosts_over_the_search_cap_are_an_input_error(capsys):
    # Every host exceeds the subdivision caps, so the preset stops before
    # it draws any of the 500.
    code, out, err = run_cli(capsys, "reproduce", "lemma3", "--nodes", "16", "--samples", "500")
    assert code == 2 and out == ""
    assert err == ("fot: input error: SizeCapError: host exceeds the search cap "
                   "(15 nodes / 25 edges)\n")


@pytest.mark.parametrize("argv, message", [
    (("--nodes", "16"), "SizeCapError: host exceeds the search cap (15 nodes / 25 edges)"),
    (("--nodes", "1000"), "SizeCapError: host exceeds the search cap (15 nodes / 25 edges)"),
    (("--nodes", "15", "--edges", "26"),
     "SizeCapError: host exceeds the search cap (15 nodes / 25 edges)"),
    # The generator's own parameter errors come first.
    (("--nodes", "1"), "need at least two nodes"),
    (("--nodes", "1001"), "at most 1000 nodes"),
    (("--nodes", "8", "--edges", "29"), "at most 28 edges fit on 8 nodes"),
    (("--nodes", "16", "--edges", "-1"), "edge count must be nonnegative"),
])
def test_lemma3_refuses_its_hosts_before_it_draws_one(argv, message, monkeypatch, capsys):
    def drawn(*args):
        raise AssertionError("a host was drawn")

    monkeypatch.setattr(reproduce, "random_dag", drawn)
    code, out, err = run_cli(capsys, "reproduce", "lemma3", *argv)
    assert code == 2 and out == ""
    assert err == f"fot: input error: {message}\n"


def _without(obj, *path):
    """A deep copy of obj without the key at the end of `path`."""
    obj = json.loads(json.dumps(obj))
    *parents, key = path
    inner = obj
    for step in parents:
        inner = inner[step]
    del inner[key]
    return obj


def _missing_field_cases(tmp_path, capsys):
    """(name of the missing field, argv) for each JSON reader of the CLI; the
    input of a case lasts until the next case is drawn."""
    inst_obj = instance_to_obj(two_link_base_instance())
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow = _engine_flow_obj(capsys, inst_path)
    _, run_out, _ = run_cli(capsys, "simulate", inst_path)
    run = json.loads(run_out)
    grid = [{"label": "a", "instance": inst_obj}]

    def written(obj):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(obj))
        return str(path)

    for key in ("nodes", "edges", "source", "sink"):
        yield key, ("simulate", written(_without(inst_obj, key)))
        yield key, ("classify", written(_without(inst_obj, key)))
    for key in ("id", "tail", "head", "capacity", "transit"):
        yield f"edges.{key}", ("braess", written(_without(inst_obj, "edges", 0, key)))
    for path in (("inflow",), ("outflow",), ("sink",), ("sink", "breakpoints"),
                 ("sink", "final_slope")):
        yield path[-1], ("validate", inst_path, written(_without(flow, *path)))
    sweep = ("sweep", "--preset", "transpose-m3", "--grid")
    for path, field in (((0, "label"), "grid.label"), ((0, "instance"), "grid.instance"),
                        ((0, "instance", "edges", 0, "capacity"), "edges.capacity")):
        yield field, (*sweep, written(_without(grid, *path)))
    for path, field in ((("labels",), "labels"), (("queues",), "queues"),
                        (("labels", "v2", "breakpoints"), "labels.v2.breakpoints")):
        yield field, ("export-plotdata", written(_without(run, *path)))


def test_a_missing_field_is_an_input_error_that_names_it(tmp_path, capsys):
    fields = []
    for field, argv in _missing_field_cases(tmp_path, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", (field, argv)
        assert err == f"fot: input error: field {field!r} is missing\n", (field, argv)
        fields.append(field)
    assert len(fields) == 24


def test_a_bare_network_in_a_sweep_grid_is_an_input_error(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    net = network_to_obj(two_link_base_instance().network)
    grid_path.write_text(json.dumps([{"label": "a", "instance": net}]))
    code, out, err = run_cli(capsys, "sweep", "--preset", "transpose-m3",
                             "--grid", str(grid_path))
    assert code == 2 and out == ""
    assert err == ("fot: input error: field 'grid.instance' holds a bare network; "
                   "an instance is needed\n")


def test_a_key_error_inside_the_engine_is_not_an_input_error(tmp_path, capsys,
                                                               monkeypatch):
    from fot import equilibrium

    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(equilibrium, "nash_flow", broken)
    inst_path = write_instance(tmp_path, two_link_base_instance())
    with pytest.raises(KeyError, match="bug"):
        main(["simulate", inst_path])


def test_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "/nonexistent.json")
    assert code == 2 and "input error" in err
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    bare = tmp_path / "bare.json"
    bare.write_text(dumps(network_to_obj(two_link_base_instance().network)))
    code, out, err = run_cli(capsys, "simulate", str(bare))
    assert code == 2 and out == ""
    assert "input error" in err and "holds a bare network" in err
    code, out, err = run_cli(capsys, "gen", "mn", "--n", "3", "--eps", "inf")
    assert code == 2 and out == "" and "expected a finite rational" in err
    inst_path = write_instance(tmp_path, two_link_base_instance())
    code, out, err = run_cli(capsys, "simulate", inst_path, "--decimal", "x")
    assert code == 2 and out == "" and "--decimal" in err


def test_non_object_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[]")
    for command in ("classify", "simulate", "braess"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == "", command
        assert "input error" in err and "not an object" in err, command


def test_no_path_is_an_input_error(tmp_path, capsys):
    inst = build_instance([("e1", "s", "v", 1, 1), ("e2", "t", "v", 1, 1)],
                          source="s", sink="t", supply=1)
    code, _, err = run_cli(capsys, "simulate", write_instance(tmp_path, inst))
    assert code == 2
    assert "input error" in err and "NoPathError" in err


def test_size_cap_is_an_input_error(tmp_path, capsys):
    path = write_instance(tmp_path, two_link_base_instance())
    code, _, err = run_cli(capsys, "braess", path, "--cap", "1")
    assert code == 2
    assert "input error" in err and "SizeCapError" in err
    code, _, err = run_cli(capsys, "classify", path, "--node-cap", "1")
    assert code == 2
    assert "input error" in err and "SizeCapError" in err
    # A negative cap is refused while the arguments are parsed.
    for command, flag in (("braess", "--cap"), ("classify", "--node-cap"),
                          ("classify", "--edge-cap")):
        code, out, err = run_cli(capsys, command, path, flag, "-1")
        assert code == 2 and out == ""
        assert f"argument {flag}: expected a nonnegative integer, got '-1'" in err
    # A pattern walk that would visit more than its budget of masks.
    budget = write_instance(tmp_path, walk_budget_instance(), "budget.json")
    code, out, err = run_cli(capsys, "simulate", budget)
    assert code == 2 and out == ""
    assert err == ("fot: input error: SizeCapError: a thin-flow pattern walk would visit "
                   "more than 65536 support masks\n")
    # 17 parallel links of equal transit: all 17 edges are free, but the
    # walk finds its solution at its start mask.
    links = build_instance([(f"e{k}", "s", "t", 1, 1) for k in range(17)], "s", "t", 1)
    code, out, err = run_cli(capsys, "simulate", write_instance(tmp_path, links, "links.json"))
    assert code == 0 and err == ""
    assert json.loads(out)["social_cost"] == "1"


def test_phase_cap_is_an_input_error(tmp_path, capsys):
    path = write_instance(tmp_path, two_link_base_instance())
    code, _, err = run_cli(capsys, "simulate", path, "--phase-cap", "1")
    assert code == 2
    assert "input error" in err and "PhaseCapError" in err
    # A phase cap below 1 is refused while the arguments are parsed.
    for argv in (("simulate", path), ("braess", path), ("sweep", "--preset", "transpose-m3")):
        for cap in ("0", "-1"):
            code, out, err = run_cli(capsys, *argv, "--phase-cap", cap)
            assert code == 2 and out == ""
            assert f"argument --phase-cap: expected an integer of at least 1, got '{cap}'" in err


def test_braess_phase_cap_on_the_full_network_is_an_input_error(tmp_path, capsys):
    path = write_instance(tmp_path, make_mn(MnParams(
        n=3, horizon=F(1), alphas=geometric_alphas(3, F(1, 10), 1))))
    code, out, err = run_cli(capsys, "braess", path, "--phase-cap", "1")
    assert code == 2 and out == ""
    assert "input error" in err and "PhaseCapError" in err


@pytest.mark.parametrize("command", ["simulate", "classify", "braess"])
def test_cycle_is_an_input_error(command, tmp_path, capsys):
    inst = build_instance(
        [("a", "s", "x", 1, 1), ("b", "x", "s", 1, 1), ("c", "x", "t", 1, 1)],
        source="s", sink="t", supply=1)
    code, out, err = run_cli(capsys, command, write_instance(tmp_path, inst))
    assert code == 2 and out == ""
    assert "input error" in err and "UnsupportedTopologyError" in err


@pytest.mark.parametrize("field, value, message", [
    ("inflow", [["-1", "1"]], "nondecreasing"),
    ("sink", [["0", "0"], ["0", "0"]], "strictly increasing"),
    ("sink", [[1]], "'breakpoints' must be a list of [x, y] pairs"),
    ("sink", [["1", "1"], ["0", "0"]], "strictly increasing"),
    ("sink", [], "at least one breakpoint"),
], ids=["rate-before-time-zero", "repeated-sink-breakpoint", "sink-breakpoint-no-pair",
        "reversed-sink-breakpoints", "empty-sink-breakpoints"])
def test_validate_curve_that_is_no_curve_is_an_input_error(field, value, message,
                                                           tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow = _engine_flow_obj(capsys, inst_path)
    if field == "inflow":
        flow["inflow"]["e1"] = value
    else:
        flow["sink"]["breakpoints"] = value
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(json.dumps(flow))
    code, out, err = run_cli(capsys, "validate", inst_path, str(flow_path))
    assert code == 2 and out == ""
    assert "input error" in err and message in err


def test_export_plotdata(tmp_path, capsys):
    # The source never reaches u, so u's label is inf and has no series.
    inst = build_instance([("e1", "v1", "v2", 1, 0), ("f1", "v1", "v2", 2, 1),
                           ("g", "u", "v2", 1, 1)], source="v1", sink="v2", supply=2)
    inst_path = write_instance(tmp_path, inst)
    _, run_out, _ = run_cli(capsys, "simulate", inst_path)
    assert json.loads(run_out)["labels"]["u"] == "inf"
    run_path = tmp_path / "run.json"
    run_path.write_text(run_out)
    code, out, _ = run_cli(capsys, "export-plotdata", str(run_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "series,name,x,value"
    assert any(line.startswith("label,v2") for line in lines)
    assert any(line.startswith("queue,e1") for line in lines)
    assert not any(line.startswith("label,u,") for line in lines)


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--edges", "5", "--seed", "1"), ("reproduce", "lemma3"),
])
def test_random_dags_above_the_node_cap_are_input_errors(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--nodes", str(MAX_RANDOM_DAG_NODES + 1))
    assert code == 2 and out == ""
    assert err == f"fot: input error: at most {MAX_RANDOM_DAG_NODES} nodes\n"


def test_gen_random_negative_edge_count_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "gen", "random", "--nodes", "4", "--edges", "-1",
                             "--seed", "0")
    assert code == 2 and out == ""
    assert "input error" in err and "nonnegative" in err


def test_export_plotdata_label_of_the_wrong_type_is_an_input_error(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps({"labels": {"v": 5}, "queues": {}}))
    _assert_input_error(capsys, "labels.v", "export-plotdata", str(run_path))


def test_export_plotdata_breakpoint_that_is_no_pair_is_an_input_error(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps({"labels": {},
                                    "queues": {"e1": {"breakpoints": [["0", "0"], [1]]}}}))
    _assert_input_error(capsys, "queues.e1.breakpoints", "export-plotdata", str(run_path))


def test_validate_ignores_a_paths_key_in_the_flow_file(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    flow = _engine_flow_obj(capsys, inst_path)
    verdicts = []
    for extra in ({}, {"paths": {"e1": [["0", "2"]], "no,such,path": [["0", "x"]]}}):
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(dumps({**flow, **extra}))
        verdicts.append(run_cli(capsys, "validate", inst_path, str(flow_path), "--nash"))
    assert verdicts[0] == verdicts[1] and verdicts[0][0] == 0


@pytest.mark.parametrize("command", ["simulate", "export-plotdata"])
def test_output_file_holds_the_bytes_of_stdout(command, tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    if command == "simulate":
        argv = ["simulate", inst_path, "--format", "csv"]
    else:
        _, run_out, _ = run_cli(capsys, "simulate", inst_path)
        run_path = tmp_path / "run.json"
        run_path.write_text(run_out)
        argv = ["export-plotdata", str(run_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "\r\n" in out  # the csv module ends rows with CRLF
    out_path = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, "-o", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == out.encode("utf-8")


def test_directory_as_input_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", str(tmp_path))
    assert code == 2 and out == ""
    assert "input error" in err


def test_directory_as_output_is_an_input_error(tmp_path, capsys):
    inst_path = write_instance(tmp_path, two_link_base_instance())
    code, out, err = run_cli(capsys, "simulate", inst_path, "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert "input error" in err


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"network": "\xff"}')
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "utf-8" in err
