"""Command line behavior: output formats, exit codes, determinism."""
import contextlib
import copy
import io
import json
import math
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamekit.cli import (_csv, main, run_coordination, run_perm_sweep,
                          run_robustness)
from blamekit.mmdp import save_model, save_policy
from blamekit.planning import CharacteristicGame, mmdp_from_game
from blamekit.properties import random_monotone_game
from helpers import random_factorized, random_mmdp


@pytest.fixture()
def two_agent_inputs(tmp_path):
    """The interchangeable-agents fixture as a model/behavior file pair."""
    game = CharacteristicGame(2, np.array([0.0, 2.0, 2.0, 2.0]))
    model, behavior = mmdp_from_game(game)
    model_path = tmp_path / "model.json"
    behavior_path = tmp_path / "behavior.json"
    save_model(model, model_path)
    save_policy(behavior, behavior_path)
    return str(model_path), str(behavior_path)


def test_attribute_all_methods(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["attribute", "--model", model_path,
                 "--behavior", behavior_path])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "method,beta_1,beta_2,total"
    assert "SV,1,1,2" in out
    assert "BI,1,1,2" in out
    assert "AP,1,1,2" in out
    assert "MC,2,2,4" in out
    assert sum(line.startswith("MER,") for line in out) == 1
    mer_line = next(line for line in out if line.startswith("MER,"))
    assert mer_line.endswith(",2")  # the optimal total is unique


def test_attribute_exits_3_when_the_mer_tiebreak_fails(tmp_path, capsys):
    """random_monotone_game(4, 4) x 1e9, whose tiebreak LP for agent 4 is
    infeasible: the error is reported, not the untied point."""
    game = random_monotone_game(4, 4)
    model, behavior = mmdp_from_game(CharacteristicGame(4, game.values * 1e9))
    save_model(model, tmp_path / "model.json")
    save_policy(behavior, tmp_path / "behavior.json")
    code = main(["attribute", "--model", str(tmp_path / "model.json"),
                 "--behavior", str(tmp_path / "behavior.json"),
                 "--methods", "MER", "--tiebreak", "4"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "tiebreak LP for agent 4 came back infeasible" in captured.err


def test_attribute_tiebreak_and_subset(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["attribute", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "MER,MC", "--tiebreak", "1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["MER,2,0,2", "MC,2,2,4"]

    code = main(["attribute", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "MER", "--tiebreak", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1] == "MER,0,2,2"


def test_attribute_writes_file(two_agent_inputs, tmp_path, capsys):
    model_path, behavior_path = two_agent_inputs
    out_path = tmp_path / "blame.csv"
    code = main(["attribute", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "SV", "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == "method,beta_1,beta_2,total\nSV,1,1,2\n"


def test_check_reports_all_six_properties(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["check", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "SV"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "property,epsilon,holds,witness"
    names = [line.split(",")[0] for line in out[1:]]
    assert names == ["R_V", "R_E", "R_R", "R_AE", "R_S", "R_I"]
    by_name = {line.split(",")[0]: line for line in out[1:]}
    for prop in ("R_V", "R_E", "R_S", "R_I"):
        assert by_name[prop].split(",")[2] == "true"
    # on this instance even the non-guaranteed cap check comes out clean
    assert by_name["R_R"].split(",")[2] == "true"


def test_check_epsilon_is_recorded(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["check", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "MC", "--eps", "0.25"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert all(line.split(",")[1] == "0.25" for line in out[1:])


def test_check_rejects_method_lists(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["check", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "SV,MC"])
    assert code == 2
    assert "one method" in capsys.readouterr().err


def test_unknown_method_exits_2(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["attribute", "--model", model_path, "--behavior", behavior_path,
                 "--methods", "EQ"])
    assert code == 2
    assert "unknown methods" in capsys.readouterr().err


def test_bad_tiebreak_exits_2(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    code = main(["attribute", "--model", model_path, "--behavior", behavior_path,
                 "--tiebreak", "3"])
    assert code == 2
    assert "tiebreak" in capsys.readouterr().err


def test_missing_file_exits_4(two_agent_inputs, capsys):
    _, behavior_path = two_agent_inputs
    code = main(["attribute", "--model", "/nonexistent/model.json",
                 "--behavior", behavior_path])
    assert code == 4
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_exits_2(two_agent_inputs, tmp_path, capsys):
    _, behavior_path = two_agent_inputs
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main(["attribute", "--model", str(broken),
                 "--behavior", behavior_path])
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_invalid_model_exits_3(two_agent_inputs, tmp_path, capsys):
    _, behavior_path = two_agent_inputs
    doc = {
        "num_states": 2, "num_agents": 2, "action_counts": [2, 2],
        "gamma": 0.9, "initial_dist": [1.0, 0.0], "terminals": [],
        "rewards": [],
        "transitions": [[s, a, 1, 0.5] for s in range(2) for a in range(4)],
    }
    path = tmp_path / "halfmass.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 3
    assert "invalid instance" in capsys.readouterr().err


@pytest.mark.parametrize("field, column, value", [
    ("transitions", 0, -1),  # state
    ("transitions", 0, 2),
    ("transitions", 1, -1),  # joint action
    ("transitions", 1, 4),
    ("transitions", 2, -1),  # next state
    ("transitions", 2, 2),
    ("rewards", 0, -1),
    ("rewards", 1, 4),
])
def test_model_index_out_of_range_exits_2(two_agent_inputs, tmp_path, capsys,
                                           field, column, value):
    model_path, behavior_path = two_agent_inputs
    with open(model_path) as fh:
        doc = json.load(fh)
    doc[field][0][column] = value
    path = tmp_path / "bad_index.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert "index" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("action_counts", 5), ("rewards", {}),
                                          ("num_states", float("inf"))])
def test_model_field_of_wrong_type_exits_2(two_agent_inputs, tmp_path, capsys,
                                           field, value):
    model_path, behavior_path = two_agent_inputs
    with open(model_path) as fh:
        doc = json.load(fh)
    doc[field] = value
    path = tmp_path / "bad_type.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("num_states", 2.9), ("num_agents", 2.5), ("action_counts", [2, 1.7]),
    ("terminals", [1.5])])
def test_fractional_count_exits_2(two_agent_inputs, tmp_path, capsys,
                                  field, value):
    """A count or state index of 2.9 is refused, naming its field, rather
    than cut down to 2."""
    model_path, behavior_path = two_agent_inputs
    with open(model_path) as fh:
        doc = json.load(fh)
    doc[field] = value
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert f"{field} value" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, refused", [
    ("num_agents", True, True), ("action_counts", ["2", 2], "2"),
    ("num_states", "2", "2"), ("terminals", [True], True),
    ("gamma", "0.99", "0.99")])
def test_non_number_field_exits_2(two_agent_inputs, tmp_path, capsys,
                                  field, value, refused):
    """A JSON boolean or string is refused where a number belongs, naming
    its field, rather than read as one (true would be agent count 1)."""
    model_path, behavior_path = two_agent_inputs
    with open(model_path) as fh:
        doc = json.load(fh)
    doc[field] = value
    path = tmp_path / "non_number.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert f"{field} value {refused!r} is not a number" \
        in capsys.readouterr().err


@pytest.mark.parametrize("target, path, value, name", [
    ("model", ("rewards", 0, -1), "2.0", "rewards"),
    ("model", ("transitions", 0, -1), True, "transitions"),
    ("model", ("initial_dist",), [True, 0], "initial_dist"),
    ("behavior", ("agents", 1, 0), [True, False], "agent 1: probs")])
def test_non_number_table_entry_exits_2(two_agent_inputs, tmp_path, capsys,
                                        target, path, value, name):
    """A table or policy entry is held to the scalar fields' rule: a JSON
    boolean or string that numpy would read as the same number is refused,
    naming its field."""
    paths = dict(zip(("model", "behavior"), two_agent_inputs))
    with open(paths[target]) as fh:
        doc = json.load(fh)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    paths[target] = str(tmp_path / "edited.json")
    with open(paths[target], "w") as fh:
        json.dump(doc, fh)
    code = main(["attribute", "--model", paths["model"],
                 "--behavior", paths["behavior"]])
    assert code == 2
    refused = value[0] if isinstance(value, list) else value
    assert f"{name} value {refused!r} is not a number" in capsys.readouterr().err


def test_integral_floats_load_as_counts(two_agent_inputs, tmp_path, capsys):
    model_path, behavior_path = two_agent_inputs
    assert main(["attribute", "--model", model_path,
                 "--behavior", behavior_path]) == 0
    expected = capsys.readouterr().out
    with open(model_path) as fh:
        doc = json.load(fh)
    doc.update(num_states=2.0, num_agents=2.0, action_counts=[2.0, 2.0],
               terminals=[1.0])
    path = tmp_path / "float_counts.json"
    path.write_text(json.dumps(doc))
    assert main(["attribute", "--model", str(path),
                 "--behavior", behavior_path]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["attribute", "check"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("target, path, name", [
    ("model", ("rewards", 0, -1), "rewards[0, 2]"),
    ("model", ("transitions", 0, -1), "transitions[0, 3]"),
    ("model", ("initial_dist", 0), "initial_dist[0]"),
    ("model", ("gamma",), "gamma"),
    ("behavior", ("agents", 1, 0, 0), "agent 1: probs[0, 0]")])
def test_non_finite_input_exits_2(two_agent_inputs, tmp_path, capsys,
                                  command, value, target, path, name):
    """NaN and Infinity literals (which Python's json reads) are refused at
    load time, naming the first bad entry, before any solver sees them."""
    paths = dict(zip(("model", "behavior"), two_agent_inputs))
    with open(paths[target]) as fh:
        doc = json.load(fh)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    paths[target] = str(tmp_path / "edited.json")
    with open(paths[target], "w") as fh:
        json.dump(doc, fh)
    code = main([command, "--model", paths["model"],
                 "--behavior", paths["behavior"]])
    assert code == 2
    assert f"{name} is {value}, not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attribute", "check"])
@pytest.mark.parametrize("target", ["model", "behavior"])
def test_deeply_nested_input_exits_2(two_agent_inputs, tmp_path, capsys,
                                     command, target):
    """JSON nested deeper than the decoder can recurse is a parse failure,
    not a RecursionError traceback with exit 1."""
    paths = dict(zip(("model", "behavior"), two_agent_inputs))
    paths[target] = str(tmp_path / "nested.json")
    with open(paths[target], "w") as fh:
        fh.write("[" * 100000 + "]" * 100000)
    code = main([command, "--model", paths["model"],
                 "--behavior", paths["behavior"]])
    assert code == 2
    assert "cannot parse input: JSON nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("action_counts", [[2**32, 2**32], [2**62 + 1, 4],
                                           [2**62] * 250])
def test_joint_action_count_beyond_int64_exits_2(two_agent_inputs, tmp_path,
                                                 capsys, action_counts):
    """The joint action count is an exact product: 2^32 x 2^32 is not 0, and
    (2^62 + 1) x 4 is not 4, so neither file loads as a small model. The
    refusal names the product, or its power of two where it is too long to
    print (past Python's 4300-digit int to str limit)."""
    model_path, behavior_path = two_agent_inputs
    with open(model_path) as fh:
        doc = json.load(fh)
    doc.update(num_agents=len(action_counts), action_counts=action_counts)
    path = tmp_path / "huge_counts.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot parse input" in err and "[0, 0)" not in err
    product = math.prod(action_counts)
    named = product if product.bit_length() <= 128 else "at least 2**15500"
    assert f"action_counts multiply to {named} joint actions" in err


@pytest.mark.parametrize("target, path, name", [
    ("model", ("rewards",), "rewards"),
    ("behavior", ("agents", 0, 0), "agent 0: probs")])
def test_deeply_nested_value_is_named_in_a_short_message(
        two_agent_inputs, tmp_path, capsys, target, path, name):
    """One number nested 500 lists deep is refused naming its field, and the
    message cuts the value short instead of echoing all 1,000 brackets."""
    paths = dict(zip(("model", "behavior"), two_agent_inputs))
    with open(paths[target]) as fh:
        doc = json.load(fh)
    value = 0.5
    for _ in range(500):
        value = [value]
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    paths[target] = str(tmp_path / "nested_value.json")
    with open(paths[target], "w") as fh:
        json.dump(doc, fh)
    code = main(["attribute", "--model", paths["model"],
                 "--behavior", paths["behavior"]])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{name} value" in err and len(err) < 200


def test_policy_agent_that_is_not_a_table_exits_2(two_agent_inputs, tmp_path,
                                                  capsys):
    model_path, _ = two_agent_inputs
    path = tmp_path / "flat_policy.json"
    path.write_text(json.dumps({"agents": [0.5, [[1.0, 0.0], [1.0, 0.0]]]}))
    code = main(["attribute", "--model", model_path, "--behavior", str(path)])
    assert code == 2
    assert "agent 0" in capsys.readouterr().err


def test_oversized_model_exits_2(two_agent_inputs, tmp_path, capsys):
    """A declared 100000-state model would ask for a 160 GB transition
    tensor; it is bad input."""
    _, behavior_path = two_agent_inputs
    doc = {"num_states": 100000, "num_agents": 1, "action_counts": [2],
           "gamma": 0.9, "initial_dist": [1.0], "terminals": [],
           "rewards": [], "transitions": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("num_states, message", [
    (2001, "model has 2001 states, more than 2000"),
    (10**12, "model has 1000000000000 states, more than 2000"),
    # numpy's "negative dimensions are not allowed" named no field
    (-1, "num_states -1 is negative"),
    # at the cap the loader goes on to the (here missing) transition rows
    (2000, "transition row omitted")])
def test_state_count_cap_exits_2(two_agent_inputs, tmp_path, capsys,
                                 num_states, message):
    """The loader refuses a model of more than 2000 states, or fewer than 0,
    before it allocates the dense (S, A, S) transition tensor."""
    _, behavior_path = two_agent_inputs
    doc = {"num_states": num_states, "num_agents": 1, "action_counts": [2],
           "gamma": 0.9, "initial_dist": [1.0], "terminals": [],
           "rewards": [], "transitions": []}
    path = tmp_path / "many_states.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("counts, message", [
    ([0, 2], "agent 0 has 0 actions, fewer than 1"),
    ([2, -1], "agent 1 has -1 actions, fewer than 1"),
    ([2, 2, 2], "num_agents is 2, but action_counts lists 3 agents")])
def test_agent_without_actions_exits_2(two_agent_inputs, tmp_path, capsys,
                                       counts, message):
    """An agent with no actions empties every per-state table; the loader
    refuses it before validation reduces over an empty terminal row. It
    refuses action counts for more agents than num_agents the same way."""
    _, behavior_path = two_agent_inputs
    doc = {"num_states": 2, "num_agents": 2, "action_counts": counts,
           "gamma": 0.9, "initial_dist": [1.0, 0.0], "terminals": [1],
           "rewards": [], "transitions": []}
    path = tmp_path / "idle_agent.json"
    path.write_text(json.dumps(doc))
    code = main(["attribute", "--model", str(path),
                 "--behavior", behavior_path])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attribute", "check"])
def test_model_without_agents_exits_2(tmp_path, capsys, command):
    """A model with no agents has no blame to split. Its tables are
    complete, so only the agent check refuses it (exit 2), before a method
    indexes an empty blame vector."""
    doc = {"num_states": 2, "num_agents": 0, "action_counts": [],
           "gamma": 0.9, "initial_dist": [1.0, 0.0], "terminals": [1],
           "rewards": [[0, 0, 1.0]],
           "transitions": [[0, 0, 1, 1.0], [1, 0, 1, 1.0]]}
    model_path = tmp_path / "no_agents.json"
    model_path.write_text(json.dumps(doc))
    behavior_path = tmp_path / "no_agents_behavior.json"
    behavior_path.write_text(json.dumps({"agents": []}))
    code = main([command, "--model", str(model_path),
                 "--behavior", str(behavior_path)])
    assert code == 2
    assert "num_agents is 0, fewer than 1" in capsys.readouterr().err


# Values a fuzzed field may take: wrong JSON types, the NaN and Infinity
# literals Python's json reads, zero, negative and fractional counts, and a
# count too large to allocate (no size in between, so nothing big is built).
_FUZZ_VALUES = [None, True, "x", [], {}, [0], [[0.5]], 0, -1, 0.5, 1e300,
                float("nan"), float("inf"), float("-inf")]


def _json_paths(node, path=()):
    """Every position in a parsed JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(node, list):
        for pos, child in enumerate(node):
            yield from _json_paths(child, path + (pos,))


def _mutate(doc, path, kind, value):
    """Replace, drop or (for lists) duplicate-and-ragged the node at path."""
    if not path:
        return value if kind == "replace" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == "replace":
        parent[last] = value
    elif kind == "drop":
        del parent[last]
    elif isinstance(parent[last], list):
        parent[last] = parent[last] + parent[last][-1:] + [value]
    return doc


_MUTATION = st.tuples(st.sampled_from(["model", "behavior"]),
                      st.integers(0, 10**6),
                      st.sampled_from(["replace", "drop", "ragged"]),
                      st.sampled_from(_FUZZ_VALUES))


@settings(max_examples=150, deadline=None)
@given(stochastic=st.booleans(),
       mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_inputs_exit_cleanly(stochastic, mutations):
    """Malformed model and policy files map to exit 2 or 3, never to an
    uncaught exception; a mutation that leaves a valid instance exits 0."""
    rng = np.random.default_rng(0)
    if stochastic:
        model = random_mmdp(rng, num_states=2, action_counts=(2, 1))
        behavior = random_factorized(rng, model)
    else:
        model, behavior = mmdp_from_game(
            CharacteristicGame(2, np.array([0.0, 1.0, 2.0, 3.0])))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"model": os.path.join(tmp, "model.json"),
                 "behavior": os.path.join(tmp, "behavior.json")}
        save_model(model, paths["model"])
        save_policy(behavior, paths["behavior"])
        docs = {}
        for name, path in paths.items():
            with open(path) as fh:
                docs[name] = json.load(fh)
        for target, pick, kind, value in mutations:
            where = list(_json_paths(docs[target]))
            docs[target] = _mutate(docs[target], where[pick % len(where)],
                                   kind, copy.deepcopy(value))
        for name, path in paths.items():
            with open(path, "w") as fh:
                json.dump(docs[name], fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["attribute", "--model", paths["model"],
                         "--behavior", paths["behavior"]])
    assert code in (0, 2, 3)


def test_perm_sweep_rows():
    rows = run_perm_sweep()
    alphas = sorted({r["alpha_prime"] for r in rows})
    assert alphas == [round(0.1 * i, 1) for i in range(11)]
    methods = {r["method"] for r in rows}
    assert methods == {"MER", "MC", "SV", "BI", "AP"}
    for r in rows:
        assert r["blames"].shape == (2,)
        assert r["total"] == pytest.approx(float(r["blames"].sum()), abs=1e-9)


def test_coordination_rows_match_threshold_structure():
    rows = run_coordination()
    assert sorted({r["m"] for r in rows}) == [1, 2, 3, 4]
    by = {(r["m"], r["method"]): r for r in rows}
    # the totals ordering that makes the four thresholds interesting
    assert by[(1, "MC")]["total"] > by[(1, "MC")]["delta"] + 1e-6
    assert by[(2, "MER")]["total"] == pytest.approx(0.0, abs=1e-9)
    assert by[(2, "MC")]["total"] == pytest.approx(0.0, abs=1e-9)
    assert by[(2, "BI")]["total"] > by[(2, "BI")]["delta"] + 1e-6
    for m in (1, 2, 3, 4):
        assert by[(m, "SV")]["total"] == pytest.approx(
            by[(m, "SV")]["delta"], abs=1e-6)


def test_csv_cells_keep_the_written_text():
    """numpy booleans as true/false, an int (a seed) via str even past 12
    digits, and -0.0 as -0, as the experiment files have always had them."""
    assert _csv(np.True_, np.False_, True) == "true,false,true"
    assert _csv(3, 10**13) == "3,10000000000000"
    assert _csv(-0.0, np.float64(1 / 3)) == "-0,0.333333333333"


def test_perm_experiment_writes_csv(tmp_path, capsys):
    code = main(["experiment", "perm", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "perm.csv").read_text().splitlines()
    assert lines[0] == "alpha_prime,method,beta_1,beta_2,total"
    assert len(lines) == 1 + 11 * 5
    blocked = tmp_path / "blocked"
    (blocked / "perm.csv").mkdir(parents=True)
    code = main(["experiment", "perm", "--out", str(blocked)])
    assert code == 4
    assert f"cannot write {blocked / 'perm.csv'}" in capsys.readouterr().err


def test_coordination_experiment_writes_csv(tmp_path):
    code = main(["experiment", "coordination", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "coordination.csv").read_text().splitlines()
    assert lines[0] == "m,method,beta_1,beta_2,beta_3,beta_4,total"
    assert len(lines) == 1 + 4 * 5


def test_robustness_experiment_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = main(["experiment", "robustness-grid", "--seeds", "2",
                     "--eps", "0.1", "--out", str(out)])
        assert code == 0
    name = "robustness_grid.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = "robustness_grid_summary.csv"
    assert (out1 / summary).read_bytes() == (out2 / summary).read_bytes()

    lines = (out1 / name).read_text().splitlines()
    assert lines[0] == ("method,eps_max,seed,beta_1,beta_2,total,"
                        "l1_to_truth,consistent")
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"SV", "SV_V", "SV_BC", "BI_BC", "MC_BC", "MER_BC", "AP_BC"}
    assert len(lines) == 1 + 7 * 2

    summary_lines = (out1 / summary).read_text().splitlines()
    assert summary_lines[0] == ("method,eps_max,total_mean,total_std,"
                                "l1_mean,l1_std,consistent_all")
    assert len(summary_lines) == 1 + 7


def test_robustness_runs_in_the_calling_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("run_robustness started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rows = run_robustness("graph", 1, eps_levels=(0.01,))
    assert [row["method"] for row in rows] == [
        "SV", "SV_V", "SV_BC", "BI_BC", "MC_BC", "MER_BC", "AP_BC"]


def test_robustness_refuses_an_unknown_environment_as_a_library_call():
    """run_robustness is called as a function, so an unknown environment
    raises ValueError, not the command line's exit-code exception."""
    with pytest.raises(ValueError, match="unknown robustness environment 'nowhere'"):
        run_robustness("nowhere")


def test_bad_eps_list_exits_2(tmp_path, capsys):
    code = main(["experiment", "robustness-grid", "--eps", "0.1,oops",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "bad eps list" in capsys.readouterr().err
    code = main(["experiment", "robustness-grid", "--eps", "-0.2",
                 "--out", str(tmp_path)])
    assert code == 2
    # a radius past 1 covers nothing more of the simplex, and the sampler
    # cannot draw within a non-finite one
    for text in ("inf", "nan", "1e308", "-inf", "0.1,nan", "1.5"):
        code = main(["experiment", "robustness-grid", "--seeds", "1",
                     f"--eps={text}", "--out", str(tmp_path)])
        assert code == 2, text
        assert "bad eps list" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_check_bad_eps_exits_2(two_agent_inputs, capsys):
    model_path, behavior_path = two_agent_inputs
    for text in ("nan", "inf", "-1"):
        code = main(["check", "--model", model_path, "--behavior",
                     behavior_path, "--methods", "SV", "--eps", text])
        assert code == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad eps" in captured.err


def test_exact_uncertainty_unavailable_on_the_graph(tmp_path, capsys):
    """The experiments take no --exact-uncertainty: the gridworld's one
    uncertain agent gets exact bounds anyway, and the graph has no exact
    min (the library's exact=True raises that, as
    test_exact_minimization_unavailable_with_two_uncertain_complements
    pins)."""
    for name in ("robustness-graph", "robustness-grid"):
        with pytest.raises(SystemExit) as info:
            main(["experiment", name, "--seeds", "1", "--eps", "0.05",
                  "--exact-uncertainty", "--out", str(tmp_path)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --exact-uncertainty" in err
    assert os.listdir(tmp_path) == []


def test_relaxed_gridworld_rows_are_the_relaxed_run(tmp_path):
    """--relaxed reaches run_robustness: the CSV holds its relaxed rows, and
    every robust row moves off the default one; the point estimate SV reads
    no bound and stays."""
    lines = {}
    for flags in ([], ["--relaxed"]):
        out = tmp_path / ("relaxed" if flags else "default")
        assert main(["experiment", "robustness-grid", "--seeds", "1", "--eps",
                     "0.05", "--out", str(out), *flags]) == 0
        lines[bool(flags)] = (out / "robustness_grid.csv").read_text().splitlines()[1:]
    assert lines[True] == [
        _csv(r["method"], r["eps_max"], r["seed"], *r["blames"], r["total"],
             r["l1_to_truth"], r["consistent"])
        for r in run_robustness("gridworld", 1, (0.05,), relaxed=True)]
    assert [a == b for a, b in zip(lines[False], lines[True])] == [
        True, False, False, False, False, False, False]


def test_argparse_level_failures_exit_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["experiment", "perm", "--seeds", "0", "--out", str(tmp_path)])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["experiment", "unknown-name"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["experiment", "perm", "--exact-uncertainty"])
    assert info.value.code == 2
