"""Model container, joint-action coding, policy evaluation, and file I/O."""
import itertools

import numpy as np
import pytest

from blamekit.mmdp import (
    AgentPolicy,
    JointPolicy,
    Mmdp,
    as_joint_table,
    evaluate_return,
    load_model,
    load_policy,
    policy_transition_reward,
    policy_values,
    save_model,
    save_policy,
    validate_mmdp,
)
from blamekit.planning import mmdp_from_game
from blamekit.properties import random_monotone_game
from helpers import random_factorized, random_mmdp


def single_state_model(gamma=0.9, reward=1.0):
    """One state, one agent with one action, constant reward."""
    return Mmdp(1, 1, (1,), np.array([[reward]]), np.ones((1, 1, 1)),
                gamma, np.array([1.0]))


def test_encode_decode_matches_lexicographic_enumeration():
    """The mixed-radix index must enumerate itertools.product order."""
    m = random_mmdp(np.random.default_rng(0), action_counts=(3, 2, 4))
    tuples = list(itertools.product(range(3), range(2), range(4)))
    for idx, joint in enumerate(tuples):
        assert np.ravel_multi_index(joint, m.action_counts) == idx
        assert np.unravel_index(idx, m.action_counts) == joint


def test_num_joint_actions():
    m = random_mmdp(np.random.default_rng(2), action_counts=(2, 3, 2))
    assert m.num_joint_actions == 12


def test_validate_accepts_random_model():
    for seed in range(5):
        m = random_mmdp(np.random.default_rng(seed))
        assert validate_mmdp(m) == []


def test_validate_flags_bad_shapes_and_discount():
    m = random_mmdp(np.random.default_rng(3))
    bad = Mmdp(m.num_states, m.num_agents, m.action_counts,
               m.reward[:, :2], m.transition, m.discount, m.initial_dist)
    assert any("reward" in p for p in validate_mmdp(bad))

    bad = Mmdp(m.num_states, m.num_agents, m.action_counts,
               m.reward, m.transition, 1.0, m.initial_dist)
    assert any("discount" in p for p in validate_mmdp(bad))


def test_validate_flags_broken_transition_rows():
    m = random_mmdp(np.random.default_rng(4))
    t = m.transition.copy()
    t[0, 0] *= 0.5
    bad = Mmdp(m.num_states, m.num_agents, m.action_counts,
               m.reward, t, m.discount, m.initial_dist)
    assert any("sums to" in p for p in validate_mmdp(bad))

    t = m.transition.copy()
    t[1, 0, 0] -= 1e-6
    t[1, 0, 1] += 1e-6
    t[1, 0, 0] = -abs(t[1, 0, 0]) - 1e-6
    t[1, 0, 1] += 2 * abs(t[1, 0, 0])
    t[1, 0] /= t[1, 0].sum()
    bad = Mmdp(m.num_states, m.num_agents, m.action_counts,
               m.reward, t, m.discount, m.initial_dist)
    assert any("negative" in p for p in validate_mmdp(bad))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_names_the_first_non_finite_entry(value):
    """NaN fails every tolerance comparison, so each table is scanned for
    NaN and Infinity before any arithmetic on it; the discount's range
    check already refuses both."""
    m = random_mmdp(np.random.default_rng(6), num_states=3)
    fields = {"reward": m.reward, "transition": m.transition,
              "initial_dist": m.initial_dist}
    for name, where in [("reward", (2, 1)), ("transition", (1, 4, 2)),
                        ("initial_dist", (1,))]:
        tables = {key: values.copy() for key, values in fields.items()}
        tables[name][where] = value
        tables[name].reshape(-1)[-1] = value  # a later one is not named
        bad = Mmdp(m.num_states, m.num_agents, m.action_counts,
                   tables["reward"], tables["transition"], m.discount,
                   tables["initial_dist"])
        assert validate_mmdp(bad) == [
            f"{name}{list(where)} is {value}, not finite"]
    bad = Mmdp(m.num_states, m.num_agents, m.action_counts,
               m.reward, m.transition, value, m.initial_dist)
    assert validate_mmdp(bad) == [f"discount {value} outside [0, 1)"]

    probs = np.full((2, 3), 1 / 3)
    probs[1, 2] = value
    probs[1, 0] = -value
    assert AgentPolicy(probs).validate() == [
        f"probs[1, 0] is {-value}, not finite"]


def test_validate_flags_bad_terminal_states():
    """Terminals must self-loop with zero reward."""
    m = random_mmdp(np.random.default_rng(5), num_states=3)
    r = m.reward.copy()
    t = m.transition.copy()
    r[2] = 0.0
    t[2] = 0.0
    t[2, :, 2] = 1.0
    good = Mmdp(3, m.num_agents, m.action_counts, r, t, m.discount,
                m.initial_dist, terminal_states=frozenset({2}))
    assert validate_mmdp(good) == []

    r2 = r.copy()
    r2[2, 0] = 0.5
    bad = Mmdp(3, m.num_agents, m.action_counts, r2, t, m.discount,
               m.initial_dist, terminal_states=frozenset({2}))
    assert any("nonzero reward" in p for p in validate_mmdp(bad))

    bad = Mmdp(3, m.num_agents, m.action_counts, r, m.transition, m.discount,
               m.initial_dist, terminal_states=frozenset({2}))
    assert any("self-loop" in p for p in validate_mmdp(bad))

    bad = Mmdp(3, m.num_agents, m.action_counts, r, t, m.discount,
               m.initial_dist, terminal_states=frozenset({7}))
    assert any("out of range" in p for p in validate_mmdp(bad))


def test_validate_flags_agents_without_actions():
    """Reported before any reduction: with no actions the terminal reward
    row is empty, and its max has no identity."""
    bad = Mmdp(2, 2, (0, 2), np.zeros((2, 0)), np.zeros((2, 0, 2)), 0.9,
               np.array([1.0, 0.0]), terminal_states=frozenset({1}))
    assert validate_mmdp(bad) == ["agent 0 has 0 actions, fewer than 1"]


def test_validate_flags_an_agent_count_the_action_counts_contradict():
    """A valid two-agent model relabelled as three agents."""
    m, _ = mmdp_from_game(random_monotone_game(2, 0))
    assert validate_mmdp(m) == []
    bad = Mmdp(m.num_states, 3, m.action_counts, m.reward, m.transition,
               m.discount, m.initial_dist, m.terminal_states)
    assert validate_mmdp(bad) == ["num_agents is 3, but action_counts lists 2 agents"]


def test_validate_flags_a_model_without_agents():
    """One joint action and well-formed tables, but no agent to blame."""
    bad = Mmdp(1, 0, (), np.zeros((1, 1)), np.ones((1, 1, 1)), 0.9,
               np.array([1.0]))
    assert validate_mmdp(bad) == ["num_agents is 0, fewer than 1"]


def test_self_loop_value_is_geometric_series():
    m = single_state_model(gamma=0.9, reward=1.0)
    pi = JointPolicy((AgentPolicy.deterministic(1, 1, 0),))
    np.testing.assert_allclose(policy_values(m, pi), [10.0], atol=1e-12)
    assert evaluate_return(m, pi) == pytest.approx(10.0, abs=1e-12)


def test_two_state_chain_value_by_hand():
    """State 0 pays 1 and moves to an absorbing zero-reward state.

    V(0) = 1 exactly, independent of the discount.
    """
    reward = np.array([[1.0], [0.0]])
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 1] = 1.0
    m = Mmdp(2, 1, (1,), reward, transition, 0.95, np.array([1.0, 0.0]),
             terminal_states=frozenset({1}))
    assert validate_mmdp(m) == []
    pi = JointPolicy((AgentPolicy.deterministic(2, 1, 0),))
    np.testing.assert_allclose(policy_values(m, pi), [1.0, 0.0], atol=1e-12)


def value_iteration_oracle(m, table, iters=6000):
    """Power iteration on the induced chain, independent of the solver."""
    p = np.einsum("sa,sat->st", table, m.transition)
    r = (table * m.reward).sum(axis=1)
    v = np.zeros(m.num_states)
    for _ in range(iters):
        v = r + m.discount * (p @ v)
    return v


def test_policy_values_match_power_iteration():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        m = random_mmdp(rng, num_states=5, action_counts=(2, 2), gamma=0.85)
        pi = random_factorized(rng, m)
        expected = value_iteration_oracle(m, pi.joint_table(m))
        np.testing.assert_allclose(policy_values(m, pi), expected, atol=1e-9)


def test_joint_table_is_product_of_agent_probabilities():
    rng = np.random.default_rng(7)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3, 2))
    pi = random_factorized(rng, m)
    table = pi.joint_table(m)
    for s in range(m.num_states):
        for idx in range(m.num_joint_actions):
            joint = np.unravel_index(idx, m.action_counts)
            expected = 1.0
            for i, a in enumerate(joint):
                expected *= pi.agents[i].probs[s, a]
            assert table[s, idx] == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)


def test_as_joint_table_accepts_explicit_tables():
    rng = np.random.default_rng(8)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 2))
    explicit = rng.dirichlet(np.ones(m.num_joint_actions), size=m.num_states)
    np.testing.assert_array_equal(as_joint_table(m, explicit), explicit)
    with pytest.raises(ValueError):
        as_joint_table(m, explicit[:, :3])


def test_policy_transition_reward_shapes_and_consistency():
    rng = np.random.default_rng(9)
    m = random_mmdp(rng, num_states=4, action_counts=(2, 2))
    pi = random_factorized(rng, m)
    p, r = policy_transition_reward(m, pi)
    assert p.shape == (4, 4) and r.shape == (4,)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    table = pi.joint_table(m)
    np.testing.assert_allclose(r, (table * m.reward).sum(axis=1), atol=1e-12)


def test_agent_policy_constructors_validate():
    det = AgentPolicy.deterministic(4, 3, 2)
    assert det.validate() == []
    np.testing.assert_array_equal(det.probs.argmax(axis=1), [2, 2, 2, 2])

    per_state = AgentPolicy.deterministic(3, 2, [0, 1, 0])
    np.testing.assert_array_equal(per_state.probs.argmax(axis=1), [0, 1, 0])

    uni = AgentPolicy.uniform(2, 4)
    assert uni.validate() == []
    np.testing.assert_allclose(uni.probs, 0.25)

    broken = AgentPolicy(np.array([[0.5, 0.4]]))
    assert any("summing" in p for p in broken.validate())
    negative = AgentPolicy(np.array([[1.5, -0.5]]))
    assert any("negative" in p for p in negative.validate())


def test_joint_policy_replace_and_validate():
    rng = np.random.default_rng(10)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3))
    pi = random_factorized(rng, m)
    assert pi.validate(m) == []

    swapped = pi.replace(1, AgentPolicy.uniform(3, 3))
    assert swapped.validate(m) == []
    np.testing.assert_allclose(swapped.agents[1].probs, 1.0 / 3.0)
    assert swapped.agents[0] is pi.agents[0]

    short = JointPolicy((pi.agents[0],))
    assert any("agent count" in p for p in short.validate(m))
    wrong_shape = pi.replace(0, AgentPolicy.uniform(5, 2))
    assert any("shape" in p for p in wrong_shape.validate(m))
    with pytest.raises(ValueError):
        wrong_shape.joint_table(m)


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 2))
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    assert back.num_states == m.num_states
    assert back.action_counts == m.action_counts
    np.testing.assert_allclose(back.reward, m.reward, atol=0)
    np.testing.assert_allclose(back.transition, m.transition, atol=0)
    np.testing.assert_allclose(back.initial_dist, m.initial_dist, atol=0)
    assert back.terminal_states == m.terminal_states
    assert back.content_key() == m.content_key()


def test_load_model_rejects_missing_transition_row(tmp_path):
    import json
    doc = {
        "num_states": 2, "num_agents": 1, "action_counts": [1], "gamma": 0.9,
        "initial_dist": [1.0, 0.0], "terminals": [],
        "rewards": [[0, 0, 1.0]],
        "transitions": [[0, 0, 1, 1.0]],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="transition row omitted"):
        load_model(path)

    del doc["gamma"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing field"):
        load_model(path)


def test_policy_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3))
    pi = random_factorized(rng, m)
    path = tmp_path / "policy.json"
    save_policy(pi, path)
    back = load_policy(path)
    assert back.num_agents == 2
    for a, b in zip(pi.agents, back.agents):
        np.testing.assert_allclose(a.probs, b.probs, atol=0)

    path.write_text("{}")
    with pytest.raises(ValueError, match="agents"):
        load_policy(path)


def test_content_key_distinguishes_models():
    rng = np.random.default_rng(14)
    m = random_mmdp(rng, num_states=3)
    r = m.reward.copy()
    r[0, 0] += 1e-9
    other = Mmdp(m.num_states, m.num_agents, m.action_counts, r,
                 m.transition, m.discount, m.initial_dist)
    assert m.content_key() != other.content_key()
    same = Mmdp(m.num_states, m.num_agents, m.action_counts, m.reward.copy(),
                m.transition.copy(), m.discount, m.initial_dist.copy())
    assert m.content_key() == same.content_key()
