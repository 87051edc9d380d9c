"""Coalition best responses, the inefficiency game, and its realizability."""
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blamekit import cli, planning, uncertainty
from blamekit.cli import run_coordination, run_perm_sweep
from blamekit.envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from blamekit.mmdp import (AgentPolicy, JointPolicy, Mmdp, as_joint_table,
                           evaluate_return, policy_values)
from blamekit.planning import (
    MAX_AGENTS,
    CharacteristicGame,
    best_response,
    characteristic_game,
    coalition_action_index,
    coalition_mask,
    induced_mdp,
    mask_agents,
    mmdp_from_game,
    optimal_joint,
    solve_mdp,
)
from blamekit.properties import impossibility_fixture, random_monotone_game
from helpers import (assert_same_model, chunked_product_sweep, complement_columns, compose,
                     index_stack, induced_full, induced_gathered, kahn_order,
                     mmdp_from_game_scatter, peel_levels, per_agent_rows, random_acyclic_mmdp,
                     random_factorized, random_mmdp, same_levels)


def brute_force_best_value(m, behavior, coalition):
    """Max return over all deterministic coalition deviations.

    Stationary deterministic policies suffice for the induced MDP, so this
    enumeration is an exact oracle on small models.
    """
    agents = sorted(coalition)
    if not agents:
        return evaluate_return(m, behavior)
    per_agent_maps = [itertools.product(range(m.action_counts[i]),
                                        repeat=m.num_states)
                      for i in agents]
    best = -np.inf
    for combo in itertools.product(*per_agent_maps):
        pi = behavior
        for i, actions in zip(agents, combo):
            pi = pi.replace(i, AgentPolicy.deterministic(
                m.num_states, m.action_counts[i], list(actions)))
        best = max(best, evaluate_return(m, pi))
    return best


def test_coalition_mask_roundtrip():
    assert coalition_mask([0, 2], 3) == 0b101
    assert coalition_mask((), 0) == 0
    assert mask_agents(0b101, 3) == (0, 2)
    assert mask_agents(0, 4) == ()
    for mask in range(16):
        assert coalition_mask(mask_agents(mask, 4), 4) == mask
    # numpy integers are indices too
    assert coalition_mask(np.array([2, 0]), 3) == coalition_mask([np.int8(2), 0], 3) == 0b101


_GAME = CharacteristicGame(2, [0.0, 1.0, 2.0, 3.0])
_MODEL, _BEHAVIOR = mmdp_from_game(_GAME)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _GAME.value((-1,)), "agent index -1 out of range",
                 id="value-negative"),
    pytest.param(lambda: _GAME.value((5,)), "agent index 5 out of range",
                 id="value-beyond"),
    pytest.param(lambda: _GAME.value((0, 1, 2)), "agent index 2 out of range",
                 id="value-one-beyond"),
    pytest.param(lambda: _GAME.value(-1), "coalition mask -1 out of range",
                 id="value-negative-mask"),
    pytest.param(lambda: _GAME.value(4), "coalition mask 4 out of range",
                 id="value-mask-beyond"),
    pytest.param(lambda: coalition_action_index(_MODEL, (3,)),
                 "agent index 3 out of range", id="action-index"),
    pytest.param(lambda: induced_mdp(_MODEL, _BEHAVIOR, (-1,)),
                 "agent index -1 out of range", id="induced-mdp"),
    pytest.param(lambda: best_response(_MODEL, _BEHAVIOR, (-1, 5)),
                 "agent index 5 out of range", id="best-response-largest"),
    pytest.param(lambda: coalition_mask([1.9, 0.2], 3),
                 "agent index 1.9 is not an integer", id="float"),
    pytest.param(lambda: coalition_mask(["2"], 3),
                 "agent index '2' is not an integer", id="string"),
    pytest.param(lambda: best_response(_MODEL, _BEHAVIOR, (True,)),
                 "agent index True is not an integer", id="bool"),
    pytest.param(lambda: best_response(_MODEL, _BEHAVIOR, [1, "a"]),
                 "agent index 'a' is not an integer", id="best-response-mixed"),
    pytest.param(lambda: _GAME.value([0, np.bool_(True)]),
                 "agent index np.True_ is not an integer", id="numpy-bool"),
    pytest.param(lambda: _GAME.value(True), "coalition True is a bool",
                 id="value-bool-mask"),
    pytest.param(lambda: _GAME.value(np.True_), "coalition np.True_ is a bool",
                 id="value-numpy-bool-mask")])
def test_stray_agent_indices_are_refused(call, message):
    """Every coalition entry point goes through `coalition_mask`'s gate: an
    index that is not an integer (bool included), or one outside [0, n),
    raises, naming the largest, instead of a truncation, a parse, a shift or
    an index error, and a mask outside [0, 2^n), or a bool, is not read as
    another one."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_best_response_matches_exhaustive_search():
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        m = random_mmdp(rng, num_states=3, action_counts=(2, 2), gamma=0.9)
        behavior = random_factorized(rng, m)
        for coalition in [(), (0,), (1,), (0, 1)]:
            br = best_response(m, behavior, coalition)
            expected = brute_force_best_value(m, behavior, coalition)
            assert br.value == pytest.approx(expected, abs=1e-9), \
                f"seed {seed}, coalition {coalition}"


def test_best_response_compose_only_touches_coalition():
    rng = np.random.default_rng(20)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3), gamma=0.9)
    behavior = random_factorized(rng, m)
    br = best_response(m, behavior, (1,))
    composed = compose(br, behavior)
    assert composed.agents[0] is behavior.agents[0]
    assert composed.agents[1] is br.policy[1]
    assert evaluate_return(m, composed) == pytest.approx(br.value, abs=1e-9)
    assert br.coalition == frozenset({1})
    with pytest.raises(ValueError):
        best_response(m, behavior, (5,))


def test_solve_mdp_two_state_chain():
    """Action 1 pays 1 now and parks in a zero state; action 0 pays 0.5 forever."""
    r = np.array([[0.5, 1.0], [0.0, 0.0]])
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 1] = 1.0
    p[1, :, 1] = 1.0
    v, pol = solve_mdp(r, p, gamma=0.9)
    # staying is worth 0.5 / 0.1 = 5, leaving only 1
    assert pol[0] == 0
    assert v[0] == pytest.approx(5.0, abs=1e-9)
    assert v[1] == pytest.approx(0.0, abs=1e-12)

    v, pol = solve_mdp(r, p, gamma=0.2)
    assert pol[0] == 1  # 0.5 / 0.8 = 0.625 < 1
    assert v[0] == pytest.approx(1.0, abs=1e-9)


def test_solve_mdp_raises_when_not_converged(monkeypatch):
    """Greedy on reward leaves state 0 (1 > 0.5); staying wins only after a
    second improvement round, so one round must not return silently."""
    r = np.array([[0.5, 1.0], [0.0, 0.0]])
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 1] = 1.0
    p[1, :, 1] = 1.0
    monkeypatch.setattr(planning, "MAX_POLICY_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
        solve_mdp(r, p, gamma=0.9)
    # Stacked behind a member whose greedy policy is already optimal (staying
    # pays 1 > 0.5 at once), the slow member alone must still make it raise.
    stable = np.array([[1.0, 0.5], [0.0, 0.0]])
    r_stack, p_stack = np.stack([stable, r]), np.stack([p, p])
    _, pol = solve_mdp(stable, p, gamma=0.9)
    assert pol[0] == 0
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_mdp(r_stack, p_stack, gamma=0.9)

    monkeypatch.setattr(planning, "MAX_POLICY_ITERATIONS", 2)
    _, pol = solve_mdp(r, p, gamma=0.9)
    assert pol[0] == 0
    _, pol = solve_mdp(r_stack, p_stack, gamma=0.9)
    assert pol[:, 0].tolist() == [0, 0]


def test_solve_mdp_solves_a_stack_row_for_row():
    """A stacked solve returns, bit for bit, what each member's own solve
    returns, however many rounds each member needs."""
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        k, num_states, num_actions = 7, 1 + seed, 3
        r = rng.uniform(-1.0, 1.0, size=(k, num_states, num_actions))
        r[0] = np.round(r[0])  # ties: lowest index wins
        p = rng.dirichlet(np.ones(num_states), size=(k, num_states, num_actions))
        v, pol = solve_mdp(r, p, 0.9)
        assert v.shape == (k, num_states) and pol.shape == (k, num_states)
        for member in range(k):
            v_k, pol_k = solve_mdp(r[member], p[member], 0.9)
            assert v[member].tobytes() == v_k.tobytes()
            assert pol[member].tolist() == pol_k.tolist()


def _random_chains(rng, shape):
    """Uniform(-1, 1) rewards of `shape` (..., S, A) and dirichlet rows."""
    return (rng.uniform(-1.0, 1.0, size=shape),
            rng.dirichlet(np.ones(shape[-2]), size=shape))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(1, 6),
       num_actions=st.integers(1, 4))
def test_a_warm_start_returns_the_cold_solve_bit_for_bit(seed, num_states,
                                                         num_actions):
    """Continuous rewards leave one optimal policy, and policy iteration
    reaches it from any first policy: random values, a random policy's own
    values and the optimum itself all return the cold solve's values and
    policy bit for bit; from the optimum it takes one evaluation."""
    rng = np.random.default_rng(seed)
    r, p = _random_chains(rng, (num_states, num_actions))
    v, pol = solve_mdp(r, p, 0.9)
    some = rng.integers(0, num_actions, num_states)
    states = np.arange(num_states)
    v_some = np.linalg.solve(np.eye(num_states) - 0.9 * p[states, some],
                             r[states, some])
    for start in (rng.normal(scale=10.0, size=num_states), v_some, v):
        v_w, pol_w = solve_mdp(r, p, 0.9, start)
        assert v_w.tobytes() == v.tobytes()
        assert pol_w.tolist() == pol.tolist()
    with mock.patch.object(planning, "_solve_linear",
                           wraps=planning._solve_linear) as counted:
        solve_mdp(r, p, 0.9, v)
    assert counted.call_count == 1


def test_a_warm_stack_solves_row_for_row():
    """One start shared by a stack returns, bit for bit, what each member's
    own solve from that start returns, ties included."""
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        num_states = 1 + seed
        r, p = _random_chains(rng, (7, num_states, 3))
        r[0] = np.round(r[0])  # ties: lowest index wins
        start = rng.normal(size=num_states)
        v, pol = solve_mdp(r, p, 0.9, start)
        for member in range(7):
            v_k, pol_k = solve_mdp(r[member], p[member], 0.9, start)
            assert v[member].tobytes() == v_k.tobytes()
            assert pol[member].tolist() == pol_k.tolist()


def test_a_zero_start_is_the_cold_start():
    for seed in range(5):
        rng = np.random.default_rng(800 + seed)
        r, p = _random_chains(rng, (4, 1 + seed, 3))
        r[0] = np.round(r[0])
        for r_k, p_k in ((r, p), (r[0], p[0])):
            v, pol = solve_mdp(r_k, p_k, 0.9)
            v_0, pol_0 = solve_mdp(r_k, p_k, 0.9, np.zeros(1 + seed))
            assert v_0.tobytes() == v.tobytes()
            assert pol_0.tolist() == pol.tolist()


def test_warm_and_cold_solves_agree_where_actions_tie():
    """Quarter-step rewards on deterministic moves tie many actions, so a
    warm start may settle on another optimal policy (it does on some seeds
    here); the values still agree to 1e-12 relative, and each solve meets
    the Bellman equation to 1e-12 relative."""
    policies_differ = False
    for seed in range(40):
        rng = np.random.default_rng(seed)
        r = rng.integers(-2, 3, size=(6, 4)) * 0.25
        p = np.eye(6)[rng.integers(0, 6, size=(6, 4))]
        v, pol = solve_mdp(r, p, 0.9)
        v_w, pol_w = solve_mdp(r, p, 0.9, rng.normal(size=6))
        policies_differ |= pol_w.tolist() != pol.tolist()
        scale = max(1.0, np.abs(v).max())
        assert np.abs(v_w - v).max() <= 1e-12 * scale
        for values in (v, v_w):
            backup = (r + 0.9 * p @ values).max(axis=-1)
            assert np.abs(backup - values).max() <= 1e-12 * scale
    assert policies_differ


def test_characteristic_game_starts_from_the_behaviors_values(monkeypatch):
    """Every chunk of the gridworld's sweep starts from the behavior's state
    values; a one-step model, which is acyclic, takes the backward pass and
    runs no policy iteration at all."""
    gridworld = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    one_step = mmdp_from_game(random_monotone_game(4, 0))
    starts = []

    def recording(r, p, gamma, start=None):
        starts.append(start)
        return solve_mdp(r, p, gamma, start)

    monkeypatch.setattr(planning, "solve_mdp", recording)
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    characteristic_game(*one_step)
    assert starts == []
    characteristic_game(*gridworld)
    v_b = policy_values(*gridworld)
    assert starts and all(start.tobytes() == v_b.tobytes() for start in starts)


def test_the_perm_and_coordination_experiments_make_at_most_150_linear_solves(
        monkeypatch):
    """Started from the behavior's values, the gridworld's coalitions need a
    few evaluations each, not one per step the values spread: 140 linear
    solves in all, against 313 from the greedy step on reward alone."""
    # the lone actor's plans are solved once per process, outside the count
    build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    with mock.patch.object(planning, "_solve_linear",
                           wraps=planning._solve_linear) as counted:
        run_perm_sweep()
        run_coordination()
    assert counted.call_count <= 150


def test_the_perm_experiment_sweeps_six_games_for_its_eleven_builds(monkeypatch):
    """Its repeated behaviors (alpha_prime 0.0-0.3, 0.4-0.5 and 0.9-1.0) come
    one after another, so the two-entry game memo sweeps each once. All
    eleven builds return one model object."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    models = []

    def build(spec):
        model, behavior = build_gridworld(spec)
        models.append(model)
        return model, behavior

    with mock.patch.object(cli, "build_gridworld", wraps=build) as builds, \
            mock.patch.object(planning, "_coalition_chunks",
                              wraps=planning._coalition_chunks) as sweeps:
        run_perm_sweep()
    assert (builds.call_count, sweeps.call_count) == (11, 6)
    assert len(models) == 11 and all(model is models[0] for model in models)


def test_coalition_action_index_layout():
    m = random_mmdp(np.random.default_rng(21), action_counts=(2, 3))
    idx = coalition_action_index(m, (0,))
    assert idx.shape == (2, 3)
    for c in range(2):
        for d in range(3):
            assert idx[c, d] == np.ravel_multi_index((c, d), m.action_counts)
    idx = coalition_action_index(m, (1,))
    assert idx.shape == (3, 2)
    for c in range(3):
        for d in range(2):
            assert idx[c, d] == np.ravel_multi_index((d, c), m.action_counts)
    full = coalition_action_index(m, (0, 1))
    assert full.shape == (6, 1)
    np.testing.assert_array_equal(full[:, 0], np.arange(6))
    empty = coalition_action_index(m, ())
    assert empty.shape == (1, 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_mixed_radix_layouts_match_brute_force(action_counts):
    """For every coalition, coalition_action_index agrees with
    np.ravel_multi_index of each (coalition tuple, complement tuple) pair, and
    the per-agent complement columns (the oracle for the robust ball
    chooser's columns) agree with digit-by-digit decoding."""
    m = random_mmdp(np.random.default_rng(0), num_states=2,
                    action_counts=tuple(action_counts))
    n = m.num_agents

    def tuples(group):
        return list(itertools.product(*(range(m.action_counts[i]) for i in group)))

    for mask in range(1 << n):
        agents = list(mask_agents(mask, n))
        others = [i for i in range(n) if i not in agents]
        expect = np.zeros((len(tuples(agents)), len(tuples(others))), dtype=np.int64)
        for ci, c in enumerate(tuples(agents)):
            for di, d in enumerate(tuples(others)):
                actions = [0] * n
                for i, a in zip(agents + others, c + d):
                    actions[i] = a
                expect[ci, di] = np.ravel_multi_index(actions, m.action_counts)
        idx = coalition_action_index(m, agents)
        assert idx.dtype == np.int64 and idx.flags.c_contiguous
        np.testing.assert_array_equal(idx, expect)

        num_d, cols = complement_columns(m, others)
        assert num_d == len(tuples(others)) and sorted(cols) == others
        for pos, j in enumerate(others):
            np.testing.assert_array_equal(cols[j], [d[pos] for d in tuples(others)])


def test_best_response_compose_plays_the_solved_joint_action():
    for seed in range(4):
        rng = np.random.default_rng(500 + seed)
        m = random_mmdp(rng, num_states=4, action_counts=(2, 3, 2), gamma=0.9)
        behavior = random_factorized(rng, m)
        for mask in range(1, 1 << m.num_agents):
            coalition = mask_agents(mask, m.num_agents)
            r_c, p_c, idx = induced_mdp(m, behavior, coalition)
            _, pol = solve_mdp(r_c, p_c, m.discount)
            table = compose(best_response(m, behavior, coalition),
                            behavior).joint_table(m)
            # probability of each coalition joint action, per state
            marginal = table[np.arange(m.num_states)[:, None, None], idx].sum(axis=2)
            np.testing.assert_allclose(marginal, np.eye(idx.shape[0])[pol], atol=1e-12)


def test_induced_mdp_marginalizes_complement():
    rng = np.random.default_rng(22)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3), gamma=0.9)
    behavior = random_factorized(rng, m)
    r_c, p_c, _ = induced_mdp(m, behavior, (0,))
    q = behavior.agents[1].probs  # complement conditional
    for s in range(3):
        for a0 in range(2):
            joint = [np.ravel_multi_index((a0, a1), m.action_counts) for a1 in range(3)]
            expect_r = sum(q[s, a1] * m.reward[s, joint[a1]] for a1 in range(3))
            assert r_c[s, a0] == pytest.approx(expect_r, abs=1e-12)
            expect_p = sum(q[s, a1] * m.transition[s, joint[a1]] for a1 in range(3))
            np.testing.assert_allclose(p_c[s, a0], expect_p, atol=1e-12)


def test_induced_mdp_gathers_its_coalition_rows_once():
    """induced_mdp hands the kernel coalition_action_index's (A_C, A_D) index
    and returns it: 2 `_rows` calls (the coalition's and the complement's),
    not the 4 of a second gather, for the same index."""
    m, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    for mask in range(1, 1 << m.num_agents):
        coalition = mask_agents(mask, m.num_agents)
        for call in (induced_mdp, best_response):
            with mock.patch.object(planning, "_rows", wraps=planning._rows) as rows:
                call(m, behavior, coalition)
            assert rows.call_count == 2, (call.__name__, coalition)
        np.testing.assert_array_equal(induced_mdp(m, behavior, coalition)[2],
                                      coalition_action_index(m, coalition))


def test_characteristic_game_monotone_and_grounded():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        m = random_mmdp(rng, num_states=3, action_counts=(2, 2, 2), gamma=0.8)
        behavior = random_factorized(rng, m)
        game = characteristic_game(m, behavior)
        assert game.validate() == []
        assert game.value(()) == 0.0
        # singleton and pair values agree with direct best responses
        j_b = evaluate_return(m, behavior)
        for coalition in [(0,), (2,), (0, 1), (1, 2)]:
            direct = best_response(m, behavior, coalition).value - j_b
            assert game.value(coalition) == pytest.approx(direct, abs=1e-9)
        assert game.total == pytest.approx(
            optimal_joint(m).value - j_b, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(action_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       num_states=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_characteristic_game_is_every_best_response_gain(action_counts,
                                                         num_states, seed):
    """Exact equality with one best response per coalition. One-action
    agents put coalitions of different sizes into the same joint-action
    count group of the batched sweep; the behavior is a non-factorized
    joint table."""
    rng = np.random.default_rng(seed)
    m = random_mmdp(rng, num_states, tuple(action_counts), gamma=0.9)
    table = rng.dirichlet(np.ones(m.num_joint_actions), size=num_states)
    values = characteristic_game(m, table).values
    j_b = evaluate_return(m, table)
    for mask in range(1, 1 << m.num_agents):
        br = best_response(m, table, mask_agents(mask, m.num_agents))
        assert values[mask] == br.value - j_b


def _behavior_table(rng, m, kind):
    """A joint behavior table that is deterministic, partially or fully
    supported, or explicit with -0.0 and -1e-17 entries where it plays
    nothing."""
    S = m.num_states
    rows = []
    for k in m.action_counts:
        if kind == "deterministic":
            probs = np.eye(k)[rng.integers(0, k, S)]
        else:
            probs = rng.dirichlet(np.ones(k), size=S)
            if kind != "full":
                probs *= rng.random((S, k)) < 0.5
                probs[np.arange(S), rng.integers(0, k, S)] += 0.5
        rows.append(AgentPolicy(probs / probs.sum(axis=1, keepdims=True)))
    table = JointPolicy(tuple(rows)).joint_table(m)
    if kind == "explicit":
        zeros = table == 0
        table[zeros & (rng.random(table.shape) < 0.5)] = -0.0
        table[zeros & (rng.random(table.shape) < 0.3)] = -1e-17
    return table


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       num_states=st.integers(1, 4),
       kind=st.sampled_from(["deterministic", "partial", "full", "explicit"]))
def test_induced_is_the_full_contraction_bit_for_bit(seed, action_counts, num_states, kind):
    """The kernel gathers and contracts at every complement action, played
    or not (the explicit table's -0.0 and -1e-17 entries included), so its
    reward and whole-model transitions are `induced_full`'s byte for byte,
    for stacked chunks and lone coalitions alike, and so is a lone
    coalition's induced_mdp."""
    rng = np.random.default_rng(seed)
    m = random_mmdp(rng, num_states, tuple(action_counts))
    table = _behavior_table(rng, m, kind)
    for idx, masks, blocks, (reward, transitions) in _kernel_cases(m, table):
        full_r, full_p = induced_full(m, table, idx)
        cases = [(reward, full_r)] + [(p, full_p) for (s, *_), p in zip(blocks, transitions, strict=True)
                                      if isinstance(s, slice)]
        if masks.ndim == 0:
            coalition = mask_agents(int(masks), m.num_agents)
            cases += zip(induced_mdp(m, table, coalition), (full_r, full_p, idx))
        for fast, full in cases:
            assert fast.shape == full.shape and fast.dtype == full.dtype
            assert fast.tobytes() == full.tobytes()


def _kernel_cases(m, table):
    """(index (stack), masks, blocks, planning._induced's tables) for every
    sweep chunk, stacked (at the sweep's own index, which is
    coalition_action_index's), and for each of its coalitions alone, under
    the sweep's own blocks and, where those are a level's, under the
    whole-model block as well."""
    _, _, swept = args = _sweep_args(m, table)
    cases = [swept] if planning._topological_levels(m) is None else [swept, [planning._whole(m)]]
    for chunk in planning._coalition_chunks(*args):
        stack = planning._index(planning._subgrids(m.action_counts), chunk)
        np.testing.assert_array_equal(stack, index_stack(m, chunk))
        for blocks in cases:
            yield stack, chunk, blocks, planning._induced(m, table, stack, blocks)
            for idx, mask in zip(stack, chunk):
                yield idx, mask, blocks, planning._induced(m, table, idx, blocks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       num_states=st.integers(2, 6),
       model=st.sampled_from(["dense", "one-hot layered"]),
       kind=st.sampled_from(["deterministic", "partial", "full", "explicit"]))
def test_level_blocks_are_the_gathered_kernel_bit_for_bit(seed, action_counts, num_states,
                                                          model, kind):
    """On an acyclic model the sweep passes one block per later level, and
    each block's transitions are the full contraction of the S-wide gather
    cut to the block's states and successor columns before it is
    contracted, byte for byte, stacked and alone; a lone coalition's
    induced_mdp is the whole-model one."""
    rng = np.random.default_rng(seed)
    counts = tuple(action_counts)
    m = (random_acyclic_mmdp(rng, num_states, counts) if model == "dense"
         else _one_hot_layered(rng, counts, num_states))
    table = _behavior_table(rng, m, kind)
    for idx, masks, blocks, (reward, transitions) in _kernel_cases(m, table):
        slow_r, slow_p = induced_gathered(m, table, idx, blocks)
        assert len(transitions) == len(slow_p) == len(blocks)
        cases = [zip((reward, *transitions), (slow_r, *slow_p))]
        if masks.ndim == 0:
            coalition = mask_agents(int(masks), m.num_agents)
            whole_r, (whole_p,) = induced_gathered(m, table, idx, [(slice(None), slice(None))])
            cases.append(zip(induced_mdp(m, table, coalition), (whole_r, whole_p, idx)))
        for fast, slow in itertools.chain(*cases):
            assert fast.shape == slow.shape and fast.dtype == slow.dtype
            assert fast.tobytes() == slow.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
@example([2, 1, 3, 1])
@example([1, 1])
def test_subgrid_rows_list_each_coalitions_own_joint_actions(action_counts):
    """Row M of the sub-grid table is every joint action whose digits off M
    are zero, ascending."""
    values, offsets, _ = planning._subgrids(tuple(action_counts))
    n = len(action_counts)
    digits = np.array(list(itertools.product(*map(range, action_counts))))
    assert values.dtype == np.int64
    assert values.size == offsets[-1] == np.prod([k + 1 for k in action_counts])
    for mask in range(1 << n):
        off = [i for i in range(n) if not mask >> i & 1]
        expected = np.flatnonzero((digits[:, off] == 0).all(axis=1))
        row = values[offsets[mask]:offsets[mask + 1]]
        np.testing.assert_array_equal(row, expected)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0),
                       st.floats(-1e300, 1e300)), max_size=8),
    st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=8)))
def test_coalition_sums_add_members_left_to_right(terms):
    """Bit for bit the sums a Python loop forms over each mask's members in
    ascending order, starting from 0 (0.0 for floats, so never -0.0)."""
    x = np.array(terms)
    expected = []
    for mask in range(1 << len(terms)):
        total = 0.0 if x.dtype == float else 0
        for i, term in enumerate(terms):
            if mask >> i & 1:
                total += term
        expected.append(total)
    sums = planning.coalition_sums(x)
    assert sums.dtype == x.dtype
    assert sums.tobytes() == np.array(expected, dtype=x.dtype).tobytes()


def test_coalition_sizes_are_cached_read_only_popcounts():
    for n in range(MAX_AGENTS + 1):
        sizes = planning.coalition_sizes(n)
        assert sizes is planning.coalition_sizes(n)
        assert not sizes.flags.writeable
        assert sizes.tolist() == [bin(mask).count("1") for mask in range(1 << n)]


@pytest.mark.parametrize("n", range(MAX_AGENTS + 1))
def test_lattice_layers_are_cached_read_only_tables_per_size(n):
    """One tuple per n, shared by every lattice walk (the random games and
    the monotone closure), so no caller may write to one of its arrays."""
    layers = planning.lattice_layers(n)
    assert layers is planning.lattice_layers(n)
    assert len(layers) == n
    for size, (layer, member, subs, rows) in enumerate(layers, 1):
        assert layer.tolist() == [mask for mask in range(1 << n)
                                  if bin(mask).count("1") == size]
        assert member.tolist() == [[mask >> i & 1 == 1 for i in range(n)] for mask in layer]
        assert subs.tolist() == [[mask & ~(1 << i) for i in range(n)] for mask in layer]
        assert rows.tolist() == list(range(layer.size))
        for table in (layer, member, subs, rows):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


def test_subgrids_are_cached_and_read_only():
    """One layout per action-count tuple, shared by the sweep, induced_mdp and
    coalition_action_index, which none of them may write."""
    values, offsets, groups = tables = planning._subgrids((2, 3, 1))
    assert planning._subgrids((2, 3, 1)) is tables
    for table in (values, offsets, *groups):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("counts", [(2, 3, 1), (1, 2, 2, 2, 1), (2,) * MAX_AGENTS])
def test_sweep_groups_hold_read_only_masks_alone(counts):
    """`_subgrids` holds one set of groups per action-count tuple, each a
    read-only int64 array of ascending masks of one joint-action count A_C,
    the groups by ascending A_C; together they hold masks 1 to 2^n - 1 once
    each, under 64 KB at 12 binary agents. Neither they nor the chunks sliced
    out of them may be written."""
    _, offsets, groups = planning._subgrids(counts)
    assert planning._subgrids(counts)[2] is groups
    counted = [np.unique(offsets[masks + 1] - offsets[masks]) for masks in groups]
    assert [c.size for c in counted] == [1] * len(groups)
    assert (np.diff(np.concatenate(counted)) > 0).all()
    assert np.concatenate(groups).tolist() == sorted(range(1, 1 << len(counts)),
                                                     key=lambda mask: offsets[mask + 1] - offsets[mask])
    assert sum(masks.nbytes for masks in groups) < 1 << 16
    m = random_mmdp(np.random.default_rng(32), num_states=2, action_counts=counts[:5])
    chunks = planning._coalition_chunks(m, True, [planning._whole(m)])
    for masks in itertools.chain(groups, chunks):
        assert isinstance(masks, np.ndarray) and masks.dtype == np.int64
        assert not masks.flags.writeable
        with pytest.raises(ValueError):
            masks[0] = 1


def test_a_product_sweep_builds_no_gather_rows(monkeypatch):
    """From a cleared `_subgrids` cache, a `JointPolicy` sweep reads its lattice
    at mask offsets alone and calls neither `_rows` nor `_index`, on a cyclic,
    a layered and a one-step model; the same behavior's joint table builds
    its index per chunk, one `_index` call each."""
    rng = np.random.default_rng(31)
    cases = [(m, random_factorized(rng, m)) for m in (
        random_mmdp(rng, num_states=3, action_counts=(2, 3, 1, 2)),
        _one_hot_layered(rng, (2, 1, 3), 5))]
    cases += [build_graph(GraphSpec("robustness")), mmdp_from_game(random_monotone_game(5, 0))]
    refuse = AssertionError("a product sweep built gather rows")
    for m, behavior in cases:
        monkeypatch.setattr(planning, "_GAME_CACHE", {})
        planning._subgrids.cache_clear()
        with mock.patch.object(planning, "_rows", side_effect=refuse), \
                mock.patch.object(planning, "_index", side_effect=refuse):
            planning.coalition_values(m, behavior)
        table = behavior.joint_table(m)
        with mock.patch.object(planning, "_index", wraps=planning._index) as index:
            planning.coalition_values(m, table)
        assert index.call_count == len(_sweep_chunks(m, table))


def test_the_memo_keeps_a_product_apart_from_its_joint_table(monkeypatch):
    """A product sweeps through the lattice and its joint table through
    `_induced`, which round apart, so the memo keys each by its kind too:
    after either is swept, the other call returns its own path's bytes, in
    either order. Most of these mixed behaviors sweep differently."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    rng = np.random.default_rng(50)
    differ = 0
    for _ in range(40):
        counts = tuple(rng.integers(2, 4, size=rng.integers(2, 4)).tolist())
        m = random_mmdp(rng, num_states=3, action_counts=counts)
        behavior = random_factorized(rng, m)
        table = behavior.joint_table(m)
        own = {}
        for b in (behavior, table):
            planning._GAME_CACHE.clear()
            own[id(b)] = planning.coalition_values(m, b).tobytes()
        for order in ((behavior, table), (table, behavior)):
            planning._GAME_CACHE.clear()
            for b in order:
                assert planning.coalition_values(m, b).tobytes() == own[id(b)]
        differ += own[id(behavior)] != own[id(table)]
    assert differ >= 30


def test_clearing_the_game_memo_sweeps_the_values_again(monkeypatch):
    """A (model, behavior) pair's values and game are one memo entry: the game
    reads the values' sweep, and the clear between bench passes empties both,
    so the next `coalition_values` sweeps again, to the same bytes."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    m, behavior = build_graph(GraphSpec("robustness"))
    with mock.patch.object(planning, "_lattice", wraps=planning._lattice) as lattice:
        first = planning.coalition_values(m, behavior)
        game = characteristic_game(m, behavior)
        swept = lattice.call_count  # one lattice per level, the game's included
        assert swept == len(planning._topological_levels(m))
        planning._GAME_CACHE.clear()
        again = planning.coalition_values(m, behavior)
        assert lattice.call_count == 2 * swept > 0
        assert characteristic_game(m, behavior).values.tobytes() == game.values.tobytes()
    assert lattice.call_count == 2 * swept
    assert again is not first and again.tobytes() == first.tobytes()


@pytest.mark.parametrize("budget", [1, 1 << 40])
def test_characteristic_game_does_not_depend_on_the_chunk_budget(monkeypatch,
                                                                 budget):
    """One coalition per chunk, or each joint-action count group in one
    chunk, gives the same bits as the default chunking, on cyclic models,
    on acyclic ones of several levels (dense, one-hot layered and the
    coordination graph) and on a one-step model."""
    cases = []
    for seed, counts in enumerate([(2, 1, 3, 1), (1, 2, 2, 2, 1), (3, 3, 1)]):
        rng = np.random.default_rng(700 + seed)
        for build in (random_mmdp, random_acyclic_mmdp):
            m = build(rng, num_states=2 + seed, action_counts=counts)
            table = rng.dirichlet(np.ones(m.num_joint_actions), size=m.num_states)
            cases.append((m, table))
        m = _one_hot_layered(rng, counts, 4 + seed)
        cases.append((m, _behavior_table(rng, m, "partial")))
    cases.append(build_graph(GraphSpec("coordination", threshold_index=2)))
    cases.append(mmdp_from_game(random_monotone_game(7, 0)))
    cases = [(m, behavior, characteristic_game(m, behavior).values) for m, behavior in cases]
    monkeypatch.setattr(planning, "_GATHER_BUDGET", budget)
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    for m, behavior, expected in cases:
        assert characteristic_game(m, behavior).values.tobytes() == expected.tobytes()


def _sweep_args(m, table):
    """The (model, joint-table flag, blocks) the sweep passes `_coalition_chunks`."""
    with mock.patch.object(planning, "_coalition_chunks",
                           wraps=planning._coalition_chunks) as sweep, \
            mock.patch.object(planning, "_GAME_CACHE", {}):
        planning.coalition_values(m, table)
    return sweep.call_args.args


def _sweep_chunks(m, table):
    """The masks of each chunk of the sweep's `_coalition_chunks` call."""
    return list(planning._coalition_chunks(*_sweep_args(m, table)))


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("n", range(7, MAX_AGENTS + 1))
def test_game_model_sweep_is_one_chunk_per_joint_action_group(n, mixed):
    """A mmdp_from_game model has one level, so each coalition of its joint
    table is budgeted at its S * A_D conditional and, at every one of its
    A_C * A_D action pairs, its index and its gathers of the table and the
    reward, 3 * S: every joint-action count group is one chunk where the
    budget holds it, and otherwise the fewest chunks it allows, 7, 17, 55,
    210, 1027 and 4095 at n = 7 to 12, whether the table plays one joint
    action (the model's own behavior) or all of them (every agent at
    (0.8, 0.2))."""
    m, behavior = mmdp_from_game(random_monotone_game(n, 0))
    if mixed:
        behavior = JointPolicy((AgentPolicy(np.tile([0.8, 0.2], (2, 1))),) * n)
    chunks = _sweep_chunks(m, as_joint_table(m, behavior))
    S = m.num_states
    # binary agents: a coalition of k has A_C = 2^k and A_D = 2^(n - k)
    sizes = planning.membership(n).sum(axis=1)
    groups = {}
    for chunk in chunks:
        groups.setdefault(int(sizes[chunk[0]]), []).append(chunk)
    assert sorted(groups) == list(range(1, n + 1))
    for k, group in groups.items():
        members = np.concatenate(group)
        assert (sizes[members] == k).all() and members.size == math.comb(n, k)
        cost = S * (1 << n - k) * (1 + 3 * (1 << k))
        assert len(group) == -(-members.size // max(1, planning._GATHER_BUDGET // cost))
    assert len(chunks) == {7: 7, 8: 17, 9: 55, 10: 210, 11: 1027, 12: 4095}[n]


def _acyclic_product_cases():
    """(label, model, JointPolicy) for the acyclic product sweeps the
    structural pins run: the game model at n = 7 to 12 under its own
    behavior, the four coordination graphs and the robustness graph."""
    for n in range(7, MAX_AGENTS + 1):
        yield (f"game n={n}", *mmdp_from_game(random_monotone_game(n, 0)))
    for level in range(1, 5):
        yield (f"coordination m={level}", *build_graph(GraphSpec("coordination", threshold_index=level)))
    yield ("robustness", *build_graph(GraphSpec("robustness")))


@pytest.mark.parametrize("label, m, behavior",
                         [pytest.param(*case, id=case[0]) for case in _acyclic_product_cases()])
def test_an_acyclic_product_sweep_backs_up_whole_levels_unchunked(monkeypatch, label, m,
                                                                  behavior):
    """A JointPolicy sweep of an acyclic model builds one lattice per level and
    backs up every coalition of the level at once: it cuts no chunks (no
    `_coalition_chunks` call, so no per-chunk take or settle), gathers no
    chunk through `_induced` and runs no policy iteration."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    refuse = AssertionError(f"the acyclic product sweep of {label} chunked its coalitions")
    with mock.patch.object(planning, "_coalition_chunks", side_effect=refuse), \
            mock.patch.object(planning, "_induced", side_effect=refuse), \
            mock.patch.object(planning, "solve_mdp", side_effect=refuse), \
            mock.patch.object(planning, "_lattice", wraps=planning._lattice) as lattice:
        planning.coalition_values(m, behavior)
    assert lattice.call_count == len(planning._topological_levels(m))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       num_states=st.integers(1, 5),
       kind=st.sampled_from(["deterministic", "partial", "full"]),
       budget=st.integers(1, planning._GATHER_BUDGET))
def test_a_cyclic_product_sweep_budgets_its_chunks_without_a_conditional(
        seed, action_counts, num_states, kind, budget):
    """A cyclic model's JointPolicy sweep still reads lattice slices chunk by
    chunk: one `_coalition_chunks` call, for a product (no complement
    conditional, one complement action) and the whole-model block, whose
    chunks hold every nonempty coalition once; a chunk of K > 1 holds at most
    K * A_C * (2 * S + S * S) elements, and each A_C group takes the fewest
    chunks that allows."""
    rng = np.random.default_rng(seed)
    m = random_mmdp(rng, num_states, tuple(action_counts))
    assert planning._topological_levels(m) is None
    behavior = _product_behavior(rng, m, [kind] * m.num_agents, False)
    S = m.num_states
    with mock.patch.object(planning, "_GATHER_BUDGET", budget):
        model, joint, blocks = _sweep_args(m, behavior)
        chunks = list(planning._coalition_chunks(model, joint, blocks))
    assert model is m and joint is False and len(blocks) == 1 and blocks[0][2].shape == (
        S * m.num_joint_actions, S)
    assert sorted(np.concatenate(chunks)) == list(range(1, 1 << m.num_agents))
    _, offsets, _ = planning._subgrids(m.action_counts)
    groups = {}
    for chunk in chunks:
        num_c = int(offsets[chunk[0] + 1] - offsets[chunk[0]])
        assert (offsets[chunk + 1] - offsets[chunk] == num_c).all()
        if chunk.size > 1:
            assert chunk.size * num_c * (2 * S + S * S) <= budget
        groups.setdefault(num_c, []).append(chunk.size)
    for num_c, sizes in groups.items():
        assert len(sizes) == -(-sum(sizes) // max(1, budget // (num_c * (2 * S + S * S))))


@pytest.mark.parametrize("variant, level, count", [
    *(("coordination", level, 8) for level in range(1, 5)), ("robustness", 1, 8)])
def test_graph_sweeps_take_the_chunks_their_successor_gathers_allow(variant, level, count):
    """Each later level of the graph's 66 states reaches 16 of them, so a
    coalition's chunk budget counts 16 successor columns per level, not 66."""
    m, behavior = build_graph(GraphSpec(variant, threshold_index=level))
    assert len(_sweep_chunks(m, as_joint_table(m, behavior))) == count


def _successor_span(m):
    """Sum over an acyclic model's later levels (all but the sinks) of L * Z,
    L being the level's size and Z the count of nonterminal states any of
    its entries reaches; None for a model with a cycle. A model whose
    terminal states only self-loop is peeled from the terminal states up,
    each nonterminal state one level past the deepest it reaches."""
    order = kahn_order(m, planning._EDGE_TOL)
    if order is None:
        return None
    nonterminal = [s for s in range(m.num_states) if s not in m.terminal_states]
    depth = {}
    for s in reversed(order):
        if s in nonterminal:
            depth[s] = 1 + max([depth[t] for t in nonterminal if t != s
                                and m.transition[s, :, t].max() > planning._EDGE_TOL], default=-1)
    span = 0
    for level in set(depth.values()) - {0}:
        states = [s for s in nonterminal if depth[s] == level]
        reached = {t for s in states for t in nonterminal if m.transition[s, :, t].max() > 0}
        span += len(states) * len(reached)
    return span


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       num_states=st.integers(1, 6),
       model=st.sampled_from(["cyclic", "dense acyclic", "one-hot layered"]),
       kind=st.sampled_from(["deterministic", "partial", "full"]),
       budget=st.integers(1, planning._GATHER_BUDGET))
def test_sweep_chunks_stay_within_the_gather_budget(seed, action_counts, num_states,
                                                    model, kind, budget):
    """On the arguments the sweep passes, every nonempty coalition lands in
    one chunk of equal A_C, and a chunk of K > 1 holds at most K * A_D * (S
    + A_C * (3 * S + sum of L * Z)) elements, L * Z being, over the blocks, a
    block's state count times its column count: S * S for a cyclic model's
    one block, and on an acyclic one each later level's size times its
    successor count. Each A_C group takes the fewest chunks that allows."""
    rng = np.random.default_rng(seed)
    # a layered model needs a terminal state below its others, so it takes 2 states at least
    m = {"cyclic": random_mmdp, "dense acyclic": random_acyclic_mmdp,
         "one-hot layered": lambda rng, S, counts: _one_hot_layered(rng, counts, max(2, S))}[model](
        rng, num_states, tuple(action_counts))
    table = _behavior_table(rng, m, kind)
    span = _successor_span(m)
    assert (span is None) == (model == "cyclic")
    S = m.num_states
    with mock.patch.object(planning, "_GATHER_BUDGET", budget):
        chunks = _sweep_chunks(m, table)
    assert sorted(np.concatenate(chunks)) == list(range(1, 1 << m.num_agents))
    per_pair = 3 * S + (S * S if span is None else span)
    groups = {}
    for chunk in chunks:
        _, num_c, num_d = index_stack(m, chunk).shape
        if chunk.size > 1:
            assert chunk.size * num_d * (S + num_c * per_pair) <= budget
        groups.setdefault((num_c, num_d), []).append(chunk.size)
    for (num_c, num_d), sizes in groups.items():
        cost = num_d * (S + num_c * per_pair)
        assert len(sizes) == -(-sum(sizes) // max(1, budget // cost))


def test_characteristic_game_is_memoized():
    rng = np.random.default_rng(23)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 2))
    behavior = random_factorized(rng, m)
    first = characteristic_game(m, behavior)
    second = characteristic_game(m, behavior)
    assert first is second


def test_characteristic_game_agent_cap():
    rng = np.random.default_rng(24)
    m = random_mmdp(rng, num_states=2, action_counts=(1,) * (MAX_AGENTS + 1))
    behavior = JointPolicy(tuple(AgentPolicy.uniform(2, 1)
                                 for _ in range(MAX_AGENTS + 1)))
    with pytest.raises(ValueError, match="limited"):
        characteristic_game(m, behavior)


def test_coalition_values_are_the_state_values_the_game_reduces(monkeypatch):
    """coalition_values is read-only and memoized; row 0 is the behavior's
    own values, and each game value is the difference of two rows' returns,
    bit for bit. A radius-0 set's bounds read the same rows, so they give
    the center's game back. Past MAX_AGENTS agents it is refused with
    characteristic_game's message."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    rng = np.random.default_rng(35)
    for counts in [(2,), (2, 3), (3, 1, 2), (2, 2, 1, 2)]:
        m = random_mmdp(rng, num_states=3, action_counts=counts)
        center = random_factorized(rng, m)
        joint = rng.dirichlet(np.ones(m.num_joint_actions), size=m.num_states)
        for behavior in (center, joint):
            rows = planning.coalition_values(m, behavior)
            assert rows.shape == (1 << m.num_agents, m.num_states)
            assert not rows.flags.writeable
            assert planning.coalition_values(m, behavior) is rows
            assert rows[0].tobytes() == policy_values(m, behavior).tobytes()
            returns = [m.initial_dist @ row for row in rows]
            gains = np.array([value - returns[0] for value in returns])
            assert gains.tobytes() == characteristic_game(m, behavior).values.tobytes()
        bounds = uncertainty.RobustBounds(m, uncertainty.UncertaintySet(center, 0.0))
        base = bounds.max_value(())
        gains = np.array([bounds.min_value(mask_agents(mask, m.num_agents)) - base
                          for mask in range(1 << m.num_agents)])
        assert gains.tobytes() == characteristic_game(m, center).values.tobytes()
    m = random_mmdp(rng, num_states=2, action_counts=(1,) * (MAX_AGENTS + 1))
    behavior = JointPolicy(tuple(AgentPolicy.uniform(2, 1) for _ in m.action_counts))
    refusals = []
    for call in (characteristic_game, planning.coalition_values):
        with pytest.raises(ValueError) as refused:
            call(m, behavior)
        refusals.append(str(refused.value))
    assert refusals == [f"characteristic game limited to {MAX_AGENTS} agents"] * 2


def _layered_acyclic(rng, num_agents, num_states, scale):
    """Random layered model: the last state is terminal, every other state
    gets a random level above 0 and moves only into lower levels (the
    terminal one at level 0), and some of the other entries, self-loops
    included, are at most _EDGE_TOL, so that they order nothing."""
    counts = tuple(int(k) for k in rng.integers(1, 4, size=num_agents))
    num_actions = math.prod(counts)
    level = np.append(rng.integers(1, num_states, size=num_states - 1), 0)
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    transition *= (level[None, :] < level[:, None])[:, None, :]
    transition[:, :, -1] += 1e-3  # so that every row keeps some mass below it
    transition /= transition.sum(axis=-1, keepdims=True)
    tiny = (rng.random(transition.shape) < 0.1) & (transition == 0)
    transition[tiny] = rng.uniform(0.0, planning._EDGE_TOL, size=tiny.sum()) + 1e-300
    transition[-1] = np.eye(num_states)[-1]
    reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions)) * scale
    reward[-1] = 0.0
    return Mmdp(num_states, num_agents, counts, reward, transition, 0.95,
                rng.dirichlet(np.ones(num_states)), frozenset({num_states - 1}))


def _one_hot_layered(rng, counts, num_states):
    """Random layered model with one-hot transitions: the last state is
    terminal, every other state gets a random level above 0, and each of
    its joint actions moves it to one random state of a lower level."""
    num_actions = math.prod(counts)
    level = np.append(rng.integers(1, num_states, size=num_states - 1), 0)
    transition = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states - 1):
        below = np.flatnonzero(level < level[s])
        transition[s, np.arange(num_actions), rng.choice(below, num_actions)] = 1.0
    transition[-1, :, -1] = 1.0
    reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    reward[-1] = 0.0
    return Mmdp(num_states, len(counts), tuple(counts), reward, transition, 0.9,
                rng.dirichlet(np.ones(num_states)), frozenset({num_states - 1}))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       num_states=st.integers(2, 8),
       model=st.sampled_from(["dense", "one-hot layered"]),
       kind=st.sampled_from(["deterministic", "partial", "full"]))
def test_successor_gathers_agree_with_each_coalitions_best_response(
        seed, action_counts, num_states, model, kind):
    """Gathering each later level only at its successor columns leaves every
    row of coalition_values within 1e-12 of the largest value of the
    coalition's own best response, solved by policy iteration over the whole
    induced model, on dense and one-hot layered acyclic models under
    deterministic, partial and full behaviors."""
    rng = np.random.default_rng(seed)
    counts = tuple(action_counts)
    m = (random_acyclic_mmdp(rng, num_states, counts) if model == "dense"
         else _one_hot_layered(rng, counts, num_states))
    table = _behavior_table(rng, m, kind)
    assert planning._topological_levels(m) is not None
    with mock.patch.object(planning, "_GAME_CACHE", {}):
        rows = planning.coalition_values(m, table)
    solved = np.array([best_response(m, table, mask_agents(mask, m.num_agents)).state_values
                       for mask in range(1, 1 << m.num_agents)])
    assert np.abs(rows[1:] - solved).max() <= 1e-12 * np.abs(solved).max()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_agents=st.integers(2, 4),
       num_states=st.integers(2, 6), power=st.integers(-20, 20))
def test_the_backward_pass_is_policy_iteration_on_acyclic_models(
        seed, num_agents, num_states, power):
    """On a layered model (sub-tolerance edges included) every coalition's
    row of coalition_values, swept without policy iteration, is the one
    that policy iteration solves for the coalition alone, within 1e-12 of
    the largest value, at every reward scale from 2^-20 to 2^20."""
    rng = np.random.default_rng(seed)
    m = _layered_acyclic(rng, num_agents, num_states, 2.0 ** power)
    behavior = random_factorized(rng, m)
    assert planning._topological_levels(m) is not None
    with mock.patch.object(planning, "solve_mdp") as iterations, \
            mock.patch.object(planning, "_GAME_CACHE", {}):
        rows = planning.coalition_values(m, behavior)
    assert iterations.call_count == 0
    solved = np.array([solve_mdp(*induced_mdp(m, behavior, mask_agents(mask, num_agents))[:2],
                                 m.discount)[0] for mask in range(1, 1 << num_agents)])
    assert np.abs(rows[1:] - solved).max() <= 1e-12 * np.abs(solved).max()


def test_the_robustness_graphs_sweep_is_one_backward_pass(monkeypatch):
    """The graph's five levels are swept with no policy iteration, and each
    coalition's row is its best response's state values within 1e-15 of
    the largest."""
    m, behavior = build_graph(GraphSpec("robustness"))
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    assert len(planning._topological_levels(m)) == 5
    with mock.patch.object(planning, "solve_mdp") as iterations:
        rows = planning.coalition_values(m, behavior)
    assert iterations.call_count == 0
    solved = np.array([best_response(m, behavior, mask_agents(mask, m.num_agents)).state_values
                       for mask in range(1, 1 << m.num_agents)])
    assert np.abs(rows[1:] - solved).max() <= 1e-15 * np.abs(solved).max()


def _peel_cases():
    """The six environment models, the one-step layout at 1 to 12 agents,
    seeded dense, sub-tolerance and one-hot layered models of up to 60
    states, cyclic ones, and a dense 1,000-state layered model (999 levels)."""
    for level in range(1, 5):
        yield f"coordination {level}", build_graph(GraphSpec("coordination", threshold_index=level))[0]
    yield "robustness", build_graph(GraphSpec("robustness"))[0]
    yield "gridworld", build_gridworld(GridworldSpec(alpha=0.4, alpha_prime=0.5))[0]
    for n in range(1, MAX_AGENTS + 1):
        yield f"one-step {n}", mmdp_from_game(random_monotone_game(n, 0))[0]
    rng = np.random.default_rng(49)
    for num_states in (2, 3, 5, 9, 17, 33, 60):
        yield f"dense {num_states}", random_acyclic_mmdp(rng, num_states, (2, 1))
        yield f"sub-tolerance {num_states}", _layered_acyclic(rng, 2, num_states, 1.0)
        yield f"one-hot {num_states}", _one_hot_layered(rng, (3, 2), num_states)
        yield f"cyclic {num_states}", random_mmdp(rng, num_states, (2,))
    yield "dense 1000", random_acyclic_mmdp(rng, 1000, (2,))


def test_peeled_levels_are_the_reference_peel_byte_for_byte():
    """On the environment models, the one-step layout and seeded layered and
    cyclic models from 2 to 1,000 states, the peel returns the reference
    peel's levels, dtype and bytes alike, or None where it does."""
    for label, m in _peel_cases():
        levels = planning._topological_levels(m)
        assert same_levels(levels, peel_levels(m)), label
        assert (levels is None) == label.startswith(("cyclic", "gridworld")), label


def test_a_one_step_sweep_gathers_no_transitions(monkeypatch):
    """Its one level's successors are terminal, so it reads the reward alone:
    a product behavior's sweep builds one lattice, of the reward at the one
    nonterminal state, and none of transitions, and calls `_induced` for no
    chunk."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    f = random_monotone_game(6, 0)
    model, behavior = mmdp_from_game(f)
    with mock.patch.object(planning, "_induced", wraps=planning._induced) as induced, \
            mock.patch.object(planning, "_lattice", wraps=planning._lattice) as lattice:
        back = characteristic_game(model, behavior)
    assert back.values.tobytes() == f.values.tobytes()
    assert (induced.call_count, lattice.call_count) == (0, 1)
    _, _, *tables = lattice.call_args.args
    assert len(tables) == 1 and tables[0].tobytes() == model.reward[:1].tobytes()


def test_a_one_step_sweep_of_a_joint_table_gathers_no_transitions(monkeypatch):
    """The same sweep of the behavior's explicit joint table builds no lattice:
    each of its chunks, one per joint-action count group, passes `_induced` no
    block of transitions."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    f = random_monotone_game(6, 0)
    model, behavior = mmdp_from_game(f)
    with mock.patch.object(planning, "_induced", wraps=planning._induced) as induced, \
            mock.patch.object(planning, "_lattice", wraps=planning._lattice) as lattice:
        back = characteristic_game(model, as_joint_table(model, behavior))
    assert back.values.tobytes() == f.values.tobytes()
    assert (induced.call_count, lattice.call_count) == (6, 0)
    assert all(call.args[-1] == [] for call in induced.call_args_list)


def _product_behavior(rng, m, kinds, zero_row):
    """A JointPolicy whose agent i is deterministic, partial or full as
    kinds[i] says, each row scaled by 1 - 1e-12, 1 or 1 + 1e-12 (the CLI's
    ROW_TOL), and, if `zero_row`, one agent's row all zero at one state."""
    S = m.num_states
    full = random_factorized(rng, m).agents
    agents = []
    for k, kind, agent in zip(m.action_counts, kinds, full):
        if kind == "deterministic":
            probs = np.eye(k)[rng.integers(0, k, S)]
        elif kind == "full":
            probs = agent.probs.copy()
        else:
            probs = rng.dirichlet(np.ones(k), size=S) * (rng.random((S, k)) < 0.5)
            probs[np.arange(S), rng.integers(0, k, S)] += 0.5
            probs /= probs.sum(axis=1, keepdims=True)
        agents.append(probs * (1.0 + rng.choice([-1e-12, 0.0, 1e-12], size=(S, 1))))
    if zero_row:
        agents[rng.integers(m.num_agents)][rng.integers(S)] = 0.0
    return JointPolicy(tuple(map(AgentPolicy, agents)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.tuples(st.integers(1, 4),
                                st.sampled_from(["deterministic", "partial", "full"])),
                      min_size=1, max_size=5),
       num_states=st.integers(1, 4),
       model=st.sampled_from(["one-step", "dense acyclic", "one-hot layered", "cyclic"]),
       zero_row=st.booleans())
def test_a_product_sweep_is_its_joint_tables_sweep(seed, kinds, num_states, model, zero_row):
    """A JointPolicy's sweep reads every coalition's tables off one lattice per
    step (a level, or the whole of a cyclic model) and calls `_induced` for no
    chunk; its explicit joint table's sweep, which gathers each chunk, is the
    oracle. Every value agrees within 1e-15 of the largest, divided on a cyclic
    model by 1 - discount (its solves amplify rounding by up to that), and bit
    for bit where every agent is deterministic. A state where an agent's row is
    all zero plays nothing, and reads 0 for every coalition on both paths."""
    rng = np.random.default_rng(seed)
    counts = tuple(k for k, _ in kinds)
    if model == "one-step":
        m, _ = planning.one_step_model(counts, rng.uniform(-1.0, 1.0, math.prod(counts)))
    else:
        m = {"dense acyclic": random_acyclic_mmdp, "cyclic": random_mmdp,
             "one-hot layered": lambda rng, S, c: _one_hot_layered(rng, c, max(2, S))}[model](
            rng, num_states, counts)
    behavior = _product_behavior(rng, m, [kind for _, kind in kinds], zero_row)
    levels = planning._topological_levels(m)
    refuse = AssertionError("a product sweep gathered a chunk")
    with mock.patch.object(planning, "_GAME_CACHE", {}), \
            mock.patch.object(planning, "_induced", side_effect=refuse), \
            mock.patch.object(planning, "_lattice", wraps=planning._lattice) as lattice:
        rows = planning.coalition_values(m, behavior)
    assert lattice.call_count == (1 if levels is None else len(levels))
    with mock.patch.object(planning, "_GAME_CACHE", {}):
        gathered = planning.coalition_values(m, behavior.joint_table(m))
    assert rows.shape == gathered.shape and rows.dtype == gathered.dtype
    if all(kind == "deterministic" for _, kind in kinds) and not zero_row:
        assert rows.tobytes() == gathered.tobytes()
    tol = 1e-15 if levels is not None else 1e-15 / (1.0 - m.discount)
    assert np.abs(rows - gathered).max() <= tol * np.abs(gathered).max()


def _relaid(rng, behavior, layout, unnormalized):
    """`behavior` with every agent's rows scaled by factors in [0.25, 4] if
    `unnormalized`, held C-ordered, transposed (column-major) or as a view
    of every other column of a wider array, as `layout` says."""
    agents = []
    for agent in behavior.agents:
        probs = agent.probs
        if unnormalized:
            probs = probs * rng.uniform(0.25, 4.0, size=(len(probs), 1))
        if layout == "transposed":
            probs = np.ascontiguousarray(probs.T).T
        elif layout == "strided":
            probs = np.repeat(probs, 2, axis=1)[:, ::2]
        agents.append(AgentPolicy(probs))
    return JointPolicy(tuple(agents))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.tuples(st.integers(1, 12),
                                st.sampled_from(["deterministic", "partial", "full"])),
                      min_size=1, max_size=5),
       num_states=st.integers(1, 5),
       model=st.sampled_from(["one-step", "dense acyclic", "one-hot layered"]),
       zero_row=st.booleans(), layout=st.sampled_from(["C", "transposed", "strided"]),
       unnormalized=st.booleans())
@example(seed=3, kinds=[(1, "full"), (3, "partial"), (1, "deterministic"), (2, "full")],
         num_states=4, model="one-hot layered", zero_row=True, layout="C", unnormalized=False)
@example(seed=4, kinds=[(1, "deterministic")] * 3, num_states=3, model="dense acyclic",
         zero_row=False, layout="C", unnormalized=False)
@example(seed=5, kinds=[(12, "full"), (9, "partial"), (8, "full")], num_states=3,
         model="dense acyclic", zero_row=True, layout="transposed", unnormalized=True)
def test_a_level_sweep_is_the_chunked_product_sweep_bit_for_bit(seed, kinds, num_states,
                                                                model, zero_row, layout,
                                                                unnormalized):
    """An acyclic JointPolicy sweep backs up each level's entries at once and
    takes each coalition's maximum over its segment, after normalizing the
    agents of each action count as one stack; the sweep that normalized
    agent by agent, took each chunk's tables off the same lattice and backed
    them up alone is the oracle, byte for byte: on one-step, dense and
    one-hot layered models, under deterministic, partial and full agents of
    1 to 12 actions (up to 1,024 joint actions: agents past that are
    dropped), their rows scaled off 1 by up to 1e-12 or by factors of 0.25
    to 4, with a row of zeros or without, held C-ordered, transposed or
    strided, and with agents of one action, whose coalitions' segments are
    one entry long."""
    while math.prod(k for k, _ in kinds) > 1024:
        kinds = kinds[:-1]
    rng = np.random.default_rng(seed)
    counts = tuple(k for k, _ in kinds)
    if model == "one-step":
        m, _ = planning.one_step_model(counts, rng.uniform(-1.0, 1.0, math.prod(counts)))
    elif model == "dense acyclic":
        m = random_acyclic_mmdp(rng, max(2, num_states), counts)
    else:
        m = _one_hot_layered(rng, counts, max(2, num_states))
    behavior = _relaid(rng, _product_behavior(rng, m, [kind for _, kind in kinds], zero_row),
                       layout, unnormalized)
    with mock.patch.object(planning, "_GAME_CACHE", {}):
        rows = planning.coalition_values(m, behavior)
    expected = chunked_product_sweep(m, behavior)
    assert rows.shape == expected.shape and rows.dtype == expected.dtype
    assert rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model, layout, unnormalized, zero_row", [
    ("cyclic", "C", False, False), ("cyclic", "transposed", True, True),
    ("cyclic", "strided", True, False), ("dense acyclic", "transposed", False, True)])
def test_every_lattice_reads_the_rows_each_agent_normalizes_alone(monkeypatch, model, layout,
                                                                  unnormalized, zero_row):
    """A product sweep normalizes the agents of each action count as one
    (g, S, k) stack; the rows each `_lattice` call reads, the cyclic
    model's one step or each level of an acyclic one, are those that
    normalizing agent by agent gives, byte for byte, for agents of 12, 3,
    12, 1 and 3 actions, held C-ordered, transposed or strided, with rows
    that sum to 1 or not and with a dead state or without."""
    rng = np.random.default_rng(49)
    counts = (12, 3, 12, 1, 3)
    m = (random_mmdp if model == "cyclic" else random_acyclic_mmdp)(rng, 3, counts)
    behavior = _relaid(rng, _product_behavior(rng, m, ["full", "partial", "deterministic",
                                                       "full", "full"], zero_row),
                       layout, unnormalized)
    reference = per_agent_rows(m, behavior)
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    with mock.patch.object(planning, "_lattice", wraps=planning._lattice) as lattice:
        planning.coalition_values(m, behavior)
    levels = planning._topological_levels(m)
    assert (levels is None) == (model == "cyclic")
    steps = [np.arange(m.num_states)] if levels is None else levels
    assert lattice.call_count == len(steps)
    for states, call in zip(steps, lattice.call_args_list):
        rows = call.args[0]
        assert [(r.shape, r.tobytes()) for r in rows] == [
            (p[states].shape, p[states].tobytes()) for p in reference]


def _wide_level_cases():
    """Acyclic product sweeps past the property's five agents: the graphs
    under their own behaviors and under a random full product, and 8- to
    11-agent multi-level models under mixed products, one with a row of
    zeros."""
    rng = np.random.default_rng(48)
    for variant, level in [*(("coordination", level) for level in range(1, 5)), ("robustness", 1)]:
        m, behavior = build_graph(GraphSpec(variant, threshold_index=level))
        yield m, behavior
        yield m, random_factorized(rng, m)
    for n, num_states, zero_row in ((8, 5, True), (9, 4, False), (11, 4, False)):
        counts = tuple(int(k) for k in rng.integers(1, 3, n))
        m = random_acyclic_mmdp(rng, num_states, counts)
        yield m, _product_behavior(rng, m, ["partial", "full"] * (n // 2) + ["full"] * (n % 2),
                                   zero_row)


def test_wide_level_sweeps_are_the_chunked_product_sweep_bit_for_bit(monkeypatch):
    """Where a level's lattice is thousands of entries wide and its
    successor contraction covers every coalition at once, each value is
    still the chunked sweep's, byte for byte."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    for m, behavior in _wide_level_cases():
        assert planning._topological_levels(m) is not None
        rows = planning.coalition_values(m, behavior)
        assert rows.tobytes() == chunked_product_sweep(m, behavior).tobytes()


def test_a_level_sweep_reads_a_negative_zero_reward_as_positive_zero(monkeypatch):
    """Every reward of the one-step model is -0.0; the backup r + γ·0.0 of its
    one level turns each into +0.0, so every row, the grand coalition's
    included, reads +0.0, as the chunked sweep's did."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    m, behavior = planning.one_step_model((2, 2), [-0.0] * 4)
    rows = planning.coalition_values(m, behavior)
    assert rows.tobytes() == np.zeros((4, 2)).tobytes()
    assert rows.tobytes() == chunked_product_sweep(m, behavior).tobytes()


@pytest.mark.parametrize("case, bound_mb", [("eleven-agent layered", 1.25 * 8.8),
                                            ("twelve-agent one-step", 8.9)])
def test_a_level_sweep_holds_little_beside_its_lattice(monkeypatch, case, bound_mb):
    """Traced by tracemalloc from warm layout caches, an acyclic product
    sweep's peak stays within 1.25 times the chunked sweep's on a 4-state,
    11-binary-agent model under a mixed product (8.8 MB when each chunk
    took its own tables), its successor gather included, and no higher than
    the chunked sweep's 8.9 MB on the 12-agent one-step model."""
    if case == "eleven-agent layered":
        rng = np.random.default_rng(0)
        m = random_acyclic_mmdp(rng, 4, (2,) * 11)
        behavior = random_factorized(rng, m)
    else:
        m, _ = mmdp_from_game(random_monotone_game(MAX_AGENTS, 1))
        behavior = JointPolicy((AgentPolicy(np.tile([0.8, 0.2], (2, 1))),) * MAX_AGENTS)
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    planning.coalition_values(m, behavior)  # fills the layout caches
    planning._GAME_CACHE.clear()
    tracemalloc.start()
    try:
        planning.coalition_values(m, behavior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_a_twelve_agent_mixed_product_sweep_is_the_full_contraction(monkeypatch):
    """At the agent cap, with every agent at (0.8, 0.2), the lattice gives each
    singleton, five random coalitions and the grand coalition the value of
    its full contraction over all complement actions: at the initial state
    the best induced reward, within 1e-15 of the largest value, and 0 at the
    terminal state."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    m, _ = mmdp_from_game(random_monotone_game(MAX_AGENTS, 0))
    behavior = JointPolicy((AgentPolicy(np.tile([0.8, 0.2], (2, 1))),) * MAX_AGENTS)
    rows = planning.coalition_values(m, behavior)
    table = behavior.joint_table(m)
    everyone = (1 << MAX_AGENTS) - 1
    rng = np.random.default_rng(12)
    masks = [1 << i for i in range(MAX_AGENTS)] + rng.integers(1, everyone, 5).tolist()
    for mask in masks + [everyone]:
        reward, _ = induced_full(m, table, index_stack(m, [mask])[0])
        assert rows[mask, 1] == 0.0
        assert abs(rows[mask, 0] - reward[0].max()) <= 1e-15 * np.abs(rows).max()


@pytest.mark.parametrize("n", range(1, MAX_AGENTS + 1))
def test_mmdp_from_game_round_trip_is_bit_exact(n):
    for seed in range(2):
        f = random_monotone_game(n, seed)
        back = characteristic_game(*mmdp_from_game(f))
        assert back.values.tobytes() == f.values.tobytes()


def test_mmdp_from_game_reproduces_the_set_function():
    for seed in range(10):
        f = random_monotone_game(int(np.random.default_rng(seed).integers(2, 5)),
                                 seed=400 + seed)
        model, behavior = mmdp_from_game(f)
        back = characteristic_game(model, behavior)
        assert np.abs(back.values - f.values).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, MAX_AGENTS + 1))
def test_mmdp_from_game_matches_the_scatter_reference(n):
    """The one-step layout, read by reversed mask, equals the reward
    scattered by mask bit for bit, and so does every other table."""
    f = random_monotone_game(n, n)
    assert_same_model(*mmdp_from_game(f), *mmdp_from_game_scatter(f))


def _one_step_layouts(case):
    """(model, behavior) of one one-step layout: a game's realization, the
    impossibility fixture, or mixed action counts."""
    if case == "fixture":
        return impossibility_fixture()[:2]
    if case == "mixed counts":
        counts = (3, 2, 3, 1, 2, 3)
        return planning.one_step_model(counts, np.linspace(-1.0, 1.0, math.prod(counts)))
    return mmdp_from_game(random_monotone_game(int(case), 7))


@pytest.mark.parametrize("case", ["1", "2", "8", "12", "fixture", "mixed counts"])
def test_one_step_behaviors_share_one_read_only_one_hot_row_per_action_count(
        monkeypatch, case):
    """Every agent of a one-step layout plays action 0 in both states. The
    agents of one action count share one read-only array, so a write into it
    raises, and the game is the one that fresh per-agent one-hot rows give,
    byte for byte."""
    model, behavior = _one_step_layouts(case)
    shared = {}
    for k, agent in zip(model.action_counts, behavior.agents):
        assert agent.probs.tobytes() == AgentPolicy.deterministic(2, k, 0).probs.tobytes()
        assert agent.probs.shape == (2, k) and agent.probs is shared.setdefault(k, agent.probs)
        with pytest.raises(ValueError, match="read-only"):
            agent.probs[0, 0] = 0.5
    fresh = JointPolicy(tuple(AgentPolicy.deterministic(2, k, 0) for k in model.action_counts))
    swept = []
    for policy in (behavior, fresh):
        monkeypatch.setattr(planning, "_GAME_CACHE", {})
        swept.append((planning.coalition_values(model, policy).tobytes(),
                      characteristic_game(model, policy).values.tobytes()))
    assert swept[0] == swept[1]


def test_a_deviation_from_the_fixture_leaves_the_other_agents_row_intact():
    """`replace` swaps agent 0's policy for a deviation; agent 1 keeps the
    shared one-hot row, unwritten, and so does the fixture's own behavior."""
    _, behavior, pi_1, pi_1_prime = impossibility_fixture()
    one_hot = AgentPolicy.deterministic(2, 3, 0).probs.tobytes()
    for pi in (pi_1, pi_1_prime):
        deviated = behavior.replace(0, pi)
        assert deviated.agents[0] is pi and deviated.agents[1] is behavior.agents[1]
        assert not np.shares_memory(pi.probs, behavior.agents[1].probs)
    assert [a.probs.tobytes() for a in behavior.agents] == [one_hot, one_hot]


def test_mmdp_from_game_round_trip_is_exact_at_ten_agents():
    for seed in range(2):
        f = random_monotone_game(10, seed)
        back = characteristic_game(*mmdp_from_game(f))
        assert (back.values == f.values).all()


def test_mmdp_from_game_round_trip_at_the_agent_cap():
    for seed in range(2):
        f = random_monotone_game(MAX_AGENTS, seed)
        back = characteristic_game(*mmdp_from_game(f))
        assert np.abs(back.values - f.values).max() <= 1e-12


def test_mmdp_from_game_rejects_invalid_input():
    dented = CharacteristicGame(2, np.array([0.0, 1.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="not realizable"):
        mmdp_from_game(dented)
    lifted = CharacteristicGame(2, np.array([0.3, 1.0, 1.0, 1.5]))
    with pytest.raises(ValueError, match="not realizable"):
        mmdp_from_game(lifted)


def test_mmdp_from_game_refuses_a_game_of_no_agents():
    """A model needs an agent, so a game of 0 agents (random_monotone_game(0, s)
    builds one) is not realizable, rather than a model validate_mmdp refuses."""
    for game in (CharacteristicGame(0, [0.0]), random_monotone_game(0, 3)):
        with pytest.raises(ValueError) as refused:
            mmdp_from_game(game)
        assert str(refused.value) == "set function not realizable: num_agents is 0, fewer than 1"


def test_game_validate_reports_problems():
    ok = CharacteristicGame(2, np.array([0.0, 0.5, 0.25, 0.75]))
    assert ok.validate() == []
    assert ok.total == 0.75
    dented = CharacteristicGame(2, np.array([0.0, 0.5, 0.25, 0.1]))
    assert any("not monotone" in p for p in dented.validate())
    off = CharacteristicGame(2, np.array([0.2, 0.5, 0.5, 0.9]))
    assert any("empty-coalition" in p for p in off.validate())


@pytest.mark.parametrize("values, shape", [([0.0, 0.5], "(2,)"),
                                           ([0.0, 1.0, 1.0], "(3,)"),
                                           ([[0.0, 1.0, 1.0, 2.0]], "(1, 4)")])
def test_a_game_refuses_a_values_table_of_the_wrong_shape(values, shape):
    """A table that is not (2^n,) is refused when the game is built, before
    a method reads past its end or an LP reports its matrix shape."""
    with pytest.raises(ValueError, match=re.escape(
            f"values table has length {shape}, expected 4")):
        CharacteristicGame(2, np.array(values))


@pytest.mark.parametrize("num_agents", [True, np.True_, 2.0, "2", None, -1],
                         ids=["bool", "numpy-bool", "float", "str", "none",
                              "negative"])
def test_a_game_refuses_a_num_agents_that_is_not_a_nonnegative_integer(num_agents):
    """A bool built a game, a float raised a bare TypeError on `<<`, and -1
    raised "negative shift count"; `random_monotone_game` raised the same
    before it drew, and now refuses by the game's rule."""
    message = re.escape(f"num_agents {num_agents!r} is not a nonnegative integer")
    with pytest.raises(ValueError, match=message):
        CharacteristicGame(num_agents, [0.0, 1.0])
    with pytest.raises(ValueError, match=message):
        random_monotone_game(num_agents, 0)


@pytest.mark.parametrize("num_agents", [1, np.int64(1), np.uint8(1)])
def test_a_game_takes_python_and_numpy_integer_agent_counts(num_agents):
    assert CharacteristicGame(num_agents, [0.0, 1.0]).value(1) == 1.0


def test_a_game_holds_a_read_only_copy_of_its_values():
    """attribution's per-game memo relies on this: no held result goes stale."""
    source = np.array([0.0, 1.0, 2.0, 3.0])
    game = CharacteristicGame(2, source)
    with pytest.raises(ValueError, match="read-only"):
        game.values[1] = 5.0
    source[1] = 5.0
    assert game.values.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_game_validate_lists_drops_by_mask_then_agent():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        values = rng.normal(size=1 << n)
        values[0] = 0.5
        expected = ["empty-coalition value is 0.5, not 0"]
        for mask in range(1, 1 << n):
            for i in mask_agents(mask, n):
                sub = mask & ~(1 << i)
                if values[mask] < values[sub] - 0.1:
                    expected.append(
                        f"not monotone: value[{mask:b}]={values[mask]:.6g} "
                        f"< value[{sub:b}]={values[sub]:.6g}")
        assert CharacteristicGame(n, values).validate(tol=0.1) == expected

