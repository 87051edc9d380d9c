"""Coalition best responses, the inefficiency game, and its realizability."""
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blamekit import cli, planning, uncertainty
from blamekit.cli import run_coordination, run_perm_sweep
from blamekit.envs import GridworldSpec, build_gridworld
from blamekit.mmdp import (AgentPolicy, JointPolicy, as_joint_table, evaluate_return,
                           policy_values)
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
from blamekit.properties import random_monotone_game
from helpers import (assert_same_model, complement_columns,
                     complement_conditional, compose, index_stack,
                     induced_full, induced_gathered, mmdp_from_game_scatter,
                     random_factorized, random_mmdp)


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
    values; a one-step model, where no transition enters a state of nonzero
    value, keeps the cold start."""
    gridworld = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    one_step = mmdp_from_game(random_monotone_game(4, 0))
    starts = []

    def recording(r, p, gamma, start=None):
        starts.append(start)
        return solve_mdp(r, p, gamma, start)

    monkeypatch.setattr(planning, "solve_mdp", recording)
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    monkeypatch.setattr(planning, "_VALUES_CACHE", {})
    characteristic_game(*one_step)
    assert starts and all(start is None for start in starts)
    starts.clear()
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
    monkeypatch.setattr(planning, "_VALUES_CACHE", {})
    with mock.patch.object(planning, "_solve_linear",
                           wraps=planning._solve_linear) as counted:
        run_perm_sweep()
        run_coordination()
    assert counted.call_count <= 150


def test_the_perm_experiment_sweeps_six_games_for_its_eleven_builds(monkeypatch):
    """Its repeated behaviors (alpha_prime 0.0-0.3, 0.4-0.5 and 0.9-1.0) come
    one after another, so the two-entry game memo sweeps each once."""
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    monkeypatch.setattr(planning, "_VALUES_CACHE", {})
    with mock.patch.object(cli, "build_gridworld", wraps=cli.build_gridworld) as builds, \
            mock.patch.object(planning, "_coalition_chunks",
                              wraps=planning._coalition_chunks) as sweeps:
        run_perm_sweep()
    assert (builds.call_count, sweeps.call_count) == (11, 6)


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
    """induced_mdp builds its (A_C, A_D) index from the coalition and
    complement rows it gathers for the kernel: 2 `_rows` calls, not the 4
    of a second gather through coalition_action_index, for the same index."""
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
def test_compressed_induced_matches_the_full_contraction(seed, action_counts,
                                                         num_states, kind):
    """Gathering only the played complement actions changes nothing when
    every (member, state) plays at most two of them or all of them (the
    dropped terms are exact zeros), and otherwise moves a sum by rounding
    only (einsum may group three or more terms differently), for stacked
    chunks and lone coalitions alike."""
    rng = np.random.default_rng(seed)
    m = random_mmdp(rng, num_states, tuple(action_counts))
    table = _behavior_table(rng, m, kind)
    for idx, masks, fast_tables in _kernel_cases(m, table):
        q = complement_conditional(m, table, idx)
        played = np.count_nonzero(q, axis=-1)
        exact = ((played <= 2) | (played == q.shape[-1])).all()
        # a sum's rounding scales with the sum of its absolute terms
        bounds = planning.marginalize(
            np.abs(q), *map(np.abs, planning.coalition_tables(m, idx)))
        for fast, full, bound in zip(fast_tables, induced_full(m, table, idx),
                                     bounds):
            assert fast.shape == full.shape and fast.dtype == full.dtype
            if exact:
                assert fast.tobytes() == full.tobytes()
            else:
                assert (np.abs(fast - full) <= 1e-14 * bound).all()


def _kernel_cases(m, table):
    """(index (stack), masks, planning._induced's tables) for every sweep
    chunk, stacked, and for each of its coalitions alone (its entries of
    the chunk's cached tables)."""
    played = planning._played(m, table)
    for chunk, *tables in planning._coalition_chunks(m, played):
        stack = index_stack(m, chunk)
        yield stack, chunk, planning._induced(m, played, *tables)
        for j, (idx, mask) in enumerate(zip(stack, chunk)):
            yield idx, mask, planning._induced(m, played, *(t[j] for t in tables))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       num_states=st.integers(1, 4),
       kind=st.sampled_from(["deterministic", "partial", "full", "explicit"]))
def test_scattered_conditional_is_the_gathered_kernel_bit_for_bit(
        seed, action_counts, num_states, kind):
    """Scattering q from the behavior's nonzero entries adds the same terms
    in the same order as gathering and summing it over the full index, so
    the kernel's tables equal the gathered kernel's byte for byte, stacked
    and alone, and so does induced_mdp's."""
    rng = np.random.default_rng(seed)
    m = random_mmdp(rng, num_states, tuple(action_counts))
    table = _behavior_table(rng, m, kind)
    for idx, masks, fast_tables in _kernel_cases(m, table):
        slow_tables = induced_gathered(m, table, idx)
        cases = [zip(fast_tables, slow_tables)]
        if masks.ndim == 0:
            coalition = mask_agents(int(masks), m.num_agents)
            cases.append(zip(induced_mdp(m, table, coalition), (*slow_tables, idx)))
        for fast, slow in itertools.chain(*cases):
            assert fast.shape == slow.shape and fast.dtype == slow.dtype
            assert fast.tobytes() == slow.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
@example([2, 1, 3, 1])
@example([1, 1])
def test_subgrid_rows_list_each_coalitions_own_joint_actions(action_counts):
    """Row M of the sub-grid table is every joint action whose digits off M
    are zero, ascending, and weights[M] gives each one's place in the row."""
    values, offsets, weights = planning._subgrids(tuple(action_counts))
    n = len(action_counts)
    digits = np.array(list(itertools.product(*map(range, action_counts))))
    assert values.dtype == np.int64
    assert values.size == offsets[-1] == np.prod([k + 1 for k in action_counts])
    for mask in range(1 << n):
        off = [i for i in range(n) if not mask >> i & 1]
        expected = np.flatnonzero((digits[:, off] == 0).all(axis=1))
        row = values[offsets[mask]:offsets[mask + 1]]
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(digits[row] @ weights[mask],
                                      np.arange(row.size))


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


def test_subgrids_are_cached_and_read_only():
    """One table per action-count tuple, shared by the sweep, induced_mdp and
    coalition_action_index, which none of them may write."""
    tables = planning._subgrids((2, 3, 1))
    assert all(a is b for a, b in zip(planning._subgrids((2, 3, 1)), tables))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def test_a_second_sweep_on_the_same_action_counts_builds_no_coalition_rows(
        monkeypatch):
    """The sweep's coalition and complement rows depend only on the action
    counts: the first sweep gathers them once per joint-action count group,
    and a sweep of another model with the same counts gathers none."""
    rng = np.random.default_rng(31)
    counts = (2, 3, 1, 2)
    first, second = (random_mmdp(rng, num_states=3, action_counts=counts)
                     for _ in range(2))
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    monkeypatch.setattr(planning, "_VALUES_CACHE", {})
    planning._groups.cache_clear()
    calls = []
    for m in (first, second):
        with mock.patch.object(planning, "_rows", wraps=planning._rows) as rows:
            characteristic_game(m, _behavior_table(rng, m, "partial"))
        calls.append(rows.call_count)
    assert calls == [2 * len(planning._groups(counts)), 0]


def test_sweep_group_tables_are_cached_and_read_only():
    """One set of group tables per action-count tuple, shared by every sweep
    on it, so neither they nor the chunks sliced out of them may be written."""
    groups = planning._groups((2, 3, 1))
    assert planning._groups((2, 3, 1)) is groups
    m = random_mmdp(np.random.default_rng(32), num_states=2, action_counts=(2, 3, 1))
    chunks = planning._coalition_chunks(m, planning._played(m, _behavior_table(
        np.random.default_rng(33), m, "full")))
    for table in itertools.chain(*groups, *chunks):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("budget", [1, 1 << 40])
def test_characteristic_game_does_not_depend_on_the_chunk_budget(monkeypatch,
                                                                 budget):
    """One coalition per chunk, or each joint-action count group in one
    chunk, gives the same bits as the default chunking."""
    cases = []
    for seed, counts in enumerate([(2, 1, 3, 1), (1, 2, 2, 2, 1), (3, 3, 1)]):
        rng = np.random.default_rng(700 + seed)
        m = random_mmdp(rng, num_states=2 + seed, action_counts=counts)
        table = rng.dirichlet(np.ones(m.num_joint_actions), size=m.num_states)
        cases.append((m, table, characteristic_game(m, table).values))
    m, behavior = mmdp_from_game(random_monotone_game(7, 0))
    cases.append((m, behavior, characteristic_game(m, behavior).values))
    monkeypatch.setattr(planning, "_GATHER_BUDGET", budget)
    monkeypatch.setattr(planning, "_GAME_CACHE", {})
    monkeypatch.setattr(planning, "_VALUES_CACHE", {})
    for m, behavior, expected in cases:
        assert characteristic_game(m, behavior).values.tobytes() == expected.tobytes()


def _sweep_chunks(m, table):
    """The masks of each sweep chunk."""
    return [chunk[0] for chunk in planning._coalition_chunks(m, planning._played(m, table))]


@pytest.mark.parametrize("n", [8, 9, 12])
def test_game_model_sweep_is_one_chunk_per_joint_action_group(n):
    """A mmdp_from_game behavior plays one joint action per state, so each
    coalition gathers S * A_C * S transition entries after its S * A_D
    conditional: every joint-action count group is one chunk where the
    budget holds it, and otherwise the fewest chunks it allows."""
    m, behavior = mmdp_from_game(random_monotone_game(n, 0))
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
        cost = S * ((1 << n - k) + (1 << k) * S)
        assert len(group) == -(-members.size // (planning._GATHER_BUDGET // cost))
    if n < 12:
        assert len(chunks) == n
    else:
        assert len(chunks) == 106


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       action_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       num_states=st.integers(1, 6),
       kind=st.sampled_from(["deterministic", "partial", "full"]),
       budget=st.integers(1, planning._GATHER_BUDGET))
def test_sweep_chunks_stay_within_the_gather_budget(seed, action_counts,
                                                    num_states, kind, budget):
    """Every nonempty coalition lands in one chunk of equal A_C, and a chunk
    of K > 1 holds K * S * (A_D + A_C * W * S) elements at most, W being
    the width its complement conditional is padded to."""
    rng = np.random.default_rng(seed)
    m = random_mmdp(rng, num_states, tuple(action_counts))
    table = _behavior_table(rng, m, kind)
    with mock.patch.object(planning, "_GATHER_BUDGET", budget):
        chunks = _sweep_chunks(m, table)
    assert sorted(np.concatenate(chunks)) == list(range(1, 1 << m.num_agents))
    for chunk in chunks:
        idx = index_stack(m, chunk)
        width = np.count_nonzero(complement_conditional(m, table, idx), -1).max()
        _, num_c, num_d = idx.shape
        if chunk.size > 1:
            assert chunk.size * num_states * (num_d + num_c * width * num_states) <= budget


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
    monkeypatch.setattr(planning, "_VALUES_CACHE", {})
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

