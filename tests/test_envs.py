"""The two benchmark environments: construction, semantics, frozen values."""

import numpy as np
import pytest

from blamekit.attribution import (
    average_participation,
    banzhaf,
    marginal_contribution,
    mer,
    shapley,
)
from blamekit import envs
from blamekit.cli import ALPHA_PRIME_GRID
from blamekit.envs import (
    CELL_REWARDS,
    DISCOUNT,
    GRAPH_THRESHOLDS,
    GRAPH_WEIGHTS,
    GRID_SIZE,
    INTERVENTION_COST,
    GraphSpec,
    GridworldSpec,
    build_graph,
    build_gridworld,
    default_map,
    parse_map,
)
from blamekit.mmdp import evaluate_return, validate_mmdp
from blamekit.planning import characteristic_game, solve_mdp
from helpers import (_graph_state, assert_same_model, destination, graph_loop,
                     gridworld_loop, single_agent_plan_loop)

GAMMA = 0.99
# four rewarded steps of +-1 separate the all-win policy from the all-lose one
DELTA = 2.0 * (1.0 - GAMMA ** 4) / (1.0 - GAMMA)


def test_parse_map_accepts_the_packaged_map():
    rows = parse_map(default_map())
    assert len(rows) == GRID_SIZE
    assert all(len(r) == GRID_SIZE for r in rows)
    assert sum(r.count("S") for r in rows) == 1
    assert sum(r.count("G") for r in rows) == 1


def test_parse_map_rejects_malformed_input():
    good = parse_map(default_map())
    with pytest.raises(ValueError, match="8 lines"):
        parse_map("\n".join(good[:-1]))
    with pytest.raises(ValueError, match="8 lines"):
        parse_map("\n".join(r + "." for r in good))
    with pytest.raises(ValueError, match="unknown map cells"):
        parse_map("\n".join(good).replace(".", "x", 1))
    with pytest.raises(ValueError, match="no start"):
        parse_map("\n".join(good).replace("S", "."))
    with pytest.raises(ValueError, match="no goal"):
        parse_map("\n".join(good).replace("G", "."))


def test_destination_bounces_off_the_border():
    assert destination(0, 2) == 0           # up from the top-left corner
    assert destination(0, 0) == 0           # left
    assert destination(0, 1) == 1           # right works
    assert destination(0, 3) == GRID_SIZE   # down works
    last = GRID_SIZE * GRID_SIZE - 1
    assert destination(last, 3) == last
    assert destination(last, 1) == last


# the packaged map with the goal moved to the left border and a second start
_TWO_STARTS = """\
S...H...
HHH.H...
....H...
.HHHH...
G...H...
HHH.H...
....H...
.......S"""


@pytest.mark.parametrize("map_text", [None, _TWO_STARTS])
@pytest.mark.parametrize("alpha_prime", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.4, 1.0])
def test_gridworld_matches_the_loop_reference(alpha, alpha_prime, map_text,
                                              monkeypatch):
    """The array build equals the (state, move, override) loop bit for bit:
    reward, transition, initial distribution, terminals and both agents'
    policy tables, on the packaged map and on one with two starts."""
    if map_text is not None:
        monkeypatch.setattr(envs, "default_map", lambda: map_text)
    spec = GridworldSpec(alpha=alpha, alpha_prime=alpha_prime)
    assert_same_model(*build_gridworld(spec), *gridworld_loop(spec))


def test_gridworld_solves_the_lone_actor_once_per_map(monkeypatch):
    """The overseer sweep's eleven builds solve the lone actor's optimal and
    hazard-blind plans once each, not once per spec."""
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_mdp(*args)

    monkeypatch.setattr(envs, "solve_mdp", counted)
    envs._lone_actor.cache_clear()
    for alpha_prime in ALPHA_PRIME_GRID:
        build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=alpha_prime))
    assert len(calls) == 2


def test_the_lone_actor_tables_are_read_only():
    """The cached model's three tables and both plans are the same objects on
    a second call, and none of them takes a write."""
    key = (default_map(), DISCOUNT, tuple(CELL_REWARDS.items()), INTERVENTION_COST)
    model, *plans = envs._lone_actor(*key)
    assert all(a is b for a, b in zip(envs._lone_actor(*key), (model, *plans)))
    for table in (model.reward, model.transition, model.initial_dist, *plans):
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]


def test_gridworld_builds_share_a_read_only_model_and_own_their_policies():
    """Every build returns the one cached model, whose tables take no write,
    and fresh policy tables: writing into one build's policies leaves the
    next build as it was."""
    spec = GridworldSpec(alpha=0.2, alpha_prime=0.5)
    model, behavior = build_gridworld(spec)
    for table in (model.reward, model.transition, model.initial_dist):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = np.nan
    for agent in behavior.agents:
        agent.probs[...] = np.nan
    again, fresh = build_gridworld(spec)
    assert again is model
    assert not any(np.shares_memory(a.probs, b.probs)
                   for a in behavior.agents for b in fresh.agents)
    assert_same_model(again, fresh, *gridworld_loop(spec))


@pytest.mark.parametrize("patch", [
    lambda m: m.setattr(envs, "default_map", lambda: _TWO_STARTS),
    lambda m: m.setattr(envs, "DISCOUNT", 0.5),
    lambda m: m.setitem(envs.CELL_REWARDS, "H", -0.011),
    lambda m: m.setattr(envs, "INTERVENTION_COST", -0.07),
], ids=["map", "discount", "cell_rewards", "intervention_cost"])
def test_a_patched_gridworld_never_reads_a_stale_plan(patch, monkeypatch):
    """Builds under a patched map, discount, cell reward or intervention
    cost, alternating with default ones, each equal the loop reference bit
    for bit."""
    spec = GridworldSpec(alpha=0.4, alpha_prime=0.5)
    for patched in (True, False, True, False):
        with monkeypatch.context() as m:
            if patched:
                patch(m)
            assert_same_model(*build_gridworld(spec), *gridworld_loop(spec))


def test_gridworld_model_is_valid():
    model, behavior = build_gridworld(GridworldSpec(alpha=0.3, alpha_prime=0.5))
    assert model.num_states == GRID_SIZE * GRID_SIZE
    assert model.action_counts == (4, 2)
    assert validate_mmdp(model) == []
    assert behavior.validate(model) == []
    rows = parse_map(default_map())
    goals = {r * GRID_SIZE + c for r in range(GRID_SIZE)
             for c in range(GRID_SIZE) if rows[r][c] == "G"}
    assert model.terminal_states == frozenset(goals)


def test_gridworld_action_semantics():
    """Without intervention the move lands where it points; with it, the
    single-actor optimal move executes and the cost is charged."""
    spec = GridworldSpec(alpha=0.5, alpha_prime=0.5)
    model, _ = build_gridworld(spec)
    rows = parse_map(default_map())
    opt = single_agent_plan_loop(rows, CELL_REWARDS, DISCOUNT)

    def cell(s):
        return rows[s // GRID_SIZE][s % GRID_SIZE]

    checked = 0
    for s in range(model.num_states):
        if s in model.terminal_states:
            continue
        for a1 in range(4):
            plain = a1 * 2
            dest = destination(s, a1)
            assert model.reward[s, plain] == pytest.approx(
                CELL_REWARDS[cell(dest)], abs=1e-12)
            assert model.transition[s, plain, dest] == 1.0

            forced = a1 * 2 + 1
            forced_dest = destination(s, int(opt[s]))
            assert model.reward[s, forced] == pytest.approx(
                CELL_REWARDS[cell(forced_dest)] + INTERVENTION_COST,
                abs=1e-12)
            assert model.transition[s, forced, forced_dest] == 1.0
            checked += 1
    assert checked > 50


def test_pilot_mixture_hits_both_plans():
    rows = parse_map(default_map())
    opt = single_agent_plan_loop(rows, CELL_REWARDS, 0.99)
    blind_costs = dict(CELL_REWARDS, F=CELL_REWARDS["."], H=CELL_REWARDS["."])
    blind = single_agent_plan_loop(rows, blind_costs, 0.99)

    model, sharp = build_gridworld(GridworldSpec(alpha=1.0, alpha_prime=1.0))
    pilot = sharp.agents[0].probs
    for s in range(model.num_states):
        assert pilot[s, opt[s]] == pytest.approx(1.0, abs=1e-12)

    model, fuzzy = build_gridworld(GridworldSpec(alpha=0.0, alpha_prime=0.0))
    pilot = fuzzy.agents[0].probs
    diverge = [s for s in range(model.num_states) if opt[s] != blind[s]]
    assert diverge, "map should force the hazard-blind plan off the optimum"
    for s in diverge:
        assert pilot[s, opt[s]] == pytest.approx(0.5, abs=1e-12)
        assert pilot[s, blind[s]] == pytest.approx(0.5, abs=1e-12)


def test_overseer_is_a_deterministic_best_response():
    model, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    overseer = behavior.agents[1].probs
    assert set(np.unique(overseer)) <= {0.0, 1.0}
    np.testing.assert_allclose(overseer.sum(axis=1), 1.0, atol=0)
    # it intervenes somewhere, but not everywhere
    assert 0 < overseer[:, 1].sum() < model.num_states


def test_gridworld_spec_validation():
    with pytest.raises(ValueError, match="alpha"):
        build_gridworld(GridworldSpec(alpha=1.5, alpha_prime=0.5))
    # a level that is not a real number in [0, 1], NaN and a bool included,
    # is refused by name rather than compared or read as 0.0 or 1.0
    for level in ("0.5", None, 1j, np.nan, True, False, np.True_):
        with pytest.raises(ValueError, match=r"alpha = .* is not a real number"):
            build_gridworld(GridworldSpec(alpha=level, alpha_prime=0.5))
        with pytest.raises(ValueError, match=r"alpha_prime = .* is not a real"):
            build_gridworld(GridworldSpec(alpha=0.5, alpha_prime=level))
    # numpy scalars are real numbers
    assert GridworldSpec(np.float64(0.2), np.int64(1)).validate() == []


def test_gridworld_frozen_inefficiency_game():
    """Regression pin for the packaged map at the robustness operating point."""
    model, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    assert evaluate_return(model, behavior) == pytest.approx(
        0.362189312741, abs=1e-9)
    game = characteristic_game(model, behavior)
    np.testing.assert_allclose(
        game.values, [0.0, 0.04532447606, 0.0, 0.1778969789], atol=1e-9)
    np.testing.assert_allclose(shapley(game).blames,
                               [0.111610727465, 0.0662862514042], atol=1e-9)


@pytest.mark.parametrize(("spec", "discount"), [
    *((GraphSpec("coordination", threshold_index=t), DISCOUNT)
      for t in range(1, 5)),
    *((GraphSpec("robustness"), d) for d in (DISCOUNT, 0.3, 0.0))],
    ids=[f"spec{i}" for i in range(7)])
def test_graph_matches_the_loop_reference(spec, discount, monkeypatch):
    """The array build equals the (joint action, column, levels) loop bit
    for bit: reward, transition, initial distribution, terminals and every
    agent's behavior table, the robustness variant also at discounts other
    than the built-in one."""
    monkeypatch.setattr(envs, "DISCOUNT", discount)
    assert_same_model(*build_graph(spec), *graph_loop(spec))


def test_graph_state_indexing():
    assert _graph_state(0, 0) == 0
    assert _graph_state(1, 0) == 1
    assert _graph_state(1, 15) == 16
    assert _graph_state(4, 15) == 64
    assert _graph_state(5, 0) == 65


def test_graph_model_is_valid_and_layered():
    model, behavior = build_graph(GraphSpec("coordination", threshold_index=2))
    assert model.num_states == 66
    assert model.action_counts == (2, 2, 2, 2)
    assert validate_mmdp(model) == []
    assert behavior.validate(model) == []
    assert model.terminal_states == frozenset({65})
    # every transition moves one column forward
    for ja in range(16):
        bits = sum(int(a) << i for i, a in enumerate(
            np.unravel_index(ja, model.action_counts)))
        assert model.transition[0, ja, _graph_state(1, bits)] == 1.0
        assert model.transition[_graph_state(4, 3), ja, 65] == 1.0
        assert model.reward[_graph_state(4, 3), ja] == 0.0


def test_graph_rewards_score_the_constraint():
    spec = GraphSpec("coordination", threshold_index=2)
    model, _ = build_graph(spec)
    for ja in range(16):
        actions = np.unravel_index(ja, model.action_counts)
        weighted = sum(w * a for w, a in zip(GRAPH_WEIGHTS, actions))
        expect = 1.0 if weighted >= GRAPH_THRESHOLDS[1] else -1.0
        assert model.reward[0, ja] == expect
        assert model.reward[_graph_state(2, 7), ja] == expect


def test_graph_spec_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        build_graph(GraphSpec("tandem"))
    with pytest.raises(ValueError, match="threshold index"):
        build_graph(GraphSpec("coordination", threshold_index=5))
    # an index that is not an integer (a bool is not) is refused by name,
    # neither used as a tuple index nor read as 0 or 1
    for index in (2.0, True, "2", None):
        with pytest.raises(ValueError, match=r"threshold index .* is not an integer"):
            build_graph(GraphSpec("coordination", threshold_index=index))
    assert GraphSpec("coordination", threshold_index=np.int64(2)).validate() == []


def test_coordination_game_is_a_scaled_voting_game():
    """At the second threshold the inefficiency game is DELTA times the
    weighted voting game [7; 1, 2, 3, 4], whose Shapley and Banzhaf vectors
    are textbook pivot counts."""
    model, behavior = build_graph(GraphSpec("coordination", threshold_index=2))
    game = characteristic_game(model, behavior)

    def winning(mask):
        return sum(w for i, w in enumerate(GRAPH_WEIGHTS) if mask >> i & 1) >= 7

    expected = np.array([DELTA if winning(m) else 0.0 for m in range(16)])
    np.testing.assert_allclose(game.values, expected, atol=1e-9)

    np.testing.assert_allclose(
        shapley(game).blames,
        DELTA * np.array([1, 1, 3, 7]) / 12.0, atol=1e-9)
    np.testing.assert_allclose(
        banzhaf(game).blames,
        DELTA * np.array([1, 1, 3, 5]) / 8.0, atol=1e-9)
    assert average_participation(game).total == pytest.approx(
        DELTA / 3.0, abs=1e-9)
    # every singleton is powerless, so nothing can be rationally distributed
    assert mer(game).total == pytest.approx(0.0, abs=1e-9)
    assert marginal_contribution(game).total == pytest.approx(0.0, abs=1e-9)


def test_lowest_threshold_makes_every_agent_sufficient():
    model, behavior = build_graph(GraphSpec("coordination", threshold_index=1))
    game = characteristic_game(model, behavior)
    np.testing.assert_allclose(game.values[1:], DELTA, atol=1e-9)
    np.testing.assert_allclose(shapley(game).blames, DELTA / 4.0, atol=1e-9)


def test_persistence_behavior_rows():
    model, behavior = build_graph(GraphSpec("robustness"))
    assert behavior.validate(model) == []
    # uniform at the start, on the last column, and at the end
    for agent in range(4):
        probs = behavior.agents[agent].probs
        np.testing.assert_allclose(probs[0], 0.5, atol=0)
        np.testing.assert_allclose(probs[_graph_state(4, 9)], 0.5, atol=0)
        np.testing.assert_allclose(probs[65], 0.5, atol=0)

    # balanced levels: keep the current level with probability 1 - 0.2 * agent
    s = _graph_state(2, 0b0011)
    np.testing.assert_allclose(behavior.agents[1].probs[s], [0.2, 0.8], atol=1e-12)
    np.testing.assert_allclose(behavior.agents[3].probs[s], [0.4, 0.6], atol=1e-12)
    np.testing.assert_allclose(behavior.agents[0].probs[s], [0.0, 1.0], atol=1e-12)
    # underfull upper level attracts, overfull repels
    sparse = _graph_state(1, 0b0001)
    np.testing.assert_allclose(behavior.agents[2].probs[sparse], [0.4, 0.6],
                               atol=1e-12)
    crowded = _graph_state(3, 0b0111)
    np.testing.assert_allclose(behavior.agents[1].probs[crowded], [0.8, 0.2],
                               atol=1e-12)


def test_robustness_frozen_inefficiency_game():
    model, behavior = build_graph(GraphSpec("robustness"))
    assert evaluate_return(model, behavior) == pytest.approx(
        -1.29271973122, abs=1e-9)
    game = characteristic_game(model, behavior)
    np.testing.assert_allclose(
        game.values,
        [0.0, 0.77906703, 1.0617667, 1.2927197, 1.148194, 1.4598632,
         1.8807995, 1.8807995, 0.97542467, 1.3365812, 1.8807995, 1.8807995,
         3.0569591, 3.0569591, 4.2331187, 5.2331187], atol=1e-7)
    np.testing.assert_allclose(
        shapley(game).blames,
        [0.520081647692, 1.16722718668, 1.81197334694, 1.73383654991],
        atol=1e-9)
