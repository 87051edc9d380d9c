"""Robust value bounds and the never-over-blaming attribution variants."""
import dataclasses
from functools import lru_cache
import gc
import re
from unittest import mock
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamekit import attribution, cli, mmdp, planning, uncertainty
from blamekit.attribution import (
    PIVOTAL_TOL,
    average_participation,
    banzhaf,
    marginal_contribution,
    mer,
    pivotality,
    shapley,
)
from blamekit.envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from blamekit.lp import LinearProgram, solve
from blamekit.mmdp import (AgentPolicy, JointPolicy, Mmdp, evaluate_return,
                           product_table)
from blamekit.planning import (MEMO_ENTRIES, best_response, characteristic_game,
                               mask_agents, mmdp_from_game)
from blamekit.properties import random_monotone_game
from blamekit.uncertainty import (
    _EDGE_TOL,
    RobustBounds,
    UncertaintySet,
    _CoalitionProblem,
    _monotone_closure,
    _topological_levels,
    ap_blackstone,
    bi_blackstone,
    l1_distance,
    mc_blackstone,
    mer_blackstone,
    robust_bounds,
    sample_center,
    sv_blackstone,
    sv_valid,
)
from helpers import (ball_max_loop, ball_row_max_loop, box_max_loop,
                     complement_columns, complement_product_loop,
                     corner_factors_loop, corner_max_loop, fold_loop,
                     highs_ball_min, highs_box_min, kahn_order,
                     monotone_closure_loop, random_acyclic_mmdp,
                     random_factorized, random_mmdp, relaxed_box_loop,
                     robust_replay, two_row_min)


def bandit_model(reward_row, action_counts, gamma=0.99):
    """One decision state feeding an absorbing terminal, so values are just
    one-step expected rewards."""
    A = int(np.prod(action_counts))
    reward = np.zeros((2, A))
    reward[0] = np.asarray(reward_row, dtype=float)
    transition = np.zeros((2, A, 2))
    transition[:, :, 1] = 1.0
    return Mmdp(2, len(action_counts), tuple(action_counts), reward,
                transition, gamma, np.array([1.0, 0.0]), frozenset({1}))


def bandit_center(rows_per_agent):
    agents = []
    for row in rows_per_agent:
        probs = np.vstack([row, np.full(len(row), 1.0 / len(row))])
        agents.append(AgentPolicy(probs))
    return JointPolicy(tuple(agents))


def test_sample_center_is_deterministic_and_contains_truth():
    rng = np.random.default_rng(30)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3))
    truth = random_factorized(rng, m)
    uset = sample_center(truth, 0.15, seed=5)
    again = sample_center(truth, 0.15, seed=5)
    for a, b in zip(uset.center.agents, again.center.agents):
        np.testing.assert_array_equal(a.probs, b.probs)
    assert uset.validate() == []
    assert uset.contains(truth)
    assert uset.truth is truth
    other = sample_center(truth, 0.15, seed=6)
    assert any(not np.array_equal(a.probs, b.probs)
               for a, b in zip(uset.center.agents, other.center.agents))


def test_sample_center_zero_radius_and_agent_filter():
    rng = np.random.default_rng(31)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3))
    truth = random_factorized(rng, m)
    exact = sample_center(truth, 0.0, seed=1)
    for a, b in zip(exact.center.agents, truth.agents):
        np.testing.assert_array_equal(a.probs, b.probs)

    partial = sample_center(truth, 0.2, seed=2, uncertain_agents=frozenset({1}))
    assert partial.center.agents[0] is truth.agents[0]
    assert partial.agent_radius(0) == 0.0
    assert partial.agent_radius(1) == 0.2
    # a bool is not a radius, neither read as 1.0 nor as 0.0
    for radius in (-0.1, np.inf, -np.inf, np.nan, True, False, np.True_):
        message = f"invalid uncertainty set: radius {radius!r} is not a finite number >= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_center(truth, radius, seed=0)
    # the set is checked with the truth as its center before any draw: a
    # NaN truth failed the sampler at 0.1 and came back as the center at 0,
    # a row of [0.9, 0.9] was renormalized, and agent 7 was ignored
    nan_rows, heavy_rows = truth.agents[0].probs.copy(), truth.agents[0].probs.copy()
    nan_rows[0, 0], heavy_rows[2] = np.nan, [0.9, 0.9]
    for policy, eps, agents, problem in (
            (truth.replace(0, AgentPolicy(nan_rows)), 0.1, None,
             "agent 0: probs[0, 0] is nan, not finite"),
            (truth.replace(0, AgentPolicy(nan_rows)), 0.0, None,
             "agent 0: probs[0, 0] is nan, not finite"),
            (truth.replace(0, AgentPolicy(heavy_rows)), 0.1, None,
             "agent 0: rows not summing to 1 at states [2]"),
            (truth, 0.1, frozenset({1, 7}), "uncertain agents: agent index 7 out of range")):
        message = f"invalid uncertainty set: {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_center(policy, eps, seed=0, uncertain_agents=agents)


def test_uncertainty_set_validate_and_contains():
    center = bandit_center([(0.5, 0.5)])
    inside = bandit_center([(0.7, 0.3)])
    outside = bandit_center([(0.75, 0.25)])
    uset = UncertaintySet(center, 0.2)
    assert uset.contains(inside)      # deviation exactly at the radius
    assert not uset.contains(outside)
    assert uset.validate() == []
    # a bool radius was read as 1.0; a str, None or a list raised TypeError
    for radius in (-0.5, np.inf, -np.inf, np.nan, True, np.True_, "0.1", None, [0.1]):
        assert UncertaintySet(center, radius).validate() == [
            f"radius {radius!r} is not a finite number >= 0"]
    stray = UncertaintySet(center, 0.1, truth=outside)
    assert any("outside" in p for p in stray.validate())
    # a truth of another shape is reported, not broadcast or zipped short
    pair = bandit_center([(0.5, 0.5), (0.4, 0.6)])
    taller = JointPolicy(tuple(AgentPolicy(np.full((3, 2), 0.5))
                               for _ in range(2)))
    assert UncertaintySet(pair, 0.1, truth=taller).validate() == [
        "declared truth has policy shapes [(3, 2), (3, 2)], "
        "the center [(2, 2), (2, 2)]"]
    assert UncertaintySet(pair, 0.1, truth=inside).validate() == [
        "declared truth has policy shapes [(2, 2)], "
        "the center [(2, 2), (2, 2)]"]
    # a truth's own policy problems are reported, and a NaN deviation is
    # outside the set, not inside it
    nan_truth = bandit_center([(np.nan, 0.5)])
    assert not uset.contains(nan_truth)
    problems = UncertaintySet(center, 0.2, truth=nan_truth).validate()
    assert problems[0].startswith("declared truth agent 0: ")
    assert "not finite" in problems[0]
    assert problems[1:] == ["declared truth lies outside the set"]
    # contains refuses such a policy too, rather than zip it short
    trio = bandit_center([(0.5, 0.5)] * 3)
    for center, policy in ((trio, inside), (trio, bandit_center([(0.5, 0.5)] * 4)),
                           (pair, taller)):
        with pytest.raises(ValueError, match="policy shapes"):
            UncertaintySet(center, 0.2).contains(policy)


def test_content_key_separates_sets():
    center = bandit_center([(0.5, 0.5), (0.4, 0.6)])
    a = UncertaintySet(center, 0.1)
    assert a.content_key() == UncertaintySet(center, 0.1).content_key()
    assert a.content_key() != UncertaintySet(center, 0.2).content_key()
    assert a.content_key() != UncertaintySet(
        center, 0.1, uncertain_agents=frozenset({0})).content_key()


def test_ball_bounds_match_grid_search_binary_complement():
    """Coalition {0} against one uncertain binary agent: the adversary's
    feasible set is an interval, so a fine grid is a reliable oracle."""
    rng = np.random.default_rng(32)
    reward_row = rng.uniform(-1.0, 1.0, size=6)
    m = bandit_model(reward_row, (3, 2))
    center = bandit_center([(1.0, 0.0, 0.0), (0.6, 0.4)])
    eps = 0.2
    uset = UncertaintySet(center, eps, uncertain_agents=frozenset({1}))

    lo, hi = max(0.0, 0.6 - eps), min(1.0, 0.6 + eps)
    grid = []
    for q0 in np.linspace(lo, hi, 2001):
        q = np.array([q0, 1.0 - q0])
        grid.append(max(float(q @ reward_row[2 * a0: 2 * a0 + 2])
                        for a0 in range(3)))
    grid = np.array(grid)

    got_min = robust_bounds(m, uset).min_value((0,))
    got_max = robust_bounds(m, uset).max_value((0,))
    assert got_min <= grid.min() + 1e-9
    assert got_max >= grid.max() - 1e-9
    assert got_min == pytest.approx(grid.min(), abs=1e-3)
    assert got_max == pytest.approx(grid.max(), abs=1e-3)


def test_ball_bounds_match_simplex_grid_three_actions():
    rng = np.random.default_rng(33)
    reward_row = rng.uniform(-1.0, 1.0, size=6)
    m = bandit_model(reward_row, (2, 3))
    p = np.array([0.5, 0.3, 0.2])
    center = bandit_center([(1.0, 0.0), p])
    eps = 0.15
    uset = UncertaintySet(center, eps, uncertain_agents=frozenset({1}))

    values = []
    step = 0.01
    for q0 in np.arange(0.0, 1.0 + step / 2, step):
        for q1 in np.arange(0.0, 1.0 - q0 + step / 2, step):
            q = np.array([q0, q1, 1.0 - q0 - q1])
            if 0.5 * np.abs(q - p).sum() > eps + 1e-12:
                continue
            values.append(max(float(q @ reward_row[3 * a0: 3 * a0 + 3])
                              for a0 in range(2)))
    values = np.array(values)

    got_min = robust_bounds(m, uset).min_value((0,))
    got_max = robust_bounds(m, uset).max_value((0,))
    assert got_min <= values.min() + 1e-9
    assert got_max >= values.max() - 1e-9
    assert got_min == pytest.approx(values.min(), abs=2e-2)
    assert got_max == pytest.approx(values.max(), abs=2e-2)


def test_corner_max_matches_exhaustive_corners():
    """Two uncertain binary complement agents: the optimistic bound must
    equal the best of the four interval-endpoint combinations and dominate
    the interior."""
    rng = np.random.default_rng(34)
    reward_row = rng.uniform(-1.0, 1.0, size=8)
    m = bandit_model(reward_row, (2, 2, 2))
    c1, c2 = 0.6, 0.3
    center = bandit_center([(1.0, 0.0), (c1, 1.0 - c1), (c2, 1.0 - c2)])
    eps = 0.15
    uset = UncertaintySet(center, eps, uncertain_agents=frozenset({1, 2}))

    def coalition_value(q1_0, q2_0):
        q1 = np.array([q1_0, 1.0 - q1_0])
        q2 = np.array([q2_0, 1.0 - q2_0])
        best = -np.inf
        for a0 in range(2):
            val = sum(q1[a1] * q2[a2] * reward_row[a0 * 4 + a1 * 2 + a2]
                      for a1 in range(2) for a2 in range(2))
            best = max(best, val)
        return best

    ends1 = (max(0.0, c1 - eps), min(1.0, c1 + eps))
    ends2 = (max(0.0, c2 - eps), min(1.0, c2 + eps))
    corner_best = max(coalition_value(e1, e2) for e1 in ends1 for e2 in ends2)
    got = robust_bounds(m, uset, True).max_value((0,))
    assert got == pytest.approx(corner_best, abs=1e-9)
    for q1_0 in np.linspace(ends1[0], ends1[1], 41):
        for q2_0 in np.linspace(ends2[0], ends2[1], 41):
            assert coalition_value(q1_0, q2_0) <= got + 1e-9


def test_exact_minimization_unavailable_with_two_uncertain_complements():
    m = bandit_model(np.arange(8.0), (2, 2, 2))
    center = bandit_center([(1.0, 0.0), (0.5, 0.5), (0.5, 0.5)])
    uset = UncertaintySet(center, 0.1, uncertain_agents=frozenset({1, 2}))
    with pytest.raises(ValueError) as info:
        robust_bounds(m, uset, True).min_value((0,))
    # every agent is binary: the min refusal names the count, not an arity
    assert str(info.value) == (
        "no exact chooser for coalition (0,) in min mode: 2 uncertain "
        "complement agents, and the exact min takes one; use the relaxed box")
    # the relaxed box happily covers the same query
    assert np.isfinite(robust_bounds(m, uset, False).min_value((0,)))
    # the segment corners still give the exact max
    assert np.isfinite(robust_bounds(m, uset, True).max_value((0,)))


def test_exact_maximization_unavailable_with_a_non_binary_complement():
    m = bandit_model(np.arange(12.0), (2, 2, 3))
    center = bandit_center([(1.0, 0.0), (0.5, 0.5), (0.2, 0.3, 0.5)])
    uset = UncertaintySet(center, 0.1, uncertain_agents=frozenset({1, 2}))
    with pytest.raises(ValueError) as info:
        robust_bounds(m, uset, True).max_value((0,))
    assert str(info.value) == (
        "no exact chooser for coalition (0,) in max mode: uncertain "
        "complement agent 2 is not binary, and the exact max over several "
        "needs binary ones; use the relaxed box")
    assert np.isfinite(robust_bounds(m, uset, False).max_value((0,)))


def test_relaxed_box_is_looser_than_the_ball():
    rng = np.random.default_rng(35)
    reward_row = rng.uniform(-1.0, 1.0, size=6)
    m = bandit_model(reward_row, (3, 2))
    center = bandit_center([(1.0, 0.0, 0.0), (0.55, 0.45)])
    uset = UncertaintySet(center, 0.2, uncertain_agents=frozenset({1}))
    assert (robust_bounds(m, uset, False).min_value((0,))
            <= robust_bounds(m, uset, True).min_value((0,)) + 1e-9)
    assert (robust_bounds(m, uset, False).max_value((0,))
            >= robust_bounds(m, uset, True).max_value((0,)) - 1e-9)
    # auto mode picks the exact chooser when one applies
    assert robust_bounds(m, uset).min_value((0,)) == pytest.approx(
        robust_bounds(m, uset, True).min_value((0,)), abs=1e-12)


def test_zero_radius_bounds_collapse_to_point_values():
    rng = np.random.default_rng(36)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 2), gamma=0.85)
    truth = random_factorized(rng, m)
    uset = sample_center(truth, 0.0, seed=3)
    for coalition in [(), (0,), (1,), (0, 1)]:
        reference = best_response(m, truth, coalition).value
        assert robust_bounds(m, uset).min_value(coalition) == pytest.approx(
            reference, abs=1e-9)
        assert robust_bounds(m, uset).max_value(coalition) == pytest.approx(
            reference, abs=1e-9)


def test_bounds_bracket_sampled_members_on_cyclic_model():
    """No topological order here, so this drives the fixed-point recursion;
    every behavior drawn from the set must evaluate inside the bracket."""
    rng = np.random.default_rng(37)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 2), gamma=0.8)
    truth = random_factorized(rng, m)
    eps = 0.1
    uset = sample_center(truth, eps, seed=4, uncertain_agents=frozenset({1}))
    bounds = robust_bounds(m, uset)
    assert robust_bounds(m, uset) is bounds  # cached

    for coalition in [(), (0,), (1,), (0, 1)]:
        lo = bounds.min_value(coalition)
        hi = bounds.max_value(coalition)
        assert lo <= hi + 1e-12
        truth_value = best_response(m, uset.truth, coalition).value
        assert lo - 1e-9 <= truth_value <= hi + 1e-9
        for draw in range(10):
            member = sample_center(uset.center, eps, seed=100 + draw,
                                   uncertain_agents=frozenset({1})).center
            assert uset.contains(member)
            value = best_response(m, member, coalition).value
            assert lo - 1e-9 <= value <= hi + 1e-9


def test_max_policy_attains_the_empty_coalition_bound():
    rng = np.random.default_rng(38)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 2), gamma=0.8)
    truth = random_factorized(rng, m)
    uset = sample_center(truth, 0.12, seed=8, uncertain_agents=frozenset({0}))
    bounds = robust_bounds(m, uset)
    table = bounds.max_policy()
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
    assert evaluate_return(m, table) == pytest.approx(
        bounds.max_value(()), abs=1e-9)


def test_wider_radius_widens_bounds():
    rng = np.random.default_rng(39)
    reward_row = rng.uniform(-1.0, 1.0, size=6)
    m = bandit_model(reward_row, (3, 2))
    center = bandit_center([(0.4, 0.3, 0.3), (0.5, 0.5)])
    last_min, last_max = None, None
    for radius in (0.0, 0.05, 0.1, 0.2, 0.4):
        uset = UncertaintySet(center, radius)
        lo = robust_bounds(m, uset, False).min_value((0,))
        hi = robust_bounds(m, uset, False).max_value((0,))
        if last_min is not None:
            assert lo <= last_min + 1e-12
            assert hi >= last_max - 1e-12
        last_min, last_max = lo, hi


def test_relaxed_box_entries_are_clipped_products():
    m = bandit_model(np.zeros(6), (2, 3))
    center = bandit_center([(0.9, 0.1), (0.5, 0.3, 0.2)])
    uset = UncertaintySet(center, 0.2)
    # the empty coalition's box spans every agent's actions
    box = _CoalitionProblem(m, uset, 0, "min", False)
    assert box.path == "box"
    assert box.box_lower.shape == (2, 6)
    # joint action (0, 1): agent 0 takes 0, agent 1 takes 1
    assert box.box_lower[0, 1] == pytest.approx(0.7 * 0.1, abs=1e-12)
    assert box.box_upper[0, 1] == pytest.approx(1.0 * 0.5, abs=1e-12)
    assert box.box_lower[0, 2] == pytest.approx(0.7 * 0.0, abs=1e-12)
    assert box.box_upper[0, 2] == pytest.approx(1.0 * 0.4, abs=1e-12)
    assert (box.box_lower <= box.box_upper + 1e-12).all()


def _same_bytes(table, reference):
    reference = np.ascontiguousarray(reference)
    assert table.shape == reference.shape
    assert table.tobytes() == reference.tobytes()


# signed zeros and exact zeros included: a product must keep the sign the
# loops give it
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 0.1, 0.7, 1.0 / 3.0])


@st.composite
def product_cases(draw):
    # binary agents weighted up: the corner path needs two of them
    counts = tuple(draw(st.lists(st.just(2) | st.integers(1, 4),
                                 min_size=1, max_size=4)))
    num_states = draw(st.integers(1, 3))
    agents = tuple(
        AgentPolicy(np.array(draw(st.lists(_ENTRIES, min_size=num_states * k,
                                           max_size=num_states * k)),
                             dtype=float).reshape(num_states, k))
        for k in counts)
    num_joint = int(np.prod(counts))
    m = Mmdp(num_states, len(counts), counts,
             np.zeros((num_states, num_joint)),
             np.zeros((num_states, num_joint, num_states)), 0.9,
             np.full(num_states, 1.0 / num_states))
    radius = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    uncertain = draw(st.none() | st.frozensets(st.integers(0, len(counts) - 1)))
    return m, UncertaintySet(JointPolicy(agents), radius,
                             uncertain_agents=uncertain)


@settings(max_examples=60, deadline=None)
@given(product_cases())
def test_product_tables_match_the_loops(case):
    m, uset = case
    every = list(range(m.num_agents))
    whole = complement_product_loop(m, uset, every, every)
    _same_bytes(product_table(m.num_states,
                              [ap.probs for ap in uset.center.agents]), whole)
    _same_bytes(uset.center.joint_table(m), whole)
    for mask in range(1 << m.num_agents):
        others = [j for j in every if not mask >> j & 1]
        uncertain = [j for j in others if uset.agent_radius(j) > 0]
        if not uncertain:
            continue  # a certain complement builds no problem
        certain = [j for j in others if j not in uncertain]
        for mode in ("min", "max"):
            for exact in (None, False, True):
                try:
                    problem = _CoalitionProblem(m, uset, mask, mode, exact)
                except ValueError:
                    assert exact is True
                    continue
                assert problem.choose.__name__ == f"_{problem.path}_{mode}"
                _same_bytes(problem.center_table,
                            complement_product_loop(m, uset, others, others))
                if problem.path == "ball":
                    _same_bytes(problem.certain_table,
                                complement_product_loop(m, uset, others, certain))
                    _, cols = complement_columns(m, others)
                    np.testing.assert_array_equal(problem.ball_col,
                                                  cols[uncertain[0]])
                elif problem.path == "corner":
                    # each vertex's ends multiplied into the certain agents'
                    # product one uncertain agent at a time, bit b for the
                    # b-th uncertain agent
                    base = complement_product_loop(m, uset, others, certain)
                    factors = corner_factors_loop(m, uset, others, uncertain)
                    assert problem.corner_tables.shape[1] == 1 << len(uncertain)
                    for vertex in range(1 << len(uncertain)):
                        expected = base.copy()
                        for b, ends in enumerate(factors):
                            expected *= ends[:, vertex >> b & 1]
                        _same_bytes(problem.corner_tables[:, vertex], expected)
                elif problem.path == "box":
                    lower, upper = relaxed_box_loop(m, uset, others)
                    _same_bytes(problem.box_lower, lower)
                    _same_bytes(problem.box_upper, upper)


# (action counts, coalition mask): (A_C, A_D) = (2, 4), (4, 4) and (8, 2);
# ball agents with 1 and 4 actions; and a ball agent beside 16 certain
# joint actions, past the 8 terms where numpy's sum stops adding in order
_CHOOSER_SHAPES = [((2, 2, 2), 0b1), ((2, 2, 2, 2), 0b11),
                   ((2, 2, 2, 2), 0b111), ((2, 1, 3), 0b1), ((2, 4, 4), 0b1),
                   ((2, 2, 4, 4), 0b1)]


@st.composite
def chooser_cases(draw):
    """A max problem on one path, and a stack of states with backups on a
    0.1 grid, so that ties are common, signed zeros included."""
    counts, mask = draw(st.sampled_from(_CHOOSER_SHAPES))
    others = [j for j in range(len(counts)) if not mask >> j & 1]
    paths = ["ball", "box"]
    if len(others) > 1 and all(counts[j] == 2 for j in others):
        paths.append("corner")
    path = draw(st.sampled_from(paths))
    uncertain = others[:1] if path == "ball" else others
    rng = np.random.default_rng(
        draw(st.randoms(use_true_random=True)).getrandbits(64))
    num_states = draw(st.integers(1, 3))
    # small integer weights: ties and zero probabilities of either sign
    agents = []
    for k in counts:
        w = rng.integers(0, 8, size=(num_states, k)) + 0.0
        w[w.sum(axis=1) == 0] = 1.0
        w[(w == 0) & (rng.random(w.shape) < 0.5)] = -0.0
        agents.append(AgentPolicy(w / w.sum(axis=1, keepdims=True)))
    num_joint = int(np.prod(counts))
    m = Mmdp(num_states, len(counts), counts, np.zeros((num_states, num_joint)),
             np.zeros((num_states, num_joint, num_states)), 0.9,
             np.full(num_states, 1.0 / num_states))
    uset = UncertaintySet(JointPolicy(tuple(agents)),
                          draw(st.sampled_from([0.05, 0.3, 1.0])),
                          uncertain_agents=frozenset(uncertain))
    problem = _CoalitionProblem(m, uset, mask, "max",
                                False if path == "box" else None)
    assert problem.path == path
    size = draw(st.integers(1, 4))
    states = rng.integers(0, num_states, size=size)
    num_rows = draw(st.integers(1, 4) | st.just(problem.reward.shape[1]))
    shape = (size, num_rows, problem.center_table.shape[1])
    b = np.round(rng.uniform(-1.0, 1.0, size=shape), 1)
    b[rng.random(shape) < 0.2] = -0.0
    return m, others, uncertain, problem, b, states


@settings(max_examples=300, deadline=None)
@given(chooser_cases())
def test_array_choosers_match_the_loops(case):
    """Each max chooser on a stack of states returns, byte for byte, the
    values and q of the per-state, per-row loops it replaced."""
    m, others, uncertain, problem, b, states = case
    values, q = problem.choose(b, states)
    assert values.shape == states.shape
    assert q.shape == (states.size, b.shape[2])
    for i, s in enumerate(states):
        if problem.path == "ball":
            _, cols = complement_columns(m, others)
            col = cols[uncertain[0]]
            k = m.action_counts[uncertain[0]]
            _same_bytes(problem._fold(b, states)[i],
                        fold_loop(b[i], problem.certain_table[s], col, k))
            expected = ball_max_loop(b[i], problem.ball_rows[s],
                                     problem.ball_eps,
                                     problem.certain_table[s], col)
        elif problem.path == "corner":
            expected = corner_max_loop(b[i], problem.corner_tables[s])
        else:
            expected = box_max_loop(b[i], problem.box_lower[s],
                                    problem.box_upper[s])
        assert values[i].tobytes() == np.float64(expected[0]).tobytes()
        _same_bytes(q[i], expected[1])


def test_certain_complements_build_no_problem(monkeypatch):
    """A coalition with no uncertain agent outside it reads its value off
    the center's coalition sweep, bit for bit in both modes, and the empty
    coalition's max policy is the center's joint table, without building a
    _CoalitionProblem. best_response, solved apart, agrees to 1e-12: the
    empty coalition's row is a direct policy evaluation, its best response
    a one-action policy iteration, and the two differ in the last bits."""
    rng = np.random.default_rng(41)
    m = random_mmdp(rng, num_states=3, action_counts=(2, 3, 2), gamma=0.8)
    center = random_factorized(rng, m)
    rows = planning.coalition_values(m, center)

    def refuse(*args):
        raise AssertionError("a certain complement built a problem")

    monkeypatch.setattr(uncertainty, "_CoalitionProblem", refuse)
    cases = [(UncertaintySet(center, 0.0), range(8)),
             (UncertaintySet(center, 0.2, uncertain_agents=frozenset()), range(8)),
             # the masks that hold agent 1, the only uncertain agent
             (UncertaintySet(center, 0.2, uncertain_agents=frozenset({1})),
              (2, 3, 6, 7))]
    for uset, masks in cases:
        bounds = RobustBounds(m, uset)
        for mask in masks:
            coalition = mask_agents(mask, m.num_agents)
            expected = float(m.initial_dist @ rows[mask])
            assert bounds.min_value(coalition).hex() == expected.hex()
            assert bounds.max_value(coalition).hex() == expected.hex()
            oracle = best_response(m, center, coalition).value
            assert expected == pytest.approx(oracle, rel=1e-12, abs=0.0)
        if 0 in masks:
            _same_bytes(bounds.max_policy(), center.joint_table(m))


@st.composite
def state_graphs(draw):
    """Transition supports over up to 7 states: random digraphs, or DAGs
    under a random ranking (self-loops kept), with sub-tolerance entries
    and random terminal sets."""
    num_states = draw(st.integers(1, 7))
    size = num_states * 2 * num_states
    entries = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-16, 0.3, 1.0]),
                            min_size=size, max_size=size))
    transition = np.array(entries).reshape(num_states, 2, num_states)
    if draw(st.booleans()):
        rank = np.array(draw(st.permutations(range(num_states))))
        downhill = rank[None, :] <= rank[:, None]
        transition = transition * downhill[:, None, :]
    terminal = draw(st.frozensets(st.integers(0, num_states - 1)))
    return Mmdp(num_states, 1, (2,), np.zeros((num_states, 2)), transition,
                0.9, np.full(num_states, 1.0 / num_states), terminal)


@settings(max_examples=200, deadline=None)
@given(state_graphs())
def test_peeled_order_matches_kahn(m):
    levels = _topological_levels(m)
    assert (levels is None) == (kahn_order(m, _EDGE_TOL) is None)
    if levels is None:
        return
    order = np.concatenate(levels)
    assert sorted(order.tolist()) == list(range(m.num_states))
    level = np.empty(m.num_states, dtype=np.int64)
    for depth, states in enumerate(levels):
        level[states] = depth
    reach = m.transition.max(axis=1) > _EDGE_TOL
    for s, t in zip(*np.nonzero(reach)):
        if s != t:
            assert level[t] < level[s]


def test_monotone_closure():
    dented = np.array([0.0, 0.5, 0.3, 0.2])
    closed = _monotone_closure(dented, 2)
    np.testing.assert_allclose(closed, [0.0, 0.5, 0.3, 0.5], atol=0)
    already = np.array([0.0, 0.2, 0.3, 0.9])
    np.testing.assert_array_equal(_monotone_closure(already, 2), already)
    offset = np.array([0.7, 0.5, 0.8, 0.9])
    assert _monotone_closure(offset, 2)[0] == 0.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.0])
                         | st.floats(-2.0, 2.0),
                         min_size=1 << n, max_size=1 << n))))
def test_monotone_closure_matches_the_lattice_loop(case):
    """Byte for byte: equal floors that differ in the sign of zero must
    resolve to the first one, as the loop's `max` does."""
    n, values = case
    values = np.array(values)
    assert (_monotone_closure(values, n).tobytes()
            == monotone_closure_loop(values, n).tobytes())


def one_step_setup(n, seed, eps):
    f = random_monotone_game(n, seed=seed)
    model, behavior = mmdp_from_game(f)
    uset = sample_center(behavior, eps, seed=seed + 1)
    return f, model, behavior, uset


def test_variants_reduce_to_certain_methods_at_zero_radius():
    f, model, behavior, uset = one_step_setup(2, seed=50, eps=0.0)
    np.testing.assert_allclose(sv_valid(model, uset).blames,
                               shapley(f).blames, atol=1e-9)
    np.testing.assert_allclose(sv_blackstone(model, uset).blames,
                               shapley(f).blames, atol=1e-9)
    np.testing.assert_allclose(bi_blackstone(model, uset).blames,
                               banzhaf(f).blames, atol=1e-9)
    np.testing.assert_allclose(mc_blackstone(model, uset).blames,
                               marginal_contribution(f).blames, atol=1e-9)
    assert mer_blackstone(model, uset).total == pytest.approx(
        mer(f).total, abs=1e-9)
    if all(pivotality(f).flags):
        np.testing.assert_allclose(ap_blackstone(model, uset).blames,
                                   average_participation(f).blames, atol=1e-9)


def test_blackstone_variants_never_exceed_certain_counterparts():
    """The whole point of the pessimistic variants, checked on realized
    random games across both exact and relaxed bound modes."""
    for seed in range(6):
        n = 2 + seed % 2
        eps = (0.05, 0.1)[seed % 2]
        f, model, behavior, uset = one_step_setup(n, seed=60 + seed, eps=eps)
        for exact in (None, False):
            assert (sv_blackstone(model, uset, exact).blames
                    <= shapley(f).blames + 1e-9).all()
            assert (bi_blackstone(model, uset, exact).blames
                    <= banzhaf(f).blames + 1e-9).all()
            assert (mc_blackstone(model, uset, exact).blames
                    <= marginal_contribution(f).blames + 1e-9).all()
            assert (ap_blackstone(model, uset, exact).blames
                    <= average_participation(f).blames + 1e-9).all()
            assert (mer_blackstone(model, uset, exact=exact).total
                    <= mer(f).total + 1e-9)


def test_sv_valid_total_never_exceeds_true_inefficiency():
    for seed in range(6):
        n = 2 + seed % 2
        f, model, behavior, uset = one_step_setup(n, seed=70 + seed, eps=0.1)
        for exact in (None, False):
            got = sv_valid(model, uset, exact)
            assert got.total <= f.total + 1e-9
            assert got.method == "SV_V"


def test_variant_labels():
    f, model, behavior, uset = one_step_setup(2, seed=80, eps=0.05)
    assert sv_blackstone(model, uset).method == "SV_BC"
    assert bi_blackstone(model, uset).method == "BI_BC"
    assert mc_blackstone(model, uset).method == "MC_BC"
    assert mer_blackstone(model, uset).method == "MER_BC"
    assert ap_blackstone(model, uset).method == "AP_BC"


def test_mer_blackstone_tiebreak_is_forwarded():
    f, model, behavior, uset = one_step_setup(2, seed=81, eps=0.0)
    a = mer_blackstone(model, uset, tiebreak=0)
    b = mer_blackstone(model, uset, tiebreak=1)
    assert a.total == pytest.approx(b.total, abs=1e-8)
    assert a.blames[0] >= b.blames[0] - 1e-9


def test_ap_blackstone_matches_a_per_mask_loop():
    """The shared participation kernel adds the same terms in the same
    order as a loop over the pessimistic game, so the blames are equal."""
    f, model, behavior, uset = one_step_setup(3, seed=61, eps=0.1)
    n = model.num_agents
    got = ap_blackstone(model, uset).blames
    pivotal = sv_blackstone(model, uset).blames > PIVOTAL_TOL
    gaps = uncertainty._pessimistic_game(robust_bounds(model, uset)).values
    w = 1.0 / ((1 << n) - 1)
    expected = np.zeros(n)
    for i in range(n):
        for mask in range(1 << n):
            if pivotal[i] and not mask >> i & 1:
                size = bin(mask).count("1")
                expected[i] += w * gaps[mask | 1 << i] / (size + 1)
    assert got.any()
    assert np.array_equal(got, expected)


def test_robust_bounds_rejects_bad_inputs():
    m = bandit_model(np.zeros(4), (2, 2))
    center = bandit_center([(0.5, 0.5), (0.5, 0.5)])
    with pytest.raises(ValueError, match="invalid uncertainty set"):
        robust_bounds(m, UncertaintySet(center, -1.0))
    short = JointPolicy((center.agents[0],))
    with pytest.raises(ValueError, match="does not match"):
        robust_bounds(m, UncertaintySet(short, 0.1))
    extra_state = JointPolicy(tuple(AgentPolicy.uniform(3, 2) for _ in range(2)))
    with pytest.raises(ValueError, match=r"invalid uncertainty set: agent 0: "
                                         r"policy shape \(3, 2\) vs model"):
        robust_bounds(m, UncertaintySet(extra_state, 0.1))


@pytest.mark.parametrize("agents, problem", [
    ({7}, "agent index 7 out of range"),
    ({-1}, "agent index -1 out of range"),
    ({0, 4}, "agent index 4 out of range"),
    ({True}, "agent index True is not an integer"),
    ({1.0}, "agent index 1.0 is not an integer"),
    (5, "'int' object is not iterable")],
    ids=["agents0", "agents1", "agents2", "bool", "float", "not-a-set"])
def test_uncertain_agents_the_center_lacks_are_reported(agents, problem):
    """An index outside the center's agents would leave every agent certain
    and collapse the robust bounds to the point value; True and 1.0 passed
    as agent 1, and a lone 5 raised TypeError. `coalition_mask` is the rule."""
    m, center = build_graph(GraphSpec("robustness"))
    uset = UncertaintySet(center, 0.1, uncertain_agents=agents)
    assert uset.validate() == [f"uncertain agents: {problem}"]
    message = f"invalid uncertainty set: uncertain agents: {problem}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        robust_bounds(m, uset, False)


@pytest.mark.parametrize("coalition, stray", [((5,), 5), ([2], 2),
                                              ((0, 3, 7), 7), ((-1,), -1),
                                              ((-1, 0, 5), 5)])
def test_bounds_refuse_agents_the_model_lacks(coalition, stray):
    """A stray index is refused, not dropped: (5,) would otherwise get the
    empty coalition's bound."""
    m, b = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    uset = sample_center(b, 0.05, 0, frozenset({0}))
    bounds = RobustBounds(m, uset)
    for bound in (bounds.min_value, bounds.max_value,
                  lambda c: robust_bounds(m, uset).min_value(c),
                  lambda c: robust_bounds(m, uset).max_value(c)):
        with pytest.raises(ValueError,
                           match=f"agent index {stray} out of range"):
            bound(coalition)


def test_robust_bounds_checks_a_set_whose_key_is_cached(monkeypatch):
    """The cache key leaves out the declared truth and the policy shapes, so
    a set is checked before the lookup, whatever was solved before."""
    monkeypatch.setattr(uncertainty, "_BOUNDS_CACHE", {})
    m = bandit_model(np.zeros(4), (2, 2))
    center = bandit_center([(0.5, 0.5), (0.5, 0.5)])
    good = UncertaintySet(center, 0.1)
    robust_bounds(m, good, False)
    far = bandit_center([(1.0, 0.0), (0.5, 0.5)])
    with pytest.raises(ValueError, match="invalid uncertainty set: "
                                         "declared truth lies outside the set"):
        robust_bounds(m, UncertaintySet(center, 0.1, truth=far), False)
    # the same bytes in rows of another width: a key hit before the check
    wide = JointPolicy(tuple(AgentPolicy(ap.probs.reshape(1, 4) / 2)
                             for ap in center.agents))
    with pytest.raises(ValueError, match="invalid uncertainty set"):
        robust_bounds(m, UncertaintySet(wide, 0.1), False)


def test_robust_bounds_checks_a_set_once_per_call(monkeypatch):
    """`robust_bounds` is the one place a set is checked: once per call, on
    a cache miss as on a hit; building the bounds checks nothing again."""
    monkeypatch.setattr(uncertainty, "_BOUNDS_CACHE", {})
    calls = []
    check = uncertainty._check_set
    monkeypatch.setattr(uncertainty, "_check_set",
                        lambda *args: calls.append(args) or check(*args))
    m = bandit_model(np.zeros(4), (2, 2))
    uset = UncertaintySet(bandit_center([(0.5, 0.5), (0.5, 0.5)]), 0.1)
    first = robust_bounds(m, uset, False)
    assert len(calls) == 1
    assert robust_bounds(m, uset, False) is first
    assert len(calls) == 2


def test_robust_bounds_reads_a_numpy_bool_exact_as_the_python_bool(monkeypatch):
    """np.False_ forces the relaxed box as False does, under the same key,
    and np.True_ is True; any other value is refused, not read as None."""
    monkeypatch.setattr(uncertainty, "_BOUNDS_CACHE", {})
    m, b = build_graph(GraphSpec("robustness"))
    uset = sample_center(b, 0.05, 0)
    relaxed = robust_bounds(m, uset, np.False_)
    assert relaxed.exact is False and robust_bounds(m, uset, False) is relaxed
    assert relaxed.max_value((0,)) == RobustBounds(m, uset, False).max_value((0,))
    assert robust_bounds(m, uset, np.True_).exact is True
    for exact in (0, 1, "no", np.int64(0), 0.0):
        with pytest.raises(ValueError, match=r"exact is .*, not None, True or False"):
            robust_bounds(m, uset, exact)


def test_the_max_policy_is_handed_out_read_only(monkeypatch):
    """The memoized table that sv_valid grades against refuses a write, so
    no caller can move a later sv_valid on the same set."""
    monkeypatch.setattr(uncertainty, "_BOUNDS_CACHE", {})
    model, uset = robustness_gridworld()
    want = sv_valid(model, uset).blames
    table = robust_bounds(model, uset).max_policy()
    with pytest.raises(ValueError, match="read-only"):
        table[:, 0] = 1.0
    assert sv_valid(model, uset).blames.tobytes() == want.tobytes()


def test_no_memo_keeps_more_than_its_newest_entries(monkeypatch):
    """100 distinct games and uncertainty sets leave no memo table above
    MEMO_ENTRIES, and no game older than those kept alive by one. The
    coalition values memo takes both the games' behaviors and the centers."""
    tables = [{}, {}, {}]
    for module, name, table in zip((planning, uncertainty, attribution),
                                   ("_GAME_CACHE", "_BOUNDS_CACHE", "_HELD"), tables):
        monkeypatch.setattr(module, name, table)
    values = {}
    monkeypatch.setattr(planning, "_VALUES_CACHE", values)
    m = bandit_model(np.zeros(4), (2, 2))
    refs = []
    for k in range(100):
        game = characteristic_game(*mmdp_from_game(random_monotone_game(3, k)))
        shapley(game)
        refs.append(weakref.ref(game))
        center = bandit_center([(0.5, 0.5), (0.5 + k / 400, 0.5 - k / 400)])
        robust_bounds(m, UncertaintySet(center, 0.1), False)
        assert [len(table) for table in tables] == [min(k + 1, MEMO_ENTRIES)] * 3
        assert len(values) == MEMO_ENTRIES
    del game
    gc.collect()
    assert [ref() is not None for ref in refs] == [False] * 98 + [True] * 2


def test_a_robust_run_builds_one_bounds_per_task_for_its_seven_lookups(monkeypatch):
    """All seven lookups of one (eps, seed) task ask for the same set, so
    the two-entry memo builds one RobustBounds per task."""
    monkeypatch.setattr(uncertainty, "_BOUNDS_CACHE", {})
    built = []

    class Counted(RobustBounds):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(uncertainty, "RobustBounds", Counted)
    lookups = []
    look_up = uncertainty.robust_bounds
    monkeypatch.setattr(uncertainty, "robust_bounds",
                        lambda *args: lookups.append(args) or look_up(*args))
    rows = cli.run_robustness("gridworld", 2)
    assert len({(row["eps_max"], row["seed"]) for row in rows}) == 10
    assert (len(built), len(lookups)) == (10, 70)


@pytest.mark.parametrize("env, sweeps", [("gridworld", 21), ("graph", 13)])
def test_a_robust_run_reads_its_best_responses_off_the_center_sweep(monkeypatch, env,
                                                                     sweeps):
    """Certain complements and the cyclic recursion's start read the
    center's coalition values, so the robust layer solves no best response
    of its own. The sweeps stay one for the true behavior and two per task
    (the center's game and sv_valid's most favorable behavior), and the
    linear solves stay at most 400 (the gridworld made 914 when each certain
    complement and each cyclic start solved a best response)."""
    def refuse(*args):
        raise AssertionError("the robust layer solved a best response")

    cli._robustness_setup(env)  # the gridworld's plans are solved once per process
    for module, name in ((planning, "_GAME_CACHE"), (planning, "_VALUES_CACHE"),
                         (uncertainty, "_BOUNDS_CACHE")):
        monkeypatch.setattr(module, name, {})
    monkeypatch.setattr(uncertainty, "best_response", refuse)
    with mock.patch.object(planning, "_coalition_chunks",
                           wraps=planning._coalition_chunks) as swept, \
            mock.patch.object(planning, "_solve_linear",
                              wraps=planning._solve_linear) as stepped, \
            mock.patch.object(mmdp, "_solve_linear", wraps=mmdp._solve_linear) as evaluated:
        rows = cli.run_robustness(env, 2)
    assert len(rows) == 2 * 7 * len(cli._robustness_setup(env)[3])
    assert swept.call_count == sweeps
    assert stepped.call_count + evaluated.call_count <= 400


def test_robust_bounds_is_the_exported_entry_point():
    import blamekit
    assert "robust_bounds" in blamekit.__all__
    assert blamekit.robust_bounds is robust_bounds
    for gone in ("robust_min_value", "robust_max_value"):
        assert gone not in blamekit.__all__
        assert not hasattr(blamekit, gone)


def test_l1_distance():
    a = np.array([1.0, 2.0])
    b = np.array([0.5, 2.5])
    assert l1_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    from blamekit.attribution import BlameAssignment
    wrapped = BlameAssignment("SV", a)
    assert l1_distance(wrapped, b) == pytest.approx(1.0, abs=1e-12)
    assert l1_distance(wrapped, wrapped) == 0.0
    with pytest.raises(ValueError, match=r"^blame vector has shape \(3,\), expected \(2,\)$"):
        l1_distance(a, np.array([1.0, 2.0, 3.0]))
    for bad, message in (([np.nan, 2.0], "blames[0] is nan, not finite"),
                         ([1.0, -np.inf], "blames[1] is -inf, not finite")):
        for args in ((bad, b), (wrapped, bad)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                l1_distance(*args)


# Two adversary LPs on the robustness experiments' own uncertainty sets that
# the simplex once reported infeasible, though both are feasible (HiGHS
# solves them): phase 1 stopped "unbounded" after Bland's rule accepted a
# 2.4e-06 pivot. The adversary LP now starts feasible, so no phase 1 runs.

def test_gridworld_ball_lp_at_eps_005_seed_701906793():
    model, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    uset = sample_center(behavior, 0.05, 701906793, frozenset({0}))
    sv_blackstone(model, uset)


def test_graph_box_lp_at_eps_001_seed_388372268():
    model, behavior = build_graph(GraphSpec("robustness"))
    uset = sample_center(behavior, 0.01, 388372268)
    sv_blackstone(model, uset, exact=False)


@pytest.mark.parametrize("env, trap", [("gridworld", (0.05, 701906793)),
                                       ("graph", (0.01, 388372268))],
                         ids=["gridworld", "graph"])
def test_every_adversary_lp_starts_feasible(env, trap, monkeypatch):
    """Every LP the min adversary hands the simplex has bounds >= 0, so its
    slack basis is feasible and phase 1 never runs. Checked over every bound
    of the robustness experiment's sets at seed 0 and each eps level, and of
    the set above that once sent phase 1 astray."""
    model, behavior, uncertain, eps_levels, _, exact = cli._robustness_setup(env)
    lowest = []

    def recording(lp):
        lowest.append(lp.constraint_bounds.min())
        return solve(lp)

    monkeypatch.setattr(uncertainty, "solve", recording)
    for eps, seed in [(eps, 0) for eps in eps_levels] + [trap]:
        bounds = RobustBounds(model, sample_center(behavior, eps, seed, uncertain),
                              exact)
        for mask in range(1, 1 << model.num_agents):
            bounds.min_value(mask_agents(mask, model.num_agents))
    assert lowest and min(lowest) >= 0.0


# The two LPs above as the adversary step used to hand them to the simplex,
# with sum q == 1 as two opposing rows and t as t+ - t-, recorded from those
# runs: (objective, constraint matrix, bounds), then the optimum HiGHS
# reports. The adversary no longer states its LPs this way; these keep the
# simplex's phase 1 defect, which MER's tiebreak can still meet, in view.
_BALL_LP = (
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
    [[0.8860867316499788, 0.9360872021687551, 0.9367337400868917,
      0.8944186008265872, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
     [0.886087202168755, 0.886087202168755, 0.886087202168755,
      0.886087202168755, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
     [1.0, 0.0, 0.0, 0.0, -1.0, -0.0, -0.0, -0.0, 0.0, 0.0],
     [0.0, 1.0, 0.0, 0.0, -0.0, -1.0, -0.0, -0.0, 0.0, 0.0],
     [0.0, 0.0, 1.0, 0.0, -0.0, -0.0, -1.0, -0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0, -0.0, -0.0, -0.0, -1.0, 0.0, 0.0],
     [-1.0, -0.0, -0.0, -0.0, -1.0, -0.0, -0.0, -0.0, 0.0, 0.0],
     [-0.0, -1.0, -0.0, -0.0, -0.0, -1.0, -0.0, -0.0, 0.0, 0.0],
     [-0.0, -0.0, -1.0, -0.0, -0.0, -0.0, -1.0, -0.0, 0.0, 0.0],
     [-0.0, -0.0, -0.0, -1.0, -0.0, -0.0, -0.0, -1.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0],
     [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
     [-1.0, -1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
    [0.0, 0.0, 0.003069098216965299, 0.9779479616859152, 0.005711576165367702,
     0.013271363931751795, -0.003069098216965299, -0.9779479616859152,
     -0.005711576165367702, -0.013271363931751795, 0.1, 1.0, -1.0],
    -0.9328807231149606)

_BOX_LP = (
    [0.0, 0.0, -1.0, 1.0],
    [[0.7283341150660547, 0.7098409624330528, -1.0, 1.0],
     [0.7439877838160072, 2.7429165018299155, -1.0, 1.0],
     [0.7096990784161561, 2.7108697445984618, -1.0, 1.0],
     [2.7152255802504714, 0.7237119057024941, -1.0, 1.0],
     [0.7203410877125529, 2.7131900278411907, -1.0, 1.0],
     [2.7155768449367947, 0.7233545344032075, -1.0, 1.0],
     [2.732099309437059, 0.7073335528932552, -1.0, 1.0],
     [0.7084498267655872, 0.7370649540349019, -1.0, 1.0],
     [1.0, 0.0, 0.0, 0.0],
     [0.0, 1.0, 0.0, 0.0],
     [-1.0, -0.0, 0.0, 0.0],
     [-0.0, -1.0, 0.0, 0.0],
     [1.0, 1.0, 0.0, 0.0],
     [-1.0, -1.0, 0.0, 0.0]],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5192119278899094,
     0.5007880721100906, -0.4992119278899094, -0.48078807211009056, 1.0, -1.0],
    -1.7316604931399924)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 4: the simplex reports this feasible LP infeasible")
@pytest.mark.parametrize("recorded", [_BALL_LP, _BOX_LP], ids=["ball", "box"])
def test_recorded_adversary_lp_solves_to_the_highs_optimum(recorded):
    objective, matrix, bounds, optimum = recorded
    sol = solve(LinearProgram(objective, matrix, bounds))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(optimum, rel=1e-9)


# LP-level fuzz of the adversary's min step, on the min subproblems of the
# robustness experiments' own models: the gridworld's ball at (coalition
# actions C, complement actions D) = (2, 4) and the graph's relaxed boxes.
# Each LP takes a random nonterminal state's feasible set and near-tie
# payoffs: rounded to 0.1, every second one with N(0, 1e-9) noise added.
# The oracle is exact for C = 2 (`helpers.two_row_min`) and HiGHS otherwise;
# HiGHS at its default 1e-7 feasibility tolerances reads a few correct C = 2
# values as 1e-9 misses. A miss, by index, is a value off the oracle's, a q
# outside the set or a raised "came back" error; none misses, and a new miss
# is pinned here. Entries: model, mask, exact, LPs, pinned misses.
_FUZZ_CASES = {
    "ball-2x4": ("gridworld", 0b10, None, 1000, {}),
    "box-2x8": ("graph", 0b0001, False, 1000, {}),
    "box-4x4": ("graph", 0b0011, False, 100, {}),
    "box-8x2": ("graph", 0b0111, False, 100, {}),
}


def _in_adversary_set(problem, s, q, tol=1e-9):
    if problem.path == "ball":
        inside = (0.5 * np.abs(q - problem.ball_rows[s]).sum()
                  <= problem.ball_eps + tol)
    else:
        inside = ((problem.box_lower[s] - tol <= q)
                  & (q <= problem.box_upper[s] + tol)).all()
    return bool(inside and (q >= -tol).all() and abs(q.sum() - 1.0) <= tol)


def _fuzz_problem(case):
    """The min problem of a fuzz case, its (C, D) and nonterminal states."""
    env, mask, exact, _, _ = _FUZZ_CASES[case]
    if env == "gridworld":
        model, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
        uset = sample_center(behavior, 0.05, 0, frozenset({0}))
    else:
        model, behavior = build_graph(GraphSpec("robustness"))
        uset = sample_center(behavior, 0.05, 0)
    problem = _CoalitionProblem(model, uset, mask, "min", exact)
    assert problem.path == case[:case.index("-")]
    num_c = problem.reward.shape[1]
    k = (problem.ball_rows if problem.path == "ball" else problem.box_lower).shape[1]
    assert f"{num_c}x{k}" == case[case.index("-") + 1:]
    states = np.setdiff1d(np.arange(model.num_states), list(model.terminal_states))
    return problem, (num_c, k), states


@pytest.mark.parametrize("case", sorted(_FUZZ_CASES))
def test_adversary_min_matches_highs_on_near_ties(case):
    """Each value must lie within 1e-9 of the oracle's, relative to the
    larger of the value and the payoff scale (a value may be 0), and q in
    the set."""
    problem, (num_c, k), states = _fuzz_problem(case)
    *_, num_lps, pinned = _FUZZ_CASES[case]
    if num_c != 2:
        linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(0)
    misses = {}
    for i in range(num_lps):
        s = rng.choice(states)
        payoffs = np.round(rng.uniform(-1.0, 1.0, (num_c, k)), 1)
        if i % 2:
            payoffs = payoffs + rng.normal(0.0, 1e-9, payoffs.shape)
        if problem.path == "ball":
            p, eps = problem.ball_rows[s], problem.ball_eps
            want = (two_row_min(payoffs, lambda row: -ball_row_max_loop(-row, p, eps)[0])
                    if num_c == 2 else highs_ball_min(linprog, payoffs, p, eps)[0])
        else:
            lo, hi = problem.box_lower[s], problem.box_upper[s]
            want = (two_row_min(payoffs, lambda row: -box_max_loop(-row[None], lo, hi)[0])
                    if num_c == 2 else highs_box_min(linprog, payoffs, lo, hi)[0])
        try:
            # no certain complement agent here, so the ball's fold is the
            # identity and the chooser hands payoffs to the LP as they are
            value, q = problem.choose(payoffs[None], np.array([s]))
        except RuntimeError:
            misses[i] = "raised"
            continue
        if abs(value[0] - want) > 1e-9 * max(abs(want), np.abs(payoffs).max()):
            misses[i] = "wrong"
        elif not _in_adversary_set(problem, s, q[0]):
            misses[i] = "outside"
    assert misses == pinned


@pytest.mark.parametrize("case", sorted(_FUZZ_CASES))
def test_a_flat_payoff_table_still_gets_a_member_of_the_set(case):
    """Equal payoffs leave the LP at its start, z = 0 and s* = 0, so its q is
    the set's base, whose mass falls short of 1 in a box; the poured q of
    every nonterminal state, stacked, must be a member all the same."""
    problem, (num_c, k), states = _fuzz_problem(case)
    values, q = problem.choose(np.full((len(states), num_c, k), 0.3), states)
    assert (values == 0.3).all()
    assert all(_in_adversary_set(problem, s, row) for s, row in zip(states, q))


def robustness_gridworld(scale=1.0):
    """The robustness experiment's gridworld, rewards times `scale`, and its
    set at eps 0.05, seed 0: a cyclic model, so bounds take the sweep."""
    model, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
    uset = sample_center(behavior, 0.05, 0, frozenset({0}))
    return dataclasses.replace(model, reward=model.reward * scale), uset


@pytest.mark.parametrize("scale", [1e-3, 1e2, 1e4, 1e6, 1e9])
def test_the_sweep_settles_at_every_reward_scale(scale):
    """The sweep stops on a residual relative to the values, so rewards
    times c give c times each bound."""
    model, uset = robustness_gridworld()
    unscaled = robust_bounds(model, uset)
    scaled = RobustBounds(robustness_gridworld(scale)[0], uset)
    for coalition in [(), (1,)]:
        assert scaled.min_value(coalition) == pytest.approx(
            scale * unscaled.min_value(coalition), rel=1e-9)
        assert scaled.max_value(coalition) == pytest.approx(
            scale * unscaled.max_value(coalition), rel=1e-9)


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6, 1e9])
def test_the_relaxed_box_scales_with_the_rewards(scale):
    """The robustness experiment's graph at eps 0.05, seed 0, under the
    relaxed box: rewards times c give c times every bound."""
    model, behavior = build_graph(GraphSpec("robustness"))
    uset = sample_center(behavior, 0.05, 0)
    unscaled = robust_bounds(model, uset, False)
    scaled = RobustBounds(dataclasses.replace(model, reward=model.reward * scale),
                          uset, False)
    for mask in range(1 << model.num_agents):
        for mode in ("min", "max"):
            assert scaled._bound(mask, mode) == pytest.approx(
                scale * unscaled._bound(mask, mode), rel=1e-9), (mask, mode)


def test_the_sweep_cap_raises_instead_of_returning_unsettled_values(monkeypatch):
    """The gridworld's upper bound settles on the third sweep; a cap below
    that raises, and a cap at it returns the same bound."""
    model, uset = robustness_gridworld()
    want = RobustBounds(model, uset).max_value(())
    for cap in (1, 2):
        monkeypatch.setattr(uncertainty, "MAX_SWEEPS", cap)
        with pytest.raises(RuntimeError,
                           match=f"did not converge within {cap} sweeps"):
            RobustBounds(model, uset).max_value(())
    monkeypatch.setattr(uncertainty, "MAX_SWEEPS", 3)
    assert RobustBounds(model, uset).max_value(()) == want


def test_mc_blackstone_solves_only_the_bounds_it_reads(monkeypatch):
    """MC reads the worst-case gap of the singletons only: a fresh set
    builds n min problems and the empty coalition's max one, not 2^n - 1."""
    monkeypatch.setattr(uncertainty, "_BOUNDS_CACHE", {})
    built = []

    class Recording(_CoalitionProblem):
        def __init__(self, m, uset, mask, mode, exact):
            built.append((mask, mode))
            super().__init__(m, uset, mask, mode, exact)

    monkeypatch.setattr(uncertainty, "_CoalitionProblem", Recording)
    f, model, behavior, uset = one_step_setup(3, seed=62, eps=0.1)
    mc_blackstone(model, uset)
    assert sorted(built) == [(0, "max"), (1, "min"), (2, "min"), (4, "min")]


# Soundness and replay properties of the robust bounds on small random
# models. A case that fails is pinned with a strict xfail naming ROADMAP 4
# (the simplex) or 5 (solve_mdp's absolute improvement margin); none fails.
_ROBUST_CASES = 12


@lru_cache(maxsize=None)
def robust_case(index):
    """Model `index` and its set: 1-3 agents of 2-3 actions each; acyclic
    (forward transitions into an absorbing state) for even index // 2, else
    cyclic (dense); rewards on a 0.1 grid, so that ties are common, times 1
    for even index, else 1e6; a radius of 0.05 or 0.2 on every agent or on a
    random subset."""
    rng = np.random.default_rng(index)
    counts = tuple(int(k) for k in rng.integers(2, 4, size=rng.integers(1, 4)))
    if index // 2 % 2:
        model = random_mmdp(rng, int(rng.integers(2, 4)), counts)
    else:
        model = random_acyclic_mmdp(rng, 3, counts)
    model = dataclasses.replace(
        model, reward=np.round(model.reward, 1) * (1e6 if index % 2 else 1.0))
    uncertain = (None if rng.random() < 0.5 else frozenset(
        np.flatnonzero(rng.random(len(counts)) < 0.6).tolist()))
    uset = sample_center(random_factorized(rng, model),
                         float(rng.choice([0.05, 0.2])), index, uncertain)
    # the largest |value| the model can reach: the slack's unit
    scale = np.abs(model.reward).max() / (1.0 - model.discount)
    return model, uset, scale


@pytest.mark.parametrize("index", range(_ROBUST_CASES))
def test_robust_bounds_bracket_the_truth_and_members(index):
    """For every coalition and exact in (None, False, True): the robust min
    <= the best-response value against the truth and against members drawn
    inside the set <= the robust max, with 1e-9 relative slack."""
    model, uset, scale = robust_case(index)
    members = [uset.truth] + [sample_center(
        uset.center, uset.radius, 100 + draw, uset.uncertain_agents).center
        for draw in range(3)]
    slack = 1e-9 * scale
    for exact in (None, False, True):
        bounds = robust_bounds(model, uset, exact)
        for mask in range(1 << model.num_agents):
            coalition = mask_agents(mask, model.num_agents)
            values = [best_response(model, member, coalition).value
                      for member in members]
            for mode in ("min", "max"):
                try:
                    value = bounds._bound(mask, mode)
                except ValueError:
                    assert exact is True
                    continue
                if mode == "min":
                    assert value <= min(values) + slack, (exact, mask)
                else:
                    assert max(values) <= value + slack, (exact, mask)


@pytest.mark.parametrize("index", range(_ROBUST_CASES))
def test_robust_bounds_match_the_state_by_state_replay(index):
    """Every bound equals `helpers.robust_replay`, the recursion one state at
    a time with HiGHS as the min adversary, to 1e-9 relative; exact cycles
    through None, False and True with the index."""
    pytest.importorskip("scipy.optimize")
    model, uset, scale = robust_case(index)
    exact = (None, False, True)[index % 3]
    bounds = robust_bounds(model, uset, exact)
    for mask in range(1 << model.num_agents):
        for mode in ("min", "max"):
            try:
                want = robust_replay(model, uset, mask, mode, exact)
            except ValueError:
                with pytest.raises(ValueError, match="no exact chooser"):
                    bounds._bound(mask, mode)
                continue
            assert abs(bounds._bound(mask, mode) - want) <= 1e-9 * scale, (
                mask, mode)
