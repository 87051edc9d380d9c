"""The two benchmark environments, both built from tables.

Gridworld: one actor on an 8x8 map, steered by agent 1 (moves) while agent 2
can intervene and replace the move with the single-agent optimal one at a
cost. Graph: four agents walk a two-level layered graph for five steps and
are rewarded for keeping a formation constraint.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
import numbers

import numpy as np

from .mmdp import AgentPolicy, JointPolicy, Mmdp
from .planning import DISCOUNT, _read_only, best_response, coalition_sizes, solve_mdp

CELL_REWARDS = {".": -0.01, "S": -0.01, "F": -0.02, "H": -0.5, "G": 1.0}
GRID_SIZE = 8
INTERVENTION_COST = -0.05
PERSONAL_MIX = 0.5  # share of the pilot's off-alpha mass on the optimal plan
# row and column offsets of the moves left, right, up and down
_MOVES = np.array([[0, 0, -1, 1], [-1, 1, 0, 0]])


@lru_cache(maxsize=1)
def default_map() -> str:
    return (resources.files("blamekit") / "data" / "gridworld_map.txt").read_text()


def parse_map(text: str) -> list[str]:
    rows = [line for line in text.splitlines() if line.strip()]
    if len(rows) != GRID_SIZE or any(len(r) != GRID_SIZE for r in rows):
        raise ValueError(f"map must be {GRID_SIZE} lines of {GRID_SIZE} cells")
    bad = {ch for row in rows for ch in row} - set(CELL_REWARDS)
    if bad:
        raise ValueError(f"unknown map cells: {sorted(bad)}")
    if not any("S" in row for row in rows):
        raise ValueError("map has no start cell")
    if not any("G" in row for row in rows):
        raise ValueError("map has no goal cell")
    return rows


@dataclass(frozen=True)
class GridworldSpec:
    alpha: float
    alpha_prime: float

    def validate(self) -> list[str]:
        problems = []
        for name in ("alpha", "alpha_prime"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                problems.append(f"{name} = {value!r} is not a real number in [0, 1]")
        return problems


def _single_actor(cells: np.ndarray, rewards) -> tuple[np.ndarray, np.ndarray]:
    """The lone actor's reward (K, S, 4), one table per cell-reward dict in
    `rewards`, and its transition (S, 4, S): a move earns its destination
    cell's reward, a move off the map stays put, and the goal absorbs every
    move at reward 0."""
    states = np.arange(cells.size)[:, None]
    # clipping the one coordinate a move changes keeps an off-map move in place
    row, col = np.clip(np.stack(np.divmod(states, GRID_SIZE)) + _MOVES[:, None],
                       0, GRID_SIZE - 1)
    goal = (cells == "G")[:, None]
    dest = np.where(goal, states, row * GRID_SIZE + col)
    cell_rewards = np.array([[table[c] for c in cells] for table in rewards])
    return np.where(goal, 0.0, cell_rewards[:, dest]), np.eye(cells.size)[dest]


@lru_cache(maxsize=4)
def _lone_actor(map_text: str, discount: float, cell_rewards: tuple):
    """Read-only cells, the lone actor's reward and transition, and its
    optimal and hazard-blind plans: the spec-independent part of a build,
    solved once per map, discount and (cell, reward) pairs."""
    rewards = dict(cell_rewards)
    cells = np.array(list("".join(parse_map(map_text))))
    blind_rewards = dict(rewards, F=rewards["."], H=rewards["."])
    (reward, blind_reward), transition = _single_actor(cells, (rewards, blind_rewards))
    _, opt = solve_mdp(reward, transition, discount)
    _, blind = solve_mdp(blind_reward, transition, discount)
    return tuple(map(_read_only, (cells, reward, transition, opt, blind)))


def build_gridworld(spec: GridworldSpec) -> tuple[Mmdp, JointPolicy]:
    """The joint model plus the behavior (agent 1 at alpha, agent 2 trained
    as a best response against agent 1 at alpha_prime). Joint action
    a1 * 2 + a2 is the lone actor's move a1 when a2 = 0; when a2 = 1 the
    single-actor optimal move executes instead, at the intervention cost."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid gridworld spec: " + "; ".join(problems))
    cells, reward, transition, opt, blind = _lone_actor(
        default_map(), DISCOUNT, tuple(CELL_REWARDS.items()))
    states = np.arange(cells.size)
    goal = cells == "G"
    joint_reward = np.repeat(reward, 2, axis=1)
    joint_reward[:, 1::2] = np.where(
        goal, 0.0, reward[states, opt] + INTERVENTION_COST)[:, None]
    joint_transition = np.repeat(transition, 2, axis=1)
    joint_transition[:, 1::2] = transition[states, opt][:, None]
    start = cells == "S"
    model = Mmdp(cells.size, 2, (4, 2), joint_reward, joint_transition,
                 DISCOUNT, start / start.sum(),
                 frozenset(np.flatnonzero(goal).tolist()))

    def pilot_policy(alpha: float) -> AgentPolicy:
        table = np.zeros((cells.size, 4))
        opt_weight = alpha + (1.0 - alpha) * PERSONAL_MIX
        table[states, opt] += opt_weight
        table[states, blind] += 1.0 - opt_weight
        return AgentPolicy(table)

    trainee = JointPolicy((pilot_policy(spec.alpha_prime),
                           AgentPolicy.uniform(cells.size, 2)))
    overseer = best_response(model, trainee, (1,)).policy[1]
    behavior = JointPolicy((pilot_policy(spec.alpha), overseer))
    return model, behavior


GRAPH_WEIGHTS = (1, 2, 3, 4)
GRAPH_THRESHOLDS = (1, 7, 9, 10)
GRAPH_COLUMNS = 4
GRAPH_AGENTS = 4


@dataclass(frozen=True)
class GraphSpec:
    variant: str = "coordination"
    threshold_index: int = 1

    def validate(self) -> list[str]:
        problems = []
        if self.variant not in ("coordination", "robustness"):
            problems.append(f"unknown variant {self.variant!r}")
        if not np.issubdtype(type(self.threshold_index), np.integer):
            problems.append(f"threshold index {self.threshold_index!r} is not an integer")
        elif self.variant == "coordination" and not 1 <= self.threshold_index <= 4:
            problems.append(f"threshold index {self.threshold_index} outside 1..4")
        return problems


def build_graph(spec: GraphSpec) -> tuple[Mmdp, JointPolicy]:
    """Layered two-level graph: a state is the column plus every agent's
    current level, levels being the previous joint action. Actions at the
    first four steps score +1/-1 against the formation constraint; the step
    off the last column scores 0. State 0 is the start, 1 + 16 (column - 1)
    + levels holds columns 1..4 (agent i's level on bit i) and 65 the end.
    The robustness behavior is uniform at the start, the last column and
    the end; elsewhere agent i, with probability 1 - 0.2 i, keeps its level
    when the levels are balanced and heads for the emptier one otherwise."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid graph spec: " + "; ".join(problems))
    num_states = 2 + GRAPH_COLUMNS * 16
    end = num_states - 1
    # each joint action's digits (agent 0 the most significant) and levels
    digits = np.array(np.unravel_index(np.arange(1 << GRAPH_AGENTS),
                                       (2,) * GRAPH_AGENTS))
    levels = (1 << np.arange(GRAPH_AGENTS)) @ digits
    if spec.variant == "robustness":
        met = digits.sum(axis=0) == 2
    else:
        met = (np.array(GRAPH_WEIGHTS) @ digits
               >= GRAPH_THRESHOLDS[spec.threshold_index - 1])
    column = (np.arange(num_states)[:, None] + 15) // 16
    scoring = column < GRAPH_COLUMNS
    reward = np.where(scoring, np.where(met, 1.0, -1.0), 0.0)
    transition = np.eye(num_states)[np.where(scoring, 1 + column * 16 + levels, end)]
    model = Mmdp(num_states, GRAPH_AGENTS, (2,) * GRAPH_AGENTS, reward,
                 transition, DISCOUNT, np.eye(num_states)[0],
                 frozenset({end}))
    if spec.variant == "coordination":
        return model, JointPolicy(tuple(
            AgentPolicy.deterministic(num_states, 2, 0)
            for _ in range(GRAPH_AGENTS)))
    ones = coalition_sizes(GRAPH_AGENTS)  # per level pattern
    sticky = (column >= 1) & (column < GRAPH_COLUMNS)
    pattern = (np.arange(num_states) - 1) % 16
    agents = []
    for i in range(GRAPH_AGENTS):
        p_keep = 1.0 - i * 0.2
        favored = np.where(ones == 2, np.arange(16) >> i & 1, ones < 2)
        rows = np.where(favored[:, None] == (0, 1), p_keep, 1.0 - p_keep)
        agents.append(AgentPolicy(np.where(sticky, rows[pattern], 0.5)))
    return model, JointPolicy(tuple(agents))
