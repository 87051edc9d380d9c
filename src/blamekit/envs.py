"""The two benchmark environments.

Gridworld: one actor on an 8x8 map, steered by agent 1 (moves) while agent 2
can intervene and replace the move with the single-agent optimal one at a
cost. Graph: four agents walk a two-level layered graph for five steps and
are rewarded for keeping a formation constraint.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .mmdp import AgentPolicy, JointPolicy, Mmdp
from .planning import best_response, solve_mdp

CELL_REWARDS = {".": -0.01, "S": -0.01, "F": -0.02, "H": -0.5, "G": 1.0}
GRID_SIZE = 8
# row and column offsets of the moves left, right, up and down
_MOVES = np.array([[0, 0, -1, 1], [-1, 1, 0, 0]])


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
    intervention_cost: float = -0.05
    personal_mix: float = 0.5
    discount: float = 0.99
    map_text: str | None = None

    def validate(self) -> list[str]:
        problems = []
        for name in ("alpha", "alpha_prime", "personal_mix"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                problems.append(f"{name} = {value} outside [0, 1]")
        if not 0.0 <= self.discount < 1.0:
            problems.append(f"discount {self.discount} outside [0, 1)")
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


def build_gridworld(spec: GridworldSpec) -> tuple[Mmdp, JointPolicy]:
    """The joint model plus the behavior (agent 1 at alpha, agent 2 trained
    as a best response against agent 1 at alpha_prime). Joint action
    a1 * 2 + a2 is the lone actor's move a1 when a2 = 0; when a2 = 1 the
    single-actor optimal move executes instead, at the intervention cost."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid gridworld spec: " + "; ".join(problems))
    rows = parse_map(spec.map_text if spec.map_text is not None else default_map())
    cells = np.array(list("".join(rows)))
    states = np.arange(cells.size)
    goal = cells == "G"
    blind_rewards = dict(CELL_REWARDS, F=CELL_REWARDS["."], H=CELL_REWARDS["."])
    (reward, blind_reward), transition = _single_actor(
        cells, (CELL_REWARDS, blind_rewards))
    _, opt = solve_mdp(reward, transition, spec.discount)
    _, blind = solve_mdp(blind_reward, transition, spec.discount)

    joint_reward = np.repeat(reward, 2, axis=1)
    joint_reward[:, 1::2] = np.where(
        goal, 0.0, reward[states, opt] + spec.intervention_cost)[:, None]
    joint_transition = np.repeat(transition, 2, axis=1)
    joint_transition[:, 1::2] = transition[states, opt][:, None]
    start = cells == "S"
    model = Mmdp(cells.size, 2, (4, 2), joint_reward, joint_transition,
                 spec.discount, start / start.sum(),
                 frozenset(np.flatnonzero(goal).tolist()))

    def pilot_policy(alpha: float) -> AgentPolicy:
        table = np.zeros((cells.size, 4))
        opt_weight = alpha + (1.0 - alpha) * spec.personal_mix
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
    discount: float = 0.99

    def validate(self) -> list[str]:
        problems = []
        if self.variant not in ("coordination", "robustness"):
            problems.append(f"unknown variant {self.variant!r}")
        if self.variant == "coordination" and not 1 <= self.threshold_index <= 4:
            problems.append(f"threshold index {self.threshold_index} outside 1..4")
        if not 0.0 <= self.discount < 1.0:
            problems.append(f"discount {self.discount} outside [0, 1)")
        return problems


def _graph_state(column: int, bits: int) -> int:
    # 0 = start; columns 1..4 hold one state per level-bit pattern; 65 = end
    if column == 0:
        return 0
    if column == GRAPH_COLUMNS + 1:
        return 1 + GRAPH_COLUMNS * 16
    return 1 + (column - 1) * 16 + bits


def _constraint_met(spec: GraphSpec, actions: tuple[int, ...]) -> bool:
    if spec.variant == "robustness":
        return sum(actions) == 2
    weighted = sum(w * a for w, a in zip(GRAPH_WEIGHTS, actions))
    return weighted >= GRAPH_THRESHOLDS[spec.threshold_index - 1]


def build_graph(spec: GraphSpec) -> tuple[Mmdp, JointPolicy]:
    """Layered two-level graph: a state is the column plus every agent's
    current level, levels being the previous joint action. Actions at the
    first four steps score +1/-1 against the formation constraint; the step
    off the last column scores 0."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid graph spec: " + "; ".join(problems))
    num_states = 2 + GRAPH_COLUMNS * 16
    num_actions = 1 << GRAPH_AGENTS
    reward = np.zeros((num_states, num_actions))
    transition = np.zeros((num_states, num_actions, num_states))
    end = _graph_state(GRAPH_COLUMNS + 1, 0)
    for ja, actions in enumerate(np.ndindex((2,) * GRAPH_AGENTS)):
        bits = sum(a << i for i, a in enumerate(actions))
        scored = 1.0 if _constraint_met(spec, actions) else -1.0
        for column in range(GRAPH_COLUMNS + 1):
            if column == 0:
                reward[0, ja] = scored
                transition[0, ja, _graph_state(1, bits)] = 1.0
                continue
            for prev in range(16):
                s = _graph_state(column, prev)
                if column == GRAPH_COLUMNS:
                    reward[s, ja] = 0.0
                    transition[s, ja, end] = 1.0
                else:
                    reward[s, ja] = scored
                    transition[s, ja, _graph_state(column + 1, bits)] = 1.0
    transition[end, :, end] = 1.0
    initial = np.zeros(num_states)
    initial[0] = 1.0
    model = Mmdp(num_states, GRAPH_AGENTS, (2,) * GRAPH_AGENTS, reward,
                 transition, spec.discount, initial, frozenset({end}))
    if spec.variant == "coordination":
        behavior = JointPolicy(tuple(
            AgentPolicy.deterministic(num_states, 2, 0)
            for _ in range(GRAPH_AGENTS)))
    else:
        behavior = JointPolicy(tuple(
            AgentPolicy(_persistence_rows(i, num_states))
            for i in range(GRAPH_AGENTS)))
    return model, behavior


def _persistence_rows(agent: int, num_states: int) -> np.ndarray:
    """Robustness behavior: uniform at the start, the last column and the
    end; elsewhere keep the previous action when the levels are balanced,
    otherwise head for the emptier level, each with probability p_i."""
    p_keep = 1.0 - agent * 0.2
    rows = np.full((num_states, 2), 0.5)
    for column in range(1, GRAPH_COLUMNS):
        for bits in range(16):
            s = _graph_state(column, bits)
            ones = bin(bits).count("1")
            if ones == 2:
                favored = bits >> agent & 1
            elif ones < 2:
                favored = 1
            else:
                favored = 0
            rows[s, favored] = p_keep
            rows[s, 1 - favored] = 1.0 - p_keep
    return rows
