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
# moves: left, right, up, down
_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))


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


def _destination(cell: int, move: int) -> int:
    row, col = divmod(cell, GRID_SIZE)
    dr, dc = _MOVES[move]
    nr, nc = row + dr, col + dc
    if 0 <= nr < GRID_SIZE and 0 <= nc < GRID_SIZE:
        return nr * GRID_SIZE + nc
    return cell


def _single_agent_plan(rows: list[str], rewards: dict[str, float],
                       discount: float) -> np.ndarray:
    """Optimal per-cell move of the lone actor under the given cell costs."""
    num = GRID_SIZE * GRID_SIZE
    r = np.zeros((num, 4))
    p = np.zeros((num, 4, num))
    for s in range(num):
        cell = rows[s // GRID_SIZE][s % GRID_SIZE]
        for a in range(4):
            if cell == "G":
                p[s, a, s] = 1.0
                continue
            dest = _destination(s, a)
            r[s, a] = rewards[rows[dest // GRID_SIZE][dest % GRID_SIZE]]
            p[s, a, dest] = 1.0
    _, policy = solve_mdp(r, p, discount)
    return policy


def build_gridworld(spec: GridworldSpec) -> tuple[Mmdp, JointPolicy]:
    """The joint model plus the behavior (agent 1 at alpha, agent 2 trained
    as a best response against agent 1 at alpha_prime)."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid gridworld spec: " + "; ".join(problems))
    rows = parse_map(spec.map_text if spec.map_text is not None else default_map())
    num = GRID_SIZE * GRID_SIZE
    blind_rewards = dict(CELL_REWARDS, F=CELL_REWARDS["."], H=CELL_REWARDS["."])
    opt = _single_agent_plan(rows, CELL_REWARDS, spec.discount)
    blind = _single_agent_plan(rows, blind_rewards, spec.discount)

    reward = np.zeros((num, 8))
    transition = np.zeros((num, 8, num))
    terminals = frozenset(s for s in range(num)
                          if rows[s // GRID_SIZE][s % GRID_SIZE] == "G")
    for s in range(num):
        for a1 in range(4):
            for a2 in range(2):
                ja = a1 * 2 + a2
                if s in terminals:
                    transition[s, ja, s] = 1.0
                    continue
                executed = opt[s] if a2 == 1 else a1
                dest = _destination(s, int(executed))
                reward[s, ja] = CELL_REWARDS[rows[dest // GRID_SIZE][dest % GRID_SIZE]]
                if a2 == 1:
                    reward[s, ja] += spec.intervention_cost
                transition[s, ja, dest] = 1.0
    starts = [s for s in range(num) if rows[s // GRID_SIZE][s % GRID_SIZE] == "S"]
    initial = np.zeros(num)
    initial[starts] = 1.0 / len(starts)
    model = Mmdp(num, 2, (4, 2), reward, transition, spec.discount,
                 initial, terminals)

    def pilot_policy(alpha: float) -> AgentPolicy:
        table = np.zeros((num, 4))
        opt_weight = alpha + (1.0 - alpha) * spec.personal_mix
        for s in range(num):
            table[s, opt[s]] += opt_weight
            table[s, blind[s]] += 1.0 - opt_weight
        return AgentPolicy(table)

    trainee = JointPolicy((pilot_policy(spec.alpha_prime),
                           AgentPolicy.uniform(num, 2)))
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
