"""Finite multi-agent MDPs with factored joint actions, and exact policy evaluation.

States and per-agent actions are integer-indexed. A joint action is a single
integer in mixed-radix encoding with agent 0 as the most significant digit,
so reward and transition tables are plain 2-D / 3-D arrays.
"""
from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

ROW_TOL = 1e-12
MAX_STATES = 2000  # dense (S, A, S) transitions and S x S solves


@dataclass(frozen=True)
class Mmdp:
    """A cooperative multi-agent MDP (shared reward, factored action space).

    reward has shape (num_states, num_joint_actions); transition has shape
    (num_states, num_joint_actions, num_states). terminal_states are absorbing
    with zero reward for every joint action.
    """

    num_states: int
    num_agents: int
    action_counts: tuple[int, ...]
    reward: np.ndarray
    transition: np.ndarray
    discount: float
    initial_dist: np.ndarray
    terminal_states: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "action_counts", tuple(int(k) for k in self.action_counts))
        for name in ("reward", "transition", "initial_dist"):  # copied unless read-only and owned
            table = np.asarray(getattr(self, name), float)
            kept = table.flags.owndata and not table.flags.writeable  # no caller can write to it
            object.__setattr__(self, name, _read_only(table if kept else table.copy()))
        object.__setattr__(self, "terminal_states", frozenset(int(s) for s in self.terminal_states))

    def __reduce__(self):  # a pickle or deep copy is built anew: read-only copies, no stale key
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def num_joint_actions(self) -> int:
        return math.prod(self.action_counts)

    def content_key(self) -> bytes:
        """Stable content hash, used to memoize planning results."""
        return self._key

    @cached_property
    def _key(self) -> bytes:  # hashed once: the model's tables are read-only arrays it owns
        return content_digest(
            np.int64([self.num_states, self.num_agents]),
            np.int64(self.action_counts), np.float64(self.discount),
            self.reward, self.transition, self.initial_dist,
            np.int64(sorted(self.terminal_states)))


def _read_only(table: np.ndarray) -> np.ndarray:
    """Cached tables are shared by every caller, so none may write to one."""
    table.setflags(write=False)
    return table


def content_digest(*arrays) -> bytes:
    """sha256 of the arrays' raw bytes, in order: the one content key."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).data)  # C-order bytes, as tobytes(), uncopied
    return h.digest()


@dataclass(frozen=True)
class AgentPolicy:
    """One agent's stationary policy: probs[s, a] = pi_i(a | s)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @staticmethod
    def deterministic(num_states: int, num_actions: int, actions) -> "AgentPolicy":
        """One-hot rows; `actions` is a scalar or a per-state array."""
        rows = np.zeros((num_states, num_actions))
        rows[np.arange(num_states), np.broadcast_to(actions, (num_states,))] = 1.0
        return AgentPolicy(rows)

    @staticmethod
    def uniform(num_states: int, num_actions: int) -> "AgentPolicy":
        return AgentPolicy(np.full((num_states, num_actions), 1.0 / num_actions))

    def validate(self) -> list[str]:
        problems = _non_finite(probs=self.probs)
        if problems:
            return problems
        if (self.probs < -ROW_TOL).any():
            problems.append("negative action probability")
        bad = np.flatnonzero(np.abs(self.probs.sum(axis=1) - 1.0) > ROW_TOL)
        if bad.size:
            problems.append(f"rows not summing to 1 at states {bad.tolist()}")
        return problems


@dataclass(frozen=True)
class JointPolicy:
    """A factorized joint policy: one AgentPolicy per agent."""

    agents: tuple[AgentPolicy, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def replace(self, agent: int, policy: AgentPolicy) -> "JointPolicy":
        parts = list(self.agents)
        parts[agent] = policy
        return JointPolicy(tuple(parts))

    def joint_table(self, m: Mmdp) -> np.ndarray:
        """Dense (num_states, num_joint_actions) product table; refuses `validate(m)`'s shapes."""
        if problems := self._shape_problems(m):
            raise ValueError(problems[0])
        return product_table(m.num_states, [ap.probs for ap in self.agents])

    def validate(self, m: Mmdp | None = None) -> list[str]:
        problems = [f"agent {i}: {p}" for i, ap in enumerate(self.agents) for p in ap.validate()]
        return problems + (self._shape_problems(m) if m is not None else [])

    def _shape_problems(self, m: Mmdp) -> list[str]:
        if len(self.agents) != m.num_agents:
            return ["agent count does not match model"]
        return [f"agent {i}: policy shape {ap.probs.shape} vs model"
                for i, (ap, k) in enumerate(zip(self.agents, m.action_counts))
                if ap.probs.shape != (m.num_states, k)]


def product_table(num_states: int, rows) -> np.ndarray:
    """(num_states, prod k_i) table of products of per-agent (num_states, k_i)
    rows, first agent the most significant digit: the column of digits
    (a_0, ..., a_n-1) holds 1.0 * rows[0][:, a_0] * ... * rows[n-1][:, a_n-1],
    multiplied left to right."""
    table = np.ones((num_states, 1))
    for row in rows:
        table = (table[:, :, None] * row[:, None, :]).reshape(num_states, -1)
    return table


def as_joint_table(m: Mmdp, behavior) -> np.ndarray:
    """Coerce a JointPolicy or an explicit (S, A) table to a dense joint table.

    Explicit tables are how the uncertainty module feeds non-factorized
    behaviors into planning; everywhere else behaviors are factorized.
    """
    if isinstance(behavior, JointPolicy):
        return behavior.joint_table(m)
    table = np.asarray(behavior, dtype=float)
    if table.shape != (m.num_states, m.num_joint_actions):
        raise ValueError(f"behavior table has shape {table.shape}, "
                         f"expected {(m.num_states, m.num_joint_actions)}")
    return table


def validate_mmdp(m: Mmdp) -> list[str]:
    """Return a list of violated invariants (empty iff the model is valid)."""
    # an agent without actions leaves every per-state table empty
    problems = _agent_problems(m.num_agents, m.action_counts)
    if problems:
        return problems
    A = m.num_joint_actions
    if m.reward.shape != (m.num_states, A):
        problems.append(f"reward table shape {m.reward.shape}, expected {(m.num_states, A)}")
    if m.transition.shape != (m.num_states, A, m.num_states):
        problems.append(f"transition table shape {m.transition.shape}, "
                        f"expected {(m.num_states, A, m.num_states)}")
    if not 0.0 <= m.discount < 1.0:
        problems.append(f"discount {m.discount} outside [0, 1)")
    problems += _non_finite(reward=m.reward, transition=m.transition,
                            initial_dist=m.initial_dist)
    if problems:
        return problems

    if (m.transition < -ROW_TOL).any():
        problems.append("negative transition probability")
    sums = m.transition.sum(axis=2)
    bad = np.argwhere(np.abs(sums - 1.0) > 1e-10)
    for s, a in bad[:5]:
        problems.append(f"transition row (state {s}, joint action {a}) sums to {sums[s, a]:.6g}")
    if bad.shape[0] > 5:
        problems.append(f"... and {bad.shape[0] - 5} more transition rows")

    if (m.initial_dist < -ROW_TOL).any():
        problems.append("initial distribution has a negative entry")
    if abs(m.initial_dist.sum() - 1.0) > ROW_TOL:
        problems.append(f"initial distribution sums to {m.initial_dist.sum():.6g}")
    if m.initial_dist.shape != (m.num_states,):
        problems.append("initial distribution has wrong length")

    for s in m.terminal_states:
        if not (0 <= s < m.num_states):
            problems.append(f"terminal state {reprlib.repr(s)} out of range")
            continue
        if np.abs(m.reward[s]).max() > ROW_TOL:
            problems.append(f"terminal state {s} has nonzero reward")
        expect = np.zeros(m.num_states)
        expect[s] = 1.0
        if np.abs(m.transition[s] - expect[None, :]).max() > 1e-10:
            problems.append(f"terminal state {s} does not self-loop with probability 1")
    return problems


def _agent_problems(num_agents: int, action_counts) -> list[str]:
    if num_agents != len(action_counts):
        return [f"num_agents is {reprlib.repr(num_agents)}, but action_counts lists "
                f"{len(action_counts)} agents"]
    return ([f"agent {i} has {reprlib.repr(k)} actions, fewer than 1"
             for i, k in enumerate(action_counts) if k < 1]
            if action_counts else ["num_agents is 0, fewer than 1"])


def _non_finite(**arrays) -> list[str]:
    """One problem naming the first NaN or infinite entry, or none."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            return [f"{name}{bad.tolist() or ''} is {values[tuple(bad)]}, not finite"]
    return []


def _slack_problems(name: str, value) -> list[str]:
    """One problem unless `value`, a slack or radius, is a finite real >= 0 and not a bool."""
    if (type(value) is not bool and isinstance(value, (int, float, np.integer, np.floating))
            and 0 <= value < math.inf):
        return []
    return [f"{name} {value!r} is not a finite number >= 0"]


def policy_transition_reward(m: Mmdp, behavior) -> tuple[np.ndarray, np.ndarray]:
    """Per-state Markov chain (P_pi, R_pi) induced by a behavior."""
    table = as_joint_table(m, behavior)
    r_pi = (table * m.reward).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", table, m.transition)
    return p_pi, r_pi


def _solve_linear(p_pi: np.ndarray, r_pi: np.ndarray, gamma: float) -> np.ndarray:
    """V = (I - gamma P)^-1 r for one chain (P (S, S), r (S,)) or a stack
    of them (P (K, S, S), r (K, S))."""
    n = p_pi.shape[-1]
    return np.linalg.solve(np.eye(n) - gamma * p_pi, r_pi[..., None])[..., 0]


def policy_values(m: Mmdp, behavior) -> np.ndarray:
    """State values V_pi, from a direct dense linear solve."""
    p_pi, r_pi = policy_transition_reward(m, behavior)
    return _solve_linear(p_pi, r_pi, m.discount)


def evaluate_return(m: Mmdp, behavior) -> float:
    """Expected discounted return J(pi) under the initial distribution."""
    return float(m.initial_dist @ policy_values(m, behavior))


# ---------------------------------------------------------------------------
# Model file I/O (JSON-structured text)

def save_model(m: Mmdp, path) -> None:
    rewards = [[int(s), int(a), float(m.reward[s, a])]
               for s, a in zip(*np.nonzero(m.reward))]
    transitions = [[int(s), int(a), int(t), float(m.transition[s, a, t])]
                   for s, a, t in zip(*np.nonzero(m.transition))]
    doc = {
        "num_states": m.num_states,
        "num_agents": m.num_agents,
        "action_counts": list(m.action_counts),
        "gamma": m.discount,
        "initial_dist": m.initial_dist.tolist(),
        "terminals": sorted(m.terminal_states),
        "rewards": rewards,
        "transitions": transitions,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _entries(doc, name: str, limits: tuple[int, ...]):
    """Parse a table field whose rows are [index, ..., value].

    Returns (index columns, value column); every index must be an integer in
    [0, limit) for its column's limit.
    """
    rows = _numbers(name, doc.get(name, []))
    width = len(limits) + 1
    if rows.size == 0:
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} entries must have {width} fields each")
    if problems := _non_finite(**{name: rows}):
        raise ValueError(problems[0])
    for col, (limit, what) in enumerate(zip(limits, ("state", "joint action", "next state"))):
        bad = np.flatnonzero((rows[:, col] < 0) | (rows[:, col] >= limit)
                             | (rows[:, col] != np.floor(rows[:, col])))
        if bad.size:
            raise ValueError(f"{name} entry {bad[0]}: {what} index {rows[bad[0], col]:g} "
                             f"is not an integer in [0, {limit})")
    return tuple(rows[:, :-1].T.astype(np.int64)), rows[:, -1]


def _number(name: str, value) -> float:
    # JSON true loads as a Python bool, which is an int
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        # reprlib: a short value prints as repr does, a deep or long one cut short
        raise ValueError(f"{name} value {reprlib.repr(value)} is not a number")
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise ValueError(f"{name} value {reprlib.repr(value)} is too large for a float") from None


def _numbers(name: str, value) -> np.ndarray:
    """Nested JSON numbers as a float array; `_number` checks each type's first entry."""
    table = np.asarray(value, dtype=object)  # list entries: ragged rows, or past numpy's ndim cap
    firsts = {type(x): x for x in table.ravel()[::-1]}
    if list in firsts and len({len(x) if isinstance(x, list) else -1 for x in table.ravel()}) > 1:
        raise ValueError(f"{name} values: rows differ in length")
    for entry in firsts.values():
        _number(name, entry)
    try:
        return table.astype(float)
    except OverflowError:  # some int past the largest float, which `_number` names
        return np.array([_number(name, x) for x in table.ravel()]).reshape(table.shape)


def _integer(name: str, value) -> int:
    if not _number(name, value).is_integer():  # fractional, infinite or NaN
        raise ValueError(f"{name} value {value!r} is not an integer")
    return int(value)


def _read_json(path, kind: str, arrays: tuple[str, ...]) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        try:
            doc = json.loads(text)
        except ValueError:  # maybe an integer past int()'s 4300 digits (a syntax error
            # raises again): one of over 400 characters, past the largest float, is read as
            # its ends, all that reprlib shows of it
            doc = json.loads(text, parse_int=lambda s: int(
                s if len(s) <= 400 else s[:200] + s[-200:]))
    except RecursionError as exc:  # the decoder recurses once per level
        raise ValueError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):  # each other type json.load returns, by its JSON name
        found = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
        raise ValueError(f"{kind} file holds {found.get(type(doc), 'a number')}, not a JSON object")
    if odd := [name for name in arrays if name in doc and not isinstance(doc[name], list)]:
        raise ValueError(f"{odd[0]} value {reprlib.repr(doc[odd[0]])} is not a JSON array")
    return doc


def load_model(path) -> Mmdp:
    """Parse the JSON model format.

    Omitted reward entries default to 0; a (state, joint action) pair with no
    transition entries at all is an error.
    """
    doc = _read_json(path, "model", ("action_counts", "terminals"))
    try:
        num_states = _integer("num_states", doc["num_states"])
        num_agents = _integer("num_agents", doc["num_agents"])
        action_counts = tuple(_integer("action_counts", k) for k in doc["action_counts"])
        gamma = _number("gamma", doc["gamma"])
        initial = _numbers("initial_dist", doc["initial_dist"])
        terminals = frozenset(_integer("terminals", s) for s in doc.get("terminals", []))
    except KeyError as exc:
        raise ValueError(f"model file missing field {exc}") from exc
    if problems := _agent_problems(num_agents, action_counts):
        raise ValueError(problems[0])
    if num_states < 0:
        raise ValueError(f"num_states {reprlib.repr(num_states)} is negative")
    if num_states > MAX_STATES:
        raise ValueError(f"model has {reprlib.repr(num_states)} states, more than {MAX_STATES}")
    if problems := _non_finite(gamma=np.float64(gamma), initial_dist=initial):
        raise ValueError(problems[0])
    A = math.prod(action_counts)
    # numpy sizes no array past intp bytes, nor an A axis past intp when S is 0
    if 8 * A * max(num_states, 1) ** 2 > np.iinfo(np.intp).max:
        # str() of an int past 4300 digits raises
        product = A if A.bit_length() <= 128 else f"at least 2**{A.bit_length() - 1}"
        raise ValueError(f"action_counts multiply to {product} joint actions, too many "
                         f"to index a transition table over num_states {num_states}")
    (s, a), r = _entries(doc, "rewards", (num_states, A))
    reward = np.zeros((num_states, A))
    reward[s, a] = r
    (s, a, t), p = _entries(doc, "transitions", (num_states, A, num_states))
    transition = np.zeros((num_states, A, num_states))
    np.add.at(transition, (s, a, t), p)  # in file order, like repeated +=
    seen = np.zeros((num_states, A), dtype=bool)
    seen[s, a] = True
    missing = np.argwhere(~seen)
    if missing.size:
        s, a = missing[0]
        raise ValueError(f"transition row omitted for state {s}, joint action {a} "
                         f"({missing.shape[0]} rows missing in total)")
    return Mmdp(num_states, num_agents, action_counts, _read_only(reward),
                _read_only(transition), gamma, initial, terminals)


def save_policy(pi: JointPolicy, path) -> None:
    with open(path, "w") as fh:
        json.dump({"agents": [ap.probs.tolist() for ap in pi.agents]}, fh)


def load_policy(path) -> JointPolicy:
    doc = _read_json(path, "policy", ("agents",))
    if "agents" not in doc:
        raise ValueError("policy file missing 'agents' field")
    agents = tuple(AgentPolicy(_numbers(f"agent {i}: probs", rows))
                   for i, rows in enumerate(doc["agents"]))
    for i, ap in enumerate(agents):
        if ap.probs.ndim != 2:
            raise ValueError(f"agent {i}: policy must be a table of rows")
        if problems := _non_finite(**{f"agent {i}: probs": ap.probs}):
            raise ValueError(problems[0])
    return JointPolicy(agents)
