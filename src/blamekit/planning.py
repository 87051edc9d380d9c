"""Coalition best responses and the coalition inefficiency game.

The inefficiency game maps every coalition S to the return gain it could
secure by jointly best-responding while everyone outside S keeps the behavior
policy. It is always monotone with value 0 at the empty coalition, and any
such set function is realizable by a one-step model (`mmdp_from_game`).

`characteristic_game` solves the 2^n - 1 nonempty coalitions in chunks of
equal joint-action count (one index shape): a chunk takes one gather of each
table (of reward and transition only where the behavior plays, so extraction
cost scales with its played joint actions) and one stacked policy iteration.
`induced_mdp` and `best_response` run the kernel on one coalition, bit for bit.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mmdp import (AgentPolicy, JointPolicy, Mmdp, as_joint_table,
                   evaluate_return, joint_index_grid, _solve_linear)

MAX_AGENTS = 12
_MONOTONE_TOL = 1e-9


def coalition_mask(coalition) -> int:
    """Bitmask with agent i on bit i (agent 0 is bit 0)."""
    mask = 0
    for i in coalition:
        mask |= 1 << int(i)
    return mask


def mask_agents(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


@lru_cache(maxsize=MAX_AGENTS + 1)
def membership(n: int) -> np.ndarray:
    """(2^n, n) read-only bool table: row `mask` flags the coalition's agents."""
    table = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) == 1
    table.setflags(write=False)
    return table


@lru_cache(maxsize=MAX_AGENTS + 1)
def immediate_subsets(n: int) -> np.ndarray:
    """(2^n, n) read-only table: entry [mask, i] is `mask` with bit i
    cleared (`mask` itself where agent i is not a member)."""
    table = np.arange(1 << n)[:, None] & ~(1 << np.arange(n))
    table.setflags(write=False)
    return table


def lattice_floors(values: np.ndarray,
                   n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk the subset lattice from singletons up, one coalition size at a
    time. Yields each layer's masks (ascending) with the first maximum of
    `values` over each mask's immediate subsets (as a scan keeps it: equal
    floors may differ in the sign of zero), read when the layer is reached,
    so the caller may fill a layer before the next one is read."""
    member = membership(n)
    sizes = member.sum(axis=1)
    subs = immediate_subsets(n)
    for size in range(1, n + 1):
        layer = np.flatnonzero(sizes == size)
        below = np.where(member[layer], values[subs[layer]], -np.inf)
        yield layer, below[np.arange(layer.size), below.argmax(axis=1)]


@lru_cache(maxsize=MAX_AGENTS + 1)
def marginal_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, 2^(n-1)) tables `without` and `with_`: row i of
    `without` lists, ascending, every coalition mask that excludes agent i,
    and `with_` holds the same coalitions with agent i added."""
    sub = np.arange((1 << n) >> 1)
    low = (1 << np.arange(n))[:, None] - 1
    without = (sub & low) | (sub & ~low) << 1
    with_ = without | low + 1
    for table in (without, with_):
        table.setflags(write=False)
    return without, with_


@dataclass(frozen=True)
class CharacteristicGame:
    """Marginal inefficiencies for all 2^n coalitions, indexed by bitmask."""

    num_agents: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def value(self, coalition) -> float:
        if isinstance(coalition, (int, np.integer)):
            return float(self.values[int(coalition)])
        return float(self.values[coalition_mask(coalition)])

    @property
    def total(self) -> float:
        """Grand-coalition inefficiency."""
        return float(self.values[-1])

    def validate(self, tol: float = _MONOTONE_TOL) -> list[str]:
        problems = []
        if self.values.shape != (1 << self.num_agents,):
            return [f"values table has length {self.values.shape}, expected {1 << self.num_agents}"]
        if abs(self.values[0]) > tol:
            problems.append(f"empty-coalition value is {self.values[0]:.3g}, not 0")
        n = self.num_agents
        subs = immediate_subsets(n)
        drops = membership(n) & (self.values[:, None] < self.values[subs] - tol)
        for mask, sub in zip(np.nonzero(drops)[0].tolist(), subs[drops].tolist()):
            problems.append(
                f"not monotone: value[{mask:b}]={self.values[mask]:.6g} "
                f"< value[{sub:b}]={self.values[sub]:.6g}")
        return problems

    def serialize(self) -> str:
        lines = [f"{mask},{float(self.values[mask])!r}"
                 for mask in range(1 << self.num_agents)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str) -> "CharacteristicGame":
        values = {}
        for line in text.strip().splitlines():
            mask_str, val_str = line.split(",")
            values[int(mask_str)] = float(val_str)
        size = len(values)
        n = size.bit_length() - 1
        if 1 << n != size or set(values) != set(range(size)):
            raise ValueError("expected one bitmask,value row per coalition")
        return CharacteristicGame(n, np.array([values[m] for m in range(size)]))


@dataclass(frozen=True)
class BestResponse:
    """A coalition's deterministic optimal policy against a fixed behavior."""

    coalition: frozenset[int]
    policy: dict[int, AgentPolicy]
    value: float
    state_values: np.ndarray

    def compose(self, behavior: JointPolicy) -> JointPolicy:
        """Joint policy where coalition members deviate and the rest keep behavior."""
        out = behavior
        for i, ap in self.policy.items():
            out = out.replace(i, ap)
        return out


def _action_support(action_counts) -> np.ndarray:
    """(A,) bitmask per joint action of the agents whose digit is nonzero
    (agent i on bit i)."""
    grid = joint_index_grid(action_counts).ravel()
    digits = np.unravel_index(grid, action_counts) if action_counts else ()
    support = np.zeros(grid.size, dtype=np.int64)
    for i, digit in enumerate(digits):
        support |= (digit != 0).astype(np.int64) << i
    return support


def _index_stack(support: np.ndarray, masks) -> np.ndarray:
    """(K, A_C, A_D) stack of coalition_action_index for the coalitions in
    `masks`, which must all have the same joint-action count A_C.

    The index is separable, idx[k, c, d] = idx[k, c, 0] + idx[k, 0, d]: row
    c = 0 lists, ascending, the joint actions in which only complement
    agents move, and column d = 0 those in which only coalition agents move.
    """
    masks = np.asarray(masks, dtype=np.int64)[:, None]
    inside = np.nonzero((support & ~masks) == 0)[1].reshape(masks.shape[0], -1)
    outside = np.nonzero((support & masks) == 0)[1].reshape(masks.shape[0], -1)
    return inside[:, :, None] + outside[:, None, :]


def coalition_action_index(m: Mmdp, coalition) -> np.ndarray:
    """Index array of shape (A_C, A_D) mapping coalition/complement action
    pairs (both in sorted-agent lexicographic order) to joint-action indices."""
    return _index_stack(_action_support(m.action_counts),
                        [coalition_mask(coalition)])[0]


def coalition_tables(m: Mmdp, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reward (..., S, A_C, A_D) and transition (..., S, A_C, A_D, S) of the
    joint actions that an index (stack) `idx` of shape (..., A_C, A_D)
    names, gathered with flat takes into fresh C-order arrays (their layout
    fixes the summation order of `marginalize`)."""
    return _gather(m, _flat_index(m, idx))


def _gather(m: Mmdp, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (np.take(m.reward, flat),
            np.take(m.transition.reshape(-1, m.num_states), flat, axis=0))


def _flat_index(m: Mmdp, idx: np.ndarray) -> np.ndarray:
    """Positions of (state, idx entry) in a flattened (S, A) table."""
    offsets = np.arange(m.num_states) * m.num_joint_actions
    return idx[..., None, :, :] + offsets[:, None, None]


def marginalize(q: np.ndarray, reward_c: np.ndarray,
                transition_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reward (..., S, A_C) and transition (..., S, A_C, S) of the coalition
    when the complement plays the conditional q (..., S, A_D); the tables
    come from `coalition_tables`."""
    return (np.einsum("...sd,...scd->...sc", q, reward_c),
            np.einsum("...sd,...scdt->...sct", q, transition_c))


def _induced(m: Mmdp, table: np.ndarray,
             idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`induced_mdp`'s reward and transition for an index (stack), gathered
    only at the complement actions q plays (q != 0, ascending, zero-padded to
    the widest row), so the tables are (..., S, A_C, W[, S]) with W <= A_D."""
    q = np.take(table, _flat_index(m, idx)).sum(axis=-2)  # (..., S, A_D)
    totals = q.sum(axis=-1)
    # guard against all-zero rows (cannot happen for valid behaviors)
    q = q / np.where(totals > 0, totals, 1.0)[..., None]
    keep = np.argsort(q == 0, axis=-1, kind="stable")[..., :np.count_nonzero(q, -1).max()]
    # idx is separable: idx[..., c, d] == idx[..., c, 0] + idx[..., 0, d]
    outside = np.take_along_axis(idx[..., None, 0, :], keep, -1)
    flat = _flat_index(m, idx[..., :1]) + outside[..., None, :]
    return marginalize(np.take_along_axis(q, keep, -1), *_gather(m, flat))


def induced_mdp(m: Mmdp, behavior, coalition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-controller MDP over the coalition's joint actions.

    The complement's actions are marginalized under the behavior's joint
    conditional (for factorized behaviors this is the product of the
    complement's rows). Returns (reward (S, A_C), transition (S, A_C, S), idx).
    """
    idx = coalition_action_index(m, coalition)
    return (*_induced(m, as_joint_table(m, behavior), idx), idx)


def solve_mdp(r: np.ndarray, p: np.ndarray, gamma: float,
              max_iters: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Howard policy iteration with lowest-index tie-breaking.

    r has shape (S, A) and p (S, A, S), or both carry one leading batch axis
    (K, ...) to solve K MDPs in lockstep. Returns (state values, deterministic
    per-state action indices), stacked like the input. Exact up to the linear
    solver; raises RuntimeError if the greedy policy of any member is still
    improving after max_iters evaluations. A member that has converged keeps
    its policy, so it returns what it would have returned alone.
    """
    # open-mesh indices over the (member and) state axes: x[(*rows, pol)]
    # reads the entry of each row's chosen action
    rows = np.ix_(*(np.arange(size) for size in r.shape[:-1]))
    pol = np.argmax(r, axis=-1)
    for _ in range(max_iters):
        v = _solve_linear(p[(*rows, pol)], r[(*rows, pol)], gamma)
        q = r + gamma * np.einsum("...sat,...t->...sa", p, v)
        new_pol = np.argmax(q, axis=-1)
        improving = q[(*rows, new_pol)] > q[(*rows, pol)] + 1e-13
        if not improving.any():
            return v, pol
        pol = np.where(improving, new_pol, pol)
    raise RuntimeError(f"policy iteration did not converge in {max_iters} iterations")


def best_response(m: Mmdp, behavior, coalition) -> BestResponse:
    """Optimal deterministic deviation of `coalition` against `behavior`."""
    agents = sorted(coalition)
    for i in agents:
        if not 0 <= i < m.num_agents:
            raise ValueError(f"agent index {i} out of range")
    r_c, p_c, _ = induced_mdp(m, behavior, agents)
    v, pol = solve_mdp(r_c, p_c, m.discount)
    dims = [m.action_counts[i] for i in agents]
    per_agent = np.unravel_index(pol, dims) if agents else ()
    policy = {i: AgentPolicy.deterministic(m.num_states, m.action_counts[i], actions)
              for i, actions in zip(agents, per_agent)}
    return BestResponse(frozenset(agents), policy,
                        float(m.initial_dist @ v), v)


def optimal_joint(m: Mmdp) -> BestResponse:
    """Best response of the grand coalition (the behavior is irrelevant)."""
    uniform = JointPolicy(tuple(AgentPolicy.uniform(m.num_states, k)
                                for k in m.action_counts))
    return best_response(m, uniform, range(m.num_agents))


_GAME_CACHE: dict[bytes, CharacteristicGame] = {}

# Most elements a sweep chunk's stacked transition gather, K * S * A * S,
# may hold; models whose one coalition exceeds it go one coalition a chunk.
_GATHER_BUDGET = 1 << 15


def _coalition_chunks(m: Mmdp) -> Iterator[np.ndarray]:
    """Every nonempty coalition mask, grouped by joint-action count A_C and
    cut into chunks whose transition gathers stay within _GATHER_BUDGET."""
    n = m.num_agents
    sizes = np.where(membership(n), m.action_counts, 1).prod(axis=1)
    order = np.argsort(sizes[1:], kind="stable") + 1
    starts = np.flatnonzero(np.diff(sizes[order])) + 1
    per_chunk = max(1, _GATHER_BUDGET
                    // (m.num_states ** 2 * m.num_joint_actions))
    for group in np.split(order, starts):
        for first in range(0, group.size, per_chunk):
            yield group[first:first + per_chunk]


def characteristic_game(m: Mmdp, behavior) -> CharacteristicGame:
    """Marginal inefficiency of every coalition against `behavior`.

    Memoized on the (model, behavior) content hash; agent count is capped at
    12 to keep the 2^n coalition sweep bounded.
    """
    if m.num_agents > MAX_AGENTS:
        raise ValueError(f"characteristic game limited to {MAX_AGENTS} agents")
    table = as_joint_table(m, behavior)
    key = m.content_key() + table.tobytes()
    hit = _GAME_CACHE.get(key)
    if hit is not None:
        return hit
    j_b = evaluate_return(m, table)
    values = np.zeros(1 << m.num_agents)
    support = _action_support(m.action_counts)
    for chunk in _coalition_chunks(m):
        idx = _index_stack(support, chunk)
        # a lone coalition goes unstacked: a batch axis of one only adds
        # overhead to every round of policy iteration
        v, _ = solve_mdp(*_induced(m, table, idx[0] if chunk.size == 1 else idx),
                         m.discount)
        # a stacked (1, S) @ (S,) product per member is the same dot product
        # as `initial_dist @ v`; a (K, S) @ (S,) one may round differently
        values[chunk] = (v.reshape(chunk.size, 1, -1) @ m.initial_dist)[:, 0] - j_b
    game = CharacteristicGame(m.num_agents, values)
    _GAME_CACHE[key] = game
    return game


def mmdp_from_game(f: CharacteristicGame) -> tuple[Mmdp, JointPolicy]:
    """Realize a monotone set function with f(empty) = 0 as a one-step model.

    Two states (initial, terminal), binary actions; the reward of a joint
    action equals f(S) where S is the set of agents playing 1, and the
    behavior policy is all-zeros. characteristic_game of the result
    reproduces f exactly: with the complement pinned to 0, a coalition's
    reachable values are f(T) for T inside the coalition, and monotonicity
    makes f(S) the maximum.
    """
    problems = f.validate(tol=0.0)
    if problems:
        raise ValueError("set function not realizable: " + "; ".join(problems))
    n = f.num_agents
    num_actions = 1 << n
    reward = np.zeros((2, num_actions))
    # reversing the axes puts agent i on bit i, so position `mask` holds the
    # joint action where exactly the agents in `mask` play 1
    reward[0, joint_index_grid((2,) * n).T.ravel()] = f.values
    transition = np.zeros((2, num_actions, 2))
    transition[0, :, 1] = 1.0
    transition[1, :, 1] = 1.0
    model = Mmdp(2, n, (2,) * n, reward, transition, 0.99,
                 np.array([1.0, 0.0]), frozenset({1}))
    behavior = JointPolicy(tuple(AgentPolicy.deterministic(2, 2, 0) for _ in range(n)))
    return model, behavior
