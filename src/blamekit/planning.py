"""Coalition best responses and the coalition inefficiency game.

The inefficiency game maps every coalition S to the return gain it could
secure by jointly best-responding while everyone outside S keeps the behavior
policy. It is always monotone with value 0 at the empty coalition, and any
such set function is realizable by a one-step model (`mmdp_from_game`, on
the `one_step_model` layout that the impossibility fixture also uses).

`coalition_values` solves the 2^n - 1 nonempty coalitions in chunks of equal
joint-action count, for `characteristic_game` to reduce: a chunk scatters the
behavior's nonzero entries into its complement conditionals, gathers reward
and transition only where they play, and runs one stacked policy iteration
from the greedy step on the behavior's own values. Chunks are sized by those
conditionals and gathers, so a behavior that plays few joint actions per state
gets few, wide chunks. `induced_mdp` and `best_response` run the same kernel
on one coalition, bit for bit, and `coalition_action_index` is built from the
same table: `_subgrids` is the package's one coalition layout.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

# evaluate_return is unused here, but bench/tracing.py wraps it by this name
from .mmdp import (AgentPolicy, JointPolicy, Mmdp, as_joint_table, content_digest,
                   evaluate_return, policy_values, _non_finite, _solve_linear)

MAX_AGENTS = 12
DISCOUNT = 0.99  # of every built-in model: the one-step layout, both environments
MAX_POLICY_ITERATIONS = 1000
_MONOTONE_TOL = 1e-9
MEMO_ENTRIES = 2  # newest keys a memo keeps: check_cperf reads its two games again


def coalition_mask(coalition, n: int) -> int:
    """Bitmask with agent i on bit i; refuses an i that is not a Python or
    numpy integer (a bool is not) and (naming the largest) i outside [0, n)."""
    agents = list(coalition)
    if odd := [i for i in agents if not np.issubdtype(type(i), np.integer)]:
        raise ValueError(f"agent index {odd[0]!r} is not an integer")
    if stray := [i for i in agents if not 0 <= i < n]:
        raise ValueError(f"agent index {max(stray)} out of range")
    return sum(1 << i for i in {int(i) for i in agents})


def mask_agents(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def memo(table: dict, key, build):
    """table[key], or build() stored under it; a table keeps its MEMO_ENTRIES newest keys."""
    if (value := table.get(key)) is None:
        table[key] = value = build()
        while len(table) > MEMO_ENTRIES:
            del table[next(iter(table))]
    return value


def _read_only(table: np.ndarray) -> np.ndarray:
    """Cached tables are shared by every caller, so none may write to one."""
    table.setflags(write=False)
    return table


@lru_cache(maxsize=MAX_AGENTS + 1)
def membership(n: int) -> np.ndarray:
    """(2^n, n) read-only bool table: row `mask` flags the coalition's agents."""
    return _read_only((np.arange(1 << n)[:, None] >> np.arange(n) & 1) == 1)


def coalition_sums(x: np.ndarray) -> np.ndarray:
    """(2^n,) table: entry `mask` is the sum of x over the coalition's
    agents, added in ascending agent order from 0.0 as a Python loop adds
    them (so bit for bit a `cumsum` over the members; never -0.0). Step i
    fills masks 2^i to 2^(i+1) - 1 in place from masks 0 to 2^i - 1."""
    sums = np.zeros(1 << x.size, dtype=x.dtype)
    for i, term in enumerate(x):
        np.add(sums[:1 << i], term, out=sums[1 << i:2 << i])
    return sums


@lru_cache(maxsize=MAX_AGENTS + 1)
def coalition_sizes(n: int) -> np.ndarray:
    """(2^n,) read-only table of coalition sizes, indexed by mask."""
    return _read_only(coalition_sums(np.ones(n, dtype=np.int64)))


@lru_cache(maxsize=MAX_AGENTS + 1)
def immediate_subsets(n: int) -> np.ndarray:
    """(2^n, n) read-only table: entry [mask, i] is `mask` with bit i
    cleared (`mask` itself where agent i is not a member)."""
    return _read_only(np.arange(1 << n)[:, None] & ~(1 << np.arange(n)))


def lattice_floors(values: np.ndarray,
                   n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk the subset lattice from singletons up, one coalition size at a
    time. Yields each layer's masks (ascending) with the first maximum of
    `values` over each mask's immediate subsets (as a scan keeps it: equal
    floors may differ in the sign of zero), read when the layer is reached,
    so the caller may fill a layer before the next one is read."""
    member = membership(n)
    sizes = coalition_sizes(n)
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
    return _read_only(without), _read_only(without | low + 1)


def _check_agent_count(n) -> None:  # a Python or numpy integer >= 0; a bool is not
    if not np.issubdtype(type(n), np.integer) or n < 0:
        raise ValueError(f"num_agents {n!r} is not a nonnegative integer")


@dataclass(frozen=True, eq=False)
class CharacteristicGame:
    """Marginal inefficiencies for all 2^n coalitions, indexed by bitmask."""

    num_agents: int
    values: np.ndarray

    def __post_init__(self):
        _check_agent_count(self.num_agents)
        values = np.array(self.values, dtype=float)  # a copy, held read-only
        if values.shape != (1 << self.num_agents,):
            raise ValueError(f"values table has length {values.shape}, expected {1 << self.num_agents}")
        if problems := _non_finite(values=values):
            raise ValueError(f"invalid game: {problems[0]}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, coalition) -> float:
        if isinstance(coalition, (bool, np.bool_)):
            raise ValueError(f"coalition {coalition!r} is a bool, not a mask")
        if not isinstance(coalition, (int, np.integer)):
            coalition = coalition_mask(coalition, self.num_agents)
        elif not 0 <= coalition < 1 << self.num_agents:
            raise ValueError(f"coalition mask {coalition} out of range")
        return float(self.values[int(coalition)])

    @property
    def total(self) -> float:
        """Grand-coalition inefficiency."""
        return float(self.values[-1])

    def validate(self, tol: float = _MONOTONE_TOL) -> list[str]:
        problems = []
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


@dataclass(frozen=True)
class BestResponse:
    """A coalition's deterministic optimal policy against a fixed behavior."""

    coalition: frozenset[int]
    policy: dict[int, AgentPolicy]
    value: float
    state_values: np.ndarray


@lru_cache(maxsize=MAX_AGENTS + 1)
def _subgrids(action_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (values, offsets, weights): values[offsets[M]:offsets[M + 1]]
    lists, ascending, the joint actions in which only mask M's agents move,
    each at its digits dotted with weights[M]. Step i fills masks 2^i to
    2^(i+1) - 1 in place, adding agent i as the least significant digit."""
    n = len(action_counts)
    values = np.zeros(math.prod(k + 1 for k in action_counts), dtype=np.int64)
    offsets = np.zeros((1 << n) + 1, dtype=np.int64)
    offsets[1] = end = 1
    weights = np.zeros((1 << n, n), dtype=np.int64)
    for i, k in enumerate(action_counts):
        low, stride = 1 << i, math.prod(action_counts[i + 1:])
        np.add(values[:end, None], np.arange(0, k * stride, stride),
               values[end:end * (k + 1)].reshape(end, k))
        offsets[low:2 * low + 1] = offsets[:low + 1] * k + end
        np.multiply(weights[:low], k, weights[low:2 * low])
        weights[low:2 * low, i] = 1
        end *= k + 1
    return _read_only(values), _read_only(offsets), _read_only(weights)


def _rows(grid, masks) -> np.ndarray:
    """`_subgrids` rows (..., A_C) of one mask or a stack with equal A_C."""
    values, offsets, _ = grid
    first = masks.flat[0]
    return values[offsets[masks][..., None]
                  + np.arange(offsets[first + 1] - offsets[first])]


def _tables(grid, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_induced`'s input for a mask or equal-A_C stack: `_rows`, complement `_rows`, weights."""
    others = (grid[1].size - 2) ^ masks
    return _rows(grid, masks), _rows(grid, others), grid[2][others]


@lru_cache(maxsize=MAX_AGENTS + 1)
def _groups(action_counts: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Read-only (masks, *`_tables`) of every nonempty coalition mask, one
    group per joint-action count A_C (its `_subgrids` row length), ascending."""
    grid = _subgrids(action_counts)
    sizes = np.diff(grid[1][1:])  # of masks 1, 2, ...
    groups = (np.flatnonzero(sizes == k) + 1 for k in np.flatnonzero(np.bincount(sizes)))
    return tuple(tuple(map(_read_only, (masks, *_tables(grid, masks)))) for masks in groups)


def coalition_action_index(m: Mmdp, coalition) -> np.ndarray:
    """Index array of shape (A_C, A_D) mapping coalition/complement action
    pairs (both in sorted-agent lexicographic order) to joint-action indices:
    a joint index is the sum of its coalition's and its complement's parts."""
    mask = np.int64(coalition_mask(coalition, m.num_agents))
    inside, outside, _ = _tables(_subgrids(m.action_counts), mask)
    return inside[:, None] + outside


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


def _played(m: Mmdp, table: np.ndarray):
    """(state, per-agent digits (n, P), probability) of the P nonzero
    entries of a behavior table, in (state, joint action) order."""
    states, actions = np.nonzero(table)
    return (states, np.array(np.unravel_index(actions, m.action_counts)),
            table[states, actions])


def _induced(m: Mmdp, played, inside, outside, weights) -> tuple[np.ndarray, np.ndarray]:
    """`induced_mdp` for one mask or a stack of masks with equal A_C, from
    their `_tables`. Gathered only at the complement actions q plays (q != 0,
    ascending, zero-padded to the widest row): the tables are
    (..., S, A_C, W[, S]) with W <= A_D."""
    states, digits, probs = played
    num_d = outside.shape[-1]
    # q (..., S, A_D), each complement action at its digits dotted with the
    # weights: bincount adds each (P, ...) bin's played terms in joint-action
    # order, as the sum over the coalition's actions, less zeros
    member = np.arange(outside.size // num_d).reshape(outside.shape[:-1])
    column = states.reshape(-1, *[1] * member.ndim)
    bins = (member * m.num_states + column) * num_d + digits.T @ weights.T
    q = np.bincount(bins.ravel(), np.repeat(probs, member.size),
                    member.size * m.num_states * num_d).reshape(*member.shape, -1, num_d)
    totals = q.sum(axis=-1)
    # guard against all-zero rows (cannot happen for valid behaviors)
    q = q / np.where(totals > 0, totals, 1.0)[..., None]
    keep = np.argsort(zero := q == 0, axis=-1, kind="stable")[..., :num_d - zero.sum(-1).min()]
    # each member's kept complement actions, read from its row of `outside`
    kept = outside.reshape(-1)[(member * num_d)[..., None, None] + keep]
    flat = _flat_index(m, inside[..., None]) + kept[..., None, :]
    rows = np.arange(0, q.size, num_d).reshape(q.shape[:-1])  # each q row's flat start
    return marginalize(q.reshape(-1)[rows[..., None] + keep], *_gather(m, flat))


def induced_mdp(m: Mmdp, behavior, coalition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-controller MDP over the coalition's joint actions.

    The complement's actions are marginalized under the behavior's joint
    conditional (for factorized behaviors this is the product of the
    complement's rows). Returns (reward (S, A_C), transition (S, A_C, S), idx).
    """
    mask = np.int64(coalition_mask(coalition, m.num_agents))
    played = _played(m, as_joint_table(m, behavior))
    inside, outside, weights = _tables(_subgrids(m.action_counts), mask)
    # coalition_action_index, from the rows already gathered
    return (*_induced(m, played, inside, outside, weights), inside[:, None] + outside)


def solve_mdp(r: np.ndarray, p: np.ndarray, gamma: float,
              start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Howard policy iteration with lowest-index tie-breaking.

    r has shape (S, A) and p (S, A, S), or both carry one leading batch axis
    (K, ...) to solve K MDPs in lockstep. The first policy is greedy against
    state values `start` (S,), shared by a stack, or r alone if None (any
    start converges; a good one sooner). Returns (state values, deterministic
    per-state action indices), stacked like the input. Exact up to the linear
    solver; raises RuntimeError if the greedy policy of any member is still
    improving after MAX_POLICY_ITERATIONS evaluations. A converged member
    keeps its policy, so it returns what it would have returned alone.
    """
    # flat position of each (member and) state row's first action:
    # x.reshape(-1)[base + pol] reads the entry of each row's chosen action
    base = np.arange(0, r.size, r.shape[-1]).reshape(r.shape[:-1])
    r_flat, p_rows = r.reshape(-1), p.reshape(-1, p.shape[-1])
    pol = np.argmax(r if start is None else
                    r + gamma * np.einsum("...sat,...t->...sa", p, start), axis=-1)
    for _ in range(MAX_POLICY_ITERATIONS):
        chosen = base + pol
        v = _solve_linear(p_rows[chosen], r_flat[chosen], gamma)
        q = r + gamma * np.einsum("...sat,...t->...sa", p, v)
        new_pol = np.argmax(q, axis=-1)
        q_flat = q.reshape(-1)
        improving = q_flat[base + new_pol] > q_flat[chosen] + 1e-13
        if not improving.any():
            return v, pol
        pol = np.where(improving, new_pol, pol)
    raise RuntimeError(f"policy iteration did not converge in {MAX_POLICY_ITERATIONS} iterations")


def best_response(m: Mmdp, behavior, coalition) -> BestResponse:
    """Optimal deterministic deviation of `coalition` against `behavior`."""
    agents = sorted(coalition)
    r_c, p_c, idx = induced_mdp(m, behavior, agents)
    v, pol = solve_mdp(r_c, p_c, m.discount)
    # each state's chosen joint action with the complement's digits at 0
    digits = np.unravel_index(idx[pol, 0], m.action_counts)
    policy = {i: AgentPolicy.deterministic(m.num_states, m.action_counts[i], digits[i])
              for i in agents}
    return BestResponse(frozenset(agents), policy,
                        float(m.initial_dist @ v), v)


def optimal_joint(m: Mmdp) -> BestResponse:
    """Best response of the grand coalition (the behavior is irrelevant)."""
    uniform = JointPolicy(tuple(AgentPolicy.uniform(m.num_states, k)
                                for k in m.action_counts))
    return best_response(m, uniform, range(m.num_agents))


_GAME_CACHE: dict[bytes, CharacteristicGame] = {}
_VALUES_CACHE: dict[bytes, np.ndarray] = {}  # coalition_values, under the same keys

# Most elements a sweep chunk's stacked tables, K * S * (A_D + A_C * W * S)
# (q, and the transitions gathered at the W played complement actions), may
# hold; a coalition that alone exceeds it goes in a chunk of its own.
_GATHER_BUDGET = 1 << 15


def _coalition_chunks(m: Mmdp, played) -> Iterator[tuple[np.ndarray, ...]]:
    """(masks, *`_tables`) of every nonempty coalition, cut from its `_groups`
    entry into chunks whose q and transition gathers fit _GATHER_BUDGET. A row
    of q plays at most W = min(A_D, P) complement actions, P being the most
    joint actions the behavior plays in one state (each projects one of them)."""
    most = int(np.bincount(played[0], minlength=m.num_states).max())
    for group in _groups(m.action_counts):
        num_c, num_d = group[1].shape[-1], group[2].shape[-1]
        per_coalition = m.num_states * (num_d + num_c * min(num_d, most) * m.num_states)
        per_chunk = max(1, _GATHER_BUDGET // per_coalition)
        for first in range(0, group[0].size, per_chunk):
            yield tuple(table[first:first + per_chunk] for table in group)


def coalition_values(m: Mmdp, behavior) -> np.ndarray:
    """Read-only (2^n, S) table: row M holds mask M's best-response state
    values against `behavior`, and row 0 the behavior's own `policy_values`."""
    return _swept(m, behavior)[1]


def _swept(m: Mmdp, behavior) -> tuple[bytes, np.ndarray]:
    """The (model, behavior) content hash, and `coalition_values` memoized on it."""
    if m.num_agents > MAX_AGENTS:
        raise ValueError(f"characteristic game limited to {MAX_AGENTS} agents")
    table = as_joint_table(m, behavior)
    key = m.content_key() + content_digest(table)

    def sweep():
        rows = np.empty((1 << m.num_agents, m.num_states))
        rows[0] = v_b = policy_values(m, table)
        # no transition entering a nonzero v_b (mmdp_from_game): argmax r is greedy
        start = v_b if m.transition[..., v_b != 0].any() else None
        played = _played(m, table)
        for masks, *tables in _coalition_chunks(m, played):
            rows[masks], _ = solve_mdp(*_induced(m, played, *tables), m.discount, start)
        return _read_only(rows)
    return key, memo(_VALUES_CACHE, key, sweep)


def characteristic_game(m: Mmdp, behavior) -> CharacteristicGame:
    """Marginal inefficiency of every coalition against `behavior`: the return
    of its `coalition_values` row less row 0's, memoized on the same key."""
    key, rows = _swept(m, behavior)
    # a stacked (1, S) @ (S,) product per row is the same dot product as
    # `initial_dist @ v`; a (K, S) @ (S,) one may round differently
    returns = (rows[:, None] @ m.initial_dist)[:, 0]
    return memo(_GAME_CACHE, key, lambda: CharacteristicGame(m.num_agents, returns - returns[0]))


def one_step_model(action_counts: tuple[int, ...],
                   reward_row) -> tuple[Mmdp, JointPolicy]:
    """The one-step layout: from the initial state every joint action earns
    its `reward_row` entry and moves to the terminal state 1; discount DISCOUNT,
    and the behavior plays action 0 everywhere."""
    num_actions = len(reward_row)
    reward = np.vstack([reward_row, np.zeros(num_actions)])
    transition = np.zeros((2, num_actions, 2))
    transition[:, :, 1] = 1.0
    model = Mmdp(2, len(action_counts), action_counts, reward, transition,
                 DISCOUNT, np.array([1.0, 0.0]), frozenset({1}))
    return model, JointPolicy(tuple(AgentPolicy.deterministic(2, k, 0)
                                    for k in action_counts))


def mmdp_from_game(f: CharacteristicGame) -> tuple[Mmdp, JointPolicy]:
    """Realize a monotone set function with f(empty) = 0 as a one-step model
    with binary actions: the reward of a joint action equals f(S) where S is
    the set of agents playing 1. characteristic_game of the result
    reproduces f exactly: with the complement pinned to 0, a coalition's
    reachable values are f(T) for T inside the coalition, and monotonicity
    makes f(S) the maximum.
    """
    problems = f.validate(tol=0.0)
    if problems:
        raise ValueError("set function not realizable: " + "; ".join(problems))
    n = f.num_agents
    # joint action j earns f at mask j with its n bits reversed, the agents
    # playing 1 (agent 0 is the most significant binary digit of j)
    return one_step_model((2,) * n, f.values[
        membership(n) @ (1 << np.arange(n - 1, -1, -1))])
