"""Coalition best responses and the coalition inefficiency game.

The inefficiency game maps every coalition S to the return gain it could
secure by jointly best-responding while everyone outside S keeps the behavior
policy. It is always monotone with value 0 at the empty coalition, and any
such set function is realizable by a one-step model (`mmdp_from_game`, on
the `one_step_model` layout that the impossibility fixture also uses).

`coalition_values` solves all 2^n coalitions, for `characteristic_game` to reduce; the
empty one, the behavior's own values, is swept with the rest. A `JointPolicy`, a product,
builds no joint table: it normalizes the agents of each action count as one stack and reads
every coalition's tables off one `_lattice` per step: a level backs up all its entries at once
and takes each coalition's maximum over its segment (mask 0's: the fully contracted entry), a
cycle takes chunks of equal joint-action count, mask 0 alone first. An explicit joint table,
which may be correlated, gathers them per chunk through `_induced`, mask 0's first. An acyclic
model takes one backward pass over `_topological_levels` (Kahn's peel, a level at a time), the
first level reading the reward alone, each later one its transitions into the nonterminal
states it reaches; a cyclic one reads every state and runs a stacked policy iteration, greedy
first on the behavior's values.
`_subgrids` is the package's one coalition layout.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

# evaluate_return is unused here, but bench/tracing.py wraps it by this name
from .mmdp import (AgentPolicy, JointPolicy, Mmdp, as_joint_table, content_digest,
                   evaluate_return, _non_finite, _read_only, _solve_linear)

MAX_AGENTS = 12
DISCOUNT = 0.99  # of every built-in model: the one-step layout, both environments
MAX_POLICY_ITERATIONS = 1000
_MONOTONE_TOL = 1e-9
_EDGE_TOL = 1e-15
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
    for layer, member, subs, rows in lattice_layers(n):
        below = np.where(member, values[subs], -np.inf)
        yield layer, below[rows, below.argmax(axis=1)]


@lru_cache(maxsize=MAX_AGENTS + 1)
def lattice_layers(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """For each coalition size 1 to n, read-only: the layer's masks
    (ascending), their membership and immediate-subset rows, and row numbers."""
    layers = [np.flatnonzero(coalition_sizes(n) == size) for size in range(1, n + 1)]
    return tuple(tuple(map(_read_only, (layer, membership(n)[layer],
                                        immediate_subsets(n)[layer], np.arange(layer.size))))
                 for layer in layers)


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
def _subgrids(action_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Read-only (values, offsets, groups): values[offsets[M]:offsets[M + 1]]
    lists, ascending, the joint actions in which only mask M's agents move,
    and groups the nonempty masks by that row length A_C, ascending in both.
    Step i fills masks 2^i to 2^(i+1) - 1 in place, adding agent i as the
    least significant digit."""
    n = len(action_counts)
    values = np.zeros(math.prod(k + 1 for k in action_counts), dtype=np.int64)
    offsets = np.zeros((1 << n) + 1, dtype=np.int64)
    offsets[1] = end = 1
    for i, k in enumerate(action_counts):
        low, stride = 1 << i, math.prod(action_counts[i + 1:])
        np.add(values[:end, None], np.arange(0, k * stride, stride),
               values[end:end * (k + 1)].reshape(end, k))
        offsets[low:2 * low + 1] = offsets[:low + 1] * k + end
        end *= k + 1
    sizes = np.diff(offsets[1:])  # of masks 1, 2, ...
    groups = tuple(_read_only(np.flatnonzero(sizes == k) + 1) for k in np.flatnonzero(np.bincount(sizes)))
    return _read_only(values), _read_only(offsets), groups


def _rows(grid, masks) -> np.ndarray:
    """`_subgrids` rows (..., A_C) of one mask or a stack with equal A_C."""
    values, offsets, _ = grid
    first = masks.flat[0]
    return values[offsets[masks][..., None]
                  + np.arange(offsets[first + 1] - offsets[first])]


def _index(grid, masks) -> np.ndarray:
    """`coalition_action_index` (..., A_C, A_D) of one mask or an equal-A_C
    stack: its `_rows` beside its complement's."""
    return _rows(grid, masks)[..., None] + _rows(grid, (grid[1].size - 2) ^ masks)[..., None, :]


def coalition_action_index(m: Mmdp, coalition) -> np.ndarray:
    """Index array of shape (A_C, A_D) mapping coalition/complement action
    pairs (both in sorted-agent lexicographic order) to joint-action indices:
    a joint index is the sum of its coalition's and its complement's parts."""
    return _index(_subgrids(m.action_counts), np.int64(coalition_mask(coalition, m.num_agents)))


def coalition_tables(m: Mmdp, flat: np.ndarray, blocks) -> tuple[np.ndarray, list[np.ndarray]]:
    """Reward (..., S, A_C, D) at `_flat_index` positions and, per block (states,
    columns, their (L * A, Z) transition rows, shift to them), transitions (...,
    L, A_C, D, Z), in fresh C-order arrays (which fix `marginalize`'s sums)."""
    return (np.take(m.reward, flat),
            [block.take(flat[..., s, :, :] + d, 0) for s, _, block, d in blocks])


def _whole(m: Mmdp) -> tuple:  # the block of every state and column, at shift 0
    return slice(None), slice(None), m.transition.reshape(-1, m.num_states), 0


def _flat_index(m: Mmdp, idx: np.ndarray) -> np.ndarray:
    """Positions of (state, idx entry) in a flattened (S, A) table."""
    offsets = np.arange(m.num_states) * m.num_joint_actions
    return idx[..., None, :, :] + offsets[:, None, None]


def marginalize(q: np.ndarray, reward: np.ndarray, transitions, blocks) -> tuple:
    """The coalition's reward (..., S, A_C) and per block its transitions (...,
    L, A_C, Z) when the complement plays q (..., S, D) over the D actions whose
    `coalition_tables`, gathered for the same blocks, are given."""
    return (np.einsum("...sd,...scd->...sc", q, reward),
            [np.einsum("...sd,...scdt->...sct", q[..., s, :], p)
             for (s, *_), p in zip(blocks, transitions)])


def _induced(m: Mmdp, table: np.ndarray, idx: np.ndarray, blocks) -> tuple:
    """`induced_mdp` for one `coalition_action_index` or a stack of them:
    `marginalize` over `coalition_tables` at every complement action, with
    q the behavior's complement conditional (..., S, A_D)."""
    flat = _flat_index(m, idx)
    q = np.take(table, flat).sum(axis=-2)
    totals = q.sum(axis=-1)
    # guard against all-zero rows (cannot happen for valid behaviors)
    q = q / np.where(totals > 0, totals, 1.0)[..., None]
    return marginalize(q, *coalition_tables(m, flat, blocks), blocks)


def induced_mdp(m: Mmdp, behavior, coalition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-controller MDP over the coalition's joint actions.

    The complement's actions are marginalized under the behavior's joint
    conditional (for factorized behaviors this is the product of the
    complement's rows). Returns (reward (S, A_C), transition (S, A_C, S), idx).
    """
    idx = coalition_action_index(m, coalition)
    r, (p,) = _induced(m, as_joint_table(m, behavior), idx, [_whole(m)])
    return r, p, idx


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


def _topological_levels(m: Mmdp) -> list[np.ndarray] | None:
    """Nonterminal states peeled into levels, sinks first, whose transitions
    only point into earlier levels or terminal states; None if the model has
    a cycle beyond terminal self-loops. An edge of at most _EDGE_TOL orders
    nothing, so a backward pass reads it against v = 0 if it points ahead."""
    reach = np.einsum("sat->st", m.transition > _EDGE_TOL)  # a bool sum: any over actions
    nonterminal = np.array([s not in m.terminal_states for s in range(m.num_states)], dtype=bool)
    if (np.diagonal(reach) & nonterminal).any():
        return None
    np.fill_diagonal(reach, False)
    out_degree = reach.sum(axis=1)
    levels, left = [(out_degree == 0).nonzero()[0]], m.num_states
    # peel until every state is peeled, or a level comes up empty: what is left reaches a cycle
    while (left := left - levels[-1].size) and levels[-1].size:
        out_degree -= reach[:, levels[-1]].sum(axis=1)  # next: every state whose successors
        out_degree[levels[-1]] = -1  # are all peeled
        levels.append((out_degree == 0).nonzero()[0])
    kept = [level[nonterminal[level]] for level in levels]
    return None if left else [level for level in kept if level.size]


def best_response(m: Mmdp, behavior, coalition) -> BestResponse:
    """Optimal deterministic deviation of `coalition` against `behavior`."""
    agents = mask_agents(coalition_mask(coalition, m.num_agents), m.num_agents)
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


_GAME_CACHE: dict[tuple[bytes, bool], tuple[np.ndarray, CharacteristicGame]] = {}  # values, game

# Most elements a sweep chunk's stacked tables may hold: K * W * (S + A_C * (3 * S + sum of
# L * Z)) for a joint table at its W = A_D complement actions: q, the index, the table's and the
# reward's gathers and each block's L states at its Z columns; a lattice's slices, which a cyclic
# product sweep alone reads: no q and no table gather, W = 1.
_GATHER_BUDGET = 1 << 15


def _coalition_chunks(m: Mmdp, joint: bool, blocks) -> Iterator[np.ndarray]:
    """The masks of every nonempty coalition, cut from its `_subgrids` group
    into chunks whose tables for `blocks` fit _GATHER_BUDGET, a `joint`
    table's at every complement action, else a cyclic product's lattice
    slices (an acyclic product sweep reads whole levels, unchunked)."""
    S = m.num_states  # the elements per (coalition, complement) action pair:
    span = (2 + joint) * S + sum(rows.size for _, _, rows, _ in blocks) // m.num_joint_actions
    _, offsets, groups = _subgrids(m.action_counts)
    for masks in groups:
        num_c = int(offsets[masks[0] + 1] - offsets[masks[0]])
        width = m.num_joint_actions // num_c if joint else 1
        per_chunk = max(1, _GATHER_BUDGET // (width * (joint * S + num_c * span)))
        for first in range(0, masks.size, per_chunk):
            yield masks[first:first + per_chunk]


def _lattice(rows, dead, *tables) -> np.ndarray:
    """L states' (L, A[, Z]) tables side by side, as one (L * prod(k_i + 1), Z) in `_subgrids`
    order: agent i off a mask plays rows[i] (L, k_i), and a `dead` state holds 0. Pass i writes
    agent i's contraction (einsum's sum) in place, just before the entries that keep its action."""
    L, num_a = len(rows[0]), math.prod(w.shape[1] for w in rows)
    width = sum(t.size for t in tables) // (L * num_a)
    lattice = np.empty((L, math.prod(w.shape[1] + 1 for w in rows) * width))
    start = -(rest := num_a * width)  # the tables go at the end of each state's row
    np.concatenate([t.reshape(L, num_a, -1) for t in tables], axis=-1,
                   out=lattice[:, start:].reshape(L, num_a, width))
    for w in rows:  # rest: width times the action counts of agents i + 1 on
        kept = lattice[:, start:].reshape(L, -1, w.shape[1], rest := rest // w.shape[1])
        start -= (size := kept.shape[1] * rest)
        np.einsum("lekr,lk->ler", kept, w, out=lattice[:, start:start + size].reshape(L, -1, rest))
    lattice[dead] = 0.0
    return lattice.reshape(-1, width)


def coalition_values(m: Mmdp, behavior) -> np.ndarray:
    """Read-only (2^n, S) table: row M holds mask M's best-response state values
    against `behavior`, row 0 the behavior's own, off the same normalized rows."""
    return _swept(m, behavior)[0]


def characteristic_game(m: Mmdp, behavior) -> CharacteristicGame:
    """Marginal inefficiency of every coalition against `behavior`: the return
    of its `coalition_values` row less row 0's, memoized with them."""
    return _swept(m, behavior)[1]


def _swept(m: Mmdp, behavior) -> tuple[np.ndarray, CharacteristicGame]:
    """`coalition_values` and `characteristic_game`: one memo entry per (model, behavior) hash
    and kind, as a product's lattice and its joint table's `_induced` round apart. A product's
    hash is its agents' rows, as `UncertaintySet.content_key`'s; it builds no joint table."""
    if m.num_agents > MAX_AGENTS:
        raise ValueError(f"characteristic game limited to {MAX_AGENTS} agents")
    if (product := isinstance(behavior, JointPolicy)) and (problems := behavior._shape_problems(m)):
        raise ValueError(problems[0])  # as `joint_table` refuses it
    arrays = [a.probs for a in behavior.agents] if product else [table := as_joint_table(m, behavior)]
    key = (m.content_key() + content_digest(*arrays), product)

    def sweep():
        rows, offsets = np.zeros((1 << m.num_agents, m.num_states)), _subgrids(m.action_counts)[1]
        levels = _topological_levels(m)
        blocks = [_whole(m)] if levels is None else []
        for s in (levels or [])[1:]:  # a block per later level: the nonterminal states Z it
            # reaches (terminal ones hold 0), whose columns alone its transitions add to
            z = np.flatnonzero((block := m.transition[s]).any(axis=(0, 1)))
            z = z[[t not in m.terminal_states for t in z.tolist()]]
            blocks.append((s, z, block[..., z].reshape(s.size * m.num_joint_actions, -1),
                           (np.arange(s.size) - s)[:, None, None] * m.num_joint_actions))
        steps = [(np.arange(m.num_states), *blocks)] if levels is None else [*zip(levels, [None, *blocks])]
        if not product:  # a joint table: `_induced` per chunk, mask 0's first
            for masks in [np.zeros(1, np.int64), *_coalition_chunks(m, True, blocks)]:
                r, ps = _induced(m, table, _index(_subgrids(m.action_counts), masks), blocks)
                if levels is None:  # a cycle: policy iteration, greedy from the behavior's row 0 first
                    rows[masks], _ = solve_mdp(r, ps[0], m.discount, rows[0])
                    continue  # else one backward pass, from rows of 0, p (K, L, A_C, Z)
                for (states, block), p in zip(steps, [None, *ps]):  # None: successors all terminal
                    ahead = 0.0 if p is None else np.einsum("ksat,kt->ksa", p,
                                                            rows[masks[:, None], block[1]])
                    rows[masks[:, None], states] = (r[:, states] + m.discount * ahead).max(axis=-1)
            return rows
        # a product: rows over their sums, the agents of each action count k as one (g, S, k)
        # stack; where some agent's row sums to at most 0 the behavior plays nothing, all 0
        stacks = {k: np.concatenate([a.probs[None] for a, c in zip(behavior.agents, m.action_counts)
                                     if c == k]) for k in set(m.action_counts)}
        dead = ~np.all([(stack.sum(axis=2) > 0).all(axis=0) for stack in stacks.values()], axis=0)
        for stack in stacks.values():
            stack /= np.where(dead, 1.0, stack.sum(axis=2))[..., None]
        for states, block in steps:  # each step's lattice alive only while it runs
            rows_of = {k: iter(stack[:, states]) for k, stack in stacks.items()}
            lattice = _lattice([next(rows_of[k]) for k in m.action_counts], dead[states], m.reward[states],
                               *[] if block is None else [block[2]])  # reward, transitions
            if levels is None:  # a cycle, one step: each chunk's (K, S, A_C, 1 + S) tables
                starts = np.arange(0, lattice.shape[0], offsets[-1])[:, None]  # of each state
                for masks in [np.zeros(1, np.int64), *_coalition_chunks(m, False, blocks)]:
                    num_c = offsets[masks[0] + 1] - offsets[masks[0]]
                    tables = lattice.take(offsets[masks][:, None, None] + np.arange(num_c) + starts, 0)
                    rows[masks], _ = solve_mdp(tables[..., 0], tables[..., 1:], m.discount, rows[0])
                continue  # a level: r + γ·ahead at every entry in place, then each mask's max
            tables = lattice.reshape(states.size, offsets[-1], -1)
            r = tables[..., 0]  # + γ·0.0 on the first level too, so a -0.0 reads +0.0
            r += m.discount * (0.0 if block is None else np.einsum(  # successors per entry
                "ljt,jt->lj", tables[..., 1:], np.repeat(rows[:, block[1]], np.diff(offsets), 0)))
            rows[:, states] = np.maximum.reduceat(r, offsets[:-1], axis=1).T
        return rows

    def entry():
        rows = _read_only(sweep())
        # a stacked (1, S) @ (S,) product per row is the same dot product as
        # `initial_dist @ v`; a (K, S) @ (S,) one may round differently
        returns = (rows[:, None] @ m.initial_dist)[:, 0]
        return rows, CharacteristicGame(m.num_agents, returns - returns[0])
    return memo(_GAME_CACHE, key, entry)


def one_step_model(action_counts: tuple[int, ...],
                   reward_row) -> tuple[Mmdp, JointPolicy]:
    """The one-step layout: from the initial state every joint action earns
    its `reward_row` entry and moves to the terminal state 1; discount DISCOUNT,
    and the behavior plays action 0 everywhere."""
    num_actions = len(reward_row)
    reward = np.vstack([reward_row, np.zeros(num_actions)])
    transition = np.zeros((2, num_actions, 2))
    transition[:, :, 1] = 1.0
    model = Mmdp(2, len(action_counts), action_counts, _read_only(reward),
                 _read_only(transition), DISCOUNT, np.array([1.0, 0.0]), frozenset({1}))
    one_hot = {k: AgentPolicy(_read_only(np.eye(k)[[0, 0]])) for k in set(action_counts)}
    return model, JointPolicy(tuple(one_hot[k] for k in action_counts))  # shared, read-only


def mmdp_from_game(f: CharacteristicGame) -> tuple[Mmdp, JointPolicy]:
    """Realize a monotone set function with f(empty) = 0 as a one-step model
    with binary actions: the reward of a joint action equals f(S) where S is
    the set of agents playing 1. characteristic_game of the result
    reproduces f exactly: with the complement pinned to 0, a coalition's
    reachable values are f(T) for T inside the coalition, and monotonicity
    makes f(S) the maximum.
    """
    problems = f.validate(tol=0.0) if f.num_agents else ["num_agents is 0, fewer than 1"]
    if problems:
        raise ValueError("set function not realizable: " + "; ".join(problems))
    n = f.num_agents
    # joint action j earns f at mask j with its n bits reversed, the agents
    # playing 1 (agent 0 is the most significant binary digit of j)
    return one_step_model((2,) * n, f.values[
        membership(n) @ (1 << np.arange(n - 1, -1, -1))])
