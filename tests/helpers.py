"""Small model and policy generators and per-mask loop oracles shared by the
test modules."""
from math import factorial

import numpy as np

from blamekit import planning
from blamekit.mmdp import AgentPolicy, JointPolicy, Mmdp


def random_mmdp(rng, num_states=4, action_counts=(2, 3), gamma=0.9):
    """A dense random model: dirichlet transition rows, uniform(-1, 1) rewards."""
    A = int(np.prod(action_counts))
    reward = rng.uniform(-1.0, 1.0, size=(num_states, A))
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, A))
    initial = rng.dirichlet(np.ones(num_states))
    return Mmdp(num_states, len(action_counts), tuple(action_counts),
                reward, transition, gamma, initial)


def random_factorized(rng, m):
    """A random stochastic factorized policy matching the model's shape."""
    agents = []
    for k in m.action_counts:
        agents.append(AgentPolicy(rng.dirichlet(np.ones(k), size=m.num_states)))
    return JointPolicy(tuple(agents))


# Plain per-mask loops: the reference the array forms of the attribution
# methods and the rationality check must match bit for bit.

def _masks_without(n, i):
    """Every mask over n agents that excludes bit i, ascending."""
    return [mask for mask in range(1 << n) if not mask >> i & 1]


def weighted_marginals_loop(values, n, weights):
    blames = np.zeros(n)
    for i in range(n):
        for mask in _masks_without(n, i):
            size = bin(mask).count("1")
            blames[i] += weights[size] * (values[mask | 1 << i] - values[mask])
    return blames


def shapley_loop(game):
    n = game.num_agents
    weights = [factorial(s) * factorial(n - s - 1) / factorial(n)
               for s in range(n)]
    return weighted_marginals_loop(game.values, n, weights)


def banzhaf_loop(game):
    n = game.num_agents
    return weighted_marginals_loop(game.values, n, [1.0 / (1 << (n - 1))] * n)


def pivotality_loop(game):
    return tuple(bool(b > 1e-9) for b in shapley_loop(game))


def average_participation_loop(game):
    n = game.num_agents
    pivotal = pivotality_loop(game)
    w = 1.0 / ((1 << n) - 1)
    blames = np.zeros(n)
    for i in range(n):
        if not pivotal[i]:
            continue
        for mask in _masks_without(n, i):
            sharers = 1 + sum(1 for j in range(n) if mask >> j & 1 and pivotal[j])
            blames[i] += w * game.values[mask | 1 << i] / sharers
    return blames


def rationality_loop(game, blames):
    """(worst gap, its mask) over all coalitions; (0.0, -1) when no
    coalition is blamed beyond its inefficiency."""
    n = game.num_agents
    worst_gap, worst_mask = 0.0, -1
    for mask in range(1, 1 << n):
        total = sum(blames[i] for i in range(n) if mask >> i & 1)
        gap = total - game.values[mask]
        if gap > worst_gap:
            worst_gap, worst_mask = gap, mask
    return worst_gap, worst_mask


# Plain lattice loops: the reference `properties.random_monotone_game` and
# `uncertainty._monotone_closure` must match byte for byte.

def random_monotone_game_loop(n, seed):
    """One coalition at a time in (size, mask) order: the floor is the first
    maximum over immediate subsets, then one draw decides a zero increment
    and, when it is not, a second draw is the increment."""
    rng = np.random.default_rng(seed)
    values = np.zeros(1 << n)
    for mask in sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m)):
        floor = max(values[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        increment = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0))
        values[mask] = floor + increment
    return values


def monotone_closure_loop(values, n):
    closed = values.copy()
    closed[0] = 0.0
    for mask in sorted(range(1, 1 << n), key=lambda x: bin(x).count("1")):
        floor = max(closed[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        if closed[mask] < floor:
            closed[mask] = floor
    return closed


# The full-width contraction over every complement action: the reference
# `planning._induced`, which gathers only the actions the behavior plays,
# must match.

def complement_conditional(m, table, idx):
    """The behavior's normalized complement conditional q (..., S, A_D)."""
    q = np.take(table, planning._flat_index(m, idx)).sum(axis=-2)
    totals = q.sum(axis=-1)
    return q / np.where(totals > 0, totals, 1.0)[..., None]


def induced_full(m, table, idx):
    """Reward (..., S, A_C) and transition (..., S, A_C, S) marginalized over
    all A_D complement actions, zero-probability ones included."""
    return planning.marginalize(complement_conditional(m, table, idx),
                                *planning.coalition_tables(m, idx))
