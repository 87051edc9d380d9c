"""Small model and policy generators and per-mask loop oracles shared by the
test modules."""
from math import factorial

import numpy as np

from blamekit import envs, planning
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


def compose(br, behavior):
    """The joint policy in which br's coalition deviates and the rest keep
    behavior."""
    for i, ap in br.policy.items():
        behavior = behavior.replace(i, ap)
    return behavior


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


# The full-width contraction over every complement action, and the kernel
# as it was before q was scattered from the played entries: the references
# `planning._induced` must match.

def index_stack(m, masks):
    """(K, A_C, A_D) stack of coalition_action_index for masks of equal A_C."""
    return np.stack([planning.coalition_action_index(
        m, planning.mask_agents(int(mask), m.num_agents)) for mask in masks])


def complement_conditional(m, table, idx):
    """The behavior's normalized complement conditional q (..., S, A_D),
    gathered and summed over every coalition action of the index (stack)."""
    q = np.take(table, planning._flat_index(m, idx)).sum(axis=-2)
    totals = q.sum(axis=-1)
    return q / np.where(totals > 0, totals, 1.0)[..., None]


def induced_full(m, table, idx):
    """Reward (..., S, A_C) and transition (..., S, A_C, S) marginalized over
    all A_D complement actions, zero-probability ones included."""
    return planning.marginalize(complement_conditional(m, table, idx),
                                *planning.coalition_tables(m, idx))


def induced_gathered(m, table, idx):
    """The gathered q compressed to each row's played complement actions
    (ascending, zero-padded to the widest row), then marginalized."""
    q = complement_conditional(m, table, idx)
    keep = np.argsort(q == 0, axis=-1, kind="stable")[..., :np.count_nonzero(q, -1).max()]
    outside = np.take_along_axis(idx[..., None, 0, :], keep, -1)
    flat = planning._flat_index(m, idx[..., :1]) + outside[..., None, :]
    return planning.marginalize(np.take_along_axis(q, keep, -1),
                                *planning._gather(m, flat))


# The per-agent product tables and the state order as `uncertainty` built
# them before `mmdp.product_table` and the peeled levels: the references
# `_CoalitionProblem` and `_topological_levels` must match.

def complement_columns(m, others):
    """Each complement agent's action in every complement joint action."""
    dims = [m.action_counts[j] for j in others]
    num_d = int(np.prod(dims))
    digits = np.unravel_index(np.arange(num_d), dims) if dims else ()
    return num_d, dict(zip(others, digits))


def complement_product_loop(m, uset, others, subset):
    """(S, A_D) product of `subset`'s center rows over the complement
    `others`' joint actions: a ones table scaled in place per agent."""
    num_d, cols = complement_columns(m, others)
    table = np.ones((m.num_states, num_d))
    for j in subset:
        table *= uset.center.agents[j].probs[:, cols[j]]
    return table


def relaxed_box_loop(m, uset, agents):
    """(lower, upper): each joint entry over `agents`' actions is the
    product of the clipped per-agent interval endpoints."""
    lower = np.ones((m.num_states, 1))
    upper = np.ones((m.num_states, 1))
    for i in sorted(agents):
        probs = uset.center.agents[i].probs
        r = uset.agent_radius(i)
        lo = np.maximum(probs - r, 0.0)
        hi = np.minimum(probs + r, 1.0)
        lower = (lower[:, :, None] * lo[:, None, :]).reshape(m.num_states, -1)
        upper = (upper[:, :, None] * hi[:, None, :]).reshape(m.num_states, -1)
    return lower, upper


def corner_factors_loop(m, uset, others, uncertain):
    """Per uncertain agent, (S, 2, A_D): its low and high interval ends
    (on action 0) gathered per complement column."""
    _, cols = complement_columns(m, others)
    factors = []
    for j in uncertain:
        probs = uset.center.agents[j].probs
        r = uset.agent_radius(j)
        lo0 = np.maximum(probs[:, 0] - r, 0.0)
        hi0 = np.minimum(probs[:, 0] + r, 1.0)
        ends = np.stack([np.stack([lo0, 1.0 - lo0], axis=1),
                         np.stack([hi0, 1.0 - hi0], axis=1)], axis=1)
        factors.append(ends[:, :, cols[j]])
    return factors


def kahn_order(m, edge_tol):
    """States ordered so transitions only point forward (sources first), or
    None if the model has a cycle beyond terminal self-loops."""
    reach = m.transition.max(axis=1) > edge_tol
    succ = [set(np.flatnonzero(reach[s])) - {s} for s in range(m.num_states)]
    for s in range(m.num_states):
        if s not in m.terminal_states and reach[s, s]:
            return None
    indeg = np.zeros(m.num_states, dtype=np.int64)
    for s in range(m.num_states):
        for t in succ[s]:
            indeg[t] += 1
    queue = [s for s in range(m.num_states) if indeg[s] == 0]
    order = []
    while queue:
        s = queue.pop()
        order.append(s)
        for t in succ[s]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return order if len(order) == m.num_states else None


# The robust choosers as per-state, per-row loops, the way `uncertainty`
# ran them before they took stacks of states: the references the array
# choosers of `_CoalitionProblem` must match byte for byte.

def fold_loop(b, certain_row, ball_col, k):
    """(A_C, k): the complement columns of one state's backup b (A_C, A_D),
    weighted by the certain agents' product, added per ball action in
    ascending column order."""
    folded = np.zeros((b.shape[0], k))
    np.add.at(folded.T, ball_col, (b * certain_row).T)
    return folded


def ball_row_max_loop(b, p, eps):
    """Maximize q . b over the half-L1 ball of radius eps around p on the
    simplex: shift mass from the lowest-valued coordinates to the best one."""
    target = int(np.argmax(b))
    q = p.copy()
    budget = eps
    for j in np.argsort(b, kind="stable"):
        if j == target or budget <= 0 or b[target] - b[j] <= 0:
            continue
        take = min(budget, q[j])
        q[j] -= take
        q[target] += take
        budget -= take
    return float(q @ b), q


def ball_max_loop(b, p, eps, certain_row, ball_col):
    best_val, best_q = -np.inf, None
    for row in fold_loop(b, certain_row, ball_col, p.size):
        val, q = ball_row_max_loop(row, p, eps)
        if val > best_val:
            best_val, best_q = val, q
    return best_val, certain_row * best_q[ball_col]


def corner_max_loop(b, vertex_rows):
    """The first vertex row q (of one state) whose best row of b @ q is
    greatest."""
    best_val, best_q = -np.inf, None
    for q in vertex_rows:
        val = float((b @ q).max())
        if val > best_val:
            best_val, best_q = val, q
    return best_val, best_q


def box_max_loop(b, lo, hi):
    """Per row, the greedy that raises lo toward hi in descending payoff
    order until the mass runs out; the first best row wins."""
    best_val, best_q = -np.inf, None
    for row in b:
        q = lo.copy()
        remaining = 1.0 - lo.sum()
        for d in np.argsort(-row, kind="stable"):
            if remaining <= 1e-15:
                break
            add = min(remaining, hi[d] - lo[d])
            q[d] += add
            remaining -= add
        val = float(row @ q)
        if val > best_val:
            best_val, best_q = val, q
    return best_val, best_q


# The gridworld as it was built one (state, move, override) at a time: the
# reference `envs.build_gridworld` must match bit for bit.

_GRID_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))  # left, right, up, down


def destination(cell, move):
    """Where a move from a cell lands; off the map it stays put."""
    row, col = divmod(cell, envs.GRID_SIZE)
    dr, dc = _GRID_MOVES[move]
    nr, nc = row + dr, col + dc
    if 0 <= nr < envs.GRID_SIZE and 0 <= nc < envs.GRID_SIZE:
        return nr * envs.GRID_SIZE + nc
    return cell


def single_agent_plan_loop(rows, rewards, discount):
    """Optimal per-cell move of the lone actor under the given cell costs."""
    num = envs.GRID_SIZE * envs.GRID_SIZE
    r = np.zeros((num, 4))
    p = np.zeros((num, 4, num))
    for s in range(num):
        cell = rows[s // envs.GRID_SIZE][s % envs.GRID_SIZE]
        for a in range(4):
            if cell == "G":
                p[s, a, s] = 1.0
                continue
            dest = destination(s, a)
            r[s, a] = rewards[rows[dest // envs.GRID_SIZE][dest % envs.GRID_SIZE]]
            p[s, a, dest] = 1.0
    _, policy = planning.solve_mdp(r, p, discount)
    return policy


def gridworld_loop(spec):
    """`build_gridworld`'s (model, behavior), filled entry by entry."""
    size = envs.GRID_SIZE
    rows = envs.parse_map(spec.map_text if spec.map_text is not None
                          else envs.default_map())
    num = size * size
    blind_rewards = dict(envs.CELL_REWARDS, F=envs.CELL_REWARDS["."],
                         H=envs.CELL_REWARDS["."])
    opt = single_agent_plan_loop(rows, envs.CELL_REWARDS, spec.discount)
    blind = single_agent_plan_loop(rows, blind_rewards, spec.discount)

    reward = np.zeros((num, 8))
    transition = np.zeros((num, 8, num))
    terminals = frozenset(s for s in range(num) if rows[s // size][s % size] == "G")
    for s in range(num):
        for a1 in range(4):
            for a2 in range(2):
                ja = a1 * 2 + a2
                if s in terminals:
                    transition[s, ja, s] = 1.0
                    continue
                executed = opt[s] if a2 == 1 else a1
                dest = destination(s, int(executed))
                reward[s, ja] = envs.CELL_REWARDS[rows[dest // size][dest % size]]
                if a2 == 1:
                    reward[s, ja] += spec.intervention_cost
                transition[s, ja, dest] = 1.0
    starts = [s for s in range(num) if rows[s // size][s % size] == "S"]
    initial = np.zeros(num)
    initial[starts] = 1.0 / len(starts)
    model = Mmdp(num, 2, (4, 2), reward, transition, spec.discount,
                 initial, terminals)

    def pilot_policy(alpha):
        table = np.zeros((num, 4))
        opt_weight = alpha + (1.0 - alpha) * spec.personal_mix
        for s in range(num):
            table[s, opt[s]] += opt_weight
            table[s, blind[s]] += 1.0 - opt_weight
        return AgentPolicy(table)

    trainee = JointPolicy((pilot_policy(spec.alpha_prime),
                           AgentPolicy.uniform(num, 2)))
    overseer = planning.best_response(model, trainee, (1,)).policy[1]
    return model, JointPolicy((pilot_policy(spec.alpha), overseer))
