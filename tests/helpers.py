"""Small model and policy generators and per-mask loop oracles shared by the
test modules."""
from math import factorial

import numpy as np

from blamekit import attribution, envs, lp, planning, properties, uncertainty
from blamekit.lp import PIVOT_TOL, LpSolution, _pivot, _run_simplex
from blamekit.mmdp import AgentPolicy, JointPolicy, Mmdp, as_joint_table, policy_values


def random_mmdp(rng, num_states=4, action_counts=(2, 3), gamma=0.9):
    """A dense random model: dirichlet transition rows, uniform(-1, 1) rewards."""
    A = int(np.prod(action_counts))
    reward = rng.uniform(-1.0, 1.0, size=(num_states, A))
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, A))
    initial = rng.dirichlet(np.ones(num_states))
    return Mmdp(num_states, len(action_counts), tuple(action_counts),
                reward, transition, gamma, initial)


def random_acyclic_mmdp(rng, num_states=3, action_counts=(2, 3), gamma=0.9):
    """random_mmdp whose transitions only point to later states, into a
    last state that absorbs with zero reward; it starts in state 0."""
    m = random_mmdp(rng, num_states, action_counts, gamma)
    reward, transition = m.reward.copy(), np.zeros_like(m.transition)
    for s in range(num_states - 1):
        transition[s, :, s + 1:] = rng.dirichlet(np.ones(num_states - s - 1),
                                                  size=m.num_joint_actions)
    transition[-1, :, -1] = 1.0
    reward[-1] = 0.0
    return Mmdp(num_states, m.num_agents, m.action_counts, reward, transition,
                gamma, np.eye(num_states)[0], frozenset({num_states - 1}))


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


# The forms that the unmasked pivot, the coalition-sum kernel and the
# screened symmetry check replaced: the references they must match bit for
# bit.

def masked_pivot(tableau, basis, nonbasic, row, pos, col):
    """`lp._pivot` leaving the dictionary rows with a zero in the entering
    column untouched (the tableau is column-major, as `lp` stores it)."""
    tableau[pos] = 0.0
    tableau[pos, row] = 1.0
    tableau[:, row] /= col[row]
    col[row] = 0.0
    np.subtract(tableau, np.outer(tableau[:, row], col), out=tableau,
                where=(col != 0)[None, :])
    basis[row], nonbasic[pos] = nonbasic[pos], basis[row]


# The simplex as it stood before the column-major dictionary and the resumed
# tiebreak: row-major, one cold solve for the primary and one for the
# tiebreak. `lp.solve` and `lp.solve_lexicographic` must match it bit for bit.

def pivot_row_major(tableau, basis, nonbasic, row, pos, col):
    tableau[:, pos] = 0.0
    tableau[row, pos] = 1.0
    tableau[row] /= col[row]
    col[row] = 0.0
    tableau -= col[:, None] * tableau[row]
    basis[row], nonbasic[pos] = nonbasic[pos], basis[row]


def _run_simplex_row_major(tableau, basis, nonbasic, limit):
    while True:
        entering = ((tableau[-1, :-1] < -lp.PIVOT_TOL)
                    & (nonbasic < limit)).nonzero()[0]
        if entering.size == 0:
            return "optimal"
        pos = entering[nonbasic[entering].argmin()]
        col = tableau[:, pos].copy()
        rows = (col[:-1] > lp.PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + lp.PIVOT_TOL]
        pivot_row_major(tableau, basis, nonbasic, tied[basis[tied].argmin()],
                        pos, col)


def solve_row_major(program):
    c = program.objective
    a = program.constraint_matrix
    b = program.constraint_bounds
    num_rows, num_vars = a.shape
    first_art = num_vars + num_rows
    flipped = (b < 0).nonzero()[0]
    tableau = np.zeros((num_rows + 1, num_vars + flipped.size + 1))
    tableau[:num_rows, :num_vars] = a
    tableau[flipped, :num_vars] *= -1.0
    tableau[flipped, num_vars + np.arange(flipped.size)] = -1.0
    tableau[:num_rows, -1] = np.abs(b)
    nonbasic = np.concatenate([np.arange(num_vars), num_vars + flipped])
    basis = np.arange(num_vars, first_art)
    basis[flipped] = first_art + np.arange(flipped.size)
    if flipped.size:
        for r in flipped:
            tableau[-1] -= tableau[r]
        status = _run_simplex_row_major(tableau, basis, nonbasic,
                                        first_art + flipped.size)
        if status != "optimal" or tableau[-1, -1] < -1e-8:
            return lp.LpSolution("infeasible", None, None)
        for r in (basis >= first_art).nonzero()[0]:
            cand = ((nonbasic < first_art)
                    & (np.abs(tableau[r, :-1]) > lp.PIVOT_TOL)).nonzero()[0]
            if cand.size:
                pos = cand[nonbasic[cand].argmin()]
                pivot_row_major(tableau, basis, nonbasic, r, pos,
                                tableau[:, pos].copy())
        keep = nonbasic < first_art
        tableau = tableau[:, np.append(keep, True)]
        nonbasic = nonbasic[keep]
    tableau[-1] = 0.0
    structural = nonbasic < num_vars
    tableau[-1, :-1][structural] = -c[nonbasic[structural]]
    for r in (basis < num_vars).nonzero()[0]:
        coef = -c[basis[r]]
        if coef != 0:
            tableau[-1] -= coef * tableau[r]
    if _run_simplex_row_major(tableau, basis, nonbasic, first_art) == "unbounded":
        return lp.LpSolution("unbounded", None, None)
    x = np.zeros(num_vars)
    rows = (basis < num_vars).nonzero()[0]
    x[basis[rows]] = tableau[rows, -1]
    return lp.LpSolution("optimal", x, float(c @ x))


def primary_of(program):
    """The primary that `lp.solve_lexicographic` resumes: the solution of
    `program` and the `lp.Resume` note that watched its pivots."""
    return lp.solve(program, resume := lp.Resume()), resume


def solve_lexicographic_cold(program, tiebreak):
    first = solve_row_major(program)
    if first.status != "optimal":
        return first
    opt = first.objective_value
    a2 = np.vstack([program.constraint_matrix, -program.objective])
    b2 = np.append(program.constraint_bounds, -opt + 1e-9)
    second = solve_row_major(lp.LinearProgram(
        np.asarray(tiebreak, dtype=float), a2, b2))
    if second.status != "optimal":
        return second
    return lp.LpSolution("optimal", second.point,
                         float(program.objective @ second.point))


# `lp._finish` as it stood when phase 2 ran on a copy of phase 1's dictionary
# without the nonbasic artificials' rows, kept verbatim: `lp._finish`, which
# keeps those rows and bars them by its entering limit alone, must match it
# bit for bit. It calls `_run_simplex` and `_pivot` as bound at import.

def finish_dropping_artificials(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                                c: np.ndarray, note=None) -> LpSolution:
    """Phase 1 while an artificial is basic, then phase 2 for max c @ x;
    `note` sees phase 2's pivots where no phase 1 ran."""
    num_vars = c.size
    first_art = num_vars + basis.size
    if nonbasic.size > num_vars:
        note = None
        status = _run_simplex(tableau, basis, nonbasic, basis.size + nonbasic.size)
        if status != "optimal" or tableau[-1, -1] < -1e-8:
            return LpSolution("infeasible", None, None)
        # Drive any artificial still basic (at zero) out of the basis.
        for r in (basis >= first_art).nonzero()[0]:
            cand = ((nonbasic < first_art)
                    & (np.abs(tableau[:-1, r]) > PIVOT_TOL)).nonzero()[0]
            if cand.size:
                pos = cand[nonbasic[cand].argmin()]
                _pivot(tableau, basis, nonbasic, r, pos, tableau[pos].copy())
        # Artificials never re-enter: drop the nonbasic ones, and the limit
        # below bars one that leaves the basis in phase 2.
        keep = nonbasic < first_art
        tableau = tableau[np.append(keep, True)]
        nonbasic = nonbasic[keep]

    # Phase 2 objective (maximize c @ x as minimize -c @ x), priced out
    # row by row over the rows whose basic variable is structural.
    tableau[:, -1] = 0.0
    structural = nonbasic < num_vars
    tableau[:-1, -1][structural] = -c[nonbasic[structural]]
    for r in (basis < num_vars).nonzero()[0]:
        coef = -c[basis[r]]
        if coef != 0:
            tableau[:, -1] -= coef * tableau[:, r]
    if _run_simplex(tableau, basis, nonbasic, first_art, note) == "unbounded":
        return LpSolution("unbounded", None, None)
    x = np.zeros(num_vars)
    rows = (basis < num_vars).nonzero()[0]
    x[basis[rows]] = tableau[-1, rows]
    return LpSolution("optimal", x, float(c @ x))


def check_rationality_where(game, beta, epsilon=0.0):
    """`properties.check_rationality` with member totals summed by `cumsum`
    over a (2^n - 1, n) `np.where` table."""
    blames = attribution.as_blames(beta)
    n = game.num_agents
    totals = attribution.sequential_sums(
        np.where(planning.membership(n)[1:], blames, 0.0))
    gaps = np.concatenate([[0.0], totals - game.values[1:]])
    worst = int(np.argmax(gaps))
    if gaps[worst] <= epsilon + properties.SLACK:
        return properties.PropertyVerdict("R_R", epsilon)
    members = " ".join(str(i + 1) for i in range(n) if worst >> i & 1)
    return properties.PropertyVerdict(
        "R_R", epsilon, witness=f"coalition {{{members}}} blamed "
                                f"{gaps[worst]:.6g} beyond its inefficiency")


def check_symmetry_pairwise(game, beta, epsilon=0.0):
    """`properties.check_symmetry` as one loop over the pairs i < j, each
    compared on every coalition without both."""
    blames = attribution.as_blames(beta)
    n, values = game.num_agents, game.values
    for i in range(n):
        for j in range(i + 1, n):
            if not abs(blames[i] - blames[j]) > epsilon + properties.SLACK:
                continue
            if not any(abs(values[mask | 1 << i] - values[mask | 1 << j])
                       > properties.PREMISE_TOL
                       for mask in range(1 << n) if not mask & (1 << i | 1 << j)):
                return properties.PropertyVerdict(
                    "R_S", epsilon,
                    witness=f"interchangeable agents {i + 1} and {j + 1} get "
                            f"{blames[i]:.6g} vs {blames[j]:.6g}")
    return properties.PropertyVerdict("R_S", epsilon)


# The agent and pair checkers as they scanned before they flagged violators
# in arrays: one agent, or one pair (j, k) in row order, at a time. Verdicts
# and witnesses of `properties` must equal theirs.

def masks_without_pair(n, i, j):
    """Ascending masks that exclude both agents i and j."""
    without = planning.marginal_masks(n)[0][i]
    return without[(without >> j & 1) == 0]


def symmetric_pair(game, i, j):
    values = game.values
    masks = masks_without_pair(game.num_agents, i, j)
    gaps = np.abs(values[masks | 1 << i] - values[masks | 1 << j])
    return not (gaps > properties.PREMISE_TOL).any()


def check_symmetry_screened(game, beta, epsilon=0.0):
    """The pairs (i < j) blamed apart whose singletons agree, tested one at
    a time on every coalition without both."""
    n = game.num_agents
    blames = attribution.as_blames(beta, n)
    singles = game.values[1 << np.arange(n)]
    screened = np.triu((np.abs(blames[:, None] - blames) > epsilon + properties.SLACK)
                       & ~(np.abs(singles[:, None] - singles) > properties.PREMISE_TOL), 1)
    for i, j in zip(*np.nonzero(screened)):
        if symmetric_pair(game, i, j):
            return properties.PropertyVerdict(
                "R_S", epsilon,
                witness=f"interchangeable agents {i + 1} and {j + 1} get "
                        f"{blames[i]:.6g} vs {blames[j]:.6g}")
    return properties.PropertyVerdict("R_S", epsilon)


def check_invariance_loop(game, beta, epsilon=0.0):
    n = game.num_agents
    blames = attribution.as_blames(beta, n)
    marginal = (attribution.marginals(game.values, game.values, n)
                > properties.PREMISE_TOL).any(axis=1)
    for i in range(n):
        if not marginal[i] and blames[i] > epsilon + properties.SLACK:
            return properties.PropertyVerdict(
                "R_I", epsilon,
                witness=f"agent {i + 1} never marginal but blamed {blames[i]:.6g}")
    return properties.PropertyVerdict("R_I", epsilon)


def check_contribution_monotonicity_loop(game1, beta1, game2, beta2, epsilon=0.0):
    n = game1.num_agents
    b1, b2 = attribution.as_blames(beta1, n), attribution.as_blames(beta2, n)
    dominating = (attribution.marginals(game1.values, game1.values, n)
                  >= attribution.marginals(game2.values, game2.values, n)
                  - properties.PREMISE_TOL).all(axis=1)
    for i in range(n):
        if dominating[i] and b1[i] < b2[i] - epsilon - properties.SLACK:
            return properties.PropertyVerdict(
                "R_CM", epsilon,
                witness=f"agent {i + 1} dominates marginally but blame fell "
                        f"{b1[i]:.6g} < {b2[i]:.6g}")
    return properties.PropertyVerdict("R_CM", epsilon)


def check_cpart_loop(game1, beta1, game2, beta2, epsilon=0.0):
    n = game1.num_agents
    b1, b2 = attribution.as_blames(beta1, n), attribution.as_blames(beta2, n)
    if attribution.pivotality(game1).flags != attribution.pivotality(game2).flags:
        return properties.PropertyVerdict("R_cParM", epsilon)
    with_ = planning.marginal_masks(n)[1]
    dominating = (game1.values[with_]
                  >= game2.values[with_] - properties.PREMISE_TOL).all(axis=1)
    for j in range(n):
        if dominating[j] and b1[j] < b2[j] - epsilon - properties.SLACK:
            return properties.PropertyVerdict(
                "R_cParM", epsilon,
                witness=f"agent {j + 1} participates in dominating coalitions but "
                        f"blame fell {b1[j]:.6g} < {b2[j]:.6g}")
    return properties.PropertyVerdict("R_cParM", epsilon)


def check_rcpart_loop(game1, beta1, game2, beta2, epsilon=0.0):
    n = game1.num_agents
    b1, b2 = attribution.as_blames(beta1, n), attribution.as_blames(beta2, n)
    piv1 = attribution.pivotality(game1).flags
    if piv1 != attribution.pivotality(game2).flags:
        return properties.PropertyVerdict("R_RcParM", epsilon)
    gain = game1.values - game2.values
    for j in range(n):
        for k in range(n):
            if j == k or piv1[j] != piv1[k]:
                continue
            masks = masks_without_pair(n, j, k)
            premise = (gain[masks | 1 << j]
                       >= gain[masks | 1 << k] - properties.PREMISE_TOL).all()
            if premise and ((b1[j] - b2[j])
                            < (b1[k] - b2[k]) - epsilon - properties.SLACK):
                return properties.PropertyVerdict(
                    "R_RcParM", epsilon,
                    witness=f"agent {j + 1} gains inefficiency faster than agent "
                            f"{k + 1} but blame moved {b1[j] - b2[j]:.6g} vs "
                            f"{b1[k] - b2[k]:.6g}")
    return properties.PropertyVerdict("R_RcParM", epsilon)

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


# The full-width contraction over every complement action, of the whole
# model or cut to a block's states and columns: the references
# `planning._induced` must match.

def index_stack(m, masks):
    """(K, A_C, A_D) stack of coalition_action_index for masks of equal A_C."""
    return np.stack([planning.coalition_action_index(
        m, planning.mask_agents(int(mask), m.num_agents)) for mask in masks])


def flat_index(m, idx):
    """(..., S, A_C, A_D) positions of each state's idx entries in a
    flattened (S, A) table."""
    return idx[..., None, :, :] + (np.arange(m.num_states) * m.num_joint_actions)[:, None, None]


def complement_conditional(m, table, idx):
    """The behavior's normalized complement conditional q (..., S, A_D),
    gathered and summed over every coalition action of the index (stack)."""
    q = np.take(table, flat_index(m, idx)).sum(axis=-2)
    totals = q.sum(axis=-1)
    return q / np.where(totals > 0, totals, 1.0)[..., None]


def coalition_tables_full(m, idx):
    """Reward (..., S, A_C, A_D) and transition (..., S, A_C, A_D, S) of
    every joint action that the index (stack) idx names, by flat takes into
    C-order arrays (the layout of the kernel's own gathers)."""
    flat = flat_index(m, idx)
    return np.take(m.reward, flat), np.take(m.transition.reshape(-1, m.num_states), flat, axis=0)


def contract_full(q, reward, transition):
    """Reward (..., S, A_C) and transition (..., S, A_C, S) of the tables
    above contracted with the complement conditional q (..., S, A_D)."""
    return (np.einsum("...sd,...scd->...sc", q, reward),
            np.einsum("...sd,...scdt->...sct", q, transition))


def induced_full(m, table, idx):
    """Reward (..., S, A_C) and transition (..., S, A_C, S) marginalized over
    all A_D complement actions, zero-probability ones included."""
    return contract_full(complement_conditional(m, table, idx), *coalition_tables_full(m, idx))


def induced_gathered(m, table, idx, blocks):
    """`induced_full`'s reward (..., S, A_C) and, per block (states, columns,
    ...) of `planning._induced`, its transitions (..., L, A_C, Z): each
    block's gather taken S wide and cut to the block's states and columns
    before the contraction (into C order, the layout of the kernel's own
    gathers, which fixes einsum's sums)."""
    q = complement_conditional(m, table, idx)
    reward, transition = coalition_tables_full(m, idx)
    return (np.einsum("...sd,...scd->...sc", q, reward),
            [np.einsum("...sd,...scdt->...sct", q[..., states, :],
                       np.ascontiguousarray(transition[..., states, :, :, :][..., columns]))
             for states, columns, *_ in blocks])


def chunked_product_sweep(m, behavior):
    """`planning.coalition_values` (not read-only) of an acyclic model under a
    `JointPolicy`, swept as it was before a level backed up all its entries
    at once: per level the same `planning._lattice`, then one take of each
    `planning._coalition_chunks` chunk's (K, L, A_C, 1 + Z) tables, each
    backed up as (r + γ·ahead).max(-1), with ahead 0.0 on the first level.
    The reference the level-wide segment max must match bit for bit."""
    table = as_joint_table(m, behavior)
    levels = planning._topological_levels(m)
    rows = np.zeros((1 << m.num_agents, m.num_states))
    rows[0] = policy_values(m, table)
    blocks = []  # per later level: its states, nonterminal successor columns, their rows, shift
    for s in levels[1:]:
        z = np.flatnonzero((block := m.transition[s]).any(axis=(0, 1)))
        z = z[[t not in m.terminal_states for t in z.tolist()]]
        blocks.append((s, z, block[..., z].reshape(s.size * m.num_joint_actions, -1),
                       (np.arange(s.size) - s)[:, None, None] * m.num_joint_actions))
    dead, offsets = ~(table.sum(axis=1) > 0), planning._subgrids(m.action_counts)[1]
    probs = [a.probs / np.where(dead, 1.0, a.probs.sum(axis=1))[:, None] for a in behavior.agents]
    chunks = list(planning._coalition_chunks(m, False, blocks))
    for states, block in zip(levels, [None, *blocks]):
        lattice = planning._lattice([p[states] for p in probs], dead[states], m.reward[states],
                                    *[] if block is None else [block[2]])
        starts = np.arange(0, lattice.shape[0], offsets[-1])[:, None]
        for masks in chunks:
            columns = offsets[masks][:, None, None] + np.arange(offsets[masks[0] + 1] - offsets[masks[0]])
            tables = lattice.take(columns + starts, 0)
            ahead = 0.0 if block is None else np.einsum(
                "ksat,kt->ksa", tables[..., 1:], rows[masks[:, None], block[1]])
            rows[masks[:, None], states] = (tables[..., 0] + m.discount * ahead).max(axis=-1)
    return rows


def per_agent_rows(m, behavior):
    """Each agent's (S, k) rows over their sums, agent by agent, as the product
    sweep normalized them before it stacked the agents of each action count;
    all 0 where the joint table plays nothing. The reference every
    `planning._lattice` call's rows must match byte for byte."""
    dead = ~(as_joint_table(m, behavior).sum(axis=1) > 0)
    return [a.probs / np.where(dead, 1.0, a.probs.sum(axis=1))[:, None] for a in behavior.agents]


def peel_levels(m):
    """`planning._topological_levels` as it peeled before its reach was one
    bool contraction and its terminal states one mask: the reference the
    peel must match byte for byte, levels and None alike."""
    reach = m.transition.max(axis=1) > planning._EDGE_TOL
    loops = np.flatnonzero(np.diagonal(reach))
    if not m.terminal_states.issuperset(loops.tolist()):
        return None
    np.fill_diagonal(reach, False)
    out_degree = reach.sum(axis=1)
    levels = [np.flatnonzero(out_degree == 0)]
    while levels[-1].size:  # every state whose successors are all peeled
        out_degree -= reach[:, levels[-1]].sum(axis=1)
        out_degree[levels[-1]] = -1
        levels.append(np.flatnonzero(out_degree == 0))
    kept = [level[[s not in m.terminal_states for s in level.tolist()]] for level in levels]
    return [level for level in kept if level.size] if out_degree.max() < 0 else None


def same_levels(levels, expected):
    """Both None, or the same levels with equal dtypes, shapes and bytes."""
    if levels is None or expected is None:
        return levels is expected
    return len(levels) == len(expected) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(levels, expected))


# The per-agent product tables and the state order as `uncertainty` built
# them before `mmdp.product_table` and the peeled levels: the references
# `uncertainty._chooser`'s tables, `RobustBounds._solve`'s center table and
# `_topological_levels` must match.

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
# choosers in `uncertainty._CHOOSERS` must match byte for byte.

def fold_loop(b, certain_row, ball_col, k):
    """(A_C, k): the complement columns of one state's backup b (A_C, A_D),
    weighted by the certain agents' product, added per ball action in
    ascending column order."""
    folded = np.zeros((b.shape[0], k))
    np.add.at(folded.T, ball_col, (b * certain_row).T)
    return folded


def ball_row_max_loop(b, p, eps):
    """Maximize q . b over the half-L1 ball of radius eps around p on the
    simplex: shift mass from the lowest-valued coordinates to the best one,
    until at most 1e-15 of the budget is left (`box_max_loop`'s stop)."""
    target = int(np.argmax(b))
    q = p.copy()
    budget = eps
    for j in np.argsort(b, kind="stable"):
        if j == target or budget <= 1e-15 or b[target] - b[j] <= 0:
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


def _highs_epigraph(linprog, payoffs, set_matrix, set_bounds, bounds):
    """min t s.t. payoffs @ q <= t, set_matrix @ x <= set_bounds, sum q == 1,
    x = (q, auxiliaries) within `bounds`, solved by HiGHS: the optimum and
    its q."""
    num_c, k = payoffs.shape
    width = len(bounds)
    a_ub = np.block([
        [payoffs, np.zeros((num_c, width - k)), -np.ones((num_c, 1))],
        [set_matrix, np.zeros((len(set_matrix), 1))]])
    res = linprog(np.r_[np.zeros(width), 1.0], A_ub=a_ub,
                  b_ub=np.r_[np.zeros(num_c), set_bounds],
                  A_eq=np.r_[np.ones(k), np.zeros(width - k + 1)][None],
                  b_eq=[1.0], bounds=list(bounds) + [(None, None)],
                  method="highs")
    assert res.status == 0, res.message
    return res.fun, res.x[:k]


def highs_box_min(linprog, payoffs, lo, hi):
    """min over q in [lo, hi] with sum q == 1 of max_c payoffs[c] . q."""
    return _highs_epigraph(linprog, payoffs, np.zeros((0, len(lo))), [],
                           list(zip(lo, hi)))


def highs_ball_min(linprog, payoffs, p, eps):
    """min over q on the simplex with 0.5 * L1(q, p) <= eps of max_c
    payoffs[c] . q, through one slack d_j >= |q_j - p_j| per action."""
    k, eye = len(p), np.eye(len(p))
    return _highs_epigraph(
        linprog, payoffs, np.block([[eye, -eye], [-eye, -eye],
                                    [np.zeros(k), np.ones(k)]]),
        np.r_[p, -p, 2.0 * eps], [(0, None)] * (2 * k))


def two_row_min(payoffs, greedy_min):
    """min over a set of q of max(b_0 . q, b_1 . q), exactly, for payoffs
    (b_0, b_1): by LP duality, the max over x in [0, 1] of the set's greedy
    min of ((1 - x) b_0 + x b_1) . q (a max greedy on the negated row).
    That min is concave in x and linear while the entries keep their order,
    so the max is at x = 0, x = 1 or a crossing of two entries."""
    b0, b1 = payoffs
    candidates = [0.0, 1.0]
    for j in range(len(b0)):
        for k in range(j + 1, len(b0)):
            slope = (b1[k] - b0[k]) - (b1[j] - b0[j])
            if slope != 0 and 0 < (b0[j] - b0[k]) / slope < 1:
                candidates.append((b0[j] - b0[k]) / slope)
    return max(greedy_min((1 - x) * b0 + x * b1) for x in candidates)


# The robust recursion replayed one state at a time from the loops above,
# with HiGHS as the min adversary (Iyengar, Robust Dynamic Programming, 2005):
# the oracle every `RobustBounds` value must match.

def _digits_code(digits, agents, counts):
    """Mixed-radix code of `agents`' digits, the first agent most significant."""
    code = 0
    for i in agents:
        code = code * counts[i] + int(digits[i])
    return code


def robust_chooser(m, uset, mask, mode, exact):
    """The tables and the chooser of one robust problem: the reward (S, A_C,
    A_D) and transition (S, A_C, A_D, S) per (coalition, complement) joint
    action, the center's complement conditional (S, A_D), and choose(b, s)
    -> (value, q) for one state's backups b (A_C, A_D). The chooser set
    follows the rule `RobustBounds._path` states, restated here."""
    from scipy.optimize import linprog

    counts = m.action_counts
    coalition = [i for i in range(m.num_agents) if mask >> i & 1]
    others = [j for j in range(m.num_agents) if not mask >> j & 1]
    uncertain = [j for j in others if uset.agent_radius(j) > 0]
    num_c = int(np.prod([counts[i] for i in coalition]))
    num_d, cols = complement_columns(m, others)
    reward = np.zeros((m.num_states, num_c, num_d))
    transition = np.zeros((m.num_states, num_c, num_d, m.num_states))
    for a in range(m.num_joint_actions):
        digits = np.unravel_index(a, counts)
        c, d = (_digits_code(digits, agents, counts) for agents in (coalition, others))
        reward[:, c, d] = m.reward[:, a]
        transition[:, c, d] = m.transition[:, a]
    center = complement_product_loop(m, uset, others, others)
    certain = complement_product_loop(
        m, uset, others, [j for j in others if j not in uncertain])
    lower, upper = relaxed_box_loop(m, uset, others)

    def box_min(b, s):
        return highs_box_min(linprog, b, lower[s], upper[s])

    def ball_min(b, s):
        p, eps = uset.center.agents[u].probs[s], uset.agent_radius(u)
        value, q = highs_ball_min(linprog, fold_loop(b, certain[s], cols[u], p.size),
                                  p, eps)
        return value, certain[s] * q[cols[u]]

    def corner_max(b, s):
        factors = corner_factors_loop(m, uset, others, uncertain)
        rows = []
        for vertex in range(1 << len(uncertain)):
            row = certain[s].copy()
            for bit, ends in enumerate(factors):
                row *= ends[s, vertex >> bit & 1]
            rows.append(row)
        return corner_max_loop(b, rows)

    if not uncertain:
        return reward, transition, center, lambda b, s: (
            float((b @ center[s]).max()), center[s])
    if exact is False:
        path = "box"
    elif len(uncertain) == 1:
        path, u = "ball", uncertain[0]
    elif mode == "max" and all(counts[j] == 2 for j in uncertain):
        path = "corner"
    else:
        path = "box"
    choose = {("box", "min"): box_min,
              ("box", "max"): lambda b, s: box_max_loop(b, lower[s], upper[s]),
              ("ball", "min"): ball_min,
              ("ball", "max"): lambda b, s: ball_max_loop(
                  b, uset.center.agents[u].probs[s], uset.agent_radius(u),
                  certain[s], cols[u]),
              ("corner", "max"): corner_max}[path, mode]
    return reward, transition, center, choose


def robust_replay(m, uset, mask, mode, exact, tol=uncertainty.RESIDUAL_TOL,
                  max_sweeps=1000):
    """The robust `mode` bound of coalition `mask`, state by state. An
    acyclic model backs states up in reverse Kahn order; a cyclic one starts
    from the best response against the center and sweeps, evaluating each
    sweep's chosen q exactly, until a sweep moves no value by more than
    tol * max(1, max |v|)."""
    reward, transition, q, choose = robust_chooser(m, uset, mask, mode, exact)
    v = np.zeros(m.num_states)
    nonterminal = [s for s in range(m.num_states) if s not in m.terminal_states]
    order = kahn_order(m, planning._EDGE_TOL)
    if order is not None:
        for s in reversed(order):
            if s in nonterminal:
                v[s] = choose(reward[s] + m.discount * transition[s] @ v, s)[0]
        return float(m.initial_dist @ v)
    for _ in range(max_sweeps):
        # the coalition's exact best response against q
        v = planning.solve_mdp(np.einsum("sd,scd->sc", q, reward),
                               np.einsum("sd,scdt->sct", q, transition),
                               m.discount)[0]
        values, q = np.zeros(m.num_states), q.copy()
        for s in nonterminal:
            values[s], q[s] = choose(reward[s] + m.discount * transition[s] @ v, s)
        if np.abs(values - v).max() <= tol * max(1.0, np.abs(v).max()):
            return float(m.initial_dist @ v)
    raise RuntimeError(f"replay did not converge within {max_sweeps} sweeps")


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
    rows = envs.parse_map(envs.default_map())
    num = size * size
    blind_rewards = dict(envs.CELL_REWARDS, F=envs.CELL_REWARDS["."],
                         H=envs.CELL_REWARDS["."])
    opt = single_agent_plan_loop(rows, envs.CELL_REWARDS, envs.DISCOUNT)
    blind = single_agent_plan_loop(rows, blind_rewards, envs.DISCOUNT)

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
                    reward[s, ja] += envs.INTERVENTION_COST
                transition[s, ja, dest] = 1.0
    starts = [s for s in range(num) if rows[s // size][s % size] == "S"]
    initial = np.zeros(num)
    initial[starts] = 1.0 / len(starts)
    model = Mmdp(num, 2, (4, 2), reward, transition, envs.DISCOUNT,
                 initial, terminals)

    def pilot_policy(alpha):
        table = np.zeros((num, 4))
        opt_weight = alpha + (1.0 - alpha) * envs.PERSONAL_MIX
        for s in range(num):
            table[s, opt[s]] += opt_weight
            table[s, blind[s]] += 1.0 - opt_weight
        return AgentPolicy(table)

    trainee = JointPolicy((pilot_policy(spec.alpha_prime),
                           AgentPolicy.uniform(num, 2)))
    overseer = planning.best_response(model, trainee, (1,)).policy[1]
    return model, JointPolicy((pilot_policy(spec.alpha), overseer))


# The layered graph as it was built one (joint action, column, levels) at a
# time: the reference `envs.build_graph` must match bit for bit.

def _graph_state(column, bits):
    # 0 = start; columns 1..4 hold one state per level-bit pattern; 65 = end
    if column == 0:
        return 0
    if column == envs.GRAPH_COLUMNS + 1:
        return 1 + envs.GRAPH_COLUMNS * 16
    return 1 + (column - 1) * 16 + bits


def _constraint_met(spec, actions):
    if spec.variant == "robustness":
        return sum(actions) == 2
    weighted = sum(w * a for w, a in zip(envs.GRAPH_WEIGHTS, actions))
    return weighted >= envs.GRAPH_THRESHOLDS[spec.threshold_index - 1]


def graph_loop(spec):
    """`build_graph`'s (model, behavior), filled entry by entry."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid graph spec: " + "; ".join(problems))
    num_states = 2 + envs.GRAPH_COLUMNS * 16
    num_actions = 1 << envs.GRAPH_AGENTS
    reward = np.zeros((num_states, num_actions))
    transition = np.zeros((num_states, num_actions, num_states))
    end = _graph_state(envs.GRAPH_COLUMNS + 1, 0)
    for ja, actions in enumerate(np.ndindex((2,) * envs.GRAPH_AGENTS)):
        bits = sum(a << i for i, a in enumerate(actions))
        scored = 1.0 if _constraint_met(spec, actions) else -1.0
        for column in range(envs.GRAPH_COLUMNS + 1):
            if column == 0:
                reward[0, ja] = scored
                transition[0, ja, _graph_state(1, bits)] = 1.0
                continue
            for prev in range(16):
                s = _graph_state(column, prev)
                if column == envs.GRAPH_COLUMNS:
                    reward[s, ja] = 0.0
                    transition[s, ja, end] = 1.0
                else:
                    reward[s, ja] = scored
                    transition[s, ja, _graph_state(column + 1, bits)] = 1.0
    transition[end, :, end] = 1.0
    initial = np.zeros(num_states)
    initial[0] = 1.0
    model = Mmdp(num_states, envs.GRAPH_AGENTS, (2,) * envs.GRAPH_AGENTS,
                 reward, transition, envs.DISCOUNT, initial, frozenset({end}))
    if spec.variant == "coordination":
        behavior = JointPolicy(tuple(
            AgentPolicy.deterministic(num_states, 2, 0)
            for _ in range(envs.GRAPH_AGENTS)))
    else:
        behavior = JointPolicy(tuple(
            AgentPolicy(_persistence_rows(i, num_states))
            for i in range(envs.GRAPH_AGENTS)))
    return model, behavior


def _persistence_rows(agent, num_states):
    """Robustness behavior: uniform at the start, the last column and the
    end; elsewhere keep the previous action when the levels are balanced,
    otherwise head for the emptier level, each with probability p_i."""
    p_keep = 1.0 - agent * 0.2
    rows = np.full((num_states, 2), 0.5)
    for column in range(1, envs.GRAPH_COLUMNS):
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


# The two one-step models as they were written out before they shared
# `planning.one_step_model`: the references must match bit for bit.

def mmdp_from_game_scatter(f):
    """`mmdp_from_game`'s (model, behavior), the reward scattered by mask."""
    n = f.num_agents
    num_actions = 1 << n
    reward = np.zeros((2, num_actions))
    reward[0, planning.membership(n) @ (1 << np.arange(n - 1, -1, -1))] = f.values
    transition = np.zeros((2, num_actions, 2))
    transition[0, :, 1] = 1.0
    transition[1, :, 1] = 1.0
    model = Mmdp(2, n, (2,) * n, reward, transition, 0.99,
                 np.array([1.0, 0.0]), frozenset({1}))
    behavior = JointPolicy(tuple(AgentPolicy.deterministic(2, 2, 0)
                                 for _ in range(n)))
    return model, behavior


def impossibility_fixture_loop():
    """`impossibility_fixture`'s (model, behavior), filled entry by entry."""
    num_actions = 9
    reward = np.zeros((2, num_actions))
    transition = np.zeros((2, num_actions, 2))
    transition[:, :, 1] = 1.0
    for ja, (a1, a2) in enumerate(np.ndindex(3, 3)):
        if a1 == 0 and a2 == 0:
            r = 0.0
        elif (a1, a2) in ((0, 2), (2, 0), (2, 2)):
            r = 2.0
        else:
            r = 0.9
        reward[0, ja] = r
    model = Mmdp(2, 2, (3, 3), reward, transition, 0.99,
                 np.array([1.0, 0.0]), frozenset({1}))
    behavior = JointPolicy((AgentPolicy.deterministic(2, 3, 0),
                            AgentPolicy.deterministic(2, 3, 0)))
    return model, behavior


def assert_same_model(model, behavior, ref_model, ref_behavior):
    """Every table of two (model, behavior) pairs is equal bit for bit."""
    assert model.action_counts == ref_model.action_counts
    assert model.discount == ref_model.discount
    for got, want in [(model.reward, ref_model.reward),
                      (model.transition, ref_model.transition),
                      (model.initial_dist, ref_model.initial_dist),
                      *zip((a.probs for a in behavior.agents),
                           (a.probs for a in ref_behavior.agents))]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(behavior.agents) == len(ref_behavior.agents)
    assert model.terminal_states == ref_model.terminal_states
