"""Machine-checkable forms of the blame attribution axioms.

Each check returns a PropertyVerdict with an epsilon slack (0 means the
exact property). Premise equalities are tested with tolerance 1e-9, well
above the 1e-12 planning noise, so premises never trigger spuriously.
Witness strings report agents 1-indexed to match the beta_1..beta_n CSV
columns. The premises that read the game alone are held per game, through
`attribution._held`: R_S's interchangeable pairs, R_I's never-marginal
agents and R_AE's average; a call then reads only its blame vector, which,
with its slack, it checks before it reads any held result.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attribution import as_blames, blame, game_marginals, pivotality, _held
from .mmdp import AgentPolicy, Mmdp, evaluate_return, _slack_problems
from .planning import (MAX_AGENTS, CharacteristicGame, characteristic_game,
                       _check_agent_count, coalition_mask, coalition_sums,
                       lattice_floors, marginal_masks, mask_agents, one_step_model)

PREMISE_TOL = 1e-9
SLACK = 1e-12


@dataclass(frozen=True)
class PropertyVerdict:
    """A verdict holds exactly when it has no witness; epsilon is finite, >= 0."""
    property: str
    epsilon: float
    witness: str | None = field(default=None, kw_only=True)

    def __post_init__(self):
        _slack(self.epsilon)

    @property
    def holds(self) -> bool:
        return self.witness is None


def _slack(epsilon):
    """`epsilon`, or ValueError: every checker reads its slack through here."""
    if problems := _slack_problems("epsilon", epsilon):
        raise ValueError(problems[0])
    return epsilon


def _coalition_label(mask: int, n: int) -> str:
    agents = mask_agents(mask, n)
    return "{" + " ".join(str(i + 1) for i in agents) + "}"


def check_validity(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    """Total blame must not exceed the grand-coalition inefficiency."""
    total = float(as_blames(beta, game.num_agents).sum())
    if total <= game.total + _slack(epsilon) + SLACK:
        return PropertyVerdict("R_V", epsilon)
    return PropertyVerdict("R_V", epsilon,
                           witness=f"total {total:.6g} exceeds {game.total:.6g}")


def check_efficiency(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    total = float(as_blames(beta, game.num_agents).sum())
    if abs(total - game.total) <= _slack(epsilon) + SLACK:
        return PropertyVerdict("R_E", epsilon)
    return PropertyVerdict("R_E", epsilon,
                           witness=f"total {total:.6g} differs from {game.total:.6g}")


def check_rationality(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    """No coalition may be blamed beyond its own inefficiency."""
    n = game.num_agents
    # Position 0 is a zero gap standing for "no coalition over its cap";
    # argmax takes the first of equal gaps, as an ascending scan would.
    gaps = coalition_sums(as_blames(beta, n)) - game.values
    gaps[0] = 0.0
    worst = int(np.argmax(gaps))
    worst_gap, worst_mask = gaps[worst], worst if worst else -1
    if worst_gap <= _slack(epsilon) + SLACK:
        return PropertyVerdict("R_R", epsilon)
    return PropertyVerdict(
        "R_R", epsilon,
        witness=f"coalition {_coalition_label(worst_mask, n)} blamed "
                f"{worst_gap:.6g} beyond its inefficiency")


def check_avg_efficiency(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    """Total blame must equal the mean inefficiency over the nonempty coalitions."""
    total = float(as_blames(beta, game.num_agents).sum())
    slack = _slack(epsilon) + SLACK
    target = _held(game, "R_AE", lambda: float(game.values.sum())
                   / max((1 << game.num_agents) - 1, 1))
    if abs(total - target) <= slack:
        return PropertyVerdict("R_AE", epsilon)
    return PropertyVerdict("R_AE", epsilon,
                           witness=f"total {total:.6g} differs from average {target:.6g}")


def _first(prop: str, epsilon: float, failing: np.ndarray, witness) -> PropertyVerdict:
    """The verdict naming, through `witness(index)`, the first entry flagged
    in `failing` (its flat index, in C order): agents, or pairs in (i, j) row
    order, as a scan meets them."""
    hits = np.flatnonzero(failing)
    if hits.size == 0:
        return PropertyVerdict(prop, epsilon)
    return PropertyVerdict(prop, epsilon, witness=witness(hits[0]))


def _pair_tables(values: np.ndarray, n: int,
                 pairs: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, 2^(n-2)) tables values[S | 1 << i] and values[S | 1 << j], over
    the coalitions S, ascending, that contain neither agent of each pair
    (i, j), i != j."""
    i, j = pairs
    without = marginal_masks(n)[0][i]
    masks = without[(without >> j[:, None] & 1) == 0].reshape(i.size, (1 << n) >> 2)
    return values[masks | (1 << i)[:, None]], values[masks | (1 << j)[:, None]]


def _interchangeable(game: CharacteristicGame) -> np.ndarray:
    """(n, n) table, held per game: True at i < j when values[S | 1 << i] and
    values[S | 1 << j] agree within PREMISE_TOL on every coalition S without
    both. The singletons' agreement (S empty) alone settles most pairs."""
    n = game.num_agents
    singles = game.values[1 << np.arange(n)]
    table = np.triu(~(np.abs(singles[:, None] - singles) > PREMISE_TOL), 1)
    i, j = np.nonzero(table)
    with_i, with_j = _pair_tables(game.values, n, (i, j))
    table[i, j] = ~(np.abs(with_i - with_j) > PREMISE_TOL).any(axis=1)
    return table


def check_symmetry(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    n = game.num_agents
    blames = as_blames(beta, n)
    apart = np.abs(blames[:, None] - blames) > _slack(epsilon) + SLACK
    return _first("R_S", epsilon, apart & _held(game, "R_S", lambda: _interchangeable(game)),
                  lambda p: f"interchangeable agents {p // n + 1} and {p % n + 1} get "
                            f"{blames[p // n]:.6g} vs {blames[p % n]:.6g}")


def check_invariance(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    blames = as_blames(beta, game.num_agents)
    blamed = blames > _slack(epsilon) + SLACK
    return _first("R_I", epsilon, blamed & _held(
        game, "R_I", lambda: ~(game_marginals(game) > PREMISE_TOL).any(axis=1)),
                  lambda i: f"agent {i + 1} never marginal but blamed {blames[i]:.6g}")


def _blame_pair(game1: CharacteristicGame, beta1, game2: CharacteristicGame,
                beta2, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """Both blame vectors, checked with the slack before any game result is read."""
    if game1.num_agents != game2.num_agents:
        raise ValueError("games must share an agent set")
    blames = (as_blames(beta1, game1.num_agents), as_blames(beta2, game1.num_agents))
    _slack(epsilon)
    return blames


def check_contribution_monotonicity(game1: CharacteristicGame, beta1,
                                    game2: CharacteristicGame, beta2,
                                    epsilon: float = 0.0) -> PropertyVerdict:
    """Agents whose marginals dominate across every coalition must not be
    blamed less in the dominating instance."""
    b1, b2 = _blame_pair(game1, beta1, game2, beta2, epsilon)
    dominating = (game_marginals(game1) >= game_marginals(game2) - PREMISE_TOL).all(axis=1)
    return _first("R_CM", epsilon, dominating & (b1 < b2 - epsilon - SLACK),
                  lambda i: f"agent {i + 1} dominates marginally but blame fell "
                            f"{b1[i]:.6g} < {b2[i]:.6g}")


def check_performance_monotonicity(m: Mmdp, behavior, agent: int, pi_i, pi_i_prime,
                                   method: str, epsilon: float = 0.0,
                                   tiebreak: int | None = None) -> PropertyVerdict:
    """Across two unilateral deviations by `agent`, the better-performing
    policy must not attract more blame."""
    coalition_mask((agent,), m.num_agents)  # refuses a stray agent
    _slack(epsilon)  # before any game is built
    joint1 = behavior.replace(agent, pi_i)
    joint2 = behavior.replace(agent, pi_i_prime)
    j1 = evaluate_return(m, joint1)
    j2 = evaluate_return(m, joint2)
    if j1 > j2 + PREMISE_TOL:
        return PropertyVerdict("R_PerM", epsilon)
    b1 = blame(m, joint1, method, tiebreak).blames[agent]
    b2 = blame(m, joint2, method, tiebreak).blames[agent]
    if b1 >= b2 - epsilon - SLACK:
        return PropertyVerdict("R_PerM", epsilon)
    return PropertyVerdict(
        "R_PerM", epsilon,
        witness=f"agent {agent + 1} performs worse (J {j1:.6g} vs {j2:.6g}) "
                f"yet gets less blame ({b1:.6g} < {b2:.6g})")


def check_cperf(m: Mmdp, behavior, agent: int, pi_i, pi_i_prime,
                method: str, epsilon: float = 0.0,
                tiebreak: int | None = None) -> PropertyVerdict:
    """Performance monotonicity restricted to deviations that leave every
    agent's pivotality unchanged."""
    coalition_mask((agent,), m.num_agents)  # refuses a stray agent
    _slack(epsilon)  # before any game is built
    joint1 = behavior.replace(agent, pi_i)
    joint2 = behavior.replace(agent, pi_i_prime)
    g1 = characteristic_game(m, joint1)
    g2 = characteristic_game(m, joint2)
    if pivotality(g1).flags != pivotality(g2).flags:
        return PropertyVerdict("R_cPerM", epsilon)
    inner = check_performance_monotonicity(m, behavior, agent, pi_i, pi_i_prime,
                                           method, epsilon, tiebreak)
    return PropertyVerdict("R_cPerM", epsilon, witness=inner.witness)


def check_cpart(game1: CharacteristicGame, beta1,
                game2: CharacteristicGame, beta2,
                epsilon: float = 0.0) -> PropertyVerdict:
    """Across equal-pivotality instances, an agent whose coalitions are all
    at least as inefficient must not be blamed less."""
    b1, b2 = _blame_pair(game1, beta1, game2, beta2, epsilon)
    if pivotality(game1).flags != pivotality(game2).flags:
        return PropertyVerdict("R_cParM", epsilon)
    n = game1.num_agents
    with_ = marginal_masks(n)[1]
    dominating = (game1.values[with_]
                  >= game2.values[with_] - PREMISE_TOL).all(axis=1)
    return _first("R_cParM", epsilon, dominating & (b1 < b2 - epsilon - SLACK),
                  lambda j: f"agent {j + 1} participates in dominating coalitions but "
                            f"blame fell {b1[j]:.6g} < {b2[j]:.6g}")


def check_rcpart(game1: CharacteristicGame, beta1,
                 game2: CharacteristicGame, beta2,
                 epsilon: float = 0.0) -> PropertyVerdict:
    """Across equal-pivotality instances, blame increments are ordered like
    the coalition inefficiency increments, compared between agents of the
    same pivotality."""
    b1, b2 = _blame_pair(game1, beta1, game2, beta2, epsilon)
    piv1 = pivotality(game1).flags
    if piv1 != pivotality(game2).flags:
        return PropertyVerdict("R_RcParM", epsilon)
    n = game1.num_agents
    # candidate pairs (j, k), j != k: same pivotality, blame increments out
    # of order; the gain premise is tested on those alone
    piv, moved = np.array(piv1), b1 - b2
    j, k = np.nonzero((piv[:, None] == piv) & ~np.eye(n, dtype=bool)
                      & (moved[:, None] < moved - epsilon - SLACK))
    with_j, with_k = _pair_tables(game1.values - game2.values, n, (j, k))
    premise = (with_j >= with_k - PREMISE_TOL).all(axis=1)
    return _first("R_RcParM", epsilon, premise,
                  lambda p: f"agent {j[p] + 1} gains inefficiency faster than agent "
                            f"{k[p] + 1} but blame moved {moved[j[p]]:.6g} vs "
                            f"{moved[k[p]]:.6g}")


def impossibility_fixture():
    """Two-agent one-step model on which no method can satisfy efficiency,
    symmetry, invariance and performance monotonicity together.

    Returns (model, behavior, pi_1, pi_1_prime): the all-zeros behavior, and
    agent 1's two deviations whose induced games are {0, 2, 2, 2} and
    {0, 1.1, 0, 1.1}.
    """
    # joint action 3 a1 + a2 earns 0 at (0, 0), 2 at (0, 2), (2, 0) and
    # (2, 2), and 0.9 elsewhere
    model, behavior = one_step_model(
        (3, 3), [0.0, 0.9, 2.0, 0.9, 0.9, 0.9, 2.0, 0.9, 2.0])
    pi_1 = AgentPolicy.deterministic(2, 3, 0)
    pi_1_prime = AgentPolicy.deterministic(2, 3, 1)
    return model, behavior, pi_1, pi_1_prime


def random_monotone_game(n: int, seed: int) -> CharacteristicGame:
    """Monotone set function with value 0 at the empty set, built from
    nonnegative increments along the subset lattice. Roughly a third of the
    increments are exactly zero so that non-pivotal agents and equality
    premises occur often."""
    _check_agent_count(n)
    if n > MAX_AGENTS:  # before 2 (2^n - 1) draws are asked for
        raise ValueError(f"random_monotone_game limited to {MAX_AGENTS} agents, not {n}")
    draws = np.random.default_rng(seed).random(2 * ((1 << n) - 1))
    # In (size, mask) order, one draw decides a zero increment (below 0.3);
    # otherwise the next draw is the increment. So a draw opens a coalition
    # when an even number of draws >= 0.3 run unbroken up to it (`run`
    # counts them through each draw).
    high = draws >= 0.3
    run = np.arange(1, draws.size + 1)
    run -= np.maximum.accumulate(np.where(high, 0, run))
    opens = np.flatnonzero(np.r_[0, run[:-1]] % 2 == 0)[:draws.size // 2]
    increments = np.where(high[opens], draws[opens + 1], 0.0)
    values, done = np.zeros(1 << n), 0
    for layer, floor in lattice_floors(values, n):
        values[layer] = floor + increments[done:done + layer.size]
        done += layer.size
    return CharacteristicGame(n, values)
