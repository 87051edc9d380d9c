"""Machine-checkable forms of the blame attribution axioms.

Each check returns a PropertyVerdict with an epsilon slack (0 means the
exact property). Premise equalities are tested with tolerance 1e-9, well
above the 1e-12 planning noise, so premises never trigger spuriously.
Witness strings report agents 1-indexed to match the beta_1..beta_n CSV
columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attribution import as_blames, blame, marginals, pivotality
from .mmdp import AgentPolicy, JointPolicy, Mmdp, evaluate_return
from .planning import (CharacteristicGame, characteristic_game,
                       coalition_sums, lattice_floors, marginal_masks,
                       mask_agents)

PREMISE_TOL = 1e-9
SLACK = 1e-12


@dataclass(frozen=True)
class PropertyVerdict:
    """A verdict holds exactly when it has no witness."""
    property: str
    epsilon: float
    witness: str | None = field(default=None, kw_only=True)

    @property
    def holds(self) -> bool:
        return self.witness is None


def _coalition_label(mask: int, n: int) -> str:
    agents = mask_agents(mask, n)
    return "{" + " ".join(str(i + 1) for i in agents) + "}"


def check_validity(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    """Total blame must not exceed the grand-coalition inefficiency."""
    total = float(as_blames(beta, game.num_agents).sum())
    if total <= game.total + epsilon + SLACK:
        return PropertyVerdict("R_V", epsilon)
    return PropertyVerdict("R_V", epsilon,
                           witness=f"total {total:.6g} exceeds {game.total:.6g}")


def check_efficiency(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    total = float(as_blames(beta, game.num_agents).sum())
    if abs(total - game.total) <= epsilon + SLACK:
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
    if worst_gap <= epsilon + SLACK:
        return PropertyVerdict("R_R", epsilon)
    return PropertyVerdict(
        "R_R", epsilon,
        witness=f"coalition {_coalition_label(worst_mask, n)} blamed "
                f"{worst_gap:.6g} beyond its inefficiency")


def check_avg_efficiency(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    """Total blame must equal the mean marginal inefficiency over coalitions."""
    total = float(as_blames(beta, game.num_agents).sum())
    target = float(game.values.sum()) / ((1 << game.num_agents) - 1)
    if abs(total - target) <= epsilon + SLACK:
        return PropertyVerdict("R_AE", epsilon)
    return PropertyVerdict("R_AE", epsilon,
                           witness=f"total {total:.6g} differs from average {target:.6g}")


def _masks_without_pair(n: int, i: int, j: int) -> np.ndarray:
    """Ascending masks that exclude both agents i and j."""
    without = marginal_masks(n)[0][i]
    return without[(without >> j & 1) == 0]


def _symmetric_pair(game: CharacteristicGame, i: int, j: int) -> bool:
    values = game.values
    masks = _masks_without_pair(game.num_agents, i, j)
    gaps = np.abs(values[masks | 1 << i] - values[masks | 1 << j])
    return not (gaps > PREMISE_TOL).any()


def check_symmetry(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    n = game.num_agents
    blames = as_blames(beta, n)
    # pairs (i < j) blamed apart whose marginals to the empty coalition
    # agree: that premise alone settles most pairs
    singles = game.values[1 << np.arange(n)]
    screened = np.triu((np.abs(blames[:, None] - blames) > epsilon + SLACK)
                       & ~(np.abs(singles[:, None] - singles) > PREMISE_TOL), 1)
    for i, j in zip(*np.nonzero(screened)):
        if _symmetric_pair(game, i, j):
            return PropertyVerdict(
                "R_S", epsilon,
                witness=f"interchangeable agents {i + 1} and {j + 1} get "
                        f"{blames[i]:.6g} vs {blames[j]:.6g}")
    return PropertyVerdict("R_S", epsilon)


def check_invariance(game: CharacteristicGame, beta, epsilon: float = 0.0) -> PropertyVerdict:
    n = game.num_agents
    blames = as_blames(beta, n)
    marginal = (marginals(game.values, game.values, n) > PREMISE_TOL).any(axis=1)
    for i in range(n):
        if not marginal[i] and blames[i] > epsilon + SLACK:
            return PropertyVerdict(
                "R_I", epsilon,
                witness=f"agent {i + 1} never marginal but blamed {blames[i]:.6g}")
    return PropertyVerdict("R_I", epsilon)


def _blame_pair(game1: CharacteristicGame, beta1, game2: CharacteristicGame,
                beta2) -> tuple[np.ndarray, np.ndarray]:
    if game1.num_agents != game2.num_agents:
        raise ValueError("games must share an agent set")
    return (as_blames(beta1, game1.num_agents),
            as_blames(beta2, game1.num_agents))


def check_contribution_monotonicity(game1: CharacteristicGame, beta1,
                                    game2: CharacteristicGame, beta2,
                                    epsilon: float = 0.0) -> PropertyVerdict:
    """Agents whose marginals dominate across every coalition must not be
    blamed less in the dominating instance."""
    n = game1.num_agents
    b1, b2 = _blame_pair(game1, beta1, game2, beta2)
    dominating = (marginals(game1.values, game1.values, n)
                  >= marginals(game2.values, game2.values, n)
                  - PREMISE_TOL).all(axis=1)
    for i in range(n):
        if dominating[i] and b1[i] < b2[i] - epsilon - SLACK:
            return PropertyVerdict(
                "R_CM", epsilon,
                witness=f"agent {i + 1} dominates marginally but blame fell "
                        f"{b1[i]:.6g} < {b2[i]:.6g}")
    return PropertyVerdict("R_CM", epsilon)


def check_performance_monotonicity(m: Mmdp, behavior, agent: int, pi_i, pi_i_prime,
                                   method: str, epsilon: float = 0.0,
                                   tiebreak: int | None = None) -> PropertyVerdict:
    """Across two unilateral deviations by `agent`, the better-performing
    policy must not attract more blame."""
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
    b1, b2 = _blame_pair(game1, beta1, game2, beta2)
    if pivotality(game1).flags != pivotality(game2).flags:
        return PropertyVerdict("R_cParM", epsilon)
    n = game1.num_agents
    with_ = marginal_masks(n)[1]
    dominating = (game1.values[with_]
                  >= game2.values[with_] - PREMISE_TOL).all(axis=1)
    for j in range(n):
        if dominating[j] and b1[j] < b2[j] - epsilon - SLACK:
            return PropertyVerdict(
                "R_cParM", epsilon,
                witness=f"agent {j + 1} participates in dominating coalitions but "
                        f"blame fell {b1[j]:.6g} < {b2[j]:.6g}")
    return PropertyVerdict("R_cParM", epsilon)


def check_rcpart(game1: CharacteristicGame, beta1,
                 game2: CharacteristicGame, beta2,
                 epsilon: float = 0.0) -> PropertyVerdict:
    """Across equal-pivotality instances, blame increments are ordered like
    the coalition inefficiency increments, compared between agents of the
    same pivotality."""
    b1, b2 = _blame_pair(game1, beta1, game2, beta2)
    piv1 = pivotality(game1).flags
    if piv1 != pivotality(game2).flags:
        return PropertyVerdict("R_RcParM", epsilon)
    n = game1.num_agents
    gain = game1.values - game2.values
    for j in range(n):
        for k in range(n):
            if j == k or piv1[j] != piv1[k]:
                continue
            masks = _masks_without_pair(n, j, k)
            premise = (gain[masks | 1 << j]
                       >= gain[masks | 1 << k] - PREMISE_TOL).all()
            if premise and (b1[j] - b2[j]) < (b1[k] - b2[k]) - epsilon - SLACK:
                return PropertyVerdict(
                    "R_RcParM", epsilon,
                    witness=f"agent {j + 1} gains inefficiency faster than agent "
                            f"{k + 1} but blame moved {b1[j] - b2[j]:.6g} vs "
                            f"{b1[k] - b2[k]:.6g}")
    return PropertyVerdict("R_RcParM", epsilon)


def impossibility_fixture():
    """Two-agent one-step model on which no method can satisfy efficiency,
    symmetry, invariance and performance monotonicity together.

    Returns (model, behavior, pi_1, pi_1_prime): the all-zeros behavior, and
    agent 1's two deviations whose induced games are {0, 2, 2, 2} and
    {0, 1.1, 0, 1.1}.
    """
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
    pi_1 = AgentPolicy.deterministic(2, 3, 0)
    pi_1_prime = AgentPolicy.deterministic(2, 3, 1)
    return model, behavior, pi_1, pi_1_prime


def random_monotone_game(n: int, seed: int) -> CharacteristicGame:
    """Monotone set function with value 0 at the empty set, built from
    nonnegative increments along the subset lattice. Roughly a third of the
    increments are exactly zero so that non-pivotal agents and equality
    premises occur often."""
    rng = np.random.default_rng(seed)
    # In (size, mask) order, one draw decides a zero increment (below 0.3);
    # otherwise the next draw is the increment: at most two per coalition.
    draws = iter(rng.random(2 * ((1 << n) - 1)).tolist())
    values = np.zeros(1 << n)
    for layer, floor in lattice_floors(values, n):
        values[layer] = floor + [0.0 if next(draws) < 0.3 else next(draws)
                                 for _ in layer]
    return CharacteristicGame(n, values)
