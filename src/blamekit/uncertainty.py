"""Robust blame attribution under behavior-policy uncertainty.

The uncertainty set puts a per-agent, per-state half-L1 ball of radius
eps_max around an estimated behavior policy. Coalition values are then
bracketed by two robust recursions: an adversarial lower bound (the
complement conditional is chosen to minimize) and an optimistic upper bound
(chosen to maximize). The bracket feeds validity-preserving and
consistency-preserving (never over-blaming) variants of the five methods.

Chooser feasible sets, from tightest to loosest:
  - the exact factorized ball, usable when at most one complement agent is
    uncertain (any arity; the minimization needs a small LP) and, for
    maximization only, when every uncertain complement agent is binary
    (segment corners);
  - the relaxed box over joint conditionals, which drops factorization and
    bounds each joint probability by the product of per-agent interval
    endpoints. Always available; bounds stay one-sided, just looser.
The default picks the tightest applicable set per subproblem; exact=False
forces the relaxed box, exact=True raises where no exact path exists.

Every chooser table over complement joint actions is a product of per-agent
rows read at the complement's digits. An acyclic model takes one backward
pass, one chooser call per topological level; a cyclic one alternates sweeps,
one chooser call over every nonterminal state, with exact evaluation of the
chosen conditional until the values settle relative to their scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import (PIVOTAL_TOL, BlameAssignment, as_blames,
                          banzhaf_weights, marginals, mer, participation,
                          sequential_sums, shapley, shapley_weights, weighted_marginals)
from .lp import LinearProgram, solve
from .mmdp import AgentPolicy, JointPolicy, Mmdp, content_digest, product_table, _slack_problems
# best_response is unused here, but bench/tracing.py wraps it by this name
from .planning import (CharacteristicGame, best_response, characteristic_game,
                       coalition_action_index, coalition_mask, coalition_sizes,
                       coalition_tables, coalition_values, lattice_floors,
                       marginalize, mask_agents, memo, solve_mdp, _read_only)

RESIDUAL_TOL = 1e-12
MAX_SWEEPS = 1000
MEMBERSHIP_TOL = 1e-9
_EDGE_TOL = 1e-15


@dataclass(frozen=True)
class UncertaintySet:
    """Half-L1 balls of radius `radius` around `center`, per agent and state.

    `uncertain_agents` restricts the uncertainty to a subset of agents (the
    rest are known exactly); None means every agent. `truth` is carried only
    for consistency assertions and never influences the bounds.
    """

    center: JointPolicy
    radius: float
    truth: JointPolicy | None = None
    uncertain_agents: frozenset[int] | None = None

    def agent_radius(self, agent: int) -> float:
        if self.uncertain_agents is None or agent in self.uncertain_agents:
            return self.radius
        return 0.0

    def contains(self, policy: JointPolicy) -> bool:
        """Raises ValueError for a policy of another agent count or shapes."""
        theirs, ours = ([ap.probs.shape for ap in p.agents] for p in (policy, self.center))
        if theirs != ours:
            raise ValueError(f"policy shapes {theirs}, the center {ours}")
        for i, (ap, cp) in enumerate(zip(policy.agents, self.center.agents)):
            deviation = 0.5 * np.abs(ap.probs - cp.probs).sum(axis=1).max()
            if not deviation <= self.agent_radius(i) + MEMBERSHIP_TOL:  # NaN too
                return False
        return True

    def validate(self) -> list[str]:
        problems = _slack_problems("radius", self.radius) + self.center.validate()
        try:
            coalition_mask(self.uncertain_agents or (), self.center.num_agents)
        except (TypeError, ValueError) as err:  # TypeError: not a collection
            problems.append(f"uncertain agents: {err}")
        if self.truth is not None:
            problems += [f"declared truth {p}" for p in self.truth.validate()]
            try:
                if not self.contains(self.truth):
                    problems.append("declared truth lies outside the set")
            except ValueError as err:
                problems.append(f"declared truth has {err}")
        return problems

    def content_key(self) -> bytes:
        agents = (sorted(self.uncertain_agents)
                  if self.uncertain_agents is not None else [-1])
        return content_digest(*(ap.probs for ap in self.center.agents),
                              np.float64(self.radius),
                              np.array(agents, dtype=np.int64))


def _sample_ball_row(rng: np.random.Generator, p: np.ndarray, eps: float) -> np.ndarray:
    """Uniform draw from {q on the simplex : 0.5 * L1(q, p) <= eps}.

    The slice is a (k-1)-dimensional polytope inside the zero-sum hyperplane
    through p; rejection from a bounding box in the first k-1 deviation
    coordinates is uniform because the parameterization is linear.
    """
    k = p.size
    if eps <= 0 or k == 1:
        return p.copy()
    bound = 2.0 * eps
    for _ in range(4000):
        d = rng.uniform(-bound, bound, size=(256, k - 1))
        full = np.concatenate([d, -d.sum(axis=1, keepdims=True)], axis=1)
        ok = (np.abs(full).sum(axis=1) <= bound) & ((p + full) >= -1e-15).all(axis=1)
        hits = np.flatnonzero(ok)
        if hits.size:
            q = np.clip(p + full[hits[0]], 0.0, None)
            return q / q.sum()
    raise RuntimeError("ball sampler failed to accept a draw")


def sample_center(truth: JointPolicy, eps_max: float, seed: int,
                  uncertain_agents: frozenset[int] | None = None) -> UncertaintySet:
    """Draw, deterministically per seed, an estimated behavior whose ball of radius
    eps_max holds the truth (by symmetry); refuses the set centered on the truth if invalid."""
    around = UncertaintySet(truth, eps_max, uncertain_agents=uncertain_agents)
    _check_set(None, around)  # no model: the set alone
    rng = np.random.default_rng(seed)
    agents = [AgentPolicy(np.array([_sample_ball_row(rng, row, eps_max) for row in ap.probs]))
              if around.agent_radius(i) > 0 else ap for i, ap in enumerate(truth.agents)]
    return UncertaintySet(JointPolicy(tuple(agents)), eps_max, truth, uncertain_agents)


def _topological_levels(m: Mmdp) -> list[np.ndarray] | None:
    """States peeled into levels whose transitions only point into earlier
    levels (sinks first), or None if the model has a cycle beyond terminal
    self-loops. Each level is every state whose successors are all peeled;
    its columns then drop from the remaining out-degrees."""
    reach = m.transition.max(axis=1) > _EDGE_TOL
    loops = np.flatnonzero(np.diagonal(reach))
    if not m.terminal_states.issuperset(loops.tolist()):
        return None
    np.fill_diagonal(reach, False)
    out_degree = reach.sum(axis=1)
    levels = [np.flatnonzero(out_degree == 0)]
    while levels[-1].size:
        out_degree -= reach[:, levels[-1]].sum(axis=1)
        out_degree[levels[-1]] = -1
        levels.append(np.flatnonzero(out_degree == 0))
    return levels[:-1] if sum(map(len, levels)) == m.num_states else None


def _best_row(values: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the first row of greatest value, and its q."""
    best = values.argmax(axis=1)
    states = np.arange(values.shape[0])
    return values[states, best], q[states, best]


def _best_dot(rows: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_best_row by rows . q, each the unit-stride BLAS dot that a loop over
    contiguous rows takes (a strided one rounds otherwise)."""
    rows, q = np.ascontiguousarray(rows), np.ascontiguousarray(q)
    return _best_row((q[..., None, :] @ rows[..., :, None])[..., 0, 0], q)


class _CoalitionProblem:
    """Precomputation for one (coalition, mode) robust recursion with an
    uncertain complement agent: the coalition's reward and transition
    tables, gathered once, the per-state complement tables its chooser
    reads, products of per-agent rows at the complement's digits, and
    `choose`, the one chooser its path and mode select. A chooser maps the
    backups b (K, A_C, A_D) of K states to their values (K,) and q (K, A_D)."""

    def __init__(self, m: Mmdp, uset: UncertaintySet, mask: int, mode: str,
                 exact: bool | None):
        self.coalition = mask_agents(mask, m.num_agents)
        others = [j for j in range(m.num_agents) if not mask >> j & 1]
        uncertain = [j for j in others if uset.agent_radius(j) > 0]
        idx = coalition_action_index(m, self.coalition)
        self.reward, self.transition = coalition_tables(m, idx)
        # idx[0] lists the complement's joint actions: each agent's digits
        digits = np.unravel_index(idx[0], m.action_counts)
        if exact is False:
            self.path = "box"
        elif len(uncertain) == 1:
            self.path = "ball"
        elif mode == "max" and all(m.action_counts[j] == 2 for j in uncertain):
            self.path = "corner"
        elif exact is True:
            wide = [j for j in uncertain if m.action_counts[j] != 2]
            reason = (f"{len(uncertain)} uncertain complement agents, and the "
                      "exact min takes one" if mode == "min" else
                      f"uncertain complement agent {wide[0]} is not binary, "
                      "and the exact max over several needs binary ones")
            raise ValueError(f"no exact chooser for coalition {self.coalition}"
                             f" in {mode} mode: {reason}; use the relaxed box")
        else:
            self.path = "box"

        num_states = m.num_states
        probs = [uset.center.agents[j].probs for j in others]
        radii = [uset.agent_radius(j) for j in others]
        self.center_table = product_table(num_states, probs)
        lows = [np.maximum(p - r, 0.0) for p, r in zip(probs, radii)]
        highs = [np.minimum(p + r, 1.0) for p, r in zip(probs, radii)]
        if self.path in ("ball", "corner"):
            # multiplying by a ones row is exact: an uncertain agent drops out
            certain_table = product_table(num_states, [
                np.ones_like(p) if r > 0 else p for p, r in zip(probs, radii)])
        if self.path == "ball":
            u = others.index(uncertain[0])
            self.certain_table = certain_table
            self.ball_rows = probs[u]
            self.ball_eps = radii[u]
            self.ball_col = digits[uncertain[0]]
        elif self.path == "corner":
            # (S, 2^u, A_D), one table per vertex of the uncertain agents'
            # segments: bit b of the vertex picks the low (0) or high (1)
            # interval end, on action 0, of the b-th uncertain agent; its
            # factor (S, 2, A_D) is that end where the agent plays 0, else 1 - end
            ends = [np.stack([lo[:, 0], hi[:, 0]], axis=1)[..., None]
                    for lo, hi, r in zip(lows, highs, radii) if r > 0]
            factors = [np.where(digits[j] == 0, end, 1.0 - end)
                       for j, end in zip(uncertain, ends)]
            vertex = np.arange(1 << len(factors))
            self.corner_tables = np.repeat(certain_table[:, None], vertex.size, 1)
            for b, factor in enumerate(factors):
                self.corner_tables *= factor[:, vertex >> b & 1]
        else:
            self.box_lower = product_table(num_states, lows)
            self.box_upper = product_table(num_states, highs)
            # (S, 1); rounding may put the lower ends' sum a hair above 1
            self.box_mass = np.maximum(1.0 - self.box_lower.sum(axis=1, keepdims=True), 0.0)
        # _ball_max, _ball_min, _corner_max, _box_max or _box_min
        self.choose = getattr(self, f"_{self.path}_{mode}")

    def _fold(self, b: np.ndarray, states: np.ndarray) -> np.ndarray:
        """(K, A_C, k): the certain complement agents marginalized out, each
        ball action's columns added one at a time in ascending order."""
        k = self.ball_rows.shape[1]
        weighted = b * self.certain_table[states][:, None]
        columns = weighted[..., np.argsort(self.ball_col, kind="stable")]
        return sequential_sums(columns.reshape(*b.shape[:2], k, b.shape[2] // k))

    def _ball_max(self, b: np.ndarray, states: np.ndarray):
        """Per folded row, shift up to eps of mass onto its first maximum from
        the coordinates below it, lowest first; keep each state's best row."""
        rows = self._fold(b, states)
        p = self.ball_rows[states][:, None]
        order = np.argsort(rows, axis=-1, kind="stable")
        target = rows.argmax(axis=-1)[..., None]
        p_sorted = np.take_along_axis(p, order, -1)
        below = np.take_along_axis(rows, order, -1) < rows.max(-1, keepdims=True)
        budget = np.cumsum(np.concatenate([np.full(target.shape, self.ball_eps),
                                           np.where(below, -p_sorted, 0.0)],
                                          axis=-1), axis=-1)[..., :-1]
        taking = below & (budget > 0)
        # -0.0 adds nothing to any sum, a signed zero included
        take = np.where(taking, np.minimum(budget, p_sorted), -0.0)
        q = np.take_along_axis(np.where(taking, p_sorted - take, p_sorted),
                               order.argsort(axis=-1), -1)
        gained = np.cumsum(np.concatenate(
            [np.take_along_axis(p, target, -1), take], axis=-1), axis=-1)
        np.put_along_axis(q, target, gained[..., -1:], axis=-1)
        values, q = _best_dot(rows, q)
        return values, self.certain_table[states] * q[:, self.ball_col]

    def _ball_min(self, b: np.ndarray, states: np.ndarray):
        """q = p - w + u with w <= p, sum w <= eps and sum u <= sum w."""
        p = self.ball_rows[states]
        eye, ones = np.eye(p.shape[1]), np.ones(p.shape[1])
        rows = np.block([[eye, 0.0 * eye], [ones, 0.0 * ones], [-ones, ones]])
        room = np.c_[p, np.full(len(p), self.ball_eps), np.zeros(len(p))]
        values, q = _shifted_min(self._fold(b, states), p, p,
                                 np.hstack([-eye, eye]), rows, room)
        return values, self.certain_table[states] * q[:, self.ball_col]

    def _corner_max(self, b: np.ndarray, states: np.ndarray):
        """Per state, the first vertex table whose best row is greatest."""
        tables = self.corner_tables[states]
        return _best_row((b[:, None] @ tables[..., None])[..., 0].max(axis=-1),
                         tables)

    def _box_max(self, b: np.ndarray, states: np.ndarray):
        """Per row, raise lower ends to upper ones, highest payoff first,
        until the mass runs out; keep each state's best row."""
        lo = self.box_lower[states][:, None]
        order = np.argsort(-b, axis=-1, kind="stable")
        room = np.take_along_axis(self.box_upper[states][:, None] - lo, order, -1)
        mass = np.repeat(self.box_mass[states][:, None], b.shape[1], 1)
        return _best_dot(b, lo + np.take_along_axis(
            _pour(room, mass), order.argsort(axis=-1), -1))

    def _box_min(self, b: np.ndarray, states: np.ndarray):
        """q = lo + r with r <= hi - lo and sum r <= 1 - sum lo."""
        lo, hi = self.box_lower[states], self.box_upper[states]
        eye = np.eye(lo.shape[1])
        return _shifted_min(b, lo, hi, eye, np.vstack([eye, np.ones(len(eye))]),
                            np.hstack([hi - lo, self.box_mass[states]]))


def _pour(room: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Per row, `mass` (..., 1) poured into `room` along the last axis, each
    entry filled before the next takes any: what each entry takes."""
    left = np.cumsum(np.concatenate([mass, -room], axis=-1), axis=-1)[..., :-1]
    return np.where(left > 1e-15, np.minimum(left, room), 0.0)


def _shifted_min(payoffs: np.ndarray, base: np.ndarray, cap: np.ndarray,
                 moves: np.ndarray, rows: np.ndarray, room: np.ndarray):
    """Per state, min over q = base + moves @ z (z >= 0, rows @ z <= room,
    sum q <= 1) of max_c payoffs[c] . q, as top - s* for the LP max s s.t.
    (payoffs - top) @ q + s <= 0, top the largest payoff. Shifted payoffs are
    <= 0, so added mass never raises the max (sum q <= 1 loses nothing) and
    every LP bound is >= 0 (the LP starts feasible). Returns the minima (K,)
    and q (K, k), its missing mass poured in under `cap`."""
    num_rows, width = payoffs.shape[1], moves.shape[1]
    a = np.block([[np.zeros((num_rows, width)), np.ones((num_rows, 1))],
                  [rows, np.zeros((len(rows), 1))]])
    c = np.r_[np.zeros(width), 1.0]
    values, z = payoffs.max(axis=(1, 2)), np.empty((len(payoffs), width))
    for i, lines in enumerate(payoffs - values[:, None, None]):
        a[:num_rows, :width] = lines @ moves
        sol = solve(LinearProgram(c, a, np.r_[-(lines @ base[i]), room[i]]))
        if sol.status != "optimal":
            raise RuntimeError(f"adversary LP came back {sol.status}")
        values[i], z[i] = values[i] - sol.objective_value, sol.point[:width]
    q = base + z @ moves.T
    return values, q + _pour(np.maximum(cap - q, 0.0),
                              1.0 - q.sum(axis=1, keepdims=True))


class RobustBounds:
    """Lower and upper bounds on every coalition's best-response value over
    an uncertainty set, memoized per coalition."""

    def __init__(self, m: Mmdp, uset: UncertaintySet, exact: bool | None = None):
        self.m = m
        self.uset = uset
        self.exact = exact
        self._center_values = coalition_values(m, uset.center)  # a row per coalition mask
        # (value, joint behavior table attaining it; only the empty coalition's)
        self._values: dict[tuple[int, str], tuple[float, np.ndarray | None]] = {}
        terminal = np.isin(np.arange(m.num_states), list(m.terminal_states))
        self._nonterminal = np.flatnonzero(~terminal)
        levels = _topological_levels(m)
        # one chooser call per level, on its nonterminal states
        self._levels = None if levels is None else [
            kept for level in levels if (kept := level[~terminal[level]]).size]

    def min_value(self, coalition) -> float:
        """Lower bound on the coalition's best-response value across behaviors
        in the set (equality when an exact chooser applies)."""
        return self._bound(coalition_mask(coalition, self.m.num_agents), "min")

    def max_value(self, coalition) -> float:
        """Upper bound counterpart of min_value; with the empty coalition
        this is the best plausible value of the behavior itself."""
        return self._bound(coalition_mask(coalition, self.m.num_agents), "max")

    def max_policy(self) -> np.ndarray:
        """A read-only joint behavior table attaining max_value(()) over the
        chooser set; its exact evaluation equals that bound."""
        self._bound(0, "max")
        return _read_only(self._values[0, "max"][1])

    def _bound(self, mask: int, mode: str) -> float:
        key = (mask, mode)
        if key not in self._values:
            self._values[key] = self._solve(mask, mode)
        return self._values[key][0]

    def _solve(self, mask: int, mode: str) -> tuple[float, np.ndarray | None]:
        m, uset = self.m, self.uset
        if all(mask >> j & 1 or uset.agent_radius(j) == 0
               for j in range(m.num_agents)):
            # every complement agent is certain: the center is the only behavior
            return (float(m.initial_dist @ self._center_values[mask]),
                    uset.center.joint_table(m) if mask == 0 else None)
        problem = _CoalitionProblem(m, uset, mask, mode, self.exact)
        if self._levels is None:
            v, q = self._iterate(problem, self._center_values[mask])
        else:
            v = np.zeros(m.num_states)
            q = self._backward_pass(problem, self._levels, v, v)
        return float(m.initial_dist @ v), q if mask == 0 else None

    def _backward_pass(self, problem: _CoalitionProblem, levels, v, out):
        """Back up each level of states against v, one chooser call each, into
        out (v itself in the acyclic pass, so a level reads the ones before
        it). Returns q, the center's where no state was backed up."""
        q = problem.center_table.copy()
        for states in levels:
            b = problem.reward[states] + self.m.discount * (
                problem.transition[states] @ v)
            out[states], q[states] = problem.choose(b, states)
        return q

    def _iterate(self, problem: _CoalitionProblem, v: np.ndarray):
        m = self.m
        for _ in range(MAX_SWEEPS):
            values = np.zeros(m.num_states)
            q = self._backward_pass(problem, [self._nonterminal], v, values)
            # relative past |v| = 1, so the stop holds at every reward scale
            if np.abs(values - v).max() <= RESIDUAL_TOL * max(1.0, np.abs(v).max()):
                return v, q
            # the coalition's exact best response against q, greedy from v
            v, _ = solve_mdp(*marginalize(q, problem.reward, problem.transition),
                             m.discount, v)
        raise RuntimeError(
            f"robust recursion did not converge within {MAX_SWEEPS} sweeps")


def _check_set(m: Mmdp | None, uset: UncertaintySet) -> None:
    problems = uset.validate() or uset.center.validate(m)
    if problems:
        raise ValueError("invalid uncertainty set: " + "; ".join(problems))


_BOUNDS_CACHE: dict[bytes, RobustBounds] = {}


def robust_bounds(m: Mmdp, uset: UncertaintySet,
                  exact: bool | None = None) -> RobustBounds:
    """The bounds of `m` over `uset`, memoized under `memo`; the one place a
    set is checked (ValueError if invalid or its center does not match the
    model) and `exact` too: None, True or False, a numpy bool as the same."""
    if not isinstance(exact, (bool, np.bool_, type(None))):
        raise ValueError(f"exact is {exact!r}, not None, True or False")
    exact = None if exact is None else bool(exact)
    # checked before the lookup: the key holds neither truth nor policy shapes
    _check_set(m, uset)
    key = m.content_key() + uset.content_key() + str(exact).encode()
    return memo(_BOUNDS_CACHE, key, lambda: RobustBounds(m, uset, exact))


def _monotone_closure(values: np.ndarray, n: int) -> np.ndarray:
    closed = values.copy()
    closed[0] = 0.0
    for layer, floor in lattice_floors(closed, n):
        closed[layer] = np.where(closed[layer] < floor, floor, closed[layer])
    return closed


def sv_valid(m: Mmdp, uset: UncertaintySet,
             exact: bool | None = None) -> BlameAssignment:
    """Shapley value against the most favorable plausible behavior.

    Grading against the behavior that maximizes the return can only shrink
    the grand inefficiency, so the total never exceeds the true one. Under
    the forced relaxation the extracted table may be correlated and its raw
    coalition values can dip non-monotone; they are lifted to their monotone
    closure, which keeps the grand total and hence validity.
    """
    game = characteristic_game(m, robust_bounds(m, uset, exact).max_policy())
    values = _monotone_closure(game.values, m.num_agents)
    blames = shapley(CharacteristicGame(m.num_agents, values)).blames
    return BlameAssignment("SV_V", blames)


def _sandwich_gaps(bounds: RobustBounds, weights: np.ndarray) -> np.ndarray:
    """Per-agent weighted sums of [min(S + {i}) - max(S)] gaps, clamped at 0."""
    full = (1 << bounds.m.num_agents) - 1
    # Only the bounds a gap reads are solved: the empty coalition's lower
    # bound and the grand coalition's upper bound never are (NaN here).
    lower = [np.nan] + [bounds._bound(mask, "min") for mask in range(1, full + 1)]
    upper = [bounds._bound(mask, "max") for mask in range(full)] + [np.nan]
    gaps = marginals(np.array(lower), np.array(upper), weights.size)
    return np.maximum(weighted_marginals(gaps, weights), 0.0)


def sv_blackstone(m: Mmdp, uset: UncertaintySet,
                  exact: bool | None = None) -> BlameAssignment:
    """Worst-case Shapley value: every marginal uses the adversarial value
    for the agent's coalition and the optimistic value without it, so no
    agent can be blamed beyond its true Shapley share."""
    bounds = robust_bounds(m, uset, exact)
    blames = _sandwich_gaps(bounds, shapley_weights(m.num_agents))
    return BlameAssignment("SV_BC", blames)


def bi_blackstone(m: Mmdp, uset: UncertaintySet,
                  exact: bool | None = None) -> BlameAssignment:
    bounds = robust_bounds(m, uset, exact)
    blames = _sandwich_gaps(bounds, banzhaf_weights(m.num_agents))
    return BlameAssignment("BI_BC", blames)


def _worst_gaps(bounds: RobustBounds, masks) -> list[float]:
    """Per mask S, the worst-case inefficiency lower(S) - upper(()), clamped
    at 0; only the lower bounds of `masks` are solved."""
    base = bounds.max_value(())
    return [max(0.0, bounds._bound(mask, "min") - base) for mask in masks]


def mc_blackstone(m: Mmdp, uset: UncertaintySet,
                  exact: bool | None = None) -> BlameAssignment:
    bounds = robust_bounds(m, uset, exact)
    singletons = [1 << i for i in range(m.num_agents)]
    return BlameAssignment("MC_BC", _worst_gaps(bounds, singletons))


def _pessimistic_game(bounds: RobustBounds) -> CharacteristicGame:
    n = bounds.m.num_agents
    return CharacteristicGame(n, [0.0] + _worst_gaps(bounds, range(1, 1 << n)))


def mer_blackstone(m: Mmdp, uset: UncertaintySet, tiebreak: int | None = None,
                   exact: bool | None = None) -> BlameAssignment:
    """Rationality LP over worst-case coalition inefficiencies (clamped at 0
    so beta = 0 always stays feasible)."""
    game = _pessimistic_game(robust_bounds(m, uset, exact))
    blames = mer(game, tiebreak).blames
    return BlameAssignment("MER_BC", blames)


def ap_blackstone(m: Mmdp, uset: UncertaintySet,
                  exact: bool | None = None) -> BlameAssignment:
    """Participation split of worst-case inefficiencies. The divisor is the
    subset size plus one rather than the pivotal count; the certain-case
    formula weighs pivotal members only, and the two agree whenever every
    agent is pivotal."""
    pivotal = sv_blackstone(m, uset, exact).blames > PIVOTAL_TOL
    # sv_blackstone has solved every lower bound the gaps read
    gaps = _pessimistic_game(robust_bounds(m, uset, exact)).values
    sizes = coalition_sizes(m.num_agents)
    return BlameAssignment("AP_BC", participation(gaps, sizes + 1, pivotal))


def l1_distance(a, b) -> float:
    """Sum of absolute per-agent blame differences."""
    left = as_blames(a)
    right = as_blames(b, left.size)
    return float(np.abs(left - right).sum())
