"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass line when it completes; a failed assertion
means the corresponding guarantee is broken. Tolerances are pinned inline.
"""
import itertools
import time
from math import factorial

import numpy as np
import pytest

from blamekit.attribution import (
    METHODS,
    apply,
    average_participation,
    banzhaf,
    marginal_contribution,
    mer,
    shapley,
)
from blamekit.cli import (
    ALPHA_PRIME_GRID,
    GRAPH_EPS,
    GRID_EPS,
    run_coordination,
    run_perm_sweep,
    run_robustness,
    summarize_robustness,
)
from blamekit.envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from blamekit.mmdp import AgentPolicy, evaluate_return
from blamekit.planning import characteristic_game, mask_agents, mmdp_from_game
from blamekit.properties import (
    check_avg_efficiency,
    check_contribution_monotonicity,
    check_cpart,
    check_cperf,
    check_efficiency,
    check_invariance,
    check_performance_monotonicity,
    check_rationality,
    check_rcpart,
    check_symmetry,
    check_validity,
    impossibility_fixture,
    random_monotone_game,
)
from blamekit.uncertainty import (
    ap_blackstone,
    bi_blackstone,
    l1_distance,
    mc_blackstone,
    mer_blackstone,
    robust_bounds,
    sample_center,
    sv_blackstone,
    sv_valid,
)


def method_blame(name, game):
    return apply(name, game, 0)


def test_criterion_1_fixture_exactness():
    """The two-deviation fixture reproduces its games and Shapley splits."""
    started = time.perf_counter()
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    g1 = characteristic_game(model, behavior.replace(0, pi_1))
    g2 = characteristic_game(model, behavior.replace(0, pi_1_prime))
    np.testing.assert_allclose(g1.values, [0.0, 2.0, 2.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(g2.values, [0.0, 1.1, 0.0, 1.1], atol=1e-9)
    np.testing.assert_allclose(shapley(g1).blames, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(shapley(g2).blames, [1.1, 0.0], atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (fixture games and splits exact, {elapsed:.3f}s)")


def test_criterion_2_shapley_matches_permutation_average():
    started = time.perf_counter()
    checked = 0
    for k in range(200):
        n = 2 + k % 5
        game = random_monotone_game(n, seed=4000 + k)
        expected = np.zeros(n)
        for perm in itertools.permutations(range(n)):
            mask = 0
            for i in perm:
                expected[i] += game.values[mask | 1 << i] - game.values[mask]
                mask |= 1 << i
        expected /= factorial(n)
        np.testing.assert_allclose(shapley(game).blames, expected, atol=1e-9)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 200 and elapsed < 30.0
    print(f"criterion 2: PASS (200 games vs permutation oracle, {elapsed:.1f}s)")


SINGLE_CHECKS = {
    "R_V": check_validity,
    "R_E": check_efficiency,
    "R_R": check_rationality,
    "R_AE": check_avg_efficiency,
    "R_S": check_symmetry,
    "R_I": check_invariance,
}

HOLD_SINGLE = {
    "MER": ("R_V", "R_R", "R_I"),
    "MC": ("R_S", "R_I"),
    "SV": ("R_V", "R_E", "R_S", "R_I"),
    "BI": ("R_S", "R_I"),
    "AP": ("R_V", "R_AE", "R_S", "R_I"),
}

HOLD_CM = ("MC", "SV", "BI")


def test_criterion_3_axiom_matrix():
    """Every guaranteed matrix cell passes on 100 random games (plus their
    pairings and one-step realizations); every non-guaranteed cell has a
    concrete failing fixture."""
    for k in range(100):
        n = 2 + k % 5
        game = random_monotone_game(n, seed=2000 + k)
        mate = random_monotone_game(n, seed=7000 + k)
        blames = {name: method_blame(name, game) for name in METHODS}
        mate_blames = {name: method_blame(name, mate) for name in METHODS}

        for name, props in HOLD_SINGLE.items():
            for prop in props:
                verdict = SINGLE_CHECKS[prop](game, blames[name])
                assert verdict.holds, f"{name}/{prop} seed {k}: {verdict.witness}"

        for name in HOLD_CM:
            verdict = check_contribution_monotonicity(
                game, blames[name], mate, mate_blames[name])
            assert verdict.holds, f"{name}/R_CM seed {k}: {verdict.witness}"
        v = check_cpart(game, blames["AP"], mate, mate_blames["AP"])
        assert v.holds, f"AP/R_cParM seed {k}: {v.witness}"
        v = check_rcpart(game, blames["AP"], mate, mate_blames["AP"])
        assert v.holds, f"AP/R_RcParM seed {k}: {v.witness}"

        # model-level cells on the game's one-step realization
        model, behavior = mmdp_from_game(game)
        agent = k % n
        lo = AgentPolicy.deterministic(2, 2, 0)
        hi = AgentPolicy.deterministic(2, 2, 1)
        for pi_a, pi_b in ((lo, hi), (hi, lo)):
            v = check_performance_monotonicity(model, behavior, agent,
                                               pi_a, pi_b, "MC")
            assert v.holds, f"MC/R_PerM seed {k}: {v.witness}"
            v = check_cperf(model, behavior, agent, pi_a, pi_b, "AP")
            assert v.holds, f"AP/R_cPerM seed {k}: {v.witness}"

    # the documented failures of the remaining cells, pinned to fixtures
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    g1 = characteristic_game(model, behavior.replace(0, pi_1))
    g2 = characteristic_game(model, behavior.replace(0, pi_1_prime))

    sv_perm = check_performance_monotonicity(model, behavior, 0,
                                             pi_1, pi_1_prime, "SV")
    assert not sv_perm.holds and "1 < 1.1" in sv_perm.witness
    bi_perm = check_performance_monotonicity(model, behavior, 0,
                                             pi_1, pi_1_prime, "BI")
    assert not bi_perm.holds

    mc_validity = check_validity(g1, marginal_contribution(g1))
    assert not mc_validity.holds
    assert "4" in mc_validity.witness and "2" in mc_validity.witness

    graph_model, graph_behavior = build_graph(
        GraphSpec("coordination", threshold_index=2))
    graph_game = characteristic_game(graph_model, graph_behavior)
    bi_graph = banzhaf(graph_game)
    assert not check_validity(graph_game, bi_graph).holds
    assert not check_efficiency(graph_game, bi_graph).holds
    assert not check_rationality(graph_game, shapley(graph_game)).holds

    print("criterion 3: PASS (matrix clean on 100 games, all documented "
          "failures reproduced)")


def test_criterion_4_participation_identities_and_sweep():
    for k in range(100):
        n = 2 + k % 5
        game = random_monotone_game(n, seed=3000 + k)
        target = game.values.sum() / ((1 << n) - 1)
        assert average_participation(game).total == pytest.approx(
            target, abs=1e-9), f"seed {k}"

    rows = run_perm_sweep()
    by = {(r["method"], r["alpha_prime"]): r["blames"][1] for r in rows}
    for name in ("AP", "MC"):
        overseer = {a: by[(name, a)] for a in ALPHA_PRIME_GRID}
        assert overseer[0.4] <= min(overseer.values()) + 1e-12, (
            f"{name} overseer blame not minimal at the matched level: "
            f"{overseer}")
    sv_overseer = {a: by[("SV", a)] for a in ALPHA_PRIME_GRID}
    assert sv_overseer[0.4] > min(sv_overseer.values()) + 1e-6, (
        f"SV overseer blame unexpectedly minimal at the matched level: "
        f"{sv_overseer}")
    print("criterion 4: PASS (share identity on 100 games; only AP and MC "
          "bottom out at the matched training level)")


def test_criterion_5_coordination_reproduction():
    started = time.perf_counter()
    rows = run_coordination()
    by = {(r["m"], r["method"]): r for r in rows}
    delta = {m: by[(m, "SV")]["delta"] for m in (1, 2, 3, 4)}
    assert by[(1, "MC")]["total"] > delta[1] + 1e-9
    assert by[(2, "MER")]["total"] == pytest.approx(0.0, abs=1e-9)
    assert by[(2, "MC")]["total"] == pytest.approx(0.0, abs=1e-9)
    assert by[(2, "BI")]["total"] > delta[2] + 1e-9
    for m in (1, 2, 3, 4):
        assert by[(m, "SV")]["total"] == pytest.approx(delta[m], abs=1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 5: PASS (all four thresholds, {elapsed:.1f}s)")


def robustness_instance(env):
    if env == "gridworld":
        model, behavior = build_gridworld(GridworldSpec(alpha=0.2,
                                                        alpha_prime=0.5))
        return model, behavior, frozenset({0}), GRID_EPS, None
    model, behavior = build_graph(GraphSpec("robustness"))
    return model, behavior, None, GRAPH_EPS, False


def test_criterion_6_robust_sandwich_and_consistency():
    for env in ("gridworld", "graph"):
        model, behavior, uncertain, eps_grid, exact = robustness_instance(env)
        truth_game = characteristic_game(model, behavior)
        j_truth = evaluate_return(model, behavior)
        truth = {
            "SV_BC": shapley(truth_game).blames,
            "BI_BC": banzhaf(truth_game).blames,
            "MC_BC": marginal_contribution(truth_game).blames,
            "AP_BC": average_participation(truth_game).blames,
        }
        mer_truth_total = mer(truth_game, 0).total
        n = model.num_agents

        for draw in range(20):
            eps = eps_grid[draw % len(eps_grid)]
            uset = sample_center(behavior, eps, seed=5000 + draw,
                                 uncertain_agents=uncertain)
            bounds = robust_bounds(model, uset, exact)
            for mask in range(1 << n):
                coalition = mask_agents(mask, n)
                value = truth_game.values[mask] + j_truth
                assert bounds.min_value(coalition) <= value + 1e-9, (
                    f"{env} draw {draw} mask {mask}: lower bound above truth")
                assert value <= bounds.max_value(coalition) + 1e-9, (
                    f"{env} draw {draw} mask {mask}: upper bound below truth")

            for fn, name in ((sv_blackstone, "SV_BC"), (bi_blackstone, "BI_BC"),
                             (mc_blackstone, "MC_BC"), (ap_blackstone, "AP_BC")):
                got = fn(model, uset, exact).blames
                assert (got <= truth[name] + 1e-9).all(), (
                    f"{env} draw {draw}: {name} over-blames")
            got = mer_blackstone(model, uset, 0, exact).total
            assert got <= mer_truth_total + 1e-9, (
                f"{env} draw {draw}: MER_BC total exceeds truth")
    print("criterion 6: PASS (sandwich plus consistency on 20 sampled sets "
          "per environment)")


def test_criterion_7_robustness_trends():
    grid_rows = run_robustness("gridworld", num_seeds=10)
    graph_rows = run_robustness("graph", num_seeds=10)
    grid_summary = {(r["method"], r["eps_max"]): r
                    for r in summarize_robustness(grid_rows)}
    graph_summary = {(r["method"], r["eps_max"]): r
                     for r in summarize_robustness(graph_rows)}

    grid_truth = characteristic_game(
        *build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5)))
    graph_truth = characteristic_game(*build_graph(GraphSpec("robustness")))

    for summary, eps_grid, delta in ((grid_summary, GRID_EPS, grid_truth.total),
                                     (graph_summary, GRAPH_EPS,
                                      graph_truth.total)):
        for eps in eps_grid:
            assert summary[("SV_V", eps)]["total_mean"] <= delta + 1e-9
        bc_totals = [summary[("SV_BC", eps)]["total_mean"] for eps in eps_grid]
        for a, b in zip(bc_totals, bc_totals[1:]):
            assert b <= a + 1e-9, f"SV_BC mean total rose along {bc_totals}"

    truth_sv = shapley(grid_truth).blames
    for eps in (0.1, 0.15, 0.2):
        sv_rows = [r for r in grid_rows
                   if r["method"] == "SV" and r["eps_max"] == eps]
        assert len(sv_rows) == 10
        mean_excess = np.mean([r["blames"] - truth_sv for r in sv_rows], axis=0)
        assert mean_excess.max() > 0.0, (
            f"point-estimate SV failed to over-blame at eps {eps}")

    for eps in (0.05, 0.1):
        assert graph_summary[("MER_BC", eps)]["total_mean"] <= 1e-9
        assert graph_summary[("MC_BC", eps)]["total_mean"] <= 1e-9
    for eps in GRAPH_EPS:
        assert (graph_summary[("AP_BC", eps)]["l1_mean"]
                <= graph_summary[("SV_BC", eps)]["l1_mean"] + 1e-9)
    print("criterion 7: PASS (all averaged trend clauses on both benchmarks)")


TRANSFER_SINGLE = {
    "R_V": check_validity,
    "R_E": check_efficiency,
    "R_R": check_rationality,
    "R_S": check_symmetry,
    "R_I": check_invariance,
    "R_AE": check_avg_efficiency,
}

TRANSFER_PAIR = {
    "R_CM": check_contribution_monotonicity,
    "R_cParM": check_cpart,
    "R_RcParM": check_rcpart,
}


def perturb(rng, beta, eps):
    noise = rng.normal(size=beta.size)
    scale = eps * rng.uniform(0.2, 1.0) * 0.999999
    return beta + noise * (scale / np.abs(noise).sum())


def test_criterion_8_epsilon_transfer_meta_suite():
    """An assignment within L1 eps of a method keeps that method's exact
    properties at slack eps, and pairwise properties at slack 2 eps."""
    rng = np.random.default_rng(88)
    names = list(METHODS)
    for k in range(100):
        n = 2 + k % 5
        game = random_monotone_game(n, seed=8000 + k)
        mate = random_monotone_game(n, seed=8500 + k)
        name = names[k % len(names)]
        beta = method_blame(name, game).blames
        mate_beta = method_blame(name, mate).blames
        eps = float(rng.uniform(0.01, 0.4))
        shifted = perturb(rng, beta, eps)
        mate_shifted = perturb(rng, mate_beta, eps)

        for prop, checker in TRANSFER_SINGLE.items():
            if checker(game, beta).holds:
                verdict = checker(game, shifted, epsilon=eps)
                assert verdict.holds, (
                    f"{name}/{prop} seed {k}: eps transfer broke, "
                    f"{verdict.witness}")
        for prop, checker in TRANSFER_PAIR.items():
            if checker(game, beta, mate, mate_beta).holds:
                verdict = checker(game, shifted, mate, mate_shifted,
                                  epsilon=2.0 * eps)
                assert verdict.holds, (
                    f"{name}/{prop} seed {k}: 2eps transfer broke, "
                    f"{verdict.witness}")
    print("criterion 8: PASS (100 perturbation pairs, eps and 2eps slacks)")


def test_criterion_9_one_step_realization_roundtrip():
    worst = 0.0
    for k in range(100):
        n = 2 + k % 5
        f = random_monotone_game(n, seed=9000 + k)
        model, behavior = mmdp_from_game(f)
        back = characteristic_game(model, behavior)
        worst = max(worst, float(np.abs(back.values - f.values).max()))
    assert worst <= 1e-12
    print(f"criterion 9: PASS (100 roundtrips, max error {worst:.2e})")
