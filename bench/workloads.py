"""The four benchmark workloads.

Each workload generates its inputs from the run's seed, runs one *item* at a
time through blamekit's public functions, and checks every item against an
oracle that does not share the code path under test. Calls go through the
module attributes (`planning.characteristic_game`, not a name imported
here) so that the traced pass, which swaps those attributes, sees them.

Why each workload exists, and which numbers a change to each layer should
move, is written down in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import os
from itertools import combinations

import numpy as np

from blamekit import (attribution, cli, envs, mmdp, planning, properties,
                      uncertainty)

# Truth counterpart of each robustness row, as run_robustness compares them.
ROBUST_BASE = {"SV": "SV", "SV_V": "SV", "SV_BC": "SV", "BI_BC": "BI",
               "MC_BC": "MC", "MER_BC": "MER", "AP_BC": "AP"}
# The README's guaranteed single-assignment axiom cells per method.
GUARANTEED = {"MER": ("R_V", "R_R", "R_I"), "MC": ("R_S", "R_I"),
              "SV": ("R_V", "R_E", "R_S", "R_I"), "BI": ("R_S", "R_I"),
              "AP": ("R_V", "R_AE", "R_S", "R_I")}
CHECKERS = ("check_validity", "check_efficiency", "check_rationality",
            "check_avg_efficiency", "check_symmetry", "check_invariance")
EXPERIMENT_SEEDS = 1
# Absolute slack lp.solve_lexicographic allows on the primary objective.
LEXICOGRAPHIC_SLACK = 1e-9
REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def clear_caches() -> None:
    """Empty the module-global memo tables, where they still exist."""
    for module, name in ((planning, "_GAME_CACHE"),
                         (uncertainty, "_BOUNDS_CACHE")):
        cache = getattr(module, name, None)
        if cache is not None:
            cache.clear()


def plain(obj):
    """JSON-ready copy of an output: dataclasses become dicts, arrays and
    tuples become lists."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def differences(expected, got, where: str = "", rel: float | None = REL_TOL,
                limit: int = 5) -> list[str]:
    """Where two plain values differ. Numbers compare to `rel` relative
    (with an ABS_FLOOR for values near zero), or exactly when rel is None."""
    out: list[str] = []

    def walk(a, b, path):
        if len(out) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                out.append(f"{path}: keys {sorted(a)} != {sorted(b)}")
                return
            for k in a:
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                out.append(f"{path}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif (isinstance(a, float) or isinstance(b, float)) and \
                not isinstance(a, (bool, str)) and not isinstance(b, (bool, str)):
            if rel is None:
                ok = a == b
            else:
                ok = abs(a - b) <= rel * max(abs(a), abs(b)) + ABS_FLOOR
            if not ok:
                out.append(f"{path}: {a!r} != {b!r}")
        elif a != b:
            out.append(f"{path}: {a!r} != {b!r}")

    walk(expected, got, where)
    return out


def _agents(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Workload:
    """One item shape. Subclasses fill in the hooks below."""

    name = ""
    experiment_repeats = 1
    # The kind of calibration.py work that the items spend their time in.
    # Set-ups and experiment drivers are interpreted work in every workload.
    item_calibration = "interpreter"
    # Round time of the seed commit at the reference speed of calibration.py
    # (2 vCPUs, Python 3.11, numpy 2.4). A pass runs
    # round(seconds / nominal_round_s) rounds, so it measures about
    # --seconds of scaled item time; a faster program finishes the same
    # items sooner, which keeps runs of two commits comparable item for
    # item.
    nominal_round_s = 1.0

    def __init__(self):
        self.notes: list[str] = []

    def setup(self) -> None:
        """Env builds and the truth game: everything before the first item
        except input generation."""

    def round_inputs(self, rng: np.random.Generator) -> list:
        """Inputs for one round: one item per size or eps level, so every
        round has the same mix."""
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def check_item(self, item, output) -> list[str]:
        return []

    def final_checks(self) -> list[str]:
        """Oracles deferred to the end of the run (after peak memory is
        read), such as the ones that import scipy."""
        return []

    def prepare_experiment(self) -> None:
        """Write whatever input files the experiment driver reads."""

    def experiment(self):
        """One call of the workload's `blamekit` driver, as the CLI makes it."""
        raise NotImplementedError

    def check_experiment(self, output, reference) -> list[str]:
        return differences(reference, plain(output), "experiment")


def _consistent(row) -> bool:
    """Rows of the conservative variants must never over-blame. The point
    estimate SV is exempt: over-blaming under a misspecified center is what
    the robustness experiment sets out to show."""
    return row["method"] == "SV" or row["consistent"]


class Robust(Workload):
    """One item is one (eps, seed) task of `cli.run_robustness`'s body."""

    experiment_repeats = 3

    def __init__(self, env: str):
        super().__init__()
        self.env = env
        self.name = "robust-grid" if env == "gridworld" else "robust-graph"
        self.nominal_round_s = 0.9 if env == "gridworld" else 1.5

    def setup(self) -> None:
        if self.env == "gridworld":
            self.model, self.behavior = envs.build_gridworld(
                envs.GridworldSpec(alpha=0.2, alpha_prime=0.5))
            self.uncertain, self.eps_levels = frozenset({0}), cli.GRID_EPS
            self.tiebreak, self.exact = 1, None
        else:
            self.model, self.behavior = envs.build_graph(
                envs.GraphSpec("robustness"))
            self.uncertain, self.eps_levels = None, cli.GRAPH_EPS
            self.tiebreak, self.exact = None, False
        game = planning.characteristic_game(self.model, self.behavior)
        self.truth = {"SV": attribution.shapley(game),
                      "BI": attribution.banzhaf(game),
                      "MC": attribution.marginal_contribution(game),
                      "MER": attribution.mer(game, self.tiebreak),
                      "AP": attribution.average_participation(game)}
        j_truth = mmdp.evaluate_return(self.model, self.behavior)
        self.truth_values = game.values + j_truth

    def round_inputs(self, rng):
        return list(zip(self.eps_levels, _seeds(rng, len(self.eps_levels))))

    def run_item(self, item):
        eps, seed = item
        m, exact = self.model, self.exact
        uset = uncertainty.sample_center(self.behavior, eps, seed,
                                         self.uncertain)
        center_game = planning.characteristic_game(m, uset.center)
        results = [attribution.shapley(center_game),
                   uncertainty.sv_valid(m, uset, exact),
                   uncertainty.sv_blackstone(m, uset, exact),
                   uncertainty.bi_blackstone(m, uset, exact),
                   uncertainty.mc_blackstone(m, uset, exact),
                   uncertainty.mer_blackstone(m, uset, self.tiebreak, exact),
                   uncertainty.ap_blackstone(m, uset, exact)]
        rows = []
        for res in results:
            ref = self.truth[ROBUST_BASE[res.method]]
            if res.method == "MER_BC":
                distance = abs(res.total - ref.total)
                consistent = res.total <= ref.total + cli.CONSISTENCY_TOL
            else:
                distance = uncertainty.l1_distance(res, ref)
                consistent = bool(
                    (res.blames <= ref.blames + cli.CONSISTENCY_TOL).all())
            rows.append({"method": res.method, "eps_max": eps, "seed": seed,
                         "blames": res.blames, "total": res.total,
                         "l1_to_truth": distance, "consistent": consistent})
        return rows

    def check_item(self, item, output) -> list[str]:
        eps, seed = item
        problems = [f"{r['method']} eps {eps} seed {seed} not consistent"
                    for r in output if not _consistent(r)]
        # Every bound the variants used, read back from the memoized
        # RobustBounds of this task's set: the lower bound of each nonempty
        # coalition and the upper bound of each coalition. The lower bound
        # of the empty coalition feeds no variant and would cost a robust
        # solve of its own, so it is left out.
        uset = uncertainty.sample_center(self.behavior, eps, seed,
                                         self.uncertain)
        bounds = uncertainty.robust_bounds(self.model, uset, self.exact)
        n = self.model.num_agents
        for mask, value in enumerate(self.truth_values):
            coalition = _agents(mask, n)
            tol = REL_TOL * max(1.0, abs(value))
            if mask and bounds.min_value(coalition) > value + tol:
                problems.append(f"eps {eps} seed {seed} coalition {coalition}:"
                                f" lower bound above truth {value!r}")
            if value > bounds.max_value(coalition) + tol:
                problems.append(f"eps {eps} seed {seed} coalition {coalition}:"
                                f" upper bound below truth {value!r}")
        return problems

    def experiment(self):
        return cli.run_robustness(self.env, EXPERIMENT_SEEDS)

    def check_experiment(self, output, reference) -> list[str]:
        problems = [f"experiment row {r['method']} eps {r['eps_max']} seed "
                    f"{r['seed']} not consistent"
                    for r in output if not _consistent(r)]
        problems += differences(reference, plain(output), "experiment")
        # The same tasks through the serial item body must give the pooled
        # rows bit for bit.
        clear_caches()
        serial = []
        for eps in self.eps_levels:
            for seed in range(EXPERIMENT_SEEDS):
                serial += self.run_item((eps, seed))
        problems += differences(plain(output), plain(serial), "serial",
                                rel=None)
        return problems


class CoalitionSweep(Workload):
    """One item realizes a random monotone game as a one-step model and
    extracts its coalition game again."""

    name = "coalition-sweep"
    # Three sizes, not the four of 6-9: with an even count of cost groups
    # the median item sits between two groups and follows their extremes.
    sizes = (7, 8, 9)
    experiment_repeats = 15
    nominal_round_s = 1.4

    def round_inputs(self, rng):
        return [properties.random_monotone_game(n, seed)
                for n, seed in zip(self.sizes, _seeds(rng, len(self.sizes)))]

    def run_item(self, game):
        model, behavior = planning.mmdp_from_game(game)
        return planning.characteristic_game(model, behavior)

    def check_item(self, game, output) -> list[str]:
        error = float(np.abs(output.values - game.values).max())
        if output.values.shape != game.values.shape or error > 1e-12:
            return [f"n={game.num_agents}: round trip off by {error:.3g}"]
        return []

    def experiment(self):
        return {"perm": cli.run_perm_sweep(),
                "coordination": cli.run_coordination()}


class Attribution(Workload):
    """One item runs every method, pivotality and the six single-assignment
    checkers on a random monotone game of 9 to 11 agents."""

    name = "attribution"
    # Not 10-12: n=12 items cost 0.9 to 2.0 s each, too few of them fit a
    # run for the tail (which lands in the largest size) to be steady.
    sizes = (9, 10, 11)
    experiment_repeats = 15
    # Most item time is the MER simplex on tableaus of up to 2^11 rows.
    item_calibration = "memory"
    nominal_round_s = 0.9
    # The CLI experiment: `blamekit attribute` and `blamekit check` on the
    # one-step realization of a fixed 8-agent game.
    cli_agents, cli_seed = 8, 0

    def __init__(self, out_dir: str):
        super().__init__()
        self.out_dir = out_dir
        self.lp_cases: list[tuple] = []

    def round_inputs(self, rng):
        return [properties.random_monotone_game(n, seed)
                for n, seed in zip(self.sizes, _seeds(rng, len(self.sizes)))]

    def run_item(self, game):
        results = [attribution.mer(game), attribution.mer(game, 0),
                   attribution.marginal_contribution(game),
                   attribution.shapley(game), attribution.banzhaf(game),
                   attribution.average_participation(game)]
        pivotal = attribution.pivotality(game)
        verdicts = [[getattr(properties, name)(game, beta)
                     for name in CHECKERS] for beta in results]
        return results, pivotal, verdicts

    def check_item(self, game, output) -> list[str]:
        results, _, verdicts = output
        n = game.num_agents
        problems = []
        scale = max(1.0, abs(game.total))
        tol = REL_TOL * scale
        sv = results[3]
        if abs(sv.total - game.total) > tol:
            problems.append(f"n={n}: SV sums to {sv.total!r}, "
                            f"not {game.total!r}")
        oracle = _AxiomOracle(game, tol)
        for beta, row in zip(results, verdicts):
            for prop in GUARANTEED[beta.method]:
                verdict = next(v for v in row if v.property == prop)
                if not verdict.holds:
                    problems.append(f"n={n}: checker says {beta.method} "
                                    f"breaks {prop}: {verdict.witness}")
                if not oracle.holds(prop, beta.blames):
                    problems.append(f"n={n}: {beta.method} breaks {prop} "
                                    "by the independent check")
        self.lp_cases.append((game.values, results[0].total,
                              results[1].total))
        return problems

    def final_checks(self) -> list[str]:
        """MER's total against HiGHS. The plain MER total must match to
        REL_TOL. The tiebreak run re-optimizes inside an absolute
        LEXICOGRAPHIC_SLACK of the optimum, so its total is held to that
        slack, and the largest shortfall seen is reported as a note."""
        cases, self.lp_cases = self.lp_cases, []
        try:
            from scipy.optimize import linprog
        except ImportError:
            self.notes.append("scipy missing: MER linprog oracle skipped")
            return []
        problems = []
        shortfall = 0.0
        for values, total, tiebreak_total in cases:
            n = (values.size - 1).bit_length()
            masks = np.arange(1, values.size)
            rows = (masks[:, None] >> np.arange(n) & 1).astype(float)
            res = linprog(-np.ones(n), A_ub=rows, b_ub=values[1:],
                          bounds=(0, None), method="highs")
            if res.status != 0:
                problems.append(f"n={n}: linprog status {res.status}")
                continue
            best = -res.fun
            tol = REL_TOL * abs(best)
            if abs(total - best) > tol + ABS_FLOOR:
                problems.append(f"n={n}: MER total {total!r}, "
                                f"linprog {best!r}")
            if abs(tiebreak_total - best) > tol + LEXICOGRAPHIC_SLACK:
                problems.append(f"n={n}: MER tiebreak total "
                                f"{tiebreak_total!r}, linprog {best!r}")
            shortfall = max(shortfall, best - tiebreak_total)
        self.notes.append(f"MER with tiebreak falls short of the linprog "
                          f"optimum by up to {shortfall:.3g} (absolute)")
        return problems

    def prepare_experiment(self) -> None:
        game = properties.random_monotone_game(self.cli_agents, self.cli_seed)
        model, behavior = planning.mmdp_from_game(game)
        self.model_path = os.path.join(self.out_dir, "attribution-model.json")
        self.behavior_path = os.path.join(self.out_dir,
                                          "attribution-behavior.json")
        mmdp.save_model(model, self.model_path)
        mmdp.save_policy(behavior, self.behavior_path)

    def experiment(self):
        files = ["--model", self.model_path, "--behavior", self.behavior_path]
        out = {}
        calls = [("attribute", ["attribute", *files, "--tiebreak", "1"])]
        calls += [(f"check {name}", ["check", *files, "--methods", name]
                   + (["--tiebreak", "1"] if name == "MER" else []))
                  for name in attribution.METHODS]
        for label, argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out[label] = {"exit": code, "rows": _csv(buf.getvalue())}
        return out


def _csv(text: str) -> list[list]:
    rows = []
    for line in text.strip().splitlines():
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


class _AxiomOracle:
    """The guaranteed single-assignment axioms, restated with whole-array
    numpy over the coalition lattice instead of the checkers' loops."""

    def __init__(self, game, tol: float):
        n = game.num_agents
        self.values = game.values
        self.tol = tol
        masks = np.arange(1 << n)
        self.member = (masks[:, None] >> np.arange(n) & 1).astype(bool)
        # marginal[i] over coalitions S without i: v(S + i) - v(S)
        self.without = [masks[~self.member[:, i]] for i in range(n)]
        self.n = n

    def holds(self, prop: str, blames: np.ndarray) -> bool:
        v, tol, n = self.values, self.tol, self.n
        total = blames.sum()
        if prop == "R_V":
            return total <= v[-1] + tol
        if prop == "R_E":
            return abs(total - v[-1]) <= tol
        if prop == "R_AE":
            return abs(total - v.sum() / ((1 << n) - 1)) <= tol
        if prop == "R_R":
            return bool((self.member[1:] @ blames <= v[1:] + tol).all())
        if prop == "R_I":
            for i in range(n):
                s = self.without[i]
                if (v[s | 1 << i] - v[s] <= 1e-9).all() and blames[i] > tol:
                    return False
            return True
        if prop == "R_S":
            for i, j in combinations(range(n), 2):
                s = self.without[i]
                s = s[~(s >> j & 1).astype(bool)]
                if (np.abs(v[s | 1 << i] - v[s | 1 << j]) <= 1e-9).all() and \
                        abs(blames[i] - blames[j]) > tol:
                    return False
            return True
        raise ValueError(prop)


def make(name: str, out_dir: str) -> Workload:
    if name == "robust-grid":
        return Robust("gridworld")
    if name == "robust-graph":
        return Robust("graph")
    if name == "coalition-sweep":
        return CoalitionSweep()
    if name == "attribution":
        return Attribution(out_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("robust-grid", "robust-graph", "coalition-sweep", "attribution")
