"""Command line interface: attribution on model files, the benchmark
experiments, and property checking.

Exit codes: 0 success, 1 failed property expectations, 2 unparseable input,
3 violated invariants, 4 I/O failure. Output is deterministic for identical
flags: experiment tasks run one after another in task order, in the calling
thread, and floats carry 12 significant digits.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

# the per-method names stay importable here, where the bench tracer wraps them
from .attribution import (METHODS, apply, average_participation, banzhaf,
                          marginal_contribution, mer, shapley)
from .envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from .mmdp import load_model, load_policy, validate_mmdp
from .planning import MAX_AGENTS, characteristic_game
from .properties import (check_avg_efficiency, check_efficiency,
                         check_invariance, check_rationality, check_symmetry,
                         check_validity)
from .uncertainty import (ap_blackstone, bi_blackstone, l1_distance,
                          mc_blackstone, mer_blackstone, sample_center,
                          sv_blackstone, sv_valid)

GRID_EPS = (0.01, 0.05, 0.1, 0.15, 0.2)
GRAPH_EPS = (0.01, 0.05, 0.1)
ALPHA_PRIME_GRID = tuple(round(0.1 * i, 1) for i in range(11))
CONSISTENCY_TOL = 1e-9

EXPECTED_HOLD = {
    "MER": ("R_V", "R_R", "R_I"),
    "MC": ("R_S", "R_I"),
    "SV": ("R_V", "R_E", "R_S", "R_I"),
    "BI": ("R_S", "R_I"),
    "AP": ("R_V", "R_AE", "R_S", "R_I"),
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _csv(*cells) -> str:
    """One CSV line; numbers other than ints carry 12 significant digits."""
    return ",".join(("true" if c else "false") if isinstance(c, (bool, np.bool_))
                    else str(c) if isinstance(c, (str, int))
                    else f"{float(c):.12g}" for c in cells)


def _betas(n: int) -> list[str]:
    return [f"beta_{i + 1}" for i in range(n)]


def _load_inputs(model_path: str, behavior_path: str):
    try:
        model = load_model(model_path)
        behavior = load_policy(behavior_path)
    except OSError as err:
        raise CliError(4, f"cannot read input: {err}") from err
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise CliError(2, f"cannot parse input: {err}") from err
    except MemoryError as err:
        raise CliError(2, f"model too large to load: {err}") from err
    problems = validate_mmdp(model)
    problems += behavior.validate(model)
    if model.num_agents > MAX_AGENTS:
        problems.append(f"more than {MAX_AGENTS} agents")
    if problems:
        raise CliError(3, "invalid instance: " + "; ".join(problems))
    return model, behavior


def _parse_methods(spec: str) -> list[str]:
    if spec == "all":
        return list(METHODS)
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in METHODS]
    if unknown or not names:
        raise CliError(2, f"unknown methods {unknown}; "
                          f"choose from {sorted(METHODS)} or 'all'")
    return names


def _tiebreak_index(arg: int | None, num_agents: int) -> int | None:
    if arg is None:
        return None
    if not 1 <= arg <= num_agents:
        raise CliError(2, f"tiebreak agent {arg} outside 1..{num_agents}")
    return arg - 1


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(4, f"cannot write {out}: {err}") from err


def cmd_attribute(args) -> int:
    model, behavior = _load_inputs(args.model, args.behavior)
    methods = _parse_methods(args.methods)
    tiebreak = _tiebreak_index(args.tiebreak, model.num_agents)
    try:
        game = characteristic_game(model, behavior)
        results = [apply(name, game, tiebreak) for name in methods]
    except (ValueError, RuntimeError) as err:
        raise CliError(3, f"attribution failed: {err}") from err
    _emit([_csv("method", *_betas(model.num_agents), "total")]
          + [_csv(res.method, *res.blames, res.total) for res in results],
          args.out)
    return 0


def cmd_check(args) -> int:
    model, behavior = _load_inputs(args.model, args.behavior)
    names = _parse_methods(args.methods)
    if len(names) != 1:
        raise CliError(2, "check runs one method at a time")
    name = names[0]
    tiebreak = _tiebreak_index(args.tiebreak, model.num_agents)
    eps = args.eps_value
    if not (np.isfinite(eps) and eps >= 0):
        raise CliError(2, f"bad eps {eps!r}: expected a finite value >= 0")
    try:
        game = characteristic_game(model, behavior)
        beta = apply(name, game, tiebreak)
        verdicts = [check(game, beta, eps) for check in (
            check_validity, check_efficiency, check_rationality,
            check_avg_efficiency, check_symmetry, check_invariance)]
    except (ValueError, RuntimeError) as err:
        raise CliError(3, f"check failed: {err}") from err
    _emit(["property,epsilon,holds,witness"]
          + [_csv(v.property, v.epsilon, v.holds, v.witness or "")
             for v in verdicts], args.out)
    expected = set(EXPECTED_HOLD[name])
    ok = all(v.holds for v in verdicts if v.property in expected)
    return 0 if ok else 1


def run_perm_sweep(alpha: float = 0.4,
                   grid: tuple[float, ...] = ALPHA_PRIME_GRID) -> list[dict]:
    """Blame per method for each overseer training level alpha_prime."""
    rows = []
    for alpha_prime in grid:
        model, behavior = build_gridworld(
            GridworldSpec(alpha=alpha, alpha_prime=alpha_prime))
        game = characteristic_game(model, behavior)
        for name in METHODS:
            res = apply(name, game, 1)
            rows.append({"alpha_prime": alpha_prime, "method": name,
                         "blames": res.blames, "total": res.total})
    return rows


def run_coordination(levels: tuple[int, ...] = (1, 2, 3, 4)) -> list[dict]:
    """Totals and blames per method for each coordination threshold."""
    rows = []
    for level in levels:
        model, behavior = build_graph(
            GraphSpec("coordination", threshold_index=level))
        game = characteristic_game(model, behavior)
        for name in METHODS:
            res = apply(name, game)
            rows.append({"m": level, "method": name, "blames": res.blames,
                         "total": res.total, "delta": game.total})
    return rows


def _robustness_setup(env: str):
    # Gridworld bounds default to the exact single-uncertain-agent solver;
    # the Graph instance defaults to the relaxed joint box on both sides,
    # which is what lets the pessimistic singleton bounds collapse to zero
    # once eps_max reaches 0.05.
    if env == "gridworld":
        model, behavior = build_gridworld(GridworldSpec(alpha=0.2, alpha_prime=0.5))
        return model, behavior, frozenset({0}), GRID_EPS, 1, None
    if env == "graph":
        model, behavior = build_graph(GraphSpec("robustness"))
        return model, behavior, None, GRAPH_EPS, None, False
    raise CliError(2, f"unknown robustness environment {env!r}")


def run_robustness(env: str, num_seeds: int = 10,
                   eps_levels: tuple[float, ...] | None = None,
                   exact: bool | None = None) -> list[dict]:
    """Point-estimate and robust attributions for sampled uncertainty sets.

    Returns one row per (eps, seed, method) with the blame vector, the L1
    distance to the method's full-information counterpart (total-blame
    difference for MER, matching its reporting convention) and whether the
    estimate stayed consistent (never above the counterpart).
    """
    model, behavior, uncertain, default_eps, tiebreak, default_exact = \
        _robustness_setup(env)
    if eps_levels is None:
        eps_levels = default_eps
    if exact is None:
        exact = default_exact
    truth_game = characteristic_game(model, behavior)
    truth = {name: apply(name, truth_game, tiebreak) for name in METHODS}

    def one_task(eps: float, seed: int) -> list[dict]:
        uset = sample_center(behavior, eps, seed, uncertain)
        results = [("SV", apply("SV", characteristic_game(model, uset.center))),
                   ("SV", sv_valid(model, uset, exact)),
                   ("SV", sv_blackstone(model, uset, exact)),
                   ("BI", bi_blackstone(model, uset, exact)),
                   ("MC", mc_blackstone(model, uset, exact)),
                   ("MER", mer_blackstone(model, uset, tiebreak, exact)),
                   ("AP", ap_blackstone(model, uset, exact))]
        out = []
        for name, res in results:
            ref = truth[name]
            if name == "MER":
                distance = abs(res.total - ref.total)
                consistent = res.total <= ref.total + CONSISTENCY_TOL
            else:
                distance = l1_distance(res, ref)
                consistent = bool(
                    (res.blames <= ref.blames + CONSISTENCY_TOL).all())
            out.append({"method": res.method, "eps_max": eps, "seed": seed,
                        "blames": res.blames, "total": res.total,
                        "l1_to_truth": distance, "consistent": consistent})
        return out

    return [row for eps in eps_levels for seed in range(num_seeds)
            for row in one_task(eps, seed)]


def summarize_robustness(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation over seeds per (method, eps_max)."""
    grouped: dict[tuple, list[dict]] = {}
    for row in rows:
        grouped.setdefault((row["method"], row["eps_max"]), []).append(row)
    summary = []
    for (method, eps), group in grouped.items():
        totals = np.array([r["total"] for r in group])
        dists = np.array([r["l1_to_truth"] for r in group])
        summary.append({"method": method, "eps_max": eps,
                        "total_mean": totals.mean(), "total_std": totals.std(),
                        "l1_mean": dists.mean(), "l1_std": dists.std(),
                        "consistent_all": all(r["consistent"] for r in group)})
    return summary


def cmd_experiment(args) -> int:
    eps = None if args.eps_raw is None else tuple(_parse_eps_list(args.eps_raw))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        raise CliError(4, f"cannot create {args.out}: {err}") from err
    exact = True if args.exact_uncertainty else (False if args.relaxed else None)
    if args.name in ("perm", "coordination"):
        key, rows = (("alpha_prime", run_perm_sweep()) if args.name == "perm"
                     else ("m", run_coordination()))
        _emit([_csv(key, "method", *_betas(rows[0]["blames"].size), "total")]
              + [_csv(r[key], r["method"], *r["blames"], r["total"])
                 for r in rows],
              os.path.join(args.out, f"{args.name}.csv"))
        return 0
    if args.name in ("robustness-grid", "robustness-graph"):
        env = "gridworld" if args.name == "robustness-grid" else "graph"
        try:
            rows = run_robustness(env, args.seeds, eps, exact)
        except (ValueError, RuntimeError) as err:
            raise CliError(3, f"experiment failed: {err}") from err
        stem = args.name.replace("-", "_")
        _emit([_csv("method", "eps_max", "seed", *_betas(rows[0]["blames"].size),
                    "total", "l1_to_truth", "consistent")]
              + [_csv(r["method"], r["eps_max"], r["seed"], *r["blames"],
                      r["total"], r["l1_to_truth"], r["consistent"])
                 for r in rows],
              os.path.join(args.out, f"{stem}.csv"))
        summary = summarize_robustness(rows)
        # the summary's keys are its column names
        _emit([_csv(*summary[0])] + [_csv(*r.values()) for r in summary],
              os.path.join(args.out, f"{stem}_summary.csv"))
        return 0
    raise CliError(2, f"unknown experiment {args.name!r}")


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise CliError(2, f"bad eps list {text!r}") from err
    # a half-L1 radius of 1 already covers the whole simplex
    if not values or not all(0.0 <= v <= 1.0 for v in values):
        raise CliError(2, f"bad eps list {text!r}: expected values in [0, 1]")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamekit",
        description="blame attribution for cooperative multi-agent MDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    attribute = sub.add_parser("attribute", help="attribute blame on a model")
    attribute.add_argument("--model", required=True)
    attribute.add_argument("--behavior", required=True)
    attribute.add_argument("--methods", default="all")
    attribute.add_argument("--tiebreak", type=int, default=None,
                           help="1-based agent whose blame breaks LP ties")
    attribute.add_argument("--out", default=None)
    attribute.set_defaults(func=cmd_attribute)

    check = sub.add_parser("check", help="verify axioms for one method")
    check.add_argument("--model", required=True)
    check.add_argument("--behavior", required=True)
    check.add_argument("--methods", default="SV")
    check.add_argument("--tiebreak", type=int, default=None)
    check.add_argument("--eps", dest="eps_value", type=float, default=0.0)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    experiment = sub.add_parser("experiment", help="rebuild a benchmark run")
    experiment.add_argument(
        "name", choices=["perm", "coordination", "robustness-grid",
                         "robustness-graph"])
    experiment.add_argument("--seeds", type=int, default=10)
    experiment.add_argument("--eps", dest="eps_raw", default=None)
    experiment.add_argument("--out", default=".")
    group = experiment.add_mutually_exclusive_group()
    group.add_argument("--exact-uncertainty", action="store_true",
                       help="require exact chooser sets everywhere")
    group.add_argument("--relaxed", action="store_true",
                       help="force the relaxed box everywhere")
    experiment.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seeds", 1) < 1:
        parser.error("--seeds must be positive")
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
