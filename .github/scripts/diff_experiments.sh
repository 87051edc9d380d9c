#!/usr/bin/env bash
# Report which experiment CSV files and CLI outputs differ between the
# working tree and a base commit. Run from the repository root:
#
#     .github/scripts/diff_experiments.sh BASE_REF [WORK_DIR]
#
# The base's src/ is unpacked with `git archive` under WORK_DIR (a fresh
# temporary directory by default); each tree runs from its own src/ through
# PYTHONPATH:
#   - the four experiments, the robust ones at --seeds 1 --eps 0.05, and
#     the gridworld one again with --relaxed, into OUT_DIR/relaxed;
#   - the one-step model of random_monotone_game(4, 0), saved by the tree's
#     own mmdp_from_game, then `attribute --tiebreak 1` and `check` under
#     each of the five methods on it (each output ends with its exit code);
#   - the one-step model of random_monotone_game(4, 4) x 1e9, then
#     `attribute --methods MER --tiebreak 4` on it: MER's tiebreak at a large
#     reward scale;
#   - the pair and model checkers (CM, PerM, cPerM, cParM, RcParM) under each
#     method at epsilon 0 and 0.3, on the impossibility fixture's two
#     deviations and on fixed random_monotone_game pairs, one with an agent's
#     coalitions lifted and one unrelated, each pair both ways round;
#   - properties.random_monotone_game(n, s).values as float.hex text for
#     n = 0 to 12 and s = 0 to 3, so that a moved draw shows as its own
#     file, not only through the sweeps and checks built on those games;
#   - planning.coalition_values, every entry as float.hex text, on the
#     one-step model of random_monotone_game(n, 0) for n = 1 to 12, on the
#     same model at n = 8 and 12 with every agent at (0.8, 0.2), on the
#     four coordination graphs, on the robustness graph, on the
#     gridworld at the perm experiment's eleven behaviors, on a seeded
#     5-state, 8-agent acyclic model of four levels under a mixed product
#     behavior with one agent's row all zero at one state, and on the
#     one-step model whose every reward is -0.0, so that any bit-level move
#     in the coalition sweep shows, not only one that reaches a CSV cell,
#     on deterministic multi-level models and on the cyclic sweep too, in
#     the lattice's rounding of a mixed product behavior at the agent cap,
#     in a level's successor contraction at lattice widths past the 4-agent
#     graphs, and in the sign of a zero backup;
#   - the same dump, into its own file, for explicit joint tables: the
#     `joint_table` of the mixed one-step behaviors at n = 8 and 12, of the
#     robustness graph's behavior and of the perm gridworld behavior at
#     alpha_prime 0.5, and the `max_policy()` of each set the robust
#     experiments draw at seeds 0 to 9 and their default eps levels (the
#     gridworld at exact=None and exact=False, the robustness graph at
#     exact=False), the one place where a complement plays some but not all
#     of its actions, so that a bit-level move in the path that gathers
#     each chunk's index and marginalizes through `_induced` shows. The
#     memo keys a joint table apart from its product, whose lattice rounds
#     otherwise; these run in a process of their own all the same, so that
#     no product sweep runs before them;
#   - planning._topological_levels, each level's states or None, on the
#     four coordination graphs, the robustness graph, the gridworld, the
#     one-step model of random_monotone_game(n, 0) for n = 1 to 12, and
#     seeded dense, one-hot layered and cyclic models of 2 to 60 states,
#     so that a peel change that moves any state to another level shows;
#   - uncertainty.RobustBounds, every coalition's min and max bound as
#     float.hex text and a sha256 digest of max_policy(), for each set the
#     robust experiments draw at seeds 0 to 9 and their default eps levels:
#     on the gridworld (exact=None, its exact ball, and exact=False) and on
#     the robustness graph (exact=False, as the experiment runs it, and
#     exact=None: the ball where one agent is outside the coalition, else
#     the segment corners for the max and the box for the min), so that a
#     bit-level move in any chooser shows, not only one that reaches a
#     12-digit CSV cell;
#   - attribution.mer's untied, tiebreak-0 and tiebreak-(n - 1) points as
#     float.hex text on random_monotone_game(n, s) for n = 2 to 11 and
#     s = 0 to 3, and on the same games with the cap of mask
#     1 + 3s mod (2^n - 1) set to -1e-17, whose primary runs phase 1, so
#     that a simplex change that moves any MER point shows.
# Prints one GitHub `::warning::` line per differing or one-sided file. It
# only reports: it exits 0 whatever it finds or fails to run.
set -uo pipefail
base=$1
work=${2:-$(mktemp -d)}
mkdir -p "$work/base"

run_experiments() {  # SRC_DIR OUT_DIR
    for args in "perm" "coordination" \
                "robustness-grid --seeds 1 --eps 0.05" \
                "robustness-graph --seeds 1 --eps 0.05"; do
        # shellcheck disable=SC2086
        PYTHONPATH="$1" python -m blamekit.cli experiment $args --out "$2" \
            > /dev/null || echo "::warning::experiment $args failed on $1"
    done
    PYTHONPATH="$1" python -m blamekit.cli experiment robustness-grid \
        --seeds 1 --eps 0.05 --relaxed --out "$2/relaxed" > /dev/null \
        || echo "::warning::experiment robustness-grid --relaxed failed on $1"
}

run_one_step() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - "$2" <<'EOF' \
        || echo "::warning::saving the one-step model failed on $1"
import sys
from blamekit.mmdp import save_model, save_policy
from blamekit.planning import CharacteristicGame, mmdp_from_game
from blamekit.properties import random_monotone_game
model, behavior = mmdp_from_game(random_monotone_game(4, 0))
save_model(model, f"{sys.argv[1]}/model.json")
save_policy(behavior, f"{sys.argv[1]}/behavior.json")
large = CharacteristicGame(4, random_monotone_game(4, 4).values * 1e9)
model, behavior = mmdp_from_game(large)
save_model(model, f"{sys.argv[1]}/model_1e9.json")
save_policy(behavior, f"{sys.argv[1]}/behavior_1e9.json")
EOF
    files=(--model "$2/model.json" --behavior "$2/behavior.json")
    PYTHONPATH="$1" python -m blamekit.cli attribute "${files[@]}" \
        --tiebreak 1 > "$2/attribute.csv" 2>&1
    echo "exit $?" >> "$2/attribute.csv"
    PYTHONPATH="$1" python -m blamekit.cli attribute \
        --model "$2/model_1e9.json" --behavior "$2/behavior_1e9.json" \
        --methods MER --tiebreak 4 > "$2/attribute_mer_1e9.csv" 2>&1
    echo "exit $?" >> "$2/attribute_mer_1e9.csv"
    for method in MER MC SV BI AP; do
        PYTHONPATH="$1" python -m blamekit.cli check "${files[@]}" \
            --methods "$method" > "$2/check_$method.csv" 2>&1
        echo "exit $?" >> "$2/check_$method.csv"
    done
}

run_pair_checks() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - > "$2/pair_checks.csv" 2>&1 <<'EOF'
import numpy as np
from blamekit.attribution import apply
from blamekit.planning import CharacteristicGame, characteristic_game
from blamekit.properties import (
    check_contribution_monotonicity, check_cperf, check_cpart,
    check_performance_monotonicity, check_rcpart, impossibility_fixture,
    random_monotone_game)
model, behavior, pi_1, pi_1_prime = impossibility_fixture()
deviations = [(pi_1, pi_1_prime), (pi_1_prime, pi_1)]
pairs = [("fixture", *(characteristic_game(model, behavior.replace(0, pi))
                       for pi in deviations[0]))]
# fixed pairs on which some method fails CM, cParM or RcParM: each
# verdict's witness names a violator
for n, seed in ((4, 3), (4, 7)):
    game = random_monotone_game(n, seed)
    lifted = game.values + np.where(np.arange(1 << n) >> seed % n & 1, 0.25, 0.0)
    pairs.append((f"uplifted {n} {seed}", CharacteristicGame(n, lifted), game))
for n, seed in ((3, 4), (3, 8)):
    pairs.append((f"unrelated {n} {seed}", random_monotone_game(n, seed),
                  random_monotone_game(n, seed + 10)))
for method in ("MER", "MC", "SV", "BI", "AP"):
    tiebreak = 0 if method == "MER" else None
    for eps in (0.0, 0.3):
        verdicts = [(f"fixture {i}", checker(model, behavior, 0, *deviations[i],
                                             method, eps, tiebreak))
                    for i in (0, 1)
                    for checker in (check_performance_monotonicity, check_cperf)]
        for label, g1, g2 in pairs:
            for name, (a, b) in (("", (g1, g2)), (" swapped", (g2, g1))):
                beta_a, beta_b = apply(method, a, tiebreak), apply(method, b, tiebreak)
                verdicts += [(label + name, checker(a, beta_a, b, beta_b, eps))
                             for checker in (check_contribution_monotonicity,
                                             check_cpart, check_rcpart)]
        for label, v in verdicts:
            print(f"{method},{label},{v.property},{v.epsilon},{v.holds},"
                  f"{v.witness or ''}")
EOF
    echo "exit $?" >> "$2/pair_checks.csv"
}

run_games() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - > "$2/games.txt" 2>&1 <<'EOF'
from blamekit.properties import random_monotone_game
for n in range(13):
    for seed in range(4):
        values = random_monotone_game(n, seed).values
        print(n, seed, " ".join(float(x).hex() for x in values))
EOF
    echo "exit $?" >> "$2/games.txt"
}

run_coalition_values() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - > "$2/coalition_values.txt" 2>&1 <<'EOF'
import numpy as np
from blamekit.cli import ALPHA_PRIME_GRID
from blamekit.envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from blamekit.mmdp import AgentPolicy, JointPolicy, Mmdp
from blamekit.planning import coalition_values, mmdp_from_game, one_step_model
from blamekit.properties import random_monotone_game
models = [(f"one-step n={n}", *mmdp_from_game(random_monotone_game(n, 0)))
          for n in range(1, 13)]
# every agent at (0.8, 0.2) in both states of the one-step layout
models += [(f"one-step n={n} mixed", mmdp_from_game(random_monotone_game(n, 0))[0],
            JointPolicy((AgentPolicy([[0.8, 0.2], [0.8, 0.2]]),) * n))
           for n in (8, 12)]
models += [(f"coordination graph m={level}",
            *build_graph(GraphSpec("coordination", threshold_index=level)))
           for level in range(1, 5)]
models.append(("robustness graph", *build_graph(GraphSpec("robustness"))))
# the behaviors run_perm_sweep builds
models += [(f"gridworld alpha_prime={a}",
            *build_gridworld(GridworldSpec(alpha=0.4, alpha_prime=a)))
           for a in ALPHA_PRIME_GRID]
# state s moves only to later states, the last one terminal: four levels
rng = np.random.default_rng(48)
counts = (2, 3, 1, 2, 2, 1, 2, 2)
num_actions = int(np.prod(counts))
transition = np.zeros((5, num_actions, 5))
for s in range(4):
    transition[s, :, s + 1:] = rng.dirichlet(np.ones(4 - s), size=num_actions)
transition[4, :, 4] = 1.0
reward = rng.uniform(-1.0, 1.0, size=(5, num_actions))
reward[4] = 0.0
layered = Mmdp(5, 8, counts, reward, transition, 0.99, np.eye(5)[0], frozenset({4}))
rows = [rng.dirichlet(np.ones(k), size=5) for k in counts]
rows[3][1] = 0.0  # agent 3 plays nothing at state 1
models.append(("layered n=8 mixed", layered, JointPolicy(tuple(map(AgentPolicy, rows)))))
models.append(("one-step -0.0", *one_step_model((2, 2), [-0.0] * 4)))
for label, model, behavior in models:
    for mask, row in enumerate(coalition_values(model, behavior)):
        print(label, mask, " ".join(float(x).hex() for x in row))
EOF
    echo "exit $?" >> "$2/coalition_values.txt"
    PYTHONPATH="$1" python - > "$2/coalition_values_explicit.txt" 2>&1 <<'EOF'
from blamekit.cli import _robustness_setup
from blamekit.envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from blamekit.mmdp import AgentPolicy, JointPolicy
from blamekit.planning import coalition_values, mmdp_from_game
from blamekit.properties import random_monotone_game
from blamekit.uncertainty import RobustBounds, sample_center
models = [(f"one-step n={n} mixed", mmdp_from_game(random_monotone_game(n, 0))[0],
           JointPolicy((AgentPolicy([[0.8, 0.2], [0.8, 0.2]]),) * n))
          for n in (8, 12)]
models.append(("robustness graph", *build_graph(GraphSpec("robustness"))))
models.append(("gridworld alpha_prime=0.5",
               *build_gridworld(GridworldSpec(alpha=0.4, alpha_prime=0.5))))
for label, model, behavior in models:
    for mask, row in enumerate(coalition_values(model, behavior.joint_table(model))):
        print(label, "joint table", mask, " ".join(float(x).hex() for x in row))
# the explicit tables sv_valid sweeps
for env, exact in (("gridworld", None), ("gridworld", False), ("graph", False)):
    model, behavior, uncertain, eps_levels, _, _ = _robustness_setup(env)
    for eps in eps_levels:
        for seed in range(10):
            policy = RobustBounds(model, sample_center(behavior, eps, seed, uncertain),
                                  exact).max_policy()
            for mask, row in enumerate(coalition_values(model, policy)):
                print(f"{env} exact={exact} eps={eps} seed={seed} max_policy", mask,
                      " ".join(float(x).hex() for x in row))
EOF
    echo "exit $?" >> "$2/coalition_values_explicit.txt"
}

run_levels() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - > "$2/levels.txt" 2>&1 <<'EOF'
import numpy as np
from blamekit.envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from blamekit.mmdp import Mmdp
from blamekit.planning import _topological_levels, mmdp_from_game
from blamekit.properties import random_monotone_game
models = [(f"coordination graph m={level}",
           build_graph(GraphSpec("coordination", threshold_index=level))[0])
          for level in range(1, 5)]
models.append(("robustness graph", build_graph(GraphSpec("robustness"))[0]))
models.append(("gridworld", build_gridworld(GridworldSpec(alpha=0.4, alpha_prime=0.5))[0]))
models += [(f"one-step n={n}", mmdp_from_game(random_monotone_game(n, 0))[0])
           for n in range(1, 13)]
rng = np.random.default_rng(49)
for num_states in (2, 5, 17, 60):
    # dense: state s moves to every later state; one-hot: to one state of a
    # lower random level; cyclic: dense rows over every state
    dense = np.zeros((num_states, 2, num_states))
    one_hot = np.zeros((num_states, 2, num_states))
    level = np.append(rng.integers(1, num_states, size=num_states - 1), 0)
    for s in range(num_states - 1):
        dense[s, :, s + 1:] = rng.dirichlet(np.ones(num_states - s - 1), size=2)
        one_hot[s, [0, 1], rng.choice(np.flatnonzero(level < level[s]), 2)] = 1.0
    dense[-1, :, -1] = one_hot[-1, :, -1] = 1.0
    cyclic = rng.dirichlet(np.ones(num_states), size=(num_states, 2))
    for label, transition in (("dense", dense), ("one-hot", one_hot), ("cyclic", cyclic)):
        terminal = frozenset() if label == "cyclic" else frozenset({num_states - 1})
        models.append((f"{label} S={num_states}",
                       Mmdp(num_states, 1, (2,), np.zeros((num_states, 2)), transition,
                            0.9, np.eye(num_states)[0], terminal)))
for label, model in models:
    levels = _topological_levels(model)
    print(label, None if levels is None else [states.tolist() for states in levels])
EOF
    echo "exit $?" >> "$2/levels.txt"
}

run_robust_bounds() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - > "$2/robust_bounds.txt" 2>&1 <<'EOF'
import hashlib
from blamekit.cli import _robustness_setup
from blamekit.planning import mask_agents
from blamekit.uncertainty import RobustBounds, sample_center
for env, exact in (("gridworld", None), ("gridworld", False),
                   ("graph", False), ("graph", None)):
    model, behavior, uncertain, eps_levels, _, _ = _robustness_setup(env)
    n = model.num_agents
    for eps in eps_levels:
        for seed in range(10):
            bounds = RobustBounds(model, sample_center(behavior, eps, seed, uncertain), exact)
            label = f"{env} exact={exact} eps={eps} seed={seed}"
            for mask in range(1 << n):
                coalition = mask_agents(mask, n)
                print(label, mask, float(bounds.min_value(coalition)).hex(),
                      float(bounds.max_value(coalition)).hex())
            policy = bounds.max_policy()
            print(label, "max_policy", policy.shape,
                  hashlib.sha256(policy.tobytes()).hexdigest())
EOF
    echo "exit $?" >> "$2/robust_bounds.txt"
}

run_lp() {  # SRC_DIR OUT_DIR
    PYTHONPATH="$1" python - > "$2/lp.txt" 2>&1 <<'EOF'
from blamekit.attribution import mer
from blamekit.planning import CharacteristicGame
from blamekit.properties import random_monotone_game
for n in range(2, 12):
    for seed in range(4):
        values = random_monotone_game(n, seed).values.copy()
        capped = values.copy()
        capped[1 + 3 * seed % (values.size - 1)] = -1e-17
        for label, game in (("drawn", values), ("capped", capped)):
            game = CharacteristicGame(n, game)
            for tiebreak in (None, 0, n - 1):
                try:
                    point = " ".join(float(x).hex() for x in mer(game, tiebreak).blames)
                except RuntimeError as error:
                    point = f"raised {error}"
                print(n, seed, label, tiebreak, point)
EOF
    echo "exit $?" >> "$2/lp.txt"
}

if ! git archive "$base" src 2> /dev/null | tar -x -C "$work/base" 2> /dev/null; then
    echo "::warning::could not unpack $base; outputs not compared"
    exit 0
fi
mkdir -p "$work/head" "$work/base-out"
run_experiments "$PWD/src" "$work/head"
run_one_step "$PWD/src" "$work/head"
run_pair_checks "$PWD/src" "$work/head"
run_games "$PWD/src" "$work/head"
run_coalition_values "$PWD/src" "$work/head"
run_levels "$PWD/src" "$work/head"
run_robust_bounds "$PWD/src" "$work/head"
run_lp "$PWD/src" "$work/head"
run_experiments "$work/base/src" "$work/base-out"
run_one_step "$work/base/src" "$work/base-out"
run_pair_checks "$work/base/src" "$work/base-out"
run_games "$work/base/src" "$work/base-out"
run_coalition_values "$work/base/src" "$work/base-out"
run_levels "$work/base/src" "$work/base-out"
run_robust_bounds "$work/base/src" "$work/base-out"
run_lp "$work/base/src" "$work/base-out"
# `diff -rq` names each file that differs or exists on one side only
moved=0
while IFS= read -r line; do
    echo "::warning::output moved against $base: $line"
    moved=$((moved + 1))
done < <(cd "$work" && diff -rq base-out head)
echo "$moved experiment or CLI output file(s) differ from $base"
(cd "$work" && diff -r base-out head)
exit 0
