#!/usr/bin/env bash
# Report which experiment CSV files differ between the working tree and a
# base commit. Run from the repository root:
#
#     .github/scripts/diff_experiments.sh BASE_REF [WORK_DIR]
#
# The base is checked out with `git worktree add` under WORK_DIR (a fresh
# temporary directory by default); each tree runs the four experiments from
# its own src/ through PYTHONPATH, the robust ones at --seeds 1 --eps 0.05.
# Prints one GitHub `::warning::` line per differing or one-sided file. It
# only reports: it exits 0 whatever it finds or fails to run.
set -u
base=$1
work=${2:-$(mktemp -d)}
mkdir -p "$work"

run_experiments() {  # SRC_DIR OUT_DIR
    for args in "perm" "coordination" \
                "robustness-grid --seeds 1 --eps 0.05" \
                "robustness-graph --seeds 1 --eps 0.05"; do
        # shellcheck disable=SC2086
        PYTHONPATH="$1" python -m blamekit.cli experiment $args --out "$2" \
            > /dev/null || echo "::warning::experiment $args failed on $1"
    done
}

if ! git worktree add --detach "$work/base" "$base" > /dev/null 2>&1; then
    echo "::warning::could not check out $base; experiment CSVs not compared"
    exit 0
fi
run_experiments "$PWD/src" "$work/head"
run_experiments "$work/base/src" "$work/base-out"
# `diff -rq` names each file that differs or exists on one side only
moved=0
while IFS= read -r line; do
    echo "::warning::experiment CSV moved against $base: $line"
    moved=$((moved + 1))
done < <(cd "$work" && diff -rq base-out head)
echo "$moved experiment CSV file(s) differ from $base"
(cd "$work" && diff -r base-out head)
git worktree remove --force "$work/base" > /dev/null 2>&1
exit 0
