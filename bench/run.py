"""blamekit benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload attribution --seed 1 --seconds 35 --trace 0

Run it from the repository root; blamekit is imported from `src/` beside
this directory and from nowhere else. Workloads: robust-grid, robust-graph,
coalition-sweep, attribution (see README.md here for why each exists). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when any output missed
its oracle.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description="blamekit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["robust-grid", "robust-graph",
                                 "coalition-sweep", "attribution"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_blamekit() -> None:
    """Put this checkout's src/ first on the path and make sure blamekit
    comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import blamekit
    except ImportError as err:
        raise SystemExit(f"error: cannot import blamekit from {src}: {err}")
    if Path(blamekit.__file__).resolve().parent != src / "blamekit":
        raise SystemExit(f"error: blamekit came from {blamekit.__file__}, "
                         f"not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_blamekit()
    import harness
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
