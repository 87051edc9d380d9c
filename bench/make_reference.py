"""Record the experiment outputs that every benchmark run is compared with.

    python3 bench/make_reference.py

Run from the repository root. It overwrites bench/reference.json with the
current code's outputs, so run it only on the commit whose outputs are the
reference (the seed commit for the file as committed), never to make a
failing comparison pass.
"""
from __future__ import annotations

import json
import sys

from run import BENCH, ROOT, import_blamekit


def main() -> int:
    import_blamekit()
    import workloads
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, str(out_dir))
        wl.setup()
        wl.prepare_experiment()
        workloads.clear_caches()
        reference[name] = workloads.plain(wl.experiment())
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
