"""Timing, tracing and reporting around the workloads.

With `--trace 0` a run makes one serial pass over a fixed number of rounds
of items, with tracing off, and spreads SETUP_REPEATS set-ups and the
workload's experiment-driver repeats evenly between the rounds. It reports
the end-to-end metrics. With `--trace 1` it makes a half-length pass in
which every item also runs once traced, runs the experiment traced, and
reports the per-layer metrics. Either way every item and every experiment
output is checked against the oracles in workloads.py and the seed outputs
in reference.json. Run details and the trace are written to `.bench_out/`
under the repository root.

The end-to-end times are scaled to a fixed machine speed: every timed
region is bracketed by runs of a fixed piece of benchmark-owned work, and
its time is reported as measured times the calibration's reference time
over the calibration time measured around it (see calibration.py).
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
import tracing
import workloads
from blamekit import cli

SETUP_REPEATS = 25
# Cap on a pass's wall time (set-up and driver repeats included), as a
# multiple of --seconds, so that a run on a much slower machine still ends
# inside 180 s.
PASS_WALL_FACTOR = 4.0

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
              "item_tail_s": "s", "experiment_s": "s", "peak_rss_mb": "MB"}


@contextlib.contextmanager
def pool_probe(seen: list):
    """Record the max_workers of every pool the CLI opens."""
    original = getattr(cli, "ThreadPoolExecutor", None)
    if original is None:
        yield
        return

    class Recording(original):
        def __init__(self, max_workers=None, *args, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    cli.ThreadPoolExecutor = Recording
    try:
        yield
    finally:
        cli.ThreadPoolExecutor = original


def run_info(root: Path, args, pools: list) -> dict:
    def command(*argv):
        if shutil.which(argv[0]) is None:
            return None
        try:
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=10, cwd=root)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = (command("git", "rev-parse", "HEAD")
              if (root / ".git").exists() else None)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": cpu, "nproc": command("nproc"),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "os_cpu_count": os.cpu_count(),
            "pool_max_workers": sorted(set(pools)) if pools else None}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, items beyond it) at the highest percentile with
    at least ten items beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    def __init__(self, workload: workloads.Workload, seed: int,
                 seconds: float):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.problems: list[str] = []
        self.pools: list = []
        self.speeds: dict[str, list[float]] = {}

    def calibrated(self, kind: str, fn):
        """Run fn() between two calibrations of `kind`. Returns its result,
        the seconds it took, and those seconds at the reference speed."""
        before = calibration.seconds(kind)
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        after = calibration.seconds(kind)
        speed = 2 * calibration.REF_S[kind] / (before + after)
        self.speeds.setdefault(kind, []).append(speed)
        return result, raw, raw * speed

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def setup(self) -> tuple[float, float, list, np.random.Generator]:
        """Clear caches, set up, and draw the first round's inputs. Returns
        the time taken as measured and at the reference speed, those inputs,
        and the generator for later rounds."""
        workloads.clear_caches()
        rng = np.random.default_rng(
            [self.seed, workloads.NAMES.index(self.wl.name)])

        def work():
            self.wl.setup()
            return self.wl.round_inputs(rng)

        first, raw, scaled = self.calibrated("interpreter", work)
        return raw, scaled, first, rng

    def experiment(self) -> tuple[float, float, object]:
        """One run of the experiment driver, caches cleared first. Returns
        the time taken as measured and at the reference speed, and its
        output."""
        workloads.clear_caches()
        with pool_probe(self.pools):
            output, raw, scaled = self.calibrated(
                "interpreter", self.wl.experiment)
        return raw, scaled, output

    def timed_item(self, item, index: int) -> dict:
        """Run one item with tracing off, then check it."""
        def attempt():
            try:
                return self.wl.run_item(item), None
            except Exception:
                return None, [traceback.format_exc()]

        (output, issues), raw, latency = self.calibrated(
            self.wl.item_calibration, attempt)
        if issues is None:
            try:
                issues = self.wl.check_item(item, output)
            except Exception:
                issues = ["oracle raised: " + traceback.format_exc()]
        for issue in issues:
            self.fail(f"item {index}: {issue}")
        return {"item": item, "output": output, "latency": latency,
                "raw_latency": raw, "ok": not issues}

    def item_pass(self, first: list, rng, seconds: float, run_one=None,
                  after_round=None) -> list[dict]:
        """Serial pass over round(seconds / nominal_round_s) rounds (at least
        one), cut short only if its wall time passes PASS_WALL_FACTOR times
        `seconds`. `run_one(item, index)` returns the item's record (by
        default `timed_item`); `after_round(done, rounds)` runs after each
        round, and once with done == rounds if the pass is cut short."""
        run_one = run_one or self.timed_item
        rounds = max(1, round(seconds / self.wl.nominal_round_s))
        workloads.clear_caches()
        records = []
        wall_end = perf_counter() + PASS_WALL_FACTOR * seconds
        inputs = first
        for done in range(1, rounds + 1):
            for item in inputs:
                records.append(run_one(item, len(records)))
            if perf_counter() >= wall_end:
                done = rounds
            if after_round is not None:
                after_round(done, rounds)
            if done == rounds:
                return records
            inputs = self.wl.round_inputs(rng)

    def check_experiments(self, outputs: list, reference) -> None:
        plain = workloads.plain
        try:
            for i, output in enumerate(outputs[:-1]):
                for issue in workloads.differences(
                        plain(outputs[-1]), plain(output),
                        f"experiment repeat {i}", rel=None):
                    self.fail(issue)
            for issue in self.wl.check_experiment(outputs[-1], reference):
                self.fail(issue)
        except Exception:
            self.fail("experiment oracle raised: " + traceback.format_exc())

    def final_checks(self) -> None:
        try:
            for issue in self.wl.final_checks():
                self.fail(issue)
        except Exception:
            self.fail("final oracle raised: " + traceback.format_exc())


def plain_run(run: Run, reference) -> tuple[dict, list, list]:
    """The timed pass, with the set-up and experiment repeats spread evenly
    between its rounds: on a shared host the machine's speed can drift over
    tens of seconds, and this way every figure averages over the same
    stretch of time."""
    raw, scaled, first, rng = run.setup()
    setups, raw_setups = [scaled], [raw]
    experiments, raw_experiments, outputs = [], [], []
    run.wl.prepare_experiment()
    repeats = run.wl.experiment_repeats

    def after_round(done, rounds):
        while len(setups) < 1 + done * (SETUP_REPEATS - 1) // rounds:
            raw, scaled, _, _ = run.setup()
            setups.append(scaled)
            raw_setups.append(raw)
        while len(experiments) < done * repeats // rounds:
            raw, scaled, output = run.experiment()
            experiments.append(scaled)
            raw_experiments.append(raw)
            outputs.append(output)

    records = run.item_pass(first, rng, run.seconds, after_round=after_round)
    # read before the oracles, some of which import scipy
    rss = peak_rss_mb()
    run.check_experiments(outputs, reference)
    run.final_checks()
    latencies = [r["latency"] for r in records]
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(records) / sum(latencies),
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": tail_s,
        "experiment_s": statistics.median(experiments),
        "peak_rss_mb": rss,
    }
    failed = sum(not r["ok"] for r in records)
    raw = [r["raw_latency"] for r in records]
    notes = run.wl.notes + [
        f"{len(records)} items in {sum(latencies):.3f} s of item time at "
        f"the reference speed, {sum(raw):.3f} s as measured",
        *(f"machine speed against the reference for {kind} work: median "
          f"{statistics.median(speeds):.3f}, range {min(speeds):.3f} to "
          f"{max(speeds):.3f}" for kind, speeds in run.speeds.items()),
        f"as measured: items_per_s {len(raw) / sum(raw):.6g}, item_p50_s "
        f"{statistics.median(raw):.6g}, item_tail_s {tail(raw)[0]:.6g}, "
        f"setup_s {statistics.median(raw_setups):.6g}, experiment_s "
        f"{statistics.median(raw_experiments):.6g}",
        f"item_tail_s is p{tail_pct:.1f}, {beyond} of {len(records)} items "
        "beyond it",
        f"setup_s is the median of {len(setups)} set-ups; experiment_s the "
        f"median of {len(experiments)} driver runs",
        f"failed_frac {failed / len(records):.6g} ({failed} of "
        f"{len(records)})"]
    return metrics, records, notes


def traced_run(run: Run, reference, out_dir: Path) -> tuple[dict, list, list]:
    """Each item runs twice, untraced and traced, in alternating order so
    that drift in machine speed falls evenly on both sides of the overhead
    figure. Caches are cleared before each of the two runs; items never
    share inputs, so this changes no cache hit."""
    tracer = tracing.Tracer()
    main_thread = threading.get_ident()
    with tracing.instrumented(tracer):
        _, _, first, rng = run.setup()
    setup_spans = list(tracer.spans)
    item_spans: list[tuple] = []

    def traced(item, index):
        workloads.clear_caches()
        mark = len(tracer.spans)
        with tracing.instrumented(tracer):
            start = perf_counter()
            try:
                output = tracer.span("bench.item", run.wl.run_item, item)
            except Exception:
                output = None
                run.fail(f"traced item {index} raised: "
                         + traceback.format_exc())
            latency = perf_counter() - start
        item_spans.extend(tracer.spans[mark:])
        return output, latency

    def paired(item, index):
        if index % 2:
            output, traced_latency = traced(item, index)
            workloads.clear_caches()
            record = run.timed_item(item, index)
        else:
            record = run.timed_item(item, index)
            output, traced_latency = traced(item, index)
        for issue in workloads.differences(
                workloads.plain(record["output"]), workloads.plain(output),
                f"traced item {index}", rel=None):
            run.fail(issue)
        record["traced_latency"] = traced_latency
        return record

    records = run.item_pass(first, rng, run.seconds / 2, paired)
    untraced_busy = sum(r["raw_latency"] for r in records)
    traced_busy = sum(r["traced_latency"] for r in records)

    run.wl.prepare_experiment()
    mark = len(tracer.spans)
    with tracing.instrumented(tracer):
        _, _, output = run.experiment()
    experiment_spans = tracer.spans[mark:]
    run.check_experiments([output], reference)
    run.final_checks()

    metrics = tracing.summarize(item_spans, len(records), traced_busy)
    builds = [s for s in setup_spans + experiment_spans
              if s[1] == "envs.build"]
    robust_s, overlap = tracing.pool_overlap(experiment_spans, main_thread)
    _, tail_pct, _ = tail([r["raw_latency"] for r in records])
    metrics.update({
        "item_s": traced_busy / len(records),
        "planning.game_cache_hit_ratio": tracing.hit_ratio(
            tracer.spans, "planning.characteristic_game"),
        "uncertainty.bounds_cache_hit_ratio": tracing.hit_ratio(
            tracer.spans, "uncertainty.robust_bounds"),
        "envs.builds": len(builds),
        "envs.build_s": sum(s[3] - s[2] for s in builds),
        "cli.run_robustness_s": robust_s,
        "cli.pool_overlap": overlap,
        "cli.pool_workers": max((w for w in run.pools if w), default=0),
        "trace.overhead_frac": traced_busy / untraced_busy - 1.0,
        "item_count": len(records),
        "item_tail_pct": tail_pct,
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
    })
    path = out_dir / f"{run.wl.name}-seed{run.seed}-trace.jsonl.gz"
    tracer.write(path)
    notes = run.wl.notes + [
        f"traced {len(records)} items; {len(tracer.spans)} spans written "
        f"to {path.name}"]
    return metrics, records, notes


def main(args, root: Path) -> int:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    reference = json.loads(
        (Path(__file__).parent / "reference.json").read_text())[args.workload]
    run = Run(workloads.make(args.workload, str(out_dir)), args.seed,
              args.seconds)
    if args.trace:
        metrics, records, notes = traced_run(run, reference, out_dir)
        units = tracing.PER_LAYER
    else:
        metrics, records, notes = plain_run(run, reference)
        units = END_TO_END
    info = run_info(root, args, run.pools)
    result = {"correct": not run.problems, "attempted": len(records),
              "failed": sum(not r["ok"] for r in records),
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    record_path = out_dir / (f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}.json")
    record_path.write_text(json.dumps(
        {"run": info, "notes": notes, "problems": run.problems, **result,
         "latencies": [[r["raw_latency"], r["latency"]] for r in records]},
        indent=1))
    print("run " + json.dumps(info))
    for note in notes:
        print("note " + note)
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
