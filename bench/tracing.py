"""In-memory span tracer that wraps blamekit's public functions from outside.

A traced pass replaces module attributes in the modules that make the calls
(for example `blamekit.uncertainty.solve`, which is the simplex as the
adversary step sees it) with timing wrappers, and restores them afterwards.
Nothing under `src/` is edited. Each call becomes one span
(id, name, start, end, parent id, thread id, detail); a span's layer is the
part of its name before the first dot.
"""
from __future__ import annotations

import gzip
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from blamekit import (attribution, cli, envs, lp, planning, properties,
                      uncertainty)
from workloads import CHECKERS

VARIANTS = ("sv_valid", "sv_blackstone", "bi_blackstone", "mc_blackstone",
            "mer_blackstone", "ap_blackstone")
METHOD_SPANS = {"MER": "attribution.mer", "MC": "attribution.mc",
                "SV": "attribution.sv", "BI": "attribution.bi",
                "AP": "attribution.ap"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, before=None, after=None, **kwargs):
        """Call fn, recording one span; `before(args)` runs ahead of the call
        and its result is handed to `after(args, result, token)`, whose
        return value is stored as the span's detail."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        token = before(args) if before else None
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        detail = after(args, result, token) if after else None
        self.spans.append((sid, name, start, end, parent,
                           threading.get_ident(), detail))
        return result

    def wrapper(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, before=before, after=after,
                             **kwargs)
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, tid, detail in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": tid, "detail": detail}) + "\n")


def _lp_shape(args):
    program = args[0]
    rows, cols = program.constraint_matrix.shape
    flips = int((program.constraint_bounds < 0).sum())
    return (rows + 1) * (cols + rows + flips + 1)


def _lp_detail(args, result, cells):
    return {"cells": cells, "status": result.status}


def _cache_probe(module, name):
    """before/after hooks that tell a cache hit from a miss: the call hit
    when it returned an object the cache already held."""
    def before(args):
        cache = getattr(module, name, None)
        return list(cache.values()) if cache is not None else []

    def after(args, result, held):
        return {"hit": any(obj is result for obj in held)}
    return before, after


def _targets():
    """(module, attribute, span name, before, after) for every wrapped call
    site. Modules that imported a function by name keep their own reference,
    so each importing module is patched separately."""
    game_probe = _cache_probe(planning, "_GAME_CACHE")
    bounds_probe = _cache_probe(uncertainty, "_BOUNDS_CACHE")
    lp_hooks = (_lp_shape, _lp_detail)
    out = []
    for mod in (envs, cli):
        out += [(mod, "build_gridworld", "envs.build", None, None),
                (mod, "build_graph", "envs.build", None, None)]
    for mod in (planning, uncertainty):
        out.append((mod, "coalition_action_index",
                    "planning.coalition_action_index", None, None))
        out.append((mod, "best_response", "planning.best_response",
                    None, None))
    for mod in (planning, uncertainty, cli):
        out.append((mod, "characteristic_game", "planning.characteristic_game",
                    *game_probe))
    out += [(planning, "induced_mdp", "planning.induced_mdp", None, None),
            (planning, "solve_mdp", "planning.solve_mdp", None, None),
            # solve_mdp as the robust iteration calls it: one exact policy
            # evaluation per sweep
            (uncertainty, "solve_mdp", "planning.robust_evaluation",
             None, None),
            (planning, "evaluate_return", "mmdp.evaluate_return", None, None),
            (planning, "mmdp_from_game", "planning.mmdp_from_game",
             None, None)]
    for mod in (attribution, cli):
        out += [(mod, "mer", "attribution.mer", None, None),
                (mod, "marginal_contribution", "attribution.mc", None, None),
                (mod, "shapley", "attribution.sv", None, None),
                (mod, "banzhaf", "attribution.bi", None, None),
                (mod, "average_participation", "attribution.ap", None, None)]
    out += [(attribution, "pivotality", "attribution.pivotality", None, None),
            (uncertainty, "shapley", "attribution.sv", None, None),
            (uncertainty, "mer", "attribution.mer", None, None),
            (attribution, "solve", "lp.solve.mer", *lp_hooks),
            (attribution, "solve_lexicographic", "lp.solve_lexicographic",
             None, None),
            # lp.solve_lexicographic calls the module-global solve twice
            (lp, "solve", "lp.solve.mer", *lp_hooks),
            (uncertainty, "solve", "lp.solve.adversary", *lp_hooks)]
    for mod in (properties, cli):
        out += [(mod, name, "properties.check", None, None)
                for name in CHECKERS]
    for mod in (uncertainty, cli):
        out += [(mod, name, f"uncertainty.{name}", None, None)
                for name in VARIANTS + ("sample_center",)]
    out += [(uncertainty, "robust_bounds", "uncertainty.robust_bounds",
             *bounds_probe),
            (cli, "run_robustness", "cli.run_robustness", None, None),
            (cli, "run_perm_sweep", "cli.run_perm_sweep", None, None),
            (cli, "run_coordination", "cli.run_coordination", None, None),
            (cli, "main", "cli.main", None, None)]
    return out


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the
    originals. `attribution.METHODS` is the dict the CLI dispatches through,
    so its entries are wrapped in place as well."""
    saved = []
    methods = dict(attribution.METHODS)
    try:
        for mod, attr, name, before, after in _targets():
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrapper(name, original, before, after))
        for key, fn in methods.items():
            attribution.METHODS[key] = tracer.wrapper(METHOD_SPANS[key], fn)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
        attribution.METHODS.update(methods)


def _inclusive(spans, by_id, name) -> float:
    """Summed duration of spans called `name`, not counting one nested in
    another of the same name."""
    total = 0.0
    for s in spans:
        if s[1] != name:
            continue
        parent = by_id.get(s[4])
        nested = False
        while parent is not None:
            if parent[1] == name:
                nested = True
                break
            parent = by_id.get(parent[4])
        if not nested:
            total += s[3] - s[2]
    return total


def summarize(spans, items: int, item_time: float) -> dict[str, float]:
    """Per-item layer metrics from the spans of one traced item pass.

    Every span below a `bench.item` root belongs to the pass; self time is a
    span's duration minus that of its direct children."""
    child_time = defaultdict(float)
    for s in spans:
        if s[4]:
            child_time[s[4]] += s[3] - s[2]
    layer_self = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        layer_self[s[1].split(".")[0]] += s[3] - s[2] - child_time[s[0]]
        calls[s[1]] += 1
    per = max(items, 1)
    by_id = {s[0]: s for s in spans}

    def count(name):
        return calls[name] / per

    def seconds(name):
        return _inclusive(spans, by_id, name) / per

    lp_spans = [s for s in spans if s[1].startswith("lp.solve.")]
    out = {
        "lp.adversary_solves": count("lp.solve.adversary"),
        "lp.adversary_solve_s": seconds("lp.solve.adversary"),
        "lp.mer_solves": count("lp.solve.mer"),
        "lp.mer_solve_s": seconds("lp.solve.mer"),
        "lp.tableau_cells": sum(s[6]["cells"] for s in lp_spans) / per,
        "lp.non_optimal": sum(s[6]["status"] != "optimal"
                              for s in lp_spans) / per,
        "uncertainty.policy_evaluations": count("planning.robust_evaluation"),
        "uncertainty.sample_center_s": seconds("uncertainty.sample_center"),
        "planning.coalition_action_index_calls":
            count("planning.coalition_action_index"),
        "planning.coalition_action_index_s":
            seconds("planning.coalition_action_index"),
        "planning.best_response_calls": count("planning.best_response"),
        "planning.best_response_s": seconds("planning.best_response"),
        "planning.solve_mdp_calls": count("planning.solve_mdp"),
        "planning.solve_mdp_s": seconds("planning.solve_mdp"),
        "mmdp.evaluate_return_s": seconds("mmdp.evaluate_return"),
        "planning.characteristic_game_calls":
            count("planning.characteristic_game"),
        "planning.characteristic_game_s":
            seconds("planning.characteristic_game"),
        "properties.check_s": seconds("properties.check"),
        "properties.checks": count("properties.check"),
    }
    for variant in VARIANTS:
        out[f"uncertainty.{variant}_s"] = seconds(f"uncertainty.{variant}")
    for span_name in METHOD_SPANS.values():
        out[f"{span_name}_s"] = seconds(span_name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / per
        out[f"{layer}.self_frac"] = (layer_self[layer] / item_time
                                     if item_time > 0 else 0.0)
    return out


# `bench` is the harness's own time inside an item: whatever no wrapped
# call covers.
LAYERS = ("lp", "uncertainty", "planning", "mmdp", "attribution",
          "properties", "bench")
_PER_ITEM_COUNTS = (
    "lp.adversary_solves", "lp.mer_solves", "lp.tableau_cells",
    "lp.non_optimal", "uncertainty.policy_evaluations",
    "planning.coalition_action_index_calls", "planning.best_response_calls",
    "planning.solve_mdp_calls", "planning.characteristic_game_calls",
    "properties.checks")
_PER_ITEM_SECONDS = (
    "lp.adversary_solve_s", "lp.mer_solve_s",
    *(f"uncertainty.{v}_s" for v in VARIANTS), "uncertainty.sample_center_s",
    "planning.coalition_action_index_s", "planning.best_response_s",
    "planning.solve_mdp_s", "mmdp.evaluate_return_s",
    "planning.characteristic_game_s",
    *(f"{span}_s" for span in METHOD_SPANS.values()), "properties.check_s")
# Name and unit of every per-layer metric a traced run reports. Per-item
# values are totals over the traced pass divided by its item count.
PER_LAYER = {
    "item_s": "s/item",
    **{name: "count/item" for name in _PER_ITEM_COUNTS},
    **{name: "s/item" for name in _PER_ITEM_SECONDS},
    **{f"{layer}.self_s": "s/item" for layer in LAYERS},
    **{f"{layer}.self_frac": "frac" for layer in LAYERS},
    "planning.game_cache_hit_ratio": "ratio",
    "uncertainty.bounds_cache_hit_ratio": "ratio",
    "envs.builds": "count", "envs.build_s": "s",
    "cli.run_robustness_s": "s", "cli.pool_overlap": "ratio",
    "cli.pool_workers": "count",
    "trace.overhead_frac": "frac",
    "item_count": "count", "item_tail_pct": "%", "failed_frac": "frac",
}


def hit_ratio(spans, name: str) -> float:
    probes = [s[6]["hit"] for s in spans if s[1] == name]
    return sum(probes) / len(probes) if probes else 0.0


def pool_overlap(spans, main_thread: int) -> tuple[float, float]:
    """(run_robustness wall time, summed busy time of pool threads divided
    by that wall time). A pool thread is busy while one of its top-level
    spans is open."""
    wall = sum(s[3] - s[2] for s in spans if s[1] == "cli.run_robustness")
    busy = sum(s[3] - s[2] for s in spans
               if s[5] != main_thread and s[4] == 0)
    return wall, (busy / wall if wall > 0 else 0.0)
