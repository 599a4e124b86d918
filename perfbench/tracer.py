"""Call-boundary tracer for the ein2lie layers.

`Tracer.install` wraps every public function of the layer modules, plus
the lazy minimal residual of `ein2`, and rebinds each wrapped name in
every loaded `ein2lie` module that holds it, so calls made through an
imported name (`ein2.ricci`, `branches.is_ein2`, `cli._DISPATCH`) are
counted too.  Nothing under `src/` changes.  Each wrapper records a span:
its duration, the part of it covered by child spans (so self time is the
difference) and the caller's span name.  Spans stay in memory as totals
per name and per (caller, callee) edge.

`scalars` has no wrappers: it is leaf arithmetic, so its cost shows up
as the self time of its callers in `geometry` and `ein2`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Dict, List, Tuple

PACKAGE = "ein2lie"
LAYERS = ("liealg", "geometry", "ein2", "branches", "verify", "reporting", "cli")

# Private functions traced under a public span name.  The minimal
# residual runs on the first read of Ein2Solution.residual for a solution
# of kind "none".
PRIVATE_SPANS = {("ein2", "_min_sup_residual"): "ein2.min_residual"}

# Functions whose list result is counted as accepted samples.
SAMPLERS = ("branches.sample_branch", "branches.sample_off_branch")

# Direct children of run_suite, by section of the suite.
SUITE_SECTIONS = {
    "branches.sample_valid_points": "fidelity",
    "ein2.match_printed_system": "fidelity",
    "branches.verify_branch": "branches",
    "branches.verify_anchor": "anchors",
    "branches.sample_off_branch": "negative",
    "liealg.build_family": "negative",
    "ein2.is_ein2": "negative",
}

# Layers whose self time is reported; the minimal residual is its own layer.
SELF_TIME_LAYERS = ("geometry", "ein2", "ein2.min_residual", "liealg", "branches", "verify",
                    "reporting", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.edges: Dict[Tuple[str, str], List] = {}
        self._stack: List[List] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, value in list(vars(module).items()):
                span = PRIVATE_SPANS.get((layer, name))
                public = not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
                if isinstance(value, types.FunctionType) and (public or span):
                    wrappers[value] = self._wrap(span or f"{layer}.{name}", value)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, name, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            value[key] = wrappers[item]

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.reset()
        self.edges.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        counts_items = name in SAMPLERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if caller is not None:
                    caller[1] += elapsed
                    edge = edges.setdefault((caller[0], name), [0, 0.0])
                    edge[0] += 1
                    edge[1] += elapsed
            if counts_items:
                stat.items += len(result)
            return result

        return wrapper

    # -- per-layer metrics of one repetition --------------------------------

    def _stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def _us_per_call(self, name: str, self_only: bool = False) -> float:
        stat = self._stat(name)
        if not stat.calls:
            return 0.0
        return 1e6 * (stat.self_time if self_only else stat.total) / stat.calls

    def _edge_calls(self, caller: str, callee: str) -> int:
        return self.edges.get((caller, callee), (0, 0.0))[0]

    def _accept_ratio(self, sampler: str, draw: str) -> float:
        draws = self._edge_calls(sampler, draw)
        return self._stat(sampler).items / draws if draws else 0.0

    def _layer_self_s(self, layer: str) -> float:
        return sum(
            stat.self_time
            for name, stat in self.stats.items()
            if (name if name == "ein2.min_residual" else name.split(".")[0]) == layer
        )

    def metrics(self) -> Dict[str, float]:
        sections = {"fidelity": 0.0, "branches": 0.0, "anchors": 0.0, "negative": 0.0}
        for (caller, callee), (_, total) in self.edges.items():
            if caller == "verify.run_suite" and callee in SUITE_SECTIONS:
                sections[SUITE_SECTIONS[callee]] += total
        out = {
            "geometry.ricci.calls": self._stat("geometry.ricci").calls,
            "geometry.ricci.us_per_call": self._us_per_call("geometry.ricci"),
            "geometry.ricci.self_us_per_call": self._us_per_call("geometry.ricci", True),
            "geometry.levi_civita.us_per_call": self._us_per_call("geometry.levi_civita"),
            "geometry.curvature.us_per_call": self._us_per_call("geometry.curvature"),
            "ein2.min_residual.calls": self._stat("ein2.min_residual").calls,
            "ein2.min_residual.us_per_call": self._us_per_call("ein2.min_residual"),
            "ein2.is_ein2.calls": self._stat("ein2.is_ein2").calls,
            "ein2.solve_lambdas.us_per_call": self._us_per_call("ein2.solve_lambdas"),
            "ein2.build_system.us_per_call": self._us_per_call("ein2.build_system"),
            "ein2.match_printed_system.self_us_per_call":
                self._us_per_call("ein2.match_printed_system", True),
            "liealg.build_family.calls": self._stat("liealg.build_family").calls,
            "liealg.validate_params.calls": self._stat("liealg.validate_params").calls,
            "liealg.jacobi_ok.calls": self._stat("liealg.jacobi_ok").calls,
            "liealg.build_family.us_per_call": self._us_per_call("liealg.build_family"),
            "branches.sample_branch.accept_ratio":
                self._accept_ratio("branches.sample_branch", "liealg.validate_params"),
            "branches.sample_off_branch.accept_ratio":
                self._accept_ratio("branches.sample_off_branch", "branches.sample_family_point"),
            "branches.verify_branch.self_us_per_call":
                self._us_per_call("branches.verify_branch", True),
            "branches.classify.self_us_per_call": self._us_per_call("branches.classify", True),
            "reporting.scan_row.self_us_per_call": self._us_per_call("reporting.scan_row", True),
            "reporting.render_suite_text_s": self._stat("reporting.render_suite_text").total,
        }
        for section, total in sections.items():
            out[f"verify.{section}_s"] = total
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self._layer_self_s(layer)
        return out
