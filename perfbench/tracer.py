"""Per-layer spans, recorded from outside the compnoma package.

Each traced function is replaced, at every module-level name of the package
that is bound to it, by a wrapper that counts calls and self time: its span's
duration minus the duration of the traced spans it caused.  Binding names are
found by identity, so a function is traced wherever its callers look it up
(``compnoma.harness.build_scenario``, ``compnoma.scenarios.allocate_jt``,
``compnoma.allocation.sic_feasible``, ...).  No source file is edited.  A
function that no longer exists, or that nothing calls any more, reports zero
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> the (defining module, function) pairs whose spans it owns
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "harness.substream": (("compnoma.harness", "substream"),),
    "scenarios.build_scenario": (("compnoma.scenarios", "build_scenario"),),
    "channel.draw_realization": (("compnoma.channel", "draw_realization"),),
    "scenarios.run_trial": (("compnoma.scenarios", "run_trial"),),
    "scenarios.oma_rates": (("compnoma.scenarios", "oma_rates"),),
    "scenarios.cs_oma_rates": (("compnoma.scenarios", "cs_oma_rates"),),
    "allocation.allocate_jt": (("compnoma.allocation", "allocate_jt"),),
    "allocation.allocate_single_cell": (("compnoma.allocation", "allocate_single_cell"),),
    "core.rates": (
        ("compnoma.core", "comp_user_rate_jt"),
        ("compnoma.core", "noncomp_user_rate"),
    ),
    "core.sic_feasible": (("compnoma.core", "sic_feasible"),),
    "schemes": (
        ("compnoma.schemes", "validate_jt_conditions"),
        ("compnoma.schemes", "dps_select_cell"),
        ("compnoma.schemes", "build_cs_band_plan"),
    ),
}

# layers whose result says whether the solve was useful (a feasible allocation)
SOLVER_LAYERS = frozenset({"allocation.allocate_jt", "allocation.allocate_single_cell"})


def _resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "compnoma" or name.startswith("compnoma."))
    ]


def _feasible(result) -> bool:
    """A single allocation, or a list of per-cell ones, that is feasible."""
    if isinstance(result, (list, tuple)):
        return bool(result) and all(getattr(a, "feasible", False) for a in result)
    return bool(getattr(result, "feasible", False))


class LayerTracer:
    """Context manager that traces ``layers`` while active.

    ``stats[layer]`` is ``[calls, self seconds, feasible results]``;
    ``root_child_s`` is the time spent in top-level traced spans, so the
    caller's own span time minus it is the caller's self time.
    """

    def __init__(self, layers: dict[str, tuple[tuple[str, str], ...]] = LAYERS):
        self.layers = layers
        self.stats = {layer: [0, 0.0, 0] for layer in layers}
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    @property
    def root_child_s(self) -> float:
        return self._stack[0]

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0]
        self._stack[:] = [0.0]

    def _wrap(self, fn, stat: list, count_feasible: bool):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
            if count_feasible and _feasible(result):
                stat[2] += 1
            return result

        return traced

    def __enter__(self) -> "LayerTracer":
        self.reset()
        for layer, targets in self.layers.items():
            for module_name, attr in targets:
                original = _resolve(module_name, attr)
                if original is None:
                    continue
                wrapper = self._wrap(original, self.stats[layer], layer in SOLVER_LAYERS)
                for module in _package_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
