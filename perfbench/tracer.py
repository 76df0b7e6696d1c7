"""Outside-in span tracer for the triwalk modules.

``install`` wraps every function named in the ``__all__`` of each traced
triwalk module and rebinds the wrapper under every name that bound the
original in any loaded triwalk module, so calls made through module
globals (``walk.evolve_line`` calling ``step_line``) and through names
imported from another module (``timeavg`` calling ``dispersion``) are both
seen. Classes are left alone: ``isinstance`` checks need the real type, and
building a dataclass is counted in the span of the function that builds it.

Spans stay in memory as ``(name, start, end, parent, count)`` tuples and
are written out once, after the traced command returns. ``parent`` is the
index of the enclosing span (-1 at top level); ``count`` is the work a
span did, as a hook for that function measures it from the call (for
example the window width a ``step_line`` call returned), or None.

``layer_metrics`` turns a span list into the per-layer metrics the
benchmark reports. It needs no triwalk import, so it runs in the parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("walk", "spectral", "stationary", "timeavg", "weaklimit", "cli")

_QUADRATURES = {
    # Positional index of the ``grid`` parameter of each quadrature.
    "spectral.wavefunction": 3,
    "spectral.stationary_component_integral": 3,
    "spectral.j_kernel": 2,
    "spectral.k_kernel": 2,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if count is not None:
                spans[index] = (name, start, end, parent, count(args, kwargs, result))
            return result

        return traced


def _counters(default_grid_size: int) -> dict:
    def grid_nodes(position):
        def count(args, kwargs, result):
            grid = kwargs.get("grid", args[position] if len(args) > position else None)
            return grid.size if grid is not None else default_grid_size

        return count

    counters = {
        "walk.step_line": lambda args, kwargs, result: result.amplitudes.shape[0],
        "timeavg.momentum_blocks": lambda args, kwargs, result: len(result),
        "timeavg.eigenvalue_groups": lambda args, kwargs, result: len(result),
        "weaklimit.empirical_rescaled": lambda args, kwargs, result: len(result.positions),
    }
    counters.update({name: grid_nodes(pos) for name, pos in _QUADRATURES.items()})
    return counters


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of the traced modules; return their names."""
    modules = [importlib.import_module(f"triwalk.{m}") for m in TRACED_MODULES]
    counters = _counters(sys.modules["triwalk.spectral"].DEFAULT_GRID_SIZE)
    wrappers = {}
    for module in modules:
        short = module.__name__.removeprefix("triwalk.")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and id(fn) not in wrappers:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = (fn, tracer.wrap(name, fn, counters.get(name)), name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "triwalk" and not mod_name.startswith("triwalk."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    return sorted(name for _, _, name in wrappers.values())


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (times in seconds)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    first: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for (name, start, end, parent, count), own in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        first.setdefault(name, end - start)
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            layer_calls[layer] = layer_calls.get(layer, 0) + 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = calls.get("walk.step_line", 0) + calls.get("walk.step_cycle", 0)
    kernels = ("spectral.j_kernel", "spectral.k_kernel")
    return {
        "walk.step_line.calls": calls.get("walk.step_line", 0),
        "walk.step_line.self_s": self_s.get("walk.step_line", 0.0),
        "walk.site_steps": counts.get("walk.step_line", 0),
        "walk.step_cycle.calls": calls.get("walk.step_cycle", 0),
        "walk.step_cycle.self_s": self_s.get("walk.step_cycle", 0.0),
        "walk.distribution.calls": calls.get("walk.distribution", 0),
        "walk.distribution.self_s": self_s.get("walk.distribution", 0.0),
        "walk.distribution.calls_per_step": ratio(calls.get("walk.distribution", 0), steps),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "spectral.wavefunction.calls": calls.get("spectral.wavefunction", 0),
        "spectral.wavefunction.self_s": self_s.get("spectral.wavefunction", 0.0),
        "spectral.wavefunction.first_s": first.get("spectral.wavefunction", 0.0),
        "spectral.kernels.calls": sum(calls.get(k, 0) for k in kernels),
        "spectral.kernels.self_s": sum(self_s.get(k, 0.0) for k in kernels),
        "spectral.quad_nodes": sum(counts.get(k, 0) for k in _QUADRATURES),
        "spectral.eigensystem.self_s": self_s.get("spectral.eigensystem", 0.0),
        "spectral.dispersion.calls": calls.get("spectral.dispersion", 0),
        "spectral.dispersion.self_s": self_s.get("spectral.dispersion", 0.0),
        "spectral.fourier_operator.self_s": self_s.get("spectral.fourier_operator", 0.0),
        "stationary.calls": layer_calls.get("stationary", 0),
        "stationary.self_s": layer_self.get("stationary", 0.0),
        "timeavg.momentum_blocks.self_s": self_s.get("timeavg.momentum_blocks", 0.0),
        "timeavg.eigenvalue_groups.self_s": self_s.get("timeavg.eigenvalue_groups", 0.0),
        "timeavg.modes": counts.get("timeavg.momentum_blocks", 0),
        "timeavg.groups": counts.get("timeavg.eigenvalue_groups", 0),
        "weaklimit.empirical_rescaled.self_s": self_s.get("weaklimit.empirical_rescaled", 0.0),
        "weaklimit.cdf_distance.self_s": self_s.get("weaklimit.cdf_distance", 0.0),
        "weaklimit.limit_cdf.calls_per_position": ratio(
            calls.get("weaklimit.limit_cdf", 0), counts.get("weaklimit.empirical_rescaled", 0)
        ),
        "weaklimit.continuous_mass.self_s": self_s.get("weaklimit.continuous_mass", 0.0),
    }
