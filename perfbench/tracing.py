"""Spans around calls into tabcop's public functions, and the layer metrics.

The tracer edits nothing under ``src/``.  While installed, it replaces
every public function of the modules below, in every ``tabcop`` module
namespace that binds it, with a wrapper that records a span; dataclass
validators (``__post_init__``) are wrapped on their class.  Calls between
modules resolve those names at call time, so a call from one layer into
another is a span too, and a layer's self time is its spans' duration
minus the time covered by their child spans.  Private helpers (``_flow``,
the sweep kernels) stay unwrapped: they count toward the public function
that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import warnings
from time import perf_counter

#: Layer of each module's public functions; scaling splits by function.
MODULE_LAYERS = {
    "tabcop.pmf_core": "pmf_core",
    "tabcop.scaling": "fit",
    "tabcop.dependence": "dependence",
    "tabcop.bernoulli": "dependence",
    "tabcop.families": "families",
    "tabcop.infinite": "infinite",
    "tabcop.viz": "viz",
    "tabcop.cli": "cli",
}
FUNCTION_LAYERS = {"tabcop.scaling.classify_existence": "feasibility"}


class Tracer:
    """Records one span per wrapped call while installed.

    A span is ``[layer, name, start, end, parent, info]``; ``parent`` is
    the index of the enclosing span or -1, and ``info`` holds what the
    call returned that the metrics need (class tag, sweeps, bytes,
    warnings).  Spans stay in memory until :meth:`uninstall`.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def install(self):
        for module_name, default_layer in MODULE_LAYERS.items():
            module = importlib.import_module(module_name)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
                    continue
                layer = FUNCTION_LAYERS.get(f"{module_name}.{name}", default_layer)
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    obj.__post_init__ = self._wrap(layer, name, original)
                    self._restore.append((obj, "__post_init__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module_name != "tabcop" and not module_name.startswith("tabcop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            top = span[4] == -1
            try:
                if top:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        span[2] = perf_counter()
                        result = fn(*args, **kwargs)
                        span[3] = perf_counter()
                    span[5]["warnings"] = len(caught)
                else:
                    span[2] = perf_counter()
                    result = fn(*args, **kwargs)
                    span[3] = perf_counter()
            except BaseException as exc:
                span[3] = perf_counter()
                diagnostics = getattr(exc, "diagnostics", None)
                if diagnostics is not None:
                    span[5].update(sweeps=diagnostics.iterations, nonconverged=1)
                raise
            finally:
                stack.pop()
            _observe(name, result, span[5])
            return result

        return traced


def _observe(name, result, info):
    if name == "classify_existence":
        info["tag"] = result.tag
    elif name == "ipf_fit":
        info["sweeps"] = result[1].iterations
    elif name == "confetti_svg":
        info["bytes"] = len(result.encode("utf-8"))
    elif name == "heatmap_ppm":
        info["bytes"] = len(result)


def layer_metrics(spans, workload_wall_s):
    """Per-layer metrics from one traced pass.

    ``workload_wall_s`` is the wall time of the pass the user waits for,
    the base of the ``*.share`` ratios.
    """
    children = [0.0] * len(spans)
    for layer, name, start, end, parent, info in spans:
        if parent >= 0:
            children[parent] += end - start
    wall_ms = [(s[3] - s[2]) * 1e3 for s in spans]
    self_ms = [w - c * 1e3 for w, c in zip(wall_ms, children)]

    def outermost(i):
        """No enclosing span belongs to the same layer."""
        layer, parent = spans[i][0], spans[i][4]
        while parent >= 0:
            if spans[parent][0] == layer:
                return False
            parent = spans[parent][4]
        return True

    def pick(layer=None, names=None, outer=False):
        return [i for i, s in enumerate(spans)
                if (layer is None or s[0] == layer) and (names is None or s[1] in names)
                and (not outer or outermost(i))]

    def total(values, idx):
        return sum(values[i] for i in idx)

    def info_sum(idx, key):
        return sum(spans[i][5].get(key, 0) for i in idx)

    wall_base_ms = workload_wall_s * 1e3
    feasibility = pick("feasibility")
    fits = pick("fit", ("ipf_fit",))
    fit_ms = total(self_ms, pick("fit"))
    sweeps = info_sum(fits, "sweeps")
    families = pick("families", outer=True)
    viz = pick("viz", outer=True)
    verbs = pick("cli", ("run",), outer=True)
    tags = [spans[i][5]["tag"] for i in feasibility if "tag" in spans[i][5]]
    return {
        "pmf_core.calls": len(pick("pmf_core")),
        "pmf_core.ms": total(self_ms, pick("pmf_core")),
        "feasibility.calls": len(feasibility),
        "feasibility.ms": total(self_ms, feasibility),
        "feasibility.share": total(self_ms, feasibility) / wall_base_ms,
        **{f"feasibility.n_{tag}": tags.count(tag) for tag in ("A", "B1", "B2", "C")},
        "fit.calls": len(fits),
        "fit.ms": fit_ms,
        "fit.share": fit_ms / wall_base_ms,
        "fit.sweeps": sweeps,
        "fit.us_per_sweep": fit_ms * 1e3 / sweeps if sweeps else 0.0,
        "fit.nonconverged": info_sum(fits, "nonconverged"),
        "dependence.ms": total(self_ms, pick("dependence")),
        "families.calls": len(families),
        "families.ms": total(wall_ms, families),
        "families.warnings": info_sum(pick(), "warnings"),
        "infinite.poisson_pmf_ms": total(wall_ms, pick("infinite", ("bivariate_poisson_pmf",))),
        "infinite.grid_ms": total(wall_ms, pick(
            "infinite", ("poisson_copula_grid", "geometric_copula_grid"))),
        "infinite.couple_ms": total(wall_ms, pick("infinite", ("couple_countable_margins",))),
        "viz.ms": total(wall_ms, viz),
        "viz.bytes": info_sum(viz, "bytes"),
        "cli.verb_ms": statistics.median(wall_ms[i] for i in verbs) if verbs else 0.0,
    }
