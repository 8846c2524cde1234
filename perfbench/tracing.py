"""Per-layer tracing of mmminfer from outside the package.

The package binds its collaborators with ``from .x import y``, so a call
into a layer goes through the name bound in the *calling* module, not
through the defining module.  :class:`Tracer` therefore replaces every
binding of each traced object in every loaded ``mmminfer`` module with a
timing wrapper, and restores the originals when it is removed.  No
library file is edited.

Spans (name, start, end, parent) are kept in memory.  A layer's self time
is its span's duration minus the durations of its child spans; the sum of
all self times therefore equals the wall time of the root spans.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter

PACKAGE = "mmminfer"
ROOT = "bench.op"
RECT = "mvdist.rect"

# (defining module, attribute, layer) of every traced public name.  A dotted
# attribute is a method, patched on its class.
TRACED = (
    ("simulate", "run", "simulate.run"),
    ("simulate", "generate", "simulate.generate"),
    ("linmodels", "fit_ols", "linmodels.fit_ols"),
    ("linmodels", "fit_logit", "linmodels.fit_logit"),
    ("contrasts", "fit_cell_means", "contrasts.fit_cell_means"),
    ("mmm", "stack", "mmm.stack"),
    ("mmm", "joint_scale", "mmm.joint_scale"),
    ("mmm", "adjusted_p", "mmm.adjusted_p"),
    ("mmm", "simultaneous_ci", "mmm.simultaneous_ci"),
    ("mvdist", "CorrelationMatrix", "mvdist.corr"),
    ("mvdist", "mv_rect_prob", RECT),
    ("mvdist", "equicoordinate_quantile", "mvdist.quantile"),
    ("casestudy", "analyze", "casestudy.analyze"),
    ("casestudy", "expand", "casestudy.expand"),
    ("report", "InferenceReport.to_text", "report.render"),
    ("report", "InferenceReport.to_json", "report.render"),
    ("forest", "forest_svg", "forest.svg"),
)

# Span names.  Rectangle calls are split by path: the deterministic
# Gauss-Legendre ladder runs up to dimension 3 (dimension 1 is closed form
# and never occurs in the workloads), randomized QMC above.
LAYERS = (
    "simulate.run",
    "simulate.generate",
    "linmodels.fit_ols",
    "linmodels.fit_logit",
    "contrasts.fit_cell_means",
    "mmm.stack",
    "mmm.joint_scale",
    "mmm.adjusted_p",
    "mmm.simultaneous_ci",
    "mvdist.corr",
    "mvdist.rect_gl",
    "mvdist.rect_qmc",
    "mvdist.quantile",
    "casestudy.analyze",
    "casestudy.expand",
    "report.render",
    "forest.svg",
)
_GL_MAX_DIM = 3


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "mvdist.rect_gl.samples": "count",
            "mvdist.rect_qmc.samples": "count",
            "mvdist.rect_t.calls": "count",
            "mvdist.rect_t.s": "s",
            "mvdist.rect.unconverged": "count",
            "mvdist.rect.max_err": "prob",
            "simulate.decision.rect_per_decision": "ratio",
            f"{ROOT}.self_s": "s",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


class Tracer:
    """Span recorder whose ``with`` block patches the package's bindings.

    Spans and counters accumulate across ``with`` blocks, so a run can
    trace some operations and leave others untraced.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        # (layer, short name of the calling module) -> calls
        self.calls_from: Counter = Counter()
        self.rect_samples: Counter = Counter()
        self.rect_unconverged = 0
        self.rect_max_err = 0.0
        self.t_calls = 0
        self.t_seconds = 0.0
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        try:
            for module_name, attribute, layer in TRACED:
                owner = modules[f"{PACKAGE}.{module_name}"]
                class_name, _, method = attribute.rpartition(".")
                if class_name:
                    cls = getattr(owner, class_name)
                    self._patch(cls, method, self._wrap(cls.__dict__[method], layer, module_name))
                    continue
                original = getattr(owner, attribute)
                for name, module in modules.items():
                    caller = name.rpartition(".")[2]
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, self._wrap(original, layer, caller))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _restore(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, original, layer, caller):
        key = (layer, caller)
        calls = self.calls_from
        open_, close = self.open, self.close
        if isinstance(original, type):
            # A subclass keeps isinstance checks and classmethods working.
            class Traced(original):
                __slots__ = ()

                def __init__(self, *args, **kwargs):
                    calls[key] += 1
                    index = open_(layer)
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        close(index)

            Traced.__name__ = original.__name__
            Traced.__qualname__ = original.__qualname__
            return Traced
        if layer == RECT:
            return self._wrap_rect(original, key)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls[key] += 1
            index = open_(layer)
            try:
                return original(*args, **kwargs)
            finally:
                close(index)

        return traced

    def _wrap_rect(self, original, key):
        """mv_rect_prob(corr, lower, upper, df=None, settings=...)."""
        calls = self.calls_from
        open_, close = self.open, self.close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls[key] += 1
            corr = args[0] if args else kwargs["corr"]
            df = args[3] if len(args) > 3 else kwargs.get("df")
            layer = "mvdist.rect_gl" if corr.dim <= _GL_MAX_DIM else "mvdist.rect_qmc"
            index = open_(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            self.rect_samples[layer] += result.samples
            self.rect_unconverged += not result.converged
            self.rect_max_err = max(self.rect_max_err, result.error)
            if df is not None:
                self.t_calls += 1
                self.t_seconds += self.ends[index] - self.starts[index]
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: [calls, inclusive seconds, self seconds]}."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[index]
        totals: dict = {}
        for name, duration, covered in zip(self.names, durations, children):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered
        return totals

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics, each averaged over the traced root spans."""
        totals = self.layer_totals()
        roots = totals.get(ROOT, [0, 0.0, 0.0])[0]
        if roots == 0:
            raise ValueError("no traced operation to summarise")
        values = {}
        for layer in LAYERS:
            calls, seconds, self_seconds = totals.get(layer, [0, 0.0, 0.0])
            values[f"{layer}.calls"] = calls / roots
            values[f"{layer}.s"] = seconds / roots
            values[f"{layer}.self_s"] = self_seconds / roots
        decisions = self.calls_from[("mmm.joint_scale", "simulate")]
        from_simulate = self.calls_from[(RECT, "simulate")]
        values.update(
            {
                "mvdist.rect_gl.samples": self.rect_samples["mvdist.rect_gl"] / roots,
                "mvdist.rect_qmc.samples": self.rect_samples["mvdist.rect_qmc"] / roots,
                "mvdist.rect_t.calls": self.t_calls / roots,
                "mvdist.rect_t.s": self.t_seconds / roots,
                "mvdist.rect.unconverged": self.rect_unconverged / roots,
                "mvdist.rect.max_err": self.rect_max_err,
                "simulate.decision.rect_per_decision": (
                    from_simulate / decisions if decisions else 0.0
                ),
                f"{ROOT}.self_s": totals[ROOT][2] / roots,
                "trace.wall_s": totals[ROOT][1] / roots,
                "trace.overhead_s": overhead_s,
            }
        )
        units = metric_units()
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    def write_spans(self, path) -> None:
        """One CSV row per span, times relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "parent", "name", "start_s", "end_s"))
            for index, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                writer.writerow(
                    (index, parent, name, f"{start - origin:.9f}", f"{end - origin:.9f}")
                )
