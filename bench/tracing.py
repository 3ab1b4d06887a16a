"""Per-layer tracing from outside the package.

Wraps the public daslab functions that the CLI sweeps reach, plus the
numpy eigensolvers that daslab calls, at every binding: the home module and
every daslab module that imported the function by name (``cli`` imports
``trotter_evolution``; ``zeno`` imports ``unitary_eig``), because wrapping
the home module alone misses those calls.  Wrappers only time and count,
so traced sweeps write the same bytes as untraced ones.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.  Sweeps run on one thread
(``--threads`` 1), so one stack tracks the parent.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs traced as spans; the layer is the module's last
# name component.
TRACED = (
    ("daslab.linalg", "hermitian_eig"),
    ("daslab.linalg", "unitary_eig"),
    ("daslab.linalg", "operator_norm"),
    ("daslab.linalg", "unitarity_defect"),
    ("daslab.model", "path_matrix"),
    ("daslab.model", "path_at"),
    ("daslab.model", "tfim_path"),
    ("daslab.model", "load_path_json"),
    ("daslab.evolve", "trotter_evolution"),
    ("daslab.evolve", "trotter_step_unitary"),
    ("daslab.evolve", "ordered_product"),
    ("daslab.evolve", "exact_state_evolution"),
    ("daslab.errors", "adiabatic_bound"),
    ("daslab.errors", "endpoint_states"),
    ("daslab.errors", "fidelity_error"),
    ("daslab.eigenframes", "eigenframe_sequence"),
    ("daslab.eigenframes", "transition_matrices"),
    ("daslab.eigenframes", "transition_amplitudes"),
    ("daslab.eigenframes", "propagator_expansion"),
    ("daslab.zeno", "near_degeneracy_test"),
    ("daslab.riemann_lebesgue", "sum_bounds"),
    ("daslab.cli", "fig1_rows"),
    ("daslab.cli", "fig2_rows"),
    ("daslab.cli", "fig3_rows"),
    ("daslab.cli", "bound_rows"),
    ("daslab.cli", "gamma_rows"),
    ("daslab.cli", "zeno_rows"),
    ("daslab.cli", "rl_rows"),
    ("daslab.cli", "write_csv"),
)


def _batch(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    return math.prod(getattr(a, "shape", (1, 1))[:-2])


def _frames(args, kwargs) -> int:
    s_values = args[1] if len(args) > 1 else kwargs["s_values"]
    return len(s_values)


def _factors(args, kwargs) -> int:
    mats = args[0] if args else kwargs["mats"]
    return len(mats)


def _bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Extra counts taken at a span's boundary: span name -> (count name, getter).
# write_csv's size is read after the call, when the file exists.
COUNTS = {
    "lapack.eigh": ("matrices", _batch),
    "lapack.eigvalsh": ("matrices", _batch),
    "model.path_matrix": ("frames", _frames),
    "evolve.ordered_product": ("factors", _factors),
    "cli.write_csv": ("bytes", _bytes),
}


class Recorder:
    """In-memory spans and counts for one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []

    def span(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[1](args, kwargs)
            return result

        return wrapper

    def ode_counter(self, fn):
        """Count right-hand-side evaluations from the solve_ivp result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["evolve.ode.nfev"] += int(result.nfev)
            return result

        return wrapper

    def summary(self) -> dict:
        """calls, total and self time per span name, plus the counts and the
        time covered by top-level spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        top = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if parent is None:
                top += duration
            else:
                self_s[self.spans[parent][0]] -= duration
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "top_level_s": top,
        }


def install(recorder: Recorder):
    """Wrap every traced binding; returns a function that restores them."""
    import numpy as np

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "daslab"]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapped = recorder.span(f"{module_name.split('.')[-1]}.{attr}", original)
        for module in modules:
            if getattr(module, attr, None) is original:
                replace(module, attr, wrapped)
    for attr in ("eigh", "eigvalsh"):
        replace(np.linalg, attr, recorder.span(f"lapack.{attr}", getattr(np.linalg, attr)))
    evolve = sys.modules["daslab.evolve"]
    replace(evolve, "solve_ivp", recorder.ode_counter(evolve.solve_ivp))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "lapack.eigh.calls": "count",
    "lapack.eigh.matrices": "count",
    "lapack.eigh.s": "s",
    "lapack.eigvalsh.matrices": "count",
    "lapack.eigvalsh.s": "s",
    "linalg.hermitian_eig.calls": "count",
    "linalg.hermitian_eig.s": "s",
    "linalg.unitary_eig.calls": "count",
    "linalg.unitary_eig.s": "s",
    "linalg.operator_norm.calls": "count",
    "linalg.operator_norm.s": "s",
    "linalg.unitarity_defect.calls": "count",
    "linalg.unitarity_defect.s": "s",
    "model.path_matrix.calls": "count",
    "model.path_matrix.frames": "count",
    "model.path_matrix.s": "s",
    "model.path_at.calls": "count",
    "model.path_at.s": "s",
    "model.tfim_path.s": "s",
    "model.load_path_json.s": "s",
    "evolve.trotter_evolution.calls": "count",
    "evolve.trotter_evolution.s": "s",
    "evolve.trotter_step_unitary.calls": "count",
    "evolve.trotter_step_unitary.s": "s",
    "evolve.ordered_product.calls": "count",
    "evolve.ordered_product.factors": "count",
    "evolve.ordered_product.s": "s",
    "evolve.exact_state_evolution.calls": "count",
    "evolve.exact_state_evolution.s": "s",
    "evolve.ode.nfev": "count",
    "errors.adiabatic_bound.calls": "count",
    "errors.adiabatic_bound.s": "s",
    "errors.endpoint_states.s": "s",
    "errors.fidelity_error.calls": "count",
    "eigenframes.eigenframe_sequence.s": "s",
    "eigenframes.transition_matrices.s": "s",
    "eigenframes.transition_amplitudes.s": "s",
    "eigenframes.propagator_expansion.s": "s",
    "zeno.near_degeneracy_test.calls": "count",
    "zeno.near_degeneracy_test.s": "s",
    "riemann_lebesgue.sum_bounds.s": "s",
    "cli.fig1_rows.s": "s",
    "cli.fig2_rows.s": "s",
    "cli.fig3_rows.s": "s",
    "cli.bound_rows.s": "s",
    "cli.gamma_rows.s": "s",
    "cli.zeno_rows.s": "s",
    "cli.rl_rows.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "B",
    "trace.overhead_s": "s",
    "trace.untimed_s": "s",
}


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced round; unreached layers read 0."""
    values = {}
    for name in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = summary["calls"].get(span, 0)
        elif kind == "s" and span != "trace":
            values[name] = summary["self_s"].get(span, 0.0)
        else:
            values[name] = summary["counts"].get(name, 0)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.untimed_s"] = traced_wall - summary["top_level_s"]
    return values
