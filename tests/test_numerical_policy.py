"""Package-wide numerical policy: one gap floor with one comparison, and no
per-call tolerance parameters."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import daslab
from daslab.eigenframes import transition_amplitude_continuum, transported_stream
from daslab.errors import bound_profile, endpoint_states
from daslab.exceptions import DegenerateEndpoint, DegenerateGround, DegeneratePath, GapClosure
from daslab.linalg import GAP_FLOOR, ground_state
from daslab.model import AdiabaticPath, HermitianOperator, linear_schedule, path_spectrum
from daslab.projectors import projector_frame
from daslab.riemann_lebesgue import robust_adiabatic_bound

RETIRED = {
    "tol",
    "cluster_tol",
    "tie_tol",
    "branch_tol",
    "gap_tol",
    "gap_floor",
    "ground_gap_tol",
    "atol",
    "start_nodes",
    "max_nodes",
    "s_samples",
    "variation_rel_tol",
    "rel_tol",
}
# The self-convergence tolerance of the exact reference propagator: tests
# tighten it, and the NoConvergence test needs an unreachable value.
ALLOWED = {("daslab.evolve.exact_evolution", "tol")}


def public_callables():
    """(qualified name, callable) for every public function and public
    method defined in a daslab module."""
    for info in pkgutil.iter_modules(daslab.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"daslab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_per_call_tolerance_parameters():
    callables = dict(public_callables())
    assert "daslab.evolve.exact_evolution" in callables
    assert "daslab.cli.RunConfig.from_dict" in callables
    found = [
        (qualname, param)
        for qualname, fn in callables.items()
        for param in inspect.signature(fn).parameters
        if param in RETIRED and (qualname, param) not in ALLOWED
    ]
    assert found == []


def constant_gap_path(gap: float) -> AdiabaticPath:
    h = HermitianOperator(np.diag([0.0, gap]) + 0.0j)
    return AdiabaticPath(h, h, linear_schedule())


GUARDS = {
    "ground_state": (DegenerateGround, lambda path: ground_state(path.h_initial.matrix)),
    "endpoint_states": (DegenerateEndpoint, endpoint_states),
    "transported_stream": (
        DegeneratePath,
        lambda path: list(transported_stream([path_spectrum(path, np.linspace(0.0, 1.0, 5))])),
    ),
    "bound_profile": (GapClosure, bound_profile),
    "projector_frame": (DegenerateGround, lambda path: projector_frame(path.h_initial)),
    "robust_adiabatic_bound": (GapClosure, lambda path: robust_adiabatic_bound(path, 10.0, 0.1)),
    "transition_amplitude_continuum": (
        GapClosure,
        lambda path: transition_amplitude_continuum(path, 10.0, 1),
    ),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_gap_floor_is_one_closed_comparison(guard):
    """A gap at or below GAP_FLOOR is closed for every guard; above it, open."""
    error, call = GUARDS[guard]
    for factor in (0.5, 1.0):
        with pytest.raises(error):
            call(constant_gap_path(factor * GAP_FLOOR))
    call(constant_gap_path(2.0 * GAP_FLOOR))
