"""Eigenvector-overlap continuation along an operator family.

Starting from the ground state at s = 0, each step keeps the eigenvector of
the next operator with maximal squared overlap.  Along a gapped family every
overlap stays near 1; a dip far below 1 flags a (near-)degenerate point.
Scanning the Trotter step size with this test locates the critical step at
which the effective generator's gap closes somewhere on the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import AllFail, AllPass
from .linalg import ground_state, unitary_eig
from .model import AdiabaticPath, path_at
from .evolve import EvolutionSpec, trotter_step_unitary

DEFAULT_THRESHOLD = 0.99

# Continuation resolution for the effective family.  Finer grids resolve
# ever-narrower quasi-energy collisions whose avoided gaps are dynamically
# irrelevant (the evolution crosses them diabatically), dragging the flagged
# step size below the point where the simulation actually degrades; 100
# steps classifies the robust catastrophic closures only.
DEFAULT_STEPS = 100

HERMITIAN_FAMILY = "hermitian-path"
UNITARY_FAMILY = "trotter-unitary"


@dataclass(frozen=True)
class OperatorFamily:
    """One-parameter operator family with a diagonalization flavor tag."""

    evaluate: Callable[[float], np.ndarray]
    kind: str
    dt: float | None = None

    def __post_init__(self):
        if self.kind not in (HERMITIAN_FAMILY, UNITARY_FAMILY):
            raise ValueError(f"unknown family kind {self.kind!r}")

    def eigenvectors(self, s: float) -> np.ndarray:
        return self.eigendata(s)[1]

    def eigendata(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(values, vectors); values are energies or unitary eigenphases."""
        if self.kind == HERMITIAN_FAMILY:
            return np.linalg.eigh(self.evaluate(s))
        return unitary_eig(self.evaluate(s))


def hermitian_family(path: AdiabaticPath) -> OperatorFamily:
    return OperatorFamily(
        evaluate=lambda s: path_at(path, s).matrix, kind=HERMITIAN_FAMILY
    )


def effective_family(path: AdiabaticPath, dt: float, layers=()) -> OperatorFamily:
    """Family of single Trotter steps at fixed dt; shares the effective
    generator's eigenbasis without taking any logs."""
    spec = EvolutionSpec(path=path, total_time=dt, steps=1, layers=tuple(layers))
    return OperatorFamily(
        evaluate=lambda s: trotter_step_unitary(spec, s),
        kind=UNITARY_FAMILY,
        dt=dt,
    )


@dataclass(frozen=True)
class ZenoTrace:
    """Per-step squared overlaps of the continued state with its successor."""

    overlaps: np.ndarray
    threshold: float
    family: str
    dt: float | None = None

    def __post_init__(self):
        overlaps = np.asarray(self.overlaps, dtype=float)
        if np.any(overlaps < -1e-12) or np.any(overlaps > 1.0 + 1e-12):
            raise ValueError("overlaps must lie in [0, 1]")
        object.__setattr__(self, "overlaps", np.clip(overlaps, 0.0, 1.0))

    @property
    def min_overlap(self) -> float:
        return float(self.overlaps.min())

    @property
    def passed(self) -> bool:
        return self.min_overlap > self.threshold

    @property
    def first_dip(self) -> int | None:
        """Index of the first overlap at or below threshold, if any."""
        below = np.nonzero(self.overlaps <= self.threshold)[0]
        return int(below[0]) if len(below) else None


def near_degeneracy_test(
    family: OperatorFamily,
    steps: int = DEFAULT_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    initial_state: np.ndarray | None = None,
) -> ZenoTrace:
    """Continue the ground state through the family on s_j = j/steps.

    At every step the candidate search runs over all eigenvectors of the
    next operator, not just energy-adjacent ones, because level ordering is
    unreliable exactly where the test is interesting.  For a unitary family
    the caller must supply the initial state (unitary eigenphases do not
    order the spectrum).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if initial_state is None:
        if family.kind != HERMITIAN_FAMILY:
            raise ValueError("unitary families need an explicit initial_state")
        state = ground_state(family.evaluate(0.0))
    else:
        state = np.asarray(initial_state, dtype=complex).ravel()
    overlaps = np.empty(steps)
    for j in range(1, steps + 1):
        vectors = family.eigenvectors(j / steps)
        squared = np.abs(vectors.conj().T @ state) ** 2
        best = int(np.argmax(squared))
        overlaps[j - 1] = squared[best]
        state = vectors[:, best]
    return ZenoTrace(
        overlaps=overlaps, threshold=threshold, family=family.kind, dt=family.dt
    )


@dataclass(frozen=True)
class CriticalStepResult:
    """Per-dt pass/fail pattern and the bracketed critical step."""

    critical_dt: float
    first_fail_dt: float
    resolution: float
    monotone: bool
    dts: np.ndarray
    traces: tuple[ZenoTrace, ...]

    @property
    def passes(self) -> np.ndarray:
        return np.array([trace.passed for trace in self.traces])


def critical_step_search(
    path: AdiabaticPath,
    dt_values,
    threshold: float = DEFAULT_THRESHOLD,
    steps: int = DEFAULT_STEPS,
    layers=(),
    initial_state: np.ndarray | None = None,
) -> CriticalStepResult:
    """Run the near-degeneracy test on the effective family across a dt grid.

    The critical step is the midpoint between the last passing and the first
    failing dt.  Monotonicity of the pattern is not assumed: every grid
    point is evaluated and a non-monotone pattern is reported via the
    ``monotone`` flag.
    """
    dts = np.asarray(dt_values, dtype=float)
    if len(dts) == 0 or np.any(np.diff(dts) <= 0):
        raise ValueError("dt grid must be nonempty and strictly ascending")
    if initial_state is None:
        initial_state = ground_state(path_at(path, 0.0).matrix)

    traces = []
    for dt in dts:
        family = effective_family(path, float(dt), layers)
        traces.append(
            near_degeneracy_test(
                family, steps=steps, threshold=threshold, initial_state=initial_state
            )
        )
    passes = np.array([trace.passed for trace in traces])

    if passes.all():
        raise AllPass(f"every dt in [{dts[0]:g}, {dts[-1]:g}] passed")
    if not passes.any():
        raise AllFail(f"every dt in [{dts[0]:g}, {dts[-1]:g}] failed")

    first_fail = int(np.argmin(passes))
    if first_fail == 0:
        critical = float(dts[0])
        resolution = float(dts[1] - dts[0]) / 2
    else:
        critical = float(dts[first_fail - 1] + dts[first_fail]) / 2
        resolution = float(dts[first_fail] - dts[first_fail - 1]) / 2
    monotone = bool(np.all(passes[:first_fail]) and not np.any(passes[first_fail:]))
    return CriticalStepResult(
        critical_dt=critical,
        first_fail_dt=float(dts[first_fail]),
        resolution=resolution,
        monotone=monotone,
        dts=dts,
        traces=tuple(traces),
    )
