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
from .linalg import _fix_column_phases, _lapack, ground_state, unitary_eig
from .model import AdiabaticPath, block_ground_state, path_at, reversal_blocks
from .evolve import (
    EvolutionSpec, _in_order, interpolation_layers, strang_step, trotter_step_unitary,
)

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
    """One-parameter operator family with a diagonalization flavor tag.

    ``diagonalize``, when given, returns the eigendata of ``evaluate(s)``
    by a route of its own.
    """

    evaluate: Callable[[float], np.ndarray]
    kind: str
    diagonalize: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.kind not in (HERMITIAN_FAMILY, UNITARY_FAMILY):
            raise ValueError(f"unknown family kind {self.kind!r}")

    def eigendata(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(values, vectors); values are energies or unitary eigenphases."""
        if self.diagonalize is not None:
            return self.diagonalize(s)
        if self.kind == HERMITIAN_FAMILY:
            return _lapack("eigh", self.evaluate(s))
        return unitary_eig(self.evaluate(s))


def hermitian_family(path: AdiabaticPath) -> OperatorFamily:
    return OperatorFamily(
        evaluate=lambda s: path_at(path, s).matrix, kind=HERMITIAN_FAMILY
    )


def effective_family(path: AdiabaticPath, dt: float, layers=()) -> OperatorFamily:
    """Family of single Trotter steps at fixed dt; shares the effective
    generator's eigenbasis without taking any logs.

    A step of a real layer followed by a diagonal one (the TFIM) is
    diagonalized through its symmetrized form (see
    :func:`_strang_diagonalizer`); any other step directly.
    """
    spec = EvolutionSpec(path=path, total_time=dt, steps=1, layers=tuple(layers))
    return OperatorFamily(
        evaluate=lambda s: trotter_step_unitary(spec, s),
        kind=UNITARY_FAMILY,
        diagonalize=_strang_diagonalizer(spec),
    )


def _strang_diagonalizer(spec: EvolutionSpec):
    """Eigendata of the step from its Strang form S (see
    :func:`strang_step`), which :func:`unitary_eig` diagonalizes with a real
    ``eigh``; U's eigenvectors are S's scaled by the half-step phases.

    None unless the spec is :attr:`EvolutionSpec.strang_symmetric`.
    """
    if not spec.strang_symmetric:
        return None

    def diagonalize(s: float) -> tuple[np.ndarray, np.ndarray]:
        strang, half = strang_step(spec, s)
        theta, v = unitary_eig(strang)
        return theta, _fix_column_phases(half[:, None] * v)

    return diagonalize


@dataclass(frozen=True)
class ZenoTrace:
    """Per-step squared overlaps of the continued state with its successor.

    Two per-step records, when present, say how well determined each step
    is.  ``margins`` is the best squared overlap minus the runner-up's: a
    small margin means rounding can flip the choice of successor.  ``gaps``
    is the distance from the chosen eigenvalue (energy, or eigenphase on
    the circle) to the nearest other one: a small gap means the successor
    itself is ill-conditioned, since rounding of size e turns an
    eigenvector by about e / gap, and at a zero gap the eigensolver picks
    the basis of the eigenspace.

    The sweeps continue within the initial state's site-reversal block
    (see :func:`~daslab.model.reversal_blocks`), so there both records are
    measured within the sector: a crossing with a level of the other
    parity is symmetry-protected and counts in neither.
    """

    overlaps: np.ndarray
    threshold: float
    margins: np.ndarray | None = None
    gaps: np.ndarray | None = None

    def __post_init__(self):
        overlaps = np.asarray(self.overlaps, dtype=float)
        if np.any(overlaps < -1e-12) or np.any(overlaps > 1.0 + 1e-12):
            raise ValueError("overlaps must lie in [0, 1]")
        object.__setattr__(self, "overlaps", np.clip(overlaps, 0.0, 1.0))
        for name in ("margins", "gaps"):
            record = getattr(self, name)
            if record is not None:
                record = np.asarray(record, dtype=float)
                if record.shape != overlaps.shape:
                    raise ValueError(f"{name} must have one entry per overlap")
                object.__setattr__(self, name, record)

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
    margins = np.empty(steps)
    gaps = np.empty(steps)
    for j in range(1, steps + 1):
        values, vectors = family.eigendata(j / steps)
        squared = np.abs(vectors.conj().T @ state) ** 2
        best = int(np.argmax(squared))
        overlaps[j - 1] = squared[best]
        runner_up = np.partition(squared, -2)[-2] if len(squared) > 1 else 0.0
        margins[j - 1] = squared[best] - runner_up
        distances = values - values[best]
        if family.kind == UNITARY_FAMILY:
            distances = np.angle(np.exp(1j * distances))
        distances = np.abs(distances)
        distances[best] = np.inf
        gaps[j - 1] = distances.min()
        state = vectors[:, best]
    return ZenoTrace(overlaps=overlaps, threshold=threshold, margins=margins, gaps=gaps)


def effective_traces(
    path: AdiabaticPath,
    psi: np.ndarray,
    dt_values,
    steps: int = DEFAULT_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    run=_in_order,
) -> list[ZenoTrace]:
    """The near-degeneracy test of the effective family (see
    :func:`effective_family`) at each dt in ``dt_values``, continuing psi.

    The continuation runs inside psi's site-reversal block, the first of
    :func:`~daslab.model.reversal_blocks`, from psi projected onto it.  The
    block path's layers and every dt's family are formed here, in the
    calling thread, where :attr:`~daslab.evolve.EvolutionSpec.strang_symmetric`
    diagonalizes each layer once for the whole grid.  ``run(fn, items)``
    maps the tests over the families (by default in order).
    """
    block = reversal_blocks(path, psi)[0]
    initial_state = block.project(psi)
    layers = interpolation_layers(block.path)
    families = [effective_family(block.path, float(dt), layers) for dt in dt_values]
    return run(
        lambda family: near_degeneracy_test(
            family, steps=steps, threshold=threshold, initial_state=initial_state
        ),
        families,
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
) -> CriticalStepResult:
    """Run the near-degeneracy test on the effective family across a dt grid.

    Each trace is :func:`effective_traces` of the ground state of H(0).
    The critical step is the midpoint between the last passing and the
    first failing dt.  Monotonicity of the pattern is not assumed: every
    grid point is evaluated and a non-monotone pattern is reported via the
    ``monotone`` flag.
    """
    dts = np.asarray(dt_values, dtype=float)
    if len(dts) == 0 or np.any(np.diff(dts) <= 0):
        raise ValueError("dt grid must be nonempty and strictly ascending")
    traces = effective_traces(path, block_ground_state(path_at(path, 0.0)), dts, steps, threshold)
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
