"""Fidelity/norm error metrics, their triangle decomposition, and the
adiabatic-theorem bound with scaling-index estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateEndpoint,
    DegenerateGround,
    DimensionMismatch,
    GapClosure,
    InsufficientData,
    NonFiniteResult,
)
from .linalg import GAP_FLOOR, operator_norm
from .model import PARITY_TOL, AdiabaticPath, block_ground_state, path_energies, reversal_blocks
from .evolve import (
    EvolutionSpec,
    discrete_evolution,
    exact_state_evolution,
    trotter_evolution,
)
from .riemann_lebesgue import simpson

TRIANGLE_SLACK = 1e-9


def fidelity_error(phi: np.ndarray, psi: np.ndarray) -> float:
    """sqrt(1 - |<a|b>|^2) of the normalized states a and b, computed as the
    residual ||b - a<a|b>||, clamped to 1.

    For unit vectors the two are equal, but the residual does not cancel:
    1 - |<a|b>|^2 turns one rounding of the overlap into an error of about
    sqrt(eps).  A state whose norm is at most PARITY_TOL counts as zero and
    gives 1: a state of the other parity projected onto a site-reversal
    block is zero only up to rounding, and normalizing that rounding would
    turn it into an arbitrary unit vector.  Immune to global phases on
    either state.
    """
    phi = np.asarray(phi, dtype=complex).ravel()
    psi = np.asarray(psi, dtype=complex).ravel()
    if phi.shape != psi.shape:
        raise DimensionMismatch(f"state dims {phi.shape} vs {psi.shape}")
    norms = np.linalg.norm(phi), np.linalg.norm(psi)
    if min(norms) <= PARITY_TOL:
        return 1.0
    a, b = phi / norms[0], psi / norms[1]
    return float(min(1.0, np.linalg.norm(b - a * np.vdot(a, b))))


@dataclass(frozen=True)
class ErrorTriplet:
    """Total, adiabatic and Trotter fidelity errors plus the norm distance."""

    eps_tot: float
    eps_adb: float
    eps_tro: float
    norm_dist: float
    total_time: float
    steps: int
    dt: float

    def __post_init__(self):
        for name in ("eps_tot", "eps_adb", "eps_tro"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value} outside [0, 1]")
        if self.eps_tot > self.eps_adb + self.eps_tro + TRIANGLE_SLACK:
            raise ValueError(
                f"triangle inequality violated: {self.eps_tot} > "
                f"{self.eps_adb} + {self.eps_tro}"
            )


def endpoint_states(path: AdiabaticPath):
    """Ground states of H_i and H_f, each found in its site-reversal blocks
    where it has them (:func:`~daslab.model.block_ground_state`); raises
    :class:`DegenerateEndpoint` when either ground gap is at or below
    GAP_FLOOR."""
    try:
        psi_i = block_ground_state(path.h_initial)
        psi_f = block_ground_state(path.h_final)
    except DegenerateGround as exc:
        raise DegenerateEndpoint(str(exc)) from exc
    return psi_i, psi_f


def error_triplet(spec: EvolutionSpec) -> ErrorTriplet:
    """All three errors for one run, plus the discrete/Trotter norm distance.

    eps_adb compares the exactly-evolved initial state against the target
    ground state, eps_tro compares exact against Trotterized evolution of the
    initial state, and eps_tot compares the Trotterized result against the
    target.  The exact state comes from :func:`exact_state_evolution` at
    its default tolerances.
    """
    psi_i, psi_f = endpoint_states(spec.path)
    a_tro = trotter_evolution(spec).matrix
    a_d = discrete_evolution(spec).matrix
    exact_state = exact_state_evolution(spec.path, spec.total_time, psi_i)
    tro_state = a_tro @ psi_i
    return ErrorTriplet(
        eps_tot=fidelity_error(psi_f, tro_state),
        eps_adb=fidelity_error(psi_f, exact_state),
        eps_tro=fidelity_error(exact_state, tro_state),
        norm_dist=operator_norm(a_d - a_tro),
        total_time=spec.total_time,
        steps=spec.steps,
        dt=spec.dt,
    )


@dataclass(frozen=True)
class BoundReport:
    """Adiabatic-theorem upper bound split into its three parts."""

    boundary_start: float
    boundary_end: float
    integral_term: float

    def __post_init__(self):
        parts = (self.boundary_start, self.boundary_end, self.integral_term)
        if not np.all(np.isfinite(parts)):
            raise NonFiniteResult(f"bound parts {parts} are not all finite")
        if any(p < 0 for p in parts):
            raise ValueError("bound parts must be nonnegative")

    @property
    def total(self) -> float:
        return self.boundary_start + self.boundary_end + self.integral_term


@dataclass(frozen=True, eq=False)
class BoundProfile:
    """The T-independent parts of the adiabatic bound on its Simpson nodes:
    the gaps, d1 = |p'| ||H_f - H_i||, and the integral of
    7 d1^2 / gap^3 + d2 / gap^2."""

    gaps: np.ndarray
    d1: np.ndarray
    integral: float

    def report(self, total_time: float) -> BoundReport:
        """The bound at total time T; every part scales as 1/T."""
        with np.errstate(over="ignore"):  # BoundReport refuses an overflow
            b0 = self.d1[0] / (total_time * self.gaps[0] ** 2)
            b1 = self.d1[-1] / (total_time * self.gaps[-1] ** 2)
        integral_term = self.integral / total_time
        return BoundReport(b0, b1, integral_term)


def bound_profile(path: AdiabaticPath, quad_points: int = 201) -> BoundProfile:
    """Gaps and Simpson integral of the adiabatic bound over s in [0, 1].

    Composite Simpson quadrature (:func:`~daslab.riemann_lebesgue.simpson`);
    the node count is forced odd.  The node gaps come from
    :func:`path_energies`; a gap at or below GAP_FLOOR raises
    :class:`GapClosure`.

    A path that site reversal maps to itself is worked block by block (see
    :func:`~daslab.model.reversal_blocks`): each block path is diagonalized
    on the nodes, the gap is taken from the two lowest levels of the merged
    spectra, and ||H_f - H_i|| is the larger block norm.  Any other path is
    its own single block.
    """
    if quad_points < 3:
        raise ValueError("need at least 3 quadrature points")
    if quad_points % 2 == 0:
        quad_points += 1
    s_nodes = np.linspace(0.0, 1.0, quad_points)

    paths = [block.path for block in reversal_blocks(path)]
    diff_norm = max(operator_norm(p.h_final.matrix - p.h_initial.matrix) for p in paths)
    dp = np.abs(np.asarray(path.schedule.dp(s_nodes), dtype=float))
    ddp = np.abs(np.asarray(path.schedule.ddp(s_nodes), dtype=float))
    d1 = dp * diff_norm
    d2 = ddp * diff_norm

    energies = np.sort(np.hstack([path_energies(p, s_nodes) for p in paths]), axis=1)
    gaps = energies[:, 1] - energies[:, 0]
    closed = np.flatnonzero(gaps <= GAP_FLOOR)
    if closed.size:
        i = closed[0]
        raise GapClosure(
            f"gap {gaps[i]:.3e} at or below {GAP_FLOOR:.1e} at s = {s_nodes[i]:.6f}"
        )

    integrand = 7.0 * d1**2 / gaps**3 + d2 / gaps**2
    integral = float(simpson(integrand, s_nodes[1] - s_nodes[0]))
    return BoundProfile(gaps, d1, integral)


def adiabatic_bound(
    path: AdiabaticPath, total_time: float, quad_points: int = 201
) -> BoundReport:
    """Adiabatic-theorem bound: two 1/(T gap^2) boundary terms plus the
    integral of (7 ||H'||^2 / gap^3 + ||H''|| / gap^2) / T over s in [0, 1];
    see :func:`bound_profile`."""
    return bound_profile(path, quad_points).report(total_time)


def scaling_index(samples) -> float:
    """Negative least-squares slope of log(eps) against log(T).

    samples: iterable of (T, eps) pairs with T strictly increasing, eps > 0.
    """
    pairs = [(float(t), float(e)) for t, e in samples]
    if len(pairs) < 4:
        raise InsufficientData(f"need >= 4 samples, got {len(pairs)}")
    t = np.array([p[0] for p in pairs])
    eps = np.array([p[1] for p in pairs])
    if np.any(eps <= 0):
        raise ValueError("eps values must be positive")
    if np.any(np.diff(t) <= 0):
        raise ValueError("T values must be strictly increasing")
    slope = np.polyfit(np.log(t), np.log(eps), 1)[0]
    return float(-slope)
