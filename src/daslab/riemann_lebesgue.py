"""Discrete oscillatory sums, their continuum limits, and decay bounds.

The central object is the Riemann-sum analogue of an oscillatory integral:
J = (1/L) sum_k f(s_k) exp[-i dt sum_{j<k} lambda(s_j)] on the grid
s_k = k/L.  Summation by parts bounds |J| by boundary terms of f over the
discrete step frequency omega plus a total-variation integral, mirroring the
integration-by-parts bounds for the continuum integral.  Below the resonance
threshold max lambda * dt < 3.78 the discrete sum tracks the continuum 1/T
decay; at lambda * dt on 2 pi Z the sum is O(1) and the bounds are vacuous.

The continuum integrals use the composite and cumulative Simpson rules
defined here in numpy, whose bytes match SciPy 1.17's ``simpson`` and
``cumulative_simpson``; the package does not import SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import GapClosure, NoConvergence, NonFiniteResult, OmegaZero
from .linalg import GAP_FLOOR, operator_norm
from .model import AdiabaticPath, path_at, path_energies

RESONANCE_THRESHOLD = 3.78
OMEGA_ZERO_RTOL = 1e-12

# Node doubling of total_variation: first and largest grid, and the relative
# change between two grids that counts as converged.
VARIATION_START_NODES = 1024
VARIATION_MAX_NODES = 2**21
VARIATION_REL_TOL = 1e-6
# A change at or below this multiple of eps * max|ratio| * nodes is rounding
# and counts as converged too: central differences of a ratio that is
# constant up to rounding give a variation of about that size, which
# doubles with the nodes.  The difference quotient of a linear amplitude
# carries its L-fold cancellation into the ratio: for f(s) = s, lambda = 1
# the change between grids measured up to 9 times that size at L = 1000
# and 348 times at L = 10^4, so 2^10 covers L up to 10^4.  At
# VARIATION_MAX_NODES the level is 4.8e-7 max|ratio|, still below the
# relative test for any variation of the ratio's own size.
VARIATION_ROUNDING = 2.0**10

# Node doubling of oscillatory_integral, likewise.
INTEGRAL_START_NODES = 512
INTEGRAL_MAX_NODES = 2**22
INTEGRAL_REL_TOL = 1e-8

# Points of the uniform s grid on which robust_adiabatic_bound samples the
# spectrum.
ROBUST_S_SAMPLES = 101


def _odd_nodes(y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd count of at least 3 nodes, got {y.shape}")
    return y


def simpson(y, dx: float):
    """Composite Simpson integral of the samples y at spacing dx, for an odd
    node count: bit for bit ``scipy.integrate.simpson(y, dx=dx)`` (SciPy
    1.17's ``_basic_simpson``)."""
    y = _odd_nodes(y)
    result = np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    result *= dx / 3.0
    return result


def cumulative_simpson(y, dx: float) -> np.ndarray:
    """Running Simpson integral of the samples y at spacing dx, 0 at the
    first node, for an odd node count: bit for bit
    ``scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0)``.

    Each interval takes the quadratic through its node pair and the next
    node on the side of its panel (SciPy 1.17's
    ``_cumulative_simpson_equal_intervals``, run forward for the first
    interval of each panel and backward for the second).
    """
    y = _odd_nodes(y)
    left, middle, right = y[0:-2:2], y[1:-1:2], y[2::2]
    pieces = np.empty(y.size - 1, dtype=np.result_type(y, float))
    pieces[0::2] = dx / 3 * (5 * left / 4 + 2 * middle - right / 4)
    pieces[1::2] = dx / 3 * (5 * right / 4 + 2 * middle - left / 4)
    out = np.cumsum(pieces)
    out += 0.0  # as SciPy adds its initial value: -0.0 becomes +0.0
    return np.concatenate(([0.0], out))


@dataclass
class OscillatorySumSpec:
    """Complex amplitude f and positive frequency lambda on [0, 1], as
    callables of s.

    The sum uses L samples at s_k = k/L with f(0) available for the boundary
    difference quotients.
    """

    f: Callable
    lam: Callable
    total_time: float
    steps: int

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        probe = self.grid()
        lam = np.asarray(self.lam(probe), dtype=float)
        if np.any(lam <= 0):
            raise ValueError("lambda must be positive on the grid")
        if not np.all(np.isfinite(np.asarray(self.f(probe), dtype=complex))):
            raise ValueError("f must be finite on the grid")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    def grid(self) -> np.ndarray:
        """Sample points s_k = k/L, k = 1..L."""
        return np.arange(1, self.steps + 1) / self.steps

    def max_lambda_dt(self) -> float:
        nodes = np.concatenate([[0.0], self.grid()])
        return float(np.max(np.asarray(self.lam(nodes), dtype=float)) * self.dt)


def oscillatory_sum(spec: OscillatorySumSpec) -> complex:
    """The discrete sum J; prefix phases accumulated once."""
    s = spec.grid()
    f = np.asarray(spec.f(s), dtype=complex)
    lam = np.asarray(spec.lam(s), dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(lam[:-1])])
    return complex(np.mean(f * np.exp(-1j * spec.dt * prefix)))


def discrete_frequency(lam, dt: float):
    """omega = (1 - exp(-i dt lambda)) / (i dt), the step frequency.

    Tends to lambda as dt -> 0 (the overall sign is fixed by that limit;
    only |omega| and ratios against omega enter any bound) and vanishes at
    lambda * dt on 2 pi Z, where summation by parts breaks down.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    lam = np.asarray(lam, dtype=float)
    value = (1.0 - np.exp(-1j * dt * lam)) / (1j * dt)
    return complex(value) if value.ndim == 0 else value


def _checked_frequency(lam, dt: float):
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        omega = discrete_frequency(lam, dt)
    if not np.all(np.isfinite(omega)):
        raise NonFiniteResult(f"step frequency is not finite at dt = {dt:.6g}")
    lam_flat = np.atleast_1d(np.asarray(lam, dtype=float))
    bad = np.abs(np.atleast_1d(omega)) < OMEGA_ZERO_RTOL * np.abs(lam_flat)
    if np.any(bad):
        raise OmegaZero(
            f"step frequency vanishes (lambda * dt near 2 pi Z) at "
            f"lambda = {lam_flat[int(np.argmax(bad))]:.6g}, dt = {dt:.6g}"
        )
    return omega


def difference_quotient(spec: OscillatorySumSpec, s) -> complex | np.ndarray:
    """L-scaled backward difference of f/omega, the summation-by-parts kernel.

    eta(s) = L (f(s)/omega(s) - f(s - 1/L)/omega(s - 1/L)); approaches
    (f/omega)'(s) as L grows.
    """
    s = np.asarray(s, dtype=float)
    back = s - 1.0 / spec.steps
    if np.any(back < -1e-12) or np.any(s > 1.0 + 1e-12):
        raise ValueError("need s and s - 1/L inside [0, 1]")
    back = np.clip(back, 0.0, 1.0)
    here = np.asarray(spec.f(s), dtype=complex) / _checked_frequency(spec.lam(s), spec.dt)
    there = np.asarray(spec.f(back), dtype=complex) / _checked_frequency(
        spec.lam(back), spec.dt
    )
    value = spec.steps * (here - there)
    return complex(value) if value.ndim == 0 else value


def total_variation(g: Callable, lam: Callable, dt: float, lo: float = 0.0) -> float:
    """Integral of |(g/omega)'| over [lo, 1], self-converged by node doubling.

    The grid doubles from VARIATION_START_NODES until two successive values
    agree to VARIATION_REL_TOL, or differ by no more than the ratio's
    rounding level, VARIATION_ROUNDING * eps * max|ratio| * nodes (a ratio
    that is constant up to rounding has no variation to resolve); past
    VARIATION_MAX_NODES :class:`NoConvergence` is raised.  The derivative
    comes from dense central differences, so g only needs to be evaluable,
    not differentiable in closed form.
    """
    previous = None
    nodes = VARIATION_START_NODES
    while nodes <= VARIATION_MAX_NODES:
        s = np.linspace(lo, 1.0, nodes + 1)
        ratio = np.asarray(g(s), dtype=complex) / _checked_frequency(lam(s), dt)
        derivative = np.gradient(ratio, s)
        value = float(np.trapezoid(np.abs(derivative), s))
        rounding = VARIATION_ROUNDING * np.finfo(float).eps * float(np.abs(ratio).max()) * nodes
        tol = max(VARIATION_REL_TOL * max(1e-300, value), rounding)
        if previous is not None and abs(value - previous) <= tol:
            return value
        previous = value
        nodes *= 2
    raise NoConvergence(
        f"total variation did not self-converge within {VARIATION_MAX_NODES} nodes"
    )


def oscillatory_integral(f: Callable, lam: Callable, total_time: float) -> complex:
    """Continuum integral of f(s) exp[-i T int_0^s lambda] over [0, 1], on
    grids doubled from INTEGRAL_START_NODES to at most INTEGRAL_MAX_NODES
    (see :func:`_doubled_integral`)."""
    return _doubled_integral(
        lambda s: (f(s), lam(s)), total_time, INTEGRAL_START_NODES, INTEGRAL_MAX_NODES
    )


def _doubled_integral(
    samples: Callable, total_time: float, start_nodes: int, max_nodes: int
) -> complex:
    """Integral of f(s) exp[-i T int_0^s lambda] over [0, 1], for
    (f, lambda) = samples(s) on a uniform grid s.

    Composite Simpson with the accumulated phase from cumulative Simpson,
    on grids doubled from start_nodes until two successive values agree to
    INTEGRAL_REL_TOL; past max_nodes :class:`NoConvergence` is raised.
    """
    previous = None
    nodes = start_nodes
    while nodes <= max_nodes:
        s = np.linspace(0.0, 1.0, nodes + 1)
        h = s[1] - s[0]
        f, lam = samples(s)
        phase = cumulative_simpson(np.asarray(lam, dtype=float), h)
        integrand = np.asarray(f, dtype=complex) * np.exp(-1j * total_time * phase)
        value = complex(simpson(integrand, h))
        tol = INTEGRAL_REL_TOL * max(1.0, abs(value))
        if previous is not None and abs(value - previous) <= tol:
            return value
        previous = value
        nodes *= 2
    raise NoConvergence(
        f"oscillatory integral did not self-converge within {max_nodes} nodes"
    )


@dataclass(frozen=True)
class OscillatorySumBounds:
    """The sum, its continuum limit, and the decay bounds.

    boundary_bound and variation_bound are the two pieces of the first-order
    bound; the second-order bound replaces the variation of f/omega by
    boundary values and variation of the difference quotient, gaining an
    extra 1/T.  All pieces carry explicit constant 1.
    """

    value: complex
    continuum: complex
    boundary_bound: float
    variation_bound: float
    first_order_bound: float
    second_order_bound: float
    eta_variation: float
    max_lambda_dt: float

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    @property
    def threshold_ok(self) -> bool:
        return self.max_lambda_dt < RESONANCE_THRESHOLD


def sum_bounds(spec: OscillatorySumSpec) -> OscillatorySumBounds:
    """Evaluate J, the continuum integral, and both decay bounds.

    The boundary eta value at the left end uses the first in-range backward
    difference (s = 1/L), which is the term summation by parts actually
    produces there.  At a resonance (lambda * dt on 2 pi Z) the bound
    expressions are vacuous and reported as infinity; J and the continuum
    integral are still evaluated.  Anywhere else a bound that overflows, or
    a step frequency that does (dt below about 5.6e-309), raises
    :class:`NonFiniteResult`.  Both total variations converge to
    VARIATION_REL_TOL.
    """
    value = oscillatory_sum(spec)
    continuum = oscillatory_integral(spec.f, spec.lam, spec.total_time)
    t = spec.total_time
    s_first = 1.0 / spec.steps

    try:
        f_ends = np.asarray(spec.f(np.array([0.0, 1.0])), dtype=complex)
        omega_ends = _checked_frequency(
            np.asarray(spec.lam(np.array([0.0, 1.0]))), spec.dt
        )
        boundary = float(np.sum(np.abs(f_ends / omega_ends))) / t

        f_variation = total_variation(
            lambda s: np.asarray(spec.f(s), dtype=complex),
            lambda s: np.asarray(spec.lam(s), dtype=float),
            spec.dt,
        )
        variation_bound = f_variation / t

        eta_ends = np.array(
            [difference_quotient(spec, s_first), difference_quotient(spec, 1.0)]
        )
        omega_eta_ends = _checked_frequency(
            np.asarray(spec.lam(np.array([s_first, 1.0]))), spec.dt
        )
        eta_boundary = float(np.sum(np.abs(eta_ends / omega_eta_ends))) / t / t

        eta_variation = total_variation(
            lambda s: np.asarray(difference_quotient(spec, s), dtype=complex),
            lambda s: np.asarray(spec.lam(s), dtype=float),
            spec.dt,
            lo=s_first,
        )
        first_order = boundary + variation_bound
        second_order = boundary + eta_boundary + eta_variation / t / t
        bounds = (boundary, variation_bound, first_order, second_order, eta_variation)
        if not np.all(np.isfinite(bounds)):
            raise NonFiniteResult(f"oscillatory-sum bounds {bounds} are not all finite")
    except OmegaZero:
        boundary = variation_bound = eta_variation = np.inf
        first_order = second_order = np.inf

    max_lambda_dt = spec.max_lambda_dt()
    return OscillatorySumBounds(
        value=value,
        continuum=continuum,
        boundary_bound=boundary,
        variation_bound=variation_bound,
        first_order_bound=first_order,
        second_order_bound=second_order,
        eta_variation=eta_variation,
        max_lambda_dt=max_lambda_dt,
    )


@dataclass(frozen=True)
class RobustnessReport:
    """Endpoint-only adiabatic error bound with its applicability flags."""

    bound: float
    max_lambda_dt: float
    min_level_spacing: float

    @property
    def threshold_ok(self) -> bool:
        return self.max_lambda_dt < RESONANCE_THRESHOLD

    @property
    def spacing_ok(self) -> bool:
        return self.min_level_spacing > GAP_FLOOR


def robust_adiabatic_bound(
    path: AdiabaticPath, total_time: float, dt: float
) -> RobustnessReport:
    """Endpoint bound max_{s in {0,1}} ||H'(s)|| / (T gap^2(s)) with flags.

    The spectrum is sampled on ROBUST_S_SAMPLES uniform points of [0, 1]
    by :func:`path_energies`; its first and last rows give the endpoint
    gaps, and an endpoint gap at or below GAP_FLOOR raises
    :class:`GapClosure`.  threshold_ok records whether every level
    spacing above the ground state stays below the resonance threshold over
    the grid; spacing_ok records whether all adjacent levels stay more than
    GAP_FLOOR apart there.
    """
    s_values = np.linspace(0.0, 1.0, ROBUST_S_SAMPLES)
    energies = path_energies(path, s_values)
    lambdas = energies - energies[:, :1]
    max_lambda_dt = float(lambdas.max() * dt)
    min_spacing = float(np.diff(energies, axis=1).min())

    endpoints = ((0.0, float(lambdas[0, 1])), (1.0, float(lambdas[-1, 1])))
    for s, gap in endpoints:
        if gap <= GAP_FLOOR:
            raise GapClosure(f"endpoint gap {gap:.3e} at s = {s:g}")

    bound = max(
        operator_norm(path_at(path, s, 1).matrix) / (total_time * gap**2)
        for s, gap in endpoints
    )
    return RobustnessReport(
        bound=float(bound),
        max_lambda_dt=max_lambda_dt,
        min_level_spacing=min_spacing,
    )
