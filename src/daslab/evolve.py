"""The three propagators: exact time-ordered, discretized, and Trotterized.

The discretized product takes one exponential of the full H(s_j) per step;
the Trotterized product splits each step into per-layer exponentials.  Both
are left folds: one accumulator to which each step's factors are applied in
order, with no stack of step matrices.  A factor whose imaginary part is
exactly zero multiplies the complex accumulator through its float64 view
(:func:`~daslab.linalg.float_view_matmul`).  The exact propagator is a
fourth-order commutator-free (CF4) product refined by step doubling until
self-convergence.  H(s) is affine in p(s), so each CF4 exponential is a
whole-step exponential of the linear-schedule path, and the CF4 product is
the discretized fold (:func:`discrete_products`) on a weight grid of twice
the step count: there is no second product kernel.

State-level kernels serve callers that only need the evolved state, as
fig2 and gamma do: a DOP853 integrator of the exact dynamics, an
independent route from the commutator-free product, and the Trotter and
discretized steps applied to the state by matrix-vector products.  None
forms a dim x dim propagator.  The integrator is in-house numpy (tableau in
:mod:`daslab._dop853`) and gives bit for bit the states and evaluation
counts of SciPy 1.17's DOP853.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _dop853
from .exceptions import NoConvergence
from .linalg import (
    _lapack,
    exp_from_eig,
    float_view_matmul,
    normalized_state,
    operator_norm,
    principal_log_hamiltonian,
    real_if_exact,
    unitarity_defect,
)
from .model import (
    AdiabaticPath,
    HermitianOperator,
    PathSpectrum,
    spectrum_stacks,
)

GRIDS = ("endpoints", "left", "midpoint")

UNITARY_RESULT_TOL = 1e-9

# Absolute tolerance of the DOP853 state route; its relative tolerance is
# the caller's, at least ODE_RTOL_FLOOR (below it the error estimate is
# rounding, and SciPy would silently raise rtol to this floor).
ODE_ATOL = 1e-12
ODE_RTOL_FLOOR = 100 * np.finfo(float).eps

# DOP853 step-size control: safety factor, bounds on the step's change and
# the exponent -1 / (error estimator order + 1).
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def grid_points(steps: int, grid: str = "endpoints") -> np.ndarray:
    """Sample points s_j, j = 1..L, for the requested grid policy.

    endpoints: s_j = (j-1)/(L-1), so s_1 = 0 and s_L = 1 (s = [0] when L = 1).
    left:      s_j = (j-1)/L.
    midpoint:  s_j = (j-1/2)/L.
    """
    if grid not in GRIDS:
        raise ValueError(f"grid must be one of {GRIDS}, got {grid!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if grid == "endpoints":
        if steps == 1:
            return np.array([0.0])
        return np.linspace(0.0, 1.0, steps)
    if grid == "left":
        return np.arange(steps) / steps
    return (np.arange(steps) + 0.5) / steps


@dataclass(frozen=True)
class Layer:
    """One term H_k(s) = weight(s) * matrix of the step Hamiltonian.

    The step exponentials reuse a single eigendecomposition of the fixed
    matrix, made on first use and cached on the layer, so every spec sharing
    the layer shares it.
    """

    matrix: np.ndarray
    weight: Callable
    label: str = ""

    def operator_at(self, s: float) -> np.ndarray:
        return float(self.weight(s)) * self.matrix

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(w, V) of the fixed matrix.  A matrix whose off-diagonal entries
        are exactly zero is its own eigenbasis: (its real diagonal, None),
        with no ``eigh``."""
        diagonal = np.diagonal(self.matrix)
        if np.count_nonzero(self.matrix) == np.count_nonzero(diagonal):
            return diagonal.real.copy(), None
        return _lapack("eigh", self.matrix)


def interpolation_layers(path: AdiabaticPath) -> tuple[Layer, Layer]:
    """Standard two-layer split: (1 - p(s)) H_i followed by p(s) H_f."""
    p = path.schedule.p
    return (
        Layer(matrix=path.h_initial.matrix, weight=lambda s: 1.0 - float(p(s)), label="initial"),
        Layer(matrix=path.h_final.matrix, weight=lambda s: float(p(s)), label="final"),
    )


@dataclass
class EvolutionSpec:
    """Run parameters for one evolution: path, total time T, steps L, grid, layers."""

    path: AdiabaticPath
    total_time: float
    steps: int
    grid: str = "endpoints"
    layers: tuple[Layer, ...] = ()

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.grid not in GRIDS:
            raise ValueError(f"grid must be one of {GRIDS}, got {self.grid!r}")
        if not self.layers:
            self.layers = interpolation_layers(self.path)

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    def grid_points(self) -> np.ndarray:
        return grid_points(self.steps, self.grid)

    @cached_property
    def strang_symmetric(self) -> bool:
        """True for a step of two layers, the first real and the last
        diagonal: its Strang form (see :func:`strang_step`) is then a
        symmetric unitary.  Every layer's eigendata is formed here."""
        eigendata = [layer.eig for layer in self.layers]
        return (
            len(eigendata) == 2
            and eigendata[1][1] is None
            and not np.imag(self.layers[0].matrix).any()
        )


@dataclass
class UnitaryOperator:
    """A propagator matrix tagged with the method that produced it."""

    matrix: np.ndarray
    method: str
    spec: EvolutionSpec | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        defect = unitarity_defect(self.matrix)
        if not defect <= UNITARY_RESULT_TOL:  # NaN fails too
            raise ValueError(
                f"{self.method} propagator not unitary: defect {defect:.3e}"
            )
        self.meta.setdefault("unitarity_defect", defect)


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0]; the first entry acts first.

    Pairwise tree reduction: deterministic association, fewer sequential
    matmuls, and better rounding than a left fold.  No sweep multiplies
    this way since every propagator became a fold; it stays as the tests'
    reference product, built apart from the folds, and as a name the
    benchmark's tracer wraps.
    """
    mats = np.asarray(mats)
    if mats.shape[0] == 0:
        raise ValueError("empty product")
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        pairs = mats[:even].reshape(even // 2, 2, *mats.shape[1:])
        out = pairs[:, 1] @ pairs[:, 0]
        if n % 2:
            out = np.concatenate([out, mats[-1:]], axis=0)
        mats = out
    return mats[0]


def _phase_fold(x: np.ndarray, factors) -> np.ndarray:
    """Apply each factor (phases, V, V^dag) to x in order as
    x <- V (phases * (V^dag x)), or x <- phases * x when V is None."""
    for phases, v, v_h in factors:
        if v is None:
            x = phases * x
        else:
            x = float_view_matmul(v, phases * float_view_matmul(v_h, x))
    return x


def discrete_state(spectrum: PathSpectrum, dt: float, x: np.ndarray) -> np.ndarray:
    """The ordered whole-step exponentials V_j exp(-i E_j dt) V_j^dag of
    ``spectrum`` applied to x, a state or a dim x k array, folded step by
    step as V_j (exp(-i E_j dt) * (V_j^dag x)) from the bases as they are
    (raw or transported); a real basis acts through
    :func:`~daslab.linalg.float_view_matmul`.  :func:`discrete_products`
    folds each stack of its pass with it, and gamma's fidelity check its
    states."""
    x = np.asarray(x, dtype=np.complex128)
    phases = np.exp(-1j * (spectrum.energies * dt))
    phases = phases.reshape(phases.shape + (1,) * (x.ndim - 1))
    return _phase_fold(x, ((e, v, np.conj(v).T) for e, v in zip(phases, spectrum.bases)))


def _in_order(fn, items) -> list:
    return [fn(item) for item in items]


def discrete_products(path: AdiabaticPath, s_values, dts, run=_in_order) -> list[np.ndarray]:
    """The discretized propagator of ``path`` on ``s_values`` at each dt in
    ``dts``: one pass over the grid's :func:`~daslab.model.spectrum_stacks`,
    each stack folded into every dt's accumulator, from the identity, by
    :func:`discrete_state` and then dropped.  ``run(fn, items)`` maps the
    fold over the accumulators (fig1 spreads it over its workers; by
    default in order).  The pass holds one stack and one dim x dim
    accumulator per dt, whatever the step count.
    """
    products = [np.eye(path.dim, dtype=np.complex128) for _ in dts]
    for stack in spectrum_stacks(path, s_values):

        def fold(i: int, stack=stack) -> None:
            products[i] = discrete_state(stack, dts[i], products[i])

        run(fold, range(len(dts)))
        del stack, fold  # so that the next stack is formed without this one
    return products


# Fourth-order commutator-free step (Alvermann & Fehske, J. Comput. Phys.
# 230, 5930 (2011)): Gauss nodes 1/2 -/+ sqrt(3)/6, weights (3 -/+ 2 sqrt(3))/12.
_CF4_NODES = (0.5 - 3**0.5 / 6, 0.5 + 3**0.5 / 6)
_CF4_A1, _CF4_A2 = (3 - 2 * 3**0.5) / 12, (3 + 2 * 3**0.5) / 12


def _cf4_product(path: AdiabaticPath, total_time: float, steps: int) -> np.ndarray:
    """Ordered product of CF4 steps over s in [0, 1].  Per step,
    exp(-i (a2 H(s1) + a1 H(s2)) dt) acts first, then exp(-i (a1 H(s1) +
    a2 H(s2)) dt), at the Gauss nodes s1 < s2 and dt = T / steps.

    H(s) = H_i + p(s) (H_f - H_i) and a1 + a2 = 1/2, so each exponent is
    H_lin(q) dt / 2, with H_lin the same endpoints on the linear schedule
    and q = 2 (a2 p(s1) + a1 p(s2)), then 2 (a1 p(s1) + a2 p(s2)): the
    product is :func:`discrete_products` of that path on the interleaved
    weight grid at dt / 2.
    """
    nodes = (np.arange(steps)[:, None] + np.array(_CF4_NODES)) / steps
    p1, p2 = np.asarray(path.schedule.p(nodes), dtype=float).T
    weights = 2 * np.stack([_CF4_A2 * p1 + _CF4_A1 * p2, _CF4_A1 * p1 + _CF4_A2 * p2], axis=1)
    linear = AdiabaticPath(path.h_initial, path.h_final)
    return discrete_products(linear, weights.ravel(), [total_time / (2 * steps)])[0]


def exact_evolution(
    spec: EvolutionSpec,
    tol: float = 1e-10,
    max_substeps: int = 2**20,
) -> UnitaryOperator:
    """Time-ordered propagator over s in [0, 1], total time T.

    Fourth-order commutator-free product with the step count doubled from
    16 until two successive refinements differ by less than tol in spectral
    norm; the difference falls about 16x per doubling.
    """
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")
    previous = None
    substeps = 16
    while substeps <= max_substeps:
        current = _cf4_product(spec.path, spec.total_time, substeps)
        if previous is not None:
            delta = operator_norm(current - previous)
            if delta < tol:
                return UnitaryOperator(
                    current, "exact", spec, {"substeps": substeps, "delta": delta}
                )
        previous = current
        substeps *= 2
    raise NoConvergence(
        f"CF4 product did not self-converge to {tol:.1e} within "
        f"{max_substeps} steps"
    )


@dataclass(frozen=True)
class OdeResult:
    """Final state of :func:`solve_ivp`, its right-hand-side evaluations,
    and whether it reached the end of the interval (else why not)."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun: Callable, t_span: tuple[float, float], y0: np.ndarray, rtol: float) -> OdeResult:
    """Integrate dy/dt = fun(t, y) forward over t_span with DOP853.

    The Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs
    I, Sec. II.10) with relative tolerance rtol and absolute tolerance
    ODE_ATOL.  The initial step, the stage sums, the E5/E3 error norm and
    the step-size control repeat SciPy 1.17's ``solve_ivp(method="DOP853")``
    operation for operation, so the final state and ``nfev`` are bit for bit
    SciPy's.  Only the last state is kept: there is no dense output.
    """
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=dtype)

    a, b, c, e3, e5 = _dop853.A, _dop853.B, _dop853.C, _dop853.E3, _dop853.E5
    f_y = f(t, y)
    # Initial step (Hairer, Norsett & Wanner, Sec. II.4).
    scale = ODE_ATOL + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f_y / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((f(t + h0, y + h0 * f_y) - f_y) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_bound - t)

    k = np.empty((_dop853.N_STAGES + 1, y.size), dtype=dtype)
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(y, nfev, False, _TOO_SMALL_STEP)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f_y
            for s in range(1, _dop853.N_STAGES):
                k[s] = f(t + c[s] * h, y + np.dot(k[:s].T, a[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, b)
            k[-1] = f_new = f(t + h, y_new)
            scale = ODE_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(k.T, e5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(k.T, e3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
            if error_norm < 1:
                factor = _MAX_FACTOR
                if error_norm != 0:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                # After a rejection the step may not grow again.
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        t, y, f_y = t_new, y_new, f_new
    return OdeResult(
        y, nfev, True, "The solver successfully reached the end of the integration interval."
    )


def exact_state_evolution(
    path: AdiabaticPath,
    total_time: float,
    psi: np.ndarray,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Evolve a single state through the exact time-ordered dynamics.

    DOP853 integration (:func:`solve_ivp`) of d psi/ds = -i T H(s) psi with
    relative tolerance rtol, at least ODE_RTOL_FLOOR, and absolute
    tolerance ODE_ATOL; an independent route from the CF4 product, and much
    cheaper when only the final state is needed.  The state is bit for bit
    the one SciPy 1.17's DOP853 gives.
    """
    if not rtol >= ODE_RTOL_FLOOR:
        raise ValueError(f"rtol must be at least {ODE_RTOL_FLOOR:.3e}, got {rtol}")
    psi = normalized_state(psi)
    dim = path.dim
    hi = path.h_initial.matrix
    # One product per call gives H_i y and (H_f - H_i) y; H(s) y is their
    # p(s)-weighted sum, so no dim x dim matrix is formed per call.
    # Real H_i and H_f act on the real and imaginary parts of y at once.
    stacked = real_if_exact(np.concatenate([hi, path.h_final.matrix - hi]))
    p = path.schedule.p

    def rhs(s, y):
        z = float_view_matmul(stacked, y)
        return -1j * total_time * (z[:dim] + float(p(s)) * z[dim:])

    solution = solve_ivp(rhs, (0.0, 1.0), psi, rtol)
    if not solution.success:
        raise NoConvergence(f"state integration failed: {solution.message}")
    return normalized_state(solution.y)


def discrete_evolution(spec: EvolutionSpec) -> UnitaryOperator:
    """Ordered product of whole-step exponentials exp(-i H(s_j) dt), j = 1..L,
    by :func:`discrete_products`."""
    product = discrete_products(spec.path, spec.grid_points(), [spec.dt])[0]
    return UnitaryOperator(product, "discrete", spec)


def trotter_steps(spec: EvolutionSpec, s_values) -> np.ndarray:
    """Stack of Trotter step unitaries, one per s; in each step layer k = 1
    acts first (rightmost factor).  A diagonal layer scales the rows."""
    steps = None
    for layer in spec.layers:
        w, v = layer.eig
        # Scale the energies before dt multiplies them: the phase rounds
        # as (w * weight) * dt, never as w * (weight * dt).
        w = np.outer([float(layer.weight(s)) for s in s_values], w)
        if v is None:
            phases = np.exp(-1j * w * spec.dt)[..., None]
            steps = phases * (np.eye(w.shape[-1]) if steps is None else steps)
        else:
            factors = exp_from_eig(w, v, spec.dt)
            steps = factors if steps is None else factors @ steps
    return steps


def trotter_fold(spec: EvolutionSpec, x: np.ndarray) -> np.ndarray:
    """The spec's Trotter steps applied in order to the columns of x, a
    dim x k complex array: per step, each layer in layer order as
    x <- V (e^{-i w dt} * (V^dag x)), and a diagonal layer scales the rows.

    Each step's phases are formed when the fold reaches that step, with the
    rounding of :func:`trotter_steps`, so the fold holds O(dim) phases
    whatever the step count.  A layer basis whose imaginary part is exactly
    zero (``Layer.eig`` is a complex ``eigh``) is read as real once per
    call and acts through :func:`~daslab.linalg.float_view_matmul`.
    """
    x = np.asarray(x, dtype=np.complex128)
    dt = spec.dt
    layers = []
    for layer in spec.layers:
        w, v = layer.eig
        v = None if v is None else real_if_exact(v)
        layers.append((layer.weight, w, v, None if v is None else np.conj(v).T))
    return _phase_fold(
        x,
        (
            (np.exp(-1j * (float(weight(s)) * w) * dt)[:, None], v, v_h)
            for s in spec.grid_points()
            for weight, w, v, v_h in layers
        ),
    )


def trotter_state(spec: EvolutionSpec, psi: np.ndarray) -> np.ndarray:
    """``trotter_evolution(spec).matrix @ psi`` by :func:`trotter_fold` from
    psi as one column: two matrix-vector products per step and non-diagonal
    layer.

    The norm must be preserved within UNITARY_RESULT_TOL, the state-level
    stand-in for the unitarity check of :class:`UnitaryOperator`.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    out = trotter_fold(spec, psi[:, None])[:, 0]
    defect = abs(np.linalg.norm(out) - np.linalg.norm(psi))
    if not defect <= UNITARY_RESULT_TOL:  # NaN fails too
        raise ValueError(f"trotter state evolution not unitary: norm defect {defect:.3e}")
    return out


def trotter_step_unitary(spec: EvolutionSpec, s: float) -> np.ndarray:
    """Single Trotter step at s: layer k = 1 applied first (rightmost factor)."""
    return trotter_steps(spec, [s])[0]


def strang_step(spec: EvolutionSpec, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The Trotter step at s in Strang-symmetrized form, and its half step.

    With A the last-applied layer and U = e^{-iA dt} e^{-iB dt}, conjugating
    by the half step gives S = e^{iA dt/2} U e^{-iA dt/2} = e^{-iA dt/2}
    e^{-iB dt} e^{-iA dt/2}: U's eigenphases, and U's eigenvectors are
    e^{-iA dt/2} times S's.  For a :attr:`EvolutionSpec.strang_symmetric`
    spec A is diagonal, so the conjugation is a row and column phase
    scaling, and S is a symmetric unitary, made exactly symmetric here.
    Returns (S, half), with half the diagonal of e^{-iA dt/2}.
    """
    if not spec.strang_symmetric:
        raise ValueError("strang_step needs two layers, the first real, the last diagonal")
    step = trotter_step_unitary(spec, s)
    last = spec.layers[1]
    half = np.exp(-1j * (float(last.weight(s)) * last.eig[0]) * (spec.dt / 2))
    strang = half.conj()[:, None] * step * half[None, :]
    return (strang + strang.T) / 2, half


def trotter_evolution(spec: EvolutionSpec | Sequence[EvolutionSpec]):
    """Trotterized propagator: :func:`trotter_fold` from the identity on the
    space of the spec's layers, the full space or, for a block path, a
    site-reversal block's.  A sequence of specs, the block paths of one T,
    gives the list of their propagators, so that one call forms one T's
    Trotterized propagator whether or not it runs in blocks."""
    def one(spec: EvolutionSpec) -> UnitaryOperator:
        eye = np.eye(len(spec.layers[0].matrix), dtype=np.complex128)
        return UnitaryOperator(trotter_fold(spec, eye), "trotter", spec)

    return one(spec) if isinstance(spec, EvolutionSpec) else [one(block) for block in spec]


def effective_hamiltonian(spec: EvolutionSpec, s: float) -> HermitianOperator:
    """Hermitian generator of one Trotter step: the step's principal log / dt.

    A :class:`BranchAmbiguityWarning` from the log propagates to the caller
    when eigenphases approach the branch cut.
    """
    step = trotter_step_unitary(spec, s)
    h = principal_log_hamiltonian(step, spec.dt)
    return HermitianOperator(h, label=f"effective@s={s:g},dt={spec.dt:g}")
