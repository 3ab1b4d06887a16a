"""Discrete propagator in the instantaneous eigenframes of the path.

Each step's exponential is diagonal in the eigenbasis of H(s_j); merging
neighboring bases into transition matrices expresses the whole discretized
propagator as a product of diagonal phase matrices and near-identity
transition matrices.  That product gives the exact discrete adiabatic
error, and its first order the transition amplitudes into excited levels.

The eigenframes come one grid point at a time from
:func:`transported_stream`, which holds the previous frame alone and puts
each basis in the parallel-transport gauge.  :func:`expansion_pass` folds
the stream into every T at once; gamma and :func:`gamma_expansion`, its
one-T case, both run it.  :func:`eigenframe_sequence` collects the stream
into a :class:`~daslab.model.PathSpectrum` for the batched routines, which
the tests keep as the pass's reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegeneratePath, GapClosure
from .linalg import (
    GAP_FLOOR,
    _eigenvalue_clusters,
    _fix_column_phases,
    _lapack,
    float_view_matmul,
    unitarity_defect,
)
from .model import AdiabaticPath, PathSpectrum, spectrum_stacks
from .evolve import UNITARY_RESULT_TOL, EvolutionSpec
from .riemann_lebesgue import _doubled_integral

# Node doubling of transition_amplitude_continuum: first and largest grid.
CONTINUUM_START_NODES = 2048
CONTINUUM_MAX_NODES = 2**20


def _align_block(reference: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Rotate a degenerate-cluster basis so its overlap with the reference
    columns is Hermitian positive semidefinite (polar alignment)."""
    overlap = reference.conj().T @ block
    u, _, vh = _lapack("svd", overlap)
    return block @ (u @ vh).conj().T


def transported_stream(stacks, strict: bool = False):
    """The eigenframes of a grid spectrum, one grid point at a time: for
    ``stacks``, the grid's :class:`~daslab.model.PathSpectrum` as stacks in
    grid order (one stack, or :func:`~daslab.model.spectrum_stacks`), yields
    ``(s, energies, basis)`` per grid point with the basis in the
    parallel-transport gauge.

    Non-degenerate columns of frame j are rephased so their overlap with the
    matching column of frame j-1 is real nonnegative.  Degenerate clusters
    (spacing below DEGENERACY_CLUSTER_TOL) are polar-aligned as blocks.
    Frame 0 takes the deterministic column phases of ``_fix_column_phases``
    and its clusters are aligned against frame 1's raw basis, so the first
    transition is as smooth as the rest: frame 0 is held until frame 1
    arrives.  Past that only the previous frame is kept.

    Raises :class:`DegeneratePath` at the first grid point where the ground
    gap is at or below GAP_FLOOR.  With strict=True any pair of levels at or
    below GAP_FLOOR apart triggers the same error; the default tolerates
    degenerate excited levels, which the standard spin-chain endpoints have.
    """
    step, lead, prev = 0, None, None
    for stack in stacks:
        for s, energies, raw in zip(stack.s_values, stack.energies, stack.bases):
            gaps = np.diff(energies)
            if len(energies) > 1 and gaps[0] <= GAP_FLOOR:
                raise DegeneratePath(
                    f"ground state degenerate at step {step} (s = {s:.6f})",
                    step=step,
                    level_a=0,
                    level_b=1,
                )
            if strict and np.any(gaps <= GAP_FLOOR):
                level = int(np.argmax(gaps <= GAP_FLOOR))
                raise DegeneratePath(
                    f"levels {level} and {level + 1} degenerate at step {step}",
                    step=step,
                    level_a=level,
                    level_b=level + 1,
                )
            step += 1
            if step == 1:
                lead = (s, energies, _fix_column_phases(raw))
                continue
            if lead is not None:
                prev = lead[2]
                for lo, hi in _eigenvalue_clusters(lead[1]):
                    if hi - lo > 1:
                        prev[:, lo:hi] = _align_block(raw[:, lo:hi], prev[:, lo:hi])
                yield lead
                lead = None
            cur = raw.copy()
            for lo, hi in _eigenvalue_clusters(energies):
                if hi - lo > 1:
                    cur[:, lo:hi] = _align_block(prev[:, lo:hi], cur[:, lo:hi])
                else:
                    z = np.vdot(prev[:, lo], cur[:, lo])
                    if abs(z) > 0:
                        cur[:, lo] *= z.conj() / abs(z)
            yield s, energies, cur
            prev = cur
        del stack, raw  # so that the next stack is formed without this one
    if lead is not None:  # a grid of one point
        yield lead


def eigenframe_sequence(spec: EvolutionSpec, strict: bool = False) -> PathSpectrum:
    """Transported eigenframes of H(s_j) over the spec's grid, collected
    from :func:`transported_stream` over the grid's stacks.

    No sweep collects the frames: this and the batched routines below stay
    as the tests' reference for :func:`expansion_pass`
    (``TestExpansionPass::test_same_bits_as_the_batched_expansion``) and as
    names the benchmark's tracer wraps.
    """
    s_values, energies, bases = zip(
        *transported_stream(spectrum_stacks(spec.path, spec.grid_points()), strict)
    )
    return PathSpectrum(np.array(s_values), np.array(energies), np.array(bases))


def transition_matrices(frames: PathSpectrum) -> np.ndarray:
    """Overlap matrices between consecutive frames, S_j = B_{j+1}^dag B_j,
    stacked in one batched product.

    The adjoints are a temporary of this product: the frames, which a T
    sweep keeps, hold no copy of them.  No sweep calls this (see
    :func:`eigenframe_sequence`).
    """
    return np.conj(np.swapaxes(frames.bases[1:], -1, -2)) @ frames.bases[:-1]


@dataclass(frozen=True)
class PropagatorExpansion:
    """Frame-basis propagator and derived error data.

    ``matrix`` is the full product of step phases and transition matrices;
    its (0, 0) element is the surviving ground amplitude, the rest of column
    0 holds the transition amplitudes into excited levels, and their norm is
    ``adiabatic_error`` (sqrt(1 - |g00|^2) without its cancellation near
    0).  The product multiplies real transitions through
    :func:`~daslab.linalg.float_view_matmul`.  ``amplitudes``
    carries the first-order estimate of those transition amplitudes when the
    caller computed it.
    """

    matrix: np.ndarray
    total_time: float
    dt: float
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        defect = unitarity_defect(self.matrix)
        if defect > UNITARY_RESULT_TOL:
            raise ValueError(f"frame propagator not unitary: defect {defect:.3e}")
        column = np.abs(self.matrix[:, 0]) ** 2
        if abs(column.sum() - 1.0) > 1e-9:
            raise ValueError("first column of the frame propagator must be normalized")

    @property
    def adiabatic_error(self) -> float:
        return float(np.linalg.norm(self.matrix[1:, 0]))

    @property
    def first_order_error(self) -> float:
        """Adiabatic-error estimate from the first-order amplitudes."""
        if self.amplitudes is None:
            raise ValueError("amplitudes were not computed for this expansion")
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def propagator_expansion(
    frames: PathSpectrum,
    transitions: np.ndarray,
    total_time: float,
    amplitudes: np.ndarray | None = None,
) -> PropagatorExpansion:
    """Assemble the frame-basis propagator from collected frames.

    The step phases use the raw frame energies, so the full reconstruction
    B_L matrix B_1^dag equals the discrete propagator including its ground
    phase.  No sweep calls this (see :func:`eigenframe_sequence`).
    """
    energies = frames.energies
    n_frames = len(energies)
    if len(transitions) != n_frames - 1:
        raise ValueError(
            f"expected {n_frames - 1} transition matrices, got {len(transitions)}"
        )
    dt = total_time / n_frames
    phases = np.exp(-1j * dt * energies)

    gamma = np.diag(phases[0])
    for j in range(1, n_frames):
        gamma = _frame_step(transitions[j - 1], phases[j], gamma)
    return PropagatorExpansion(gamma, total_time, dt, amplitudes)


def transition_amplitudes(spec: EvolutionSpec, frames: PathSpectrum) -> np.ndarray:
    """First-order transition amplitudes into levels l = 1..dim-1.

    Discrete oscillatory sum of the coupling matrix elements
    <0(k)|H'(s_k)|l(k)> / lambda_l(k) against the accumulated level-spacing
    phases.  The phase prefix includes step k itself, matching where the
    step-k phase sits in the expanded product; the weight is the actual grid
    spacing.  No sweep calls this (see :func:`eigenframe_sequence`).
    """
    s_values, energies, bases = frames.s_values, frames.energies, frames.bases
    n_frames, dim = energies.shape
    if n_frames < 2 or dim < 2:
        return np.zeros(max(dim - 1, 0), dtype=complex)
    dt = spec.total_time / n_frames
    spacing = s_values[1] - s_values[0]

    lambdas = energies - energies[:, :1]
    prefix = np.cumsum(lambdas, axis=0)

    diff = spec.path.h_final.matrix - spec.path.h_initial.matrix
    amplitudes = np.zeros(dim - 1, dtype=complex)
    for k in range(n_frames - 1):
        theta = _coupling(spec.path, diff, s_values[k], bases[k], lambdas[k])
        _amplitude_step(amplitudes, theta, dt, prefix[k])
    return spacing * amplitudes


def _frame_step(transition: np.ndarray, phases: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """One frame of the frame propagator: diag(phases) S gamma, with a real
    transition S multiplied through :func:`~daslab.linalg.float_view_matmul`."""
    return phases[:, None] * float_view_matmul(transition, gamma)


def _coupling(path: AdiabaticPath, diff: np.ndarray, s, basis: np.ndarray, lambdas: np.ndarray):
    """<0|H'(s)|l> / lambda_l at one frame, for l = 1..dim-1, with H'(s) =
    p'(s) (H_f - H_i) and ``diff`` = H_f - H_i; it does not depend on T."""
    dp = float(path.schedule.dp(s))
    return (basis[:, 0].conj() @ diff @ basis[:, 1:]) * dp / lambdas[1:]


def _amplitude_step(amplitudes: np.ndarray, theta: np.ndarray, dt: float, prefix: np.ndarray) -> None:
    """Add one frame's first-order term, its coupling ``theta`` against the
    accumulated level-spacing phases of ``prefix`` (levels 1..dim-1), to
    ``amplitudes`` in place."""
    amplitudes += theta * np.exp(-1j * dt * prefix[1:])


def expansion_pass(
    path: AdiabaticPath, frames, total_times, steps: int
) -> list[PropagatorExpansion]:
    """The frame propagator and its first-order amplitudes for every T, in
    one pass over the ``steps`` transported frames ``(s, energies, basis)``
    of ``path`` in grid order (:func:`transported_stream`).

    Per frame j the transition S_j = B_j^dag B_{j-1} and the coupling of
    :func:`transition_amplitudes`, which do not depend on T, are formed
    once and applied to every T's frame-propagator accumulator and
    amplitude vector, with the phase prefix of the level spacings carried
    along.  Per T each frame takes the steps ``_frame_step`` and
    ``_amplitude_step`` of :func:`propagator_expansion` and
    :func:`transition_amplitudes` over the collected frames, so the
    matrices and amplitudes are the same bits, and no frame is held past
    the next one.  The pass holds one dim x dim accumulator per T, each
    replaced in turn.
    """
    diff = path.h_final.matrix - path.h_initial.matrix
    dts = [total_time / steps for total_time in total_times]
    spacing = 1.0  # the grid spacing, once the second frame is in
    for j, (s, energies, basis) in enumerate(frames):
        lambdas = energies - energies[0]
        if j == 0:
            gammas = [np.diag(np.exp(-1j * dt * energies)) for dt in dts]
            amplitudes = [np.zeros(len(energies) - 1, dtype=complex) for _ in dts]
            start, prefix = s, lambdas
        else:
            transition = basis.conj().T @ prev
            for i, dt in enumerate(dts):
                gammas[i] = _frame_step(transition, np.exp(-1j * dt * energies), gammas[i])
            prefix = prefix + lambdas
            if j == 1:
                spacing = s - start
        if j < steps - 1:
            theta = _coupling(path, diff, s, basis, lambdas)
            for amplitude, dt in zip(amplitudes, dts):
                _amplitude_step(amplitude, theta, dt, prefix)
        prev = basis
    return [
        PropagatorExpansion(gamma, total_time, dt, spacing * amplitude)
        for gamma, amplitude, total_time, dt in zip(gammas, amplitudes, total_times, dts)
    ]


def gamma_expansion(spec: EvolutionSpec) -> PropagatorExpansion:
    """The frame propagator and first-order amplitudes of one run: the
    one-T case of gamma's :func:`expansion_pass` over the transported frames
    of the spec's grid (ground gap checked, excited degeneracies
    tolerated)."""
    frames = transported_stream(spectrum_stacks(spec.path, spec.grid_points()))
    return expansion_pass(spec.path, frames, [spec.total_time], spec.steps)[0]


def _chunked_level_data(path: AdiabaticPath, s_values: np.ndarray, level: int):
    """Eigendata for columns 0 and `level` along a dense grid, read one
    :func:`~daslab.model.spectrum_stacks` stack at a time."""
    gaps, v0, vl = [], [], []
    for spectrum in spectrum_stacks(path, s_values):
        w, v = spectrum.energies, spectrum.bases
        gaps.append(w[:, level] - w[:, 0])
        v0.append(v[:, :, 0])
        vl.append(v[:, :, level])
    return np.concatenate(gaps), np.concatenate(v0, dtype=complex), np.concatenate(vl, dtype=complex)


def _transport_phases(vectors: np.ndarray) -> np.ndarray:
    """Cumulative phase factors making consecutive overlaps real nonnegative."""
    overlaps = np.einsum("ij,ij->i", vectors[:-1].conj(), vectors[1:])
    mags = np.abs(overlaps)
    corrections = np.where(mags > 0, overlaps.conj() / np.where(mags > 0, mags, 1.0), 1.0)
    return np.concatenate([[1.0 + 0.0j], np.cumprod(corrections)])


def transition_amplitude_continuum(
    path: AdiabaticPath, total_time: float, level: int
) -> complex:
    """Continuum limit of one transition amplitude.

    Oscillatory integral of theta_level(s) exp(-i T Omega_level(s)) over
    [0, 1] with Omega the accumulated level spacing, the
    :func:`~daslab.riemann_lebesgue.oscillatory_integral` rule on grids
    doubled from CONTINUUM_START_NODES to at most CONTINUUM_MAX_NODES;
    raises :class:`GapClosure` when the level spacing is at or below
    GAP_FLOOR.  Eigenvectors along the grid are transported to the smooth
    gauge, so the integrand's phase is continuous.
    """
    if level < 1 or level >= path.dim:
        raise ValueError(f"level {level} outside [1, {path.dim})")
    diff = path.h_final.matrix - path.h_initial.matrix

    def samples(s_values):
        gaps, v0, vl = _chunked_level_data(path, s_values, level)
        if gaps.min() <= GAP_FLOOR:
            raise GapClosure(
                f"level {level} spacing {gaps.min():.3e} at or below {GAP_FLOOR:.1e}"
            )
        g0 = _transport_phases(v0)
        gl = _transport_phases(vl)
        dp = np.asarray(path.schedule.dp(s_values), dtype=float)
        coupling = np.einsum("id,de,ie->i", v0.conj(), diff, vl)
        return g0.conj() * gl * dp * coupling / gaps, gaps

    return _doubled_integral(
        samples, total_time, CONTINUUM_START_NODES, CONTINUUM_MAX_NODES
    )
