"""Ground-state projector calculus: pseudo-inverse, derivative identities,
and the two-level commutator check.

Conventions: for a Hermitian H with unique ground energy E0, the shifted
Hamiltonian is H - E0 I (so it annihilates the ground projector P), and the
pseudo-inverse G sums P_k / (E_k - E0) over excited levels.  Derivatives of
H entering the identities are the shifted ones, H' - <0|H'|0> I; the ground
projector identity is insensitive to that shift but the pseudo-inverse
identity and the two-level commutator are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateGround, GapClosure, OutOfRange, WrongDimension
from .linalg import GAP_FLOOR, hermitian_eig, operator_norm
from .model import AdiabaticPath, HermitianOperator, path_at

# Gap floor of derivative_identity_residuals at its probes s - h, s, s + h.
DERIVATIVE_PROBE_GAP = 1e-6


@dataclass(frozen=True)
class ProjectorFrame:
    """Rank-1 ground projector and the pseudo-inverse of the shifted H."""

    projector: np.ndarray
    pseudo_inverse: np.ndarray
    ground_energy: float


def _matrix_of(h) -> np.ndarray:
    if isinstance(h, HermitianOperator):
        return h.matrix
    return np.asarray(h, dtype=complex)


def projector_frame(h) -> ProjectorFrame:
    """Build the projector frame of a Hermitian operator.

    Requires a unique ground state: raises :class:`DegenerateGround` when
    the first gap is at or below GAP_FLOOR.
    """
    return _frame_from_eig(*hermitian_eig(_matrix_of(h)))


def _frame_from_eig(w: np.ndarray, v: np.ndarray) -> ProjectorFrame:
    """:func:`projector_frame` from the eigenpairs (w, V) of the operator."""
    if len(w) < 2 or w[1] - w[0] <= GAP_FLOOR:
        raise DegenerateGround(
            f"ground gap {(w[1] - w[0]) if len(w) > 1 else 0.0:.3e} "
            f"at or below {GAP_FLOOR:.1e}"
        )
    ground = v[:, 0]
    projector = np.outer(ground, ground.conj())
    excited = v[:, 1:]
    weights = 1.0 / (w[1:] - w[0])
    pseudo_inverse = (excited * weights[None, :]) @ excited.conj().T
    return ProjectorFrame(
        projector=projector,
        pseudo_inverse=pseudo_inverse,
        ground_energy=float(w[0]),
    )


def shifted_derivative(path: AdiabaticPath, s: float) -> np.ndarray:
    """H'(s) minus its ground expectation value times the identity."""
    _, v = hermitian_eig(path_at(path, s).matrix)
    return _shift(path, s, v[:, 0])


def _shift(path: AdiabaticPath, s: float, ground: np.ndarray) -> np.ndarray:
    """:func:`shifted_derivative` given the ground vector of H(s)."""
    dh = path_at(path, s, 1).matrix
    drift = float(np.real(ground.conj() @ dh @ ground))
    return dh - drift * np.eye(len(dh))


def derivative_identity_residuals(
    path: AdiabaticPath, s: float, h: float
) -> tuple[float, float]:
    """Residual norms of the closed-form P' and G' against central differences.

    P' = -G H' P - P H' G and G' = P H' G^2 - G H' G + G^2 H' P with H' the
    shifted derivative.  Both residuals are O(h^2) for smooth gapped paths.
    Raises :class:`GapClosure` when the gap at s - h, s or s + h is at or
    below DERIVATIVE_PROBE_GAP.  Each of the three H is diagonalized once.
    """
    if not (0.0 <= s - h and s + h <= 1.0):
        raise ValueError(f"need [s - h, s + h] inside [0, 1], got s = {s}, h = {h}")
    if path.dim < 2:
        raise OutOfRange(f"level 1 outside [1, {path.dim})")
    probes = (s - h, s, s + h)
    eigs = [hermitian_eig(path_at(path, probe).matrix) for probe in probes]
    for probe, (w, _) in zip(probes, eigs):
        gap = float(w[1] - w[0])
        if gap <= DERIVATIVE_PROBE_GAP:
            raise GapClosure(
                f"gap {gap:.3e} at s = {probe:g} below {DERIVATIVE_PROBE_GAP:.1e}"
            )

    backward, center, forward = (_frame_from_eig(w, v) for w, v in eigs)

    dP = (forward.projector - backward.projector) / (2 * h)
    dG = (forward.pseudo_inverse - backward.pseudo_inverse) / (2 * h)

    p, g = center.projector, center.pseudo_inverse
    dh_s = _shift(path, s, eigs[1][1][:, 0])
    p_closed = -g @ dh_s @ p - p @ dh_s @ g
    g_closed = p @ dh_s @ g @ g - g @ dh_s @ g + g @ g @ dh_s @ p

    return operator_norm(dP - p_closed), operator_norm(dG - g_closed)


def commutator_norm(path: AdiabaticPath, s: float) -> float:
    """Norm of [G, H' P H'] at s, with H' the shifted derivative."""
    w, v = hermitian_eig(path_at(path, s).matrix)
    frame = _frame_from_eig(w, v)
    dh_s = _shift(path, s, v[:, 0])
    sandwich = dh_s @ frame.projector @ dh_s
    commutator = frame.pseudo_inverse @ sandwich - sandwich @ frame.pseudo_inverse
    return operator_norm(commutator)


def two_level_commutator_norm(path: AdiabaticPath, s: float) -> float:
    """[G, H' P H'] norm for a two-level path; must vanish to rounding.

    The sandwich H' P H' is diagonal in the eigenbasis once H' is shifted,
    so it commutes with G whenever there is only one excited level.  Higher
    dimensions are rejected; use :func:`commutator_norm` for control runs.
    """
    if path.dim != 2:
        raise WrongDimension(f"two-level check needs dim 2, got {path.dim}")
    return commutator_norm(path, s)
