"""Dense complex matrix kernel: eigendecompositions, exp/log, norms, states.

All routines are pure functions on ``numpy`` arrays.  Every numerical
tolerance is a module constant; no public routine takes one as a parameter.
Every LAPACK decomposition of the package goes through :func:`_lapack`, the
one place where a solver that fails to converge becomes
:class:`ConvergenceFailure`, except the Cholesky test of
:func:`positive_definite`, whose failure is its answer.
``GAP_FLOOR`` and ``DEGENERACY_CLUSTER_TOL`` are the package-wide gap rules:
a gap at or below ``GAP_FLOOR`` is closed wherever one is divided by, and
eigenvalues closer than ``DEGENERACY_CLUSTER_TOL`` form one degenerate
cluster.
"""

from __future__ import annotations

import warnings

import numpy as np

from .exceptions import (
    BranchAmbiguityWarning,
    ConvergenceFailure,
    DegenerateGround,
    NotHermitian,
    NotUnitary,
)

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8
GAP_FLOOR = 1e-9
DEGENERACY_CLUSTER_TOL = 1e-9
BRANCH_CUT_TOL = 1e-8
GAUGE_TIE_TOL = 1e-12


def _lapack(name: str, a, *args, **kwargs):
    """``numpy.linalg.<name>(a, *args, **kwargs)``, with a solver that fails
    to converge raised as :class:`ConvergenceFailure`.  The solver is looked
    up when called, so a wrapped ``numpy.linalg`` function is the one run."""
    try:
        return getattr(np.linalg, name)(a, *args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{name} failed to converge: {exc}") from exc


def positive_definite(a) -> bool:
    """Whether every matrix of a Hermitian stack is positive definite, by one
    batched Cholesky factorization.  A matrix that is not is an answer, not
    a solver failure, so it gives False and never raises."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def hermiticity_defect(m) -> float:
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def unitarity_defect(u) -> float:
    u = np.asarray(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def require_hermitian(m) -> None:
    """Raise :class:`NotHermitian` when max |M - M^dag| exceeds HERMITIAN_TOL."""
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(
            f"max |M - M^dag| = {defect:.3e} exceeds tol {HERMITIAN_TOL:.3e}"
        )


def require_unitary(u) -> None:
    """Raise :class:`NotUnitary` when max |U^dag U - I| exceeds UNITARY_TOL."""
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {defect:.3e} exceeds tol {UNITARY_TOL:.3e}")


def operator_norm(m) -> float:
    """Largest singular value (spectral norm)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return float(_lapack("norm", m, 2))


def normalized_state(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def _eigenvalue_clusters(values: np.ndarray):
    """The (start, stop) index ranges of ascending eigenvalues closer than
    DEGENERACY_CLUSTER_TOL."""
    bounds = [0, *(np.flatnonzero(np.diff(values) >= DEGENERACY_CLUSTER_TOL) + 1), len(values)]
    return zip(bounds[:-1], bounds[1:])


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Entries within GAUGE_TIE_TOL of the column maximum tie; the lowest row
    index wins so repeated calls are bit-identical.
    """
    mags = np.abs(v)
    top = mags.max(axis=0)
    pivot_rows = np.argmax(mags >= (top - GAUGE_TIE_TOL)[None, :], axis=0)
    pivots = v[pivot_rows, np.arange(v.shape[1])]
    phases = pivots / np.abs(pivots)
    return v * phases.conj()[None, :]


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix as H = V diag(w) V^dag.

    H must be Hermitian within HERMITIAN_TOL.  Returns (w, V) with w
    ascending, exactly as ``eigh`` returns it, and every column of V
    rotated to the deterministic largest-entry phase gauge.
    """
    h = as_complex_matrix(h)
    require_hermitian(h)
    w, v = _lapack("eigh", h)
    return w, _fix_column_phases(v)


def unitary_eig(u) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a unitary as U = V diag(exp(-i theta)) V^dag.

    U must be unitary within UNITARY_TOL.  Returns (theta, V) with theta
    ascending in (-pi, pi].  The Hermitian part (U + U^dag)/2 is
    diagonalized first; clusters that it cannot separate (spacing below
    DEGENERACY_CLUSTER_TOL) are split by the skew part restricted to the
    cluster subspace.  Both stages are plain Hermitian eigenproblems, so the
    basis is orthonormal by construction even through phase collisions.

    A symmetric unitary (U = U^T) has Hermitian part Re U and skew part
    Im U: commuting real symmetric matrices, so both stages run in real
    arithmetic and V comes back real.
    """
    u = as_complex_matrix(u)
    require_unitary(u)
    symmetric = np.array_equal(u, u.T)
    if symmetric:
        cos_part, sin_part = np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)
    else:
        cos_part = (u + u.conj().T) / 2
        sin_part = (u - u.conj().T) / 2j
    c, v = _lapack("eigh", cos_part)
    for lo, hi in _eigenvalue_clusters(c):
        if hi - lo > 1:
            block = v[:, lo:hi]
            k = block.conj().T @ sin_part @ block
            _, y = _lapack("eigh", (k + k.conj().T) / 2)
            v[:, lo:hi] = block @ y
    uv = cos_part @ v + 1j * (sin_part @ v) if symmetric else u @ v
    diag = np.einsum("ij,ij->j", v.conj(), uv)
    theta = -np.angle(diag)
    theta[theta <= -np.pi + 1e-15] = np.pi
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    v = _fix_column_phases(v[:, order])
    return theta, v


def exp_from_eig(w, v, t) -> np.ndarray:
    """exp(-i H t) = V diag(exp(-i w t)) V^dag from the eigenpairs (w, V) of H.

    Works on one matrix or a stack: w has shape (..., dim) and V (..., dim,
    dim), each broadcasting against the other, and t broadcasts against w.
    For a real V the real and imaginary parts, V cos(wt) V^T and
    -V sin(wt) V^T, are two real products written into one complex result.
    """
    v_h = np.swapaxes(v, -1, -2)
    if np.iscomplexobj(v):
        return (v * np.exp(-1j * w * t)[..., None, :]) @ np.conj(v_h)
    wt = w * t
    real = (v * np.cos(wt)[..., None, :]) @ v_h
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    np.matmul(v * -np.sin(wt)[..., None, :], v_h, out=out.imag)
    return out


def real_if_exact(m) -> np.ndarray:
    """m as a contiguous float64 array when it is complex with an imaginary
    part that is exactly zero, else m itself."""
    if np.iscomplexobj(m) and not m.imag.any():
        return np.ascontiguousarray(m.real)
    return m


def float_view_matmul(m, x) -> np.ndarray:
    """m @ x for a complex128 x of shape (dim,) or (dim, k).

    A real m multiplies the float64 view of x, whose rows interleave the
    real and imaginary parts: one real product on a dim x 2k array, with no
    complex copy of m.  A complex m multiplies x directly.
    """
    if m.dtype.kind == "c":
        return m @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    out = (m @ x.view(np.float64).reshape(len(x), -1)).view(np.complex128)
    return out.ravel() if x.ndim == 1 else out


def matrix_exp_hermitian(h, t: float) -> np.ndarray:
    """exp(-i H t) for H Hermitian within HERMITIAN_TOL, via eigendecomposition."""
    h = as_complex_matrix(h)
    require_hermitian(h)
    w, v = _lapack("eigh", h)
    return exp_from_eig(w, v, t)


def principal_log_hamiltonian(u, dt: float) -> np.ndarray:
    """Hermitian generator H with exp(-i H dt) = U, eigenphases in (-pi, pi].

    Emits :class:`BranchAmbiguityWarning` when an eigenphase sits within
    BRANCH_CUT_TOL of the cut at +/- pi; the result is still returned so
    callers can observe large-step breakdown instead of dying on it.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    theta, v = unitary_eig(u)
    if np.any(np.pi - np.abs(theta) < BRANCH_CUT_TOL):
        warnings.warn(
            f"eigenphase within {BRANCH_CUT_TOL:.1e} of the +/-pi branch cut; "
            "the recovered generator depends on the branch choice",
            BranchAmbiguityWarning,
            stacklevel=2,
        )
    h = (v * (theta / dt)[None, :]) @ v.conj().T
    return (h + h.conj().T) / 2


def ground_state(h) -> np.ndarray:
    """Lowest eigenvector of a Hermitian matrix; raises
    :class:`DegenerateGround` when the ground gap is at or below GAP_FLOOR."""
    w, v = hermitian_eig(h)
    if len(w) > 1 and w[1] - w[0] <= GAP_FLOOR:
        raise DegenerateGround(
            f"ground gap {w[1] - w[0]:.3e} at or below GAP_FLOOR {GAP_FLOOR:.3e}"
        )
    return v[:, 0].copy()
