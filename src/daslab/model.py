"""Pauli-sum Hamiltonians, interpolated adiabatic paths, and gap evaluation.

Matrices are dense; site 0 is the leftmost Kronecker factor.  Schedules carry
their first two derivatives analytically so path derivatives are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .exceptions import DimensionTooLarge, OutOfRange
from .linalg import _lapack, as_complex_matrix, hermitian_eig, require_hermitian

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

MIN_SITES = 2
MAX_SITES = 12
# Each coefficient adds about 0.3 us to every evaluation of p(s), and fig2's
# state route evaluates it about 5 * 10^4 times per T point at T = 200, so
# 10^3 coefficients add about 16 s per point; p(s) = s has 2.
MAX_SCHEDULE_COEFFICIENTS = 1_000

# Most matrix entries in one stack of dim x dim frames formed at once, so
# that a long grid is diagonalized in chunks: 1 << 19 entries are 8 MB as
# complex128, 8 frames at 8 sites.
STACK_ENTRIES = 1 << 19


def stack_chunks(count: int, dim: int):
    """Slices that split ``count`` frames of dim x dim matrices into stacks
    of at most ``STACK_ENTRIES`` entries.  Every stack but the last holds
    the same power-of-two number of frames (at least one)."""
    fit = max(1, STACK_ENTRIES // dim**2)
    chunk = 1 << (fit.bit_length() - 1)
    for start in range(0, count, chunk):
        yield slice(start, min(start + chunk, count))


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a product of single-site Pauli factors."""

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        seen = set()
        for site, axis in self.factors:
            if axis not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli axis {axis!r}")
            if site < 0:
                raise ValueError(f"negative site index {site}")
            if site in seen:
                raise ValueError(f"site {site} appears twice in one term")
            seen.add(site)


def pauli_term_matrix(term: PauliTerm, n_sites: int) -> np.ndarray:
    axes = dict(term.factors)
    for site in axes:
        if site >= n_sites:
            raise ValueError(f"site {site} outside [0, {n_sites})")
    out = np.array([[term.coefficient]], dtype=complex)
    for site in range(n_sites):
        out = np.kron(out, PAULI[axes.get(site, "I")])
    return out


def pauli_sum_matrix(terms: Sequence[PauliTerm], n_sites: int) -> np.ndarray:
    dim = 2**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        out += pauli_term_matrix(term, n_sites)
    return out


@dataclass(frozen=True)
class HermitianOperator:
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        require_hermitian(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Schedule:
    """Monotone reparametrization p(s) of [0, 1] with analytic p' and p''.

    The callables must accept numpy arrays (all built-in schedules do).
    """

    name: str
    p: Callable
    dp: Callable
    ddp: Callable

    def __post_init__(self):
        if abs(float(self.p(0.0))) > 1e-12 or abs(float(self.p(1.0)) - 1.0) > 1e-12:
            raise ValueError("schedule must satisfy p(0) = 0 and p(1) = 1")


def linear_schedule() -> Schedule:
    return Schedule(
        name="linear",
        p=lambda s: np.asarray(s, dtype=float) + 0.0,
        dp=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        ddp=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def polynomial_schedule(coefficients: Sequence[float]) -> Schedule:
    """Schedule p(s) = sum_m c_m s^m given low-to-high coefficients."""
    poly = np.polynomial.Polynomial(list(coefficients))
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()
    schedule = Schedule(name="custom-polynomial", p=poly, dp=dpoly, ddp=ddpoly)
    return schedule


@dataclass(frozen=True)
class AdiabaticPath:
    """Interpolation H(s) = (1 - p(s)) H_i + p(s) H_f on s in [0, 1]."""

    h_initial: HermitianOperator
    h_final: HermitianOperator
    schedule: Schedule = field(default_factory=linear_schedule)

    def __post_init__(self):
        if self.h_initial.dim != self.h_final.dim:
            raise ValueError(
                f"endpoint dimensions differ: {self.h_initial.dim} vs {self.h_final.dim}"
            )

    @property
    def dim(self) -> int:
        return self.h_initial.dim


def _require_sites(n_sites: int) -> None:
    """Refuse a chain length outside the dense range before anything is allocated."""
    if not MIN_SITES <= n_sites <= MAX_SITES:
        raise DimensionTooLarge(
            f"n_sites = {n_sites} outside supported range [{MIN_SITES}, {MAX_SITES}]"
        )


def build_tfim(n_sites: int, periodic: bool = False) -> tuple[HermitianOperator, HermitianOperator]:
    """Transverse-field Ising pair: H_X = -sum X_j and H_Z = -sum (Z_j + Z_j Z_{j+1}).

    Open boundary by default; periodic adds the wrap-around coupling.
    """
    _require_sites(n_sites)
    x_terms = [PauliTerm(-1.0, ((j, "X"),)) for j in range(n_sites)]
    z_terms = [PauliTerm(-1.0, ((j, "Z"),)) for j in range(n_sites)]
    bonds = n_sites if periodic else n_sites - 1
    z_terms += [
        PauliTerm(-1.0, ((j, "Z"), ((j + 1) % n_sites, "Z"))) for j in range(bonds)
    ]
    h_x = HermitianOperator(pauli_sum_matrix(x_terms, n_sites), label="tfim-x")
    h_z = HermitianOperator(pauli_sum_matrix(z_terms, n_sites), label="tfim-z")
    return h_x, h_z


def tfim_path(
    n_sites: int, periodic: bool = False, schedule: Schedule | None = None
) -> AdiabaticPath:
    h_x, h_z = build_tfim(n_sites, periodic)
    return AdiabaticPath(h_x, h_z, schedule or linear_schedule())


# A state counts as a site-reversal eigenvector when |R psi - p psi| is at
# most this, for p = +1 or -1.
PARITY_TOL = 1e-12


@lru_cache(maxsize=16)
def _reversal_permutation(dim: int) -> np.ndarray | None:
    """The site-reversal permutation r of the 2^N basis, z -> Rz with bit j
    moved to bit N - 1 - j; None when the dimension is not 2^N for some
    N >= MIN_SITES (a smaller power of two, such as a sector of dim 1 or 2,
    is no chain)."""
    n_sites = dim.bit_length() - 1
    if dim != 1 << n_sites or n_sites < MIN_SITES:
        return None
    index = np.arange(dim)
    r = np.zeros(dim, dtype=int)
    for bit in range(n_sites):
        r |= ((index >> bit) & 1) << (n_sites - 1 - bit)
    r.setflags(write=False)
    return r


@dataclass(frozen=True, eq=False)
class ReversalBlock:
    """A path restricted to one site-reversal block, and the projection
    onto the block's basis Q.

    ``project(v)`` is Q^T v for any state: a state of the other parity maps
    to zero, so its overlap with any block state is the full-space value,
    0.  Where the path has no block structure the block is the full path
    and ``project`` is the identity.
    """

    path: AdiabaticPath
    project: Callable[[np.ndarray], np.ndarray]


def _identity(x):
    return x


@lru_cache(maxsize=16)
def _orbit_maps(dim: int, parity: int) -> tuple[Callable, Callable]:
    """``gather`` and ``project`` of the parity block of the 2^N basis:
    ``gather(M)`` is Q^T M Q for a dim x dim M that commutes with site
    reversal, read off by orbit (see :func:`operator_blocks`), and
    ``project(v)`` is Q^T v (see :class:`ReversalBlock`)."""
    r = _reversal_permutation(dim)
    index = np.arange(dim)
    reps = index[(index < r) | ((index == r) & (parity == 1))]
    mirrored = r[reps]
    # 2 on palindromes, 1 on pairs: w_z w_y = 1 / sqrt(m_z m_y), and a
    # state's component is (psi_z + p psi_Rz) / sqrt(2 m_z).
    multiplicity = np.where(reps == mirrored, 2.0, 1.0)
    scale = 1.0 / np.sqrt(np.outer(multiplicity, multiplicity))

    def gather(m: np.ndarray) -> np.ndarray:
        return (m[np.ix_(reps, reps)] + parity * m[np.ix_(reps, mirrored)]) * scale

    def project(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v).ravel()
        return (v[reps] + parity * v[mirrored]) / np.sqrt(2 * multiplicity)

    return gather, project


def operator_blocks(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The site-reversal blocks Q_p^T M Q_p of a dim x dim matrix M, parity
    p = +1 then -1.  None when the dimension is not 2^N for some
    N >= MIN_SITES or when R does not map M to itself exactly."""
    dim = len(matrix)
    r = _reversal_permutation(dim)
    if r is None or not np.array_equal(matrix[np.ix_(r, r)], matrix):
        return None
    return tuple(_orbit_maps(dim, parity)[0](matrix) for parity in (1, -1))


def reversal_blocks(path: AdiabaticPath, state: np.ndarray | None = None) -> tuple[ReversalBlock, ...]:
    """The site-reversal blocks of the path: the one that holds ``state``
    first, then the other; parity +1 first when no state is given.

    Site reversal R maps site j to N - 1 - j, so on the 2^N basis it is the
    bit-reversal permutation z -> Rz.  When R maps H_i and H_f to themselves
    exactly, every H(s) and every Trotter step is block diagonal in the
    real orthonormal basis (|z> + p|Rz>)/sqrt(2) of parity p = +-1, plus the
    palindromes z = Rz when p = +1 (symmetry-adapted exact diagonalization:
    A. W. Sandvik, AIP Conf. Proc. 1297, 135 (2010), arXiv:1101.3281).  A
    block is gathered by orbit, M_p[a, b] = (M[z, y] + p M[z, Ry]) w_z w_y
    with w = 1/sqrt(2) on palindromes and 1 elsewhere, so a diagonal M keeps
    an exactly diagonal block; :func:`operator_blocks` forms the blocks of
    H_i and H_f, and so each block path's H(s).  Representatives z <= Rz
    are in ascending order.  Both blocks are non-empty from two sites on.

    A propagator of H(s), discretized or Trotterized, is then the direct
    sum of the block paths' propagators: its spectrum is the union of
    theirs and its operator norm the larger block norm.

    The parity p of ``state`` is +1 or -1 when |R psi - p psi| is at most
    PARITY_TOL.  A single block, the full path with the identity
    projection, when the dimension is not 2^N for some N >= MIN_SITES, when
    R does not map both endpoints to themselves exactly, or when ``state``
    has no parity.
    """
    endpoints = [operator_blocks(h.matrix) for h in (path.h_initial, path.h_final)]
    parity = None
    if all(blocks is not None for blocks in endpoints):
        parity = 1
        if state is not None:
            psi, r = np.asarray(state).ravel(), _reversal_permutation(path.dim)
            parity = next((p for p in (1, -1) if np.linalg.norm(psi[r] - p * psi) <= PARITY_TOL), None)
    if parity is None:
        return (ReversalBlock(path, _identity),)

    def block(p: int) -> ReversalBlock:
        k = (1, -1).index(p)  # the order of operator_blocks
        h_i, h_f = (
            HermitianOperator(blocks[k], label=f"{h.label}[R={p:+d}]")
            for h, blocks in zip((path.h_initial, path.h_final), endpoints)
        )
        return ReversalBlock(AdiabaticPath(h_i, h_f, path.schedule), _orbit_maps(path.dim, p)[1])

    return block(parity), block(-parity)


def path_at(path: AdiabaticPath, s: float, order: int = 0) -> HermitianOperator:
    """H(s), H'(s) or H''(s) depending on order in {0, 1, 2}."""
    if not 0.0 <= s <= 1.0:
        raise OutOfRange(f"s = {s} outside [0, 1]")
    if order not in (0, 1, 2):
        raise OutOfRange(f"derivative order {order} not in {{0, 1, 2}}")
    if order == 0:
        matrix = path_matrix(path, [s])[0]
    else:
        derivative = path.schedule.dp if order == 1 else path.schedule.ddp
        matrix = float(derivative(s)) * (path.h_final.matrix - path.h_initial.matrix)
    return HermitianOperator(matrix, label=f"path-order{order}@s={s:g}")


def path_matrix(path: AdiabaticPath, s_values: np.ndarray) -> np.ndarray:
    """Stacked H(s) for an array of s values, shape (len(s), dim, dim).

    The stack is float64 when both endpoints have zero imaginary part (the
    TFIM, any Pauli sum without ``Y``), so its eigensolvers run in real
    arithmetic; it is built from the real parts directly, never as a complex
    stack first.  Otherwise it is complex128.  H_i is added in place, so
    the stack is the only array of its size that this forms.
    """
    s_values = np.asarray(s_values, dtype=float)
    weights = np.asarray(path.schedule.p(s_values), dtype=float)
    hi = path.h_initial.matrix
    hf = path.h_final.matrix
    if not (hi.imag.any() or hf.imag.any()):
        hi, hf = hi.real, hf.real
    stack = weights[:, None, None] * (hf - hi)[None, :, :]
    stack += hi
    return stack


@dataclass(frozen=True, eq=False)
class PathSpectrum:
    """Eigendata of H(s) on an s grid: ``energies[j]`` ascending, and
    ``bases[j]`` the eigenvectors of H(s_j) as columns.

    :func:`path_spectrum` leaves the bases exactly as LAPACK returns them
    (no gauge fixing); ``eigenframes.transported_stream`` yields the same
    grid and energies with the bases in the parallel-transport gauge.  The
    bases are real when :func:`path_matrix` is.
    """

    s_values: np.ndarray
    energies: np.ndarray
    bases: np.ndarray


def path_spectrum(path: AdiabaticPath, s_values) -> PathSpectrum:
    """Diagonalize H(s) at every grid point in one batched call."""
    s_values = np.asarray(s_values, dtype=float)
    energies, bases = _lapack("eigh", path_matrix(path, s_values))
    return PathSpectrum(s_values, energies, bases)


def spectrum_stacks(path: AdiabaticPath, s_values):
    """The grid's :func:`path_spectrum` one :func:`stack_chunks` stack at a
    time, in grid order, so that a pass over the grid holds one stack of
    bases.  LAPACK gives each matrix the same bits at any stack size."""
    s_values = np.asarray(s_values, dtype=float)
    for part in stack_chunks(len(s_values), path.dim):
        yield path_spectrum(path, s_values[part])


def path_energies(path: AdiabaticPath, s_values) -> np.ndarray:
    """Ascending eigenvalues of H(s), one row per s, from batched
    ``eigvalsh`` calls over :func:`stack_chunks` stacks."""
    s_values = np.asarray(s_values, dtype=float)
    energies = np.empty((len(s_values), path.dim))
    for part in stack_chunks(len(s_values), path.dim):
        energies[part] = _lapack("eigvalsh", path_matrix(path, s_values[part]))
    return energies


def spectral_gap(path: AdiabaticPath, s: float, level: int = 1) -> float:
    """E_level(s) - E_0(s) from the dense eigendecomposition."""
    if level < 1 or level >= path.dim:
        raise OutOfRange(f"level {level} outside [1, {path.dim})")
    w, _ = hermitian_eig(path_at(path, s).matrix)
    return float(w[level] - w[0])


_SCHEDULE_NAMES = ("linear", "custom-polynomial")


def _terms_from_json(raw, where: str) -> list[PauliTerm]:
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{where}: expected a non-empty list of terms")
    terms = []
    for entry in raw:
        try:
            coeff = float(entry["coeff"])
            factors = tuple((int(site), str(axis)) for site, axis in entry["factors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: malformed term {entry!r}") from exc
        terms.append(PauliTerm(coeff, factors))
    return terms


def load_path_json(source) -> AdiabaticPath:
    """Build an AdiabaticPath from a Hamiltonian definition file.

    Accepts a file path or an already-parsed dict::

        {
          "n_sites": 4,
          "h_initial": [{"coeff": -1.0, "factors": [[0, "X"]]}, ...],
          "h_final":   [{"coeff": -1.0, "factors": [[0, "Z"], [1, "Z"]]}, ...],
          "schedule":  {"name": "linear"}
                    or {"name": "custom-polynomial", "coefficients": [0, 1]}
        }
    """
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)

    try:
        n_sites = int(data["n_sites"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError("missing or malformed 'n_sites'") from exc
    _require_sites(n_sites)
    sched_spec = data.get("schedule", {"name": "linear"})
    if not isinstance(sched_spec, dict):
        raise ValueError(f"schedule must be an object, got {sched_spec!r}")
    name = sched_spec.get("name")
    if name not in _SCHEDULE_NAMES:
        raise ValueError(f"schedule name must be one of {_SCHEDULE_NAMES}, got {name!r}")
    if name == "linear":
        schedule = linear_schedule()
    else:
        try:
            coefficients = np.asarray(sched_spec.get("coefficients", ()), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("malformed schedule coefficients") from exc
        if coefficients.ndim != 1 or not np.all(np.isfinite(coefficients)):
            raise ValueError("schedule coefficients must be a list of finite numbers")
        if len(coefficients) > MAX_SCHEDULE_COEFFICIENTS:
            raise ValueError(
                f"schedule has {len(coefficients)} coefficients, at most "
                f"{MAX_SCHEDULE_COEFFICIENTS} allowed"
            )
        schedule = polynomial_schedule(coefficients)

    terms_i = _terms_from_json(data.get("h_initial"), "h_initial")
    terms_f = _terms_from_json(data.get("h_final"), "h_final")
    h_i = pauli_sum_matrix(terms_i, n_sites)
    h_f = pauli_sum_matrix(terms_f, n_sites)

    return AdiabaticPath(
        HermitianOperator(h_i, label="h-initial"),
        HermitianOperator(h_f, label="h-final"),
        schedule,
    )
