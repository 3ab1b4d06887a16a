import numpy as np
import pytest

from daslab.exceptions import (
    BranchAmbiguityWarning,
    DegenerateGround,
    NotHermitian,
    NotUnitary,
)
from daslab.linalg import (
    _eigenvalue_clusters,
    _fix_column_phases,
    as_complex_matrix,
    exp_from_eig,
    float_view_matmul,
    ground_state,
    hermitian_eig,
    matrix_exp_hermitian,
    normalized_state,
    operator_norm,
    principal_log_hamiltonian,
    real_if_exact,
    unitarity_defect,
    unitary_eig,
)
from daslab.model import build_tfim

from conftest import random_hermitian, random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def taylor_expm(h, t, squarings=12):
    """Independent oracle: scaling and squaring with a long Taylor series."""
    a = -1j * t * np.asarray(h, dtype=complex) / 2**squarings
    result = np.eye(len(a), dtype=complex)
    term = np.eye(len(a), dtype=complex)
    for k in range(1, 30):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


class TestHermitianEig:
    def test_already_diagonal(self):
        w, v = hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(v, np.eye(2))

    def test_pauli_x(self):
        w, _ = hermitian_eig(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for dim in (3, 8, 32):
            h = random_hermitian(rng, dim)
            w, v = hermitian_eig(h)
            rebuilt = (v * w) @ v.conj().T
            assert operator_norm(rebuilt - h) <= 1e-10
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10

    def test_reconstruction_dim_256(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 256)
        w, v = hermitian_eig(h)
        rebuilt = (v * w) @ v.conj().T
        assert operator_norm(rebuilt - h) <= 1e-10

    def test_eigenvalues_are_eighs(self):
        rng = np.random.default_rng(13)
        for h in (random_hermitian(rng, 16), build_tfim(4)[0].matrix):
            w, v = hermitian_eig(h)
            assert np.array_equal(w, np.linalg.eigh(h)[0])
            assert operator_norm((v * w) @ v.conj().T - h) <= 1e-12

    def test_gauge_deterministic(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 12)
        first_w, first_v = hermitian_eig(h.copy())
        second_w, second_v = hermitian_eig(h.copy())
        assert np.array_equal(first_v, second_v)
        assert np.array_equal(first_w, second_w)

    def test_gauge_pivot_real_positive(self):
        rng = np.random.default_rng(5)
        _, v = hermitian_eig(random_hermitian(rng, 9))
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(9)]
        assert np.all(np.abs(pivots.imag) <= 1e-12)
        assert np.all(pivots.real > 0)

    def test_degenerate_cluster_stays_orthonormal(self):
        rng = np.random.default_rng(9)
        q = random_unitary(rng, 6)
        h = (q * np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])) @ q.conj().T
        h = (h + h.conj().T) / 2
        w, v = hermitian_eig(h)
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-10
        rebuilt = (v * w) @ v.conj().T
        assert operator_norm(rebuilt - h) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.inf, 0], [0, 1.0]]))


class TestUnitaryEig:
    def test_identity(self):
        phases, _ = unitary_eig(np.eye(4))
        assert np.allclose(phases, 0.0)

    def test_minus_identity_branch(self):
        phases, v = unitary_eig(-np.eye(2))
        assert np.allclose(phases, [np.pi, np.pi])
        rebuilt = (v * np.exp(-1j * phases)) @ v.conj().T
        assert operator_norm(rebuilt + np.eye(2)) <= 1e-12

    def test_round_trip_recovers_spectrum(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 6)
        h *= 2.5 / operator_norm(h)
        dt = 0.9  # ||H|| dt = 2.25 < pi
        phases, v = unitary_eig(matrix_exp_hermitian(h, dt))
        assert np.allclose(np.sort(phases), np.sort(np.linalg.eigvalsh(h) * dt), atol=1e-9)
        rebuilt = (v * np.exp(-1j * phases)) @ v.conj().T
        assert operator_norm(rebuilt - matrix_exp_hermitian(h, dt)) <= 1e-10

    def test_phases_sorted_in_branch(self):
        rng = np.random.default_rng(17)
        phases, _ = unitary_eig(random_unitary(rng, 16))
        assert np.all(np.diff(phases) >= 0)
        assert phases.min() > -np.pi and phases.max() <= np.pi

    def test_degenerate_phases(self):
        rng = np.random.default_rng(19)
        q = random_unitary(rng, 5)
        u = (q * np.exp(-1j * np.array([0.3, 0.3, 0.3, -1.2, 2.0]))) @ q.conj().T
        phases, v = unitary_eig(u)
        rebuilt = (v * np.exp(-1j * phases)) @ v.conj().T
        assert operator_norm(rebuilt - u) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            unitary_eig(np.diag([1.0, 2.0]))


def generic_unitary_eig(u):
    """The complex algorithm of unitary_eig, kept as the reference for
    inputs that are not symmetric."""
    u = np.asarray(u, dtype=np.complex128)
    cos_part = (u + u.conj().T) / 2
    sin_part = (u - u.conj().T) / 2j
    c, v = np.linalg.eigh(cos_part)
    for lo, hi in _eigenvalue_clusters(c):
        if hi - lo > 1:
            block = v[:, lo:hi]
            k = block.conj().T @ sin_part @ block
            _, y = np.linalg.eigh((k + k.conj().T) / 2)
            v[:, lo:hi] = block @ y
    diag = np.einsum("ij,ij->j", v.conj(), u @ v)
    theta = -np.angle(diag)
    theta[theta <= -np.pi + 1e-15] = np.pi
    order = np.argsort(theta, kind="stable")
    return theta[order], _fix_column_phases(v[:, order])


def symmetric_unitary(rng, theta):
    """Q diag(exp(-i theta)) Q^T with a random real orthogonal Q, made
    exactly symmetric."""
    q, _ = np.linalg.qr(rng.normal(size=(len(theta), len(theta))))
    u = (q * np.exp(-1j * np.asarray(theta))) @ q.T
    return (u + u.T) / 2


class TestUnitaryEigSymmetric:
    # repeated phases, a +/- pair that the cosine cannot separate, and pi
    THETAS = [
        [0.3, 0.3, 0.3, -1.2, 2.0],
        [0.7, -0.7, 1.1, -1.1, 0.0, 2.5],
        [np.pi, np.pi, 1.0, -2.0],
        [np.pi, -0.4, 0.4, 0.4, -0.4, 3.0, -3.0],
    ]

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_generic_phases_and_rebuilds(self, theta):
        rng = np.random.default_rng(43)
        u = symmetric_unitary(rng, theta)
        assert np.array_equal(u, u.T)
        phases, v = unitary_eig(u)
        assert not np.iscomplexobj(v)
        # a complex diagonal similarity breaks the symmetry, keeps the phases
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, len(theta)))
        rotated = (d[:, None] * u) * d.conj()[None, :]
        assert not np.array_equal(rotated, rotated.T)
        generic, _ = unitary_eig(rotated)
        assert np.abs(phases - generic).max() <= 1e-12
        assert np.abs(phases - np.sort(theta)).max() <= 1e-12
        rebuilt = (v * np.exp(-1j * phases)) @ v.conj().T
        assert operator_norm(rebuilt - u) <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(len(theta))).max() <= 1e-12

    def test_symmetric_step_dim_256(self):
        rng = np.random.default_rng(47)
        theta = rng.uniform(-np.pi, np.pi, 256)
        theta[:8] = theta[8]
        u = symmetric_unitary(rng, theta)
        phases, v = unitary_eig(u)
        assert np.abs(phases - np.sort(theta)).max() <= 1e-12
        rebuilt = (v * np.exp(-1j * phases)) @ v.conj().T
        assert operator_norm(rebuilt - u) <= 1e-10

    def test_non_symmetric_input_unchanged(self):
        rng = np.random.default_rng(53)
        q = random_unitary(rng, 6)
        cluster = (q * np.exp(-1j * np.array([0.5, 0.5, -0.5, 1.0, 1.0, 3.0]))) @ q.conj().T
        for u in (random_unitary(rng, 12), cluster):
            assert not np.array_equal(u, u.T)
            phases, v = unitary_eig(u)
            ref_phases, ref_v = generic_unitary_eig(u)
            assert np.array_equal(phases, ref_phases)
            assert np.array_equal(v, ref_v)

    def test_symmetric_input_still_checked(self):
        with pytest.raises(NotUnitary):
            unitary_eig(np.diag([1.0, 2.0]) + 0j)
        with pytest.raises(ValueError):
            unitary_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatrixExp:
    def test_zero_time(self):
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 5)
        assert operator_norm(matrix_exp_hermitian(h, 0.0) - np.eye(5)) <= 1e-14

    def test_pauli_z_pi(self):
        assert operator_norm(matrix_exp_hermitian(PAULI_Z, np.pi) + np.eye(2)) <= 1e-12

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(29)
        h = random_hermitian(rng, 4)
        got = matrix_exp_hermitian(h, 0.7)
        assert operator_norm(got - taylor_expm(h, 0.7)) <= 1e-10

    def test_result_unitary(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = random_hermitian(rng, 8)
            assert unitarity_defect(matrix_exp_hermitian(h, 1.3)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matrix_exp_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_real_basis_matches_complex_formula(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(6, 16, 16))
        w, v = np.linalg.eigh(a + np.swapaxes(a, -1, -2))
        t = np.linspace(0.3, 2.0, 6)[:, None]
        got = exp_from_eig(w, v, t)
        assert got.dtype == np.complex128
        expected = (v * np.exp(-1j * w * t)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
        assert np.abs(got - expected).max() <= 1e-13


class TestPrincipalLog:
    def test_identity_gives_zero(self):
        assert operator_norm(principal_log_hamiltonian(np.eye(3), 1.0)) <= 1e-12

    def test_round_trip_below_cut(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            h = random_hermitian(rng, 6)
            h *= 3.0 / operator_norm(h)  # ||H|| dt = 3 < pi
            dt = 1.0
            recovered = principal_log_hamiltonian(matrix_exp_hermitian(h, dt), dt)
            assert operator_norm(recovered - h) <= 1e-8

    def test_minus_identity_flags_branch(self):
        with pytest.warns(BranchAmbiguityWarning):
            h = principal_log_hamiltonian(-np.eye(2), 1.0)
        assert operator_norm(h - np.pi * np.eye(2)) <= 1e-10

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            principal_log_hamiltonian(np.eye(2), 0.0)


class TestOperatorNormAndStates:
    def test_identity_norm(self):
        assert operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_norm(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_tfim_x_norm(self):
        h_x, _ = build_tfim(8)
        assert operator_norm(h_x.matrix) == pytest.approx(8.0, abs=1e-9)

    def test_unitary_norm_is_one(self):
        rng = np.random.default_rng(41)
        h = random_hermitian(rng, 10)
        assert operator_norm(matrix_exp_hermitian(h, 2.1)) == pytest.approx(1.0, abs=1e-10)

    def test_normalized_state(self):
        v = normalized_state(np.array([3.0, 4.0j]))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            normalized_state(np.zeros(3))

    def test_ground_state_unique(self):
        v = ground_state(np.diag([0.0, 1.0, 2.0]))
        assert np.allclose(np.abs(v), [1.0, 0.0, 0.0])

    def test_ground_state_degenerate_raises(self):
        with pytest.raises(DegenerateGround):
            ground_state(np.diag([0.0, 0.0, 1.0]))


class TestFloatViewMatmul:
    @pytest.mark.parametrize("complex_m", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", [(6,), (6, 1), (6, 4)], ids=["vector", "column", "block"])
    @pytest.mark.parametrize("rows", [6, 3])
    def test_equals_matmul(self, complex_m, shape, rows):
        rng = np.random.default_rng(rows + len(shape))
        m = rng.normal(size=(rows, 6))
        if complex_m:
            m = m + 1j * rng.normal(size=(rows, 6))
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = float_view_matmul(m, x)
        assert got.shape == (m @ x).shape and got.dtype == np.complex128
        np.testing.assert_allclose(got, m @ x, rtol=0, atol=1e-14)

    def test_transposed_and_strided_operands(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 5))
        x = (rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8)))[:, ::2]
        np.testing.assert_allclose(float_view_matmul(m.T, x), m.T @ x, rtol=0, atol=1e-14)

    def test_real_if_exact(self):
        h_x, _ = build_tfim(3)
        real = real_if_exact(h_x.matrix)
        assert real.dtype == np.float64 and real.flags.c_contiguous
        np.testing.assert_array_equal(real, h_x.matrix.real)
        rotated = h_x.matrix * np.exp(0.3j)
        assert real_if_exact(rotated) is rotated
