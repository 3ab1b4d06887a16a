import numpy as np
import pytest

from daslab import model
from daslab.evolve import EvolutionSpec, _exact_diagonal, discrete_evolution, trotter_evolution
from daslab.exceptions import DegenerateGround, DimensionTooLarge, OutOfRange
from daslab.linalg import ground_state, operator_norm
from daslab.model import (
    MAX_SCHEDULE_COEFFICIENTS,
    AdiabaticPath,
    HermitianOperator,
    PauliTerm,
    _reversal_permutation,
    block_ground_state,
    build_tfim,
    linear_schedule,
    load_path_json,
    _orbit_maps,
    operator_blocks,
    path_at,
    path_matrix,
    path_energies,
    path_spectrum,
    pauli_sum_matrix,
    polynomial_schedule,
    reversal_blocks,
    spectral_gap,
    tfim_path,
)

from conftest import odd_ground_json, rotated_tfim_json, site0_field_json

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_term_matrix(term: PauliTerm, n_sites: int) -> np.ndarray:
    """The Kronecker reference: the coefficient times the product of one
    2 x 2 factor per site, site 0 leftmost."""
    axes = dict(term.factors)
    out = np.array([[term.coefficient]], dtype=complex)
    for site in range(n_sites):
        out = np.kron(out, PAULI[axes.get(site, "I")])
    return out


def kron_sum_matrix(terms, n_sites: int) -> np.ndarray:
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for term in terms:
        out += pauli_term_matrix(term, n_sites)
    return out


def random_pauli_sum(rng, n_sites: int) -> list[PauliTerm]:
    """Up to 12 terms of 1 to n_sites factors on distinct sites, each axis
    X, Y or Z; sites repeat across terms, and every site appears."""
    terms = [PauliTerm(float(rng.normal()), ((j, str(rng.choice(list("XYZ")))),)) for j in range(n_sites)]
    for _ in range(rng.integers(1, 12)):
        sites = rng.choice(n_sites, size=rng.integers(1, n_sites + 1), replace=False)
        factors = tuple((int(j), str(rng.choice(list("XYZ")))) for j in sites)
        terms.append(PauliTerm(float(rng.normal()), factors))
    rng.shuffle(terms)
    return terms


def ising_diagonal_oracle(n_sites, periodic=False):
    """Enumerate -sum Z_j - sum Z_j Z_{j+1} over computational configurations."""
    dim = 2**n_sites
    diag = np.zeros(dim)
    bonds = n_sites if periodic else n_sites - 1
    for index in range(dim):
        # site 0 is the leftmost tensor factor, i.e. the most significant bit
        z = [1 - 2 * ((index >> (n_sites - 1 - j)) & 1) for j in range(n_sites)]
        value = -sum(z)
        value -= sum(z[j] * z[(j + 1) % n_sites] for j in range(bonds))
        diag[index] = value
    return diag


class TestBuildTfim:
    def test_dimension_n8(self):
        h_x, h_z = build_tfim(8)
        assert h_x.dim == 256 and h_z.dim == 256

    def test_n2_matches_enumeration(self):
        _, h_z = build_tfim(2)
        assert np.allclose(h_z.matrix, np.diag(ising_diagonal_oracle(2)))
        assert operator_norm(h_z.matrix) == pytest.approx(3.0, abs=1e-12)

    def test_n8_norm_from_enumeration(self):
        _, h_z = build_tfim(8)
        oracle = ising_diagonal_oracle(8)
        assert np.allclose(np.diag(h_z.matrix), oracle)
        assert np.abs(h_z.matrix - np.diag(np.diag(h_z.matrix))).max() <= 1e-14
        assert operator_norm(h_z.matrix) == pytest.approx(15.0, abs=1e-9)
        assert np.abs(oracle).max() == 15.0

    def test_periodic_adds_wrap_bond(self):
        _, h_z = build_tfim(3, periodic=True)
        assert np.allclose(np.diag(h_z.matrix), ising_diagonal_oracle(3, periodic=True))

    def test_x_part_off_diagonal(self):
        h_x, _ = build_tfim(3)
        assert np.allclose(np.diag(h_x.matrix), 0.0)
        values = np.linalg.eigvalsh(h_x.matrix)
        assert np.allclose(values[[0, -1]], [-3.0, 3.0])

    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_size_limits(self, n):
        with pytest.raises(DimensionTooLarge):
            build_tfim(n)


class TestPauliTerms:
    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((0, "X"), (0, "Z")))

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((0, "Q"),))

    def test_two_site_term(self):
        m = pauli_sum_matrix([PauliTerm(0.5, ((0, "Z"), (1, "Z")))], 2)
        assert np.allclose(np.diag(m), [0.5, -0.5, -0.5, 0.5])

    def test_kron_ordering_site0_leftmost(self):
        m = pauli_sum_matrix([PauliTerm(1.0, ((0, "Z"),))], 2)
        assert np.allclose(np.diag(m), [1.0, 1.0, -1.0, -1.0])

    @pytest.mark.parametrize("n_sites", range(2, 9))
    def test_bit_masks_equal_the_kronecker_reference(self, n_sites):
        # Every entry is a coefficient times 1, i, -1 or -i, added in the
        # order given, so the two builds agree exactly.
        rng = np.random.default_rng(100 + n_sites)
        for _ in range(40 if n_sites <= 6 else 5):
            terms = random_pauli_sum(rng, n_sites)
            assert np.array_equal(pauli_sum_matrix(terms, n_sites), kron_sum_matrix(terms, n_sites))

    def test_site_outside_the_chain_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            pauli_sum_matrix([PauliTerm(1.0, ((2, "X"),))], 2)


class TestPathAt:
    def test_linear_endpoints(self, tfim2):
        assert np.allclose(path_at(tfim2, 0.0).matrix, tfim2.h_initial.matrix)
        assert np.allclose(path_at(tfim2, 1.0).matrix, tfim2.h_final.matrix)

    def test_linear_first_derivative_constant(self, tfim2):
        expected = tfim2.h_final.matrix - tfim2.h_initial.matrix
        for s in (0.0, 0.3, 1.0):
            assert np.allclose(path_at(tfim2, s, 1).matrix, expected)

    def test_linear_second_derivative_zero(self, tfim2):
        assert np.allclose(path_at(tfim2, 0.6, 2).matrix, 0.0)

    def test_out_of_range(self, tfim2):
        with pytest.raises(OutOfRange):
            path_at(tfim2, 1.5)
        with pytest.raises(OutOfRange):
            path_at(tfim2, 0.5, order=3)

    def test_hermitian_along_path(self, tfim4):
        rng = np.random.default_rng(2)
        for s in rng.uniform(0, 1, size=100):
            m = path_at(tfim4, float(s)).matrix
            assert np.abs(m - m.conj().T).max() <= 1e-12

    def test_linear_superposition_identity(self, tfim2):
        rng = np.random.default_rng(4)
        h0 = path_at(tfim2, 0.0).matrix
        for _ in range(20):
            s1, s2 = rng.uniform(0, 0.5, size=2)
            left = path_at(tfim2, float(s1)).matrix + path_at(tfim2, float(s2)).matrix
            right = path_at(tfim2, float(s1 + s2)).matrix + h0
            assert np.allclose(left, right, atol=1e-12)

    def test_smoothstep_schedule(self, tfim2):
        schedule = polynomial_schedule([0.0, 0.0, 3.0, -2.0])
        path = AdiabaticPath(tfim2.h_initial, tfim2.h_final, schedule)
        assert np.allclose(path_at(path, 0.0, 1).matrix, 0.0)  # p'(0) = 0
        assert np.allclose(path_at(path, 0.5).matrix, path_at(tfim2, 0.5).matrix)

    def test_bad_polynomial_endpoints(self):
        with pytest.raises(ValueError):
            polynomial_schedule([0.0, 0.5])  # p(1) != 1


class TestSpectralGap:
    def test_tfim8_transverse_gap(self, tfim8):
        assert spectral_gap(tfim8, 0.0, 1) == pytest.approx(2.0, abs=1e-9)

    def test_tfim8_final_gap_from_enumeration(self, tfim8):
        values = np.sort(ising_diagonal_oracle(8))
        assert spectral_gap(tfim8, 1.0, 1) == pytest.approx(values[1] - values[0], abs=1e-9)

    def test_degenerate_point_gap_zero(self):
        op = HermitianOperator(np.diag([1.0, 1.0]))
        path = AdiabaticPath(op, op, linear_schedule())
        assert spectral_gap(path, 0.5, 1) == pytest.approx(0.0, abs=1e-12)

    def test_level_validation(self, tfim2):
        with pytest.raises(OutOfRange):
            spectral_gap(tfim2, 0.5, level=4)

    def test_gap_nonnegative_and_continuous(self, tfim4):
        probes = np.linspace(0.05, 0.95, 10)
        for s in probes:
            left = spectral_gap(tfim4, float(s), 1)
            right = spectral_gap(tfim4, float(s + 1e-4), 1)
            assert left >= 0
            assert abs(right - left) < 1e-2


class TestPathJson:
    def tfim_json(self, n):
        x_terms = [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(n)]
        z_terms = [{"coeff": -1.0, "factors": [[j, "Z"]]} for j in range(n)]
        z_terms += [
            {"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]} for j in range(n - 1)
        ]
        return {
            "n_sites": n,
            "h_initial": x_terms,
            "h_final": z_terms,
            "schedule": {"name": "linear"},
        }

    def test_round_trips_tfim(self):
        path = load_path_json(self.tfim_json(3))
        reference = tfim_path(3)
        assert np.allclose(path.h_initial.matrix, reference.h_initial.matrix)
        assert np.allclose(path.h_final.matrix, reference.h_final.matrix)

    def test_polynomial_schedule_from_json(self):
        data = self.tfim_json(2)
        data["schedule"] = {"name": "custom-polynomial", "coefficients": [0, 0, 3, -2]}
        path = load_path_json(data)
        assert path.schedule.name == "custom-polynomial"

    def test_schedule_coefficients_capped(self):
        data = self.tfim_json(2)
        coefficients = [0.0, 1.0] + [0.0] * (MAX_SCHEDULE_COEFFICIENTS - 2)
        data["schedule"] = {"name": "custom-polynomial", "coefficients": coefficients}
        assert load_path_json(data).schedule.name == "custom-polynomial"
        coefficients.append(0.0)
        with pytest.raises(ValueError, match=f"at most {MAX_SCHEDULE_COEFFICIENTS}"):
            load_path_json(data)

    def test_file_source(self, tmp_path):
        import json

        target = tmp_path / "ham.json"
        target.write_text(json.dumps(self.tfim_json(2)))
        path = load_path_json(target)
        assert path.dim == 4

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("n_sites"),
            lambda d: d.update(h_initial=[]),
            lambda d: d.update(schedule={"name": "cosine"}),
            lambda d: d["h_initial"].append({"coeff": "x", "factors": []}),
        ],
    )
    def test_malformed_rejected(self, mutate):
        data = self.tfim_json(2)
        mutate(data)
        with pytest.raises(ValueError):
            load_path_json(data)

    def test_path_matrix_real_only_for_real_endpoints(self):
        s_values = np.linspace(0.0, 1.0, 5)
        tfim = tfim_path(3)
        real = path_matrix(tfim, s_values)
        assert real.dtype == np.float64
        hi, hf = tfim.h_initial.matrix, tfim.h_final.matrix
        as_complex = hi[None] + s_values[:, None, None] * (hf - hi)[None]
        np.testing.assert_array_equal(real, as_complex.real)
        spectrum = path_spectrum(tfim, s_values)
        assert np.isrealobj(spectrum.bases)

        data = self.tfim_json(3)
        data["h_initial"].append({"coeff": -0.5, "factors": [[1, "Y"]]})
        stack = path_matrix(load_path_json(data), s_values)
        assert stack.dtype == np.complex128 and stack.imag.any()

    def test_mismatched_endpoint_dims_rejected(self):
        h2 = HermitianOperator(np.eye(2))
        h4 = HermitianOperator(np.eye(4))
        with pytest.raises(ValueError):
            AdiabaticPath(h2, h4)


def reversal(n_sites):
    """Bit-reversal permutation of the 2^N basis, read off the bit strings."""
    return np.array([int(format(z, f"0{n_sites}b")[::-1], 2) for z in range(2**n_sites)])


def parity_state(n_sites, z, parity):
    """(|z> + parity |Rz>) / 2: an R eigenvector, zero for an odd palindrome."""
    state = np.zeros(2**n_sites, dtype=complex)
    state[z] += 0.5
    state[reversal(n_sites)[z]] += 0.5 * parity
    return state


def both_sectors(path, n_sites):
    """The even sector of the TFIM ground state |+>^N and the odd sector of
    (|0..01> - |10..0>) / 2."""
    even = reversal_blocks(path, ground_state(path.h_initial.matrix))[0].path
    odd = reversal_blocks(path, parity_state(n_sites, 1, -1))[0].path
    return even, odd


def sector_basis(path, n_sites, parity, sector_dim):
    """The sector basis Q (one column per sector state), recovered from the
    state map: the image of the parity projection (e_k + parity e_Rk) / 2
    is row k of Q."""
    rows = []
    for z in range(2**n_sites):
        state = parity_state(n_sites, z, parity)
        rows.append(reversal_blocks(path, state)[0].project(state) if state.any() else np.zeros(sector_dim))
    return np.array(rows)


def explicit_basis(n_sites, parity):
    """Q_p: one column (|z> + parity |Rz>) / sqrt(2) per representative
    z < Rz, and |z> per palindrome when parity is +1, in ascending z."""
    r = reversal(n_sites)
    columns = []
    for z in range(2**n_sites):
        column = np.zeros(2**n_sites)
        if z < r[z]:
            column[z], column[r[z]] = 2**-0.5, parity * 2**-0.5
        elif z == r[z] and parity == 1:
            column[z] = 1.0
        else:
            continue
        columns.append(column)
    return np.array(columns).T


class TestReversalBlocks:
    @pytest.mark.parametrize("n_sites", [4, 5])
    def test_gather_matches_the_explicit_basis(self, n_sites):
        path = tfim_path(n_sites)
        blocks = reversal_blocks(path, ground_state(path.h_initial.matrix))
        spec = EvolutionSpec(path=path, total_time=7.0, steps=12)
        a_tro = trotter_evolution(spec).matrix
        operators = {
            "trotter": a_tro,
            "path": path_matrix(path, [0.3])[0],
            "difference": discrete_evolution(spec).matrix - a_tro,
        }
        for name, m in operators.items():
            norms = []
            for parity in (1, -1):
                q = explicit_basis(n_sites, parity)
                gathered = _orbit_maps(path.dim, parity)[0](m)
                assert np.abs(gathered - q.T @ m @ q).max() <= 1e-13, name
                norms.append(operator_norm(gathered))
            assert abs(max(norms) - operator_norm(m)) <= 1e-13, name
        # the gathers of H_i and H_f are the block paths' endpoints
        for block, k in zip(blocks, (0, 1)):
            for full, reduced in ((path.h_initial, block.path.h_initial), (path.h_final, block.path.h_final)):
                np.testing.assert_array_equal(operator_blocks(full.matrix)[k], reduced.matrix)


def random_box(rng, dim):
    """A dim x dim matrix with real and imaginary parts uniform in [-1, 1]."""
    return rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))


def reversal_commuting(rng, n_sites):
    """A random complex matrix with entries of order 1 that commutes with site
    reversal: A + R A R."""
    r = reversal(n_sites)
    a = random_box(rng, 2**n_sites) / 2
    return a + a[np.ix_(r, r)]


class TestScatter:
    """The gather Q_p^T M Q_p of :func:`operator_blocks` against the scatter
    Q_p B Q_p^T back to the full space, which only these tests form."""

    @pytest.mark.parametrize("n_sites", [3, 4])
    def test_scatter_is_the_adjoint_of_gather(self, n_sites):
        rng = np.random.default_rng(n_sites)
        m = reversal_commuting(rng, n_sites)
        total = 0
        for parity, block in zip((1, -1), operator_blocks(m)):
            q = explicit_basis(n_sites, parity)
            assert np.abs(block - q.T @ m @ q).max() <= 1e-15
            b = random_box(rng, q.shape[1])
            gather = _orbit_maps(2**n_sites, parity)[0]
            assert np.abs(gather(q @ b @ q.T) - b).max() <= 1e-15
            total = total + q @ block @ q.T
        assert np.abs(total - m).max() <= 1e-15

    @pytest.mark.parametrize("n_sites", [3, 4])
    def test_operator_blocks_are_the_path_gathers(self, n_sites):
        path = tfim_path(n_sites)
        blocks = reversal_blocks(path, ground_state(path.h_initial.matrix))
        rng = np.random.default_rng(0)
        m = reversal_commuting(rng, n_sites)
        v = rng.standard_normal(path.dim)
        for k, (parity, gathered, block) in enumerate(zip((1, -1), operator_blocks(m), blocks)):
            gather, project, lift = _orbit_maps(path.dim, parity)
            np.testing.assert_array_equal(gathered, gather(m))
            # lift is Q, the adjoint of project, and project undoes it
            c = rng.standard_normal(len(gathered))
            assert abs(np.vdot(lift(c), v) - np.vdot(c, project(v))) <= 1e-14
            assert np.abs(project(lift(c)) - c).max() <= 1e-15
            # the block path is read through the same maps
            assert len(gathered) == block.path.dim
            np.testing.assert_array_equal(block.project(v), project(v))
            for full, reduced in ((path.h_initial, block.path.h_initial), (path.h_final, block.path.h_final)):
                np.testing.assert_array_equal(operator_blocks(full.matrix)[k], reduced.matrix)

    def test_operator_blocks_need_an_invariant_chain_matrix(self):
        m = reversal_commuting(np.random.default_rng(1), 3)
        m[0, 1] += 1e-15
        assert operator_blocks(m) is None
        assert operator_blocks(np.eye(12)) is None
        # a sector of dim 1 or 2 is no chain, so reversal means nothing there
        assert operator_blocks(np.eye(1)) is None and operator_blocks(np.eye(2)) is None
        path = load_path_json(
            {
                "n_sites": 3,
                "h_initial": [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(3)],
                "h_final": [{"coeff": -1.0, "factors": [[0, "Z"]]}],
            }
        )
        assert operator_blocks(path.h_final.matrix) is None
        (block,) = reversal_blocks(path, ground_state(path.h_initial.matrix))
        assert block.path is path


def conjugated_tfim(n_sites, periodic, per_state, seed=0):
    """The TFIM path conjugated by a seeded diagonal unitary D: H -> D H D^dag.
    With ``per_state`` D has a random phase per basis state, which breaks
    site reversal; otherwise the phase depends on the magnetization alone,
    so reversal maps both endpoints to themselves exactly."""
    rng = np.random.default_rng(seed)
    dim = 2**n_sites
    if per_state:
        angles = rng.uniform(-np.pi, np.pi, dim)
    else:
        angles = rng.uniform(-np.pi, np.pi, n_sites + 1)[np.bitwise_count(np.arange(dim))]
    d = np.exp(1j * angles)
    twist = np.outer(d, d.conj())
    h_x, h_z = build_tfim(n_sites, periodic)
    return AdiabaticPath(
        HermitianOperator(twist * h_x.matrix, label="x"), HermitianOperator(twist * h_z.matrix, label="z")
    )


def flux_json(n_sites, coupling=0.3):
    """The TFIM with a reversal-symmetric coupling c (X_j Y_j+1 + Y_j X_j+1)
    in H_f: it joins |..00..> and |..11..> with phase i, so with the X field
    every plaquette of two flips carries flux and no diagonal gauge makes
    the path real."""
    data = {
        "n_sites": n_sites,
        "h_initial": [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(n_sites)],
        "h_final": [{"coeff": -1.0, "factors": [[j, "Z"]]} for j in range(n_sites)],
    }
    for j in range(n_sites - 1):
        data["h_final"].append({"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]})
        for a, b in (("X", "Y"), ("Y", "X")):
            data["h_final"].append({"coeff": coupling, "factors": [[j, a], [j + 1, b]]})
    return data


class TestRealGauge:
    """A complex block path that a diagonal phase gauge makes real is
    rephased to real, with the TFIM's spectra; a path with flux is kept
    as gathered."""

    S_VALUES = np.linspace(0.0, 1.0, 11)

    @pytest.mark.parametrize("n_sites", [4, 5])
    @pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
    @pytest.mark.parametrize("per_state", [False, True], ids=["magnetization", "per-state"])
    def test_conjugated_tfim_runs_real_with_the_tfim_spectra(self, n_sites, periodic, per_state):
        path = conjugated_tfim(n_sites, periodic, per_state, seed=n_sites + 2 * periodic)
        assert path.h_initial.matrix.imag.any()
        tfim = tfim_path(n_sites, periodic)
        if per_state:  # one full-space block
            assert operator_blocks(path.h_initial.matrix) is None
            tfim_blocks = [tfim]
        else:
            tfim_blocks = [block.path for block in reversal_blocks(tfim)]
        blocks = reversal_blocks(path)
        assert len(blocks) == len(tfim_blocks)
        for block, tfim_block in zip(blocks, tfim_blocks):
            assert path_matrix(block.path, self.S_VALUES).dtype == np.float64
            assert np.abs(np.abs(block.phases) - 1.0).max() <= 1e-15
            energies = path_energies(block.path, self.S_VALUES)
            assert np.abs(energies - path_energies(tfim_block, self.S_VALUES)).max() <= 1e-12

    @pytest.mark.parametrize("per_state", [False, True], ids=["magnetization", "per-state"])
    def test_projection_is_the_gauged_basis(self, per_state):
        path = conjugated_tfim(4, False, per_state)
        psi = ground_state(path.h_initial.matrix)
        block = reversal_blocks(path, psi)[0]
        phi = block.project(psi)
        base = _orbit_maps(16, 1)[1] if not per_state else (lambda v: v)
        np.testing.assert_array_equal(phi, block.phases.conj() * base(psi))
        # psi is the ground state of the real block path, up to phase
        assert abs(np.vdot(ground_state(block.path.h_initial.matrix), phi)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_kept_bit_for_bit(self):
        path = load_path_json(rotated_tfim_json(5))
        gathered = operator_blocks(path.h_final.matrix)
        for block, parent in zip(reversal_blocks(path), gathered):
            assert block.phases is not None
            h_f = block.path.h_final.matrix
            np.testing.assert_array_equal(h_f, np.diag(parent.diagonal()))
            assert _exact_diagonal(h_f) is not None
        path = conjugated_tfim(4, False, per_state=True)
        (block,) = reversal_blocks(path)
        np.testing.assert_array_equal(block.path.h_final.matrix, np.diag(path.h_final.matrix.diagonal().real))

    @pytest.mark.parametrize("coupling", [0.3, 1e-9])
    def test_flux_keeps_the_gathered_blocks(self, coupling):
        path = load_path_json(flux_json(4, coupling))
        psi = ground_state(path.h_initial.matrix)
        ends = [operator_blocks(h.matrix) for h in (path.h_initial, path.h_final)]
        for k, (parity, block) in enumerate(zip((1, -1), reversal_blocks(path, psi))):
            assert block.phases is None
            assert path_matrix(block.path, [0.5]).dtype == np.complex128
            np.testing.assert_array_equal(block.path.h_initial.matrix, ends[0][k])
            np.testing.assert_array_equal(block.path.h_final.matrix, ends[1][k])
            np.testing.assert_array_equal(block.project(psi), _orbit_maps(16, parity)[1](psi))

    def test_flux_without_the_symmetry_keeps_the_path(self):
        data = rotated_tfim_json(4)
        data["h_final"].append({"coeff": 0.3, "factors": [[0, "X"], [1, "Y"]]})
        path = load_path_json(data)
        psi = ground_state(path.h_initial.matrix)
        (block,) = reversal_blocks(path, psi)
        assert block.path is path and block.project(psi) is psi and block.phases is None

    def test_two_calls_give_the_same_bits(self):
        path = conjugated_tfim(5, True, per_state=False)
        first, second = reversal_blocks(path), reversal_blocks(path)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.phases, b.phases)
            for h in ("h_initial", "h_final"):
                np.testing.assert_array_equal(getattr(a.path, h).matrix, getattr(b.path, h).matrix)

    def test_real_path_skips_the_search(self, monkeypatch, tfim4):
        monkeypatch.setattr(model, "_real_gauge", None)  # never called
        for block in reversal_blocks(tfim4):
            assert block.phases is None


class TestReversalSector:
    @pytest.mark.parametrize("n_sites, dims", [(4, (10, 6)), (6, (36, 28))])
    def test_sector_dims(self, n_sites, dims):
        path = tfim_path(n_sites)
        assert tuple(sector.dim for sector in both_sectors(path, n_sites)) == dims

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_basis_orthonormal_and_blocks_project(self, n_sites):
        path = tfim_path(n_sites)
        for parity, sector in zip((1, -1), both_sectors(path, n_sites)):
            q = sector_basis(path, n_sites, parity, sector.dim)
            assert np.abs(q.conj().T @ q - np.eye(sector.dim)).max() <= 1e-15
            for full, block in ((path.h_initial, sector.h_initial), (path.h_final, sector.h_final)):
                assert np.abs(q.conj().T @ full.matrix @ q - block.matrix).max() <= 1e-13

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_diagonal_layer_block_exactly_diagonal(self, n_sites):
        path = tfim_path(n_sites)
        for sector in both_sectors(path, n_sites):
            h_z = sector.h_final.matrix
            assert np.count_nonzero(h_z - np.diag(np.diag(h_z))) == 0

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_block_spectra_merge_to_full_spectrum(self, n_sites):
        path = tfim_path(n_sites)
        s_values = np.linspace(0.0, 1.0, 21)
        merged = np.sort(
            np.concatenate([path_energies(sector, s_values) for sector in both_sectors(path, n_sites)], axis=1),
            axis=1,
        )
        assert np.abs(merged - path_energies(path, s_values)).max() <= 1e-13

    def test_state_maps_to_unit_sector_state(self, tfim4):
        psi = ground_state(tfim4.h_initial.matrix)
        block = reversal_blocks(tfim4, psi)[0]
        sector, phi = block.path, block.project(psi)
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-15)
        # the full ground state of H_i is the sector ground state, up to phase
        assert abs(np.vdot(ground_state(sector.h_initial.matrix), phi)) == pytest.approx(1.0, abs=1e-12)

    def test_further_states_take_the_first_states_map(self, tfim4):
        rng = np.random.default_rng(5)
        psi = ground_state(tfim4.h_initial.matrix)
        mixed = rng.normal(size=16) + 1j * rng.normal(size=16)
        mirrored = mixed[reversal(4)]
        even, odd = (mixed + mirrored) / 2, (mixed - mirrored) / 2
        block = reversal_blocks(tfim4, psi)[0]
        phi, *mapped = map(block.project, (psi, mixed, even, odd))
        assert block.path.dim == 10
        np.testing.assert_array_equal(phi, reversal_blocks(tfim4, psi)[0].project(psi))
        # the map is the projection onto the sector: a state and its even
        # part land on the same sector state, and the odd part on zero
        np.testing.assert_array_equal(mapped[1], reversal_blocks(tfim4, even)[0].project(even))
        assert np.abs(mapped[0] - mapped[1]).max() <= 1e-15
        assert not mapped[2].any()
        for full, reduced in zip((mixed, even, odd), mapped):
            assert abs(np.vdot(phi, reduced) - np.vdot(psi, full)) <= 1e-14

    def test_first_state_picks_the_sector(self, tfim4):
        psi = ground_state(tfim4.h_initial.matrix)
        odd = parity_state(4, 1, -1)
        block = reversal_blocks(tfim4, odd)[0]
        phi, even = block.project(odd), block.project(psi)
        assert block.path.dim == 6
        assert np.linalg.norm(phi) == pytest.approx(np.linalg.norm(odd), abs=1e-15)
        assert np.linalg.norm(even) <= 1e-15

    def test_second_block_is_the_other_sector(self, tfim4):
        even, odd = both_sectors(tfim4, 4)
        psi = ground_state(tfim4.h_initial.matrix)
        for state, other in ((psi, odd), (parity_state(4, 1, -1), even)):
            complement = reversal_blocks(tfim4, state)[1].path
            for mine, theirs in ((complement.h_initial, other.h_initial), (complement.h_final, other.h_final)):
                np.testing.assert_array_equal(mine.matrix, theirs.matrix)
        no_parity = np.zeros(16, dtype=complex)
        no_parity[1] = 1.0
        assert len(reversal_blocks(tfim4, no_parity)) == 1

    def test_asymmetric_path_comes_back_unchanged(self):
        path = load_path_json(
            {
                "n_sites": 3,
                "h_initial": [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(3)],
                "h_final": [{"coeff": -1.0, "factors": [[0, "Z"]]}],
            }
        )
        psi = ground_state(path.h_initial.matrix)
        psi_f = ground_state(path.h_final.matrix + 0.1 * path.h_initial.matrix)
        (block,) = reversal_blocks(path, psi)
        assert block.path is path and block.project(psi) is psi
        assert block.project(psi_f) is psi_f

    def test_state_without_parity_comes_back_unchanged(self, tfim4):
        state = np.zeros(16, dtype=complex)
        state[1] = 1.0
        psi = ground_state(tfim4.h_initial.matrix)
        (block,) = reversal_blocks(tfim4, state)
        assert block.path is tfim4 and block.project(state) is state
        assert block.project(psi) is psi

    def test_odd_ground_state_picks_the_odd_sector(self):
        path = load_path_json(odd_ground_json())
        energies = np.linalg.eigvalsh(path.h_initial.matrix)
        assert energies[1] - energies[0] == pytest.approx(2.0, abs=1e-12)
        psi = ground_state(path.h_initial.matrix)
        assert np.linalg.norm(psi[reversal(3)] + psi) <= 1e-12
        block = reversal_blocks(path, psi)[0]
        sector, phi = block.path, block.project(psi)
        assert sector.dim == 2
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.eigvalsh(sector.h_initial.matrix)[0] == pytest.approx(energies[0], abs=1e-13)


class TestBlockGroundState:
    """Endpoint ground states are found in the site-reversal blocks: they
    match the full-space ground state to rounding and have exact parity."""

    @pytest.mark.parametrize(
        "path",
        [tfim_path(4), tfim_path(8), load_path_json(rotated_tfim_json(8)), tfim_path(5, periodic=True)],
        ids=["tfim4", "tfim8", "rotated8", "periodic5"],
    )
    def test_matches_the_full_space_with_exact_parity(self, path):
        r = _reversal_permutation(path.dim)
        for h in (path.h_initial, path.h_final):
            psi = block_ground_state(h)
            assert np.abs(psi - ground_state(h.matrix)).max() <= 1e-15
            assert np.array_equal(psi[r], psi) or np.array_equal(psi[r], -psi)

    def test_odd_ground_state_lifted_from_the_odd_block(self):
        path = load_path_json(odd_ground_json())
        psi = block_ground_state(path.h_initial)
        assert np.array_equal(psi[_reversal_permutation(path.dim)], -psi)
        assert np.abs(psi - ground_state(path.h_initial.matrix)).max() <= 1e-15

    def test_path_without_the_symmetry_keeps_the_full_space_route(self):
        path = load_path_json(site0_field_json(4))
        assert operator_blocks(path.h_final.matrix) is None
        assert np.array_equal(block_ground_state(path.h_final), ground_state(path.h_final.matrix))

    def test_tied_block_ground_levels_raise(self):
        # Z0 Z1: |01> and |10> at -1, so (|01> + |10>) / sqrt(2) and
        # (|01> - |10>) / sqrt(2) tie as the two blocks' ground levels.
        h = HermitianOperator(pauli_sum_matrix([PauliTerm(1.0, ((0, "Z"), (1, "Z")))], 2))
        even, odd = operator_blocks(h.matrix)
        assert np.linalg.eigvalsh(even)[0] == np.linalg.eigvalsh(odd)[0] == -1.0
        with pytest.raises(DegenerateGround):
            block_ground_state(h)
