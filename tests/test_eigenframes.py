import numpy as np
import pytest

from daslab.exceptions import DegeneratePath, GapClosure
from daslab.linalg import ground_state, operator_norm, unitarity_defect
from daslab.model import (
    AdiabaticPath,
    HermitianOperator,
    PathSpectrum,
    linear_schedule,
    load_path_json,
    path_matrix,
    path_spectrum,
    tfim_path,
)
from daslab.evolve import EvolutionSpec, discrete_evolution
from daslab.errors import fidelity_error
from daslab.eigenframes import (
    eigenframe_sequence,
    expansion_pass,
    gamma_expansion,
    propagator_expansion,
    transition_amplitude_continuum,
    transition_amplitudes,
    transition_matrices,
    transported_stream,
)
from daslab import eigenframes, model
from daslab.riemann_lebesgue import oscillatory_integral


def constant_path(dim=4, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = HermitianOperator((m + m.conj().T) / 2)
    return AdiabaticPath(h, h, linear_schedule())


class TestEigenframeSequence:
    def test_two_frames_shifted_spectra(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=1.0, steps=2)
        frames = eigenframe_sequence(spec)
        assert len(frames.s_values) == 2
        for energies in frames.energies:
            lambdas = energies - energies[0]
            assert lambdas[0] == 0.0
            assert np.all(lambdas[1:] > 0)

    def test_constant_path_transitions_identity(self):
        path = constant_path()
        spec = EvolutionSpec(path=path, total_time=3.0, steps=6)
        frames = eigenframe_sequence(spec)
        for s in transition_matrices(frames):
            assert operator_norm(s - np.eye(4)) <= 1e-12

    def test_transport_overlaps_real_nonnegative(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=10.0, steps=50)
        frames = eigenframe_sequence(spec)
        for j in range(len(frames.s_values) - 1):
            overlaps = np.einsum(
                "ij,ij->j", frames.bases[j].conj(), frames.bases[j + 1]
            )
            assert np.all(overlaps.imag <= 1e-10)
            assert np.all(overlaps.real >= -1e-10)

    def test_transitions_unitary(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=10.0, steps=30)
        frames = eigenframe_sequence(spec)
        for s in transition_matrices(frames):
            assert unitarity_defect(s) <= 1e-10

    def test_transition_size_shrinks_with_refinement(self, tfim4):
        sizes = {}
        for steps in (50, 100, 200):
            spec = EvolutionSpec(path=tfim4, total_time=10.0, steps=steps)
            frames = eigenframe_sequence(spec)
            sizes[steps] = max(
                operator_norm(s - np.eye(16)) for s in transition_matrices(frames)
            )
        assert 1.5 <= sizes[50] / sizes[100] <= 2.5
        assert 1.5 <= sizes[100] / sizes[200] <= 2.5

    def test_ground_degeneracy_raises_with_location(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 1.0])),
            HermitianOperator(np.diag([1.0, 0.0])),
            linear_schedule(),
        )
        spec = EvolutionSpec(path=path, total_time=1.0, steps=3)
        with pytest.raises(DegeneratePath) as info:
            eigenframe_sequence(spec)
        assert info.value.step == 1  # crossing at s = 0.5, the middle frame
        assert (info.value.level_a, info.value.level_b) == (0, 1)

    def test_strict_mode_rejects_excited_degeneracy(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=1.0, steps=5)
        eigenframe_sequence(spec)  # tolerated by default
        with pytest.raises(DegeneratePath):
            eigenframe_sequence(spec, strict=True)


def transported(spectrum: PathSpectrum) -> PathSpectrum:
    """The frames :func:`transported_stream` yields for a grid spectrum,
    stacked."""
    return PathSpectrum(*map(np.array, zip(*transported_stream([spectrum]))))


def rotated_field_path():
    """A 3-site path whose H_i mixes X and Y fields: complex H(s) and bases."""
    field = [
        {"coeff": -np.cos(0.7), "factors": [[j, "X"]]} for j in range(3)
    ] + [{"coeff": -np.sin(0.7), "factors": [[j, "Y"]]} for j in range(3)]
    coupling = [{"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]} for j in range(2)]
    coupling += [{"coeff": -0.5, "factors": [[j, "Z"]]} for j in range(3)]
    return load_path_json({"n_sites": 3, "h_initial": field, "h_final": coupling})


class TestTransportedFramesContract:
    @pytest.mark.parametrize("make_path", [lambda: tfim_path(4), rotated_field_path])
    def test_same_grid_and_energies(self, make_path):
        spectrum = path_spectrum(make_path(), np.linspace(0.0, 1.0, 21))
        frames = transported(spectrum)
        assert isinstance(frames, PathSpectrum)
        assert np.array_equal(frames.s_values, spectrum.s_values)
        assert np.array_equal(frames.energies, spectrum.energies)
        assert frames.bases.shape == spectrum.bases.shape

    @pytest.mark.parametrize("make_path", [lambda: tfim_path(4), rotated_field_path])
    def test_bases_rebuild_each_hamiltonian(self, make_path):
        path = make_path()
        s_values = np.linspace(0.0, 1.0, 21)
        frames = transported(path_spectrum(path, s_values))
        adjoints = np.conj(np.swapaxes(frames.bases, -1, -2))
        rebuilt = (frames.bases * frames.energies[:, None, :]) @ adjoints
        worst = max(
            operator_norm(r - h) for r, h in zip(rebuilt, path_matrix(path, s_values))
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "make_path,real", [(lambda: tfim_path(4), True), (rotated_field_path, False)]
    )
    def test_transitions_equal_the_pairwise_products(self, make_path, real):
        frames = transported(path_spectrum(make_path(), np.linspace(0.0, 1.0, 21)))
        assert np.isrealobj(frames.bases) == real
        batched = transition_matrices(frames)
        pairwise = [
            frames.bases[j + 1].conj().T @ frames.bases[j]
            for j in range(len(frames.s_values) - 1)
        ]
        assert len(batched) == len(pairwise)
        for stacked, single in zip(batched, pairwise):
            assert np.array_equal(stacked, single)


class TestPropagatorExpansion:
    def test_single_frame_diagonal(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=2.0, steps=1)
        expansion = gamma_expansion(spec)
        assert expansion.adiabatic_error == 0.0
        off_diag = expansion.matrix - np.diag(np.diag(expansion.matrix))
        assert operator_norm(off_diag) <= 1e-12

    def test_constant_path_no_error(self):
        path = constant_path(seed=3)
        spec = EvolutionSpec(path=path, total_time=5.0, steps=8)
        expansion = gamma_expansion(spec)
        # sqrt amplifies machine-scale deviations of |gamma_00|^2 from 1
        assert expansion.adiabatic_error <= 1e-7
        energies = path_spectrum(path, spec.grid_points()).energies
        phases = np.diag(np.exp(-1j * expansion.dt * energies.sum(axis=0)))
        assert operator_norm(expansion.matrix - phases) <= 1e-10
        assert np.all(np.abs(expansion.amplitudes) <= 1e-12)

    @pytest.mark.parametrize("n_sites,steps,total_time", [(2, 50, 20.0), (4, 40, 15.0)])
    def test_reconstruction_matches_discrete(self, n_sites, steps, total_time):
        path = tfim_path(n_sites)
        spec = EvolutionSpec(path=path, total_time=total_time, steps=steps)
        bases = eigenframe_sequence(spec).bases
        rebuilt = bases[-1] @ gamma_expansion(spec).matrix @ bases[0].conj().T
        a_d = discrete_evolution(spec).matrix
        assert operator_norm(rebuilt - a_d) <= 1e-9

    def test_first_column_normalized(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=12.0, steps=40)
        expansion = gamma_expansion(spec)
        assert abs(np.sum(np.abs(expansion.matrix[:, 0]) ** 2) - 1.0) <= 1e-9

    def test_error_equals_fidelity_route(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=25.0, steps=60)
        expansion = gamma_expansion(spec)
        psi_i = ground_state(tfim4.h_initial.matrix)
        psi_f = ground_state(tfim4.h_final.matrix)
        a_d = discrete_evolution(spec).matrix
        assert expansion.adiabatic_error == pytest.approx(
            fidelity_error(a_d @ psi_i, psi_f), abs=1e-9
        )


class TestExpansionPass:
    @pytest.mark.parametrize("make_path", [lambda: tfim_path(4), rotated_field_path])
    def test_same_bits_as_the_batched_expansion(self, make_path, monkeypatch):
        # Three frames a stack: 21 frames take seven stacks.
        path = make_path()
        monkeypatch.setattr(model, "STACK_ENTRIES", 3 * path.dim**2)
        times = [7.0, 30.0]
        frames = transported_stream(model.spectrum_stacks(path, np.linspace(0.0, 1.0, 21)))
        streamed = expansion_pass(path, frames, times, 21)
        frames = eigenframe_sequence(EvolutionSpec(path=path, total_time=1.0, steps=21))
        transitions = transition_matrices(frames)
        for total_time, expansion in zip(times, streamed, strict=True):
            spec = EvolutionSpec(path=path, total_time=total_time, steps=21)
            batched = propagator_expansion(
                frames, transitions, total_time, transition_amplitudes(spec, frames)
            )
            assert np.array_equal(expansion.matrix, batched.matrix)
            assert np.array_equal(expansion.amplitudes, batched.amplitudes)
            assert expansion.adiabatic_error == batched.adiabatic_error


class TestTransitionAmplitudes:
    def test_constant_path_zero(self):
        path = constant_path(seed=5)
        spec = EvolutionSpec(path=path, total_time=4.0, steps=10)
        frames = eigenframe_sequence(spec)
        assert np.all(np.abs(transition_amplitudes(spec, frames)) <= 1e-14)

    def test_first_order_matches_exact_and_improves(self, tfim2):
        deviations = {}
        for total_time, steps in ((50.0, 100), (100.0, 200)):
            spec = EvolutionSpec(path=tfim2, total_time=total_time, steps=steps)
            expansion = gamma_expansion(spec)
            estimate = expansion.first_order_error
            deviations[total_time] = (
                abs(estimate - expansion.adiabatic_error) / expansion.adiabatic_error
            )
        assert deviations[50.0] <= 0.20
        assert deviations[100.0] < deviations[50.0]

    def test_gauge_invariance_of_magnitudes(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=30.0, steps=60)
        s_values = spec.grid_points()
        energies, bases = np.linalg.eigh(path_matrix(tfim2, s_values))

        def frames_from(raw_bases):
            return transported(PathSpectrum(s_values, energies, raw_bases))

        rng = np.random.default_rng(11)
        scrambled = bases.astype(complex)  # the real TFIM bases, rephased below
        for j in range(len(s_values)):
            scrambled[j] = scrambled[j] * np.exp(
                1j * rng.uniform(0, 2 * np.pi, size=4)
            )[None, :]

        reference = np.abs(transition_amplitudes(spec, frames_from(bases)))
        perturbed = np.abs(transition_amplitudes(spec, frames_from(scrambled)))
        assert np.allclose(reference, perturbed, atol=1e-10)

    def test_amplitude_magnitude_scales_inversely_with_time(self, tfim2):
        values = {}
        for total_time in (20.0, 50.0, 100.0, 200.0):
            spec = EvolutionSpec(
                path=tfim2, total_time=total_time, steps=int(2 * total_time)
            )
            frames = eigenframe_sequence(spec)
            amps = transition_amplitudes(spec, frames)
            values[total_time] = total_time * np.abs(amps[0])
        scaled = np.array(list(values.values()))
        assert scaled.max() / scaled.min() <= 20.0
        assert scaled.min() > 0


class TestContinuum:
    def test_surrogate_closed_form(self):
        one = lambda s: np.ones_like(np.asarray(s, dtype=float))  # noqa: E731
        for total_time in (7.0, 50.0):
            value = oscillatory_integral(one, one, total_time)
            closed = (1 - np.exp(-1j * total_time)) / (1j * total_time)
            assert abs(value - closed) <= 1e-8

    def test_discrete_approaches_continuum(self, tfim2):
        continuum = abs(transition_amplitude_continuum(tfim2, 50.0, 1))
        deviations = {}
        for steps in (2000, 4000):
            spec = EvolutionSpec(path=tfim2, total_time=50.0, steps=steps)
            frames = eigenframe_sequence(spec)
            amps = transition_amplitudes(spec, frames)
            deviations[steps] = abs(abs(amps[0]) - continuum) / continuum
        assert deviations[2000] <= 0.02
        assert deviations[4000] <= 0.7 * deviations[2000]

    def test_chunked_grid_matches_one_batch(self, tfim2, monkeypatch):
        whole = transition_amplitude_continuum(tfim2, 50.0, 1)
        # 1024 frames a stack: the first 2049-node grid takes three stacks.
        monkeypatch.setattr(model, "STACK_ENTRIES", 1024 * tfim2.dim**2)
        assert transition_amplitude_continuum(tfim2, 50.0, 1) == whole

    def test_gap_closure_raises(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 1.0])),
            HermitianOperator(np.diag([1.0, 0.0])),
            linear_schedule(),
        )
        with pytest.raises(GapClosure):
            transition_amplitude_continuum(path, 10.0, 1)

    def test_degenerate_neighbour_refused_on_the_first_grid(self, monkeypatch):
        # TFIM N = 3 at level 1: an even and an odd level meet within 1e-9
        # near s = 1 (2.9e-14 apart at s = 0.9995), so level 1 changes
        # eigenvector there.  It doubled to 2^20 nodes and raised
        # NoConvergence after about 25 s; with one grid allowed it must
        # raise DegeneratePath.
        monkeypatch.setattr(eigenframes, "CONTINUUM_MAX_NODES", eigenframes.CONTINUUM_START_NODES)
        with pytest.raises(DegeneratePath, match="level 1"):
            transition_amplitude_continuum(tfim_path(3), 20.0, 1)

    def test_level_validation(self, tfim2):
        with pytest.raises(ValueError):
            transition_amplitude_continuum(tfim2, 10.0, 0)
