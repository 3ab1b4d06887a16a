import numpy as np
import pytest

from daslab.exceptions import (
    DegenerateEndpoint,
    DimensionMismatch,
    GapClosure,
    InsufficientData,
    NonFiniteResult,
)
from daslab.linalg import ground_state, operator_norm
from daslab.model import (
    AdiabaticPath,
    HermitianOperator,
    ReversalBlock,
    linear_schedule,
    load_path_json,
    polynomial_schedule,
    tfim_path,
)
from daslab.evolve import (
    EvolutionSpec,
    exact_evolution,
    exact_state_evolution,
    trotter_evolution,
)
from daslab import errors, model
from daslab.errors import (
    BoundReport,
    ErrorTriplet,
    adiabatic_bound,
    bound_profile,
    endpoint_states,
    error_triplet,
    fidelity_error,
    scaling_index,
)

from conftest import random_state, rotated_tfim_json, site0_field_json


class TestFidelityError:
    def test_identical_states(self):
        rng = np.random.default_rng(0)
        psi = random_state(rng, 6)
        assert fidelity_error(psi, psi) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_states(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        assert fidelity_error(e0, e1) == pytest.approx(1.0, abs=1e-15)

    def test_global_phase_immunity(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 5)
        assert fidelity_error(psi, np.exp(0.7j) * psi) <= 1e-7

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity_error(np.ones(2), np.ones(3))

    def test_residual_of_nearly_equal_states(self):
        # 1 - |<a|b>|^2 would leave about sqrt(eps) here.
        rng = np.random.default_rng(3)
        psi = random_state(rng, 6)
        assert fidelity_error(psi, np.exp(0.7j) * psi) <= 1e-15
        assert fidelity_error(psi, 3.0 * psi) <= 1e-15

    def test_zero_state_is_orthogonal_to_everything(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 3)
        assert fidelity_error(psi, np.zeros(3)) == fidelity_error(np.zeros(3), psi) == 1.0
        # The projection of a state of the other parity onto a site-reversal
        # block is zero up to rounding; normalizing it would give an
        # arbitrary error below 1.
        noise = 1e-16 * random_state(rng, 3)
        assert fidelity_error(psi, noise) == fidelity_error(noise, psi) == 1.0
        assert fidelity_error(psi, 1e-9 * psi) <= 1e-15

    def test_metric_triangle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = (random_state(rng, 4) for _ in range(3))
            assert fidelity_error(a, c) <= fidelity_error(a, b) + fidelity_error(b, c) + 1e-12


class TestErrorTriplet:
    def test_commuting_layers_no_trotter_error(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 1.0, 2.0, 4.0])),
            HermitianOperator(np.diag([0.5, 3.0, 1.0, 5.0])),
            linear_schedule(),
        )
        spec = EvolutionSpec(path=path, total_time=5.0, steps=40)
        triplet = error_triplet(spec)
        assert triplet.eps_tro <= 1e-6
        assert triplet.norm_dist <= 1e-12

    def test_large_step_count_proxy(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=5.0, steps=10_000)
        triplet = error_triplet(spec)
        assert triplet.eps_tro <= 1e-3

    def test_triangle_inequality_holds(self, tfim4):
        for total_time in (3.0, 17.0, 60.0):
            spec = EvolutionSpec(path=tfim4, total_time=total_time, steps=30)
            t = error_triplet(spec)
            assert t.eps_tot <= t.eps_adb + t.eps_tro + 1e-9

    def test_exact_methods_agree(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=7.0, steps=25)
        via_ode = error_triplet(spec)
        psi_i, psi_f = endpoint_states(tfim2)
        exact_state = exact_evolution(spec, tol=1e-9).matrix @ psi_i
        tro_state = trotter_evolution(spec).matrix @ psi_i
        assert via_ode.eps_adb == pytest.approx(fidelity_error(psi_f, exact_state), abs=1e-7)
        assert via_ode.eps_tro == pytest.approx(fidelity_error(exact_state, tro_state), abs=1e-7)

    def test_identity_shift_invariance(self, tfim2):
        rng = np.random.default_rng(5)
        shift = float(rng.uniform(-2, 2))
        dim = tfim2.dim
        shifted = AdiabaticPath(
            HermitianOperator(tfim2.h_initial.matrix + shift * np.eye(dim)),
            HermitianOperator(tfim2.h_final.matrix + shift * np.eye(dim)),
            linear_schedule(),
        )
        spec = EvolutionSpec(path=tfim2, total_time=9.0, steps=30)
        spec_shifted = EvolutionSpec(path=shifted, total_time=9.0, steps=30)
        a = error_triplet(spec)
        b = error_triplet(spec_shifted)
        assert a.eps_tot == pytest.approx(b.eps_tot, abs=1e-7)
        assert a.eps_adb == pytest.approx(b.eps_adb, abs=1e-7)
        assert a.eps_tro == pytest.approx(b.eps_tro, abs=1e-7)

    def test_adiabatic_error_decreases_with_time(self, tfim2):
        # pointwise the error oscillates (boundary interference produces
        # measured jumps up to ~1.7x between neighboring T), so the decrease
        # is asserted across 4x strides where the 1/T trend dominates
        psi_i = ground_state(tfim2.h_initial.matrix)
        psi_f = ground_state(tfim2.h_final.matrix)
        grid = [5.0, 9.0, 16.0, 20.0, 36.0, 64.0, 80.0, 144.0, 256.0]
        values = {
            t: fidelity_error(psi_f, exact_state_evolution(tfim2, t, psi_i))
            for t in grid
        }
        for t in grid:
            if 4 * t in values:
                assert values[4 * t] < values[t]

    def test_trotter_error_bounded_by_state_distance(self, tfim4):
        from daslab.evolve import exact_state_evolution as evolve_state
        from daslab.evolve import trotter_evolution

        psi_i = ground_state(tfim4.h_initial.matrix)
        for total_time, steps in ((10.0, 25), (40.0, 50), (90.0, 100)):
            spec = EvolutionSpec(path=tfim4, total_time=total_time, steps=steps)
            exact = evolve_state(tfim4, total_time, psi_i)
            tro = trotter_evolution(spec).matrix @ psi_i
            eps_tro = fidelity_error(exact, tro)
            distance = float(np.linalg.norm(exact - tro))
            assert eps_tro <= distance + 1e-12
            assert eps_tro <= np.sqrt(2.0 * distance) + 1e-12

    def test_degenerate_endpoint_rejected(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 0.0, 1.0])),
            HermitianOperator(np.diag([0.0, 1.0, 2.0])),
            linear_schedule(),
        )
        spec = EvolutionSpec(path=path, total_time=1.0, steps=2)
        with pytest.raises(DegenerateEndpoint):
            error_triplet(spec)

    def test_tied_block_ground_levels_rejected(self):
        # Z0 Z1 has one ground level in each site-reversal block, tied at -1.
        tied = model.pauli_sum_matrix([model.PauliTerm(1.0, ((0, "Z"), (1, "Z")))], 2)
        path = AdiabaticPath(tfim_path(2).h_initial, HermitianOperator(tied), linear_schedule())
        with pytest.raises(DegenerateEndpoint):
            endpoint_states(path)

    def test_endpoint_states_solve_no_full_space_matrix(self, monkeypatch):
        # At 8 sites the ground states come from the blocks, dims 136 and
        # 120: no eigh or eigvalsh of a 256 x 256 matrix is made.
        shapes = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def recording(a, *args, _solver=solver, **kwargs):
                shapes.append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        endpoint_states(tfim_path(8))
        assert sorted(shapes) == [(120, 120), (120, 120), (136, 136), (136, 136)]

    def test_triplet_validation(self):
        with pytest.raises(ValueError):
            ErrorTriplet(
                eps_tot=0.9,
                eps_adb=0.1,
                eps_tro=0.1,
                norm_dist=0.0,
                total_time=1.0,
                steps=2,
                dt=0.5,
            )


class TestAdiabaticBound:
    def test_linear_schedule_drops_second_derivative(self, tfim2):
        report = adiabatic_bound(tfim2, 40.0)
        diff = operator_norm(tfim2.h_final.matrix - tfim2.h_initial.matrix)
        # with p'' = 0 the integrand is purely the 7 ||H'||^2 / gap^3 part
        gaps = np.array(
            [
                np.diff(np.linalg.eigvalsh(
                    (1 - s) * tfim2.h_initial.matrix + s * tfim2.h_final.matrix
                ))[0]
                for s in np.linspace(0, 1, 201)
            ]
        )
        assert report.integral_term <= 7 * diff**2 / gaps.min() ** 3 / 40.0

    def test_doubling_time_halves_bound(self, tfim2):
        once = adiabatic_bound(tfim2, 25.0)
        twice = adiabatic_bound(tfim2, 50.0)
        assert twice.total == pytest.approx(once.total / 2, rel=1e-12)

    def test_quadrature_self_convergence(self, tfim4):
        coarse = adiabatic_bound(tfim4, 100.0, quad_points=201)
        fine = adiabatic_bound(tfim4, 100.0, quad_points=401)
        assert abs(fine.total - coarse.total) <= 1e-6 * abs(fine.total)

    def test_positive_finite_n8(self, tfim8):
        report = adiabatic_bound(tfim8, 100.0, quad_points=101)
        assert 0 < report.total < np.inf

    def test_second_derivative_contributes_for_curved_schedule(self, tfim2):
        curved = AdiabaticPath(
            tfim2.h_initial, tfim2.h_final, polynomial_schedule([0, 0, 3, -2])
        )
        linear = adiabatic_bound(tfim2, 30.0)
        smooth = adiabatic_bound(curved, 30.0)
        assert smooth.boundary_start == pytest.approx(0.0, abs=1e-15)  # p'(0) = 0
        assert smooth.total != pytest.approx(linear.total, rel=1e-3)

    def test_gap_closure_raises(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 1.0])),
            HermitianOperator(np.diag([1.0, 0.0])),
            linear_schedule(),
        )
        with pytest.raises(GapClosure):
            adiabatic_bound(path, 10.0)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            BoundReport(-0.1, 0.1, 0.1)
        with pytest.raises(NonFiniteResult):
            BoundReport(np.inf, 0.1, 0.1)

    def test_chunked_gaps_match_one_batch(self, tfim4, monkeypatch):
        whole = bound_profile(tfim4, 21)
        monkeypatch.setattr(model, "STACK_ENTRIES", 4 * tfim4.dim**2)  # 4 nodes a stack
        chunked = bound_profile(tfim4, 21)
        np.testing.assert_array_equal(chunked.gaps, whole.gaps)
        assert chunked.integral == whole.integral


class TestBlockedBound:
    """A path that site reversal maps to itself is bounded block by block;
    the full space gives the same profile."""

    @pytest.mark.parametrize(
        "path",
        [tfim_path(n, periodic) for n in (4, 5) for periodic in (False, True)]
        + [load_path_json(rotated_tfim_json(4))],
        ids=["tfim4-open", "tfim4-periodic", "tfim5-open", "tfim5-periodic", "rotated4"],
    )
    def test_blocks_match_the_full_space(self, path, monkeypatch):
        # With no state, parity +1 (which holds the palindromes) comes first.
        dims = [block.path.dim for block in model.reversal_blocks(path)]
        assert len(dims) == 2 and sum(dims) == path.dim and dims[0] > dims[1]
        blocked = bound_profile(path, 41)
        monkeypatch.setattr(
            errors, "reversal_blocks", lambda path: (ReversalBlock(path, None),)
        )
        full = bound_profile(path, 41)
        for mine, theirs in ((blocked.gaps, full.gaps), (blocked.d1, full.d1)):
            np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=0)
        assert blocked.integral == pytest.approx(full.integral, rel=1e-12, abs=0)

    def test_path_without_the_symmetry_stays_whole(self, monkeypatch):
        path = load_path_json(site0_field_json(4))
        assert model.reversal_blocks(path)[0].path is path
        seen = []
        energies = errors.path_energies
        monkeypatch.setattr(
            errors, "path_energies", lambda p, s: seen.append(p) or energies(p, s)
        )
        bound_profile(path, 21)
        assert seen == [path]


class TestScalingIndex:
    def test_inverse_time(self):
        samples = [(t, 3.0 / t) for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert scaling_index(samples) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_square(self):
        samples = [(t, 0.5 / t**2) for t in (1.0, 3.0, 9.0, 27.0)]
        assert scaling_index(samples) == pytest.approx(2.0, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            scaling_index([(1.0, 1.0), (2.0, 0.5), (3.0, 0.33)])

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            scaling_index([(1.0, 1.0), (2.0, -0.5), (3.0, 0.3), (4.0, 0.2)])
        with pytest.raises(ValueError):
            scaling_index([(1.0, 1.0), (1.0, 0.5), (3.0, 0.3), (4.0, 0.2)])

    def test_tolerates_jitter(self):
        rng = np.random.default_rng(8)
        samples = [
            (t, (2.0 / t) * float(np.exp(rng.normal(0, 0.02)))) for t in np.geomspace(1, 100, 12)
        ]
        assert scaling_index(samples) == pytest.approx(1.0, abs=0.05)
