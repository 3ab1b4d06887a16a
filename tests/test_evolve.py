import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from daslab import evolve, model
from daslab.exceptions import NoConvergence
from daslab.linalg import (
    ground_state,
    matrix_exp_hermitian,
    operator_norm,
    unitarity_defect,
)
from daslab.model import (
    AdiabaticPath,
    HermitianOperator,
    linear_schedule,
    load_path_json,
    path_at,
    path_matrix,
    path_spectrum,
    polynomial_schedule,
    tfim_path,
)
from daslab.evolve import (
    EvolutionSpec,
    Layer,
    UnitaryOperator,
    discrete_evolution,
    discrete_state,
    effective_hamiltonian,
    exact_evolution,
    exact_state_evolution,
    grid_points,
    interpolation_layers,
    solve_ivp,
    strang_step,
    ordered_product,
    trotter_evolution,
    trotter_fold,
    trotter_state,
    trotter_step_unitary,
    trotter_steps,
)

from conftest import (
    endpoint_solves,
    random_hermitian,
    random_state,
    record_eigh,
    record_step_dims,
    rotated_tfim_json,
    site0_field_json,
)


def diagonal_path(values_i, values_f):
    return AdiabaticPath(
        HermitianOperator(np.diag(np.asarray(values_i, dtype=float))),
        HermitianOperator(np.diag(np.asarray(values_f, dtype=float))),
        linear_schedule(),
    )


def proportional_path(c=2.5, dim=4, seed=3):
    """A path with H_f = c H_i, so H(s) = (1 + (c - 1) p(s)) H_i, and its
    one layer covering all of H(s)."""
    h = random_hermitian(np.random.default_rng(seed), dim)
    path = AdiabaticPath(HermitianOperator(h), HermitianOperator(c * h), linear_schedule())
    p = path.schedule.p
    return path, (Layer(matrix=h, weight=lambda s: 1.0 + (c - 1.0) * float(p(s))),)


@pytest.fixture(scope="module")
def exact_tfim2_t5():
    path = tfim_path(2)
    spec = EvolutionSpec(path=path, total_time=5.0, steps=10)
    return exact_evolution(spec, tol=1e-10)


def rotated_path(n_sites=3, phi=0.7):
    """TFIM with its transverse field rotated about z: Y terms make H_i
    complex, and an X-Y coupling makes H_f complex too."""
    field = [
        term
        for j in range(n_sites)
        for term in (
            {"coeff": -np.cos(phi), "factors": [[j, "X"]]},
            {"coeff": -np.sin(phi), "factors": [[j, "Y"]]},
        )
    ]
    ising = [{"coeff": -1.0, "factors": [[j, "Z"]]} for j in range(n_sites)]
    ising += [
        {"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]} for j in range(n_sites - 1)
    ]
    ising.append({"coeff": 0.3, "factors": [[0, "X"], [1, "Y"]]})
    return load_path_json({"n_sites": n_sites, "h_initial": field, "h_final": ising})


class TestGrids:
    def test_endpoints_include_boundaries(self):
        s = grid_points(5, "endpoints")
        assert s[0] == 0.0 and s[-1] == 1.0 and len(s) == 5

    def test_endpoints_single_step(self):
        assert np.allclose(grid_points(1, "endpoints"), [0.0])

    def test_left_grid(self):
        assert np.allclose(grid_points(4, "left"), [0.0, 0.25, 0.5, 0.75])

    def test_midpoint_grid(self):
        assert np.allclose(grid_points(4, "midpoint"), [0.125, 0.375, 0.625, 0.875])

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            grid_points(4, "right")


class TestOrderedProduct:
    def test_order_first_applied_first(self):
        rng = np.random.default_rng(0)
        mats = rng.normal(size=(5, 3, 3))
        expected = mats[4] @ mats[3] @ mats[2] @ mats[1] @ mats[0]
        assert np.allclose(ordered_product(mats), expected)

    def test_single(self):
        m = np.eye(2)
        assert np.allclose(ordered_product(np.array([m])), m)


class TestChunkedProduct:
    def test_products_hold_a_few_steps(self):
        # A whole stack of 100 step unitaries at dim 256 is 100 MB, and the
        # grid's spectrum 52 MB; the folded products hold their accumulator,
        # one step's factors and, for the discretized side, one stack of
        # eigendata.
        path = tfim_path(8)
        spec = EvolutionSpec(path=path, total_time=100.0, steps=100)
        trotter_step_unitary(spec, 0.0)  # diagonalize the layers up front
        for build in (lambda: trotter_evolution(spec), lambda: discrete_evolution(spec)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20


# Paths for the CF4 weight-grid checks, each with a tolerance and the step
# count at which exact_evolution converged at T = 5 with the Gauss-node
# product multiplied on its own.
CF4_PATHS = {
    "tfim4": (lambda: tfim_path(4), 1e-9, 512),
    "rotated3": (lambda: load_path_json(rotated_tfim_json(3)), 1e-9, 512),
    "tfim3-polynomial": (
        lambda: tfim_path(3, schedule=polynomial_schedule([0.0, 0.0, 3.0, -2.0])), 1e-10, 1024
    ),
}


class TestExactEvolution:
    @pytest.mark.parametrize("name", CF4_PATHS)
    def test_cf4_product_is_the_gauss_node_product(self, name):
        # Per step exp(-i (a2 H(s1) + a1 H(s2)) dt) acts first, then
        # exp(-i (a1 H(s1) + a2 H(s2)) dt), from H(s) at the Gauss nodes.
        path = CF4_PATHS[name][0]()
        total_time, steps = 5.0, 16
        nodes = (0.5 - 3**0.5 / 6, 0.5 + 3**0.5 / 6)
        a1, a2 = (3 - 2 * 3**0.5) / 12, (3 + 2 * 3**0.5) / 12
        reference = np.eye(path.dim, dtype=complex)
        for k in range(steps):
            h1, h2 = (path_at(path, (k + node) / steps).matrix for node in nodes)
            for h in (a2 * h1 + a1 * h2, a1 * h1 + a2 * h2):
                reference = matrix_exp_hermitian(h, total_time / steps) @ reference
        got = evolve._cf4_product(path, total_time, steps)
        assert np.abs(got - reference).max() <= 1e-13

    @pytest.mark.parametrize("name", CF4_PATHS)
    def test_cf4_converges_at_the_gauss_node_step_count(self, name):
        make, tol, substeps = CF4_PATHS[name]
        spec = EvolutionSpec(path=make(), total_time=5.0, steps=4)
        assert exact_evolution(spec, tol=tol).meta["substeps"] == substeps

    def test_time_independent(self):
        path = diagonal_path([0.0, 1.0, -2.0], [0.0, 1.0, -2.0])
        spec = EvolutionSpec(path=path, total_time=3.0, steps=4)
        result = exact_evolution(spec, tol=1e-10)
        expected = matrix_exp_hermitian(path.h_initial.matrix, 3.0)
        assert operator_norm(result.matrix - expected) <= 1e-9
        assert result.method == "exact"

    def test_commuting_endpoints_average(self):
        path = diagonal_path([0.0, 2.0], [4.0, -1.0])
        spec = EvolutionSpec(path=path, total_time=2.5, steps=4)
        result = exact_evolution(spec, tol=1e-10)
        mean = (path.h_initial.matrix + path.h_final.matrix) / 2
        assert operator_norm(result.matrix - matrix_exp_hermitian(mean, 2.5)) <= 1e-9

    def test_self_convergence_tfim2(self, exact_tfim2_t5):
        assert exact_tfim2_t5.meta["delta"] < 1e-10
        assert unitarity_defect(exact_tfim2_t5.matrix) <= 1e-10

    def test_fourth_order_step_count(self, exact_tfim2_t5):
        # A second-order product needs about 2^19 steps for this tolerance.
        assert exact_tfim2_t5.meta["substeps"] <= 2**10

    def test_substep_cap_raises(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=5.0, steps=4)
        with pytest.raises(NoConvergence):
            exact_evolution(spec, tol=1e-12, max_substeps=64)

    def test_tol_floor(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=1.0, steps=2)
        with pytest.raises(ValueError):
            exact_evolution(spec, tol=1e-13)

    def test_ode_route_agrees(self, tfim2, exact_tfim2_t5):
        psi = ground_state(tfim2.h_initial.matrix)
        via_ode = exact_state_evolution(tfim2, 5.0, psi)
        via_product = exact_tfim2_t5.matrix @ psi
        overlap = abs(np.vdot(via_ode, via_product))
        assert 1.0 - overlap <= 1e-9


class TestDiscreteEvolution:
    def test_single_step(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=2.0, steps=1)
        result = discrete_evolution(spec)
        expected = matrix_exp_hermitian(path_at(tfim2, 0.0).matrix, 2.0)
        assert operator_norm(result.matrix - expected) <= 1e-12

    def test_commuting_path_phases(self):
        values_i = np.array([0.0, 1.0, 3.0])
        values_f = np.array([2.0, -1.0, 0.5])
        path = diagonal_path(values_i, values_f)
        spec = EvolutionSpec(path=path, total_time=4.0, steps=7)
        result = discrete_evolution(spec)
        s = spec.grid_points()
        total = np.zeros(3)
        for sj in s:
            total += (1 - sj) * values_i + sj * values_f
        expected = np.diag(np.exp(-1j * spec.dt * total))
        assert operator_norm(result.matrix - expected) <= 1e-12

    def test_refinement_improves(self, tfim2, exact_tfim2_t5):
        errors = []
        for steps in (20, 40, 80):
            spec = EvolutionSpec(path=tfim2, total_time=5.0, steps=steps)
            errors.append(operator_norm(discrete_evolution(spec).matrix - exact_tfim2_t5.matrix))
        assert errors[1] < errors[0] and errors[2] < errors[1]

    def test_first_order_rate_tfim4(self, tfim4):
        exact = exact_evolution(
            EvolutionSpec(path=tfim4, total_time=10.0, steps=4), tol=1e-8
        )
        steps = np.array([100, 200, 400, 800])
        errs = np.array(
            [
                operator_norm(
                    discrete_evolution(
                        EvolutionSpec(path=tfim4, total_time=10.0, steps=int(L))
                    ).matrix
                    - exact.matrix
                )
                for L in steps
            ]
        )
        rate = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 0.75 <= rate <= 1.25
        assert np.all(errs * steps <= 2.0 * errs[0] * steps[0])


class TestTrotterEvolution:
    def test_single_layer_equals_discrete(self):
        path, layers = proportional_path()
        spec = EvolutionSpec(path=path, total_time=3.0, steps=12, layers=layers)
        a_d = discrete_evolution(spec)
        a_t = trotter_evolution(spec)
        assert operator_norm(a_d.matrix - a_t.matrix) <= 1e-12

    def test_commuting_layers_equal_discrete(self):
        path = diagonal_path([0.0, 1.0, -1.0, 0.5], [2.0, 0.0, 1.0, -0.5])
        spec = EvolutionSpec(path=path, total_time=6.0, steps=9)
        assert (
            operator_norm(discrete_evolution(spec).matrix - trotter_evolution(spec).matrix)
            <= 1e-12
        )

    def test_norm_distance_grows_with_dt(self, tfim4):
        dists = []
        for total_time in (10.0, 100.0):
            spec = EvolutionSpec(path=tfim4, total_time=total_time, steps=100)
            dists.append(
                operator_norm(
                    discrete_evolution(spec).matrix - trotter_evolution(spec).matrix
                )
            )
        assert dists[1] > 5 * dists[0]

    def test_trotter_error_bound_fitted_constant(self, tfim2):
        # spectral-distance-to-exact over a (T, L) grid against max ||H_k||^2 T^2 / L
        h_norm = max(
            operator_norm(tfim2.h_initial.matrix), operator_norm(tfim2.h_final.matrix)
        )
        ratios = []
        for total_time in (2.0, 4.0):
            exact = exact_evolution(
                EvolutionSpec(path=tfim2, total_time=total_time, steps=4), tol=1e-9
            )
            for steps in (16, 32, 64, 128):
                spec = EvolutionSpec(path=tfim2, total_time=total_time, steps=steps)
                err = operator_norm(trotter_evolution(spec).matrix - exact.matrix)
                ratios.append(err * steps / (h_norm**2 * total_time**2))
        assert max(ratios) <= 2.0

    def test_layer_order_first_is_rightmost(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=1.0, steps=4)
        s = 0.5
        first = matrix_exp_hermitian(0.5 * tfim2.h_initial.matrix, spec.dt)
        second = matrix_exp_hermitian(0.5 * tfim2.h_final.matrix, spec.dt)
        assert operator_norm(trotter_step_unitary(spec, s) - second @ first) <= 1e-12

    def test_diagonal_layer_scales_rows(self, tfim4):
        # H_Z is diagonal, so its factor is a row scaling in either position
        s_values = [0.0, 0.3, 1.0]
        for layers in (interpolation_layers(tfim4), interpolation_layers(tfim4)[::-1]):
            spec = EvolutionSpec(path=tfim4, total_time=6.0, steps=5, layers=layers)
            diagonal = [layer.eig[1] is None for layer in spec.layers]
            assert diagonal == [layer.label == "final" for layer in layers]
            for s, step in zip(s_values, trotter_steps(spec, s_values)):
                first, second = (
                    matrix_exp_hermitian(layer.operator_at(s), spec.dt) for layer in layers
                )
                assert operator_norm(step - second @ first) <= 1e-12

    def test_specs_sharing_layers_share_their_eigendata(self, tfim4, monkeypatch):
        layers = interpolation_layers(tfim4)
        seen = record_eigh(monkeypatch)
        for total_time in (2.0, 4.0, 8.0):
            spec = EvolutionSpec(path=tfim4, total_time=total_time, steps=5, layers=layers)
            trotter_steps(spec, spec.grid_points())
        # H_f is diagonal, so only H_i goes through eigh.
        assert len(seen) == 1
        assert endpoint_solves(seen, tfim4) == [1, 0]
        assert all("eig" in vars(layer) for layer in layers)

    def test_diagonal_layer_is_read_from_its_matrix(self, tfim4, monkeypatch):
        seen = record_eigh(monkeypatch)
        layer = Layer(matrix=tfim4.h_final.matrix, weight=lambda s: s)
        w, v = layer.eig
        assert v is None
        np.testing.assert_array_equal(w, np.diag(tfim4.h_final.matrix).real)
        assert seen == []

    def test_one_off_diagonal_pair_takes_eigh(self, monkeypatch):
        matrix = np.diag([1.0, -2.0, 0.5]).astype(complex)
        matrix[0, 2] = 1e-300j
        matrix[2, 0] = -1e-300j
        seen = record_eigh(monkeypatch)
        w, v = Layer(matrix=matrix, weight=lambda s: s).eig
        assert len(seen) == 1 and v is not None
        assert np.allclose((v * w) @ v.conj().T, matrix, atol=1e-14)

    def test_strang_step_is_the_symmetric_half_step_conjugate(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=6.0, steps=5)
        assert spec.strang_symmetric
        for s in (0.0, 0.3, 1.0):
            strang, half = strang_step(spec, s)
            a = tfim4.h_final.matrix * float(tfim4.schedule.p(s))
            assert np.allclose(np.diag(half), matrix_exp_hermitian(a, spec.dt / 2), atol=1e-14)
            step = trotter_step_unitary(spec, s)
            expected = half.conj()[:, None] * step * half[None, :]
            assert np.array_equal(strang, strang.T)
            assert operator_norm(strang - expected) <= 1e-14

    def test_strang_step_needs_a_real_then_diagonal_step(self, tfim4):
        reversed_layers = interpolation_layers(tfim4)[::-1]
        spec = EvolutionSpec(path=tfim4, total_time=6.0, steps=5, layers=reversed_layers)
        assert not spec.strang_symmetric
        with pytest.raises(ValueError):
            strang_step(spec, 0.5)

    def test_step_at_boundary_single_active_layer(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=4.0, steps=40)
        step = trotter_step_unitary(spec, 0.0)
        expected = matrix_exp_hermitian(tfim4.h_initial.matrix, spec.dt)
        assert operator_norm(step - expected) <= 1e-12

    def test_zero_dt_step_identity(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=1e-300, steps=1)
        assert operator_norm(trotter_step_unitary(spec, 0.3) - np.eye(4)) <= 1e-12

    def test_step_unitary_midpath(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=8.0, steps=10)
        assert unitarity_defect(trotter_step_unitary(spec, 0.5)) <= 1e-12

    def test_all_propagators_unitary(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=30.0, steps=25)
        for op in (discrete_evolution(spec), trotter_evolution(spec)):
            assert unitarity_defect(op.matrix) <= 1e-9

    def test_unitarity_enforced(self):
        with pytest.raises(ValueError):
            UnitaryOperator(np.diag([1.0, 2.0]), "exact")
        with pytest.raises(ValueError):
            UnitaryOperator(np.full((2, 2), np.nan), "exact")

    def test_layer_requires_parts(self):
        with pytest.raises(TypeError):
            Layer(matrix=np.eye(2))


def full_space_trotter(spec: EvolutionSpec) -> np.ndarray:
    """The Trotterized propagator as a tree product of the step unitaries on
    the full space, the reference that predates the fold."""
    return ordered_product(trotter_steps(spec, spec.grid_points()))


def full_space_fold(spec: EvolutionSpec) -> np.ndarray:
    """The Trotterized propagator folded from the identity on the full space."""
    return trotter_fold(spec, np.eye(spec.path.dim, dtype=complex))


def site0_field_spec(path: AdiabaticPath) -> EvolutionSpec:
    """A three-layer spec on a reversal-symmetric path: the third layer, a
    field on site 0 alone, breaks the reversal symmetry of the step, though
    both path layers keep it."""
    p = path.schedule.p
    field = Layer(
        matrix=model.pauli_sum_matrix([model.PauliTerm(-0.5, ((0, "Z"),))], path.dim.bit_length() - 1),
        weight=lambda s: float(p(s)),
    )
    layers = (*interpolation_layers(path), field)
    return EvolutionSpec(path=path, total_time=9.0, steps=37, layers=layers)


class TestBlockedTrotter:
    """The Trotterized product of a site-reversal block path is that block
    of the full-space product, whatever the layer order; a path without the
    symmetry is multiplied on the full space."""

    @pytest.mark.parametrize(
        "path, grid, reverse",
        [(tfim_path(n, periodic), "endpoints", False) for n in (2, 3, 4, 5) for periodic in (False, True)]
        + [
            (tfim_path(4), "midpoint", True),
            (tfim_path(5, periodic=True), "left", True),
            (load_path_json(rotated_tfim_json(4)), "endpoints", False),
            (load_path_json(rotated_tfim_json(3)), "midpoint", True),
        ],
        ids=[f"tfim{n}-{b}" for n in (2, 3, 4, 5) for b in ("open", "periodic")]
        + ["tfim4-reversed", "tfim5-periodic-reversed", "rotated4", "rotated3-reversed"],
    )
    def test_blocks_match_the_full_space_product(self, monkeypatch, path, grid, reverse):
        order = slice(None, None, -1 if reverse else 1)
        spec = EvolutionSpec(
            path=path, total_time=9.0, steps=37, grid=grid, layers=interpolation_layers(path)[order]
        )
        reference = full_space_trotter(spec)
        blocks = model.reversal_blocks(path)
        assert sum(block.path.dim for block in blocks) == path.dim
        dims = record_step_dims(monkeypatch)
        for parity, block in zip((1, -1), blocks):  # no state: parity +1 first
            block_spec = dataclasses.replace(
                spec, path=block.path, layers=interpolation_layers(block.path)[order]
            )
            gather = model._orbit_maps(path.dim, parity)[0]  # Q^T M Q
            got = trotter_evolution(block_spec).matrix
            assert np.abs(got - gather(reference)).max() <= 1e-13
        assert dims == [block.path.dim for block in blocks]

    def test_path_without_the_symmetry_is_multiplied_on_the_full_space(self, monkeypatch):
        path = load_path_json(site0_field_json(4))
        spec = EvolutionSpec(path=path, total_time=9.0, steps=37)
        reference = full_space_fold(spec)
        dims = record_step_dims(monkeypatch)
        np.testing.assert_array_equal(trotter_evolution(spec).matrix, reference)
        assert set(dims) == {16}

    def test_one_layer_without_the_symmetry_keeps_the_full_space(self, monkeypatch, tfim4):
        spec = site0_field_spec(tfim4)
        reference = full_space_fold(spec)
        dims = record_step_dims(monkeypatch)
        np.testing.assert_array_equal(trotter_evolution(spec).matrix, reference)
        assert set(dims) == {16}

    def test_block_layers_keep_the_weight_and_a_diagonal_matrix(self, tfim4, monkeypatch):
        full = interpolation_layers(tfim4)
        gathered = [model.operator_blocks(layer.matrix) for layer in full]
        seen = record_eigh(monkeypatch)
        for k, block in enumerate(model.reversal_blocks(tfim4)):  # parity +1, then -1
            for layer, whole, blocks in zip(interpolation_layers(block.path), full, gathered):
                np.testing.assert_array_equal(layer.matrix, blocks[k])
                assert layer.label == whole.label
                for s in (0.0, 0.3, 1.0):
                    assert layer.weight(s) == whole.weight(s)
                # H_Z's block stays exactly diagonal, so it takes no eigh.
                assert (layer.eig[1] is None) == (layer.label == "final")
        assert [len(m) for m in seen] == [10, 6]


FOLD_PATHS = {
    "tfim3": lambda: tfim_path(3),
    "tfim4": lambda: tfim_path(4),
    "rotated4": lambda: load_path_json(rotated_tfim_json(4)),
}


class TestFolds:
    """Every propagator and state is a left fold over the steps; the
    references are built apart from it."""

    @pytest.mark.parametrize("name", FOLD_PATHS)
    def test_discrete_product_is_the_ordered_step_exponentials(self, name):
        path = FOLD_PATHS[name]()
        spec = EvolutionSpec(path=path, total_time=9.0, steps=37)
        reference = np.eye(path.dim, dtype=complex)
        for s in spec.grid_points():
            reference = matrix_exp_hermitian(path_matrix(path, [s])[0], spec.dt) @ reference
        got = discrete_evolution(spec).matrix
        assert np.abs(got - reference).max() <= 1e-12

    @pytest.mark.parametrize("name", FOLD_PATHS)
    def test_discrete_state_is_the_product_on_the_state(self, name):
        path = FOLD_PATHS[name]()
        spec = EvolutionSpec(path=path, total_time=9.0, steps=37, grid="midpoint")
        spectrum = path_spectrum(path, spec.grid_points())
        psi = ground_state(path.h_initial.matrix)
        expected = discrete_evolution(spec).matrix @ psi
        assert np.abs(discrete_state(spectrum, spec.dt, psi) - expected).max() <= 1e-13

    @pytest.mark.parametrize("name", FOLD_PATHS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_trotter_state_is_the_propagator_on_the_state(self, name, reverse):
        path = FOLD_PATHS[name]()
        layers = interpolation_layers(path)[:: -1 if reverse else 1]
        spec = EvolutionSpec(path=path, total_time=30.0, steps=40, layers=layers)
        psi = ground_state(path.h_initial.matrix)
        expected = trotter_evolution(spec).matrix @ psi
        assert np.abs(trotter_state(spec, psi) - expected).max() <= 1e-13

    @pytest.mark.parametrize("name", [*FOLD_PATHS, "site0-field4", "site0-field-layer4"])
    def test_full_space_fold_matches_the_tree_product(self, name):
        if name == "site0-field-layer4":
            spec = site0_field_spec(tfim_path(4))
        else:
            path = load_path_json(site0_field_json(4)) if name == "site0-field4" else FOLD_PATHS[name]()
            spec = EvolutionSpec(path=path, total_time=9.0, steps=37)
        assert np.abs(full_space_fold(spec) - full_space_trotter(spec)).max() <= 1e-13


class TestStateKernels:
    @pytest.mark.parametrize("grid", ["endpoints", "left", "midpoint"])
    def test_trotter_state_matches_propagator_tfim4(self, tfim4, grid):
        psi = ground_state(tfim4.h_initial.matrix)
        spec = EvolutionSpec(path=tfim4, total_time=30.0, steps=40, grid=grid)
        expected = trotter_evolution(spec).matrix @ psi
        assert np.abs(trotter_state(spec, psi) - expected).max() <= 1e-12

    def test_trotter_state_matches_propagator_complex_path(self):
        path = rotated_path()
        assert np.abs(path.h_initial.matrix.imag).max() > 0
        assert np.abs(path.h_final.matrix.imag).max() > 0
        psi = ground_state(path.h_initial.matrix)
        spec = EvolutionSpec(path=path, total_time=12.0, steps=30)
        expected = trotter_evolution(spec).matrix @ psi
        assert np.abs(trotter_state(spec, psi) - expected).max() <= 1e-12

    def test_trotter_state_matches_propagator_diagonal_first(self, tfim4):
        # H_Z applied first: the state kernel starts with a diagonal layer
        layers = interpolation_layers(tfim4)[::-1]
        assert layers[0].eig[1] is None
        psi = ground_state(tfim4.h_initial.matrix)
        spec = EvolutionSpec(path=tfim4, total_time=30.0, steps=40, layers=layers)
        expected = trotter_evolution(spec).matrix @ psi
        assert np.abs(trotter_state(spec, psi) - expected).max() <= 1e-12

    def test_trotter_fold_memory_does_not_grow_with_the_steps(self, tfim4):
        # Each step's phases are formed when the fold reaches that step, so
        # the fold holds the grid, 160 kB, and one step's arrays: 0.16 MiB.
        # Tables of every step's phases per layer, 2 x 2*10^4 x 16 complex
        # entries plus their temporaries, peaked at 19.5 MiB here.
        spec = EvolutionSpec(path=tfim4, total_time=100.0, steps=20_000)
        for layer in spec.layers:
            layer.eig  # diagonalized up front
        psi = ground_state(tfim4.h_initial.matrix)
        tracemalloc.start()
        try:
            trotter_state(spec, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trotter_state_rejects_non_finite_state(self, tfim2):
        broken = Layer(matrix=tfim2.h_initial.matrix, weight=lambda s: float("nan"))
        spec = EvolutionSpec(path=tfim2, total_time=1.0, steps=2, layers=(broken,))
        with pytest.raises(ValueError):
            trotter_state(spec, ground_state(tfim2.h_initial.matrix))

    def test_ode_route_agrees_complex_path(self):
        path = rotated_path()
        psi = ground_state(path.h_initial.matrix)
        exact = exact_evolution(EvolutionSpec(path=path, total_time=5.0, steps=4), tol=1e-8)
        via_ode = exact_state_evolution(path, 5.0, psi)
        overlap = abs(np.vdot(via_ode, exact.matrix @ psi))
        assert 1.0 - overlap <= 1e-9


class TestEffectiveHamiltonian:
    def test_small_dt_limit(self, tfim2):
        steps = 50
        spec = EvolutionSpec(path=tfim2, total_time=1e-3 * steps, steps=steps)
        for s in (0.2, 0.7):
            eff = effective_hamiltonian(spec, s)
            assert operator_norm(eff.matrix - path_at(tfim2, s).matrix) < 1e-2

    def test_single_layer_exact(self):
        # one layer covering all of H(s): the step generator is H(s) itself
        path, layers = proportional_path()
        spec = EvolutionSpec(path=path, total_time=2.0, steps=8, layers=layers)
        for s in (0.0, 0.5, 1.0):
            h = path_at(path, s).matrix
            assert operator_norm(h) * spec.dt < np.pi  # inside the principal branch
            eff = effective_hamiltonian(spec, s)
            assert operator_norm(eff.matrix - h) <= 1e-8

    def test_boundary_recovers_initial(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=4.0, steps=40)  # dt = 0.1
        eff = effective_hamiltonian(spec, 0.0)
        assert operator_norm(eff.matrix - tfim4.h_initial.matrix) <= 1e-8

    def test_definitional_round_trip(self, tfim4):
        spec = EvolutionSpec(path=tfim4, total_time=30.0, steps=60)
        for s in (0.1, 0.5, 0.9):
            eff = effective_hamiltonian(spec, s)
            rebuilt = matrix_exp_hermitian(eff.matrix, spec.dt)
            assert operator_norm(rebuilt - trotter_step_unitary(spec, s)) <= 1e-8


class TestSpecValidation:
    def test_interpolation_layers_weights(self, tfim2):
        layer_i, layer_f = interpolation_layers(tfim2)
        assert layer_i.weight(0.0) == 1.0 and layer_i.weight(1.0) == 0.0
        assert layer_f.weight(0.0) == 0.0 and layer_f.weight(1.0) == 1.0

    def test_rejects_bad_parameters(self, tfim2):
        with pytest.raises(ValueError):
            EvolutionSpec(path=tfim2, total_time=0.0, steps=5)
        with pytest.raises(ValueError):
            EvolutionSpec(path=tfim2, total_time=1.0, steps=0)
        with pytest.raises(ValueError):
            EvolutionSpec(path=tfim2, total_time=1.0, steps=5, grid="diagonal")

    def test_dt(self, tfim2):
        spec = EvolutionSpec(path=tfim2, total_time=5.0, steps=50)
        assert spec.dt == pytest.approx(0.1)

    def test_grid_choice_sensitivity(self, tfim2, exact_tfim2_t5):
        # all three sample grids converge to the same propagator; the
        # spread between them is itself O(1/L)
        errors = {}
        for grid in ("endpoints", "left", "midpoint"):
            spec = EvolutionSpec(path=tfim2, total_time=5.0, steps=200, grid=grid)
            errors[grid] = operator_norm(
                discrete_evolution(spec).matrix - exact_tfim2_t5.matrix
            )
        assert max(errors.values()) <= 0.2
        assert max(errors.values()) - min(errors.values()) <= max(errors.values())


class TestDop853MatchesScipy:
    """The in-house DOP853 against SciPy's ``solve_ivp(method="DOP853")`` at
    the same tolerances: the same final state, bit for bit, after the same
    number of right-hand-side evaluations.  SciPy is imported here only."""

    @staticmethod
    def scipy_solve(fun, t_span, y0, rtol):
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        return scipy_solve_ivp(
            fun, t_span, y0, method="DOP853", rtol=rtol, atol=evolve.ODE_ATOL
        )

    def assert_same(self, fun, y0, rtol, t_span=(0.0, 1.0)):
        ours = solve_ivp(fun, t_span, y0, rtol)
        theirs = self.scipy_solve(fun, t_span, y0, rtol)
        assert ours.success and theirs.success
        assert np.array_equal(ours.y, theirs.y[:, -1])
        assert ours.nfev == theirs.nfev
        return theirs

    def paired(self, monkeypatch) -> list:
        """Make exact_state_evolution's integrator also run SciPy on the same
        right-hand side; return the (ours, SciPy's) results it collects."""
        pairs = []

        def both(fun, t_span, y0, rtol):
            ours = solve_ivp(fun, t_span, y0, rtol)
            pairs.append((ours, self.scipy_solve(fun, t_span, y0, rtol)))
            return ours

        monkeypatch.setattr(evolve, "solve_ivp", both)
        return pairs

    @pytest.mark.parametrize("path_kind", ["tfim4_sector", "rotated4"])
    def test_fig2_state_route(self, tmp_path, monkeypatch, path_kind):
        if path_kind == "tfim4_sector":
            path = tfim_path(4)
        else:
            target = tmp_path / "rotated.json"
            target.write_text(json.dumps(rotated_tfim_json(4)))
            path = model.load_path_json(target)
        psi = ground_state(path.h_initial.matrix)
        block = model.reversal_blocks(path, psi)[0]
        path, psi = block.path, block.project(psi)
        # fig2's real-view product on the TFIM block, the complex one on the
        # rotated chain.
        assert path.h_initial.matrix.imag.any() == (path_kind == "rotated4")
        pairs = self.paired(monkeypatch)
        for total_time in (8.0, 40.0):
            exact_state_evolution(path, total_time, psi, rtol=1e-9)
        assert len(pairs) == 2
        for ours, theirs in pairs:
            assert theirs.success
            assert np.array_equal(ours.y, theirs.y[:, -1])
            assert ours.nfev == theirs.nfev

    def test_random_hermitian_problem_with_rejected_steps(self):
        rng = np.random.default_rng(11)
        h0, h1 = random_hermitian(rng, 16), random_hermitian(rng, 16)
        psi = random_state(rng, 16)

        def rhs(s, y):
            return -1j * 60.0 * ((1 - s) * (h0 @ y) + s * (h1 @ y))

        theirs = self.assert_same(rhs, psi, 1e-10)
        # Two evaluations pick the first step; each attempt takes twelve.
        attempts = (theirs.nfev - 2) // 12
        assert attempts > len(theirs.t) - 1

    def test_real_problem(self):
        def oscillator(t, y):
            return np.array([y[1], -y[0]])

        self.assert_same(oscillator, np.array([1.0, 0.0]), 1e-8, t_span=(0.0, 10.0))

    def test_nan_right_hand_side_fails_as_scipy_does(self):
        def rhs(s, y):
            return np.full_like(y, np.nan) if s > 0.3 else -1j * y

        y0 = np.ones(4, dtype=complex)
        with np.errstate(invalid="ignore"):
            ours = solve_ivp(rhs, (0.0, 1.0), y0, 1e-9)
            theirs = self.scipy_solve(rhs, (0.0, 1.0), y0, 1e-9)
        assert not ours.success and not theirs.success
        assert ours.message == theirs.message
        assert ours.nfev == theirs.nfev
        assert np.array_equal(ours.y, theirs.y[:, -1])

    def test_nan_path_raises_no_convergence_with_scipy_message(self, tfim2):
        # p(s) is NaN on (0.5, 1): every step into it is rejected.
        schedule = dataclasses.replace(
            tfim2.schedule, p=lambda s: np.nan if 0.5 < s < 1.0 else float(s)
        )
        path = dataclasses.replace(tfim2, schedule=schedule)
        psi = ground_state(tfim2.h_initial.matrix)
        with np.errstate(invalid="ignore"), pytest.raises(NoConvergence) as failure:
            exact_state_evolution(path, 5.0, psi)
        assert str(failure.value) == (
            "state integration failed: Required step size is less than spacing between numbers."
        )

    def test_rtol_below_the_floor_is_refused(self, tfim2):
        psi = ground_state(tfim2.h_initial.matrix)
        with pytest.raises(ValueError):
            exact_state_evolution(tfim2, 5.0, psi, rtol=1e-15)
        assert evolve.ODE_RTOL_FLOOR == 100 * np.finfo(float).eps
        exact_state_evolution(tfim2, 5.0, psi, rtol=evolve.ODE_RTOL_FLOOR)
