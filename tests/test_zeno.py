import numpy as np
import pytest

from daslab.evolve import Layer, interpolation_layers
from daslab import zeno
from daslab.exceptions import AllFail, AllPass
from daslab.linalg import ground_state, matrix_exp_hermitian, operator_norm, unitary_eig
from daslab.model import (
    load_path_json,
    path_at,
    path_matrix,
    polynomial_schedule,
    reversal_blocks,
    tfim_path,
)
from daslab.zeno import (
    UNITARY_FAMILY,
    OperatorFamily,
    ZenoTrace,
    critical_step_search,
    effective_family,
    hermitian_family,
    near_degeneracy_test,
)

from conftest import endpoint_solves, odd_ground_json, record_eigh, rotated_tfim_json


def constant_family(dim=4, seed=1):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    return OperatorFamily(evaluate=lambda s: h, kind="hermitian-path")


class TestNearDegeneracyTest:
    def test_constant_family_all_ones(self):
        trace = near_degeneracy_test(constant_family(), steps=20)
        assert np.allclose(trace.overlaps, 1.0, atol=1e-12)
        assert trace.passed

    def test_exact_path_sufficient_steps(self, tfim8):
        # the sufficiency condition steps > 2 ||H'|| / min gap guarantees the
        # continuation tracks the true ground state; the 0.99 overlap
        # threshold needs a modest extra factor on top of it
        diff_norm = operator_norm(path_at(tfim8, 0.0, 1).matrix)
        gaps = np.diff(np.linalg.eigvalsh(path_matrix(tfim8, np.linspace(0, 1, 101))))[
            :, 0
        ]
        sufficient = int(np.ceil(2 * diff_norm / gaps.min()))

        family = hermitian_family(tfim8)
        tracked = near_degeneracy_test(family, steps=sufficient, threshold=0.5)
        assert tracked.passed  # never hops branches

        state = ground_state(family.evaluate(0.0))
        for j in range(1, sufficient + 1):
            vectors = np.linalg.eigh(family.evaluate(j / sufficient))[1]
            state = vectors[:, int(np.argmax(np.abs(vectors.conj().T @ state) ** 2))]
        final = ground_state(path_at(tfim8, 1.0).matrix)
        assert abs(np.vdot(final, state)) ** 2 > 1.0 - 1e-9

        trace_fine = near_degeneracy_test(family, steps=10 * sufficient)
        assert trace_fine.passed

    def test_effective_family_fails_at_unit_step(self, tfim8):
        psi = ground_state(tfim8.h_initial.matrix)
        trace = near_degeneracy_test(
            effective_family(tfim8, 1.0), steps=100, initial_state=psi
        )
        assert not trace.passed
        assert trace.min_overlap < 0.5

    def test_doubling_steps_keeps_exact_path_passing(self, tfim4):
        family = hermitian_family(tfim4)
        base = near_degeneracy_test(family, steps=100)
        double = near_degeneracy_test(family, steps=200)
        assert base.passed and double.passed

    def test_overlap_invariant_under_eigenvector_phases(self, tfim4):
        family = hermitian_family(tfim4)
        psi = ground_state(tfim4.h_initial.matrix)
        rephased = OperatorFamily(
            evaluate=family.evaluate, kind=family.kind
        )
        a = near_degeneracy_test(family, steps=30, initial_state=psi)
        b = near_degeneracy_test(rephased, steps=30, initial_state=np.exp(0.9j) * psi)
        assert np.allclose(a.overlaps, b.overlaps, atol=1e-12)

    def test_single_layer_family_passes_below_branch(self, tfim4):
        lambdas = np.max(
            np.linalg.eigvalsh(path_matrix(tfim4, np.linspace(0, 1, 51))), axis=1
        ) - np.min(np.linalg.eigvalsh(path_matrix(tfim4, np.linspace(0, 1, 51))), axis=1)
        dt = 0.9 * np.pi / lambdas.max()
        # one step of the whole H(s): no Trotter splitting
        family = OperatorFamily(
            evaluate=lambda s: matrix_exp_hermitian(path_at(tfim4, s).matrix, dt),
            kind=UNITARY_FAMILY,
        )
        psi = ground_state(tfim4.h_initial.matrix)
        trace = near_degeneracy_test(family, steps=80, initial_state=psi)
        assert trace.passed

    def test_unitary_family_requires_initial_state(self, tfim4):
        with pytest.raises(ValueError):
            near_degeneracy_test(effective_family(tfim4, 0.5), steps=10)

    def test_dip_coincides_with_near_degenerate_phases(self, tfim8):
        # where the continuation first dips, the two most-overlapping
        # eigenvectors of the step unitary sit at nearly equal phases
        psi = ground_state(tfim8.h_initial.matrix)
        family = effective_family(tfim8, 1.0)
        steps = 100
        trace = near_degeneracy_test(family, steps=steps, initial_state=psi)
        dip = trace.first_dip
        assert dip is not None

        state = psi
        gaps_along_path = []
        dip_gap = None
        for j in range(1, steps + 1):
            phases, vectors = unitary_eig(family.evaluate(j / steps))
            squared = np.abs(vectors.conj().T @ state) ** 2
            order = np.argsort(squared)[::-1]
            first, second = order[0], order[1]
            delta = abs(np.angle(np.exp(1j * (phases[first] - phases[second]))))
            gaps_along_path.append(delta)
            if j - 1 == dip:
                dip_gap = delta
            state = vectors[:, first]
        assert dip_gap <= np.percentile(gaps_along_path, 10)


class TestCriticalStepSearch:
    def test_all_pass_raises(self, tfim2):
        with pytest.raises(AllPass):
            critical_step_search(tfim2, [0.01, 0.02, 0.03], steps=30)

    def test_all_fail_raises(self, tfim2):
        # threshold just below 1 with a coarse trace still passes on a gapped
        # path, so force failure with an unreachable threshold instead
        with pytest.raises(AllFail):
            critical_step_search(
                tfim2, [0.1, 0.2], threshold=1.0 - 1e-15, steps=5
            )

    def test_layers_diagonalized_once_for_the_whole_grid(self, tfim2, monkeypatch):
        # H_i is never diagonalized on the full space: its block in the
        # initial state's reversal sector is, once for the initial state
        # and once for the layer; H_f and its block never: the layer is
        # diagonal.  That holds however many dt values the grid has.
        sector = reversal_blocks(tfim2, ground_state(tfim2.h_initial.matrix))[0].path
        assert sector.dim == 3
        seen = record_eigh(monkeypatch)
        with pytest.raises(AllPass):
            critical_step_search(tfim2, [0.01, 0.02, 0.03], steps=30)
        assert endpoint_solves(seen, tfim2) == [0, 0]
        assert endpoint_solves(seen, sector) == [2, 0]

    def test_first_dt_failing_brackets_at_the_start(self, tfim2, monkeypatch):
        canned = iter(
            ZenoTrace(overlaps=np.array([1.0, overlap]), threshold=0.99)
            for overlap in (0.5, 1.0, 0.5)
        )
        monkeypatch.setattr(zeno, "near_degeneracy_test", lambda *args, **kwargs: next(canned))
        result = critical_step_search(tfim2, [0.1, 0.3, 0.4], steps=2)
        assert list(result.passes) == [False, True, False]
        assert result.critical_dt == result.first_fail_dt == 0.1
        assert result.resolution == pytest.approx(0.1)
        assert not result.monotone

    def test_grid_validation(self, tfim2):
        with pytest.raises(ValueError):
            critical_step_search(tfim2, [])
        with pytest.raises(ValueError):
            critical_step_search(tfim2, [0.2, 0.1])

    def test_bracketing_and_monotone_flag(self, tfim8):
        result = critical_step_search(
            tfim8, [0.4, 0.6, 0.8, 1.0], threshold=0.99, steps=100
        )
        assert result.first_fail_dt in (0.6, 0.8, 1.0)
        assert result.critical_dt == pytest.approx(
            result.first_fail_dt - result.resolution
        )
        assert result.passes[0]
        assert not result.passes[-1]


class TestZenoTraceRecord:
    def test_pass_threshold_consistency(self):
        from daslab.zeno import ZenoTrace

        trace = ZenoTrace(overlaps=np.array([0.995, 0.992]), threshold=0.99)
        assert trace.passed and trace.min_overlap == pytest.approx(0.992)
        trace = ZenoTrace(overlaps=np.array([0.995, 0.92]), threshold=0.99)
        assert not trace.passed
        assert trace.first_dip == 1

    def test_overlap_range_validated(self):
        from daslab.zeno import ZenoTrace

        with pytest.raises(ValueError):
            ZenoTrace(overlaps=np.array([1.5]), threshold=0.99)


def generic_twin(family):
    """The same step family, diagonalized by unitary_eig on U itself."""
    return OperatorFamily(evaluate=family.evaluate, kind=UNITARY_FAMILY)


def count_complex_eigh(monkeypatch) -> list:
    """Record the matrix size of every complex np.linalg.eigh call from now on."""
    sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if np.iscomplexobj(a):
            sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


TFIM_CASES = [
    (4, False, None),
    (4, True, (0.0, 0.0, 3.0, -2.0)),
    (6, False, (0.0, 0.0, 3.0, -2.0)),
    (6, True, None),
]


class TestSymmetrizedFamily:
    """Two real layers: the family diagonalizes the Strang-symmetrized step."""

    @pytest.mark.parametrize("n_sites, periodic, coefficients", TFIM_CASES)
    def test_eigenvectors_diagonalize_the_step(self, n_sites, periodic, coefficients):
        schedule = polynomial_schedule(coefficients) if coefficients else None
        path = tfim_path(n_sites, periodic, schedule)
        for dt in (0.4, 1.2):
            family = effective_family(path, dt)
            assert family.diagonalize is not None
            for s in (0.0, 0.37, 0.5, 1.0):
                phases, v = family.eigendata(s)
                u = family.evaluate(s)
                rotated = v.conj().T @ u @ v
                off = rotated - np.diag(np.diag(rotated))
                assert np.abs(off).max() <= 1e-10
                assert np.allclose(np.diag(rotated), np.exp(-1j * phases), atol=1e-10)
                assert np.abs(v.conj().T @ v - np.eye(len(v))).max() <= 1e-12

    @pytest.mark.parametrize("n_sites, periodic, coefficients", TFIM_CASES)
    def test_continuation_matches_generic(self, n_sites, periodic, coefficients):
        schedule = polynomial_schedule(coefficients) if coefficients else None
        path = tfim_path(n_sites, periodic, schedule)
        psi = ground_state(path.h_initial.matrix)
        for dt in (0.2, 0.4, 0.8, 1.2):
            family = effective_family(path, dt)
            real = near_degeneracy_test(family, steps=60, initial_state=psi)
            generic = near_degeneracy_test(generic_twin(family), steps=60, initial_state=psi)
            if generic.passed:
                assert real.passed
                assert np.abs(real.overlaps - generic.overlaps).max() <= 1e-12
            # The routes must agree up to the first step whose successor is
            # ambiguous (margin) or ill-conditioned (gap).  The gap cut-off
            # replaces a margin-only rule, which these cases break: at
            # dt = 1.2 the routes part at steps with margins of 0.001 to 0.94,
            # where the chosen eigenphase is within 2.2e-4 of another.  A
            # perturbation dU turns an eigenvector by about |dU| / gap, and
            # the routes' rounding, carried along the continuation, reaches
            # ~1e-13 here, so agreement to 1e-9 needs gaps of 1e-3 or more.
            # At s = 1 the TFIM step is e^{-i H_Z dt}, whose eigenphases are
            # degenerate.
            ambiguous = (np.minimum(real.margins, generic.margins) < 1e-6) | (
                np.minimum(real.gaps, generic.gaps) < 1e-3
            )
            stop = np.argmax(ambiguous) if ambiguous.any() else len(real.overlaps)
            assert np.abs(real.overlaps[:stop] - generic.overlaps[:stop]).max() <= 1e-9

    def test_dense_last_layer_takes_the_generic_path(self, tfim4):
        # H_X applied last: no diagonal half step, so U is diagonalized directly
        layers = interpolation_layers(tfim4)[::-1]
        assert effective_family(tfim4, 0.4, layers).diagonalize is None

    def test_real_family_makes_no_complex_eigh_per_point(self, tfim4, monkeypatch):
        psi = ground_state(tfim4.h_initial.matrix)
        family = effective_family(tfim4, 0.4)
        sizes = count_complex_eigh(monkeypatch)
        near_degeneracy_test(family, steps=25, initial_state=psi)
        assert sizes == []

    def test_complex_layer_takes_the_generic_path(self, monkeypatch):
        path = load_path_json(rotated_tfim_json(4))
        family = effective_family(path, 0.4)
        assert family.diagonalize is None
        psi = ground_state(path.h_initial.matrix)
        sizes = count_complex_eigh(monkeypatch)
        near_degeneracy_test(family, steps=25, initial_state=psi)
        assert sizes.count(16) == 25

    def test_other_layer_sets_take_the_generic_path(self, tfim4):
        h_x, h_z = tfim4.h_initial.matrix, tfim4.h_final.matrix
        half = lambda s: 0.5  # noqa: E731
        three = (
            Layer(matrix=h_x, weight=half),
            Layer(matrix=h_z, weight=half),
            Layer(matrix=h_x, weight=half),
        )
        assert effective_family(tfim4, 0.4, three).diagonalize is None
        assert hermitian_family(tfim4).diagonalize is None


class TestMargins:
    def test_margins_and_gaps_replayed(self, tfim4):
        psi = ground_state(tfim4.h_initial.matrix)
        family = effective_family(tfim4, 1.2)
        trace = near_degeneracy_test(family, steps=30, initial_state=psi)
        state = psi
        for j in range(1, 31):
            phases, vectors = family.eigendata(j / 30)
            squared = np.abs(vectors.conj().T @ state) ** 2
            best = int(np.argmax(squared))
            top = np.sort(squared)
            assert trace.margins[j - 1] == pytest.approx(top[-1] - top[-2], abs=1e-12)
            others = np.delete(phases, best)
            circle = np.abs(np.angle(np.exp(1j * (others - phases[best]))))
            assert trace.gaps[j - 1] == pytest.approx(circle.min(), abs=1e-12)
            state = vectors[:, best]
        assert np.all(trace.margins >= 0) and np.all(trace.margins <= trace.overlaps)
        # the last step is e^{-i H_Z dt}: its eigenphases are degenerate
        assert trace.gaps[-1] <= 1e-12 < trace.gaps[:-1].min()

    def test_hermitian_gaps_are_energy_gaps(self, tfim4):
        trace = near_degeneracy_test(hermitian_family(tfim4), steps=20)
        energies = np.linalg.eigvalsh(path_matrix(tfim4, np.arange(1, 21) / 20))
        assert np.allclose(trace.gaps, energies[:, 1] - energies[:, 0], atol=1e-10)

    @pytest.mark.parametrize("record", ["margins", "gaps"])
    def test_records_shape_checked(self, record):
        with pytest.raises(ValueError):
            ZenoTrace(
                overlaps=np.array([0.9, 0.8]),
                threshold=0.5,
                **{record: np.array([0.1])},
            )


class TestReversalSectorContinuation:
    """The sweeps continue inside the initial state's reversal sector; at a
    passing dt that gives the full-space overlaps."""

    @pytest.mark.parametrize(
        "hamiltonian, dt",
        [(odd_ground_json(), 0.8), (None, 0.4), (rotated_tfim_json(6), 0.4)],
        ids=["odd-sector", "tfim6", "rotated6"],
    )
    def test_sector_matches_full_space(self, hamiltonian, dt):
        path = tfim_path(6) if hamiltonian is None else load_path_json(hamiltonian)
        psi = ground_state(path_at(path, 0.0).matrix)
        block = reversal_blocks(path, psi)[0]
        sector, phi = block.path, block.project(psi)
        assert sector.dim < path.dim
        for make in (lambda p: effective_family(p, dt), hermitian_family):
            full = near_degeneracy_test(make(path), initial_state=psi)
            blocked = near_degeneracy_test(make(sector), initial_state=phi)
            assert full.passed and blocked.passed
            assert np.abs(blocked.overlaps - full.overlaps).max() <= 1e-12
