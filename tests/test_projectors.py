import numpy as np
import pytest

from daslab.exceptions import DegenerateGround, GapClosure, WrongDimension
from daslab.linalg import operator_norm
from daslab.model import AdiabaticPath, HermitianOperator, linear_schedule, path_at
from daslab.projectors import (
    commutator_norm,
    derivative_identity_residuals,
    projector_frame,
    shifted_derivative,
    two_level_commutator_norm,
)

from conftest import random_hermitian, record_eigh


def random_two_level_path(rng):
    def herm2():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (m + m.conj().T) / 2
        h = h + (1.5 + abs(h[0, 0])) * np.diag([0.0, 1.0])  # keep a gap open
        return HermitianOperator(h)

    return AdiabaticPath(herm2(), herm2(), linear_schedule())


def frame_invariant_defects(h, frame):
    h = np.asarray(h, dtype=complex)
    p, g = frame.projector, frame.pseudo_inverse
    eye = np.eye(len(h))
    shifted = h - frame.ground_energy * eye
    return {
        "idempotent": operator_norm(p @ p - p),
        "hermitian": float(np.abs(p - p.conj().T).max()),
        "orthogonal": max(operator_norm(g @ p), operator_norm(p @ g)),
        "inverse": max(
            operator_norm(g @ shifted - (eye - p)),
            operator_norm(shifted @ g - (eye - p)),
        ),
    }


class TestProjectorFrame:
    def test_two_level_diagonal(self):
        frame = projector_frame(np.diag([0.0, 1.0]))
        assert np.allclose(frame.projector, np.diag([1.0, 0.0]))
        assert np.allclose(frame.pseudo_inverse, np.diag([0.0, 1.0]))
        assert frame.ground_energy == 0.0

    def test_three_level_diagonal(self):
        frame = projector_frame(np.diag([0.0, 2.0, 5.0]))
        assert np.allclose(frame.pseudo_inverse, np.diag([0.0, 0.5, 0.2]))

    def test_tfim_midpath_invariants(self, tfim4):
        h = path_at(tfim4, 0.3).matrix
        defects = frame_invariant_defects(h, projector_frame(h))
        assert defects["idempotent"] <= 1e-10
        assert defects["hermitian"] <= 1e-10
        assert defects["orthogonal"] <= 1e-9
        assert defects["inverse"] <= 1e-9

    def test_invariants_random_gapped(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            dim = int(rng.integers(2, 65))
            h = random_hermitian(rng, dim)
            w = np.linalg.eigvalsh(h)
            if w[1] - w[0] <= 1e-6:
                h = h + np.diag(np.linspace(0, dim, dim))  # reopen the gap
            frame = projector_frame(h)
            defects = frame_invariant_defects(h, frame)
            assert defects["idempotent"] <= 1e-10
            assert defects["hermitian"] <= 1e-10
            assert defects["orthogonal"] <= 1e-9
            assert defects["inverse"] <= 1e-9

    def test_degenerate_ground_rejected(self):
        with pytest.raises(DegenerateGround):
            projector_frame(np.diag([0.0, 0.0, 1.0]))


class TestDerivativeIdentities:
    def test_constant_path_residuals_vanish(self):
        rng = np.random.default_rng(67)
        h = random_hermitian(rng, 4)
        h += np.diag(np.arange(4.0) * 2)
        op = HermitianOperator(h)
        path = AdiabaticPath(op, op, linear_schedule())
        res_p, res_g = derivative_identity_residuals(path, 0.5, 1e-4)
        assert res_p <= 1e-10
        assert res_g <= 1e-10

    def test_tfim_residual_small(self, tfim4):
        res_p, res_g = derivative_identity_residuals(tfim4, 0.5, 1e-4)
        assert res_p <= 1e-6
        assert res_g <= 1e-5

    def test_second_order_rate(self, tfim4):
        steps = [2e-3, 1e-3, 5e-4]
        res = [derivative_identity_residuals(tfim4, 0.5, h) for h in steps]
        for i in (0, 1):
            ratio_p = res[i][0] / res[i + 1][0]
            ratio_g = res[i][1] / res[i + 1][1]
            assert 3.0 <= ratio_p <= 5.0
            assert 3.0 <= ratio_g <= 5.0

    def test_gap_closure_guard(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 1.0])),
            HermitianOperator(np.diag([1.0, 0.0])),
            linear_schedule(),
        )
        with pytest.raises(GapClosure):
            derivative_identity_residuals(path, 0.5, 1e-4)

    def test_each_probe_diagonalized_once(self, tfim4, monkeypatch):
        seen = record_eigh(monkeypatch)
        derivative_identity_residuals(tfim4, 0.5, 1e-3)
        assert [a.shape for a in seen] == [(16, 16)] * 3
        seen.clear()
        commutator_norm(tfim4, 0.5)
        assert [a.shape for a in seen] == [(16, 16)]

    def test_domain_guard(self, tfim4):
        with pytest.raises(ValueError):
            derivative_identity_residuals(tfim4, 0.0, 1e-3)

    def test_shifted_derivative_traceless_on_ground(self, tfim4):
        from daslab.linalg import hermitian_eig

        s = 0.4
        dh = shifted_derivative(tfim4, s)
        ground = hermitian_eig(path_at(tfim4, s).matrix)[1][:, 0]
        assert abs(ground.conj() @ dh @ ground) <= 1e-10


class TestTwoLevelCommutator:
    def test_random_two_level_vanishes(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            path = random_two_level_path(rng)
            assert two_level_commutator_norm(path, 0.5) <= 1e-12

    def test_three_level_generically_nonzero(self):
        rng = np.random.default_rng(73)
        values = []
        for _ in range(25):
            h_i = random_hermitian(rng, 3) + np.diag([0.0, 3.0, 7.0])
            h_f = random_hermitian(rng, 3) + np.diag([0.0, 3.0, 7.0])
            path = AdiabaticPath(
                HermitianOperator(h_i), HermitianOperator(h_f), linear_schedule()
            )
            values.append(commutator_norm(path, 0.5))
        assert np.median(values) > 1e-6

    def test_dimension_guard(self, tfim4):
        with pytest.raises(WrongDimension):
            two_level_commutator_norm(tfim4, 0.5)


class TestEvolutionDerivativeRelation:
    def test_generator_relation(self, tfim2):
        # A(s) := time-ordered evolution from s to 1 satisfies dA/ds = i T A H(s);
        # one-sided differences converge at O(h), centered ones at O(h^2)
        total_time = 3.0

        def evolve_from(s, substeps=8192):
            mids = s + (np.arange(substeps) + 0.5) * (1.0 - s) / substeps
            width = (1.0 - s) / substeps
            out = np.eye(4, dtype=complex)
            for m in mids:
                h = path_at(tfim2, float(m)).matrix
                w, v = np.linalg.eigh(h)
                step = (v * np.exp(-1j * w * total_time * width)) @ v.conj().T
                out = step @ out  # later s acts later, i.e. on the left
            return out

        s = 0.4
        a_s = evolve_from(s)
        expected = 1j * total_time * a_s @ path_at(tfim2, s).matrix
        forward = {}
        for h in (4e-3, 2e-3):
            forward[h] = operator_norm((evolve_from(s + h) - a_s) / h - expected)
            central = operator_norm(
                (evolve_from(s + h) - evolve_from(s - h)) / (2 * h) - expected
            )
            assert central <= 0.05 * forward[h]
        assert 1.7 <= forward[4e-3] / forward[2e-3] <= 2.3
