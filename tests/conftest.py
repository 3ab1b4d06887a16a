import numpy as np
import pytest

from daslab import evolve
from daslab.model import tfim_path

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def record_eigh(monkeypatch) -> list:
    """Record a copy of every matrix or stack passed to np.linalg.eigh from
    now on."""
    seen = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


def record_step_dims(monkeypatch) -> list[int]:
    """Record the dimension on which every Trotter product or state is
    folded through ``evolve.trotter_fold`` from now on."""
    dims = []
    trotter_fold = evolve.trotter_fold

    def recording(spec, x):
        dims.append(len(x))
        return trotter_fold(spec, x)

    monkeypatch.setattr(evolve, "trotter_fold", recording)
    return dims


def endpoint_solves(seen: list, path) -> list[int]:
    """How many recorded eigh inputs equal H_i, and how many equal H_f."""
    return [
        sum(a.shape == m.shape and np.array_equal(a, m) for a in seen)
        for m in (path.h_initial.matrix, path.h_final.matrix)
    ]


def odd_ground_json() -> dict:
    """A 3-site Hamiltonian file, symmetric under site reversal, whose ground
    state is odd under reversal along the whole path.

    H_i = X0 X2 + Y0 Y2 - X1 has a nondegenerate ground state (gap 2): the
    singlet of sites 0 and 2 times |+> on site 1.  H_f = X0 X2 + Y0 Y2 +
    Z0 Z2 - Z1 keeps that singlet, so the ground state of H(s) stays the
    singlet times the ground state of site 1, with gap at least sqrt(2).
    """
    def term(coeff, *factors):
        return {"coeff": coeff, "factors": [list(f) for f in factors]}

    return {
        "n_sites": 3,
        "h_initial": [term(1.0, (0, "X"), (2, "X")), term(1.0, (0, "Y"), (2, "Y")), term(-1.0, (1, "X"))],
        "h_final": [term(1.0, (0, a), (2, a)) for a in "XYZ"] + [term(-1.0, (1, "Z"))],
    }


def singlet_target_json(field: float = 0.0) -> dict:
    """A 2-site Hamiltonian file, symmetric under site reversal, from
    H_i = -(X0 + X1), whose ground state |++> is even under reversal, to
    H_f = X0 X1 + Y0 Y1 + Z0 Z1 - field (Z0 + Z1), whose ground state, the
    singlet, is odd for field < 2."""
    heisenberg = [{"coeff": 1.0, "factors": [[0, a], [1, a]]} for a in "XYZ"]
    zeeman = [{"coeff": -field, "factors": [[j, "Z"]]} for j in range(2)] if field else []
    return {
        "n_sites": 2,
        "h_initial": [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(2)],
        "h_final": heisenberg + zeeman,
    }


def odd_target_json() -> dict:
    """A 3-site Hamiltonian file, symmetric under site reversal, from
    H_i = -(X0 + X1 + X2), whose ground state |+++> is even under reversal,
    to H_f = X0 X2 + Y0 Y2 + Z0 Z2 - Z1 - 0.3 X1, whose ground state, the
    singlet of sites 0 and 2 times the ground state of site 1, is odd.  The
    site-1 factor has irrational entries, so ``eigh`` can return psi_f with
    rounding in its even part."""
    def term(coeff, *factors):
        return {"coeff": coeff, "factors": [list(f) for f in factors]}

    return {
        "n_sites": 3,
        "h_initial": [term(-1.0, (j, "X")) for j in range(3)],
        "h_final": [term(1.0, (0, a), (2, a)) for a in "XYZ"] + [term(-1.0, (1, "Z")), term(-0.3, (1, "X"))],
    }


def odd_singlet_json() -> dict:
    """A 2-site Hamiltonian file whose initial state, the singlet, is odd
    under site reversal and alone in its sector (dim 1): H_i = X0 X1 +
    Y0 Y1 + Z0 Z1 and H_f = H_i - 0.5 (Z0 + Z1)."""
    heisenberg = singlet_target_json()["h_final"]
    return {
        "n_sites": 2,
        "h_initial": heisenberg,
        "h_final": heisenberg + [{"coeff": -0.5, "factors": [[j, "Z"]]} for j in range(2)],
    }


def mid_path_singlet_json() -> dict:
    """A 2-site file whose ground state is even at both ends and the odd
    singlet in the middle: H_i = -(X0 + X1) + 0.45 S and H_f = -(Z0 + Z1)
    + 0.45 S with S = X0 X1 + Y0 Y1 + Z0 Z1.  The singlet sits at -1.35
    for every s; the even ground level is -1.55 at both ends and -0.96 at
    s = 1/2."""
    coupling = [{"coeff": 0.45, "factors": [[0, a], [1, a]]} for a in "XYZ"]
    return {
        "n_sites": 2,
        "h_initial": [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(2)] + coupling,
        "h_final": [{"coeff": -1.0, "factors": [[j, "Z"]]} for j in range(2)] + coupling,
    }


def rotated_tfim_json(n_sites, phi=0.7):
    """The TFIM rotated about z: H_i gains Y terms and a complex matrix."""
    return {
        "n_sites": n_sites,
        "h_initial": [
            {"coeff": -np.cos(phi), "factors": [[j, "X"]]} for j in range(n_sites)
        ]
        + [{"coeff": -np.sin(phi), "factors": [[j, "Y"]]} for j in range(n_sites)],
        "h_final": [{"coeff": -1.0, "factors": [[j, "Z"]]} for j in range(n_sites)]
        + [
            {"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]}
            for j in range(n_sites - 1)
        ],
    }


def site0_field_json(n_sites: int) -> dict:
    """The TFIM with the longitudinal field on site 0 only: site reversal
    does not map H_f to itself."""
    return {
        "n_sites": n_sites,
        "h_initial": [{"coeff": -1.0, "factors": [[j, "X"]]} for j in range(n_sites)],
        "h_final": [{"coeff": -1.0, "factors": [[0, "Z"]]}]
        + [{"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]} for j in range(n_sites - 1)],
    }


@pytest.fixture(scope="session")
def tfim2():
    return tfim_path(2)


@pytest.fixture(scope="session")
def tfim4():
    return tfim_path(4)


@pytest.fixture(scope="session")
def tfim8():
    return tfim_path(8)
