"""Independent correctness checks on the sweep CSVs.

Nothing here imports daslab.  Matrices are rebuilt with ``np.kron``, step
exponentials come from ``scipy.linalg.expm``, and every reference value is
either recomputed by a different route or follows from a property the
method must have.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ROTATED_TOL = 1e-9


# ---------------------------------------------------------------------------
# CSV input


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    """(comment lines without '# ', rows as dicts of floats)."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (float(cell) for cell in line.split(",")))))
    return comments, rows


# ---------------------------------------------------------------------------
# the model, rebuilt


def pauli_string(axes: dict, n_sites: int) -> np.ndarray:
    """Kronecker product with PAULI[axes[j]] at site j (site 0 leftmost)."""
    out = np.ones((1, 1), dtype=complex)
    for j in range(n_sites):
        out = np.kron(out, PAULI[axes.get(j, "I")])
    return out


def tfim_matrices(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """H_X = -sum X_j and the diagonal H_Z = -sum (Z_j + Z_j Z_{j+1})."""
    hx = -sum(pauli_string({j: "X"}, n_sites) for j in range(n_sites))
    hz = -sum(pauli_string({j: "Z"}, n_sites) for j in range(n_sites))
    hz -= sum(pauli_string({j: "Z", j + 1: "Z"}, n_sites) for j in range(n_sites - 1))
    return hx, hz


def initial_state(n_sites: int) -> np.ndarray:
    """|+>^N, the ground state of H_X."""
    return np.full(2**n_sites, 2 ** (-n_sites / 2), dtype=complex)


def final_state(n_sites: int) -> np.ndarray:
    """|0...0>, the ground state of H_Z."""
    out = np.zeros(2**n_sites, dtype=complex)
    out[0] = 1.0
    return out


def fidelity_error(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))


def x_layer(n_sites: int, angle: float) -> np.ndarray:
    """exp(-i angle H_X): H_X is a sum of commuting single-site terms, so
    the exponential is the Kronecker power of one 2x2 exponential."""
    single = scipy.linalg.expm(1j * angle * PAULI["X"])
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n_sites):
        out = np.kron(out, single)
    return out


def trotter_step(n_sites: int, hz_diag: np.ndarray, s: float, dt: float) -> np.ndarray:
    """exp(-i s dt H_Z) exp(-i (1 - s) dt H_X): the initial layer acts first."""
    return np.exp(-1j * s * dt * hz_diag)[:, None] * x_layer(n_sites, (1.0 - s) * dt)


def grid(steps: int) -> np.ndarray:
    """The endpoints grid s_j = (j - 1) / (L - 1)."""
    return np.linspace(0.0, 1.0, steps)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# bound


def check_bound(rows, config, hx, hz) -> list[str]:
    """T * total is the same on every row (the bound is exactly 1/T), and
    every part matches boundary terms and a Simpson integral rebuilt from
    this module's own eigvalsh gaps."""
    problems = []
    if [r["T"] for r in rows] != list(config["t_values"]):
        problems.append("bound: T column differs from the config grid")
    scaled = [r["T"] * r["total"] for r in rows]
    if any(not close(x, scaled[0], 1e-12) for x in scaled):
        problems.append(f"bound: T * total is not constant: {scaled}")

    points = config["bound_quad_points"] | 1
    nodes = np.linspace(0.0, 1.0, points)
    gaps = np.empty(points)
    for i, s in enumerate(nodes):
        energies = np.linalg.eigvalsh((1.0 - s) * hx + s * hz)
        gaps[i] = energies[1] - energies[0]
    diff_norm = float(np.max(np.abs(np.linalg.eigvalsh(hz - hx))))
    weights = np.ones(points)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    integral = float(weights @ (7.0 * diff_norm**2 / gaps**3)) * (nodes[1] - nodes[0]) / 3.0
    for r in rows:
        t = r["T"]
        expected = {
            "boundary_start": diff_norm / (t * gaps[0] ** 2),
            "boundary_end": diff_norm / (t * gaps[-1] ** 2),
            "integral_term": integral / t,
        }
        expected["total"] = sum(expected.values())
        for key, value in expected.items():
            if not close(r[key], value, 1e-9):
                problems.append(f"bound T={t:g}: {key} {r[key]!r} != {value!r}")
    return problems


# ---------------------------------------------------------------------------
# gamma


def check_gamma(rows, config) -> list[str]:
    """The frame product and the fidelity route give the same error."""
    problems = []
    if [r["T"] for r in rows] != list(config["gamma_t_values"]):
        problems.append("gamma: T column differs from the config grid")
    for r in rows:
        if r["L"] != config["steps"]:
            problems.append(f"gamma T={r['T']:g}: L = {r['L']}")
        if abs(r["eps_adb_exact"] - r["fidelity_check"]) > 1e-9:
            problems.append(
                f"gamma T={r['T']:g}: eps_adb_exact {r['eps_adb_exact']!r} "
                f"!= fidelity_check {r['fidelity_check']!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# fig1


def fig1_reference(n_sites: int, steps: int, total_time: float, hx, hz) -> tuple[float, float]:
    """(norm_dist, eps_tro) from propagators rebuilt with scipy's expm."""
    dt = total_time / steps
    hz_diag = np.real(np.diag(hz))
    dim = 2**n_sites
    a_d = np.eye(dim, dtype=complex)
    a_tro = np.eye(dim, dtype=complex)
    for s in grid(steps):
        a_d = scipy.linalg.expm(-1j * dt * ((1.0 - s) * hx + s * hz)) @ a_d
        a_tro = trotter_step(n_sites, hz_diag, s, dt) @ a_tro
    psi = initial_state(n_sites)
    norm = float(np.linalg.norm(a_d - a_tro, 2))
    return norm, fidelity_error(a_d @ psi, a_tro @ psi)


def check_fig1(rows, config, chosen, hx, hz) -> list[str]:
    problems = []
    steps = config["steps"]
    if [r["T"] for r in rows] != list(config["t_values"]):
        problems.append("fig1: T column differs from the config grid")
    for r in rows:
        if r["dt"] != r["T"] / steps:
            problems.append(f"fig1 T={r['T']:g}: dt {r['dt']!r} != T / L")
    for index in chosen:
        r = rows[index]
        norm, eps = fig1_reference(config["n_sites"], steps, r["T"], hx, hz)
        if abs(r["norm_dist"] - norm) > 1e-8:
            problems.append(f"fig1 T={r['T']:g}: norm_dist {r['norm_dist']!r} != {norm!r}")
        if abs(r["eps_tro"] - eps) > 1e-8:
            problems.append(f"fig1 T={r['T']:g}: eps_tro {r['eps_tro']!r} != {eps!r}")
    return problems


# ---------------------------------------------------------------------------
# rl


def check_rl(rows, config) -> list[str]:
    """|J| of the constant test case f = lambda = 1 has a closed form."""
    problems = []
    dts = list(config.get("rl_dt_values", (0.5, 1.0, 2 * math.pi)))
    steps = config.get("rl_steps", 100)
    if [r["T"] for r in rows] != [float(dt) * steps for dt in dts]:
        problems.append("rl: T column differs from the config grid")
    for r in rows:
        dt = r["dt"]
        if r["L"] != steps or dt != r["T"] / steps:
            problems.append(f"rl T={r['T']:g}: dt or L column wrong")
        denominator = 1.0 - np.exp(-1j * dt)
        if abs(denominator) < 1e-9:
            expected = 1.0
        else:
            expected = abs((1.0 - np.exp(-1j * dt * steps)) / (steps * denominator))
        if abs(r["abs_J"] - expected) > 1e-12:
            problems.append(f"rl dt={dt:g}: abs_J {r['abs_J']!r} != {expected!r}")
        if r["threshold_ok"] != float(dt < 3.78):
            problems.append(f"rl dt={dt:g}: threshold_ok {r['threshold_ok']:g}")
    return problems


# ---------------------------------------------------------------------------
# fig2


def exact_state(n_sites: int, total_time: float, hx, hz) -> np.ndarray:
    """psi_i through the exact dynamics, without DOP853.

    Fourth-order commutator-free Magnus steps (two Gauss points, two
    exponentials per step; Alvermann & Fehske, J. Comput. Phys. 230, 5930,
    2011), each exponential applied to the state by ``expm_multiply``.
    At least 800 steps, and eight per unit of T, keep the error below 1e-8
    up to T = 200.
    """
    root3 = math.sqrt(3.0)
    a1, a2 = (3 - 2 * root3) / 12, (3 + 2 * root3) / 12
    c1, c2 = 0.5 - root3 / 6, 0.5 + root3 / 6
    hx_s, hz_s = csr_matrix(hx), csr_matrix(hz)
    count = max(800, math.ceil(8 * total_time))
    h = 1.0 / count
    y = initial_state(n_sites)
    for k in range(count):
        s1, s2 = (k + c1) * h, (k + c2) * h
        for w1, w2 in ((a2, a1), (a1, a2)):
            weight_x = w1 * (1 - s1) + w2 * (1 - s2)
            weight_z = w1 * s1 + w2 * s2
            y = expm_multiply((-1j * total_time * h) * (weight_x * hx_s + weight_z * hz_s), y)
    return y / np.linalg.norm(y)


def first_order_band(hx, hz) -> tuple[float, float]:
    """[|a0 - a1|, a0 + a1], with a_s = sqrt(sum_n |<n|H'|0>|^2 / Delta_n^4)
    at the endpoints; first-order theory puts T * eps_adb in this band."""
    weights = []
    for h in (hx, hz):
        energies, vectors = np.linalg.eigh(h)
        couplings = vectors[:, 1:].conj().T @ (hz - hx) @ vectors[:, 0]
        weights.append(math.sqrt(np.sum(np.abs(couplings) ** 2 / (energies[1:] - energies[0]) ** 4)))
    a0, a1 = weights
    return abs(a0 - a1), a0 + a1


def check_fig2(rows, config, chosen, onset, hx, hz) -> list[str]:
    problems = []
    n_sites, steps = config["n_sites"], config["steps"]
    if [r["T"] for r in rows] != list(config["t_values"]):
        problems.append("fig2: T column differs from the config grid")
    for r in rows:
        if r["eps_tot"] > r["eps_adb"] + r["eps_tro"] + 1e-9:
            problems.append(f"fig2 T={r['T']:g}: triangle inequality violated")
    lo, hi = first_order_band(hx, hz)
    for r in rows:
        if r["T"] >= onset and not lo <= r["T"] * r["eps_adb"] <= hi:
            problems.append(
                f"fig2 T={r['T']:g}: T * eps_adb = {r['T'] * r['eps_adb']:.6f} "
                f"outside [{lo:.6f}, {hi:.6f}]"
            )
    hz_diag = np.real(np.diag(hz))
    for index in chosen:
        r = rows[index]
        t = r["T"]
        exact = exact_state(n_sites, t, hx, hz)
        tro = initial_state(n_sites)
        for s in grid(steps):
            tro = trotter_step(n_sites, hz_diag, s, t / steps) @ tro
        psi_f = final_state(n_sites)
        expected = {
            "eps_adb": (fidelity_error(psi_f, exact), 2e-7),
            "eps_tro": (fidelity_error(exact, tro), 2e-7),
            "eps_tot": (fidelity_error(psi_f, tro), 1e-9),
        }
        for key, (value, tol) in expected.items():
            if abs(r[key] - value) > tol:
                problems.append(f"fig2 T={t:g}: {key} {r[key]!r} != {value!r}")
    return problems


# ---------------------------------------------------------------------------
# fig3 and zeno


@functools.lru_cache(maxsize=4)
def continuation_overlaps(n_sites: int, dt: float, steps: int) -> np.ndarray:
    """Overlap continuation of |+>^N through the Trotter steps at fixed dt.

    The eigenvectors of the step U come from one Hermitian eigenproblem,
    cos + alpha sin with cos = (U + U^dag)/2 and sin = (U - U^dag)/2i; the
    rotation alpha separates eigenphases that the cosine alone pairs up.
    Cached because fig3 and zeno may ask for the same dt; callers only read
    the result.
    """
    alpha = 0.5 * (math.sqrt(5.0) - 1.0)
    hz_diag = np.real(np.diag(tfim_matrices(n_sites)[1]))
    state = initial_state(n_sites)
    overlaps = np.empty(steps)
    for j in range(1, steps + 1):
        u = trotter_step(n_sites, hz_diag, j / steps, dt)
        mixed = (u + u.conj().T) / 2 + alpha * (u - u.conj().T) / 2j
        _, vectors = np.linalg.eigh(mixed)
        squared = np.abs(vectors.conj().T @ state) ** 2
        best = int(np.argmax(squared))
        overlaps[j - 1] = squared[best]
        state = vectors[:, best]
    return overlaps


def same_overlaps(rows, overlaps: np.ndarray) -> bool:
    got = np.array([r["overlap"] for r in rows])
    return got.shape == overlaps.shape and bool(np.max(np.abs(got - overlaps)) <= 1e-9)


def check_trace_shape(name: str, rows, steps: int) -> list[str]:
    problems = []
    if [r["step"] for r in rows] != list(range(1, steps + 1)):
        problems.append(f"{name}: step column is not 1..{steps}")
    elif any(r["s"] != r["step"] / steps for r in rows):
        problems.append(f"{name}: s column is not step / {steps}")
    if any(not 0.0 <= r["overlap"] <= 1.0 for r in rows):
        problems.append(f"{name}: overlap outside [0, 1]")
    return problems


def check_fig3(rows, traces, config, pass_dt, fail_dt, window) -> list[str]:
    """Pass/fail pattern around the critical step, and on every passing dt
    the overlaps of an independent continuation (min_overlap and any trace
    file).  Failing rows are not compared: their overlaps depend on the
    eigensolver near quasi-energy collisions."""
    problems = []
    steps, threshold = config.get("zeno_steps", 100), config.get("zeno_threshold", 0.99)
    by_dt = {r["dt"]: r for r in rows}
    if list(by_dt) != list(config["dt_values"]):
        problems.append("fig3: dt column differs from the config grid")
        return problems
    for r in rows:
        if r["pass"] != float(r["min_overlap"] > threshold):
            problems.append(f"fig3 dt={r['dt']:g}: pass disagrees with min_overlap")
    if pass_dt in by_dt and by_dt[pass_dt]["pass"] != 1.0:
        problems.append(f"fig3: dt = {pass_dt:g} does not pass")
    if fail_dt in by_dt and by_dt[fail_dt]["pass"] != 0.0:
        problems.append(f"fig3: dt = {fail_dt:g} does not fail")
    failing = [r["dt"] for r in rows if r["pass"] == 0.0]
    if not (failing and window[0] <= failing[0] <= window[1]):
        problems.append(f"fig3: first failing dt {failing[:1]} outside {list(window)}")
    for dt, trace_rows in traces.items():
        problems += check_trace_shape(f"fig3 trace dt={dt:g}", trace_rows, steps)
    for r in rows:
        if r["pass"] != 1.0:
            continue
        overlaps = continuation_overlaps(config["n_sites"], r["dt"], steps)
        if abs(r["min_overlap"] - overlaps.min()) > 1e-9:
            problems.append(
                f"fig3 dt={r['dt']:g}: min_overlap {r['min_overlap']!r} != {overlaps.min()!r}"
            )
        if r["dt"] in traces and not same_overlaps(traces[r["dt"]], overlaps):
            problems.append(f"fig3 trace dt={r['dt']:g}: overlaps differ from the continuation")
    return problems


def check_zeno(rows, config) -> list[str]:
    steps = config.get("zeno_steps", 100)
    problems = check_trace_shape("zeno", rows, steps)
    overlaps = continuation_overlaps(config["n_sites"], config["zeno_dt"], steps)
    if overlaps.min() <= config.get("zeno_threshold", 0.99):
        problems.append("zeno: the configured zeno_dt must be a passing step")
    if not same_overlaps(rows, overlaps):
        problems.append("zeno: overlaps differ from the independent continuation")
    return problems


# ---------------------------------------------------------------------------
# rotated-complex


def check_rotation(hamiltonian: dict, phi: float, hx) -> list[str]:
    """The file's H_i is complex and equals R H_X R^dag, R = exp(-i phi/2 sum Z)."""
    n_sites = hamiltonian["n_sites"]
    h_i = sum(
        term["coeff"] * pauli_string(dict(term["factors"]), n_sites)
        for term in hamiltonian["h_initial"]
    )
    problems = []
    if np.max(np.abs(h_i.imag)) < 0.1:
        problems.append("rotated: H_i has no imaginary part")
    z_total = sum(np.real(np.diag(pauli_string({j: "Z"}, n_sites))) for j in range(n_sites))
    r = np.exp(-0.5j * phi * z_total)
    if np.max(np.abs(h_i - r[:, None] * hx * r.conj()[None, :])) > 1e-12:
        problems.append("rotated: H_i is not the rotated H_X")
    return problems


def check_twin(sweep: str, rows, twin_rows) -> list[str]:
    """Rows of a rotated sweep against the TFIM twin on the same grid."""
    if len(rows) != len(twin_rows) or not rows:
        return [f"rotated {sweep}: {len(rows)} rows vs {len(twin_rows)} in the twin"]
    problems = []
    for r, t in zip(rows, twin_rows):
        if sweep == "fig3":
            keys = ["dt", "pass"] + (["min_overlap"] if t["pass"] == 1.0 else [])
        else:
            keys = list(t)
        for key in keys:
            if not close(r[key], t[key], ROTATED_TOL):
                problems.append(f"rotated {sweep}: {key} {r[key]!r} != twin {t[key]!r}")
    return problems
