"""Tests of the benchmark itself: every check accepts genuine sweep output
and rejects a corrupted copy; the compare command and the tracer behave.

Genuine output comes from the CLI on a 4-site chain, so the module runs in
seconds.  pytest at the repository root collects this file too.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for entry in (BENCH.parent / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import checks  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import FIG3_FAIL_DT, FIG3_PASS_DT, rotated_hamiltonian  # noqa: E402

from daslab import cli  # noqa: E402

N_SITES = 4
CONFIG = {
    "n_sites": N_SITES,
    "steps": 40,
    "t_values": [30.0, 60.0],
    "bound_quad_points": 21,
    "gamma_t_values": [20.0],
    "dt_values": [0.4, 0.8, 1.2],
    "trace_dts": [0.4, 1.2],
    "zeno_dt": 0.4,
}
WINDOW = (0.7, 0.9)
ONSET = 30.0
SWEEPS = ("bound", "gamma", "fig1", "rl", "fig2", "fig3", "zeno")


def run_sweeps(tmp: Path, config: dict, sweeps=SWEEPS) -> Path:
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    for sweep in sweeps:
        assert cli.main([sweep, "--config", str(path), "--out", str(tmp)]) == 0
    return tmp


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return run_sweeps(tmp_path_factory.mktemp("genuine"), CONFIG)


@pytest.fixture(scope="module")
def mats():
    return checks.tfim_matrices(N_SITES)


def rows(out, name):
    return checks.read_csv(out / f"{name}.csv")[1]


def shifted(table, index, key, delta=1e-6):
    table = copy.deepcopy(table)
    table[index][key] += delta
    return table


def traces(out):
    return {dt: rows(out, f"fig3_trace_dt{dt:g}") for dt in CONFIG["trace_dts"]}


def fig3(table, trace_rows):
    return checks.check_fig3(table, trace_rows, CONFIG, FIG3_PASS_DT, FIG3_FAIL_DT, WINDOW)


@pytest.mark.parametrize("key", ["boundary_start", "boundary_end", "integral_term", "total"])
def test_bound_check(out, mats, key):
    table = rows(out, "bound")
    assert checks.check_bound(table, CONFIG, *mats) == []
    assert checks.check_bound(shifted(table, 1, key), CONFIG, *mats)


def test_gamma_check(out):
    table = rows(out, "gamma")
    assert checks.check_gamma(table, CONFIG) == []
    assert checks.check_gamma(shifted(table, 0, "eps_adb_exact"), CONFIG)
    assert checks.check_gamma(shifted(table, 0, "fidelity_check"), CONFIG)


@pytest.mark.parametrize("key", ["norm_dist", "eps_tro"])
def test_fig1_check(out, mats, key):
    table = rows(out, "fig1")
    assert checks.check_fig1(table, CONFIG, (0, 1), *mats) == []
    assert checks.check_fig1(shifted(table, 1, key), CONFIG, (1,), *mats)


def test_rl_check(out):
    table = rows(out, "rl")
    assert checks.check_rl(table, CONFIG) == []
    assert checks.check_rl(shifted(table, 2, "abs_J"), CONFIG)
    flipped = copy.deepcopy(table)
    flipped[2]["threshold_ok"] = 1.0
    assert checks.check_rl(flipped, CONFIG)


@pytest.mark.parametrize("key", ["eps_adb", "eps_tro", "eps_tot"])
def test_fig2_check(out, mats, key):
    table = rows(out, "fig2")
    assert checks.check_fig2(table, CONFIG, (0, 1), ONSET, *mats) == []
    assert checks.check_fig2(shifted(table, 1, key), CONFIG, (1,), ONSET, *mats)


def test_fig2_triangle_and_band(out, mats):
    table = rows(out, "fig2")
    broken = copy.deepcopy(table)
    broken[0]["eps_tot"] = broken[0]["eps_adb"] + broken[0]["eps_tro"] + 1e-6
    assert any("triangle" in p for p in checks.check_fig2(broken, CONFIG, (), ONSET, *mats))
    outside = copy.deepcopy(table)
    outside[1]["eps_adb"] *= 10
    assert any("outside" in p for p in checks.check_fig2(outside, CONFIG, (), ONSET, *mats))


def test_fig3_check(out):
    table, trace_rows = rows(out, "fig3"), traces(out)
    assert fig3(table, trace_rows) == []
    assert fig3(shifted(table, 0, "min_overlap", -1e-6), trace_rows)
    for index in range(len(table)):
        flipped = copy.deepcopy(table)
        flipped[index]["pass"] = 1.0 - flipped[index]["pass"]
        assert fig3(flipped, trace_rows), f"flipped pass of row {index}"
    bad_trace = copy.deepcopy(trace_rows)
    bad_trace[0.4][17]["overlap"] -= 1e-6
    assert fig3(table, bad_trace)


def test_zeno_check(out):
    table = rows(out, "zeno")
    assert checks.check_zeno(table, CONFIG) == []
    assert checks.check_zeno(shifted(table, 50, "overlap", -1e-6), CONFIG)


def test_rotation_and_twin_checks(tmp_path, mats):
    phi = 0.7
    ham = rotated_hamiltonian(N_SITES, phi)
    assert checks.check_rotation(ham, phi, mats[0]) == []
    wrong = copy.deepcopy(ham)
    wrong["h_initial"][1]["coeff"] += 1e-6
    assert checks.check_rotation(wrong, phi, mats[0])

    (tmp_path / "ham.json").write_text(json.dumps(ham))
    config = dict(CONFIG, hamiltonian_file=str(tmp_path / "ham.json"), dt_values=[0.4, 1.2])
    rotated = run_sweeps(tmp_path / "rot", config, ("bound", "fig1", "fig3"))
    twin = run_sweeps(tmp_path / "twin", dict(CONFIG, dt_values=[0.4, 1.2]), ("bound", "fig1", "fig3"))
    for sweep, key in (("bound", "total"), ("fig1", "eps_tro"), ("fig3", "min_overlap")):
        mine, theirs = rows(rotated, sweep), rows(twin, sweep)
        assert checks.check_twin(sweep, mine, theirs) == []
        assert checks.check_twin(sweep, shifted(mine, 0, key), theirs)


def test_compare(out, tmp_path, capsys):
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    for path in out.glob("*.csv"):
        (copy_dir / path.name).write_bytes(path.read_bytes())
    assert compare.main([str(out), str(copy_dir)]) == 0
    target = copy_dir / "bound.csv"
    lines = target.read_text().splitlines()
    lines[0] = "# daslab config_hash=0000000000000000"
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-12))
    lines[-1] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    assert compare.main([str(out), str(copy_dir)]) == 1
    assert compare.main([str(out), str(copy_dir), "--tol", "1e-10"]) == 0
    (copy_dir / "rl.csv").unlink()
    assert compare.main([str(out), str(copy_dir), "--tol", "1e-10"]) == 1
    capsys.readouterr()


def test_tracing_keeps_bytes_and_counts(out, tmp_path):
    originals = (cli.trotter_evolution, np.linalg.eigh)
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        assert cli.trotter_evolution.__wrapped__ is originals[0]
        traced = run_sweeps(tmp_path / "traced", CONFIG, ("fig1", "fig3"))
    finally:
        restore()
    assert (cli.trotter_evolution, np.linalg.eigh) == originals
    for name in ["fig1.csv", "fig3.csv", "fig3_trace_dt0.4.csv", "fig3_trace_dt1.2.csv"]:
        assert (traced / name).read_bytes() == (out / name).read_bytes(), name
    summary = recorder.summary()
    metrics = tracing.layer_metrics(summary, 1.0, 0.9)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    # cli and zeno reach these through their own by-name imports.
    assert metrics["evolve.trotter_evolution.calls"] == len(CONFIG["t_values"])
    assert metrics["evolve.trotter_step_unitary.calls"] == 3 * 100
    assert metrics["linalg.unitary_eig.calls"] == 3 * 100
    assert metrics["lapack.eigh.matrices"] > metrics["lapack.eigh.calls"]
    assert metrics["cli.write_csv.bytes"] > 0
    total = sum(end - start for _, start, end, parent in recorder.spans if parent is None)
    assert sum(summary["self_s"].values()) == pytest.approx(total)
