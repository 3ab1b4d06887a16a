import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import daslab
from daslab import cli, evolve, model, zeno
from daslab.cli import (
    RunConfig,
    bound_rows,
    fig1_rows,
    fig3_rows,
    gamma_rows,
    load_config,
    main,
    rl_rows,
    write_csv,
    zeno_rows,
)
from daslab.eigenframes import gamma_expansion
from daslab.errors import endpoint_states, fidelity_error
from daslab.evolve import EvolutionSpec, discrete_evolution, grid_points, trotter_evolution
from daslab.exceptions import ConfigError
from daslab.linalg import operator_norm
from daslab.svg import HEIGHT, MARGIN_B
from daslab.zeno import HERMITIAN_FAMILY, UNITARY_FAMILY

from conftest import (
    endpoint_solves,
    mid_path_singlet_json,
    odd_ground_json,
    odd_singlet_json,
    odd_target_json,
    record_eigh,
    rotated_tfim_json,
    singlet_target_json,
    site0_field_json,
)


def small_config(**overrides):
    base = {
        "n_sites": 2,
        "steps": 10,
        "t_values": [4.0, 8.0, 16.0, 32.0],
        "dt_values": [0.1, 0.3],
        "trace_dts": [0.3],
        "zeno_steps": 20,
        "gamma_t_values": [5.0],
    }
    base.update(overrides)
    return RunConfig.from_dict(base)


def ascending(count: int) -> list[float]:
    """A valid list of positive, distinct, increasing values of the given length."""
    return [float(k) for k in range(1, count + 1)]


def two_site_hamiltonian(coupling: float) -> dict:
    """Hamiltonian-file contents: a 2-site X field to a ZZ coupling."""
    return {
        "n_sites": 2,
        "h_initial": [
            {"coeff": -1.0, "factors": [[0, "X"]]},
            {"coeff": -1.0, "factors": [[1, "X"]]},
        ],
        "h_final": [{"coeff": coupling, "factors": [[0, "Z"], [1, "Z"]]}],
    }


def package_env() -> dict:
    """Environment in which ``python -m daslab`` imports the package under test."""
    src = str(Path(daslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def record_solver_shapes(monkeypatch, name="eigh") -> list:
    """Record the shape of the matrix argument of every np.linalg.<name>
    call from now on, batch dims included."""
    shapes = []
    solver = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


class TestConfig:
    def test_defaults_match_reference_sweeps(self):
        config = RunConfig()
        assert config.n_sites == 8
        assert config.steps == 100
        grid = config.t_grid()
        assert len(grid) == 40
        assert grid[0] == pytest.approx(4.0) and grid[-1] == pytest.approx(200.0)
        dts = config.dt_grid()
        assert dts[0] == pytest.approx(0.1) and dts[-1] == pytest.approx(1.5)
        assert 0.4 in np.round(dts, 10) and 1.2 in np.round(dts, 10)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n_site": 4})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"steps": 1})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"zeno_threshold": 1.5})

    @pytest.mark.parametrize(
        "bad",
        [
            {"t_min": float("nan")},
            {"t_min": float("inf")},
            {"t_max": float("nan")},
            {"t_values": [-5.0]},
            {"t_values": [10.0, float("nan")]},
            {"t_values": [0.0]},
            {"t_values": 5.0},
            {"t_values": ["5"]},
            {"ode_rtol": float("nan")},
            {"ode_rtol": -1.0},
            {"ode_rtol": 1.0},
            {"steps": "100"},
            {"steps": 2.5},
            {"t_points": 2.5},
            {"robust_dt_cut": float("nan")},
            {"periodic": "yes"},
            {"threads": 1.5},
            {"n_sites": 13},
            {"t_values": [10**400]},
            {"t_values": [50.0, 40.0, 30.0, 20.0, 10.0]},
            {"t_values": [10.0, 10.0, 20.0, 30.0, 40.0]},
            {"t_min": 10.0, "t_max": 10.0, "t_points": 4},
        ],
    )
    def test_fig2_inputs_rejected_before_propagation(self, tmp_path, monkeypatch, bad):
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagation started on an invalid config")

        monkeypatch.setattr(cli, "exact_state_evolution", no_propagation)
        monkeypatch.setattr(cli, "trotter_state", no_propagation)
        data = {"n_sites": 3, "steps": 10, **bad}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert main(["fig2", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "fig2.csv").exists()

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("fig3", {"dt_values": [float("nan")]}),
            ("fig3", {"dt_values": [-0.5]}),
            ("fig3", {"dt_values": 0.5}),
            ("fig3", {"dt_min": float("nan")}),
            ("fig3", {"dt_max": float("inf")}),
            ("fig3", {"dt_step": float("nan")}),
            ("fig3", {"dt_step": 0.0}),
            ("fig3", {"dt_step": 1e-300}),
            ("fig3", {"dt_min": True}),
            ("fig3", {"trace_dts": [float("nan")]}),
            ("zeno", {"zeno_dt": float("nan")}),
            ("zeno", {"zeno_dt": -0.8}),
            ("zeno", {"zeno_steps": 0}),
            ("zeno", {"zeno_steps": 2.5}),
            ("zeno", {"zeno_steps": True}),
            ("fig3", {"trace_dts": [0.8, 0.8000001]}),
        ],
    )
    def test_fig3_zeno_inputs_rejected_before_continuation(
        self, tmp_path, monkeypatch, command, bad
    ):
        def no_continuation(*args, **kwargs):
            raise AssertionError("continuation started on an invalid config")

        monkeypatch.setattr(cli, "near_degeneracy_test", no_continuation)
        monkeypatch.setattr(zeno, "near_degeneracy_test", no_continuation)
        data = {"n_sites": 2, **bad}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert main([command, "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("bound", {"bound_quad_points": 1}),
            ("bound", {"bound_quad_points": "x"}),
            ("bound", {"n_sites": 13}),
            ("bound", {"hamiltonian_file": "no-such-hamiltonian.json"}),
            ("bound", {"schedule": "cubic"}),
            ("rl", {"rl_steps": -1}),
            ("rl", {"rl_steps": 1}),
            ("rl", {"rl_dt_values": 0.5}),
            ("rl", {"rl_dt_values": [float("nan")]}),
            ("rl", {"threads": 1.5}),
            ("gamma", {"gamma_t_values": [float("nan")]}),
            ("gamma", {"steps": [100]}),
            ("rl", {"rl_steps": 10**400}),
            ("rl", {"rl_steps": cli.MAX_RL_STEPS + 1}),
            ("fig1", {"steps": cli.MAX_STEPS + 1}),
            ("fig2", {"t_points": cli.MAX_T_POINTS + 1}),
            ("zeno", {"zeno_steps": cli.MAX_ZENO_STEPS + 1}),
            ("bound", {"bound_quad_points": cli.MAX_QUAD_POINTS + 1}),
            ("fig2", {"t_values": ascending(cli.MAX_T_POINTS + 1)}),
            ("fig3", {"dt_values": ascending(cli.MAX_DT_POINTS + 1)}),
            ("fig3", {"trace_dts": ascending(cli.MAX_DT_POINTS + 1)}),
            ("rl", {"rl_dt_values": ascending(cli.MAX_DT_POINTS + 1)}),
            ("gamma", {"gamma_t_values": ascending(cli.MAX_T_POINTS + 1)}),
            (
                "fig2",
                {
                    "schedule": "custom-polynomial",
                    "schedule_coefficients": [0.0, 1.0] + [0.0] * (cli.MAX_SCHEDULE_COEFFICIENTS - 1),
                },
            ),
        ],
    )
    def test_inputs_rejected_before_any_sweep(self, tmp_path, monkeypatch, command, bad):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started on an invalid config")

        monkeypatch.setattr(cli, "run_command", no_sweep)
        data = {"n_sites": 2, **bad}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert main([command, "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize(
        "name, cap",
        [
            ("t_values", cli.MAX_T_POINTS),
            ("dt_values", cli.MAX_DT_POINTS),
            ("trace_dts", cli.MAX_DT_POINTS),
            ("rl_dt_values", cli.MAX_DT_POINTS),
            ("gamma_t_values", cli.MAX_T_POINTS),
            ("schedule_coefficients", cli.MAX_SCHEDULE_COEFFICIENTS),
        ],
    )
    def test_list_length_caps(self, name, cap):
        assert len(getattr(RunConfig.from_dict({name: ascending(cap)}), name)) == cap
        message = f"{name} must be .*, at most {cap} of them, got {cap + 1} entries$"
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict({name: ascending(cap + 1)})

    @pytest.mark.parametrize(
        "extra, hamiltonian",
        [
            ({"schedule": "custom-polynomial", "schedule_coefficients": [0, 2]}, None),
            ({"schedule": "custom-polynomial"}, None),
            ({}, "{not json"),
            ({}, {"n_sites": 16}),
            ({}, {"n_sites": 1}),
            ({}, {"n_sites": float("inf")}),
            ({}, {"schedule": "linear"}),
            ({}, {"schedule": {"name": "custom-polynomial", "coefficients": 5}}),
            ({}, {"schedule": {"name": "custom-polynomial", "coefficients": [None, 1]}}),
            ({}, {"schedule": {"name": "custom-polynomial", "coefficients": [0, 1] + [0] * 4998}}),
            ({}, {"h_final": []}),
        ],
    )
    def test_unusable_path_rejected_before_allocation(
        self, tmp_path, monkeypatch, extra, hamiltonian
    ):
        def no_matrix(*args, **kwargs):
            raise AssertionError("a Hamiltonian matrix was allocated")

        data = {"n_sites": 2, "t_values": [10.0], **extra}
        if hamiltonian is not None:
            ham_path = tmp_path / "ham.json"
            if isinstance(hamiltonian, dict):
                hamiltonian = json.dumps({**two_site_hamiltonian(-1.0), **hamiltonian})
            ham_path.write_text(hamiltonian)
            data["hamiltonian_file"] = str(ham_path)
        config = RunConfig.from_dict(data)
        monkeypatch.setattr(model, "pauli_sum_matrix", no_matrix)
        with pytest.raises(ConfigError):
            config.build_path()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert main(["bound", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "bound.csv").exists()

    def test_seed_option_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["rl", "--out", str(tmp_path), "--seed", "3"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "rl.csv").exists()
        with pytest.raises(ConfigError, match="--seed was removed"):
            load_config(None, 3, None)

    def test_digest_stable_and_sensitive(self):
        a = small_config()
        b = small_config()
        c = small_config(steps=11)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_ignores_threads(self, tmp_path):
        assert small_config().digest() == small_config(threads=4).digest()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_sites": 2, "t_values": [10.0, 20.0]}))
        for name, extra in (("serial", ()), ("threaded", ("--threads", "2"))):
            out = tmp_path / name
            assert main(["bound", "--config", str(config_path), "--out", str(out), *extra]) == 0
        serial = (tmp_path / "serial" / "bound.csv").read_bytes()
        assert (tmp_path / "threaded" / "bound.csv").read_bytes() == serial

    def test_threads_capped_before_any_worker_starts(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        RunConfig(threads=cli.MAX_THREADS).validate()
        with pytest.raises(ConfigError, match="threads"):
            RunConfig(threads=cli.MAX_THREADS + 1).validate()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_sites": 2, "t_values": ascending(cli.MAX_T_POINTS)}))
        out = tmp_path / "out"
        argv = ["fig2", "--config", str(config_path), "--out", str(out), "--threads", "100000"]
        assert main(argv) == 2
        assert not out.exists()

    def test_ode_rtol_below_the_integrator_floor_refused(self, tmp_path, recwarn):
        """Below 100 eps the DOP853 error estimate is rounding; a config
        there would write the rows of the floor under another hash."""
        floor = 100 * np.finfo(float).eps
        RunConfig(ode_rtol=2 * floor).validate()
        with pytest.raises(ConfigError, match="ode_rtol"):
            RunConfig(ode_rtol=floor / 2).validate()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_sites": 2, "t_values": [4.0], "ode_rtol": 1e-15}))
        out = tmp_path / "out"
        assert main(["fig2", "--config", str(config_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert len(recwarn) == 0

    def test_digest_hashes_hamiltonian_contents(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(two_site_hamiltonian(-1.0)))
        second.write_text(json.dumps(two_site_hamiltonian(-1.0)))
        before = small_config(hamiltonian_file=str(first)).digest()
        assert small_config(hamiltonian_file=str(second)).digest() == before
        first.write_text(json.dumps(two_site_hamiltonian(-1.5)))
        assert small_config(hamiltonian_file=str(first)).digest() != before

    def test_load_config_munges_overrides(self, tmp_path):
        target = tmp_path / "config.json"
        target.write_text(json.dumps({"n_sites": 3, "steps": 12}))
        config = load_config(str(target), None, threads=2)
        assert config.n_sites == 3 and config.steps == 12
        assert config.threads == 2

    def test_load_config_bad_json(self, tmp_path):
        target = tmp_path / "broken.json"
        for contents in (b"{not json", b"\xff\xfe{}", b'{"steps": 1' + b"0" * 5000 + b"}"):
            target.write_bytes(contents)
            with pytest.raises(ConfigError):
                load_config(str(target), None, None)


class TestRows:
    def test_fig1_grid_arithmetic(self):
        config = small_config(t_values=[4.0, 10.0], steps=100)
        rows = fig1_rows(config)
        assert rows[0]["T"] == 4.0
        assert rows[0]["dt"] == pytest.approx(0.04)
        assert all(r["norm_dist"] >= 0 for r in rows)

    def test_fig3_rows_and_traces(self):
        config = small_config()
        rows, traces = fig3_rows(config)
        assert [r["dt"] for r in rows] == [0.1, 0.3]
        assert set(traces) == {0.3}
        assert len(traces[0.3].overlaps) == 20
        assert all(0.0 <= v <= 1.0 for v in traces[0.3].overlaps)

    def test_rl_resonance_row(self):
        config = small_config(rl_dt_values=[2 * np.pi], rl_steps=40)
        rows = rl_rows(config)
        assert rows[0]["abs_J"] == pytest.approx(1.0, abs=1e-12)
        assert not rows[0]["threshold_ok"]

    def test_gamma_single_step_zero_error(self):
        config = RunConfig.from_dict(
            {"n_sites": 2, "steps": 2, "gamma_t_values": [3.0]}
        )
        rows = gamma_rows(config)
        assert rows[0]["eps_adb_exact"] >= 0
        # cross-module agreement between the frame product and fidelity route
        assert rows[0]["eps_adb_exact"] == pytest.approx(
            rows[0]["fidelity_check"], abs=1e-9
        )

    @pytest.mark.parametrize("grid", ["endpoints", "midpoint"])
    def test_gamma_rows_are_the_acceptance_route(self, grid):
        # Acceptance 6 and 7 check gamma_expansion; gamma.csv is written by
        # gamma_rows.  Both must run the one expansion_pass.
        config = RunConfig.from_dict(
            {"n_sites": 4, "steps": 60, "gamma_t_values": [10.0, 50.0], "grid": grid}
        )
        path = cli._ground_sector(config.build_path(), grid_points(60, grid))[0]
        rows = gamma_rows(config)
        assert [row["T"] for row in rows] == [10.0, 50.0]
        for row in rows:
            expansion = gamma_expansion(EvolutionSpec(path, row["T"], 60, grid))
            assert row["eps_adb_exact"] == expansion.adiabatic_error
            assert row["eps_first_order"] == expansion.first_order_error

    def test_bound_halves_when_time_doubles(self):
        config = small_config(t_values=[10.0, 20.0])
        rows = bound_rows(config)
        assert rows[1]["total"] == pytest.approx(rows[0]["total"] / 2, rel=1e-12)

    def test_zeno_rows_hermitian_family(self):
        config = small_config(zeno_family="hermitian-path")
        rows = zeno_rows(config)
        assert len(rows) == 20
        assert rows[-1]["s"] == pytest.approx(1.0)

    def test_gamma_diagonalizes_its_grid_once(self, monkeypatch):
        shapes = record_solver_shapes(monkeypatch)
        gamma_rows(small_config(gamma_t_values=[5.0, 10.0]))
        assert [shape[:-2] for shape in shapes].count((10,)) == 1

    @pytest.mark.parametrize(
        "rows, full, sector",
        [(fig1_rows, [1, 1], [1, 0]), (cli.fig2_rows, [1, 1], [1, 0]), (fig3_rows, [1, 1], [1, 0])],
        ids=["fig1_rows", "fig2_rows", "fig3_rows"],
    )
    def test_layers_diagonalized_once_per_sweep(self, monkeypatch, rows, full, sector):
        # 4 T values, or 2 dt values plus an off-grid trace dt, on 2 workers:
        # H_i and H_f are each diagonalized once for the endpoint ground
        # state, and the block of H_i in the initial state's reversal
        # sector once for its Trotter layer; H_f's layer is diagonal and
        # needs no eigh.  fig2's and fig3's layers are the blocks of H_i and
        # H_f in that sector.  fig1's Trotter layers are the blocks of both
        # sectors, so H_i is diagonalized once per block (the other
        # sector's block has dim 1 here and is read from its diagonal), and
        # no full-space layer eigh is made.
        config = small_config(threads=2, trace_dts=[0.3, 0.5])
        path = config.build_path()
        block = model.reversal_blocks(path, endpoint_states(path)[0])[0]
        seen = record_eigh(monkeypatch)
        rows(config)
        assert endpoint_solves(seen, path) == full
        assert endpoint_solves(seen, block.path) == sector

    def test_fig1_forms_trotter_steps_per_block(self, monkeypatch):
        # At 4 sites every Trotter and discretized fold of fig1, and every
        # unitarity check, is on a reversal block, dims 10 and 6, never on
        # the full space of dim 16.  Each recorded function takes its matrix
        # as its last argument.
        shapes = []

        def recording(original):
            def record(*args):
                shapes.append(np.shape(args[-1]))
                return original(*args)

            return record

        for module, name in ((evolve, "unitarity_defect"), (evolve, "trotter_fold"), (evolve, "discrete_state")):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        fig1_rows(small_config(n_sites=4, t_values=[2.0, 8.0]))
        assert set(shapes) == {(10, 10), (6, 6)}

    def test_bound_diagonalizes_its_nodes_once(self, monkeypatch):
        # Once per site-reversal block: at 2 sites the blocks have dims 3
        # and 1, and no full-space matrix of dim 4 is diagonalized.
        eigh_shapes = record_solver_shapes(monkeypatch)
        eigvalsh_shapes = record_solver_shapes(monkeypatch, "eigvalsh")
        bound_rows(small_config(t_values=[10.0, 20.0, 40.0], bound_quad_points=21))
        assert eigvalsh_shapes == [(21, 3, 3), (21, 1, 1)]
        assert eigh_shapes == []

    def test_fig2_evolves_states_not_propagators(self, monkeypatch):
        def no_propagator(*args, **kwargs):
            raise AssertionError("fig2 built a Trotter propagator")

        monkeypatch.setattr(cli, "trotter_evolution", no_propagator)
        rows, _ = cli.fig2_rows(small_config(n_sites=3))
        assert [r["T"] for r in rows] == [4.0, 8.0, 16.0, 32.0]
        assert all(np.isfinite(r["eps_tot"]) for r in rows)

    def test_fig2_threads_reproduce_serial_bytes(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"n_sites": 3, "steps": 10, "t_values": [4.0, 8.0, 16.0, 32.0]})
        )
        for name, extra in (("serial", ("--threads", "1")), ("threaded", ("--threads", "2"))):
            out = tmp_path / name
            assert main(["fig2", "--config", str(config_path), "--out", str(out), *extra]) == 0
        serial = (tmp_path / "serial" / "fig2.csv").read_bytes()
        assert (tmp_path / "threaded" / "fig2.csv").read_bytes() == serial

    def test_threads_reproduce_serial(self):
        serial = fig1_rows(small_config())
        threaded = fig1_rows(small_config(threads=4))
        assert [r["norm_dist"] for r in serial] == [r["norm_dist"] for r in threaded]


def csv_rows(path: Path) -> list[dict]:
    """A written CSV's rows, each a dict of floats by column."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def full_space(monkeypatch) -> None:
    """Make every path its own single site-reversal block, with the identity
    projection, so that the sweeps run the same kernels on the full space."""

    def identity(x):
        return x

    def single_block(path, state):
        return (model.ReversalBlock(path, identity),)

    monkeypatch.setattr(cli, "reversal_blocks", single_block)


def sweep_config(tmp_path, hamiltonian=None, n_sites=4, **overrides) -> RunConfig:
    """A config of n_sites sites, on the TFIM or on the given Hamiltonian
    file, with any further fields given."""
    data = {
        "n_sites": n_sites, "steps": 20, "t_values": [2.0, 8.0, 32.0], "gamma_t_values": [5.0, 20.0],
        **overrides,
    }
    if hamiltonian is not None:
        target = tmp_path / "hamiltonian.json"
        target.write_text(json.dumps(hamiltonian))
        data["hamiltonian_file"] = str(target)
    return RunConfig.from_dict(data)


def fig1_full_space(config: RunConfig) -> list[dict]:
    """fig1's rows from the full-space kernels: per T, one discretized and
    one Trotterized propagator on the whole 2^N space."""
    path = config.build_path()
    psi_i, _ = endpoint_states(path)
    rows = []
    for total_time in map(float, config.t_grid()):
        spec = EvolutionSpec(path=path, total_time=total_time, steps=config.steps, grid=config.grid)
        a_d = discrete_evolution(spec).matrix
        a_tro = trotter_evolution(spec).matrix
        rows.append(
            {
                "T": total_time,
                "dt": total_time / config.steps,
                "norm_dist": operator_norm(a_d - a_tro),
                "eps_tro": fidelity_error(a_d @ psi_i, a_tro @ psi_i),
            }
        )
    return rows


def assert_fig1_close(rows, full) -> None:
    """T and dt bitwise, norm_dist within 1e-13 and eps_tro within 1e-11."""
    for mine, theirs in zip(rows, full, strict=True):
        assert (mine["T"], mine["dt"]) == (theirs["T"], theirs["dt"])
        assert abs(mine["norm_dist"] - theirs["norm_dist"]) <= 1e-13
        assert abs(mine["eps_tro"] - theirs["eps_tro"]) <= 1e-11


class TestSectorSweeps:
    """fig2 and gamma evolve psi_i inside its site-reversal sector.  Every
    column is an overlap of psi_i's evolved state or an element of its frame
    propagator, so the full space gives the same rows.  fig1 forms its
    discretized propagator per sector; its norm is the larger block norm and
    its fidelity psi_i's block's, which are the full-space values."""

    @pytest.mark.parametrize(
        "hamiltonian", [None, rotated_tfim_json(4)], ids=["tfim4", "rotated4"]
    )
    def test_rows_match_the_full_space(self, tmp_path, monkeypatch, hamiltonian):
        config = sweep_config(tmp_path, hamiltonian)
        path = config.build_path()
        assert model.reversal_blocks(path, endpoint_states(path)[0])[0].path.dim == 10
        grid = grid_points(config.steps, config.grid)
        assert cli._ground_sector(path, grid)[0].dim == 10
        fig2, index = cli.fig2_rows(config)
        gamma = gamma_rows(config)
        full_space(monkeypatch)
        full_fig2, full_index = cli.fig2_rows(config)
        full_gamma = gamma_rows(config)
        for mine, theirs in zip(fig2, full_fig2, strict=True):
            assert mine["T"] == theirs["T"]
            # the DOP853 step sequence depends on the basis at ode_rtol
            assert abs(mine["eps_adb"] - theirs["eps_adb"]) <= 2e-9
            assert abs(mine["eps_tro"] - theirs["eps_tro"]) <= 2e-9
            assert abs(mine["eps_tot"] - theirs["eps_tot"]) <= 1e-11
        assert np.isnan(index) and np.isnan(full_index)
        for mine, theirs in zip(gamma, full_gamma, strict=True):
            assert mine.keys() == theirs.keys()
            for key in ("eps_adb_exact", "eps_first_order", "fidelity_check"):
                assert abs(mine[key] - theirs[key]) <= 1e-12, key

    @pytest.mark.parametrize(
        "hamiltonian, n_sites, dims, overrides",
        [
            (None, 4, [10, 6], {}),
            (rotated_tfim_json(4), 4, [10, 6], {}),
            (None, 5, [20, 12], {}),
            (None, 5, [20, 12], {"periodic": True, "grid": "midpoint"}),
            (None, 4, [10, 6], {"periodic": True, "grid": "left"}),
        ],
        ids=["tfim4", "rotated4", "tfim5", "tfim5-periodic-midpoint", "tfim4-periodic-left"],
    )
    def test_fig1_matches_the_full_space(self, tmp_path, hamiltonian, n_sites, dims, overrides):
        # At 5 sites and T = 32 the larger block norm is the other sector's.
        config = sweep_config(tmp_path, hamiltonian, n_sites, **overrides)
        path = config.build_path()
        blocks = model.reversal_blocks(path, endpoint_states(path)[0])
        assert [block.path.dim for block in blocks] == dims
        assert_fig1_close(fig1_rows(config), fig1_full_space(config))

    @pytest.mark.parametrize(
        "hamiltonian", [None, rotated_tfim_json(4), odd_ground_json()], ids=["tfim4", "rotated4", "odd3"]
    )
    def test_fig3_and_zeno_match_the_full_space(self, tmp_path, monkeypatch, hamiltonian):
        # The continuation follows psi_i inside its block, so at a passing dt
        # it gives the full-space overlaps.  A failing dt may differ: a
        # crossing with a level of the other parity breaks only the
        # full-space trace.
        config = sweep_config(
            tmp_path, hamiltonian, dt_values=[0.2, 0.4, 0.8, 1.2], trace_dts=[0.4], zeno_dt=0.4
        )
        path = config.build_path()
        assert model.reversal_blocks(path, endpoint_states(path)[0])[0].path.dim < path.dim
        fig3, traces = fig3_rows(config)
        families = (HERMITIAN_FAMILY, UNITARY_FAMILY)
        zeno = {family: zeno_rows(replace(config, zeno_family=family)) for family in families}
        full_space(monkeypatch)
        full_fig3, full_traces = fig3_rows(config)
        passing = [(mine, theirs) for mine, theirs in zip(fig3, full_fig3, strict=True) if theirs["pass"]]
        assert [theirs["dt"] for _, theirs in passing][:2] == [0.2, 0.4]
        for mine, theirs in passing:
            assert mine["dt"] == theirs["dt"] and mine["pass"]
            assert abs(mine["min_overlap"] - theirs["min_overlap"]) <= 1e-12
        assert traces.keys() == full_traces.keys() == {0.4}
        assert np.abs(traces[0.4].overlaps - full_traces[0.4].overlaps).max() <= 1e-12
        for family, rows in zeno.items():
            full = zeno_rows(replace(config, zeno_family=family))
            assert [(r["step"], r["s"]) for r in rows] == [(r["step"], r["s"]) for r in full]
            overlaps = np.array([[r["overlap"], f["overlap"]] for r, f in zip(rows, full, strict=True)])
            assert overlaps[:, 1].min() >= config.zeno_threshold, family
            assert np.abs(overlaps[:, 0] - overlaps[:, 1]).max() <= 1e-12, family

    def test_path_without_the_symmetry_runs_unchanged(self, tmp_path, monkeypatch):
        config = sweep_config(tmp_path, site0_field_json(4))
        path = config.build_path()
        assert model.reversal_blocks(path, endpoint_states(path)[0])[0].path is path
        assert fig1_rows(config) == fig1_full_space(config)
        rows = cli.fig2_rows(config)[0], gamma_rows(config)
        full_space(monkeypatch)
        assert rows == (cli.fig2_rows(config)[0], gamma_rows(config))

    def test_fig1_initial_state_alone_in_its_sector(self, tmp_path):
        # psi_i, the singlet, spans the odd sector of dim 1 by itself.  It is
        # an eigenvector of every H(s) and of both layers, so both
        # propagators map it to a phase and eps_tro is 0 in exact
        # arithmetic; see test_exact_zeros_leave_no_rounding_floor.
        (tmp_path / "ham.json").write_text(json.dumps(odd_singlet_json()))
        config = {"hamiltonian_file": str(tmp_path / "ham.json"), "steps": 10, "t_values": [4.0, 8.0]}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["fig1", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        rows = csv_rows(out / "fig1.csv")
        assert [r["T"] for r in rows] == [4.0, 8.0]
        assert all(np.isfinite(list(r.values())).all() for r in rows)
        config = RunConfig.from_dict(config)
        path = config.build_path()
        blocks = model.reversal_blocks(path, endpoint_states(path)[0])
        assert [block.path.dim for block in blocks] == [1, 3]
        for mine, theirs in zip(fig1_rows(config), fig1_full_space(config), strict=True):
            assert (mine["T"], mine["dt"]) == (theirs["T"], theirs["dt"])
            assert abs(mine["norm_dist"] - theirs["norm_dist"]) <= 1e-13
            assert mine["eps_tro"] <= 1e-6 and theirs["eps_tro"] <= 1e-6

    def test_exact_zeros_leave_no_rounding_floor(self, tmp_path):
        # On the odd-singlet file every one of these values is 0 in exact
        # arithmetic.  sqrt(1 - |<a|b>|^2) left 3e-8 to 1e-7 in each, the
        # square root of one rounding; the residual forms leave rounding.
        config = sweep_config(
            tmp_path, odd_singlet_json(), n_sites=2, steps=10,
            t_values=[4.0, 8.0], gamma_t_values=[3.0, 30.0],
        )
        fig1 = fig1_rows(config)
        gamma = gamma_rows(config)
        assert [r["T"] for r in fig1] == [4.0, 8.0] and [r["T"] for r in gamma] == [3.0, 30.0]
        for row in fig1:
            assert row["eps_tro"] <= 1e-14, row
        for row in gamma:
            assert row["eps_adb_exact"] <= 1e-14 and row["fidelity_check"] <= 1e-14, row

    def test_target_in_the_other_sector(self, tmp_path, monkeypatch):
        # psi_f is odd, so it projects to zero in the even sector of psi_i
        # and every fig2 overlap with it is 0.  On three sites eigh can leave
        # rounding in psi_f's even part, so the projection is zero only up
        # to rounding.
        for hamiltonian in (singlet_target_json(), odd_target_json()):
            (tmp_path / "ham.json").write_text(json.dumps(hamiltonian))
            config = {"hamiltonian_file": str(tmp_path / "ham.json"), "steps": 10, "t_values": [4.0, 8.0]}
            path = RunConfig.from_dict(config).build_path()
            psi_i, psi_f = endpoint_states(path)
            blocks = model.reversal_blocks(path, psi_i)
            assert len(blocks) == 2 and np.linalg.norm(blocks[0].project(psi_f)) <= model.PARITY_TOL
            (tmp_path / "config.json").write_text(json.dumps(config))
            out = tmp_path / "out"
            assert main(["fig2", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
            rows = csv_rows(out / "fig2.csv")
            assert [r["T"] for r in rows] == [4.0, 8.0]
            assert all(r["eps_adb"] == r["eps_tot"] == 1.0 for r in rows)
        # gamma's frames follow the ground level, which ends in the odd
        # sector, so gamma runs on the full space.  At steps 20 the even
        # sector's triplet is degenerate at s = 1 (field 0); with the field
        # it is split and the even sector ends at |00>.
        for field in (0.0, 0.5):
            config = sweep_config(tmp_path, singlet_target_json(field))
            path = config.build_path()
            assert cli._ground_sector(path, [0.0, 1.0])[0] is path
            rows = gamma_rows(config)
            assert all(r["eps_adb_exact"] == pytest.approx(1.0, abs=1e-12) for r in rows)
            with monkeypatch.context() as patch:
                full_space(patch)
                assert rows == gamma_rows(config)

    def test_ground_level_leaves_the_sector_mid_path(self, tmp_path, monkeypatch):
        # psi_i and psi_f are even, but the odd singlet is the ground level
        # in the middle of the path, so gamma runs on the full space.
        config = sweep_config(tmp_path, mid_path_singlet_json())
        path = config.build_path()
        psi_i, psi_f = endpoint_states(path)
        block = model.reversal_blocks(path, psi_i)[0]
        sector, phi_f = block.path, block.project(psi_f)
        assert sector.dim == 3 and np.linalg.norm(phi_f) == pytest.approx(1.0, abs=1e-14)
        assert cli._ground_sector(path, [0.0, 1.0])[0].dim == 3
        assert cli._ground_sector(path, [0.0, 0.5, 1.0])[0] is path
        rows = gamma_rows(config)
        full_space(monkeypatch)
        assert rows == gamma_rows(config)

    def test_gamma_independent_of_blas_threads(self, tmp_path):
        # the default config: 8 sites, L = 100, T in {10, 50}
        cells = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(package_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "daslab", "gamma", "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            cells.append(csv_rows(out / "gamma.csv"))
        one, two = cells
        assert len(one) == len(two) == 2
        # On the full space eps_first_order moved by about 1e-4 between the
        # two; here the largest measured spread is 6e-14, in fidelity_check.
        for a, b in zip(one, two):
            for key in ("eps_adb_exact", "eps_first_order", "fidelity_check"):
                assert abs(a[key] - b[key]) <= 1e-12, key


class TestStreamedPass:
    """fig1 and gamma diagonalize their grid one ``spectrum_stacks`` stack at
    a time and fold each stack into every T before the next is formed."""

    @pytest.mark.parametrize("frames", [1, 2, 4])
    @pytest.mark.parametrize("steps", [2, 11])
    @pytest.mark.parametrize("case", ["tfim4", "periodic4", "rotated4", "midpath"])
    def test_rows_independent_of_the_stack_size(self, tmp_path, monkeypatch, case, steps, frames):
        # Stacks hold a power of two of frames and the last one the rest:
        # in the dim-10 sector 11 steps make stacks of 1, of 2 (and 1), and
        # of 4 (and 3); one-frame stacks hold frame 0 across a stack
        # boundary until frame 1 arrives.  The TFIM sector is degenerate at
        # s = 1, where its frames align clusters.  At 11 steps the mid-path
        # file's ground level leaves its even sector, so gamma runs on the
        # full dim-4 space, in stacks of as many frames.
        hamiltonian = {"rotated4": rotated_tfim_json(4), "midpath": mid_path_singlet_json()}.get(case)
        config = sweep_config(tmp_path, hamiltonian, steps=steps, periodic=case == "periodic4")
        dim = 4 if case == "midpath" else 10
        monkeypatch.setattr(model, "STACK_ENTRIES", 1 << 30)
        whole = fig1_rows(config), gamma_rows(config)
        monkeypatch.setattr(model, "STACK_ENTRIES", frames * dim**2)
        assert (fig1_rows(config), gamma_rows(config)) == whole

    @pytest.mark.parametrize("per_group", [1, 2])
    def test_rows_independent_of_the_t_groups(self, tmp_path, monkeypatch, per_group):
        # At 4 sites fig1 holds 10^2 + 6^2 accumulator entries per T and
        # gamma 10^2, so its three T (two for gamma) make groups of one or
        # two, each a pass of its own over the grid, in two-frame stacks.
        config = sweep_config(tmp_path, steps=11)
        whole = fig1_rows(config), gamma_rows(config)
        monkeypatch.setattr(model, "STACK_ENTRIES", 2 * 10**2)
        monkeypatch.setattr(cli, "FOLD_ENTRIES", per_group * (10**2 + 6**2))
        assert cli._t_groups([1.0, 2.0, 3.0], 10**2 + 6**2) == (
            [[1.0], [2.0], [3.0]] if per_group == 1 else [[1.0, 2.0], [3.0]]
        )
        assert (fig1_rows(replace(config, threads=2)), gamma_rows(config)) == whole

    def test_many_t_points_hold_one_group(self, monkeypatch):
        # At 6 sites (blocks 36 and 28) the accumulators of 600 T would take
        # 600 x (36^2 + 28^2) x 16 B = 20 MB for fig1 and 600 x 36^2 x 16 B
        # = 12 MB for gamma; groups of at most 64 x (36^2 + 28^2) entries
        # hold 2.1 MB.
        monkeypatch.setattr(cli, "FOLD_ENTRIES", 64 * (36**2 + 28**2))
        times = [float(t) for t in range(1, 601)]
        config = RunConfig.from_dict(
            {"n_sites": 6, "steps": 2, "t_values": times, "gamma_t_values": times}
        )
        for rows in (gamma_rows, fig1_rows):
            tracemalloc.start()
            try:
                assert len(rows(config)) == 600
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20, rows.__name__

    def test_workers_split_each_stack(self, monkeypatch):
        # Four workers on two-frame stacks, switching threads as often as
        # the interpreter allows: a stack folded twice or skipped for some T
        # would change that T's row.
        config = small_config(n_sites=4, steps=11)
        serial = fig1_rows(config)
        monkeypatch.setattr(model, "STACK_ENTRIES", 2 * 10**2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = fig1_rows(replace(config, threads=4))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_long_grid_holds_one_stack(self):
        # At 10^4 steps the grid spectrum of the dim-10 sector alone is
        # 8 MB; the pass holds one stack of H(s) and its eigendata, each of
        # at most STACK_ENTRIES float64 entries (4 MB), plus dim x dim
        # accumulators.  The whole-grid spectra peaked at 31 MB (gamma) and
        # 18 MB (fig1 with one T).
        config = RunConfig.from_dict(
            {"n_sites": 4, "steps": 10_000, "t_values": [30.0], "gamma_t_values": [30.0]}
        )
        for rows in (gamma_rows, fig1_rows):
            tracemalloc.start()
            try:
                rows(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * model.STACK_ENTRIES * 8, rows.__name__


class TestCsv:
    def test_header_and_hash_comment(self, tmp_path):
        config = small_config()
        rows = [{"a": 1.5, "b": True}, {"a": float(np.float64(2.25)), "b": False}]
        target = tmp_path / "out.csv"
        write_csv(target, ["a", "b"], rows, config)
        lines = target.read_text().splitlines()
        assert lines[0].startswith("# daslab config_hash=")
        assert lines[1] == "a,b"
        assert lines[2] == "1.5,1"

    def test_identical_config_identical_bytes(self, tmp_path):
        config = small_config()
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        rows = fig1_rows(config)
        write_csv(first, ["T", "dt", "norm_dist", "eps_tro"], rows, config)
        write_csv(second, ["T", "dt", "norm_dist", "eps_tro"], fig1_rows(config), config)
        assert first.read_bytes() == second.read_bytes()


class TestMainEntry:
    def run_main(self, tmp_path, command, config_dict, extra=()):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_dict))
        return main(
            [command, "--config", str(config_path), "--out", str(tmp_path), *extra]
        )

    def test_fig1_writes_csv_and_svg(self, tmp_path):
        code = self.run_main(
            tmp_path,
            "fig1",
            {"n_sites": 2, "steps": 10, "t_values": [4.0, 8.0, 12.0, 20.0]},
            extra=("--svg",),
        )
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()
        svg = (tmp_path / "fig1.svg").read_text()
        assert svg.startswith("<svg")

    @pytest.mark.parametrize(
        "command, config",
        [
            ("rl", {"rl_steps": 10}),
            ("fig3", {"n_sites": 2, "dt_values": [0.2, 0.4], "trace_dts": [], "zeno_steps": 5}),
        ],
    )
    def test_linear_axes_svg(self, tmp_path, command, config):
        assert self.run_main(tmp_path, command, config, extra=("--svg",)) == 0
        root = ElementTree.parse(tmp_path / f"{command}.svg").getroot()
        texts = root.findall("{http://www.w3.org/2000/svg}text")
        # tick labels: centred under the x axis, right-aligned left of the y axis
        x_ticks = [t.text for t in texts if t.get("y") == str(HEIGHT - MARGIN_B + 18)]
        y_ticks = [t.text for t in texts if t.get("text-anchor") == "end"]
        for ticks in (x_ticks, y_ticks):
            assert len(ticks) >= 2
            assert all(np.isfinite(float(tick)) for tick in ticks)

    def test_config_array_exit_2(self, tmp_path, capsys):
        assert self.run_main(tmp_path, "fig1", [{"n_sites": 2}]) == 2
        assert "config JSON must be an object" in capsys.readouterr().err
        assert not (tmp_path / "fig1.csv").exists()

    def test_fig3_writes_trace_files(self, tmp_path):
        code = self.run_main(
            tmp_path,
            "fig3",
            {
                "n_sites": 2,
                "dt_values": [0.2, 0.4],
                "trace_dts": [0.4],
                "zeno_steps": 15,
            },
        )
        assert code == 0
        assert (tmp_path / "fig3.csv").exists()
        assert (tmp_path / "fig3_trace_dt0.4.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        code = self.run_main(tmp_path, "fig1", {"bogus_key": 1})
        assert code == 2

    def test_non_finite_bound_exit_3(self, tmp_path, capsys):
        code = self.run_main(tmp_path, "bound", {"n_sites": 2, "t_values": [5e-324, 1e-310]})
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "bound.csv").exists()

    def test_tiny_rl_step_stays_finite(self, tmp_path, capsys):
        # T = 1e-168, whose square underflows to 0: the bounds divide by T twice.
        assert self.run_main(tmp_path, "rl", {"rl_dt_values": [1e-170]}) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, header, values = (tmp_path / "rl.csv").read_text().splitlines()
        row = dict(zip(header.split(","), map(float, values.split(","))))
        bounds = [row[f"{kind}_bound"] for kind in ("boundary", "first_order", "second_order")]
        assert np.all(np.isfinite(bounds)) and bounds == [bounds[0]] * 3

    def test_non_finite_rl_bound_exit_3(self, tmp_path, capsys):
        # At dt = 1e-320 the step frequency (1 - e^{-i dt}) / (i dt) overflows.
        assert self.run_main(tmp_path, "rl", {"rl_dt_values": [1e-320]}) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: step frequency is not finite")
        assert "Traceback" not in err and not (tmp_path / "rl.csv").exists()

    @pytest.mark.parametrize("command", ["gamma", "fig1"])
    def test_grid_solver_failure_exit_3(self, tmp_path, monkeypatch, capsys, command):
        # Only the batched eigh of a grid stack fails; the endpoint states
        # and the Trotter layers are diagonalized one matrix at a time.
        eigh = np.linalg.eigh

        def failing(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        config = {"n_sites": 3, "steps": 10, "t_values": [4.0]}
        assert self.run_main(tmp_path, command, config) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: eigh failed to converge")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, extra_config, solver",
        [
            ("fig1", {}, "eigh"),
            ("fig2", {}, "eigh"),
            ("fig3", {"dt_values": [0.4], "trace_dts": [0.4]}, "eigh"),
            ("zeno", {"zeno_family": "hermitian-path"}, "eigh"),
            ("zeno", {"zeno_family": "trotter-unitary"}, "eigh"),
            ("fig1", {}, "norm"),
            ("bound", {}, "norm"),
        ],
        ids=[
            "fig1-eigh",
            "fig2-eigh",
            "fig3-eigh",
            "zeno-hermitian-eigh",
            "zeno-unitary-eigh",
            "fig1-norm",
            "bound-norm",
        ],
    )
    def test_solver_failure_anywhere_exit_3(
        self, tmp_path, monkeypatch, capsys, command, extra_config, solver
    ):
        # One kind of LAPACK call fails wherever it is made: an eigh of a
        # single 6 x 6 matrix (the larger reversal block of the 3-site
        # chain), or the SVD behind a spectral norm.
        eigh, norm = np.linalg.eigh, np.linalg.norm

        def failing_eigh(a, *args, **kwargs):
            if np.shape(a) == (6, 6):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        def failing_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return norm(x, ord, *args, **kwargs)

        if solver == "eigh":
            monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        else:
            monkeypatch.setattr(np.linalg, "norm", failing_norm)
        config = {"n_sites": 3, "steps": 10, "t_values": [4.0], "zeno_steps": 10, **extra_config}
        assert self.run_main(tmp_path, command, config) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {solver} failed to converge")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_numerical_failure_exit_code(self, tmp_path):
        # level crossing at s = 0.5 trips the gap guard inside the bound sweep
        ham = {
            "n_sites": 2,
            "h_initial": [{"coeff": -1.0, "factors": [[0, "Z"]]}],
            "h_final": [{"coeff": 1.0, "factors": [[0, "Z"]]}],
            "schedule": {"name": "linear"},
        }
        ham_path = tmp_path / "crossing.json"
        ham_path.write_text(json.dumps(ham))
        code = self.run_main(
            tmp_path,
            "bound",
            {"hamiltonian_file": str(ham_path), "t_values": [10.0]},
        )
        assert code == 3

    def test_cli_subprocess_round_trip(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"n_sites": 2, "rl_dt_values": [0.5], "rl_steps": 20})
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "daslab",
                "rl",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "rl.csv").exists()

    def test_every_command_runs_without_scipy(self, tmp_path):
        """All seven commands in one fresh process at 4 sites on short grids:
        each exits 0 and none loads SciPy, whose import costs about 0.4 s
        (scipy.integrate pulls in scipy.special and scipy.optimize)."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "n_sites": 4, "steps": 10, "t_values": [4.0, 8.0], "dt_values": [0.3, 0.5],
            "trace_dts": [0.3], "zeno_steps": 20, "gamma_t_values": [5.0],
            "rl_steps": 20, "rl_dt_values": [0.5], "bound_quad_points": 21,
        }))
        script = (
            "import sys\n"
            "from daslab.cli import COMMANDS, main\n"
            "codes = [main([name, '--config', sys.argv[1], '--out', sys.argv[2]])"
            " for name in COMMANDS]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(config_path), str(tmp_path)],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0,", "0]", "[]"]
        assert len(list(tmp_path.glob("*.csv"))) == 8

    def test_bad_config_subprocess_exit_2(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text("{]")
        proc = subprocess.run(
            [sys.executable, "-m", "daslab", "fig1", "--config", str(config_path)],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 2
