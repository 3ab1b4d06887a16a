"""Fuzz the CLI contract: any config dict exits 0, 2 or 3, prints no
traceback, and writes only finite cells.

Valid values are drawn small (2 sites, a few T or dt points, few
quadrature nodes or continuation steps) so each example runs in
milliseconds; invalid ones cover wrong
kinds, NaN and infinities, negatives, bools and strings.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daslab.cli import main

from conftest import mid_path_singlet_json, odd_singlet_json, singlet_target_json

# rl's bound columns are infinite by design at a resonance (see sum_bounds).
MAY_BE_INFINITE = {"rl": {"boundary_bound", "first_order_bound", "second_order_bound"}}

BAD = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 10**400, "1"]),
    st.floats(max_value=0.0),
    st.lists(st.sampled_from([math.nan, -1.0, "1", True, None]), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def positive_list(low, high, max_size=3):
    return st.lists(st.floats(low, high), max_size=max_size)


COMMON = {
    "periodic": st.booleans(),
    "steps": st.integers(2, 20),
    "grid": st.sampled_from(["endpoints", "left", "midpoint"]),
    "threads": st.integers(1, 2),
    "ode_rtol": st.floats(1e-12, 0.5),
    "zeno_threshold": st.floats(0.01, 0.99),
    "gamma_t_values": positive_list(0.1, 100.0),
    "hamiltonian_file": st.just(""),
}

BOUND = {
    **COMMON,
    "schedule": st.sampled_from(["linear", "custom-polynomial"]),
    "schedule_coefficients": st.sampled_from([[0.0, 1.0], [0.0, 2.0, -1.0], [0.0, 2.0]]),
    "t_min": st.floats(0.1, 1e3),
    "t_max": st.floats(0.1, 1e3),
    "t_points": st.integers(1, 4),
    "t_values": positive_list(0.1, 1e3),
    "bound_quad_points": st.integers(3, 31),
}

# T up to 100 and rtol no finer than 1e-9 keep each fig2 example well under
# a second at 2 sites; T = 1000 at rtol 1e-12 takes about 4 s.
FIG2 = {
    **COMMON,
    "ode_rtol": st.floats(1e-9, 0.5),
    "t_min": st.floats(0.1, 100.0),
    "t_values": positive_list(0.1, 100.0, max_size=5),
    "robust_dt_cut": st.floats(0.01, 10.0),
}

# fig3 and zeno: at most 5 dts and 20 continuation steps, each step a 3x3
# or 4x4 eigenproblem at 2 sites.  dt_values and zeno_steps are always
# drawn, so the 29-point default grid and 100 default steps never run.
ZENO = {
    **COMMON,
    "schedule": st.sampled_from(["linear", "custom-polynomial"]),
    "schedule_coefficients": st.sampled_from([[0.0, 1.0], [0.0, 2.0, -1.0], [0.0, 2.0]]),
    "dt_min": st.floats(0.01, 2.0),
    "dt_max": st.floats(0.01, 2.0),
    "dt_step": st.floats(0.01, 2.0),
    "trace_dts": positive_list(0.01, 2.0, max_size=5),
    "zeno_family": st.sampled_from(["hermitian-path", "trotter-unitary"]),
    "zeno_dt": st.floats(0.01, 2.0),
}
ZENO_FIXED = {
    "n_sites": 2,
    "dt_values": st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5),
    "zeno_steps": st.integers(1, 20),
}

# fig1 and gamma: at most 5 T points and 3 gamma_t_values, and steps <= 20
# when drawn (COMMON), each step one 4x4 eigenproblem at 2 sites.  A
# Hamiltonian file may put the initial state in the odd reversal sector,
# which has dim 1 at 2 sites.
SWEEP = {
    **COMMON,
    "schedule": st.sampled_from(["linear", "custom-polynomial"]),
    "schedule_coefficients": st.sampled_from([[0.0, 1.0], [0.0, 2.0, -1.0], [0.0, 2.0]]),
    "hamiltonian_file": st.sampled_from(
        ["", "odd-singlet.json", "even-to-singlet.json", "mid-path-singlet.json"]
    ),
    "t_min": st.floats(0.1, 100.0),
    "t_values": positive_list(0.1, 100.0, max_size=5),
}
SWEEP_FIXED = {"n_sites": 2, "t_max": st.floats(0.1, 100.0), "t_points": st.integers(1, 5)}

# Hamiltonian files a fuzzed config may name; run() writes them next to it.
# In the first, psi_i is the singlet, alone in the odd sector; in the
# second, psi_i is |++> and psi_f the singlet, in the other sector; in the
# third, both are even and the singlet is the ground level mid-path.
HAMILTONIANS = {
    "odd-singlet.json": odd_singlet_json(),
    "even-to-singlet.json": singlet_target_json(),
    "mid-path-singlet.json": mid_path_singlet_json(),
}

RL = {
    **COMMON,
    "n_sites": st.just(2),
    "rl_steps": st.integers(2, 40),
    "rl_dt_values": positive_list(0.01, 7.0, max_size=2),
}


@st.composite
def fuzzed(draw, valid: dict, fixed=None):
    """A config dict: the fixed entries (values or strategies), any subset
    of the valid fields, and up to two valid fields replaced by an invalid
    value."""
    fixed = {
        name: value if isinstance(value, st.SearchStrategy) else st.just(value)
        for name, value in (fixed or {}).items()
    }
    config = draw(st.fixed_dictionaries(fixed, optional=valid))
    for name in draw(st.lists(st.sampled_from(sorted(valid)), max_size=2, unique=True)):
        config[name] = draw(BAD)
    return config


def run(command: str, config: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        name = config.get("hamiltonian_file")
        if isinstance(name, str) and name in HAMILTONIANS:
            (Path(tmp) / name).write_text(json.dumps(HAMILTONIANS[name]))
            config = dict(config, hamiltonian_file=str(Path(tmp) / name))
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config_path), "--out", str(out)])
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert (out / f"{command}.csv").exists() == (code == 0)
        # every CSV written, fig3's trace files included
        for csv in out.glob("*.csv") if code == 0 else ():
            lines = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
            header = lines[0].split(",")
            for line in lines[1:]:
                for column, cell in zip(header, line.split(",")):
                    value = float(cell)
                    allowed = column in MAY_BE_INFINITE.get(command, ()) and value == math.inf
                    assert math.isfinite(value) or allowed, (csv.name, column, cell, config)


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(fuzzed(RL))
def test_rl_config_fuzz(config):
    run("rl", config)


@FUZZ
@given(fuzzed(BOUND, fixed={"n_sites": 2}))
def test_bound_config_fuzz(config):
    run("bound", config)


@FUZZ
@given(
    fuzzed(
        FIG2,
        fixed={"n_sites": 2, "t_max": st.floats(0.1, 100.0), "t_points": st.integers(1, 5)},
    )
)
def test_fig2_config_fuzz(config):
    run("fig2", config)


@FUZZ
@given(fuzzed(ZENO, fixed=ZENO_FIXED))
def test_fig3_config_fuzz(config):
    run("fig3", config)


@FUZZ
@given(fuzzed(ZENO, fixed=ZENO_FIXED))
def test_zeno_config_fuzz(config):
    run("zeno", config)


@FUZZ
@given(fuzzed(SWEEP, fixed=SWEEP_FIXED))
def test_fig1_config_fuzz(config):
    run("fig1", config)


@FUZZ
@given(fuzzed(SWEEP, fixed=SWEEP_FIXED))
def test_gamma_config_fuzz(config):
    run("gamma", config)
