"""Experiment driver: sweep commands emitting CSV (and optional SVG plots).

Subcommands: fig1, fig2, fig3, rl, gamma, bound, zeno.  Every CSV starts
with a comment line carrying the hash of the resolved configuration.  On one
machine and BLAS thread count, identical configs reproduce identical files
byte for byte; across them, fig3's failing rows and traces can move, and so
can gamma's eps_first_order on a path without exact site-reversal symmetry
(see the README), while fig1 and fig2 move by rounding alone (at most 1e-14
between one and two OpenBLAS threads at their defaults).  fig2, fig3
and zeno run inside the site-reversal sector of the initial state, and
gamma does where that sector holds the ground level on the whole grid.
fig1 forms both its discretized and its Trotterized propagator in each
sector from the sector's own path, never on the full space of a symmetric
path, and bound diagonalizes its nodes per sector.  fig1 and gamma make
one pass over their grid in stacks per group of T points, each stack
folded into every T of the group and then dropped, so neither holds a
steps x dim^2 spectrum nor more than FOLD_ENTRIES of accumulators.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .exceptions import ConfigError, DimensionTooLarge, SimulationError
from .linalg import GAP_FLOOR, ground_state, operator_norm
from .model import (
    MAX_SCHEDULE_COEFFICIENTS,
    MAX_SITES,
    MIN_SITES,
    PARITY_TOL,
    _SCHEDULE_NAMES,
    AdiabaticPath,
    linear_schedule,
    load_path_json,
    path_at,
    path_energies,
    polynomial_schedule,
    reversal_blocks,
    spectrum_stacks,
    tfim_path,
)
from .evolve import (
    GRIDS,
    ODE_RTOL_FLOOR,
    EvolutionSpec,
    discrete_products,
    discrete_state,
    exact_state_evolution,
    grid_points,
    interpolation_layers,
    trotter_evolution,
    trotter_state,
)
from .errors import bound_profile, endpoint_states, fidelity_error, scaling_index
from .eigenframes import expansion_pass, transported_stream
from .riemann_lebesgue import OscillatorySumSpec, sum_bounds
from .zeno import (
    HERMITIAN_FAMILY, UNITARY_FAMILY, effective_family, hermitian_family, near_degeneracy_test,
)
from . import svg as svgmod

# Largest counts a config may ask for, each set from what one unit costs at
# the default 8 sites (dim 256), so that an absurd count is refused before
# anything runs.
# A dt or T grid point is a whole continuation or propagation, up to about
# a second each; the default grids have 29 and 40 points.  fig1 and gamma
# fold their grid into the T points one FOLD_ENTRIES group at a time, so
# their memory does not grow with the count.
MAX_DT_POINTS = 10_000
MAX_T_POINTS = 10_000
# fig1 and gamma make one pass over their grid per group of T points, each
# T holding one dim x dim complex accumulator per reversal block; a group's
# accumulators hold at most FOLD_ENTRIES entries (32 MB), so the default
# 40 T at 8 sites (blocks 136 and 120) take one pass and 10^4 T take 159.
# At 8 sites, one BLAS thread, 10^3 T peaked at 83 MB (fig1, 175 s) and
# 78 MB (gamma, 32 s), and 10^4 T at 82 MB (gamma, 359 s) and 86 MB
# (fig1, 1648 s).
FOLD_ENTRIES = 1 << 21
# fig1 and gamma diagonalize their grid one stack of at most
# model.STACK_ENTRIES entries at a time and fold it into every T, and the
# propagator products hold one step, and one step's phases, at a time.  At
# 8 sites and 10^4 steps, one BLAS thread, gamma peaked at 54 MB in 43 s,
# and fig1 with one T at 51 MB in 44 s; the default is 100.
MAX_STEPS = 10_000
# Each continuation step is one Trotter step and one unitary_eig, a few ms.
MAX_ZENO_STEPS = 10_000
# rl evaluates its sum on arrays of rl_steps complex entries, 16 MB each at
# 10^6.
MAX_RL_STEPS = 10**6
# Each Simpson node of the bound is one dim x dim eigvalsh, a few ms.
MAX_QUAD_POINTS = 10_001
# Each sweep-point worker is a thread that holds its point's working set:
# a few dim x dim complex matrices of 1 MB each at 8 sites (one step's
# factors and the finished propagators; fig1's per-T accumulators are held
# once per FOLD_ENTRIES group, whatever the count).  The default fig1 peaked at 70.8 MB with one
# worker and 77.9 MB with two, so 64 workers ask for well under 1 GB; past
# the core count more workers only wait on the BLAS.
MAX_THREADS = 64

_KINDS = {
    int: "an integer in [{}, {}]",
    float: "a finite number in ({}, {})",
    tuple: "a list of finite numbers in ({}, {})",
    bool: "true or false",
    Path: "an existing file or empty",
}


def _rule(default, kind, low=-np.inf, high=np.inf, length=None):
    """A config field: its default and what it accepts.

    ``kind`` is int, float, bool, Path, tuple (a list of finite numbers) or
    a tuple of the allowed names.  An integer lies in [low, high]; a number,
    and every entry of a list, in (low, high).  A list holds at most
    ``length`` entries when that is given.
    """
    return field(default=default, metadata={"rule": (kind, low, high, length)})


def _accepts(value, kind, low, high, length=None) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind is tuple:
        return (
            isinstance(value, tuple)
            and (length is None or len(value) <= length)
            and all(_accepts(v, float, low, high) for v in value)
        )
    if kind is bool or isinstance(value, bool):  # a JSON true/false is never a number
        return kind is bool and isinstance(value, bool)
    if kind is Path:
        return isinstance(value, str) and (not value or Path(value).is_file())
    if kind is int:
        return isinstance(value, int) and low <= value <= high
    # abs() <= float max rules out NaN, +-inf and ints too large for a float
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return finite and low < value < high


@dataclass
class RunConfig:
    """Resolved run parameters; defaults reproduce the reference sweeps."""

    n_sites: int = _rule(8, int, MIN_SITES, MAX_SITES)
    periodic: bool = _rule(False, bool)
    schedule: str = _rule("linear", _SCHEDULE_NAMES)
    schedule_coefficients: tuple = _rule((), tuple, length=MAX_SCHEDULE_COEFFICIENTS)
    hamiltonian_file: str = _rule("", Path)
    grid: str = _rule("endpoints", GRIDS)
    steps: int = _rule(100, int, 2, MAX_STEPS)
    t_min: float = _rule(4.0, float, 0)
    t_max: float = _rule(200.0, float, 0)
    t_points: int = _rule(40, int, 1, MAX_T_POINTS)
    t_values: tuple = _rule((), tuple, 0, length=MAX_T_POINTS)
    dt_min: float = _rule(0.1, float, 0)
    dt_max: float = _rule(1.5, float, 0)
    dt_step: float = _rule(0.05, float, 0)
    dt_values: tuple = _rule((), tuple, 0, length=MAX_DT_POINTS)
    zeno_threshold: float = _rule(0.99, float, 0, 1)
    zeno_steps: int = _rule(100, int, 1, MAX_ZENO_STEPS)
    zeno_family: str = _rule(UNITARY_FAMILY, (HERMITIAN_FAMILY, UNITARY_FAMILY))
    zeno_dt: float = _rule(0.8, float, 0)
    trace_dts: tuple = _rule((0.8, 1.0, 1.2), tuple, 0, length=MAX_DT_POINTS)
    rl_steps: int = _rule(100, int, 2, MAX_RL_STEPS)
    rl_dt_values: tuple = _rule((0.5, 1.0, 2 * np.pi), tuple, 0, length=MAX_DT_POINTS)
    gamma_t_values: tuple = _rule((10.0, 50.0), tuple, 0, length=MAX_T_POINTS)
    bound_quad_points: int = _rule(201, int, 3, MAX_QUAD_POINTS)
    ode_rtol: float = _rule(1e-9, float, ODE_RTOL_FLOOR, 1)
    robust_dt_cut: float = _rule(0.8, float, 0)
    threads: int = _rule(1, int, 1, MAX_THREADS)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        kinds = {f.name: f.metadata["rule"][0] for f in fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        lists = {k: tuple(v) for k, v in data.items() if kinds[k] is tuple and isinstance(v, list)}
        merged = cls(**{**data, **lists})
        merged.validate()
        return merged

    def validate(self) -> None:
        for f in fields(self):
            value, (kind, low, high, length) = getattr(self, f.name), f.metadata["rule"]
            if not _accepts(value, kind, low, high, length):
                wanted = "one of " + ", ".join(kind) if isinstance(kind, tuple) else _KINDS[kind]
                got = repr(value)
                if length is not None:
                    wanted += f", at most {length} of them"
                    if isinstance(value, tuple) and len(value) > length:
                        got = f"{len(value)} entries"
                raise ConfigError(f"{f.name} must be {wanted.format(low, high)}, got {got}")
        if self.t_max < self.t_min:
            raise ConfigError("t_max must be >= t_min")
        if np.any(np.diff(self.t_grid()) <= 0):
            raise ConfigError(
                "the T grid must be strictly increasing: t_values in order, or"
                " t_min < t_max when t_points > 1"
            )
        trace_dts = set(map(float, self.trace_dts))
        if len({trace_csv_name("fig3", dt) for dt in trace_dts}) < len(trace_dts):
            raise ConfigError("two trace_dts share one trace file name (6 significant digits)")
        if self.dt_max < self.dt_min:
            raise ConfigError("dt_max must be >= dt_min")
        if not (self.dt_max - self.dt_min) / self.dt_step < MAX_DT_POINTS:
            raise ConfigError(f"dt_min:dt_step:dt_max has more than {MAX_DT_POINTS} points")

    def digest(self) -> str:
        """Hash of the fields that can change the output.

        ``threads`` only spreads sweep points over workers, so it is left
        out; the Hamiltonian file enters by its contents, not its path.
        """
        data = asdict(self)
        del data["threads"]
        if self.hamiltonian_file:
            data["hamiltonian_file"] = hashlib.sha256(
                Path(self.hamiltonian_file).read_bytes()
            ).hexdigest()
        payload = json.dumps(data, sort_keys=True, default=float)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def t_grid(self) -> np.ndarray:
        if self.t_values:
            return np.asarray(self.t_values, dtype=float)
        return np.geomspace(self.t_min, self.t_max, self.t_points)

    def dt_grid(self) -> np.ndarray:
        if self.dt_values:
            return np.asarray(self.dt_values, dtype=float)
        count = int(round((self.dt_max - self.dt_min) / self.dt_step)) + 1
        return np.round(self.dt_min + self.dt_step * np.arange(count), 10)

    def build_path(self) -> AdiabaticPath:
        """The configured path; a bad Hamiltonian file or schedule is a ConfigError."""
        try:
            if self.hamiltonian_file:
                return load_path_json(self.hamiltonian_file)
            schedule = linear_schedule()
            if self.schedule == "custom-polynomial":
                schedule = polynomial_schedule(self.schedule_coefficients)
        except (OSError, ValueError, DimensionTooLarge) as exc:
            raise ConfigError(f"cannot build the path: {exc}") from exc
        return tfim_path(self.n_sites, self.periodic, schedule)


def trace_csv_name(command: str, dt: float) -> str:
    """File name of a command's overlap trace at step dt."""
    return f"{command}_trace_dt{dt:g}.csv"


def load_config(path: str | None, seed: None, threads: int | None) -> RunConfig:
    # The middle slot held the removed seed option; positional callers keep working.
    if seed is not None:
        raise ConfigError("--seed was removed")
    data = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or a huge integer
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
    if threads is not None:
        data["threads"] = threads
    return RunConfig.from_dict(data)


def _shared_layers(path: AdiabaticPath):
    """The path's interpolation layers, each diagonalized here once, so that
    every sweep point, on any worker, reuses the same eigendata.  A sweep
    that runs in site-reversal blocks passes a block path, whose layers
    are the blocks of H_i and H_f, so nothing is diagonalized on the full
    space."""
    layers = interpolation_layers(path)
    for layer in layers:
        layer.eig
    return layers


@contextmanager
def _workers(threads: int):
    """``run(fn, items)``, the list of fn(item) in order, spread over
    ``threads`` worker threads that live as long as the context."""
    if threads <= 1:
        yield lambda fn, items: [fn(item) for item in items]
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def _parallel(fn, items, threads: int):
    with _workers(threads if len(items) > 1 else 1) as run:
        return run(fn, items)


def write_csv(path: Path, columns, rows, config: RunConfig, extra_comments=()) -> None:
    lines = [f"# daslab config_hash={config.digest()}"]
    lines += [f"# {comment}" for comment in extra_comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# sweep cores


def fig1_rows(config: RunConfig) -> list[dict]:
    """Norm distance against Trotter-only fidelity error over the T grid.

    The fidelity column compares the discretized and Trotterized propagators
    on the initial state, isolating the Trotter split from discretization;
    the norm column is the spectral distance between the same two operators.

    Both propagators commute with site reversal, so both are multiplied per
    block of :func:`~daslab.model.reversal_blocks`, psi_i's first, and
    paired block by block: the norm is the larger block norm and the
    fidelity is taken in psi_i's block.  The discretized side is
    :func:`~daslab.evolve.discrete_products`, one pass over each block's
    grid for each group of T points (:func:`_t_groups`), each stack folded
    into every T's accumulator at dt = T / steps; the Trotterized side is
    one ``trotter_evolution`` call per T on every block's spec, from each
    block path's layers, which :func:`_shared_layers` diagonalizes once.  A
    path without the symmetry is its own single block, the full space.  A
    group's discretized propagators are dropped once its rows are out.
    ``threads`` workers split the T points, within each stack of the pass
    and then for the Trotter side.
    """
    path = config.build_path()
    psi_i, _ = endpoint_states(path)
    blocks = reversal_blocks(path, psi_i)
    phi_i = blocks[0].project(psi_i)
    s_values = grid_points(config.steps, config.grid)
    layers = [_shared_layers(block.path) for block in blocks]
    times = [float(t) for t in config.t_grid()]

    def one_group(group: list[float], run) -> list[dict]:
        dts = [total_time / config.steps for total_time in group]
        products = [discrete_products(b.path, s_values, dts, run) for b in blocks]

        def one(i: int) -> dict:
            specs = [
                EvolutionSpec(
                    path=block.path, total_time=group[i], steps=config.steps, grid=config.grid,
                    layers=block_layers,
                )
                for block, block_layers in zip(blocks, layers)
            ]
            pairs = [(a_d[i], a_t.matrix) for a_d, a_t in zip(products, trotter_evolution(specs))]
            a_d, a_tro = pairs[0]  # psi_i's block
            return {
                "T": group[i],
                "dt": specs[0].dt,
                "norm_dist": max(operator_norm(d - t) for d, t in pairs),
                "eps_tro": fidelity_error(a_d @ phi_i, a_tro @ phi_i),
            }

        return run(one, range(len(group)))

    groups = _t_groups(times, sum(block.path.dim**2 for block in blocks))
    with _workers(min(config.threads, len(times))) as run:
        return [row for group in groups for row in one_group(group, run)]


def _t_groups(times: list[float], entries: int) -> list[list[float]]:
    """``times`` in order, split into groups whose fold accumulators,
    ``entries`` complex entries per T, hold at most FOLD_ENTRIES entries
    (at least one T a group)."""
    size = max(1, FOLD_ENTRIES // entries)
    return [times[start:start + size] for start in range(0, len(times), size)]


def fig2_rows(config: RunConfig) -> tuple[list[dict], float]:
    """Adiabatic/Trotter/total error sweep plus the robust-window scaling index.

    All three errors compare states, so only psi_i is evolved: the exact
    dynamics by adaptive state integration and the Trotter steps by
    matrix-vector products; no propagator matrix is formed.  Both run inside
    psi_i's site-reversal block, the first of
    :func:`~daslab.model.reversal_blocks`, and psi_f is projected onto it,
    which keeps every overlap.  The robust window is T in
    [t_min, steps * robust_dt_cut].
    """
    path = config.build_path()
    psi_i, psi_f = endpoint_states(path)
    block = reversal_blocks(path, psi_i)[0]
    path, psi_i, psi_f = block.path, block.project(psi_i), block.project(psi_f)
    layers = _shared_layers(path)

    def one(total_time: float) -> dict:
        spec = EvolutionSpec(
            path=path, total_time=total_time, steps=config.steps, grid=config.grid,
            layers=layers,
        )
        exact = exact_state_evolution(path, total_time, psi_i, rtol=config.ode_rtol)
        tro_state = trotter_state(spec, psi_i)
        return {
            "T": total_time,
            "eps_adb": fidelity_error(psi_f, exact),
            "eps_tro": fidelity_error(exact, tro_state),
            "eps_tot": fidelity_error(psi_f, tro_state),
        }

    rows = _parallel(one, [float(t) for t in config.t_grid()], config.threads)
    cut = config.steps * config.robust_dt_cut
    window = [(r["T"], r["eps_tot"]) for r in rows if r["T"] <= cut and r["eps_tot"] > 0]
    index = scaling_index(window) if len(window) >= 4 else float("nan")
    return rows, index


def fig3_rows(config: RunConfig) -> tuple[list[dict], dict]:
    """Near-degeneracy pass/fail over the dt grid plus per-dt overlap traces.

    The continuation runs inside the initial state's site-reversal block,
    the first of :func:`~daslab.model.reversal_blocks`.  A trace dt on the
    grid reuses that grid point's trace.
    """
    path = config.build_path()
    psi_i, _ = endpoint_states(path)
    block = reversal_blocks(path, psi_i)[0]
    path, psi_i = block.path, block.project(psi_i)
    layers = _shared_layers(path)

    def trace_at(dt: float):
        return near_degeneracy_test(
            effective_family(path, dt, layers),
            steps=config.zeno_steps,
            threshold=config.zeno_threshold,
            initial_state=psi_i,
        )

    dts = [float(dt) for dt in config.dt_grid()]
    grid_traces = _parallel(trace_at, dts, config.threads)
    rows = [
        {"dt": dt, "pass": trace.passed, "min_overlap": trace.min_overlap}
        for dt, trace in zip(dts, grid_traces)
    ]
    traces = {}
    for dt in config.trace_dts:
        dt = float(dt)
        match = next((t for d, t in zip(dts, grid_traces) if abs(d - dt) < 1e-12), None)
        traces[dt] = match if match is not None else trace_at(dt)
    return rows, traces


def rl_rows(config: RunConfig) -> list[dict]:
    """Oscillatory-sum report for the constant test case f = 1, lambda = 1."""
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))  # noqa: E731
    rows = []
    for dt in config.rl_dt_values:
        spec = OscillatorySumSpec(
            f=one, lam=one, total_time=float(dt) * config.rl_steps, steps=config.rl_steps
        )
        report = sum_bounds(spec)
        rows.append(
            {
                "T": spec.total_time,
                "L": spec.steps,
                "dt": spec.dt,
                "abs_J": report.magnitude,
                "abs_I": abs(report.continuum),
                "boundary_bound": report.boundary_bound,
                "first_order_bound": report.first_order_bound,
                "second_order_bound": report.second_order_bound,
                "threshold_ok": report.threshold_ok,
            }
        )
    return rows


def gamma_rows(config: RunConfig) -> list[dict]:
    """Frame-propagator summary per T: exact error, first-order estimate,
    and the cross-module fidelity check.

    One pass over the grid in :func:`~daslab.model.spectrum_stacks` stacks
    serves each group of T points (:func:`_t_groups`, one group at the
    usual counts): each grid point is diagonalized once per group, brought
    into the parallel-transport gauge
    (:func:`~daslab.eigenframes.transported_stream`) and applied to every
    T's frame propagator and first-order amplitudes
    (:func:`~daslab.eigenframes.expansion_pass`), and no stack is kept past
    its fold.  The fidelity check evolves psi_i by the discretized steps,
    each stack folded into every T's state by
    :func:`~daslab.evolve.discrete_state` from the raw (untransported)
    bases, so it stays independent of the frame expansion.
    Everything runs inside the site-reversal sector of psi_i, with psi_f
    projected onto it, where that sector holds the ground level at every
    grid point (see :func:`_ground_sector`), and on the full space
    otherwise.
    """
    s_values = grid_points(config.steps, config.grid)
    path, psi_i, psi_f = _ground_sector(config.build_path(), s_values)

    def one_pass(times: list[float]) -> list[dict]:
        states = [psi_i] * len(times)

        def fold_states(stack):
            for i, total_time in enumerate(times):
                states[i] = discrete_state(stack, total_time / config.steps, states[i])
            return stack

        frames = transported_stream(map(fold_states, spectrum_stacks(path, s_values)))
        expansions = expansion_pass(path, frames, times, config.steps)
        return [
            {
                "T": expansion.total_time,
                "L": config.steps,
                "eps_adb_exact": expansion.adiabatic_error,
                "eps_first_order": expansion.first_order_error,
                "fidelity_check": fidelity_error(state, psi_f),
            }
            for expansion, state in zip(expansions, states)
        ]

    groups = _t_groups([float(t) for t in config.gamma_t_values], path.dim**2)
    return [row for group in groups for row in one_pass(group)]


def _ground_sector(path: AdiabaticPath, s_values) -> tuple:
    """``(path, psi_i, psi_f)`` on psi_i's site-reversal sector when that
    sector holds the ground level of H(s) at every point of ``s_values``,
    and on the full path otherwise.

    The sector is kept when psi_f's projection keeps its norm within
    PARITY_TOL and the other sector's lowest level lies more than GAP_FLOOR
    above the sector's ground level at every grid point.  Then the
    full-space ground level is the sector's, the couplings to the other
    sector vanish, and the full-space ground gap is above GAP_FLOOR exactly
    when the sector's is, so the frames and their gap guard give the
    full-space result.  Both lowest levels come from
    :func:`~daslab.model.path_energies`, eigenvalues alone, so the choice is
    made before any pass forms a basis; only their first columns are kept.
    """
    psi_i, psi_f = endpoint_states(path)
    blocks = reversal_blocks(path, psi_i)
    phi_i, phi_f = map(blocks[0].project, (psi_i, psi_f))
    if len(blocks) == 2 and abs(np.linalg.norm(phi_f) - 1.0) <= PARITY_TOL:
        ground, rival = (path_energies(block.path, s_values)[:, 0].copy() for block in blocks)
        if np.all(rival - ground > GAP_FLOOR):
            return blocks[0].path, phi_i, phi_f
    return path, psi_i, psi_f


def bound_rows(config: RunConfig) -> list[dict]:
    path = config.build_path()
    profile = bound_profile(path, config.bound_quad_points)
    rows = []
    for total_time in config.t_grid():
        report = profile.report(float(total_time))
        rows.append(
            {
                "T": float(total_time),
                "boundary_start": report.boundary_start,
                "boundary_end": report.boundary_end,
                "integral_term": report.integral_term,
                "total": report.total,
            }
        )
    return rows


def zeno_rows(config: RunConfig) -> list[dict]:
    """Single near-degeneracy trace for the configured family, continued
    inside the initial state's site-reversal block (see
    :func:`~daslab.model.reversal_blocks`)."""
    path = config.build_path()
    hermitian = config.zeno_family == HERMITIAN_FAMILY
    # The Hermitian family does not need a unique ground state of H_f.
    psi_i = ground_state(path_at(path, 0.0).matrix) if hermitian else endpoint_states(path)[0]
    block = reversal_blocks(path, psi_i)[0]
    path, psi_i = block.path, block.project(psi_i)
    if hermitian:
        family = hermitian_family(path)
    else:
        family = effective_family(path, config.zeno_dt, _shared_layers(path))
    trace = near_degeneracy_test(
        family,
        steps=config.zeno_steps,
        threshold=config.zeno_threshold,
        initial_state=psi_i,
    )
    return _trace_rows(trace)


def _trace_rows(trace) -> list[dict]:
    steps = len(trace.overlaps)
    return [
        {"step": j + 1, "s": (j + 1) / steps, "overlap": trace.overlaps[j]}
        for j in range(steps)
    ]


# ---------------------------------------------------------------------------
# command table


@dataclass(frozen=True)
class Command:
    """One sweep: how to run it, its CSV columns, and its SVG plot.

    ``run`` returns (rows, extra CSV comments, overlap traces by dt).  The
    plot draws each column in ``series`` against column ``x``.
    """

    run: Callable[[RunConfig], tuple]
    columns: tuple[str, ...]
    x: str
    series: tuple[str, ...]
    title: str
    ylabel: str
    log: bool = False


TRACE_COLUMNS = ("step", "s", "overlap")


def _fig2(config: RunConfig):
    rows, index = fig2_rows(config)
    return rows, [f"eps_tot_slope_robust_window={index!r}"], {}


def _fig3(config: RunConfig):
    rows, traces = fig3_rows(config)
    return rows, [], traces


# The row functions are looked up when a command runs, not when the table
# is built, so a wrapper installed on this module's names sees the call.
COMMANDS = {
    "fig1": Command(
        lambda config: (fig1_rows(config), [], {}),
        ("T", "dt", "norm_dist", "eps_tro"),
        x="T", series=("norm_dist", "eps_tro"),
        title="Norm distance vs Trotter fidelity error", ylabel="error", log=True,
    ),
    "fig2": Command(
        _fig2,
        ("T", "eps_adb", "eps_tro", "eps_tot"),
        x="T", series=("eps_adb", "eps_tro", "eps_tot"),
        title="Error scaling", ylabel="error", log=True,
    ),
    "fig3": Command(
        _fig3,
        ("dt", "pass", "min_overlap"),
        x="dt", series=("min_overlap",),
        title="Near-degeneracy test over Trotter step", ylabel="min overlap",
    ),
    "rl": Command(
        lambda config: (rl_rows(config), [], {}),
        ("T", "L", "dt", "abs_J", "abs_I", "boundary_bound", "first_order_bound",
         "second_order_bound", "threshold_ok"),
        x="dt", series=("abs_J",),
        title="Oscillatory sum magnitude", ylabel="|J|",
    ),
    "gamma": Command(
        lambda config: (gamma_rows(config), [], {}),
        ("T", "L", "eps_adb_exact", "eps_first_order", "fidelity_check"),
        x="T", series=("eps_adb_exact", "eps_first_order"),
        title="Discrete adiabatic error", ylabel="error", log=True,
    ),
    "bound": Command(
        lambda config: (bound_rows(config), [], {}),
        ("T", "boundary_start", "boundary_end", "integral_term", "total"),
        x="T", series=("total",),
        title="Adiabatic-theorem bound", ylabel="bound", log=True,
    ),
    "zeno": Command(
        lambda config: (zeno_rows(config), [], {}),
        TRACE_COLUMNS,
        x="s", series=("overlap",),
        title="Overlap continuation", ylabel="overlap",
    ),
}


def run_command(name: str, config: RunConfig, out: Path, want_svg: bool) -> None:
    """Run one sweep and write its CSV, its trace CSVs and, if asked, its SVG."""
    command = COMMANDS[name]
    rows, comments, traces = command.run(config)
    write_csv(out / f"{name}.csv", command.columns, rows, config, comments)
    for dt, trace in sorted(traces.items()):
        write_csv(out / trace_csv_name(name, dt), TRACE_COLUMNS, _trace_rows(trace), config)
    if want_svg:
        xs = [r[command.x] for r in rows]
        svgmod.write_line_plot(
            out / f"{name}.svg",
            [(key, xs, [r[key] for r in rows]) for key in command.series],
            title=command.title,
            xlabel=command.x,
            ylabel=command.ylabel,
            logx=command.log,
            logy=command.log,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daslab",
        description="Digital adiabatic simulation sweeps (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} sweep")
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--svg", action="store_true", help="also write SVG plots")
        cmd.add_argument("--threads", type=int, default=None, help="sweep-point workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, None, args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        run_command(args.command, config, out, args.svg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
