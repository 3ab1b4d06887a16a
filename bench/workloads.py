"""Workload definitions: the sweeps each workload runs, its config, and
what the workload seed picks.

Every workload uses the 8-site chain (dim 256) and L = 100 steps on grids
shortened so that one round of sweeps takes 13-19 s on one core.  The
program consumes no randomness; the seed only picks the rotation angle of
`rotated-complex` and the rows that the independent checks recompute.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

N_SITES = 8
STEPS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[str, ...]
    config: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tfim-spectral",
            sweeps=("bound", "gamma", "fig1", "rl"),
            config={
                "n_sites": N_SITES,
                "steps": STEPS,
                "t_values": [30.0, 90.0],
                "bound_quad_points": 41,
                "gamma_t_values": [50.0],
            },
        ),
        Workload(
            name="tfim-exact",
            sweeps=("fig2",),
            config={"n_sites": N_SITES, "steps": STEPS, "t_values": [40.0, 200.0]},
        ),
        Workload(
            name="tfim-zeno",
            sweeps=("fig3", "zeno"),
            config={
                "n_sites": N_SITES,
                "steps": STEPS,
                "dt_values": [0.4, 0.7, 1.2],
                "trace_dts": [0.4, 1.2],
                "zeno_dt": 0.4,
            },
        ),
        Workload(
            name="rotated-complex",
            sweeps=("bound", "fig1", "fig2", "fig3"),
            config={
                "n_sites": N_SITES,
                "steps": STEPS,
                "t_values": [30.0],
                "bound_quad_points": 41,
                "dt_values": [0.4],
                "trace_dts": [],
            },
        ),
    )
}

# Expected fig3 classification of the 8-site chain (critical step ~0.675).
FIG3_PASS_DT = 0.4
FIG3_FAIL_DT = 1.2
FIG3_FIRST_FAIL_WINDOW = (0.7, 0.9)

# fig2 rows at or past this T lie in the first-order regime: on the default
# 40-point grid, T * eps_adb stays in the endpoint band from T = 29.7 on.
FIG2_FIRST_ORDER_ONSET = 30.0


@dataclass(frozen=True)
class SeedChoice:
    """What the workload seed decides."""

    phi: float
    fig1_rows: tuple[int, ...]
    fig2_rows: tuple[int, ...]


def seed_choice(workload: Workload, seed: int) -> SeedChoice:
    rng = random.Random(seed)
    phi = rng.uniform(0.3, 1.2)
    n_t = len(workload.config.get("t_values", ()))
    fig1_rows = (rng.randrange(n_t),) if "fig1" in workload.sweeps and n_t else ()
    fig2_rows = (rng.randrange(n_t),) if "fig2" in workload.sweeps and n_t else ()
    if workload.name == "rotated-complex":
        # Its rows are checked against the TFIM twin, not recomputed.
        fig1_rows = fig2_rows = ()
    return SeedChoice(phi=phi, fig1_rows=fig1_rows, fig2_rows=fig2_rows)


def rotated_hamiltonian(n_sites: int, phi: float) -> dict:
    """Hamiltonian file of the TFIM conjugated by R = exp(-i phi/2 sum_j Z_j).

    H_i = -sum_j (cos phi X_j + sin phi Y_j) has a nonzero imaginary part;
    H_f = -sum_j (Z_j + Z_j Z_{j+1}) commutes with R and is unchanged.
    """
    h_initial = []
    for j in range(n_sites):
        h_initial.append({"coeff": -math.cos(phi), "factors": [[j, "X"]]})
        h_initial.append({"coeff": -math.sin(phi), "factors": [[j, "Y"]]})
    h_final = [{"coeff": -1.0, "factors": [[j, "Z"]]} for j in range(n_sites)]
    h_final += [
        {"coeff": -1.0, "factors": [[j, "Z"], [j + 1, "Z"]]} for j in range(n_sites - 1)
    ]
    return {
        "n_sites": n_sites,
        "h_initial": h_initial,
        "h_final": h_final,
        "schedule": {"name": "linear"},
    }


def write_inputs(workload: Workload, choice: SeedChoice, workdir: Path, root: Path) -> Path:
    """Write the workload's config (and Hamiltonian file) into workdir.

    Paths inside the config are relative to the checkout root, the working
    directory of every sweep, so the CSV bytes do not depend on where the
    checkout lives.
    """
    config = dict(workload.config)
    if workload.name == "rotated-complex":
        ham = workdir / "hamiltonian.json"
        ham.write_text(json.dumps(rotated_hamiltonian(N_SITES, choice.phi), indent=1))
        config["hamiltonian_file"] = str(ham.relative_to(root))
    target = workdir / "config.json"
    target.write_text(json.dumps(config, indent=1))
    return target
