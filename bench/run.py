"""daslab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload tfim-spectral --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each round runs the workload's sweeps
through ``daslab.cli.main`` in one fresh process with BLAS pinned to one
thread and the CLI's ``--threads`` at its default of 1.  Rounds repeat
while the next one is expected to end within ``--seconds`` of measured
time; there is always at least one.  The first round's CSVs go through the
independent checks in ``checks.py``; every later round must write the same
bytes.  Two set-up-only processes add samples to ``setup_s``.

With ``--trace 0`` the last stdout line carries wall_s, setup_s and
peak_rss_mb (medians over rounds).  With ``--trace 1`` one untraced and one
traced round run, the traced CSVs must match the untraced bytes, and the
line carries the per-layer metrics, which also go to
``.bench_out/<workload>/seed<n>/layers.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import (
    FIG2_FIRST_ORDER_ONSET,
    FIG3_FAIL_DT,
    FIG3_FIRST_FAIL_WINDOW,
    FIG3_PASS_DT,
    WORKLOADS,
    seed_choice,
    write_inputs,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2
DEADLINE_S = 170.0

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The checks run numpy here too; idle BLAS threads of this process must not
# compete with the measured rounds.
os.environ.update(BLAS_ENV)


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def sweep_files(sweep: str, out: Path) -> list[Path]:
    files = [out / f"{sweep}.csv"]
    if sweep == "fig3":
        files += sorted(out.glob("fig3_trace_dt*.csv"))
    return files


class Run:
    """One benchmark run: its work directory, deadline and worker calls."""

    def __init__(self, workdir: Path, config: Path):
        self.workdir = workdir
        self.config = config
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, tag: str, sweeps=(), trace=False, config: Path | None = None):
        """(result dict or None, elapsed seconds) of one worker process."""
        out = self.workdir / tag
        out.mkdir()
        result_path = self.workdir / f"{tag}.json"
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--config", str((config or self.config).relative_to(ROOT)),
            "--out", str(out.relative_to(ROOT)),
            "--result", str(result_path),
            "--sweeps", ",".join(sweeps),
        ] + (["--trace"] if trace else [])
        start = time.perf_counter()
        try:
            code = subprocess.run(
                cmd,
                cwd=ROOT,
                env=worker_env(),
                stdout=subprocess.DEVNULL,
                timeout=max(1.0, self.deadline - time.monotonic()),
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"bench: worker {tag} timed out", file=sys.stderr)
            code = None
        elapsed = time.perf_counter() - start
        if code != 0 or not result_path.exists():
            return None, elapsed
        return json.loads(result_path.read_text()), elapsed


def sweep_failures(result, sweeps) -> set:
    if result is None:
        return set(sweeps)
    return {s for s in sweeps if result["codes"].get(s) != 0}


def verify(workload, choice, config: dict, out: Path, run: Run, ok_sweeps) -> dict:
    """Independent checks of one round's CSVs: sweep -> list of problems."""
    import checks  # numpy, imported after BLAS_ENV is in place

    hx, hz = checks.tfim_matrices(config["n_sites"])

    def rows(name, where=out):
        return checks.read_csv(where / f"{name}.csv")[1]

    if workload.name == "rotated-complex":
        ham = json.loads((ROOT / config["hamiltonian_file"]).read_text())
        rotation = checks.check_rotation(ham, choice.phi, hx)
        twin_path = run.workdir / "twin_config.json"
        twin_path.write_text(json.dumps(workload.config))
        twin, _ = run.worker("twin", workload.sweeps, config=twin_path)
        twin_failed = sweep_failures(twin, workload.sweeps)

        def against_twin(sweep):
            if sweep in twin_failed:
                return rotation + [f"rotated {sweep}: the TFIM twin failed"]
            return rotation + checks.check_twin(sweep, rows(sweep), rows(sweep, run.workdir / "twin"))

        suite = {s: functools.partial(against_twin, s) for s in workload.sweeps}
    else:
        suite = {
            "bound": lambda: checks.check_bound(rows("bound"), config, hx, hz),
            "gamma": lambda: checks.check_gamma(rows("gamma"), config),
            "fig1": lambda: checks.check_fig1(rows("fig1"), config, choice.fig1_rows, hx, hz),
            "rl": lambda: checks.check_rl(rows("rl"), config),
            "fig2": lambda: checks.check_fig2(
                rows("fig2"), config, choice.fig2_rows, FIG2_FIRST_ORDER_ONSET, hx, hz
            ),
            "fig3": lambda: checks.check_fig3(
                rows("fig3"),
                {float(dt): rows(f"fig3_trace_dt{float(dt):g}") for dt in config["trace_dts"]},
                config, FIG3_PASS_DT, FIG3_FAIL_DT, FIG3_FIRST_FAIL_WINDOW,
            ),
            "zeno": lambda: checks.check_zeno(rows("zeno"), config),
        }

    problems = {}
    for sweep in ok_sweeps:
        try:
            problems[sweep] = suite[sweep]()
        except Exception as exc:  # a missing or malformed CSV is a failed check
            problems[sweep] = [f"{sweep}: check raised {exc!r}"]
    return problems


def same_bytes(sweep: str, a: Path, b: Path) -> bool:
    files_a, files_b = sweep_files(sweep, a), sweep_files(sweep, b)
    if [f.name for f in files_a] != [f.name for f in files_b]:
        return False
    return all(
        fa.exists() and fb.exists() and fa.read_bytes() == fb.read_bytes()
        for fa, fb in zip(files_a, files_b)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "daslab" / "cli.py").is_file():
        print(f"bench: no daslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    choice = seed_choice(workload, args.seed)
    workdir = OUT / workload.name / f"seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_path = write_inputs(workload, choice, workdir, ROOT)
    config = json.loads(config_path.read_text())
    run = Run(workdir, config_path)
    sweeps = workload.sweeps

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe, _ = run.worker(f"probe{k}")
            if probe is not None:
                setups.append(probe["setup_s"])

    attempted = failed = 0
    correct = True

    def account(failures: set, wrong: set) -> None:
        nonlocal attempted, failed, correct
        attempted += len(sweeps)
        failed += len(failures | wrong)
        correct = correct and not wrong

    first, elapsed = run.worker("round1", sweeps)
    crashed = sweep_failures(first, sweeps)
    ok_sweeps = [s for s in sweeps if s not in crashed]
    problems = verify(workload, choice, config, workdir / "round1", run, ok_sweeps)
    for sweep, found in problems.items():
        for line in found:
            print(f"bench: FAILED {line}", file=sys.stderr)
    account(crashed, {s for s, found in problems.items() if found})
    results = [first] if first is not None else []

    def repeat(tag: str, trace=False):
        """A later round; its CSVs must match round 1's bytes."""
        result, elapsed = run.worker(tag, sweeps, trace=trace)
        crashed = sweep_failures(result, sweeps)
        account(crashed, {
            s for s in sweeps
            if s not in crashed and not same_bytes(s, workdir / tag, workdir / "round1")
        })
        return result, elapsed

    metrics = {}
    if args.trace:
        traced, _ = repeat("traced", trace=True)
        if traced is not None and first is not None:
            values = tracing.layer_metrics(traced["trace"], traced["wall_s"], first["wall_s"])
            metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in values.items()}
            (workdir / "layers.json").write_text(
                json.dumps({"metrics": metrics, "summary": traced["trace"]}, indent=1)
            )
    else:
        measured = longest = elapsed
        rounds = 1
        while measured + longest <= args.seconds and time.monotonic() + longest < run.deadline:
            rounds += 1
            result, elapsed = repeat(f"round{rounds}")
            if result is not None:
                results.append(result)
            measured += elapsed
            longest = max(longest, elapsed)
        if results:
            setups += [r["setup_s"] for r in results]
            metrics = {
                "wall_s": {"value": statistics.median(r["wall_s"] for r in results), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(r["peak_rss_mb"] for r in results),
                    "unit": "MB",
                },
            }

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
