"""One round of a workload in a fresh process.

Measures set-up (importing daslab and its numpy/scipy stack, loading the
config and any Hamiltonian file, building the path, the endpoint states),
then runs each sweep through ``daslab.cli.main`` and times it from the call
until the CSV is written.  Writes a JSON result; the orchestrator is
``run.py``.

    python3 bench/worker.py --config C --out DIR --result R.json [--sweeps a,b] [--trace]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--sweeps", default="", help="comma-separated; empty measures set-up only")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from daslab import cli
    from daslab.errors import endpoint_states

    config = cli.load_config(args.config, None, None)
    endpoint_states(config.build_path())
    setup_s = time.perf_counter() - START

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    sweeps = [name for name in args.sweeps.split(",") if name]
    codes, walls = {}, {}
    for name in sweeps:
        start = time.perf_counter()
        try:
            codes[name] = cli.main([name, "--config", args.config, "--out", args.out])
        except Exception:  # a crash is one failed operation; keep measuring
            traceback.print_exc()
            codes[name] = 1
        walls[name] = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "codes": codes,
        "walls": walls,
        "wall_s": sum(walls.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        result["spans"] = recorder.spans
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
