"""Diff two saved sets of a workload's CSVs row by row.

    python3 bench/compare.py OLD_DIR NEW_DIR [--tol 1e-9]

Without ``--tol`` every line must match exactly.  With it, numeric cells
(and ``key=value`` comments) match when |a - b| <= tol * max(1, |a|, |b|).
The ``config_hash`` line is skipped: it hashes the absolute
``hamiltonian_file`` path, which differs between checkouts.  Exit 0 when
the sets agree, 1 when they differ.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def _numbers_match(a: str, b: str, tol: float | None) -> bool:
    if a == b:
        return True
    if tol is None:
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _cells(line: str) -> list[str]:
    if line.startswith("#"):
        return line.rpartition("=")[::2] if "=" in line else [line]
    return line.split(",")


def compare_files(a: Path, b: Path, tol: float | None) -> list[str]:
    lines_a = [l for l in a.read_text().splitlines() if not l.startswith("# daslab config_hash=")]
    lines_b = [l for l in b.read_text().splitlines() if not l.startswith("# daslab config_hash=")]
    if len(lines_a) != len(lines_b):
        return [f"{a.name}: {len(lines_a)} lines vs {len(lines_b)}"]
    diffs = []
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        ca, cb = _cells(la), _cells(lb)
        if len(ca) != len(cb) or not all(_numbers_match(x, y, tol) for x, y in zip(ca, cb)):
            diffs.append(f"{a.name} line {number}: {la!r} vs {lb!r}")
    return diffs


def compare_dirs(a: Path, b: Path, tol: float | None) -> list[str]:
    names_a = sorted(p.name for p in a.glob("*.csv"))
    names_b = sorted(p.name for p in b.glob("*.csv"))
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    if not names_a:
        return [f"no CSV files in {a}"]
    diffs = []
    for name in names_a:
        diffs += compare_files(a / name, b / name, tol)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Diff two sets of daslab CSVs.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--tol", type=float, default=None, help="numeric tolerance; exact if absent")
    args = parser.parse_args(argv)
    diffs = compare_dirs(args.old, args.new, args.tol)
    for line in diffs:
        print(line)
    mode = "exactly" if args.tol is None else f"within {args.tol:g}"
    print(f"{'DIFFER' if diffs else 'SAME'}: {args.old} vs {args.new} ({mode})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
