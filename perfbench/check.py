"""Output check for one CLI invocation, and the key scalars it compares.

An invocation fails when it exits non-zero, when any entry of its
``summary.json`` ``checks`` block is false, or when a key scalar differs from
the reference recorded at the seed commit by more than ``REL_TOL``.
``gradcheck`` is judged by its own checks only: its finite differences are
not bit-stable under reordered sums.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-8
# key scalars that change with --seed; the reference holds them per seed
SEED_DEPENDENT = {"positivity", "stability"}
# judged by their own summary.json checks only
OWN_CHECKS_ONLY = {"gradcheck"}
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def _column(path: str, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def key_scalars(command: str, out_dir: str) -> dict[str, list[float]]:
    """The scalars of one invocation that must match the reference."""
    if command == "simulate":
        summary = read_summary(out_dir)
        return {"observation_norm": [float(summary["effective"]["observation_norm"])]}
    if command == "positivity":
        return {"min_value": _column(os.path.join(out_dir, "draws.csv"), "min_value")}
    if command == "stability":
        summary = read_summary(out_dir)
        return {"max_ratio": [float(summary["max_ratio"])],
                "median_ratio": [float(summary["median_ratio"])]}
    if command == "shifted-verify":
        return {"ratio": _column(os.path.join(out_dir, "shifted_sweep.csv"), "ratio")}
    if command == "carleman-verify":
        return {"ratio": _column(os.path.join(out_dir, "ratio_sweep.csv"), "ratio")}
    return {}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_for(reference: dict, workload: str, command: str, seed: int):
    """Recorded key scalars, or None when none were recorded for this seed."""
    key = f"{workload}/{command}"
    if command in SEED_DEPENDENT:
        return reference["per_seed"].get(str(seed), {}).get(key)
    return reference["fixed"].get(key)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare(got: dict, want: dict) -> list[str]:
    problems = []
    for name, values in want.items():
        have = got.get(name, [])
        if len(have) != len(values):
            problems.append(f"{name}: {len(have)} values, reference has {len(values)}")
            continue
        for i, (a, b) in enumerate(zip(have, values)):
            if not _close(a, b):
                problems.append(f"{name}[{i}] = {a!r}, reference {b!r}")
    return problems


def check_invocation(rc: int, command: str, out_dir: str, want: dict | None
                     ) -> tuple[list[str], dict]:
    """Problems found (empty when the invocation passed) and its key scalars."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        summary = read_summary(out_dir)
        failed = [k for k, ok in summary["checks"].items() if not ok]
        got = key_scalars(command, out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    problems = [f"check {k} is false" for k in failed]
    if want is not None:
        problems += compare(got, want)
    return problems, got
