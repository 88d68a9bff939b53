"""Run every workload once and print all its metrics side by side.

    python3 perfbench/report.py --seed 1 [--trace]

Each workload runs as its own fresh process through run.py, for the
``run_seconds`` of BENCHMARK.json.  The table lists
every end-to-end metric in catalog.json by name and unit (gated ones are
those BENCHMARK.json bounds), then, with ``--trace``, every per-layer metric
and the span coverage report.  Exits 1 if any invocation failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    report = json.loads(next(line[len("report "):] for line in lines
                             if line.startswith("report ")))
    report["result"] = json.loads(lines[-1])
    return report


def table(title: str, section: str, reports: dict, gated: set) -> None:
    names = []
    for rep in reports.values():
        names += [n for n in rep.get(section, {}) if n not in names]
    print(f"\n{title}")
    print(f"  {'metric':<52} {'unit':<6} " + " ".join(f"{w:>14}" for w in reports))
    for name in names:
        unit = next(rep[section][name]["unit"] for rep in reports.values()
                    if name in rep.get(section, {}))
        cells = []
        for rep in reports.values():
            m = rep.get(section, {}).get(name)
            cells.append(f"{m['value']:>14.6g}" if m else f"{'-':>14}")
        mark = "*" if name in gated else " "
        print(f" {mark}{name:<52} {unit:<6} " + " ".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    reports = {w: run(w, args.seed, seconds, int(args.trace)) for w in workloads}

    print(f"seed {args.seed}, {seconds} s per run; * = listed in BENCHMARK.json")
    print("env " + json.dumps({k: v for k, v in reports[workloads[0]]["env"].items()
                               if k not in ("workload", "config", "commands")}))
    for w, rep in reports.items():
        res = rep["result"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} rounds={len(rep['rounds'])} "
              f"config={json.dumps(rep['env']['config'])}")
        for line in rep["failures"] + rep.get("coverage", []):
            print(f"  {line}")
    table("end-to-end", "end_to_end", reports,
          {m["name"] for m in bench["end_to_end"]})
    if args.trace:
        table("per-layer (traced rounds)", "per_layer", reports,
              {m["name"] for m in bench["per_layer"]})
    return 0 if all(r["result"]["correct"] for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
