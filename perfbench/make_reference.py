"""Record the key scalars that check.py compares against.

    python3 perfbench/make_reference.py

Run once at the commit whose outputs are the reference; the result,
perfbench/reference.json, is checked in.  Seed-independent scalars are
recorded once and confirmed identical at two seeds; seed-dependent ones
(positivity, stability) once per seed in ``SEEDS``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# importing run pins BLAS to one thread before numpy loads
from run import import_cli, load_json  # noqa: E402
from check import OWN_CHECKS_ONLY, REFERENCE, SEED_DEPENDENT, key_scalars, read_summary  # noqa: E402


SEEDS = range(128)


def invoke(cli, command: str, config: str, seed: int, out: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([command, "--config", config, "--out", out, "--seed", str(seed)])
    summary = read_summary(out)
    if rc != 0 or not all(summary["checks"].values()):
        raise SystemExit(f"{command} seed {seed}: exit {rc}, checks {summary['checks']}")
    return out


def main() -> None:
    cli = import_cli()
    workloads = load_json(os.path.join(HERE, "catalog.json"))["workloads"]
    ref = {"fixed": {}, "per_seed": {}}
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name, spec in workloads.items():
            config = os.path.join(work, f"{name}.json")
            with open(config, "w") as fh:
                json.dump(spec["config"], fh)
            for command in spec["commands"]:
                key = f"{name}/{command}"
                if command in OWN_CHECKS_ONLY:
                    continue
                if command in SEED_DEPENDENT:
                    for seed in SEEDS:
                        out = invoke(cli, command, config, seed, os.path.join(work, "o"))
                        ref["per_seed"].setdefault(str(seed), {})[key] = \
                            key_scalars(command, out)
                        print(key, seed, flush=True)
                    continue
                got = [key_scalars(command, invoke(cli, command, config, seed,
                                                   os.path.join(work, "o")))
                       for seed in (0, 1)]
                if got[0] != got[1]:
                    raise SystemExit(f"{key}: key scalars depend on the seed")
                ref["fixed"][key] = got[0]
                print(key, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        fh.write(dump(ref))


def dump(ref: dict) -> str:
    """JSON with one line per entry of each top-level section."""
    parts = []
    for section, entries in sorted(ref.items()):
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(entries.items(), key=lambda kv: _order(kv[0]))]
        parts.append(f"{json.dumps(section)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def _order(key: str):
    return (0, int(key), "") if key.isdigit() else (1, 0, key)


if __name__ == "__main__":
    main()
