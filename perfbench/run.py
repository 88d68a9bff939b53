"""bulksurf benchmark: times CLI workloads in process, checks their outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

One run is one fresh, single-threaded process (BLAS pinned to one thread,
CLI ``--threads`` left at 1).  It first makes one untimed warm-up pass over
the workload's subcommands on a tiny mesh, so that lazy imports and first
calls land in no timed round.  Then a closed-loop client runs the
subcommands one after another through ``bulksurf.cli.main``; each such pass
is a round, and rounds repeat while the next one, and the set-up samples
still due, should end within ``--seconds`` of the process start.  Set-up
samples are taken between rounds, spread over the run.  The seed reaches
the program only as ``--seed``.

With ``--trace 0`` the last line holds the end-to-end metrics that
BENCHMARK.json lists; with ``--trace 1`` untraced and traced rounds
alternate, and the last line holds the per-layer metrics.  Every metric in
catalog.json is printed above it by name, with its unit.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

from check import (SEED_DEPENDENT, check_invocation, load_reference,  # noqa: E402
                   reference_for)
from spans import Tracer  # noqa: E402

SETUP_SAMPLES = 7
# Runs in a fresh interpreter; prints the set-up time of bulksurf.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[3])
t0 = time.perf_counter()
import bulksurf.cli
from bulksurf.config import load_config
load_config(sys.argv[1], {"seed": int(sys.argv[2])})
elapsed = time.perf_counter() - t0
if not bulksurf.cli.__file__.startswith(sys.argv[3]):
    sys.exit("bulksurf imported from " + bulksurf.cli.__file__)
print(repr(elapsed))
"""


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def import_cli():
    """Import bulksurf.cli from this checkout's sources, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bulksurf", "cli.py")):
        raise SystemExit(f"perfbench: no bulksurf sources under {SRC}")
    sys.path.insert(0, SRC)
    import bulksurf.cli
    if not os.path.abspath(bulksurf.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: bulksurf imported from {bulksurf.cli.__file__}")
    return bulksurf.cli


class SetupTimer:
    """Set-up time of bulksurf in fresh interpreters, spread over the run.

    Sample k is due ``k / SETUP_SAMPLES`` of the way through the run; due
    samples are taken between rounds, the rest at the end.
    """

    def __init__(self, config_path: str, seed: int, start: float, seconds: float):
        self.argv = [sys.executable, "-c", SETUP_CODE, config_path, str(seed), SRC]
        self.start, self.seconds = start, seconds
        self.samples: list[float] = []
        self.longest = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
        self.samples.append(float(proc.stdout.split()[-1]))
        self.longest = max(self.longest, time.perf_counter() - t0)

    def take_due(self) -> None:
        share = (time.perf_counter() - self.start) / self.seconds
        due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * share))
        while len(self.samples) < due:
            self.sample()

    def finish(self) -> None:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()

    def reserve_s(self) -> float:
        """Time the samples not yet taken should need."""
        return (SETUP_SAMPLES - len(self.samples)) * self.longest


class Workload:
    """Runs rounds of one workload and checks every invocation."""

    def __init__(self, cli, name: str, spec: dict, seed: int, work: str):
        self.cli = cli
        self.name = name
        self.commands = spec["commands"]
        self.seed = seed
        self.work = work
        self.config_path = os.path.join(work, "workload.json")
        with open(self.config_path, "w") as fh:
            json.dump(spec["config"], fh)
        self.reference = load_reference()
        self.rounds: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.unreferenced: set[str] = set()
        self._first_seen: dict[str, dict] = {}

    def warm_up(self, config: dict) -> None:
        """One untimed, unchecked pass over the commands, with the top-level
        sections of ``config`` replacing the workload config's."""
        path = os.path.join(self.work, "warmup.json")
        with open(path, "w") as fh:
            json.dump({**load_json(self.config_path), **config}, fh)
        for command in self.commands:
            out = os.path.join(self.work, "warmup", command)
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    self.cli.main([command, "--config", path, "--out", out,
                                   "--seed", str(self.seed)])
                except Exception:  # the timed rounds judge the program
                    pass
            shutil.rmtree(out, ignore_errors=True)

    def run_round(self, tracer: Tracer | None = None) -> dict:
        """One pass over the commands; spans go to ``tracer`` if given."""
        mark = tracer.mark() if tracer else None
        started = time.perf_counter()
        times = {}
        for command in self.commands:
            out = os.path.join(self.work, f"round{len(self.rounds)}", command)
            argv = [command, "--config", self.config_path, "--out", out,
                    "--seed", str(self.seed)]
            gc.collect()
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception:  # a crash is a failed invocation, not a lost run
                    rc = -1
                    log.write(traceback.format_exc())
                times[command] = time.perf_counter() - t0
            self.attempted += 1
            problems, got = check_invocation(rc, command, out, self._want(command))
            if got and command not in self._first_seen:
                self._first_seen[command] = got
            if problems:
                more = [f"... {len(problems) - 3} more"] if len(problems) > 3 else []
                tail = log.getvalue().strip().splitlines()[-3:] if rc != 0 else []
                self.failures.append(f"round {len(self.rounds)} {command}: "
                                     + "; ".join(problems[:3] + more + tail))
            shutil.rmtree(out, ignore_errors=True)
        rnd = {"traced": tracer is not None, "mark": mark, "times": times,
               "wall_s": sum(times.values()),
               "elapsed_s": time.perf_counter() - started}
        self.rounds.append(rnd)
        return rnd

    def _want(self, command: str):
        """Reference scalars; for a seed without any, the first round's."""
        want = reference_for(self.reference, self.name, command, self.seed)
        if want is None and command in SEED_DEPENDENT:
            self.unreferenced.add(command)
            return self._first_seen.get(command)
        return want

    def run(self, deadline: float, setup: SetupTimer, tracer: Tracer | None,
            span_names) -> None:
        """Closed loop of rounds until the next one, and the set-up samples
        still due, should end after ``deadline``.  With a tracer, untraced
        and traced rounds alternate, and at least one pair runs."""
        longest = 0.0
        while True:
            setup.take_due()
            traced = tracer is not None and len(self.rounds) % 2 == 1
            if traced:
                tracer.install(span_names)
            longest = max(longest, self.run_round(tracer if traced else None)["elapsed_s"])
            if traced:
                tracer.uninstall()
            enough = len(self.rounds) >= (2 if tracer else 1)
            if enough and time.perf_counter() + longest + setup.reserve_s() > deadline:
                break
        setup.finish()


def end_to_end(wl: Workload, catalog: dict, setup: list[float]) -> dict:
    rounds = [r for r in wl.rounds if not r["traced"]]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": len(wl.failures) / wl.attempted,
    }
    for name, spec in catalog["end_to_end"].items():
        if "command" in spec and wl.name in spec["workloads"]:
            values[name] = statistics.median(r["times"][spec["command"]]
                                             for r in rounds)
    return values


def per_layer(wl: Workload, tracer: Tracer, catalog: dict,
              reverse_steps: int) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced rounds) and one round's spans."""
    per_round = []
    bounds = [r["mark"] for r in wl.rounds if r["traced"]] + [tracer.mark()]
    for since, until in zip(bounds, bounds[1:]):
        spans = tracer.summary(since, until)
        fill = tracer.lu_fill[since[1]:until[1]]
        step = spans["forward.SemilinearSystem.step_imex"]
        adj = spans["inverse.InverseProblem.objective_and_gradient"]
        nested = tracer.nested_s("forward.SemilinearSystem.factorization",
                                 "forward.SemilinearSystem.step_imex", since, until)
        row = {}
        for name in catalog["spans"]:
            row[f"{name}.calls"] = spans[name]["calls"]
            row[f"{name}.self_s"] = spans[name]["self_s"]
        row["forward.lu_factorizations"] = len(fill)
        row["forward.lu_fill_nnz"] = statistics.median_low(fill) if fill else 0
        row["forward.step_us"] = ((step["incl_s"] - nested) / step["calls"] * 1e6
                                  if step["calls"] else 0.0)
        row["inverse.adjoint_step_us"] = (
            adj["self_s"] / (adj["calls"] * reverse_steps) * 1e6
            if adj["calls"] else 0.0)
        per_round.append((row, spans))
    # median_low keeps counts whole: it returns one of the rounds' values
    values = {k: statistics.median_low(row[k] for row, _ in per_round)
              for k in per_round[0][0]}
    # rounds alternate untraced, traced: compare each traced round with the
    # untraced round just before it
    pairs = zip(wl.rounds[0::2], wl.rounds[1::2])
    values["trace_overhead_s"] = statistics.median(b["wall_s"] - a["wall_s"]
                                                   for a, b in pairs)
    return values, per_round[0][1]


def coverage(workload: str, spans: dict, tracer: Tracer, catalog: dict) -> list[str]:
    """Spans that should have been called and were not, and bypass breaches."""
    lines = [f"coverage: {name} not found in bulksurf" for name in tracer.missing]
    for name, spec in catalog["spans"].items():
        expected = spec["workloads"] == "all" or workload in spec["workloads"]
        calls = spans[name]["calls"]
        if expected and calls == 0 and name not in tracer.missing:
            lines.append(f"coverage: {name} recorded no call on {workload}")
        if not expected and calls and name.split(".")[0] in ("carleman", "inverse"):
            lines.append(f"bypass: {name} recorded {calls} calls on {workload}, "
                         "which should bypass it")
    return lines


def environment(wl: Workload, spec: dict) -> dict:
    import numpy
    import scipy
    import sympy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": wl.name, "seed": wl.seed, "config": spec["config"],
        "commands": wl.commands,
    }


def print_metrics(values: dict, listed: set) -> None:
    """One line per metric; * marks those BENCHMARK.json lists."""
    for name, m in values.items():
        mark = "*" if name in listed else " "
        print(f" {mark}{name:<56} {m['value']!r:>24} {m['unit']}")


def main(argv=None) -> int:
    start = time.perf_counter()
    catalog = load_json(os.path.join(HERE, "catalog.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its work directory and set-up child
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    cli = import_cli()
    spec = catalog["workloads"][args.workload]
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = Workload(cli, args.workload, spec, args.seed, work)
        timer = SetupTimer(wl.config_path, args.seed, start, args.seconds)
        cfg = cli.load_config(wl.config_path, {"seed": args.seed})
        reverse_steps = math.ceil(cfg.t_end / cfg.dt - 1e-9)
        wl.warm_up(catalog["warmup"]["config"])
        tracer = Tracer() if args.trace else None
        wl.run(start + args.seconds, timer, tracer, catalog["spans"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup = timer.samples

    result = {"env": environment(wl, spec), "setup_samples_s": setup,
              "rounds": [{k: r[k] for k in ("traced", "wall_s", "times")}
                         for r in wl.rounds],
              "failures": wl.failures, "attempted": wl.attempted}
    units = {k: v["unit"] for k, v in catalog["end_to_end"].items()}
    units.update({k: v["unit"] for k, v in catalog["derived"].items()})
    units.update({f"{n}.calls": "count" for n in catalog["spans"]})
    units.update({f"{n}.self_s": "s" for n in catalog["spans"]})
    result["end_to_end"] = {k: {"value": v, "unit": units[k]}
                            for k, v in end_to_end(wl, catalog, setup).items()}
    if args.trace:
        layer, spans = per_layer(wl, tracer, catalog, reverse_steps)
        result["per_layer"] = {k: {"value": v, "unit": units[k]}
                               for k, v in layer.items()}
        result["coverage"] = coverage(args.workload, spans, tracer, catalog)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"spans-{args.workload}.csv")
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("setup_samples_s " + json.dumps(setup))
    for i, r in enumerate(wl.rounds):
        cmds = " ".join(f"{c}={t:.3f}" for c, t in r["times"].items())
        print(f"round {i} traced={int(r['traced'])} wall_s={r['wall_s']:.3f} {cmds}")
    for line in wl.failures:
        print("FAILED " + line)
    for command in sorted(wl.unreferenced):
        print(f"note: no reference recorded for {command} at seed {args.seed}; "
              "rounds checked against each other")
    print("end-to-end metrics (untraced rounds; * = in BENCHMARK.json):")
    print_metrics(result["end_to_end"], {m["name"] for m in bench["end_to_end"]})
    wanted, values = bench["end_to_end"], result["end_to_end"]
    if args.trace:
        print("per-layer metrics (median over traced rounds):")
        print_metrics(result["per_layer"], {m["name"] for m in bench["per_layer"]})
        traced_wall = next(r["wall_s"] for r in wl.rounds if r["traced"])
        print(f"self-time shares of the first traced round ({traced_wall:.3f} s):")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            if row["calls"]:
                print(f"  {name:<48} {row['calls']:>8} calls "
                      f"{row['self_s']:9.3f} s {100 * row['self_s'] / traced_wall:5.1f}%")
        for line in result["coverage"]:
            print(line)
        print(f"spans written to {result['spans_file']}")
        wanted, values = bench["per_layer"], result["per_layer"]
    print("report " + json.dumps(result))
    print(json.dumps({"correct": not wl.failures, "attempted": wl.attempted,
                      "failed": len(wl.failures),
                      "metrics": {m["name"]: {"value": values[m["name"]]["value"],
                                              "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
