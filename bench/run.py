"""finitejj benchmark: the README's CLI workloads, timed end to end, traced per layer.

Usage, from the root of a checkout (``src/finitejj`` must be there)::

    python3 bench/run.py --workload charge-sweep --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and generated by ``workloads.py``.
The load is a closed loop with one client: this process runs the workload's
command lines one at a time, each as a fresh ``python3`` child running the
``finitejj`` console-script entry point with ``src`` on ``PYTHONPATH`` and
BLAS/OpenMP pinned to one thread, so a run never needs more than the two
cores it was designed on.

``--trace 0`` repeats the command list (one pass) for ``--seconds`` (at least
three passes), then reports

* ``wall_s``: median pass wall time, interpreter start-up and imports included;
* ``setup_s``: median wall time of fresh interpreters that only run
  ``import finitejj.cli`` (one before each pass, at least five) -- the fixed
  cost every command pays;
* ``peak_rss_mb``: the largest peak RSS of any command child (``wait4``).

``--trace 1`` replays the same command lines in-process through
``finitejj.cli.main`` (``replay.py``), alternating untraced and traced passes,
and reports the per-layer metrics, computed by ``layers.py``.

Either way every artifact is checked after the clock stops: the first pass
against the independent oracles of ``oracle.py``, later passes for byte
identity with the first.  A command fails on a nonzero exit, a missing or
wrong artifact, or a ``converged = 0`` row; ``failed`` counts those over
``attempted`` command executions.  Artifacts go to a temporary directory
under ``.bench_runs/`` that is removed when the run ends.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import oracle
from workloads import WORKLOADS, Command, commands_for

HERE = Path(__file__).resolve().parent
# Names, units and directions of every metric come from the benchmark's
# definition, next to this directory.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Per-layer metrics that count work; they must repeat exactly between traced passes.
COUNTS = frozenset(m["name"] for m in SPEC["per_layer"]
                   if m["unit"] in ("count", "bytes", "states"))
THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# What the ``finitejj`` console script runs.
CLI_ENTRY = "from finitejj.cli import entry; entry()"
IMPORT_ONLY = "import finitejj.cli"
SETUP_SAMPLES = 5
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 60.0
REPLAY_TIMEOUT_S = 150.0


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINNING)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict, log: Path,
              timeout: float = COMMAND_TIMEOUT_S) -> Child:
    """Run one child to completion; wall time and peak RSS from ``wait4``."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 log.with_suffix(".err").read_text(errors="replace")[-400:])


def verify(commands: list[Command], pass_dirs: list[Path], codes: list[list[int]]):
    """Failure reasons per (pass, command); the oracle runs on the first pass only."""
    reference = []
    oracle_errors = []
    for cmd in commands:
        path = pass_dirs[0] / cmd.artifact
        reference.append(path.read_bytes() if path.is_file() else None)
        oracle_errors.append(oracle.check(cmd.argv, path))
    failures = {}
    for i, pass_dir in enumerate(pass_dirs):
        for j, cmd in enumerate(commands):
            reasons = []
            if codes[i][j] != 0:
                reasons.append(f"exit code {codes[i][j]}")
            path = pass_dir / cmd.artifact
            if not path.is_file():
                reasons.append(f"artifact {cmd.artifact} missing")
            elif i > 0 and path.read_bytes() != reference[j]:
                reasons.append("artifact not byte-identical to the first pass")
            else:
                reasons.extend(oracle_errors[j])
            if reasons:
                failures[(i, j)] = reasons
    return failures


def _median(values) -> float:
    return float(statistics.median(values))


def timed_run(root: Path, commands: list[Command], seconds: float, rundir: Path):
    env = child_env(root)
    py = sys.executable
    # One untimed import writes the bytecode cache, as any installed copy has.
    run_child([py, "-c", IMPORT_ONLY], rundir, env, rundir / "warm")

    def setup_sample() -> float:
        return run_child([py, "-c", IMPORT_ONLY], rundir, env, rundir / "setup").wall_s

    # Set-up samples are interleaved with the passes, so both medians span the
    # same stretch of time and a slow spell on a shared host hits them alike.
    setup, passes = [], []
    begin = perf_counter()
    # Start another pass only while it is expected to end within ``seconds``.
    while len(passes) < MIN_PASSES or perf_counter() - begin + _median(setup) \
            + _median(p[1] for p in passes) <= seconds:
        setup.append(setup_sample())
        pass_dir = rundir / f"pass{len(passes)}"
        pass_dir.mkdir()
        t0 = perf_counter()
        children = [run_child([py, "-c", CLI_ENTRY, *cmd.argv], pass_dir, env,
                              pass_dir / f"cmd{j}") for j, cmd in enumerate(commands)]
        passes.append((pass_dir, perf_counter() - t0, children))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())

    failures = verify(commands, [p[0] for p in passes],
                      [[c.code for c in p[2]] for p in passes])
    walls = [p[1] for p in passes]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup),
        "peak_rss_mb": max(c.rss_mb for p in passes for c in p[2]),
    }
    notes = [
        f"passes: {len(walls)}; pass wall s: {', '.join(f'{w:.3f}' for w in walls)}",
        "pass cpu s: " + ", ".join(f"{sum(c.cpu_s for c in p[2]):.3f}" for p in passes),
        f"setup samples s: {', '.join(f'{s:.3f}' for s in setup)}",
    ]
    for (i, j), reasons in sorted(failures.items()):
        err = passes[i][2][j].stderr.strip().splitlines()
        notes.append(f"FAILED pass {i} {commands[j].name}: {'; '.join(reasons)}"
                     + (f" [{err[-1]}]" if err else ""))
    return {m["name"]: (metrics[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}, \
        len(walls) * len(commands), len(failures), notes


def traced_run(root: Path, commands: list[Command], seconds: float, rundir: Path):
    spec = rundir / "replay_spec.json"
    spec.write_text(json.dumps({"workdir": str(rundir), "seconds": seconds,
                                "commands": [list(c.argv) for c in commands]}))
    child = run_child([sys.executable, str(HERE / "replay.py"), str(spec)], rundir,
                      child_env(root), rundir / "replay", timeout=REPLAY_TIMEOUT_S)
    if child.code != 0:
        raise RuntimeError(f"in-process replay failed (exit {child.code}):\n{child.stderr}")
    replay = json.loads((rundir / "replay.json").read_text())
    passes = replay["passes"]
    failures = verify(commands, [Path(p["dir"]) for p in passes], [p["codes"] for p in passes])
    notes = []

    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        with np.load(p["spans"]) as npz:
            spans = {k: npz[k] for k in npz.files}
        per_pass.append(layers.pass_metrics(spans, p["names"], p["counts"]))
    first, per_command = per_pass[0]
    # Work counts must repeat exactly; a traced pass that disagrees with the
    # first fails as a whole.
    for p, (m, _) in zip(traced[1:], per_pass[1:]):
        differ = [name for name in COUNTS if m[name] != first[name]]
        if differ:
            i = passes.index(p)
            for j in range(len(commands)):
                failures.setdefault((i, j), []).append(
                    "counts differ from the first traced pass: " + ", ".join(sorted(differ)))
    values = {name: first[name] if name in COUNTS else _median(m[name] for m, _ in per_pass)
              for name in first}
    untraced_wall = _median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = _median(p["wall_s"] for p in traced)
    values["cli.import_s"] = replay["import_s"]
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {', '.join(missing)}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["per_layer"]}

    notes.append(f"passes: {len(passes)} ({len(traced)} traced); untraced wall "
                 f"{untraced_wall:.3f} s, traced wall {traced_wall:.3f} s")
    for cmd, c in zip(commands, per_command):
        notes.append(
            f"{cmd.name:15s} rows {c['rows']:4d}  operators/row {c['operators_per_row']:6.2f}  "
            f"imbalance calls/row {c['imbalance_calls_per_row']:5.2f}  mean window dim "
            f"{c['mean_window_dim']:9.1f}  solves {c['solves']:6d}  sturm counts "
            f"{c['sturm_counts']:7d}")
    for (i, j), reasons in sorted(failures.items()):
        error = passes[i]["errors"][j]
        notes.append(f"FAILED pass {i} {commands[j].name}: {'; '.join(reasons)}"
                     + (f" [{error}]" if error else ""))
    return metrics, len(passes) * len(commands), len(failures), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "finitejj" / "cli.py").is_file():
        print(f"error: {root} holds no src/finitejj to benchmark; run from a checkout root",
              file=sys.stderr)
        return 2
    commands = commands_for(args.workload, args.seed)
    base = root / ".bench_runs"
    base.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, notes = run(root, commands, args.seconds, rundir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"finitejj benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for cmd in commands:
        print(f"  $ finitejj {' '.join(cmd.argv)}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:.6g} {unit}")
    print(f"  {'failed_frac':38s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
