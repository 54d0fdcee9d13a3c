"""Record benchmark results and compare a change against its parent.

Subcommands (run from anywhere; checkouts are directories holding ``src/``)::

    # every workload x seed on one checkout, with provenance; prints each
    # run's end-to-end metrics and failed_frac with units
    python3 bench/compare.py record --checkout . --seeds 1-10 --out results.json

    # parent and change in alternating order, same benchmark code on both
    python3 bench/compare.py pairs --parent ../parent --change . --seeds 1-10 \\
        --out-parent parent.json --out-change change.json

    # one row per workload x end-to-end metric, with a verdict
    python3 bench/compare.py report parent.json change.json

    # run-to-run spread of one results file (and median drift against another)
    python3 bench/compare.py spread results.json [second.json]

Every run uses this directory's ``run.py`` with the checkout as working
directory, so both sides of a comparison run identical benchmark code.  The
verdict follows the measuring rules the benchmark was built to (ten or more
alternating pairs; a gain needs nine tenths of pairs won and a median
difference above the parent's quartile spread) and the bounds of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
SPEC = bench.SPEC
RUN_TIMEOUT_S = 900
MIN_PAIRS = 10  # fewer pairs never support a claimed gain


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    """Compare paired runs of one metric on one workload.

    ``parent[i]`` and ``change[i]`` form pair i.  improved: over at least ten
    pairs, the change wins at least 9/10 of them (ties count for neither) and
    the medians differ, in its favour, by more than the parent's quartile
    spread.  unresolved: the
    run-to-run spread (quartile distance over median, either side) exceeds the
    bound and not every change run beats every parent run.  worse: the
    change's median is worse than the parent's by more than ``bound`` of the
    parent's median.  Otherwise no worse.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, nonzero number of parent and change runs")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change)) / len(parent)
    gain = (pm - cm) if direction == "lower" else (cm - pm)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if len(parent) >= MIN_PAIRS and wins >= 0.9 and gain > p3 - p1:
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif pm and -gain / abs(pm) > bound:
        label = "worse"
    else:
        label = "no worse"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "spread": spread, "verdict": label}


def _run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} failed "
                           f"(exit {proc.returncode}): {proc.stderr[-400:]}")
    result = json.loads(lines[-1])
    # Keep the per-pass samples behind the medians for later inspection.
    result["samples"] = [line.strip() for line in lines[:-1]
                         if line.strip().startswith(("passes:", "pass cpu", "setup samples"))]
    return result


def provenance(checkout: Path) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                    cwd=checkout, capture_output=True, text=True).stdout)
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = None, None
    return {
        "git_sha": sha,
        "src_modified": dirty,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_pinning": bench.THREAD_PINNING,
        "run_seconds": SPEC["run_seconds"],
    }


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def cmd_record(args) -> int:
    checkout = Path(args.checkout).resolve()
    results = {"provenance": provenance(checkout), "runs": []}
    for workload in WORKLOADS:
        for seed in _seeds(args.seeds):
            result = _run_once(checkout, workload, seed, args.trace)
            results["runs"].append({"workload": workload, "seed": seed, "trace": args.trace,
                                    "result": result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
                + f", failed_frac {result['failed'] / result['attempted']:.6g} ratio", flush=True)
            Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


def cmd_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = {side: {"provenance": provenance(path), "runs": []} for side, path in sides.items()}
    for workload in WORKLOADS:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run_once(sides[side], workload, seed, 0)
                out[side]["runs"].append({"workload": workload, "seed": seed, "trace": 0,
                                          "first": side == order[0], "result": result})
            print(f"{workload} pair {i} (seed {seed}) done", flush=True)
            Path(args.out_parent).write_text(json.dumps(out["parent"], indent=1) + "\n")
            Path(args.out_change).write_text(json.dumps(out["change"], indent=1) + "\n")
    return 0


def _by_workload(results: dict) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for run in results["runs"]:
        if run.get("trace", 0) == 0:
            grouped.setdefault(run["workload"], []).append(run["result"])
    return grouped


def report_rows(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric, pairs matched in run order.

    A workload without the same number (at least ``MIN_PAIRS``) of parent and
    change runs gets a verdict of ``missing`` or ``unresolved`` on every
    metric, so an incomplete comparison never reads as no regression.
    """
    rows = []
    p_runs, c_runs = _by_workload(parent), _by_workload(change)
    for workload in [w["name"] for w in spec["workloads"]]:
        ps, cs = p_runs.get(workload, []), c_runs.get(workload, [])
        complete = len(ps) == len(cs) >= MIN_PAIRS
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if complete:
                row = verdict([r["metrics"][name]["value"] for r in ps],
                              [r["metrics"][name]["value"] for r in cs],
                              metric["better"], metric["bound"])
                # A gain does not count when more commands fail than at the parent.
                if sum(r["failed"] for r in cs) > sum(r["failed"] for r in ps) \
                        and row["verdict"] == "improved":
                    row["verdict"] = "no worse"
            elif not ps or not cs:
                row = {"verdict": "missing"}
            else:
                row = {"verdict": f"unresolved: {len(ps)} parent and {len(cs)} change runs, "
                                  f"need {MIN_PAIRS} pairs"}
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       pairs=min(len(ps), len(cs)))
            rows.append(row)
        rows.append({"workload": workload, "metric": "failed", "pairs": min(len(ps), len(cs)),
                     "failed": (sum(r["failed"] for r in ps), sum(r["failed"] for r in cs)),
                     "attempted": (sum(r["attempted"] for r in ps),
                                   sum(r["attempted"] for r in cs))})
    return rows


def cmd_report(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'won':>5s}  verdict")
    for row in report_rows(parent, change, SPEC):
        if row["metric"] == "failed":
            print(f"{row['workload']:16s} {'failed':12s} {row['failed'][0]} of "
                  f"{row['attempted'][0]:<25d} {row['failed'][1]} of {row['attempted'][1]}")
            continue
        if "parent" not in row:
            print(f"{row['workload']:16s} {row['metric']:12s} {'':32s} {'':32s} {'':5s}  "
                  f"{row['verdict']}")
            continue
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        unit = row["unit"]
        parent_text = f"{pm:.5g} [{p1:.5g}, {p3:.5g}] {unit}"
        change_text = f"{cm:.5g} [{c1:.5g}, {c3:.5g}] {unit}"
        print(f"{row['workload']:16s} {row['metric']:12s} {parent_text:32s} "
              f"{change_text:32s} {row['wins']:5.0%}  {row['verdict']}")
    return 0


def spread_rows(results: dict, spec: dict, second: dict | None = None) -> list[dict]:
    """Quartile distance over median of each workload x end-to-end metric.

    With ``second``, ``drift`` is how much worse the second file's median is
    than the first's, as a share of the first's.
    """
    rows = []
    first_runs = _by_workload(results)
    second_runs = _by_workload(second) if second else {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = first_runs.get(workload, [])
        for metric in spec["end_to_end"]:
            if not runs:
                rows.append({"workload": workload, "metric": metric["name"], "n": 0})
                continue
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            row = {"workload": workload, "metric": metric["name"], "n": len(values),
                   "median": med, "spread": (q3 - q1) / med, "bound": metric["bound"]}
            if second_runs.get(workload):
                other = statistics.median(r["metrics"][metric["name"]]["value"]
                                          for r in second_runs[workload])
                drift = (other - med) / med
                row["drift"] = drift if metric["better"] == "lower" else -drift
            rows.append(row)
    return rows


def cmd_spread(args) -> int:
    first = json.loads(Path(args.results).read_text())
    second = json.loads(Path(args.second).read_text()) if args.second else None
    for row in spread_rows(first, SPEC, second):
        if not row["n"]:
            print(f"{row['workload']:16s} {row['metric']:12s} no runs")
            continue
        drift = f"  second-vs-first worse by {row['drift']:+.4f}" if "drift" in row else ""
        flag = "" if row["metric"] == "setup_s" or row["spread"] <= row["bound"] / 3 else \
            "  <-- above a third of the bound"
        print(f"{row['workload']:16s} {row['metric']:12s} n={row['n']:2d} median "
              f"{row['median']:.5g}  spread {row['spread']:.4f} (bound {row['bound']})"
              f"{drift}{flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run every workload x seed on one checkout")
    rec.add_argument("--checkout", default=".")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_record)

    pairs = sub.add_parser("pairs", help="alternate parent and change runs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--seeds", default="1-10")
    pairs.add_argument("--out-parent", required=True)
    pairs.add_argument("--out-change", required=True)
    pairs.set_defaults(func=cmd_pairs)

    rep = sub.add_parser("report", help="verdict per workload x end-to-end metric")
    rep.add_argument("parent")
    rep.add_argument("change")
    rep.set_defaults(func=cmd_report)

    spr = sub.add_parser("spread", help="run-to-run spread against the bounds")
    spr.add_argument("results")
    spr.add_argument("second", nargs="?")
    spr.set_defaults(func=cmd_spread)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
