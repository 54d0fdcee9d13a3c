"""Seeded workload generator: ``(workload, seed)`` -> the CLI command lines to run.

Each workload keeps its defining property for every seed; the seed only moves
parameters inside the stated range.  Ranges of the parameters that set the
amount of work (2N of the full-basis solves, E_J/E_C where it changes the
bisection range) are kept narrow, so seeds change inputs, not cost.  The
program receives nothing but the argv lists built here.  Every command names
its artifact with ``--output`` (a path
relative to the working directory the command runs in), so the same argv can
be replayed in any directory and artifacts of one pass never collide.

Why each workload exists (also recorded in ``BENCHMARK.json``):

charge-sweep
    README sweeps (``bands --levels 3``, ``imbalance``, ``susceptibility``) at
    2N = 10 in the charge regime, written as CSV.  The first charge window
    (half-width >= 16) already covers the dim-11 basis, so the window-doubling
    loop does nothing; per-call overhead in ``eigensolve``/``hamiltonian`` and
    the chi finite-difference fan-out in ``observables`` do the work.  The
    grid keeps the README range n_g in [-11, 11] at step 1/4 (89 points, every
    integer and half-integer offset) instead of the README's 441 points, so a
    pass stays near four seconds and a run can take the median of several.
transmon-window
    Windowed transmon solves at E_J/E_C in [40, 60]: the adaptive window starts
    at half-width 16 (dim 33) and must double once (dim 65) before it settles,
    so window doubling and coefficients at large offsets do real work.  Every
    artifact is JSON.  The susceptibility sweep uses 41 points of the README
    range instead of 201, for the same reason as above.
full-basis
    ``--window full`` solves at 2N in [19800, 20200]: streaming Sturm counts
    over ~2e4 elements times ~100 counts per solve dominate and per-call
    overhead is below 1 %.  The only workload where the per-element kernel and
    memory footprint show.  2N stays near 2e4 rather than 1e5 so that a pass
    (five full-basis solves) takes about three seconds.
closed-forms
    Batches of ``analytic``, ``validity`` and ``wick-verify``: no eigensolve, no
    window.  Interpreter start-up, ``import finitejj.cli``, ``perturbation`` and
    ``wick`` are the whole cost -- the bypass workload for every solver change
    and the exercising workload for import-time changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the artifact it must write."""

    argv: tuple[str, ...]
    artifact: str

    @property
    def name(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    """Short decimal text; the oracle parses the same text the CLI does."""
    return format(x, ".12g")


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so it is stable across runs and
    # Python builds (unlike hash()).
    return random.Random(f"finitejj-bench:{workload}:{seed}")


def charge_sweep(seed: int) -> list[Command]:
    rng = _rng("charge-sweep", seed)
    ejec = _num(round(rng.uniform(0.15, 0.25), 3))
    grid = ["--pairs", "10", "--ejec", ejec, "--from", "-11", "--to", "11", "--steps", "89"]
    return [
        Command(("bands", *grid, "--levels", "3", "--output", "bands.csv"), "bands.csv"),
        Command(("imbalance", *grid, "--output", "imbalance.csv"), "imbalance.csv"),
        Command(("susceptibility", *grid, "--output", "susceptibility.csv"),
                "susceptibility.csv"),
    ]


def transmon_window(seed: int) -> list[Command]:
    rng = _rng("transmon-window", seed)
    ejec = round(rng.uniform(40.0, 60.0), 2)
    center = 1_000_000 + rng.randint(-1000, 1000) + round(rng.uniform(-0.5, 0.5), 3)
    ec_ghz = 0.2
    ej_ghz = round(ejec * ec_ghz, 6)
    return [
        Command(("bands", "--pairs", "5e8", "--ejec", _num(ejec),
                 "--from", _num(center - 0.5), "--to", _num(center + 0.5), "--steps", "21",
                 "--levels", "3", "--format", "json", "--output", "bands.json"), "bands.json"),
        Command(("susceptibility", "--pairs", "1000", "--ejec", _num(ejec),
                 "--from", "-2", "--to", "2", "--steps", "41",
                 "--format", "json", "--output", "susceptibility.json"), "susceptibility.json"),
        Command(("curvature", "--kind", "dispersion", "--pairs", "60",
                 "--values", f"{_num(ejec)},{_num(2 * ejec)}",
                 "--format", "json", "--output", "curvature.json"), "curvature.json"),
        Command(("transmon-shift", "--ej-ghz", _num(ej_ghz), "--ec-ghz", _num(ec_ghz),
                 "--pairs", "5e8", "--ng", _num(center),
                 "--format", "json", "--output", "transmon_shift.json"), "transmon_shift.json"),
    ]


def full_basis(seed: int) -> list[Command]:
    rng = _rng("full-basis", seed)
    pairs = str(rng.randint(19_800, 20_200))
    ejec = round(rng.uniform(48.0, 52.0), 2)
    ng = round(rng.uniform(0.1, 0.4), 3)
    return [
        Command(("bands", "--pairs", pairs, "--ejec", _num(ejec), "--from", "-0.5", "--to", "0.5",
                 "--steps", "3", "--levels", "2", "--window", "full", "--output", "bands.csv"),
                "bands.csv"),
        Command(("transmon-shift", "--ej-ghz", _num(round(0.2 * ejec, 6)), "--ec-ghz", "0.2",
                 "--pairs", pairs, "--ng", _num(ng), "--window", "full",
                 "--output", "transmon_shift.csv"), "transmon_shift.csv"),
    ]


def closed_forms(seed: int) -> list[Command]:
    rng = _rng("closed-forms", seed)
    commands = []
    # Charge regime at a degeneracy point (n_g half-integer), so the
    # two-level gap and susceptibility peak are evaluated too.
    for i in range(2):
        pairs = rng.randint(2, 200)
        ng = rng.randint(0, pairs - 1) - pairs / 2 + 0.5
        commands.append(Command(
            ("analytic", "--ej", _num(round(rng.uniform(0.005, 0.05), 4)), "--ec", "1",
             "--pairs", str(pairs), "--ng", _num(ng), "--output", f"analytic_cpb{i}.csv"),
            f"analytic_cpb{i}.csv"))
    # Transmon regime at a generic offset (charge-regime formulas skipped).
    for i in range(2):
        pairs = rng.randint(10**4, 10**9)
        commands.append(Command(
            ("analytic", "--ej", _num(round(rng.uniform(20.0, 80.0), 2)), "--ec", "1",
             "--pairs", str(pairs), "--ng", _num(round(rng.uniform(-1e3, 1e3), 3) + 0.25),
             "--format", "json", "--output", f"analytic_transmon{i}.json"),
            f"analytic_transmon{i}.json"))
    for i in range(2):
        commands.append(Command(
            ("validity", "--material", "aluminum", "--pairs", str(rng.randint(10**5, 10**9)),
             "--ng", _num(round(rng.uniform(0.0, 2e6), 1)), "--output", f"validity{i}.csv"),
            f"validity{i}.csv"))
    commands.append(Command(
        ("wick-verify", "--count", "150", "--degree", "6", "--seed", str(rng.randint(0, 10**6)),
         "--output", "wick_verify.csv"), "wick_verify.csv"))
    return commands


WORKLOADS = {
    "charge-sweep": charge_sweep,
    "transmon-window": transmon_window,
    "full-basis": full_basis,
    "closed-forms": closed_forms,
}


def commands_for(workload: str, seed: int) -> list[Command]:
    """The command lines of ``workload`` at ``seed`` (same seed, same list)."""
    try:
        build = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return build(seed)
