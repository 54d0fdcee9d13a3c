"""Per-layer metrics from the spans and counters of one traced pass.

A span's self time is its duration minus the part of its interval that its
child spans cover (children are clipped to the parent and overlaps counted
once) and minus its inner time, spent in the timed-counter accessors it called
directly (``tracer.TIMED``).  A layer's self time is the sum over the spans
named after it, plus, for ``hamiltonian``, the time inside those accessors.

``pass_metrics`` computes every per-layer metric of ``BENCHMARK.json`` except
``cli.import_s`` and ``trace.overhead_frac``, which need the whole replay.
"""

from __future__ import annotations

import numpy as np

SOLVES = ("eigensolve.lowest_eigenvalues", "eigensolve.dense_all")
ROW_SPANS = ("observables.dispersion_curvature", "observables.susceptibility_curvature")


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    parent = np.asarray(parent).tolist()
    start = np.asarray(start, dtype=float).tolist()
    end = np.asarray(end, dtype=float).tolist()
    own = [e - s for s, e in zip(start, end)]
    current, reach = -1, 0.0
    for i in sorted(range(len(parent)), key=lambda i: (parent[i], start[i])):
        p = parent[i]
        if p < 0:
            continue
        if p != current:
            current, reach = p, start[p]
        lo = max(start[i], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            reach = hi
    return np.array(own)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: dict, names: list[str], counts: list[dict]) -> tuple[dict, list[dict]]:
    """(workload metrics, per-command breakdown) of one traced pass.

    ``spans`` holds the columns written by ``tracer.Tracer.columns``; ``counts``
    the counter dict of each command in replay order.
    """
    ids = spans["name"]
    layer = np.array([n.split(".", 1)[0] for n in names] or [""])[ids]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["parent"], spans["start"], spans["end"]) - spans["inner"]
    size = spans["size"]
    run = spans["run"]

    def pick(*wanted):
        return np.isin(ids, [names.index(w) for w in wanted if w in names])

    def total(name: str) -> int:
        return sum(c.get(name, 0) for c in counts)

    ops = pick("hamiltonian.TridiagonalHamiltonian.__init__")
    sturm = pick("eigensolve.eigenvalue_count_below")
    solves = pick(*SOLVES)
    writes = pick("cli._write_table", "cli._write_scalars")
    sweeps = pick("observables.band_sweep")
    curvatures = pick(*ROW_SPANS)
    imbalance = pick("observables.expected_imbalance")

    # Rows are sweep grid points and curvature values; the per-row fan-out
    # counts operators and <n> evaluations of the commands that emit rows.
    per_command = []
    for run_id in range(len(counts)):
        mine = run == run_id
        rows = int(size[sweeps & mine].sum()) + int(np.count_nonzero(curvatures & mine))
        per_command.append({
            "rows": rows,
            "operators": int(np.count_nonzero(ops & mine)),
            "imbalance_calls": int(np.count_nonzero(imbalance & mine)),
            "dim_sum": float(size[ops & mine].sum()),
            "solves": int(np.count_nonzero(solves & mine)),
            "sturm_counts": int(np.count_nonzero(sturm & mine)),
        })
    row_cmds = [c for c in per_command if c["rows"]]
    rows = sum(c["rows"] for c in row_cmds)
    solve_us = dur[solves] * 1e6
    n_ops = int(np.count_nonzero(ops))
    n_sturm = int(np.count_nonzero(sturm))
    n_solves = int(np.count_nonzero(solves))
    coeff_elems = total("hamiltonian.coeff_elems")
    block_s = float(total("hamiltonian.block_s"))
    bounds_s = float(total("hamiltonian.bounds_s"))
    sturm_elems = float(size[sturm].sum())

    # Errors leaving the layer: raised by an eigensolve span whose caller is
    # outside eigensolve, so one failure counts once however deep it started.
    parents = spans["parent"]
    caller_layer = np.where(parents >= 0, layer[np.maximum(parents, 0)], "")
    raised_here = (layer == "eigensolve") & (spans["err"] != 0) & (caller_layer != "eigensolve")

    def layer_self(name: str) -> float:
        return float(own[layer == name].sum())

    metrics = {
        "cli.write_s": float(dur[writes].sum()),
        "cli.write_bytes": int(size[writes].sum()),
        "model.params_built": total("model.params_built"),
        "model.pairs_total_calls": total("model.pairs_total_calls"),
        "hamiltonian.operators_built": n_ops,
        "hamiltonian.bounds_calls": total("hamiltonian.bounds_calls"),
        "hamiltonian.self_s": layer_self("hamiltonian") + block_s + bounds_s,
        "hamiltonian.coeff_elems": coeff_elems,
        "hamiltonian.coeff_ns_per_elem": _ratio(block_s * 1e9, coeff_elems),
        "eigensolve.solves": n_solves,
        "eigensolve.sturm_counts": n_sturm,
        "eigensolve.counts_per_solve": _ratio(n_sturm, n_solves),
        "eigensolve.solve_us_p50": float(np.percentile(solve_us, 50)) if n_solves else 0.0,
        "eigensolve.solve_us_p90": float(np.percentile(solve_us, 90)) if n_solves else 0.0,
        "eigensolve.self_s": layer_self("eigensolve"),
        "eigensolve.sturm_elems": int(sturm_elems),
        "eigensolve.sturm_ns_per_elem": _ratio(float(own[sturm].sum()) * 1e9, sturm_elems),
        "eigensolve.errors": int(np.count_nonzero(raised_here)),
        "observables.operators_per_row": _ratio(sum(c["operators"] for c in row_cmds), rows),
        "observables.imbalance_calls_per_row":
            _ratio(sum(c["imbalance_calls"] for c in row_cmds), rows),
        "observables.mean_window_dim": _ratio(float(size[ops].sum()), n_ops),
        "observables.rows": rows,
        "observables.self_s": layer_self("observables"),
        "observables.unconverged_rows": total("observables.unconverged_rows"),
        "perturbation.calls": int(np.count_nonzero(layer == "perturbation")),
        "perturbation.self_s": layer_self("perturbation"),
        "wick.calls": int(np.count_nonzero(layer == "wick")),
        "wick.self_s": layer_self("wick"),
    }
    for c in per_command:
        c["operators_per_row"] = _ratio(c["operators"], c["rows"])
        c["imbalance_calls_per_row"] = _ratio(c["imbalance_calls"], c["rows"])
        c["mean_window_dim"] = _ratio(c.pop("dim_sum"), c["operators"])
    return metrics, per_command
