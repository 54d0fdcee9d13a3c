"""Tests of the benchmark's own logic: generator, self-time arithmetic, verdicts.

Run from the repository root with ``python3 -m pytest bench -q``
(``src`` on ``PYTHONPATH`` enables the CLI-parser check).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, commands_for  # noqa: E402

SEEDS = range(12)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _initial_half_width(ejec: float) -> int:
    # The adaptive window's starting half-width: four charge-state standard
    # deviations (E_J / 8 E_C)^(1/4), at least 16.
    return max(16, math.ceil(8.0 * (ejec / 8.0) ** 0.25))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    for seed in SEEDS:
        assert commands_for(workload, seed) == commands_for(workload, seed)
    # Parameters are drawn from short decimal grids, so two seeds may agree.
    distinct = {tuple(c.argv for c in commands_for(workload, seed)) for seed in SEEDS}
    assert len(distinct) > len(SEEDS) // 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_artifacts_are_distinct_within_a_pass(workload):
    for seed in SEEDS:
        commands = commands_for(workload, seed)
        assert len({c.artifact for c in commands}) == len(commands)
        for c in commands:
            assert _flag(c.argv, "--output") == c.artifact


def test_charge_sweep_first_window_covers_the_basis():
    for seed in SEEDS:
        for c in commands_for("charge-sweep", seed):
            pairs = int(_flag(c.argv, "--pairs"))
            assert _initial_half_width(float(_flag(c.argv, "--ejec"))) >= pairs
            assert "--window" not in c.argv and "--format" not in c.argv  # adaptive, CSV


def test_transmon_window_always_doubles():
    for seed in SEEDS:
        for c in commands_for("transmon-window", seed):
            assert _flag(c.argv, "--format") == "json"
            assert "--window" not in c.argv
            if c.name == "transmon-shift":
                ratios = [float(_flag(c.argv, "--ej-ghz")) / float(_flag(c.argv, "--ec-ghz"))]
            elif c.name == "curvature":
                ratios = [float(x) for x in _flag(c.argv, "--values").split(",")]
            else:
                ratios = [float(_flag(c.argv, "--ejec"))]
            pairs = float(_flag(c.argv, "--pairs"))
            # Adaptive mode returns after one width only when that width is
            # the whole basis; here the first window (dim 33 or 35) never is.
            for ejec in ratios:
                assert 10 <= ejec < 200 and _initial_half_width(ejec) <= 17
            assert 2 * 17 + 1 < pairs + 1


def test_full_basis_stays_full():
    for seed in SEEDS:
        for c in commands_for("full-basis", seed):
            assert _flag(c.argv, "--window") == "full"
            assert 19_800 <= int(_flag(c.argv, "--pairs")) <= 20_200


def test_closed_forms_never_solve():
    for seed in SEEDS:
        assert {c.name for c in commands_for("closed-forms", seed)} == {
            "analytic", "validity", "wick-verify"}


def test_generated_argv_parse():
    cli = pytest.importorskip("finitejj.cli")
    parser = cli.build_parser()
    for workload in WORKLOADS:
        for c in commands_for(workload, 0):
            parser.parse_args(list(c.argv))


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 10]; children 1 [1, 4] and 2 [3, 6] overlap on [3, 4];
    # child 3 [8, 12] runs past its parent and is clipped to [8, 10];
    # 4 [2, 3] is a grandchild under 1.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = layers.self_times(parent, start, end)
    np.testing.assert_allclose(own, [10 - 5 - 2, 3 - 1, 3, 4, 1])


def _spans(rows):
    cols = np.array(rows, dtype=float)
    return {
        "parent": cols[:, 1].astype(np.int64), "name": cols[:, 2].astype(np.int64),
        "start": cols[:, 3], "end": cols[:, 4], "size": cols[:, 5], "inner": cols[:, 6],
        "run": np.zeros(len(rows), dtype=np.int64), "err": cols[:, 7].astype(np.int64),
    }


def _synthetic_pass():
    names = [
        "cli.main",
        "observables.band_sweep",
        "hamiltonian.TridiagonalHamiltonian.__init__",
        "eigensolve.lowest_eigenvalues",
        "eigensolve.eigenvalue_count_below",
    ]
    # One command: a 2-row sweep building two dim-11 operators, each solved
    # with two pivot counts over 11 elements that each spend 0.5 inside the
    # block accessors (11 elements read) and no measurable time in the bounds.
    rows = [(0, -1, 0, 0.0, 20.0, 0.0, 0.0, 0), (1, 0, 1, 1.0, 19.0, 2.0, 0.0, 0)]
    t = 2.0
    for _ in range(2):
        rows.append((len(rows), 1, 2, t, t + 1.0, 11.0, 0.0, 0))
        solve = len(rows)
        rows.append((solve, 1, 3, t + 1.0, t + 7.0, 0.0, 0.0, 0))
        for k in range(2):
            c0 = t + 1.5 + 3.0 * k
            rows.append((len(rows), solve, 4, c0, c0 + 2.0, 11.0, 0.5, 0))
        t += 8.0
    counts = [{"model.pairs_total_calls": 7, "hamiltonian.coeff_elems": 44,
               "hamiltonian.block_s": 2.0, "hamiltonian.bounds_calls": 4,
               "hamiltonian.bounds_s": 0.0}]
    return _spans(rows), names, counts


def test_pass_metrics_on_a_synthetic_trace():
    metrics, per_command = layers.pass_metrics(*_synthetic_pass())
    assert metrics["observables.rows"] == 2
    assert metrics["observables.operators_per_row"] == 1.0
    assert metrics["observables.mean_window_dim"] == 11.0
    assert metrics["eigensolve.solves"] == 2
    assert metrics["eigensolve.sturm_counts"] == 4
    assert metrics["eigensolve.counts_per_solve"] == 2.0
    assert metrics["eigensolve.sturm_elems"] == 44
    # Each count lasts 2.0 with 0.5 inside the block accessors: self 1.5 over 11 elements.
    assert metrics["eigensolve.sturm_ns_per_elem"] == pytest.approx(1.5e9 / 11)
    # Solves last 6.0 and contain two counts of 2.0: self 2.0 each.
    assert metrics["eigensolve.self_s"] == pytest.approx(2 * 2.0 + 4 * 1.5)
    assert metrics["hamiltonian.self_s"] == pytest.approx(2 * 1.0 + 4 * 0.5)
    assert metrics["hamiltonian.coeff_elems"] == 44
    assert metrics["hamiltonian.bounds_calls"] == 4
    assert metrics["hamiltonian.coeff_ns_per_elem"] == pytest.approx(0.5e9 / 11)
    assert metrics["observables.self_s"] == pytest.approx(18.0 - 2 * 7.0)
    assert metrics["eigensolve.solve_us_p50"] == pytest.approx(6e6)
    assert metrics["model.pairs_total_calls"] == 7
    assert per_command[0]["rows"] == 2 and per_command[0]["solves"] == 2


def test_pass_metrics_cover_the_per_layer_metrics():
    metrics, _ = layers.pass_metrics(*_synthetic_pass())
    from_replay = {"cli.import_s", "trace.overhead_frac"}
    assert set(metrics) | from_replay == {m["name"] for m in run.SPEC["per_layer"]}
    assert run.COUNTS <= set(metrics)


def test_errors_count_once_per_failure():
    names = ["observables.qubit_frequency", "eigensolve.ground_state",
             "eigensolve.lowest_eigenvalues"]
    spans = _spans([(0, -1, 0, 0.0, 5.0, 0.0, 0.0, 1), (1, 0, 1, 1.0, 4.0, 0.0, 0.0, 1),
                    (2, 1, 2, 2.0, 3.0, 0.0, 0.0, 1)])
    metrics, _ = layers.pass_metrics(spans, names, [{}])
    assert metrics["eigensolve.errors"] == 1


def test_hot_accessors_are_timed_counters_charged_to_the_caller():
    hamiltonian = pytest.importorskip("finitejj.hamiltonian")
    from finitejj.model import CircuitParams

    h = hamiltonian.build(CircuitParams.from_pairs(10, e_j=0.2, e_c=1.0))
    tr = tracer.Tracer()
    undo = tracer.instrument(tr)
    try:
        tr.begin_run(0)
        from finitejj import eigensolve

        eigensolve.eigenvalue_count_below(h, 0.5)
    finally:
        tracer.restore(undo)
    spans = tr.columns()
    # The count calls coefficient_bounds and the two block accessors, which
    # leave no span of their own.
    assert [tr.names[i] for i in spans["name"]] == ["eigensolve.eigenvalue_count_below"]
    counts = tr.run_counts[0]
    assert counts["hamiltonian.bounds_calls"] == 1
    # One diagonal block of dim 11 and one off-diagonal block of 10 elements.
    assert counts["hamiltonian.coeff_elems"] == 2 * h.dim - 1
    inner = counts["hamiltonian.block_s"] + counts["hamiltonian.bounds_s"]
    assert spans["inner"][0] == pytest.approx(inner, rel=1e-12)
    assert 0.0 < inner < spans["end"][0] - spans["start"][0]


def test_every_pass_starts_with_cold_caches(tmp_path, monkeypatch):
    cli = pytest.importorskip("finitejj.cli")
    from finitejj import wick

    monkeypatch.chdir(tmp_path)
    argv = next(c for c in commands_for("closed-forms", 0) if c.name == "wick-verify").argv
    misses = []
    for clear in (True, True, False):
        if clear:
            replay.clear_caches()
        before = wick._normal_order_word.cache_info().misses
        assert cli.main(list(argv)) == 0
        misses.append(wick._normal_order_word.cache_info().misses - before)
    # A pass after clear_caches repeats the first pass's normal-ordering work;
    # one without it runs on cache hits.
    assert misses[0] == misses[1] > 0 and misses[2] == 0


@pytest.mark.parametrize("parent, change, direction, expected", [
    # Every pair won and the medians 20% apart: improved.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.0, 8.1, 7.9, 8.0], "lower", "improved"),
    # Same medians, steady: no worse.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [10.1, 10.0, 10.0, 9.9, 10.1, 10.0, 9.8, 10.2, 10.0, 10.0], "lower", "no worse"),
    # 30% slower, steady: worse.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [13.0, 13.1, 12.9, 13.0, 13.2, 12.8, 13.0, 13.1, 12.9, 13.0], "lower", "worse"),
    # Spread far above the bound: unresolved.
    ([10.0, 14.0, 7.0, 12.0, 8.0, 15.0, 6.0, 11.0, 9.0, 13.0],
     [11.0, 13.0, 8.0, 12.0, 7.0, 16.0, 6.0, 10.0, 9.0, 14.0], "lower", "unresolved"),
    # Higher is better: the change is 20% higher in every pair.
    ([100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0],
     [120.0, 121.0, 119.0, 120.0, 120.5, 119.5, 120.0, 121.0, 119.0, 120.0],
     "higher", "improved"),
    # Wins 8 of 10 pairs only: not improved, but within the bound.
    ([10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0],
     [9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 10.5, 10.5], "lower", "no worse"),
])
def test_compare_verdicts(parent, change, direction, expected):
    assert compare.verdict(parent, change, direction, bound=0.1)["verdict"] == expected


def test_compare_needs_ten_pairs_for_a_gain():
    row = compare.verdict([10.0, 10.1, 9.9, 10.0, 10.2], [8.0, 8.1, 7.9, 8.0, 8.2], "lower", 0.1)
    assert row["wins"] == 1.0 and row["verdict"] == "no worse"


def test_compare_verdict_wide_spread_but_every_run_better():
    parent = [20.0, 30.0, 25.0, 35.0, 22.0, 28.0, 33.0, 21.0, 27.0, 31.0]
    change = [10.0, 15.0, 12.0, 18.0, 11.0, 14.0, 17.0, 10.5, 13.0, 16.0]
    row = compare.verdict(parent, change, "lower", bound=0.1)
    assert row["wins"] == 1.0 and row["verdict"] == "improved"
    # Every change run better than every parent run, medians closer than the
    # parent's spread: no worse rather than unresolved.
    change = [19.0, 19.5, 18.0, 19.9, 18.5, 19.2, 19.8, 18.2, 19.1, 19.4]
    assert compare.verdict(parent, change, "lower", bound=0.1)["verdict"] == "no worse"


def test_report_rows_pair_runs_per_workload():
    spec = {"workloads": [{"name": "w"}, {"name": "left-out"}, {"name": "short"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def results(values, short=10):
        runs = [("w", v) for v in values] + [("short", 5.0)] * short
        return {"runs": [{"workload": w, "seed": i, "trace": 0,
                          "result": {"attempted": 3, "failed": 0,
                                     "metrics": {"wall_s": {"value": v, "unit": "s"}}}}
                         for i, (w, v) in enumerate(runs)]}

    rows = compare.report_rows(results([10.0] * 10, short=9), results([5.0] * 10), spec)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("w", "wall_s"), ("w", "failed"), ("left-out", "wall_s"), ("left-out", "failed"),
        ("short", "wall_s"), ("short", "failed")]
    assert rows[0]["verdict"] == "improved" and rows[0]["pairs"] == 10
    # A workload missing on both sides, or with unequal run counts, gets no
    # verdict that reads as no regression.
    assert rows[2]["verdict"] == "missing"
    assert rows[4]["verdict"].startswith("unresolved: 9 parent and 10 change runs")


def test_oracle_arrays_match_the_paper_formulas():
    # 2N = 3: n in {-3/2, ..., 3/2}; couplings sqrt(N(N+1) - n(n+1)) with N = 3/2.
    charges, diag, off = oracle.charge_arrays(3, e_j=2.0, e_c=1.0, n_g=0.25)
    np.testing.assert_array_equal(charges, [-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_allclose(diag, (charges - 0.25) ** 2)
    n = charges[:-1]
    np.testing.assert_allclose(off, -(2.0 / 3.0) * np.sqrt(1.5 * 2.5 - n * (n + 1)))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_allclose(oracle.lowest(diag, off, 2), np.linalg.eigvalsh(dense)[:2])
