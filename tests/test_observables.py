"""Qubit frequency, imbalance, susceptibility, sweeps, and curvatures."""

import argparse
import collections
import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import (
    read_table,
    two_level_gap,
    two_level_gap_curvature,
    two_level_imbalance,
    two_level_susceptibility,
)
from finitejj import observables
from finitejj.cli import _write_table
from finitejj.errors import ConvergenceError, RegimeWarning, WindowConvergenceError
from finitejj.eigensolve import dense_all
from finitejj.hamiltonian import build
from finitejj.model import CircuitParams
from finitejj.observables import (
    WindowPolicy,
    band_sweep,
    charge_susceptibility,
    dispersion_curvature,
    expected_imbalance,
    initial_half_width,
    qubit_frequency,
    susceptibility_curvature,
)
from oracles import mp_levels, values_of

FULL = WindowPolicy.full()


def params(pairs, ejec, ng=0.0, ec=1.0):
    return CircuitParams.from_pairs(pairs, e_j=ejec * ec, e_c=ec, n_g=ng)


class TestWindowPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowPolicy(mode="bogus")
        with pytest.raises(ValueError):
            WindowPolicy(mode="fixed")
        with pytest.raises(ValueError):
            WindowPolicy(mode="adaptive", w_initial=2)

    def test_initial_half_width_rule(self):
        assert initial_half_width(params(10, 50.0)) == 16
        # E_J/(8 E_C) = 625 -> sigma = 5 -> ceil(40)
        assert initial_half_width(params(1000, 5000.0)) == 40
        # An infinite spread is capped at 2N, which covers the whole basis.
        assert initial_half_width(CircuitParams.from_pairs(100, e_j=1.0, e_c=1e-320)) == 100


class TestQubitFrequency:
    def test_minimal_junction_gap(self):
        assert qubit_frequency(params(1, 1.0), FULL) == pytest.approx(2.0, rel=1e-12)

    def test_adaptive_matches_dense_full_window(self):
        p = params(400, 50.0)
        dense = values_of(dense_all(build(p)))
        reference = dense[1] - dense[0]
        adaptive = qubit_frequency(p, WindowPolicy.adaptive())
        assert adaptive == pytest.approx(reference, rel=1e-9)

    def test_window_cap_raises(self, monkeypatch):
        # Half-width 16 is certified at 2N = 5e8, so the certificate is made to refuse it.
        monkeypatch.setattr(observables, "window_certificate", lambda h, spectrum: [])
        p = params(500_000_000, 50.0)
        with pytest.raises(WindowConvergenceError):
            qubit_frequency(p, WindowPolicy(mode="adaptive", w_initial=16, w_max=16))


def _count_per_window(monkeypatch):
    """(windows built, Counter of (routine, window index, level)) for the solver calls."""
    windows, calls = [], collections.Counter()
    real_build = observables.build
    monkeypatch.setattr(observables, "build",
                        lambda *args: windows.append(real_build(*args)) or windows[-1])
    for name in ("lowest_eigenvalues", "window_certificate", "eigenpair"):
        def counting(h, *args, _name=name, _real=getattr(observables, name)):
            level = args[0] if _name == "eigenpair" else None
            calls[_name, next(i for i, w in enumerate(windows) if w is h), level] += 1
            return _real(h, *args)

        monkeypatch.setattr(observables, name, counting)
    return windows, calls


# 2N = 1e6 at E_J/E_C = 50 walks half-widths 16 and 32 (the bands close at the
# first, <n> and chi at the second); 2N = 60 at E_J/E_C = 100 walks 16 and the
# whole basis.
_SWEEP, _CURVE = params(1_000_000, 50.0), params(60, 100.0)
_QUANTITIES = {
    "bands+imbalance": lambda policy: band_sweep(_SWEEP, [0.0, 0.3], levels=3, policy=policy,
                                                 include_imbalance=True),
    "bands+chi": lambda policy: band_sweep(_SWEEP, [0.3], levels=2, policy=policy,
                                           include_susceptibility=True),
    "imbalance": lambda policy: expected_imbalance(_SWEEP.with_ng(0.3), policy),
    "dispersion": lambda policy: dispersion_curvature(_CURVE, policy),
    "susceptibility": lambda policy: susceptibility_curvature(_CURVE, policy),
}


@pytest.mark.parametrize("policy", [WindowPolicy.fixed(20), WindowPolicy.adaptive(), FULL],
                         ids=["fixed", "adaptive", "full"])
@pytest.mark.parametrize("quantity", list(_QUANTITIES))
def test_each_window_is_solved_and_certified_once(quantity, policy, monkeypatch):
    windows, calls = _count_per_window(monkeypatch)
    _QUANTITIES[quantity](policy)
    walked = len(windows) > len({w.params.n_g for w in windows})
    assert walked == (policy.mode != "fixed")
    for i, h in enumerate(windows):
        assert calls["lowest_eigenvalues", i, None] == 1
        certificates = calls["window_certificate", i, None]
        assert certificates == (0 if policy.mode == "fixed" or h.is_full_window else 1)
    assert max(n for (name, *_), n in calls.items() if name == "eigenpair") == 1


def test_a_column_reading_fewer_levels_certifies_its_prefix(monkeypatch):
    """Where the certificate proves only the two levels <n> reads of the three a window
    solves, <n> still closes at the window that proves them, as it does alone, and
    each window is certified once."""
    real = observables.window_certificate
    monkeypatch.setattr(observables, "window_certificate",
                        lambda h, spectrum: real(h, spectrum)[:2 if h.dim < 129 else None])
    alone = expected_imbalance(_SWEEP.with_ng(0.3))
    windows, calls = _count_per_window(monkeypatch)
    bounded = []
    real_bound = observables.imbalance_bound
    monkeypatch.setattr(observables, "imbalance_bound",
                        lambda edge, a, v: bounded.append(len(v)) or real_bound(edge, a, v))
    table = band_sweep(_SWEEP, [0.3], levels=3, include_imbalance=True)
    assert [h.dim for h in windows] == [33, 65, 129]
    assert bounded == [33, 65]
    assert table.column_values["n_expect"] == [alone]
    assert [calls["window_certificate", i, None] for i in range(len(windows))] == [1, 1, 1]


_SHARED = {**_QUANTITIES, "bands+imbalance+chi": lambda policy: band_sweep(
    _SWEEP, [0.3], levels=2, policy=policy, include_imbalance=True, include_susceptibility=True)}


@pytest.mark.parametrize("policy", [WindowPolicy.fixed(20), WindowPolicy.adaptive(), FULL],
                         ids=["fixed", "adaptive", "full"])
@pytest.mark.parametrize("quantity", list(_SHARED))
def test_each_level_is_bounded_once_per_checked_window(quantity, policy, monkeypatch):
    """The walk takes a level's edge bound once per window for all its columns, and
    none on a window it does not check: a fixed one or one holding the whole basis."""
    windows, _ = _count_per_window(monkeypatch)
    bounded = collections.Counter()
    real = observables.edge_bound

    def counting(h, spectrum, radii, vector, level=0):
        bounded[next(i for i, w in enumerate(windows) if w is h), level] += 1
        return real(h, spectrum, radii, vector, level)

    monkeypatch.setattr(observables, "edge_bound", counting)
    _SHARED[quantity](policy)
    assert set(bounded.values()) <= {1}
    assert all(policy.mode != "fixed" and not windows[i].is_full_window for i, _ in bounded)
    # The dispersion's three levels are certified only on the whole basis of 2N = 60.
    assert bool(bounded) == (policy.mode != "fixed" and quantity != "dispersion")


def test_a_non_finite_result_or_bound_ends_the_walk(monkeypatch):
    """NaN or inf in a column's result or gates refuses the point on any window: a
    sweep flags it, and a curvature or a single value raises."""
    real = observables.charge_response
    monkeypatch.setattr(observables, "charge_response",
                        lambda *args: (math.nan, *real(*args)[1:]))
    table = band_sweep(params(10, 0.2), [0.0, 0.5], levels=1, policy=WindowPolicy.fixed(3),
                       include_susceptibility=True)
    assert table.column_values["converged"] == [0.0, 0.0]
    assert all(map(math.isnan, table.column_values["chi"]))
    with pytest.raises(WindowConvergenceError, match="non-finite"):
        dispersion_curvature(params(60, 50.0), FULL)
    monkeypatch.setattr(observables, "charge_response", real)
    monkeypatch.setattr(observables, "imbalance_bound", lambda *args: math.inf)
    with pytest.raises(WindowConvergenceError, match="non-finite"):
        expected_imbalance(_SWEEP.with_ng(0.3), WindowPolicy.adaptive(w_max=32))


class TestExpectedImbalance:
    def test_zero_at_symmetric_point(self):
        for pairs, ejec in [(10, 0.2), (11, 1.0), (60, 30.0)]:
            assert abs(expected_imbalance(params(pairs, ejec), FULL)) < 1e-12

    def test_staircase_saturation(self):
        value = expected_imbalance(params(10, 0.2, ng=20.0), FULL)
        assert value == pytest.approx(5.0, abs=1e-3)
        value = expected_imbalance(params(10, 0.2, ng=-20.0), FULL)
        assert value == pytest.approx(-5.0, abs=1e-3)

    def test_two_level_closed_form(self):
        for ng in (0.1, 0.5, 1.0, 3.0):
            mine = expected_imbalance(params(1, 1.0, ng=ng), FULL)
            assert mine == pytest.approx(two_level_imbalance(1.0, 1.0, ng), rel=1e-10)

    def test_odd_in_offset_charge(self):
        for pairs, ejec, ng in [(10, 0.2, 0.3), (10, 0.2, 0.5), (60, 20.0, 2.0)]:
            plus = expected_imbalance(params(pairs, ejec, ng=ng), FULL)
            minus = expected_imbalance(params(pairs, ejec, ng=-ng), FULL)
            assert plus + minus == pytest.approx(0.0, abs=1e-10)

    def test_hard_bound(self):
        for pairs, ejec, ng in [(10, 0.2, 4.0), (10, 0.2, 15.0), (9, 2.0, 7.3), (4, 30.0, 1.9)]:
            value = expected_imbalance(params(pairs, ejec, ng=ng), FULL)
            assert abs(value) <= pairs / 2.0 + 1e-9 * max(1.0, pairs / 2.0)

    def test_windowed_agrees_with_full(self):
        p = params(400, 50.0, ng=0.3)
        full = expected_imbalance(p, FULL)
        windowed = expected_imbalance(p, WindowPolicy.adaptive())
        assert windowed == pytest.approx(full, rel=1e-9, abs=1e-9)


class TestChargeSusceptibility:
    def test_two_level_value_at_zero(self):
        result = charge_susceptibility(params(1, 1.0), FULL)
        assert result == pytest.approx(0.5, rel=1e-7)
        assert result == pytest.approx(two_level_susceptibility(1.0, 1.0, 0.0), rel=1e-7)

    def test_peak_matches_degenerate_formula(self):
        # peak at n_g = 1/2 for 2N = 10, E_J/E_C = 0.2
        result = charge_susceptibility(params(10, 0.2, ng=0.5), FULL)
        peak = (10.0 * 1.0) / (0.2 * math.sqrt(11.0**2 - 1.0))
        assert result == pytest.approx(peak, rel=0.02)

    def test_vanishes_deep_in_saturation(self):
        result = charge_susceptibility(params(10, 0.2, ng=25.0), FULL)
        assert abs(result) < 1e-6

    def test_even_in_offset_charge(self):
        for pairs, ejec, ng in [(10, 0.2, 0.5), (60, 20.0, 1.0)]:
            plus = charge_susceptibility(params(pairs, ejec, ng=ng), FULL)
            minus = charge_susceptibility(params(pairs, ejec, ng=-ng), FULL)
            assert plus == pytest.approx(minus, abs=1e-8 * max(1.0, abs(plus)))

    @pytest.mark.parametrize(
        "pairs,ejec,ng,half_width",
        [(1, 1.0, 0.0, None), (10, 0.2, 0.5, None), (10, 0.01, 0.5, None),
         (10, 0.2, 25.0, None), (11, 1.0, -0.83, None), (60, 50.0, 4.0, None),
         (10, 0.2, 4.1, None), (10, 0.1, 4.05, None), (500_000_000, 50.0, 1e8 + 0.3, 16)],
    )
    def test_matches_mpmath_sum_over_states(self, pairs, ejec, ng, half_width):
        # 4 E_C sum_{m>0} |<m|n|0>|^2 / (E_m - E_0) at 40 digits, same coefficients.
        # At n_g = 4.1 and 4.05 an LU solve of H - s, s just below E_0, meets an
        # exactly zero pivot.
        p = params(pairs, ejec, ng=ng)
        policy = FULL if half_width is None else WindowPolicy.fixed(half_width)
        h = build(p, half_width)
        diag, off = h.to_arrays()
        with mpmath.workdps(40):
            a = mpmath.diag([mpmath.mpf(d) for d in diag.tolist()])
            for i, o in enumerate(off.tolist()):
                a[i, i + 1] = a[i + 1, i] = mpmath.mpf(o)
            values, vectors = mpmath.eigsy(a)
            order = sorted(range(h.dim), key=lambda j: values[j])
            ground = vectors[:, order[0]]
            n_ground = [mpmath.mpf(n) * ground[i] for i, n in enumerate(h.charges().tolist())]
            exact = 4 * sum(
                sum(vectors[i, m] * n_ground[i] for i in range(h.dim)) ** 2
                / (values[m] - values[order[0]])
                for m in order[1:]
            )
            error = abs((charge_susceptibility(p, policy) - exact) / exact)
        assert error <= 1e-12

    def test_adaptive_agrees_with_full(self):
        for pairs, ejec, ng in [(400, 50.0, 0.3), (60, 50.0, 4.0), (10, 0.2, 0.5)]:
            p = params(pairs, ejec, ng=ng)
            full = charge_susceptibility(p, FULL)
            assert charge_susceptibility(p, WindowPolicy.adaptive()) == pytest.approx(
                full, rel=1e-9, abs=1e-12
            )

    def test_one_state_window_is_zero(self):
        # one state has nothing to mix with; a finite difference of <n> across
        # n_g = 1/2 would jump between two such windows instead
        table = band_sweep(
            params(10, 0.2), [0.0, 0.5, 1.0], levels=1,
            policy=WindowPolicy.fixed(0), include_susceptibility=True,
        )
        assert list(table.columns["chi"]) == [0.0, 0.0, 0.0]


class TestHellmannFeynman:
    @pytest.mark.parametrize(
        "pairs,ejec,ng",
        [(10, 0.2, 0.3), (10, 5.0, 0.37), (60, 50.0, 1.7), (11, 1.0, -0.83)],
    )
    def test_slope_identity(self, pairs, ejec, ng):
        # dE_0/dn_g against -2 E_C (<n> - n_g), residual under 1e-7 E_C
        p = params(pairs, ejec, ng=ng)
        h = 1e-5 * max(1.0, abs(ng))

        def e0(x):
            return values_of(dense_all(build(p.with_ng(x))))[0]

        slope_fd = (e0(ng + h) - e0(ng - h)) / (2.0 * h)
        slope_hf = -2.0 * 1.0 * (expected_imbalance(p, FULL) - ng)
        assert abs(slope_fd - slope_hf) < 1e-7


class TestBandSweep:
    def test_row_and_column_contract(self):
        table = band_sweep(params(10, 0.2), np.linspace(-2, 2, 41), levels=3, policy=FULL)
        assert table.grid.size == 41
        assert set(table.columns) == {"E0", "E1", "E2", "converged"}
        assert np.all(table.columns["converged"] == 1.0)
        assert table.meta["pairs_total"] == 10

    def test_minima_shift_with_parity(self):
        grid = np.linspace(-2.0, 2.0, 81)

        def minima(pairs):
            table = band_sweep(params(pairs, 0.2), grid, levels=1, policy=FULL)
            e0 = table.columns["E0"]
            inner = (e0[1:-1] < e0[:-2]) & (e0[1:-1] < e0[2:])
            return grid[1:-1][inner]

        assert minima(10) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
        assert minima(11) == pytest.approx([-1.5, -0.5, 0.5, 1.5], abs=1e-9)

    def test_bands_even_in_offset_charge(self):
        grid = np.linspace(-2.0, 2.0, 33)
        table = band_sweep(params(10, 0.2), grid, levels=3, policy=FULL)
        for name in ("E0", "E1", "E2"):
            col = table.columns[name]
            assert np.max(np.abs(col - col[::-1])) < 1e-10 * max(1.0, np.max(np.abs(col)))

    def test_large_offset_tail_bounded(self):
        # Deep in saturation the charge pins at n = N, so the bands follow
        # E_C (n_g - N)^2 + 2 E_C (n_g - N) k + k^2: equally spaced levels
        # with the quadratic remainder measured from the band edge.  The
        # remainder settles to k^2 and stops drifting as n_g grows.
        offsets = np.array([30.0, 60.0, 120.0])
        table = band_sweep(params(10, 1.0), offsets, levels=3, policy=FULL)
        edge = offsets - 5.0
        for k in range(3):
            resid = table.columns[f"E{k}"] - edge**2 - 2.0 * edge * k
            assert np.max(np.abs(resid - k * k)) < 0.05 * max(1.0, k * k)
            assert np.max(np.abs(np.diff(resid))) < 0.01

    def test_subtract_ground_option(self):
        grid = np.linspace(-1.0, 1.0, 5)
        table = band_sweep(params(10, 0.2), grid, levels=2, policy=FULL, subtract_ground=True)
        assert np.all(table.columns["E0"] == 0.0)

    def test_failed_points_flagged_not_dropped(self, monkeypatch):
        monkeypatch.setattr(observables, "window_certificate", lambda h, spectrum: [])
        policy = WindowPolicy(mode="adaptive", w_initial=16, w_max=16)
        table = band_sweep(params(500_000_000, 50.0), np.array([0.0, 1.0]), levels=2, policy=policy)
        assert table.grid.size == 2
        assert np.all(table.columns["converged"] == 0.0)
        assert np.all(np.isnan(table.columns["E0"]))

    def test_optional_columns(self):
        grid = np.linspace(-1.0, 1.0, 5)
        table = band_sweep(
            params(10, 0.2),
            grid,
            levels=1,
            policy=FULL,
            include_imbalance=True,
            include_susceptibility=True,
        )
        assert "n_expect" in table.columns
        assert "chi" in table.columns
        center = table.columns["n_expect"][2]
        assert abs(center) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            band_sweep(params(10, 0.2), [], levels=1, policy=FULL)
        with pytest.raises(ValueError):
            band_sweep(params(10, 0.2), [0.0, 0.0], levels=1, policy=FULL)
        with pytest.raises(ValueError):
            band_sweep(params(10, 0.2), [0.0, 1.0], levels=0, policy=FULL)
        # A fixed window clipped at the basis edge: 2 states at n_g = 4.5.
        with pytest.raises(ValueError, match="levels 3 exceeds the 2 charge states"):
            band_sweep(params(10, 1.0), [4.5], levels=3, policy=WindowPolicy.fixed(1))
        # More levels than the whole basis holds, under every walking policy.
        for policy in (FULL, WindowPolicy.adaptive()):
            with pytest.raises(ValueError, match="levels 4 exceeds the 3 charge states"):
                band_sweep(params(2, 1.0), [0.0], levels=4, policy=policy)

    def test_adaptive_window_starts_wide_enough_for_levels(self):
        # The default first window (half-width 16) holds 33 states; 50 levels
        # start it at half-width 49.
        grid = [0.0, 0.5, 1.0]
        adaptive = band_sweep(params(1000, 1.0), grid, levels=50)
        full = band_sweep(params(1000, 1.0), grid, levels=50, policy=FULL)
        for j in range(50):
            assert adaptive.columns[f"E{j}"] == pytest.approx(full.columns[f"E{j}"], rel=1e-9)


class TestSweepTableSerialization:
    def make_table(self):
        return band_sweep(
            params(10, 0.2),
            np.linspace(-1.0, 1.0, 7),
            levels=2,
            policy=FULL,
            include_imbalance=True,
        )

    def write(self, table, fmt, tmp_path):
        args = argparse.Namespace(format=fmt, output=str(tmp_path / f"table.{fmt}"))
        return _write_table(table, args, "table")

    def test_csv_round_trip_exact(self, tmp_path):
        table = self.make_table()
        back = read_table(self.write(table, "csv", tmp_path))
        assert np.array_equal(back.grid, table.grid)
        for name, col in table.columns.items():
            assert np.array_equal(back.columns[name], col), name
        assert back.meta == table.meta

    def test_json_round_trip_exact(self, tmp_path):
        table = self.make_table()
        back = read_table(self.write(table, "json", tmp_path), "json")
        assert np.array_equal(back.grid, table.grid)
        for name, col in table.columns.items():
            assert np.array_equal(back.columns[name], col), name

    def test_csv_shape(self, tmp_path):
        table = self.make_table()
        lines = self.write(table, "csv", tmp_path).read_bytes().decode().strip().split("\r\n")
        assert lines[0].startswith("# meta ")
        assert lines[1] == "n_g,E0,E1,n_expect,converged"
        assert len(lines) == 2 + 7


class TestDispersionCurvature:
    def test_minimal_junction_sanity(self):
        # exact two-level gap curvature is 2 E_C^2 / E_J
        with pytest.warns(RegimeWarning):
            result = dispersion_curvature(params(1, 1.0), FULL)
        assert result.value == pytest.approx(two_level_gap_curvature(1.0, 1.0, 0.0), rel=1e-12)
        # A one-state window has no level 1.
        with pytest.raises(ValueError, match="level 1 is outside the 1 charge states"):
            dispersion_curvature(params(60, 50.0), WindowPolicy.fixed(0))

    def test_transmon_ratio_approaches_one(self):
        deviations = []
        for ejec in (10.0, 20.0, 50.0):
            result = dispersion_curvature(params(400, ejec), FULL)
            deviations.append(abs(result.ratio - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[-1] < 0.01

    def test_parity_flips_deviation_sign(self):
        even = dispersion_curvature(params(60, 10.0), FULL)
        odd = dispersion_curvature(params(61, 10.0), FULL)
        assert (even.ratio - 1.0) * (odd.ratio - 1.0) < 0.0

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_step_validation(self, step):
        # The curvatures are exact and take no step; a caller's step is
        # refused rather than ignored.
        for curvature in (dispersion_curvature, susceptibility_curvature):
            with pytest.raises(TypeError, match="step"):
                curvature(params(60, 40.0), FULL, step=step)

    def test_reference_formula(self):
        result = dispersion_curvature(params(60, 40.0), FULL)
        assert result.reference == pytest.approx(-math.sqrt(2.0 * 40.0) / (2.0 * 30.0**2))

    def test_charge_regime_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dispersion_curvature(params(10, 0.2), FULL)
        assert any(isinstance(w.message, RegimeWarning) for w in caught)

    def test_cpb_curvature_negative_for_even_total(self):
        # Charge regime: at n_g = 0 the gap peaks for 2N even (n = 0 lies
        # midway between degeneracies) and dips for 2N odd (n = +-1/2 cross).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            even = dispersion_curvature(params(10, 0.2), FULL)
            odd = dispersion_curvature(params(11, 0.2), FULL)
        assert even.value < 0.0
        assert odd.value > 0.0


class TestSusceptibilityCurvature:
    def test_transmon_ratio_approaches_one(self):
        low = susceptibility_curvature(params(400, 50.0), FULL)
        high = susceptibility_curvature(params(400, 100.0), FULL)
        assert abs(high.ratio - 1.0) < abs(low.ratio - 1.0)
        assert abs(high.ratio - 1.0) < 0.10

    def test_parity_flips_deviation_sign(self):
        even = susceptibility_curvature(params(60, 10.0), FULL)
        odd = susceptibility_curvature(params(61, 10.0), FULL)
        assert (even.ratio - 1.0) * (odd.ratio - 1.0) < 0.0

    def test_reference_formula(self):
        result = susceptibility_curvature(params(60, 40.0), FULL)
        assert result.reference == pytest.approx(-3.0 * 40.0 / (2.0 * 30.0**4))

    def test_smooth_case_not_flagged(self):
        # No warning in the transmon regime, and the exact curvature agrees
        # with a five-point difference of the exact susceptibility.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = susceptibility_curvature(params(400, 50.0), FULL)
            h = 0.1
            chi = [
                charge_susceptibility(params(400, 50.0, ng=k * h), FULL) for k in (-2, -1, 0, 1, 2)
            ]
        stencil = (-chi[0] + 16.0 * chi[1] - 30.0 * chi[2] + 16.0 * chi[3] - chi[4]) / (12.0 * h * h)
        assert result.value == pytest.approx(stencil, rel=1e-3)

    def test_cpb_sign_between_peaks(self):
        # Between the half-integer peaks the susceptibility has a local
        # minimum at n_g = 0 for 2N even (curvature positive); for 2N odd a
        # peak sits at n_g = 0 instead (curvature negative).  The dense
        # oracle fixes these signs; see the dispersion test for the parity
        # pattern of the band curvature itself.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            even = susceptibility_curvature(params(10, 0.2), FULL)
            odd = susceptibility_curvature(params(11, 0.2), FULL)
        assert even.value > 0.0
        assert odd.value < 0.0


def _mp_levels(off, charges, ng, levels):
    """Lowest eigenvalues of diag (n - ng)^2 (E_C = 1, exact) plus float couplings ``off``."""
    return mp_levels([(q - ng) ** 2 for q in charges], off, levels)


@pytest.mark.parametrize("pairs", [60, 61])
@pytest.mark.parametrize("ejec", [10.0, 20.0, 50.0, 100.0])
def test_curvatures_match_mpmath_central_differences(pairs, ejec):
    """Both exact curvatures against 50-digit eigenvalues, differentiated numerically.

    The oracle keeps the program's float couplings, puts the offset charge
    into an exact diagonal, and takes central differences at h = 1e-6: the
    second difference of the gap and the fourth difference of E_0, with
    chi'' = -E_0''''/(2 E_C).  It uses eigenvalues only, none of the
    perturbation formulas.  Worst measured relative error: 3.1e-12
    (dispersion) and 2.8e-11 (susceptibility), where the fourth-order energy
    is 1e-5 to 1e-4 of the two terms whose difference gives it.
    """
    p = params(pairs, ejec)
    _, off = build(p).to_arrays()
    with mpmath.workdps(50):
        charges = [mpmath.mpf(k) - mpmath.mpf(pairs) / 2 for k in range(pairs + 1)]
        h = mpmath.mpf("1e-6")
        e = {s: _mp_levels(off, charges, s * h, 2 if abs(s) < 2 else 1)
             for s in (-2, -1, 0, 1, 2)}
        gap = {s: e[s][1] - e[s][0] for s in (-1, 0, 1)}
        dispersion = (gap[1] - 2 * gap[0] + gap[-1]) / h**2
        fourth = (e[2][0] - 4 * e[1][0] + 6 * e[0][0] - 4 * e[-1][0] + e[-2][0]) / h**4
        susceptibility = -fourth / 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            mine_d = dispersion_curvature(p, FULL).value
            mine_s = susceptibility_curvature(p, FULL).value
        assert abs(mine_d - dispersion) <= 1e-9 * abs(dispersion)
        assert abs(mine_s - susceptibility) <= 1e-9 * abs(susceptibility)


@pytest.mark.parametrize("pairs", [10**3, 10**4, 10**6, 10**8])
@pytest.mark.parametrize("ejec", [50.0, 200.0])
def test_large_island_curvatures_are_refused_or_accurate(pairs, ejec):
    """Each curvature is refused or within 1e-4 of the 50-digit oracle above.

    The oracle runs on the program's couplings of 129 charges around n_g = 0.
    A curvature is refused where 1e-13 of the larger of its two cancelling
    terms, the rounding floor, exceeds 1e-4 of it: the dispersion from
    2N = 1e6 on, the susceptibility here everywhere but 2N = 1e3 at
    E_J/E_C = 200.
    """
    p = params(pairs, ejec)
    solved = {}
    for kind, curvature in (("dispersion", dispersion_curvature),
                            ("susceptibility", susceptibility_curvature)):
        try:
            solved[kind] = curvature(p).value
        except ConvergenceError as exc:
            assert "--pairs" in str(exc) and "transmon-shift" in str(exc)
    assert ("dispersion" in solved) == (pairs <= 10**4)
    assert ("susceptibility" in solved) == (pairs == 10**3 and ejec == 200.0)
    if not solved:
        return
    h = build(p, 64)
    with mpmath.workdps(50):
        charges = [mpmath.mpf(q) for q in h.charges().tolist()]
        step = mpmath.mpf("1e-6")
        e = {s: _mp_levels(h.off, charges, s * step, 2 if abs(s) < 2 else 1)
             for s in (-2, -1, 0, 1, 2)}
        gap = {s: e[s][1] - e[s][0] for s in (-1, 0, 1)}
        exact = {
            "dispersion": (gap[1] - 2 * gap[0] + gap[-1]) / step**2,
            "susceptibility": -(e[2][0] - 4 * e[1][0] + 6 * e[0][0] - 4 * e[-1][0] + e[-2][0])
            / (2 * step**4),
        }
        for kind, value in solved.items():
            assert abs(value - exact[kind]) <= 1e-4 * abs(exact[kind]), kind
