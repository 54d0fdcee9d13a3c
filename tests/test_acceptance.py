"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here exactly as stated; nothing is deferred to
later calibration.  Criterion 5 is asserted as written even though the
measured physics disagrees with parts of it (see the failure detail it
prints): the convergence window in E_J/E_C closes once E_J/E_C approaches
N^2, so at 2N = 60 the deviation grows again beyond E_J/E_C ~ 20 and the
parity signature is washed out at E_J/E_C = 100.
"""

import time
import warnings

import numpy as np

from conftest import random_poly
from finitejj import wick
from finitejj.eigensolve import dense_all, eigenpair, lowest_eigenvalues
from finitejj.errors import RegimeWarning
from finitejj.hamiltonian import build
from finitejj.model import ALUMINUM, CircuitParams, validity_min_pairs
from finitejj.observables import (
    WindowPolicy,
    charge_susceptibility,
    dispersion_curvature,
    expected_imbalance,
    qubit_frequency,
    susceptibility_curvature,
)
from finitejj.perturbation import (
    bogoliubov,
    cpb_gap,
    cpb_susceptibility,
    transmon_first_order_numeric,
    transmon_frequency,
    transmon_susceptibility,
)
from oracles import spin_matrices, values_of

FULL = WindowPolicy.full()


def params(pairs, e_j, ng=0.0, e_c=1.0):
    return CircuitParams.from_pairs(pairs, e_j=e_j, e_c=e_c, n_g=ng)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return fn(*args, **kwargs)


def test_criterion_1_transmon_frequency_shift():
    started = time.monotonic()
    base = params(500_000_000, 10.0, e_c=0.2)
    policy = WindowPolicy.adaptive()
    shift_khz = (
        qubit_frequency(base.with_ng(1e6), policy) - qubit_frequency(base, policy)
    ) * 1e6
    analytic_khz = (
        quiet(transmon_frequency, base.with_ng(1e6)) - quiet(transmon_frequency, base)
    ) * 1e6
    elapsed = time.monotonic() - started
    deviation = abs(shift_khz - analytic_khz) / abs(analytic_khz)
    ok = deviation < 0.02 and elapsed < 60.0
    report(
        1,
        ok,
        f"shift {shift_khz:+.4f} kHz vs analytic {analytic_khz:+.4f} kHz "
        f"({deviation:.2%} off, {elapsed:.2f} s)",
    )
    assert ok


def test_criterion_2_validity_bound():
    rep = validity_min_pairs(ALUMINUM, n_half=2.5e8, n_g=1e6)
    volume_um3 = rep.island_volume / 1e-18
    checks = [
        abs(rep.n_min - 1.0e4) / 1.0e4 < 0.05,
        abs(volume_um3 - 0.005) / 0.005 < 0.10,
        abs(rep.gate_voltage - 1000.0) < 1e-9 * 1000.0,
    ]
    ok = all(checks)
    report(
        2,
        ok,
        f"N_min {rep.n_min:.4g} (target 1.0e4/5%), volume {volume_um3:.4g} um^3 "
        f"(target 0.005/10%), gate {rep.gate_voltage:.12g} V (target 1000)",
    )
    assert ok


def test_criterion_3_cpb_formulas():
    worst_gap = 0.0
    worst_chi = 0.0
    for ng in np.arange(-4.5, 5.0, 1.0):
        p = params(10, 0.01, ng=float(ng))
        spectrum = lowest_eigenvalues(build(p), 2)
        numeric_gap = values_of(spectrum)[1] - values_of(spectrum)[0]
        worst_gap = max(worst_gap, abs(numeric_gap - cpb_gap(p)) / cpb_gap(p))
        numeric_chi = charge_susceptibility(p, FULL)
        worst_chi = max(
            worst_chi, abs(numeric_chi - cpb_susceptibility(p)) / cpb_susceptibility(p)
        )
    ok = worst_gap < 0.01 and worst_chi < 0.02
    report(
        3,
        ok,
        f"worst gap deviation {worst_gap:.3%} (<1%), worst susceptibility deviation "
        f"{worst_chi:.3%} (<2%) over all ten degeneracy points",
    )
    assert ok


def test_criterion_4_infinite_island_limits():
    p = params(10**6, 0.01, ng=0.5)
    devs = {
        "gap->E_J": abs(quiet(cpb_gap, p) - 0.01) / 0.01,
        "chi->E_C/E_J": abs(quiet(cpb_susceptibility, p) - 100.0) / 100.0,
        "susceptibility->1": abs(
            quiet(transmon_susceptibility, params(10**6, 50.0, ng=3.0)) - 1.0
        ),
        "spacing->sqrt(2EcEj)": abs(bogoliubov(params(10**6, 50.0)).epsilon - 10.0) / 10.0,
    }
    ok = all(v < 1e-5 for v in devs.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in devs.items())
    report(4, ok, f"deviations at 2N=1e6 (<1e-5): {detail}")
    assert ok


def test_criterion_5_transmon_convergence_and_parity():
    ratios = (10.0, 20.0, 50.0, 100.0)

    def table(pairs, fn):
        out = []
        for r in ratios:
            out.append(quiet(fn, params(pairs, r), FULL).ratio)
        return out

    disp_even = table(60, dispersion_curvature)
    susc_even = table(60, susceptibility_curvature)
    disp_odd = quiet(dispersion_curvature, params(61, 100.0), FULL).ratio
    susc_odd = quiet(susceptibility_curvature, params(61, 100.0), FULL).ratio

    failures = []
    for label, seq, odd_final in (
        ("dispersion", disp_even, disp_odd),
        ("susceptibility", susc_even, susc_odd),
    ):
        deviations = [abs(r - 1.0) for r in seq]
        if not all(a > b for a, b in zip(deviations, deviations[1:])):
            failures.append(f"{label} deviations not monotone: {deviations}")
        if not deviations[-1] < 0.10:
            failures.append(f"{label} final deviation {deviations[-1]:.3f} >= 10%")
        if not (seq[-1] - 1.0) * (odd_final - 1.0) < 0.0:
            failures.append(
                f"{label} parity: deviation sign unchanged between 2N=60 "
                f"({seq[-1] - 1.0:+.3f}) and 2N=61 ({odd_final - 1.0:+.3f})"
            )
    ok = not failures
    detail = (
        f"dispersion ratios {[f'{r:.3f}' for r in disp_even]}, susceptibility ratios "
        f"{[f'{r:.3f}' for r in susc_even]}"
    )
    if failures:
        detail += " | " + "; ".join(failures)
    report(5, ok, detail)
    assert ok, "; ".join(failures)


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst_value = 0.0
    worst_overlap = 1.0
    for _ in range(200):
        pairs = int(rng.integers(1, 1001))
        ejec = 10.0 ** rng.uniform(-2, 2)
        ng = float(rng.uniform(-1.5, 1.5) * pairs)
        h = build(params(pairs, ejec, ng=ng))
        oracle = dense_all(h)
        k = min(4, h.dim)
        mine = lowest_eigenvalues(h, k)
        scale = max(1.0, float(np.max(np.abs(values_of(oracle)))))
        worst_value = max(
            worst_value, float(np.max(np.abs(values_of(mine) - values_of(oracle)[:k]))) / scale
        )
        vector = eigenpair(h).vector
        worst_overlap = min(
            worst_overlap, abs(float(np.dot(vector, oracle.pairs[0].vector)))
        )
    ok = worst_value < 1e-10 and worst_overlap > 1.0 - 1e-10
    report(
        6,
        ok,
        f"200 random sets: worst eigenvalue deviation {worst_value:.2e} (<1e-10 of scale), "
        f"worst ground overlap 1-{1.0 - worst_overlap:.2e} (>1-1e-10)",
    )
    assert ok


def test_criterion_7_invariant_suite():
    checks: list[tuple[str, bool]] = []

    # Hellmann-Feynman residual under 1e-7 E_C
    worst_hf = 0.0
    for pairs, ejec, ng in [(10, 0.2, 0.3), (10, 5.0, 0.37), (60, 50.0, 1.7), (11, 1.0, -0.83)]:
        p = params(pairs, ejec, ng=ng)
        step = 1e-5 * max(1.0, abs(ng))
        e_plus = values_of(dense_all(build(p.with_ng(ng + step))))[0]
        e_minus = values_of(dense_all(build(p.with_ng(ng - step))))[0]
        slope = (e_plus - e_minus) / (2.0 * step)
        hf = -2.0 * (expected_imbalance(p, FULL) - ng)
        worst_hf = max(worst_hf, abs(slope - hf))
    checks.append((f"Hellmann-Feynman residual {worst_hf:.2e} < 1e-7", worst_hf < 1e-7))

    # spectral evenness and imbalance oddness in n_g
    worst_even = 0.0
    worst_odd = 0.0
    for pairs, ejec, ng in [(10, 0.2, 0.7), (11, 1.0, 1.3), (60, 20.0, 0.4)]:
        p = params(pairs, ejec)
        plus = values_of(dense_all(build(p.with_ng(ng))))
        minus = values_of(dense_all(build(p.with_ng(-ng))))
        scale = float(np.max(np.abs(plus)))
        worst_even = max(worst_even, float(np.max(np.abs(plus - minus))) / scale)
        n_plus = expected_imbalance(p.with_ng(ng), FULL)
        n_minus = expected_imbalance(p.with_ng(-ng), FULL)
        worst_odd = max(worst_odd, abs(n_plus + n_minus))
    checks.append((f"spectrum even in n_g to {worst_even:.2e}", worst_even < 1e-10))
    checks.append((f"imbalance odd in n_g to {worst_odd:.2e}", worst_odd < 1e-10))

    # hard bound |<n>| <= N
    bound_ok = True
    for pairs, ejec, ng in [(10, 0.2, 4.0), (10, 0.2, 40.0), (9, 2.0, 7.3), (4, 30.0, 1.9)]:
        value = expected_imbalance(params(pairs, ejec, ng=ng), FULL)
        bound_ok = bound_ok and abs(value) <= pairs / 2.0 + 1e-9 * max(1.0, pairs / 2.0)
    checks.append(("hard bound |<n>| <= N", bound_ok))

    # SU(2) commutators and Casimir up to 2N = 200, relative to operator scale
    worst_comm = 0.0
    worst_casimir = 0.0
    for pairs in (1, 2, 10, 41, 200):
        n_half = pairs / 2.0
        s = spin_matrices(n_half)
        comm = s.sx @ s.sy - s.sy @ s.sx - 1j * s.sz
        worst_comm = max(worst_comm, float(np.max(np.abs(comm))) / max(1.0, n_half))
        casimir = s.sx @ s.sx + s.sy @ s.sy + s.sz @ s.sz
        target = n_half * (n_half + 1.0)
        worst_casimir = max(
            worst_casimir,
            float(np.max(np.abs(casimir - target * np.eye(pairs + 1)))) / target,
        )
    checks.append((f"SU(2) commutators to {worst_comm:.2e} of scale", worst_comm < 1e-13))
    checks.append((f"Casimir to {worst_casimir:.2e} of scale", worst_casimir < 1e-13))

    # ground-vector positivity
    positive = True
    for pairs, ejec, ng in [(10, 0.2, 0.0), (10, 0.2, 0.4), (14, 1.0, -0.7), (8, 0.3, 2.1)]:
        vector = eigenpair(build(params(pairs, ejec, ng=ng))).vector
        positive = positive and all(x > 0.0 for x in vector)
    checks.append(("ground-vector positivity", positive))

    # saturation at |n_g| >= 4N for E_J/E_C = 0.2, 2N = 10
    worst_sat = 0.0
    for ng in (20.0, 30.0, 50.0, -20.0):
        value = expected_imbalance(params(10, 0.2, ng=ng), FULL)
        worst_sat = max(worst_sat, abs(abs(value) - 5.0))
    checks.append((f"saturation |<n>| -> N within {worst_sat:.2e}", worst_sat < 1e-3))

    ok = all(flag for _, flag in checks)
    report(7, ok, "; ".join(name for name, _ in checks))
    assert ok, [name for name, flag in checks if not flag]


def test_criterion_8_large_offset_asymptote():
    h = build(params(10, 1.0, ng=50.0))
    values = values_of(lowest_eigenvalues(h, 4))
    spacings = np.diff(values)
    target = 2.0 * 1.0 * 50.0
    worst = float(np.max(np.abs(spacings / target - 1.0)))
    ok = worst < 0.10
    report(
        8,
        ok,
        f"first three spacings {[f'{s:.2f}' for s in spacings]} vs 2 E_C |n_g| = {target:g} "
        f"(worst {worst:.2%} < 10%)",
    )
    assert ok


def test_criterion_9_wick_engine():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(200):
        poly = random_poly(rng, max_degree=6)
        engine = wick.vacuum_expectation(poly)
        oracle = wick.fock_oracle(poly, 8)
        worst = max(worst, abs(engine - oracle))
    oracle_ok = worst < 1e-9

    deviations = []
    for ratio in (10.0, 50.0, 200.0):
        p = params(400, ratio, ng=40.0)
        numeric = quiet(transmon_first_order_numeric, p).frequency
        asymptotic = quiet(transmon_frequency, p)
        deviations.append(abs(numeric - asymptotic) / asymptotic)
    trend_ok = deviations[0] > deviations[1] > deviations[2]

    ok = oracle_ok and trend_ok
    report(
        9,
        ok,
        f"200 polynomials worst deviation {worst:.2e} (<1e-9); first-order vs asymptotic "
        f"deviations {[f'{d:.3e}' for d in deviations]} decreasing",
    )
    assert ok
