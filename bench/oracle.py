"""Independent oracles for every artifact the benchmark's commands write.

Nothing here goes through ``finitejj``: the tridiagonal arrays are built from
the paper's formulas,

    H[n, n]   = E_C (n - n_g)^2
    H[n, n+1] = -(E_J / 2N) sqrt(N(N+1) - n(n+1)),     n in {-N, ..., N},

with ``N(N+1) - n(n+1)`` evaluated exactly in integers, and diagonalised by
LAPACK through ``scipy.linalg.eigh_tridiagonal``.  Closed forms are evaluated
directly and device scales use ``scipy.constants``.

``check(command, path)`` returns a list of mismatch descriptions, empty when
the artifact agrees with its oracle.  Tolerances are stated next to each check
with the reason for their size.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import constants
from scipy.linalg import eigh_tridiagonal

_EPS = np.finfo(float).eps
# Half-width of the fixed window the oracle solves for adaptive-window runs.
# Low states at E_J/E_C <= 160 are localised within ~10 charge states, so
# 200 states either side is exact to machine precision.
ORACLE_HALF_WIDTH = 200
# Bisection (program) and LAPACK dstebz (oracle) both resolve an eigenvalue to
# a few ulps of the spectral scale of the operator they solve.  The oracle's
# window is at least as wide as the program's, so its scale bounds both; the
# observed disagreement stays below one ulp of it.
EIGEN_ULPS = 64.0


# --------------------------------------------------------------------- arrays

def charge_arrays(pairs: int, e_j: float, e_c: float, n_g: float,
                  k_lo: int = 0, k_hi: int | None = None):
    """(charges, diag, offdiag) for basis offsets k = n + N in [k_lo, k_hi]."""
    k_hi = pairs if k_hi is None else k_hi
    n2 = np.arange(2 * k_lo - pairs, 2 * k_hi - pairs + 1, 2)  # 2n, exact integers
    charges = n2 / 2.0
    diag = e_c * (charges - n_g) ** 2
    # 4 [N(N+1) - n(n+1)] = 2N (2N + 2) - 2n (2n + 2), exact in Python integers.
    four_x = [pairs * (pairs + 2) - m * (m + 2) for m in n2[:-1].tolist()]
    off = -(e_j / pairs) * np.sqrt(np.array(four_x, dtype=float) / 4.0)
    return charges, diag, off


def window_arrays(pairs: int, e_j: float, e_c: float, n_g: float, full: bool):
    """Arrays of the full basis, or of a wide window around the nearest charge."""
    if full:
        return charge_arrays(pairs, e_j, e_c, n_g)
    k_c = min(max(round(n_g + pairs / 2.0), 0), pairs)
    return charge_arrays(pairs, e_j, e_c, n_g,
                         max(k_c - ORACLE_HALF_WIDTH, 0), min(k_c + ORACLE_HALF_WIDTH, pairs))


def spectral_scale(diag, off) -> float:
    """Norm bound max|diag| + 2 max|offdiag|; eigenvalues are resolved to ulps of it."""
    return float(np.max(np.abs(diag)) + (2.0 * np.max(np.abs(off)) if off.size else 0.0))


def lowest(diag, off, k: int, vectors: bool = False):
    """k lowest eigenvalues (and vectors) by LAPACK bisection/inverse iteration."""
    return eigh_tridiagonal(diag, off, eigvals_only=not vectors,
                            select="i", select_range=(0, k - 1))


def sum_over_states(charges, diag, off, e_c: float, states: int = 40):
    """(E, <n>, d<n>/dn_g) from one decomposition of the window.

    d<n>/dn_g = 4 E_C sum_{m>0} |<m|n|0>|^2 / (E_m - E_0)  (first-order
    perturbation theory in dH/dn_g = -2 E_C (n - n_g)).
    """
    k = min(states, diag.size)
    values, vecs = lowest(diag, off, k, vectors=True)
    v0 = vecs[:, 0]
    n_expect = float(np.dot(charges, v0 * v0))
    elements = vecs[:, 1:].T @ (charges * v0)
    chi = 4.0 * e_c * float(np.sum(elements**2 / (values[1:] - values[0])))
    return values, n_expect, chi


# ------------------------------------------------------------------ artifacts

def _flags(argv) -> dict[str, str]:
    out = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[token[2:]] = "" if nxt.startswith("--") else nxt
    return out


def read_table(path: Path):
    """(meta, grid, columns) of a SweepTable artifact, CSV or JSON."""
    text = path.read_bytes().decode()
    if path.suffix == ".json":
        payload = json.loads(text)
        return payload["meta"], np.array(payload["grid"], dtype=float), {
            k: np.array(v, dtype=float) for k, v in payload["columns"].items()}
    lines = [ln for ln in text.split("\r\n") if ln]
    meta = json.loads(lines[0][len("# meta "):])
    header = lines[1].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]], dtype=float)
    rows = rows.reshape(-1, len(header))
    return meta, rows[:, 0], {name: rows[:, j + 1] for j, name in enumerate(header[1:])}


def read_scalars(path: Path):
    """(meta, results) of a scalar artifact, CSV or JSON."""
    text = path.read_bytes().decode()
    if path.suffix == ".json":
        payload = json.loads(text)
        return payload["meta"], payload["results"]
    lines = [ln for ln in text.split("\r\n") if ln]
    meta = json.loads(lines[0][len("# meta "):])
    results = {}
    for line in lines[2:]:
        key, value = line.split(",")
        results[key] = None if value == "" else float(value)
    return meta, results


def _close(errors: list, label: str, got, want, atol: float, rtol: float = 0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.argmax(bad))
        errors.append(f"{label}: {int(bad.sum())} values off, e.g. [{i}] "
                      f"{got.flat[i]!r} vs oracle {want.flat[i]!r}")


# ---------------------------------------------------------------------- checks

def _check_sweep(name: str, f: dict, path: Path, errors: list):
    pairs, ejec = int(float(f["pairs"])), float(f["ejec"])
    full = f.get("window") == "full"
    meta, grid, cols = read_table(path)
    _close(errors, "grid", grid,
           np.linspace(float(f["from"]), float(f["to"]), int(float(f["steps"]))), 0.0)
    if np.any(cols.get("converged", np.zeros(1)) != 1.0):
        errors.append("rows flagged converged = 0")
    if meta.get("pairs_total") != pairs:
        errors.append(f"meta pairs_total {meta.get('pairs_total')} != {pairs}")
    levels = int(f.get("levels", 3)) if name == "bands" else 1
    expected = [f"E{j}" for j in range(levels)]
    expected += {"imbalance": ["n_expect"], "susceptibility": ["chi"]}.get(name, [])
    if list(cols) != expected + ["converged"]:
        errors.append(f"columns {list(cols)} != {expected + ['converged']}")
        return
    energies, n_expect, chi, scale = [], [], [], 0.0
    for ng in grid:
        charges, diag, off = window_arrays(pairs, ejec, 1.0, float(ng), full)
        scale = max(scale, spectral_scale(diag, off))
        if name == "bands":
            energies.append(lowest(diag, off, levels))
            continue
        values, n_val, chi_val = sum_over_states(charges, diag, off, 1.0)
        energies.append(values[:1])
        n_expect.append(n_val)
        chi.append(chi_val)
    energies = np.array(energies)
    for j in range(levels):
        _close(errors, f"E{j}", cols[f"E{j}"], energies[:, j], EIGEN_ULPS * _EPS * scale)
    if name == "imbalance":
        # <n> from inverse iteration: residual ~64 eps scale sqrt(dim) over a
        # gap of order min(E_J, E_C), so 1e-9 absolute is ample and still
        # seven orders below the staircase step.
        _close(errors, "n_expect", cols["n_expect"], n_expect, 1e-9)
    if name == "susceptibility":
        # Central difference of <n> at step h = 1e-4 max(1, |n_g|): truncation
        # h^2 chi'''/6 stays below 1e-3 relative at the sharpest charge-regime
        # peaks sampled here; round-off ~1e-9/h adds 1e-5 absolute.
        _close(errors, "chi", cols["chi"], chi, 1e-5, 1e-3)


def _check_curvature(f: dict, path: Path, errors: list):
    pairs, step = int(float(f["pairs"])), float(f.get("step", 0.125))
    n_half = pairs / 2.0
    meta, grid, cols = read_table(path)
    ratios = [float(x) for x in f["values"].split(",") if x.strip()]
    _close(errors, "grid", grid, ratios, 0.0)
    curv, ref = [], []
    tol = []
    for ejec in ratios:
        scale = 0.0

        def gap(ng, ejec=ejec):
            nonlocal scale
            _, diag, off = window_arrays(pairs, ejec, 1.0, ng, f.get("window") == "full")
            scale = max(scale, spectral_scale(diag, off))
            e = lowest(diag, off, 2)
            return e[1] - e[0]
        h = step
        curv.append((-gap(2 * h) + 16 * gap(h) - 30 * gap(0.0) + 16 * gap(-h) - gap(-2 * h))
                    / (12 * h * h))
        ref.append(-math.sqrt(2.0 * ejec) / (2.0 * n_half**2))
        # The stencil's weights sum to 64 in absolute value over 12 h^2, each
        # gap carrying twice the eigenvalue tolerance.
        tol.append(64.0 / (12.0 * h * h) * 2.0 * EIGEN_ULPS * _EPS * scale)
    _close(errors, "curvature", cols["curvature"], curv, np.array(tol))
    _close(errors, "reference", cols["reference"], ref, 0.0, 1e-13)
    _close(errors, "ratio", cols["ratio"], np.array(curv) / np.array(ref), 0.0, 1e-5)


def _check_shift(f: dict, path: Path, errors: list):
    e_j, e_c = float(f["ej-ghz"]), float(f["ec-ghz"])
    pairs, ng = int(float(f["pairs"])), float(f["ng"])
    full = f.get("window") == "full"
    _, results = read_scalars(path)

    def freq(n_g):
        _, diag, off = window_arrays(pairs, e_j, e_c, n_g, full)
        e = lowest(diag, off, 2)
        return e[1] - e[0], spectral_scale(diag, off)

    w1, s1 = freq(ng)
    w0, s0 = freq(0.0)
    # A gap is the difference of two eigenvalues, so twice their tolerance.
    tol = 2.0 * EIGEN_ULPS * _EPS * max(s0, s1)
    _close(errors, "frequency_at_ng_ghz", results["frequency_at_ng_ghz"], w1, tol)
    _close(errors, "frequency_at_zero_ghz", results["frequency_at_zero_ghz"], w0, tol)
    _close(errors, "shift_numeric_khz", results["shift_numeric_khz"], (w1 - w0) * 1e6,
           2e6 * tol)
    plasma = math.sqrt(2.0 * e_c * e_j)
    # The CLI forms f(n_g) - f(0) in floating point, which cancels to a few
    # ulps of f; the oracle evaluates the difference directly.
    _close(errors, "shift_analytic_khz", results["shift_analytic_khz"],
           -plasma * (ng / pairs) ** 2 * 1e6, 8.0 * _EPS * plasma * 1e6, 1e-12)


def _check_analytic(f: dict, path: Path, errors: list):
    e_j, e_c, pairs, ng = float(f["ej"]), float(f["ec"]), int(float(f["pairs"])), \
        float(f.get("ng", "0"))
    n = pairs / 2.0
    _, results = read_scalars(path)
    eps = math.sqrt(2.0 * e_c * e_j + (e_j / n) ** 2)
    denom = math.sqrt(4.0 * n * eps * e_j)
    want = {
        "level_spacing": eps,
        "bogoliubov_u_plus": (e_j + n * eps) / denom,
        "bogoliubov_u_minus": (e_j - n * eps) / denom,
        "bogoliubov_u_0": ng * math.sqrt(2.0 * e_c**2 * e_j / eps**3),
        "transmon_frequency": math.sqrt(2.0 * e_c * e_j) * (1.0 - (ng / pairs) ** 2),
        "transmon_susceptibility": 1.0 - 3.0 * e_j * ng**2 / (4.0 * e_c * n**4),
    }
    offset = ng + n - 0.5
    if abs(offset - round(offset)) <= 1e-9 and 0 <= round(offset) <= pairs - 1:
        root = math.sqrt((1.0 + pairs) ** 2 - 4.0 * ng**2)
        want["cpb_gap"] = (e_j / pairs) * root
        want["cpb_susceptibility"] = pairs * e_c / (e_j * root)
    else:
        want["cpb_gap"] = want["cpb_susceptibility"] = None
    if sorted(results) != sorted(want):
        errors.append(f"quantities {sorted(results)} != {sorted(want)}")
        return
    for key, value in want.items():
        if value is None or results[key] is None:
            if value is not results[key]:
                errors.append(f"{key}: {results[key]!r} vs oracle {value!r}")
            continue
        # Same closed forms, possibly another association order.
        _close(errors, key, results[key], value, 1e-300, 1e-12)


def _check_validity(f: dict, path: Path, errors: list):
    # Aluminum from the paper: gap 0.34 meV, E_F 11.63 eV, n_e 18.06e22 cm^-3,
    # lambda_L 16 nm.  scipy's CODATA release may differ from the program's in
    # the 9th digit, so compare to 1e-8.
    e = constants.e
    gap, fermi, n_e, lam = 0.34e-3 * e, 11.63 * e, 18.06e22 * 1e6, 16e-9
    n_s = constants.m_e / (2.0 * constants.mu_0 * e * e * lam**2)
    pairs, ng = float(f["pairs"]), float(f["ng"])
    c_g = 2.0 * e / 1e-3
    want = {
        "n_min": (fermi / gap) * (n_s / n_e),
        "cooper_density_per_m3": n_s,
        "island_volume_um3": (pairs / 2.0) / n_s / 1e-18,
        "gate_voltage_v": ng * 2.0 * e / c_g,
    }
    _, results = read_scalars(path)
    if sorted(results) != sorted(want):
        errors.append(f"quantities {sorted(results)} != {sorted(want)}")
        return
    for key, value in want.items():
        _close(errors, key, results[key], value, 0.0, 1e-8)


def _check_wick(f: dict, path: Path, errors: list):
    _, results = read_scalars(path)
    if results.get("polynomials") != float(f["count"]):
        errors.append(f"polynomials {results.get('polynomials')} != {f['count']}")
    tolerance = float(f.get("rtol", "1e-9"))
    if not results.get("max_abs_deviation", math.inf) <= tolerance:
        errors.append(f"engine vs Fock oracle deviation {results.get('max_abs_deviation')}"
                      f" above {tolerance}")


def check(argv, path: Path) -> list[str]:
    """Mismatches between the artifact of ``argv`` at ``path`` and its oracle."""
    if not path.is_file():
        return [f"artifact {path.name} missing"]
    name, f = argv[0], _flags(argv)
    errors: list[str] = []
    try:
        if name in ("bands", "imbalance", "susceptibility"):
            _check_sweep(name, f, path, errors)
        elif name == "curvature":
            _check_curvature(f, path, errors)
        elif name == "transmon-shift":
            _check_shift(f, path, errors)
        elif name == "analytic":
            _check_analytic(f, path, errors)
        elif name == "validity":
            _check_validity(f, path, errors)
        elif name == "wick-verify":
            _check_wick(f, path, errors)
        else:
            errors.append(f"no oracle for command {name!r}")
    except (KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        errors.append(f"unreadable artifact {path.name}: {exc!r}")
    return errors
