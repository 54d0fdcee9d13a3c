"""Measured quantities: qubit frequency, imbalance, susceptibility, sweeps.

Every derivative in n_g is Rayleigh-Schroedinger perturbation theory in
dH/dn_g = -2 E_C (n - n_g), evaluated on the same window operator as the
value it differentiates: the susceptibility d<n>/dn_g and the zero-offset
dispersion curvature from one response solve per level
(``eigensolve.charge_response``), the zero-offset susceptibility curvature
from the ground state's fourth-order energy
(``eigensolve.fourth_order_terms``).  No finite differences, so no step.

Large islands are handled through charge windows: the low-energy states are
exponentially localized around the offset charge, so a window of a few dozen
charge states around round(n_g) reproduces full-basis answers to near machine
precision.  Adaptive and full mode double the half-width until
``eigensolve.window_certificate`` proves a window's eigenvalues the whole
basis's; other observables settle under adaptive and use the whole basis
under full.

Results are values and ``SweepTable`` containers; this module writes no
files (the CLI is the only artifact writer).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RegimeWarning, WindowConvergenceError
from .eigensolve import (charge_response, eigenpair, fourth_order_terms, lowest_eigenvalues,
                         window_certificate)
from .hamiltonian import ChargeWindow, TridiagonalHamiltonian, build, build_windowed
from .model import DEFAULT_W_MAX, DEFAULT_WINDOW_RTOL, CircuitParams


@dataclass(frozen=True)
class WindowPolicy:
    """How to restrict the charge basis before solving.

    mode "full" gives the whole basis's answers, eigenvalues proven on a
    window; "fixed" uses one half-width; "adaptive" starts from ``w_initial``
    (default: four charge-state standard deviations of the localized ground
    state, at least 16) and doubles until the eigenvalues are proven as in
    full mode, or until any other observable changes by less than ``rtol``,
    or ``w_max`` is hit.
    """

    mode: str = "adaptive"
    half_width: int | None = None
    rtol: float = DEFAULT_WINDOW_RTOL
    w_initial: int | None = None
    w_max: int = DEFAULT_W_MAX

    def __post_init__(self):
        if self.mode not in ("full", "fixed", "adaptive"):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == "fixed" and (self.half_width is None or self.half_width < 0):
            raise ValueError("fixed mode needs a non-negative half_width")
        if self.w_initial is not None and self.w_initial < 4:
            raise ValueError("w_initial must be at least 4")
        if self.mode == "adaptive" and not self.rtol > 0:
            raise ValueError("adaptive mode needs rtol > 0")

    @classmethod
    def full(cls) -> "WindowPolicy":
        return cls(mode="full")

    @classmethod
    def fixed(cls, half_width: int) -> "WindowPolicy":
        return cls(mode="fixed", half_width=half_width)

    @classmethod
    def adaptive(
        cls,
        rtol: float = DEFAULT_WINDOW_RTOL,
        w_initial: int | None = None,
        w_max: int = DEFAULT_W_MAX,
    ) -> "WindowPolicy":
        return cls(mode="adaptive", rtol=rtol, w_initial=w_initial, w_max=w_max)


DEFAULT_POLICY = WindowPolicy()


def initial_half_width(params: CircuitParams) -> int:
    """Four standard deviations of the harmonic ground state's charge spread, at least 16.

    Capped at 2N, which covers the whole basis from any center (and keeps an
    infinite spread, from E_J / E_C past the float range, finite).
    """
    sigma = (params.e_j / (8.0 * params.e_c)) ** 0.25
    return max(16, math.ceil(min(8.0 * sigma, params.pairs_total)))


def _windowed_operator(params: CircuitParams, half_width: int) -> TridiagonalHamiltonian:
    window = ChargeWindow.centered(params.n_half, params.n_g, half_width)
    return build_windowed(params, window)


def _solve_windowed(params, policy, compute, abs_floor=0.0, min_half_width=0, levels=0):
    """Run ``compute`` under the window policy: one window if fixed, else doubling W.

    ``compute(h)`` maps a window operator to the value; with ``levels`` it maps
    the spectrum of the window's lowest values instead.  Full mode without
    ``levels`` solves the whole basis.  Every other walk starts at
    ``w_initial`` (default ``initial_half_width``), or ``min_half_width`` if
    larger, and doubles W.  With ``levels`` it stops at the first window that
    ``eigensolve.window_certificate`` proves; without, at the first pair of
    widths W and 2W with |f(2W) - f(W)| <= rtol * max(|f|) + abs_floor.  A
    window that swallows the whole basis is exact and stops either walk.
    Adaptive mode raises at ``w_max``; full mode only at the operator limit.
    """
    if policy.mode == "fixed":
        h = _windowed_operator(params, policy.half_width)
        return compute(lowest_eigenvalues(h, levels) if levels else h)
    if policy.mode == "full" and not levels:
        return compute(build(params))
    w = max(policy.w_initial or initial_half_width(params), min_half_width)
    previous = None
    while True:
        h = _windowed_operator(params, w)
        if levels:
            spectrum = lowest_eigenvalues(h, levels)
            if h.is_full_window or window_certificate(h, spectrum) is not None:
                return compute(spectrum)
        else:
            value = compute(h)
            if h.is_full_window:
                return value
            if previous is not None:
                scale = float(np.max(np.abs([value, previous])))
                change = float(np.max(np.abs(np.asarray(value) - np.asarray(previous))))
                if change <= policy.rtol * scale + abs_floor:
                    return value
            previous = value
        if policy.mode == "adaptive" and w >= policy.w_max:
            raise WindowConvergenceError(
                f"window not converged at half-width cap {policy.w_max}",
                achieved=w,
            )
        w = 2 * w if policy.mode == "full" else min(2 * w, policy.w_max)


def qubit_frequency(params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY) -> float:
    """First spectral gap E_1 - E_0 under the window policy."""

    def gap(spectrum) -> float:
        return spectrum.pairs[1].value - spectrum.pairs[0].value

    return _solve_windowed(params, policy, gap, levels=2)


def expected_imbalance(params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY) -> float:
    """Ground-state charge imbalance <n> = sum_n n |psi_0(n)|^2."""

    def imbalance(h: TridiagonalHamiltonian) -> float:
        v = eigenpair(h).vector
        return float(np.dot(h.charges(), v * v))

    floor = 1e-12 * max(1.0, abs(params.n_g))
    return _solve_windowed(params, policy, imbalance, abs_floor=floor)


def charge_susceptibility(params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY) -> float:
    """Exact d<n>/dn_g = 4 E_C sum_{m>0} |<m|n|0>|^2 / (E_m - E_0).

    First-order perturbation theory in dH/dn_g = -2 E_C (n - n_g), from one
    tridiagonal solve per window; the window policy checks chi itself.
    """

    def chi(h: TridiagonalHamiltonian) -> float:
        return 4.0 * params.e_c * charge_response(h)

    # chi -> 0 in saturation, where a relative settling test alone can stall.
    return _solve_windowed(params, policy, chi, abs_floor=1e-12)


@dataclass(frozen=True)
class CurvatureResult:
    """Second derivative at n_g = 0 with its closed-form reference."""

    value: float
    reference: float

    @property
    def ratio(self) -> float:
        return self.value / self.reference


def _warn_outside_transmon(params: CircuitParams, kind: str) -> None:
    if params.e_j / params.e_c < 10.0:
        warnings.warn(
            f"{kind} curvature is a transmon-regime diagnostic; "
            f"E_J/E_C = {params.e_j / params.e_c:.3g} is outside it",
            RegimeWarning,
            stacklevel=3,
        )


# Rounding leaves up to 3e-14 of the larger of the two terms that cancel in
# a curvature (the most seen under 1-ulp perturbations of the couplings, for
# 2N from 60 to 5e8 and E_J/E_C from 10 to 500).
_CANCELLATION_FLOOR = 1e-13


def _resolved(kind: str, params: CircuitParams, value: float, terms: float) -> float:
    """``value``, unless the rounding floor of its cancelling ``terms`` exceeds 1e-4 of it."""
    floor = _CANCELLATION_FLOOR * terms
    if floor > 1e-4 * abs(value):
        raise ConvergenceError(
            f"{kind} curvature {value:.3e} at 2N = {params.pairs_total}, E_J/E_C ="
            f" {params.e_j / params.e_c:g} is less than 1e4 times its rounding floor {floor:.1e};"
            " lower --pairs, or take the shift at integer n_g from transmon-shift"
        )
    return value


def dispersion_curvature(
    params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY
) -> CurvatureResult:
    """Exact d^2(qubit frequency)/dn_g^2 at zero offset charge.

    Second-order perturbation theory gives E_m'' = 2 E_C - 8 E_C^2 S_m, so
    the gap curves by 8 E_C^2 (S_0 - S_1), from one response solve around
    each of the two lowest levels per window.  Referenced against the
    large-island transmon value -sqrt(2 E_C E_J) / (2 N^2).  S_0 and S_1 are
    each about 1/(4 E_C) in the transmon regime and cancel: a curvature
    below 1e-9 of 8 E_C^2 max(|S_0|, |S_1|) raises ConvergenceError.
    """
    _warn_outside_transmon(params, "dispersion")
    terms = []

    def curvature(h: TridiagonalHamiltonian) -> float:
        if h.dim < 2:
            raise ValueError("dispersion curvature needs at least two charge states")
        s0, s1 = charge_response(h, 0), charge_response(h, 1)
        terms.append(8.0 * params.e_c**2 * max(abs(s0), abs(s1)))
        return 8.0 * params.e_c**2 * (s0 - s1)

    value = _solve_windowed(params.with_ng(0.0), policy, curvature, abs_floor=1e-12 * params.e_c)
    reference = -math.sqrt(2.0 * params.e_c * params.e_j) / (2.0 * params.n_half**2)
    return CurvatureResult(value=_resolved("dispersion", params, value, terms[-1]),
                           reference=reference)


def susceptibility_curvature(
    params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY
) -> CurvatureResult:
    """Exact d^2(d<n>/dn_g)/dn_g^2 at zero offset charge vs -3 E_J / (2 E_C N^4).

    chi = 1 - E_0''/(2 E_C), so d^2 chi/dn_g^2 = -E_0''''/(2 E_C) = -(12/E_C) E4,
    where E4 is the ground state's fourth-order energy in
    dH/dn_g = -2 E_C (n - n_g): (2 E_C)^4 times the one in n, which takes two
    response solves per window.  E4 is the difference of two terms; a
    curvature below 1e-9 of the larger, in the same units, raises
    ConvergenceError.
    """
    _warn_outside_transmon(params, "susceptibility")
    terms = []

    def curvature(h: TridiagonalHamiltonian) -> float:
        first, second = fourth_order_terms(h)
        terms.append(192.0 * params.e_c**3 * max(abs(first), abs(second)))
        return -192.0 * params.e_c**3 * (first - second)

    value = _solve_windowed(params.with_ng(0.0), policy, curvature, abs_floor=1e-12)
    reference = -3.0 * params.e_j / (2.0 * params.e_c * params.n_half**4)
    return CurvatureResult(value=_resolved("susceptibility", params, value, terms[-1]),
                           reference=reference)


@dataclass
class SweepTable:
    """Columnar observable-vs-n_g results with full parameter provenance.

    A validated container only: the CLI writes it as an artifact, naming the
    grid column ``meta["grid_label"]`` (default n_g).
    """

    grid: np.ndarray
    columns: dict[str, np.ndarray]
    meta: dict

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.size and np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=float)
            if col.shape != self.grid.shape:
                raise ValueError(f"column {name!r} length does not match grid")
            self.columns[name] = col


def band_sweep(
    params: CircuitParams,
    grid,
    levels: int = 3,
    policy: WindowPolicy = DEFAULT_POLICY,
    include_imbalance: bool = False,
    include_susceptibility: bool = False,
    subtract_ground: bool = False,
) -> SweepTable:
    """Tabulate the lowest bands (and optionally <n>, d<n>/dn_g) over a grid.

    ``params.n_g`` is ignored; the grid supplies the offset charge.  Points
    whose window fails to converge are flagged in the ``converged`` column
    and carry NaNs rather than being dropped.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if levels > params.dim:
        raise ValueError(f"levels {levels} exceeds basis size {params.dim}")

    names = [f"E{j}" for j in range(levels)]
    if include_imbalance:
        names.append("n_expect")
    if include_susceptibility:
        names.append("chi")
    columns = {name: np.full(grid.size, np.nan) for name in names}
    flags = np.ones(grid.size)

    for i, ng in enumerate(grid):
        point = params.with_ng(float(ng))
        try:
            # Half-width levels - 1 holds ``levels`` states even at the basis edge.
            values = _solve_windowed(point, policy, lambda spectrum: spectrum.values,
                                     min_half_width=levels - 1, levels=levels)
            if subtract_ground:
                values = values - values[0]
            for j in range(levels):
                columns[f"E{j}"][i] = values[j]
            if include_imbalance:
                columns["n_expect"][i] = expected_imbalance(point, policy)
            if include_susceptibility:
                columns["chi"][i] = charge_susceptibility(point, policy)
        except WindowConvergenceError:
            flags[i] = 0.0
    columns["converged"] = flags

    meta = {
        "e_j": params.e_j,
        "e_c": params.e_c,
        "pairs_total": params.pairs_total,
        "levels": levels,
        "window_mode": policy.mode,
        "window_rtol": policy.rtol,
        "window_half_width": policy.half_width,
        "window_w_initial": policy.w_initial,
        "window_w_max": policy.w_max,
        "subtract_ground": subtract_ground,
    }
    return SweepTable(grid=grid, columns=columns, meta=meta)
