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
charge states around round(n_g) holds the whole basis's answers.  Adaptive
and full mode double the half-width, solving and certifying each window with
one ``eigensolve.certified_lowest`` call for every quantity still open.  The
walk alone judges a window: it stops each quantity at the first window that
proves it, eigenvalues once the certified prefix holds them, <n>, chi and
the curvatures once the truncation bounds built on ``eigensolve.edge_bound``
are below ``_TARGET`` of their own rounding scale, and refuses a non-finite
value or bound.  A window that holds the whole basis is exact.

Results are values and ``SweepTable`` containers; this module writes no
files (the CLI is the only artifact writer).
"""

from __future__ import annotations

import functools
import math
import warnings
from itertools import chain

from .errors import ConvergenceError, RegimeWarning, WindowConvergenceError
from .eigensolve import (_centred, _dot, _norm, _times, certified_lowest, charge_response,
                         edge_bound, eigenpair, fourth_order_bound, fourth_order_terms,
                         imbalance_bound, lowest_eigenvalues, response_bound)
from .hamiltonian import TridiagonalHamiltonian, build
from .model import DEFAULT_W_MAX, CircuitParams, Record

# A windowed answer is the whole basis's once its truncation bound is below
# this fraction of its rounding scale: one charge for <n>, |a psi| |x| for a
# response S = <a psi, x>, and the larger of the two terms that cancel in E4.
_TARGET = 2.0**-50


class WindowPolicy(Record):
    """How to restrict the charge basis before solving.

    mode "fixed" solves one window of ``half_width`` and proves nothing.
    "adaptive" and "full" give the whole basis's answers: they start from
    ``w_initial`` (default: four charge-state standard deviations of the
    localized ground state, at least 16) and double the half-width until
    every quantity is proven on a window (see ``_solve_windowed``).  They
    differ only in the cap: adaptive builds no window wider than ``w_max``
    (at least 4 and ``w_initial``), full stops at the operator limit.
    """

    __slots__ = ("mode", "half_width", "w_initial", "w_max")

    def __init__(self, mode: str = "adaptive", half_width: int | None = None,
                 w_initial: int | None = None, w_max: int = DEFAULT_W_MAX):
        self._fill(mode, half_width, w_initial, w_max)
        if self.mode not in ("full", "fixed", "adaptive"):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == "fixed" and (self.half_width is None or self.half_width < 0):
            raise ValueError("fixed mode needs a non-negative half_width")
        if self.w_initial is not None and self.w_initial < 4:
            raise ValueError("w_initial must be at least 4")
        if self.mode == "adaptive" and not 4 <= (self.w_initial or 4) <= self.w_max:
            raise ValueError(f"w_max {self.w_max} must be at least 4 and at least w_initial")

    @classmethod
    def full(cls) -> "WindowPolicy":
        return cls(mode="full")

    @classmethod
    def fixed(cls, half_width: int) -> "WindowPolicy":
        return cls(mode="fixed", half_width=half_width)

    @classmethod
    def adaptive(cls, w_initial: int | None = None, w_max: int = DEFAULT_W_MAX) -> "WindowPolicy":
        return cls(mode="adaptive", w_initial=w_initial, w_max=w_max)


DEFAULT_POLICY = WindowPolicy()


def initial_half_width(params: CircuitParams) -> int:
    """Four standard deviations of the harmonic ground state's charge spread, at least 16.

    Capped at 2N, which covers the whole basis from any center (and keeps an
    infinite spread, from E_J / E_C past the float range, finite).
    """
    sigma = (params.e_j / (8.0 * params.e_c)) ** 0.25
    return max(16, math.ceil(min(8.0 * sigma, params.pairs_total)))


def _solve_windowed(params, policy, columns):
    """Each column's result under the window policy, one certified solve per window.

    The walk alone judges a window.  A fixed window, or one holding the whole
    basis, is taken unchecked.  Other walks start at ``w_initial`` (default
    ``initial_half_width``), or at the half-width holding the most levels a
    column reads, and double W until every column closes; adaptive mode
    starts and stops at most at ``w_max`` and raises there, full mode only at
    the operator limit.

    A column ``(levels, vectors, value)`` reads the lowest ``levels`` values
    and the eigenpair of each level in ``vectors``, proven with levels 0..level+1.
    Each window makes one call for the most levels an open column reads,
    ``certified_lowest`` if checked, else ``lowest_eigenvalues`` (no radii).
    A checked window proves a column where the certified prefix holds its
    levels, which for a vector (dim >= 5) reach level + 2, all ``edge_bound``
    needs; it is taken once per level and checked window.
    ``value(h, spectrum, pair, edges)`` returns (result, gates): floats, and
    (bound, scale) per bound taken from ``edges`` (empty unchecked).  A
    certified window accepts the result once each bound <= _TARGET scale.
    A non-finite result or gate raises WindowConvergenceError.
    """
    fixed, cap = policy.mode == "fixed", policy.w_max if policy.mode == "adaptive" else math.inf
    w = policy.half_width if fixed else min(cap, max(
        policy.w_initial or initial_half_width(params),
        *(max([levels, *(level + 2 for level in vectors)]) - 1 for levels, vectors, _ in columns)))
    results = [None] * len(columns)
    while True:
        h = build(params, w)
        reads = {i: max([levels, *(min(level + 2, h.dim) for level in vectors)])
                 for i, (levels, vectors, _) in enumerate(columns) if results[i] is None}
        k, checked = max(reads.values()), not (fixed or h.is_full_window)
        spectrum, radii = certified_lowest(h, k) if checked else (lowest_eigenvalues(h, k), [])
        pair = functools.cache(lambda level: eigenpair(h, level, spectrum))
        edge = functools.cache(
            lambda level: edge_bound(h, spectrum, radii, pair(level).vector, level))
        for i, n in reads.items():
            _, vectors, value = columns[i]
            if checked and len(radii) < n:
                continue
            edges = {level: edge(level) for level in vectors} if checked else {}
            result, gates = value(h, spectrum, pair, edges)
            if not all(map(math.isfinite, [*result, *chain.from_iterable(gates)])):
                raise WindowConvergenceError(f"a non-finite result or bound at half-width {w},"
                                             f" n_g = {params.n_g:g}")
            if not checked or all(bound <= _TARGET * scale for bound, scale in gates):
                results[i] = result
        if all(result is not None for result in results):
            return results
        if w >= cap:
            raise WindowConvergenceError(f"window not converged at half-width cap {cap}")
        w = min(2 * w, cap)


def _eigenvalues(levels: int):
    """Column of the window's lowest ``levels`` values."""
    return levels, (), lambda h, spectrum, *_: ([p.value for p in spectrum.pairs[:levels]], ())


def _imbalance(h: TridiagonalHamiltonian, spectrum, pair, edges):
    v = pair(0).vector
    gates = [(imbalance_bound(edges[0], _centred(v), v), 1.0)] if edges else ()
    return [_dot(h.charges(), _times(v, v))], gates


def _response(h: TridiagonalHamiltonian, pair, edges, level: int):
    """(S_m of a level, its gates): ``response_bound`` against |a psi| |x|."""
    s, v, a, x, _ = charge_response(h, level, pair(level))
    if not edges:
        return s, ()
    return s, [(response_bound(edges[level], a, v, x)[0], _norm(_times(a, v)) * _norm(x))]


def _chi(h: TridiagonalHamiltonian, spectrum, pair, edges):
    s, gates = _response(h, pair, edges, 0)
    return [4.0 * h.params.e_c * s], gates


def _dispersion(h: TridiagonalHamiltonian, spectrum, pair, edges):
    """[8 E_C^2 (S_0 - S_1), 8 E_C^2 max(|S_0|, |S_1|)] and both responses' gates."""
    (s0, gates0), (s1, gates1) = (_response(h, pair, edges, level) for level in (0, 1))
    scale = 8.0 * h.params.e_c**2
    return [scale * (s0 - s1), scale * max(abs(s0), abs(s1))], [*gates0, *gates1]


def _fourth_order(h: TridiagonalHamiltonian, spectrum, pair, edges):
    """[-192 E_C^3 E4, 192 E_C^3 max|terms|] and ``fourth_order_bound``'s gate."""
    first, second, x2, (s0, v, a, x1, _) = fourth_order_terms(h, pair(0))
    terms = max(abs(first), abs(second))
    gates = [(fourth_order_bound(edges[0], a, v, x1, s0, x2)[0], terms)] if edges else ()
    scale = 192.0 * h.params.e_c**3
    return [-scale * (first - second), scale * terms], gates


def qubit_frequency(params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY) -> float:
    """First spectral gap E_1 - E_0 under the window policy."""
    (values,) = _solve_windowed(params, policy, [_eigenvalues(2)])
    return values[1] - values[0]


def expected_imbalance(params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY) -> float:
    """Ground-state charge imbalance <n> = sum_n n |psi_0(n)|^2."""
    return _solve_windowed(params, policy, [(0, (0,), _imbalance)])[0][0]


def charge_susceptibility(params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY) -> float:
    """Exact d<n>/dn_g = 4 E_C sum_{m>0} |<m|n|0>|^2 / (E_m - E_0).

    First-order perturbation theory in dH/dn_g = -2 E_C (n - n_g), from one
    tridiagonal solve per window, each checked by ``eigensolve.response_bound``.
    """
    return _solve_windowed(params, policy, [(0, (0,), _chi)])[0][0]


class CurvatureResult(Record):
    """Second derivative at n_g = 0 with its closed-form reference."""

    __slots__ = ("value", "reference")

    def __init__(self, value: float, reference: float):
        self._fill(value, reference)

    @property
    def ratio(self) -> float:
        return self.value / self.reference


# Rounding leaves up to 3e-14 of the larger of the two terms that cancel in
# a curvature (the most seen under 1-ulp perturbations of the couplings, for
# 2N from 60 to 5e8 and E_J/E_C from 10 to 500).
_CANCELLATION_FLOOR = 1e-13


def _curvature(kind: str, params: CircuitParams, policy, column, reference: float):
    """The ``CurvatureResult`` of a column walked at n_g = 0, warning outside the transmon
    regime; ConvergenceError unless it exceeds 1e4 times its cancelling terms' rounding floor."""
    if params.e_j / params.e_c < 10.0:
        warnings.warn(f"{kind} curvature is a transmon-regime diagnostic; E_J/E_C ="
                      f" {params.e_j / params.e_c:.3g} is outside it", RegimeWarning, stacklevel=3)
    ((value, terms),) = _solve_windowed(params.with_ng(0.0), policy, [column])
    floor = _CANCELLATION_FLOOR * terms
    if not floor < 1e-4 * abs(value):
        raise ConvergenceError(
            f"{kind} curvature {value:.3e} at 2N = {params.pairs_total}, E_J/E_C ="
            f" {params.e_j / params.e_c:g} is not above 1e4 times its rounding floor {floor:.1e};"
            " lower --pairs, or take the shift at integer n_g from transmon-shift"
        )
    return CurvatureResult(value=value, reference=reference)


def dispersion_curvature(
    params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY
) -> CurvatureResult:
    """Exact d^2(qubit frequency)/dn_g^2 at zero offset charge.

    Second-order perturbation theory gives E_m'' = 2 E_C - 8 E_C^2 S_m, so
    the gap curves by 8 E_C^2 (S_0 - S_1), from one response solve around
    each of the two lowest levels per window, each checked by
    ``eigensolve.response_bound``.  Referenced against the large-island
    transmon value -sqrt(2 E_C E_J) / (2 N^2).  S_0 and S_1 are each about
    1/(4 E_C) in the transmon regime and cancel: a curvature below 1e-9 of
    8 E_C^2 max(|S_0|, |S_1|) raises ConvergenceError.
    """
    reference = -math.sqrt(2.0 * params.e_c * params.e_j) / (2.0 * params.n_half**2)
    return _curvature("dispersion", params, policy, (0, (0, 1), _dispersion), reference)


def susceptibility_curvature(
    params: CircuitParams, policy: WindowPolicy = DEFAULT_POLICY
) -> CurvatureResult:
    """Exact d^2(d<n>/dn_g)/dn_g^2 at zero offset charge vs -3 E_J / (2 E_C N^4).

    chi = 1 - E_0''/(2 E_C), so d^2 chi/dn_g^2 = -E_0''''/(2 E_C) = -(12/E_C) E4,
    where E4 is the ground state's fourth-order energy in
    dH/dn_g = -2 E_C (n - n_g): (2 E_C)^4 times the one in n, which takes two
    response solves per window, checked by ``eigensolve.fourth_order_bound``.
    E4 is the difference of two terms; a curvature below 1e-9 of the larger,
    in the same units, raises ConvergenceError.
    """
    reference = -3.0 * params.e_j / (2.0 * params.e_c * params.n_half**4)
    return _curvature("susceptibility", params, policy, (0, (0,), _fourth_order), reference)


class SweepTable:
    """Columnar observable-vs-n_g results with full parameter provenance.

    A validated container only: the CLI writes it as an artifact, naming the
    grid column ``meta["grid_label"]`` (default n_g).  ``grid_values`` and
    ``column_values`` hold float lists; ``grid`` and ``columns`` hand them out
    as numpy arrays, importing numpy at the first access.
    """

    def __init__(self, grid, columns: dict, meta: dict):
        self.grid_values = [float(g) for g in grid]
        if any(b <= a for a, b in zip(self.grid_values, self.grid_values[1:])):
            raise ValueError("grid must be strictly increasing")
        self.column_values = {}
        for name, col in columns.items():
            col = [float(c) for c in col]
            if len(col) != len(self.grid_values):
                raise ValueError(f"column {name!r} length does not match grid")
            self.column_values[name] = col
        self.meta = meta

    @property
    def grid(self):
        import numpy as np

        return np.array(self.grid_values)

    @property
    def columns(self) -> dict:
        import numpy as np

        return {name: np.array(col) for name, col in self.column_values.items()}


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

    ``params.n_g`` is ignored; the grid supplies the offset charge.  Each
    point is one window walk for all its columns.  Points whose window fails
    to converge are flagged in the ``converged`` column
    and carry NaNs rather than being dropped.
    """
    grid = [float(ng) for ng in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    if levels < 1:
        raise ValueError("levels must be at least 1")

    names = [f"E{j}" for j in range(levels)]
    columns = [_eigenvalues(levels)]
    if include_imbalance:
        names.append("n_expect")
        columns.append((0, (0,), _imbalance))
    if include_susceptibility:
        names.append("chi")
        columns.append((0, (0,), _chi))
    table = {name: [math.nan] * len(grid) for name in names}
    flags = [1.0] * len(grid)

    for i, ng in enumerate(grid):
        try:
            values, *others = _solve_windowed(params.with_ng(ng), policy, columns)
        except WindowConvergenceError:
            flags[i] = 0.0
            continue
        if subtract_ground:
            values = [value - values[0] for value in values]
        for name, value in zip(names, chain(values, *others)):
            table[name][i] = value
    table["converged"] = flags

    meta = {
        "e_j": params.e_j,
        "e_c": params.e_c,
        "pairs_total": params.pairs_total,
        "levels": levels,
        "window_mode": policy.mode,
        "window_half_width": policy.half_width,
        "window_w_initial": policy.w_initial,
        "window_w_max": policy.w_max,
        "subtract_ground": subtract_ground,
    }
    return SweepTable(grid=grid, columns=table, meta=meta)
