"""Closed-form results for both qubit regimes, plus their numeric first-order origin.

Charge regime (E_J/E_C << 1): degenerate two-level reduction at the
half-way offsets between adjacent charge states, giving the gap

    (E_J / 2N) sqrt((1 + 2N)^2 - 4 n_g^2)

and the matching susceptibility peak 2 N E_C / (E_J sqrt((1+2N)^2 - 4 n_g^2)).

Transmon regime (E_J/E_C >> 1): a spin-to-boson mapping expanded about the
maximally tunneling state, an affine Bogoliubov rotation with level spacing
eps = sqrt(2 E_C E_J + E_J^2/N^2), and first-order corrections that collapse
to sqrt(2 E_C E_J) [1 - (n_g/2N)^2] and d<n>/dn_g = 1 - 3 E_J n_g^2/(4 E_C N^4)
for 1 << E_J/E_C << N^2.  ``transmon_first_order_numeric`` evaluates the
corrections without the final limit: it writes the perturbation in the
quasiparticle quadratures and takes its vacuum elements from the
normal-ordering engine, so the gap between the exact first-order numbers and
the asymptotic formulas stays measurable at any island size.
"""

from __future__ import annotations

import math
import warnings

from .errors import RegimeWarning
from .model import CircuitParams, Record

_DEGENERACY_TOL = 1e-9

# Regime warning thresholds.
CPB_RATIO_MAX = 0.1
TRANSMON_RATIO_MIN = 10.0


class BogoliubovCoeffs(Record):
    """Affine Bogoliubov rotation diagonalizing the quadratic transmon problem."""

    __slots__ = ("u_plus", "u_minus", "u_0", "epsilon")

    def __init__(self, u_plus: float, u_minus: float, u_0: float, epsilon: float):
        self._fill(u_plus, u_minus, u_0, epsilon)


def _require_degeneracy_point(params: CircuitParams):
    """n_g must sit half-way between adjacent charges, i.e. in {-N+1/2, ..., N-1/2}."""
    offset = params.n_g + params.n_half - 0.5
    nearest = round(offset)
    if abs(offset - nearest) > _DEGENERACY_TOL or not 0 <= nearest <= params.pairs_total - 1:
        raise ValueError(
            f"n_g = {params.n_g} is not a degeneracy point of the 2N = "
            f"{params.pairs_total} basis"
        )


def _warn_cpb_regime(params: CircuitParams):
    ratio = params.e_j / params.e_c
    if ratio >= CPB_RATIO_MAX:
        warnings.warn(
            f"charge-regime formula used at E_J/E_C = {ratio:.3g} (trusted well below "
            f"{CPB_RATIO_MAX})",
            RegimeWarning,
            stacklevel=3,
        )


def cpb_gap(params: CircuitParams) -> float:
    """Degeneracy-point gap (E_J / 2N) sqrt((1 + 2N)^2 - 4 n_g^2)."""
    _require_degeneracy_point(params)
    _warn_cpb_regime(params)
    two_n = 2.0 * params.n_half
    return (params.e_j / two_n) * math.sqrt((1.0 + two_n) ** 2 - 4.0 * params.n_g**2)


def cpb_susceptibility(params: CircuitParams) -> float:
    """Degeneracy-point susceptibility peak 2 N E_C / (E_J sqrt((1+2N)^2 - 4 n_g^2))."""
    _require_degeneracy_point(params)
    _warn_cpb_regime(params)
    two_n = 2.0 * params.n_half
    return (two_n * params.e_c) / (
        params.e_j * math.sqrt((1.0 + two_n) ** 2 - 4.0 * params.n_g**2)
    )


def bogoliubov(params: CircuitParams) -> BogoliubovCoeffs:
    """Rotation coefficients u_+/-, displacement u_0, and level spacing eps."""
    n = params.n_half
    eps = math.sqrt(2.0 * params.e_c * params.e_j + (params.e_j / n) ** 2)
    denom = math.sqrt(4.0 * n * eps * params.e_j)
    return BogoliubovCoeffs(
        u_plus=(params.e_j + n * eps) / denom,
        u_minus=(params.e_j - n * eps) / denom,
        u_0=params.n_g * params.e_c * math.sqrt(2.0 * params.e_j / eps**3),
        epsilon=eps,
    )


def _warn_transmon_regime(params: CircuitParams):
    ratio = params.e_j / params.e_c
    n_sq = params.n_half**2
    if ratio <= TRANSMON_RATIO_MIN or ratio >= n_sq / 100.0:
        warnings.warn(
            f"transmon formula used at E_J/E_C = {ratio:.3g}, N^2 = {n_sq:.3g}; trusted for "
            f"{TRANSMON_RATIO_MIN} < E_J/E_C < N^2/100",
            RegimeWarning,
            stacklevel=3,
        )
    elif abs(params.n_g) > params.n_half:
        warnings.warn(
            f"transmon formula extrapolated past the basis edge (|n_g| = {abs(params.n_g):.3g} "
            f"> N = {params.n_half:.3g})",
            RegimeWarning,
            stacklevel=3,
        )


def transmon_frequency(params: CircuitParams) -> float:
    """sqrt(2 E_C E_J) [1 - (n_g / 2N)^2]."""
    _warn_transmon_regime(params)
    return math.sqrt(2.0 * params.e_c * params.e_j) * (
        1.0 - (params.n_g / (2.0 * params.n_half)) ** 2
    )


def transmon_susceptibility(params: CircuitParams) -> float:
    """1 - 3 E_J n_g^2 / (4 E_C N^4)."""
    _warn_transmon_regime(params)
    return 1.0 - 3.0 * params.e_j * params.n_g**2 / (4.0 * params.e_c * params.n_half**4)


class FirstOrderResult(Record):
    """First-order transmon corrections evaluated without the asymptotic limit."""

    __slots__ = ("frequency", "imbalance")

    def __init__(self, frequency: float, imbalance: float):
        self._fill(frequency, imbalance)


def transmon_first_order_numeric(params: CircuitParams) -> FirstOrderResult:
    """Evaluate the first-order frequency and imbalance through the wick engine.

    The perturbation E_C sqrt(N) (p' dSz + dSz p') (quadratic-order spin
    remainder dropped) is built in the quasiparticle mode b, whose quadratures
    map the bare ones exactly:

        x = x_b / s,    p = s p_b + 2 n_g E_C E_J / (eps^2 sqrt(N)),

    with s = u_+ + u_- = sqrt(E_J / (N eps)) formed directly.  Then a = (x +
    i p) / sqrt(2), dSz = -a^dag p a / sqrt(16 N) is the first-order remainder
    of the spin z component, and the shifted momentum p' = p - n_g / sqrt(N)
    is s p_b - (n_g / sqrt(N)) (E_J / N)^2 / eps^2 in closed form.  No
    coefficient of size u_+/- ~ sqrt(N) has to cancel.  The ground-state
    correction only reaches excitation numbers up to four, since the
    perturbation has degree four, so that sum is exact.
    """
    from . import wick
    from .wick import OperatorPoly

    _warn_transmon_regime(params)
    n, n_g, e_c, e_j = params.n_half, params.n_g, params.e_c, params.e_j
    eps = bogoliubov(params).epsilon
    s = math.sqrt(e_j / (n * eps))
    root_half = 1.0 / math.sqrt(2.0)

    b = OperatorPoly.lowering()
    b_dag = OperatorPoly.raising()
    x = (root_half / s) * (b + b_dag)
    s_p_b = (1j * root_half * s) * (b_dag - b)
    p = s_p_b + 2.0 * n_g * e_c * e_j / (eps**2 * math.sqrt(n))
    p_shift = s_p_b - (n_g / math.sqrt(n)) * (e_j / n) ** 2 / eps**2
    a = root_half * (x + 1j * p)
    a_dag = root_half * (x - 1j * p)
    d_sz = (-1.0 / math.sqrt(16.0 * n)) * (a_dag * p * a)
    delta_h = (e_c * math.sqrt(n)) * (p_shift * d_sz + d_sz * p_shift)
    momentum_term = math.sqrt(n) * p

    freq = (
        eps
        + wick.vacuum_expectation(b * delta_h * b_dag).real
        - wick.vacuum_expectation(delta_h).real
    )
    imbalance = wick.vacuum_expectation(momentum_term).real
    imbalance += wick.vacuum_expectation(d_sz).real

    factorial = 1.0
    for k in range(1, 5):
        factorial *= k
        amp = wick.vacuum_expectation((b**k) * delta_h)  # <0| b^k dH |0>
        bra = wick.vacuum_expectation(momentum_term * (b_dag**k))  # <0| sqrt(N) p (b^dag)^k |0>
        imbalance += 2.0 * (bra * amp / (-factorial * k * eps)).real

    return FirstOrderResult(frequency=freq, imbalance=imbalance)
