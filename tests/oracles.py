"""Oracles that only the tests use: spin matrices, the charge-qubit two-level
reduction, the dense truncated-Fock matrix of a ladder polynomial, the
first-order transmon corrections from truncated-Fock matrices and from the
normal-ordering engine, a self-stabilising truncated-Fock vacuum element, and
high-precision lowest eigenvalues of a tridiagonal operator.

Each checks a library path from outside it: the spin ladder generates the
operator's couplings, the 2x2 block reproduces ``perturbation.cpb_gap``, the
dense Fock matrix checks ``wick.vacuum_expectation``'s normal forms and
``wick.fock_oracle``'s ladder walk by matrix products, Fock matrices in
doubles or at 50 digits check ``perturbation.transmon_first_order_numeric``'s
closed forms through the bare-mode operators they never form, the engine's
quasiparticle-mode construction checks the same closed forms through the
operator algebra they reduce, the Fock truncation is doubled until the vacuum
element of a ladder polynomial settles, Sturm counts at 50 digits certify
the eigenvalues of an operator's coefficients, and the all-or-nothing window
certificate, which lowers every level at one shift, checks the prefix that
``eigensolve.window_certificate`` proves level by level.
"""

import math
from array import array
from dataclasses import dataclass

import mpmath
import numpy as np

from finitejj.eigensolve import (_EPS, _SLACK, Spectrum, _count_below, _pivmin,
                                 eigenvalue_count_below)
from finitejj.errors import CapacityError, ConvergenceError
from finitejj.hamiltonian import DENSE_LIMIT, TridiagonalHamiltonian
from finitejj.model import CircuitParams, coupling_bound
from finitejj.perturbation import bogoliubov
from finitejj.wick import LOWER, RAISE, OperatorPoly, fock_oracle, vacuum_expectation

_LATTICE_TOL = 1e-9
_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class SpinMatrices:
    """Dense spin-N matrices in the charge basis, ordered by increasing n."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def spin_matrices(n_half: float) -> SpinMatrices:
    """Spin components whose ladder structure generates the couplings.

    s_z is diag(n); the raising operator carries sqrt(N(N+1) - n(n+1))
    between neighbors, and s_x, s_y follow from the ladder combination.
    With basis ordered by increasing n, reversing the basis of the N = 1/2
    matrices recovers the conventional half-Pauli triple.
    """
    two_n = int(round(2 * n_half))
    if abs(2 * n_half - two_n) > _LATTICE_TOL or two_n < 1:
        raise ValueError(f"2*n_half must be a positive integer, got {2 * n_half}")
    dim = two_n + 1
    if dim > DENSE_LIMIT:
        raise CapacityError(f"dim {dim} exceeds dense limit {DENSE_LIMIT}")
    n = np.arange(dim, dtype=float) - n_half
    ladder = np.sqrt((n_half - n[:-1]) * (n_half + n[:-1] + 1.0))
    s_plus = np.zeros((dim, dim), dtype=complex)
    s_plus[np.arange(1, dim), np.arange(dim - 1)] = ladder
    s_minus = s_plus.conj().T
    return SpinMatrices(
        sx=0.5 * (s_plus + s_minus),
        sy=(s_plus - s_minus) / 2j,
        sz=np.diag(n).astype(complex),
    )


@dataclass(frozen=True)
class TwoLevelEffective:
    """Projection onto the two nearly degenerate charge states around n_g."""

    floor_n: float
    ceil_n: float
    sigma_x_coeff: float
    diag: tuple[float, float]

    def gap(self) -> float:
        """Exact spectral gap of the 2x2 block."""
        half_split = 0.5 * (self.diag[1] - self.diag[0])
        return 2.0 * math.hypot(half_split, self.sigma_x_coeff)


def _basis_floor_ceil(params: CircuitParams) -> tuple[float, float]:
    """Nearest basis charges below and above n_g (lattice spacing 1)."""
    n = params.n_half
    offset = params.n_g + n  # position in units of the lattice, 0 at n = -N
    nearest = round(offset)
    if abs(offset - nearest) <= _DEGENERACY_TOL:
        raise ValueError(
            f"n_g = {params.n_g} coincides with a basis charge; no two-state degeneracy"
        )
    k_floor = math.floor(offset)
    if k_floor < 0 or k_floor + 1 > params.pairs_total:
        raise ValueError(f"n_g = {params.n_g} outside the open interval (-N, N)")
    return k_floor - n, k_floor + 1 - n


def cpb_effective(params: CircuitParams) -> TwoLevelEffective:
    """Two-level reduction in span{|floor(n_g)>, |ceil(n_g)>}."""
    floor_n, ceil_n = _basis_floor_ceil(params)
    n = params.n_half
    coupling = -(params.e_j / (2.0 * n)) * math.sqrt(n * (n + 1.0) - floor_n * ceil_n)
    diag = (
        params.e_c * (floor_n - params.n_g) ** 2,
        params.e_c * (ceil_n - params.n_g) ** 2,
    )
    return TwoLevelEffective(floor_n=floor_n, ceil_n=ceil_n, sigma_x_coeff=coupling, diag=diag)


def fock_matrix(p: OperatorPoly, dim: int) -> np.ndarray:
    """Dense matrix of the polynomial in a Fock space truncated at ``dim`` states."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    mats = {LOWER: lower, RAISE: lower.conj().T}
    total = np.zeros((dim, dim), dtype=complex)
    for word, coeff in p.terms():
        m = np.eye(dim, dtype=complex)
        for sym in word:
            m = m @ mats[sym]
        total += coeff * m
    return total


def first_order_fock_reference(p: CircuitParams, dim: int = 40, dps: int | None = None):
    """Independent matrix evaluation of the first-order transmon corrections.

    Works in the rotated frame, where the rotated mode is the plain
    annihilation matrix and the bare mode follows from the inverse map
    a = u_+ b - u_- b^dag + i u_0 (u_+ + u_-).  Every element read is of a
    product of degree at most 4 between levels up to 4, so exact for dim > 8.
    Returns (frequency, imbalance): numpy doubles when ``dps`` is None, else
    mpmath numbers at ``dps`` digits.  The doubles form u_+/- ~ sqrt(N), whose
    products cancel, so large-N checks need the mpmath backend.
    """
    if dps is None:
        return _first_order_from_matrices(
            p, np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex),
            np.eye(dim, dtype=complex), float, math.sqrt, lambda m: m.conj().T)
    with mpmath.workdps(dps):
        lower = mpmath.matrix(dim)
        for i in range(1, dim):
            lower[i - 1, i] = mpmath.sqrt(i)
        return _first_order_from_matrices(p, lower, mpmath.eye(dim), mpmath.mpf, mpmath.sqrt,
                                          lambda m: m.H)


def _first_order_from_matrices(p: CircuitParams, lower, eye, real, sqrt, dagger):
    """``first_order_fock_reference`` in the number type ``real`` and its matrices."""
    n, ng, e_c, e_j = map(real, (p.n_half, p.n_g, p.e_c, p.e_j))
    eps = sqrt(2 * e_c * e_j + (e_j / n) ** 2)
    u_p = (e_j + n * eps) / sqrt(4 * n * eps * e_j)
    u_m = (e_j - n * eps) / sqrt(4 * n * eps * e_j)
    u_0 = ng * sqrt(2 * e_c**2 * e_j / eps**3)
    a = u_p * lower - u_m * dagger(lower) + 1j * u_0 * (u_p + u_m) * eye
    a_dag = dagger(a)
    momentum = 1j * (a_dag - a) / sqrt(2)
    shifted = momentum - (ng / sqrt(n)) * eye
    d_sz = -(a_dag @ momentum @ a) / sqrt(16 * n)
    d_h = e_c * sqrt(n) * (shifted @ d_sz + d_sz @ shifted)
    n_op = sqrt(n) * momentum

    freq = eps + (d_h[1, 1] - d_h[0, 0]).real
    imbalance = (n_op[0, 0] + d_sz[0, 0]).real
    for k in range(1, 5):  # <0|n|k> <k|dH|0> / (E_0 - E_k), twice
        imbalance += 2 * (n_op[0, k] * d_h[k, 0] / (-k * eps)).real
    return freq, imbalance


def first_order_from_engine(p: CircuitParams):
    """The first-order transmon corrections built from the normal-ordering engine.

    The perturbation E_C sqrt(N) (p' dSz + dSz p') (quadratic-order spin
    remainder dropped) is built in the quasiparticle mode b, whose quadratures
    map the bare ones exactly:

        x = x_b / s,    p = s p_b + 2 n_g E_C E_J / (eps^2 sqrt(N)),

    with s = u_+ + u_- = sqrt(E_J / (N eps)) formed directly.  Then a = (x +
    i p) / sqrt(2), dSz = -a^dag p a / sqrt(16 N) is the first-order remainder
    of the spin z component, and the shifted momentum p' = p - n_g / sqrt(N)
    is s p_b - (n_g / sqrt(N)) (E_J / N)^2 / eps^2 in closed form.  The
    ground-state correction only reaches excitation numbers up to four, since
    the perturbation has degree four, so that sum is exact.  Returns
    (frequency, imbalance), to check ``perturbation.transmon_first_order_numeric``'s
    closed forms against the operator algebra they were derived from.
    """
    n, n_g, e_c, e_j = p.n_half, p.n_g, p.e_c, p.e_j
    eps = bogoliubov(p).epsilon
    s = math.sqrt(e_j / (n * eps))
    root_half = 1.0 / math.sqrt(2.0)

    b = OperatorPoly.from_word((LOWER,))
    b_dag = OperatorPoly.from_word((RAISE,))
    x = (root_half / s) * (b + b_dag)
    s_p_b = (1j * root_half * s) * (b_dag - b)
    momentum = s_p_b + 2.0 * n_g * e_c * e_j / (eps**2 * math.sqrt(n))
    p_shift = s_p_b - (n_g / math.sqrt(n)) * (e_j / n) ** 2 / eps**2
    a = root_half * (x + 1j * momentum)
    a_dag = root_half * (x - 1j * momentum)
    d_sz = (-1.0 / math.sqrt(16.0 * n)) * (a_dag * momentum * a)
    delta_h = (e_c * math.sqrt(n)) * (p_shift * d_sz + d_sz * p_shift)
    momentum_term = math.sqrt(n) * momentum

    freq = (
        eps
        + vacuum_expectation(b * delta_h * b_dag).real
        - vacuum_expectation(delta_h).real
    )
    imbalance = vacuum_expectation(momentum_term).real
    imbalance += vacuum_expectation(d_sz).real

    factorial = 1.0
    for k in range(1, 5):
        factorial *= k
        amp = vacuum_expectation((b**k) * delta_h)  # <0| b^k dH |0>
        bra = vacuum_expectation(momentum_term * (b_dag**k))  # <0| sqrt(N) p (b^dag)^k |0>
        imbalance += 2.0 * (bra * amp / (-factorial * k * eps)).real
    return freq, imbalance


def fock_oracle_stable(
    p: OperatorPoly, dim: int = 16, max_dim: int = 4096, rtol: float = 1e-10
) -> complex:
    """Double the Fock truncation until the vacuum element settles to ``rtol``."""
    value = fock_oracle(p, dim)
    while dim < max_dim:
        dim *= 2
        new = fock_oracle(p, dim)
        if abs(new - value) <= rtol * max(1.0, abs(new)):
            return new
        value = new
    raise ConvergenceError(
        f"Fock truncation still unstable at dim {dim} (last value {value})", achieved=dim
    )


def values_of(spectrum) -> np.ndarray:
    """A spectrum's values as a numpy array."""
    return np.array([p.value for p in spectrum.pairs])


def mp_levels(diag, off, levels: int, dps: int = 50) -> list:
    """The lowest ``levels`` eigenvalues of the tridiagonal (diag, off), as mpmath numbers.

    ``diag`` holds floats or mpmath numbers, ``off`` floats; pass an
    operator's ``h.diag`` and ``h.off`` for its stored coefficients.  At
    ``dps`` digits, Newton's method on det(T - x) from LAPACK's values, each
    result kept only where two Sturm counts put eigenvalue j within
    10^(5 - dps) of its size; else Sturm bisection from a bracket widened until
    the count holds it.
    """
    from scipy.linalg import eigh_tridiagonal

    with mpmath.workdps(dps):
        diag = [mpmath.mpf(d) for d in diag]
        offsq = [mpmath.mpf(o) ** 2 for o in off]
        tiny, tol = mpmath.mpf(10) ** -200, mpmath.mpf(10) ** (5 - dps)

        def count(x):
            c, d = 0, mpmath.mpf(1)
            for i, di in enumerate(diag):
                d = di - x - (offsq[i - 1] / d if i else 0)
                if d == 0:
                    d = -tiny
                if d < 0:
                    c += 1
            return c

        def newton(x):
            """det(T - x) / det'(T - x): 1 / sum p_i' / p_i over the LDL^T pivots p_i."""
            p, dp, s = mpmath.mpf(1), mpmath.mpf(0), 0
            for i, di in enumerate(diag):
                e2 = offsq[i - 1] if i else 0
                p, dp = di - x - e2 / p, -1 + e2 * dp / (p * p)
                s += dp / p
            return 1 / s

        seeds = eigh_tridiagonal(np.array([float(x) for x in diag]), np.array(off, float),
                                 eigvals_only=True, select="i", select_range=(0, levels - 1))
        out = []
        for j, seed in enumerate(seeds.tolist()):
            x = mpmath.mpf(seed)
            try:
                for _ in range(4):
                    x -= newton(x)
            except ZeroDivisionError:
                pass
            delta = tol * max(abs(x), tiny)
            if count(x - delta) <= j < count(x + delta):
                out.append(x)
                continue
            margin = mpmath.mpf(1e-13) * max(1.0, abs(seed))
            lo, hi = mpmath.mpf(seed) - margin, mpmath.mpf(seed) + margin
            while count(lo) > j:
                lo -= 10 * (hi - lo)
            while count(hi) <= j:
                hi += 10 * (hi - lo)
            while hi - lo > tol * max(abs(lo), abs(hi), tiny):
                mid = (lo + hi) / 2
                if count(mid) > j:
                    hi = mid
                else:
                    lo = mid
            out.append((lo + hi) / 2)
        return out


def ulps(value: float, exact) -> float:
    """|value - exact| in units of the spacing of doubles at ``value``."""
    return float(abs(mpmath.mpf(value) - exact) / mpmath.mpf(math.ulp(value)))


def _outside_rooms(h: TridiagonalHamiltonian, x: float, b_max: float):
    """(corner, b_edge, kappa, dist) past each window end, or None without the room.

    Past a coupled end a_out - x > 2 b_max must hold.  Then n_g does not lie
    beyond that end (the window's values would exceed a_out - 2 b_max), the
    diagonal grows away from the window, and every outside pivot of the full
    operator minus x stays above kappa = a_out - x - b_max.  ``dist`` is the
    first outside charge's distance from n_g.  A basis end (b_edge = 0) needs
    nothing.
    """
    center = h.params.n_half + h.params.n_g
    sides = []
    for corner, a_out, b_edge, end in zip((0, -1), *h.outside(), (h.k_lo - 1, h.k_lo + h.dim)):
        room = (a_out - x) / _SLACK
        if b_edge and room <= 2.0 * b_max:
            return None
        sides.append((corner, float(b_edge), max(room - b_max, b_max), abs(end - center)))
    return sides


def one_shift_certificate(h: TridiagonalHamiltonian, spectrum: Spectrum) -> list[float] | None:
    """Radii r_j within which the window's values v_j are the full operator's lowest, or None.

    The full count below x is at least the window's (Cauchy interlacing), so
    count(v_j + rho_j) >= j + 1 bounds eigenvalue j from above.  Where the
    parabola dominates outside the window (``_outside_rooms``), the Schur
    complement onto the window lowers each corner by at most
    b_edge^2 / (a_out - x - b_max); the lowered window's count bounds the full
    count from above, and count(v_j - rho_j) <= j bounds eigenvalue j from
    below.  rho_j covers the counts' backward error (Kahan 1966; Demmel,
    Dhillon & Ren 1995) at the one pivot floor, from the window's largest
    coupling, that both take, so r_j = 2 rho_j.  None when the window is too small.
    """
    values = [p.value for p in spectrum.pairs]
    b_max = coupling_bound(h.params.e_j, h.params.n_half) * _SLACK
    _, dmax, off_max = h.coefficient_bounds()
    # The diagonal is nonnegative: its largest entry plus 2 b_max bounds the norm.
    norm = dmax + 2.0 * b_max
    rho = [4.0 * _EPS * (norm + abs(v)) for v in values]
    x = max(v - r for v, r in zip(values, rho))
    sides = _outside_rooms(h, x, b_max)
    if sides is None:
        return None
    lowered = array("d", h.diag.tobytes())
    for corner, b_edge, kappa, _ in sides:
        lowered[corner] -= b_edge * b_edge / kappa * _SLACK
    pivmin = _pivmin(off_max)
    for j, (v, r) in enumerate(zip(values, rho)):
        if (_count_below(lowered, h.off, v - r, pivmin) > j
                or eigenvalue_count_below(h, v + r) < j + 1):
            return None
    return [2.0 * r for r in rho]
