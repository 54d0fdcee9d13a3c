"""Lowest eigenpairs of a symmetric tridiagonal operator.

LAPACK computes, Sturm certifies.  Every operator (at most ARRAY_LIMIT
states, enforced when it is built) gets its lowest values from one call to
LAPACK bisection (``dstebz``) at the floating-point floor.  Sturm pivot
counts then move each value v_j to the adjacent doubles x < x+ with
count(x) <= j < count(x+): the number of negative pivots in the shifted
LDL^T recurrence is the number of eigenvalues below the shift, and is
monotone in it, so that pair depends only on the operator and j.
Eigenvectors come from LAPACK inverse iteration (``dstein``) shifted one
bracket width below x.  Perturbation theory in the charge n applies a
level's reduced resolvent by LAPACK tridiagonal solves (``dgtsv``): once for
its static charge response, twice for the ground state's fourth-order
energy.

Every pivot count is one call of ``eigenvalue_count_below``, one O(dim) pass
over the operator's two buffers.  ``certified_lowest`` proves a charge
window's bracketed values, each at its own shift, to be the full operator's
with one more count per value, on a copy of the diagonal whose coupled
corners it lowers.  The dense full spectrum, the reference oracle at small
dimensions, is scipy's ``eigh_tridiagonal`` (LAPACK ``dstevd``).

Vectors are flat double buffers (``array('d')``), and no numpy is needed.
Every LAPACK routine, and the ``ddot`` behind each dot product and norm, is
called through ``ctypes`` from the library that scipy's compiled wrappers
``scipy.linalg._flapack`` link, which ``_lapack`` opens at the first solve:
the same code as scipy's wrappers run, so the same bits as ``np.dot`` and
``np.linalg.norm``.  No scipy module is imported, except by ``dense_all``.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import struct
import sys
import warnings
from array import array
from ctypes import byref, c_double, c_int
from itertools import chain
from operator import mul, neg
from pathlib import Path

from .errors import (CapacityError, ConvergenceError, NearDegenerateWarning,
                     WindowConvergenceError)
from .hamiltonian import DENSE_LIMIT, TridiagonalHamiltonian
from .model import Record, coupling_bound

_SAFMIN = sys.float_info.min
_EPS = sys.float_info.epsilon
# Covers the rounding of the couplings, their bound and the certificate's differences.
_SLACK = 1.0 + 16.0 * _EPS
_F64, _U64, _SIGN = struct.Struct("d"), struct.Struct("Q"), 1 << 63
_INF = 0x7FF0_0000_0000_0000  # _key(inf); the count is 0 at -inf and dim at inf


class EigenPair(Record):
    """One eigenvalue, optionally with its unit-norm real eigenvector.

    ``residual``: x+ - x from ``lowest_eigenvalues``, ||H v - value v|| from ``eigenpair``.
    """

    __slots__ = ("value", "vector", "residual")

    def __init__(self, value: float, vector: array | None, residual: float):
        self._fill(value, vector, residual)


class Spectrum(Record):
    """Ascending eigenvalues E_0 <= E_1 <= ... over the window, and dstebz's split (None: one)."""

    __slots__ = ("pairs", "split")

    def __init__(self, pairs: list[EigenPair], split: tuple | None = None):
        self._fill(pairs, split)


def _zeros(n: int, code: str = "d") -> array:
    return array(code, [0]) * n


def _ptr(buf) -> int:
    """Address of the first item of an ``array``, or of a whole-array memoryview over one."""
    if isinstance(buf, memoryview):
        if buf.nbytes != len(buf.obj) * buf.obj.itemsize:
            raise ValueError("a memoryview passed to LAPACK must span its whole array")
        buf = buf.obj
    return buf.buffer_info()[0]


def _int(n: int):
    return byref(c_int(n))


_ONE, _ZERO = _int(1), byref(c_double(0.0))


class _Lapack:
    """The routines the solver calls, bound through ctypes from the shared library ``lib``.

    Each is the library's ``scipy_<name>_`` symbol (scipy's bundled OpenBLAS),
    else ``<name>_``, typed once as pointers and gfortran's hidden CHARACTER
    lengths.  The methods take flat double buffers, return what scipy's f2py
    wrappers of the same routines return, and bind every buffer to a name for
    the whole call: an address alone does not keep it alive.  The dense
    reference ``dense_all`` calls scipy's own ``dstevd`` wrapper instead.
    """

    # Pointer arguments and hidden CHARACTER lengths of each routine.
    SIGNATURES = {"dstebz": (18, 2), "dstein": (13, 0), "dgtsv": (8, 0), "ddot": (5, 0)}

    def __init__(self, lib):
        for name, (pointers, chars) in self.SIGNATURES.items():
            routine = getattr(lib, f"scipy_{name}_", None) or getattr(lib, f"{name}_", None)
            if routine is None:
                raise ImportError(f"LAPACK routine {name} is not in {lib}")
            routine.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
            routine.restype = c_double if name == "ddot" else None
            setattr(self, f"_{name}", routine)

    def dstebz(self, d, e, k: int, tol: float):
        """(m, w, (iblock, isplit), info): the k lowest eigenvalues of (d, e) by bisection,
        their blocks, and each block's last index (from 1) where small couplings split it."""
        n, m, nsplit, info = len(d), c_int(), c_int(), c_int()
        w, work, ints = _zeros(n), _zeros(4 * n), _zeros(5 * n, "i")  # iblock, isplit, iwork
        self._dstebz(b"I", b"E", _int(n), _ZERO, _ZERO, _ONE, _int(k), byref(c_double(tol)),
                     _ptr(d), _ptr(e), byref(m), byref(nsplit), _ptr(w), _ptr(ints),
                     _ptr(ints) + 4 * n, _ptr(work), _ptr(ints) + 8 * n, byref(info), 1, 1)
        return m.value, w[:m.value], (ints[:m.value], ints[n:n + nsplit.value]), info.value

    def dstein(self, d, e, shift: float, block: int, isplit):
        """(z, info): the eigenvector of (d, e) on ``block`` of ``isplit`` by inverse iteration."""
        n, info = _int(len(d)), c_int()
        z, work, iwork = _zeros(len(d)), _zeros(5 * len(d)), _zeros(len(d), "i")
        self._dstein(n, _ptr(d), _ptr(e), _ONE, byref(c_double(shift)), _int(block),
                     _ptr(isplit), _ptr(z), n, _ptr(work), _ptr(iwork), _int(0), byref(info))
        return z, info.value

    def dgtsv(self, dl, d, du, b):
        """(x, info): the solution of the tridiagonal system (dl, d, du) x = b, on copies."""
        dl, d, du, x = array("d", dl), array("d", d), array("d", du), array("d", b)
        n, info = _int(len(d)), c_int()
        self._dgtsv(n, _ONE, _ptr(dl), _ptr(d), _ptr(du), _ptr(x), n, byref(info))
        return x, info.value

    def ddot(self, x, y) -> float:
        return self._ddot(_int(len(x)), _ptr(x), _ONE, _ptr(y), _ONE)


@functools.cache
def _lapack() -> _Lapack:
    """The LAPACK routines of the library that scipy's ``scipy.linalg._flapack`` links.

    Finds the extension in the installed scipy's ``linalg`` directory without
    running any package ``__init__`` and opens it with ``ctypes``: no module
    is imported or registered, so a later ``import scipy.linalg`` runs as it
    would have.
    """
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")
    dirs = [str(Path(d) / "linalg") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"cannot find scipy's LAPACK wrappers {name}", name=name)
    return _Lapack(ctypes.CDLL(spec.origin))


def _dot(x: array, y: array) -> float:
    """x . y by the library's ddot, as ``np.dot`` sums it."""
    return _lapack().ddot(x, y)


def _norm(x: array) -> float:
    """||x|| as ``np.linalg.norm`` takes it: sqrt(ddot(x, x))."""
    return math.sqrt(_lapack().ddot(x, x))


def _times(x, y) -> array:
    """The element-wise product x * y."""
    return array("d", map(mul, x, y))


def _peak(v) -> int:
    """Index of the first largest |v_i|."""
    magnitudes = list(map(abs, v))
    return magnitudes.index(max(magnitudes))


def _centred(v) -> array:
    """a = n - <n>_v over the window's local charges n = 0, 1, ... for the unit vector v."""
    mean = _dot(array("d", range(len(v))), _times(v, v))
    return array("d", map(mean.__rsub__, range(len(v))))


def eigenvalue_count_below(h: TridiagonalHamiltonian, x: float, lowered: tuple = ()) -> int:
    """Number of eigenvalues strictly below ``x`` of h, its diagonal lowered by s at each
    ``(corner, s)`` of ``lowered``: the negative pivots of the shifted LDL^T recurrence.

    A pivot within pivmin = safmin max(1, off_max^2) of zero, off_max h's
    largest coupling, is replaced by -pivmin, and so counted.
    """
    off_max = h.coefficient_bounds()[2]
    pivmin = _SAFMIN * max(1.0, off_max * off_max)
    diag = h.diagonal_block(0, h.dim)
    if lowered:
        diag = array("d", diag.tobytes())
        for corner, s in lowered:
            diag[corner] -= s
    floor, count, d = -pivmin, 0, 1.0
    for dj, oj in zip(diag, chain((0.0,), h.offdiagonal_block(0, h.dim - 1))):
        d = (dj - x) - oj * oj / d
        if d <= pivmin:
            count += 1
            if d >= floor:
                d = floor
    return count


def _key(x: float) -> int:
    """The place of x in the integer order of doubles, where neighbours differ by 1."""
    u = _U64.unpack(_F64.pack(x))[0]
    return u if u < _SIGN else _SIGN - u


def _double(key: int) -> float:
    return _F64.unpack(_U64.pack(key if key >= 0 else _SIGN - key))[0]


def _bracket(h: TridiagonalHamiltonian, j: int, start: float) -> EigenPair:
    """Eigenvalue j as the lower x of the adjacent doubles x < x+ with count(x) <= j < count(x+).

    The count is monotone in its shift (Kahan 1966; Demmel, Dhillon & Ren
    1995), so that pair is unique.  The search counts at ``start`` and then
    1, 2, 4, ... places from it in the integer order of doubles, clipped to
    the operator's Gershgorin interval (past it, to -inf or inf), until the
    count crosses j, then bisects that order.  The residual is x+ - x.
    """
    dmin, dmax, off_max = h.coefficient_bounds()
    lo, hi, step = -_INF, _INF, 1
    end_lo, end_hi = _key(dmin - 2.0 * off_max), _key(dmax + 2.0 * off_max)
    x = first = min(max(_key(start), end_lo), end_hi)
    while hi - lo > 1:
        if eigenvalue_count_below(h, _double(x)) > j:
            hi = x
        else:
            lo = x
        if lo == -_INF and hi > end_lo:
            x = max(first - step, end_lo)
        elif hi == _INF and lo < end_hi:
            x = min(first + step, end_hi)
        else:
            x = (lo + hi) // 2
        step *= 2
    return EigenPair(value=_double(lo), vector=None, residual=_double(hi) - _double(lo))


def lowest_eigenvalues(h: TridiagonalHamiltonian, k: int) -> Spectrum:
    """The k smallest eigenvalues, each LAPACK's (``dstebz``) moved by ``_bracket``.

    Each is the lower of its two adjacent doubles, with the same bits for
    every k; a one-state window returns its diagonal entry, with residual 0.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > h.dim:
        raise ValueError(f"levels {k} exceeds the {h.dim} charge states of the window"
                         f" at n_g = {h.params.n_g:g}")
    if h.dim == 1:
        return Spectrum([EigenPair(value=h.diag[0], vector=None, residual=0.0)])
    m, w, split, info = _lapack().dstebz(h.diag, h.off, k, 2.0 * _SAFMIN)
    if info != 0:
        raise ConvergenceError(f"dstebz bisection did not converge (info {info})")
    return Spectrum([_bracket(h, j, v) for j, v in enumerate(w)], split)


def _outside_rooms(h: TridiagonalHamiltonian, x: float, b_max: float):
    """(corner, b_edge, kappa, s, dist) past each coupled window end, or None without the room.

    Past a coupled end a_out - x > 2 b_max must hold.  Then n_g does not lie
    beyond that end (the window's values would exceed a_out - 2 b_max), the
    diagonal grows away from the window, every outside pivot of the full
    operator minus x stays above kappa = a_out - x - b_max, and the corner is
    lowered by at most s = _SLACK b_edge^2 / kappa.  ``dist`` is the first outside
    charge's distance from n_g.  A basis end (b_edge = 0) has no side.  The
    Schur bound needs outside pivots >= kappa > 0, which no lowered count shows.
    """
    center = h.params.n_half + h.params.n_g
    sides = []
    for corner, a_out, b_edge, end in zip((0, -1), *h.outside(), (h.k_lo - 1, h.k_lo + h.dim)):
        if not b_edge:
            continue
        room = (a_out - x) / _SLACK
        if room <= 2.0 * b_max:
            return None
        kappa = room - b_max
        sides.append((corner, b_edge, kappa, b_edge * b_edge / kappa * _SLACK, abs(end - center)))
    return sides


def certified_lowest(h: TridiagonalHamiltonian, k: int) -> tuple[Spectrum, list[float]]:
    """(``lowest_eigenvalues(h, k)``, radii r_j within which its values v_j are the full
    operator's lowest, level by level up to the first level it cannot prove).

    The full count is at least the window's (Cauchy interlacing), so the
    bracket's count(x+) >= j + 1, x+ = v_j + residual <= v_j + rho_j, bounds
    eigenvalue j from above.  Where the parabola dominates outside the window
    at x_j = v_j - rho_j (``_outside_rooms``), the Schur complement onto the
    window lowers each corner by at most b_edge^2 / (a_out - x_j - b_max); that
    lowered window's count(x_j) <= j, one ``eigenvalue_count_below`` per level
    with the corners ``lowered``, bounds it from below.  rho_j covers the
    counts' backward error (Kahan 1966; Demmel, Dhillon & Ren 1995) at the one
    pivot floor that function takes, so r_j = 2 rho_j.
    """
    spectrum = lowest_eigenvalues(h, k)
    b_max = coupling_bound(h.params.e_j, h.params.n_half) * _SLACK
    # The diagonal is nonnegative: its largest entry plus 2 b_max bounds the norm.
    norm, radii = h.coefficient_bounds()[1] + 2.0 * b_max, []
    for j, pair in enumerate(spectrum.pairs):
        rho = 4.0 * _EPS * (norm + abs(pair.value))
        sides = _outside_rooms(h, pair.value - rho, b_max)
        if sides is None or not pair.residual <= rho:
            break
        lowered = tuple((corner, s) for corner, _, _, s, _ in sides)
        if eigenvalue_count_below(h, pair.value - rho, lowered) > j:
            break
        radii.append(2.0 * rho)
    return spectrum, radii


def _moment(q: float, power: int) -> float:
    """sum_i (1 + i)^power q^(2 i) for power 0, 1, 2."""
    x = q * q
    return (1.0 / (1.0 - x), 1.0 / (1.0 - x) ** 2, (1.0 + x) / (1.0 - x) ** 3)[power]


class EdgeBound(Record):
    """What a certified window proves of the full operator's level-j vector psi.

    ``sin_theta`` bounds the angle between the window's vector phi and the
    window part of psi.  Past each coupled end (``sides``: corner, b_edge, t,
    q, kappa, dist) |psi| is at most t q^i at the i-th charge out.  ``gap``
    bounds the full level's distance to every other level from below, and
    ``shift`` the distance between the full value and the window's exact one.
    ``ng`` is n_g in the window's local charges.
    """

    __slots__ = ("sin_theta", "gap", "shift", "sides", "ng")

    def __init__(self, sin_theta: float, gap: float, shift: float, sides: tuple, ng: float):
        self._fill(sin_theta, gap, shift, sides, ng)

    def tail(self, a: array, power: int, spread: float = 0.0) -> float:
        """Bound on the sum over outside charges of |n - m|^power psi^2.

        ``a`` holds n - c on the window and |c - m| <= ``spread``, so the i-th
        charge out lies within A + i of m, A = |a_corner| + 1 + spread >= 1,
        and (A + i)^p <= A^p (1 + i)^p.
        """
        return sum(t * t * (abs(a[corner]) + 1.0 + spread) ** power * _moment(q, power)
                   for corner, _, t, q, _, _ in self.sides)


def edge_bound(h: TridiagonalHamiltonian, spectrum: Spectrum, radii: list[float],
               vector: array, level: int = 0) -> EdgeBound:
    """The truncation lemma for level j of a window whose levels 0..j+1 are certified.

    ``spectrum, radii`` are ``certified_lowest``'s, radii reaching level j + 1.
    With E_j <= up = v_j + r_j, the Schur complement onto the window lowers
    each corner by some sigma in [0, s], s = b_edge^2 / (a_out - E_j - b_max):
    the window part of psi is the level-j vector of T - diag(sigma), whose
    levels j -+ 1 stay beyond v_{j-1} + r_{j-1} and v_{j+1} - r_{j+1}.  So
    (Davis & Kahan 1970) sin theta <= ||(s_lo phi_0, s_hi phi_end)|| / gap,
    and along the way from T to T - diag(sigma) the value moves by at most
    sum s (|phi_corner| + sqrt(2) sin theta)^2.  Outside, psi starts at most at
    |b_edge psi_edge| / (a_out - E_j - b_max) and shrinks by at least
    q = b_max / (a_out - E_j - b_max) per charge.  Where the window gap is no
    wider than the radii, which grow with the window, no window proves the
    vector: WindowConvergenceError.  The gap proves the room at up, which falls
    as x grows: up < fl(v_{j+1} - r_{j+1}) <= x_{j+1} = fl(v_{j+1} - rho_{j+1}),
    where ``certified_lowest`` proved it with the same b_max.
    """
    values, j = [p.value for p in spectrum.pairs], level
    up = values[j] + radii[j]
    gap = values[j + 1] - radii[j + 1] - up
    if j:
        gap = min(gap, values[j] - radii[j] - values[j - 1] - radii[j - 1])
    if not gap > 0.0:
        raise WindowConvergenceError(f"level {j} and a neighbour lie within their radii at"
                                     f" n_g = {h.params.n_g:g}; no window proves its vector")
    b_max = coupling_bound(h.params.e_j, h.params.n_half) * _SLACK
    rooms = _outside_rooms(h, up, b_max)
    sin_theta = math.hypot(*(s * vector[corner] for corner, _, _, s, _ in rooms)) / gap
    shift, sides = 0.0, []
    for corner, b, kappa, s, dist in rooms:
        edge = abs(vector[corner]) + math.sqrt(2.0) * sin_theta
        shift += s * edge * edge
        sides.append((corner, b, abs(b) * edge / kappa, b_max / kappa, kappa, dist))
    ng = h.params.n_half + h.params.n_g - h.k_lo
    return EdgeBound(sin_theta, gap, shift, tuple(sides), ng)


def imbalance_bound(edge: EdgeBound, a: array, vector: array) -> float:
    """Bound on |<n>_full - <n>_window| for the window vector phi and a = n - <n>_window.

    The window part of psi is alpha (cos t phi + sin t w), w a unit vector
    orthogonal to phi and alpha <= 1, so <n>_full - c is
    alpha^2 (2 sin t cos t <a phi, w> + sin^2 t <w, a w>) plus the outside sum
    of (n - c) psi^2.
    """
    st = edge.sin_theta
    return 2.0 * st * _norm(_times(a, vector)) + st * st * max(map(abs, a)) + edge.tail(a, 1)


def response_bound(edge: EdgeBound, a: array, vector: array, x: array) -> tuple[float, float]:
    """(bound on |S_full - S_window|, bound on ||rho||) for S = <a phi, x>, x = R a phi.

    For any z orthogonal to psi and f = (n - m) psi, S = 2 <f, z> -
    <z, (H - E) z> + <rho, R rho> with rho = f - (H - E) z (Hylleraas), and
    |<rho, R rho>| <= ||rho||^2 / gap.  With z the window's x, zero outside,
    and S_window = <x, (T - v) x>: S - S_window = 2 <psi_W - phi, (n - m) x>
    + (E - v) ||x||^2 + <rho, R rho>, where rho = (n - m) psi - a phi - b_edge
    x_edge (past each end) - (v - E) x.
    """
    bn = imbalance_bound(edge, a, vector)
    d = math.sqrt(2.0) * edge.sin_theta + edge.tail(a, 0)  # ||psi_W - phi||
    norm = _norm(x)
    rho = ((max(map(abs, a)) + bn) * d + math.sqrt(edge.tail(a, 2, bn)) + bn
           + math.hypot(*(b * x[corner] for corner, b, *_ in edge.sides)) + edge.shift * norm)
    bound = (2.0 * d * (_norm(_times(a, x)) + bn * norm) + edge.shift * norm * norm
             + rho * rho / edge.gap)
    return bound, rho


def fourth_order_bound(edge: EdgeBound, a: array, vector: array, x1: array, s0: float,
                       x2: array) -> tuple[float, float]:
    """(bound on |E4_full - E4_window|, on ||rho2||), E4 = S_0 ||x1||^2 - <r2, R r2>.

    r2 = a x1 - S_0 psi, and rho2 = r2_full - (H - E) x2 for the window's x2.

    ||x1_full - x1|| <= ||rho|| / gap + ||psi_W - phi|| ||x1|| bounds the first
    term's change; the second is ``response_bound``'s identity again, with
    source r2 and z the window's x2 = R r2.  Outside, x1_full solves
    (H - E) x = (n - m) psi - b_edge x1_edge; with k_i = a_i - E - 2 b_max
    >= k_0, sum k_i x_i^2 <= ||source||^2 / k_0, and (n - n_g)^2 = a_i / E_C
    <= k_i dist^2 / k_0 bounds its charge-weighted norm.
    """
    b_s, rho = response_bound(edge, a, vector, x1)
    bn = imbalance_bound(edge, a, vector)
    tail = edge.tail(a, 0)
    d = math.sqrt(2.0) * edge.sin_theta + tail
    n1, n2 = _norm(x1), _norm(x2)
    b_x = rho / edge.gap + d * n1
    first = b_s * (n1 + b_x) ** 2 + abs(s0) * b_x * (2.0 * n1 + b_x)
    r2_window = (max(map(abs, a)) + bn) * b_x + bn * n1 + b_s + abs(s0) * d
    offset = abs(edge.ng + a[0]) + bn  # |n_g - m|
    outside = abs(s0) * math.sqrt(tail)
    for corner, b, t, q, kappa, dist in edge.sides:
        k0 = kappa - q * kappa
        source = (t * (abs(a[corner]) + 1.0 + bn) * math.sqrt(_moment(q, 2))
                  + abs(b) * (abs(x1[corner]) + b_x))
        outside += source / k0 * (dist + offset)
    rho2 = (r2_window + outside + math.hypot(*(b * x2[corner] for corner, b, *_ in edge.sides))
            + edge.shift * n2)
    second = 2.0 * r2_window * n2 + edge.shift * n2 * n2 + rho2 * rho2 / edge.gap
    return first + second, rho2


def eigenpair(h: TridiagonalHamiltonian, level: int = 0,
              spectrum: Spectrum | None = None) -> EigenPair:
    """Eigenpair ``level``: certified value plus its inverse-iteration vector.

    ``spectrum`` is the window's ``lowest_eigenvalues`` through level + 1 or
    more (by default ``min(level + 2, h.dim)`` levels).  The vector's first
    largest |v_i| is made positive, so with negative couplings the ground vector
    is all positive (Perron-Frobenius); equal peaks (odd level 1 at n_g = 0)
    leave the sign to rounding, so align signs before comparing across windows.
    Warns when a neighbouring level lies within 40 eps ||H||, where the vector
    is ill-conditioned.  A level outside [0, dim), or a shorter spectrum, is a
    ValueError.  Inverse iteration runs on the value's block of ``spectrum.split``;
    a residual ||H v - value v|| over 64 eps ||H|| (the benchmark's vectors reach
    0.21, one from the wrong block the gap) raises ConvergenceError.
    """
    if not 0 <= level < h.dim:
        raise ValueError(f"level {level} is outside the {h.dim} charge states of the window"
                         f" at n_g = {h.params.n_g:g}")
    need = min(level + 2, h.dim)
    pairs = (spectrum := spectrum or lowest_eigenvalues(h, need)).pairs
    if len(pairs) < need:
        raise ValueError(f"level {level} needs a spectrum of {need} values, got {len(pairs)}")
    value = pairs[level].value
    gap = min([abs(p.value - value) for p in pairs if p is not pairs[level]], default=math.inf)
    _, dmax, off_max = h.coefficient_bounds()
    norm = dmax + 2.0 * off_max  # the diagonal is nonnegative
    if gap < 40.0 * _EPS * norm:
        warnings.warn(
            f"levels nearly degenerate (gap {gap:.3e}) at n_g = {h.params.n_g:g}; eigenvector"
            " may be ill-conditioned",
            NearDegenerateWarning,
            stacklevel=2,
        )
    # Shift one bracket width below the value.  At the value itself
    # dstein perturbs a near-zero pivot by about eps ||H||, mixing up to
    # eps ||H|| / gap of a neighbour's vector into the result; from r_j below
    # it, inverse iteration still converges at a rate of r_j / gap per step.
    blocks, isplit = spectrum.split or ([1] * len(pairs), array("i", [h.dim]))
    vector, info = _lapack().dstein(h.diag, h.off, value - pairs[level].residual,
                                    blocks[level], isplit)
    if info != 0:
        raise ConvergenceError("dstein inverse iteration did not converge")
    if vector[_peak(vector)] < 0:
        vector = array("d", map(neg, vector))
    residual = _norm(array("d", [y - value * x for y, x in zip(h.matvec(vector), vector)]))
    if not residual <= 64.0 * _EPS * norm:
        raise ConvergenceError(f"level {level} vector has residual {residual:.3e} over"
                               f" 64 eps ||H|| at n_g = {h.params.n_g:g}")
    return EigenPair(value=value, vector=vector, residual=residual)


def charge_response(h: TridiagonalHamiltonian, level: int = 0, pair: EigenPair | None = None):
    """(S_m, psi, a, x, solve): the static charge response of level m and its vectors.

    S_m = sum_{k != m} |<k|n|m>|^2 / (E_k - E_m) = <a psi, x> with x = R a psi,
    for psi the level's vector (``pair``, its eigenpair if the caller has it)
    and a = n - <n>.  ``solve`` is phi -> R phi, with R = (H - E_m)^-1 on the
    complement of psi (Sternheimer, Phys. Rev. 96, 951, 1954), for phi
    orthogonal to psi.  It drops the row and column j where |psi| peaks; what
    is left is nonsingular (its determinant is a product of eigenvalue
    differences times psi_j^2) and solves to R phi plus a multiple of psi,
    which is projected out.  Charges count from the window's first state,
    which keeps a free of cancellation at large n_g.  A one-state window has
    no other states: its one row is j, so there R is 0.
    """
    pair = pair or eigenpair(h, level)
    v, dgtsv = pair.vector, _lapack().dgtsv
    a, j = _centred(v), _peak(v)
    diag, off = array("d", map(pair.value.__rsub__, h.diag)), array("d", h.off.tobytes())
    diag[j] = 1.0
    for i in range(max(j - 1, 0), min(j + 1, h.dim - 1)):
        off[i] = 0.0

    def solve(phi: array) -> array:
        x, info = dgtsv(off, diag, off, phi)
        if info != 0:
            raise ConvergenceError(f"dgtsv tridiagonal solve failed (info {info})")
        x[j] = 0.0  # row j returned phi_j; the other rows were solved as if x_j = 0
        c = _dot(v, x)
        return array("d", [y - c * u for y, u in zip(x, v)])

    phi = _times(a, v)
    x = solve(phi)
    return _dot(phi, x), v, a, x, solve


def fourth_order_terms(h: TridiagonalHamiltonian, pair: EigenPair | None = None):
    """(first, second, x2, response): first - second is the ground state's E^(4) in V = n.

    By Wigner's 2n+1 rule: the first-order state is -x1 with x1 = R a psi_0,
    the second-order state x2 = R r2 with r2 = a x1 - S_0 psi_0, and
    E^(4) = S_0 |x1|^2 - r2 . x2, where S_0 = a psi_0 . x1.  Two solves with
    one decoupled matrix; ``response`` is ``charge_response``'s tuple.
    """
    s0, v, a, x1, solve = response = charge_response(h, 0, pair)
    r2 = array("d", [ai * xi - s0 * vi for ai, xi, vi in zip(a, x1, v)])
    x2 = solve(r2)
    return s0 * _dot(x1, x1), _dot(r2, x2), x2, response


def dense_all(h: TridiagonalHamiltonian) -> Spectrum:
    """Full spectrum with eigenvectors via the dense LAPACK tridiagonal path.

    Reference oracle for small dimensions; ``DENSE_LIMIT`` keeps runtimes
    around a second.  Eigenpairs are scipy's ``eigh_tridiagonal`` (``stevd``); vectors are
    sign-normalized and residuals taken as by ``eigenpair``, in the same order
    of roundings, on numpy rows (numpy and ``scipy.linalg`` load here).
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    if h.dim > DENSE_LIMIT:
        raise CapacityError(f"dim {h.dim} exceeds dense limit {DENSE_LIMIT}")
    values, z = eigh_tridiagonal(h.diag, h.off, lapack_driver="stevd")
    diag, off, pairs = np.asarray(h.diag), np.asarray(h.off), []
    for value, v in zip(values.tolist(), z.T):
        v = -v if v[np.abs(v).argmax()] < 0 else v
        hv = diag * v  # h.matvec's order: diag v, + off v_next, + off_prev v_prev
        hv[:-1] += off * v[1:]
        hv[1:] += off * v[:-1]
        residual = _norm(array("d", (hv - value * v).tobytes()))
        pairs.append(EigenPair(value=value, vector=array("d", v.tobytes()), residual=residual))
    return Spectrum(pairs)
