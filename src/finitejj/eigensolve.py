"""Lowest eigenpairs of a symmetric tridiagonal operator.

LAPACK computes, Sturm certifies.  Every operator (at most ARRAY_LIMIT
states, enforced when it is built) gets its lowest values from one call to
LAPACK bisection (``dstebz``) at the floating-point floor.  Each returned
value v_j is then certified by two Sturm pivot counts: the number of
negative pivots in the shifted LDL^T recurrence equals the number of
eigenvalues below the shift, and count(v_j - delta) <= j < count(v_j + delta)
puts exactly j eigenvalues below the bracket.  A value that fails its
certificate is re-bracketed by bisection on the same count.  Eigenvectors
come from LAPACK inverse iteration (``dstein``) shifted to the lower end of
the certified bracket.  Perturbation theory in the charge n applies a
level's reduced resolvent by LAPACK tridiagonal solves (``dgtsv``): once for
its static charge response, twice for the ground state's fourth-order
energy.

A pivot count is one O(dim) pass over the operator's two arrays.  A dense
full-spectrum routine (LAPACK ``dstevd``) provides the reference oracle at
small dimensions.

``window_certificate`` proves a charge window's lowest values to be the full
operator's with two more counts per value at the window's dim.

Every LAPACK routine comes from scipy's compiled wrappers
``scipy.linalg._flapack``, which ``_lapack`` loads at the first solve.  The
``scipy.linalg`` package never loads: its import pulls in most of numpy's
submodules and costs more than numpy itself.  Importing this module, or
running only the closed forms, loads no part of scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConvergenceError, NearDegenerateWarning
from .hamiltonian import DENSE_LIMIT, TridiagonalHamiltonian
from .model import coupling_bound

MAX_BISECTIONS = 2048

_SAFMIN = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)
# Covers the rounding of the couplings, their bound and the certificate's differences.
_SLACK = 1.0 + 16.0 * _EPS


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue, optionally with its unit-norm real eigenvector."""

    value: float
    vector: np.ndarray | None
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues E_0 <= E_1 <= ... over the operator's window."""

    pairs: list[EigenPair]
    dim: int

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``.

    Reuses the loaded module if there is one.  Otherwise loads the extension
    from the installed scipy's ``linalg`` directory, without running any
    package ``__init__``, and registers it, so a later ``import scipy.linalg``
    binds this same module.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    dirs = [str(Path(d) / "linalg") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"cannot find scipy's LAPACK wrappers {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _pivmin(off_max: float) -> float:
    return _SAFMIN * max(1.0, off_max * off_max)


def eigenvalue_count_below(
    h: TridiagonalHamiltonian, x: float, pivmin: float | None = None
) -> int:
    """Number of eigenvalues strictly below ``x`` (Sturm pivot count).

    ``pivmin`` is the pivot floor, computed from the operator's coefficient
    bounds when None; a caller counting at many shifts of one operator
    passes it once.
    """
    if pivmin is None:
        pivmin = _pivmin(h.coefficient_bounds()[2])
    return _count_below(h.diagonal_block(0, h.dim), h.offdiagonal_block(0, h.dim - 1), x, pivmin)


def _count_below(diag: np.ndarray, off: np.ndarray, x: float, pivmin: float) -> int:
    """Negative pivots of the LDL^T recurrence of the tridiagonal (diag, off) minus x."""
    shifted = (diag - x).tolist()
    offsq = np.empty(len(shifted))
    offsq[0] = 0.0
    np.square(off, out=offsq[1:])
    count = 0
    d = 1.0
    for dj, oj in zip(shifted, offsq.tolist()):
        d = dj - oj / d
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def _bisect(
    h: TridiagonalHamiltonian, j: int, lo: float, hi: float, pivmin: float
) -> EigenPair:
    """Eigenvalue j from a bracket with count(lo) <= j < count(hi).

    Halves the bracket down to a few ulps of its endpoints and returns its
    midpoint, with the half-width as residual.
    """
    width = hi - lo
    for _ in range(MAX_BISECTIONS):
        if width <= 2.0 * _EPS * (abs(lo) + abs(hi)) + 2.0 * _SAFMIN:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if eigenvalue_count_below(h, mid, pivmin) >= j + 1:
            hi = mid
        else:
            lo = mid
        width = hi - lo
    else:
        raise ConvergenceError(
            f"bisection for eigenvalue {j} stalled at bracket width {width}",
            achieved=width,
        )
    return EigenPair(value=0.5 * (lo + hi), vector=None, residual=0.5 * width)


def lowest_eigenvalues(h: TridiagonalHamiltonian, k: int) -> Spectrum:
    """The k smallest eigenvalues, each certified by two Sturm pivot counts.

    Every value v_j is solved to the floating-point floor and returned with
    a residual r_j such that count(v_j - r_j) <= j and count(v_j + r_j) >= j+1.
    For a LAPACK value r_j is 4 eps |v_j| + 2 safmin, the bisection floor at
    v_j; for a bisected one, the half-width of its final bracket.

    Fixed evaluation order makes results bitwise reproducible.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > h.dim:
        raise ValueError(f"levels {k} exceeds the {h.dim} charge states of the window"
                         f" at n_g = {h.params.n_g:g}")
    dmin, dmax, off_max = h.coefficient_bounds()
    pivmin = _pivmin(off_max)
    lo0 = dmin - 2.0 * off_max
    hi0 = dmax + 2.0 * off_max
    if h.dim == 1:
        values = [float(h.diag[0])]
    else:
        # Values with indices 1..k (range 2), in ascending order ("E").
        m, w, _, _, info = _lapack().dstebz(h.diag, h.off, 2, 0.0, 1.0, 1, k, 2.0 * _SAFMIN, "E")
        if info != 0:
            raise ConvergenceError(f"dstebz bisection did not converge (info {info})")
        values = w[:m].tolist()
    pairs = []
    for j, value in enumerate(values):
        delta = 4.0 * _EPS * abs(value) + 2.0 * _SAFMIN
        below = eigenvalue_count_below(h, value - delta, pivmin)
        above = eigenvalue_count_below(h, value + delta, pivmin)
        if below <= j < above:
            pairs.append(EigenPair(value=value, vector=None, residual=delta))
        elif below > j:
            pairs.append(_bisect(h, j, lo0, value - delta, pivmin))
        else:
            pairs.append(_bisect(h, j, value + delta, hi0, pivmin))
    return Spectrum(pairs, h.dim)


def window_certificate(h: TridiagonalHamiltonian, spectrum: Spectrum) -> list[float] | None:
    """Radii r_j within which the window's values v_j are the full operator's lowest, or None.

    The full count below x is at least the window's (Cauchy interlacing), so
    count(v_j + rho_j) >= j + 1 bounds eigenvalue j from above.  Where the
    parabola dominates outside the window, a_out - x >= 2 b_max past each end,
    the Schur complement onto the window lowers each corner by at most
    b_edge^2 / (a_out - x - b_max); the lowered window's count bounds the full
    count from above, and count(v_j - rho_j) <= j bounds eigenvalue j from
    below.  rho_j covers the counts' backward error (Kahan 1966; Demmel,
    Dhillon & Ren 1995), so r_j = 2 rho_j.  None when the window is too small.
    """
    values = spectrum.values.tolist()
    b_max = coupling_bound(h.params.e_j, h.params.n_half) * _SLACK
    # The diagonal is nonnegative: its largest entry plus 2 b_max bounds the norm.
    norm = h.coefficient_bounds()[1] + 2.0 * b_max
    rho = [4.0 * _EPS * (norm + abs(v)) for v in values]
    x = max(v - r for v, r in zip(values, rho))
    lowered = h.diag.copy()
    for corner, a_out, b_edge in zip((0, -1), *h.outside()):
        room = (a_out - x) / _SLACK
        if b_edge and room < 2.0 * b_max:
            return None
        # A basis end (b_edge = 0) lowers nothing, whatever its room.
        lowered[corner] -= b_edge * b_edge / max(room - b_max, b_max) * _SLACK
    pivmin = _pivmin(b_max)
    for j, (v, r) in enumerate(zip(values, rho)):
        if (_count_below(lowered, h.off, v - r, pivmin) > j
                or eigenvalue_count_below(h, v + r, pivmin) < j + 1):
            return None
    return [2.0 * r for r in rho]


def _with_vector(h: TridiagonalHamiltonian, value: float, v: np.ndarray) -> EigenPair:
    """Pair with ``v`` sign-normalized (largest component positive) and ||Hv - value v||."""
    imax = int(np.argmax(np.abs(v)))
    if v[imax] < 0:
        v = -v
    residual = float(np.linalg.norm(h.matvec(v) - value * v))
    return EigenPair(value=value, vector=v, residual=residual)


def eigenpair(h: TridiagonalHamiltonian, level: int = 0) -> EigenPair:
    """Eigenpair ``level``: certified value plus its inverse-iteration vector.

    The vector is sign-normalized so its largest-magnitude component is
    positive; with all couplings negative the ground vector then comes out
    componentwise positive (Perron-Frobenius).  Warns when a neighbouring
    level lies within 40 eps ||H||, where the vector is ill-conditioned.
    """
    pairs = lowest_eigenvalues(h, min(level + 2, h.dim)).pairs
    value = pairs[level].value
    gap = min([abs(p.value - value) for p in pairs if p is not pairs[level]], default=np.inf)
    dmin, dmax, off_max = h.coefficient_bounds()
    if gap < 40.0 * _EPS * (max(abs(dmin), abs(dmax)) + 2.0 * off_max):
        warnings.warn(
            f"levels nearly degenerate (gap {gap:.3e}); eigenvector may be ill-conditioned",
            NearDegenerateWarning,
            stacklevel=2,
        )
    dim = h.dim
    # scipy's dstein wrapper sizes e as max(n - 1, 1)
    off = h.off if dim > 1 else np.zeros(1)
    # Shift to the lower end of the certified bracket.  At the value itself
    # dstein perturbs a near-zero pivot by about eps ||H||, mixing up to
    # eps ||H|| / gap of a neighbour's vector into the result; from r_j below
    # it, inverse iteration still converges at a rate of r_j / gap per step.
    shift = value - pairs[level].residual
    vectors, info = _lapack().dstein(
        h.diag, off, [shift], np.ones(dim, dtype=np.int32), np.full(dim, dim, dtype=np.int32)
    )
    if info != 0:
        raise ConvergenceError("dstein inverse iteration did not converge")
    return _with_vector(h, value, vectors[:, 0])


def _reduced_resolvent(h: TridiagonalHamiltonian, level: int):
    """(psi, a, solve) of level m: its vector, a = n - <n>, and phi -> R phi.

    R is (H - E_m)^-1 on the complement of psi (Sternheimer, Phys. Rev. 96,
    951, 1954), for phi orthogonal to psi.  The solve drops the row and
    column j where |psi| peaks; what is left is nonsingular (its determinant
    is a product of eigenvalue differences times psi_j^2) and solves to R phi
    plus a multiple of psi, which is projected out.  Charges count from the
    window's first state, which keeps a free of cancellation at large n_g.
    A one-state window has no other states, so there R is 0.
    """
    pair = eigenpair(h, level)
    v = pair.vector
    n = np.arange(h.dim, dtype=float)
    a = n - np.dot(n, v * v)
    if h.dim == 1:
        return v, a, np.zeros_like
    dgtsv = _lapack().dgtsv
    diag, off = h.to_arrays()
    diag -= pair.value
    j = int(np.argmax(np.abs(v)))
    diag[j] = 1.0
    off[max(j - 1, 0):j + 1] = 0.0

    def solve(phi: np.ndarray) -> np.ndarray:
        _, _, _, x, info = dgtsv(off, diag, off, phi)
        if info != 0:
            raise ConvergenceError(f"dgtsv tridiagonal solve failed (info {info})")
        x[j] = 0.0  # row j returned phi_j; the other rows were solved as if x_j = 0
        x -= np.dot(v, x) * v
        return x

    return v, a, solve


def charge_response(h: TridiagonalHamiltonian, level: int = 0) -> float:
    """Static charge response S_m = sum_{k != m} |<k|n|m>|^2 / (E_k - E_m) of a level.

    phi . R phi for phi = (n - <n>) psi_m: one tridiagonal solve.
    """
    v, a, solve = _reduced_resolvent(h, level)
    phi = a * v
    return float(np.dot(phi, solve(phi)))


def fourth_order_terms(h: TridiagonalHamiltonian) -> tuple[float, float]:
    """The two terms whose difference is the ground state's E^(4) in V = n.

    By Wigner's 2n+1 rule: the first-order state is -x1 with x1 = R a psi_0,
    the second-order state x2 = R r2 with r2 = a x1 - S_0 psi_0, and
    E^(4) = S_0 |x1|^2 - r2 . x2, where S_0 = a psi_0 . x1.  Two solves with
    one decoupled matrix.
    """
    v, a, solve = _reduced_resolvent(h, 0)
    phi = a * v
    x1 = solve(phi)
    s0 = float(np.dot(phi, x1))
    r2 = a * x1 - s0 * v
    return s0 * float(np.dot(x1, x1)), float(np.dot(r2, solve(r2)))


def fourth_order_energy(h: TridiagonalHamiltonian) -> float:
    """Ground-state Rayleigh-Schroedinger E^(4) in V = n (``fourth_order_terms``)."""
    first, second = fourth_order_terms(h)
    return first - second


def dense_all(h: TridiagonalHamiltonian) -> Spectrum:
    """Full spectrum with eigenvectors via the dense LAPACK tridiagonal path.

    Reference oracle for small dimensions; ``DENSE_LIMIT`` keeps runtimes
    around a second.
    """
    if h.dim > DENSE_LIMIT:
        raise CapacityError(f"dim {h.dim} exceeds dense limit {DENSE_LIMIT}")
    if h.dim == 1:
        values, vectors = h.diag[:1], np.ones((1, 1))
    else:
        values, vectors, info = _lapack().dstevd(h.diag, h.off, compute_v=1)
        if info != 0:
            raise ConvergenceError(f"dstevd eigensolve did not converge (info {info})")
    pairs = [_with_vector(h, float(values[j]), vectors[:, j]) for j in range(h.dim)]
    return Spectrum(pairs, h.dim)
