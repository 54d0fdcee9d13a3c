"""Charge-basis Hamiltonian as a symmetric tridiagonal operator.

In the basis of population-imbalance eigenstates |n>, n in {-N, ..., N},
the junction Hamiltonian has diagonal entries ``E_C (n - n_g)^2`` and
couplings ``-(E_J / 2N) sqrt(N(N+1) - n(n+1))`` between n and n+1.

An operator over a charge window stores both as two read-only arrays,
computed once at construction, and holds at most ``ARRAY_LIMIT`` (2^26)
states whether the window is full or not.  Large islands fit through
windows: the low-energy states are localized in charge.  A window is named
by the integer basis offsets ``k = n + N`` in [0, 2N] of its ends, as in
``TridiagonalHamiltonian(params, k_lo, k_hi)``; ``build(params, half_width)``
centres one on n_g.  In k the square root argument factors as
``(2N - k)(k + 1)``, which stays cancellation-free for n near the boundary
at any island size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import ARRAY_LIMIT, CircuitParams

# Largest dimension for dense (matrix) materialization.
DENSE_LIMIT = 4001

_LATTICE_TOL = 1e-9


class TridiagonalHamiltonian:
    """Symmetric tridiagonal operator over a charge window, held as two arrays.

    The window is the integer basis offsets [k_lo, k_hi] (default: the whole
    basis [0, 2N]); local index i in [0, dim) addresses offset ``k_lo + i``,
    charge ``n = k_lo + i - N``.  ``diag[i]`` is exact up to floating point;
    ``off[i]`` couples local states i and i+1 and is strictly negative away
    from the physical boundary, where it vanishes.  Both arrays are computed
    at construction and are read-only.
    """

    __slots__ = ("params", "k_lo", "dim", "diag", "off")

    def __init__(self, params: CircuitParams, k_lo: int = 0, k_hi: int | None = None):
        if k_hi is None:
            k_hi = params.pairs_total
        if not (float(k_lo).is_integer() and float(k_hi).is_integer()):
            raise ValueError(f"window offsets [{k_lo}, {k_hi}] must be integers")
        two_n = round(2.0 * params.n_half)  # = params.pairs_total
        if not 0 <= k_lo <= k_hi <= two_n:
            raise ValueError(f"window offsets [{k_lo}, {k_hi}] outside the basis [0, {two_n}]")
        dim = int(k_hi - k_lo) + 1
        if dim > ARRAY_LIMIT:
            raise CapacityError(f"dim {dim} exceeds array limit {ARRAY_LIMIT}")
        k = k_lo + np.arange(dim, dtype=float)
        diag, off = _diagonal(params, k), _couplings(params, k[:-1])
        diag.flags.writeable = off.flags.writeable = False
        for name, value in (("params", params), ("k_lo", int(k_lo)), ("dim", dim),
                            ("diag", diag), ("off", off)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TridiagonalHamiltonian is immutable")

    @property
    def is_full_window(self) -> bool:
        return self.k_lo == 0 and self.dim == self.params.pairs_total + 1

    def charges(self) -> np.ndarray:
        return (self.k_lo + np.arange(self.dim, dtype=float)) - self.params.n_half

    def outside(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag, off) of the two charges just past the window's ends, as the
        full operator holds them; off couples each to its end, 0 past a basis end."""
        past = np.array([self.k_lo - 1.0, self.k_lo + self.dim])
        return _diagonal(self.params, past), _couplings(self.params, past - [0, 1])

    def diagonal_block(self, lo: int, hi: int) -> np.ndarray:
        """Read-only view of the diagonal for local indices [lo, hi)."""
        return self.diag[lo:hi]

    def offdiagonal_block(self, lo: int, hi: int) -> np.ndarray:
        """Read-only view of the couplings of local indices [lo, hi), each to i+1."""
        return self.off[lo:hi]

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Writable copies of (diag, off)."""
        return self.diag.copy(), self.off.copy()

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_LIMIT:
            raise CapacityError(f"dim {self.dim} exceeds dense limit {DENSE_LIMIT}")
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.dim > 1:
            out[:-1] += self.off * v[1:]
            out[1:] += self.off * v[:-1]
        return out

    def coefficient_bounds(self) -> tuple[float, float, float]:
        """(min diag, max diag, max |off|)."""
        off_max = float(np.max(np.abs(self.off), initial=0.0))
        return float(self.diag.min()), float(self.diag.max()), off_max


def _diagonal(params: CircuitParams, k: np.ndarray) -> np.ndarray:
    # One rounding for n - n_g = k - center, same value at every index.
    delta = k - (params.n_half + params.n_g)
    return params.e_c * delta * delta


def _couplings(params: CircuitParams, k: np.ndarray) -> np.ndarray:
    """Couplings of basis offsets ``k`` to k + 1."""
    return -(params.e_j / (2.0 * params.n_half)) * np.sqrt((2.0 * params.n_half - k) * (k + 1.0))


def build(params: CircuitParams, half_width: int | None = None) -> TridiagonalHamiltonian:
    """Whole-basis operator, or the window of ``half_width`` offsets either side
    of the basis point nearest n_g, clipped to [0, 2N]."""
    if half_width is None:
        return TridiagonalHamiltonian(params)
    if half_width < 0:
        raise ValueError("half_width must be non-negative")
    two_n = params.pairs_total
    k_c = min(max(round(params.n_g + params.n_half), 0), two_n)
    return TridiagonalHamiltonian(params, max(k_c - half_width, 0), min(k_c + half_width, two_n))


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

