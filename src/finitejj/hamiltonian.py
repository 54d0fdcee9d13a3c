"""Charge-basis Hamiltonian as a symmetric tridiagonal operator.

In the basis of population-imbalance eigenstates |n>, n in {-N, ..., N},
the junction Hamiltonian has diagonal entries ``E_C (n - n_g)^2`` and
couplings ``-(E_J / 2N) sqrt(N(N+1) - n(n+1))`` between n and n+1.

An operator over a charge window stores both as two flat double buffers,
``array('d')`` behind read-only memoryviews (8 bytes per state, handed to
LAPACK without a copy), computed once at construction, and holds at most
``ARRAY_LIMIT`` (2^26) states whether the window is full or not.  Large
islands fit through windows: the low-energy states are localized in charge.
A window is named by the integer basis offsets ``k = n + N`` in [0, 2N] of
its ends, as in ``TridiagonalHamiltonian(params, k_lo, k_hi)``;
``build(params, half_width)`` centres one on n_g.  In k the square root
argument factors as ``(2N - k)(k + 1)``, which stays cancellation-free for n
near the boundary at any island size.
"""

from __future__ import annotations

import math
from array import array

from .errors import CapacityError
from .model import ARRAY_LIMIT, CircuitParams

# Largest dimension for dense (matrix) materialization.
DENSE_LIMIT = 4001

class TridiagonalHamiltonian:
    """Symmetric tridiagonal operator over a charge window, held as two buffers.

    The window is the integer basis offsets [k_lo, k_hi] (default: the whole
    basis [0, 2N]); local index i in [0, dim) addresses offset ``k_lo + i``,
    charge ``n = k_lo + i - N``.  ``diag[i]`` is exact up to floating point;
    ``off[i]`` couples local states i and i+1 and is strictly negative away
    from the physical boundary, where it vanishes.  Both are computed at
    construction, with their bounds, as read-only memoryviews over ``array('d')``.
    """

    __slots__ = ("params", "k_lo", "dim", "diag", "off", "_bounds")

    def __init__(self, params: CircuitParams, k_lo: int = 0, k_hi: int | None = None):
        if k_hi is None:
            k_hi = params.pairs_total
        if not (float(k_lo).is_integer() and float(k_hi).is_integer()):
            raise ValueError(f"window offsets [{k_lo}, {k_hi}] must be integers")
        two_n = round(2.0 * params.n_half)  # = params.pairs_total
        if not 0 <= k_lo <= k_hi <= two_n:
            raise ValueError(f"window offsets [{k_lo}, {k_hi}] outside the basis [0, {two_n}]")
        k_lo, k_hi = int(k_lo), int(k_hi)
        dim = k_hi - k_lo + 1
        if dim > ARRAY_LIMIT:
            raise CapacityError(f"dim {dim} exceeds array limit {ARRAY_LIMIT}")
        diag, off = _diagonal(params, range(k_lo, k_hi + 1)), _couplings(params, range(k_lo, k_hi))
        for name, value in (("params", params), ("k_lo", k_lo), ("dim", dim),
                            ("diag", memoryview(array("d", diag)).toreadonly()),
                            ("off", memoryview(array("d", off)).toreadonly()),
                            ("_bounds", (min(diag), max(diag), max(map(abs, off), default=0.0)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TridiagonalHamiltonian is immutable")

    @property
    def is_full_window(self) -> bool:
        return self.k_lo == 0 and self.dim == self.params.pairs_total + 1

    def charges(self) -> array:
        return array("d", [k - self.params.n_half for k in range(self.k_lo, self.k_lo + self.dim)])

    def outside(self) -> tuple[array, array]:
        """(diag, off) of the two charges just past the window's ends, as the
        full operator holds them; off couples each to its end, 0 past a basis end."""
        lo, hi = self.k_lo - 1, self.k_lo + self.dim
        return (array("d", _diagonal(self.params, (lo, hi))),
                array("d", _couplings(self.params, (lo, hi - 1))))

    def diagonal_block(self, lo: int, hi: int) -> memoryview:
        """Read-only view of the diagonal for local indices [lo, hi)."""
        return self.diag[lo:hi]

    def offdiagonal_block(self, lo: int, hi: int) -> memoryview:
        """Read-only view of the couplings of local indices [lo, hi), each to i+1."""
        return self.off[lo:hi]

    def to_arrays(self) -> tuple[array, array]:
        """Writable copies of (diag, off)."""
        return array("d", self.diag.tobytes()), array("d", self.off.tobytes())

    def to_dense(self):
        """The operator as a dense numpy matrix (a test and tracing aid)."""
        import numpy as np

        if self.dim > DENSE_LIMIT:
            raise CapacityError(f"dim {self.dim} exceeds dense limit {DENSE_LIMIT}")
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def matvec(self, v) -> array:
        """H v, summed per row as diag v, then + off v_next, then + off_prev v_prev."""
        diag, off = self.diag, self.off
        if self.dim == 1:
            return array("d", [diag[0] * v[0]])
        v = memoryview(v)
        rows = [d * x + o * y + p * z
                for d, x, o, y, p, z in zip(diag[1:-1], v[1:-1], off[1:], v[2:], off, v)]
        return array("d", [diag[0] * v[0] + off[0] * v[1], *rows,
                           diag[-1] * v[-1] + off[-1] * v[-2]])

    def coefficient_bounds(self) -> tuple[float, float, float]:
        """(min diag, max diag, max |off|), taken at construction."""
        return self._bounds


def _diagonal(params: CircuitParams, k):
    # One rounding for n - n_g = k - center, same value at every index.
    e_c, center = params.e_c, float(params.n_half + params.n_g)
    return [e_c * (delta := j - center) * delta for j in k]


def _couplings(params: CircuitParams, k):
    """Couplings of basis offsets ``k`` to k + 1."""
    scale, two_n, sqrt = -(params.e_j / (2.0 * params.n_half)), 2.0 * params.n_half, math.sqrt
    return [scale * sqrt((two_n - j) * (j + 1.0)) for j in k]


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
