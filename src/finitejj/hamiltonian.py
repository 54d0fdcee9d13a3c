"""Charge-basis Hamiltonian as a symmetric tridiagonal operator.

In the basis of population-imbalance eigenstates |n>, n in {-N, ..., N},
the junction Hamiltonian has diagonal entries ``E_C (n - n_g)^2`` and
couplings ``-(E_J / 2N) sqrt(N(N+1) - n(n+1))`` between n and n+1.

An operator over a charge window stores both as two read-only arrays,
computed once at construction, and holds at most ``ARRAY_LIMIT`` (2^26)
states whether the window is full or not.  Large islands fit through
windows: the low-energy states are localized in charge.  Internally the
basis is indexed by the integer offset ``k = n + N`` in [0, 2N]; the square
root argument then factors as ``(2N - k)(k + 1)``, which stays
cancellation-free for n near the boundary at any island size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import ARRAY_LIMIT, CircuitParams

# Largest dimension for dense (matrix) materialization.
DENSE_LIMIT = 4001

_LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class ChargeWindow:
    """Contiguous sub-range [n_lo, n_hi] of the physical charge basis."""

    n_lo: float
    n_hi: float

    @classmethod
    def full(cls, n_half: float) -> "ChargeWindow":
        return cls(-n_half, n_half)

    @classmethod
    def centered(cls, n_half: float, center: float, half_width: int) -> "ChargeWindow":
        """Window of the given half-width around the basis point nearest ``center``.

        Clipped to [-N, N]; a half-width covering the whole basis yields the
        full window.
        """
        if half_width < 0:
            raise ValueError("half_width must be non-negative")
        k_c = int(round(center + n_half))  # integer offset of the nearest basis point
        k_c = min(max(k_c, 0), int(round(2 * n_half)))
        k_lo = max(k_c - half_width, 0)
        k_hi = min(k_c + half_width, int(round(2 * n_half)))
        return cls(k_lo - n_half, k_hi - n_half)


class TridiagonalHamiltonian:
    """Symmetric tridiagonal operator over a charge window, held as two arrays.

    Local index i in [0, dim) addresses charge ``n = n_lo + i``.  ``diag[i]``
    is exact up to floating point; ``off[i]`` couples local states i and i+1
    and is strictly negative away from the physical boundary, where it
    vanishes.  Both arrays are computed at construction and are read-only.
    """

    __slots__ = ("params", "window", "dim", "diag", "off", "_k_lo")

    def __init__(self, params: CircuitParams, window: ChargeWindow):
        two_n = params.pairs_total
        k_lo = round(window.n_lo + params.n_half)
        k_hi = round(window.n_hi + params.n_half)
        if abs(window.n_lo + params.n_half - k_lo) > _LATTICE_TOL or abs(
            window.n_hi + params.n_half - k_hi
        ) > _LATTICE_TOL:
            raise ValueError("window bounds must sit on the charge lattice")
        if k_lo < 0 or k_hi > two_n or k_lo > k_hi:
            raise ValueError(
                f"window [{window.n_lo}, {window.n_hi}] outside physical basis "
                f"[{-params.n_half}, {params.n_half}]"
            )
        dim = int(k_hi - k_lo) + 1
        if dim > ARRAY_LIMIT:
            raise CapacityError(f"dim {dim} exceeds array limit {ARRAY_LIMIT}")
        k = k_lo + np.arange(dim, dtype=float)
        diag, off = _diagonal(params, k), _couplings(params, k[:-1])
        diag.flags.writeable = off.flags.writeable = False
        for name, value in (("params", params), ("window", window), ("dim", dim),
                            ("diag", diag), ("off", off), ("_k_lo", int(k_lo))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TridiagonalHamiltonian is immutable")

    @property
    def is_full_window(self) -> bool:
        return self._k_lo == 0 and self.dim == self.params.pairs_total + 1

    def charges(self) -> np.ndarray:
        return (self._k_lo + np.arange(self.dim, dtype=float)) - self.params.n_half

    def outside(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag, off) of the two charges just past the window's ends, as the
        full operator holds them; off couples each to its end, 0 past a basis end."""
        past = np.array([self._k_lo - 1.0, self._k_lo + self.dim])
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


def build(params: CircuitParams) -> TridiagonalHamiltonian:
    """Full-basis operator."""
    return TridiagonalHamiltonian(params, ChargeWindow.full(params.n_half))


def build_windowed(params: CircuitParams, window: ChargeWindow) -> TridiagonalHamiltonian:
    """Operator restricted to a charge window, coefficients unchanged."""
    return TridiagonalHamiltonian(params, window)


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

