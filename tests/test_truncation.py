"""The window truncation bounds, against 50-digit oracles of the window and the whole basis.

A certified window's <n>, S_m = <a psi, R a psi> and fourth-order energy E4
differ from the whole basis's by at most ``eigensolve``'s bounds.  Each
oracle below takes the program's float coefficients as exact inputs and
solves them at 50 digits: levels by Rayleigh-quotient iteration from the
float pair, responses by the same decoupled tridiagonal solve the program
uses, so the window value minus the whole-basis value measures truncation
alone.  Where the whole basis is too large (2N = 5e8), a window of half-width
256 stands in for it, checked against half-width 192.
"""

import math
import warnings
from array import array

import mpmath
import numpy as np
import pytest

from finitejj import eigensolve
from finitejj.eigensolve import (EdgeBound, _norm, _times, certified_lowest, charge_response,
                                 edge_bound, eigenpair, fourth_order_bound, fourth_order_terms,
                                 imbalance_bound, lowest_eigenvalues, response_bound)
from finitejj.errors import WindowConvergenceError
from finitejj.hamiltonian import TridiagonalHamiltonian, build
from finitejj.model import CircuitParams
from finitejj.observables import initial_half_width

DPS = 50


def _solve(diag, off, rhs):
    """Tridiagonal solve with partial pivoting (LAPACK dgtsv's scheme) at the working precision.

    ``off`` couples i and i+1.  Pivoting matters: at n_g = 0 the odd level 1
    vanishes mid-window, and a leading block of H - E_1 is singular there.
    """
    n = len(diag)
    d, du, dl, b = list(diag), list(off), list(off), list(rhs)
    du2 = [mpmath.mpf(0)] * n
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i] if d[i] else 0
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    x = [mpmath.mpf(0)] * n
    for i in reversed(range(n)):
        x[i] = (b[i] - (du[i] * x[i + 1] if i < n - 1 else 0)
                - (du2[i] * x[i + 2] if i < n - 2 else 0)) / d[i]
    return x


def _dot(u, v):
    return mpmath.fsum(a * b for a, b in zip(u, v))


class Exact:
    """Level ``level`` of the tridiagonal (diag, off) at 50 digits, with its responses.

    ``charges`` label the states (any common origin); the level is refined by
    Rayleigh-quotient iteration from the float pair (value, vector), keeping
    the float vector's sign.
    """

    def __init__(self, diag, off, charges, value, vector):
        self.diag = [mpmath.mpf(float(x)) for x in diag]
        self.off = [mpmath.mpf(float(x)) for x in off]
        self.n = [mpmath.mpf(float(q)) for q in charges]
        start = [mpmath.mpf(float(x)) for x in vector]
        psi, mu = start, mpmath.mpf(float(value))
        for _ in range(6):
            psi = _solve([a - mu for a in self.diag], self.off, psi)
            norm = mpmath.sqrt(_dot(psi, psi)) * mpmath.sign(_dot(psi, start))
            psi = [x / norm for x in psi]
            mu = _dot(psi, self.matvec(psi))
        self.value, self.psi = mu, psi
        self.m = _dot(self.n, [x * x for x in psi])

    def matvec(self, v):
        out = [a * x for a, x in zip(self.diag, v)]
        for i, b in enumerate(self.off):
            out[i] += b * v[i + 1]
            out[i + 1] += b * v[i]
        return out

    def resolve(self, phi):
        """R phi for phi orthogonal to psi: the program's decoupled solve, projected."""
        j = max(range(len(self.psi)), key=lambda i: abs(self.psi[i]))
        diag = [a - self.value for a in self.diag]
        diag[j] = mpmath.mpf(1)
        off = list(self.off)
        off[max(j - 1, 0):j + 1] = [mpmath.mpf(0)] * len(off[max(j - 1, 0):j + 1])
        x = _solve(diag, off, phi)
        x[j] = mpmath.mpf(0)
        overlap = _dot(self.psi, x)
        return [a - overlap * p for a, p in zip(x, self.psi)]

    def vectors(self):
        """(f, x1, S, r2, x2): f = a psi, x1 = R f, S = <f, x1>, r2 = a x1 - S psi, x2 = R r2."""
        f = [(q - self.m) * p for q, p in zip(self.n, self.psi)]
        x1 = self.resolve(f)
        s = _dot(f, x1)
        r2 = [(q - self.m) * x - s * p for q, x, p in zip(self.n, x1, self.psi)]
        return f, x1, s, r2, self.resolve(r2)

    def responses(self):
        """(S, E4) of the level: S = <a psi, x1>, E4 = S |x1|^2 - <r2, R r2>."""
        _, x1, s, r2, x2 = self.vectors()
        return s, s * _dot(x1, x1) - _dot(r2, x2)


def exact(h: TridiagonalHamiltonian, level: int, origin: int = 0) -> Exact:
    pair = eigenpair(h, level)
    charges = h.k_lo - origin + np.arange(h.dim)
    return Exact(h.diag, h.off, charges, pair.value, pair.vector)


def first_proven(p: CircuitParams, level: int):
    """(window, edge) at the first doubling whose levels 0..level+1 are certified.

    None where that window is the whole basis, which needs no bound.
    """
    w = initial_half_width(p)
    while True:
        h = build(p, w)
        if h.is_full_window:
            return None
        spectrum, radii = certified_lowest(h, level + 2)
        edge = radii and edge_bound(h, spectrum, radii, eigenpair(h, level, spectrum).vector,
                                    level)
        if edge:
            return h, edge
        w *= 2


def whole_basis(p: CircuitParams, level: int):
    """The whole basis, or for 2N beyond 10^4 a half-width 256 window checked against 192."""
    if p.pairs_total <= 10**4:
        return build(p)
    wide, narrow = (exact(build(p, w), level) for w in (256, 192))
    assert abs(wide.value - narrow.value) < mpmath.mpf(10) ** -40
    return build(p, 256)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(DPS):
        yield


GRID = [(pairs, ejec) for pairs in (60, 1000, 500_000_000) for ejec in (10.0, 50.0, 100.0)]


@pytest.mark.parametrize("ng", [0.0, 0.3])
@pytest.mark.parametrize("pairs, ejec", GRID)
def test_imbalance_and_susceptibility_within_their_bounds(pairs, ejec, ng):
    p = CircuitParams.from_pairs(pairs, e_j=ejec, e_c=1.0, n_g=ng)
    h, edge = first_proven(p, 0)
    s, v, a, x, _ = charge_response(h)
    n_bound = imbalance_bound(edge, a, v)
    s_bound = response_bound(edge, a, v, x)[0]
    # Not vacuous at the first certified window.
    assert 0.0 < n_bound < 1e-6 and 0.0 < s_bound < 1e-6 * abs(s)
    full = whole_basis(p, 0)
    win, ref = exact(h, 0, full.k_lo), exact(full, 0, full.k_lo)
    assert abs(win.m - ref.m) <= n_bound
    assert abs(win.responses()[0] - ref.responses()[0]) <= s_bound


@pytest.mark.parametrize("pairs, ejec", [g for g in GRID if g[0] <= 1000])
def test_curvature_responses_within_their_bounds(pairs, ejec):
    # S_0, S_1 (the dispersion curvature) and E4 (the susceptibility curvature) at n_g = 0.
    p = CircuitParams.from_pairs(pairs, e_j=ejec, e_c=1.0)
    full = build(p)
    for level in (0, 1):
        if (proven := first_proven(p, level)) is None:
            continue  # level 1 at E_J/E_C = 100, 2N = 60: first proven on the whole basis
        h, edge = proven
        s, v, a, x, _ = charge_response(h, level)
        bound = response_bound(edge, a, v, x)[0]
        assert 0.0 < bound < 1e-6 * abs(s)
        assert abs(exact(h, level).responses()[0]
                   - exact(full, level, h.k_lo).responses()[0]) <= bound
        if level == 0:
            first, second, x2, _ = fourth_order_terms(h)
            bound = fourth_order_bound(edge, a, v, x, s, x2)[0]
            assert 0.0 < bound < 1e-4 * max(first, second)
            assert abs(exact(h, 0).responses()[1]
                       - exact(full, 0, h.k_lo).responses()[1]) <= bound


@pytest.mark.parametrize("pairs, ejec, ng", [(60, 50.0, 0.3), (1000, 100.0, 0.0),
                                             (1000, 10.0, 0.3)])
def test_lemma_holds_for_the_full_vector(pairs, ejec, ng):
    # The angle, the value's shift and every outside amplitude of the 50-digit
    # whole-basis vector lie within what ``edge_bound`` proves.
    p = CircuitParams.from_pairs(pairs, e_j=ejec, e_c=1.0, n_g=ng)
    h, edge = first_proven(p, 0)
    full = build(p)
    ref, win = exact(full, 0), exact(h, 0)
    inside = ref.psi[h.k_lo:h.k_lo + h.dim]
    cos = abs(_dot(inside, win.psi)) / mpmath.sqrt(_dot(inside, inside))
    assert mpmath.sqrt(1 - cos * cos) <= edge.sin_theta
    assert abs(ref.value - win.value) <= edge.shift
    for corner, _, t, q, _, _ in edge.sides:
        out = (ref.psi[:h.k_lo][::-1] if corner == 0 else ref.psi[h.k_lo + h.dim:])
        assert all(abs(amp) <= t * q**i for i, amp in enumerate(out[:40]))


@pytest.mark.parametrize("pairs, ejec, level", [(1000, 50.0, 0), (1000, 50.0, 1),
                                                (60, 50.0, 0), (1000, 100.0, 0)])
def test_window_responses_leave_residuals_within_their_bounds(pairs, ejec, level):
    # The window's responses, zero outside, solve the whole basis's response
    # equations up to rho = f - (H - E) x1 and rho2 = r2 - (H - E) x2.  Past
    # each end these hold b_edge times the responses' edge amplitudes, most
    # of the exact residual here.
    p = CircuitParams.from_pairs(pairs, e_j=ejec, e_c=1.0)
    h, edge = first_proven(p, level)
    s, v, a, x1, _ = charge_response(h, level)
    rho = response_bound(edge, a, v, x1)[1]
    full = build(p)
    ref, win = exact(full, level), exact(h, level)
    # A vector's sign is a convention: level 1 at n_g = 0 is odd, so rounding
    # picks which of its two equal peaks comes out positive.  The responses
    # flip with the vector; take the window's sign from the whole basis's.
    sign = mpmath.sign(_dot(ref.psi[h.k_lo:h.k_lo + h.dim], win.psi))
    padded = [[mpmath.mpf(0)] * h.k_lo + [sign * c for c in x]
              + [mpmath.mpf(0)] * (full.dim - h.k_lo - h.dim) for x in win.vectors()[1::3]]
    f, _, _, r2, _ = ref.vectors()
    bounds = [(f, rho)]
    if level == 0:
        x2 = fourth_order_terms(h)[2]
        bounds.append((r2, fourth_order_bound(edge, a, v, x1, s, x2)[1]))
    for (source, bound), x in zip(bounds, padded):
        hx = ref.matvec(x)
        residual = [c - (y - ref.value * z) for c, y, z in zip(source, hx, x)]
        assert mpmath.sqrt(_dot(residual, residual)) <= bound


def _grown(x, corner):
    """``x`` with its amplitude at ``corner`` grown by 2^-36 ||x||."""
    y = array("d", x)
    y[corner] += math.copysign(2.0**-36 * _norm(x), x[corner])
    return y


@pytest.mark.parametrize("pairs, ng", [(1000, 0.3), (500_000_000, 0.0)])
@pytest.mark.parametrize("corner", [0, -1])
def test_bounds_grow_with_each_corner_amplitude_they_cover(pairs, ng, corner, monkeypatch):
    """Past each window end, b_edge times a response vector's edge amplitude enters the
    residual: x in ``response_bound``, x1 and x2 in ``fourth_order_bound``.  Growing that
    amplitude, and no norm the bounds read, must grow the bound."""
    h, edge = first_proven(CircuitParams.from_pairs(pairs, e_j=50.0, e_c=1.0, n_g=ng), 0)
    _, _, x2, (s0, v, a, x1, _) = fourth_order_terms(h, eigenpair(h, 0))
    y1, y2 = _grown(x1, corner), _grown(x2, corner)
    norms = [(_norm(x), _norm(_times(a, x))) for x in (x1, x2)]
    assert [(_norm(y), _norm(_times(a, y))) for y in (y1, y2)] == norms
    assert response_bound(edge, a, v, y1)[0] > response_bound(edge, a, v, x1)[0]
    bound = fourth_order_bound(edge, a, v, x1, s0, x2)[0]
    assert fourth_order_bound(edge, a, v, x1, s0, y2)[0] > bound
    # x1 enters through response_bound too: held fixed, x1's own outside term must grow.
    held = response_bound(edge, a, v, x1)
    monkeypatch.setattr(eigensolve, "response_bound", lambda *args: held)
    assert fourth_order_bound(edge, a, v, y1, s0, x2)[0] > bound


def test_imbalance_bound_covers_every_vector_within_the_angle():
    # The window part of psi may be any unit vector u within theta of phi:
    # u = cos t phi + sin t w.  Charge on the far corner (w along e_edge) needs
    # the sin^2 term; w along a phi needs the 2 sin t term.
    h = build(CircuitParams.from_pairs(1000, e_j=50.0, e_c=1.0, n_g=0.3), 16)
    phi = np.asarray(eigenpair(h).vector)
    n = np.arange(h.dim, dtype=float)
    a = n - np.dot(n, phi * phi)
    for sin in (1e-3, 0.3, 0.9):
        edge = EdgeBound(sin_theta=sin, gap=1.0, shift=0.0, sides=(), ng=0.0)
        for target in (a * phi, np.eye(h.dim)[0], np.eye(h.dim)[-1]):
            w = target - np.dot(target, phi) * phi
            w /= np.linalg.norm(w)
            u = math.sqrt(1.0 - sin * sin) * phi + sin * w
            assert abs(np.dot(u, a * u)) <= imbalance_bound(edge, a, phi)


def test_imbalance_bound_covers_the_widest_outside_tail():
    # With no angle, the whole bound is the outside sum: |psi_out[i]| may reach t q^i.
    a = np.arange(-3.0, 4.0)
    phi = np.zeros(7)
    phi[3] = 1.0
    for q in (0.1, 0.5, 0.9):
        sides = ((0, -1.0, 0.01, q, 1.0, 4.0), (-1, -1.0, 0.02, q, 1.0, 4.0))
        edge = EdgeBound(sin_theta=0.0, gap=1.0, shift=0.0, sides=sides, ng=0.0)
        widest = sum(t * t * (abs(a[corner]) + 1 + i) * q ** (2 * i)
                     for corner, _, t, _, _, _ in sides for i in range(2000))
        assert widest <= imbalance_bound(edge, a, phi) <= 4.0 * widest


def test_no_proof_without_room_or_without_a_gap_beyond_the_radii():
    # Half-width 2 at E_J/E_C = 400: the parabola does not dominate past the window.
    h = build(CircuitParams.from_pairs(2_000_000, e_j=400.0, e_c=1.0, n_g=0.3), 2)
    spectrum = lowest_eigenvalues(h, 2)
    radii = [1e-12, 1e-12]
    assert edge_bound(h, spectrum, radii, eigenpair(h, 0, spectrum).vector) is None
    # Charge regime at a degeneracy: E_1 - E_0 is 4e-15, below the radii, so
    # the certified values do not separate the levels, and since the radii
    # grow with the window no wider one will.
    p = CircuitParams.from_pairs(1000, e_j=1e-14, e_c=1.0, n_g=0.5)
    h = build(p, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectrum, radii = certified_lowest(h, 2)
        assert len(radii) == 2 and spectrum.pairs[1].value - spectrum.pairs[0].value > 0.0
        with pytest.raises(WindowConvergenceError, match="radii"):
            edge_bound(h, spectrum, radii, eigenpair(h, 0, spectrum).vector)


def test_window_not_holding_the_offset_charge_proves_nothing():
    # n_g = 0 lies far to the right of offsets 0..20 of 2N = 1000: past the
    # right end the diagonal falls towards n_g, below the window's values, so
    # the room check refuses it.
    p = CircuitParams.from_pairs(1000, e_j=50.0, e_c=1.0)
    h = TridiagonalHamiltonian(p, 0, 20)
    assert eigensolve.certified_lowest(h, 2)[1] == []
