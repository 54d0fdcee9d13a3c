"""Tridiagonal coefficients, charge windows, and the spin-matrix identities."""

import math
from array import array

import numpy as np
import pytest

from finitejj.errors import CapacityError
from finitejj.eigensolve import charge_response, dense_all, fourth_order_terms, lowest_eigenvalues
from finitejj.hamiltonian import TridiagonalHamiltonian, build
from finitejj.model import CircuitParams
from oracles import spin_matrices, values_of


def params(pairs, ejec, ng=0.0, ec=1.0):
    return CircuitParams.from_pairs(pairs, e_j=ejec * ec, e_c=ec, n_g=ng)


class TestCoefficients:
    def test_minimal_junction(self):
        h = build(params(1, 1.0))
        assert h.diag.tolist() == [0.25, 0.25]
        assert h.off[0] == pytest.approx(-1.0)

    def test_three_state_junction(self):
        h = build(params(2, 1.0))
        assert h.diag.tolist() == [1.0, 0.0, 1.0]
        # sqrt(2 - 0) = sqrt2 and E_J/2N = 1/2 on both links
        assert h.off[0] == pytest.approx(-math.sqrt(2.0) / 2.0)
        assert h.off[1] == pytest.approx(-math.sqrt(2.0) / 2.0)

    def test_boundary_coupling_value(self):
        # coupling out of n = N-1 is -(E_J/2N) sqrt(2N) for any island size
        for pairs in (2, 11, 500, 10**6):
            p = params(pairs, 3.0)
            h = build(p)
            expected = -(p.e_j / pairs) * math.sqrt(pairs)
            assert h.off[h.dim - 2] == pytest.approx(expected, rel=1e-14)

    def test_bulk_coupling_approaches_half_ej(self):
        # at fixed charge the coupling tends to -E_J/2 as the island grows
        ratios = []
        for pairs in (10, 1000, 10**6):
            p = params(pairs, 2.0)
            h = build(p)
            center = h.dim // 2
            ratios.append(h.off[center] / (-p.e_j / 2.0))
        assert abs(ratios[-1] - 1.0) < 1e-6
        assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)

    def test_all_couplings_negative(self):
        h = build(params(9, 0.7, ng=0.3))
        off = h.offdiagonal_block(0, h.dim - 1)
        assert all(x < 0.0 for x in off)

    def test_blocks_match_scalars(self):
        # Each element against E_C (n - n_g)^2 and -(E_J/2N) sqrt(N(N+1) - n(n+1)).
        p = params(8, 1.7, ng=0.21)
        h = build(p)
        n = [i - p.n_half for i in range(h.dim)]
        diag = [p.e_c * (m - p.n_g) ** 2 for m in n]
        off = [-(p.e_j / p.pairs_total) * math.sqrt(p.n_half * (p.n_half + 1) - m * (m + 1))
               for m in n[:-1]]
        assert h.diagonal_block(0, h.dim) == pytest.approx(diag, rel=1e-15)
        assert h.offdiagonal_block(0, h.dim - 1) == pytest.approx(off, rel=1e-15)

    def test_huge_dimension_is_refused_but_its_window_builds(self):
        p = params(500_000_000, 50.0, ng=1e6)
        with pytest.raises(CapacityError, match="array limit"):
            build(p)
        h = build(p, 16)
        assert h.dim == 33
        assert all(map(math.isfinite, h.diag))
        assert all(x < 0.0 for x in h.off)

    def test_operator_and_its_arrays_are_immutable(self):
        h = build(params(20, 3.0, ng=0.3))
        with pytest.raises(AttributeError):
            h.dim = 3
        for buffer in (h.diag, h.off):
            with pytest.raises(TypeError, match="read-only"):
                buffer[0] = 0.0
        diag, off = h.diag.tobytes(), h.off.tobytes()
        charge_response(h, 1)
        fourth_order_terms(h)
        assert h.diag.tobytes() == diag
        assert h.off.tobytes() == off

    @pytest.mark.parametrize("dim", [1, 2, 3, 57])
    def test_matvec_sums_each_row_in_numpys_order(self, dim):
        # diag v, then + off v_next, then + off_prev v_prev, bit for bit.
        h = TridiagonalHamiltonian(params(60, 1.3, ng=0.37), 2, 1 + dim)
        v = np.random.default_rng(dim).standard_normal(dim)
        diag, off = np.asarray(h.diag), np.asarray(h.off)
        expected = diag * v
        expected[:-1] += off * v[1:]
        expected[1:] += off * v[:-1]
        assert np.asarray(h.matvec(array("d", v))).tobytes() == expected.tobytes()


class TestWindows:
    def test_full_window_spectrum_identical(self):
        p = params(12, 0.8, ng=0.4)
        full = build(p)
        windowed = TridiagonalHamiltonian(p, 0, p.pairs_total)
        assert values_of(dense_all(full)) == pytest.approx(values_of(dense_all(windowed)),
                                                           rel=1e-15)

    def test_window_outside_basis_rejected(self):
        p = params(10, 1.0)
        for k_lo, k_hi in ((-1, 8), (0, 11), (5, 4)):
            with pytest.raises(ValueError, match="outside"):
                TridiagonalHamiltonian(p, k_lo, k_hi)
        with pytest.raises(ValueError, match="half_width"):
            build(p, -1)

    @pytest.mark.parametrize("k_lo, k_hi", [(2.5, 8), (2, 7.5), (float("nan"), 8),
                                            (0, float("inf"))])
    def test_non_integer_offsets_rejected(self, k_lo, k_hi):
        with pytest.raises(ValueError, match="integers"):
            TridiagonalHamiltonian(params(10, 1.0), k_lo, k_hi)

    def test_integral_float_offsets_name_the_same_window(self):
        p = params(10, 1.0, ng=0.3)
        h, same = TridiagonalHamiltonian(p, 2, 8), TridiagonalHamiltonian(p, 2.0, 8.0)
        assert (same.k_lo, same.dim) == (h.k_lo, h.dim) == (2, 7)
        assert np.array_equal(same.diag, h.diag) and np.array_equal(same.off, h.off)

    def test_windowed_coefficients_match_full(self):
        p = params(20, 5.0, ng=1.0)
        full = build(p)
        win = build(p, 4)
        offset = win.k_lo - full.k_lo
        for i in range(win.dim):
            assert win.diag[i] == full.diag[i + offset]
            if i < win.dim - 1:
                assert win.off[i] == full.off[i + offset]

    def test_large_island_window_reproduces_full_gap(self):
        # 2N = 2e4 at E_J/E_C = 50: +-50 charge states around the offset hold
        # the low levels to ten digits.
        p = params(20_000, 50.0)
        full = lowest_eigenvalues(build(p), 2)
        win = build(p, 50)
        wspec = lowest_eigenvalues(win, 2)
        gap_full = values_of(full)[1] - values_of(full)[0]
        gap_win = values_of(wspec)[1] - values_of(wspec)[0]
        assert gap_win == pytest.approx(gap_full, rel=1e-10)

    def test_outside_charges_are_the_full_operators(self):
        p = params(40, 5.0, ng=0.3)
        full = build(p)
        diag, off = TridiagonalHamiltonian(p, 17, 24).outside()  # charges -3..4
        assert diag.tolist() == [full.diag[16], full.diag[25]]
        assert off.tolist() == [full.off[16], full.off[24]]
        # Past a basis end there is no charge to couple to.
        assert TridiagonalHamiltonian(p, 0, 5).outside()[1][0] == 0.0
        assert TridiagonalHamiltonian(p, 35, 40).outside()[1][1] == 0.0

    def test_centered_window_clips_to_basis(self):
        assert build(params(10, 1.0, ng=20.0), 3).charges().tolist() == [2.0, 3.0, 4.0, 5.0]
        assert build(params(10, 1.0, ng=-20.0), 3).charges().tolist() == [-5.0, -4.0, -3.0, -2.0]
        assert build(params(10, 1.0, ng=0.4), 100).is_full_window


class TestSpinMatrices:
    def test_half_pauli_representation(self):
        s = spin_matrices(0.5)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        sx = flip @ s.sx @ flip
        sy = flip @ s.sy @ flip
        sz = flip @ s.sz @ flip
        assert sx == pytest.approx(np.array([[0, 0.5], [0.5, 0]]))
        assert sy == pytest.approx(np.array([[0, -0.5j], [0.5j, 0]]))
        assert sz == pytest.approx(np.array([[0.5, 0], [0, -0.5]]))

    @pytest.mark.parametrize("pairs", [1, 2, 3, 10, 41, 200])
    def test_su2_algebra_and_casimir(self, pairs):
        n_half = pairs / 2.0
        s = spin_matrices(n_half)
        commutator = s.sx @ s.sy - s.sy @ s.sx
        assert np.max(np.abs(commutator - 1j * s.sz)) < 1e-13 * max(1.0, n_half)
        casimir = s.sx @ s.sx + s.sy @ s.sy + s.sz @ s.sz
        expected = n_half * (n_half + 1.0) * np.eye(pairs + 1)
        assert np.max(np.abs(casimir - expected)) < 1e-13 * n_half * (n_half + 1.0)

    @pytest.mark.parametrize("pairs,ejec,ng", [(1, 1.0, 0.0), (10, 0.2, 0.37), (41, 5.0, -1.2)])
    def test_assembled_operator_matches_tridiagonal(self, pairs, ejec, ng):
        p = params(pairs, ejec, ng=ng)
        s = spin_matrices(p.n_half)
        eye = np.eye(pairs + 1)
        assembled = p.e_c * (s.sz - ng * eye) @ (s.sz - ng * eye) - (
            p.e_j / p.n_half
        ) * s.sx
        assert np.max(np.abs(assembled.imag)) < 1e-13
        h = build(p)
        dense = h.to_dense()
        assert np.max(np.abs(assembled.real - dense)) < 1e-13 * max(1.0, np.max(np.abs(dense)))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            spin_matrices(4001.0)

    def test_hermitian(self):
        s = spin_matrices(1.5)
        for m in (s.sx, s.sy, s.sz):
            assert np.allclose(m, m.conj().T)


class TestSymmetries:
    @pytest.mark.parametrize("ng", [0.17, 0.5, 2.3])
    def test_charge_conjugation_spectrum(self, ng):
        p = params(10, 0.9)
        plus = values_of(dense_all(build(p.with_ng(ng))))
        minus = values_of(dense_all(build(p.with_ng(-ng))))
        scale = np.max(np.abs(plus))
        assert np.max(np.abs(plus - minus)) < 1e-12 * scale

    def test_ground_vector_positive(self):
        # negative couplings make the ground state a Perron vector
        for pairs, ejec, ng in [(6, 0.5, 0.0), (20, 3.0, 0.8), (30, 1.0, -2.5)]:
            spec = dense_all(build(params(pairs, ejec, ng=ng)))
            v = spec.pairs[0].vector
            assert all(x > 0.0 for x in v)

