"""Normal ordering, vacuum expectations, and the affine frame change."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from finitejj import wick
from finitejj.errors import TermBudgetError
from finitejj.wick import LOWER, RAISE, OperatorPoly
from oracles import fock_matrix, fock_oracle_stable


def lowering():
    return OperatorPoly.lowering()


def raising():
    return OperatorPoly.raising()


class TestNormalOrder:
    def test_single_commutator(self):
        # b b† = b†b + 1
        result = wick.normal_order(lowering() * raising())
        assert result.coefficient((RAISE, LOWER)) == 1
        assert result.coefficient(()) == 1
        assert result.n_terms == 2

    def test_quadratic_expansion(self):
        # (b + b†)^2 = b†b† + 2 b†b + bb + 1
        result = wick.normal_order((lowering() + raising()) ** 2)
        assert result.coefficient((RAISE, RAISE)) == 1
        assert result.coefficient((RAISE, LOWER)) == 2
        assert result.coefficient((LOWER, LOWER)) == 1
        assert result.coefficient(()) == 1

    def test_preserves_operator_in_fock_space(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            poly = random_poly(rng)
            before = fock_matrix(poly, 64)
            after = fock_matrix(wick.normal_order(poly), 64)
            # Rows/columns touching the truncation boundary are garbage for
            # reordered words; compare the interior block only.
            keep = 64 - poly.degree()
            assert np.allclose(before[:keep, :keep], after[:keep, :keep], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            once = wick.normal_order(random_poly(rng))
            assert wick.normal_order(once) == once

    def test_term_budget_guard(self):
        old = wick.TERM_CAP
        wick.TERM_CAP = 8
        try:
            with pytest.raises(TermBudgetError):
                wick.normal_order((lowering() + raising()) ** 6)
            with pytest.raises(TermBudgetError):
                p = lowering() + raising() + OperatorPoly.identity()
                _ = p * p * p  # 27 raw words before collection
        finally:
            wick.TERM_CAP = old


class TestVacuumExpectation:
    def test_basic_elements(self):
        assert wick.vacuum_expectation(lowering() * raising()) == 1
        assert wick.vacuum_expectation(raising() * lowering()) == 0
        assert wick.vacuum_expectation(raising()) == 0
        assert wick.vacuum_expectation(OperatorPoly.identity()) == 1

    def test_quartic_pairing_count(self):
        # Three pairings of (b + b†)^4 survive in the vacuum.
        assert wick.vacuum_expectation((lowering() + raising()) ** 4) == 3

    @pytest.mark.parametrize("n", [30, 60])
    def test_long_word_is_n_factorial(self, n):
        # <0| b^n b†^n |0> = n!: n(n+1)/2 commutations, past any recursion limit.
        word = OperatorPoly.from_word((LOWER,) * n + (RAISE,) * n)
        assert wick.vacuum_expectation(word) == float(math.factorial(n))

    @given(
        alpha=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        beta=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        p = random_poly(rng, max_degree=4)
        q = random_poly(rng, max_degree=4)
        combined = wick.vacuum_expectation(alpha * p + beta * q)
        separate = alpha * wick.vacuum_expectation(p) + beta * wick.vacuum_expectation(q)
        assert combined == pytest.approx(separate, abs=1e-10)

    def test_hermitian_pair_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_poly(rng)
            assert wick.vacuum_expectation(p.dagger()) == pytest.approx(
                wick.vacuum_expectation(p).conjugate(), abs=1e-12
            )

    def test_matches_fock_oracle_battery(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            p = random_poly(rng, max_degree=6)
            engine = wick.vacuum_expectation(p)
            oracle = wick.fock_oracle(p, 8)  # exact above the degree
            assert abs(engine - oracle) < 1e-9


class TestFockOracle:
    def test_identity_and_single_raise(self):
        assert wick.fock_oracle(OperatorPoly.identity(), 4) == 1
        assert wick.fock_oracle(raising(), 4) == 0

    def test_stable_variant_converges(self):
        p = (lowering() + raising()) ** 4
        assert fock_oracle_stable(p) == pytest.approx(3.0)

    def test_stable_variant_reports_instability(self):
        from finitejj.errors import ConvergenceError

        p = (lowering() + raising()) ** 8
        with pytest.raises(ConvergenceError, match="unstable"):
            fock_oracle_stable(p, dim=2, max_dim=4)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            wick.fock_oracle(OperatorPoly.identity(), 0)

    def test_walk_matches_the_dense_matrix_at_every_truncation(self):
        # Dims from 1 to degree + 2 include every truncation that cuts a walk short.
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = random_poly(rng, max_degree=8)
            for dim in range(1, p.degree() + 3):
                dense = fock_matrix(p, dim)[0, 0]
                assert wick.fock_oracle(p, dim) == pytest.approx(dense, rel=1e-12, abs=1e-12)


class TestSubstituteAffine:
    def test_pure_displacement(self):
        # u+ = 1, u- = 0, u0 = c: a = b + i c, so <0| a |0> = i c.
        c = 0.73
        image = wick.substitute_affine(lowering(), 1.0, 0.0, c)
        assert wick.vacuum_expectation(image) == pytest.approx(1j * c)

    def test_occupation_of_rotated_vacuum(self):
        # u0 = 0: <0_b| a†a |0_b> = u_-^2.
        u_minus = 0.8
        u_plus = math.sqrt(1.0 + u_minus**2)
        image = wick.substitute_affine(raising() * lowering(), u_plus, u_minus)
        assert wick.vacuum_expectation(image) == pytest.approx(u_minus**2)

    def test_commutator_preserved_symbolically(self):
        u_minus = -0.35
        u_plus = math.sqrt(1.0 + u_minus**2)
        a = lowering()
        a_dag = raising()
        commutator = a * a_dag - a_dag * a
        image = wick.normal_order(
            wick.substitute_affine(commutator, u_plus, u_minus, 0.42)
        )
        assert image == OperatorPoly.identity()

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="symplectic"):
            wick.substitute_affine(lowering(), 1.1, 0.2)

    def test_against_numerically_constructed_vacuum(self):
        # Build the rotated mode in the original Fock space, extract its
        # vacuum as the null vector of B†B, and compare matrix elements.
        rng = np.random.default_rng(23)
        dim = 160
        lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
        for _ in range(5):
            r = rng.uniform(-0.8, 0.8)
            u_plus, u_minus = math.cosh(r), math.sinh(r)
            u_0 = rng.uniform(-0.5, 0.5)
            b_mat = u_plus * lower + u_minus * lower.conj().T - 1j * u_0 * np.eye(dim)
            _, vecs = np.linalg.eigh(b_mat.conj().T @ b_mat)
            vacuum = vecs[:, 0]
            poly = random_poly(rng, max_degree=4)
            direct = vacuum.conj() @ fock_matrix(poly, dim) @ vacuum
            engine = wick.vacuum_expectation(
                wick.substitute_affine(poly, u_plus, u_minus, u_0)
            )
            assert abs(direct - engine) < 1e-9


class TestPolyAlgebra:
    def test_dagger_involution(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng)
        assert p.dagger().dagger() == p

    def test_zero_coefficients_dropped(self):
        p = lowering() - lowering()
        assert p.n_terms == 0
        assert wick.vacuum_expectation(p) == 0

    def test_momentum_is_hermitian(self):
        p = OperatorPoly.momentum()
        assert p.dagger() == p

    def test_dump_readable(self):
        text = wick.dump(raising() * raising() * lowering() + OperatorPoly.identity(2.0))
        assert "b†^2 b" in text
        assert "(2)" in text

    def test_scalar_arithmetic(self):
        p = 2.0 * lowering() + 1.0
        assert p.coefficient((LOWER,)) == 2.0
        assert p.coefficient(()) == 1.0
        assert (p - 1.0).coefficient(()) == 0
