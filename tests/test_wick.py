"""Normal ordering, vacuum expectations, the Fock-walk oracle and the polynomial algebra."""

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


def normal_form(poly):
    """Normal form of ``poly`` as {canonical word: coefficient}, from each word's form."""
    form = {}
    for word, coeff in poly.terms():
        for canon, count in wick._normal_order_word(word):
            form[canon] = form.get(canon, 0) + coeff * count
    return {w: c for w, c in form.items() if c != 0}


class TestNormalOrder:
    def test_single_commutator(self):
        # b b† = b†b + 1
        assert wick._normal_order_word((LOWER, RAISE)) == (((), 1), ((RAISE, LOWER), 1))

    def test_quadratic_expansion(self):
        # (b + b†)^2 = b†b† + 2 b†b + bb + 1
        result = normal_form((lowering() + raising()) ** 2)
        assert result == {
            (RAISE, RAISE): 1, (RAISE, LOWER): 2, (LOWER, LOWER): 1, (): 1}

    def test_idempotent(self):
        # A word already in normal form, b†^m b^n, is its own normal form.
        for m in range(5):
            for n in range(5):
                canon = (RAISE,) * m + (LOWER,) * n
                assert wick._normal_order_word(canon) == ((canon, 1),)
        rng = np.random.default_rng(11)
        for _ in range(10):
            once = normal_form(random_poly(rng))
            assert normal_form(OperatorPoly(once)) == once

    def test_preserves_operator_in_fock_space(self):
        # <j| p |i> = <0| b^j p b†^i |0> / sqrt(i! j!) reads the non-vacuum
        # terms of each word's normal form, not only its identity coefficient.
        rng = np.random.default_rng(7)
        for _ in range(25):
            poly = random_poly(rng)
            dense = fock_matrix(poly, 64)
            for i in range(4):
                for j in range(4):
                    element = wick.vacuum_expectation(lowering() ** j * poly * raising() ** i)
                    element /= math.sqrt(math.factorial(i) * math.factorial(j))
                    assert element == pytest.approx(dense[j, i], rel=1e-12, abs=1e-12)

    def test_term_budget_guard(self):
        old = wick.TERM_CAP
        wick.TERM_CAP = 8
        try:
            with pytest.raises(TermBudgetError):
                _ = (lowering() + raising()) ** 6
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
            flip = {RAISE: LOWER, LOWER: RAISE}
            conjugate = OperatorPoly(
                {tuple(flip[s] for s in reversed(w)): c.conjugate() for w, c in p.terms()})
            assert wick.vacuum_expectation(conjugate) == pytest.approx(
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


class TestPolyAlgebra:
    def test_zero_coefficients_dropped(self):
        p = lowering() - lowering()
        assert p.n_terms == 0
        assert wick.vacuum_expectation(p) == 0

    def test_scalar_arithmetic(self):
        p = 2.0 * lowering() + 1.0
        assert p.coefficient((LOWER,)) == 2.0
        assert p.coefficient(()) == 1.0
        assert (p - 1.0).coefficient(()) == 0
