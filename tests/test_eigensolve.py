"""Certified eigenvalues against dense and mpmath oracles, plus the solver invariants."""

import collections
import ctypes
import importlib.machinery
import importlib.util
import itertools
import math
import os
import subprocess
import sys
import warnings
from array import array
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import mathieu_a, mathieu_b

from finitejj import eigensolve
from finitejj.errors import (CapacityError, ConvergenceError, NearDegenerateWarning,
                             WindowConvergenceError)
from finitejj.eigensolve import (
    charge_response,
    dense_all,
    eigenpair,
    eigenvalue_count_below,
    fourth_order_terms,
    lowest_eigenvalues,
)
from finitejj.hamiltonian import TridiagonalHamiltonian, build
from finitejj.model import CircuitParams, coupling_bound
from oracles import mp_levels, one_shift_certificate, ulps, values_of

SRC = Path(__file__).resolve().parents[1] / "src"


def params(pairs, ejec, ng=0.0, ec=1.0):
    return CircuitParams.from_pairs(pairs, e_j=ejec * ec, e_c=ec, n_g=ng)


def random_params(rng):
    pairs = int(rng.integers(1, 1001))
    ejec = 10.0 ** rng.uniform(-2, 2)
    ng = rng.uniform(-1.5, 1.5) * pairs
    return params(pairs, ejec, ng=ng)


def mpmath_matrix(mpmath, h):
    """The operator's coefficients as a dense mpmath matrix."""
    diag, off = h.to_arrays()
    a = mpmath.diag([mpmath.mpf(d) for d in diag.tolist()])
    for i, o in enumerate(off.tolist()):
        a[i, i + 1] = a[i + 1, i] = mpmath.mpf(o)
    return a


def lapack_starts(monkeypatch, start):
    """Make LAPACK's selected eigenvalues ``start(x)`` from now on, for each x it returns."""
    lapack = eigensolve._lapack()
    dstebz = lapack.dstebz

    def shifted(*args):
        m, w, split, info = dstebz(*args)
        return m, array("d", map(start, w)), split, info

    monkeypatch.setattr(lapack, "dstebz", shifted)


@pytest.fixture
def wrong_lapack_values(monkeypatch):
    """LAPACK's selected eigenvalues shifted by ``offset[0]``, 1e-3 unless a test sets it:
    each is searched for from that far away.  The full spectrum that ``dense_all`` asks
    for stays exact."""
    offset = [1e-3]
    lapack_starts(monkeypatch, lambda x: x + offset[0])
    return offset


@pytest.fixture
def sturm_counts(monkeypatch):
    """Shifts of every pivot count the solver makes, in call order."""
    shifts = []

    def counting(h, x):
        shifts.append(x)
        return eigenvalue_count_below(h, x)

    monkeypatch.setattr(eigensolve, "eigenvalue_count_below", counting)
    return shifts


def random_operators(seed, count):
    rng = np.random.default_rng(seed)
    return [build(random_params(rng)) for _ in range(count)]


def charge_sweep_operators():
    """The README charge sweep's operators: 2N = 10, n_g from -11 to 11 in steps of 1/4."""
    return [build(params(10, ejec, ng=-11.0 + 0.25 * i))
            for ejec in (0.15, 0.2, 0.25) for i in range(89)]


def transmon_windows(count=20):
    """Half-width-16 windows of the paper's island, 2N = 5e8, at E_J/E_C 40 to 60 and random n_g."""
    rng = np.random.default_rng(21)
    return [build(params(500_000_000, rng.uniform(40.0, 60.0),
                         ng=float(rng.integers(-10**6, 10**6) + rng.uniform(-0.5, 0.5))), 16)
            for _ in range(count)]


class TestLowestEigenvalues:
    def test_two_by_two_closed_form(self):
        spec = lowest_eigenvalues(build(params(1, 1.0)), 2)
        assert values_of(spec) == pytest.approx([-0.75, 1.25], abs=1e-13)

    def test_matches_dense_oracle(self):
        for h in random_operators(42, 25):
            k = min(5, h.dim)
            mine = values_of(lowest_eigenvalues(h, k))
            oracle = values_of(dense_all(h))[:k]
            scale = max(np.max(np.abs(oracle)), 1.0)
            assert np.max(np.abs(mine - oracle)) < 1e-10 * scale

    def test_matches_dense_oracle_by_bisection(self, wrong_lapack_values, sturm_counts):
        # Values 1e-3 off take far more than two counts each to find, and come
        # out bit for bit as from LAPACK's own values.
        self.test_matches_dense_oracle()
        assert len(sturm_counts) > 2 * 5 * 25
        operators = random_operators(42, 25)
        shifted = [values_of(lowest_eigenvalues(h, min(5, h.dim))).tolist() for h in operators]
        wrong_lapack_values[0] = 0.0
        assert shifted == [values_of(lowest_eigenvalues(h, min(5, h.dim))).tolist()
                           for h in operators]

    @pytest.mark.parametrize("operators", [charge_sweep_operators, transmon_windows])
    def test_matches_mpmath_oracle(self, operators):
        # The README charge sweep at E_J/E_C = 0.15, 0.2 and 0.25, and windows
        # of the paper's island: every value within 2 ulps of 50-digit
        # eigenvalues of the same coefficients.
        eps = np.finfo(float).eps
        for h in operators():
            for mine, ref in zip(values_of(lowest_eigenvalues(h, 3)).tolist(),
                                 mp_levels(h.diag, h.off, 3)):
                assert ulps(mine, ref) <= 2.0, (h.params, mine)
                assert abs(mpmath.mpf(mine) - ref) <= 2 * eps * max(1.0, abs(ref))

    @pytest.mark.parametrize("operators", [charge_sweep_operators, transmon_windows])
    def test_same_bits_for_every_k(self, operators):
        for h in operators():
            values = values_of(lowest_eigenvalues(h, 3)).tolist()
            for k in (1, 2):
                assert values_of(lowest_eigenvalues(h, k)).tolist() == values[:k], (h.params, k)

    @pytest.mark.parametrize("start", [lambda x: x + 1e-3, lambda x: x - 1e-3, lambda x: 0.0,
                                       lambda x: math.inf, lambda x: -math.inf],
                             ids=["+1e-3", "-1e-3", "0", "inf", "-inf"])
    def test_same_value_from_any_start(self, monkeypatch, sturm_counts, start):
        # Among them E_0 = -2.8e-17, where a start of 0 lies a few ulps of
        # the norm from the value.
        zero = CircuitParams.from_pairs(1000, e_j=0.45356997823038725, e_c=1.0, n_g=0.5)
        operators = [*charge_sweep_operators(), *transmon_windows(), build(zero, 16)]
        expected = [values_of(lowest_eigenvalues(h, 3)).tolist() for h in operators]
        lapack_starts(monkeypatch, start)
        per_value, bracket = [], eigensolve._bracket

        def counted(*args):
            before = len(sturm_counts)
            pair = bracket(*args)
            per_value.append(len(sturm_counts) - before)
            return pair

        monkeypatch.setattr(eigensolve, "_bracket", counted)
        for h, values in zip(operators, expected):
            assert values_of(lowest_eigenvalues(h, 3)).tolist() == values, h.params
        assert len(per_value) == 3 * len(operators) and max(per_value) <= 130

    def test_one_state_window_is_its_diagonal_entry(self):
        h = TridiagonalHamiltonian(params(10, 1.0, ng=0.3), 7, 7)
        (pair,) = lowest_eigenvalues(h, 1).pairs
        assert (pair.value, pair.residual) == (h.diag[0], 0.0)

    def test_saturation_regime_spacings(self):
        # far beyond the basis edge the levels climb by about 2 E_C |n_g| each
        h = build(params(10, 1.0, ng=50.0))
        values = values_of(lowest_eigenvalues(h, 4))
        spacings = np.diff(values)
        assert spacings == pytest.approx(np.full(3, 100.0), rel=0.10)
        # closer in, the asymptote is visibly rougher
        rough = np.diff(values_of(lowest_eigenvalues(build(params(10, 1.0, ng=20.0)), 4)))
        assert np.max(np.abs(rough / 40.0 - 1.0)) < 0.25
        assert np.max(np.abs(spacings / 100.0 - 1.0)) < np.max(np.abs(rough / 40.0 - 1.0))

    def test_prefix_property(self):
        h = build(params(40, 3.0, ng=0.2))
        five = values_of(lowest_eigenvalues(h, 5))
        six = values_of(lowest_eigenvalues(h, 6))
        assert six[:5].tolist() == five.tolist()

    def test_sturm_certification(self):
        tol = 1e-8
        h = build(params(60, 2.0, ng=0.3))
        spec = lowest_eigenvalues(h, 4)
        for j, pair in enumerate(spec.pairs):
            assert eigenvalue_count_below(h, pair.value + tol) >= j + 1
            assert eigenvalue_count_below(h, pair.value - tol) <= j

    def test_bracket_of_adjacent_doubles(self, sturm_counts):
        h = build(params(60, 2.0, ng=0.3))
        spec = lowest_eigenvalues(h, 4)
        for j, pair in enumerate(spec.pairs):
            above = math.nextafter(pair.value, math.inf)
            assert pair.residual == above - pair.value
            assert eigenvalue_count_below(h, pair.value) <= j < eigenvalue_count_below(h, above)
            # The solver counted at both ends itself.
            assert {pair.value, above} <= set(sturm_counts)

    @pytest.mark.parametrize("shift", [1e-3, -1e-3])
    def test_certificate_catches_wrong_lapack_values(self, monkeypatch, sturm_counts, shift):
        h = build(params(40, 3.0, ng=0.2))
        oracle = dense_all(h)
        reference = values_of(lowest_eigenvalues(h, 3)).tolist()
        lapack_starts(monkeypatch, lambda x: x + shift)
        sturm_counts.clear()
        spec = lowest_eigenvalues(h, 3)
        # Every value starts 1e-3 off, takes far more than two counts to find,
        # and comes out with the bits it has from LAPACK's own start.
        assert len(sturm_counts) > 2 * 3
        assert values_of(spec).tolist() == reference
        assert values_of(spec) == pytest.approx(values_of(oracle)[:3], rel=1e-14, abs=1e-14)
        for j, pair in enumerate(spec.pairs):
            assert eigenvalue_count_below(h, pair.value - pair.residual) <= j
            assert eigenvalue_count_below(h, pair.value + pair.residual) >= j + 1
        # The ground vector is computed at the corrected value.
        ground = eigenpair(h)
        assert ground.value == spec.pairs[0].value
        assert abs(float(np.dot(ground.vector, oracle.pairs[0].vector))) > 1.0 - 1e-12

    def test_count_is_monotone_step_function(self):
        h = build(params(12, 0.7, ng=0.1))
        xs = np.linspace(-3.0, 40.0, 41)
        counts = [eigenvalue_count_below(h, x) for x in xs]
        assert counts == sorted(counts)
        assert counts[0] == 0
        assert counts[-1] == h.dim

    def test_input_validation(self):
        h = build(params(4, 1.0))
        with pytest.raises(ValueError):
            lowest_eigenvalues(h, 0)
        with pytest.raises(ValueError):
            lowest_eigenvalues(h, 6)
        # eigenpair reads min(level + 2, dim) values: level 2 of these 5 states needs 4.
        for k in (1, 3):
            with pytest.raises(ValueError, match=f"level 2 needs a spectrum of 4 values, got {k}"):
                eigenpair(h, 2, lowest_eigenvalues(h, k))
        assert eigenpair(h, 2, lowest_eigenvalues(h, 4)).value == lowest_eigenvalues(h, 3).pairs[2].value

    def test_bitwise_determinism(self):
        h = build(params(100, 5.0, ng=0.37))
        first = values_of(lowest_eigenvalues(h, 3))
        second = values_of(lowest_eigenvalues(h, 3))
        assert all(a == b for a, b in zip(first, second))


class TestGroundState:
    def test_symmetric_two_state_vector(self):
        pair = eigenpair(build(params(1, 1.0)))
        assert pair.value == pytest.approx(-0.75, abs=1e-13)
        assert pair.vector == pytest.approx([1 / math.sqrt(2)] * 2, rel=1e-12)

    def test_overlap_with_dense_oracle(self):
        for h in random_operators(7, 20):
            mine = eigenpair(h)
            oracle = dense_all(h).pairs[0]
            overlap = abs(float(np.dot(mine.vector, oracle.vector)))
            assert overlap > 1.0 - 1e-10
            assert mine.residual < 1e-10 * max(1.0, abs(mine.value))

    def test_imbalance_matches_mpmath_oracle(self):
        # Near each charge degeneracy of the README sweep (2N = 10,
        # E_J/E_C = 0.2), at the offsets of the chi finite difference, <n>
        # from the ground vector against 40-digit eigenvectors.
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for center in np.arange(-10.5, 11.0, 1.0).tolist():
                for ng in (center - 1e-4 * abs(center), center + 1e-4 * abs(center)):
                    h = build(params(10, 0.2, ng=ng))
                    values, vectors = mpmath.eigsy(mpmath_matrix(mpmath, h))
                    j = min(range(h.dim), key=lambda i: values[i])
                    charges = h.charges().tolist()
                    exact = sum(mpmath.mpf(n) * vectors[i, j] ** 2 for i, n in enumerate(charges))
                    v = eigenpair(h).vector
                    error = abs(mpmath.mpf(float(np.dot(charges, np.square(v)))) - exact)
                    assert error <= 4 * eps * max(1.0, abs(exact)), ng

    def test_overlap_with_dense_oracle_by_bisection(self, wrong_lapack_values, sturm_counts):
        self.test_overlap_with_dense_oracle()
        assert len(sturm_counts) > 2 * 2 * 20
        # The same bits, value and vector, as from LAPACK's own values.
        operators = random_operators(7, 20)
        shifted = [eigenpair(h) for h in operators]
        wrong_lapack_values[0] = 0.0
        for h, pair in zip(operators, shifted):
            reference = eigenpair(h)
            assert (pair.value, list(pair.vector)) == (reference.value, list(reference.vector))

    def test_componentwise_positive(self):
        # Mild localization: every true component clears the noise floor,
        # so strict positivity is numerically meaningful.
        for pairs, ejec, ng in [(8, 0.3, 0.0), (10, 0.2, 0.4), (14, 1.0, -0.7)]:
            pair = eigenpair(build(params(pairs, ejec, ng=ng)))
            assert all(x > 0.0 for x in pair.vector)

    def test_positive_above_noise_floor_when_strongly_localized(self):
        # Far tails of a localized state underflow double precision; the
        # Perron sign statement applies to components above solver noise.
        pair = eigenpair(build(params(60, 4.0, ng=1.3)))
        v = np.asarray(pair.vector)
        floor = 64 * np.finfo(float).eps
        assert np.all(v[np.abs(v) > floor] > 0.0)
        assert np.min(v) > -floor

    def test_unit_norm_and_residual(self):
        pair = eigenpair(build(params(80, 10.0, ng=0.4)))
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        h = build(params(80, 10.0, ng=0.4))
        direct = np.linalg.norm(np.asarray(h.matvec(pair.vector))
                                - pair.value * np.asarray(pair.vector))
        assert pair.residual == pytest.approx(direct, rel=1e-6, abs=1e-14)

    def test_near_degenerate_warning(self):
        # half-integer offset deep in the charge regime: the gap, about
        # 1.1e-14, is below the guard band 40 eps ||H|| ~ 2.7e-13
        h = build(params(10, 1e-14, ng=0.5))
        with pytest.warns(NearDegenerateWarning):
            pair = eigenpair(h)
        assert pair.vector is not None

    def test_split_operator_vector_lies_on_its_block(self):
        # At E_J = 3.8e-174 every squared coupling underflows, so dstebz splits the
        # 7-state window into one-state blocks.  Inverse iteration on the ground
        # value's block returns the n = 0 state; on the whole operator as one
        # block it returns n = +1, with residual 1.0, which is refused.
        h = build(params(6, 3.80567423030383e-174), 3)
        pair = eigenpair(h)
        assert list(pair.vector) == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        assert pair.residual < 1e-173
        _, z = scipy.linalg.eigh_tridiagonal(h.diag, h.off, select="i", select_range=(0, 0),
                                             lapack_driver="stebz")
        assert np.abs(z[:, 0]).tolist() == list(pair.vector)
        one_block = eigensolve.Spectrum(lowest_eigenvalues(h, 2).pairs, h.dim)
        with pytest.raises(ConvergenceError, match="residual"):
            eigenpair(h, 0, one_block)

    @pytest.mark.parametrize("level", [1, 2])
    def test_excited_vector_matches_dense_oracle(self, level):
        h = build(params(60, 10.0, ng=0.3))
        mine = eigenpair(h, level)
        oracle = dense_all(h).pairs[level]
        assert mine.value == pytest.approx(oracle.value, rel=1e-14)
        assert abs(float(np.dot(mine.vector, oracle.vector))) > 1.0 - 1e-12


class TestChargeResponse:
    def test_matches_dense_sum_over_states(self):
        for pairs, ejec, ng in [(10, 0.2, 0.3), (20, 3.0, 0.8), (30, 1.0, -2.5)]:
            h = build(params(pairs, ejec, ng=ng))
            spec = dense_all(h)
            n = np.asarray(h.charges())
            v0 = spec.pairs[0].vector
            exact = sum(
                np.dot(p.vector, n * v0) ** 2 / (p.value - spec.pairs[0].value)
                for p in spec.pairs[1:]
            )
            assert charge_response(h)[0] == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("pairs,ejec,ng", [(10, 0.2, 0.3), (20, 3.0, 0.0), (61, 10.0, 0.0)])
    def test_excited_and_fourth_order_match_dense_sum_over_states(self, pairs, ejec, ng):
        h = build(params(pairs, ejec, ng=ng))
        spec = dense_all(h)
        energies = values_of(spec)
        vectors = np.array([p.vector for p in spec.pairs]).T
        n = vectors.T @ (np.asarray(h.charges())[:, None] * vectors)  # <k|n|m>
        m = np.arange(h.dim)

        def response(level):
            others = m != level
            return float(np.sum(n[others, level] ** 2 / (energies[others] - energies[level])))

        assert charge_response(h, 1)[0] == pytest.approx(response(1), rel=1e-10)
        # Rayleigh-Schroedinger E^(4) in V = n from the sum over states:
        # sum V0k Vkl Vlm Vm0 / (D_k D_l D_m) - E2 sum |V0k|^2 / D_k^2,
        # with D_k = E_0 - E_k and the diagonal of V shifted by <n>.
        v = n - n[0, 0] * np.eye(h.dim)
        denom = energies[0] - energies[1:]
        first = v[1:, 0] / denom
        e2 = float(np.dot(v[0, 1:], first))
        inner = v[1:, 1:] @ first / denom
        exact = float(first @ v[1:, 1:] @ inner) - e2 * float(first @ first)
        first, second = fourth_order_terms(h)[:2]
        assert first - second == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("solve", [eigenpair, charge_response])
    @pytest.mark.parametrize("level", [-1, 3, 5])
    def test_level_outside_the_window_is_refused(self, solve, level):
        h = TridiagonalHamiltonian(params(10, 1.0), 4, 6)  # dim 3
        with pytest.raises(ValueError, match=rf"level {level} is outside the 3 charge states"):
            solve(h, level)

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(
            eigensolve._lapack(), "dgtsv", lambda dl, d, du, b: (b, 2)
        )
        with pytest.raises(ConvergenceError, match="dgtsv"):
            charge_response(build(params(10, 0.2, ng=0.3)))


class TestDenseAll:
    def test_closed_form_two_by_two(self):
        spec = dense_all(build(params(1, 1.0)))
        assert values_of(spec) == pytest.approx([-0.75, 1.25])
        assert len(spec.pairs) == 2
        assert spec.pairs[0].vector is not None

    @pytest.mark.parametrize("pairs,ejec,ng", [(14, 0.2, 0.4), (100, 7.0, -0.9)])
    def test_trace_identity(self, pairs, ejec, ng):
        h = build(params(pairs, ejec, ng=ng))
        values = values_of(dense_all(h))
        trace = float(np.sum(h.diagonal_block(0, h.dim)))
        assert float(np.sum(values)) == pytest.approx(trace, rel=1e-10)

    @pytest.mark.parametrize("pairs,ejec,ng", [(14, 0.2, 0.4), (100, 7.0, -0.9)])
    def test_frobenius_identity(self, pairs, ejec, ng):
        h = build(params(pairs, ejec, ng=ng))
        values = values_of(dense_all(h))
        diag, off = h.to_arrays()
        frob_sq = float(np.sum(np.square(diag)) + 2.0 * np.sum(np.square(off)))
        assert float(np.sum(values**2)) == pytest.approx(frob_sq, rel=1e-10)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            dense_all(build(params(4002, 1.0)))

    def test_dim_one_window(self):
        p = params(10, 1.0, ng=2.0)
        h = TridiagonalHamiltonian(p, 7, 7)  # charge 2
        spec = dense_all(h)
        assert spec.dim == 1
        assert values_of(spec)[0] == pytest.approx(h.diag[0])


def random_operator(rng, dim):
    """A window of ``dim`` states at a random place in a random basis."""
    pairs = int(rng.integers(dim, 10**6))
    p = params(pairs, 10.0 ** rng.uniform(-2, 2), ng=rng.uniform(-0.5, 0.5) * pairs)
    k_lo = int(rng.integers(0, pairs - dim + 2))
    return TridiagonalHamiltonian(p, k_lo, k_lo + dim - 1)


class TestLapackLoader:
    """``eigensolve._lapack``: the LAPACK under scipy's wrappers, through ctypes."""

    @pytest.mark.parametrize("dim", [1, 2, 11, 65, 2049])
    def test_bit_identical_to_scipy_linalg(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(3):
            h = random_operator(rng, dim)
            assert h.dim == dim
            for k in sorted({1, min(3, dim), min(40, dim)}) if dim > 1 else ():
                expected = scipy.linalg.eigh_tridiagonal(
                    h.diag, h.off, eigvals_only=True, select="i", select_range=(0, k - 1),
                    lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny,
                )
                m, w, split, info = eigensolve._lapack().dstebz(h.diag, h.off, k,
                                                                2.0 * np.finfo(float).tiny)
                assert (m, info) == (k, 0) and list(w) == expected.tolist()
                *_, iblock, isplit, _ = scipy.linalg.lapack.dstebz(
                    h.diag, h.off, 3, 0.0, 0.0, 1, k, 2.0 * np.finfo(float).tiny, "E")
                nsplit = len(split[1])
                assert list(split[0]) == iblock[:k].tolist() and split[1][-1] == dim
                assert list(split[1]) == isplit[:nsplit].tolist()
            values, vectors = scipy.linalg.eigh_tridiagonal(h.diag, h.off)
            spec = dense_all(h)
            assert (values_of(spec) == values).all()
            for j, pair in enumerate(spec.pairs):
                v = vectors[:, j]
                assert (pair.vector == v).all() or (pair.vector == -v).all()
            diag, off = np.asarray(h.diag), np.asarray(h.off)
            # Vectors: scipy's dstein wrapper at the shift eigenpair takes, on the block
            # of scipy's dstebz split that holds the value, sign-normalized.
            for level in sorted({0, min(1, dim - 1)}):
                pairs = lowest_eigenvalues(h, min(level + 2, dim)).pairs
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NearDegenerateWarning)
                    mine = eigenpair(h, level)
                shift = pairs[level].value - pairs[level].residual
                iblock, isplit = np.ones(dim, np.int32), np.full(dim, dim, np.int32)
                if dim > 1:
                    *_, iblock, isplit, _ = scipy.linalg.lapack.dstebz(
                        diag, off, 3, 0.0, 0.0, 1, len(pairs), 2.0 * np.finfo(float).tiny, "E")
                z, info = scipy.linalg.lapack.dstein(
                    diag, off if dim > 1 else np.zeros(1), [shift],
                    np.full(dim, iblock[level], np.int32), isplit)
                v = z[:, 0] if z[np.argmax(np.abs(z[:, 0])), 0] > 0 else -z[:, 0]
                assert info == 0 and np.asarray(mine.vector).tobytes() == v.tobytes()
            # The response: the same solve through scipy's dgtsv wrapper and np.dot.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearDegenerateWarning)
                s, v, a, x, _ = charge_response(h)
            v = np.asarray(v)
            n = np.arange(dim, dtype=float)
            assert np.asarray(a).tobytes() == (n - np.dot(n, v * v)).tobytes()
            phi = np.asarray(a) * v
            if dim > 1:
                peak = np.argmax(np.abs(v))
                d = diag - lowest_eigenvalues(h, 2).pairs[0].value
                e = off.copy()
                d[peak] = 1.0
                e[max(peak - 1, 0):peak + 1] = 0.0
                *_, expected, info = scipy.linalg.lapack.dgtsv(e, d, e, phi)
                assert info == 0
                expected[peak] = 0.0
                expected -= np.dot(v, expected) * v
            else:
                expected = np.zeros(1)
            assert np.asarray(x).tobytes() == expected.tobytes()
            assert s == np.dot(phi, expected)
            # Every dot product and norm, as numpy sums them.
            for _ in range(4):
                x, y = rng.standard_normal((2, dim)) * 10.0 ** rng.uniform(-3, 3, 2)[:, None]
                assert eigensolve._dot(array("d", x), array("d", y)) == np.dot(x, y)
                assert eigensolve._norm(array("d", x)) == np.linalg.norm(x)

    @pytest.mark.parametrize("scipy_first", [False, True])
    def test_binding_works_in_either_import_order_and_registers_no_module(self, scipy_first):
        script = f"""
import sys
if {scipy_first}:
    import scipy.linalg
from finitejj import eigensolve, hamiltonian, model
h = hamiltonian.build(model.CircuitParams.from_pairs(40, e_j=3.0, e_c=1.0, n_g=0.2))
before = set(sys.modules)
values = list(eigensolve._lapack().dstebz(h.diag, h.off, 3, 2.0 * sys.float_info.min)[1])
vector = eigensolve.eigenpair(h).vector
assert set(sys.modules) == before
assert ("scipy" in sys.modules) == {scipy_first}
import scipy.linalg
expected = scipy.linalg.eigh_tridiagonal(h.diag, h.off, eigvals_only=True, select="i",
                                         select_range=(0, 2), lapack_driver="stebz",
                                         tol=2.0 * sys.float_info.min)
assert values == expected.tolist()
assert list(vector) == list(eigensolve.eigenpair(h).vector)
print("bound")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["bound"]

    @pytest.mark.parametrize("routine", sorted(eigensolve._Lapack.SIGNATURES))
    def test_library_without_a_routine_raises_import_error_naming_it(self, routine):
        real = ctypes.CDLL(scipy.linalg.lapack._flapack.__file__)

        class Library:
            """The real library, less both names of ``routine``; the rest only as <name>_."""

            def __getattr__(self, symbol):
                if symbol.startswith("scipy_") or symbol == f"{routine}_":
                    raise AttributeError(symbol)
                return getattr(real, f"scipy_{symbol}")

        with pytest.raises(ImportError, match=routine):
            eigensolve._Lapack(Library())

    def test_refuses_a_memoryview_over_part_of_an_array(self):
        h = build(params(10, 0.2, ng=0.3))
        with pytest.raises(ValueError, match="whole array"):
            eigensolve._lapack().ddot(h.diag[1:], h.diag[1:])

    def test_falls_back_to_the_plain_symbol_names(self):
        real = ctypes.CDLL(scipy.linalg.lapack._flapack.__file__)

        class Library:
            def __getattr__(self, symbol):
                if symbol.startswith("scipy_"):
                    raise AttributeError(symbol)
                return getattr(real, f"scipy_{symbol}")

        lapack = eigensolve._Lapack(Library())
        x = array("d", [1.0, 2.0, 3.0])
        assert lapack.ddot(x, x) == 14.0

    @pytest.mark.parametrize("installed", [True, False])
    def test_missing_module_raises_import_error_naming_it(self, monkeypatch, tmp_path,
                                                          installed):
        # scipy found in an empty directory, or not found at all.
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: scipy_spec if installed else None)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        eigensolve._lapack.cache_clear()
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as caught:
            eigensolve._lapack()
        assert caught.value.name == "scipy.linalg._flapack"

    def test_failed_lapack_call_raises(self, monkeypatch):
        lapack = eigensolve._lapack()
        call = lapack.dstebz
        # The real results with info 1.
        monkeypatch.setattr(lapack, "dstebz", lambda *a, **k: (*call(*a, **k)[:-1], 1))
        with pytest.raises(ConvergenceError, match="dstebz"):
            lowest_eigenvalues(build(params(10, 0.2, ng=0.3)), 2)


class TestMathieuLimit:
    """Large islands approach the Cooper-pair box, whose levels are Mathieu values.

    With q = 2E_J/E_C the box's levels are a_r(q)/4 or b_r(q)/4 (E_C = 1;
    Koch et al., PRA 76, 042319, 2007): orders 0, 2, 2 at n_g = 0, and at
    n_g = 1/2 orders 1, 1, 3 with a and b swapped.  Near n = 0 the couplings
    are -(E_J/2)(1 + 1/(2N) + O(1/N^2)), so the island is the box with E_J
    scaled by 1 + 1/(2N), and by Hellmann-Feynman each level's relative error
    times 2N tends to q a'(q)/a(q): the 1/N rate and its coefficient.
    """

    EJEC = 5.0
    HALF_WIDTH = 64

    @pytest.mark.parametrize("ng,levels", [
        (0.0, ((mathieu_a, 0), (mathieu_b, 2), (mathieu_a, 2))),
        (0.5, ((mathieu_b, 1), (mathieu_a, 1), (mathieu_b, 3))),
    ])
    def test_levels_converge_at_rate_one_over_n(self, ng, levels):
        q, dq = 2.0 * self.EJEC, 1e-4
        limit = np.array([fn(order, q) / 4.0 for fn, order in levels])
        slope = np.array([(fn(order, q + dq) - fn(order, q - dq)) / (2.0 * dq)
                          for fn, order in levels])
        predicted = q * slope / (4.0 * limit)
        for pairs in (2 * 10**4, 2 * 10**5, 2 * 10**6):
            p = params(pairs, self.EJEC, ng=ng)
            h = build(p, self.HALF_WIDTH)
            rel_err = (values_of(lowest_eigenvalues(h, 3)) - limit) / limit
            scaled = rel_err * pairs
            assert np.all(np.abs(predicted) > 0.4)
            # The next order, O(1/N^2) in rel_err, leaves O(1/N) in the scaled error.
            assert scaled == pytest.approx(predicted, rel=100.0 / pairs), pairs
        assert np.max(np.abs(rel_err)) < 3e-6


def _first_certified(p, levels):
    """(window, spectrum, radii) at the first certified doubling of full mode's start."""
    from finitejj.observables import initial_half_width

    w = initial_half_width(p)
    while True:
        h = build(p, w)
        spectrum, radii = eigensolve.certified_lowest(h, levels)
        if len(radii) == levels:
            return h, spectrum, radii
        w *= 2


def _record_windows(monkeypatch):
    """The dims of the windows that ``observables`` builds from now on."""
    from finitejj import observables

    built, build_window = [], observables.build

    def recording(p, half_width=None):
        h = build_window(p, half_width)
        built.append(h.dim)
        return h

    monkeypatch.setattr(observables, "build", recording)
    return built


def mp_window_eigenvalue(mpmath, p, half_width, j, guess):
    """Eigenvalue j of the exact operator on 2 half_width + 1 charges around n_g.

    Coefficients from the paper's formulas at the working precision, the
    coupling's square-root argument in exact integers; bisection on the
    Sturm count from a bracket of 1e-9 relative around ``guess``.
    """
    two_n = p.pairs_total
    n_half, ng = mpmath.mpf(two_n) / 2, mpmath.mpf(p.n_g)
    k_c = min(max(round(p.n_g + two_n / 2), 0), two_n)
    ks = range(max(k_c - half_width, 0), min(k_c + half_width, two_n) + 1)
    diag = [mpmath.mpf(p.e_c) * (k - n_half - ng) ** 2 for k in ks]
    offsq = [(mpmath.mpf(p.e_j) / two_n) ** 2 * ((two_n - k) * (k + 1)) for k in ks][:-1]

    def count(x):
        below, d = 0, mpmath.mpf(1)
        for i, a in enumerate(diag):
            d = a - x - (offsq[i - 1] / d if i else 0)
            below += d < 0
        return below

    lo, hi = mpmath.mpf(guess) * (1 - 1e-9), mpmath.mpf(guess) * (1 + 1e-9)
    lo, hi = min(lo, hi), max(lo, hi)
    assert count(lo) <= j < count(hi)
    while hi - lo > abs(lo) * mpmath.mpf(10) ** -32:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if count(mid) >= j + 1 else (mid, hi)
    return (lo + hi) / 2


# 700 windows: E_J/E_C 0.2-400, 2N 60-5e8, four offsets, half-widths 2-32.
_CERTIFIED_GRID = list(itertools.product(
    (0.2, 1.0, 5.0, 20.0, 50.0, 100.0, 400.0), (60, 1000, 20000, 10**6, 5 * 10**8),
    (0.0, 0.3, -0.37, 0.5), (2, 4, 8, 16, 32)))


class TestWindowCertificate:
    @pytest.mark.parametrize("half_width", [2, 4])
    def test_refuses_a_window_too_small_to_hold_the_levels(self, half_width):
        p = params(1000, 1.0, ng=-0.37)
        h = build(p, half_width)
        assert eigensolve.certified_lowest(h, 3)[1] == []

    def test_refuses_a_window_where_the_parabola_does_not_dominate(self):
        # E_C (n - n_g)^2 at the first charge outside half-width 2 is below
        # E_0 + 2 b_max, with b_max about E_J / 2 = 200.
        p = params(2_000_000, 400.0, ng=0.3)
        h = build(p, 2)
        spectrum, radii = eigensolve.certified_lowest(h, 2)
        outside, _ = h.outside()
        assert np.all(outside - values_of(spectrum)[-1] < 400.0)
        assert radii == []

    def test_refuses_values_off_by_more_than_their_radii(self, monkeypatch):
        # A value too high fails the lowered count below v - r, and the certificate stops
        # at the moved level.  (A value too low cannot come from a bracket, whose count
        # at x+ <= v + r exceeds j; the whole-basis counts of
        # test_full_mode_returns_the_whole_basis_answer refuse a wrong bracket.)
        h, spectrum, radii = _first_certified(params(20000, 50.0, ng=0.3), 2)
        for j in range(2):
            pairs = list(spectrum.pairs)
            pairs[j] = eigensolve.EigenPair(pairs[j].value + 4.0 * radii[j], None, 0.0)
            monkeypatch.setattr(eigensolve, "lowest_eigenvalues",
                                lambda h, k: eigensolve.Spectrum(pairs[:k], h.dim))
            assert len(eigensolve.certified_lowest(h, 2)[1]) == j

    def test_proves_nothing_without_the_room(self):
        # One charge at a basis end with n_g half a charge inside it: the first charge
        # outside has the same diagonal E_C/4 and couples by E_J/sqrt(2N) = 1e-14, so the
        # whole basis's ground state lies 11 radii below the window's value.  The corner
        # lowering 2 E_J/2N is below rho, so the lowered count passes; only the room
        # (a_out - x, not above 2 b_max) refuses.
        two_n = 10_000
        for ng in (0.5 - two_n / 2, two_n / 2 - 0.5):
            p = CircuitParams.from_pairs(two_n, e_j=1e-12, e_c=1.0, n_g=ng)
            h = build(p, 0)
            spectrum, radii = eigensolve.certified_lowest(h, 1)
            assert h.dim == 1 and radii == []
            value = spectrum.pairs[0].value
            assert eigenvalue_count_below(build(p), value - 1e-14) == 1

    def test_makes_one_count_per_tried_level(self, monkeypatch):
        # Past the brackets, each tried level makes its lowered count at x_j = v_j - rho_j
        # only, and a level the room refuses makes none: the levels proven, plus one where
        # a lowered count stops the prefix.
        from oracles import _outside_rooms

        shifts, window_counts, bracketed = [], [], []
        real_count, real_window = eigensolve._count_below, eigenvalue_count_below

        def bracketing(h, k):
            spectrum = lowest_eigenvalues(h, k)
            bracketed.append(len(shifts))
            return spectrum

        monkeypatch.setattr(eigensolve, "_count_below",
                            lambda *args: shifts.append(args[2]) or real_count(*args))
        monkeypatch.setattr(eigensolve, "eigenvalue_count_below",
                            lambda h, x: window_counts.append(x) or real_window(h, x))
        monkeypatch.setattr(eigensolve, "lowest_eigenvalues", bracketing)
        stops = collections.Counter()
        for ejec, pairs, ng, half_width in itertools.product(
                (1.0, 50.0, 400.0), (1000, 5 * 10**8), (0.3, 0.5), (2, 4, 16)):
            h = build(params(pairs, ejec, ng=ng), half_width)
            del shifts[:], window_counts[:], bracketed[:]
            spectrum, radii = eigensolve.certified_lowest(h, 3)
            (brackets,) = bracketed
            assert len(window_counts) == brackets > 0
            b_max = coupling_bound(h.params.e_j, h.params.n_half) * eigensolve._SLACK
            norm = h.coefficient_bounds()[1] + 2.0 * b_max
            xs = [p.value - 4.0 * eigensolve._EPS * (norm + abs(p.value)) for p in spectrum.pairs]
            tried = len(radii)
            if tried < 3:
                roomy = _outside_rooms(h, xs[tried], b_max) is not None
                stops[roomy] += 1
                tried += roomy
            assert shifts[brackets:] == xs[:tried]
        assert stops[True] and stops[False]

    def test_proves_the_longest_prefix_that_one_shift_proves(self):
        # The all-or-nothing certificate lowers every level at the one shift of its last
        # level.  On 2100 windows (E_J/E_C 0.2-400, 2N 60-5e8, four offsets, half-widths
        # 2-32, k = 1-3) the level-by-level prefix is its longest proven n, radii bit-equal.
        lengths = set()
        for ejec, pairs, ng, half_width in _CERTIFIED_GRID:
            h = build(params(pairs, ejec, ng=ng), half_width)
            solved = lowest_eigenvalues(h, 3).pairs
            oracle = [one_shift_certificate(h, eigensolve.Spectrum(solved[:n], h.dim))
                      for n in (1, 2, 3)]
            for k in (1, 2, 3):
                n = max([n for n in range(1, k + 1) if oracle[n - 1] is not None], default=0)
                radii = eigensolve.certified_lowest(h, k)[1]
                assert radii == (oracle[n - 1] if n else []), (ejec, pairs, ng, half_width, k)
                lengths.add(len(radii))
        assert lengths == {0, 1, 2, 3}

    def test_a_proven_prefix_through_level_j_plus_1_proves_the_room_at_level_j(self):
        # Wherever the certified prefix reaches level j + 1, ``edge_bound`` for level j returns
        # an ``EdgeBound`` or raises WindowConvergenceError, and the room holds at v_j + r_j:
        # on the 2100-window grid, and on windows whose end lies 0-2 charges from a basis end.
        near_ends = itertools.product((10, 60, 1000), (0.2, 5.0, 50.0, 400.0), (2, 4, 8, 16),
                                      (0, 1, 2), (0.0, 0.3, -0.37), (-1, 1))
        windows = [build(params(pairs, ejec, ng=ng), half_width)
                   for ejec, pairs, ng, half_width in _CERTIFIED_GRID]
        for pairs, ejec, half_width, off, frac, side in near_ends:
            # Offsets k_c = half_width + off and k_c = off from the end named by ``side``.
            for k_c in {half_width + off, off}:
                ng = side * (pairs / 2 - k_c - frac)
                windows.append(build(params(pairs, ejec, ng=ng), half_width))
        at_basis_end = collections.Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearDegenerateWarning)
            for h in windows:
                if h.is_full_window:
                    continue
                spectrum, radii = eigensolve.certified_lowest(h, min(3, h.dim))
                b_max = coupling_bound(h.params.e_j, h.params.n_half) * eigensolve._SLACK
                for j in range(len(radii) - 1):
                    up = spectrum.pairs[j].value + radii[j]
                    vector = eigenpair(h, j, spectrum).vector
                    try:
                        edge = eigensolve.edge_bound(h, spectrum, radii, vector, j)
                    except WindowConvergenceError:
                        continue
                    assert isinstance(edge, eigensolve.EdgeBound)
                    assert eigensolve._outside_rooms(h, up, b_max) is not None
                    at_basis_end[h.k_lo == 0 or h.k_lo + h.dim == h.params.pairs_total + 1] += 1
        assert at_basis_end[True] and at_basis_end[False]

    def test_radius_covers_the_counts_rounding_at_a_zero_eigenvalue(self):
        # E_J tuned so that E_0 = -2.8e-17: a radius of 4 eps |v| would be
        # 1e-32, far below the counts' backward error of eps times the norm.
        p = CircuitParams.from_pairs(1000, e_j=0.45356997823038725, e_c=1.0, n_g=0.5)
        h = build(p, 16)
        spectrum, radii = eigensolve.certified_lowest(h, 2)
        assert abs(values_of(spectrum)[0]) < 1e-16
        assert radii[0] >= 8.0 * np.finfo(float).eps * max(h.diag)

    def test_full_mode_returns_the_whole_basis_answer(self):
        from finitejj.observables import WindowPolicy, band_sweep

        for p, levels in ((params(1000, 1.0, ng=-0.37), 3), (params(2_000_000, 400.0, ng=0.3), 2)):
            h, spectrum, radii = _first_certified(p, levels)
            assert not h.is_full_window
            table = band_sweep(p, [p.n_g], levels=levels, policy=WindowPolicy.full())
            values = [table.columns[f"E{j}"][0] for j in range(levels)]
            assert values == values_of(spectrum).tolist()
            # Two Sturm counts of the whole basis bracket each full eigenvalue.
            full = build(p)
            for j, (v, r) in enumerate(zip(values, radii)):
                assert eigenvalue_count_below(full, v - r) <= j < eigenvalue_count_below(full, v + r)
            if p.pairs_total == 1000:
                exact = values_of(lowest_eigenvalues(full, levels))
                assert np.all(np.abs(exact - values) <= radii)

    def test_adaptive_builds_one_window_at_the_papers_island_size(self, monkeypatch):
        # At 2N = 5e8, E_J/E_C = 50 the first window, half-width 16, is certified.
        from finitejj.observables import WindowPolicy, band_sweep, qubit_frequency

        built = _record_windows(monkeypatch)
        p, grid = params(500_000_000, 50.0), [0.0, 0.212, 0.5]
        for ng in grid:
            built.clear()
            adaptive = qubit_frequency(p.with_ng(ng), WindowPolicy.adaptive())
            assert built == [33], ng
            assert adaptive == qubit_frequency(p.with_ng(ng), WindowPolicy.full())
        built.clear()
        adaptive = band_sweep(p, grid, levels=3, policy=WindowPolicy.adaptive()).columns
        assert built == [33] * len(grid)
        full = band_sweep(p, grid, levels=3, policy=WindowPolicy.full()).columns
        for j in range(3):
            assert adaptive[f"E{j}"].tolist() == full[f"E{j}"].tolist()

    def test_adaptive_doubles_past_refused_widths(self, monkeypatch):
        # Half-width 4 is refused (see above); adaptive doubles to 8 and stops there.
        from finitejj.observables import WindowPolicy, band_sweep

        built = _record_windows(monkeypatch)
        p = params(1000, 1.0, ng=-0.37)
        table = band_sweep(p, [p.n_g], levels=3, policy=WindowPolicy.adaptive(w_initial=4))
        assert built == [9, 17]
        values = [table.columns[f"E{j}"][0] for j in range(3)]
        h = build(p, 8)
        spectrum, radii = eigensolve.certified_lowest(h, 3)
        assert values == values_of(spectrum).tolist()
        exact = values_of(lowest_eigenvalues(build(p), 3))
        assert np.all(np.abs(exact - values) <= radii)

    @pytest.mark.parametrize("mode", ["full", "adaptive"])
    @pytest.mark.parametrize("pairs", [20075, 500_000_000])
    @pytest.mark.parametrize("ng", [0.0, 0.212, 0.5])
    def test_full_mode_values_match_mpmath_within_their_radii(self, pairs, ng, mode):
        from finitejj.observables import WindowPolicy, band_sweep

        p = CircuitParams.from_pairs(pairs, e_j=49.7, e_c=1.0, n_g=ng)
        h, spectrum, radii = _first_certified(p, 2)
        table = band_sweep(p, [ng], levels=2, policy=WindowPolicy(mode=mode))
        with mpmath.workdps(50):
            for j, r in enumerate(radii):
                value = table.columns[f"E{j}"][0]
                exact = mp_window_eigenvalue(mpmath, p, 64, j, value)
                assert abs(mp_window_eigenvalue(mpmath, p, 128, j, value) - exact) < 1e-30
                assert abs(value - exact) <= r
                # LAPACK's own tolerance on the window: 2 ulps of the value.
                assert abs(value - exact) <= 2 * math.ulp(value)
