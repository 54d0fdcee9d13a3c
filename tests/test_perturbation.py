"""Closed-form gap/susceptibility formulas and the first-order numeric route."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import mathieu_a, mathieu_b

from conftest import two_level_gap, two_level_susceptibility
from finitejj.eigensolve import dense_all
from finitejj.errors import RegimeWarning
from finitejj.hamiltonian import build
from finitejj.model import CircuitParams
from finitejj.observables import WindowPolicy, charge_susceptibility, qubit_frequency
from finitejj.perturbation import (
    bogoliubov,
    cpb_gap,
    cpb_susceptibility,
    transmon_first_order_numeric,
    transmon_frequency,
    transmon_susceptibility,
)
from oracles import (cpb_effective, first_order_fock_reference, first_order_from_engine,
                     values_of)


def params(pairs, e_j, ng=0.0, e_c=1.0):
    return CircuitParams.from_pairs(pairs, e_j=e_j, e_c=e_c, n_g=ng)


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return fn(*args, **kwargs)


class TestTwoLevelEffective:
    def test_minimal_junction(self):
        eff = cpb_effective(params(1, 2.5))
        assert eff.floor_n == -0.5
        assert eff.ceil_n == 0.5
        assert eff.sigma_x_coeff == pytest.approx(-2.5)

    def test_direct_substitution(self):
        eff = cpb_effective(params(10, 0.2, ng=0.5))
        assert (eff.floor_n, eff.ceil_n) == (0.0, 1.0)
        assert eff.sigma_x_coeff == pytest.approx(-0.02 * math.sqrt(30.0))

    def test_half_integer_basis(self):
        eff = cpb_effective(params(11, 0.1, ng=2.0))
        assert (eff.floor_n, eff.ceil_n) == (1.5, 2.5)

    def test_gap_at_degeneracy_equals_formula(self):
        for pairs, ng in [(10, 0.5), (10, -3.5), (11, 2.0), (1, 0.0)]:
            p = params(pairs, 0.05, ng=ng)
            assert cpb_effective(p).gap() == pytest.approx(cpb_gap(p), rel=1e-12)

    def test_rejects_basis_points_and_outside(self):
        with pytest.raises(ValueError, match="coincides"):
            cpb_effective(params(10, 0.2, ng=2.0))
        with pytest.raises(ValueError, match="outside"):
            cpb_effective(params(10, 0.2, ng=7.3))


class TestCpbGap:
    def test_infinite_island_limit(self):
        p = params(10**6, 0.01, ng=0.5)
        assert quiet(cpb_gap, p) == pytest.approx(0.01, rel=1e-5)

    def test_minimal_junction_exact(self):
        p = params(1, 1.0)
        with pytest.warns(RegimeWarning):
            gap = cpb_gap(p)
        assert gap == pytest.approx(2.0)
        assert gap == pytest.approx(two_level_gap(1.0, 1.0, 0.0))

    def test_matches_dense_spectrum(self):
        for ng in (0.5, -2.5, 4.5):
            p = params(10, 0.01, ng=ng)
            values = values_of(dense_all(build(p)))
            assert cpb_gap(p) == pytest.approx(values[1] - values[0], rel=0.01)

    def test_requires_degeneracy_point(self):
        with pytest.raises(ValueError, match="degeneracy"):
            cpb_gap(params(10, 0.01, ng=0.3))
        with pytest.raises(ValueError, match="degeneracy"):
            cpb_gap(params(10, 0.01, ng=5.5))

    def test_warns_outside_charge_regime(self):
        with pytest.warns(RegimeWarning):
            cpb_gap(params(10, 0.5, ng=0.5))


class TestCpbSusceptibility:
    def test_infinite_island_limit(self):
        p = params(10**6, 0.01, ng=0.5)
        assert quiet(cpb_susceptibility, p) == pytest.approx(1.0 / 0.01, rel=1e-5)

    def test_minimal_junction_matches_derivative(self):
        p = params(1, 1.0)
        with pytest.warns(RegimeWarning):
            value = cpb_susceptibility(p)
        assert value == pytest.approx(0.5)
        assert value == pytest.approx(two_level_susceptibility(1.0, 1.0, 0.0))

    def test_matches_numerical_peak(self):
        p = params(10, 0.01, ng=0.5)
        numeric = charge_susceptibility(p, WindowPolicy.full())
        assert cpb_susceptibility(p) == pytest.approx(numeric, rel=0.02)

    def test_product_with_gap_is_charging_energy(self):
        # (E_J/2N) sqrt(X) * 2N E_C / (E_J sqrt(X)) = E_C identically
        for pairs, e_j, e_c, ng in [(10, 0.03, 1.0, 0.5), (11, 0.002, 2.5, -3.0), (1, 0.01, 0.7, 0.0)]:
            p = params(pairs, e_j, ng=ng, e_c=e_c)
            product = quiet(cpb_gap, p) * quiet(cpb_susceptibility, p)
            assert product == pytest.approx(e_c, rel=1e-12)


class TestBogoliubov:
    @given(
        e_j=st.floats(1e-3, 1e3),
        e_c=st.floats(1e-3, 1e3),
        pairs=st.integers(1, 10**8),
        ng=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_symplectic_normalization(self, e_j, e_c, pairs, ng):
        c = bogoliubov(params(pairs, e_j, ng=ng, e_c=e_c))
        # evaluated through cancelling squares, so the meaningful tolerance
        # is relative to the squeezing strength
        scale = max(1.0, c.u_plus**2 + c.u_minus**2)
        assert c.u_plus**2 - c.u_minus**2 == pytest.approx(1.0, abs=1e-12 * scale)

    def test_no_displacement_at_zero_offset(self):
        assert bogoliubov(params(60, 50.0)).u_0 == 0.0

    def test_level_spacing_formula(self):
        c = bogoliubov(params(10, 3.0, e_c=0.5))
        assert c.epsilon == pytest.approx(math.sqrt(2 * 0.5 * 3.0 + (3.0 / 5.0) ** 2))

    def test_device_scale_level_spacing(self):
        # 10 GHz / 0.2 GHz transmon on 2.5e8-pair islands: 2.000 GHz spacing
        c = bogoliubov(params(500_000_000, 10.0, e_c=0.2))
        assert c.epsilon == pytest.approx(2.0, rel=1e-12)
        assert c.epsilon > 2.0  # finite island pushes the spacing up

    def test_infinite_island_spacing_bound(self):
        for pairs in (100, 10**4, 10**6):
            p = params(pairs, 50.0)
            eps = bogoliubov(p).epsilon
            base = math.sqrt(2.0 * 50.0)
            bound = 50.0**2 / (2.0 * (pairs / 2.0) ** 2 * base)
            # slack covers rounding of the O(1) square roots themselves
            assert abs(eps - base) <= bound * (1.0 + 1e-5) + 8.0 * np.finfo(float).eps * base


class TestTransmonFrequency:
    def test_device_scale_shift(self):
        p = params(500_000_000, 10.0, e_c=0.2)
        shift = quiet(transmon_frequency, p.with_ng(1e6)) - quiet(transmon_frequency, p)
        assert shift * 1e6 == pytest.approx(-8.0, rel=1e-9)  # kHz

    def test_zero_offset_value(self):
        p = params(400, 50.0)
        assert quiet(transmon_frequency, p) == pytest.approx(math.sqrt(100.0))

    def test_elliptic_zero_is_flagged(self):
        p = params(400, 50.0, ng=400.0)
        with pytest.warns(RegimeWarning):
            value = transmon_frequency(p)
        assert value == 0.0

    def test_even_in_offset_charge(self):
        p = params(400, 50.0)
        assert quiet(transmon_frequency, p.with_ng(7.0)) == quiet(
            transmon_frequency, p.with_ng(-7.0)
        )

    def test_warns_outside_regime(self):
        with pytest.warns(RegimeWarning):
            transmon_frequency(params(400, 5.0))
        with pytest.warns(RegimeWarning):
            transmon_frequency(params(10, 50.0))  # E_J/E_C > N^2/100


class TestTransmonSusceptibility:
    def test_unity_limits(self):
        assert quiet(transmon_susceptibility, params(10**6, 50.0, ng=3.0)) == pytest.approx(
            1.0, abs=1e-5
        )
        assert quiet(transmon_susceptibility, params(400, 50.0)) == 1.0

    def test_matches_numerical(self):
        p = params(60, 50.0, ng=4.0)
        numeric = charge_susceptibility(p, WindowPolicy.full())
        assert quiet(transmon_susceptibility, p) == pytest.approx(numeric, rel=0.05)

    def test_even_in_offset_charge(self):
        p = params(400, 50.0)
        assert quiet(transmon_susceptibility, p.with_ng(5.0)) == quiet(
            transmon_susceptibility, p.with_ng(-5.0)
        )


class TestFirstOrderNumeric:
    LADDER = [60, 400, 10**4, 10**6, 10**8, 5 * 10**8]

    @pytest.mark.parametrize(
        "pairs,e_j,ng", [(400, 10.0, 40.0), (60, 50.0, 4.0), (100, 20.0, 0.0), (41, 30.0, -2.5)]
    )
    def test_matches_independent_matrix_route(self, pairs, e_j, ng):
        p = params(pairs, e_j, ng=ng)
        result = quiet(transmon_first_order_numeric, p)
        freq_ref, imb_ref = first_order_fock_reference(p)
        assert result.frequency == pytest.approx(freq_ref, rel=1e-10)
        assert result.imbalance == pytest.approx(imb_ref, rel=1e-10, abs=1e-10)
        eps = np.finfo(float).eps
        freq_ref, imb_ref = first_order_fock_reference(p, dim=14, dps=50)
        assert abs(result.frequency - freq_ref) <= eps * abs(freq_ref)
        assert abs(result.imbalance - imb_ref) <= 2 * eps * max(1.0, abs(ng))

    def test_frequency_converges_to_asymptotic_form(self):
        deviations = []
        for ratio in (10.0, 50.0, 200.0):
            p = params(400, ratio, ng=40.0)
            numeric = quiet(transmon_first_order_numeric, p).frequency
            asymptotic = quiet(transmon_frequency, p)
            deviations.append(abs(numeric - asymptotic) / bogoliubov(p).epsilon)
        assert deviations[0] > deviations[1] > deviations[2]

    def test_zero_offset_kills_imbalance(self):
        result = quiet(transmon_first_order_numeric, params(60, 50.0))
        assert result.imbalance == pytest.approx(0.0, abs=1e-12)

    def test_imbalance_derivative_reproduces_asymptotic_susceptibility(self):
        step = 1e-3
        for ratio in (20.0, 50.0, 200.0):
            p = params(400, ratio, ng=4.0)
            up = quiet(transmon_first_order_numeric, p.with_ng(4.0 + step)).imbalance
            down = quiet(transmon_first_order_numeric, p.with_ng(4.0 - step)).imbalance
            derivative = (up - down) / (2.0 * step)
            assert derivative == pytest.approx(quiet(transmon_susceptibility, p), rel=0.01)

    @pytest.mark.parametrize("pairs", LADDER)
    def test_large_island_ladder_matches_fifty_digits(self, pairs):
        # The closed forms carry no sqrt(N)-sized coefficient, so the error
        # stays within an ulp or two up to the README's 2N = 5e8 island.
        eps = np.finfo(float).eps
        for ng in (0.0, 0.25, pairs / 500):
            p = params(pairs, 10.0, ng=ng, e_c=0.2)
            result = quiet(transmon_first_order_numeric, p)
            freq_ref, imb_ref = first_order_fock_reference(p, dim=14, dps=50)
            assert abs(result.frequency - freq_ref) <= eps * abs(freq_ref)
            assert abs(result.imbalance - imb_ref) <= 2 * eps * max(1.0, abs(ng))

    @pytest.mark.parametrize("pairs", LADDER)
    def test_large_island_ladder_matches_the_engine(self, pairs):
        # The normal-ordering engine rounds each vacuum element on its own,
        # so it sits up to about 23 eps from the closed-form frequency.
        eps = np.finfo(float).eps
        for ng in (0.0, 0.25, pairs / 500):
            p = params(pairs, 10.0, ng=ng, e_c=0.2)
            result = quiet(transmon_first_order_numeric, p)
            freq_engine, imb_engine = first_order_from_engine(p)
            assert abs(result.frequency - freq_engine) <= 32 * eps * abs(freq_engine)
            assert abs(result.imbalance - imb_engine) <= 4 * eps * max(1.0, abs(ng))

    def test_device_scale_first_order_shift(self):
        p = params(500_000_000, 10.0, e_c=0.2)
        shift = (quiet(transmon_first_order_numeric, p.with_ng(1e6)).frequency
                 - quiet(transmon_first_order_numeric, p).frequency)
        reference = (first_order_fock_reference(p.with_ng(1e6), dim=14, dps=50)[0]
                     - first_order_fock_reference(p, dim=14, dps=50)[0])
        assert abs(shift - reference) <= 1e-8 * abs(reference)
        assert shift * 1e6 == pytest.approx(-8.0, rel=1e-6)  # kHz

    def test_frequency_residual_is_the_infinite_island_next_order(self):
        """First order misses the exact frequency by about -0.035 E_C/E_J at any size.

        At n_g = 0 the coefficient (exact / first order - 1) E_J/E_C does not
        move between 2N = 1e5 and 1e8, while the exact frequency meets the
        Mathieu limit (b_2(q) - a_0(q))/4, q = 2E_J/E_C, at rate 1/(2N): the
        residual is the infinite-island transmon's next order (Koch et al.,
        PRA 76, 042319, 2007), and the finite-island part is 1/N.
        """
        for ratio in (20.0, 50.0, 100.0, 200.0):
            mathieu = (mathieu_b(2, 2.0 * ratio) - mathieu_a(0, 2.0 * ratio)) / 4.0
            residuals, rates = [], []
            for pairs in (10**5, 10**8):
                p = params(pairs, ratio)
                exact = qubit_frequency(p)
                first = quiet(transmon_first_order_numeric, p).frequency
                residuals.append((exact / first - 1.0) * ratio)
                rates.append((exact / mathieu - 1.0) * pairs)
            print(f"E_J/E_C = {ratio:g}: residual coefficient {residuals[0]:.5f} / "
                  f"{residuals[1]:.5f}, 1/(2N) rate {rates[0]:.4f} / {rates[1]:.4f}")
            assert residuals[0] == pytest.approx(residuals[1], abs=1e-4)
            assert -0.04 < residuals[1] < -0.03
            assert all(0.4 <= rate <= 0.6 for rate in rates)

    def test_frequency_residual_meets_the_large_q_mathieu_series(self):
        """The residual coefficient (exact / first order - 1) E_J/E_C tends to -1/32.

        With q = 2E_J/E_C, h = sqrt(q) and s = 2m + 1, DLMF 28.8.1 gives
        a_m ~ b_{m+1} ~ -2q + 2sh - (s^2 + 1)/8 - (s^3 + 3s)/(2^7 h)
        - (5s^4 + 34s^2 + 9)/(2^12 h^2), so the frequency (E_C/4)(b_2 - a_0) is
        E_C (h - 1/4 - 1/(16h) - 21/(512h^2)) through 1/h^2.  Its first two terms
        are the first-order frequency's infinite-island limit, and the series'
        coefficient is -1/32 - 29/(1024 (h - 1/4)).  At 2N = 1e5 and 1e8 the
        program's coefficient matches Mathieu's (from b_2 - a_0) to 1e-6 and the
        series' to 2e-4, its next order, and (coefficient + 1/32)(h - 1/4) is
        -29/1024 to 2e-3.
        """
        for ratio in (100.0, 1000.0):
            h = math.sqrt(2.0 * ratio)
            first = h - 0.25
            mathieu = ((mathieu_b(2, h * h) - mathieu_a(0, h * h)) / 4.0 / first - 1.0) * ratio
            series = -1.0 / 32.0 - 29.0 / (1024.0 * first)
            for pairs in (10**5, 10**8):
                p = params(pairs, ratio)
                residual = (qubit_frequency(p)
                            / quiet(transmon_first_order_numeric, p).frequency - 1.0) * ratio
                slope = (residual + 1.0 / 32.0) * first
                print(f"E_J/E_C = {ratio:g}, 2N = {pairs:.0e}: coefficient {residual:.5f}"
                      f" (Mathieu {mathieu:.5f}, series {series:.5f}), (c + 1/32)(h - 1/4)"
                      f" {slope:.5f} (series {-29.0 / 1024.0:.5f})")
                assert residual == pytest.approx(mathieu, abs=1e-6)
                assert residual == pytest.approx(series, abs=2e-4)
                assert slope == pytest.approx(-29.0 / 1024.0, abs=2e-3)
