"""Parameter maps, material properties, and device-scale estimates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitejj import constants
from finitejj.model import (
    ALUMINUM,
    BoseHubbardParams,
    CircuitParams,
    MaterialProps,
    cooper_pair_density,
    gate_voltage,
    invert_bose_hubbard,
    load_materials,
    map_bose_hubbard,
    validity_min_pairs,
)


class TestBoseHubbardMap:
    def test_direct_substitution_unit_case(self):
        cp = map_bose_hubbard(BoseHubbardParams(lam=1.0, mu=0.0, nu=1.0, pairs_total=2))
        assert cp.e_j == 2.0
        assert cp.e_c == 2.0
        assert cp.n_g == 0.0
        assert cp.n_half == 1.0

    def test_direct_substitution_biased_case(self):
        cp = map_bose_hubbard(BoseHubbardParams(lam=0.5, mu=-1.0, nu=0.25, pairs_total=4))
        assert cp.e_j == pytest.approx(1.0)
        assert cp.e_c == pytest.approx(1.0)
        assert cp.n_g == pytest.approx(1.0)
        assert cp.n_half == 2.0

    @given(
        lam=st.floats(1e-3, 1e3),
        mu=st.floats(-1e3, 1e3),
        nu=st.floats(1e-3, 1e3),
        pairs=st.integers(1, 10**9),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, lam, mu, nu, pairs):
        bh = BoseHubbardParams(lam=lam, mu=mu, nu=nu, pairs_total=pairs)
        back = invert_bose_hubbard(map_bose_hubbard(bh))
        assert back.pairs_total == pairs
        assert back.lam == pytest.approx(lam, rel=1e-14)
        assert back.nu == pytest.approx(nu, rel=1e-14)
        assert back.mu == pytest.approx(mu, rel=1e-14, abs=1e-14 * lam)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            BoseHubbardParams(lam=0.0, mu=0.0, nu=1.0, pairs_total=2)
        with pytest.raises(ValueError):
            BoseHubbardParams(lam=1.0, mu=0.0, nu=-1.0, pairs_total=2)
        with pytest.raises(ValueError):
            BoseHubbardParams(lam=1.0, mu=0.0, nu=1.0, pairs_total=0)


class TestCircuitParams:
    def test_half_integer_boson_number(self):
        p = CircuitParams(e_j=1.0, e_c=1.0, n_g=0.0, n_half=0.5)
        assert p.pairs_total == 1

    def test_saturation_offset_allowed(self):
        CircuitParams(e_j=1.0, e_c=1.0, n_g=1e7, n_half=5.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CircuitParams(e_j=-1.0, e_c=1.0, n_g=0.0, n_half=1.0)
        with pytest.raises(ValueError):
            CircuitParams(e_j=1.0, e_c=0.0, n_g=0.0, n_half=1.0)
        with pytest.raises(ValueError):
            CircuitParams(e_j=1.0, e_c=1.0, n_g=0.0, n_half=0.75)

    @pytest.mark.parametrize("n_half", [5 + 1e-10, math.nextafter(5.0, 6.0), 0.0, 0.25])
    def test_n_half_must_be_exactly_a_positive_half_integer(self, n_half):
        # 5 + 1e-10 once passed as 2N = 10 and built an operator whose n = 0 diagonal
        # read 1.0e-20 and whose couplings used 2N = 10.0000000002.
        with pytest.raises(ValueError, match="n_half must be a positive half-integer"):
            CircuitParams(e_j=1.0, e_c=1.0, n_g=0.0, n_half=n_half)

    @pytest.mark.parametrize("field", ["e_j", "e_c", "n_g", "n_half"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_inputs_rejected(self, field, value):
        fields = {"e_j": 1.0, "e_c": 1.0, "n_g": 0.0, "n_half": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CircuitParams(**fields)

    def test_pairs_limit_is_two_to_the_53(self):
        assert CircuitParams.from_pairs(2**53, e_j=1.0, e_c=1.0).pairs_total == 2**53
        with pytest.raises(ValueError, match="2\\*\\*53"):
            CircuitParams.from_pairs(2**54, e_j=1.0, e_c=1.0)

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"n_g": 1e155}, "diagonal"),
            ({"n_g": -1e155}, "diagonal"),
            ({"e_c": 1e306}, "diagonal"),  # E_C N^2 at 2N = 200
            ({"e_j": 1e155}, "coupling"),
        ],
    )
    def test_overflowing_coefficients_rejected(self, fields, reason):
        values = {"e_j": 1.0, "e_c": 1.0, "n_g": 0.0, "n_half": 100.0, **fields}
        with pytest.raises(ValueError, match=reason):
            CircuitParams(**values)
        below = {k: v * 1e-2 for k, v in fields.items()}
        CircuitParams(**{**values, **below})


class TestCooperPairDensity:
    def test_aluminum_value(self):
        # m_e / (2 mu_0 e^2 lambda_L^2) at lambda_L = 16 nm, by hand:
        # 9.1093837015e-31 / 1.65159e-59 = 5.5155e28 m^-3.
        n_s = cooper_pair_density(ALUMINUM)
        assert n_s == pytest.approx(5.5155e28, rel=1e-4)

    def test_inverse_square_scaling(self):
        doubled = MaterialProps(
            gap=ALUMINUM.gap,
            fermi_energy=ALUMINUM.fermi_energy,
            electron_density=ALUMINUM.electron_density,
            london_depth=2.0 * ALUMINUM.london_depth,
        )
        assert cooper_pair_density(doubled) == pytest.approx(
            cooper_pair_density(ALUMINUM) / 4.0, rel=1e-14
        )

    def test_island_volume_at_device_scale(self):
        # 2.5e8 pairs per island in aluminum occupy about 0.005 um^3.
        report = validity_min_pairs(ALUMINUM, n_half=2.5e8)
        assert report.island_volume / 1e-18 == pytest.approx(0.005, rel=0.10)


class TestValidityBound:
    def test_aluminum_minimum_size(self):
        report = validity_min_pairs(ALUMINUM)
        assert report.n_min == pytest.approx(1.0e4, rel=0.05)

    def test_halving_gap_doubles_bound(self):
        softer = MaterialProps(
            gap=ALUMINUM.gap / 2.0,
            fermi_energy=ALUMINUM.fermi_energy,
            electron_density=ALUMINUM.electron_density,
            london_depth=ALUMINUM.london_depth,
        )
        assert validity_min_pairs(softer).n_min == pytest.approx(
            2.0 * validity_min_pairs(ALUMINUM).n_min, rel=1e-14
        )

    def test_identity_case(self):
        n_s = cooper_pair_density(ALUMINUM)
        m = MaterialProps(
            gap=1.0 * constants.EV,
            fermi_energy=1.0 * constants.EV,
            electron_density=n_s,
            london_depth=ALUMINUM.london_depth,
        )
        assert validity_min_pairs(m).n_min == pytest.approx(1.0, rel=1e-12)

    def test_linear_scalings_by_ratio(self):
        base = validity_min_pairs(ALUMINUM).n_min
        richer = MaterialProps(
            gap=ALUMINUM.gap,
            fermi_energy=3.0 * ALUMINUM.fermi_energy,
            electron_density=ALUMINUM.electron_density,
            london_depth=ALUMINUM.london_depth,
        )
        assert validity_min_pairs(richer).n_min / base == pytest.approx(3.0, rel=1e-12)
        denser = MaterialProps(
            gap=ALUMINUM.gap,
            fermi_energy=ALUMINUM.fermi_energy,
            electron_density=5.0 * ALUMINUM.electron_density,
            london_depth=ALUMINUM.london_depth,
        )
        assert validity_min_pairs(denser).n_min / base == pytest.approx(0.2, rel=1e-12)


class TestGateVoltage:
    def test_kilovolt_example(self):
        assert gate_voltage(1e6) == pytest.approx(1000.0, rel=1e-12)

    def test_zero_offset(self):
        assert gate_voltage(0.0) == 0.0

    def test_unit_definition(self):
        # n_g = 1 at C_g = 2e/mV is one millivolt by construction.
        assert gate_voltage(1.0) == pytest.approx(1e-3, rel=1e-12)

    def test_report_carries_device_numbers(self):
        report = validity_min_pairs(ALUMINUM, n_half=2.5e8, n_g=1e6)
        assert report.gate_voltage == pytest.approx(1000.0, rel=1e-12)


class TestMaterialFile:
    def test_load_and_match_builtin(self, tmp_path):
        text = """
# bulk presets
name = aluminum
gap_meV = 0.34
fermi_eV = 11.63
n_e_per_cm3 = 18.06e22
lambdaL_nm = 16

name = testium
gap_meV = 1.0
fermi_eV = 5.0
n_e_per_cm3 = 1e22
lambdaL_nm = 40
"""
        path = tmp_path / "materials.txt"
        path.write_text(text)
        loaded = load_materials(path)
        assert set(loaded) == {"aluminum", "testium"}
        assert loaded["aluminum"] == ALUMINUM
        assert loaded["testium"].london_depth == pytest.approx(40e-9)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name = foo\ngap_meV = 1.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_materials(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name aluminum\n")
        with pytest.raises(ValueError, match="key = value"):
            load_materials(path)
