"""Circuit parameters, the Bose-Hubbard map, and device-scale estimates.

The junction between two finite superconducting islands is a two-site
Bose-Hubbard problem: on-site interaction ``lam``, bias ``mu`` (half the
voltage-induced chemical-potential difference), tunneling ``nu``, and a
fixed total of ``pairs_total`` bosons.  The equivalent circuit description
uses the Josephson energy ``e_j = 2 N nu``, charging energy ``e_c = 2 lam``
and offset charge ``n_g = -mu / (2 lam)``, with ``N = pairs_total / 2``
bosons per island.
"""

from __future__ import annotations

import math
from pathlib import Path

from . import constants

# Default gate capacitance: 2e per millivolt.
DEFAULT_GATE_CAPACITANCE = 2.0 * constants.ELEMENTARY_CHARGE / 1e-3  # F

# Largest 2N for which every integer charge offset k = n + N is exact in doubles.
MAX_PAIRS_TOTAL = 2**53
# Largest dimension of an operator: its two coefficient arrays.
ARRAY_LIMIT = 1 << 26
# Half-width cap of the adaptive charge windows.
DEFAULT_W_MAX = 1 << 22


class Record:
    """Immutable value over ``__slots__``: set once by ``_fill``, compared and
    hashed field-wise, and printed as ``Name(field=value, ...)``."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class BoseHubbardParams(Record):
    """Two-site Bose-Hubbard parameters with a conserved total boson number: on-site
    interaction ``lam``, half the voltage-induced bias ``mu``, tunneling ``nu``, and
    ``pairs_total`` bosons on both islands (2N)."""

    __slots__ = ("lam", "mu", "nu", "pairs_total")

    def __init__(self, lam: float, mu: float, nu: float, pairs_total: int):
        self._fill(lam, mu, nu, pairs_total)
        if not self.lam > 0:
            raise ValueError(f"on-site interaction must be positive, got {self.lam}")
        if not self.nu > 0:
            raise ValueError(f"tunneling amplitude must be positive, got {self.nu}")
        if self.pairs_total < 1 or self.pairs_total != int(self.pairs_total):
            raise ValueError(f"pairs_total must be a positive integer, got {self.pairs_total}")


def coupling_bound(e_j: float, n_half: float) -> float:
    """E_J (2N + 1) / 4N, which bounds every coupling: sqrt(N(N+1) - n(n+1)) <= N + 1/2."""
    return e_j * (2.0 * n_half + 1.0) / (4.0 * n_half)


def coefficient_overflow(e_j: float, e_c: float, n_half: float, n_g: float) -> str | None:
    """The charge-basis coefficient that leaves the float range, or None.

    "diagonal": E_C (n - n_g)^2 peaks at E_C (N + |n_g|)^2.  "coupling": the
    couplings peak at :func:`coupling_bound`, and the eigensolver squares them.
    """
    reach = n_half + abs(n_g)
    coupling = coupling_bound(e_j, n_half)
    if not math.isfinite(e_c * reach * reach):
        return "diagonal"
    return None if math.isfinite(coupling * coupling) else "coupling"


class CircuitParams(Record):
    """Circuit-level parameter tuple (E_J, E_C, n_g, N) driving every computation.

    ``n_half`` is the boson number per island, a positive half-integer.
    Any finite ``n_g`` is accepted; ``|n_g| > n_half`` is the saturation regime.
    ``2 * n_half`` is at most :data:`MAX_PAIRS_TOTAL`, and every operator
    coefficient must stay in float range (:func:`coefficient_overflow`).
    """

    __slots__ = ("e_j", "e_c", "n_g", "n_half")

    def __init__(self, e_j: float, e_c: float, n_g: float, n_half: float):
        self._fill(e_j, e_c, n_g, n_half)
        for name in self.__slots__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.e_j > 0:
            raise ValueError(f"e_j must be positive, got {self.e_j}")
        if not self.e_c > 0:
            raise ValueError(f"e_c must be positive, got {self.e_c}")
        doubled = 2.0 * self.n_half
        if not (doubled >= 1 and doubled.is_integer()):
            raise ValueError(f"n_half must be a positive half-integer, got {self.n_half!r}")
        if doubled > MAX_PAIRS_TOTAL:
            raise ValueError(f"2*n_half must be at most 2**53, got {doubled:g}")
        part = coefficient_overflow(self.e_j, self.e_c, self.n_half, self.n_g)
        if part is not None:
            raise ValueError(f"the operator's {part} overflows the float range: {self}")

    @classmethod
    def from_pairs(cls, pairs_total: int, e_j: float, e_c: float, n_g: float = 0.0) -> "CircuitParams":
        return cls(e_j=e_j, e_c=e_c, n_g=n_g, n_half=pairs_total / 2.0)

    @property
    def pairs_total(self) -> int:
        return int(2.0 * self.n_half)

    def with_ng(self, n_g: float) -> "CircuitParams":
        return CircuitParams(self.e_j, self.e_c, n_g, self.n_half)


def map_bose_hubbard(bh: BoseHubbardParams) -> CircuitParams:
    """Map Bose-Hubbard parameters to the circuit tuple at fixed boson number."""
    n_half = bh.pairs_total / 2.0
    return CircuitParams(
        e_j=2.0 * n_half * bh.nu,
        e_c=2.0 * bh.lam,
        n_g=-bh.mu / (2.0 * bh.lam),
        n_half=n_half,
    )


def invert_bose_hubbard(cp: CircuitParams) -> BoseHubbardParams:
    """Exact algebraic inverse of :func:`map_bose_hubbard` at fixed pairs_total."""
    lam = cp.e_c / 2.0
    return BoseHubbardParams(
        lam=lam,
        mu=-cp.n_g * 2.0 * lam,
        nu=cp.e_j / (2.0 * cp.n_half),
        pairs_total=cp.pairs_total,
    )


class MaterialProps(Record):
    """Bulk superconductor properties, SI units: the superconducting ``gap`` and
    ``fermi_energy`` (J), ``electron_density`` (m^-3) and ``london_depth`` (m)."""

    __slots__ = ("gap", "fermi_energy", "electron_density", "london_depth")

    def __init__(self, gap: float, fermi_energy: float, electron_density: float,
                 london_depth: float):
        self._fill(gap, fermi_energy, electron_density, london_depth)
        for name in self.__slots__:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_lab_units(
        cls, gap_mev: float, fermi_ev: float, n_e_per_cm3: float, lambda_l_nm: float
    ) -> "MaterialProps":
        return cls(
            gap=gap_mev * constants.MILLI_EV,
            fermi_energy=fermi_ev * constants.EV,
            electron_density=n_e_per_cm3 * constants.PER_CM3,
            london_depth=lambda_l_nm * constants.NM,
        )


# In-text bulk values for aluminum.
ALUMINUM = MaterialProps.from_lab_units(
    gap_mev=0.34, fermi_ev=11.63, n_e_per_cm3=18.06e22, lambda_l_nm=16.0
)

MATERIAL_PRESETS = {"aluminum": ALUMINUM}


class ValidityReport(Record):
    """Minimum island size for superconductivity plus derived device scales.

    ``n_min`` is the equality value of the bound; any safety factor is the
    caller's choice.  ``cooper_density`` is in m^-3.  ``island_volume`` (m^3)
    is filled when a boson number per island is supplied, ``gate_voltage`` (V)
    when an offset charge is.
    """

    __slots__ = ("n_min", "cooper_density", "island_volume", "gate_voltage")

    def __init__(self, n_min: float, cooper_density: float, island_volume: float | None = None,
                 gate_voltage: float | None = None):
        self._fill(n_min, cooper_density, island_volume, gate_voltage)
        if not self.n_min > 0:
            raise ValueError("n_min must be positive")


def cooper_pair_density(m: MaterialProps) -> float:
    """Zero-temperature Cooper-pair density m_e / (2 mu_0 e^2 lambda_L^2), m^-3."""
    e = constants.ELEMENTARY_CHARGE
    return constants.ELECTRON_MASS / (
        2.0 * constants.VACUUM_PERMEABILITY * e * e * m.london_depth**2
    )


def gate_voltage(n_g: float, c_g: float = DEFAULT_GATE_CAPACITANCE) -> float:
    """Gate voltage n_g * 2e / C_g, volts."""
    if not c_g > 0:
        raise ValueError(f"gate capacitance must be positive, got {c_g}")
    return n_g * 2.0 * constants.ELEMENTARY_CHARGE / c_g


def validity_min_pairs(
    m: MaterialProps,
    n_half: float | None = None,
    n_g: float | None = None,
    c_g: float = DEFAULT_GATE_CAPACITANCE,
) -> ValidityReport:
    """Smallest boson number per island keeping the mean level spacing below the gap.

    Evaluates (fermi_energy / gap) * (n_s / n_e) with n_s from
    :func:`cooper_pair_density`.  Optional ``n_half`` and ``n_g`` fill in the
    island volume and gate voltage for a concrete device.
    """
    n_s = cooper_pair_density(m)
    n_min = (m.fermi_energy / m.gap) * (n_s / m.electron_density)
    volume = None if n_half is None else n_half / n_s
    voltage = None if n_g is None else gate_voltage(n_g, c_g)
    return ValidityReport(
        n_min=n_min, cooper_density=n_s, island_volume=volume, gate_voltage=voltage
    )


_MATERIAL_KEYS = ("gap_meV", "fermi_eV", "n_e_per_cm3", "lambdaL_nm")


def load_materials(path: str | Path) -> dict[str, MaterialProps]:
    """Read material presets from a key-value text file.

    Each material is a block of ``key = value`` lines starting with ``name``;
    blank lines and ``#`` comments are ignored.  Required keys per block:
    name, gap_meV, fermi_eV, n_e_per_cm3, lambdaL_nm.
    """
    materials: dict[str, MaterialProps] = {}
    block: dict[str, str] = {}

    def flush():
        if not block:
            return
        missing = [k for k in ("name",) + _MATERIAL_KEYS if k not in block]
        if missing:
            raise ValueError(f"material block missing keys: {', '.join(missing)}")
        materials[block["name"]] = MaterialProps.from_lab_units(
            gap_mev=float(block["gap_meV"]),
            fermi_ev=float(block["fermi_eV"]),
            n_e_per_cm3=float(block["n_e_per_cm3"]),
            lambda_l_nm=float(block["lambdaL_nm"]),
        )
        block.clear()

    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "name" and block:
            flush()
        block[key] = value
    flush()
    return materials
