"""Quantum model of a Josephson junction between finite superconducting islands.

Exact charge-basis diagonalization of the two-site junction Hamiltonian at
any island size, the closed-form charge-qubit and transmon corrections, and
the device-scale validity estimates, with a CLI that writes every result as
a CSV/JSON artifact.

``import finitejj`` loads only the numpy-free layers (``errors``, ``model``,
``perturbation``, ``wick``).  Names from ``hamiltonian``, ``eigensolve`` and
``observables`` resolve on first access through the module ``__getattr__``,
which imports their home module, so numpy loads at the first array.
"""

import importlib

from .errors import (
    CapacityError,
    ConvergenceError,
    NearDegenerateWarning,
    RegimeWarning,
    TermBudgetError,
    WindowConvergenceError,
)
from .model import (
    ALUMINUM,
    BoseHubbardParams,
    CircuitParams,
    MaterialProps,
    ValidityReport,
    cooper_pair_density,
    gate_voltage,
    invert_bose_hubbard,
    load_materials,
    map_bose_hubbard,
    validity_min_pairs,
)
from .perturbation import (
    BogoliubovCoeffs,
    FirstOrderResult,
    TwoLevelEffective,
    bogoliubov,
    cpb_effective,
    cpb_gap,
    cpb_susceptibility,
    transmon_first_order_numeric,
    transmon_frequency,
    transmon_susceptibility,
)
from .wick import (
    OperatorPoly,
    fock_oracle,
    fock_oracle_stable,
    normal_order,
    substitute_affine,
    vacuum_expectation,
)

__version__ = "0.1.0"

# Names of the numpy-backed layers, by home module, resolved on first access.
_LAZY = {
    "hamiltonian": ("ChargeWindow", "SpinMatrices", "TridiagonalHamiltonian", "build",
                    "build_windowed", "spin_matrices"),
    "eigensolve": ("EigenPair", "Spectrum", "dense_all", "eigenpair", "eigenvalue_count_below",
                   "lowest_eigenvalues"),
    "observables": ("CurvatureResult", "SweepTable", "WindowPolicy", "band_sweep",
                    "charge_susceptibility", "dispersion_curvature", "expected_imbalance",
                    "qubit_frequency", "susceptibility_curvature"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# The names imported above, then every name of ``_LAZY``.
__all__ = sorted([
    "ALUMINUM",
    "BogoliubovCoeffs",
    "BoseHubbardParams",
    "CapacityError",
    "CircuitParams",
    "ConvergenceError",
    "FirstOrderResult",
    "MaterialProps",
    "NearDegenerateWarning",
    "OperatorPoly",
    "RegimeWarning",
    "TermBudgetError",
    "TwoLevelEffective",
    "ValidityReport",
    "WindowConvergenceError",
    "bogoliubov",
    "cooper_pair_density",
    "cpb_effective",
    "cpb_gap",
    "cpb_susceptibility",
    "fock_oracle",
    "fock_oracle_stable",
    "gate_voltage",
    "invert_bose_hubbard",
    "load_materials",
    "map_bose_hubbard",
    "normal_order",
    "substitute_affine",
    "transmon_first_order_numeric",
    "transmon_frequency",
    "transmon_susceptibility",
    "vacuum_expectation",
    "validity_min_pairs",
    *_HOME,
])


def __getattr__(name):
    """Import the home module of a numpy-backed name, or that module, on access.

    The name is read from its home module every time and never bound here, so
    it always reads what the home module holds now, even after a patch is undone.
    """
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
