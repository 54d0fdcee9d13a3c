"""Quantum model of a Josephson junction between finite superconducting islands.

Exact charge-basis diagonalization of the two-site junction Hamiltonian at
any island size, the closed-form charge-qubit and transmon corrections, and
the device-scale validity estimates, with a CLI that writes every result as
a CSV/JSON artifact.
"""

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
from .hamiltonian import (
    ChargeWindow,
    SpinMatrices,
    TridiagonalHamiltonian,
    build,
    build_windowed,
    spin_matrices,
)
from .eigensolve import (
    EigenPair,
    Spectrum,
    dense_all,
    eigenpair,
    eigenvalue_count_below,
    lowest_eigenvalues,
)
from .observables import (
    CurvatureResult,
    SweepTable,
    WindowPolicy,
    band_sweep,
    charge_susceptibility,
    dispersion_curvature,
    expected_imbalance,
    qubit_frequency,
    susceptibility_curvature,
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

__all__ = [
    "ALUMINUM",
    "BogoliubovCoeffs",
    "BoseHubbardParams",
    "CapacityError",
    "ChargeWindow",
    "CircuitParams",
    "ConvergenceError",
    "CurvatureResult",
    "EigenPair",
    "FirstOrderResult",
    "MaterialProps",
    "NearDegenerateWarning",
    "OperatorPoly",
    "RegimeWarning",
    "Spectrum",
    "SpinMatrices",
    "SweepTable",
    "TermBudgetError",
    "TridiagonalHamiltonian",
    "TwoLevelEffective",
    "ValidityReport",
    "WindowConvergenceError",
    "WindowPolicy",
    "band_sweep",
    "bogoliubov",
    "build",
    "build_windowed",
    "charge_susceptibility",
    "cooper_pair_density",
    "cpb_effective",
    "cpb_gap",
    "cpb_susceptibility",
    "dense_all",
    "dispersion_curvature",
    "eigenpair",
    "eigenvalue_count_below",
    "expected_imbalance",
    "fock_oracle",
    "fock_oracle_stable",
    "gate_voltage",
    "invert_bose_hubbard",
    "load_materials",
    "lowest_eigenvalues",
    "map_bose_hubbard",
    "normal_order",
    "qubit_frequency",
    "spin_matrices",
    "substitute_affine",
    "susceptibility_curvature",
    "transmon_first_order_numeric",
    "transmon_frequency",
    "transmon_susceptibility",
    "vacuum_expectation",
    "validity_min_pairs",
]
