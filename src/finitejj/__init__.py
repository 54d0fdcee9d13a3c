"""Quantum model of a Josephson junction between finite superconducting islands.

Exact charge-basis diagonalization of the two-site junction Hamiltonian at
any island size, the closed-form charge-qubit and transmon corrections, and
the device-scale validity estimates, with a CLI that writes every result as
a CSV/JSON artifact.

``import finitejj`` loads none of the package's modules.  Every public name
below resolves on first access through the module ``__getattr__``, which
imports its home module, so a name costs only the layers it lives in: the closed
forms and the normal-ordering engine load only when a name from them is read,
and numpy only for ``SweepTable.grid``, ``SweepTable.columns`` and ``dense_all``.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by home module, resolved on first access.
_LAZY = {
    "errors": ("CapacityError", "ConvergenceError", "NearDegenerateWarning", "RegimeWarning",
               "TermBudgetError", "WindowConvergenceError"),
    "model": ("ALUMINUM", "BoseHubbardParams", "CircuitParams", "MaterialProps",
              "ValidityReport", "cooper_pair_density", "gate_voltage", "invert_bose_hubbard",
              "load_materials", "map_bose_hubbard", "validity_min_pairs"),
    "hamiltonian": ("TridiagonalHamiltonian", "build"),
    "eigensolve": ("EigenPair", "Spectrum", "dense_all", "eigenpair", "eigenvalue_count_below",
                   "lowest_eigenvalues"),
    "observables": ("CurvatureResult", "SweepTable", "WindowPolicy", "band_sweep",
                    "charge_susceptibility", "dispersion_curvature", "expected_imbalance",
                    "qubit_frequency", "susceptibility_curvature"),
    "perturbation": ("BogoliubovCoeffs", "FirstOrderResult", "bogoliubov", "cpb_gap",
                     "cpb_susceptibility", "transmon_first_order_numeric", "transmon_frequency",
                     "transmon_susceptibility"),
    "wick": ("OperatorPoly", "fock_oracle", "vacuum_expectation"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the home module of a public name, or that module, on access.

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
