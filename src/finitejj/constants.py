"""Physical constants (CODATA 2018) and unit helpers.

All device-scale estimates in :mod:`finitejj.model` evaluate with these
values so the aluminum worked numbers reproduce to the quoted figures.
"""

ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg
VACUUM_PERMEABILITY = 1.25663706212e-6  # N / A^2

EV = ELEMENTARY_CHARGE  # J per eV
MILLI_EV = 1e-3 * EV

NM = 1e-9  # m
PER_CM3 = 1e6  # m^-3 per cm^-3
