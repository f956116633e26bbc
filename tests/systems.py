"""Model configurations reused across test modules.

The "feasible" setup keeps epsilon * c4 / C = 1 exactly: amplitude-100
potentials with threshold fraction 1/4 give c4 = a1 * 25 * 100 = 31.25, and
epsilon = 0.032 with unit capacitance makes the zeroth eigenvalue 1. The
"linear" variant zeroes the reaction coefficients and pins c4 by override so
the spectrum stays put.
"""

from monorhythm.galerkin import GalerkinSystem
from monorhythm.ionic import PhysiologicalParameters, derive_parameters
from monorhythm.spectral import Geometry1D, Stimulus, build_basis

EPSILON, XI = 0.032, 3.75
GEOM = Geometry1D(1.0)
PERIOD = 2.0
PHI = 0.005


def feasible_model():
    phys = PhysiologicalParameters(
        u_res=0.0, u_peak=100.0, a=0.25, c1=125.0, c2=100.0, c3=1.0, b=1.0, sigma_const=1.0
    )
    return derive_parameters(phys, EPSILON, XI)


def linear_model():
    phys = PhysiologicalParameters(
        u_res=0.0, u_peak=100.0, a=0.25, c1=0.0, c2=0.0, c3=1.0, b=1.0, sigma_const=1.0
    )
    return derive_parameters(phys, EPSILON, XI, c4_override=31.25)


def feasible_system(m=8, amplitude=1.0, phi=PHI, period=PERIOD):
    d = feasible_model()
    basis = build_basis(GEOM, m, d)
    stim = Stimulus("sinusoid", period=period, phi_value=phi, amplitude=amplitude)
    return GalerkinSystem(basis, d, stim)


def linear_system(m=4, s0=1.0, phi=PHI, period=PERIOD, kind="constant"):
    d = linear_model()
    basis = build_basis(GEOM, m, d)
    stim = Stimulus(kind, period=period, phi_value=phi, amplitude=s0)
    return GalerkinSystem(basis, d, stim)
