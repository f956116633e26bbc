"""Periodic-rhythm solver suite for a spectrally truncated monodomain heart model.

Finds time-periodic solutions of the monodomain reaction-diffusion system with
Rogers-McCulloch kinetics on an interval, via a cosine Galerkin truncation.
Two independent solution paths are provided (Picard iteration on a periodic
integral operator, and quasi-Newton shooting on the period map) together
with the parameter-feasibility conditions that guarantee such rhythms exist.

The package root exports only ``__version__``; import everything else from
the submodules (``monorhythm.periodic``, ``monorhythm.cli`` and so on).
"""

__version__ = "0.1.0"
