"""Pseudo-spectral ideal MHD on the 3-torus with Gevrey-class diagnostics.

Evolves the velocity/magnetic pair, tracks directional Gevrey norms and an
analyticity-radius ODE, and ships a verification lab that checks the
trilinear identities, inequalities and energy balance behind the radius
estimates by brute-force triad summation.
"""

from .norms import GevreyParams
from .solver import cfl_timestep, energy, run
from .spectral import Grid, taylor_green_mhd

__version__ = "0.1.0"
