"""Valuative stability invariants for polarized spherical varieties.

Exact computation of delta/alpha thresholds, weighted Duistermaat-Heckman
barycenters, Ding-type stability verdicts, and Sasaki-Einstein Reeb vectors
from the combinatorial data of a spherical variety.
"""

from .fixtures import BUILTIN_NAMES, builtin_document, builtin_spherical_input
from .geom import Cone, VPolytope
from .invariants import (
    DingVerdict,
    InvariantReport,
    S_p,
    T_max,
    alpha,
    barycenter_g,
    beta_g,
    delta_g,
    delta_p,
    ding_check,
)
from .quad import (
    AffinePowerWeight,
    ConstantWeight,
    DHDensity,
    DHFactor,
    Polynomial,
    PolynomialWeight,
    dh_moments,
    integrate_poly,
)
from .rootsys import RootSystem, dh_density
from .schema import load_input, parse_input_document
from .soliton import ReebProblem, ReebSolution, solve_reeb
from .spherical import DivisorRecord, SphericalInput, lattice_points

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "AffinePowerWeight",
    "Cone",
    "ConstantWeight",
    "DHDensity",
    "DHFactor",
    "DingVerdict",
    "DivisorRecord",
    "InvariantReport",
    "Polynomial",
    "PolynomialWeight",
    "ReebProblem",
    "ReebSolution",
    "RootSystem",
    "S_p",
    "SphericalInput",
    "T_max",
    "VPolytope",
    "alpha",
    "barycenter_g",
    "beta_g",
    "builtin_document",
    "builtin_spherical_input",
    "delta_g",
    "delta_p",
    "dh_density",
    "dh_moments",
    "ding_check",
    "integrate_poly",
    "lattice_points",
    "load_input",
    "parse_input_document",
    "solve_reeb",
]
