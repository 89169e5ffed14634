"""Two-dimensional Dirac oscillator: closed-form spectrum and eigenfunctions
with independent numerical verification (finite-difference eigensolver,
quadrature and residual checks)."""

from .oracle import (
    ResidualReport,
    TridiagonalOperator,
    build_radial_operator,
    closed_form_norm_constant,
    coupled_residual,
    dirac_energies_from_k1,
    integrate_radial,
    ode_residual,
    smallest_eigenvalues,
)
from .specfun import kummer_m, laguerre
from .spectrum import (
    EnergyLevel,
    NrExpansion,
    QuantumNumbers,
    energy,
    level_spacings,
    nr_expansion,
    quantization_residual,
)
from .units import PhysicalParams, natural_params, to_dimensionless_z
from .wavefn import (
    KummerProfile,
    RadialFunction,
    RadialGrid,
    SpinorSample,
    TruncationError,
    count_radial_nodes,
    default_grid,
    derive_lower_component,
    normalize,
    radial_psi1,
    radial_psi2,
    sign_changes,
    spinor_sample,
)

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams",
    "natural_params",
    "to_dimensionless_z",
    "kummer_m",
    "laguerre",
    "QuantumNumbers",
    "EnergyLevel",
    "NrExpansion",
    "energy",
    "quantization_residual",
    "nr_expansion",
    "level_spacings",
    "RadialGrid",
    "RadialFunction",
    "KummerProfile",
    "SpinorSample",
    "TruncationError",
    "default_grid",
    "radial_psi1",
    "radial_psi2",
    "normalize",
    "derive_lower_component",
    "spinor_sample",
    "count_radial_nodes",
    "sign_changes",
    "TridiagonalOperator",
    "ResidualReport",
    "integrate_radial",
    "build_radial_operator",
    "smallest_eigenvalues",
    "ode_residual",
    "coupled_residual",
    "closed_form_norm_constant",
    "dirac_energies_from_k1",
]
