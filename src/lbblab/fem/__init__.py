from .elements import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    reference_element,
)
from .quadrature import QuadratureRule, quad_rule
from .dofmap import DofMap, build_dof_map
from .assembly import (
    AssembledSystem,
    assemble_pressure_mass,
    assemble_system,
)

__all__ = [
    "AssembledSystem",
    "BoundaryCondition",
    "Continuity",
    "DofMap",
    "ElementSpace",
    "Family",
    "QuadratureRule",
    "assemble_pressure_mass",
    "assemble_system",
    "build_dof_map",
    "quad_rule",
    "reference_element",
]
