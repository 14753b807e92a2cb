"""lbblab: a 2D finite-element laboratory for discrete inf-sup (LBB) constants."""

from . import analytic, fem, geometry, infsup, perturb, spectral
from .geometry import (
    Mesh,
    SvSplitParams,
    element_sizes,
    rect_grid,
    refine_uniform,
    regular_polygon_mesh,
    regularity_index,
    sv_split,
)
from .fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    build_dof_map,
)
from .infsup import BetaResult, PairConfig, compute_beta
from .spectral import (
    SchurOperator,
    SolverOptions,
    dense_schur,
    factorize_spd,
    smallest_generalized_eigs,
)

__version__ = "0.1.0"
