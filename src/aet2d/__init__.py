"""2D limited-angle acousto-electrical tomography toolkit.

Forward power-density modeling on unit-disk triangulations, adjoint-based
steepest-descent Landweber reconstruction with discrepancy stopping, and
SVD-based ill-posedness quantification of the linearized problem.
"""

from .fem import (
    InnerProductSpec,
    NodalField,
    assemble_boundary_load,
    assemble_stiffness,
    gram_matrix,
    norm_sq,
)
from .forward import (
    ForwardState,
    MeasurementSet,
    determinant_diagnostic,
    simulate_data,
    solve_measurement_set,
)
from .illposed import SvdReport, TransferMatrix, assemble_transfer_matrix, condition_table, svd_analyze
from .inversion import IterationLog, ReconstructionConfig, add_noise, run_landweber
from .mesh import BoundaryArc, Mesh, accessible_boundary_edges, generate_disk_mesh
from .phantom import PhantomSpec, c2_ramp, default_phantom, evaluate_phantom, phantom_field
from .sensitivity import adjoint_apply, derivative_apply

__version__ = "0.1.0"

__all__ = [
    "BoundaryArc",
    "ForwardState",
    "InnerProductSpec",
    "IterationLog",
    "MeasurementSet",
    "Mesh",
    "NodalField",
    "PhantomSpec",
    "ReconstructionConfig",
    "SvdReport",
    "TransferMatrix",
    "accessible_boundary_edges",
    "add_noise",
    "adjoint_apply",
    "assemble_boundary_load",
    "assemble_stiffness",
    "assemble_transfer_matrix",
    "c2_ramp",
    "condition_table",
    "default_phantom",
    "derivative_apply",
    "determinant_diagnostic",
    "evaluate_phantom",
    "generate_disk_mesh",
    "gram_matrix",
    "norm_sq",
    "phantom_field",
    "run_landweber",
    "simulate_data",
    "solve_measurement_set",
    "svd_analyze",
]
