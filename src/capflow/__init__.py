"""Axisymmetric ALE finite elements for capillary nozzle flow, with an
adjoint-based instantaneous controller acting on the open-bottom stress."""

from .adjoint import AdjointState, solve_adjoint
from .ale import DomainVelocity, solve_domain_velocity
from .config import RunConfig, load_config, num_params, parse_config, phys_params, serialize_config
from .control import (ControlState, RunHistory, gradient, objective_increment,
                      run_instantaneous_control, update_control)
from .errors import (CapflowError, ConfigError, DimensionMismatch, DomainEmptied,
                     MeshTangled, ResidualTooLarge, SingularMatrix, SurfaceFolded,
                     WallViolation)
from .fields import NumParams, PhysParams, ScalarFieldP1, VectorFieldP1
from .forms import (LinearSystem, assemble_state_system, beta_h, form_a, form_b,
                    form_c_ALE, form_S_Gamma, form_s, form_s_p, mass_action,
                    mass_matrix, rhs_F, solve)
from .geometry import (AxiMesh, BoundaryTag, MeshTopology, build_structured_mesh,
                       contact_line_height, displace_mesh, mesh_quality,
                       surface_normals)
from .observables import equilibrium_height, transient_time
from .stepping import FlowState, StepDiagnostics, initial_state, step
from .writers import write_history_csv, write_vtk_snapshot

__all__ = [name for name in dir() if not name.startswith("_")]
