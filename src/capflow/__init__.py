"""Axisymmetric ALE finite elements for capillary nozzle flow, with an
adjoint-based instantaneous controller acting on the open-bottom stress."""

from .config import RunConfig, load_config, num_params, parse_config, phys_params, serialize_config
from .control import RunHistory, run_instantaneous_control
from .errors import (CapflowError, ConfigError, DimensionMismatch, DomainEmptied,
                     KernelBuildError, MeshTangled, ResidualTooLarge, SingularMatrix,
                     SurfaceFolded, WallViolation)
from .fields import NumParams, PhysParams, ScalarFieldP1, VectorFieldP1
from .forms import LinearSystem, beta_h, mass_action
from .geometry import (AxiMesh, BoundaryTag, MeshTopology, build_structured_mesh,
                       contact_line_height, displace_mesh, mesh_quality)
from .observables import equilibrium_height, transient_time
from .stepping import FlowState, StepDiagnostics, initial_state, step
from .writers import write_history_csv, write_vtk_snapshot

__all__ = [name for name in dir() if not name.startswith("_")]
