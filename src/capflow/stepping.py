"""One semi-implicit time step of the coupled geometry + flow problem.

Order per step: extend the surface speed into a domain velocity, move the
mesh explicitly, then solve the implicit momentum/continuity system on the
new geometry with the old fields carried over by nodal identification.
:func:`step` advances a slab in one compiled call on the topology's
workspace (:class:`~capflow.forms.Workspace`), which runs each part as a
phase in turn: the motion, the assembly, the factor of the saddle system
with the forward elimination of its loads, and the solve.  Asked for the
control gradient, the step solves for it in the state's solve with that LU,
which never leaves the workspace.  :func:`slab_system`, for the tests and
scripts that inspect a slab's matrix, takes a controlled step and copies
out the saddle system it left in the workspace, which keeps that step's
mesh velocity, LU and solutions until the next.  Every solve of the step, the
mesh velocity, the state and the gradient's, is gated on its relative
residual, and the step reports each, with each phase's wall time from the
phases' own clocks.

The workspace allocates the storage of the phases, the band, the element
blocks and the old and the new state among it, once per topology, in one
block that the compiled code sizes and lays out.  A step copies the old
state in and the new one out, as one array that its records slice, so it
allocates only that, a few pages, and its records hold plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import (NumParams, PhysParams, ScalarFieldP1, VectorFieldP1, zero_scalar_field,
                     zero_vector_field)
from .forms import LinearSystem, workspace
from .geometry import AxiMesh, build_structured_mesh, mesh_quality
from .kernels import PHASES


@dataclass(frozen=True)
class FlowState:
    mesh: AxiMesh
    u: VectorFieldP1
    p: ScalarFieldP1
    t: float


@dataclass(frozen=True)
class StepDiagnostics:
    """What a step reports about the slab it solved.

    ``residual``, ``ale_residual`` and ``bottom_residual`` are the relative
    residuals of the state, the mesh-velocity and the bottom-load solves, and
    ``bottom_integral`` is the control gradient's bottom integral; the last
    two are 0.0 for a step not asked for the gradient.  ``min_area`` and
    ``max_aspect`` are the new mesh's :func:`mesh_quality`, read-only
    properties computed on first read and memoised on the mesh, so a loop
    that never reads them pays nothing for them.  ``phase_ms`` holds the wall
    time in ms of each phase of the step, by name (ALE, motion, assembly,
    factor, solves), from ``CLOCK_MONOTONIC`` in the compiled phases.  The
    five clocks are disjoint: "ALE" times the mesh velocity and "motion" the
    rest of the motion phase (the emptying guard and the displacement), so
    ALE + motion is the whole motion.
    """

    residual: float
    ale_residual: float
    bottom_residual: float
    bottom_integral: float
    u_max: float
    z_cl: float
    mesh: AxiMesh = field(repr=False)
    phase_ms: dict = field(default_factory=dict, repr=False)

    @property
    def min_area(self) -> float:
        return self.mesh.memo(mesh_quality)[0]

    @property
    def max_aspect(self) -> float:
        return self.mesh.memo(mesh_quality)[1]


def initial_state(radius: float, height: float, num: NumParams) -> FlowState:
    """Liquid column at rest."""
    mesh = build_structured_mesh(radius, height, num.N1, num.N3)
    return FlowState(mesh=mesh, u=zero_vector_field(mesh), p=zero_scalar_field(mesh), t=0.0)


def slab_system(state: FlowState, zeta: float, phys: PhysParams, num: NumParams) -> LinearSystem:
    """The saddle system that :func:`step` factors for the slab from state
    with the bottom control stress zeta, assembled on the moved mesh
    (``system.mesh``): a controlled step, and copies of what it left in the
    topology's workspace (:meth:`~capflow.forms.Workspace.system`).  Raises
    what the step raises.
    """
    ws = workspace(state.mesh.topology)
    mesh_new, _, _ = ws.step(state.mesh, state.u, zeta, phys, num, 0.0, True)
    return ws.system(mesh_new)


def step(state: FlowState, zeta: float, phys: PhysParams, num: NumParams,
         floor: float = 0.0, gradient: bool = False) -> tuple[FlowState, StepDiagnostics]:
    """Advance by dt with the bottom control stress zeta held fixed over the
    slab; returns the new state and the step's diagnostics.

    With gradient, the diagnostics also hold the bottom integral of the control
    gradient, I_b = b^T A^{-T} m, and its solve's residual: A is the slab's
    reduced saddle matrix, m the mass action on the new velocity (zero in
    the pressure rows) and b the load of a unit bottom stress, d rhs / d
    zeta.  zeta is one scalar, so I_b = m^T (A^{-1} b), the tangent response
    w = A^{-1} b weighted by m (the adjoint/tangent duality; Giles & Pierce
    2000, Flow Turbul. Combust. 65): a second right-hand side of the state's
    plain solve, never one with A transposed.  The slab is one compiled call
    on the topology's workspace (:meth:`~capflow.forms.Workspace.step`),
    whose storage holds the one factorization and its solutions; the step's
    records hold copies of the state it wrote there.  Raises DomainEmptied
    if the contact line would reach ``floor``.
    """
    ws = workspace(state.mesh.topology)
    mesh_new, u_new, p_new = ws.step(state.mesh, state.u, zeta, phys, num, floor, gradient)
    s = ws.struct
    # numpy's product, whose sum order the compiled loops do not reproduce
    bottom_integral = float(ws.reduced @ ws.w) if gradient else 0.0
    new = FlowState(mesh=mesh_new, u=u_new, p=p_new, t=state.t + num.dt)
    # z_next is the contact node's new height, as the motion computed it
    diag = StepDiagnostics(residual=s.rel[0], ale_residual=s.ale_residual,
                           bottom_residual=s.rel[1] if gradient else 0.0,
                           bottom_integral=bottom_integral, u_max=s.u_max, z_cl=s.z_next,
                           mesh=mesh_new, phase_ms=dict(zip(PHASES, s.phase_ms)))
    return new, diag
