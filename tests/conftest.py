from dataclasses import replace

import numpy as np
import pytest

import capflow.forms
from capflow import kernels
from capflow.acceptance import run_tc1, tc1_config
from capflow.config import num_params, phys_params
from capflow.fields import VectorFieldP1, zero_scalar_field
from capflow.forms import workspace
from capflow.geometry import AxiMesh, BoundaryTag, MeshTopology, build_structured_mesh
from capflow.stepping import FlowState, step


def two_triangle_mesh(radius=1.0, height=1.0):
    """Minimal valid half-section: one cell split into two triangles."""
    nodes = np.array([[0.0, 0.0], [radius, 0.0], [radius, height], [0.0, height]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    edges = {
        BoundaryTag.BOTTOM: np.array([[0, 1]]),
        BoundaryTag.WALL: np.array([[1, 2]]),
        BoundaryTag.FREE_SURFACE: np.array([[3, 2]]),
        BoundaryTag.AXIS: np.array([[0, 3]]),
    }
    topology = MeshTopology(triangles=tris, boundary_edges=edges, contact_node=2,
                            radii=nodes[:, 0], radius=radius)
    return AxiMesh(z=nodes[:, 1], topology=topology)


def mesh_at(mesh, nodes):
    """A mesh at the (N, 2) nodes over mesh's topology where nodes keep its
    radii, else over a copy of that topology with nodes' radii."""
    nodes = np.asarray(nodes, dtype=float)
    topology = mesh.topology
    if not np.array_equal(nodes[:, 0], topology.radii):
        topology = replace(topology, radii=nodes[:, 0])
    return AxiMesh(z=nodes[:, 1], topology=topology)


def perturbed_mesh(seed=3, amplitude=0.05):
    """Structured 2x2-cell grid with interior/surface nodes jiggled.

    Wall and axis radii, bottom heights and the graph property of the free
    surface are preserved, so all mesh invariants keep holding.
    """
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes.copy()
    interior = [i for i in range(mesh.num_nodes)
                if i not in set(mesh.wall_nodes) | set(mesh.axis_nodes)
                | set(mesh.bottom_nodes) | set(mesh.surface_nodes)]
    nodes[interior] += amplitude * rng.uniform(-1, 1, (len(interior), 2))
    surf = [i for i in mesh.surface_nodes if i not in mesh.wall_nodes and i not in mesh.axis_nodes]
    nodes[surf, 1] += amplitude * rng.uniform(-1, 1, len(surf))
    nodes[mesh.axis_nodes, 1] += amplitude * rng.uniform(-1, 1, len(mesh.axis_nodes)) \
        * (mesh.nodes[mesh.axis_nodes, 1] > 0) * (mesh.nodes[mesh.axis_nodes, 1] < 1)
    return mesh_at(mesh, nodes)


def random_vector_field(mesh, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = scale * rng.standard_normal((mesh.num_nodes, 2))
    vals[mesh.radial_constrained_nodes, 0] = 0.0
    return VectorFieldP1(vals, mesh)


def mesh_velocity(mesh, u):
    """The mesh velocity of the velocity u on mesh, and the relative residual
    of its solve: what the motion of a step from mesh and u leaves in the
    topology's workspace.  V does not depend on dt, so the step takes tc1's
    parameters with a hundredth of its dt, which moves the mesh too little
    to tangle it."""
    cfg = tc1_config()
    phys, num = phys_params(cfg), num_params(replace(cfg, dt=cfg.dt / 100))
    _, diag = step(FlowState(mesh=mesh, u=u, p=zero_scalar_field(mesh), t=0.0), 0.0, phys, num)
    return VectorFieldP1(workspace(mesh.topology).V.copy(), mesh), diag.ale_residual


def factored_systems(monkeypatch):
    """A list to which each saddle system a step factors is appended, from
    this call on: the copies of its data and loads that the topology's
    workspace makes after the step, on its new mesh."""
    systems = []
    run = capflow.forms.Workspace.step

    def recording(ws, *args):
        mesh_new, *fields = run(ws, *args)
        systems.append(ws.system(mesh_new))
        return (mesh_new, *fields)

    monkeypatch.setattr(capflow.forms.Workspace, "step", recording)
    return systems


def phase_calls(monkeypatch, record):
    """Call record(struct) after each call of the compiled ``step``, the one
    call that advances a slab, from this call on; struct is the workspace
    struct it was handed."""
    lib = kernels.kernel()

    def spy(struct, entry=lib.step):
        status = entry(struct)
        record(struct)
        return status

    monkeypatch.setattr(lib, "step", spy)


@pytest.fixture(scope="session")
def tc1():
    cfg = tc1_config()
    return cfg, phys_params(cfg), num_params(cfg)


@pytest.fixture(scope="session")
def tc1_uncontrolled():
    return run_tc1(controlled=False)


@pytest.fixture(scope="session")
def tc1_controlled():
    return run_tc1(controlled=True)
