import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from capflow.errors import DimensionMismatch, MeshTangled, WallViolation
from capflow.fields import NumParams, PhysParams, ScalarFieldP1, VectorFieldP1, trusted
from capflow.geometry import AxiMesh, MeshTopology, build_structured_mesh
from capflow.stepping import initial_state, step

from .test_stepping import tc1_params

COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda record: pickle.loads(pickle.dumps(record))}


def test_scalar_field_shape_enforced():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(DimensionMismatch):
        ScalarFieldP1(np.zeros(4), mesh)


def test_nonfinite_values_rejected():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    vals = np.zeros(mesh.num_nodes)
    vals[0] = np.nan
    with pytest.raises(DimensionMismatch):
        ScalarFieldP1(vals, mesh)


def test_vector_field_wall_axis_invariant():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    vals = np.zeros((mesh.num_nodes, 2))
    vals[mesh.wall_nodes[0], 0] = 1e-12
    with pytest.raises(DimensionMismatch):
        VectorFieldP1(vals, mesh)


def test_fields_read_only():
    """A field keeps a read-only copy of its values; the caller's array stays
    writeable, and writing it leaves the field alone."""
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    for cls, given in ((VectorFieldP1, np.zeros((mesh.num_nodes, 2))),
                       (ScalarFieldP1, np.zeros(mesh.num_nodes))):
        field = cls(given, mesh)
        with pytest.raises(ValueError):
            field.values[0] = 1.0
        assert given.flags.writeable
        given[...] = 2.0
        assert not field.values.any(), cls.__name__


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
def test_a_copy_is_rebuilt_from_its_fields(copy_of):
    """copy, deepcopy and pickle rebuild each of the four records of a 4x8
    state after a controlled step, which the step made without their
    constructors, from its fields through its constructor: the copy's arrays
    equal the original's and are read-only, the pressure's too, and it takes
    no memo along."""
    phys, num = tc1_params()
    num = dataclasses.replace(num, N1=4, N3=8)
    state, _ = step(initial_state(5e-4, 5e-5, num), 1e-4, phys, num, gradient=True)
    topology, mesh, u, p = state.mesh.topology, state.mesh, state.u, state.p
    assert "_memo" in vars(topology) and "_memo" in vars(u)
    for record in (topology, mesh, u, p):
        copied = copy_of(record)
        name = type(record).__name__
        assert type(copied) is type(record) and "_memo" not in vars(copied), name
        for field in dataclasses.fields(record):
            value, given = getattr(copied, field.name), getattr(record, field.name)
            pairs = (zip(value.values(), given.values()) if isinstance(value, dict)
                     else [(value, given)])
            for a, b in pairs:
                if isinstance(a, np.ndarray):
                    assert not a.flags.writeable and np.array_equal(a, b), (name, field.name)


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
def test_a_copy_runs_its_constructors_checks(copy_of):
    """A record made without its constructor's checks (:func:`trusted`) is
    checked when copied or unpickled, and a copy of one that breaks them
    raises the check's error."""
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    topology = mesh.topology
    radial = np.zeros((mesh.num_nodes, 2))
    radial[mesh.wall_nodes[0], 0] = 1.0
    broken = [
        (trusted(MeshTopology, triangles=topology.triangles,
                 boundary_edges=topology.boundary_edges, contact_node=topology.contact_node,
                 radii=topology.radii, radius=2.0),
         WallViolation, "wall node off the cylinder"),
        (trusted(AxiMesh, z=-mesh.z, topology=topology), MeshTangled, "non-positive area"),
        (trusted(VectorFieldP1, values=radial, mesh=mesh), DimensionMismatch,
         "nonzero radial component"),
        (trusted(ScalarFieldP1, values=np.full(mesh.num_nodes, np.nan), mesh=mesh),
         DimensionMismatch, "non-finite"),
    ]
    for record, error, message in broken:
        with pytest.raises(error, match=message):
            copy_of(record)


def test_phys_params_validation():
    with pytest.raises(ValueError):
        PhysParams(nu=-1.0, gamma=1.0, chi=1.0, theta_s=1.0, p_bar=0.0, g=9.81)
    with pytest.raises(ValueError):
        PhysParams(nu=1.0, gamma=1.0, chi=1.0, theta_s=3.2, p_bar=0.0, g=9.81)


def test_num_params_validation():
    with pytest.raises(ValueError):
        NumParams(dt=0.0, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=1.0)
    with pytest.raises(ValueError):
        NumParams(dt=1e-3, Cs=-0.1, N1=4, N3=4, alpha=0.0, lam=0.0, T=1.0)
    with pytest.raises(ValueError):
        NumParams(dt=1e-3, Cs=0.4, N1=1, N3=4, alpha=0.0, lam=0.0, T=1.0)
    # the final time is a whole number of steps; NaN and infinity fail the check
    for T in (-1e-3, 0.0, 5e-4, 2.5e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="whole number of time steps"):
            NumParams(dt=1e-3, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=T)
    assert NumParams(dt=2e-3, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=0.2).T == 0.2

