import math

import numpy as np
import pytest

from capflow.errors import DimensionMismatch
from capflow.fields import (NumParams, PhysParams, ScalarFieldP1, VectorFieldP1,
                            zero_scalar_field, zero_vector_field)
from capflow.geometry import build_structured_mesh


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
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    u = zero_vector_field(mesh)
    with pytest.raises(ValueError):
        u.values[0, 1] = 2.0
    p = zero_scalar_field(mesh)
    with pytest.raises(ValueError):
        p.values[0] = 1.0


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

