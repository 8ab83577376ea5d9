"""Nodal P1 fields and the physical/numerical parameter records.

Velocity-like quantities live in :class:`VectorFieldP1` (one (r, z) pair per
node), pressure-like quantities in :class:`ScalarFieldP1`.  Fields keep a
reference to the mesh they were built on; mixing a field with a different
mesh raises :class:`~capflow.errors.DimensionMismatch`.  A field keeps a
read-only copy of the values it is given, so the caller's array stays
writeable, and holds no kernel pointer: a step copies its velocity into the
topology's workspace and the new one out.  A copy or an unpickled field is
built anew from its fields, through its constructor (:class:`_Memo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .geometry import AxiMesh


class _Memo:
    """Per-object cache of derived data; the object itself is immutable, and
    so are its arrays.  A record's state is its dataclass fields: a copy or
    an unpickled record is rebuilt from them through its constructor, with
    its checks, and builds its caches anew."""

    def memo(self, build):
        """build(self) on the first call with this build function, its stored result after."""
        cache = self.__dict__.setdefault("_memo", {})
        if build not in cache:
            cache[build] = build(self)
        return cache[build]

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class ScalarFieldP1(_Memo):
    """One scalar value per mesh node."""

    values: np.ndarray
    mesh: "AxiMesh"

    def __post_init__(self):
        values = np.array(self.values, dtype=float, order="C")
        if values.shape != (self.mesh.num_nodes,):
            raise DimensionMismatch(
                f"scalar field has {values.shape}, mesh has {self.mesh.num_nodes} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise DimensionMismatch("scalar field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class VectorFieldP1(_Memo):
    """One (r, z) vector per mesh node.

    Nodes on the wall or on the symmetry axis must carry a zero radial
    component (the essential condition of the flow problem); this is checked
    on construction.  Values are read-only, so products of the field alone
    (its mass action) are computed once through :meth:`memo`.
    """

    values: np.ndarray
    mesh: "AxiMesh"

    def __post_init__(self):
        values = np.array(self.values, dtype=float, order="C")
        if values.shape != (self.mesh.num_nodes, 2):
            raise DimensionMismatch(
                f"vector field has {values.shape}, mesh has {self.mesh.num_nodes} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise DimensionMismatch("vector field contains non-finite values")
        radial = values[self.mesh.radial_constrained_nodes, 0]
        if radial.size and np.max(np.abs(radial)) != 0.0:
            raise DimensionMismatch(
                "nonzero radial component on wall/axis nodes"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def trusted(cls, **attrs):
    """A record of cls holding attrs, without its construction's checks: for
    the arrays of a compiled phase, which made the same checks."""
    record = object.__new__(cls)
    record.__dict__.update(attrs)
    return record


def zero_vector_field(mesh: "AxiMesh") -> VectorFieldP1:
    return VectorFieldP1(np.zeros((mesh.num_nodes, 2)), mesh)


def zero_scalar_field(mesh: "AxiMesh") -> ScalarFieldP1:
    return ScalarFieldP1(np.zeros(mesh.num_nodes), mesh)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants, density-rescaled.

    nu      kinematic viscosity [m^2/s]
    gamma   surface tension over density [m^3/s^2]
    chi     dimensionless wall-slip parameter in beta_h = nu/(chi*h3)
    theta_s static contact angle [rad]
    p_bar   bottom stress over density [m^2/s^2]
    g       gravity [m/s^2]
    """

    nu: float
    gamma: float
    chi: float
    theta_s: float
    p_bar: float
    g: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.nu > 0 and self.gamma > 0 and self.g > 0):
            raise ValueError("nu, gamma and g must be positive")
        if not self.chi > 0:
            raise ValueError("chi must be positive")
        if not 0.0 < self.theta_s < math.pi:
            raise ValueError("theta_s must lie strictly between 0 and pi")


@dataclass(frozen=True)
class NumParams:
    """Discretization constants.

    dt     time step [s]
    Cs     pressure-stabilization constant
    N1, N3 radial / vertical cell counts
    alpha  gradient step length of the controller
    lam    Tikhonov weight of the control penalty
    T      final time [s], a whole number of steps dt
    """

    dt: float
    Cs: float
    N1: int
    N3: int
    alpha: float
    lam: float
    T: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.Cs >= 0 and self.alpha >= 0 and self.lam >= 0):
            raise ValueError("Cs, alpha and lam must be nonnegative")
        if not (self.N1 >= 2 and self.N3 >= 2):
            raise ValueError("N1 and N3 must be at least 2")
        steps = self.T / self.dt
        whole = round(steps) if math.isfinite(steps) else 0
        if not (self.T > 0 and whole >= 1 and abs(steps - whole) <= 1e-9 * whole):
            raise ValueError(f"T must be a positive whole number of time steps dt, "
                             f"got T/dt = {steps!r}")
