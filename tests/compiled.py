"""The compiled kernels of the step one by one, each on its own arrays.

A step runs them inside its compiled phases (:class:`capflow.forms.Workspace`),
which hand each kernel the workspace's storage; the package binds only the
library's storage, step, mass action and formatter (``kernels.Kernel``).
Here the tests bind the other kernels on the same library
(:func:`entries`) and call them one at a time, to hold each against the
numpy kernel it replaced (``pattern_forms``) and to build the mesh-velocity
system a step solves; the band factor, with its forward elimination of the
loads, and the back-substitution with its checks factor and solve that
system, hand-made ones and copies of a step's, to hold the envelope LU
against dense loops.  Each wrapper checks the shapes its kernel reads and
writes, as far as the records' shapes reach, its binding checks the dtype
and layout of every array it passes, and it finds the library through
``kernels.kernel()`` when called, so a test may hand them another build.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from capflow import kernels
from capflow.errors import DimensionMismatch
from capflow.forms import (FixedPattern, LinearSystem, RadialTable, _extension_pattern,
                           mass_action, radial_table)
from capflow.geometry import AxiMesh, BoundaryTag
from capflow.kernels import _Array, expect


class Entries:
    """The kernels of a :class:`~capflow.kernels.Kernel`'s library that only
    the tests call, bound on its handle (:meth:`~capflow.kernels.Kernel.bind`),
    every array checked per call."""

    def __init__(self, kernel: kernels.Kernel):
        size, real = ctypes.c_ssize_t, ctypes.c_double
        values, out = _Array(np.float64), _Array(np.float64, writeable=True)
        index, at32 = _Array(np.int64), _Array(np.int32)
        bind = kernel.bind
        self.element_data = bind("element_data", (size, index, *(values,) * 4, out))
        self.triangle_blocks = bind("triangle_blocks", (size, index, *(values,) * 12, real, real,
                                                        real, out))
        self.r_stiffness = bind("r_stiffness", (size, *(values,) * 4, out))
        self.edge_blocks = bind("edge_blocks", (size, index, size, index, *(values,) * 4, real,
                                                real, real, out, out))
        self.state_rhs = bind("state_rhs", (size, size, index, values, size, index, values, values,
                                            values, values, real, real, real, real, size, real,
                                            size, index, out, out))
        self.extension_rhs = bind("extension_rhs", (size, size, index, values, values, values,
                                                    size, index, values, size, index, out, out))
        self.scatter_add = bind("scatter_add", (size, at32, values, out))
        band = _Array(np.float64, "F_CONTIGUOUS", writeable=True)
        self.band_factor = bind("band_factor", (size, size, size, at32, at32, band, size, out),
                                size)
        self.band_solve = bind("band_solve", (size, size, size, at32,
                                              _Array(np.float64, "F_CONTIGUOUS"), at32, at32,
                                              values, size, values, values, out, out), size)
        self.residual = bind("residual", (size, at32, at32, values, size, values, values, out),
                             size)


@functools.cache
def entries(kernel: kernels.Kernel) -> Entries:
    """The test-only kernels of kernel's library, bound once per Kernel."""
    return Entries(kernel)


def lib() -> Entries:
    """The test-only kernels of the library ``kernels.kernel()`` gives now."""
    return entries(kernels.kernel())


@dataclass(frozen=True)
class ElementData:
    """Per-triangle geometry reused by every volume form: what changes with z,
    read-only and C-contiguous, and the mesh's :class:`RadialTable`."""

    tri: np.ndarray         # (M, 3) vertex indices
    area: np.ndarray        # (M,)
    grad_r: np.ndarray      # (M, 3) constant dN_i/dr
    grad_z: np.ndarray      # (M, 3) constant dN_i/dz
    wr: np.ndarray          # (M, 3) r-weighted quadrature weight: area/3 times r at each point
    r_int: np.ndarray       # (M,) integral of r over the element
    radial: RadialTable


def check_fields(mesh: AxiMesh, *fields) -> None:
    """Raise DimensionMismatch unless every field lives on mesh."""
    if any(f.mesh is not mesh for f in fields):
        raise DimensionMismatch("field defined on a different mesh")


def element_data(mesh: AxiMesh) -> ElementData:
    """Per-triangle geometry of mesh from the ``element_data`` kernel, once per mesh."""
    return mesh.memo(_element_data)


def _element_data(mesh: AxiMesh) -> ElementData:
    table = radial_table(mesh.topology)
    m = len(mesh.triangles)
    out = np.empty(10 * m)
    lib().element_data(m, mesh.triangles, mesh.z, mesh.areas, table.rq, table.dr, out)
    out.setflags(write=False)
    grad_r, grad_z, wr = out[:9 * m].reshape(3, m, 3)
    return ElementData(tri=mesh.triangles, area=mesh.areas, grad_r=grad_r, grad_z=grad_z, wr=wr,
                       r_int=out[9 * m:], radial=table)


def triangle_blocks(ed, w, V, dt: float, nu: float, Cs: float, out: np.ndarray) -> None:
    """Write each triangle's 9x9 saddle block, on the local dofs (u_r, u_z, p)
    of its vertices, into out, (M, 9, 9): ed is the mesh's
    :class:`ElementData`, w the advecting velocity and V the mesh velocity,
    :class:`~capflow.fields.VectorFieldP1` on the mesh."""
    m = len(ed.tri)
    expect("triangle blocks", out, (m, 9, 9))
    if not w.mesh.triangles is V.mesh.triangles is ed.tri:
        raise DimensionMismatch("fields over another topology")
    t = ed.radial
    lib().triangle_blocks(m, ed.tri, ed.area, ed.r_int, ed.grad_r, ed.grad_z, ed.wr, t.inv_r,
                          t.rn, t.hoop, t.zz, t.coupling_z, w.values, V.values, dt, nu, Cs, out)


def r_stiffness(ed, out: np.ndarray) -> None:
    """Write each triangle's r-weighted stiffness, integral of
    r grad N_i . grad N_j, into out, (M, 3, 3); ed as for :func:`triangle_blocks`."""
    m = len(ed.tri)
    expect("stiffness blocks", out, (m, 3, 3))
    lib().r_stiffness(m, ed.area, ed.r_int, ed.grad_r, ed.radial.zz, out)


def edge_blocks(mesh, w, V, beta, gamma, dt, wall, surface) -> None:
    """Write the wall friction, beta times the r-weighted edge mass on u_z of
    each wall edge's ends, into wall (E, 2, 2), and on (u_r, u_z) of each
    free-surface edge's ends the flux of w - V on both components plus dt
    times the surface stabilization of tension gamma into surface (E, 4, 4);
    w and V are fields over mesh's topology."""
    topology = mesh.topology
    expect("wall blocks", wall, (len(topology.boundary_edges[BoundaryTag.WALL]), 2, 2))
    expect("surface blocks", surface,
           (len(topology.boundary_edges[BoundaryTag.FREE_SURFACE]), 4, 4))
    edges = topology.boundary_edges
    lib().edge_blocks(len(wall), edges[BoundaryTag.WALL], len(surface),
                      edges[BoundaryTag.FREE_SURFACE], topology.radii, mesh.z, w.values,
                      V.values, beta, gamma, dt, wall, surface)


def loads(mesh, u, dt, zeta, phys, pattern, bottom) -> np.ndarray:
    """On the kept dofs of pattern, 0 on a pressure dof: the mass action of
    u, a field over mesh's topology, over dt, plus the loads on mesh: gravity,
    bottom stress (p_bar + zeta) e3 with bottom the (2 N,) load of a unit
    one, the Laplace-Beltrami weak form of surface tension (integrated by
    parts, so no curvature is evaluated) and the contact-line force
    gamma cos(theta_s) on the contact circle."""
    ed, topology, n = element_data(mesh), mesh.topology, mesh.num_nodes
    surface = topology.boundary_edges[BoundaryTag.FREE_SURFACE]
    contact = phys.gamma * np.cos(phys.theta_s) * topology.radii[mesh.contact_node]
    rhs = np.empty(len(pattern.free))
    lib().state_rhs(n, len(ed.tri), ed.tri, ed.wr, len(surface), surface, topology.radii,
                    mesh.z, mass_action(u), bottom, dt, phys.g, phys.p_bar + zeta,
                    phys.gamma, mesh.contact_node, contact, len(pattern.free), pattern.free,
                    np.zeros(4 * n), rhs)
    return rhs


def extension_rhs(u, stiffness) -> tuple[np.ndarray, np.ndarray]:
    """The Dirichlet data g, the vertical surface speed (u . nu)/nu_3 of u
    (zero on the bottom), and the reduced right-hand side, minus stiffness
    (M, 3, 3) times g."""
    mesh = u.mesh
    topology, n, ed = mesh.topology, mesh.num_nodes, element_data(mesh)
    expect("stiffness blocks", stiffness, (len(ed.tri), 3, 3))
    pattern = topology.memo(_extension_pattern)
    work, rhs = np.zeros(2 * n), np.empty(len(pattern.free))     # g, then its lifting
    surface = topology.boundary_edges[BoundaryTag.FREE_SURFACE]
    lib().extension_rhs(n, len(surface), surface, topology.radii, mesh.z, u.values, len(ed.tri),
                        ed.tri, stiffness, len(pattern.free), pattern.free, work, rhs)
    return work[:n], rhs


def values(pattern: FixedPattern) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """A zeroed data array and an uninitialised flat value array for
    :func:`fill`, and the value array's (E, k, k) view per family of
    pattern, in build order."""
    data = np.zeros(len(pattern.indices) + 1)
    vals = np.empty(len(pattern.slot))
    views, at = [], 0
    for e, k in pattern.shapes:
        views.append(vals[at:at + e * k * k].reshape(e, k, k))
        at += e * k * k
    return data, vals, views


def fill(pattern: FixedPattern, data: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The reduced matrix's CSC data, one value per stored entry on
    pattern's (indices, indptr), read-only: the flat local values summed
    into data, both from :func:`values`, in their order, by the compiled
    ``scatter_add``; the sums are those of a bincount, bit for bit."""
    expect("data", data, (len(pattern.indices) + 1,))
    expect("values", vals, pattern.slot.shape)
    lib().scatter_add(len(pattern.slot), pattern.slot, vals, data)
    data.setflags(write=False)
    return data[:-1]


def band_storage(system: LinearSystem) -> np.ndarray:
    """System's matrix scattered by the compiled ``scatter_add`` into zeroed
    (kl + ku + 1, n) Fortran-ordered band storage of its pattern's layout,
    as the factor phase scatters it before it factors."""
    band = system.pattern.band
    n = len(band.lower)
    expect("matrix data", system.data, band.position.shape)
    ab = np.zeros(band.ldab * n)
    lib().scatter_add(len(band.position), band.position, system.data, ab)
    return ab.reshape((band.ldab, n), order="F")


def factor_band(ab: np.ndarray, band, y: np.ndarray | None = None) -> int:
    """Factor the band storage ab in place without pivoting, within the
    envelope of band, a :class:`~capflow.forms.BandLayout`, and eliminate by
    it the loads y, (k, n) with k = 1 or 2 if given, forward in place; 0, or
    the 1-based column of the first exactly zero pivot."""
    n = len(band.lower)
    expect("band storage", ab, (band.ldab, n))
    y = np.empty((0, n)) if y is None else y
    if len(y) not in (0, 1, 2):
        raise DimensionMismatch(f"{len(y)} loads, not 1 or 2")
    expect("loads", y, (len(y), n))
    return lib().band_factor(n, band.kl, band.ku, band.lower, band.upper, ab, len(y), y)


def solve_band(lu: np.ndarray, band, pattern, data: np.ndarray, b: np.ndarray,
               x: np.ndarray) -> tuple[np.ndarray, int]:
    """Overwrite x, (k, n), k = 1 or 2, holding L^-1 b_t on entry (the
    forward elimination of :func:`factor_band`), with x_t = A^-1 b_t, lu A's
    :func:`factor_band` with band, and check each, A the CSC matrix of data on
    pattern's structure: out, (k, n + 2), row t A x_t with scipy's bits,
    ||A x_t - b_t||^2, ||b_t||^2; flags, bit t if x_t is not finite."""
    expect("band storage", lu, (band.ldab, len(band.lower)))
    n, k = lu.shape[1], min(max(len(x), 1), 2)      # the checks below refuse any other count
    expect("matrix structure", pattern.indptr, (n + 1,))
    expect("matrix data", data, pattern.indices.shape)
    expect("right-hand sides", b, (k, n))
    expect("solutions", x, (k, n))
    out = np.empty((k, n + 2))
    flags = lib().band_solve(n, band.kl, band.ku, band.upper, lu, pattern.indptr,
                             pattern.indices, data, k, b[0], b[-1], x, out)
    return out, flags


def residual(pattern, data: np.ndarray, b: np.ndarray, x: np.ndarray, out: np.ndarray) -> int:
    """The checks of :func:`solve_band` alone, of the solutions x, (k, n),
    k = 1 or 2, of the loads b, (k, n), A the CSC matrix of data on
    pattern's structure, into out, (k, n + 2), as :func:`solve_band` writes
    them; the flags, bit t if x_t is not finite."""
    n, k = len(pattern.indptr) - 1, min(max(len(x), 1), 2)
    expect("matrix data", data, pattern.indices.shape)
    expect("right-hand sides", b, (k, n))
    expect("solutions", x, (k, n))
    expect("checks", out, (k, n + 2))
    return lib().residual(n, pattern.indptr, pattern.indices, data, k, b, x, out)


def solve_system(ab: np.ndarray, band, pattern, data: np.ndarray, b: np.ndarray):
    """The factor of the band storage ab, unfactored, on a copy, with the
    forward elimination of the loads b, one (n,) or k (k, n), then the
    back-substitution and checks (:func:`solve_band`): the factors, the
    solutions (k, n), out and the flags."""
    lu, x = ab.copy(order="F"), np.atleast_2d(b).copy()
    assert factor_band(lu, band, x) == 0
    out, flags = solve_band(lu, band, pattern, data, np.atleast_2d(b), x)
    return lu, x, out, flags


def mesh_velocity_system(mesh, u) -> LinearSystem:
    """The mesh-velocity system of the velocity u on mesh, which the motion
    phase fills, factors and solves, built from the kernels one by one."""
    check_fields(mesh, u)
    pattern = mesh.topology.memo(_extension_pattern)
    data, vals, (stiffness,) = values(pattern)
    r_stiffness(element_data(mesh), stiffness)
    _, rhs = extension_rhs(u, stiffness)
    return LinearSystem(pattern=pattern, data=fill(pattern, data, vals), rhs=rhs, mesh=mesh)
