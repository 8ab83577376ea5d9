import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.errors import DimensionMismatch, MeshTangled, SurfaceFolded, WallViolation
from capflow.fields import VectorFieldP1
from capflow.geometry import (AxiMesh, BoundaryTag, MeshTopology, build_structured_mesh,
                              contact_line_height, displace_mesh, mesh_quality,
                              radial_differences)

from . import pattern_forms
from .conftest import mesh_at, perturbed_mesh, two_triangle_mesh
from .pattern_forms import surface_edges, surface_normals


def _with(a, index, value):
    """A copy of a with a[index] = value."""
    out = np.array(a, dtype=type(value))
    out[index] = value
    return out


class TestBuild:
    def test_reference_grid_counts(self):
        mesh = build_structured_mesh(5e-4, 5e-5, 16, 32)
        assert mesh.num_nodes == 17 * 33 == 561
        assert len(mesh.triangles) == 1024
        assert contact_line_height(mesh) == 5e-5
        assert mesh.nodes[mesh.contact_node, 0] == 5e-4

    def test_tiny_grid_tags(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        assert mesh.num_nodes == 9
        assert len(mesh.triangles) == 8
        for tag in BoundaryTag:
            assert len(mesh.boundary_edges[tag]) == 2

    def test_min_area_uniform_grid(self):
        mesh = build_structured_mesh(5e-4, 5e-5, 16, 32)
        min_area, _ = mesh_quality(mesh)
        assert min_area == pytest.approx((5e-4 / 16) * (5e-5 / 32) / 2, rel=1e-12)

    def test_rejects_bad_arguments(self):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            for radius, height in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError, match="^radius and height must be positive"):
                    build_structured_mesh(radius, height, 4, 4)
        with pytest.raises(ValueError):
            build_structured_mesh(1.0, 1.0, 1, 4)

    def test_nodes_read_only(self):
        """The nodes and the topology's node sets are read-only: a velocity's
        wall/axis check reads radial_constrained_nodes."""
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            mesh.nodes[0, 0] = 1.0
        for name in ("wall_nodes", "axis_nodes", "bottom_nodes", "surface_nodes",
                     "radial_constrained_nodes"):
            nodes = getattr(mesh.topology, name)
            assert nodes is getattr(mesh, name) and nodes.size, name
            with pytest.raises(ValueError):
                nodes[:] = 0

    def test_nodes_are_the_topology_radii_beside_the_heights(self):
        mesh = perturbed_mesh(seed=2)
        vals = np.zeros((mesh.num_nodes, 2))
        vals[:, 1] = 0.2 * mesh.z
        for m in (mesh, displace_mesh(mesh, VectorFieldP1(vals, mesh), 0.5)):
            assert np.array_equal(m.nodes, np.column_stack((mesh.topology.radii, m.z)))
            assert m.nodes is m.nodes and not m.nodes.flags.writeable
            assert not m.z.flags.writeable and not m.topology.radii.flags.writeable

    def test_topology_leaves_the_callers_arrays_alone(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        edges = {tag: np.array(e, dtype=np.int32) for tag, e in mesh.boundary_edges.items()}
        given = dict(edges)
        triangles = np.array(mesh.triangles, dtype=np.int32)
        radii = np.array(mesh.topology.radii, dtype=np.float32)
        topology = MeshTopology(triangles=triangles, boundary_edges=edges,
                                contact_node=mesh.contact_node, radii=radii, radius=1)
        AxiMesh(z=mesh.z, topology=topology)
        assert all(edges[tag] is given[tag] for tag in BoundaryTag)
        assert all(e.dtype == np.int32 and e.flags.writeable for e in edges.values())
        assert triangles.dtype == np.int32 and triangles.flags.writeable
        assert radii.dtype == np.float32 and radii.flags.writeable
        # the topology holds read-only int64 and float copies of its own
        own = [topology.triangles, *topology.boundary_edges.values()]
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in own)
        assert topology.boundary_edges is not edges
        assert topology.radii.dtype == float and not topology.radii.flags.writeable
        assert type(topology.radius) is float

    def test_topology_takes_fortran_ordered_arrays(self):
        """Column-stacked index arrays, Fortran-ordered, make the same
        topology: its copies are C-ordered, as the kernels read them."""
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        edges = {tag: np.vstack((e[:, 0], e[:, 1])).T for tag, e in mesh.boundary_edges.items()}
        triangles = np.asfortranarray(mesh.triangles)
        assert triangles.flags.f_contiguous and not triangles.flags.c_contiguous
        assert all(e.flags.f_contiguous and not e.flags.c_contiguous for e in edges.values())
        topology = MeshTopology(triangles=triangles, boundary_edges=edges,
                                contact_node=mesh.contact_node, radii=mesh.topology.radii,
                                radius=mesh.topology.radius)
        own = [topology.triangles, *topology.boundary_edges.values()]
        assert all(a.flags.c_contiguous for a in own)
        assert np.array_equal(topology.triangles, mesh.triangles)
        assert all(np.array_equal(topology.boundary_edges[tag], mesh.boundary_edges[tag])
                   for tag in BoundaryTag)
        assert np.array_equal(AxiMesh(z=mesh.z, topology=topology).areas, mesh.areas)

    def test_mesh_leaves_the_callers_nodes_alone(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        z = mesh.z.copy()
        m = AxiMesh(z=z, topology=mesh.topology)
        assert z.flags.writeable
        assert m.z is not z and not m.z.flags.writeable
        z[0] = 0.5              # the caller may still edit its array; the mesh keeps its copy
        assert m.z[0] == mesh.z[0] and m.nodes[0, 1] == mesh.nodes[0, 1]

    def test_node_count_must_match_the_topology(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        radii = mesh.topology.radii
        # radii that miss a vertex of a triangle, or are not one per node
        for bad in (radii[:-1], radii[:, None]):
            with pytest.raises(DimensionMismatch, match="vertex index"):
                replace(mesh.topology, radii=bad)
        for z in (mesh.z[:-1], np.append(mesh.z, 1.0), mesh.nodes):
            with pytest.raises(DimensionMismatch, match="topology"):
                AxiMesh(z=z, topology=mesh.topology)

    @pytest.mark.parametrize("node, r, message", [("axis", 1e-9, "axis node off r = 0"),
                                                   ("interior", -1e-9, "negative radial")],
                             ids=["axis-off-zero", "negative"])
    def test_radii_are_checked_on_the_topology(self, node, r, message):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        radii = mesh.topology.radii.copy()
        radii[mesh.axis_nodes[1] if node == "axis" else 4] = r     # 4: the centre node
        with pytest.raises(DimensionMismatch, match=message):
            replace(mesh.topology, radii=radii)

    @pytest.mark.parametrize("build", [
        lambda m: AxiMesh(z=_with(m.z, 4, np.nan), topology=m.topology),
        lambda m: AxiMesh(z=_with(m.z, 4, np.inf), topology=m.topology),
        lambda m: replace(m.topology, radii=_with(m.topology.radii, 4, np.nan)),
        lambda m: replace(m.topology, radius=np.nan),
        lambda m: replace(m.topology, triangles=_with(m.triangles, (0, 0), -1)),
        lambda m: replace(m.topology, triangles=np.column_stack((m.triangles, m.triangles[:, 0]))),
        lambda m: replace(m.topology, triangles=m.triangles[:, :2]),
        lambda m: replace(m.topology, boundary_edges={
            **m.boundary_edges, BoundaryTag.BOTTOM: np.tile(m.boundary_edges[BoundaryTag.BOTTOM],
                                                             (1, 2))[:, :3]}),
        lambda m: replace(m.topology, boundary_edges={
            tag: e for tag, e in m.boundary_edges.items() if tag is not BoundaryTag.AXIS}),
    ], ids=["nan-height", "inf-height", "nan-interior-radius", "nan-cylinder", "negative-vertex-index",
            "triangles-Mx4", "triangles-Mx2", "edges-Ex3", "missing-tag"])
    def test_bad_outside_input_is_a_dimension_mismatch(self, build):
        # each was accepted, or failed later with an untyped or unrelated error
        with pytest.raises(DimensionMismatch):
            build(build_structured_mesh(1.0, 1.0, 2, 2))     # node 4 is the centre

    def test_meshes_read_connectivity_from_their_topology(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        moved = displace_mesh(mesh, VectorFieldP1(np.zeros((mesh.num_nodes, 2)), mesh), 0.1)
        for m in (mesh, moved):
            assert m.topology is mesh.topology
            assert m.triangles is mesh.topology.triangles
            assert m.boundary_edges is mesh.topology.boundary_edges
            assert m.contact_node == mesh.topology.contact_node


class TestDisplace:
    def test_zero_velocity_is_identity(self):
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        V = VectorFieldP1(np.zeros((mesh.num_nodes, 2)), mesh)
        moved = displace_mesh(mesh, V, 0.1)
        assert np.array_equal(moved.nodes, mesh.nodes)

    def test_linear_vertical_stretch(self):
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        vals = np.zeros((mesh.num_nodes, 2))
        vals[:, 1] = 0.5 * mesh.nodes[:, 1]     # zero on the bottom, linear in z
        moved = displace_mesh(mesh, VectorFieldP1(vals, mesh), 1.0)
        assert np.allclose(moved.nodes[:, 1], 1.5 * mesh.nodes[:, 1])
        assert np.array_equal(moved.nodes[:, 0], mesh.nodes[:, 0])
        assert np.all(moved.nodes[moved.wall_nodes, 0] == mesh.radius)

    def test_inverting_velocity_tangles(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        vals = np.zeros((mesh.num_nodes, 2))
        # drive one surface node far below its row neighbours
        node = [i for i in mesh.surface_nodes if i not in mesh.wall_nodes
                and i not in mesh.axis_nodes][0]
        vals[node, 1] = -10.0
        with pytest.raises(MeshTangled):
            displace_mesh(mesh, VectorFieldP1(vals, mesh), 1.0)

    def test_tangled_mesh_names_its_first_bad_triangle(self):
        """The message gives the count, and the index, area and vertex (r, z)
        of the first triangle with non-positive area, to locate the tangle."""
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        z = mesh.z.copy()
        z[4] = -0.75                    # the middle node, (0.5, 0.5), below the bottom
        r = mesh.topology.radii
        p = np.stack((r[mesh.triangles], z[mesh.triangles]), axis=-1)
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        bad = np.flatnonzero(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] <= 0)
        assert 0 < len(bad) < len(mesh.triangles)
        with pytest.raises(MeshTangled) as err:
            AxiMesh(z=z, topology=mesh.topology)
        message = str(err.value)
        assert message.startswith(f"{len(bad)} triangle(s) with non-positive area, "
                                  f"the first triangle {bad[0]} of area -")
        assert message.endswith(", ".join(f"({r[v]:.6e}, {z[v]:.6e})"
                                          for v in mesh.triangles[bad[0]]) + " m")

    def test_tangling_displacement_names_its_dt(self):
        """displace_mesh's MeshTangled is the new mesh's message with the step's dt."""
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        vals = np.zeros((mesh.num_nodes, 2))
        vals[4, 1] = -5.0               # the middle node, (0.5, 0.5), to z = -0.75
        with pytest.raises(MeshTangled) as tangled:
            AxiMesh(z=mesh.z + 0.25 * vals[:, 1], topology=mesh.topology)
        with pytest.raises(MeshTangled) as err:
            displace_mesh(mesh, VectorFieldP1(vals, mesh), 0.25)
        assert str(err.value) == f"{tangled.value}, after a step of dt = 2.500000e-01 s"

    def test_nonzero_bottom_velocity_rejected(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        vals = np.zeros((mesh.num_nodes, 2))
        vals[mesh.bottom_nodes, 1] = 1.0
        with pytest.raises(DimensionMismatch):
            displace_mesh(mesh, VectorFieldP1(vals, mesh), 1.0)

    def test_nonzero_radial_velocity_rejected(self):
        # radii never change: a radial mesh velocity off the wall and the axis,
        # which the field itself allows, is rejected as well
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        interior = np.setdiff1d(np.arange(mesh.num_nodes), np.concatenate(
            (mesh.radial_constrained_nodes, mesh.bottom_nodes, mesh.surface_nodes)))
        for node in (interior[0], mesh.surface_nodes[1]):
            vals = np.zeros((mesh.num_nodes, 2))
            vals[:, 1] = 0.1 * mesh.nodes[:, 1]
            vals[node, 0] = 1e-300
            with pytest.raises(DimensionMismatch, match="radial"):
                displace_mesh(mesh, VectorFieldP1(vals, mesh), 1.0)

    def test_roundtrip_restores_coordinates(self):
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        rng = np.random.default_rng(1)
        vals = np.zeros((mesh.num_nodes, 2))
        free = [i for i in range(mesh.num_nodes) if i not in mesh.bottom_nodes]
        vals[free, 1] = 0.05 * rng.standard_normal(len(free))
        V = VectorFieldP1(vals, mesh)
        there = displace_mesh(mesh, V, 0.3)
        back = displace_mesh(there, VectorFieldP1(vals, there), -0.3)
        assert np.allclose(back.nodes, mesh.nodes, rtol=1e-14, atol=1e-16)

    def test_areas_of_a_displaced_mesh_match_the_cross_product(self):
        # the areas read the radial differences kept on the topology
        mesh = perturbed_mesh(seed=8)
        dr = radial_differences(mesh.topology)
        vals = np.zeros((mesh.num_nodes, 2))
        vals[:, 1] = 0.3 * mesh.nodes[:, 1] ** 2 + 0.1 * mesh.nodes[:, 0] * mesh.nodes[:, 1]
        moved = displace_mesh(mesh, VectorFieldP1(vals, mesh), 0.7)
        assert radial_differences(moved.topology) is dr
        p = moved.nodes[moved.triangles]
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        cross = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.abs(moved.areas - cross).max() <= 1e-14 * np.abs(cross).max()
        assert not np.allclose(moved.areas, mesh.areas)

    def test_wall_violation_detected_on_construction(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        radii = mesh.topology.radii.copy()
        radii[mesh.wall_nodes[0]] += 1e-9
        with pytest.raises(WallViolation):
            replace(mesh.topology, radii=radii)


class TestSurface:
    def test_flat_surface_normals(self):
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        # building a mesh computes no normals: its topology's arc makes them valid
        assert pattern_forms._surface_normals not in mesh.__dict__.get("_memo", {})
        normals = surface_normals(mesh)
        assert np.allclose(normals, [[0.0, 1.0]] * 4)
        # computed once per mesh, on first use, and shared read-only
        assert surface_normals(mesh) is normals
        assert not normals.flags.writeable

    def test_surface_edge_geometry_shared_and_read_only(self):
        mesh = perturbed_mesh(seed=5)
        surface = surface_edges(mesh)
        assert surface_edges(mesh) is surface
        edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
        assert np.array_equal(surface.edges, edges)
        assert np.array_equal(surface.d, mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]])
        assert np.allclose(surface.length, np.hypot(surface.d[:, 0], surface.d[:, 1]),
                           rtol=1e-15, atol=0.0)
        assert not any(a.flags.writeable
                       for a in (surface.p1, surface.p2, surface.d, surface.length))

    def test_tilted_plane_normals(self):
        mesh = two_triangle_mesh()
        nodes = mesh.nodes.copy()
        phi = 0.3
        nodes[:, 1] += np.tan(phi) * nodes[:, 0] * (nodes[:, 1] > 0)
        tilted = AxiMesh(z=nodes[:, 1], topology=mesh.topology)
        normals = surface_normals(tilted)
        assert np.allclose(normals[0], [-np.sin(phi), np.cos(phi)], rtol=1e-12)

    def test_spherical_cap_normals_second_order(self):
        # half-section whose surface follows a spherical cap; per-edge normals
        # must match the analytic cap normal at the edge midpoint to O(h^2)
        R, radius = 2.0, 1.0
        zc = 1.0

        def cap_error(n1):
            mesh = build_structured_mesh(radius, 1.0, n1, 2)
            nodes = mesh.nodes.copy()
            r = nodes[:, 0]
            surf = mesh.surface_nodes
            nodes[surf, 1] = zc + np.sqrt(R ** 2 - r[surf] ** 2) - np.sqrt(R ** 2 - radius ** 2)
            cap = AxiMesh(z=nodes[:, 1], topology=mesh.topology)
            normals = surface_normals(cap)
            edges = cap.boundary_edges[BoundaryTag.FREE_SURFACE]
            mid = 0.5 * (cap.nodes[edges[:, 0]] + cap.nodes[edges[:, 1]])
            exact = np.column_stack((mid[:, 0], np.sqrt(R ** 2 - mid[:, 0] ** 2))) / R
            return np.abs(normals - exact).max()

        e_coarse, e_fine = cap_error(8), cap_error(16)
        assert e_fine < e_coarse / 3.0       # ~ h^2 falloff

    def test_folded_surface_raises(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        nodes = mesh.nodes.copy()
        inner = [i for i in mesh.surface_nodes if i not in mesh.wall_nodes
                 and i not in mesh.axis_nodes][0]
        nodes[inner, 0] = 1.2          # pull past the wall: edge runs backwards in r
        with pytest.raises(SurfaceFolded, match="edge 1 "):
            mesh_at(mesh, nodes)

    @pytest.mark.parametrize("malformed, first_bad", [
        pytest.param(lambda g: g[[0, 2, 1, 3]], 1, id="shuffled"),
        pytest.param(lambda g: np.vstack((g[:2], g[2, ::-1], g[3:])), 2, id="reversed-pair"),
        pytest.param(lambda g: g[[0, 1, 3]], 2, id="missing-middle"),
        pytest.param(lambda g: g[1:], 0, id="missing-first"),   # starts off the axis
    ])
    def test_malformed_arc_rejected_by_the_topology(self, malformed, first_bad):
        # the surface edges of a 4x4 grid, broken four ways; the error names
        # the first edge that breaks the arc
        topology = build_structured_mesh(1.0, 1.0, 4, 4).topology
        edges = malformed(topology.boundary_edges[BoundaryTag.FREE_SURFACE])
        with pytest.raises(SurfaceFolded, match=f"edge {first_bad} "):
            replace(topology, boundary_edges={**topology.boundary_edges,
                                              BoundaryTag.FREE_SURFACE: edges})


def test_contact_height_is_surface_max_when_rising_toward_wall():
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)
    nodes = mesh.nodes.copy()
    surf = mesh.surface_nodes
    nodes[surf, 1] += 0.3 * nodes[surf, 0] ** 2     # monotone rise toward the wall
    risen = AxiMesh(z=nodes[:, 1], topology=mesh.topology)
    assert contact_line_height(risen) == risen.nodes[surf, 1].max()


class TestQuality:
    def test_equilateral_aspect_is_one(self):
        # direct formula check on a standalone equilateral triangle
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        a = b = c = 1.0
        area = np.sqrt(3) / 4
        s = 1.5
        aspect = a * b * c * s / (8 * area ** 2)
        assert aspect == pytest.approx(1.0, abs=1e-12)

    def test_uniform_grid_aspect(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        # right triangle with legs 0.5, 0.5: R/(2 rho) = hyp * s / (8 A^2) form
        leg = 0.5
        hyp = leg * np.sqrt(2)
        area = leg * leg / 2
        s = (leg + leg + hyp) / 2
        expected = leg * leg * hyp * s / (8 * area ** 2)
        _, aspect = mesh_quality(mesh)
        assert aspect == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_matches_bruteforce_on_perturbed_grid(self, seed):
        mesh = perturbed_mesh(seed=seed)
        min_area, max_aspect = mesh_quality(mesh)
        areas, aspects = [], []
        for tri in mesh.triangles:
            p = mesh.nodes[tri]
            # circumradius from the circumcenter, inradius from area/semiperimeter
            a = np.linalg.norm(p[1] - p[2])
            b = np.linalg.norm(p[2] - p[0])
            c = np.linalg.norm(p[0] - p[1])
            d1, d2 = p[1] - p[0], p[2] - p[0]
            area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
            big_r = a * b * c / (4 * area)
            rho = area / ((a + b + c) / 2)
            areas.append(area)
            aspects.append(big_r / (2 * rho))
        assert min_area == pytest.approx(min(areas), rel=1e-12)
        assert max_aspect == pytest.approx(max(aspects), rel=1e-12)
