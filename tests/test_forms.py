from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.fields import PhysParams, VectorFieldP1, zero_vector_field
from capflow.forms import _QBASIS, _QQ, _saddle_pattern, beta_h, radial_table
from capflow.geometry import BoundaryTag, build_structured_mesh, displace_mesh
from capflow.writers import _snapshot_template

from . import oracles
from . import compiled
from .compiled import element_data
from .conftest import mesh_at, perturbed_mesh, random_vector_field, two_triangle_mesh
from .pattern_forms import (_coupling_block, _gradient_products, _viscous_block,
                            bottom_load_reference, form_a, form_b, form_c_ALE, form_S_Gamma,
                            form_s, form_s_p, gravity_load, mass_matrix, r_stiffness, reduced,
                            surface_tension_load)

PHYS = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                  p_bar=9.81e-4, g=9.81)


def meshes():
    return [two_triangle_mesh(), perturbed_mesh(seed=5), build_structured_mesh(1.0, 0.5, 2, 2)]


def rel_err(dense, sparse):
    diff = np.abs(sparse.toarray() - dense).max()
    scale = max(np.abs(dense).max(), 1e-300)
    return diff / scale


def loads(mesh, zeta, phys):
    """The compiled loads on the kept dofs of the step's saddle system, at rest."""
    return compiled.loads(mesh, zero_vector_field(mesh), 1.0, zeta, phys,
                          mesh.topology.memo(_saddle_pattern), bottom_load_reference(mesh))


class TestOracleAgreement:
    """Every bilinear form matches the naive dense quadrature to 1e-12 relative."""

    @pytest.mark.parametrize("idx", range(3))
    def test_form_a(self, idx):
        mesh = meshes()[idx]
        assert rel_err(oracles.oracle_form_a(mesh, 0.7, PHYS.nu),
                       form_a(mesh, 0.7, PHYS)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_form_b(self, idx):
        mesh = meshes()[idx]
        assert rel_err(oracles.oracle_form_b(mesh), form_b(mesh)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_form_c_ale(self, idx):
        mesh = meshes()[idx]
        w = random_vector_field(mesh, seed=10 + idx)
        v = random_vector_field(mesh, seed=20 + idx)
        assert rel_err(oracles.oracle_form_c(mesh, w, v), form_c_ALE(mesh, w, v)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_form_s(self, idx):
        mesh = meshes()[idx]
        w = random_vector_field(mesh, seed=30 + idx)
        v = random_vector_field(mesh, seed=40 + idx)
        assert rel_err(oracles.oracle_form_s(mesh, w, v), form_s(mesh, w, v)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_form_s_gamma(self, idx):
        mesh = meshes()[idx]
        assert rel_err(oracles.oracle_form_SG(mesh, PHYS.gamma),
                       form_S_Gamma(mesh, PHYS)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_form_s_p(self, idx):
        mesh = meshes()[idx]
        assert rel_err(oracles.oracle_form_sp(mesh, 0.4), form_s_p(mesh, 0.4)) < 1e-12
        # the extension's stiffness is the stabilization kernel with Cs h_K^2 = 1
        assert rel_err(oracles.oracle_form_sp(mesh, 1.0, h=1.0), r_stiffness(mesh)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_mass(self, idx):
        mesh = meshes()[idx]
        assert rel_err(oracles.oracle_mass(mesh), mass_matrix(mesh)) < 1e-12

    @pytest.mark.parametrize("idx", range(3))
    def test_rhs(self, idx):
        mesh = meshes()[idx]
        phys = PhysParams(nu=PHYS.nu, gamma=2e-3, chi=850.0, theta_s=np.radians(70),
                          p_bar=1e-3, g=9.81)
        dense = reduced(mesh.topology.memo(_saddle_pattern),
                        oracles.oracle_rhs_F(mesh, 0.3e-3, phys))
        ours = loads(mesh, 0.3e-3, phys)
        assert np.abs(ours - dense).max() < 1e-12 * max(np.abs(dense).max(), 1e-300)


class TestFormIdentities:
    def test_a_vanishes_on_rigid_vertical_motion_without_friction(self):
        # the only strain-free constant in axisymmetry is a vertical
        # translation: a constant radial component carries hoop strain u_r/r
        mesh = perturbed_mesh()
        n = mesh.num_nodes
        A = form_a(mesh, 0.0, PHYS)
        x = np.concatenate((np.zeros(n), np.full(n, -0.3)))
        assert abs(x @ (A @ x)) < 1e-14 * abs(A).max()

    def test_a_friction_on_vertical_rigid_motion(self):
        radius, height = 1.0, 0.5
        mesh = build_structured_mesh(radius, height, 2, 4)
        beta = 2.5
        A = form_a(mesh, beta, PHYS)
        n = mesh.num_nodes
        x = np.concatenate((np.zeros(n), np.full(n, 2.0)))
        # only the wall friction survives; wall measure with r weight = radius*height
        assert x @ (A @ x) == pytest.approx(beta * 4.0 * radius * height, rel=1e-12)

    def test_b_rigid_vertical_field_is_divergence_free(self):
        mesh = perturbed_mesh()
        n = mesh.num_nodes
        B = form_b(mesh)
        v = np.concatenate((np.zeros(n), np.full(n, 3.0)))
        assert np.abs(v @ B).max() < 1e-14 * abs(B).max()

    def test_b_axisymmetric_divergence_free_field(self):
        # v = (c r, -2 c z) has dr(vr) + vr/r + dz(vz) = c + c - 2c = 0
        mesh = perturbed_mesh()
        c = 1.3
        v = np.concatenate((c * mesh.nodes[:, 0], -2 * c * mesh.nodes[:, 1]))
        B = form_b(mesh)
        assert np.abs(v @ B).max() < 1e-12 * abs(B).max()

    def test_b_linear_vertical_profile_closed_form(self):
        # v = (0, c z), pi = 1 on the unit cylinder section: b = -c * int r dr dz
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        c = 0.8
        n = mesh.num_nodes
        v = np.concatenate((np.zeros(n), c * mesh.nodes[:, 1]))
        B = form_b(mesh)
        one = np.ones(n)
        assert v @ (B @ one) == pytest.approx(-c * 0.5, rel=1e-12)

    def test_c_ale_reduces_to_div_term_when_w_equals_v(self):
        # zero relative velocity: only -(div(V) u, v) survives, i.e. a
        # weighted mass matrix (symmetric block)
        mesh = perturbed_mesh()
        w = random_vector_field(mesh, seed=77)
        C = form_c_ALE(mesh, w, w)
        assert rel_err(oracles.oracle_form_c(mesh, w, w), C) < 1e-12
        assert abs(C - C.T).max() <= 1e-14 * abs(C).max()

    def test_c_ale_zero_fields(self):
        mesh = perturbed_mesh()
        zero = VectorFieldP1(np.zeros((mesh.num_nodes, 2)), mesh)
        assert abs(form_c_ALE(mesh, zero, zero)).max() == 0.0

    def test_s_zero_for_zero_fields(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        zero = VectorFieldP1(np.zeros((mesh.num_nodes, 2)), mesh)
        assert abs(form_s(mesh, zero, zero)).max() == 0.0

    def test_s_surface_part_closed_form(self):
        # flat surface, w - V = (0, c): boundary term is -(c/2) * surface mass matrix
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        n = mesh.num_nodes
        c = 0.9
        wvals = np.zeros((n, 2))
        wvals[:, 1] = c
        w = VectorFieldP1(wvals, mesh)
        zero = VectorFieldP1(np.zeros((n, 2)), mesh)
        S = form_s(mesh, w, zero).toarray()
        # volume part vanishes (div w = 0); compare the z-z surface block
        edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
        surf_mass = np.zeros((n, n))
        for e in edges:
            p1, p2 = mesh.nodes[e[0]], mesh.nodes[e[1]]
            length = np.hypot(*(p2 - p1))
            for s_ in oracles.GAUSS2:
                r = (1 - s_) * p1[0] + s_ * p2[0]
                bas = np.array([1 - s_, s_])
                for i in range(2):
                    for j in range(2):
                        surf_mass[e[i], e[j]] += 0.5 * length * r * bas[i] * bas[j]
        assert np.allclose(S[n:, n:], -0.5 * c * surf_mass, atol=1e-15)

    def test_s_gamma_annihilates_rigid_vertical_motion(self):
        mesh = perturbed_mesh(seed=11)
        n = mesh.num_nodes
        G = form_S_Gamma(mesh, PHYS)
        x = np.concatenate((np.zeros(n), np.full(n, 1.7)))
        assert abs(x @ (G @ x)) < 1e-12 * max(abs(G).max(), 1e-300)

    def test_s_gamma_zero_for_uniform_normal_speed_flat(self):
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        n = mesh.num_nodes
        G = form_S_Gamma(mesh, PHYS)
        x = np.zeros(2 * n)
        x[n + np.asarray(mesh.surface_nodes)] = 2.5    # u.nu constant on flat surface
        assert abs(x @ (G @ x)) < 1e-14 * abs(G).max()

    def test_sp_zero_for_constant_pressure_and_zero_cs(self):
        mesh = perturbed_mesh()
        Sp = form_s_p(mesh, 0.4)
        assert np.abs(Sp @ np.ones(mesh.num_nodes)).max() < 1e-14 * abs(Sp).max()
        assert abs(form_s_p(mesh, 0.0)).max() == 0.0

    def test_beta_h_algebra(self):
        assert beta_h(5e-5, 1.5625e-6, 1.87e-5) == pytest.approx(
            1.87e-5 / (5e-5 * 1.5625e-6), rel=1e-15)
        assert beta_h(2.0, 1.0, 1.0) == 0.5
        # doubling h3 halves beta, large chi tends to free slip
        assert beta_h(1.0, 2.0, 1.0) == beta_h(1.0, 1.0, 1.0) / 2
        assert beta_h(1e12, 1.0, 1.0) < 1e-11
        with pytest.raises(ValueError):
            beta_h(0.0, 1.0, 1.0)

    def test_rhs_zero_when_all_loads_vanish(self):
        mesh = perturbed_mesh()
        phys = PhysParams(nu=1.0, gamma=1e-300, chi=1.0, theta_s=np.pi / 2,
                          p_bar=0.5, g=1e-300)
        f = loads(mesh, -0.5, phys)   # p_bar + zeta = 0, gamma ~ 0, g ~ 0
        assert np.abs(f).max() < 1e-290

    def test_contact_term_vanishes_at_ninety_degrees(self):
        mesh = perturbed_mesh()
        f_total = loads(mesh, 0.0, PHYS)
        f_ref = reduced(mesh.topology.memo(_saddle_pattern),
                        gravity_load(mesh, PHYS) + PHYS.p_bar * bottom_load_reference(mesh)
                        + surface_tension_load(mesh, PHYS))
        assert np.allclose(f_total, f_ref, atol=0.0)

    def test_flat_surface_tension_has_no_vertical_load(self):
        mesh = build_structured_mesh(1.0, 1.0, 4, 4)
        f = surface_tension_load(mesh, PHYS)
        n = mesh.num_nodes
        assert np.abs(f[n:]).max() == 0.0


class TestSymmetryPositivity:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_symmetric_forms(self, seed):
        mesh = perturbed_mesh(seed=seed % 100)
        for M in (form_a(mesh, 0.9, PHYS), form_S_Gamma(mesh, PHYS), form_s_p(mesh, 0.4)):
            d = abs(M - M.T).max()
            assert d <= 1e-14 * max(abs(M).max(), 1e-300)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        mesh = perturbed_mesh(seed=seed % 100)
        n = mesh.num_nodes
        G = form_S_Gamma(mesh, PHYS)
        Sp = form_s_p(mesh, 0.4)
        x = rng.standard_normal(2 * n)
        y = rng.standard_normal(n)
        assert x @ (G @ x) >= -1e-12 * abs(G).max() * (x @ x)
        assert y @ (Sp @ y) >= -1e-12 * abs(Sp).max() * (y @ y)
        A = form_a(mesh, 0.9, PHYS)
        assert x @ (A @ x) >= -1e-12 * abs(A).max() * (x @ x)

    def test_assembly_bitwise_deterministic(self):
        mesh = perturbed_mesh(seed=42)
        w = random_vector_field(mesh, seed=1)
        v = random_vector_field(mesh, seed=2)
        a1 = form_c_ALE(mesh, w, v)
        a2 = form_c_ALE(mesh, w, v)
        assert np.array_equal(a1.toarray(), a2.toarray())


def direct_element_data(mesh):
    """Area, gradients, r-weighted weights, r at the points and 1/r, and the
    viscous and coupling blocks, straight from the node positions."""
    p = mesh.nodes[mesh.triangles]
    r, z = p[..., 0], p[..., 1]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    b = (z[:, [1, 2, 0]] - z[:, [2, 0, 1]]) / (2.0 * area[:, None])
    c = (r[:, [2, 0, 1]] - r[:, [1, 2, 0]]) / (2.0 * area[:, None])
    rq = r @ _QBASIS.T
    wq = area / 3.0
    wr = wq[:, None] * rq
    r_int = wr.sum(axis=1)
    on_axis = rq <= 1e-14 * mesh.radius
    inv_r = np.where(on_axis, 0.0, 1.0 / np.where(on_axis, 1.0, rq))
    outer = lambda x, y: x[:, :, None] * y[:, None, :]      # noqa: E731
    nu = PHYS.nu
    viscous = np.zeros((len(area), 6, 6))
    viscous[:, :3, :3] = nu * r_int[:, None, None] * (2 * outer(b, b) + outer(c, c)) \
        + 2 * nu * ((wq[:, None] * inv_r) @ _QQ).reshape(-1, 3, 3)
    viscous[:, :3, 3:] = nu * r_int[:, None, None] * outer(c, b)
    viscous[:, 3:, :3] = viscous[:, :3, 3:].transpose(0, 2, 1)
    viscous[:, 3:, 3:] = nu * r_int[:, None, None] * (2 * outer(c, c) + outer(b, b))
    rn = wr @ _QBASIS
    coupling = np.zeros((len(area), 6, 3))
    coupling[:, :3] = -outer(b, rn) - wq[:, None, None] * (_QBASIS.T @ _QBASIS)
    coupling[:, 3:] = -outer(c, rn)
    return dict(area=area, grad_r=b, grad_z=c, wr=wr, r_int=r_int, rq=rq, inv_r=inv_r,
                on_axis=on_axis, viscous=viscous, coupling=coupling)


def assert_direct_formulas(mesh):
    """element_data(mesh), its radial table and the kernels that read the table
    equal the direct formulas to 1e-14 relative."""
    ed = element_data(mesh)
    t = ed.radial
    ours = dict(area=ed.area, grad_r=ed.grad_r, grad_z=ed.grad_z, wr=ed.wr, r_int=ed.r_int,
                rq=t.rq, inv_r=t.inv_r, on_axis=t.inv_r == 0.0,
                viscous=_viscous_block(ed, PHYS.nu, _gradient_products(ed)),
                coupling=_coupling_block(ed))
    for key, want in direct_element_data(mesh).items():
        if want.dtype == bool:
            assert np.array_equal(ours[key], want), key
        else:
            assert np.abs(ours[key] - want).max() <= 1e-14 * np.abs(want).max(), key


def other_radii(mesh):
    """A mesh at mesh's nodes with one interior node moved radially, over a
    copy of mesh's topology."""
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.num_nodes), np.concatenate(
        (mesh.radial_constrained_nodes, mesh.bottom_nodes, mesh.surface_nodes)))
    nodes[interior[0], 0] += 0.02
    return mesh_at(mesh, nodes)


class TestRadialTable:
    """The radial table is built once per topology, and every mesh over that
    topology reads it."""

    def test_displaced_mesh_matches_the_direct_formulas(self):
        mesh = perturbed_mesh(seed=11)
        table = radial_table(mesh.topology)
        element_data(mesh)
        vals = np.zeros((mesh.num_nodes, 2))
        vals[:, 1] = 0.4 * mesh.nodes[:, 1] ** 2 - 0.2 * mesh.nodes[:, 0] * mesh.nodes[:, 1]
        for moved in (displace_mesh(mesh, VectorFieldP1(vals, mesh), dt) for dt in (0.5, -0.3)):
            assert element_data(moved).radial is table
            assert_direct_formulas(moved)

    def test_other_radii_rebuild_the_table(self):
        mesh = perturbed_mesh(seed=11)
        table = radial_table(mesh.topology)
        template = mesh.topology.memo(_snapshot_template)
        # displaced meshes share the topology, and with it the table and the VTK template
        vals = np.zeros((mesh.num_nodes, 2))
        vals[:, 1] = 0.1 * mesh.z
        moved = displace_mesh(mesh, VectorFieldP1(vals, mesh), 0.5)
        assert moved.topology is mesh.topology
        assert radial_table(moved.topology) is table
        assert moved.topology.memo(_snapshot_template) is template
        # a topology copy with other radii builds its own
        other = other_radii(mesh)
        assert other.topology is not mesh.topology
        assert radial_table(other.topology) is not table
        assert other.topology.memo(_snapshot_template).text != template.text
        assert radial_table(mesh.topology) is table
        assert_direct_formulas(other)

    def test_table_is_read_only(self):
        table = radial_table(perturbed_mesh(seed=11).topology)
        for name, a in ((f.name, getattr(table, f.name)) for f in fields(table)):
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.flat[0] = 1.0
