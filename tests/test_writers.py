import csv
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.control import RunHistory
from capflow.errors import DimensionMismatch
from capflow.fields import ScalarFieldP1, VectorFieldP1
from capflow.geometry import AxiMesh, build_structured_mesh, displace_mesh
from capflow.kernels import SLOT, Template
from capflow.stepping import FlowState
from capflow.writers import CSV_HEADER, _snapshot_template, write_history_csv, write_vtk_snapshot

from .conftest import random_vector_field


def test_empty_history_writes_header_only(tmp_path):
    path = tmp_path / "h.csv"
    write_history_csv(RunHistory(), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_single_row_two_lines(tmp_path):
    hist = RunHistory()
    hist.append(0.0, 5e-5, 0.0, 0.0, 0.0, 0.0)
    path = tmp_path / "h.csv"
    write_history_csv(hist, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "t,Z_CL,zeta,J_increment,grad,u_max"


def test_roundtrip_floats_exact(tmp_path):
    hist = RunHistory()
    rng = np.random.default_rng(7)
    for k in range(20):
        hist.append(k * 2e-3, rng.uniform(1e-5, 2e-4), rng.standard_normal() * 1e-4,
                    rng.uniform(0, 1e-15), rng.standard_normal() * 1e-12,
                    rng.uniform(0, 1e-2))
    path = tmp_path / "h.csv"
    write_history_csv(hist, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for k, row in enumerate(rows):
        assert float(row["t"]) == hist.t[k]
        assert float(row["Z_CL"]) == hist.z_cl[k]
        assert float(row["zeta"]) == hist.zeta[k]
        assert float(row["J_increment"]) == hist.j_increment[k]
        assert float(row["grad"]) == hist.grad[k]
        assert float(row["u_max"]) == hist.u_max[k]


def test_lf_endings_and_ascii(tmp_path):
    hist = RunHistory()
    hist.append(0.0, 5e-5, 0.0, 0.0, 0.0, 0.0)
    path = tmp_path / "h.csv"
    write_history_csv(hist, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert b"E" not in raw.replace(b"Z_CL", b"")   # lowercase exponents only


def test_vtk_snapshot_structure(tmp_path):
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    state = FlowState(mesh=mesh, u=random_vector_field(mesh, seed=2),
                      p=ScalarFieldP1(np.linspace(0, 1, mesh.num_nodes), mesh), t=0.5)
    path = tmp_path / "s.vtk"
    write_vtk_snapshot(state, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {mesh.num_nodes} double" in text
    assert f"CELLS {len(mesh.triangles)} {4 * len(mesh.triangles)}" in text
    assert text.count("\n5") >= len(mesh.triangles)        # triangle cell type
    assert "VECTORS velocity double" in text
    assert "SCALARS pressure double 1" in text
    assert b"\r" not in path.read_bytes()


def reference_vtk(state):
    """The snapshot written value by value with format(v, ".17g")."""
    f = lambda v: format(float(v), ".17g")      # noqa: E731
    mesh = state.mesh
    n, m = mesh.num_nodes, len(mesh.triangles)
    lines = ["# vtk DataFile Version 3.0", f"capflow snapshot t={f(state.t)}", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    lines += [f"{f(r)} {f(z)} 0" for r, z in mesh.nodes]
    lines.append(f"CELLS {m} {4 * m}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {m}")
    lines += ["5"] * m
    lines += [f"POINT_DATA {n}", "VECTORS velocity double"]
    lines += [f"{f(ur)} {f(uz)} 0" for ur, uz in state.u.values]
    lines += ["SCALARS pressure double 1", "LOOKUP_TABLE default"]
    lines += [f(p) for p in state.p.values]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_vtk_snapshot_bytes_match_per_value_format(tmp_path):
    mesh = build_structured_mesh(5e-4, 1e-4, 3, 4)
    u = random_vector_field(mesh, seed=9)
    p = np.random.default_rng(3).standard_normal(mesh.num_nodes) * 1e3
    # zeros, signed zero, subnormal, huge, exact integers and short decimals
    p[:8] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 3.0, -2.0, 0.1, 1 / 3]
    path = tmp_path / "s.vtk"

    def check(mesh, u, t):
        state = FlowState(mesh=mesh, u=u, p=ScalarFieldP1(p, mesh), t=t)
        write_vtk_snapshot(state, path)
        assert path.read_bytes() == reference_vtk(state)

    for t in (0.0, 0.002, 1 / 3):
        check(mesh, u, t)
    # displaced meshes share their topology's template
    template = mesh.topology.memo(_snapshot_template)
    stretch = np.zeros((mesh.num_nodes, 2))
    stretch[:, 1] = mesh.nodes[:, 1]
    V = VectorFieldP1(stretch, mesh)
    moved = [displace_mesh(mesh, V, dt) for dt in (0.25, -0.125)]
    for k, m in enumerate(moved * 2):
        check(m, VectorFieldP1(u.values, m), 0.002 * k)
        assert m.topology.memo(_snapshot_template) is template
    # a topology copy with other radii, -0.0 on the axis or a wall radius one
    # ulp out, gets a template of its own
    negative_axis = mesh.topology.radii.copy()
    negative_axis[mesh.axis_nodes[1]] = -0.0
    ulp_wall = mesh.topology.radii.copy()
    ulp_wall[mesh.wall_nodes[1]] = np.nextafter(mesh.radius, np.inf)
    for radii in (negative_axis, ulp_wall):
        m = AxiMesh(z=mesh.z, topology=replace(mesh.topology, radii=radii))
        check(m, VectorFieldP1(u.values, m), 0.5)
        assert m.topology.memo(_snapshot_template) is not template
    check(mesh, VectorFieldP1(u.values, mesh), 0.5)
    # a field may hold the essential zero radial velocity as -0.0
    signed = u.values.copy()
    signed[mesh.wall_nodes[1], 0] = -0.0
    check(mesh, VectorFieldP1(signed, mesh), 0.5)
    assert "\n-0 " in path.read_text()


def compiled(values) -> list[str]:
    """Each value as the compiled template fill writes it."""
    out = Template.of(f"{SLOT}\n" * len(values)).fill(np.array(values, dtype=float))
    return out.tobytes().decode("ascii").splitlines()


def expected(values) -> list[str]:
    return [format(float(v), ".17g") for v in values]


def half_even_ties() -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals: m / 2^(k + 1),
    m odd, times 10^k between 10^16 and 10^17, three per k."""
    ties = []
    for k in range(1, 24):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        for m in (lo | 1, (lo + hi) // 2 | 1, (hi - 2) | 1):
            scaled = Fraction(m * 5**k, 2)
            assert 10**16 < scaled < 10**17 and scaled.denominator == 2
            ties.append(math.ldexp(m, -(k + 1)))
    return ties


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=40))
def test_formatter_writes_what_format_does(values):
    assert compiled(values) == expected(values)


def test_formatter_writes_what_format_does_at_the_edges():
    tens = [float(f"1e{k}") for k in range(-30, 31)]
    cases = {
        "powers of ten and their neighbours": tens + [np.nextafter(x, d) for x in tens
                                                      for d in (-math.inf, math.inf)],
        "ties": half_even_ties() + [1e15 + 0.25, 1e15 + 0.75, 3 / 2**24]
                + [float(10**16 + i) + 0.5 for i in range(-20, 20)]
                + [k * 5e-18 for k in range(1, 400)],
        "rounding across the style switch or to the next power of ten": [
            9.99999999999999999e-05, 99999999999999999.0, 9.999999999999999e22,
            np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0), 9.9999999999999999e-12],
        "signed zeros, infinities, NaNs": [0.0, -0.0, math.inf, -math.inf, math.nan,
                                           -math.nan, math.copysign(math.nan, -1.0)],
        "subnormals and the extremes": [5e-324, -5e-324, 2.2250738585072009e-308,
                                        2.2250738585072014e-308, 1.7976931348623157e308],
    }
    for what, values in cases.items():
        assert compiled(values) == expected(values), what
    assert compiled([-math.nan, -0.0]) == ["nan", "-0"]


def test_history_csv_bytes_match_per_value_format(tmp_path):
    hist = RunHistory()
    rng = np.random.default_rng(11)
    for k in range(30):
        hist.append(k * 2e-3, *(rng.standard_normal(5) * 10.0 ** rng.integers(-20, 20, 5)))
    hist.append(0.06, 0.0, -0.0, 5e-324, 1e16, 1e-5)
    path = tmp_path / "h.csv"
    write_history_csv(hist, path)
    rows = zip(hist.t, hist.z_cl, hist.zeta, hist.j_increment, hist.grad, hist.u_max)
    lines = [CSV_HEADER] + [",".join(expected(row)) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_template_slots_and_values_are_checked():
    for slots in ([1, 0], [-1], [3], [[0]]):
        with pytest.raises(ValueError):
            Template(b"ab", np.array(slots))
    template = Template(b"ab", np.array([0, 1, 2]))
    assert template.fill(np.array([1.0, -0.0, 0.5])).tobytes() == b"1a-0b0.5"
    with pytest.raises(DimensionMismatch):
        template.fill(np.zeros(2))
    with pytest.raises(ValueError):
        template.slots[0] = 1


@pytest.mark.parametrize("writer", ["history", "snapshot"])
def test_writers_overwrite_in_place(tmp_path, writer):
    """Each writer leaves exactly its bytes over a longer, a shorter or an
    empty existing file, in the same inode (the file is not replaced by a new
    one), creates a missing file and writes to os.devnull."""
    if writer == "history":
        hist = RunHistory()
        hist.append(0.0, 5e-5, 0.0, 0.0, 0.0, 0.0)
        write = lambda path: write_history_csv(hist, path)     # noqa: E731
    else:
        mesh = build_structured_mesh(1.0, 1.0, 2, 2)
        state = FlowState(mesh=mesh, u=random_vector_field(mesh, seed=2),
                          p=ScalarFieldP1(np.linspace(0, 1, mesh.num_nodes), mesh), t=0.5)
        write = lambda path: write_vtk_snapshot(state, path)   # noqa: E731
    fresh = tmp_path / "fresh"
    write(fresh)
    expected = fresh.read_bytes()
    assert expected
    for old in (b"x" * (3 * len(expected)), expected[:len(expected) // 2][::-1], b""):
        path = tmp_path / "existing"
        path.write_bytes(old)
        inode = path.stat().st_ino
        write(path)
        assert path.read_bytes() == expected
        assert path.stat().st_ino == inode
    write(os.devnull)
