"""CSV history and legacy-ASCII VTK snapshot output.

Both formats are bit-specified: LF line endings, '.' decimal separator,
lowercase 'e' exponents, 17 significant digits so floats round-trip exactly.
"""

from __future__ import annotations

from .geometry import MeshTopology
from .stepping import FlowState

CSV_HEADER = "t,Z_CL,zeta,J_increment,grad,u_max"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_history_csv(history, path) -> None:
    rows = [CSV_HEADER]
    for i in range(len(history.t)):
        rows.append(",".join(_fmt(v) for v in (
            history.t[i], history.z_cl[i], history.zeta[i],
            history.j_increment[i], history.grad[i], history.u_max[i])))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _cells_text(topology: MeshTopology) -> str:
    """The CELLS and CELL_TYPES sections, the same for every mesh of a topology."""
    tri = topology.triangles
    m = len(tri)
    return (f"CELLS {m} {4 * m}\n" + ("3 %d %d %d\n" * m) % tuple(tri.ravel().tolist())
            + f"CELL_TYPES {m}\n" + "5\n" * m)


def write_vtk_snapshot(state: FlowState, path) -> None:
    """Mesh plus nodal velocity/pressure as legacy ASCII VTK unstructured grid.

    Each block is one %-format over all its values ("%.17g" writes what
    format(x, ".17g") does)."""
    mesh = state.mesh
    n = mesh.num_nodes
    text = "".join((
        "# vtk DataFile Version 3.0\n",
        f"capflow snapshot t={_fmt(state.t)}\n",
        "ASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n",
        ("%.17g %.17g 0\n" * n) % tuple(mesh.nodes.ravel().tolist()),
        mesh.topology.memo(_cells_text),
        f"POINT_DATA {n}\n",
        "VECTORS velocity double\n",
        ("%.17g %.17g 0\n" * n) % tuple(state.u.values.ravel().tolist()),
        "SCALARS pressure double 1\n",
        "LOOKUP_TABLE default\n",
        ("%.17g\n" * n) % tuple(state.p.values.tolist()),
    ))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
