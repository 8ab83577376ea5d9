"""CSV history and legacy-ASCII VTK snapshot output.

Both formats are bit-specified: LF line endings, '.' decimal separator,
lowercase 'e' exponents, 17 significant digits so floats round-trip exactly.

A VTK snapshot goes through one %-format template per mesh topology.  The
template bakes in the text that is the same for every mesh a run reaches:
the header and section lines, the node and cell counts, the ``CELLS`` and
``CELL_TYPES`` sections and the radius column of ``POINTS``.  Radii can be
baked in because mesh motion is vertical only, so they live on the topology
(``displace_mesh`` rejects any radial mesh velocity).  A snapshot then
formats only t, the z column, the velocity and the pressure, in a single %
operation.  Field values are never baked in, not even the essential zero
radial velocity on the wall and axis, which a field may hold as -0.0.  The
template is built on the first snapshot and kept by the topology's
:meth:`~capflow.geometry.MeshTopology.memo`.
"""

from __future__ import annotations

import numpy as np

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


def _snapshot_template(topology: MeshTopology) -> str:
    """The whole snapshot of a mesh of topology as one %-format over
    (t, z column, velocity, pressure); "%.17g" writes what format(x, ".17g")
    does."""
    n = topology.num_nodes
    tri = topology.triangles
    m = len(tri)
    return "".join((
        "# vtk DataFile Version 3.0\n",
        "capflow snapshot t=%.17g\n",
        "ASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n",
        # the radii are written now; each "%%" leaves the z column's "%.17g"
        ("%.17g %%.17g 0\n" * n) % tuple(topology.radii.tolist()),
        f"CELLS {m} {4 * m}\n",
        ("3 %d %d %d\n" * m) % tuple(tri.ravel().tolist()),
        f"CELL_TYPES {m}\n",
        "5\n" * m,
        f"POINT_DATA {n}\n",
        "VECTORS velocity double\n",
        "%.17g %.17g 0\n" * n,
        "SCALARS pressure double 1\n",
        "LOOKUP_TABLE default\n",
        "%.17g\n" * n,
    ))


def write_vtk_snapshot(state: FlowState, path) -> None:
    """Mesh plus nodal velocity/pressure as legacy ASCII VTK unstructured grid."""
    mesh = state.mesh
    values = np.concatenate(((float(state.t),), mesh.z, state.u.values.ravel(), state.p.values))
    text = mesh.topology.memo(_snapshot_template) % tuple(values.tolist())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
