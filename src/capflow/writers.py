"""CSV history and legacy-ASCII VTK snapshot output.

Both formats are bit-specified: LF line endings, '.' decimal separator,
lowercase 'e' exponents, 17 significant digits so floats round-trip exactly.

Both are written through a :class:`~capflow.kernels.Template`: static ASCII
text with a slot for each value, which one compiled call fills, each value
exactly as ``format(x, ".17g")`` writes it, and the bytes go to the file in
binary mode.  A VTK snapshot's template is built on the first snapshot of a
mesh topology and kept by the topology's
:meth:`~capflow.geometry.MeshTopology.memo`.  It bakes in the text that is
the same for every mesh a run reaches: the header and section lines, the node
and cell counts, the ``CELLS`` and ``CELL_TYPES`` sections and the radius
column of ``POINTS``.  Radii can be baked in because mesh motion is vertical
only, so they live on the topology (``displace_mesh`` rejects any radial mesh
velocity).  A snapshot then fills only t, the z column, the velocity and the
pressure.  Field values are never baked in, not even the essential zero
radial velocity on the wall and axis, which a field may hold as -0.0.
``history.csv``'s template, the header and one line of six slots per row, is
built per write.

Both writers overwrite an existing file in place (:func:`_overwrite`).  A
run that writes a snapshot every step rewrites the files of an earlier run in
the same directory, and truncating each on open frees its disk blocks only to
allocate new ones for the same bytes: on an ext4 file system mounted with
``discard``, a 16x32 snapshot's file write took about 0.3 ms that way inside
a run, against 0.1 ms in place.  Writing from offset 0 and then cutting the
file at the end of the new bytes keeps its blocks and leaves exactly the
bytes ``open(path, "wb")`` would.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .geometry import MeshTopology
from .kernels import SLOT, Template
from .stepping import FlowState

CSV_HEADER = "t,Z_CL,zeta,J_increment,grad,u_max"


def _overwrite(path, data: np.ndarray) -> None:
    """Write data as the whole content of the file at path, creating it if it
    is missing, without truncating it first: data goes from offset 0 over the
    old bytes, then a regular file is cut at its end (``ftruncate`` fails on
    devices such as ``os.devnull``, which need no cut)."""
    with open(path, "wb", opener=_untruncated) as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _untruncated(path, flags: int) -> int:
    """open()'s os.open with its flags less O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_history_csv(history, path) -> None:
    columns = (history.t, history.z_cl, history.zeta, history.j_increment, history.grad,
               history.u_max)
    template = Template.of(CSV_HEADER + "\n" + (f"{SLOT}," * 5 + f"{SLOT}\n") * len(history.t))
    _overwrite(path, template.fill(np.array(columns, dtype=float).T.ravel()))


def _snapshot_template(topology: MeshTopology) -> Template:
    """The whole snapshot of a mesh of topology, with slots for t, the z
    column, the velocity and the pressure, in that order."""
    n = topology.num_nodes
    tri = topology.triangles
    m = len(tri)
    return Template.of("".join((
        "# vtk DataFile Version 3.0\n",
        f"capflow snapshot t={SLOT}\n",
        "ASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n",
        "".join(f"{r:.17g} {SLOT} 0\n" for r in topology.radii.tolist()),
        f"CELLS {m} {4 * m}\n",
        "".join(f"3 {a} {b} {c}\n" for a, b, c in tri.tolist()),
        f"CELL_TYPES {m}\n",
        "5\n" * m,
        f"POINT_DATA {n}\n",
        "VECTORS velocity double\n",
        f"{SLOT} {SLOT} 0\n" * n,
        "SCALARS pressure double 1\n",
        "LOOKUP_TABLE default\n",
        f"{SLOT}\n" * n,
    )))


def write_vtk_snapshot(state: FlowState, path) -> None:
    """Mesh plus nodal velocity/pressure as legacy ASCII VTK unstructured grid."""
    mesh = state.mesh
    values = np.concatenate(((float(state.t),), mesh.z, state.u.values.ravel(), state.p.values))
    _overwrite(path, mesh.topology.memo(_snapshot_template).fill(values))
