"""In-memory spans around calls into capflow's public functions.

The tracer wraps functions from outside the program: every module-level
binding of a traced function in the loaded ``capflow`` modules (and the
scipy entry points the solver calls) is replaced by a wrapper that records
(name, parent, start, end, attrs), and put back by ``uninstall``.  Nothing
is written until the benchmark ends.
"""

from __future__ import annotations

import bisect
import functools
import os
import sys
from time import perf_counter

from stats import percentile, self_times

# (module, attribute): each span is named "<module tail>.<attribute>"
TRACED = [
    ("capflow.control", "run_instantaneous_control"),
    ("capflow.control", "objective_increment"),
    ("capflow.ale", "solve_domain_velocity"),
    ("capflow.ale", "scalar_stiffness"),
    ("capflow.geometry", "displace_mesh"),
    ("capflow.forms", "assemble_state_system"),
    ("capflow.forms", "state_blocks"),
    ("capflow.forms", "form_a"),
    ("capflow.forms", "form_b"),
    ("capflow.forms", "form_c_ALE"),
    ("capflow.forms", "form_s"),
    ("capflow.forms", "form_S_Gamma"),
    ("capflow.forms", "form_s_p"),
    ("capflow.forms", "mass_matrix"),
    ("capflow.forms", "rhs_F"),
    ("capflow.forms", "element_data"),
    ("capflow.forms", "solve"),
    ("capflow.adjoint", "assemble_adjoint_system"),
    ("capflow.adjoint", "solve_adjoint"),
    ("capflow.writers", "write_vtk_snapshot"),
    ("capflow.writers", "write_history_csv"),
]
LAYER_NAMES = [f"{mod.rsplit('.', 1)[-1]}.{attr}" for mod, attr in TRACED] + ["scipy.bmat"]
LINALG_PARENTS = ("state", "adjoint", "ale")


def _probe_solve(args, result):
    return {"residual": float(result[2])}


def _probe_adjoint(args, result):
    return {"residual": float(result.residual)}


def _probe_system(args, result):
    return {"ndof": result.matrix.shape[0], "nnz": result.matrix.nnz}


def _probe_vtk(args, result):
    return {"bytes": os.path.getsize(args[1])}


PROBES = {
    "forms.solve": _probe_solve,
    "adjoint.solve_adjoint": _probe_adjoint,
    "forms.assemble_state_system": _probe_system,
    "writers.write_vtk_snapshot": _probe_vtk,
}


class _TracedLU:
    """A factorization whose solves are traced; everything else is forwarded."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("linalg.lu_solve", lu.solve)

    def __getattr__(self, key):
        return getattr(self._lu, key)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, parent, start, end, attrs]
        self._stack = []
        self._patched = []     # (namespace, attribute, original)
        self.missing = []

    def wrap(self, name, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self._stack.pop()
            if probe is not None:
                try:
                    rec[4] = probe(args, result)
                except (AttributeError, IndexError, OSError, TypeError, ValueError):
                    pass    # the traced function changed shape: leave the figure out
            return result
        return traced

    def _patch(self, owner, attr, replacement):
        """Rebind owner.attr and every capflow module binding of the same object."""
        orig = getattr(owner, attr)
        for mod in list(sys.modules.values()):
            if mod is owner or getattr(mod, "__name__", "").startswith("capflow"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, replacement)

    def install(self):
        import scipy.sparse
        import scipy.sparse.linalg as spla
        for modname, attr in TRACED:
            mod = sys.modules.get(modname)
            if mod is None or not hasattr(mod, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), PROBES.get(name)))
        self._patch(scipy.sparse, "bmat", self.wrap("scipy.bmat", scipy.sparse.bmat))
        self._patch(spla, "spsolve", self.wrap("linalg.spsolve", spla.spsolve))
        splu = self.wrap("linalg.splu", spla.splu)
        self._patch(spla, "splu", functools.wraps(spla.splu)(
            lambda *a, **k: _TracedLU(splu(*a, **k), self)))
        factorized = self.wrap("linalg.factorized", spla.factorized)
        self._patch(spla, "factorized", functools.wraps(spla.factorized)(
            lambda *a, **k: self.wrap("linalg.lu_solve", factorized(*a, **k))))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()


# a span inside a call into one of these modules belongs to that module's group
CLAIMING_GROUP = {"adjoint": "adjoint", "ale": "mesh_motion", "geometry": "mesh_motion",
                  "writers": "writers"}
GROUPS = ("assembly", "linalg", "adjoint", "mesh_motion", "writers")


def _nearest_module(spans, i, modules):
    """Module of span i or of its nearest ancestor that is one of ``modules``."""
    while i >= 0:
        module = spans[i][0].split(".", 1)[0]
        if module in modules:
            return module
        i = spans[i][1]
    return None


def linalg_parent(spans, i) -> str:
    """Which solve a linear-algebra span serves, from its nearest adjoint/ale ancestor."""
    return _nearest_module(spans, spans[i][1], ("adjoint", "ale")) or "state"


def span_group(spans, i):
    """The one group whose share span i's self time counts in, or None.

    The nearest adjoint, ale, geometry or writers span, the span itself
    included, claims it: the adjoint's own state_blocks and LU count as
    adjoint, the ALE solve as mesh motion.  Otherwise solves are linalg and
    the other forms functions and bmat are assembly.  The run loop's own
    time, control.objective_increment's and the yardstick's are in no group.
    """
    module = _nearest_module(spans, i, CLAIMING_GROUP)
    if module is not None:
        return CLAIMING_GROUP[module]
    name = spans[i][0]
    if name.startswith("linalg.") or name == "forms.solve":
        return "linalg"
    if name.startswith("forms.") or name == "scipy.bmat":
        return "assembly"
    return None


def group_shares(spans, steps) -> dict:
    """Each group's self time in the steps as a percentage of the steps' wall time.

    Only spans that start inside a step count, so the groups, which are
    disjoint, add up to at most 100%; ``other`` is the rest.
    """
    selfs = self_times([(s[2], s[3], s[1]) for s in spans])
    starts = sorted(steps)
    keys = [a for a, _ in starts]
    totals = dict.fromkeys(GROUPS, 0.0)
    for i, span in enumerate(spans):
        k = bisect.bisect_right(keys, span[2]) - 1
        if k < 0 or span[2] >= starts[k][1]:
            continue
        group = span_group(spans, i)
        if group is not None:
            totals[group] += selfs[i]
    step_total = sum(b - a for a, b in steps)
    shares = {g: 100.0 * t / step_total for g, t in totals.items()}
    shares["other"] = 100.0 - sum(shares.values())
    return shares


def layer_metrics(spans, steps) -> dict:
    """Per-step layer figures from the recorded spans: name -> (value, unit).

    ``steps`` are the (start, end) times of the traced steps, from the
    step callback; every total is divided by their number.
    """
    nsteps = len(steps)
    selfs = self_times([(s[2], s[3], s[1]) for s in spans])
    ms = {n: 0.0 for n in LAYER_NAMES}
    self_ms = dict(ms)
    calls = {n: 0 for n in LAYER_NAMES}
    linalg = {k: 0.0 for k in LINALG_PARENTS}
    linalg_calls = 0
    attrs = {}
    for i, (name, parent, start, end, extra) in enumerate(spans):
        dur = (end - start) * 1e3
        if name.startswith("linalg."):
            if parent < 0 or not spans[parent][0].startswith("linalg."):
                linalg[linalg_parent(spans, i)] += dur
                linalg_calls += 1
            continue
        if name not in ms:
            continue        # the benchmark's own spans (the yardstick)
        ms[name] += dur
        self_ms[name] += selfs[i] * 1e3
        calls[name] += 1
        for key, val in (extra or {}).items():
            attrs.setdefault((name, key), []).append(val)

    def attr_max(name, key):
        return float(max(attrs.get((name, key), [0.0])))

    out = {}
    for n in LAYER_NAMES:
        out[f"{n}.ms"] = (ms[n] / nsteps, "ms")
        out[f"{n}.self_ms"] = (self_ms[n] / nsteps, "ms")
        out[f"{n}.calls"] = (calls[n] / nsteps, "count")
    for k in LINALG_PARENTS:
        out[f"linalg.{k}.ms"] = (linalg[k] / nsteps, "ms")
    out["linalg.calls"] = (linalg_calls / nsteps, "count")
    out["forms.solve.residual_max"] = (attr_max("forms.solve", "residual"), "1")
    out["adjoint.solve_adjoint.residual_max"] = (attr_max("adjoint.solve_adjoint", "residual"), "1")
    out["forms.system.ndof"] = (attr_max("forms.assemble_state_system", "ndof"), "count")
    out["forms.system.nnz"] = (attr_max("forms.assemble_state_system", "nnz"), "count")
    vtk = attrs.get(("writers.write_vtk_snapshot", "bytes"), [])
    out["writers.write_vtk_snapshot.bytes"] = (sum(vtk) / nsteps, "B")
    out["trace.accounted_ms.p50"] = (percentile(step_span_totals(spans, steps), 50), "ms")
    return out


def step_span_totals(spans, steps) -> list[float]:
    """Per step, the ms covered by the run loop's top-level spans started in it.

    A top-level span's duration is the sum of the self times of its subtree,
    so the shortfall against the step's wall time is the loop's own time.
    """
    starts = sorted((s[2], s[3]) for s in spans
                    if s[1] >= 0 and spans[s[1]][0] == "control.run_instantaneous_control")
    keys = [a for a, _ in starts]
    totals = []
    for a, b in steps:
        lo, hi = bisect.bisect_left(keys, a), bisect.bisect_left(keys, b)
        totals.append(sum(e - s for s, e in starts[lo:hi]) * 1e3)
    return totals
