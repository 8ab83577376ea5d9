"""The compiled kernels of the step, the slab's phases that run them, and,
for the writers, an exact ``%.17g`` formatter that fills a text template.

The kernels are C, in ``kernels.c`` beside this module, whose comments give
their numerics: the element data, the saddle matrix's triangle and
boundary-edge blocks, the mesh-velocity stiffness, the mass action, the
loads summed onto the kept dofs, the mesh-velocity extension's data, the
fill of a fixed pattern, the banded LU without pivoting within the envelope
of a :class:`~capflow.forms.BandLayout`, which also eliminates one or two
loads forward by each column as it scales it, the back-substitution of those
loads with each one's residual check, and the formatter; the phases alone
call the bottom load and the load reduction.  Every kernel takes the
operations of the numpy expressions it replaced (the tests keep those as
their reference) in their order.

**Phases.**  A slab is one compiled call, ``slab_step``, on the
:class:`Workspace` struct of its topology, which
:class:`~capflow.forms.Workspace` owns.  It runs four phases in turn: the
motion (the mesh-velocity extension's stiffness, data, fill, LU, solve and
gate, the emptying guard, and the displacement with its areas and tangle
check), the assembly (element data, blocks, loads and fill), and the factor
(band zeroing, scatter and LU, with the forward elimination of the loads)
and the solve (one- or two-row back-substitution and checks, the scatter
into u and p, the mass action and max |u|) of the saddle system alone: the
mesh velocity's system never leaves the motion.  The phases are static in
the source.  The struct holds every pointer and size a phase reads; its
storage is one block that ``slab_storage`` sizes and lays out and the owner
allocates once per topology, so no phase allocates.  The step returns a
status, 0 or one of :data:`ZERO_PIVOT` to :data:`MOVED_BADLY`, and the
details of a failure, the phase that failed and each phase's wall time
(``phase_ms``, :data:`PHASES`, from ``CLOCK_MONOTONIC``) come back in the
struct.  The five clocks are disjoint: "ALE" times the mesh velocity and
"motion" the rest of the motion phase, so the two together are the whole
motion.  Besides the storage and the step, the package binds two kernels
(:class:`Kernel`): the mass action, for a velocity that no step produced,
and the formatter; the tests bind the others on the same library
(:meth:`Kernel.bind`) to call them one at a time.  A workspace binds the
read-only arrays of its topology once (:func:`address`) and copies the state
of each slab in and out of its storage; a kernel called alone checks every
array it is passed, per call.

The first use compiles :data:`SOURCE`, the text of ``kernels.c`` read once
at import, with :data:`COMPILER` and the fixed portable :data:`FLAGS` into
``__pycache__/kernels-<sha256 of source and flags>.so`` beside this module,
written under a temporary name and moved into place, so concurrent first
uses are safe, and removes the libraries of earlier sources there; later
processes find it and only load it.  Binding an array loads nothing.  No
contraction into fused multiply-adds is allowed and no sum is reassociated,
so the x86-64 AVX-512 and AVX2 clones and a build without clones
(``-DKERNELS_PORTABLE``) give the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, KernelBuildError

# the kernels' C source, read once; a library built from the same text keeps its name
SOURCE = (Path(__file__).resolve().parent / "kernels.c").read_text()

# -fno-math-errno: sqrt is the instruction, the same correctly rounded root, not a
# libm call that sets errno
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
COMPILER = "cc"
CACHE = Path(__file__).resolve().parent / "__pycache__"
PREFIX = "kernels"


def build(source: str = SOURCE, flags: tuple[str, ...] = FLAGS) -> Path:
    """The shared library of source compiled with flags, in :data:`CACHE`;
    compiled by :data:`COMPILER` only when it is not there yet, which then
    removes every other library of :data:`PREFIX` there (a process that
    still maps one keeps it).  Raises KernelBuildError, with the command and
    the compiler's stderr, when the compiler is missing or fails, and with
    no command and the OS's message, which names the path, when the cache
    cannot be made or written."""
    digest = hashlib.sha256("\0".join((source, *flags)).encode()).hexdigest()
    path = CACHE / f"{PREFIX}-{digest}.so"
    if path.exists():
        return path
    try:
        CACHE.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
            built = os.path.join(tmp, path.name)
            command = [COMPILER, *flags, "-x", "c", "-", "-o", built]
            try:
                proc = subprocess.run(command, input=source, capture_output=True, text=True)
            except OSError as exc:
                raise KernelBuildError(command, str(exc)) from exc
            if proc.returncode != 0:
                raise KernelBuildError(command, proc.stderr)
            os.replace(built, path)
    except OSError as exc:
        raise KernelBuildError([], str(exc)) from exc
    for stale in CACHE.glob(f"{PREFIX}-*.so"):
        if stale != path:
            with contextlib.suppress(FileNotFoundError):    # removed by a concurrent build
                stale.unlink()
    return path


class _Array:
    """A ctypes argument type that passes a numpy array of one dtype and
    layout as its data pointer, checked per call (a wrong array raises
    ``ctypes.ArgumentError``), and leaves no reference cycle, unlike
    ``np.ctypeslib.ndpointer``'s ``ctypes.cast`` (CPython issue 12836)."""

    def __init__(self, dtype, layout: str = "C_CONTIGUOUS", writeable: bool = False):
        self.dtype, self.layout, self.writeable = np.dtype(dtype), layout, writeable

    def from_param(self, obj):
        if not (isinstance(obj, np.ndarray) and obj.dtype == self.dtype and obj.flags[self.layout]
                and (obj.flags.writeable or not self.writeable)):
            raise TypeError(f"a {'writeable ' * self.writeable}{self.layout} {self.dtype} "
                            f"array is required")
        return ctypes.c_void_p(obj.ctypes.data)


def address(array: np.ndarray, dtype=np.float64) -> int:
    """The data pointer of array, for the kernels to read while array lives:
    checked once, here, to be a read-only C-contiguous array of dtype, else
    TypeError, so the calls that pass it check nothing."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.flags.c_contiguous and not array.flags.writeable):
        raise TypeError(f"only a read-only C-contiguous {np.dtype(dtype)} array is bound")
    return array.ctypes.data


def _fields(**kinds) -> list:
    """ctypes fields in C's order, each keyword a ctypes type's space-separated names."""
    types = dict(size=ctypes.c_ssize_t, real=ctypes.c_double, at=ctypes.c_void_p)
    return [(name, types[kind]) for kind, names in kinds.items() for name in names.split()]


class Pattern(ctypes.Structure):
    """``struct pattern`` of the source: a :class:`~capflow.forms.FixedPattern`
    and its band layout, n kept dofs, nslot local entries and nnz stored ones."""

    _fields_ = _fields(size="n nslot nnz kl ku",
                       at="free slot indices indptr position lower upper")


PHASES = ("ALE", "motion", "assembly", "factor", "solves")

# the statuses of a phase (``enum status`` of the source), DONE = 0 first
ZERO_PIVOT, NOT_FINITE, OVER_GATE, EMPTIED, MOVED_BADLY = range(1, 6)


class Workspace(ctypes.Structure):
    """``struct workspace`` of the source: what the slab's phases of one
    topology read and report (see :class:`~capflow.forms.Workspace`, which
    owns one)."""

    _fields_ = [*_fields(size="n m nw ns nb contact",
                         at="tri wall surface bottom r rq inv_r dr rn hoop zz coupling_z"),
                ("saddle", Pattern), ("extension", Pattern),
                *_fields(at="V work region reduced",
                         real="dt nu Cs chi N3 gamma g stress contact_force floor"),
                *_fields(size="k", at="z_old areas_old u_old mass_old z areas data"),
                ("b", ctypes.c_void_p * 2),
                *_fields(at="lu x u p mass", real="ale_residual"),
                ("rel", ctypes.c_double * 2),
                *_fields(real="u_max z_next", size="column row failed"),
                ("phase_ms", ctypes.c_double * len(PHASES))]


class Kernel:
    """The functions of one built library (:func:`build`) that the package
    calls: the workspace's storage, the slab's step, the mass action of a
    velocity no step produced, and the formatter.  ``lib`` is the loaded
    library, on which :meth:`bind` binds any other of its functions."""

    def __init__(self, path: Path):
        self.lib = ctypes.CDLL(str(path))
        size, at, values = ctypes.c_ssize_t, ctypes.c_void_p, _Array(np.float64)
        self.mass_action = self.bind("mass_action", (size, size, _Array(np.int64), values, values,
                                                     values, _Array(np.float64, writeable=True)))
        self.fill_template = self.bind("fill_template", (size, ctypes.c_char_p, size,
                                                         _Array(np.int64), _Array(np.float64),
                                                         _Array(np.uint8, writeable=True)), size)
        # the storage of a workspace and its slab: the struct is passed by reference
        workspace = ctypes.POINTER(Workspace)
        self.storage = self.bind("slab_storage", (workspace, at), size)
        self.step = self.bind("slab_step", (workspace,), size)

    def bind(self, name: str, argtypes: tuple, restype=None):
        """The library's function name, with its argument and result types set."""
        fn = getattr(self.lib, name)
        fn.argtypes, fn.restype = argtypes, restype
        return fn


def expect(what: str, array: np.ndarray, shape: tuple) -> None:
    """Raise DimensionMismatch, naming what, unless array has shape: the
    kernels read and write as far as the shapes of their records reach."""
    if array.shape != shape:
        raise DimensionMismatch(f"{what} of shape {array.shape}, not {shape}")


@functools.cache
def kernel() -> Kernel:
    """The kernels of :data:`SOURCE`, built on first use and loaded once per process."""
    return Kernel(build())


SLOT = "%.17g"


@dataclass(frozen=True, eq=False)
class Template:
    """Static ASCII text with value slots, which one call of the compiled
    formatter fills (:meth:`fill`).  slots holds the slots' byte offsets in
    text, in order: checked once, here, to never decrease and to stay within
    text, and kept as a read-only int64 copy."""

    text: bytes
    slots: np.ndarray

    def __post_init__(self):
        slots = np.array(self.slots, dtype=np.int64)
        if slots.ndim != 1 or np.any(np.diff(slots, prepend=0) < 0) \
                or np.any(slots > len(self.text)):
            raise ValueError("template slots are not nondecreasing offsets within the text")
        slots.setflags(write=False)
        object.__setattr__(self, "slots", slots)

    @classmethod
    def of(cls, text: str) -> Template:
        """The ASCII text with each :data:`SLOT` in it taken out as a slot."""
        chunks = text.split(SLOT)
        return cls("".join(chunks).encode("ascii"), np.cumsum([len(c) for c in chunks[:-1]]))

    def fill(self, values: np.ndarray) -> np.ndarray:
        """The text with the float64 values[i] in slot i, each as
        ``format(x, ".17g")`` writes it, as a uint8 array."""
        n = len(self.slots)
        expect("template values", values, (n,))
        out = np.empty(len(self.text) + 24 * n, np.uint8)
        return out[:kernel().fill_template(len(self.text), self.text, n, self.slots, values, out)]
