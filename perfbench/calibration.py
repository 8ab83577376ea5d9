"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same work can take 30% more or less wall time from one
second to the next.  The benchmark times this kernel between steps and
reports times scaled to the speed at which it takes ``stats.REFERENCE_MS``.  The
kernel mixes what a capflow step spends its time on: COO-to-CSR sparse
assembly, a SuperLU factorization and solve, per-element NumPy kernels,
float formatting and interpreted Python.  It uses
no capflow code, so a change to the program cannot change the yardstick.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve   # bound now: tracing must not see it


class Yardstick:
    def __init__(self):
        n = 16
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        noise = sp.random(n * n, n * n, density=0.005, random_state=1)
        coo = (sp.kron(lap, eye) + sp.kron(eye, lap) + noise).tocoo()
        self._ijv = (coo.row, coo.col, coo.data)
        self._shape = coo.shape
        self._rhs = np.ones(n * n)
        rng = np.random.default_rng(20171204)
        self._grad = rng.random((1000, 3, 2))       # per-element P1 gradients
        self._floats = [float(x) for x in rng.random(400)]

    def burst(self) -> float:
        """Run the kernel once; return its wall time in ms."""
        t0 = perf_counter()
        rows, cols, vals = self._ijv
        mat = sp.coo_matrix((vals, (rows, cols)), shape=self._shape).tocsr()
        spsolve((mat + mat.T).tocsc(), self._rhs)
        gg = np.einsum("mic,mjc->mij", self._grad, self._grad)
        np.repeat(gg[:, :, None, :], 2, axis=2).sum()
        "\n".join(format(x, ".17g") for x in self._floats)
        acc = 0
        for i in range(2000):
            acc += i * i
        return (perf_counter() - t0) * 1e3
