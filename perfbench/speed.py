"""Machine-speed reference: fixed work that does not depend on ddvef.

The machines the benchmark runs on are shared, and their speed drifts by
up to 1.5x over minutes as neighbours load them. The reference kernel does
the same kind of work as the solvers - small-array ufuncs, a small matrix
product, scattered adds and a small sparse direct solve, driven from a
Python loop - so it slows down with the machine but never with a change to
the program. Its median time in a run gives the run's speed factor.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: The reference kernel's time on the machine the benchmark was tuned on
#: (2-core Intel Xeon container, one BLAS thread), in its fast state.
REFERENCE_SECONDS = 0.25


class ReferenceKernel:
    """Fixed work; its inputs are built once, outside the timed call."""

    ITERATIONS = 2500
    CELLS = 64

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((8, 17, 16))
        self.w = rng.random(16)
        self.idx = rng.integers(0, self.CELLS, 200)
        n = self.CELLS
        self.rows = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
        self.cols = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
        self.vals = np.concatenate([np.full(n, 5.0), np.full(2 * (n - 1), -1.0)])

    def run(self) -> float:
        acc = np.zeros(self.CELLS)
        total = 0.0
        for i in range(self.ITERATIONS):
            e = np.exp(-self.x * (1.0 + 1.0e-4 * i))
            g = np.where(e < 0.5, -np.expm1(-e) / e, 1.0 - 0.5 * e)
            total += float((g @ self.w).sum())
            np.add.at(acc, self.idx, 1.0)
            if i % 4 == 0:
                A = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(self.CELLS, self.CELLS)).tocsr()
                total += float(spla.spsolve(A, acc)[0])
        return total

    def seconds(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
