"""Host-speed reference of the cdsp benchmark.

The shared machine the benchmark was tuned on runs the same Python code at
speeds that differ by up to 2x for seconds to a minute at a time, and CPU
time slows down as much as wall time (no steal is accounted). A time taken
in a slow phase says more about the neighbours than about the program.

So the benchmark samples a fixed reference block every ``EVERY_S`` seconds
between analyses, outside the timed calls. The block uses no cdsp code: it
mixes small complex numpy linear algebra and polynomial roots with plain
Python arithmetic, as a cdsp analysis does. A sample times the block's
second of two runs in a row, so what ran before it matters little. A time
taken between two
samples of the block is scaled by REFERENCE_MS over the median of the
samples around it. That gives the time the call would take at the speed
the block ran at when REFERENCE_MS was recorded. A change to cdsp moves
the scaled times as much as the raw ones; a change of host speed moves
the block too and cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Roughly the ms of one warm block on the tuning machine (2 vCPUs, "Intel(R) Xeon(R)
# Processor", Python 3.11.7, numpy 2.4.6, one BLAS thread). It only fixes
# the scale of reported times: any constant would do, as long as it stays.
REFERENCE_MS = 12.0
EVERY_S = 0.25         # program time between two samples of the block
WINDOW = 4             # samples on each side of a time that scale it
GAP_SAMPLES = 2        # samples between two calls of Reference.timed
SIZE, COUNT = 6, 8      # small complex matrices and polynomials
LINALG_ROUNDS, EIG_ROUNDS, UFUNC_ROUNDS = 5, 10, 180
FRACTION_TERMS, COMPLEX_STEPS = 800, 7000


class Reference:
    """Samples of the reference block, in the order they were taken."""

    def __init__(self):
        rng = np.random.default_rng(20251104)
        self._mats = [rng.standard_normal((SIZE, SIZE)) + 1j * rng.standard_normal((SIZE, SIZE))
                      for _ in range(COUNT)]
        self._polys = [rng.standard_normal(SIZE + 1) for _ in range(COUNT)]
        self._points = rng.standard_normal(8 * SIZE * SIZE) + 1j * rng.standard_normal(8 * SIZE * SIZE)
        self.samples_ms = []

    def _block(self):
        """Five parts of about equal time on the tuning machine: LAPACK
        solves and roots, Hermitian eigenvalues, numpy ufuncs on a short
        complex vector, Fraction sums and a loop of Python complex
        arithmetic. Their mix tracked the speed of the ladder and audit
        workloads better than any one of them."""
        eye = np.eye(SIZE)
        acc = 0j
        for _ in range(LINALG_ROUNDS):
            for a, p in zip(self._mats, self._polys):
                h = a @ a.conj().T + eye
                acc += (np.linalg.cholesky(h)[0, 0] + np.linalg.solve(h, a[:, 0])[0]
                        + np.roots(p)[0])
        for _ in range(EIG_ROUNDS):
            for a in self._mats:
                acc += np.linalg.eigvalsh(a @ a.conj().T)[0]
        z = self._points
        for _ in range(UFUNC_ROUNDS):
            w = np.exp(1j * np.angle(z)) * z
            acc += np.sum(w * np.conj(z)) / (1.0 + np.abs(w).max())
        frac = Fraction(0)
        for i in range(1, FRACTION_TERMS):
            frac += Fraction(1, i % 97 + 1)
        c = 0.3 + 0.1j
        for _ in range(COMPLEX_STEPS):
            acc += c * c / (1.0 + abs(c))
            c = c * 0.999 + 0.001j
        return acc, frac

    def sample(self) -> int:
        """Run the block twice and time the second run; return the index of
        the sample. The untimed first run refills the caches that the work
        before it used, so the sample reads the host's speed, not how much
        of the cache that work took."""
        self._block()
        t0 = time.perf_counter()
        self._block()
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)
        return len(self.samples_ms) - 1

    def scale(self, before: int) -> float:
        """Factor for a time taken between sample ``before`` and the next one:
        REFERENCE_MS over the median of the 2 * WINDOW samples around it
        (about two seconds), so that one block slowed by an interruption
        moves it little, while a slow phase of the host, which lasts
        longer, does."""
        near = self.samples_ms[max(before + 1 - WINDOW, 0):before + 1 + WINDOW]
        return REFERENCE_MS / statistics.median(near)

    def timed(self, run, reps: int) -> list:
        """Scaled wall seconds of ``reps`` calls of ``run``. GAP_SAMPLES
        samples of the block run before each call and after the last one.
        The calls take a second or two together, shorter than a phase of
        the host, so one factor scales them all: REFERENCE_MS over the median
        of those samples."""
        first = len(self.samples_ms)
        raw = []
        for _ in range(reps):
            for _ in range(GAP_SAMPLES):
                self.sample()
            t0 = time.perf_counter()
            run()
            raw.append(time.perf_counter() - t0)
        for _ in range(GAP_SAMPLES):
            self.sample()
        factor = REFERENCE_MS / statistics.median(self.samples_ms[first:])
        return [t * factor for t in raw]
