"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared virtual machine the CPU time of the same work swings by up to
2x, in phases of seconds to minutes, as neighbours contend for caches
and memory bandwidth. The benchmark runs this kernel between pieces of
its own work and scales each CPU time t it reports to

    t * NOMINAL_S / (the kernel's time per repetition next to t),

the time the work would take on a machine where one repetition takes
NOMINAL_S. The kernel uses no code of the package, so a change to the
package moves the scaled figures fully, while a change in machine speed
moves the kernel and the work alike and cancels.

The kernel mixes the two kinds of work that the package's time goes to
and that the slow phases slow down most: small numpy array operations
with numpy scalar arithmetic in between (as in the eigensolver and
k-means), and string-keyed dict lookups (as in the n-gram model and its
loading). A pure-Python integer loop was tried first and did not track
the swings.
"""

from __future__ import annotations

import random
from time import process_time as clock

import numpy as np

# Nominal seconds per repetition: what one repetition took on its own in
# the fast phases of the machine the baseline was taken on, a 2-vCPU
# x86_64 virtual machine at 2.0 GHz with Python 3.11.7 and numpy 2.4.6.
# Run between the benchmark's lines there, it took 0.6 to 0.9 ms.
NOMINAL_S = 0.5e-3


class Reference:
    def __init__(self):
        rng = random.Random(20180404)
        a = np.random.default_rng(20180404).standard_normal((32, 32))
        self._matrix = a + a.T
        chars = [chr(cp) for cp in rng.sample(range(0x4E00, 0x9FFF), 400)]
        keys = [rng.choice(chars) + rng.choice(chars) for _ in range(1000)]
        self._table = {k: i for i, k in enumerate(keys)}
        self._probes = keys + [k[::-1] for k in keys]
        self.seconds = 0.0
        self.reps = 0

    def _rep(self) -> float:
        t = self._matrix.copy()
        acc = 1.0
        for k in range(12):
            x = t[k + 1 :, k]
            v = x / np.linalg.norm(x)
            t[k + 1 :, :] -= 0.1 * np.outer(v, v @ t[k + 1 :, :])
            for j in range(16):
                acc = np.hypot(acc, float(t[k, j])) / 1.0001
        table = self._table
        hits = 0
        for key in self._probes:
            hits += table.get(key, 0)
        return acc + hits

    def run(self, seconds: float) -> None:
        """Repeat the kernel until it has taken at least seconds of CPU
        time, at least once, adding to the running totals."""
        start = clock()
        while True:
            self._rep()
            self.reps += 1
            spent = clock() - start
            if spent >= seconds:
                self.seconds += spent
                return

    def take(self) -> float:
        """The scale factor NOMINAL_S / (time per repetition) since the
        last take, and reset the totals."""
        factor = NOMINAL_S * self.reps / self.seconds
        self.seconds = 0.0
        self.reps = 0
        return factor
