"""A fixed reference computation timed next to every timed operation.

On a shared 2-vCPU Intel Xeon host the speed of a fixed direct traversal
changed by up to 1.65x within two minutes, and CPU time tracked wall time,
so the slowdown is in the core, not in scheduling. Each timed operation is
therefore also reported in units of this loop, timed right before and after
the operation in the same process; the ratio cancels most of the drift.
The loop does what the workloads do most (scalar complex arithmetic in
Python and small numpy arrays) and does not use epdyn, so no change to the
package moves it.
"""

from __future__ import annotations

import math
import multiprocessing
import time

import numpy as np

STEPS = 6000


def reference_loop() -> complex:
    """Explicit Euler on a driven 2x2 complex system, STEPS steps."""
    y = np.array([1.0 + 0.0j, 0.0j])
    h = 1e-3
    for k in range(STEPS):
        t = k * h
        a = complex(math.cos(t), 0.1)
        g = 0.5 * math.sin(t)
        y = y + h * (-1j) * np.array([a * y[0] + g * y[1], g * y[0] - a * y[1]], dtype=complex)
    return complex(y[0])


def time_reference(reps: int) -> float:
    """Mean wall seconds of one reference_loop call over ``reps`` calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_loop()
    return (time.perf_counter() - t0) / reps


def _helper(conn) -> None:
    """Reference loops on request, in a process of its own."""
    while (reps := conn.recv()) is not None:
        for _ in range(reps):
            reference_loop()
        conn.send(reps)


class Calibrator:
    """``Workload.after_op`` hook: brackets every timed op with reference timings.

    A workload that keeps ``procs`` cores busy is bracketed by the loop run on
    ``procs`` cores at once (this process plus helpers), since its time
    follows the speed of all of them.
    """

    def __init__(self, reps: int, procs: int = 1) -> None:
        self.reps = reps
        self._helpers = []
        ctx = multiprocessing.get_context("spawn")
        for _ in range(procs - 1):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(there,), daemon=True)
            proc.start()
            there.close()
            self._helpers.append((proc, here))
        self.measure()  # waits for the helpers' start-up
        self.last = self.measure()
        self.samples = [self.last]

    def measure(self) -> float:
        """Wall seconds per reference loop, run ``reps`` times on every core in use."""
        t0 = time.perf_counter()
        for _, conn in self._helpers:
            conn.send(self.reps)
        for _ in range(self.reps):
            reference_loop()
        for _, conn in self._helpers:
            conn.recv()
        return (time.perf_counter() - t0) / self.reps

    def __call__(self, op) -> None:
        now = self.measure()
        op.ref = 0.5 * (self.last + now)
        self.last = now
        self.samples.append(now)

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(None)
            conn.close()
            proc.join(timeout=60)
        self._helpers.clear()
