"""Host-speed calibration for the benchmark's timings.

The host this benchmark was built on gives a process a few cores of a shared
machine, and a core's speed drifts: phases in which the same code runs up to
~1.5x faster come and go over seconds to minutes, and the two cores drift
independently. Raw wall times of one operation therefore spread by a third of
their median between runs of the same code.

`calibrate` times a fixed loop of the benchmark's own code (no mvmc code, so
no change to the program moves it), shaped like the pure-Python move-pass
kernel: scalar reads and writes of numpy arrays. Of the loops tried (this
one, integer arithmetic, dict and string work) it tracked a kernel-bound
operation's drift best: 1 s samples of one `maximize` call spread 0.31 of
their median raw and 0.08 rescaled. `HostSpeed` splits an operation into
segments of about `SEGMENT_S` and runs the loop between them, on the same
pinned core, rescaling each segment's wall time to the speed at which the
loop takes `REFERENCE_S`:

    scaled = wall * REFERENCE_S / mean(loop time before, loop time after)

A program change that makes an operation k times faster makes the scaled
time k times smaller, as it does the raw one; only the host's drift is
divided out. Raw times are reported next to the scaled ones.
"""
from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Loop time at the reference speed: about its median on a 2-CPU shared host
# (x86-64, Python 3.11) in the slower, more common of its phases.
REFERENCE_S = 0.045
# Shortest run of timed code between two calibration loops inside an
# operation; the host's speed can change within a second.
SEGMENT_S = 0.5

_SIZE, _REPS = 2048, 25
_RNG = np.random.default_rng(20200803)
_WEIGHTS = _RNG.random(_SIZE)
_TARGETS = _RNG.integers(0, _SIZE, _SIZE)


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop."""
    t0 = perf_counter()
    acc = np.zeros(_SIZE)
    seen = 0
    for _ in range(_REPS):
        for k in range(_SIZE):
            j = _TARGETS[k]
            if acc[j] == 0.0:
                seen += 1
            acc[j] += _WEIGHTS[k] * 0.5
    if seen <= 0:
        raise AssertionError("calibration loop skipped its work")
    return perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Keep this process (and the processes it starts) on one CPU, so the
    calibration loop and the timed code run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Times an operation as segments split by calibration loops.

    `start` opens the first segment, `checkpoint` closes the running one,
    runs the loop and opens the next, `stop` closes the last. A segment's
    wall time is rescaled by the mean of the loop times at its two ends;
    the loops' own time is in no segment."""

    def __init__(self):
        self.last = calibrate()
        self.loops = [self.last]
        self._t0 = None
        self.raw = self.scaled = 0.0

    def start(self):
        self.raw = self.scaled = 0.0
        self._t0 = perf_counter()

    def checkpoint(self):
        if self._t0 is None:
            return
        wall = perf_counter() - self._t0
        before, self.last = self.last, calibrate()
        self.loops.append(self.last)
        self.raw += wall
        self.scaled += wall * REFERENCE_S / ((before + self.last) / 2)
        self._t0 = perf_counter()

    def due(self):
        """Checkpoint if the running segment has lasted SEGMENT_S."""
        if self._t0 is not None and perf_counter() - self._t0 >= SEGMENT_S:
            self.checkpoint()

    def stop(self) -> tuple[float, float]:
        """(raw, rescaled) seconds of the operation's segments."""
        self.checkpoint()
        self._t0 = None
        return self.raw, self.scaled

    @contextmanager
    def checkpoints_after(self, hooks):
        """While inside, each call to a (module, attribute) in `hooks` is
        followed by `due()`; the attributes are put back on exit. A missing
        attribute is skipped, leaving longer segments."""
        saved = []
        for module_name, name in hooks:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = vars(owner).get(name)
            if not callable(fn):
                continue
            setattr(owner, name, self._after(fn))
            saved.append((owner, name, fn))
        try:
            yield
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)

    def _after(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.due()

        return wrapper
