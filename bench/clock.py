"""Reference-speed clock: host times that do not depend on the host's load.

Imports nothing but numpy, so a set-up probe can start the clock before
it imports the simulator.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

#: Median wall time of one calibration sample on a quiet 2-CPU x86-64
#: host (Python 3.11, numpy 2.4): the speed host times are reported at.
REFERENCE_SAMPLE_S = 0.00045

#: How often a measured interval is interrupted for a sample.
SAMPLE_EVERY_S = 0.01

#: Processes forked during one interval that can report samples.
WORKER_SLOTS = 64

_TIMER = hasattr(signal, "setitimer")


@dataclass
class Interval:
    """One measured interval.

    Attributes:
        wall_s: wall time of the interval minus the time its samples took
            in the measuring process.
        scale: the host's mean speed during it over the reference speed.
        samples: calibration samples taken inside it (in the measuring
            process and in processes it forked).
        exponent: how strongly the measured code follows the host speed
            (see :class:`ReferenceClock`).
    """

    wall_s: float = 0.0
    scale: float = 1.0
    samples: int = 0
    exponent: float = 1.0

    @property
    def seconds(self) -> float:
        """The interval's time at reference speed."""
        return self.wall_s * self.scale ** self.exponent


def _start_timer(handler) -> None:
    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)


class ReferenceClock:
    """Measures intervals in reference-speed seconds.

    On a shared host, other tenants slow every process by up to 2x and
    switch between fast and slow states within a fraction of a second,
    so raw wall times of one commit differ by tens of percent from pass
    to pass.  While an interval is measured, a timer interrupts it every
    :data:`SAMPLE_EVERY_S` and times a short calibration kernel (an
    interpreter loop and small-array numpy calls, the mix a pass spends
    its time in); one more sample runs on each side of the interval.
    The interval's wall time, net of the samples, is multiplied by the
    mean host speed the samples saw (:data:`REFERENCE_SAMPLE_S` over
    each sample's time), raised to ``exponent``.  A change to the
    simulator moves the scaled time as it moves the wall time; the
    host's speed cancels out.

    ``exponent`` is how strongly the measured code's wall time follows
    the kernel's speed: the slope of log wall time on log speed over
    many passes of one workload.  The host's slow state slows
    memory-bound code less than it slows the kernel, so such code has
    an exponent below 1.  At reference speed the exponent has no
    effect; a wrong one only leaves more of the host's noise in.

    A process forked during an interval -- a process-pool worker, where
    a pooled pass does its work -- samples itself on the same timer and
    adds its speeds to the interval's through shared memory.  Its sample
    time cannot be taken out of the interval's wall time, so a pooled
    interval includes it.  Workers started without ``fork`` do not
    sample, and the interval falls back to the measuring process's
    samples.

    The timer is ``SIGALRM``: intervals must be measured on the main
    thread, and a host without ``setitimer`` gets the two bracketing
    samples only.
    """

    def __init__(self, exponent: float = 1.0):
        self.exponent = exponent
        self._small = np.random.default_rng(0).random(64)
        self._speeds: List[float] = []
        self._busy = False
        #: Total time spent in samples, excluded by :meth:`now`.
        self.paused_s = 0.0
        # (speed sum, sample count) per forked process; anonymous
        # mappings stay shared across fork.
        self._workers = np.frombuffer(
            mmap.mmap(-1, WORKER_SLOTS * 16), dtype=np.float64
        ).reshape(WORKER_SLOTS, 2)
        self._forks = 0
        for _ in range(20):  # the first calls pay for caches and lazy set-up
            self._kernel()

    def _kernel(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(1000):
            total += i % 7
        for i in range(66):
            np.sum(self._small * 1.0001 + i)
        return time.perf_counter() - started

    def _sample(self, *_signal) -> None:
        if self._busy:  # a timer tick while a sample runs is dropped
            return
        self._busy = True
        try:
            spent = self._kernel()
            self._speeds.append(REFERENCE_SAMPLE_S / spent)
            self.paused_s += spent
        finally:
            self._busy = False

    def _sample_in_worker(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            slot = self._workers[self._forks % WORKER_SLOTS]
            slot += (REFERENCE_SAMPLE_S / self._kernel(), 1.0)
        finally:
            self._busy = False

    def _after_fork_in_child(self) -> None:
        self._busy = False
        _start_timer(self._sample_in_worker)

    def now(self) -> float:
        """Wall time in seconds, minus the time samples took."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if paused == self.paused_s:  # no sample ran in between
                return now - paused

    @contextlib.contextmanager
    def interval(self) -> Iterator[Interval]:
        """Measure the ``with`` body; the yielded :class:`Interval` is
        filled in when the body ends (also when it raises)."""
        global _measuring
        measured = Interval(exponent=self.exponent)
        self._speeds = []
        self._workers[:] = 0.0
        self._sample()
        if _TIMER:
            previous = signal.getsignal(signal.SIGALRM)
            _start_timer(self._sample)
        _measuring = self
        started = self.now()
        try:
            yield measured
        finally:
            measured.wall_s = self.now() - started
            _measuring = None
            if _TIMER:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._sample()
            speed_sum, count = self._workers.sum(axis=0)
            measured.samples = len(self._speeds) - 2 + int(count)
            measured.scale = float((sum(self._speeds) + speed_sum)
                                   / (len(self._speeds) + count))

    @contextlib.contextmanager
    def part(self, exponent: Optional[float] = None) -> Iterator[Interval]:
        """Measure one part of the interval being measured.

        The part is scaled by this process's samples inside it, so a
        part run while the host was slow is not scaled by the whole
        interval's speed; a part too short to hold a sample takes the
        latest sample's speed.  ``exponent`` replaces the clock's own
        for a part that follows the host speed more or less strongly
        than the rest of the interval.
        """
        measured = Interval(exponent=self.exponent if exponent is None
                            else exponent)
        first = len(self._speeds)
        started = self.now()
        try:
            yield measured
        finally:
            measured.wall_s = self.now() - started
            inside = self._speeds[first:]
            measured.samples = len(inside)
            measured.scale = float(np.mean(inside or self._speeds[-1:]))


#: The clock whose interval is open, if any: processes forked while it
#: is open sample for it.
_measuring: Optional[ReferenceClock] = None


def _before_fork() -> None:
    if _measuring is not None:
        _measuring._forks += 1


def _after_fork_in_child() -> None:
    if _measuring is not None and _TIMER:
        _measuring._after_fork_in_child()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork,
                        after_in_child=_after_fork_in_child)
