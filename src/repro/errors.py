"""Exception hierarchy for the deep-healing library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the deep-healing library."""


class CalibrationError(ReproError):
    """A model calibration could not be fit to the supplied measurements."""


class ConvergenceError(ReproError):
    """An iterative solver (Newton, bisection, PDE step) failed to converge."""


class NetlistError(ReproError):
    """A circuit netlist is malformed (unknown node, duplicate name, ...)."""


class ScheduleError(ReproError):
    """A recovery schedule is malformed (non-positive interval, overlap, ...)."""


class SimulationError(ReproError):
    """A simulation was driven into an invalid state."""


class TaskError(ReproError):
    """One chunk of a fleet study failed.

    Raised by :func:`repro.system.fleet.run_fleet_lifetime_study` (and
    the entry points built on it) once a chip chunk has exhausted its
    bounded retries, at every worker count, after every other chunk
    has run and the report is delivered.  :attr:`task_index` is the
    chunk's global index in the study's partition and
    :attr:`attempts` how many executions (1 + retries) were made.
    The chunk's original exception is chained as ``__cause__``
    whenever it survives transport back from a pool worker;
    otherwise its formatted traceback is embedded in the message.
    """

    def __init__(self, message: str, *, task_index: int = -1,
                 attempts: int = 1):
        super().__init__(message)
        self.task_index = task_index
        self.attempts = attempts


class SensorError(ReproError):
    """A wearout sensor was misconfigured or read out of range."""


class CheckpointError(ReproError):
    """A fleet checkpoint could not be written, read, or applied.

    Raised by :mod:`repro.system.checkpoint` for unreadable or
    corrupt snapshot files (bad magic, checksum mismatch), for
    snapshots written under a different schema version than this
    build reads, and for checkpoint directories whose study
    fingerprint does not match the study being resumed.
    """
