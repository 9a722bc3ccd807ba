"""Kill-and-resume fault injection for checkpointed fleet studies.

The hard invariant of ISSUE 10: a fleet run interrupted at *any*
epoch -- in-process exception, SIGKILL of the whole run including its
pool workers, or death of individual workers -- and resumed from its
``checkpoint_dir`` produces a merged ``FleetResult`` bitwise-equal to
the uninterrupted run, for serial resume and ``max_workers in
{2, 4}`` alike.

The SIGKILL case runs the study in a real subprocess (its own session
group, so ``killpg`` also reaps forked pool workers), polls the
checkpoint directory for the first mid-lifetime progress snapshot and
then kills the group -- the interrupt lands at an uncontrolled point
*inside* an epoch advance, which is exactly what the atomic
write-then-rename discipline must survive.  The worker-death case
wraps ``repro.system.fleet._execute_chunk`` (the chunk body forked
workers inherit) as tests/test_fleet_parallel.py does, with
checkpointing enabled.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from functools import partial

import numpy as np
import pytest

import repro.system.checkpoint as checkpoint_module
import repro.system.fleet as fleet_module
from repro.errors import CheckpointError
from repro.system.checkpoint import resume_fleet_lifetime_study
from repro.system.fleet import (
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import RoundRobinRecoveryPolicy
from repro.system.workload import RandomWorkload

#: Worker count of every pooled case; the CI fault-injection job pins
#: it to 2 so small runners still exercise the pool path.
WORKERS = int(os.environ.get("REPRO_SWEEP_TEST_WORKERS", "2"))

N_CHIPS = 8
N_EPOCHS = 6
CHUNK_CHIPS = 3  # -> 3 chunks

RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")


def study_kwargs():
    # Stateful templates on purpose: the workload's AR(1) stream and
    # the policy's rotation cursor are part of the resumable state.
    return dict(
        n_chips=N_CHIPS,
        workload=RandomWorkload(n_cores=4, seed=3),
        policy=RoundRobinRecoveryPolicy(recovery_slots=1),
        n_epochs=N_EPOCHS, record_every=2,
        variation=FleetVariationSpec(capture_sigma=0.1,
                                     recovery_sigma=0.05,
                                     em_current_sigma=0.1),
        seed=7, max_chunk_chips=CHUNK_CHIPS)


def run_study(**overrides):
    kwargs = study_kwargs()
    kwargs.update(overrides)
    return run_fleet_lifetime_study((2, 2), **kwargs)


def assert_bitwise_equal(a, b):
    for field in RESULT_ARRAYS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    assert a.n_epochs == b.n_epochs


@pytest.fixture(scope="module")
def baseline():
    return run_study(max_workers=0)


@pytest.fixture()
def open_pool(monkeypatch):
    """Drop the work gate so the small study pools."""
    monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)


class _InterruptAfter(BaseException):
    """Raised by the wrapped progress hook to cut a run short.

    A ``BaseException``, like the ``KeyboardInterrupt`` it models: the
    chunk loop retries and records an ``Exception`` as a chunk
    failure, but lets an interrupt through at once."""


# -- in-process interrupts --------------------------------------------------


class TestInProcessInterrupt:
    def _interrupted_directory(self, directory, monkeypatch,
                               n_saves):
        """Run until the ``n_saves``-th progress snapshot, then die."""
        real = checkpoint_module.save_chunk_progress
        saves = []

        def interrupting(ckpt, index, run):
            real(ckpt, index, run)
            saves.append((index, run.epoch))
            if len(saves) >= n_saves:
                raise _InterruptAfter()

        monkeypatch.setattr(checkpoint_module, "save_chunk_progress",
                            interrupting)
        with pytest.raises(_InterruptAfter):
            run_study(max_workers=0, checkpoint_dir=directory,
                      checkpoint_every=2)
        monkeypatch.undo()
        return saves

    @pytest.mark.parametrize("n_saves", [1, 2])
    def test_interrupt_then_serial_resume_is_bitwise(
            self, tmp_path, monkeypatch, baseline, n_saves):
        directory = tmp_path / "ckpt"
        saves = self._interrupted_directory(directory, monkeypatch,
                                            n_saves)
        # The run died mid-lifetime with a progress snapshot on disk.
        index, epoch = saves[-1]
        assert 0 < epoch < N_EPOCHS
        assert (directory
                / f"chunk-{index:05d}.progress.npz").exists()
        resumed = run_study(max_workers=0, checkpoint_dir=directory,
                            checkpoint_every=2)
        assert_bitwise_equal(baseline, resumed)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_interrupt_then_pooled_resume_is_bitwise(
            self, tmp_path, monkeypatch, baseline, workers):
        directory = tmp_path / "ckpt"
        self._interrupted_directory(directory, monkeypatch, 1)
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        resumed = run_study(max_workers=workers,
                            checkpoint_dir=directory,
                            checkpoint_every=2)
        assert_bitwise_equal(baseline, resumed)

    def test_progress_snapshot_is_consumed_not_recomputed(
            self, tmp_path, monkeypatch, baseline):
        directory = tmp_path / "ckpt"
        self._interrupted_directory(directory, monkeypatch, 1)
        resumes = []
        real = checkpoint_module.resume_chunk_run

        def spying(ckpt, index, run):
            restored = real(ckpt, index, run)
            resumes.append((index, run.epoch, restored))
            return restored

        monkeypatch.setattr(checkpoint_module, "resume_chunk_run",
                            spying)
        resumed = run_study(max_workers=0, checkpoint_dir=directory,
                            checkpoint_every=2)
        assert_bitwise_equal(baseline, resumed)
        # Chunk 0 fast-forwarded to its snapshot epoch instead of
        # starting over; the untouched chunks started from 0.
        assert resumes[0] == (0, 2, True)
        assert all(not restored for _, _, restored in resumes[1:])


# -- SIGKILL of the whole run (pool workers included) -----------------------


_KILL_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, {src!r})
    import time
    import repro.system.fleet as fleet
    real_advance = fleet.FleetSimulator.advance

    def slow_advance(self, n_epochs):
        # One epoch at a time, each after a sleep, so the kill lands
        # mid-lifetime; split advances are bitwise.  Forked workers
        # inherit the patch.
        for _ in range(n_epochs):
            time.sleep(0.15)
            real_advance(self, 1)

    fleet.FleetSimulator.advance = slow_advance
    fleet.MIN_CORE_EPOCHS_FOR_POOL = 0  # pool the small study
    from repro.system.fleet import (FleetVariationSpec,
                                    run_fleet_lifetime_study)
    from repro.system.scheduler import RoundRobinRecoveryPolicy
    from repro.system.workload import RandomWorkload
    run_fleet_lifetime_study(
        (2, 2), n_chips={n_chips}, checkpoint_dir={directory!r},
        workload=RandomWorkload(n_cores=4, seed=3),
        policy=RoundRobinRecoveryPolicy(recovery_slots=1),
        n_epochs={n_epochs}, record_every=2,
        variation=FleetVariationSpec(capture_sigma=0.1,
                                     recovery_sigma=0.05,
                                     em_current_sigma=0.1),
        seed=7, max_chunk_chips={chunk_chips},
        checkpoint_every=1, max_workers={workers})
""")


class TestSigkillResume:
    def _killed_directory(self, directory, workers):
        """A checkpoint dir of a study SIGKILLed mid-lifetime."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = _KILL_SCRIPT.format(
            src=src, directory=str(directory), n_chips=N_CHIPS,
            n_epochs=N_EPOCHS, chunk_chips=CHUNK_CHIPS,
            workers=workers)
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if any(name.endswith(".progress.npz")
                       for name in os.listdir(directory)
                       if os.path.isdir(directory)):
                    break
                if child.poll() is not None:
                    out, err = child.communicate()
                    pytest.fail(
                        "study finished before it could be killed "
                        f"(rc={child.returncode}):\n"
                        f"{err.decode(errors='replace')}")
                time.sleep(0.05)
            else:
                pytest.fail("no progress snapshot appeared in time")
            # Land the kill at an uncontrolled point inside an epoch
            # advance, pool workers included (whole session group).
            time.sleep(0.2)
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert any(name.endswith(".progress.npz")
                   for name in os.listdir(directory))

    def test_sigkilled_pooled_run_resumes_bitwise(self, tmp_path,
                                                  open_pool, baseline):
        killed = tmp_path / "killed"
        os.makedirs(killed)
        self._killed_directory(killed, workers=WORKERS)
        # Resume the same interrupted state under every execution
        # shape the acceptance criteria name -- serial and pooled --
        # from identical copies of the killed directory.
        for label, kwargs in (
                ("serial", dict(max_workers=0)),
                ("pool2", dict(max_workers=2)),
                ("pool4", dict(max_workers=4))):
            directory = tmp_path / f"resume-{label}"
            shutil.copytree(killed, directory)
            resumed = resume_fleet_lifetime_study(directory, **kwargs)
            assert_bitwise_equal(baseline, resumed)

    def test_sigkilled_serial_run_resumes_bitwise(self, tmp_path,
                                                  baseline):
        killed = tmp_path / "killed"
        os.makedirs(killed)
        self._killed_directory(killed, workers=0)
        resumed = resume_fleet_lifetime_study(killed, max_workers=0)
        assert_bitwise_equal(baseline, resumed)


# -- worker death with checkpointing enabled --------------------------------


def _die_unless_in(real, parent_pid, built, task):
    """Hard-kill any process but the parent (a forked worker)."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return real(built, task)


class TestWorkerDeathWithCheckpoint:
    def test_worker_death_recovers_and_persists(self, tmp_path,
                                                monkeypatch,
                                                open_pool, baseline):
        # Every forked worker kills itself; the chunk loop's serial
        # fallback completes the chunks in-process, and the completed
        # chunks still land in the checkpoint directory.
        monkeypatch.setattr(
            fleet_module, "_execute_chunk",
            partial(_die_unless_in, fleet_module._execute_chunk,
                    os.getpid()))
        directory = tmp_path / "ckpt"
        reports = []
        recovered = run_study(max_workers=WORKERS,
                              checkpoint_dir=directory,
                              checkpoint_every=2,
                              on_report=reports.append)
        assert_bitwise_equal(baseline, recovered)
        assert reports[0].mode == "fleet+pool+serial-fallback"
        monkeypatch.undo()
        # The post-crash directory is complete: a rerun is all-cached.
        reports2 = []
        again = run_study(max_workers=WORKERS,
                          checkpoint_dir=directory,
                          checkpoint_every=2,
                          on_report=reports2.append)
        assert_bitwise_equal(baseline, again)
        assert all(chunk.executed_in == "cached"
                   for chunk in reports2[0].chunks)
        assert reports2[0].serial_reason == \
            "every chunk restored from checkpoint"


# -- tampered directories ---------------------------------------------------


def _tamper(path):
    """Nudge the first float array of a snapshot inside its ``__data__``
    block, keeping its stale checksum."""
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    table = json.loads(members["__meta__"].tobytes())["arrays"]
    _, dtype, shape, offset = next(
        row for row in table
        if np.dtype(row[1]).kind == "f" and np.prod(row[2]))
    data = members["__data__"].copy()
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    data[offset:offset + nbytes].view(dtype)[...] += 1e-9
    members["__data__"] = data
    with open(path, "wb") as handle:
        np.savez(handle, **members)


class TestTamperedDirectory:
    """A refused file raises CheckpointError however its chunk runs."""

    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_tampered_progress_file(self, tmp_path, monkeypatch,
                                    workers):
        directory = tmp_path / "ckpt"
        TestInProcessInterrupt()._interrupted_directory(
            directory, monkeypatch, 1)
        _tamper(directory / "chunk-00000.progress.npz")
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        with pytest.raises(CheckpointError, match="checksum"):
            run_study(max_workers=workers, checkpoint_dir=directory,
                      checkpoint_every=2)

    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_tampered_result_file(self, tmp_path, monkeypatch,
                                  workers):
        directory = tmp_path / "ckpt"
        run_study(max_workers=0, checkpoint_dir=directory)
        _tamper(directory / "chunk-00001.result.npz")
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        with pytest.raises(CheckpointError, match="checksum"):
            run_study(max_workers=workers, checkpoint_dir=directory)
