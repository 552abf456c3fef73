"""Chaos matrix for the fault-tolerant serving runtime.

Robustness code is exactly the code that never runs by accident, so this
suite *makes* it run, deterministically: seeded fault plans
(:mod:`repro.testing.faults`) kill pool workers mid-batch, stall tasks past
their deadline, corrupt snapshots and fail atomic renames — and every
recovery path is held to the repo's headline contract, **bit-identity**: a
batch completed through any mixture of crash retries and serial degradation
must be byte-for-byte the answer of a fault-free serial run.

The matrix:

* deadlines — budget validation, prompt expiry on every algorithm path,
  zero result drift under a generous budget, partial counters on the error;
* worker-crash recovery — kill → retry → identical results (the PR's
  acceptance gate), retry exhaustion → serial degradation, degradation
  disabled → :class:`~repro.errors.RetryExhaustedError`, pool reuse after a
  crash, deterministic task errors are *not* retried;
* executor lifecycle — idempotent close, run-after-close, context manager;
* crash-safe snapshots — failed rename leaves the previous snapshot intact,
  corruption is detected on load, ``from_snapshot`` degrades to a dataset
  rebuild (and ``strict=True`` refuses to);
* service boundary — malformed requests rejected before any tree work;
* CLI / serve — structured error codes, exit codes, request isolation and
  SIGTERM graceful drain.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import CostCounters, Dataset, MaxRankService, generate, maxrank
from repro.engine import Deadline, ProcessPoolExecutor, SerialExecutor
from repro.errors import (
    AlgorithmError,
    InvalidRecordError,
    QueryTimeoutError,
    ReproError,
    RetryExhaustedError,
    SnapshotError,
)
from repro.index.diskio import load_snapshot
from repro.service.core import result_fingerprint
from repro.testing import FaultPlan, InjectedFaultError, inject

from test_service import ENGINE_INVARIANT_COUNTERS


def invariant_dump(counters: CostCounters):
    dump = counters.as_dict()
    return {name: dump[name] for name in ENGINE_INVARIANT_COUNTERS}


# --------------------------------------------------------------------------
# Deadlines
# --------------------------------------------------------------------------
class TestDeadline:
    def test_after_validates_budget(self):
        for bad in (0, -1, -0.5, float("nan")):
            with pytest.raises(AlgorithmError):
                Deadline.after(bad)

    def test_remaining_and_expiry(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0
        past = Deadline(expires_at=time.monotonic() - 1.0, budget_seconds=0.001)
        assert past.expired() and past.remaining() < 0

    def test_check_counts_and_raises(self):
        counters = CostCounters()
        Deadline.after(60.0).check(counters, "somewhere")
        assert counters.deadline_checks == 1
        past = Deadline(expires_at=time.monotonic() - 1.0, budget_seconds=0.25)
        with pytest.raises(QueryTimeoutError) as excinfo:
            past.check(counters, "the_checkpoint")
        assert counters.deadline_checks == 2
        assert excinfo.value.where == "the_checkpoint"
        assert excinfo.value.counters is counters

    def test_deadline_and_timeout_error_pickle(self):
        deadline = Deadline.after(30.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone == deadline

        counters = CostCounters()
        counters.lp_calls = 7
        error = QueryTimeoutError("late", where="leaf_task", counters=counters)
        revived = pickle.loads(pickle.dumps(error))
        assert revived.where == "leaf_task"
        assert revived.counters.lp_calls == 7

    def test_maxrank_rejects_non_deadline(self, small_3d):
        with pytest.raises(AlgorithmError, match="Deadline"):
            maxrank(small_3d, 3, deadline=0.5)


class TestDeadlineExpiry:
    """A pre-expired budget must fail promptly on every algorithm path."""

    @pytest.mark.parametrize(
        "dist,n,d,algorithm",
        [
            ("IND", 120, 3, "aa"),
            ("IND", 120, 3, "ba"),
            ("IND", 100, 4, "aa"),
            ("IND", 80, 2, "aa2d"),
            ("IND", 80, 2, "fca"),
            ("IND", 40, 2, "exact"),
            ("IND", 100, 3, "aa3d"),
        ],
    )
    def test_expired_budget_raises_at_entry(self, dist, n, d, algorithm):
        dataset = generate(dist, n, d, seed=3)
        expired = Deadline(expires_at=time.monotonic() - 1.0, budget_seconds=1e-9)
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError) as excinfo:
            maxrank(dataset, 5, algorithm=algorithm, deadline=expired)
        assert time.perf_counter() - started < 5.0
        assert excinfo.value.where == "maxrank_entry"

    def test_generous_budget_changes_nothing(self):
        dataset = generate("IND", 200, 4, seed=9)
        plain_counters = CostCounters()
        plain = maxrank(dataset, 7, tau=1, counters=plain_counters)
        budgeted_counters = CostCounters()
        budgeted = maxrank(
            dataset, 7, tau=1,
            counters=budgeted_counters,
            deadline=Deadline.after(600.0),
        )
        assert result_fingerprint(budgeted) == result_fingerprint(plain)
        assert invariant_dump(budgeted_counters) == invariant_dump(plain_counters)
        # The budget is enforced (checks happened), but never charged to the
        # engine-invariant work counters.
        assert budgeted_counters.deadline_checks > 0
        assert plain_counters.deadline_checks == 0

    def test_mid_query_expiry_carries_partial_counters(self):
        dataset = generate("IND", 200, 4, seed=9)
        # Stall the very first task long enough for a short budget to
        # lapse mid-query: the next checkpoint must cancel, and the error
        # must carry the work done so far.
        counters = CostCounters()
        with inject(FaultPlan(stall_task=0, stall_seconds=0.3)):
            with pytest.raises(QueryTimeoutError) as excinfo:
                maxrank(
                    dataset, 7, tau=1,
                    counters=counters,
                    executor=SerialExecutor(),
                    deadline=Deadline.after(0.05),
                )
        error = excinfo.value
        assert error.where != "maxrank_entry"  # got past the entry check
        assert error.counters is not None
        assert error.counters.records_accessed > 0  # partial work reported

    def test_pool_run_honours_deadline(self):
        dataset = generate("IND", 150, 4, seed=5)
        # Stall every chunk-0 dispatch past the budget; whichever side
        # notices first (worker leaf_task checkpoint or the parent scan
        # loop), the query must cancel with the structured error.
        with inject(FaultPlan(stall_chunk=0, stall_seconds=0.5)):
            with pytest.raises(QueryTimeoutError):
                maxrank(dataset, 5, jobs=2, deadline=Deadline.after(0.1))


# --------------------------------------------------------------------------
# Worker-crash recovery
# --------------------------------------------------------------------------
class TestCrashRecovery:
    def test_leaf_pool_survives_worker_kill_bit_identically(self):
        """A kill mid-batch recovers via retry with bit-identical answers."""
        dataset = generate("IND", 150, 4, seed=5)
        serial_counters = CostCounters()
        serial = maxrank(dataset, 5, tau=1, counters=serial_counters)

        executor = ProcessPoolExecutor(2)
        try:
            with inject(FaultPlan(kill_worker_on_chunk=0, kill_times=1)):
                chaotic_counters = CostCounters()
                chaotic = maxrank(
                    dataset, 5, tau=1,
                    counters=chaotic_counters, executor=executor,
                )
        finally:
            executor.close()

        assert executor.worker_retries >= 1
        assert executor.degraded_batches == 0
        assert result_fingerprint(chaotic) == result_fingerprint(serial)
        assert invariant_dump(chaotic_counters) == invariant_dump(serial_counters)
        # The recovery was charged to the query that paid for it.
        assert chaotic_counters.worker_retries == executor.worker_retries
        assert serial_counters.worker_retries == 0

    def test_service_batch_survives_worker_kill(self):
        """The PR's acceptance gate: seeded kill → query_batch(jobs=2)
        completes via retry and matches the fault-free serial service."""
        dataset = generate("IND", 160, 3, seed=11)
        focals = [3, 17, 29, 41]

        with MaxRankService(dataset) as clean:
            expected = clean.query_batch(focals, tau=1, use_cache=False)

        with MaxRankService(dataset) as service:
            with inject(FaultPlan(kill_worker_on_chunk=0, kill_times=1)):
                survived = service.query_batch(
                    focals, tau=1, jobs=2, use_cache=False
                )
            stats = service.stats()

        assert stats["worker_retries"] >= 1
        assert stats["degraded_batches"] == 0
        assert [result_fingerprint(r) for r in survived] == [
            result_fingerprint(r) for r in expected
        ]
        for got, want in zip(survived, expected):
            assert invariant_dump(got.counters) == invariant_dump(want.counters)

    def test_mutation_batch_survives_worker_kill(self):
        """Seeded kill mid-batch right after insert/delete mutations: the
        dataset swap closes the old forked pools, so the retried batch must
        answer against the *mutated* records — bit-identical to a cold
        service built over the same post-mutation dataset."""
        dataset = generate("IND", 160, 3, seed=11)
        rng = np.random.default_rng(23)
        focals = [3, 17, 29, 41]

        with MaxRankService(dataset) as service:
            service.insert(rng.uniform(0.05, 0.95, size=3))
            service.delete(int(rng.integers(0, service.dataset.n)))
            service.insert(rng.uniform(0.05, 0.95, size=3))
            mutated = service.dataset.records.copy()
            with inject(FaultPlan(kill_worker_on_chunk=0, kill_times=1)):
                survived = service.query_batch(
                    focals, tau=1, jobs=2, use_cache=False
                )
            stats = service.stats()

        with MaxRankService(Dataset(mutated, name="oracle")) as oracle:
            expected = oracle.query_batch(focals, tau=1, use_cache=False)

        assert stats["inserts"] == 2 and stats["deletes"] == 1
        assert stats["worker_retries"] >= 1
        assert stats["degraded_batches"] == 0
        assert [result_fingerprint(r) for r in survived] == [
            result_fingerprint(r) for r in expected
        ]
        for got, want in zip(survived, expected):
            assert invariant_dump(got.counters) == invariant_dump(want.counters)

    def test_retry_exhaustion_degrades_to_serial(self):
        dataset = generate("IND", 150, 4, seed=5)
        serial = maxrank(dataset, 5)

        executor = ProcessPoolExecutor(2, max_retries=1, retry_backoff=0.01)
        try:
            # More kills than retry rounds: every pooled dispatch of chunk 0
            # dies, so the batch can only finish through degradation.
            with inject(FaultPlan(kill_worker_on_chunk=0, kill_times=50)):
                degraded = maxrank(dataset, 5, executor=executor)
        finally:
            executor.close()

        assert executor.degraded_batches >= 1
        assert result_fingerprint(degraded) == result_fingerprint(serial)

    def test_degradation_disabled_raises_retry_exhausted(self):
        dataset = generate("IND", 150, 4, seed=5)
        executor = ProcessPoolExecutor(
            2, max_retries=1, retry_backoff=0.01, degrade_to_serial=False
        )
        try:
            with inject(FaultPlan(kill_worker_on_chunk=0, kill_times=50)):
                with pytest.raises(RetryExhaustedError):
                    maxrank(dataset, 5, executor=executor)
        finally:
            executor.close()

    def test_pool_is_reusable_after_a_crash(self):
        """The rebuilt pool keeps serving later batches on the same executor."""
        dataset = generate("IND", 150, 4, seed=5)
        serial_a = maxrank(dataset, 5)
        serial_b = maxrank(dataset, 9)
        executor = ProcessPoolExecutor(2)
        try:
            with inject(FaultPlan(kill_worker_on_chunk=0, kill_times=1)):
                first = maxrank(dataset, 5, executor=executor)
            second = maxrank(dataset, 9, executor=executor)
        finally:
            executor.close()
        assert executor.worker_retries >= 1
        assert result_fingerprint(first) == result_fingerprint(serial_a)
        assert result_fingerprint(second) == result_fingerprint(serial_b)

    def test_deterministic_task_errors_are_not_retried(self):
        """An ordinary exception is the query's answer — the serial path
        would raise it too, so retrying would change semantics."""
        dataset = generate("IND", 150, 4, seed=5)
        executor = ProcessPoolExecutor(2)
        try:
            # Fork workers inherit the armed plan; each raises on its first
            # task, which must propagate instead of burning retries.
            with inject(FaultPlan(raise_in_task=0)):
                with pytest.raises(InjectedFaultError):
                    maxrank(dataset, 5, executor=executor)
        finally:
            executor.close()
        assert executor.worker_retries == 0
        assert executor.degraded_batches == 0

    def test_drain_events_is_incremental(self):
        executor = ProcessPoolExecutor(2)
        try:
            assert executor.drain_events() == {}
            executor._record_event("worker_retries")
            executor._record_event("worker_retries")
            assert executor.drain_events() == {"worker_retries": 2}
            assert executor.drain_events() == {}
            assert executor.worker_retries == 2  # lifetime tally survives
        finally:
            executor.close()


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        executor = ProcessPoolExecutor(2)
        executor.close()
        executor.close()  # twice-safe

    def test_run_after_close_raises(self):
        executor = ProcessPoolExecutor(2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run([object(), object()])

    def test_context_manager_closes_on_error(self):
        with pytest.raises(ValueError, match="boom"):
            with ProcessPoolExecutor(2) as executor:
                raise ValueError("boom")
        assert executor._closed


# --------------------------------------------------------------------------
# Crash-safe snapshots
# --------------------------------------------------------------------------
class TestSnapshotFaults:
    @pytest.fixture()
    def service_and_snapshot(self, tmp_path):
        dataset = generate("IND", 120, 3, seed=21)
        service = MaxRankService(dataset)
        path = tmp_path / "index.rprs"
        service.save_snapshot(path)
        yield service, path
        service.close()

    def test_failed_replace_keeps_previous_snapshot(self, service_and_snapshot):
        service, path = service_and_snapshot
        before = path.read_bytes()
        with inject(FaultPlan(fail_replace=1)):
            with pytest.raises(SnapshotError, match="injected"):
                service.save_snapshot(path)
        # The atomic write failed *whole*: old bytes intact, no temp litter.
        assert path.read_bytes() == before
        assert list(path.parent.glob("*.tmp")) == []
        load_snapshot(path)  # still a valid snapshot
        service.save_snapshot(path)  # and the next save succeeds

    def test_corruption_is_detected_on_load(self, service_and_snapshot):
        service, path = service_and_snapshot
        with inject(FaultPlan(seed=4, flip_snapshot_byte=True)):
            service.save_snapshot(path)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_from_snapshot_falls_back_to_rebuild(self, service_and_snapshot):
        service, path = service_and_snapshot
        expected = result_fingerprint(service.query(7, tau=1, use_cache=False))
        with inject(FaultPlan(seed=4, flip_snapshot_byte=True)):
            service.save_snapshot(path)

        # strict mode and fallback-less loads refuse to mask the corruption
        with pytest.raises(SnapshotError):
            MaxRankService.from_snapshot(path)
        with pytest.raises(SnapshotError):
            MaxRankService.from_snapshot(
                path, fallback_dataset=service.dataset, strict=True
            )

        with MaxRankService.from_snapshot(
            path, fallback_dataset=service.dataset
        ) as rebuilt:
            assert rebuilt.snapshot_fallback is True
            assert rebuilt.snapshot_error  # the cause is preserved
            stats = rebuilt.stats()
            assert stats["snapshot_fallback"] is True
            # Degraded cold-start, identical answers: the tree is rebuilt
            # over the same records.
            got = result_fingerprint(rebuilt.query(7, tau=1, use_cache=False))
            assert got == expected


# --------------------------------------------------------------------------
# Service boundary validation + timeouts
# --------------------------------------------------------------------------
class TestServiceBoundary:
    @pytest.fixture(scope="class")
    def service(self):
        dataset = generate("IND", 140, 3, seed=13)
        with MaxRankService(dataset) as service:
            yield service

    @pytest.mark.parametrize(
        "focal",
        [
            [float("nan"), 0.5, 0.5],
            [float("inf"), 0.5, 0.5],
            [0.5, 0.5],          # wrong dimensionality
            10**9,               # out-of-range index
            -1,                  # negative index
            True,                # a bool is not record 1
        ],
    )
    def test_bad_focal_rejected_before_tree_work(self, service, focal):
        computed = service.queries_computed
        with pytest.raises(InvalidRecordError):
            service.query(focal)
        assert service.queries_computed == computed

    @pytest.mark.parametrize("kwargs", [
        {"tau": -1},
        {"tau": 1.5},
        {"tau": True},
        {"algorithm": "bogus"},
    ])
    def test_bad_parameters_rejected(self, service, kwargs):
        with pytest.raises(AlgorithmError):
            service.query(3, **kwargs)

    def test_batch_validates_every_member(self, service):
        with pytest.raises(InvalidRecordError):
            service.query_batch([3, 10**9])

    def test_timeout_raises_and_is_counted(self):
        dataset = generate("IND", 140, 3, seed=13)
        with MaxRankService(dataset) as service:
            with pytest.raises(QueryTimeoutError):
                service.query(5, timeout=1e-9, use_cache=False)
            assert service.query_timeouts == 1
            assert service.stats()["query_timeouts"] == 1
            # Partial counters were still folded into the aggregates.
            assert service.counters.deadline_checks >= 1

    def test_cached_answer_served_regardless_of_timeout(self):
        dataset = generate("IND", 140, 3, seed=13)
        with MaxRankService(dataset) as service:
            warm = service.query(5)
            again = service.query(5, timeout=1e-9)  # hit: no compute, no expiry
            assert again is warm

    def test_batch_shares_one_deadline(self):
        dataset = generate("IND", 140, 3, seed=13)
        with MaxRankService(dataset) as service:
            with pytest.raises(QueryTimeoutError):
                service.query_batch([3, 7, 11], timeout=1e-9, use_cache=False)
            assert service.query_timeouts == 1

    def test_generous_timeout_matches_untimed_batch(self):
        dataset = generate("IND", 140, 3, seed=13)
        focals = [3, 7, 11]
        with MaxRankService(dataset) as plain_service:
            plain = plain_service.query_batch(focals, use_cache=False)
        with MaxRankService(dataset) as timed_service:
            timed = timed_service.query_batch(
                focals, timeout=600.0, use_cache=False
            )
            pooled = timed_service.query_batch(
                focals, timeout=600.0, jobs=2, use_cache=False
            )
        fingerprints = [result_fingerprint(r) for r in plain]
        assert [result_fingerprint(r) for r in timed] == fingerprints
        assert [result_fingerprint(r) for r in pooled] == fingerprints


# --------------------------------------------------------------------------
# CLI + serve loop
# --------------------------------------------------------------------------
class TestCliFailureContract:
    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos-cli") / "chaos.rprs"
        run = self._run("build", "--dist", "IND", "--n", "130", "--d", "3",
                        "--out", str(path))
        assert run.returncode == 0, run.stderr
        return path

    @staticmethod
    def _run(*args, stdin=None, env_extra=None):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            capture_output=True, text=True, input=stdin, env=env, timeout=300,
        )

    @staticmethod
    def _stderr_payload(run):
        line = [l for l in run.stderr.splitlines() if l.startswith("error: ")][0]
        return json.loads(line[len("error: "):])

    def test_timeout_exits_3_with_structured_error(self, snapshot):
        run = self._run("query", "--snapshot", str(snapshot), "--batch", "4",
                        "--timeout", "1e-9")
        assert run.returncode == 3
        payload = self._stderr_payload(run)
        assert payload["code"] == "timeout"
        assert "budget" in payload["message"]

    def test_missing_snapshot_exits_2_with_snapshot_code(self, tmp_path):
        run = self._run("query", "--snapshot", str(tmp_path / "gone.rprs"))
        assert run.returncode == 2
        assert self._stderr_payload(run)["code"] == "snapshot"

    def test_env_armed_corruption_build_then_query(self, tmp_path):
        """REPRO_FAULTS activates across process boundaries: a build whose
        snapshot is corrupted mid-write yields a clean exit-2 on query."""
        path = tmp_path / "corrupt.rprs"
        build = self._run(
            "build", "--dist", "IND", "--n", "110", "--d", "3",
            "--out", str(path),
            env_extra={"REPRO_FAULTS": '{"seed": 4, "flip_snapshot_byte": true}'},
        )
        assert build.returncode == 0, build.stderr
        query = self._run("query", "--snapshot", str(path), "--batch", "2")
        assert query.returncode == 2
        assert self._stderr_payload(query)["code"] == "snapshot"

    def test_serve_isolates_failing_requests(self, snapshot):
        lines = "\n".join([
            '{"focal": 5}',
            'garbage',
            '{"focal": 1000000}',
            # Loose types are rejected, never coerced to tau = 1 / record 1.
            '{"focal": 5, "tau": 1.7}',
            '{"focal": 5, "tau": true}',
            '{"focal": true}',
            '{"focal": 9, "timeout": 1e-9}',
            '{"focal": 5}',
            '{"cmd": "quit"}',
        ]) + "\n"
        run = self._run("serve", "--snapshot", str(snapshot), stdin=lines)
        assert run.returncode == 0, run.stderr
        out = [json.loads(line) for line in run.stdout.splitlines()]
        assert out[0]["ready"] is True
        assert "k_star" in out[1]
        for bad in out[2:7]:
            assert bad["error"]["code"] == "bad_request"
        assert out[7]["error"]["code"] == "timeout"
        assert out[8]["cache_hit"] is True  # the loop kept serving
        assert out[9]["shutdown"] is True and out[9]["reason"] == "eof"
        assert out[9]["queries_answered"] == 2

    def test_serve_drains_gracefully_on_sigterm(self, snapshot):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--snapshot", str(snapshot)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["ready"] is True
            proc.stdin.write('{"focal": 5}\n')
            proc.stdin.flush()
            answer = json.loads(proc.stdout.readline())
            assert "k_star" in answer
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, err
        shutdown = json.loads(out.splitlines()[-1])
        assert shutdown["shutdown"] is True
        assert shutdown["reason"] == "SIGTERM"
        assert shutdown["queries_answered"] == 1


class TestServeInProcess:
    """The serve loop's StringIO fallback path (no real stdin fd)."""

    def test_per_request_timeout_and_default(self, tmp_path, monkeypatch, capsys):
        from repro.service.cli import main

        snap = tmp_path / "serve.rprs"
        assert main(["build", "--dist", "IND", "--n", "110", "--d", "3",
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"focal": 5}\n{"focal": 9, "timeout": 1e-9}\n'
                        '{"cmd": "quit"}\n'),
        )
        # A tiny *default* budget would kill every request; the request
        # field must override it in both directions.
        assert main(["serve", "--snapshot", str(snap), "--timeout", "600"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert "k_star" in lines[1]
        assert lines[2]["error"]["code"] == "timeout"
        assert lines[3]["shutdown"] is True
