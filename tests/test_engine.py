"""Execution-engine tests: executor equivalence, picklability, counter merging.

The engine's contract is that every executor — the in-process serial
default and the process pool — produces *bit-identical* results and cost
counters for the same query.  These tests pin that contract
on small fig8/fig9-style workloads (including the AA re-scan machinery, which
round-trips reuse state through task snapshots), check that every object a
task ships across a process boundary pickles faithfully, and cover the
mergeability of :class:`repro.stats.CostCounters`.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import CostCounters, generate
from repro.core.aa import aa_maxrank
from repro.errors import AlgorithmError
from repro.core.ba import ba_maxrank
from repro.engine import (
    LeafTask,
    ProcessPoolExecutor,
    SerialExecutor,
    execute_leaf_task,
    make_executor,
)
from repro.geometry.halfspace import Halfspace, halfspace_for_record
from repro.geometry.planar import PlanarArrangement
from repro.quadtree.withinleaf import (
    LeafReuseState,
    PairwiseConstraints,
    WithinLeafProcessor,
)


def _fingerprint(result, counters):
    """Everything that must match bit-for-bit across executors."""
    return {
        "k_star": result.k_star,
        "region_count": result.region_count,
        "orders": [region.cell_order for region in result.regions],
        "points": [region.representative_query().tobytes() for region in result.regions],
        "counters": {
            name: value
            for name, value in counters.as_dict().items()
            if not name.startswith("time_")
        },
    }


def _run(algorithm, dataset, focal, executor, tau=0, **options):
    counters = CostCounters()
    run = aa_maxrank if algorithm == "aa" else ba_maxrank
    result = run(
        dataset, focal, tau=tau, counters=counters, executor=executor, **options
    )
    return _fingerprint(result, counters)


class TestExecutorEquivalence:
    """Serial and pool runs must be indistinguishable."""

    # (algorithm, distribution, n, d, focal, tau) — small cuts of the
    # fig8 (cardinality) and fig9 (dimensionality) benchmark workloads.
    CASES = [
        ("aa", "IND", 300, 4, 7, 0),     # fig9 d=4
        ("aa", "IND", 120, 5, 11, 0),    # fig9 d=5
        ("aa", "ANTI", 250, 4, 3, 0),    # fig8 ANTI: many AA re-scans
        ("aa", "IND", 150, 4, 9, 1),     # iMaxRank slack
        ("ba", "IND", 150, 4, 13, 0),    # BA single scan
    ]

    @pytest.mark.parametrize("algorithm,dist,n,d,focal,tau", CASES)
    def test_process_pool_matches_default(self, algorithm, dist, n, d, focal, tau):
        dataset = generate(dist, n, d, seed=0)
        serial = _run(algorithm, dataset, focal, None, tau=tau)
        with ProcessPoolExecutor(2) as pool:
            parallel = _run(algorithm, dataset, focal, pool, tau=tau)
        assert parallel == serial

    def test_process_pool_matches_serial_on_rescan_heavy_workload(self):
        dataset = generate("ANTI", 200, 4, seed=1)
        serial = _run("aa", dataset, 3, None)
        with ProcessPoolExecutor(2) as pool:
            parallel = _run("aa", dataset, 3, pool)
        assert parallel == serial

    def test_pool_is_reusable_across_queries(self):
        dataset = generate("IND", 200, 4, seed=2)
        with ProcessPoolExecutor(2) as pool:
            for focal in (3, 5):
                serial = _run("aa", dataset, focal, None)
                parallel = _run("aa", dataset, focal, pool)
                assert parallel == serial

    def test_pool_shared_by_concurrent_callers(self, monkeypatch):
        """Two threads running multi-task batches on one pool each get
        the serial answer, and the pool is built once."""
        import concurrent.futures
        import threading
        import time

        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                time.sleep(0.1)  # widen the window a racing build would use
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        dataset = generate("IND", 200, 4, seed=2)
        focals = (3, 5)
        serial = {f: _run("aa", dataset, f, SerialExecutor()) for f in focals}
        barrier = threading.Barrier(len(focals))
        parallel = {}
        with ProcessPoolExecutor(2) as pool:

            def query(focal):
                barrier.wait()
                parallel[focal] = _run("aa", dataset, focal, pool)

            threads = [threading.Thread(target=query, args=(f,)) for f in focals]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        assert parallel == serial
        assert len(built) == 1

    def test_serial_executor_object_matches_default(self):
        dataset = generate("IND", 150, 4, seed=3)
        assert _run("aa", dataset, 5, SerialExecutor()) == _run(
            "aa", dataset, 5, None
        )

    def test_jobs_facade(self):
        from repro import maxrank

        dataset = generate("IND", 150, 4, seed=4)
        serial = maxrank(dataset, 5)
        parallel = maxrank(dataset, 5, jobs=2)
        assert parallel.k_star == serial.k_star
        assert parallel.region_count == serial.region_count

    def test_make_executor(self):
        assert make_executor(None) is None
        assert make_executor(1) is None
        pool = make_executor(3)
        assert isinstance(pool, ProcessPoolExecutor) and pool.jobs == 3
        pool.close()
        with pytest.raises(ValueError):
            ProcessPoolExecutor(0)
        # A zero or negative worker count through the façade is a caller
        # bug, not a request for the serial path.
        for bad in (0, -1, -8):
            with pytest.raises(AlgorithmError):
                make_executor(bad)


class TestPlanarEngineExecutors:
    """The d = 3 planar sweep must stay bit-identical across executors.

    These are the engine-level counterparts of ``tests/test_differential.py``:
    the planar path ships a :class:`PlanarArrangement` inside its leaf tasks,
    so the serial and process-pool runs must produce identical results
    *and* identical merged counter dicts — including the
    planar-specific ``lines_inserted`` / ``faces_enumerated`` tallies, which
    are charged exactly once per arrangement build wherever the build runs.
    """

    # (distribution, n, focal, tau) — d = 3 cuts with AA re-scans and, for
    # the tau cases, deep enough weights to engage the arrangement sweep.
    CASES = [
        ("IND", 300, 7, 0),
        ("ANTI", 150, 3, 0),
        ("IND", 200, 9, 3),
        ("ANTI", 120, 5, 2),
    ]

    @pytest.mark.parametrize("dist,n,focal,tau", CASES)
    def test_process_pool_matches_default(self, dist, n, focal, tau):
        dataset = generate(dist, n, 3, seed=0)
        serial = _run("aa", dataset, focal, None, tau=tau, use_planar=True)
        with ProcessPoolExecutor(2) as pool:
            parallel = _run("aa", dataset, focal, pool, tau=tau, use_planar=True)
        assert parallel == serial

    def test_process_pool_matches_serial(self):
        dataset = generate("IND", 250, 3, seed=1)
        serial = _run("aa", dataset, 5, None, tau=2, use_planar=True)
        with ProcessPoolExecutor(2) as pool:
            parallel = _run("aa", dataset, 5, pool, tau=2, use_planar=True)
        assert parallel == serial

    def test_facade_jobs_matches_serial_at_d3(self):
        from repro import maxrank

        dataset = generate("ANTI", 150, 3, seed=2)
        serial = maxrank(dataset, 4, tau=1)
        parallel = maxrank(dataset, 4, tau=1, jobs=2)
        assert serial.algorithm == parallel.algorithm == "AA-3D"
        assert parallel.k_star == serial.k_star
        assert parallel.region_count == serial.region_count
        assert [
            r.representative_query().tobytes() for r in parallel.regions
        ] == [r.representative_query().tobytes() for r in serial.regions]


def _sample_task(track_frontier=True):
    """A realistic picklable task built from actual half-space geometry."""
    focal = np.array([0.5, 0.5, 0.5, 0.5])
    rng = np.random.default_rng(7)
    partial = []
    for record_id in range(8):
        record = rng.uniform(0.2, 0.8, size=4)
        record[0] = 0.9  # keep the record incomparable to the focal point
        record[1] = 0.1
        partial.append(
            (record_id, halfspace_for_record(record, focal, record_id=record_id))
        )
    lower = np.zeros(3)
    upper = np.full(3, 0.5)
    return LeafTask(
        leaf_key=123,
        seq=4,
        weight=1,
        lower=lower,
        upper=upper,
        partial=tuple(partial),
        track_frontier=track_frontier,
    )


def _sample_planar_task(weight=2, planar=None):
    """A d = 3 (planar-sweep) leaf task over real half-plane geometry."""
    focal = np.array([0.5, 0.5, 0.5])
    rng = np.random.default_rng(11)
    partial = []
    record_id = 0
    while len(partial) < 9:
        record = rng.uniform(0.1, 0.9, size=3)
        if (record > focal).all() or (record < focal).all():
            continue
        partial.append(
            (record_id, halfspace_for_record(record, focal, record_id=record_id))
        )
        record_id += 1
    return LeafTask(
        leaf_key=7,
        seq=2,
        weight=weight,
        lower=np.zeros(2),
        upper=np.ones(2),
        partial=tuple(partial),
        track_frontier=True,
        use_planar=True,
        planar=planar,
    )


class TestPicklability:
    """Everything a task ships across process boundaries must round-trip."""

    def test_halfspace_roundtrip(self):
        h = Halfspace([0.25, -1.5, 0.5], 0.125, record_id=9, augmented=True)
        clone = pickle.loads(pickle.dumps(h))
        assert np.array_equal(clone.coefficients, h.coefficients)
        assert clone.offset == h.offset
        assert clone.record_id == h.record_id
        assert clone.augmented is h.augmented

    def test_leaf_task_roundtrip_and_execution(self):
        task = _sample_task()
        clone = pickle.loads(pickle.dumps(task))
        assert clone.leaf_key == task.leaf_key
        assert clone.weight == task.weight
        assert np.array_equal(clone.lower, task.lower)
        assert [hid for hid, _ in clone.partial] == [hid for hid, _ in task.partial]
        original = execute_leaf_task(task)
        replayed = execute_leaf_task(clone)
        assert [c.bits for c in replayed.cells] == [c.bits for c in original.cells]
        for a, b in zip(original.cells, replayed.cells):
            assert np.array_equal(a.interior_point, b.interior_point)
        assert original.counters.as_dict() == replayed.counters.as_dict()

    def test_leaf_task_result_roundtrip(self):
        result = execute_leaf_task(_sample_task())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.leaf_key == result.leaf_key
        assert [c.bits for c in clone.cells] == [c.bits for c in result.cells]
        assert clone.frontier == result.frontier
        assert clone.counters.as_dict() == result.counters.as_dict()

    def test_leaf_reuse_state_roundtrip(self):
        task = _sample_task()
        processor = WithinLeafProcessor(
            task.lower,
            task.upper,
            task.partial,
            pairwise_min_size=2,
            track_frontier=True,
        )
        processor.cells_at_weight(0)
        processor.cells_at_weight(1)
        state = processor.reuse_state()
        assert isinstance(state, LeafReuseState)
        assert state.pairwise is not None and len(state.pairwise) >= 0
        clone = pickle.loads(pickle.dumps(state))
        assert clone.partial_ids == state.partial_ids
        assert clone.frontier == state.frontier
        # The cloned pairwise analysis must forbid exactly the same patterns.
        probe_bits = [tuple(int(b) for b in np.binary_repr(v, len(task.partial)))
                      for v in range(16)]
        for bits in probe_bits:
            assert clone.pairwise.violates(bits) == state.pairwise.violates(bits)

    def test_planar_task_roundtrip_and_execution(self):
        task = _sample_planar_task()
        clone = pickle.loads(pickle.dumps(task))
        assert clone.use_planar is True and clone.planar is None
        original = execute_leaf_task(task)
        replayed = execute_leaf_task(clone)
        assert [c.bits for c in replayed.cells] == [c.bits for c in original.cells]
        for a, b in zip(original.cells, replayed.cells):
            assert np.array_equal(a.interior_point, b.interior_point)
        assert original.counters.as_dict() == replayed.counters.as_dict()
        assert original.counters.lines_inserted == len(task.partial)
        assert original.counters.faces_enumerated > 0

    def test_planar_arrangement_roundtrip(self):
        result = execute_leaf_task(_sample_planar_task())
        assert isinstance(result.planar, PlanarArrangement)
        clone = pickle.loads(pickle.dumps(result.planar))
        assert clone.line_ids == result.planar.line_ids
        assert clone.face_count == result.planar.face_count
        assert [f.mask for f in clone.faces()] == [
            f.mask for f in result.planar.faces()
        ]
        for a, b in zip(clone.faces(), result.planar.faces()):
            assert np.array_equal(a.vertices, b.vertices)

    def test_planar_arrangement_adopted_verbatim(self):
        first = execute_leaf_task(_sample_planar_task())
        shipped = pickle.loads(pickle.dumps(first.planar))
        follow_up = _sample_planar_task(weight=3, planar=shipped)
        result = execute_leaf_task(follow_up)
        # The adopted arrangement is not re-built: no lines, no faces charged,
        # and the result carries no arrangement delta.
        assert result.counters.lines_inserted == 0
        assert result.counters.faces_enumerated == 0
        assert result.planar is None
        # And the decisions match a from-scratch build exactly.
        scratch = execute_leaf_task(_sample_planar_task(weight=3))
        assert [c.bits for c in result.cells] == [c.bits for c in scratch.cells]
        for a, b in zip(result.cells, scratch.cells):
            assert np.array_equal(a.interior_point, b.interior_point)

    def test_leaf_reuse_state_ships_the_planar_arrangement(self):
        task = _sample_planar_task()
        processor = WithinLeafProcessor(
            task.lower, task.upper, task.partial,
            use_planar=True, track_frontier=True,
        )
        processor.cells_at_weight(2)
        state = processor.reuse_state()
        assert isinstance(state.planar, PlanarArrangement)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.planar.line_ids == state.planar.line_ids
        assert clone.planar.face_count == state.planar.face_count

    def test_pairwise_constraints_adopted_verbatim(self):
        task = _sample_task()
        first = execute_leaf_task(task)
        assert isinstance(first.pairwise, PairwiseConstraints) or first.pairwise is None
        if first.pairwise is None:
            pytest.skip("leaf too small for a pairwise analysis")
        shipped = pickle.loads(pickle.dumps(first.pairwise))
        processor = WithinLeafProcessor(
            task.lower, task.upper, task.partial, pairwise=shipped
        )
        assert processor.pairwise_constraints is shipped


class TestCostCountersMerge:
    """merge() / += must be exact, associative and pickle-safe."""

    @staticmethod
    def _sample(seed: int) -> CostCounters:
        rng = np.random.default_rng(seed)
        counters = CostCounters()
        for name in (
            "records_accessed", "halfspaces_inserted", "halfspaces_expanded",
            "cells_examined", "nonempty_cells", "candidates_generated",
            "prefixes_cut", "screen_accepts", "screen_rejects",
            "pairwise_pruned", "lines_inserted", "faces_enumerated",
            "lp_calls", "lp_constraint_rows",
            "leaves_processed", "leaves_pruned", "skyline_updates", "iterations",
        ):
            setattr(counters, name, int(rng.integers(0, 1000)))
        for page in rng.integers(0, 50, size=10):
            counters.count_page_read(int(page))
        counters._timers["within_leaf"] = float(rng.uniform(0, 2))
        return counters

    def test_merge_roundtrip(self):
        """Splitting work over two bundles and merging equals one bundle."""
        whole = self._sample(1)
        whole.merge(self._sample(2))
        left, right = self._sample(1), self._sample(2)
        recombined = CostCounters()
        recombined += left
        recombined += right
        assert recombined.as_dict() == whole.as_dict()
        assert recombined.distinct_page_reads == whole.distinct_page_reads

    def test_merge_is_order_independent(self):
        a, b, c = self._sample(3), self._sample(4), self._sample(5)
        forward = CostCounters()
        forward += a
        forward += b
        forward += c
        backward = CostCounters()
        backward += c
        backward += b
        backward += a
        assert forward.as_dict() == backward.as_dict()

    def test_pickle_roundtrip_preserves_counts_and_pages(self):
        counters = self._sample(6)
        clone = pickle.loads(pickle.dumps(counters))
        assert clone.as_dict() == counters.as_dict()
        assert clone.distinct_page_reads == counters.distinct_page_reads
        # The clone keeps accumulating independently.
        clone.lp_calls += 1
        assert clone.lp_calls == counters.lp_calls + 1

    def test_worker_counter_deltas_cover_all_within_leaf_work(self):
        """A task's own counters report the same totals as the processor
        run against a shared bundle — nothing is counted process-locally."""
        task = _sample_task()
        isolated = execute_leaf_task(task)
        shared = CostCounters()
        WithinLeafProcessor(
            task.lower, task.upper, task.partial,
            counters=shared, track_frontier=task.track_frontier,
        ).cells_at_weight(task.weight)
        assert isolated.counters.as_dict() == shared.as_dict()
        assert shared.lp_constraint_rows > 0 or shared.lp_calls == 0


class TestEnvironmentOverride:
    def test_resolve_prefers_explicit_executor(self):
        from repro.engine import resolve_executor

        explicit = SerialExecutor()
        assert resolve_executor(explicit) is explicit

    def test_env_forced_pool(self, monkeypatch):
        """REPRO_JOBS=2 forces a process pool on plain queries."""
        from repro.engine import executors

        monkeypatch.setattr(executors, "_env_checked", False)
        monkeypatch.setattr(executors, "_env_executor", None)
        monkeypatch.setenv("REPRO_JOBS", "2")
        forced = executors.resolve_executor(None)
        try:
            assert isinstance(forced, ProcessPoolExecutor) and forced.jobs == 2
            dataset = generate("IND", 120, 4, seed=5)
            serial = _run("aa", dataset, 3, SerialExecutor())
            routed = _run("aa", dataset, 3, None)  # picks up the env executor
            assert routed == serial
        finally:
            forced.close()
            monkeypatch.setattr(executors, "_env_checked", False)
            monkeypatch.setattr(executors, "_env_executor", None)

    def test_env_latch_builds_one_executor(self, monkeypatch):
        """Threads racing on the first query share one forced executor."""
        import threading
        import time

        from repro.engine import executors

        class SlowPool(ProcessPoolExecutor):
            def __init__(self, jobs):
                time.sleep(0.05)  # widen the window a racing latch would use
                super().__init__(jobs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", SlowPool)
        monkeypatch.setattr(executors, "_env_checked", False)
        monkeypatch.setattr(executors, "_env_executor", None)
        monkeypatch.setenv("REPRO_JOBS", "2")
        barrier = threading.Barrier(8)
        resolved = []

        def resolve():
            barrier.wait()
            resolved.append(executors.resolve_executor(None))

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert len(resolved) == 8
            assert all(executor is resolved[0] for executor in resolved)
        finally:
            for executor in {id(e): e for e in resolved}.values():
                executor.close()
            monkeypatch.setattr(executors, "_env_checked", False)
            monkeypatch.setattr(executors, "_env_executor", None)

    @pytest.mark.parametrize("value", ["many", "task"])
    def test_env_rejects_garbage(self, monkeypatch, value):
        from repro.engine import executors

        monkeypatch.setattr(executors, "_env_checked", False)
        monkeypatch.setattr(executors, "_env_executor", None)
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError):
            executors.resolve_executor(None)
        monkeypatch.setattr(executors, "_env_checked", False)
        monkeypatch.setattr(executors, "_env_executor", None)
