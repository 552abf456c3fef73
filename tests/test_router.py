"""Router + admission behaviour: single-flight, compute lock, isolation.

The sharded front's promises, pinned:

* N duplicate concurrent queries → exactly one computation, N identical
  responses, ``coalesced == N - 1``;
* a cache hit never waits for a miss, and a shard computes one miss at a
  time while other shards compute alongside;
* mutating one shard never touches another shard's answers or state;
* everything admission returns is bit-identical to standalone
  ``maxrank()``.

Concurrency is made deterministic by holding a computation on an event
(see :func:`_hold_compute`) instead of relying on timing windows.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import CostCounters, MaxRankService, generate, maxrank
from repro.errors import AlgorithmError, ReproError
from repro.service import AdmissionController, DatasetRouter
from repro.service.core import result_fingerprint

#: Upper bound on any wait in this module: a broken lock fails, never hangs.
WAIT_S = 30


def _hold_compute(service, focal):
    """Wrap ``service._compute`` so computing ``focal`` parks until released.

    The hold sits inside the service's compute lock, where a real slow
    computation would (``focal=None`` holds nothing).  Returns
    ``(entered, release, active)``: ``entered`` is set once the held
    computation started, ``release`` lets it finish, and ``active``
    records the peak number of concurrent computations.
    """
    entered, release = threading.Event(), threading.Event()
    compute = service._compute
    lock = threading.Lock()
    active = {"now": 0, "peak": 0}

    def held(held_focal, *args, **kwargs):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        try:
            if held_focal == focal:
                entered.set()
                assert release.wait(WAIT_S)
            return compute(held_focal, *args, **kwargs)
        finally:
            with lock:
                active["now"] -= 1

    service._compute = held
    return entered, release, active


def _in_thread(target, *args, **kwargs):
    """Run ``target`` on a started thread; returns (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = target(*args, **kwargs)
        except Exception as exc:  # handed to the caller through outcome
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _join(*threads):
    """Join every thread within ``WAIT_S`` and require that it finished."""
    for thread in threads:
        thread.join(WAIT_S)
        assert not thread.is_alive(), "a request never returned"


def _wait_for(predicate):
    """Poll ``predicate`` until true (bounded by ``WAIT_S``)."""
    for _ in range(WAIT_S * 100):
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition never became true")


class TestSingleFlight:
    def test_duplicates_coalesce_to_one_computation(self):
        """N identical concurrent queries: 1 computation, N equal answers."""
        n_clients = 8
        dataset = generate("IND", 150, 3, seed=21)
        counters = CostCounters()
        reference = result_fingerprint(
            maxrank(dataset, 7, tau=1, counters=counters)
        )
        with MaxRankService(dataset) as service:
            admission = AdmissionController()
            # The opening request computes on an event, so every other
            # client provably attaches to its flight before it lands.
            entered, release, _active = _hold_compute(service, 7)
            opener, first = _in_thread(admission.submit, service, "ds", 7, tau=1)
            assert entered.wait(WAIT_S)
            clients = [
                _in_thread(admission.submit, service, "ds", 7, tau=1)
                for _ in range(n_clients - 1)
            ]
            _wait_for(lambda: admission.stats()["admitted"] == n_clients)
            release.set()
            _join(opener, *(thread for thread, _outcome in clients))
            outcomes = [first] + [outcome for _thread, outcome in clients]

            results = [outcome["value"][0] for outcome in outcomes]
            assert all(
                result_fingerprint(r) == reference for r in results
            )
            assert all(r is results[0] for r in results)  # the same flight
            stats = admission.stats()
            assert stats["coalesced"] == n_clients - 1
            assert stats["admitted"] == n_clients
            assert stats["in_flight"] == 0
            assert service.stats()["queries_computed"] == 1

    @pytest.mark.parametrize("tau", [1.7, True])
    def test_loose_tau_refused_before_keying(self, tau):
        """int(1.7) and True would key onto a τ = 1 flight and take its
        answer; the admission layer refuses them before admitting."""
        dataset = generate("IND", 80, 3, seed=2)
        with MaxRankService(dataset) as service:
            admission = AdmissionController()
            with pytest.raises(AlgorithmError):
                admission.submit(service, "ds", 3, tau=tau)
            assert admission.stats()["admitted"] == 0

    def test_errors_propagate_to_every_waiter(self):
        """A failing flight's error reaches the duplicates parked on it."""
        dataset = generate("IND", 80, 3, seed=2)
        with MaxRankService(dataset) as service:
            admission = AdmissionController()
            entered, release = threading.Event(), threading.Event()
            query = service.query

            def failing(*args, **kwargs):
                entered.set()
                assert release.wait(WAIT_S)
                return query(*args, **kwargs)

            service.query = failing
            clients = [
                _in_thread(admission.submit, service, "ds", 10**9)  # out of range
            ]
            assert entered.wait(WAIT_S)
            clients += [
                _in_thread(admission.submit, service, "ds", 10**9)
                for _ in range(3)
            ]
            _wait_for(lambda: admission.stats()["admitted"] == 4)
            release.set()
            _join(*(thread for thread, _outcome in clients))
            errors = [outcome.get("error") for _thread, outcome in clients]
            assert all(isinstance(error, ReproError) for error in errors)
            assert all(error is errors[0] for error in errors)  # the same one
            stats = admission.stats()
            assert stats["coalesced"] == 3
            assert stats["in_flight"] == 0  # failed flight landed


class TestComputeLock:
    @pytest.fixture()
    def router(self):
        shards = {
            "alpha": MaxRankService(generate("IND", 120, 3, seed=31)),
            "beta": MaxRankService(generate("ANTI", 110, 3, seed=32)),
        }
        with DatasetRouter(shards) as router:
            yield router

    def test_cache_hit_returns_while_a_miss_is_held(self, router):
        alpha = router.service("alpha")
        cached, hit = router.query("alpha", 4)
        assert hit is False
        entered, release, _active = _hold_compute(alpha, 9)
        miss, outcome = _in_thread(router.query, "alpha", 9)
        try:
            assert entered.wait(WAIT_S)
            # The shard's compute lock is held by the miss; the hit must
            # not wait for it.
            again, hit = router.query("alpha", 4)
            assert hit is True and again is cached
            assert not outcome  # the miss is still parked
        finally:
            release.set()
            _join(miss)
        assert outcome["value"][1] is False

    def test_one_shard_computes_one_miss_at_a_time(self, router):
        """Two misses on one shard never overlap; another shard computes
        while the first is held."""
        alpha, beta = router.service("alpha"), router.service("beta")
        entered, release, active = _hold_compute(alpha, 9)
        _entered_b, _release_b, active_b = _hold_compute(beta, None)
        held, held_outcome = _in_thread(router.query, "alpha", 9)
        try:
            assert entered.wait(WAIT_S)
            queued, queued_outcome = _in_thread(router.query, "alpha", 11)
            # Served is counted before the compute lock is taken: once it
            # reads 2 the second miss has reached the lock.
            _wait_for(lambda: alpha.stats()["queries_served"] == 2)
            # Another shard is not behind alpha's lock.
            result, hit = router.query("beta", 11)
            assert hit is False and result.k_star >= 1
            assert active_b["peak"] == 1
            assert not queued_outcome and active["peak"] == 1
        finally:
            release.set()
            _join(held)
        _join(queued)
        assert held_outcome["value"][0].k_star >= 1
        assert queued_outcome["value"][0].k_star >= 1
        assert active["peak"] == 1  # alpha never computed two at once
        assert alpha.stats()["queries_computed"] == 2

    def test_concurrent_clients_compute_each_key_once(self, router):
        """8 clients over mixed keys on both shards: one computation per
        key, every answer bit-identical to standalone maxrank().  A short
        switch interval makes a lost flight or a racing cache probe show
        up as a second computation."""
        keys = [("alpha", 3, 0), ("alpha", 8, 1), ("alpha", 21, 0),
                ("beta", 3, 0), ("beta", 8, 1), ("beta", 40, 1)]
        references = {}
        for shard, focal, tau in keys:
            dataset = router.service(shard).dataset
            references[(shard, focal, tau)] = result_fingerprint(
                maxrank(dataset, focal, tau=tau, counters=CostCounters())
            )
        n_clients = 8
        barrier = threading.Barrier(n_clients)
        mismatches = []

        def client(tag: int):
            barrier.wait()
            for i in range(2 * len(keys)):
                shard, focal, tau = keys[(tag + i) % len(keys)]
                result, _hit = router.query(shard, focal, tau=tau)
                if result_fingerprint(result) != references[(shard, focal, tau)]:
                    mismatches.append((tag, shard, focal, tau))

        threads = [threading.Thread(target=client, args=(tag,))
                   for tag in range(n_clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            _join(*threads)
        finally:
            sys.setswitchinterval(interval)
        assert not mismatches
        stats = router.stats()
        assert stats["admitted"] == n_clients * 2 * len(keys)
        for shard in ("alpha", "beta"):
            assert stats["services"][shard]["queries_computed"] == 3


class TestDatasetRouter:
    @pytest.fixture()
    def router(self):
        shards = {
            "alpha": MaxRankService(generate("IND", 120, 3, seed=31)),
            "beta": MaxRankService(generate("ANTI", 110, 3, seed=32)),
        }
        with DatasetRouter(shards) as router:
            yield router

    def test_unknown_dataset_is_a_clean_error(self, router):
        with pytest.raises(AlgorithmError, match="unknown dataset"):
            router.query("gamma", 3)

    def test_answers_match_standalone_per_shard(self, router):
        for dataset_id in router.dataset_ids:
            dataset = router.service(dataset_id).dataset
            counters = CostCounters()
            reference = maxrank(dataset, 5, tau=1, counters=counters)
            result, cache_hit = router.query(dataset_id, 5, tau=1)
            assert result_fingerprint(result) == result_fingerprint(reference)
            assert cache_hit is False
            again, cache_hit = router.query(dataset_id, 5, tau=1)
            assert cache_hit is True
            assert result_fingerprint(again) == result_fingerprint(reference)

    def test_mutating_one_shard_isolates_the_other(self, router):
        """Concurrent churn on beta while alpha absorbs inserts: beta's
        answers never change, alpha's post-mutation answers are exact."""
        beta_reference = result_fingerprint(router.query("beta", 8, tau=1)[0])
        stop = threading.Event()
        failures = []

        def churn_beta():
            while not stop.is_set():
                result, _hit = router.query("beta", 8, tau=1)
                if result_fingerprint(result) != beta_reference:
                    failures.append("beta answer changed")
                    return

        worker = threading.Thread(target=churn_beta)
        worker.start()
        try:
            for _ in range(3):
                router.insert("alpha", [0.5, 0.6, 0.7])
        finally:
            stop.set()
            worker.join()
        assert not failures
        alpha = router.service("alpha")
        assert alpha.dataset.n == 123
        # Post-mutation alpha answers are bit-identical to a fresh build.
        result, _hit = router.query("alpha", 4, tau=1)
        with MaxRankService(alpha.dataset) as fresh:
            assert result_fingerprint(result) == result_fingerprint(
                fresh.query(4, tau=1)
            )
        beta_stats = router.service("beta").stats()
        assert beta_stats["invalidated"] == 0  # isolation: untouched

    def test_lazy_cold_start_from_snapshots(self, tmp_path):
        paths = {}
        for name, seed in (("one", 41), ("two", 42)):
            with MaxRankService(generate("IND", 90, 3, seed=seed)) as service:
                path = tmp_path / f"{name}.rprs"
                service.save_snapshot(path)
                paths[name] = str(path)
        with DatasetRouter(paths) as router:
            assert router.cold_starts == 0  # nothing loaded yet
            result, _hit = router.query("one", 3)
            assert router.cold_starts == 1  # only the queried shard loaded
            assert result.k_star >= 1
            stats = router.stats()
            assert stats["loaded"] == ["one"]
            router.query("two", 3)
            assert router.cold_starts == 2

    def test_concurrent_cold_start_loads_once(self, tmp_path):
        with MaxRankService(generate("IND", 90, 3, seed=43)) as service:
            path = tmp_path / "cold.rprs"
            service.save_snapshot(path)
        with DatasetRouter({"cold": str(path)}) as router:
            barrier = threading.Barrier(6)
            services = []
            lock = threading.Lock()

            def hit():
                barrier.wait()
                svc = router.service("cold")
                with lock:
                    services.append(svc)

            threads = [threading.Thread(target=hit) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert router.cold_starts == 1
            assert all(svc is services[0] for svc in services)
