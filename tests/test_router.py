"""Router + admission behaviour: hashing stability, single-flight, isolation.

The sharded front's promises, pinned:

* the consistent-hash ring remaps only the keys of a removed slot (and
  steals only the stolen keys when one is added) — warm slots stay warm;
* N duplicate concurrent queries → exactly one computation, N identical
  responses, ``coalesced == N - 1``;
* mutating one shard never touches another shard's answers or state;
* everything an admission wave returns is bit-identical to standalone
  ``maxrank()``.
"""

from __future__ import annotations

import threading

import pytest

from repro import CostCounters, MaxRankService, generate, maxrank
from repro.errors import AlgorithmError, ReproError
from repro.service import AdmissionController, ConsistentHashRing, DatasetRouter
from repro.service.core import result_fingerprint


class TestConsistentHashRing:
    KEYS = [f"dataset-{i}" for i in range(200)]

    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(["s0", "s1", "s2"])
        b = ConsistentHashRing(["s0", "s1", "s2"])
        assert [a.slot_for(k) for k in self.KEYS] == [
            b.slot_for(k) for k in self.KEYS
        ]

    def test_every_slot_gets_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        owners = {ring.slot_for(k) for k in self.KEYS}
        assert owners == {"s0", "s1", "s2", "s3"}

    def test_remove_remaps_only_the_removed_slots_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        before = {k: ring.slot_for(k) for k in self.KEYS}
        ring.remove_slot("s2")
        after = {k: ring.slot_for(k) for k in self.KEYS}
        for key in self.KEYS:
            if before[key] == "s2":
                assert after[key] != "s2"
            else:
                assert after[key] == before[key]  # stability: nobody else moves

    def test_add_steals_only_what_it_now_owns(self):
        ring = ConsistentHashRing(["s0", "s1", "s2"])
        before = {k: ring.slot_for(k) for k in self.KEYS}
        ring.add_slot("s3")
        after = {k: ring.slot_for(k) for k in self.KEYS}
        moved = {k for k in self.KEYS if after[k] != before[k]}
        assert moved  # the new slot does take some load...
        assert all(after[k] == "s3" for k in moved)  # ...and only to itself

    def test_add_then_remove_roundtrips(self):
        ring = ConsistentHashRing(["s0", "s1"])
        before = {k: ring.slot_for(k) for k in self.KEYS}
        ring.add_slot("s2")
        ring.remove_slot("s2")
        assert {k: ring.slot_for(k) for k in self.KEYS} == before

    def test_membership_errors(self):
        ring = ConsistentHashRing(["s0"])
        with pytest.raises(AlgorithmError):
            ring.add_slot("s0")
        with pytest.raises(AlgorithmError):
            ring.remove_slot("s9")
        ring.remove_slot("s0")
        with pytest.raises(AlgorithmError):
            ring.slot_for("anything")


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
            # A generous arrival window so all clients provably attach to
            # the first request's flight before its wave departs.
            admission = AdmissionController(wave_window_s=0.3)
            barrier = threading.Barrier(n_clients)
            answers = [None] * n_clients

            def client(i: int):
                barrier.wait()
                answers[i] = admission.submit(service, "ds", 7, tau=1)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            results = [result for result, _hit in answers]
            assert all(
                result_fingerprint(r) == reference for r in results
            )
            assert all(r is results[0] for r in results)  # the same flight
            stats = admission.stats()
            assert stats["coalesced"] == n_clients - 1
            assert stats["admitted"] == n_clients
            assert stats["waves"] == 1 and stats["wave_jobs"] == 1
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
        dataset = generate("IND", 80, 3, seed=2)
        with MaxRankService(dataset) as service:
            admission = AdmissionController(wave_window_s=0.2)
            barrier = threading.Barrier(4)
            outcomes = []

            def client():
                barrier.wait()
                try:
                    admission.submit(service, "ds", 10**9)  # out of range
                except ReproError as exc:
                    outcomes.append(str(exc))

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(outcomes) == 4
            assert admission.stats()["in_flight"] == 0  # failed flight landed

    def test_hot_backlog_is_spread_randomly(self):
        """More pending flights than one wave admits triggers the seeded
        MRV-style shuffle and everything still lands exactly once."""
        dataset = generate("IND", 100, 3, seed=4)
        focals = list(range(12))
        with MaxRankService(dataset) as service:
            admission = AdmissionController(wave_size=3, wave_window_s=0.15)
            barrier = threading.Barrier(len(focals))
            answers = {}
            lock = threading.Lock()

            def client(focal: int):
                barrier.wait()
                result, _hit = admission.submit(service, "ds", focal)
                with lock:
                    answers[focal] = result

            threads = [
                threading.Thread(target=client, args=(f,)) for f in focals
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert sorted(answers) == focals
            for focal in focals:
                counters = CostCounters()
                reference = maxrank(dataset, focal, counters=counters)
                assert result_fingerprint(answers[focal]) == result_fingerprint(
                    reference
                )
            stats = admission.stats()
            assert stats["spread_shuffles"] >= 1
            assert stats["waves"] >= len(focals) // 3
            assert stats["wave_jobs"] == len(focals)
            assert service.stats()["queries_computed"] == len(focals)


class TestDatasetRouter:
    @pytest.fixture()
    def router(self):
        shards = {
            "alpha": MaxRankService(generate("IND", 120, 3, seed=31)),
            "beta": MaxRankService(generate("ANTI", 110, 3, seed=32)),
        }
        with DatasetRouter(shards, slots=2, wave_window_s=0.0) as router:
            yield router

    def test_routing_is_stable_and_total(self, router):
        assert router.dataset_ids == ("alpha", "beta")
        slots = {ds: router.slot_for(ds) for ds in router.dataset_ids}
        assert set(slots.values()) <= {"slot-0", "slot-1"}
        assert slots == {ds: router.slot_for(ds) for ds in router.dataset_ids}

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
        with DatasetRouter(paths, slots=2) as router:
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
        with DatasetRouter({"cold": str(path)}, slots=1) as router:
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
