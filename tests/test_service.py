"""Differential and behavioural tests for the MaxRank service layer.

The service's headline contract is *bit-identity*: every answer it computes
— cold, warm, cached, serial or on the whole-query process pool — must be
byte-for-byte the answer a standalone ``maxrank()`` call produces, with the
engine-invariant cost counters unchanged.  The matrix here pins that on
seeded IND/ANTI × d ∈ {3, 4} × τ ∈ {1, 4} workloads, plus the cache and
snapshot round-trips through the service and the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import CostCounters, MaxRankService, generate, maxrank
from repro.errors import AlgorithmError, SnapshotError
from repro.experiments.harness import select_focal_records
from repro.service import QueryCache, QueryTask, query_key
from repro.service.core import result_fingerprint

#: Counters that must not depend on where/how a query executed (the same
#: set the planar/generic differential harness pins, which is what makes
#: "service == standalone" a meaningful equality).
ENGINE_INVARIANT_COUNTERS = (
    "page_reads",
    "distinct_page_reads",
    "records_accessed",
    "halfspaces_inserted",
    "halfspaces_expanded",
    "skyline_updates",
    "iterations",
    "nonempty_cells",
    "leaves_processed",
    "leaves_pruned",
    "lp_calls",
    "cells_examined",
    "candidates_generated",
)

CASES = [
    ("IND", 3, 1, 300),
    ("IND", 3, 4, 300),
    ("ANTI", 3, 1, 200),
    ("ANTI", 3, 4, 200),
    ("IND", 4, 1, 200),
    ("IND", 4, 4, 200),
    ("ANTI", 4, 1, 90),
    ("ANTI", 4, 4, 90),
]


def invariant_dump(counters: CostCounters):
    dump = counters.as_dict()
    return {name: dump[name] for name in ENGINE_INVARIANT_COUNTERS}


class TestServiceDifferential:
    """Cold / warm / cached / jobs=2 service answers vs standalone maxrank."""

    @pytest.mark.parametrize("dist,d,tau,n", CASES)
    def test_batch_matches_standalone(self, dist, d, tau, n):
        dataset = generate(dist, n, d, seed=11)
        unique = select_focal_records(dataset, 3, seed=7)
        focals = unique + unique  # duplicates exercise the result cache

        # Standalone references: fresh tree, fresh everything, per query.
        references = {}
        reference_counters = {}
        for focal in unique:
            counters = CostCounters()
            references[focal] = maxrank(dataset, int(focal), tau=tau,
                                        counters=counters)
            reference_counters[focal] = counters

        # Cold serial batch (first half computes, second half hits).
        with MaxRankService(dataset) as service:
            cold = service.query_batch(focals, tau=tau)
            for focal, result in zip(focals, cold):
                assert result_fingerprint(result) == result_fingerprint(references[focal])
                assert invariant_dump(result.counters) == invariant_dump(
                    reference_counters[focal]
                )
            assert service.stats()["queries_computed"] == len(unique)
            assert service.stats()["cache_hits"] == len(unique)

            # Warm: the whole batch again is served from cache, bit-identically.
            warm = service.query_batch(focals, tau=tau)
            assert service.stats()["queries_computed"] == len(unique)
            for focal, result in zip(focals, warm):
                assert result_fingerprint(result) == result_fingerprint(references[focal])

        # Whole-query process pool on a fresh (cold) service.
        with MaxRankService(dataset) as service:
            pooled = service.query_batch(focals, tau=tau, jobs=2)
            for focal, result in zip(focals, pooled):
                assert result_fingerprint(result) == result_fingerprint(references[focal])
                assert invariant_dump(result.counters) == invariant_dump(
                    reference_counters[focal]
                )
            assert service.stats()["queries_computed"] == len(unique)

    def test_single_queries_and_warm_skyline_reuse(self):
        dataset = generate("IND", 300, 4, seed=2)
        with MaxRankService(dataset) as service:
            first = service.query(5, tau=1)
            assert first.counters.skyline_reused == 0  # nothing warm yet
            second = service.query(9, tau=1)
            assert second.counters.skyline_reused > 0  # warm expansion keys
            reference = maxrank(dataset, 9, tau=1)
            assert result_fingerprint(second) == result_fingerprint(reference)

    def test_what_if_vector_focal(self):
        dataset = generate("IND", 250, 3, seed=4)
        vector = np.asarray(dataset.records[7]) * 0.95
        with MaxRankService(dataset) as service:
            served = service.query_batch([vector, vector], tau=1, jobs=2)
            reference = maxrank(dataset, vector, tau=1)
            assert result_fingerprint(served[0]) == result_fingerprint(reference)
            assert served[0] is served[1]  # deduped within the batch


class TestQueryCache:
    def test_lru_eviction(self):
        dataset = generate("IND", 200, 3, seed=3)
        with MaxRankService(dataset, cache_size=2) as service:
            service.query(1)
            service.query(2)
            service.query(3)       # evicts focal 1
            assert service.cache.evictions == 1
            computed_before = service.queries_computed
            service.query(3)       # hit
            service.query(1)       # recomputed (was evicted)
            assert service.queries_computed == computed_before + 1

    def test_cache_disabled(self):
        dataset = generate("IND", 200, 3, seed=3)
        with MaxRankService(dataset, cache_size=0) as service:
            service.query(1)
            service.query(1)
            assert service.queries_computed == 2

    def test_use_cache_false_bypasses(self):
        dataset = generate("IND", 200, 3, seed=3)
        with MaxRankService(dataset) as service:
            service.query(1)
            service.query(1, use_cache=False)
            assert service.queries_computed == 2

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_batch_dedup_without_cache(self, jobs):
        """Duplicates are computed once even with caching bypassed, on both
        the serial and the parallel path — and none of that dedup is
        attributed to the (never consulted) result cache."""
        dataset = generate("IND", 200, 3, seed=3)
        with MaxRankService(dataset) as service:
            results = service.query_batch([4, 4, 9, 4], use_cache=False, jobs=jobs)
            assert service.queries_computed == 2
            assert service.stats()["cache_hits"] == 0
            assert results[0] is results[1] is results[3]

    def test_key_separates_inputs(self):
        base = query_key(3, 1, "auto", {})
        assert query_key(4, 1, "auto", {}) != base
        assert query_key(3, 2, "auto", {}) != base
        assert query_key(3, 1, "aa", {}) != base
        assert query_key(3, 1, "auto", {"split_threshold": 9}) != base
        # An index and the same record's coordinates are distinct identities.
        assert query_key(np.array([0.1, 0.2, 0.7]), 1, "auto", {}) != base
        # A bool is not an index: it never keys onto record 1's answer.
        assert query_key(True, 1, "auto", {}) != query_key(1, 1, "auto", {})

    def test_cache_object_counts(self):
        cache = QueryCache(maxsize=1)
        key_a = query_key(1, 0, "auto", {})
        key_b = query_key(2, 0, "auto", {})
        assert cache.get(key_a) is None
        assert cache.misses == 1
        dataset = generate("IND", 80, 3, seed=0)
        result = maxrank(dataset, 1)
        cache.put(key_a, result)
        assert cache.get(key_a) is result
        assert cache.hits == 1
        cache.put(key_b, result)
        assert len(cache) == 1 and cache.evictions == 1

    def test_negative_maxsize_rejected(self):
        with pytest.raises(AlgorithmError):
            QueryCache(maxsize=-1)

    def test_exact_policy_never_derives(self):
        """A miss at a smaller ``tau`` is computed, never derived from a
        cached answer at a larger one."""
        dataset = generate("IND", 150, 3, seed=9)
        with MaxRankService(dataset) as service:
            service.query(3, tau=4)
            service.query(3, tau=2)
            assert service.queries_computed == 2


class TestServiceSnapshots:
    def test_round_trip_through_service(self, tmp_path):
        dataset = generate("IND", 250, 3, seed=6)
        path = tmp_path / "service.rprs"
        with MaxRankService(dataset) as service:
            original = service.query(8, tau=1)
            service.save_snapshot(path)
        with MaxRankService.from_snapshot(path) as warm:
            assert warm.dataset.name == dataset.name
            assert warm.dataset.n == dataset.n
            reloaded = warm.query(8, tau=1)
            assert result_fingerprint(reloaded) == result_fingerprint(original)
            assert invariant_dump(reloaded.counters) == invariant_dump(original.counters)

    def test_from_snapshot_rejects_corruption(self, tmp_path):
        path = tmp_path / "corrupt.rprs"
        path.write_bytes(b"garbage that is not a snapshot")
        with pytest.raises(SnapshotError):
            MaxRankService.from_snapshot(path)


class TestServiceLifecycle:
    def test_closed_service_rejects_queries(self):
        dataset = generate("IND", 60, 3, seed=0)
        service = MaxRankService(dataset)
        service.close()
        with pytest.raises(AlgorithmError, match="closed"):
            service.query(1)
        with pytest.raises(AlgorithmError, match="closed"):
            service.query_batch([1])
        service.close()  # idempotent

    def test_orphan_query_task_fails_loudly(self):
        task = QueryTask(token=987654321, focal_index=0)
        with pytest.raises(AlgorithmError, match="registered"):
            task.run()

    def test_task_pickles_small(self):
        import pickle

        task = QueryTask(token=1, focal_index=3, tau=2)
        blob = pickle.dumps(task)
        assert len(blob) < 1024
        assert pickle.loads(blob).focal_index == 3


class TestServiceCliInProcess:
    """CLI handlers driven in-process (also keeps them inside coverage)."""

    def test_build_query_verify_roundtrip(self, tmp_path, capsys):
        from repro.service.cli import main

        snap = tmp_path / "cli.rprs"
        assert main(["build", "--dist", "IND", "--n", "120", "--d", "3",
                     "--out", str(snap)]) == 0
        assert main(["query", "--snapshot", str(snap), "--batch", "4",
                     "--tau", "1", "--verify-standalone"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_query_json_and_explicit_focals(self, tmp_path, capsys):
        from repro.service.cli import main

        snap = tmp_path / "cli.rprs"
        main(["build", "--dist", "IND", "--n", "100", "--d", "3",
              "--out", str(snap)])
        capsys.readouterr()
        assert main(["query", "--snapshot", str(snap), "--focal", "3",
                     "--focal", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert [row["focal"] for row in payload["queries"]] == [3, 3]
        assert payload["queries"][0]["k_star"] == payload["queries"][1]["k_star"]
        assert payload["stats"]["cache_hits"] == 1

    def test_serve_loop(self, tmp_path, monkeypatch, capsys):
        import io

        from repro.service.cli import main

        snap = tmp_path / "cli.rprs"
        main(["build", "--dist", "IND", "--n", "100", "--d", "3",
              "--out", str(snap)])
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"focal": 5}\n\n{"bad": 1}\n[0.4, 0.3, 0.3]\n'
                        '{"cmd": "stats"}\n{"cmd": "quit"}\n'),
        )
        assert main(["serve", "--snapshot", str(snap)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["ready"] is True
        assert "k_star" in lines[1]
        assert "error" in lines[2]          # malformed request is answered, not fatal
        assert "error" in lines[3]          # valid JSON but not an object: same
        assert lines[4]["queries_served"] == 1

    def test_build_real_dataset(self, tmp_path, capsys):
        from repro.service.cli import main

        snap = tmp_path / "nba.rprs"
        assert main(["build", "--real", "NBA", "--sample", "60",
                     "--out", str(snap)]) == 0
        assert "NBA" in capsys.readouterr().out

    def test_snapshot_error_exit_code(self, tmp_path, capsys):
        from repro.service.cli import main

        assert main(["query", "--snapshot", str(tmp_path / "missing.rprs")]) == 2
        assert "error:" in capsys.readouterr().err


class TestServiceCli:
    """End-to-end CLI smoke: build → query (verify) → serve."""

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "cli.rprs"
        run = self._run("build", "--dist", "IND", "--n", "150", "--d", "3",
                        "--out", str(path))
        assert run.returncode == 0, run.stderr
        return path

    @staticmethod
    def _run(*args, stdin=None):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            capture_output=True, text=True, input=stdin, env=env, timeout=300,
        )

    def test_query_verifies_against_standalone(self, snapshot):
        run = self._run("query", "--snapshot", str(snapshot), "--batch", "8",
                        "--tau", "1", "--jobs", "2", "--json",
                        "--verify-standalone")
        assert run.returncode == 0, run.stderr + run.stdout
        payload = json.loads(run.stdout.splitlines()[0])
        assert len(payload["queries"]) == 8
        assert payload["stats"]["cache_hits"] == 4
        assert "bit-identical" in run.stdout

    def test_serve_answers_and_caches(self, snapshot):
        lines = '{"focal": 5}\n{"focal": 5}\n{"cmd": "stats"}\n{"cmd": "quit"}\n'
        run = self._run("serve", "--snapshot", str(snapshot), stdin=lines)
        assert run.returncode == 0, run.stderr
        ready, first, second, stats = [
            json.loads(line) for line in run.stdout.splitlines()[:4]
        ]
        assert ready["ready"] is True
        assert first["k_star"] == second["k_star"]
        assert first["cache_hit"] is False and second["cache_hit"] is True
        assert stats["queries_served"] == 2 and stats["queries_computed"] == 1

    def test_missing_snapshot_is_a_clean_error(self, tmp_path):
        run = self._run("query", "--snapshot", str(tmp_path / "none.rprs"))
        assert run.returncode == 2
        assert "error:" in run.stderr

    def test_serve_processes_unterminated_final_line(self, snapshot):
        """A valid final request whose newline never arrives (client closed
        mid-write) is still answered, never silently dropped."""
        lines = '{"focal": 5}\n{"focal": 5}'  # no trailing newline
        run = self._run("serve", "--snapshot", str(snapshot), stdin=lines)
        assert run.returncode == 0, run.stderr
        out = [json.loads(line) for line in run.stdout.splitlines()]
        assert out[1]["cache_hit"] is False
        assert out[2]["cache_hit"] is True       # the unterminated one
        assert out[2]["k_star"] == out[1]["k_star"]
        assert out[3]["shutdown"] is True
        assert out[3]["queries_answered"] == 2

    def test_serve_truncated_final_json_is_bad_request(self, snapshot):
        """An *invalid* unterminated tail (truncated mid-JSON) answers a
        structured bad_request error before the clean shutdown line."""
        lines = '{"focal": 5}\n{"focal"'
        run = self._run("serve", "--snapshot", str(snapshot), stdin=lines)
        assert run.returncode == 0, run.stderr
        out = [json.loads(line) for line in run.stdout.splitlines()]
        assert "k_star" in out[1]
        assert out[2]["error"]["code"] == "bad_request"
        assert out[3]["shutdown"] is True and out[3]["reason"] == "eof"

    def test_serve_listen_single_shard_and_sigterm(self, snapshot):
        """TCP mode subprocess smoke: kernel-picked port, a query without a
        "dataset" field (single shard is unambiguous), graceful SIGTERM."""
        import signal
        import socket

        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--listen", "127.0.0.1:0", "--snapshot", str(snapshot)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            meta = json.loads(proc.stdout.readline())
            host, port = meta["listening"]
            assert meta["datasets"] == [snapshot.stem]
            with socket.create_connection((host, port), timeout=30) as sock:
                f = sock.makefile("rwb")
                ready = json.loads(f.readline())
                assert ready["ready"] is True
                f.write(b'{"focal": 5}\n')
                f.flush()
                answer = json.loads(f.readline())
                assert answer["k_star"] >= 1
                proc.send_signal(signal.SIGTERM)
                farewell = json.loads(f.readline())
                assert farewell["shutdown"] is True
                assert farewell["reason"] == "SIGTERM"
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert json.loads(out.splitlines()[-1])["reason"] == "SIGTERM"
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()


class TestScopedInvalidation:
    """Mutations evict exactly the cached answers they can affect."""

    def test_insert_outside_every_scope_evicts_nothing(self):
        """A record dominated by every cached focal cannot touch any cached
        answer: zero evictions, ``retained`` exact, same result objects."""
        dataset = generate("IND", 200, 3, seed=51)
        with MaxRankService(dataset) as service:
            focals = [10, 25, 40, 60]
            before = {f: service.query(f, tau=1) for f in focals}
            entries = len(service.cache)
            harmless = dataset.records[focals].min(axis=0) * 0.5
            service.insert(harmless)
            assert service.cache.invalidated == 0
            assert service.cache.retained == entries
            hits = service.cache.hits
            for f in focals:
                assert service.query(f, tau=1) is before[f]
            assert service.cache.hits == hits + len(focals)

    def test_dominating_insert_evicts_exactly_the_affected_keys(self):
        dataset = generate("IND", 200, 3, seed=52)
        low = np.array([0.15, 0.15, 0.15])
        high = np.array([0.85, 0.85, 0.85])
        with MaxRankService(dataset) as service:
            service.query(low, tau=1)
            service.query(high, tau=1)
            service.insert([0.4, 0.4, 0.4])  # dominates low, dominated by high
            assert service.cache.invalidated == 1
            assert service.cache.retained == 1
            hits = service.cache.hits
            service.query(high, tau=1)
            assert service.cache.hits == hits + 1      # retained entry serves
            computed = service.queries_computed
            retained = service.query(high, tau=1)
            service.query(low, tau=1)                  # must recompute
            assert service.queries_computed == computed + 1
            oracle_counters = CostCounters()
            oracle = maxrank(service.dataset, high, tau=1, counters=oracle_counters)
            assert result_fingerprint(retained) == result_fingerprint(oracle)

    def test_scopeless_answers_take_the_full_flush_fallback(self):
        """BA results carry no provenance scope, so any mutation — even one
        dominated by the focal — must evict them."""
        dataset = generate("IND", 120, 3, seed=53)
        with MaxRankService(dataset, algorithm="ba") as service:
            result = service.query(7, tau=1)
            assert result.materialised_ids is None
            service.insert(dataset.records[7] * 0.5)
            assert service.cache.invalidated == 1
            assert service.cache.retained == 0
            assert len(service.cache) == 0

    def test_delete_remaps_retained_keys_and_ids(self):
        """Deleting row j shifts cached idx keys (and region labels) above j
        down by one; the remapped entry serves bit-identically."""
        dataset = generate("IND", 200, 3, seed=55)
        with MaxRankService(dataset) as service:
            # Pick a (focal, victim) pair with victim < focal and the focal
            # weakly dominating the victim: the victim is outside the cached
            # answer's scope, so the entry must survive the delete.
            focal = victim = None
            for candidate in range(199, 0, -1):
                dominated = np.flatnonzero(
                    (dataset.records[:candidate]
                     <= dataset.records[candidate]).all(axis=1)
                )
                if dominated.size:
                    focal, victim = candidate, int(dominated[0])
                    break
            assert focal is not None, "seed must yield a dominated pair"
            service.query(focal, tau=1)
            service.delete(victim)
            assert service.cache.retained == 1 and service.cache.invalidated == 0
            hits = service.cache.hits
            served = service.query(focal - 1, tau=1)
            assert service.cache.hits == hits + 1
            oracle = maxrank(service.dataset, focal - 1, tau=1)
            assert result_fingerprint(served) == result_fingerprint(oracle)
            n = service.dataset.n
            for region in served.regions:
                assert all(0 <= rid < n for rid in region.outscored_by)

    def test_delete_of_cached_focal_evicts_its_entries(self):
        dataset = generate("IND", 150, 3, seed=56)
        with MaxRankService(dataset) as service:
            service.query(30, tau=0)
            service.query(30, tau=2)
            service.delete(30)
            assert len(service.cache) == 0
            assert service.cache.invalidated == 2

    def test_mutation_validation(self):
        dataset = generate("IND", 50, 3, seed=57)
        with MaxRankService(dataset) as service:
            with pytest.raises(AlgorithmError):
                service.insert([0.1, 0.2])              # wrong dimension
            with pytest.raises(AlgorithmError):
                service.insert([0.1, 0.2, float("nan")])
            with pytest.raises(AlgorithmError):
                service.delete(50)                      # out of range
            with pytest.raises(AlgorithmError):
                service.delete(-1)
            with pytest.raises(AlgorithmError):
                service.delete("7")                     # type: ignore[arg-type]
            assert service.dataset.n == 50
        with pytest.raises(AlgorithmError):
            service.insert([0.1, 0.2, 0.3])             # closed service
