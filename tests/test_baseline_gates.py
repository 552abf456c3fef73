"""The gates of ``benchmarks/baseline.py --compare``, fed synthetic records.

Every regression a gate exists for must fail ``compare()``, and the
records the wall gate deliberately skips must pass it.  The committed
``BENCH_maxrank.json`` must have the shape the one record builder writes.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from collections import namedtuple
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "benchmarks_baseline", REPO_ROOT / "benchmarks" / "baseline.py"
)
baseline = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = baseline  # dataclasses resolve their module
_spec.loader.exec_module(baseline)

Result = namedtuple("Result", "k_star region_count")
CALIBRATION = 0.1

#: One record per family, with the family's own fields.
FAMILY_FIELDS = {
    "fig9/d=4": {"wall_s": 1.0, "io": 8.5},
    "build/cold/d=4/n=4000": {"wall_s": 1.0, "io": 41.0},
    "service/fig9/d=3": {
        "wall_s": 1.0, "cold_wall_s": 2.0, "batch": 16, "unique": 8,
        "cache_hits": 8, "skyline_reused": 28, "queries_computed": 8,
    },
    "update/fig9/d=3": {
        "wall_s": 1.0, "ops": 30, "unique": 8, "inserts": 3, "deletes": 3,
        "invalidated": 21, "retained": 16, "cache_hits": 3, "queries_computed": 29,
    },
    "serve/quick/mixed": {
        "clients": 8, "requests": 96, "unique": 12, "admitted": 96,
        "coalesced": 18, "queries_computed": 12, "cache_hits": 66,
    },
    "obs/overhead/d=3": {"io": 17.0, "spans": 370},
}


def synthetic(key):
    counters = {name: 100 for name in baseline.RECORDED_COUNTERS}
    counters.update({name: 0 for name in baseline.ROBUSTNESS_ZERO_COUNTERS})
    return baseline.record(
        [Result(47, 8), Result(18, 3)], counters, FAMILY_FIELDS[key]
    )


def committed(records):
    return {"schema": baseline.SCHEMA,
            "current": {"calibration_s": CALIBRATION, "configs": records}}


def run_compare(key, mutate, **options):
    """``compare()`` of one record, changed by ``mutate``, against itself."""
    base = synthetic(key)
    current = copy.deepcopy(base)
    mutate(current)
    return baseline.compare({key: current}, CALIBRATION, committed({key: base}),
                            **options)


def test_unchanged_records_pass():
    records = {key: synthetic(key) for key in FAMILY_FIELDS}
    assert baseline.compare(copy.deepcopy(records), CALIBRATION,
                            committed(records)) == []


def test_every_family_key_resolves():
    assert {key: baseline.family_of(key).name for key in FAMILY_FIELDS} == {
        "fig9/d=4": "fig", "build/cold/d=4/n=4000": "build",
        "service/fig9/d=3": "service", "update/fig9/d=3": "update",
        "serve/quick/mixed": "serve", "obs/overhead/d=3": "obs",
    }
    assert baseline.family_of("quick/fig9/d=4").name == "fig"


@pytest.mark.parametrize("key", sorted(FAMILY_FIELDS))
def test_changed_fingerprint_fails(key):
    def mutate(entry):
        entry["k_stars"] = [47, 19]
    failures = run_compare(key, mutate)
    assert len(failures) == 1 and "result fingerprint changed" in failures[0]


@pytest.mark.parametrize("lp_calls,fails", [(116, True), (114, False)])
def test_work_counter_tolerance(lp_calls, fails):
    def mutate(entry):
        entry["lp_calls"] = lp_calls
    failures = run_compare("fig9/d=4", mutate)
    assert bool(failures) is fails
    if fails:
        assert "lp_calls regressed 100 -> 116" in failures[0]


@pytest.mark.parametrize("key,counter", [
    ("build/cold/d=4/n=4000", "halfspaces_inserted"),
    ("build/cold/d=4/n=4000", "nodes_created"),
    ("build/cold/d=4/n=4000", "splits_performed"),
    ("update/fig9/d=3", "inserts"),
    ("update/fig9/d=3", "deletes"),
    ("update/fig9/d=3", "invalidated"),
    ("update/fig9/d=3", "retained"),
    ("serve/quick/mixed", "admitted"),
    ("serve/quick/mixed", "queries_computed"),
    ("serve/quick/mixed", "requests"),
])
@pytest.mark.parametrize("drift", [-1, 1])
def test_exact_counter_drift_fails(key, counter, drift):
    def mutate(entry):
        entry[counter] += drift
    failures = run_compare(key, mutate)
    assert len(failures) == 1 and f"{counter} changed" in failures[0]


def test_exact_counters_cover_the_gated_families():
    exact = {family.name: family.exact for family in baseline.FAMILIES}
    assert exact["build"] == ("halfspaces_inserted", "nodes_created", "splits_performed")
    assert exact["update"] == ("inserts", "deletes", "invalidated", "retained")
    assert exact["serve"] == ("admitted", "queries_computed", "requests")


def test_service_cache_hits_drop_fails():
    def mutate(entry):
        entry["cache_hits"] -= 1
    failures = run_compare("service/fig9/d=3", mutate)
    assert len(failures) == 1 and "cache_hits dropped 8 -> 7" in failures[0]
    # More reuse than committed is not a regression.
    assert run_compare("service/fig9/d=3",
                       lambda entry: entry.update(cache_hits=9)) == []


def test_skyline_reuse_is_gated_on_serial_runs_only():
    def mutate(entry):
        entry["skyline_reused"] -= 5
    assert run_compare("service/fig9/d=3", mutate)
    assert run_compare("service/fig9/d=3", mutate, serial_run=False) == []


@pytest.mark.parametrize("counter", baseline.ROBUSTNESS_ZERO_COUNTERS)
def test_robustness_counter_above_committed_fails(counter):
    def mutate(entry):
        entry[counter] = 1
    failures = run_compare("fig9/d=4", mutate)
    assert len(failures) == 1 and "leaked into the happy path" in failures[0]


def test_missing_key_fails():
    current = {"fig9/d=4": synthetic("fig9/d=4")}
    failures = baseline.compare(current, CALIBRATION, committed({}))
    assert failures == ["fig9/d=4: missing from committed baseline"]


def test_calibrated_wall_rise_fails():
    def mutate(entry):
        entry["wall_s"] = 1.4
    failures = run_compare("fig9/d=4", mutate)
    assert len(failures) == 1 and "calibrated wall-clock regressed" in failures[0]
    assert run_compare("fig9/d=4", mutate, wall_gate=False) == []
    # The same raw wall on a host half as fast is no regression.
    base = synthetic("fig9/d=4")
    current = dict(base, wall_s=1.4)
    assert baseline.compare({"fig9/d=4": current}, 2 * CALIBRATION,
                            committed({"fig9/d=4": base})) == []


def test_wall_under_the_floor_passes():
    base = dict(synthetic("fig9/d=4"), wall_s=baseline.WALL_FLOOR_S - 0.1)
    current = dict(base, wall_s=3.0)
    assert baseline.compare({"fig9/d=4": current}, CALIBRATION,
                            committed({"fig9/d=4": base})) == []


@pytest.mark.parametrize("key", ["serve/quick/mixed", "obs/overhead/d=3"])
def test_records_without_wall_pass_the_wall_gate(key):
    assert "wall_s" not in synthetic(key)
    # Even against a committed record of the older schema that had one.
    base = dict(synthetic(key), wall_s=5.0)
    assert baseline.compare({key: synthetic(key)}, CALIBRATION,
                            committed({key: base})) == []


def test_committed_baseline_has_the_recorded_shape():
    data = json.loads((REPO_ROOT / "BENCH_maxrank.json").read_text())
    assert data["schema"] == baseline.SCHEMA
    records = data["current"]["configs"]
    configured = {config.key for family in baseline.FAMILIES
                  for config in family.configs}
    assert set(records) == configured
    for key, entry in records.items():
        assert "cpu_s" not in entry, key
        expected = {"k_stars", "region_counts", *baseline.RECORDED_COUNTERS}
        assert expected <= set(entry), key
        assert set(entry) - expected == set(FAMILY_FIELDS[
            next(k for k in FAMILY_FIELDS
                 if baseline.family_of(k) is baseline.family_of(key))
        ]), key
