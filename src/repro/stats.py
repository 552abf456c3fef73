"""Cost accounting for MaxRank query processing.

The paper reports two performance metrics: CPU time (seconds) and I/O cost
(number of 4 KB disk-page accesses).  Because this reproduction simulates the
disk, the I/O cost is counted analytically: every R*-tree node occupies one
page and reading a node increments the counter.  The :class:`CostCounters`
object is threaded through the index, skyline, quad-tree and core algorithm
layers so that a single query produces one coherent cost report.

The counters also record finer-grained quantities that the paper discusses in
prose (share of CPU spent on within-leaf processing, number of records
accessed, number of half-spaces inserted, number of LP feasibility calls),
which the benchmark harness prints alongside the headline metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class CostCounters:
    """Mutable bundle of per-query cost metrics.

    Attributes
    ----------
    page_reads:
        Total simulated page accesses (R*-tree nodes read).  Matches the
        paper's "I/O" metric.
    distinct_page_reads:
        Number of distinct pages touched (an infinite-buffer view).
    records_accessed:
        Number of data records materialised from the index.
    halfspaces_inserted:
        Half-spaces inserted into the quad-tree / sorted list.
    halfspaces_expanded:
        Augmented half-spaces expanded by AA.
    cells_examined:
        Candidate cells whose emptiness was tested.
    candidates_generated:
        Candidate bit-strings emitted by within-leaf candidate generation
        (the entry point of the screen→LP funnel).  With the prefix-pruned
        DFS generator this counts only the candidates that survive
        enumeration-time pruning; forbidden sign-vector subtrees are never
        materialised (they are accounted by ``prefixes_cut`` instead).
    prefixes_cut:
        DFS branches cut during candidate generation because the partial
        sign vector already violated a pairwise constraint or fixed a row
        orientation with no room in the leaf box cut by the simplex row
        ``Σx ≤ 1`` (the per-row bound).  Every cut skips an entire subtree of
        candidate bit-strings, so this is *not* a candidate count — it is
        the number of pruning events.
    screen_accepts / screen_rejects:
        Candidate cells resolved by the vectorised accept screen (a probe
        point certified the cell non-empty) respectively the reject screen
        (some constraint row is unsatisfiable anywhere in the leaf) — these
        cells never reach the LP.  See
        :func:`repro.geometry.lp.screen_cells_batch`.
    pairwise_pruned:
        Candidate bit-strings dismissed by the pairwise binary constraints
        before any feasibility work (not part of ``cells_examined``).
    lines_inserted:
        Half-plane boundary lines inserted into planar arrangements by the
        ``d = 3`` fast path (:mod:`repro.geometry.planar`); counted once per
        build or incremental extension, never for an arrangement adopted
        verbatim from a shipped snapshot.
    faces_enumerated:
        Faces enumerated by planar-arrangement builds/extensions — the
        candidate discovery volume of the planar sweep, the counterpart of
        ``candidates_generated`` for the generic generator.
    lp_calls:
        Linear-programming feasibility calls performed.
    core_cuts / cores_learned:
        Candidate cells rejected by the within-leaf core gate without an LP
        (they contain an infeasibility core their leaf learned earlier)
        respectively cores stored from infeasible LPs.  See
        :mod:`repro.quadtree.withinleaf`.
    lp_constraint_rows:
        Total constraint rows handed to the exact max-slack solves (the
        size tally of the Seidel layer).  Tracked here — rather than as
        solver-local state — so it aggregates correctly when leaf tasks run
        on worker processes and their counters are merged back.
    leaves_processed / leaves_pruned:
        Quad-tree leaves that underwent within-leaf processing vs. leaves
        pruned by the |F_l| bound.  The tree splits on demand, so the pruned
        leaves are those of the lazily split tree: a pruned subtree that
        was never split counts as one leaf.
    cache_hits / cache_misses:
        Service-layer result-cache outcomes (:mod:`repro.service`): queries
        answered from the LRU result cache vs. queries that had to be
        computed.  Always zero for standalone :func:`repro.core.maxrank.maxrank`
        calls — these keys exist so one counter dump describes a whole
        service batch; they are *not* engine-invariant and are excluded from
        the differential equivalence checks.
    skyline_reused:
        BBS node expansions whose child entry keys were served from a warm
        per-dataset :class:`~repro.skyline.bbs.SkylineCache` instead of
        being recomputed.  Zero for cold standalone queries (nothing is
        warm); a service-layer key like ``cache_hits``.
    nodes_created / splits_performed:
        Quad-tree construction volume: nodes materialised and split events
        executed.  Leaves split when the scan reaches them, always in the
        query's own process, so both are executor-invariant and participate
        in the differential equivalence checks.
    worker_retries:
        Executor batches re-dispatched after a pool worker crashed
        (``BrokenProcessPool``): one per rebuild-and-retry round, not per
        chunk.  Zero on the happy path; like the service keys, not
        engine-invariant (it depends on which process died when).
    degraded_batches:
        Executor batches that exhausted their crash-retry budget and fell
        back to in-process serial execution of the remaining chunks.
        Results stay bit-identical; only this tally records the downgrade.
    deadline_checks:
        Cooperative deadline checkpoints evaluated (scan loop, within-leaf
        funnel, AA iterations).  Always zero when no deadline is set —
        the robustness layer costs nothing unless asked for — and not
        engine-invariant (serial and task-mode runs place checkpoints at
        different granularities).

    The object is *mergeable*: :meth:`merge` / ``+=`` add another bundle's
    counts, timers and page set into this one, and merging is associative
    and order-independent, which is what lets the execution engine give
    every worker-side leaf task its own counters and still report one exact
    per-query funnel.  Counters are picklable, so they cross process
    boundaries with the task results.

    The counters also carry the observability side channels (see
    :mod:`repro.obs`): ``_tracer`` is an optional live
    :class:`~repro.obs.trace.Tracer` — when set, every :meth:`timer`
    section additionally emits a span, at the cost of one ``is None``
    check when unset — and ``_spans`` is the list of finished
    :class:`~repro.obs.trace.SpanRecord` deltas riding home from
    workers, merged by :meth:`merge` exactly like the counters.  Both
    are excluded from :meth:`as_dict` and equality, so traced and
    untraced counter reports compare bit-identically; the tracer (a
    live object full of locks) is dropped on pickle, the span records
    (plain data) cross process boundaries with the rest.
    """

    page_reads: int = 0
    records_accessed: int = 0
    halfspaces_inserted: int = 0
    halfspaces_expanded: int = 0
    cells_examined: int = 0
    nonempty_cells: int = 0
    candidates_generated: int = 0
    prefixes_cut: int = 0
    screen_accepts: int = 0
    screen_rejects: int = 0
    pairwise_pruned: int = 0
    lines_inserted: int = 0
    faces_enumerated: int = 0
    lp_calls: int = 0
    lp_constraint_rows: int = 0
    core_cuts: int = 0
    cores_learned: int = 0
    leaves_processed: int = 0
    leaves_pruned: int = 0
    skyline_updates: int = 0
    iterations: int = 0
    nodes_created: int = 0
    splits_performed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    skyline_reused: int = 0
    worker_retries: int = 0
    degraded_batches: int = 0
    deadline_checks: int = 0
    _seen_pages: set = field(default_factory=set, repr=False)
    _timers: Dict[str, float] = field(default_factory=dict, repr=False)
    _timer_starts: Dict[str, float] = field(default_factory=dict, repr=False)
    _spans: list = field(default_factory=list, repr=False, compare=False)
    _tracer: object = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ I/O
    def count_page_read(self, page_id: int) -> None:
        """Record the read of the simulated disk page ``page_id``."""
        self.page_reads += 1
        self._seen_pages.add(page_id)

    @property
    def distinct_page_reads(self) -> int:
        """Number of distinct pages read so far."""
        return len(self._seen_pages)

    # ---------------------------------------------------------------- timers
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time under ``name``.

        Usage::

            with counters.timer("within_leaf"):
                ...work...

        When a tracer is attached (``_tracer``), the section also emits
        a span of the same name; with no tracer the extra cost is one
        ``is None`` check.
        """
        tracer = self._tracer
        handle = tracer.begin(name) if tracer is not None else None
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._timers[name] = self._timers.get(name, 0.0) + elapsed
            if handle is not None:
                tracer.finish(handle)

    def timer_seconds(self, name: str) -> float:
        """Total seconds accumulated under ``name`` (0.0 if never used)."""
        return self._timers.get(name, 0.0)

    @property
    def timers(self) -> Dict[str, float]:
        """A copy of all named timer totals, in seconds."""
        return dict(self._timers)

    @property
    def build_wall_fraction(self) -> float:
        """Share of the tracked wall clock spent building the quad-tree.

        ``time_quadtree_build / (build + skyline + within_leaf)`` — the
        headline ratio of PERFORMANCE.md's construction section.  Build time
        includes the leaf splits the scan makes on demand; those run inside
        the ``within_leaf`` section too, so they count in both terms of the
        denominator.  A derived
        *time* quantity, so deliberately a property and **not** part of
        :meth:`as_dict`: counter dictionaries must stay comparable across
        serial and parallel runs, and wall-clock shares are not.  Returns
        0.0 when nothing was timed.
        """
        build = self._timers.get("quadtree_build", 0.0)
        total = (
            build
            + self._timers.get("skyline", 0.0)
            + self._timers.get("within_leaf", 0.0)
        )
        if total <= 0.0:
            return 0.0
        return build / total

    # --------------------------------------------------------------- reports
    def as_dict(self) -> Dict[str, float]:
        """Flatten all counters and timers into a plain dictionary."""
        out: Dict[str, float] = {
            "page_reads": self.page_reads,
            "distinct_page_reads": self.distinct_page_reads,
            "records_accessed": self.records_accessed,
            "halfspaces_inserted": self.halfspaces_inserted,
            "halfspaces_expanded": self.halfspaces_expanded,
            "cells_examined": self.cells_examined,
            "nonempty_cells": self.nonempty_cells,
            "candidates_generated": self.candidates_generated,
            "prefixes_cut": self.prefixes_cut,
            "screen_accepts": self.screen_accepts,
            "screen_rejects": self.screen_rejects,
            "pairwise_pruned": self.pairwise_pruned,
            "lines_inserted": self.lines_inserted,
            "faces_enumerated": self.faces_enumerated,
            "lp_calls": self.lp_calls,
            "lp_constraint_rows": self.lp_constraint_rows,
            "core_cuts": self.core_cuts,
            "cores_learned": self.cores_learned,
            "leaves_processed": self.leaves_processed,
            "leaves_pruned": self.leaves_pruned,
            "skyline_updates": self.skyline_updates,
            "iterations": self.iterations,
            "nodes_created": self.nodes_created,
            "splits_performed": self.splits_performed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "skyline_reused": self.skyline_reused,
            "worker_retries": self.worker_retries,
            "degraded_batches": self.degraded_batches,
            "deadline_checks": self.deadline_checks,
        }
        for name, seconds in self._timers.items():
            out[f"time_{name}"] = seconds
        return out

    def merge(self, other: "CostCounters") -> None:
        """Add ``other``'s counts and timers into this object."""
        self.page_reads += other.page_reads
        self.records_accessed += other.records_accessed
        self.halfspaces_inserted += other.halfspaces_inserted
        self.halfspaces_expanded += other.halfspaces_expanded
        self.cells_examined += other.cells_examined
        self.nonempty_cells += other.nonempty_cells
        self.candidates_generated += other.candidates_generated
        self.prefixes_cut += other.prefixes_cut
        self.screen_accepts += other.screen_accepts
        self.screen_rejects += other.screen_rejects
        self.pairwise_pruned += other.pairwise_pruned
        self.lines_inserted += other.lines_inserted
        self.faces_enumerated += other.faces_enumerated
        self.lp_calls += other.lp_calls
        self.lp_constraint_rows += other.lp_constraint_rows
        self.core_cuts += other.core_cuts
        self.cores_learned += other.cores_learned
        self.leaves_processed += other.leaves_processed
        self.leaves_pruned += other.leaves_pruned
        self.skyline_updates += other.skyline_updates
        self.iterations += other.iterations
        self.nodes_created += other.nodes_created
        self.splits_performed += other.splits_performed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.skyline_reused += other.skyline_reused
        self.worker_retries += other.worker_retries
        self.degraded_batches += other.degraded_batches
        self.deadline_checks += other.deadline_checks
        self._seen_pages.update(other._seen_pages)
        for name, seconds in other._timers.items():
            self._timers[name] = self._timers.get(name, 0.0) + seconds
        if other._spans:
            self._spans.extend(other._spans)

    def __iadd__(self, other: "CostCounters") -> "CostCounters":
        """``counters += other`` — alias of :meth:`merge`."""
        self.merge(other)
        return self

    # ---------------------------------------------------------------- spans
    def record_span(self, record) -> None:
        """Append one finished :class:`~repro.obs.trace.SpanRecord` delta."""
        self._spans.append(record)

    def drain_spans(self) -> list:
        """Return and clear the accumulated span records."""
        spans, self._spans = self._spans, []
        return spans

    def __getstate__(self) -> Dict[str, object]:
        """Pickle support: drop in-flight timer starts (not meaningful
        across processes) and the live tracer (a lock-bearing object —
        workers get their trace context through the task instead);
        everything else, span records included, round-trips verbatim."""
        state = dict(self.__dict__)
        state["_timer_starts"] = {}
        state["_tracer"] = None
        return state

    def reset(self) -> None:
        """Zero every counter and timer."""
        fresh = CostCounters()
        self.__dict__.update(fresh.__dict__)
