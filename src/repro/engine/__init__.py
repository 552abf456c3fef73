"""Execution engine: leaf-task scheduling with pluggable executors.

The hottest loop of a MaxRank query — within-leaf cell enumeration over the
quad-tree's competitive leaves — decomposes into independent, self-contained
:class:`LeafTask` units (one per ``(leaf, Hamming weight)`` probe).  The
scheduler in :func:`repro.core.cells.collect_cells` batches the tasks of one
priority level and hands them to an executor:

* :class:`SerialExecutor` (default) — the tasks run one after another in
  the calling process;
* :class:`ProcessPoolExecutor` — ``jobs`` worker processes, chunked
  dispatch, deterministic result-merge order.

Both run the same tasks and merge the same results (cells, witness probes,
frontier entries, task-local :class:`~repro.stats.CostCounters`) in task
order, so parallel runs reproduce the serial results and funnel reports
exactly.

Thread an executor through the public API (``maxrank(..., jobs=4)`` or
``maxrank(..., executor=...)``), or force one globally with the
``REPRO_JOBS`` environment variable.

Executors also schedule *whole-query* tasks: any picklable work unit with a
``run()`` method goes through the same chunked dispatch and
submission-order merge (see :func:`repro.engine.tasks.execute_task`).  The
service layer (:mod:`repro.service`) uses this to run entire MaxRank
queries of a batch in parallel.
"""

from .deadline import Deadline
from .executors import (
    LeafTaskExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor,
)
from .tasks import LeafTask, LeafTaskResult, execute_leaf_task, execute_task

__all__ = [
    "Deadline",
    "LeafTask",
    "LeafTaskResult",
    "execute_leaf_task",
    "execute_task",
    "LeafTaskExecutor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "resolve_executor",
]
