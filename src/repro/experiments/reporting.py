"""Plain-text reporting of experiment results.

The paper presents results as figures (series over a swept parameter) and
tables.  This reproduction prints the same content as aligned text tables so
the benchmark output can be diffed against the expectations recorded in
EXPERIMENTS.md without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_series",
    "print_table",
    "print_series",
    "screen_funnel",
    "format_screen_funnel",
    "construction_summary",
    "format_construction_summary",
]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Format dictionaries as an aligned text table.

    Parameters
    ----------
    rows:
        One mapping per row.
    columns:
        Column order; defaults to the keys of the first row.
    title:
        Optional heading printed above the table.
    float_format:
        Format applied to float values.
    """
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in rendered
    )
    parts: List[str] = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    *,
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Format one or more metric series over a swept parameter as a table."""
    rows: List[Dict[str, object]] = []
    for index, x in enumerate(x_values):
        row: Dict[str, object] = {x_label: x}
        for name, values in series.items():
            row[name] = values[index] if index < len(values) else ""
        rows.append(row)
    return format_table(rows, [x_label, *series.keys()], title=title, float_format=float_format)


def screen_funnel(counters: Mapping[str, float]) -> Dict[str, float]:
    """Summarise the generation→screen→LP funnel from a counter dump.

    Takes the dictionary produced by
    :meth:`repro.stats.CostCounters.as_dict` (or an aggregation of several)
    and derives the headline efficiency numbers of the within-leaf
    feasibility engine.  The funnel starts at candidate *generation*: the
    prefix-pruned DFS never materialises bit-strings that violate a pairwise
    constraint or fix a row orientation with no room in ``leaf box ∩
    {Σx ≤ 1}`` (the per-row bound), so the entry count of the
    funnel is the number of candidates actually emitted, with the pruning
    volume visible as cut branches rather than discarded candidates.

    ``candidates``
        Candidate bit-strings that entered the screens: those emitted by
        generation (``candidates_generated``) plus, on the legacy
        enumerate-then-filter paths, the candidates dismissed by the
        post-hoc pairwise filter (``pairwise_pruned``).
    ``prefixes_cut``
        DFS branches cut during generation; every cut skips an entire
        subtree of candidates that the funnel therefore never sees.
    ``screen_resolved``
        Candidates resolved without any LP: pairwise-pruned, accept-screen
        certified (a probe point proved the cell non-empty) or reject-screen
        dismissed (some constraint row is unsatisfiable in the leaf).
    ``screen_resolved_ratio``
        ``screen_resolved / candidates`` — the share of the feasibility
        workload the screens absorbed.  The remainder went to the exact
        Seidel LP (``lp_calls``).
    ``lines_inserted`` / ``faces_enumerated``
        Discovery volume of the ``d = 3`` planar sweep (zero elsewhere):
        half-plane boundary lines inserted into leaf arrangements and the
        faces those builds enumerated.  The sweep feeds the funnel from the
        face side — only cover sets of actual faces become candidates, so a
        large ``faces_enumerated`` with a small ``candidates`` is the planar
        analogue of a large ``prefixes_cut``.
    """
    pruned = float(counters.get("pairwise_pruned", 0))
    accepts = float(counters.get("screen_accepts", 0))
    rejects = float(counters.get("screen_rejects", 0))
    generated = float(counters.get("candidates_generated", 0))
    if not generated:
        # Counter dumps from before the DFS generator: fall back to the
        # candidates that reached the screens.
        generated = float(counters.get("cells_examined", 0))
    candidates = generated + pruned
    resolved = pruned + accepts + rejects
    return {
        "candidates": candidates,
        "candidates_generated": generated,
        "prefixes_cut": float(counters.get("prefixes_cut", 0)),
        "pairwise_pruned": pruned,
        "screen_accepts": accepts,
        "screen_rejects": rejects,
        "lines_inserted": float(counters.get("lines_inserted", 0)),
        "faces_enumerated": float(counters.get("faces_enumerated", 0)),
        "lp_calls": float(counters.get("lp_calls", 0)),
        "screen_resolved": resolved,
        "screen_resolved_ratio": resolved / candidates if candidates else 0.0,
    }


def format_screen_funnel(counters: Mapping[str, float], *, title: Optional[str] = None) -> str:
    """Render :func:`screen_funnel` as a one-row aligned table."""
    return format_table([screen_funnel(counters)], title=title)


def construction_summary(counters: Mapping[str, float]) -> Dict[str, float]:
    """Summarise quad-tree construction from a counter dump.

    Takes the dictionary of :meth:`repro.stats.CostCounters.as_dict` and
    derives the build-side headline numbers that PERFORMANCE.md's
    construction section tracks:

    ``halfspaces_inserted`` / ``nodes_created`` / ``splits_performed``
        Construction volume — inputs, materialised nodes and split events
        (the tree splits on demand, so the last two count only the leaves
        the scan reached).
    ``nodes_per_halfspace``
        Tree blow-up factor; the quantity the cost-model split policy is
        designed to keep flat as dimensionality grows.
    ``build_wall_fraction``
        ``time_quadtree_build / (build + skyline + within_leaf)`` — the
        share of the tracked wall clock spent constructing the tree, 0.0
        when the dump carries no timers (e.g. merged worker counters).
    """
    inserted = float(counters.get("halfspaces_inserted", 0))
    build = float(counters.get("time_quadtree_build", 0.0))
    tracked = (
        build
        + float(counters.get("time_skyline", 0.0))
        + float(counters.get("time_within_leaf", 0.0))
    )
    return {
        "halfspaces_inserted": inserted,
        "nodes_created": float(counters.get("nodes_created", 0)),
        "splits_performed": float(counters.get("splits_performed", 0)),
        "nodes_per_halfspace": (
            float(counters.get("nodes_created", 0)) / inserted if inserted else 0.0
        ),
        "build_wall_fraction": build / tracked if tracked > 0.0 else 0.0,
    }


def format_construction_summary(
    counters: Mapping[str, float], *, title: Optional[str] = None
) -> str:
    """Render :func:`construction_summary` as a one-row aligned table."""
    return format_table([construction_summary(counters)], title=title)


def print_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
                *, title: Optional[str] = None) -> None:
    """Print :func:`format_table` output."""
    print(format_table(rows, columns, title=title))


def print_series(x_label: str, x_values: Sequence[object],
                 series: Mapping[str, Sequence[float]], *, title: Optional[str] = None) -> None:
    """Print :func:`format_series` output."""
    print(format_series(x_label, x_values, series, title=title))
