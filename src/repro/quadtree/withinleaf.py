"""Within-leaf processing (paper, Section 5.2).

Inside one quad-tree leaf, the half-spaces of the leaf's partial-overlap set
``P_l`` define a constrained arrangement.  Every cell of that arrangement is
identified by a bit-string over ``P_l``: bit ``i`` is 1 when the cell lies
inside the ``i``-th half-space and 0 when it lies in its complement.  The
cell's *p-order* is the Hamming weight of its bit-string; its (global) order
is the p-order plus ``|F_l|``.

The module enumerates bit-strings in increasing Hamming weight and tests
each candidate cell for a non-empty interior (intersection of the selected
half-spaces / complements, the leaf box and the permissible-simplex
constraints).  The first weight at which a non-empty cell appears is the
minimum p-order of the leaf; all non-empty cells of that weight (plus up to
``extra`` additional weights, for iMaxRank) are reported.

Candidate generation is *prefix-pruned*: instead of enumerating all
``C(m, w)`` bit-strings of one Hamming weight and filtering them afterwards,
a depth-first search walks index prefixes of the sign vector and never
extends a partial assignment that is already provably empty — because it
matches a forbidden pairwise bit combination (consulted through per-position
conflict bitmasks) or because some fixed-orientation row is unsatisfiable
anywhere in the leaf box (the per-row corner-extreme bound).  Cutting a
branch skips the entire subtree of candidates below it, so the number of
bit-strings ever materialised tracks the *feasible frontier* of the
arrangement rather than the combinatorial total (``prefixes_cut`` and
``candidates_generated`` in :class:`repro.stats.CostCounters` record both
sides).  A leaf with no pruning structure runs the same DFS with no masks,
which emits exactly the ``itertools.combinations`` sequence.

Surviving candidates are emitted as chunked sign matrices into the batched
screen→LP funnel (:func:`repro.geometry.lp.screen_cells_batch`), unchanged
from before: a vectorised reject screen kills rows unsatisfiable anywhere in
the leaf, a panel of probe points (leaf centre, perturbed corners, witness
points found earlier — including those inherited from a previous processor
of the same leaf via ``seed_probes``) certifies non-empty cells by
sign-pattern matching, and only the cells resolved by neither screen fall
through to a per-cell Seidel LP.  The screens use a safety margin above the
LP's feasibility radius, so the decisions are identical to running the LP on
every cell.

Two optimisations from the paper are implemented on top:

* **pairwise binary constraints** — pairs of half-spaces that are disjoint,
  nested or jointly covering within the leaf forbid certain bit
  combinations; violating bit-strings are never generated.  The pair
  analysis is LP-free: each two-constraint feasibility over the leaf box is
  solved in closed form by a vectorised fractional-knapsack maximisation,
  for all pairs and orientations at once (instead of the former four LPs
  per pair);
* a **polygon-clipping screen** for the 2-dimensional reduced query space
  (data dimensionality 3): an empty clip rejects and a centroid clear of
  every constraint accepts, so only thin slivers reach the LP, whose
  inscribed-radius rule stays the one emptiness rule.

AA re-scans reuse per-leaf state across iterations: a grown leaf's
replacement processor inherits the previous processor's witness probes, its
pairwise conflict masks (the leaf box is unchanged and the old partial set
is a prefix of the new one, so old pair verdicts stay valid verbatim) and
its surviving-prefix frontier (the generation survivors per weight), so
re-enumeration only explores extensions of previously surviving prefixes by
the newly arrived half-spaces.  See :class:`LeafReuseState`.

Planar sweep (``d = 3`` fast path)
----------------------------------
When the reduced space is a plane and ``use_planar`` is set, candidate
generation is replaced wholesale: one incremental
:class:`~repro.geometry.planar.PlanarArrangement` over
``leaf box ∩ simplex`` is built per leaf (``O(m²)`` face splits instead of
``C(m, w)`` clip sequences per weight) and every requested weight reads its
candidates straight off the faces' cover bitsets.  Each candidate is still
resolved by the *same* pairwise filter and the *same* cell test as the
generic path, so the discovered cells — bit-strings, witnesses,
``nonempty_cells`` accounting — are bit-identical; only the volume of
candidates examined shrinks.  AA re-scans retain the arrangement through
:class:`LeafReuseState` and insert only the newly arrived half-planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import would be cyclic at runtime
    from ..engine.deadline import Deadline

import numpy as np

from ..geometry.clipping import MIN_AREA, box_polygon, clip_polygon, polygon_area, polygon_centroid
from ..geometry.halfspace import Halfspace, reduced_space_constraints
from ..geometry.lp import (
    ACCEPT_MARGIN_FACTOR,
    MIN_INTERIOR_RADIUS,
    box_row_extremes,
    find_interior_point_arrays,
    screen_cells_batch,
)
from ..geometry.planar import PlanarArrangement
from ..stats import CostCounters

__all__ = ["LeafCell", "LeafReuseState", "WithinLeafProcessor", "PairwiseConstraints"]

#: Cap on the number of probe points a processor keeps (centre + corners +
#: inherited seeds + accumulated LP witnesses).
_MAX_PROBES = 192

#: Cap on the number of surviving candidates memoised per weight for the
#: incremental-rescan frontier; beyond it the frontier is dropped (a rescan
#: then falls back to a full DFS for that weight).
_FRONTIER_CAP = 16384

#: Planar-sweep dispatch thresholds (``d = 3`` fast path): the arrangement
#: is built for a ``(leaf, weight)`` probe only when ``weight >=
#: _PLANAR_MIN_WEIGHT`` and ``|P_l| >= _PLANAR_MIN_PARTIAL``.  At weights 0
#: and 1 candidate enumeration is linear in ``|P_l|`` and the per-candidate
#: clipping test is cheaper than an arrangement build; from weight 2 on the
#: ``C(m, w)`` volume takes off while the build stays ``O(m²)``.  The rule
#: depends only on ``(weight, |P_l|)``, so serial and task-mode runs make
#: identical decisions.
_PLANAR_MIN_WEIGHT = 2
_PLANAR_MIN_PARTIAL = 8


@dataclass(frozen=True)
class LeafCell:
    """A non-empty cell found inside a quad-tree leaf.

    Attributes
    ----------
    bits:
        0/1 flags aligned with the processor's partial half-space ids.
    inside_ids:
        Ids of the partial half-spaces containing the cell (bit = 1).
    p_order:
        Hamming weight of ``bits``.
    interior_point:
        Witness point strictly inside the cell (reduced query space).
    """

    bits: Tuple[int, ...]
    inside_ids: Tuple[int, ...]
    p_order: int
    interior_point: np.ndarray


def _pair_combo_feasible(
    u: np.ndarray,
    c: np.ndarray,
    v: np.ndarray,
    d: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Vectorised exact feasibility of two linear constraints over a box.

    For every row ``r`` decides whether ``{x ∈ [lower, upper] :
    u_r · x ≥ c_r and v_r · x > d_r}`` is non-empty, by solving the LP
    ``max v_r · x  s.t.  u_r · x ≥ c_r`` in closed form: start from the
    ``v``-optimal box corner and, if it violates the ``u`` constraint, buy
    back the deficit coordinate-by-coordinate in increasing order of the
    exchange rate ``|v_k| / u-gain`` — the fractional-knapsack structure of a
    single-constraint LP over a box.  All rows are processed at once with a
    per-row ``argsort`` over the (at most 7) coordinates.
    """
    x_star = np.where(v > 0, upper, lower)
    other = np.where(v > 0, lower, upper)
    v_at = np.einsum("rk,rk->r", v, x_star)
    u_at = np.einsum("rk,rk->r", u, x_star)
    need = np.maximum(c - u_at, 0.0)
    gain = np.maximum(u * (other - x_star), 0.0)
    movable = gain > 0
    loss = np.where(movable, np.abs(v) * (upper - lower), 0.0)
    rate = np.where(movable, loss / np.where(movable, gain, 1.0), np.inf)
    order = np.argsort(rate, axis=1)
    gain_sorted = np.take_along_axis(gain, order, axis=1)
    loss_sorted = np.take_along_axis(loss, order, axis=1)
    cum_gain = np.cumsum(gain_sorted, axis=1)
    total_gain = cum_gain[:, -1]
    prev_cum = np.concatenate(
        [np.zeros((gain.shape[0], 1)), cum_gain[:, :-1]], axis=1
    )
    fraction = np.clip(
        (need[:, None] - prev_cum) / np.where(gain_sorted > 0, gain_sorted, 1.0),
        0.0,
        1.0,
    )
    fraction = np.where(gain_sorted > 0, fraction, 0.0)
    best_v = v_at - (loss_sorted * fraction).sum(axis=1)
    return (total_gain >= need) & (best_v > d)


class PairwiseConstraints:
    """Forbidden bit combinations between pairs of partial half-spaces.

    For every pair ``(i, j)`` the four bit combinations are tested for
    feasibility within the leaf box; infeasible combinations become forbidden
    patterns consulted before any full feasibility test.  This subsumes the
    paper's three containment statuses (disjoint / nested / covering) and is
    also sound when the two supporting hyperplanes do intersect inside the
    leaf (in which case all four combinations are feasible and nothing is
    forbidden).

    The analysis is LP-free: a two-constraint system over a box reduces to a
    closed-form fractional-knapsack maximisation
    (:func:`_pair_combo_feasible`), evaluated for all pairs and all four
    orientations in a handful of array operations.  The test relaxes the
    permissible-simplex cut (it considers the box alone), so it forbids a
    subset of what an exact LP with the base constraints would — pruning
    stays sound, it just occasionally lets a doomed candidate through to the
    cell screens.

    The forbidden patterns double as per-position *conflict bitmasks*
    (:meth:`conflict_masks`) consumed by the prefix-pruned DFS candidate
    generator, and the analysis is *incremental*: when a leaf's partial set
    grows during AA (the old id list is a prefix of the new one and the leaf
    box is unchanged), :meth:`build` with ``reuse=`` copies every old pair
    verdict verbatim and only analyses pairs involving the new half-spaces.
    """

    def __init__(self) -> None:
        self._forbidden: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        #: identity of the analysed configuration, for safe incremental reuse
        self._ids: Tuple[int, ...] = ()
        self._lower: Optional[np.ndarray] = None
        self._upper: Optional[np.ndarray] = None
        self._masks: Optional[Tuple[list, list]] = None
        self._masks_m = -1
        #: number of leading positions whose pair verdicts were copied from a
        #: reused analysis (0 when built from scratch)
        self._reused_prefix_len = 0

    @classmethod
    def build(
        cls,
        halfspaces: Sequence[Tuple[int, Halfspace]],
        lower: np.ndarray,
        upper: np.ndarray,
        base_constraints: Sequence[Halfspace] = (),
        *,
        counters: Optional[CostCounters] = None,
        reuse: Optional["PairwiseConstraints"] = None,
    ) -> "PairwiseConstraints":
        """Analyse every pair of partial half-spaces within the leaf box.

        ``reuse`` may carry the constraints of a previous processor of the
        same leaf; when its id list is a prefix of the current one and the
        box is identical, its pair verdicts are copied and only the pairs
        involving newly arrived half-spaces are analysed.
        """
        constraints = cls()
        m = len(halfspaces)
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        constraints._ids = tuple(hid for hid, _ in halfspaces)
        constraints._lower = lower
        constraints._upper = upper
        if m < 2:
            return constraints
        start = 0
        if (
            reuse is not None
            and reuse._lower is not None
            and len(reuse._ids) <= m
            and reuse._ids == constraints._ids[: len(reuse._ids)]
            and np.array_equal(reuse._lower, lower)
            and np.array_equal(reuse._upper, upper)
        ):
            constraints._forbidden.update(reuse._forbidden)
            start = len(reuse._ids)
            constraints._reused_prefix_len = start
        if start >= m:
            return constraints
        A = np.vstack([h.coefficients for _, h in halfspaces])
        b = np.array([h.offset for _, h in halfspaces], dtype=float)
        norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        norms = np.where(norms > 0, norms, 1.0)
        #: right-hand sides including the inscribed-radius margin, per
        #: orientation: sign s turns ``a · x > b`` into ``(s a) · x > s b``.
        margin = MIN_INTERIOR_RADIUS * norms

        # Pairs not yet covered by the reused verdicts: those whose larger
        # index falls in the newly arrived suffix.
        pair_idx = np.array(
            [(i, j) for j in range(max(start, 1), m) for i in range(j)],
            dtype=np.intp,
        )
        i_idx, j_idx = pair_idx[:, 0], pair_idx[:, 1]
        results = {}
        for bit_i in (0, 1):
            s_i = 1.0 if bit_i else -1.0
            u = s_i * A[i_idx]
            c = s_i * b[i_idx] + margin[i_idx]
            for bit_j in (0, 1):
                s_j = 1.0 if bit_j else -1.0
                v = s_j * A[j_idx]
                d = s_j * b[j_idx] + margin[j_idx]
                results[(bit_i, bit_j)] = _pair_combo_feasible(
                    u, c, v, d, lower, upper
                )
        for row, (pos_i, pos_j) in enumerate(pair_idx):
            forbidden = {
                combo
                for combo, feasible in results.items()
                if not feasible[row]
            }
            if forbidden:
                constraints._forbidden[(int(pos_i), int(pos_j))] = forbidden
        return constraints

    def violates(self, bits: Sequence[int]) -> bool:
        """True when ``bits`` matches a forbidden combination for some pair."""
        for (pos_i, pos_j), forbidden in self._forbidden.items():
            if (bits[pos_i], bits[pos_j]) in forbidden:
                return True
        return False

    def violation_mask(self, bit_matrix: np.ndarray) -> np.ndarray:
        """Boolean mask over the rows of ``bit_matrix`` violating some pair."""
        mask = np.zeros(bit_matrix.shape[0], dtype=bool)
        for (pos_i, pos_j), forbidden in self._forbidden.items():
            col_i = bit_matrix[:, pos_i]
            col_j = bit_matrix[:, pos_j]
            for bit_i, bit_j in forbidden:
                mask |= (col_i == bit_i) & (col_j == bit_j)
        return mask

    def conflict_masks(self, m: int) -> Tuple[list, list]:
        """Per-position conflict bitmasks for the prefix-pruned DFS.

        Returns ``(one_masks, zero_masks)``, each a list with one
        ``[mask_for_bit0, mask_for_bit1]`` entry per position ``p``:
        ``one_masks[p][v]`` has bit ``q`` set when assigning bit ``v`` at
        position ``p`` conflicts with an earlier position ``q < p`` that was
        assigned 1 (the pair ``(q, p)`` forbids the combination ``(1, v)``);
        ``zero_masks[p][v]`` covers earlier positions assigned 0.  The DFS
        tests a partial assignment with two bitwise ANDs per extension.
        """
        if self._masks is None or self._masks_m != m:
            one_masks = [[0, 0] for _ in range(m)]
            zero_masks = [[0, 0] for _ in range(m)]
            for (pos_i, pos_j), forbidden in self._forbidden.items():
                bit_i_mask = 1 << pos_i
                for bit_i, bit_j in forbidden:
                    if bit_i:
                        one_masks[pos_j][bit_j] |= bit_i_mask
                    else:
                        zero_masks[pos_j][bit_j] |= bit_i_mask
            self._masks = (one_masks, zero_masks)
            self._masks_m = m
        return self._masks

    def __len__(self) -> int:
        return len(self._forbidden)


@dataclass(frozen=True)
class LeafReuseState:
    """Cached within-leaf state handed across AA re-scans of a grown leaf.

    Attributes
    ----------
    partial_ids:
        Half-space ids of the partial set the state was computed for; reuse
        requires them to be a prefix of the new processor's partial ids.
    pairwise:
        The previous processor's pairwise analysis (None when it was never
        built); old pair verdicts are copied verbatim and only new pairs are
        analysed.
    frontier:
        Per-weight tuples of surviving candidate combinations (the
        generation survivors, before the screens) over ``partial_ids``
        positions, or ``None`` for weights whose survivor set overflowed
        :data:`_FRONTIER_CAP`.  Re-enumeration at a weight extends these
        prefixes by the new positions only, instead of re-walking the whole
        assignment tree.
    planar:
        The previous processor's planar arrangement (``d = 3`` fast path
        only; ``None`` otherwise).  When its line ids are a prefix of the
        new processor's partial ids, the replacement processor copies the
        retained arrangement and inserts only the newly arrived half-planes
        instead of rebuilding from scratch.
    """

    partial_ids: Tuple[int, ...]
    pairwise: Optional[PairwiseConstraints]
    frontier: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]]
    planar: Optional[PlanarArrangement] = None


class WithinLeafProcessor:
    """Enumerates the minimum-order cells inside one quad-tree leaf.

    This is the within-leaf module of the paper's Section 5.2: candidate
    bit-strings over the leaf's partial set are generated in increasing
    Hamming weight by a prefix-pruned DFS and resolved through the batched
    screen→LP funnel; the smallest weight with a non-empty cell is the
    leaf's minimum p-order.

    Parameters
    ----------
    lower, upper:
        Leaf extent in the reduced query space.
    partial:
        ``(halfspace_id, halfspace)`` pairs of the leaf's partial-overlap set.
    use_pairwise:
        Enable the pairwise-constraint pruning (ablation A1 switches this
        off).  The analysis is only performed when the partial set is large
        enough for it to pay off.
    pairwise_min_size:
        Minimum ``|P_l|`` at which the pairwise analysis is carried out.
    counters:
        Optional cost counters (candidates generated, prefixes cut, cells
        examined, LP calls, screen hits).
    seed_probes:
        Witness points inherited from a previous processor of the same leaf
        (AA re-scans after the partial set grew); they are added to the
        accept-screen probe panel, so cells already discovered in an earlier
        iteration are re-certified without any LP.
    seed_state:
        :class:`LeafReuseState` of the previous processor of the same leaf;
        when its partial ids are a prefix of this processor's, the pairwise
        conflict masks are extended instead of recomputed and candidate
        generation resumes from the cached surviving-prefix frontier.
    track_frontier:
        Memoise the generation survivors per weight so :meth:`reuse_state`
        can hand them to a replacement processor.  Off by default — only a
        caller that actually caches processors across re-scans (AA's
        ``collect_cells`` with a cache) should pay the bookkeeping.
    pairwise:
        A previously built :class:`PairwiseConstraints` for *exactly* this
        partial-id list and leaf box, adopted verbatim instead of being
        rebuilt.  Used by the execution engine when a leaf's processor is
        reconstructed per :class:`~repro.engine.tasks.LeafTask` (each weight
        runs in a fresh — possibly remote — processor, but the pair analysis
        is deterministic, so shipping it skips the recomputation without
        changing any decision).  Ignored when the id list does not match.
    use_planar:
        Enable the planar-arrangement sweep for the 2-dimensional reduced
        space (data dimensionality 3): candidates come from the faces of
        one incremental line arrangement instead of the ``C(m, w)``
        enumeration.  Ignored for other dimensionalities.  Cell discovery
        stays bit-identical to the generic path — every candidate passes the
        same pairwise filter and cell test.
    planar:
        A previously built :class:`~repro.geometry.planar.PlanarArrangement`
        for *exactly* this partial-id list and leaf box, adopted verbatim
        (the planar analogue of ``pairwise``, shipped by the execution
        engine).  Ignored when the line-id list does not match.
    """

    def __init__(
        self,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
        partial: Sequence[Tuple[int, Halfspace]],
        *,
        use_pairwise: bool = True,
        pairwise_min_size: int = 6,
        counters: Optional[CostCounters] = None,
        seed_probes: Optional[Sequence[np.ndarray]] = None,
        seed_state: Optional[LeafReuseState] = None,
        track_frontier: bool = False,
        pairwise: Optional[PairwiseConstraints] = None,
        use_planar: bool = False,
        planar: Optional[PlanarArrangement] = None,
        deadline: Optional["Deadline"] = None,
    ) -> None:
        self.lower = np.asarray(lower, dtype=float).ravel()
        self.upper = np.asarray(upper, dtype=float).ravel()
        self.partial = list(partial)
        self.dim = self.lower.shape[0]
        self.counters = counters
        #: cooperative wall-clock budget (None → every checkpoint is free)
        self._deadline = deadline
        self._base = reduced_space_constraints(self.dim)
        # Pre-stacked coefficient arrays: the feasibility tests flip the signs
        # of individual rows per bit-string instead of rebuilding half-space
        # objects, which keeps the per-cell cost to a few vector operations.
        self._base_A = np.vstack([h.coefficients for h in self._base])
        self._base_b = np.array([h.offset for h in self._base], dtype=float)
        if self.partial:
            self._partial_A = np.vstack([h.coefficients for _, h in self.partial])
            self._partial_b = np.array([h.offset for _, h in self.partial], dtype=float)
            norms = np.sqrt(np.einsum("ij,ij->i", self._partial_A, self._partial_A))
            self._partial_norms = np.where(norms > 0, norms, 1.0)
        else:
            self._partial_A = np.zeros((0, self.dim))
            self._partial_b = np.zeros(0)
            self._partial_norms = np.ones(0)
        # Per-row corner-extreme orientation bounds: a row whose oriented
        # half-space is unsatisfiable anywhere in the leaf box proves every
        # partial assignment fixing that orientation empty, so the DFS never
        # expands it.  Mirrors the batch reject screen's margin exactly.
        if self.partial:
            row_min, row_max = box_row_extremes(self._partial_A, self.lower, self.upper)
            row_margin = MIN_INTERIOR_RADIUS * self._partial_norms
            self._row_allowed = (
                (row_min < self._partial_b - row_margin).tolist(),
                (row_max > self._partial_b + row_margin).tolist(),
            )
        else:
            self._row_allowed = ([], [])
        #: generation survivors per weight (the surviving-prefix frontier
        #: inherited by the replacement processor on AA re-scans)
        self._track_frontier = bool(track_frontier)
        self._frontier: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]] = {}
        self._seed_frontier: Optional[
            Tuple[int, Dict[int, Optional[Tuple[Tuple[int, ...], ...]]]]
        ] = None
        self._use_planar = bool(use_planar) and self.dim == 2
        self._planar: Optional[PlanarArrangement] = None
        self._planar_shipped = planar
        self._planar_seed: Optional[PlanarArrangement] = None
        self._planar_weights: Optional[Dict[int, List[Tuple[int, ...]]]] = None
        reuse_pairwise: Optional[PairwiseConstraints] = None
        if seed_state is not None:
            ids = tuple(hid for hid, _ in self.partial)
            old_m = len(seed_state.partial_ids)
            if old_m <= len(ids) and seed_state.partial_ids == ids[:old_m]:
                reuse_pairwise = seed_state.pairwise
                if seed_state.frontier:
                    self._seed_frontier = (old_m, seed_state.frontier)
                self._planar_seed = seed_state.planar
        if self.dim == 2:
            self._oriented = [
                (halfspace, halfspace.complement()) for _, halfspace in self.partial
            ]
        # Probe panel: leaf centre first (mirrors the solver's quick accept),
        # then inward-shrunk corners, then inherited witness points.
        self._probe_points: List[np.ndarray] = list(self._default_probes())
        if seed_probes:
            for point in seed_probes:
                if len(self._probe_points) >= _MAX_PROBES:
                    break
                self._probe_points.append(np.asarray(point, dtype=float))
        self._seed_count = len(self._probe_points)
        self._probe_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._pairwise: Optional[PairwiseConstraints] = None
        if use_pairwise and len(self.partial) >= pairwise_min_size:
            ids = tuple(hid for hid, _ in self.partial)
            if (
                pairwise is not None
                and pairwise._ids == ids
                and pairwise._lower is not None
                and np.array_equal(pairwise._lower, self.lower)
                and np.array_equal(pairwise._upper, self.upper)
            ):
                self._pairwise = pairwise
            else:
                self._pairwise = PairwiseConstraints.build(
                    self.partial, self.lower, self.upper, self._base,
                    counters=counters, reuse=reuse_pairwise,
                )

    def reuse_state(self) -> LeafReuseState:
        """Snapshot of the reusable per-leaf state for a replacement processor.

        Handed to the replacement processor (via ``seed_state``) when the
        leaf's partial set grows between AA iterations; see
        :class:`LeafReuseState`.
        """
        return LeafReuseState(
            partial_ids=tuple(hid for hid, _ in self.partial),
            pairwise=self._pairwise,
            frontier=dict(self._frontier),
            planar=self._planar,
        )

    @property
    def pairwise_constraints(self) -> Optional[PairwiseConstraints]:
        """The pair analysis in effect (None when disabled or not built)."""
        return self._pairwise

    @property
    def planar_arrangement(self) -> Optional[PlanarArrangement]:
        """The planar arrangement in effect (None when disabled or not built)."""
        return self._planar

    def frontier_entries(self) -> Dict[int, Optional[Tuple[Tuple[int, ...], ...]]]:
        """Generation survivors memoised so far, keyed by weight.

        Entries appear only when the processor was created with
        ``track_frontier=True``; a ``None`` value marks a weight whose
        survivor set overflowed :data:`_FRONTIER_CAP`.
        """
        return dict(self._frontier)

    # --------------------------------------------------------------- plumbing
    def _default_probes(self) -> List[np.ndarray]:
        """Deterministic spread of probe points inside the leaf box."""
        centre = (self.lower + self.upper) / 2.0
        points = [centre]
        extent = self.upper - self.lower
        if np.any(extent <= 0):
            return points
        # Two rings of corner probes: mildly shrunk ({1/4, 3/4} of the extent
        # per axis, covering the bulk of each orthant) and near-corner
        # ({1/20, 19/20}, capturing the extreme regions that certify pairwise
        # orientation combinations).  Beyond 5 dimensions take a
        # deterministic subset to bound the panel size.
        corner_count = min(2 ** self.dim, 32)
        axes = np.arange(self.dim)
        for corner in range(corner_count):
            bits = (corner >> axes) & 1
            points.append(self.lower + np.where(bits, 0.75, 0.25) * extent)
            points.append(self.lower + np.where(bits, 0.95, 0.05) * extent)
        return points

    def witness_probes(self) -> List[np.ndarray]:
        """Witness points accumulated beyond the deterministic panel.

        Used to seed the replacement processor when the leaf's partial set
        grows: the inherited witnesses remain interior points of cells of the
        refined arrangement.
        """
        return self._probe_points[self._seed_count:]

    def _add_probe(self, point: np.ndarray) -> None:
        if len(self._probe_points) >= _MAX_PROBES:
            return
        self._probe_points.append(point)
        self._probe_cache = None

    def _probe_panel(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(points, normalised margins, validity)`` of the panel.

        Margins are per partial row, normalised by the row norm so they
        compare directly against the inscribed-radius thresholds; validity
        requires clearance from the box walls and the base (simplex)
        constraints, mirroring the solver's quick-accept conditions.
        """
        if self._probe_cache is None:
            P = np.asarray(self._probe_points, dtype=float)
            threshold = ACCEPT_MARGIN_FACTOR * MIN_INTERIOR_RADIUS
            valid = np.minimum(P - self.lower, self.upper - P).min(axis=1) > threshold
            base_norms = np.sqrt(np.einsum("ij,ij->i", self._base_A, self._base_A))
            base_norms = np.where(base_norms > 0, base_norms, 1.0)
            base_margin = (self._base_A @ P.T - self._base_b[:, None]) / base_norms[:, None]
            valid &= (base_margin > threshold).all(axis=0)
            if self.partial:
                margins = (
                    self._partial_A @ P.T - self._partial_b[:, None]
                ) / self._partial_norms[:, None]
            else:
                margins = np.zeros((0, P.shape[0]))
            self._probe_cache = (P, margins, valid)
        return self._probe_cache

    def _bits_for(self, ones: Sequence[int]) -> Tuple[int, ...]:
        bits = [0] * len(self.partial)
        for position in ones:
            bits[position] = 1
        return tuple(bits)

    def _test_cell(self, bits: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Return an interior point of the cell, or None when it is empty."""
        if self.counters is not None:
            self.counters.cells_examined += 1
        if self.dim == 2:
            point = self._test_cell_clipping(bits)
        else:
            point = self._test_cell_lp(bits)
        if point is not None and self.counters is not None:
            self.counters.nonempty_cells += 1
        return point

    def _test_cell_lp(self, bits: Tuple[int, ...]) -> Optional[np.ndarray]:
        """LP-based feasibility using the pre-stacked constraint arrays."""
        if self.partial:
            signs = np.where(np.asarray(bits, dtype=bool), 1.0, -1.0)
            A = np.vstack([self._base_A, self._partial_A * signs[:, None]])
            b = np.concatenate([self._base_b, self._partial_b * signs])
        else:
            A, b = self._base_A, self._base_b
        result = find_interior_point_arrays(
            A, b, self.lower, self.upper, counters=self.counters
        )
        return result.point if result.feasible else None

    def _test_cell_clipping(self, bits: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Feasibility in the 2-D reduced space: clipping screens the LP.

        The LP's inscribed-radius rule is the one emptiness rule (the same
        one :class:`~repro.geometry.polytope.ConvexPolytope` applies to the
        reported regions); clipping only screens it.  An empty clip rejects.
        A centroid that clears every oriented row, base row and box side by
        the accept-screen margin holds a ball wider than the LP's radius
        threshold, so it accepts with the centroid as witness.  Every other
        cell — a thin sliver can have area yet no inscribed radius — goes
        to the LP.
        """
        polygon = box_polygon(self.lower, self.upper)
        for constraint in self._base:
            polygon = clip_polygon(polygon, constraint)
            if polygon is None:
                return None
        for (inside, outside), bit in zip(self._oriented, bits):
            polygon = clip_polygon(polygon, inside if bit else outside)
            if polygon is None:
                return None
        if polygon_area(polygon) > MIN_AREA:
            centroid = polygon_centroid(polygon)
            threshold = ACCEPT_MARGIN_FACTOR * MIN_INTERIOR_RADIUS
            signs = np.where(np.asarray(bits, dtype=bool), 1.0, -1.0)
            row_margins = signs * (
                self._partial_A @ centroid - self._partial_b
            ) / self._partial_norms
            base_margins = (self._base_A @ centroid - self._base_b) / np.linalg.norm(
                self._base_A, axis=1
            )
            if (
                min((centroid - self.lower).min(), (self.upper - centroid).min()) > threshold
                and (base_margins > threshold).all()
                and (row_margins > threshold).all()
            ):
                return centroid
        return self._test_cell_lp(bits)

    # ------------------------------------------------------------ enumeration
    #: Candidates processed per vectorised batch; bounds the bit-matrix
    #: memory when the surviving frontier of a weight runs into the millions.
    _CHUNK = 32768

    def _dfs_chunks(self, weight: int, init_states: Optional[list] = None):
        """Prefix-pruned DFS over sign-vector index prefixes.

        Walks positions ``0 .. m-1`` assigning one bit per step; a branch is
        cut (``prefixes_cut``) as soon as the partial assignment matches a
        forbidden pairwise combination (two bitmask ANDs against the
        conflict masks) or fixes a row orientation that is unsatisfiable
        anywhere in the leaf box — the subtree of candidates below the cut
        is never materialised.  Surviving complete assignments are emitted
        as chunks of one-position tuples, in the same lexicographic order as
        ``itertools.combinations`` (the 1-branch is explored first).

        ``init_states`` optionally resumes the walk from mid-tree states
        ``(pos, ones_count, ones_mask, zeros_mask, ones_tuple)`` — used by
        the frontier-seeded re-enumeration of grown leaves.
        """
        m = len(self.partial)
        allowed0, allowed1 = self._row_allowed
        if self._pairwise is not None and len(self._pairwise):
            one_masks, zero_masks = self._pairwise.conflict_masks(m)
        else:
            one_masks = zero_masks = None
        counters = self.counters
        cuts = 0
        out: List[Tuple[int, ...]] = []
        if init_states is None:
            init_states = [(0, 0, 0, 0, ())]
        # LIFO stack; within one expansion the 0-branch is pushed first so
        # the 1-branch is popped (and therefore emitted) first.
        stack = list(reversed(init_states))
        while stack:
            pos, count, ones_mask, zeros_mask, ones = stack.pop()
            if count == weight:
                # Tail of forced zeros: validate the remaining positions in
                # place instead of pushing one stack frame per position.
                valid = True
                while pos < m:
                    if not allowed0[pos]:
                        valid = False
                        break
                    if zero_masks is not None and (
                        (ones_mask & one_masks[pos][0])
                        or (zeros_mask & zero_masks[pos][0])
                    ):
                        valid = False
                        break
                    zeros_mask |= 1 << pos
                    pos += 1
                if valid:
                    out.append(ones)
                    if len(out) >= self._CHUNK:
                        yield out
                        out = []
                else:
                    cuts += 1
                continue
            if weight - count == m - pos:
                # Tail of forced ones.
                valid = True
                while pos < m:
                    if not allowed1[pos]:
                        valid = False
                        break
                    if one_masks is not None and (
                        (ones_mask & one_masks[pos][1])
                        or (zeros_mask & zero_masks[pos][1])
                    ):
                        valid = False
                        break
                    ones_mask |= 1 << pos
                    ones = ones + (pos,)
                    pos += 1
                if valid:
                    out.append(ones)
                    if len(out) >= self._CHUNK:
                        yield out
                        out = []
                else:
                    cuts += 1
                continue
            bit = 1 << pos
            # 0-branch (affordable here because weight - count < m - pos).
            if allowed0[pos] and not (
                zero_masks is not None
                and (
                    (ones_mask & one_masks[pos][0])
                    or (zeros_mask & zero_masks[pos][0])
                )
            ):
                stack.append((pos + 1, count, ones_mask, zeros_mask | bit, ones))
            else:
                cuts += 1
            # 1-branch (count < weight is implied by the tail check above).
            if allowed1[pos] and not (
                one_masks is not None
                and (
                    (ones_mask & one_masks[pos][1])
                    or (zeros_mask & zero_masks[pos][1])
                )
            ):
                stack.append(
                    (pos + 1, count + 1, ones_mask | bit, zeros_mask, ones + (pos,))
                )
            else:
                cuts += 1
        if counters is not None:
            counters.prefixes_cut += cuts
        if out:
            yield out

    def _frontier_states(self, weight: int) -> Optional[list]:
        """DFS start states resuming from the inherited surviving frontier.

        A candidate of weight ``w`` over ``m`` positions restricts, on the
        previous processor's ``old_m`` positions, to a surviving assignment
        of some weight ``w'' ∈ [w - (m - old_m), w]``; conflict masks for
        old pairs are unchanged, so exactly the cached frontier assignments
        can prefix a new candidate.  Each cached assignment is re-validated
        against the (possibly richer) current masks and becomes a DFS start
        state at position ``old_m``.  Returns ``None`` when any required
        frontier weight is missing or overflowed — the caller then falls
        back to the full DFS.
        """
        if self._seed_frontier is None:
            return None
        old_m, frontier = self._seed_frontier
        m = len(self.partial)
        lowest = max(0, weight - (m - old_m))
        highest = min(weight, old_m)
        if lowest > highest:
            return []
        needed = range(lowest, highest + 1)
        for w2 in needed:
            if frontier.get(w2) is None:
                return None
        allowed0, allowed1 = self._row_allowed
        if self._pairwise is not None and len(self._pairwise):
            one_masks, zero_masks = self._pairwise.conflict_masks(m)
        else:
            one_masks = zero_masks = None
        # The cached combos already passed the previous processor's checks.
        # Row bounds over the old positions are identical by construction
        # (same box, prefix rows), and when the pair verdicts for the old
        # prefix were copied verbatim the mask checks are identical too — the
        # replay below can then never fail and is skipped.
        trusted = one_masks is None or (
            self._pairwise is not None
            and self._pairwise._reused_prefix_len >= old_m
        )
        states = []
        if trusted:
            prefix_mask = (1 << old_m) - 1
            for w2 in needed:
                for combo in frontier[w2]:
                    ones_mask = 0
                    for pos in combo:
                        ones_mask |= 1 << pos
                    states.append(
                        (old_m, len(combo), ones_mask, prefix_mask ^ ones_mask, combo)
                    )
            return states
        for w2 in needed:
            for combo in frontier[w2]:
                ones_mask = 0
                zeros_mask = 0
                next_one = 0
                valid = True
                for pos in range(old_m):
                    if next_one < len(combo) and combo[next_one] == pos:
                        value = 1
                        next_one += 1
                    else:
                        value = 0
                    if not (allowed1[pos] if value else allowed0[pos]):
                        valid = False
                        break
                    if one_masks is not None and (
                        (ones_mask & one_masks[pos][value])
                        or (zeros_mask & zero_masks[pos][value])
                    ):
                        valid = False
                        break
                    if value:
                        ones_mask |= 1 << pos
                    else:
                        zeros_mask |= 1 << pos
                if valid:
                    states.append((old_m, len(combo), ones_mask, zeros_mask, combo))
        return states

    def _candidate_chunks(self, weight: int):
        """Chunks of surviving candidate combinations at one weight.

        Dispatches between the frontier-seeded DFS (grown leaf on an AA
        re-scan) and the full prefix-pruned DFS.
        """
        states = self._frontier_states(weight)
        if states is not None:
            yield from self._dfs_chunks(weight, init_states=states)
            return
        yield from self._dfs_chunks(weight)

    # ----------------------------------------------------------- planar sweep
    def _ensure_planar(self) -> None:
        """Build (or adopt, or extend) the leaf's planar arrangement once.

        Resolution order mirrors the pairwise analysis: an arrangement
        shipped for exactly this configuration is adopted verbatim (no
        cost counted — it was counted where it was built); a retained
        arrangement whose line ids form a prefix of the current partial ids
        is copied and extended by the new half-planes only; otherwise the
        arrangement is built from scratch.  ``lines_inserted`` and
        ``faces_enumerated`` are charged exactly once per build/extension,
        so serial and task-mode runs account identically.
        """
        if self._planar_weights is not None:
            return
        if self._deadline is not None:
            # Arrangement builds are the leaf's chunkiest single step; check
            # before committing to one.
            self._deadline.check(self.counters, "planar_build")
        ids = tuple(hid for hid, _ in self.partial)
        arrangement: Optional[PlanarArrangement] = None
        shipped = self._planar_shipped
        if (
            shipped is not None
            and shipped.line_ids == ids
            and shipped.matches_box(self.lower, self.upper)
        ):
            arrangement = shipped
        if arrangement is None:
            seed = self._planar_seed
            if (
                seed is not None
                and len(seed.line_ids) <= len(ids)
                and seed.line_ids == ids[: len(seed.line_ids)]
                and seed.matches_box(self.lower, self.upper)
            ):
                arrangement = seed.copy()
                arrangement.insert_many(
                    self.partial[len(seed.line_ids):], counters=self.counters
                )
            else:
                arrangement = PlanarArrangement.for_leaf(
                    self.lower, self.upper, self._base
                )
                arrangement.insert_many(self.partial, counters=self.counters)
            if self.counters is not None:
                self.counters.faces_enumerated += arrangement.face_count
        self._planar = arrangement
        self._planar_weights = arrangement.positions_by_weight()

    def _cells_at_weight_planar(self, weight: int) -> List[LeafCell]:
        """Read one weight's candidates off the planar arrangement's faces.

        Every candidate runs through the same pairwise filter and the same
        cell test (:meth:`_test_cell`) as the generic per-cell
        path — the arrangement only *discovers* which cover sets can be
        non-empty, so the emitted cells (and their witnesses) are
        bit-identical to the generic enumeration's.
        """
        self._ensure_planar()
        return self._cells_from_candidates(
            self._planar_weights.get(weight, ()), weight
        )

    def cells_at_weight(self, weight: int) -> List[LeafCell]:
        """All non-empty cells of Hamming weight exactly ``weight``.

        Surviving candidates stream from :meth:`_candidate_chunks` as
        chunked sign matrices into the screen→LP funnel
        (:func:`repro.geometry.lp.screen_cells_batch`); the funnel interface
        is unchanged from the enumerate-then-filter pipeline it replaced.
        With ``use_planar`` in the 2-D reduced space, candidates instead
        come from the faces of the leaf's planar arrangement
        (:meth:`_cells_at_weight_planar`).
        """
        m = len(self.partial)
        if (
            self.dim == 2
            and self._use_planar
            and weight >= _PLANAR_MIN_WEIGHT
            and m >= _PLANAR_MIN_PARTIAL
        ):
            if weight > m:
                return []
            return self._cells_at_weight_planar(weight)
        if m == 0 or self.dim == 2:
            return self._cells_at_weight_sequential(weight)
        if weight > m:
            return []
        cells: List[LeafCell] = []
        survivors: Optional[List[Tuple[int, ...]]] = [] if self._track_frontier else None
        for combos in self._candidate_chunks(weight):
            if self._deadline is not None:
                # Cancellation checkpoint: once per candidate chunk, i.e.
                # every few thousand candidates through the funnel.
                self._deadline.check(self.counters, "within_leaf_funnel")
            if survivors is not None:
                if len(survivors) + len(combos) <= _FRONTIER_CAP:
                    survivors.extend(combos)
                else:
                    survivors = None
            bit_matrix = np.zeros((len(combos), m), dtype=np.int8)
            if weight:
                rows = np.repeat(np.arange(len(combos)), weight)
                cols = np.fromiter(
                    chain.from_iterable(combos), dtype=np.intp, count=len(combos) * weight
                )
                bit_matrix[rows, cols] = 1
            if self.counters is not None:
                self.counters.candidates_generated += len(combos)
                self.counters.cells_examined += len(combos)
            signs = bit_matrix.astype(float) * 2.0 - 1.0
            probes, probe_margins, probe_valid = self._probe_panel()
            status, witnesses = screen_cells_batch(
                self._partial_A,
                self._partial_b,
                signs,
                self.lower,
                self.upper,
                base_A=self._base_A,
                base_b=self._base_b,
                probes=probes,
                probe_margins=probe_margins,
                probe_valid=probe_valid,
                counters=self.counters,
            )
            for row, ones in enumerate(combos):
                if status[row] < 0:
                    continue
                if status[row] > 0:
                    point = witnesses[row]
                else:
                    point = self._test_cell_lp(self._bits_for(ones))
                    if point is not None:
                        self._add_probe(point)
                if point is None:
                    continue
                if self.counters is not None:
                    self.counters.nonempty_cells += 1
                inside_ids = tuple(self.partial[pos][0] for pos in ones)
                cells.append(
                    LeafCell(
                        bits=self._bits_for(ones),
                        inside_ids=inside_ids,
                        p_order=weight,
                        interior_point=point,
                    )
                )
        if self._track_frontier:
            self._frontier[weight] = tuple(survivors) if survivors is not None else None
        return cells

    def _cells_at_weight_sequential(self, weight: int) -> List[LeafCell]:
        """Per-cell path: 2-D clipping and the empty-partial degenerate case."""
        return self._cells_from_candidates(
            combinations(range(len(self.partial)), weight), weight
        )

    def _cells_from_candidates(self, candidates, weight: int) -> List[LeafCell]:
        """Resolve candidate one-position tuples into non-empty cells.

        The single per-candidate pipeline — pairwise filter, exact
        emptiness test (:meth:`_test_cell`), :class:`LeafCell` construction
        and the associated counters — shared by the sequential enumeration
        and the planar sweep.  Keeping one loop is what guarantees the two
        engines decide (and account) each candidate identically.
        """
        cells: List[LeafCell] = []
        for index, ones in enumerate(candidates):
            if self._deadline is not None and index % 256 == 0:
                # Cancellation checkpoint for the per-candidate path (2-D
                # clipping, planar-face resolution): every 256 candidates.
                self._deadline.check(self.counters, "within_leaf_candidates")
            bits = self._bits_for(ones)
            if self._pairwise is not None and self._pairwise.violates(bits):
                if self.counters is not None:
                    self.counters.pairwise_pruned += 1
                continue
            if self.counters is not None:
                self.counters.candidates_generated += 1
            point = self._test_cell(bits)
            if point is None:
                continue
            inside_ids = tuple(self.partial[pos][0] for pos in ones)
            cells.append(
                LeafCell(bits=bits, inside_ids=inside_ids, p_order=weight,
                         interior_point=point)
            )
        return cells

    def minimal_cells(self, *, extra: int = 0, max_weight: Optional[int] = None
                      ) -> Tuple[Optional[int], List[LeafCell]]:
        """Find the minimum p-order and the cells attaining it.

        Parameters
        ----------
        extra:
            Additionally report cells with p-order up to ``minimum + extra``
            (iMaxRank processing examines bit-strings with Hamming weights up
            to ``τ`` units larger).
        max_weight:
            Stop searching beyond this weight even if nothing was found —
            callers use the global pruning bound here so a leaf that cannot
            improve the interim result is abandoned early.

        Returns
        -------
        (minimum p-order or None, cells)
            ``None`` when the leaf contains no non-empty cell within the
            explored weights (possible when the leaf lies outside the
            permissible simplex).
        """
        if not self.partial:
            point = self._test_cell(())
            if point is None:
                return None, []
            return 0, [LeafCell(bits=(), inside_ids=(), p_order=0, interior_point=point)]

        limit = len(self.partial) if max_weight is None else min(max_weight, len(self.partial))
        minimum: Optional[int] = None
        collected: List[LeafCell] = []
        weight = 0
        while weight <= limit:
            cells = self.cells_at_weight(weight)
            if cells:
                if minimum is None:
                    minimum = weight
                    limit = min(limit, weight + extra)
                collected.extend(cells)
            weight += 1
        return minimum, collected
