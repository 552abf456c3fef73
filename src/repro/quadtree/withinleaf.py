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

Between the screens and the LP sits the **core gate**.  An LP that finds a
cell empty also returns its *infeasibility core* — the few oriented rows
tight at the max-slack optimum (:class:`repro.geometry.lp.FeasibilityResult`)
— and the processor keeps it as a ``(ones_mask, zeros_mask)`` pair over
partial positions.  A later candidate that fixes every core row the same way
is empty too, so it is rejected with two bitwise ANDs per core instead of an
LP (``core_cuts``).  Cores generalise the pairwise verdicts below to any
number of rows, base (simplex) rows included, and they travel like witness
probes: to the next weight's processor (``seed_cores``) and to a grown
leaf's replacement processor (:class:`LeafReuseState`).

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
pairwise conflict masks and its infeasibility cores (the leaf box is
unchanged and the old partial set is a prefix of the new one, so old pair
verdicts and cores stay valid verbatim) and its surviving-prefix frontier
(the generation survivors per weight), so re-enumeration only explores
extensions of previously surviving prefixes by the newly arrived
half-spaces.  See :class:`LeafReuseState`.

State is built on first read
----------------------------
The execution engine runs one processor per ``(leaf, weight)`` task, and
most tasks are weight 0 with a single candidate (the all-zeros string), so
a processor builds each piece of its state only when something reads it.
The pair analysis is analysed one orientation at a time: a weight-0 walk
reads only the ``(0, 0)`` verdicts, and none at all when a row bound cuts
the all-zeros string or the inherited frontier leaves nothing to extend;
the first walk of a higher weight analyses the missing orientations in one
pass.  The analysis counts as *built* once all four orientations are in,
and only a built analysis is handed on — to the next weight's task
(:class:`~repro.engine.tasks.LeafTaskResult`) or to a grown leaf's
replacement processor.  The probe panel is materialised by the first batch
screen, the row bounds by the first walk and the clipping state by the
first 2-D cell test; the permissible-simplex rows are computed once per
dimensionality.  Every decision and counter is the one eager building
would give.

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
from functools import cached_property, lru_cache
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

#: Cap on the number of infeasibility cores a processor keeps (inherited,
#: shipped and learned, in that order); later cores are not learned.
_MAX_CORES = 256

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
    positive = v > 0
    x_star = np.where(positive, upper, lower)
    other = np.where(positive, lower, upper)
    v_at = np.einsum("rk,rk->r", v, x_star)
    u_at = np.einsum("rk,rk->r", u, x_star)
    need = np.maximum(c - u_at, 0.0)
    gain = np.maximum(u * (other - x_star), 0.0)
    movable = gain > 0
    loss = np.where(movable, np.abs(v) * (upper - lower), 0.0)
    rate = np.where(movable, loss / np.where(movable, gain, 1.0), np.inf)
    order = np.argsort(rate, axis=1)
    rows = np.arange(order.shape[0])[:, None]
    gain_sorted = gain[rows, order]
    loss_sorted = loss[rows, order]
    cum_gain = np.cumsum(gain_sorted, axis=1)
    prev_cum = np.zeros_like(cum_gain)
    prev_cum[:, 1:] = cum_gain[:, :-1]
    buying = gain_sorted > 0
    fraction = np.minimum(
        np.maximum((need[:, None] - prev_cum) / np.where(buying, gain_sorted, 1.0), 0.0),
        1.0,
    )
    fraction = np.where(buying, fraction, 0.0)
    best_v = v_at - (loss_sorted * fraction).sum(axis=1)
    return (cum_gain[:, -1] >= need) & (best_v > d)


@lru_cache(maxsize=None)
def _simplex_rows(
    dim: int,
) -> Tuple[Tuple[Halfspace, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The permissible-simplex (base) rows of one reduced dimensionality.

    ``(halfspaces, A, b, norms)``, computed once per dimensionality and
    shared read-only by every processor.
    """
    base = tuple(reduced_space_constraints(dim))
    A = np.vstack([h.coefficients for h in base])
    b = np.array([h.offset for h in base], dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    norms = np.where(norms > 0, norms, 1.0)
    for array in (A, b, norms):
        array.setflags(write=False)
    return base, A, b, norms


@lru_cache(maxsize=256)
def _pair_indices(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(j, i)`` index arrays of every pair ``i < j < m``, ordered by
    ``(j, i)`` (read-only, shared)."""
    j_idx, i_idx = np.tril_indices(m, -1)
    j_idx.setflags(write=False)
    i_idx.setflags(write=False)
    return j_idx, i_idx


#: The four bit combinations ``(bit_i, bit_j)`` of a pair ``i < j``.
_ORIENTATIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


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
    (:func:`_pair_combo_feasible`), evaluated for all pairs and every
    requested orientation in one call.  The test relaxes the
    permissible-simplex cut (it considers the box alone), so it forbids a
    subset of what an exact LP with the base constraints would — pruning
    stays sound, it just occasionally lets a doomed candidate through to the
    cell screens.

    The verdicts are kept as per-position *conflict bitmasks*, one list per
    orientation: ``masks(a, b)[p]`` has bit ``q`` set when the pair
    ``(q, p)``, ``q < p``, forbids ``bit_q = a`` together with ``bit_p = b``.
    The prefix-pruned DFS tests a partial assignment with two bitwise ANDs
    per extension.  Each orientation is analysed on first read: a weight-0
    walk reads only the ``(0, 0)`` masks, and :meth:`conflict_masks`
    analyses every orientation still missing in one pass.  The analysis is
    *built* (:attr:`built`) once all four are in; only then does it travel
    to other processors.

    The analysis is also *incremental*: when a leaf's partial set grows
    during AA (the old id list is a prefix of the new one and the leaf box
    is unchanged), a built ``reuse`` analysis contributes its masks for the
    old positions verbatim and only pairs involving the new half-spaces are
    analysed.

    The constructor takes the partial rows as arrays (ids, coefficients
    ``A``, offsets ``b``, row ``norms``) and analyses nothing;
    :meth:`build` takes ``(id, Halfspace)`` pairs and analyses every
    orientation up front.
    """

    def __init__(
        self,
        ids: Sequence[int],
        A: np.ndarray,
        b: np.ndarray,
        norms: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        *,
        reuse: Optional["PairwiseConstraints"] = None,
    ) -> None:
        #: identity of the analysed configuration, for safe incremental reuse
        self._ids: Tuple[int, ...] = tuple(ids)
        self._lower = lower
        self._upper = upper
        #: orientation -> per-position conflict bitmasks
        self._masks: Dict[Tuple[int, int], List[int]] = {}
        self._pair_count: Optional[int] = None
        #: number of leading positions whose masks come from a reused
        #: analysis (0 when built from scratch)
        self._reused_prefix_len = 0
        self._reused: Dict[Tuple[int, int], List[int]] = {}
        if (
            reuse is not None
            and reuse.built
            and len(reuse._ids) <= len(self._ids)
            and reuse._ids == self._ids[: len(reuse._ids)]
            and np.array_equal(reuse._lower, lower)
            and np.array_equal(reuse._upper, upper)
        ):
            self._reused_prefix_len = len(reuse._ids)
            self._reused = reuse._masks
        #: rows still to analyse: coefficients, offsets and the
        #: inscribed-radius margin; dropped once every orientation is in
        self._rows: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            A, b, MIN_INTERIOR_RADIUS * norms
        )

    @classmethod
    def build(
        cls,
        halfspaces: Sequence[Tuple[int, Halfspace]],
        lower: np.ndarray,
        upper: np.ndarray,
        *,
        reuse: Optional["PairwiseConstraints"] = None,
    ) -> "PairwiseConstraints":
        """Analyse every pair of partial half-spaces within the leaf box.

        ``reuse`` may carry the built constraints of a previous processor
        of the same leaf; when its id list is a prefix of the current one
        and the box is identical, its verdicts are copied and only the pairs
        involving newly arrived half-spaces are analysed.
        """
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if halfspaces:
            A = np.vstack([h.coefficients for _, h in halfspaces])
            b = np.array([h.offset for _, h in halfspaces], dtype=float)
        else:
            A, b = np.zeros((0, lower.shape[0])), np.zeros(0)
        norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        constraints = cls(
            [hid for hid, _ in halfspaces], A, b, np.where(norms > 0, norms, 1.0),
            lower, upper, reuse=reuse,
        )
        constraints.conflict_masks()
        return constraints

    @property
    def built(self) -> bool:
        """True once every orientation has been analysed."""
        return self._rows is None

    def _analyse(self, orientations: Sequence[Tuple[int, int]]) -> None:
        """Analyse the missing ``orientations`` for every pair, in one pass."""
        missing = [o for o in orientations if o not in self._masks]
        if not missing:
            return
        A, b, margin = self._rows
        m, start = len(self._ids), self._reused_prefix_len
        # Pairs not covered by the reused verdicts: those whose larger index
        # falls in the newly arrived suffix, ordered by (j, i).
        j_idx, i_idx = _pair_indices(m)
        j_idx = j_idx[start * (start - 1) // 2:]
        i_idx = i_idx[start * (start - 1) // 2:]
        # Sign s turns ``a · x > b`` into ``(s a) · x > s b``; one stacked
        # block of pair rows per orientation.
        s_i = np.array([1.0 if bit_i else -1.0 for bit_i, _ in missing])
        s_j = np.array([1.0 if bit_j else -1.0 for _, bit_j in missing])
        dim = A.shape[1]
        feasible = _pair_combo_feasible(
            (s_i[:, None, None] * A[i_idx][None]).reshape(-1, dim),
            (s_i[:, None] * b[i_idx][None] + margin[i_idx][None]).ravel(),
            (s_j[:, None, None] * A[j_idx][None]).reshape(-1, dim),
            (s_j[:, None] * b[j_idx][None] + margin[j_idx][None]).ravel(),
            self._lower,
            self._upper,
        ).reshape(len(missing), -1)
        # Forbidden[o, p - start, q]: the pair (q, p) forbids orientation o;
        # each row packs into the position's bitmask (bit q = 2 ** q).
        forbidden = np.zeros((len(missing), m - start, m), dtype=bool)
        forbidden[:, j_idx - start, i_idx] = ~feasible
        packed = np.packbits(forbidden, axis=2, bitorder="little")
        width = packed.shape[2]
        raw = packed.tobytes()
        for index, orientation in enumerate(missing):
            base = index * (m - start) * width
            self._masks[orientation] = list(self._reused.get(orientation, ())) + [
                int.from_bytes(raw[base + row * width: base + (row + 1) * width], "little")
                for row in range(m - start)
            ]
        if len(self._masks) == len(_ORIENTATIONS):
            self._rows = None
            self._reused = {}

    def masks(self, bit_i: int, bit_j: int) -> List[int]:
        """Per-position conflict bitmasks of one orientation.

        ``masks(bit_i, bit_j)[p]`` has bit ``q`` set when the pair
        ``(q, p)``, ``q < p``, forbids ``(bit_q, bit_p) = (bit_i, bit_j)``.
        Only this orientation is analysed when it is missing.
        """
        self._analyse(((bit_i, bit_j),))
        return self._masks[bit_i, bit_j]

    def conflict_masks(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The masks of all four orientations, ``(c00, c01, c10, c11)``.

        ``cab`` is :meth:`masks` ``(a, b)``: assigning bit ``b`` at position
        ``p`` conflicts with the earlier positions in ``ones_mask &
        c1b[p]`` and ``zeros_mask & c0b[p]``.
        """
        self._analyse(_ORIENTATIONS)
        return tuple(self._masks[o] for o in _ORIENTATIONS)

    def violates(self, bits: Sequence[int]) -> bool:
        """True when ``bits`` matches a forbidden combination for some pair.

        An all-zeros ``bits`` reads only the ``(0, 0)`` verdicts.
        """
        self._analyse(_ORIENTATIONS if any(bits) else ((0, 0),))
        masks = self._masks
        ones_mask = zeros_mask = 0
        for pos, bit in enumerate(bits):
            if (ones_mask and ones_mask & masks[1, bit][pos]) or (
                zeros_mask & masks[0, bit][pos]
            ):
                return True
            if bit:
                ones_mask |= 1 << pos
            else:
                zeros_mask |= 1 << pos
        return False

    def __len__(self) -> int:
        """Number of pairs forbidding at least one combination."""
        if self._pair_count is None:
            c00, c01, c10, c11 = self.conflict_masks()
            self._pair_count = sum(
                (a | b | c | d).bit_count() for a, b, c, d in zip(c00, c01, c10, c11)
            )
        return self._pair_count


@dataclass(frozen=True)
class LeafReuseState:
    """Cached within-leaf state handed across AA re-scans of a grown leaf.

    Attributes
    ----------
    partial_ids:
        Half-space ids of the partial set the state was computed for; reuse
        requires them to be a prefix of the new processor's partial ids.
    pairwise:
        The previous processor's pairwise analysis once built (None when it
        was never built, e.g. for a leaf whose scan stopped at weight 0);
        old pair verdicts are copied verbatim and only new pairs are
        analysed.  Without one the replacement analyses every pair, with the
        same verdicts.
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
    cores:
        Infeasibility cores of the previous processor, ``(ones_mask,
        zeros_mask)`` pairs over ``partial_ids`` positions in discovery
        order.  The positions and the box are unchanged in the grown leaf,
        so every core stays a proof of emptiness there.
    """

    partial_ids: Tuple[int, ...]
    pairwise: Optional[PairwiseConstraints]
    frontier: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]]
    planar: Optional[PlanarArrangement] = None
    cores: Tuple[Tuple[int, int], ...] = ()

    def extends_to(self, ids: Sequence[int]) -> bool:
        """True when the state's partial ids are a prefix of ``ids``."""
        return tuple(ids[: len(self.partial_ids)]) == self.partial_ids


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
    seed_cores:
        Infeasibility cores learned by earlier processors of this exact
        configuration (the lower weights' tasks), kept after the cores of
        ``seed_state``; candidates containing one skip the LP.
    seed_state:
        :class:`LeafReuseState` of the previous processor of the same leaf,
        run with the same options; when its partial ids are a prefix of this
        processor's, the pairwise conflict masks are extended instead of
        recomputed, its cores are inherited and candidate generation resumes
        from the cached surviving-prefix frontier.
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
        changing any decision).  Ignored unless it is built and its id list
        and box match.
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
        seed_cores: Sequence[Tuple[int, int]] = (),
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
        self._ids = tuple(hid for hid, _ in self.partial)
        # Pre-stacked coefficient arrays: the feasibility tests flip the signs
        # of individual rows per bit-string instead of rebuilding half-space
        # objects, which keeps the per-cell cost to a few vector operations.
        self._base, self._base_A, self._base_b, self._base_norms = _simplex_rows(self.dim)
        if self.partial:
            self._partial_A = np.vstack([h.coefficients for _, h in self.partial])
            self._partial_b = np.array([h.offset for _, h in self.partial], dtype=float)
            norms = np.sqrt(np.einsum("ij,ij->i", self._partial_A, self._partial_A))
            self._partial_norms = np.where(norms > 0, norms, 1.0)
        else:
            self._partial_A = np.zeros((0, self.dim))
            self._partial_b = np.zeros(0)
            self._partial_norms = np.ones(0)
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
        inherited_cores: Sequence[Tuple[int, int]] = ()
        if seed_state is not None and seed_state.extends_to(self._ids):
            reuse_pairwise = seed_state.pairwise
            if seed_state.frontier:
                self._seed_frontier = (
                    len(seed_state.partial_ids), seed_state.frontier
                )
            self._planar_seed = seed_state.planar
            inherited_cores = seed_state.cores
        #: infeasibility cores as (ones_mask, zeros_mask) over positions
        self._cores: List[Tuple[int, int]] = list(
            chain(inherited_cores, seed_cores)
        )[:_MAX_CORES]
        self._seed_core_count = len(self._cores)
        # Probe panel, materialised by the first batch screen: leaf centre
        # first (mirrors the solver's quick accept), then inward-shrunk
        # corners, then inherited witness points.
        self._seed_probes = seed_probes
        self._probe_points: Optional[List[np.ndarray]] = None
        self._seed_count = 0
        self._probe_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: the pair analysis; its verdicts are analysed on first read
        self._pairwise: Optional[PairwiseConstraints] = None
        self._pairwise_min_size = pairwise_min_size
        if use_pairwise and len(self.partial) >= pairwise_min_size:
            if (
                pairwise is not None
                and pairwise.built
                and pairwise._ids == self._ids
                and np.array_equal(pairwise._lower, self.lower)
                and np.array_equal(pairwise._upper, self.upper)
            ):
                self._pairwise = pairwise
            else:
                self._pairwise = PairwiseConstraints(
                    self._ids, self._partial_A, self._partial_b,
                    self._partial_norms, self.lower, self.upper,
                    reuse=reuse_pairwise,
                )

    @cached_property
    def _row_bounds(self) -> Tuple[List[bool], List[bool], List[bool], List[bool]]:
        """Per-row corner-extreme orientation bounds, for the DFS.

        ``(allowed0, allowed1, zeros_from, ones_from)``: ``allowedv[p]`` is
        False when orienting row ``p`` as bit ``v`` is unsatisfiable anywhere
        in the leaf box, which proves every partial assignment fixing that
        orientation empty, so the DFS never expands it.  Mirrors the batch
        reject screen's margin exactly.  ``zeros_from[p]`` (``ones_from[p]``)
        is True when every position from ``p`` on allows a 0 (a 1): the row
        check of a forced tail in one lookup.
        """
        row_min, row_max = box_row_extremes(self._partial_A, self.lower, self.upper)
        row_margin = MIN_INTERIOR_RADIUS * self._partial_norms
        allowed0 = row_min < self._partial_b - row_margin
        allowed1 = row_max > self._partial_b + row_margin
        # Suffix "all allowed" flags, with a True sentinel past the end.
        zeros_from = np.append(np.logical_and.accumulate(allowed0[::-1])[::-1], True)
        ones_from = np.append(np.logical_and.accumulate(allowed1[::-1])[::-1], True)
        return allowed0.tolist(), allowed1.tolist(), zeros_from.tolist(), ones_from.tolist()

    @cached_property
    def _oriented(self) -> List[Tuple[Halfspace, Halfspace]]:
        """``(inside, outside)`` half-space pairs, for 2-D clipping."""
        return [(halfspace, halfspace.complement()) for _, halfspace in self.partial]

    @cached_property
    def _base_polygon(self) -> Optional[np.ndarray]:
        """The leaf box clipped by the base rows (2-D), or None when empty."""
        polygon = box_polygon(self.lower, self.upper)
        for constraint in self._base:
            polygon = clip_polygon(polygon, constraint)
            if polygon is None:
                return None
        return polygon

    def reuse_state(self) -> LeafReuseState:
        """Snapshot of the reusable per-leaf state for a replacement processor.

        Handed to the replacement processor (via ``seed_state``) when the
        leaf's partial set grows between AA iterations; see
        :class:`LeafReuseState`.
        """
        return LeafReuseState(
            partial_ids=self._ids,
            pairwise=self.built_pairwise(),
            frontier=dict(self._frontier),
            planar=self._planar,
            cores=tuple(self._cores),
        )

    @property
    def pairwise_constraints(self) -> Optional[PairwiseConstraints]:
        """The pair analysis, built on first read (None when disabled)."""
        if self._pairwise is not None:
            self._pairwise.conflict_masks()
        return self._pairwise

    def built_pairwise(self) -> Optional[PairwiseConstraints]:
        """The pair analysis if something has built it, else None.

        Never builds: this is what a processor hands on (to the next
        weight's task, to a grown leaf's replacement processor).
        """
        if self._pairwise is not None and self._pairwise.built:
            return self._pairwise
        return None

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
    def _default_probes(self) -> np.ndarray:
        """Deterministic spread of probe points inside the leaf box."""
        centre = (self.lower + self.upper) / 2.0
        extent = self.upper - self.lower
        if np.any(extent <= 0):
            return centre[None, :]
        # Two rings of corner probes, interleaved per corner: mildly shrunk
        # ({1/4, 3/4} of the extent per axis, covering the bulk of each
        # orthant) and near-corner ({1/20, 19/20}, capturing the extreme
        # regions that certify pairwise orientation combinations).  Beyond 5
        # dimensions take a deterministic subset to bound the panel size.
        corner_count = min(2 ** self.dim, 32)
        bits = (np.arange(corner_count)[:, None] >> np.arange(self.dim)) & 1
        rings = np.stack(
            [np.where(bits, 0.75, 0.25), np.where(bits, 0.95, 0.05)], axis=1
        ).reshape(-1, self.dim)
        return np.vstack([centre, self.lower + rings * extent])

    def _panel_points(self) -> List[np.ndarray]:
        """The probe points, materialised on first use."""
        if self._probe_points is None:
            points = list(self._default_probes())
            if self._seed_probes:
                room = max(0, _MAX_PROBES - len(points))
                points.extend(
                    np.asarray(point, dtype=float) for point in self._seed_probes[:room]
                )
            self._probe_points = points
            self._seed_count = len(points)
        return self._probe_points

    def witness_probes(self) -> List[np.ndarray]:
        """Witness points accumulated beyond the deterministic panel.

        Used to seed the replacement processor when the leaf's partial set
        grows: the inherited witnesses remain interior points of cells of the
        refined arrangement.  Empty when the panel was never materialised.
        """
        if self._probe_points is None:
            return []
        return self._probe_points[self._seed_count:]

    def learned_cores(self) -> List[Tuple[int, int]]:
        """Infeasibility cores learned by this processor, in discovery order
        (the delta on top of the inherited and shipped ones)."""
        return self._cores[self._seed_core_count:]

    def _add_probe(self, point: np.ndarray) -> None:
        points = self._panel_points()
        if len(points) >= _MAX_PROBES:
            return
        points.append(point)
        self._probe_cache = None

    def _probe_panel(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(points, normalised margins, validity)`` of the panel.

        Margins are per partial row, normalised by the row norm so they
        compare directly against the inscribed-radius thresholds; validity
        requires clearance from the box walls and the base (simplex)
        constraints, mirroring the solver's quick-accept conditions.
        """
        if self._probe_cache is None:
            P = np.asarray(self._panel_points(), dtype=float)
            threshold = ACCEPT_MARGIN_FACTOR * MIN_INTERIOR_RADIUS
            valid = np.minimum(P - self.lower, self.upper - P).min(axis=1) > threshold
            base_margin = (
                self._base_A @ P.T - self._base_b[:, None]
            ) / self._base_norms[:, None]
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
        """LP-based feasibility behind the core gate.

        A candidate fixing every row of a stored core the core's way is
        empty without an LP.  Otherwise the LP decides, and an empty verdict
        that comes with a core is stored for the later candidates.
        """
        ones_mask = 0
        for position, bit in enumerate(bits):
            if bit:
                ones_mask |= 1 << position
        zeros_mask = ((1 << len(bits)) - 1) ^ ones_mask
        for core_ones, core_zeros in self._cores:
            if not (core_ones & zeros_mask or core_zeros & ones_mask):
                if self.counters is not None:
                    self.counters.core_cuts += 1
                return None
        if self.partial:
            signs = np.where(np.asarray(bits, dtype=bool), 1.0, -1.0)
            A = np.vstack([self._base_A, self._partial_A * signs[:, None]])
            b = np.concatenate([self._base_b, self._partial_b * signs])
        else:
            A, b = self._base_A, self._base_b
        result = find_interior_point_arrays(
            A, b, self.lower, self.upper, counters=self.counters
        )
        if result.feasible:
            return result.point
        if result.core is not None and len(self._cores) < _MAX_CORES:
            # Rows past the base (simplex) rows are partial positions; the
            # base rows and the box hold in every candidate of the leaf.
            core_ones = core_zeros = 0
            for row in result.core:
                position = row - len(self._base_b)
                if position < 0:
                    continue
                if bits[position]:
                    core_ones |= 1 << position
                else:
                    core_zeros |= 1 << position
            self._cores.append((core_ones, core_zeros))
            if self.counters is not None:
                self.counters.cores_learned += 1
        return None

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
        polygon = self._base_polygon
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
            base_margins = (self._base_A @ centroid - self._base_b) / self._base_norms
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

    def _dfs_masks(self, weight: int, states: list) -> Optional[tuple]:
        """The conflict masks a DFS walk from ``states`` at ``weight`` reads.

        ``(c00, c01, c10, c11)`` as in
        :meth:`PairwiseConstraints.conflict_masks`, or ``None`` when the walk
        needs none: no pair analysis, nothing forbidden, or — at weight 0 —
        every start state's all-zeros tail already cut by a row bound.  A
        weight-0 walk never assigns a 1, so its ones-masks are never read
        with a non-zero ``ones_mask``: it analyses the ``(0, 0)``
        orientation only and gets ``None`` for the other three.
        """
        pairwise = self._pairwise
        if pairwise is None or not states:
            return None
        if weight == 0:
            zeros_from = self._row_bounds[2]
            if not any(zeros_from[state[0]] for state in states):
                return None
            c00 = pairwise.masks(0, 0)
            return (c00, None, None, None) if any(c00) else None
        return pairwise.conflict_masks() if len(pairwise) else None

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
        allowed0, allowed1, zeros_from, ones_from = self._row_bounds
        if init_states is None:
            init_states = [(0, 0, 0, 0, ())]
        masks = self._dfs_masks(weight, init_states)
        c00, c01, c10, c11 = masks if masks is not None else (None,) * 4
        counters = self.counters
        cuts = 0
        out: List[Tuple[int, ...]] = []
        # LIFO stack; within one expansion the 0-branch is pushed first so
        # the 1-branch is popped (and therefore emitted) first.
        stack = list(reversed(init_states))
        while stack:
            pos, count, ones_mask, zeros_mask, ones = stack.pop()
            if count == weight:
                # Tail of forced zeros: one row-bound lookup, then the pair
                # checks in place instead of one stack frame per position.
                if not zeros_from[pos]:
                    cuts += 1
                    continue
                if c00 is not None:
                    while pos < m:
                        if (ones_mask and ones_mask & c10[pos]) or (
                            zeros_mask & c00[pos]
                        ):
                            break
                        zeros_mask |= 1 << pos
                        pos += 1
                    if pos < m:
                        cuts += 1
                        continue
                out.append(ones)
                if len(out) >= self._CHUNK:
                    yield out
                    out = []
                continue
            if weight - count == m - pos:
                # Tail of forced ones.
                if not ones_from[pos]:
                    cuts += 1
                    continue
                if c00 is not None:
                    start = pos
                    while pos < m:
                        if (ones_mask & c11[pos]) or (zeros_mask & c01[pos]):
                            break
                        ones_mask |= 1 << pos
                        pos += 1
                    if pos < m:
                        cuts += 1
                        continue
                    pos = start
                out.append(ones + tuple(range(pos, m)))
                if len(out) >= self._CHUNK:
                    yield out
                    out = []
                continue
            bit = 1 << pos
            # 0-branch (affordable here because weight - count < m - pos).
            if allowed0[pos] and not (
                c00 is not None
                and ((ones_mask & c10[pos]) or (zeros_mask & c00[pos]))
            ):
                stack.append((pos + 1, count, ones_mask, zeros_mask | bit, ones))
            else:
                cuts += 1
            # 1-branch (count < weight is implied by the tail check above).
            if allowed1[pos] and not (
                c00 is not None
                and ((ones_mask & c11[pos]) or (zeros_mask & c01[pos]))
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
        can prefix a new candidate.  Each cached assignment becomes a DFS
        start state at position ``old_m``.  Returns ``None`` when any
        required frontier weight is missing or overflowed — the caller then
        falls back to the full DFS.
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
        # The cached combos already passed the previous processor's checks.
        # Row bounds over the old positions are identical by construction
        # (same box, prefix rows), and so are the pair verdicts whenever the
        # previous processor (same options) had a pair analysis too: the
        # replay below can then never fail and is skipped.  Only a leaf that
        # grew past ``pairwise_min_size`` replays its frontier against the
        # verdicts its old partial set never had.
        if self._pairwise is None or old_m >= self._pairwise_min_size:
            prefix_mask = (1 << old_m) - 1
            states = []
            for w2 in needed:
                for combo in frontier[w2]:
                    ones_mask = 0
                    for pos in combo:
                        ones_mask |= 1 << pos
                    states.append(
                        (old_m, len(combo), ones_mask, prefix_mask ^ ones_mask, combo)
                    )
            return states
        combos = [combo for w2 in needed for combo in frontier[w2]]
        if not combos:
            return []
        if weight == 0:
            # Only the all-zeros prefix: the (0, 0) verdicts decide it.
            c00 = self._pairwise.masks(0, 0)
            c01 = c10 = c11 = None
        else:
            c00, c01, c10, c11 = self._pairwise.conflict_masks()
        allowed0, allowed1 = self._row_bounds[:2]
        states = []
        for combo in combos:
            ones_mask = 0
            zeros_mask = 0
            next_one = 0
            valid = True
            for pos in range(old_m):
                if next_one < len(combo) and combo[next_one] == pos:
                    if not allowed1[pos] or (ones_mask & c11[pos]) or (
                        zeros_mask & c01[pos]
                    ):
                        valid = False
                        break
                    ones_mask |= 1 << pos
                    next_one += 1
                else:
                    if not allowed0[pos] or (ones_mask and ones_mask & c10[pos]) or (
                        zeros_mask & c00[pos]
                    ):
                        valid = False
                        break
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
