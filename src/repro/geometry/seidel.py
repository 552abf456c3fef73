"""Seidel's randomised incremental algorithm for tiny linear programs.

Within-leaf processing decides the emptiness of thousands of candidate cells
per MaxRank query, each a system of at most a few dozen linear inequalities
in at most a handful of variables.  A general-purpose solver pays several
milliseconds of setup per call, which dominates the whole query; Seidel's
algorithm — linear expected time in the number of constraints for fixed
dimension — solves these tiny programs in tens of microseconds.

The solver maximises ``c · x`` subject to ``g_j · x ≤ h_j`` and box bounds
``lower ≤ x ≤ upper``.  The box keeps every subproblem bounded, which is the
precondition for the classic recursion: process constraints in random order;
while the incumbent optimum satisfies the next constraint nothing changes,
otherwise the new optimum lies on that constraint's hyperplane and is found
by recursing on the problem projected onto it (one variable eliminated).

Plain Python floats and lists are used on purpose: for dimensions ≤ 8 the
interpreter overhead of numpy broadcasting exceeds the arithmetic cost.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

__all__ = ["solve_lp", "solve_float_lp", "LPResult"]

#: Coefficients below this magnitude are treated as zero.
_TINY = 1e-13
#: Tolerance used when checking whether the incumbent satisfies a constraint.
_FEAS_TOL = 1e-10

Constraint = Tuple[List[float], float]
LPResult = Optional[List[float]]


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def solve_lp(
    constraints: Sequence[Constraint],
    objective: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    *,
    seed: int = 0,
) -> LPResult:
    """Maximise ``objective · x`` subject to ``g · x ≤ h`` and ``lower ≤ x ≤ upper``.

    Parameters
    ----------
    constraints:
        Sequence of ``(g, h)`` pairs, each encoding ``g · x ≤ h``.
    objective:
        Objective coefficients ``c``.
    lower, upper:
        Finite box bounds; the box must be non-empty.
    seed:
        Seed of the constraint shuffle (fixed for reproducibility).

    Returns
    -------
    list[float] | None
        An optimal point, or ``None`` when the system is infeasible.
    """
    return solve_float_lp(
        [([float(v) for v in g], float(h)) for g, h in constraints],
        [float(v) for v in objective],
        [float(v) for v in lower],
        [float(v) for v in upper],
        seed=seed,
    )


def solve_float_lp(
    constraints: List[Constraint],
    objective: List[float],
    lower: List[float],
    upper: List[float],
    *,
    seed: int = 0,
) -> LPResult:
    """:func:`solve_lp` on inputs that already are lists of Python floats.

    For callers that assemble their rows with ``ndarray.tolist()``; skips
    the per-scalar conversion, which changes no value.
    """
    return _solve(constraints, objective, lower, upper, random.Random(seed))


def _solve(
    constraints: List[Constraint],
    c: List[float],
    lower: List[float],
    upper: List[float],
    rng: random.Random,
) -> LPResult:
    k = len(c)
    if any(upper[i] < lower[i] - _FEAS_TOL for i in range(k)):
        return None
    if k == 1:
        return _solve_1d(constraints, c[0], lower[0], upper[0])

    order = list(range(len(constraints)))
    rng.shuffle(order)

    # Optimum of the box alone.
    x = [upper[i] if c[i] > 0 else lower[i] for i in range(k)]
    processed: List[Constraint] = []
    for index in order:
        g, h = constraints[index]
        if _dot(g, x) <= h + _FEAS_TOL:
            processed.append((g, h))
            continue
        # The incumbent violates (g, h): the new optimum lies on g · y = h.
        j = max(range(k), key=lambda i: abs(g[i]))
        gj = g[j]
        if abs(gj) < _TINY:
            # Constraint is (numerically) 0 · x ≤ h with h < g · x; since the
            # left-hand side is ~0 the constraint is unsatisfiable only when
            # h is negative.
            if h < -_FEAS_TOL:
                return None
            processed.append((g, h))
            continue
        keep = [i for i in range(k) if i != j]

        def project(vec: Sequence[float], rhs: float) -> Constraint:
            factor = vec[j] / gj
            return ([vec[i] - factor * g[i] for i in keep], rhs - factor * h)

        sub_constraints = [project(g2, h2) for g2, h2 in processed]
        unit = [0.0] * k
        unit[j] = 1.0
        sub_constraints.append(project(unit, upper[j]))
        unit_neg = [0.0] * k
        unit_neg[j] = -1.0
        sub_constraints.append(project(unit_neg, -lower[j]))

        factor_c = c[j] / gj
        sub_c = [c[i] - factor_c * g[i] for i in keep]
        sub_lower = [lower[i] for i in keep]
        sub_upper = [upper[i] for i in keep]
        sub_x = _solve(sub_constraints, sub_c, sub_lower, sub_upper, rng)
        if sub_x is None:
            return None
        x = [0.0] * k
        for position, i in enumerate(keep):
            x[i] = sub_x[position]
        x[j] = (h - sum(g[i] * x[i] for i in keep)) / gj
        processed.append((g, h))
    return x


def _solve_1d(
    constraints: List[Constraint], c: float, lower: float, upper: float
) -> LPResult:
    lo, hi = lower, upper
    for g, h in constraints:
        g0 = g[0]
        if g0 > _TINY:
            hi = min(hi, h / g0)
        elif g0 < -_TINY:
            lo = max(lo, h / g0)
        elif h < -_FEAS_TOL:
            return None
    if lo > hi + _FEAS_TOL:
        return None
    if lo > hi:
        lo = hi = (lo + hi) / 2.0
    if c > 0:
        return [hi]
    if c < 0:
        return [lo]
    return [(lo + hi) / 2.0]
