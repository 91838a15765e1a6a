"""Swap/move refinement of a schedule — local search after RCKK.

One-pass differencing leaves residual imbalance; the classic cleanup is
local search over two move types:

* **move** — reassign one request from the most-loaded instance to a
  lighter one,
* **swap** — exchange two requests between the most-loaded instance and
  another,

accepting only moves that reduce the *makespan* (the largest instance
rate — the quantity Eq. (12) says dominates the worst ``W(f,k)``).
:class:`SwapRefinedScheduler` wraps any base scheduler with this
refinement, giving an anytime upgrade path between RCKK and the exact
search.

Threshold candidate selection
-----------------------------
The legacy scan visits every candidate of a round in a fixed order:
each item ``r`` of the worst way (member-list order), each target way
``t`` (ascending), the move ``r -> t`` and then every swap with a
partner ``s < r`` of ``t`` (member-list order).  It accepts a candidate
when ``delta > best + 1e-12`` (``best`` starts at 0 and becomes the
accepted delta); the last accepted candidate is applied.  With ``o(t)``
the largest sum over the ways other than ``worst`` and ``t``, a move's
delta is ``makespan - max(o(t), makespan - r, sums[t] + r)`` and a
swap's is ``makespan - max(o(t), makespan + (s - r), sums[t] + (r - s))``.

Up to rounding, a delta is a *tent* in ``d`` (``d = r`` for a move,
``d = r - s`` for a swap): ``min(cap_t, d, gap_t - d)`` with
``cap_t = makespan - o(t)`` and ``gap_t = makespan - sums[t]``.  In
float arithmetic the three terms are still monotone in ``s`` (rounding
is monotone), so for one item and one target the swaps whose delta
exceeds a level form a contiguous range of the target's partners sorted
by rate.  :meth:`_Round.above` finds that range's ends exactly, by
checking a ``searchsorted`` guess against the float expressions
themselves and bisecting where the guess is wrong; no candidate grid
is built.

**Threshold lemma.**  Let ``T >= 1e-12`` and let ``w`` be the first
candidate in legacy order whose delta exceeds ``T``.  ``w`` is the
legacy winner if (a) no candidate's delta lies in ``(T - 1e-12, T]``
and (b) no candidate's delta exceeds ``delta_w + 1e-12``.  By (a),
every delta before ``w`` is at most ``T - 1e-12``, so ``best + 1e-12``
stays at most ``T`` and ``w`` is accepted; by (b), nothing after ``w``
clears ``best + 1e-12`` again.

Each round therefore estimates the round maximum ``V`` from each
item/target pair's move and its two partners nearest the tent's peak
(``s = r - gap_t / 2``), sets ``T`` half a margin below ``V``, counts
the candidates above ``T`` and above the bottom of the band, and takes
``w`` from the first pair (in legacy order) with one: its move, else
its first partner in member-list order.  Ties at the maximum — the
least-loaded start leaves thousands per round, all equal to ``cap_t`` —
cost a count, not an enumeration.

**Exact fallback.**  When ``T < 1e-12`` (nothing, or too little,
improves) or a check fails, :func:`_enumerated_winner` lists every
candidate whose delta exceeds ``1e-12``, in legacy order, and replays
the margin rule on them with
:func:`~repro.core.deltas.select_improving_record_breaker`.  A
candidate at or below the margin is never accepted, so leaving it out
changes nothing.  The legacy scan survives as
``reference_refine_assignment`` in ``benchmarks/_reference_impl.py``,
the oracle of ``tests/core/test_solver_kernel_parity.py`` and
``tests/scheduling/test_swap_refine.py``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.core.deltas import select_improving_record_breaker
from repro.core.dtypes import ensure_index_capacity
from repro.exceptions import ValidationError
from repro.scheduling.base import (
    SchedulingAlgorithm,
    SchedulingProblem,
    ScheduleResult,
)
from repro.scheduling.rckk import RCKKScheduler


#: The legacy acceptance margin: a candidate wins over the incumbent
#: only when ``delta > best + _MARGIN``, with ``best`` starting at 0.
_MARGIN = 1e-12


def _checked_inputs(rates, assignment, num_ways: int):
    """``(rates, ways)`` as float64 and int64 arrays, after validating
    the refine inputs."""
    if num_ways < 1:
        raise ValidationError(f"num_ways must be >= 1, got {num_ways!r}")
    rates_arr = np.asarray(rates, dtype=np.float64)
    if rates_arr.ndim != 1 or len(rates_arr) != len(assignment):
        raise ValidationError(
            f"rates has shape {rates_arr.shape} but assignment has "
            f"{len(assignment)} items"
        )
    if not np.isfinite(rates_arr).all():
        raise ValidationError("rates must be finite")
    ways = np.asarray(assignment)
    if len(ways) and (
        not np.issubdtype(ways.dtype, np.integer)
        or ways.min() < 0
        or ways.max() >= num_ways
    ):
        raise ValidationError(
            f"assignment must hold integer ways in [0, {num_ways})"
        )
    return rates_arr, ways.astype(np.int64)


class _SortedWays:
    """Every way's member rates in ascending order, in one search key.

    Segment ``w`` of :attr:`key` holds ``w + 1j*rate`` for way ``w``'s
    members in ascending rate order, padded with ``w + 1j*inf``.  numpy
    orders complex numbers by real part, then imaginary part, so the
    whole key is sorted and one ``searchsorted`` call locates a value
    in any number of ways at once.  :attr:`pos` holds each sorted rate's
    index in its way's member list.  A round changes two ways, and only
    their segments are re-sorted.
    """

    def __init__(self, rates: np.ndarray, members: List[List[int]], spare: int):
        self.rates = rates
        # A way gains at most one member per round: ``spare`` rounds of
        # room plus one padding slot, so position ``count`` is readable.
        caps = np.asarray([len(m) + spare + 1 for m in members], dtype=np.int64)
        self.stop = np.cumsum(caps)
        self.start = self.stop - caps
        self.count = np.zeros(len(members), dtype=np.int64)
        self.key = np.empty(int(self.stop[-1]), dtype=np.complex128)
        self.key.real = np.repeat(np.arange(len(members)), caps)
        self.rate = self.key.imag
        self.pos = np.zeros(len(self.key), dtype=np.int64)
        for way, items in enumerate(members):
            self.refresh(way, items)

    def refresh(self, way: int, items: List[int]) -> None:
        lo, n = int(self.start[way]), len(items)
        vals = self.rates[items]
        order = np.argsort(vals, kind="stable")
        self.rate[lo : lo + n] = vals[order]
        self.rate[lo + n : self.stop[way]] = np.inf
        self.pos[lo : lo + n] = order
        self.count[way] = n


class _Round:
    """One round's candidates, grouped by *pair* (worst-way item, target).

    Pairs are laid out target-major over the worst way's items in
    ascending rate order, so every search over them queries sorted
    values.  ``rank`` orders the pairs as the legacy scan does: by the
    item's position in the worst way's member list, then by target.
    """

    def __init__(self, ways: _SortedWays, sums: List[float], worst: int):
        S = np.asarray(sums, dtype=np.float64)
        self.makespan = S[worst]
        targets = np.delete(np.arange(len(S)), worst)
        # o[t] = max sum over ways other than worst and t, via the
        # top-two of the sums with worst masked out.
        E = S.copy()
        E[worst] = -np.inf
        i1 = int(np.argmax(E))
        top1 = E[i1]
        E[i1] = -np.inf
        o = np.where(targets == i1, E.max(), top1)
        lo = int(ways.start[worst])
        self.nr = nr = int(ways.count[worst])
        nt = len(targets)
        tpos = np.repeat(np.arange(nt), nr)
        self.ways = ways
        self.r = np.tile(ways.rate[lo : lo + nr], nt)
        self.o = o[tpos]
        self.st = S[targets][tpos]
        self.way = targets[tpos]
        self.base = ways.start[self.way]
        self.hi = ways.count[self.way]
        self.cap = self.makespan - self.o
        # The legacy move expression, term by term.
        self.move = self.makespan - np.maximum(
            self.o, np.maximum(self.makespan - self.r, self.st + self.r)
        )
        self.rank = np.tile(ways.pos[lo : lo + nr], nt) * nt + tpos

    def locate(self, values: np.ndarray, side: str = "left") -> np.ndarray:
        """Per pair, the insertion point of ``values`` in its target's
        sorted rates."""
        q = np.empty(len(values), dtype=np.complex128)
        q.real = self.way
        q.imag = values
        return np.searchsorted(self.ways.key, q, side=side) - self.base

    def rate_at(self, i, p):
        return self.ways.rate[self.base[i] + p]

    def swap_delta(self, i, p):
        """Pair ``i``'s swap with sorted partner ``p``: the legacy swap
        expression, term by term."""
        M, r, s = self.makespan, self.r[i], self.rate_at(i, p)
        return M - np.maximum(
            self.o[i], np.maximum(M + (s - r), self.st[i] + (r - s))
        )

    def threshold(self) -> float:
        """``T``: half a margin below the estimated round maximum (one
        float below it where half a margin is under its spacing).

        The estimate is the best of each pair's move and its two
        partners nearest the tent's peak, ``s = r - gap/2``; it only
        has to be close, as the checks of the threshold lemma decide.
        """
        pairs = np.arange(len(self.r))
        peak = self.locate(self.r - 0.5 * (self.makespan - self.st))
        V = self.move.max()
        for p in (peak - 1, peak):
            k = pairs[(p >= 0) & (p < self.hi)]
            k = k[self.rate_at(k, p[k]) < self.r[k]]
            if len(k):
                V = max(V, self.swap_delta(k, p[k]).max())
        T = V - _MARGIN / 2
        return T if T < V else np.nextafter(V, -np.inf)

    def guesses(self, level: float):
        """Approximate ends of each pair's swaps above ``level``."""
        return (
            self.locate(self.r - (self.makespan - self.st) + level, "right"),
            self.locate(self.r - level),
        )

    def above(self, level: float, i, lo, hi, guess_a, guess_b):
        """Per pair ``i``, the sorted-partner range ``[a, b)`` within
        ``[lo, hi)`` of the swaps whose delta exceeds ``level``.

        A swap's delta is the minimum of three terms: ``cap``,
        ``makespan - (makespan + (s - r))``, which falls as ``s`` grows,
        and ``makespan - (st + (r - s))``, which rises; and a swap needs
        ``s < r``.  Float rounding is monotone, so each condition holds
        on a prefix or a suffix of the sorted partners and the range is
        contiguous.  The guesses only set the speed.
        """
        M = self.makespan

        def low_gain(k, p):
            return M - (self.st[k] + (self.r[k] - self.rate_at(k, p))) <= level

        def legal(k, p):
            s = self.rate_at(k, p)
            return (s < self.r[k]) & (M - (M + (s - self.r[k])) > level)

        a = _first_false(low_gain, i, guess_a, lo, hi)
        b = _first_false(legal, i, guess_b, lo, hi)
        return a, np.where(self.cap[i] > level, np.maximum(a, b), a)


def _first_false(keep, i, guess, lo, hi) -> np.ndarray:
    """Per pair ``i``, the first position in ``[lo, hi)`` at which the
    prefix predicate ``keep(pairs, positions)`` fails (``hi`` if none).

    A guess is kept where ``keep`` holds just before it and fails at it;
    the other pairs are bisected.
    """
    g = np.clip(guess, lo, hi)
    wrong = np.zeros(len(g), dtype=bool)
    m = g > lo
    wrong[m] = ~keep(i[m], g[m] - 1)
    m = g < hi
    wrong[m] |= keep(i[m], g[m])
    if wrong.any():
        w = np.flatnonzero(wrong)
        k, left, right = i[w], lo[w], hi[w]
        active = left < right
        while active.any():
            mid = (left + right) >> 1
            ok = keep(k, mid)
            left = np.where(active & ok, mid + 1, left)
            right = np.where(active & ~ok, mid, right)
            active = left < right
        g[w] = left
    return g


def _round_winner(rnd: _Round) -> Optional[Tuple[int, int]]:
    """The legacy scan's winner as ``(pair, sorted partner position)``,
    the position ``-1`` for a move, or ``None`` when nothing improves.

    The threshold lemma of the module docstring, with the exact
    enumeration of :func:`_enumerated_winner` when a check fails.
    """
    n = len(rnd.r)
    pairs = np.arange(n)
    T = rnd.threshold()
    if not T >= _MARGIN:
        return _enumerated_winner(rnd)
    band = np.nextafter(T - _MARGIN, -np.inf)
    ga, gb = rnd.guesses(T)
    a, b = rnd.above(band, pairs, np.zeros(n, dtype=np.int64), rnd.hi, ga, gb)
    aT, bT = rnd.above(T, pairs, a, b, ga, gb)
    # (a): no candidate in (T - margin, T].
    if np.count_nonzero(rnd.move > band) + int((b - a).sum()) != (
        np.count_nonzero(rnd.move > T) + int((bT - aT).sum())
    ):
        return _enumerated_winner(rnd)
    # The first candidate above T in legacy order: first pair, and in
    # it the move, else the first partner in member-list order.
    hit = np.flatnonzero((rnd.move > T) | (bT > aT))
    i = int(hit[np.argmin(rnd.rank[hit])])
    if rnd.move[i] > T:
        pick, x = -1, rnd.move[i]
    else:
        lo = int(rnd.base[i])
        first = np.argmin(rnd.ways.pos[lo + aT[i] : lo + bT[i]])
        pick = int(aT[i] + first)
        x = rnd.swap_delta(i, pick)
    # (b): no candidate above x + margin.
    top = x + _MARGIN
    ah, bh = rnd.above(top, hit, aT[hit], bT[hit], ga[hit], gb[hit])
    if (rnd.move > top).any() or (bh > ah).any():
        return _enumerated_winner(rnd)
    return i, pick


def _enumerated_winner(rnd: _Round) -> Optional[Tuple[int, int]]:
    """Exact fallback: the legacy margin rule replayed on every candidate
    above the margin, in legacy order.  A candidate at or below the
    margin can never be accepted, so leaving it out changes nothing."""
    n = len(rnd.r)
    pairs = np.arange(n)
    a, b = rnd.above(
        _MARGIN, pairs, np.zeros(n, dtype=np.int64), rnd.hi,
        *rnd.guesses(_MARGIN),
    )
    moves = np.flatnonzero(rnd.move > _MARGIN)
    width = b - a
    swaps = np.repeat(pairs, width)
    if not len(moves) and not len(swaps):
        return None
    sp = np.arange(len(swaps)) - np.repeat(np.cumsum(width) - width, width)
    sp += a[swaps]
    pair = np.concatenate((moves, swaps))
    spos = np.concatenate((np.full(len(moves), -1), sp))
    listpos = np.concatenate(
        (np.full(len(moves), -1), rnd.ways.pos[rnd.base[swaps] + sp])
    )
    delta = np.concatenate((rnd.move[moves], rnd.swap_delta(swaps, sp)))
    order = np.lexsort((listpos, rnd.rank[pair]))
    sel = select_improving_record_breaker(delta[order])
    if sel < 0:
        return None
    c = order[sel]
    return int(pair[c]), int(spos[c])


def refine_assignment(
    rates: List[float],
    assignment: List[int],
    num_ways: int,
    max_rounds: int = 20,
) -> Tuple[List[int], int]:
    """Hill-climb move/swap until the makespan stops improving.

    Parameters
    ----------
    rates:
        Per-item values (request effective rates), finite; widened to
        float64 before any way sum accumulates.
    assignment:
        Item -> way indices in ``[0, num_ways)``; modified copies are
        returned, the input is untouched.
    num_ways:
        Number of ways (instances), at least 1.
    max_rounds:
        Bound on improvement rounds.

    Returns
    -------
    (assignment, moves)
        The refined assignment and the number of accepted moves.

    Raises
    ------
    ValidationError
        On ``max_rounds < 1``, ``num_ways < 1``, rates and assignment of
        different lengths, non-finite rates or a way outside
        ``[0, num_ways)``.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    rates_arr, way_arr = _checked_inputs(rates, assignment, num_ways)
    rates = rates_arr.tolist()
    current = list(assignment)
    # Way sums stay an incrementally-updated Python float list with the
    # legacy update expressions, so accumulated rounding is identical;
    # bincount adds each way's rates in item order, as the legacy loop.
    sums = np.bincount(way_arr, weights=rates_arr, minlength=num_ways).tolist()
    order = np.argsort(way_arr, kind="stable")
    split = np.cumsum(np.bincount(way_arr, minlength=num_ways))[:-1]
    members = [m.tolist() for m in np.split(order, split)]
    ways = _SortedWays(rates_arr, members, spare=min(max_rounds, len(current)))

    moves = 0
    for _ in range(max_rounds):
        worst = max(range(num_ways), key=lambda w: sums[w])
        if not members[worst] or num_ways < 2:
            break
        rnd = _Round(ways, sums, worst)
        win = _round_winner(rnd)
        if win is None:
            break
        pair, pick = win
        row = int(ways.pos[ways.start[worst] + pair % rnd.nr])
        idx = members[worst][row]
        target = int(rnd.way[pair])
        if pick < 0:
            members[worst].remove(idx)
            members[target].append(idx)
            sums[worst] -= rates[idx]
            sums[target] += rates[idx]
            current[idx] = target
        else:
            jdx = members[target][int(ways.pos[rnd.base[pair] + pick])]
            members[worst].remove(idx)
            members[target].remove(jdx)
            members[worst].append(jdx)
            members[target].append(idx)
            sums[worst] += rates[jdx] - rates[idx]
            sums[target] += rates[idx] - rates[jdx]
            current[idx], current[jdx] = target, worst
        ways.refresh(worst, members[worst])
        ways.refresh(target, members[target])
        moves += 1
    return current, moves


def swap_refine_columns(
    arrays: ScenarioArrays,
    sched: ScheduleArrays,
    max_rounds: int = 20,
) -> Tuple[ScheduleArrays, int]:
    """Move/swap makespan refinement straight on an index-form schedule.

    Runs :func:`refine_assignment` once per VNF over the schedule's
    rows, grouped with a stable sort so each VNF's users keep their
    schedule order — the object path's enumeration order for schedules
    built by :func:`~repro.scheduling.kernels.schedule_columns`.  The
    effective rates are widened to float64 *before* any way sum
    accumulates, so :data:`~repro.core.dtypes.LEAN_POLICY` columns
    (int32 indices, float32 rates) produce the byte-identical move
    sequence to the default policy whenever both hold the same values.

    Returns a new :class:`ScheduleArrays` preserving row order and the
    input's dtypes, plus the total number of accepted moves.  The
    refinement can assign a request to *any* of a VNF's ``M_f`` slots —
    not just slots already used — so the slot-index dtype must be able
    to hold the largest ``M_f``, guarded here via
    :func:`~repro.core.dtypes.ensure_index_capacity`.
    """
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds!r}")
    ensure_index_capacity(
        int(arrays.M_f.max(initial=0)),
        sched.k.dtype,
        "swap-refined instance slots",
    )
    new_k = sched.k.copy()
    moves = 0
    if len(sched):
        eff64 = arrays.eff_rate.astype(np.float64, copy=False)
        order = np.argsort(sched.vnf, kind="stable")
        vs = sched.vnf[order]
        starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
        bounds = np.r_[starts, len(vs)]
        for gi in range(len(starts)):
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            m = int(arrays.M_f[int(vs[lo])])
            if m <= 1:
                continue
            rows = order[lo:hi]
            refined, applied = refine_assignment(
                eff64[sched.req[rows]],
                sched.k[rows].tolist(),
                m,
                max_rounds,
            )
            new_k[rows] = np.asarray(refined, dtype=new_k.dtype)
            moves += applied
    inst = (arrays.instance_offset[sched.vnf] + new_k).astype(
        sched.inst.dtype, copy=False
    )
    return (
        ScheduleArrays(
            req=sched.req.copy(), vnf=sched.vnf.copy(), k=new_k, inst=inst
        ),
        moves,
    )


class SwapRefinedScheduler(SchedulingAlgorithm):
    """A base scheduler followed by move/swap makespan refinement.

    Parameters
    ----------
    base:
        The scheduler producing the starting assignment (default RCKK).
    max_rounds:
        Refinement rounds per VNF.
    """

    name = "SwapRefined"

    def __init__(
        self,
        base: Optional[SchedulingAlgorithm] = None,
        max_rounds: int = 20,
    ) -> None:
        self._base = base if base is not None else RCKKScheduler()
        self._max_rounds = max_rounds
        self.name = f"SwapRefined({self._base.name})"

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        base_result = self._base.schedule(problem)
        ids = [r.request_id for r in problem.requests]
        rates = problem.effective_rates()
        assignment = [base_result.assignment[rid] for rid in ids]
        refined, moves = refine_assignment(
            rates, assignment, problem.num_instances, self._max_rounds
        )
        result = ScheduleResult(
            assignment={rid: way for rid, way in zip(ids, refined)},
            problem=problem,
            iterations=base_result.iterations + moves,
            algorithm=self.name,
        )
        result.validate()
        return result
