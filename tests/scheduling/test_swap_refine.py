"""Unit tests for the move/swap schedule refinement."""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF
from repro.scheduling.base import SchedulingProblem
from repro.scheduling.rckk import RCKKScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.scheduling import swap_refine
from repro.scheduling.swap_refine import SwapRefinedScheduler, refine_assignment

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from _reference_impl import reference_refine_assignment  # noqa: E402

CHAIN = ServiceChain(["fw"])


def _problem(rates, instances=3):
    vnf = VNF("fw", 1.0, instances, 1e6)
    requests = [
        Request(f"r{i}", CHAIN, rate) for i, rate in enumerate(rates)
    ]
    return SchedulingProblem(vnf=vnf, requests=requests)


class TestRefineAssignment:
    def test_move_fixes_gross_imbalance(self):
        # All on way 0.
        rates = [5.0, 5.0, 5.0, 5.0]
        assignment, moves = refine_assignment(rates, [0, 0, 0, 0], 2)
        sums = [0.0, 0.0]
        for idx, way in enumerate(assignment):
            sums[way] += rates[idx]
        assert max(sums) == pytest.approx(10.0)
        assert moves > 0

    def test_swap_when_move_cannot_help(self):
        # Ways: [9, 1] and [5, 5]: moving 9 or 1 can't beat swapping 9<->5.
        rates = [9.0, 1.0, 5.0, 5.0]
        assignment, _ = refine_assignment(rates, [0, 0, 1, 1], 2)
        sums = [0.0, 0.0]
        for idx, way in enumerate(assignment):
            sums[way] += rates[idx]
        assert max(sums) == pytest.approx(10.0)

    def test_never_increases_makespan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rates = list(rng.uniform(1.0, 50.0, size=12))
            start = list(rng.integers(0, 4, size=12))
            before = max(
                sum(rates[i] for i in range(12) if start[i] == w)
                for w in range(4)
            )
            refined, _ = refine_assignment(rates, start, 4)
            after = max(
                sum(rates[i] for i in range(12) if refined[i] == w)
                for w in range(4)
            )
            assert after <= before + 1e-9

    def test_input_not_mutated(self):
        start = [0, 0, 1]
        refine_assignment([3.0, 2.0, 1.0], start, 2)
        assert start == [0, 0, 1]

    def test_bad_rounds(self):
        with pytest.raises(ValidationError):
            refine_assignment([1.0], [0], 1, max_rounds=0)


class TestRefineValidation:
    def test_negative_way(self):
        # Used to wrap to the last way and return [0, 0, 1].
        with pytest.raises(ValidationError):
            refine_assignment([3.0, 2.0, 1.0], [0, -1, 1], 2)

    def test_length_mismatch(self):
        # Used to ignore the extra rates.
        with pytest.raises(ValidationError):
            refine_assignment([3.0, 2.0, 1.0], [0, 1], 2)

    def test_nan_rate(self):
        with pytest.raises(ValidationError):
            refine_assignment([3.0, float("nan"), 1.0], [0, 0, 1], 2)

    def test_way_out_of_range(self):
        with pytest.raises(ValidationError):
            refine_assignment([3.0, 2.0, 1.0], [0, 2, 1], 2)

    def test_zero_ways(self):
        with pytest.raises(ValidationError):
            refine_assignment([], [], 0)


def _first_round_deltas(rates, assignment, num_ways):
    """The first round's candidate deltas in legacy scan order, by the
    reference scan's per-candidate makespan recomputation."""
    sums = [0.0] * num_ways
    members = [[] for _ in range(num_ways)]
    for idx, way in enumerate(assignment):
        sums[way] += rates[idx]
        members[way].append(idx)
    worst = max(range(num_ways), key=sums.__getitem__)
    makespan = sums[worst]

    def makespan_with(changes):
        return max(sums[w] + changes.get(w, 0.0) for w in range(num_ways))

    deltas = []
    for idx in members[worst]:
        r = rates[idx]
        for target in range(num_ways):
            if target == worst:
                continue
            deltas.append(makespan - makespan_with({worst: -r, target: r}))
            for jdx in members[target]:
                s = rates[jdx]
                if s < r:
                    deltas.append(
                        makespan - makespan_with({worst: s - r, target: r - s})
                    )
    return deltas


def _refine_spied(rates, assignment, num_ways, max_rounds):
    """``refine_assignment`` with each round's threshold and the number
    of exact-enumeration fallbacks recorded."""
    seen = {"thresholds": []}
    threshold = swap_refine._Round.threshold

    def spy_threshold(rnd):
        value = threshold(rnd)
        seen["thresholds"].append(value)
        return value

    with mock.patch.object(
        swap_refine._Round, "threshold", spy_threshold
    ), mock.patch.object(
        swap_refine,
        "_enumerated_winner",
        wraps=swap_refine._enumerated_winner,
    ) as fallback:
        out = refine_assignment(rates, assignment, num_ways, max_rounds)
        seen["fallbacks"] = fallback.call_count
    return out, seen


def _refine_cases(rates):
    """(rates, assignment, num_ways, max_rounds) with the start loaded
    onto the first few ways, so most examples run several rounds."""

    @st.composite
    def cases(draw):
        num_ways = draw(st.integers(2, 25))
        values = draw(st.lists(rates, min_size=1, max_size=30))
        spread = draw(st.integers(1, num_ways))
        assignment = draw(
            st.lists(
                st.integers(0, spread - 1),
                min_size=len(values),
                max_size=len(values),
            )
        )
        return values, assignment, num_ways, draw(st.integers(1, 30))

    return cases()


_INTEGER = st.integers(1, 9).map(float)
_DECIMAL = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.1])
_LARGE = st.floats(1e3, 1e6)
#: Integers nudged by multiples of the margin: deltas land in the band.
_NEAR_TIE = st.tuples(st.integers(1, 3), st.integers(0, 3)).map(
    lambda t: t[0] + t[1] * 1e-12
)


class TestRefineExactness:
    """The threshold selection replays the legacy scan move for move."""

    @settings(max_examples=200, deadline=None)
    @given(_refine_cases(st.one_of(_INTEGER, _DECIMAL, _LARGE)))
    def test_matches_reference(self, case):
        assert refine_assignment(*case) == reference_refine_assignment(*case)

    @settings(max_examples=100, deadline=None)
    @given(_refine_cases(_INTEGER))
    def test_matches_reference_integer_ties(self, case):
        assert refine_assignment(*case) == reference_refine_assignment(*case)

    @settings(max_examples=100, deadline=None)
    @given(_refine_cases(_DECIMAL))
    def test_matches_reference_decimal_rates(self, case):
        assert refine_assignment(*case) == reference_refine_assignment(*case)

    @settings(max_examples=100, deadline=None)
    @given(_refine_cases(_NEAR_TIE))
    def test_matches_reference_near_ties(self, case):
        assert refine_assignment(*case) == reference_refine_assignment(*case)

    @settings(max_examples=100, deadline=None)
    @given(_refine_cases(_LARGE))
    def test_matches_reference_large_rates(self, case):
        # Around 1e6 the makespan's ulp (1.2e-10) exceeds the margin.
        assert refine_assignment(*case) == reference_refine_assignment(*case)

    @settings(max_examples=100, deadline=None)
    @given(
        _refine_cases(st.one_of(_INTEGER, _DECIMAL, _LARGE, _NEAR_TIE)),
        st.floats(0.0, 1.0),
    )
    def test_any_threshold_is_exact(self, case, scale):
        # The lemma's checks, not the estimate, carry exactness: scaling
        # the estimate down must still select the legacy winner.
        threshold = swap_refine._Round.threshold
        with mock.patch.object(
            swap_refine._Round,
            "threshold",
            lambda rnd: threshold(rnd) * scale,
        ):
            got = refine_assignment(*case)
        assert got == reference_refine_assignment(*case)

    def test_fallback_when_nothing_improves(self):
        case = ([1.0, 1.0], [0, 1], 2, 5)
        (assignment, moves), seen = _refine_spied(*case)
        assert seen["thresholds"][0] < 1e-12
        assert seen["fallbacks"] == 1
        assert (assignment, moves) == ([0, 1], 0)
        assert (assignment, moves) == reference_refine_assignment(*case)

    def test_fallback_when_band_occupied(self):
        # Two candidates 1e-12 apart: the lower one sits in the band
        # (T - margin, T] below the threshold.
        case = ([1.000000000002, 2.0, 2.000000000001], [0, 0, 0], 3, 1)
        out, seen = _refine_spied(*case)
        T = seen["thresholds"][0]
        assert T >= 1e-12
        assert any(
            T - 1e-12 < x <= T for x in _first_round_deltas(*case[:3])
        )
        assert seen["fallbacks"] == 1
        assert out == reference_refine_assignment(*case)

    def test_fallback_when_a_candidate_beats_the_first(self):
        # With the threshold forced to 0.5 the band is empty, but the
        # first candidate above it (moving 1.0, delta 1) is not within a
        # margin of the best (moving 4.0, delta 4): check (b) fails.
        case = ([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0], 2, 1)
        deltas = _first_round_deltas(*case[:3])
        assert not any(0.5 - 1e-12 < x <= 0.5 for x in deltas)
        first = next(x for x in deltas if x > 0.5)
        assert max(deltas) > first + 1e-12
        with mock.patch.object(swap_refine._Round, "threshold", lambda rnd: 0.5):
            out, seen = _refine_spied(*case)
        assert seen["fallbacks"] == 1
        assert out == reference_refine_assignment(*case)

    def test_threshold_path_without_fallback(self):
        case = ([5.0, 4.0, 3.0, 2.0, 1.5], [0, 0, 0, 1, 1], 3, 1)
        out, seen = _refine_spied(*case)
        assert seen["fallbacks"] == 0
        assert out == reference_refine_assignment(*case)


class TestSwapRefinedScheduler:
    def test_improves_round_robin(self):
        rng = np.random.default_rng(1)
        rates = list(rng.uniform(1.0, 100.0, size=15))
        problem = _problem(rates, instances=4)
        rr = RoundRobinScheduler().schedule(problem)
        refined = SwapRefinedScheduler(
            base=RoundRobinScheduler()
        ).schedule(problem)
        assert max(refined.instance_rates()) <= max(rr.instance_rates()) + 1e-9

    def test_no_worse_than_rckk(self):
        rng = np.random.default_rng(2)
        for rep in range(10):
            rates = list(rng.uniform(1.0, 100.0, size=20))
            problem = _problem(rates, instances=5)
            rckk = RCKKScheduler().schedule(problem)
            refined = SwapRefinedScheduler().schedule(problem)
            assert (
                max(refined.instance_rates())
                <= max(rckk.instance_rates()) + 1e-9
            )

    def test_valid_schedule(self):
        problem = _problem([5.0, 4.0, 3.0, 2.0, 1.0])
        result = SwapRefinedScheduler().schedule(problem)
        result.validate()
        assert result.algorithm == "SwapRefined(RCKK)"
