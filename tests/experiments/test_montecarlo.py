"""Tests for the shared Monte-Carlo execution engine."""

import warnings

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import montecarlo
from repro.experiments.montecarlo import (
    compute_chunksize,
    resolve_jobs,
    run_trials,
)
from repro.seeding import trial_rng


def _square(task):
    return task * task


def _seeded_draw(task):
    seed, index = task
    return float(trial_rng(seed, index).uniform())


def _explode(task):
    raise ValueError(f"boom on {task}")


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_auto_is_at_least_one(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestRunTrials:
    def test_serial_preserves_task_order(self):
        assert run_trials(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_task_order(self):
        tasks = list(range(20))
        assert run_trials(_square, tasks, jobs=4) == [t * t for t in tasks]

    def test_empty_task_list(self):
        assert run_trials(_square, [], jobs=4) == []

    def test_results_identical_at_any_jobs_level(self):
        tasks = [(123, i) for i in range(12)]
        serial = run_trials(_seeded_draw, tasks, jobs=1)
        parallel = run_trials(_seeded_draw, tasks, jobs=3)
        assert serial == parallel

    def test_non_picklable_fn_falls_back_to_serial(self):
        offset = 10
        closure = lambda task: task + offset  # noqa: E731
        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert run_trials(closure, [1, 2, 3], jobs=4) == [11, 12, 13]

    def test_pool_start_failure_warns_and_runs_serially(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no process pools here")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", refuse)
        tasks = [(123, i) for i in range(6)]
        with pytest.warns(RuntimeWarning, match="no process pools here"):
            got = run_trials(_seeded_draw, tasks, jobs=3)
        assert got == [_seeded_draw(task) for task in tasks]

    def test_serial_run_never_warns(self):
        offset = 10
        closure = lambda task: task + offset  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_trials(closure, [1, 2, 3], jobs=1) == [11, 12, 13]

    def test_trial_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom"):
            run_trials(_explode, [1, 2], jobs=1)

    def test_trial_exception_propagates_parallel(self):
        with pytest.raises(ValueError, match="boom"):
            run_trials(_explode, [1, 2], jobs=2)


class TestChunkedSubmission:
    def test_chunksize_targets_four_chunks_per_worker(self):
        assert compute_chunksize(80, 4) == 5
        assert compute_chunksize(100, 4) == 7

    def test_chunksize_never_below_one(self):
        assert compute_chunksize(3, 8) == 1
        assert compute_chunksize(0, 4) == 1
        assert compute_chunksize(5, 0) == 1

    def test_results_identical_across_jobs_with_multi_chunk_split(self):
        # Enough tasks that every jobs level yields chunksize > 1 and
        # several chunks per worker — the by-index reduction must still
        # reassemble exactly the serial order.
        tasks = [(97, i) for i in range(50)]
        serial = run_trials(_seeded_draw, tasks, jobs=1)
        for jobs in (2, 3, 5):
            assert run_trials(_seeded_draw, tasks, jobs=jobs) == serial

    def test_chunk_boundary_counts(self):
        # Task counts around chunk boundaries (multiples, off-by-one).
        for n in (7, 8, 9, 16, 17):
            tasks = list(range(n))
            assert run_trials(_square, tasks, jobs=2) == [
                t * t for t in tasks
            ]
