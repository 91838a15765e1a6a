"""Smoke + acceptance tests for the churn serving experiment."""

from __future__ import annotations

import pytest

from repro.experiments import churn
from repro.experiments.harness import ExperimentResult
from repro.experiments.registry import get


@pytest.fixture(scope="module")
def churn_result(monkeypatch_module):
    """One repetition over a shortened trace (minutes, not hours)."""
    monkeypatch_module.setattr(churn, "DURATION", 600.0)
    monkeypatch_module.setattr(churn, "MEAN_HOLDING", 120.0)
    monkeypatch_module.setattr(churn, "REBALANCE_EVERY", 5)
    return churn.run(repetitions=1)


@pytest.fixture(scope="module")
def monkeypatch_module():
    from _pytest.monkeypatch import MonkeyPatch

    mp = MonkeyPatch()
    yield mp
    mp.undo()


class TestRegistration:
    def test_registered_under_its_module_name(self):
        spec = get("churn")
        assert spec.runner is churn.run
        assert "serving" in spec.tags


class TestShape:
    def test_rows_and_columns(self, churn_result):
        variants = [row["variant"] for row in churn_result.rows]
        assert variants == ["incremental", "full-resolve", "probe_2k"]
        assert churn_result.columns[0] == "variant"
        assert churn_result.notes  # methodology is documented

    def test_incremental_is_faster_per_arrival(self, churn_result):
        by_variant = {row["variant"]: row for row in churn_result.rows}
        timings = churn_result.meta["timings"]
        inc = timings["incremental"]
        full = timings["full-resolve"]
        assert inc["re_embed_ms"] < full["re_embed_ms"]
        assert inc["speedup_vs_resolve"] > 1.0
        assert 0.0 <= by_variant["incremental"]["rejection_rate"] <= 1.0
        assert 0.0 <= by_variant["full-resolve"]["rejection_rate"] <= 1.0

    def test_probe_row_carries_the_acceptance_number(self, churn_result):
        probe = churn_result.meta["timings"]["probe_2k"]
        assert probe["speedup_vs_resolve"] > 1.0
        assert probe["re_embed_ms"] > 0.0
        assert any(
            "acceptance floor met" in note for note in churn_result.notes
        )

    def test_timings_stay_out_of_the_rendered_report(self, churn_result):
        # Wall-clock figures differ on every run; the rendered report
        # must not, so two results differing only in timings render
        # identically while the timings still reach to_dict/--json.
        twin = ExperimentResult.from_dict(churn_result.to_dict())
        twin.meta["timings"] = {
            variant: {key: value * 3.0 for key, value in figures.items()}
            for variant, figures in churn_result.meta["timings"].items()
        }
        assert twin.render() == churn_result.render()
        assert twin.to_dict()["meta"]["timings"] != (
            churn_result.to_dict()["meta"]["timings"]
        )
        assert "re_embed_ms" not in churn_result.columns


class TestAcceptance:
    def test_admit_is_50x_faster_than_resolve_at_2k(self):
        """ISSUE acceptance bar: warm-start admit >= 50x a from-scratch
        joint solve at 2000 active requests (measured ~3 orders)."""
        probe = churn.probe_speedup()
        assert probe["speedup"] >= 50.0
        assert probe["resolve_ms"] > probe["admit_ms"]


class TestAdmissionPolicySelection:
    def test_unknown_policy_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="admission"):
            churn.run(repetitions=1, admission="random")

    def test_power_of_two_runs_and_notes(self, monkeypatch):
        monkeypatch.setattr(churn, "DURATION", 600.0)
        monkeypatch.setattr(churn, "MEAN_HOLDING", 120.0)
        monkeypatch.setattr(churn, "REBALANCE_EVERY", 5)
        result = churn.run(repetitions=1, admission="power-of-two")
        variants = [row["variant"] for row in result.rows]
        assert variants == ["incremental", "full-resolve", "probe_2k"]
        assert any("power-of-two" in note for note in result.notes)

    def test_default_run_carries_no_policy_note(self, churn_result):
        assert not any(
            "power-of-two" in note for note in churn_result.notes
        )

    def test_power_of_two_deterministic_across_jobs(self, monkeypatch):
        monkeypatch.setattr(churn, "DURATION", 600.0)
        monkeypatch.setattr(churn, "MEAN_HOLDING", 120.0)
        monkeypatch.setattr(churn, "REBALANCE_EVERY", 5)
        serial = churn.run(
            repetitions=2, admission="power-of-two", jobs=1
        )
        parallel = churn.run(
            repetitions=2, admission="power-of-two", jobs=2
        )
        # Every rendered column is deterministic (wall-clock figures
        # live in meta["timings"]), so whole rows must match.
        assert serial.rows == parallel.rows
