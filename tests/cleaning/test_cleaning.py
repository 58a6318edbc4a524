"""Tests for candidate generation, the ``clean`` task, repair scoring, and
baselines."""

import numpy as np
import pytest

from repro.api import SudowoodoConfig, SudowoodoSession, TaskNotFittedError
from repro.cleaning import (
    BaranCorrector,
    CandidateGenerator,
    FormatTool,
    RahaDetector,
    TypoTool,
    ValueFrequencyTool,
    cleaning_corpus,
    run_perfect_ed_baran,
    run_raha_baran,
    score_repairs,
)
from repro.cleaning.cleaner import context_schema
from repro.data.generators import load_cleaning_dataset


@pytest.fixture(scope="module")
def beers():
    return load_cleaning_dataset("beers", scale=0.03)


@pytest.fixture(scope="module")
def generator(beers):
    return CandidateGenerator().fit(beers)


class TestTools:
    def test_frequency_tool_fills_missing(self, beers):
        tool = ValueFrequencyTool(top=3).fit(beers)
        proposals = tool.candidates(0, "style", "")
        assert 1 <= len(proposals) <= 3

    def test_frequency_tool_skips_filled(self, beers):
        tool = ValueFrequencyTool().fit(beers)
        assert tool.candidates(0, "style", "lager") == []

    def test_typo_tool_proposes_frequent_neighbor(self, beers):
        tool = TypoTool().fit(beers)
        proposals = tool.candidates(0, "state", "xx")
        # Either nothing or near-matches; never the input itself.
        assert "xx" not in proposals

    def test_typo_tool_requires_higher_frequency(self, beers):
        tool = TypoTool().fit(beers)
        common_state = beers.dirty.column_values("state")[0]
        # A value as frequent as itself is never "corrected" to a peer
        # with equal or lower frequency.
        proposals = tool.candidates(0, "state", common_state)
        counts = {}
        for v in beers.dirty.column_values("state"):
            counts[v] = counts.get(v, 0) + 1
        for proposal in proposals:
            assert counts[proposal] > counts.get(common_state, 0)

    def test_format_tool_percent(self):
        tool = FormatTool()
        assert "0.085" in tool.candidates(0, "abv", "8.5%")

    def test_format_tool_commas(self):
        tool = FormatTool()
        assert "25000" in tool.candidates(0, "salary", "25,000")

    def test_format_tool_ounce(self):
        tool = FormatTool()
        assert "16" in tool.candidates(0, "ounces", "16.0 ounce")

    def test_format_tool_uppercase(self):
        tool = FormatTool()
        assert "lager" in tool.candidates(0, "style", "LAGER")

    def test_dependency_tool_implies_from_determinant(self, beers, generator):
        # Find a VAD error cell and check the implied value is proposed.
        for (row, attribute), etype in beers.error_types.items():
            if etype == "VAD":
                truth = beers.ground_truth(row, attribute)
                proposals = generator.candidates(row, attribute)
                assert truth in proposals
                break


class TestCandidateGenerator:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            CandidateGenerator().candidates(0, "style")

    def test_original_value_included(self, beers, generator):
        value = beers.dirty[0].get("style")
        assert value in generator.candidates(0, "style")

    def test_stats_fields(self, generator):
        stats = generator.stats()
        assert 0.0 <= stats.coverage <= 1.0
        assert stats.mean_candidates >= 1.0

    def test_coverage_reasonable(self, generator):
        # The tool bank recovers well over half of injected errors.
        assert generator.stats().coverage > 0.5

    def test_cache_consistency(self, beers, generator):
        first = generator.candidates(1, "city")
        second = generator.candidates(1, "city")
        assert first == second
        assert first is not second  # caller-safe copies


class TestRahaDetector:
    def test_detects_majority_of_errors(self, beers):
        metrics = RahaDetector().evaluate(beers)
        assert metrics["recall"] > 0.4

    def test_precision_nontrivial(self, beers):
        metrics = RahaDetector().evaluate(beers)
        assert metrics["precision"] > 0.3

    def test_detect_returns_cells(self, beers):
        detected = RahaDetector().detect(beers)
        for row, attribute in detected:
            assert 0 <= row < len(beers.dirty)
            assert attribute in beers.schema


class TestBaran:
    def test_perfect_ed_beats_raha(self, beers, generator):
        raha = run_raha_baran(beers, generator)
        perfect = run_perfect_ed_baran(beers, generator)
        assert perfect.f1 >= raha.f1

    def test_report_fields(self, beers, generator):
        report = run_perfect_ed_baran(beers, generator)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert report.repaired >= 0

    def test_corrector_fit_and_correct(self, beers, generator):
        corrector = BaranCorrector().fit(beers, generator, labeled_rows=10)
        repairs = corrector.correct(beers.error_cells()[:5])
        for cell, candidate in repairs.items():
            assert candidate != beers.dirty[cell[0]].get(cell[1])


class TestCleanTask:
    """The ``clean`` session task on a tiny pre-trained session."""

    def tiny_config(self, **overrides):
        defaults = dict(
            dim=16,
            num_layers=1,
            num_heads=2,
            ffn_dim=32,
            max_seq_len=24,
            pair_max_seq_len=48,
            vocab_size=600,
            pretrain_epochs=1,
            pretrain_batch_size=8,
            finetune_epochs=2,
            finetune_batch_size=8,
            num_clusters=3,
            corpus_cap=64,
            mlm_warm_start_epochs=0,
            seed=0,
        )
        defaults.update(overrides)
        return SudowoodoConfig.for_task("clean", **defaults)

    @pytest.fixture(scope="class")
    def task(self, beers, generator):
        session = SudowoodoSession(self.tiny_config())
        session.pretrain(cleaning_corpus(beers, generator))
        return session.task("clean").fit(beers, generator, labeled_rows=12)

    def test_fit_and_evaluate(self, task):
        report = task.report()
        assert 0.0 <= report.f1 <= 1.0
        assert report.dataset == "beers"
        assert report.metrics == task.evaluate()

    def test_correct_returns_actual_changes(self, task, beers):
        repairs = task.predict()
        for (row, attribute), candidate in repairs.items():
            assert candidate != beers.dirty[row].get(attribute)

    def test_requires_fit_before_correct(self, task):
        with pytest.raises(TaskNotFittedError):
            task.session.task("clean", fresh=True).predict()

    def test_rejects_bad_serialization(self, task):
        # The contextual scheme is the only one: the keyword is gone.
        with pytest.raises(TypeError, match="serialization"):
            task.session.task("clean", fresh=True, serialization="contextual")

    def test_context_schema_includes_determinant(self, beers):
        window = context_schema(beers, "city")
        assert "brewery_id" in window  # brewery_id -> city FD
        assert "city" in window

    def test_warm_only_session_fits(self, beers, generator):
        """The RoBERTa-base ablation row is a session whose config has
        ``pretrain_epochs=0`` (no contrastive step); the task still fits."""
        session = SudowoodoSession(self.tiny_config(pretrain_epochs=0))
        session.pretrain(cleaning_corpus(beers, generator))
        task = session.task("clean").fit(beers, generator, labeled_rows=12)
        assert 0.0 <= task.evaluate()["f1"] <= 1.0


class TestScoreRepairs:
    def test_matches_hand_count_and_respects_excluded_rows(self, beers):
        errors = beers.error_cells()
        (good_row, good_attr), (bad_row, bad_attr) = errors[0], errors[-1]
        repairs = {
            (good_row, good_attr): beers.ground_truth(good_row, good_attr),
            (bad_row, bad_attr): "definitely wrong",
        }
        report = score_repairs(beers, repairs)
        assert report.repaired == 2
        assert report.precision == 0.5
        assert report.recall == pytest.approx(1 / len(errors))
        excluded = score_repairs(beers, repairs, exclude_rows=[bad_row])
        assert excluded.repaired == 1 and excluded.precision == 1.0
        remaining = [cell for cell in errors if cell[0] != bad_row]
        assert excluded.recall == pytest.approx(1 / len(remaining))

    def test_baran_evaluate_uses_the_same_arithmetic(self, beers, generator):
        corrector = BaranCorrector().fit(beers, generator, labeled_rows=10)
        cells = beers.error_cells()
        report = corrector.evaluate(cells, "PerfectED+Baran")
        expected = score_repairs(beers, corrector.correct(cells))
        assert report.dataset == "beers (PerfectED+Baran)"
        assert (report.precision, report.recall, report.f1, report.repaired) == (
            expected.precision,
            expected.recall,
            expected.f1,
            expected.repaired,
        )
