"""Tests for difficulty profiling, reporting, and utils."""

import time

import numpy as np
import pytest

from repro.data.generators import load_em_benchmark
from repro.eval import f1_row, format_table, pair_jaccard, split_by_difficulty
from repro.utils import RngStream, Timer, spawn_rng


@pytest.fixture(scope="module")
def dataset():
    return load_em_benchmark("AB", scale=0.04, max_table_size=100)


class TestDifficultySplit:
    def test_five_levels(self, dataset):
        levels = split_by_difficulty(dataset)
        assert [l.level for l in levels] == [5, 4, 3, 2, 1]

    def test_levels_partition_pairs(self, dataset):
        levels = split_by_difficulty(dataset)
        total = sum(len(l.pairs) for l in levels)
        # Slicing may drop a handful at boundaries.
        assert total >= len(dataset.pairs.test) - 10

    def test_positive_ratio_roughly_preserved(self, dataset):
        levels = split_by_difficulty(dataset)
        overall = np.mean([p.label for p in dataset.pairs.test])
        for level in levels:
            if level.pairs:
                ratio = np.mean([p.label for p in level.pairs])
                assert abs(ratio - overall) < 0.2

    def test_hard_level_has_low_positive_jaccard(self, dataset):
        levels = split_by_difficulty(dataset)
        hardest = next(l for l in levels if l.level == 5)
        easiest = next(l for l in levels if l.level == 1)
        assert hardest.positive_jaccard_range[0] <= easiest.positive_jaccard_range[0]

    def test_pair_jaccard_bounds(self, dataset):
        for pair in dataset.pairs.test[:20]:
            assert 0.0 <= pair_jaccard(dataset, pair) <= 1.0


class TestReporting:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [["x", 1.234], ["y", None]])
        assert "a" in text and "x" in text
        assert "1.2" in text
        assert "-" in text  # None rendered as dash

    def test_format_table_title(self):
        text = format_table(["h"], [["v"]], title="Table V")
        assert text.startswith("Table V")

    def test_f1_row_average(self):
        row = f1_row(
            "method",
            {"AB": {"f1": 0.5}, "AG": {"f1": 0.7}},
            ["AB", "AG", "DA"],
        )
        assert row[0] == "method"
        assert row[1] == pytest.approx(50.0)
        assert row[3] is None  # missing DA
        assert row[4] == pytest.approx(60.0)


class TestUtils:
    def test_spawn_rng_deterministic(self):
        a = spawn_rng(7, "x").random(3)
        b = spawn_rng(7, "x").random(3)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rng_independent_names(self):
        a = spawn_rng(7, "x").random(3)
        b = spawn_rng(7, "y").random(3)
        assert not np.array_equal(a, b)

    def test_rng_stream_caches(self):
        stream = RngStream(3)
        g1 = stream.get("a")
        g2 = stream.get("a")
        assert g1 is g2

    def test_timer_sections(self):
        timer = Timer()
        with timer.section("work"):
            time.sleep(0.01)
        assert timer.total("work") >= 0.01
        assert timer.counts["work"] == 1
