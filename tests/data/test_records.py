"""Tests for the record model and serialization schemes."""

import pytest

from repro.data import (
    LabeledPair,
    PairSplit,
    Record,
    Table,
    serialize_column,
    serialize_record,
    serialize_row_contextual,
)


def make_record():
    return Record(0, {"title": "instant immersion spanish", "price": "36.11"})


class TestRecord:
    def test_get_missing_returns_empty(self):
        assert make_record().get("nope") == ""

    def test_with_value_is_functional(self):
        record = make_record()
        updated = record.with_value("price", "17.10")
        assert record.get("price") == "36.11"
        assert updated.get("price") == "17.10"

    def test_text_joins_values(self):
        assert "36.11" in make_record().text()
        assert "spanish" in make_record().text()


class TestTable:
    def test_append_assigns_ids(self):
        table = Table("t", ["a"])
        r0 = table.append({"a": "x"})
        r1 = table.append({"a": "y"})
        assert (r0.record_id, r1.record_id) == (0, 1)

    def test_column_values(self):
        table = Table("t", ["a", "b"])
        table.append({"a": "1", "b": "2"})
        table.append({"a": "3", "b": "4"})
        assert table.column_values("b") == ["2", "4"]

    def test_iteration_and_len(self):
        table = Table("t", ["a"])
        table.append({"a": "x"})
        assert len(table) == 1
        assert [r.get("a") for r in table] == ["x"]


class TestSerialization:
    def test_record_serialization_matches_paper_format(self):
        text = serialize_record(make_record(), ["title", "price"])
        assert text == (
            "[COL] title [VAL] instant immersion spanish [COL] price [VAL] 36.11"
        )

    def test_record_serialization_keeps_empty_values(self):
        record = Record(0, {"title": "x", "manufacturer": ""})
        text = serialize_record(record, ["title", "manufacturer"])
        assert text.endswith("[COL] manufacturer [VAL]")

    def test_schema_order_respected(self):
        text = serialize_record(make_record(), ["price", "title"])
        assert text.startswith("[COL] price")

    def test_row_contextual_replacement(self):
        record = Record(0, {"city": "redmond", "state": "ca"})
        text = serialize_row_contextual(
            record, ["city", "state"], replace_attribute="state", replacement="wa"
        )
        assert "[COL] state [VAL] wa" in text
        assert "[VAL] ca" not in text

    def test_column_serialization(self):
        text = serialize_column(["new york", "california"])
        assert text == "[VAL] new york [VAL] california"

    def test_column_serialization_caps_values(self):
        text = serialize_column(["a", "b", "c"], max_values=2)
        assert text == "[VAL] a [VAL] b"


class TestPairSplit:
    def test_positive_rate(self):
        split = PairSplit(
            train=[LabeledPair(0, 0, 1), LabeledPair(0, 1, 0)],
            valid=[LabeledPair(1, 1, 0)],
            test=[LabeledPair(2, 2, 0)],
        )
        assert split.positive_rate() == pytest.approx(0.25)

    def test_empty_rate_is_zero(self):
        assert PairSplit().positive_rate() == 0.0

    def test_all_pairs_order(self):
        split = PairSplit(
            train=[LabeledPair(0, 0, 1)],
            valid=[LabeledPair(1, 1, 0)],
            test=[LabeledPair(2, 2, 0)],
        )
        assert len(split.all_pairs()) == 3
