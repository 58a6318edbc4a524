"""Data model: records, tables, and the paper's serialization schemes.

Everything Sudowoodo matches — entity entries, cell corrections, table
columns — is reduced to a *serialized data item*: a token sequence with
``[COL]``/``[VAL]`` structure markers (Section II-B, following Ditto).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Record:
    """One entity entry: an id plus attribute name -> string value.

    Frozen, and nothing writes into ``attributes`` in place: a changed
    row is a new record (:meth:`with_value`).  ``profile_lake`` relies on
    this to tell an unchanged table by comparing its records lists.
    """

    record_id: int
    attributes: Dict[str, str]

    def get(self, attribute: str) -> str:
        return self.attributes.get(attribute, "")

    def with_value(self, attribute: str, value: str) -> "Record":
        updated = dict(self.attributes)
        updated[attribute] = value
        return Record(self.record_id, updated)

    def text(self) -> str:
        """All attribute values joined — used by TF-IDF and Jaccard."""
        return " ".join(v for v in self.attributes.values() if v)


@dataclass
class Table:
    """An ordered collection of records sharing a schema."""

    name: str
    schema: List[str]
    records: List[Record] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    def append(self, attributes: Dict[str, str]) -> Record:
        record = Record(len(self.records), dict(attributes))
        self.records.append(record)
        return record

    def column_values(self, attribute: str) -> List[str]:
        return [record.get(attribute) for record in self.records]


def serialize_record(record: Record, schema: Optional[Sequence[str]] = None) -> str:
    """Ditto-style serialization:

    ``[COL] title [VAL] instant immers ... [COL] price [VAL] 36.11``

    Attributes with empty values keep their ``[COL]`` marker with an empty
    ``[VAL]`` (matching the serialized examples in the paper's Figure 13).
    """
    names = schema if schema is not None else list(record.attributes)
    parts = []
    for name in names:
        parts.append(f"[COL] {name} [VAL] {record.get(name)}".rstrip())
    return " ".join(parts)


def serialize_row_contextual(
    record: Record,
    schema: Sequence[str],
    replace_attribute: Optional[str] = None,
    replacement: Optional[str] = None,
) -> str:
    """Contextual serialization for cleaning (Section V-A): the full row,
    optionally with one cell replaced by a candidate correction."""
    parts = []
    for name in schema:
        value = record.get(name)
        if replace_attribute is not None and name == replace_attribute:
            value = replacement if replacement is not None else value
        parts.append(f"[COL] {name} [VAL] {value}".rstrip())
    return " ".join(parts)


def serialize_column(values: Sequence[str], max_values: Optional[int] = None) -> str:
    """Column serialization for type discovery (Section V-B):

    ``[VAL] New York [VAL] California [VAL] Florida``

    Deliberately bare-bone: no column names or table metadata, matching the
    paper's choice to demonstrate content-only matching.
    """
    chosen = list(values if max_values is None else values[:max_values])
    return " ".join(f"[VAL] {v}".rstrip() for v in chosen)


@dataclass(frozen=True)
class LabeledPair:
    """A labeled candidate pair: indices into tables A and B plus 0/1 label."""

    left: int
    right: int
    label: int


@dataclass
class PairSplit:
    """Train/valid/test labeled pairs (the DeepMatcher dataset layout)."""

    train: List[LabeledPair] = field(default_factory=list)
    valid: List[LabeledPair] = field(default_factory=list)
    test: List[LabeledPair] = field(default_factory=list)

    def all_pairs(self) -> List[LabeledPair]:
        return self.train + self.valid + self.test

    def positive_rate(self) -> float:
        pairs = self.all_pairs()
        if not pairs:
            return 0.0
        return sum(p.label for p in pairs) / len(pairs)
