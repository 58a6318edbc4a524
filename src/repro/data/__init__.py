"""Data model and synthetic benchmark generators."""

from .em_dataset import EMDataset
from .records import (
    LabeledPair,
    PairSplit,
    Record,
    Table,
    serialize_column,
    serialize_record,
    serialize_row_contextual,
)

__all__ = [
    "EMDataset",
    "LabeledPair",
    "PairSplit",
    "Record",
    "Table",
    "serialize_column",
    "serialize_record",
    "serialize_row_contextual",
]
