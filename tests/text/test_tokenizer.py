"""Tests for the tokenizer and serialization encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    CLS,
    COL,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    VAL,
    Tokenizer,
    word_tokenize,
)
from repro.text.tokenizer import Encoding


class TestWordTokenize:
    def test_lowercases(self):
        assert word_tokenize("Instant IMMERSION") == ["instant", "immersion"]

    def test_preserves_special_tokens(self):
        tokens = word_tokenize("[COL] title [VAL] spanish 2.0")
        assert tokens == ["[COL]", "title", "[VAL]", "spanish", "2.0"]

    def test_decimal_numbers_stay_whole(self):
        assert word_tokenize("price 36.11") == ["price", "36.11"]

    def test_punctuation_split(self):
        assert word_tokenize("4th-6th") == ["4th", "-", "6th"]

    def test_empty(self):
        assert word_tokenize("") == []

    def test_markers_without_surrounding_whitespace_stay_whole(self):
        # Regression: markers glued to their neighbours used to shred into
        # "[", "col", "]" garbage tokens.
        assert word_tokenize("[COL]name[VAL]3") == ["[COL]", "name", "[VAL]", "3"]

    def test_adjacent_markers(self):
        assert word_tokenize("[COL][VAL]x") == ["[COL]", "[VAL]", "x"]

    def test_marker_mid_word(self):
        assert word_tokenize("foo[SEP]bar") == ["foo", "[SEP]", "bar"]

    def test_marker_case_sensitive(self):
        # Only the canonical uppercase spelling is a special token; a
        # lowercase look-alike tokenizes as ordinary text.
        assert word_tokenize("[col] x") == ["[", "col", "]", "x"]

    def test_glued_markers_match_spaced_serialization(self):
        spaced = word_tokenize("[COL] name [VAL] 3 [COL] price [VAL] 4.5")
        glued = word_tokenize("[COL]name[VAL]3 [COL]price[VAL]4.5")
        assert glued == spaced


def make_tokenizer():
    corpus = [
        "[COL] title [VAL] instant immersion spanish deluxe 2.0",
        "[COL] title [VAL] adventure workshop 4th-6th grade",
        "[COL] price [VAL] 36.11",
    ]
    return Tokenizer.fit(corpus, vocab_size=100)


class TestTokenizer:
    def test_special_tokens_first(self):
        tok = make_tokenizer()
        for i, token in enumerate(SPECIAL_TOKENS):
            assert tok.vocab[token] == i

    def test_encode_has_cls_and_sep(self):
        tok = make_tokenizer()
        enc = tok.encode("instant spanish", max_len=8)
        assert enc.token_ids[0] == tok.cls_id
        assert enc.token_ids[len(enc) - 1] == tok.sep_id

    def test_encode_pads_to_max_len(self):
        tok = make_tokenizer()
        enc = tok.encode("instant", max_len=10)
        assert enc.token_ids.shape == (10,)
        assert enc.attention_mask.sum() == 3  # CLS + token + SEP
        assert (enc.token_ids[3:] == tok.pad_id).all()

    def test_encode_truncates(self):
        tok = make_tokenizer()
        enc = tok.encode("instant immersion spanish deluxe adventure", max_len=4)
        assert len(enc) == 4
        assert enc.token_ids[-1] == tok.sep_id

    def test_unknown_tokens_map_to_unk(self):
        tok = make_tokenizer()
        enc = tok.encode("zzzzz", max_len=5)
        assert enc.token_ids[1] == tok.unk_id

    def test_encode_pair_segments(self):
        tok = make_tokenizer()
        enc = tok.encode_pair("instant spanish", "adventure grade", max_len=16)
        # Segment 0 covers CLS + left + first SEP; segment 1 the rest.
        sep_positions = np.flatnonzero(enc.token_ids == tok.sep_id)
        assert len(sep_positions) == 2
        first_sep = sep_positions[0]
        assert (enc.segment_ids[: first_sep + 1] == 0).all()
        active = enc.attention_mask == 1
        assert (enc.segment_ids[first_sep + 1 :][active[first_sep + 1 :]] == 1).all()

    def test_encode_pair_truncation_keeps_both_sides(self):
        tok = make_tokenizer()
        left = "instant immersion spanish deluxe instant immersion spanish"
        right = "adventure workshop grade adventure workshop grade"
        enc = tok.encode_pair(left, right, max_len=12)
        assert len(enc) == 12
        assert (enc.segment_ids[enc.attention_mask == 1] == 1).sum() >= 3

    def test_encode_batch_shapes(self):
        tok = make_tokenizer()
        enc = tok.encode_batch(["instant", "spanish deluxe"], max_len=6)
        # Cut to the longest row ([CLS] spanish deluxe [SEP]), not to max_len.
        assert enc.token_ids.shape == (2, 4)
        assert enc.attention_mask.shape == (2, 4)

    def test_decode_roundtrip(self):
        tok = make_tokenizer()
        enc = tok.encode("instant spanish", max_len=8)
        assert tok.decode(enc.token_ids) == "[CLS] instant spanish [SEP]"

    def test_vocab_size_cap(self):
        tok = Tokenizer.fit(["a b c d e f g h"], vocab_size=10)
        assert tok.vocab_size == 10

    def test_min_count_filters(self):
        tok = Tokenizer.fit(["rare common common"], vocab_size=100, min_count=2)
        assert "common" in tok.vocab
        assert "rare" not in tok.vocab

    def test_rejects_bad_vocab_order(self):
        with pytest.raises(ValueError):
            Tokenizer({"x": 0})


@settings(max_examples=30, deadline=None)
@given(
    text=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
        max_size=40,
    ),
    max_len=st.integers(min_value=4, max_value=32),
)
def test_property_encoding_invariants(text, max_len):
    tok = make_tokenizer()
    enc = tok.encode(text, max_len=max_len)
    assert enc.token_ids.shape == (max_len,)
    # Attention mask is a prefix of ones.
    active = int(enc.attention_mask.sum())
    assert (enc.attention_mask[:active] == 1).all()
    assert (enc.attention_mask[active:] == 0).all()
    # All padding positions hold pad_id.
    assert (enc.token_ids[active:] == tok.pad_id).all()
    # Starts with CLS, last active token is SEP.
    assert enc.token_ids[0] == tok.cls_id
    assert enc.token_ids[active - 1] == tok.sep_id


WORDS = st.sampled_from(["instant", "spanish", "deluxe", "immersion", "zzz", "[COL]"])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.lists(WORDS, max_size=12), st.lists(WORDS, max_size=12)),
        min_size=1,
        max_size=6,
    ),
    max_len=st.integers(min_value=4, max_value=24),
    pairs=st.booleans(),
)
def test_property_stack_cuts_to_the_longest_row(rows, max_len, pairs):
    tok = make_tokenizer()
    if pairs:
        items = [
            tok.encode_pair(" ".join(a), " ".join(b), max_len=max_len) for a, b in rows
        ]
    else:
        items = [tok.encode(" ".join(a + b), max_len=max_len) for a, b in rows]
    batch = Encoding.stack(items)
    full = {
        name: np.stack([getattr(item, name) for item in items])
        for name in ("token_ids", "attention_mask", "segment_ids")
    }
    width = max(len(item) for item in items)
    assert 2 <= width <= max_len
    for name, rows_at_max_len in full.items():
        cut = getattr(batch, name)
        # Width = the longest row; what stays is what was there, in a
        # contiguous buffer of its own (at full length: the stacked one).
        assert cut.shape == (len(items), width)
        assert cut.flags.c_contiguous and cut.base is None
        np.testing.assert_array_equal(cut, rows_at_max_len[:, :width])
    # Every dropped column is [PAD] with mask 0 (and segment 0) in every row.
    assert (full["token_ids"][:, width:] == tok.pad_id).all()
    assert not full["attention_mask"][:, width:].any()
    assert not full["segment_ids"][:, width:].any()
    assert batch.attention_mask.sum() == full["attention_mask"].sum()


def test_stack_never_cuts_below_cls_sep():
    tok = make_tokenizer()
    batch = tok.encode_batch(["", ""], max_len=8)
    assert batch.token_ids.tolist() == [[tok.cls_id, tok.sep_id]] * 2
    assert batch.attention_mask.tolist() == [[1, 1]] * 2
