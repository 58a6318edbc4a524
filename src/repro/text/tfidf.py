"""TF-IDF featurization used by clustering-based negative sampling.

Algorithm 2 of the paper featurizes the unlabeled corpus with TF-IDF before
k-means.  This implementation produces L2-normalized dense (or scipy CSR)
matrices; corpora here are small enough that dense is usually fine, but the
sparse path is exercised for larger column corpora.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .tokenizer import word_tokenize


class TfidfVectorizer:
    """Fit a TF-IDF model on tokenized documents.

    * TF: raw counts, optionally sublinear (1 + log tf).
    * IDF: smoothed, ``log((1 + n) / (1 + df)) + 1``.
    * Rows are L2 normalized, so dot products equal cosine similarity.
    """

    def __init__(
        self,
        max_features: Optional[int] = None,
        min_df: int = 1,
        sublinear_tf: bool = True,
    ) -> None:
        self.max_features = max_features
        self.min_df = min_df
        self.sublinear_tf = sublinear_tf
        self.vocabulary: Dict[str, int] = {}
        self.idf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        doc_freq: Counter = Counter()
        for doc in documents:
            doc_freq.update(set(word_tokenize(doc)))
        items = [(t, df) for t, df in doc_freq.items() if df >= self.min_df]
        # Keep the highest-document-frequency terms if capped, with a
        # deterministic alphabetical tie-break.
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        if self.max_features is not None:
            items = items[: self.max_features]
        kept_terms = sorted(term for term, _ in items)
        self.vocabulary = {term: i for i, term in enumerate(kept_terms)}
        n_docs = len(documents)
        idf = np.zeros(len(self.vocabulary))
        for token, index in self.vocabulary.items():
            df = doc_freq[token]
            idf[index] = math.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        self.idf = idf
        return self

    def transform(self, documents: Sequence[str], dense: bool = True):
        """Vectorize documents; returns ndarray (dense) or CSR matrix."""
        if self.idf is None:
            raise RuntimeError("TfidfVectorizer must be fit before transform")
        # Deferred: ``import repro`` should not pay scipy's ~14 MB for a
        # vectorizer only cluster sampling and three baselines call.
        from scipy import sparse

        rows: List[int] = []
        cols: List[int] = []
        values: List[float] = []
        for row, doc in enumerate(documents):
            counts = Counter(
                self.vocabulary[t]
                for t in word_tokenize(doc)
                if t in self.vocabulary
            )
            for col, count in counts.items():
                tf = 1.0 + math.log(count) if self.sublinear_tf else float(count)
                rows.append(row)
                cols.append(col)
                values.append(tf * self.idf[col])
        matrix = sparse.csr_matrix(
            (values, (rows, cols)),
            shape=(len(documents), len(self.vocabulary)),
            dtype=np.float64,
        )
        norms = sparse.linalg.norm(matrix, axis=1)
        norms[norms == 0] = 1.0
        matrix = sparse.diags(1.0 / norms) @ matrix
        if dense:
            return np.asarray(matrix.todense())
        return matrix.tocsr()

    def fit_transform(self, documents: Sequence[str], dense: bool = True):
        return self.fit(documents).transform(documents, dense=dense)

    @property
    def num_features(self) -> int:
        return len(self.vocabulary)
