"""Text substrate: tokenization, TF-IDF, clustering, similarity, MLM."""

from .kmeans import KMeansResult, assign_clusters, kmeans, minibatch_kmeans
from .lm_pretrain import MLMConfig, MLMResult, mlm_warm_start
from .similarity import (
    jaccard,
    levenshtein,
    normalize_rows,
    overlap_coefficient,
)
from .tfidf import TfidfVectorizer
from .tokenizer import (
    CLS,
    COL,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    VAL,
    Encoding,
    Tokenizer,
    word_tokenize,
)

__all__ = [
    "CLS",
    "COL",
    "Encoding",
    "KMeansResult",
    "MASK",
    "MLMConfig",
    "MLMResult",
    "PAD",
    "SEP",
    "SPECIAL_TOKENS",
    "Tokenizer",
    "TfidfVectorizer",
    "UNK",
    "VAL",
    "assign_clusters",
    "jaccard",
    "kmeans",
    "levenshtein",
    "minibatch_kmeans",
    "mlm_warm_start",
    "normalize_rows",
    "overlap_coefficient",
    "word_tokenize",
]
