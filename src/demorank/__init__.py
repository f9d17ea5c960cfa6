"""Demonstration selection for in-context passage ranking.

The pipeline: build a demonstration pool from judged training queries, mine
BM25+random candidates per training input, score them with a pointwise LLM
scorer, train a bi-encoder retriever on the scores, construct dependency-aware
samples by iteratively extending demonstration prefixes, train a cross-encoder
reranker on those samples, then rank test passages with retrieve-then-greedy
demonstration selection.
"""

__version__ = "0.1.0"
