"""Demonstration selection for in-context passage ranking.

The pipeline: build a demonstration pool from judged training queries, mine
BM25+random candidates per training input, score them with a pointwise LLM
scorer, train a bi-encoder retriever on the scores, construct dependency-aware
samples by iteratively extending demonstration prefixes, train a cross-encoder
reranker on those samples, then rank test passages with retrieve-then-greedy
demonstration selection.
"""

from .data import (
    Dataset,
    Demonstration,
    Label,
    Passage,
    Query,
    RelJudgment,
    TrainingInput,
    build_pool,
    build_training_inputs,
)
from .scoring import (
    CachedScorer,
    HttpScorer,
    LabelDistribution,
    MockScorer,
    PromptTemplate,
    ScoreRequest,
    relevance_score,
    score_list,
)
from .bm25 import Bm25Params, build_index, build_pool_index, bm25_search, mine_candidates
from .retriever import (
    BiEncoder,
    DenseIndex,
    EncoderConfig,
    RetrieverTrainConfig,
    ScoredCandidate,
    ScoredCandidateSet,
    retrieve_topD,
    similarity,
    train_retriever,
)
from .reranker import (
    CrossEncoder,
    DependencySample,
    DemoList,
    RerankerTrainConfig,
    construct_samples,
    cross_score,
    list_pairwise_loss,
    sample_by_rank,
    train_reranker,
)
from .pipeline import (
    EvalReport,
    PolicyContext,
    RunEntry,
    greedy_select,
    ndcg_at_k,
    rank_passages,
    run_policy,
)
from .config import ExperimentConfig, load_config
from .synth import SynthParams, generate_synthetic_dataset

__version__ = "0.1.0"
