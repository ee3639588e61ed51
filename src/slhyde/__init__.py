"""Self-learning hypothetical-document retrieval toolkit."""

__version__ = "0.1.0"

from .corpus import (
    CorpusStore,
    Document,
    Query,
    RelevanceJudgments,
    load_corpus,
    load_qrels,
    load_queries,
    sample_documents,
)
from .embed import (
    EmbeddingCache,
    MockEmbedderClient,
    RemoteEmbedderClient,
    cache_embeddings,
    embed_text,
    embed_texts,
    load_cache,
    normalize,
    save_cache,
)
from .errors import (
    DegenerateOutputError,
    FormatError,
    ParseError,
    ProtocolError,
    RunError,
    SlhydeError,
    TransportError,
    ValidationError,
)
from .hyde import FUSION_STRATEGIES, FusionConfig, hyde_search, hypothesize, search_hypothesized
from .retrieval import DenseIndex, RankedHits, dense_search, ranks_of, search_many
from .textgen import (
    MockGeneratorClient,
    PromptTemplate,
    RemoteGeneratorClient,
    SamplingConfig,
    SamplingSettings,
    generate,
    generate_hypothetical,
    generate_pseudo_docs,
    generate_query_for_doc,
    hash_paraphrase,
    load_template,
    render_prompt,
)
