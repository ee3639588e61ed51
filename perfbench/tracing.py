"""Request counting and span tracing for slhyde, applied from outside the package.

Nothing under src/ is changed: counters wrap the mock clients at class level,
and the tracer replaces each public function of every imported slhyde module
with a timing wrapper in every slhyde namespace that holds it by name (cli and
hyde keep their own reference to dense_search, for instance, so patching only
slhyde.retrieval would miss their calls).

A span is (id, name, start_ns, end_ns, parent_id, thread_id, request_id).
Spans are kept in memory and written out once, as JSON lines, when the run
ends. The parent of a span is the innermost open span on the same thread; the
request id is the query or document id found in the call's arguments, or else
the parent's.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

# Parameters whose string value names the query or document a call serves.
_ID_PARAMS = ("target_id", "positive", "query_id", "doc_id")


def slhyde_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "slhyde" or name.startswith("slhyde.")]


def patch_everywhere(original, replacement) -> None:
    """Rebind every slhyde module attribute that is `original` to `replacement`."""
    for module in slhyde_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Counters:
    """Embedder and generator request counts, plus degraded HyDE results."""

    def __init__(self):
        self._lock = threading.Lock()
        self.embed_requests = 0
        self.embed_texts = 0
        self.distinct_texts: set[str] = set()
        self.gen_requests = 0
        self.degraded = 0

    def install(self) -> None:
        from slhyde.embed import MockEmbedderClient
        from slhyde.hyde import hyde_search
        from slhyde.textgen import MockGeneratorClient

        counters = self
        embed_batch = MockEmbedderClient.embed_batch
        request_completions = MockGeneratorClient.request_completions

        @functools.wraps(embed_batch)
        def counted_embed_batch(client, texts):
            with counters._lock:
                counters.embed_requests += 1
                counters.embed_texts += len(texts)
                counters.distinct_texts.update(texts)
            return embed_batch(client, texts)

        @functools.wraps(request_completions)
        def counted_request_completions(client, prompt, cfg):
            with counters._lock:
                counters.gen_requests += 1
            return request_completions(client, prompt, cfg)

        @functools.wraps(hyde_search)
        def counted_hyde_search(*args, **kwargs):
            hits = hyde_search(*args, **kwargs)
            if hits.meta.get("degraded"):
                with counters._lock:
                    counters.degraded += 1
            return hits

        MockEmbedderClient.embed_batch = counted_embed_batch
        MockGeneratorClient.request_completions = counted_request_completions
        patch_everywhere(hyde_search, counted_hyde_search)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "embed_requests": self.embed_requests,
                "embed_texts": self.embed_texts,
                "embed_distinct": len(self.distinct_texts),
                "gen_requests": self.gen_requests,
                "degraded": self.degraded,
            }


def _request_id(args, kwargs, id_positions) -> str | None:
    for value in itertools.chain(args, kwargs.values()):
        rid = getattr(value, "id", None)
        if isinstance(rid, str):
            return rid
    for position, name in id_positions:
        value = args[position] if position < len(args) else kwargs.get(name)
        if isinstance(value, str):
            return value
    return None


class Tracer:
    """In-memory span recorder; `active` is cleared once the measured region ends."""

    def __init__(self):
        self.active = True
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        id_positions = [(i, p) for i, p in enumerate(params) if p in _ID_PARAMS]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent_id, parent_rid = stack[-1] if stack else (-1, None)
            span_id = next(tracer._ids)
            rid = _request_id(args, kwargs, id_positions) or parent_rid
            stack.append((span_id, rid))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent_id, threading.get_ident(), rid))

        return traced

    def install(self) -> None:
        """Wrap every public slhyde function, the index constructors and the mock clients."""
        from slhyde.ann import AnnIndex
        from slhyde.bm25 import Bm25Index
        from slhyde.embed import MockEmbedderClient
        from slhyde.retrieval import DenseIndex
        from slhyde.textgen import MockGeneratorClient

        wrapped = {}
        for module in slhyde_modules():
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)):
                    continue
                if inspect.isgeneratorfunction(getattr(value, "__wrapped__", None)):
                    continue  # a contextmanager factory returns at once; timing it says nothing
                wrapped.setdefault(id(value), (value, f"{layer}.{attr}"))
        for value, name in wrapped.values():
            patch_everywhere(value, self.wrap(name, value))

        for cls, layer in ((DenseIndex, "retrieval"), (AnnIndex, "ann")):
            cls.__init__ = self.wrap(f"{layer}.{cls.__name__}", cls.__init__)
        Bm25Index.build = classmethod(self.wrap("bm25.Bm25Index.build", Bm25Index.__dict__["build"].__func__))
        MockEmbedderClient.embed_batch = self.wrap(
            "embed.MockEmbedderClient.embed_batch", MockEmbedderClient.embed_batch
        )
        MockGeneratorClient.request_completions = self.wrap(
            "textgen.MockGeneratorClient.request_completions", MockGeneratorClient.request_completions
        )

    def write(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
        return len(self.spans)
