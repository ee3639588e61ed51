import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhyde import bm25 as bm25_module
from slhyde.bm25 import _CJK_RE, _WORD_RE, DENSE_POSTINGS, Bm25Index, Bm25Settings, bm25_search, tokenize
from slhyde.corpus import CorpusStore, Document
from slhyde.errors import ValidationError

from conftest import cjk_dataset, queries_for_docs, synthetic_docs


def _store(texts):
    return CorpusStore([Document(id=f"d{i}", text=t) for i, t in enumerate(texts)])


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("Hello, World! it's 2-fold") == ["hello", "world", "it", "s", "2", "fold"]

    def test_cjk_unigrams_and_bigrams(self):
        assert tokenize("斗鱼直播") == ["斗", "鱼", "直", "播", "斗鱼", "鱼直", "直播"]

    def test_mixed_cjk_latin_token(self):
        tokens = tokenize("covid19疫苗接种")
        assert "covid19" in tokens
        assert "疫" in tokens and "疫苗" in tokens

    def test_simple_mode_keeps_whole_words(self):
        assert tokenize("高血压治疗", mode="simple") == ["高血压治疗"]

    def test_latin_unchanged_by_cjk_mode(self):
        text = "plain english text only"
        assert tokenize(text, "cjk") == tokenize(text, "simple")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            tokenize("x", mode="bogus")

    # The code points on either side of each range edge, an astral CJK character
    # (outside the three ranges), and mixed Latin/CJK words. The tokens must be
    # those of a walk over the characters with the three ranges spelled out.
    _EDGES = [0x33FF, 0x3400, 0x4DBF, 0x4DC0, 0x4DFF, 0x4E00, 0x9FFF, 0xA000, 0xF8FF, 0xF900, 0xFAFF, 0xFB00]
    _MIXED = [
        "\U00020000", "\U00020000a", "abc\u4e00", "\u9fffxyz", "ab\ufb00cd", "x\u3400y", "covid19", "a高血b压c", "高"
    ]

    @pytest.mark.parametrize("word", [chr(code) for code in _EDGES] + _MIXED)
    def test_cjk_search_agrees_with_the_character_predicate(self, word):
        assert bool(_CJK_RE.search(word)) == any(_is_cjk(ch) for ch in word)
        assert tokenize(word) == [t for w in _WORD_RE.findall(word.lower()) for t in _expand_by_character(w)]

    @given(st.text(st.sampled_from([chr(code) for code in _EDGES] + list("aZ9é\U00020000高血压")), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_tokens_match_the_character_loop(self, text):
        assert tokenize(text) == [t for w in _WORD_RE.findall(text.lower()) for t in _expand_by_character(w)]

    @given(st.text(st.characters(max_codepoint=127), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_ascii_text_is_its_words(self, text):
        expected = [t for w in _WORD_RE.findall(text.lower()) for t in _expand_by_character(w)]
        assert tokenize(text, "cjk") == tokenize(text, "simple") == expected


def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return 0x4E00 <= code <= 0x9FFF or 0x3400 <= code <= 0x4DBF or 0xF900 <= code <= 0xFAFF


def _expand_by_character(word: str) -> list[str]:
    """A CJK-expanded word by a walk over its characters: the tokenizer's
    behaviour, spelled independently of its regular expressions."""
    tokens: list[str] = []
    run: list[str] = []

    def flush_run():
        tokens.extend(run)
        tokens.extend(run[i] + run[i + 1] for i in range(len(run) - 1))
        run.clear()

    buffer = []
    for ch in word:
        if _is_cjk(ch):
            if buffer:
                tokens.append("".join(buffer))
                buffer = []
            run.append(ch)
        else:
            flush_run()
            buffer.append(ch)
    flush_run()
    if buffer:
        tokens.append("".join(buffer))
    return tokens


class TestBm25Settings:
    def test_range_boundaries_accepted(self):
        for k1, b in ((0, 0), (0.9, 1), (3.5, 0.75)):
            assert Bm25Settings(k1=k1, b=b).b == b

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k1", -1),
            ("k1", float("nan")),
            ("k1", float("inf")),
            ("b", 7),
            ("b", -0.1),
            ("b", float("nan")),
            ("tokenizer", "bogus"),
        ],
    )
    def test_bad_value_names_its_key(self, field, value):
        with pytest.raises(ValidationError, match=f"bm25.{field}"):
            Bm25Settings(**{field: value})


class TestBm25Search:
    def test_unique_term_ranks_its_doc_first(self):
        store = _store(["common words here", "common words zyzzyva", "more common words"])
        index = Bm25Index.build(store, Bm25Settings(), ["zyzzyva"])
        hits = bm25_search(index, "zyzzyva", k=3)
        assert hits.ids[0] == "d1"
        assert len(hits) == 1  # only the matching doc scores

    def test_two_doc_score_matches_direct_formula(self):
        # Independent oracle: evaluate the documented Okapi formula inline.
        store = _store(["red fish blue fish", "red herring"])
        k1, b = 0.9, 0.4
        index = Bm25Index.build(store, Bm25Settings(k1=k1, b=b, tokenizer="simple"), ["red fish"])
        hits = bm25_search(index, "red fish", k=2)

        docs = [["red", "fish", "blue", "fish"], ["red", "herring"]]
        n_docs = 2
        avgdl = (4 + 2) / 2
        def idf(term):
            df = sum(1 for d in docs if term in d)
            return math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
        def score(doc):
            total = 0.0
            for term in ("red", "fish"):
                tf = doc.count(term)
                if tf == 0:
                    continue
                total += idf(term) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(doc) / avgdl))
            return total

        expected = {"d0": score(docs[0]), "d1": score(docs[1])}
        got = dict(hits)
        assert got.keys() == expected.keys()
        for doc_id, value in expected.items():
            assert got[doc_id] == pytest.approx(value, abs=1e-12)
        assert hits.ids[0] == "d0"  # two matching terms beat one

    def test_unindexed_query_terms_give_empty_hits(self):
        index = Bm25Index.build(_store(["alpha beta", "gamma delta"]), Bm25Settings(), ["omega"])
        assert list(bm25_search(index, "omega", k=5)) == []

    def test_absent_term_contributes_zero(self):
        store = _store(["alpha beta", "alpha"])
        index = Bm25Index.build(store, Bm25Settings(tokenizer="simple"), ["alpha", "alpha qqqq"])
        only_alpha = dict(bm25_search(index, "alpha", k=2))
        with_absent = dict(bm25_search(index, "alpha qqqq", k=2))
        assert only_alpha == with_absent

    def test_adding_unrelated_doc_keeps_pair_order(self):
        # Oracle recomputation: the relative order of two fixed docs for a fixed
        # query survives adding a document sharing no query terms.
        base = ["heart disease treatment options", "heart health advice", "butterfly migration"]
        query = "heart disease"
        simple = Bm25Settings(tokenizer="simple")
        small = Bm25Index.build(_store(base), simple, [query])
        before = bm25_search(small, query, k=3).ids
        grown = Bm25Index.build(_store(base + ["unrelated astronomy text"]), simple, [query])
        after = bm25_search(grown, query, k=4).ids
        assert [d for d in after if d in before] == before

    def test_tie_break_ascending_id(self):
        store = _store(["same text", "same text"])
        index = Bm25Index.build(store, Bm25Settings(tokenizer="simple"), ["same"])
        assert bm25_search(index, "same", k=2).ids == ["d0", "d1"]

    def test_empty_index_errors(self):
        index = Bm25Index.build(CorpusStore([]), Bm25Settings(), ["x"])
        with pytest.raises(ValidationError, match="empty"):
            bm25_search(index, "x", k=1)

    def test_title_is_indexed(self):
        store = CorpusStore([Document(id="d0", text="body words", title="zyzzyva title")])
        index = Bm25Index.build(store, Bm25Settings(), ["zyzzyva"])
        assert bm25_search(index, "zyzzyva", k=1).ids == ["d0"]


def _dict_of_tuples_search(store, settings, query, k):
    """The index before its columnar layout, as an oracle: per-term lists of
    (position, tf) tuples in doc order, scored posting by posting."""
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lens = []
    for pos, doc in enumerate(store):
        tokens = tokenize(doc.indexed_text, settings.tokenizer)
        doc_lens.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((pos, tf))
    avgdl = sum(doc_lens) / len(doc_lens)
    k1, b = settings.k1, settings.b
    scores: dict[int, float] = {}
    for term in tokenize(query, settings.tokenizer):
        plist = postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (len(doc_lens) - df + 0.5) / (df + 0.5))
        for pos, tf in plist:
            denom = tf + k1 * (1.0 - b + b * doc_lens[pos] / avgdl)
            scores[pos] = scores.get(pos, 0.0) + idf * tf * (k1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda item: (-item[1], store.ids[item[0]]))[:k]
    return [store.ids[pos] for pos, _ in ranked], np.array([score for _, score in ranked], dtype=np.float64)


# Latin words and CJK characters; joined with or without a space, CJK runs
# give unigrams and bigrams and Latin words fuse into longer tokens.
_WORD = st.sampled_from(["heart", "rate", "fever", "dose", "b12", "x", "高", "血", "压", "治疗", "心脏病"])
_TEXT = st.lists(st.tuples(_WORD, st.sampled_from(["", " ", ", "])), min_size=1, max_size=40).map(
    lambda parts: "".join(word + sep for word, sep in parts)
)


def _build_retaining(store, queries):
    """The index of `store` for `queries`, and the bytes its build left allocated."""
    tracemalloc.start()
    try:
        index = Bm25Index.build(store, Bm25Settings(), queries)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return index, retained


class TestColumnarIndex:
    @given(
        texts=st.lists(_TEXT, min_size=1, max_size=12),
        query=st.lists(_WORD, min_size=1, max_size=5),
        absent=st.sampled_from([[], ["zzz"], ["肝"], ["肝zzz", "zzz"]]),
        other=_TEXT,
        k1=st.sampled_from([0.0, 0.9]),
        b=st.sampled_from([0.0, 0.4, 1.0]),
        tokenizer=st.sampled_from(["cjk", "simple"]),
        extra_k=st.integers(min_value=-12, max_value=3),
        dense_postings=st.sampled_from([0, DENSE_POSTINGS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_scores_are_bitwise_those_of_per_term_tuple_lists(
        self, texts, query, absent, other, k1, b, tokenizer, extra_k, dense_postings
    ):
        # ids in descending order, so the id tie rule is not position order
        store = CorpusStore([Document(id=f"d{len(texts) - i:02d}", text=t) for i, t in enumerate(texts)])
        bm25 = Bm25Settings(k1=k1, b=b, tokenizer=tokenizer)
        # repeated query terms count with multiplicity; no document holds the absent ones
        query_text = " ".join(query + query[:2] + absent)
        index = Bm25Index.build(store, bm25, [query_text, other])
        assert index.query_slots.keys() == {query_text, other}
        for text in (query_text, other):
            hit_count = len(_dict_of_tuples_search(store, bm25, text, len(store))[0])
            k = max(1, hit_count + extra_k)  # below and above the hit count
            expected_ids, expected_scores = _dict_of_tuples_search(store, bm25, text, k)
            # at 0 every query is scored into the dense array
            with mock.patch.object(bm25_module, "DENSE_POSTINGS", dense_postings):
                hits = bm25_search(index, text, k)
            assert hits.ids == expected_ids
            assert hits.scores.tobytes() == expected_scores.tobytes()

    def test_text_the_index_was_not_built_for_is_an_error(self):
        index = Bm25Index.build(_store(["alpha beta", "gamma"]), Bm25Settings(tokenizer="simple"), ["alpha omega"])
        with pytest.raises(ValidationError, match="not built for the query 'beta alpha delta beta'$"):
            bm25_search(index, "beta alpha delta beta", k=2)
        # the same tokens in another text are another query
        with pytest.raises(ValidationError, match="not built for the query 'Alpha omega'$"):
            bm25_search(index, "Alpha omega", k=2)

    def test_built_query_term_no_document_holds_scores_the_others(self):
        store = _store(["alpha beta", "gamma", "alpha alpha gamma"])
        index = Bm25Index.build(store, Bm25Settings(tokenizer="simple"), ["omega alpha omega", "alpha"])
        # omega gets no slot: the text's slots are alpha's alone, and every slot has postings
        assert index.query_slots["omega alpha omega"] == index.query_slots["alpha"]
        assert (np.diff(index.offsets) > 0).all()
        with_omega, without = bm25_search(index, "omega alpha omega", k=3), bm25_search(index, "alpha", k=3)
        assert with_omega.ids == without.ids == ["d2", "d0"]
        assert with_omega.scores.tobytes() == without.scores.tobytes()

    def test_a_text_whose_terms_no_document_holds_has_no_slots_and_no_hits(self):
        index = Bm25Index.build(_store(["alpha beta"]), Bm25Settings(), ["omega", "alpha"])
        assert index.query_slots["omega"] == ()
        assert list(bm25_search(index, "omega", k=3)) == []

    def test_index_retains_few_bytes_per_posting(self):
        store = CorpusStore(synthetic_docs(2000))
        texts = [doc.text for doc in store]
        postings = sum(len(set(tokenize(doc.indexed_text))) for doc in store)
        index, retained = _build_retaining(store, texts)
        assert bm25_search(index, texts[0], k=1).ids == ["d0000"]
        # built for every text, so every one of the 42,000 postings of 18,012
        # terms is held: two int32 columns and each text's slots retain about
        # 37 bytes per posting; with the vocabulary kept it was about 59, and
        # per-term lists of (position, tf) tuples retained about 135
        assert retained < 45 * postings

    def test_index_for_a_few_queries_retains_their_postings_only(self):
        store = CorpusStore(synthetic_docs(2000))
        queries = [doc.text for doc in store][:20]
        index, retained = _build_retaining(store, queries)
        assert bm25_search(index, queries[3], k=1).ids == ["d0003"]
        # the 20 texts' 192 terms (the shared filler among them) have 24,180
        # postings; measured 0.23 MB, where an index of all 18,012 terms
        # retained 2.46 MB
        assert retained < 350_000

    def test_index_keeps_no_vocabulary_of_noise_terms(self):
        # construct-benchmark's synthetic queries: one document token and three
        # random ones that no document holds
        docs = synthetic_docs(2000)
        store = CorpusStore(docs)
        queries = [query.text for query in queries_for_docs(docs)]
        index, retained = _build_retaining(store, queries)
        assert not hasattr(index, "vocab")
        assert bm25_search(index, queries[5], k=1).ids == ["d0005"]
        # 2,000 slots, one a query: the noise terms get none; measured 0.25 MB,
        # 0.53 MB when the 6,000 noise terms kept empty slots, and 1.02 MB when
        # an index kept its terms as a vocabulary
        assert len(index.offsets) == 2001
        assert retained < 650_000

    def test_build_holds_the_query_terms_only_while_it_reads_the_documents(self):
        docs = synthetic_docs(2000)
        store = CorpusStore(docs)
        queries = [query.text for query in queries_for_docs(docs)]
        tracemalloc.start()
        try:
            Bm25Index.build(store, Bm25Settings(), queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The peak is reached as the last document is read: the 8,000 query
        # terms, their 2,000 slots, the queries' texts and the postings.
        # Measured 0.90 MB; 1.27 MB when the query terms got slots and
        # tuples before the documents were read and kept them all after.
        assert peak < 1_100_000


def _postings(index, text):
    return sum(int(index.offsets[slot + 1] - index.offsets[slot]) for slot in index.query_slots[text])


class TestCjkText:
    """CJK words with Zipf character and word frequencies, where a query's
    terms have long postings: ids and score bits are those of the scalar
    oracle on both sides of the dense-array switch."""

    @pytest.fixture(scope="class")
    def corpus(self):
        docs, queries = cjk_dataset(200)
        # every 20th text again under another id, so that scores tie at the cut
        twins = [Document(id=f"{doc.id}b", text=doc.text) for doc in docs[::20]]
        texts = []
        for query in queries[::5]:
            words = query.text.split()
            texts.append(query.text)
            # a repeated word, and terms no document holds (an ideograph outside
            # the generator's block, a Latin word)
            texts.append(f"{query.text} {words[1]} {words[1]} \uf900 zzzq")
            texts.extend(words)  # single words: short postings for the rare ones
        return CorpusStore(docs + twins), list(dict.fromkeys(texts))

    @pytest.mark.parametrize("tokenizer", ["cjk", "simple"])
    def test_ids_and_score_bits_are_the_oracles(self, corpus, tokenizer):
        store, texts = corpus
        bm25 = Bm25Settings(tokenizer=tokenizer)
        index = Bm25Index.build(store, bm25, texts)
        sides, ties = set(), 0
        for text in texts:
            # the oracle ranks every hit; its top-k is a prefix of that
            all_ids, all_scores = _dict_of_tuples_search(store, bm25, text, len(store))
            cuts = [i + 1 for i in range(len(all_scores) - 1) if all_scores[i] == all_scores[i + 1]]
            ties += bool(cuts)
            for k in {1, 10, *cuts[:2], max(1, len(all_ids)), len(all_ids) + 5}:
                hits = bm25_search(index, text, k)
                assert hits.ids == all_ids[:k]
                assert hits.scores.tobytes() == all_scores[:k].tobytes()
            sides.add(_postings(index, text) > DENSE_POSTINGS)
        assert sides == {False, True}
        assert ties > 10
