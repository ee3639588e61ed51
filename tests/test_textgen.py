import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhyde.corpus import Document
from slhyde.embed import MockEmbedderClient
from slhyde.errors import DegenerateOutputError, ProtocolError, TransportError, ValidationError
from slhyde.textgen import (
    HYPOTHETICAL_TEMPLATES,
    TEMPLATE_NAMES,
    MockGeneratorClient,
    PromptTemplate,
    RemoteGeneratorClient,
    SamplingConfig,
    generate,
    generate_hypothetical,
    generate_pseudo_docs,
    generate_query_for_doc,
    hash_paraphrase,
    load_template,
    render_prompt,
)
from slhyde.textgen import _SLOT_RE, _judge_autopilot

from conftest import StubEndpoint, synthetic_docs


class TestRenderPrompt:
    def test_q2p_question_follows_marker(self):
        rendered = render_prompt(load_template("Q2P"), {"QUESTION": "X"})
        assert "Question: X" in rendered
        assert rendered.index("Question:") < rendered.index("X\n") + len(rendered)

    def test_zero_slot_template_unchanged(self):
        template = PromptTemplate(name="none", body="no slots here")
        assert render_prompt(template, {}) == "no slots here"

    def test_missing_slot_names_it(self):
        with pytest.raises(ValidationError, match="TITLE"):
            render_prompt(load_template("T2P"), {"QUESTION": "x"})

    def test_values_are_not_rescanned(self):
        template = PromptTemplate(name="t", body="value: {VALUE}")
        rendered = render_prompt(template, {"VALUE": "{OTHER} stays literal"})
        assert rendered == "value: {OTHER} stays literal"

    def test_render_is_idempotent(self):
        rendered = render_prompt(load_template("Q2P"), {"QUESTION": "does it stick?"})
        again = render_prompt(PromptTemplate(name="rendered", body=rendered), {})
        assert again == rendered

    @given(st.text(min_size=1, max_size=40), st.text(min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_injective_in_slot_values(self, a, b):
        template = load_template("Q2P")
        ra = render_prompt(template, {"QUESTION": a})
        rb = render_prompt(template, {"QUESTION": b})
        assert (ra == rb) == (a == b)

    def test_all_shipped_templates_load_and_declare_slots(self):
        from slhyde.textgen import TEMPLATE_NAMES

        for name in TEMPLATE_NAMES:
            template = load_template(name)
            assert template.body.strip()
            rendered = render_prompt(template, {slot: "x" for slot in template.slots()})
            assert "{" + "}".join([]) or rendered  # renders without error

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_render_is_the_regex_substitution(self, name):
        template = load_template(name)
        # values holding marker-like text, which a substitution never rescans
        slots = {slot: f"{{QUESTION}} {slot} {{{slot}}} \\1 {{}}" for slot in sorted(template.slots())}
        assert render_prompt(template, slots) == _SLOT_RE.sub(lambda m: slots[m.group(1)], template.body)

    def test_missing_slot_named_is_the_first_in_the_body(self):
        template = PromptTemplate(name="t", body="{ZETA} then {ALPHA} then {ZETA}")
        with pytest.raises(ValidationError, match="missing slot 'ZETA'"):
            render_prompt(template, {})
        with pytest.raises(ValidationError, match="missing slot 'ALPHA'"):
            render_prompt(template, {"ZETA": "z"})

    @pytest.mark.parametrize("name", ["NOPE", "q2p", "prompts/Q2P"])
    def test_unknown_template_name_is_validation_error(self, name):
        with pytest.raises(ValidationError, match="unknown prompt template"):
            load_template(name)


class TestGenerate:
    def test_scripted_echo(self):
        prompt = "say abc"
        client = MockGeneratorClient(responses={prompt: "ABC"})
        assert generate(client, prompt, SamplingConfig()) == ["ABC"]

    def test_per_index_scripts_in_order(self):
        prompt = "three please"
        client = MockGeneratorClient(responses={prompt: ["one", "two", "three"]})
        out = generate(client, prompt, SamplingConfig(num_samples=3))
        assert out == ["one", "two", "three"]

    def test_unreachable_endpoint_errors_after_attempts(self):
        class FailingSession:
            def __init__(self):
                self.calls = 0

            def post(self, *args, **kwargs):
                self.calls += 1
                raise ConnectionError("refused")

        session = FailingSession()
        client = RemoteGeneratorClient(
            "http://unreachable.invalid/v1/chat/completions",
            model="m",
            max_retries=2,
            backoff=0.0,
            session=session,
        )
        with pytest.raises(TransportError) as excinfo:
            generate(client, "hi", SamplingConfig())
        assert excinfo.value.attempts == 3
        assert session.calls == 3

    def test_transient_failure_then_success(self):
        prompt = "flaky"
        client = MockGeneratorClient(responses={prompt: "ok"}, fail_times=1)
        assert generate(client, prompt, SamplingConfig()) == ["ok"]
        assert client.calls == 2

    def test_all_empty_is_degenerate(self):
        prompt = "empty"
        client = MockGeneratorClient(responses={prompt: [""]})
        with pytest.raises(DegenerateOutputError):
            generate(client, prompt, SamplingConfig())

    def test_role_prefix_and_whitespace_trimmed(self):
        prompt = "messy"
        client = MockGeneratorClient(responses={prompt: "  assistant: the answer \n"})
        assert generate(client, prompt, SamplingConfig()) == ["the answer"]

    def test_remote_parses_chat_response(self):
        class StubResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "hello"}}]}

        class StubSession:
            def __init__(self):
                self.last = None

            def post(self, url, json=None, timeout=None, headers=None):
                self.last = json
                return StubResponse()

        session = StubSession()
        client = RemoteGeneratorClient("http://x/v1", model="m", session=session)
        out = generate(client, "hi", SamplingConfig(temperature=0.7, num_samples=1, seed=4))
        assert out == ["hello"]
        assert session.last["model"] == "m"
        assert session.last["temperature"] == 0.7
        assert session.last["seed"] == 4

    def test_null_content_is_an_empty_completion(self):
        session = StubEndpoint({"choices": [{"message": {"content": None}}]})
        client = RemoteGeneratorClient("http://x/v1", model="m", max_retries=1, backoff=0.0, session=session)
        with pytest.raises(DegenerateOutputError):
            generate(client, "hi", SamplingConfig())
        assert len(session.headers) == 2  # retried as a shortfall

    @pytest.mark.parametrize("content", [5, ["text"], {"text": "a"}])
    def test_non_string_content_is_protocol_error(self, content):
        session = StubEndpoint({"choices": [{"message": {"content": content}}]})
        client = RemoteGeneratorClient("http://x/v1", model="m", max_retries=2, session=session)
        with pytest.raises(ProtocolError, match="malformed completion response"):
            generate(client, "hi", SamplingConfig())
        assert len(session.headers) == 1


class TestQueryForDoc:
    def test_scripted_query(self):
        doc = Document(id="d1", text="hernia treatment overview")
        from slhyde.textgen import load_template, render_prompt

        prompt = render_prompt(load_template("QUERY_GEN"), {"DOCUMENT": doc.indexed_text})
        client = MockGeneratorClient(responses={prompt: "what treats hernia?"})
        assert generate_query_for_doc(client, doc) == "what treats hernia?"

    def test_empty_doc_text_rejected(self):
        with pytest.raises(ValidationError):
            Document(id="d1", text="   ")

    def test_hundred_docs_deterministic_across_clients(self):
        docs = synthetic_docs(100, seed=5)
        first = [generate_query_for_doc(MockGeneratorClient(seed=9), d) for d in docs]
        second = [generate_query_for_doc(MockGeneratorClient(seed=9), d) for d in docs]
        assert first == second
        assert all(q.strip() for q in first)


class TestPseudoDocs:
    def test_single_candidate(self):
        doc = synthetic_docs(1)[0]
        out = generate_pseudo_docs(MockGeneratorClient(), "query", doc, 1)
        assert len(out) == 1

    def test_five_candidates_order_stable(self):
        doc = synthetic_docs(1)[0]
        client = MockGeneratorClient(seed=3)
        first = generate_pseudo_docs(client, "query", doc, 5)
        second = generate_pseudo_docs(MockGeneratorClient(seed=3), "query", doc, 5)
        assert len(first) == 5
        assert first == second

    def test_paraphrase_not_byte_identical_to_target(self):
        doc = synthetic_docs(1, seed=2)[0]
        for candidate in generate_pseudo_docs(MockGeneratorClient(), "q tokens", doc, 5):
            assert candidate != doc.text

    def test_zero_candidates_rejected(self):
        doc = synthetic_docs(1)[0]
        with pytest.raises(ValidationError):
            generate_pseudo_docs(MockGeneratorClient(), "q", doc, 0)


class TestGenerateHypothetical:
    def test_single_document_default(self):
        out = generate_hypothetical(MockGeneratorClient(), "a query", "Q2P", 1)
        assert len(out) == 1 and out[0].strip()

    def test_five_documents(self):
        out = generate_hypothetical(MockGeneratorClient(), "a query", "Q2P", 5)
        assert len(out) == 5

    def test_zero_is_query_only_fallback(self):
        client = MockGeneratorClient()
        assert generate_hypothetical(client, "a query", "Q2P", 0) == []
        assert client.calls == 0

    def test_template_must_be_task_template(self):
        with pytest.raises(ValidationError):
            generate_hypothetical(MockGeneratorClient(), "q", "QUERY_GEN", 1)

    @pytest.mark.parametrize("name", HYPOTHETICAL_TEMPLATES)
    def test_all_task_templates_work(self, name):
        assert generate_hypothetical(MockGeneratorClient(), "some query", name, 2)


class TestHashParaphrase:
    def test_deterministic(self):
        assert hash_paraphrase("a b c d e", seed=1, index=0) == hash_paraphrase("a b c d e", seed=1, index=0)

    def test_never_identity_for_multitoken(self):
        for seed in range(50):
            text = "alpha beta gamma delta"
            assert hash_paraphrase(text, seed=seed) != text

    def test_keeps_token_multiset_without_drops(self):
        text = "w1 w2 w3 w4 w5 w5"
        out = hash_paraphrase(text, seed=7)
        assert sorted(out.split()) == sorted(text.split())

    def test_drop_rate_thins_tokens(self):
        text = " ".join(f"t{i}" for i in range(100))
        out = hash_paraphrase(text, seed=0, drop_rate=0.5)
        assert 10 < len(out.split()) < 90


def _reference_payload(prompt):
    """A prompt's content tokens, by their definition: every token after the
    instruction line that is not a field marker, or the whole prompt if none is."""
    lines = prompt.splitlines()
    tokens = [tok for line in (lines[1:] if len(lines) > 1 else lines) for tok in line.split()]
    tokens = [tok for tok in tokens if not (tok.endswith(":") or tok.endswith("："))]
    return " ".join(tokens) if tokens else prompt.strip()


class TestJudgeAutopilot:
    _TOKENS = st.lists(
        st.one_of(
            st.sampled_from(["a", "b:", "：", "c：", ":", "Question:", "\n", " ", "\t", "\u2028", "\x1c", "\r\n", "\u3000"]),
            st.text(max_size=4),
        ),
        max_size=40,
    )

    @pytest.mark.parametrize("name, key, limit", [("EVIDENCE", "evidence_spans", 12), ("ANSWER_BY_EVIDENCE", "answer", 16)])
    @settings(max_examples=300, deadline=None)
    @given(parts=_TOKENS, second_line=st.booleans())
    def test_spans_are_the_first_payload_tokens(self, name, key, limit, parts, second_line):
        # the early stop must give what cutting the whole payload gives,
        # including the whole-prompt fallback when no token qualifies
        prompt = load_template(name).body.splitlines()[0] + ("\n" if second_line else " ") + "".join(parts)
        expected = " ".join(_reference_payload(prompt).split()[:limit]) or key.split("_")[0]
        verdict = json.loads(_judge_autopilot(prompt))[key]
        assert (verdict[0] if key == "evidence_spans" else verdict) == expected


def test_mock_client_counters_survive_concurrent_requests():
    # More threads than cores and a tiny switch interval: a lost update to
    # `calls` or to the remaining-failure count would break the totals.
    gen = MockGeneratorClient(fail_times=50)
    emb = MockEmbedderClient(dim=8)
    failures = []

    def work(worker: int) -> None:
        for _ in range(100):
            try:
                gen.request_completions("prompt", SamplingConfig(max_output_tokens=8))
            except TransportError:
                failures.append(worker)
            emb.embed_batch(["text"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(work, w) for w in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert (gen.calls, len(failures), emb.calls) == (800, 50, 800)
