"""Differential testing: every prediction path must agree, click for click.

The repo now answers "what should the client prefetch next?" through four
independently-implemented paths:

1. **batch** — ``model.predict(context)`` re-matching the trimmed context
   against the trie from scratch on every click;
2. **cursor** — the simulator's incremental :class:`PredictionCursor`
   (``prediction_cursor`` + ``predict_cursor``), which carries match state
   across clicks;
3. **tracker** — the serving layer's :class:`ClientSessionTracker`, which
   wraps a cursor per client behind the RCU :class:`ModelRef`;
4. **buffer** — the batch path run against a model rehydrated zero-copy
   from its shared-memory wire form
   (``model_from_buffer(model_to_buffer(model))``), the representation the
   multi-process workers serve from.

The node-forest oracle (``tests/oracle.py``: the paper's rules built click
by click on ``TrieNode`` objects and walked child by child) is replayed as
a fifth path.  The whole suite runs twice: with the model's compiled
table built before the replay ("compiled", as a serving publisher does)
and left for the first prediction to build ("uncompiled").  This suite
replays hundreds of seeded synthetic sessions through
all paths and asserts prediction-for-prediction equality.  On divergence a
greedy shrinking loop reduces the session to a minimal reproducer before
failing, so the report names the shortest click sequence (and the first
divergent click) instead of a 40-click haystack.
"""

from __future__ import annotations

import pytest

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import model_from_buffer, model_to_buffer
from repro.core.standard import StandardPPM
from repro.serve.state import ClientSessionTracker, ModelRef, trim_context
from repro.synth import generate_trace
from repro.trace.sessions import Session

from tests.oracle import oracle_twin

SEED = 20260805
MIN_SESSIONS = 100
CONTEXT_LENGTH = params.DEFAULT_MAX_CONTEXT_LENGTH
THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD


def _as_tuples(predictions):
    return tuple(
        (p.url, p.probability, p.order, p.source) for p in predictions
    )


# ---------------------------------------------------------------------------
# The four prediction paths (plus the node-forest oracle)
# ---------------------------------------------------------------------------


def _replay_batch(model, urls):
    """Path 1: stateless ``model.predict`` on the trimmed context."""
    out = []
    for i in range(len(urls)):
        context = trim_context(urls[: i + 1], CONTEXT_LENGTH)
        out.append(
            _as_tuples(
                model.predict(context, threshold=THRESHOLD, mark_used=False)
            )
        )
    return out


def _replay_cursor(model, urls):
    """Path 2: the simulator's incremental prediction cursor."""
    cursor = model.prediction_cursor(CONTEXT_LENGTH)
    out = []
    for url in urls:
        cursor.advance(url)
        out.append(
            _as_tuples(
                model.predict_cursor(
                    cursor, threshold=THRESHOLD, mark_used=False
                )
            )
        )
    return out


def _replay_tracker(model, urls, client="differential"):
    """Path 3: the serving layer's per-client session tracker."""
    tracker = ClientSessionTracker(
        ModelRef(model),
        idle_timeout_s=1e12,
        max_context_length=CONTEXT_LENGTH,
    )
    out = []
    for ts, url in enumerate(urls):
        tracker.observe(client, url, float(ts))
        predictions, _version = tracker.predict(client, threshold=THRESHOLD)
        out.append(_as_tuples(predictions))
    return out


PATH_NAMES = ("batch", "cursor", "tracker", "buffer", "node-forest")


def _replay_all(models, urls):
    """Replay ``urls`` through every path; returns {path_name: per-click}."""
    return {
        "batch": _replay_batch(models["compact"], urls),
        "cursor": _replay_cursor(models["compact"], urls),
        "tracker": _replay_tracker(models["compact"], urls),
        "buffer": _replay_batch(models["buffer"], urls),
        "node-forest": _replay_batch(models["forest"], urls),
    }


def _first_divergence(models, urls):
    """First (click_index, path_a, path_b, preds_a, preds_b) or ``None``."""
    replays = _replay_all(models, urls)
    reference_name = PATH_NAMES[0]
    reference = replays[reference_name]
    for name in PATH_NAMES[1:]:
        for i, (want, got) in enumerate(zip(reference, replays[name])):
            if want != got:
                return (i, reference_name, name, want, got)
    return None


def _shrink(models, urls):
    """Greedy delta debugging: drop clicks while the divergence survives."""
    urls = list(urls)
    shrunk = True
    while shrunk and len(urls) > 1:
        shrunk = False
        for i in range(len(urls)):
            candidate = urls[:i] + urls[i + 1 :]
            if _first_divergence(models, candidate) is not None:
                urls = candidate
                shrunk = True
                break
    return urls


def _report_divergence(models, session: Session, index: int) -> str:
    minimal = _shrink(models, session.urls)
    click, name_a, name_b, want, got = _first_divergence(models, minimal)
    return (
        f"prediction paths diverged on session #{index} "
        f"(client={session.client!r}, {len(session.urls)} clicks)\n"
        f"minimal divergent session ({len(minimal)} clicks): {minimal}\n"
        f"first divergent click: index {click} ({minimal[click]!r})\n"
        f"  {name_a}: {want}\n"
        f"  {name_b}: {got}"
    )


# ---------------------------------------------------------------------------
# Fixtures: one seeded corpus + one fitted model per module
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    trace = generate_trace("nasa-like", days=4, seed=SEED, scale=0.4)
    return trace.split(train_days=3, test_days=1)


@pytest.fixture(
    scope="module",
    params=(True, False),
    ids=("compiled", "uncompiled"),
    autouse=True,
)
def precompiled(request):
    """Whether the model's table is compiled before the replays start."""
    return request.param


def _twins(model_factory, train, precompiled):
    """The model under test, its buffer twin and its node-forest oracle.

    The buffer twin is serialised from a separate fit, so serialising it
    never compiles the table of the model under test.
    """
    compact = model_factory().fit(train)
    if precompiled:
        compact._compiled_table()
    buffer_twin = model_from_buffer(model_to_buffer(model_factory().fit(train)))
    forest = oracle_twin(compact).fit(train)
    return {"compact": compact, "forest": forest, "buffer": buffer_twin}


@pytest.fixture(scope="module")
def models(corpus, precompiled):
    train = corpus.train_sessions
    popularity = PopularityTable.from_sessions(train)
    return _twins(lambda: PopularityBasedPPM(popularity), train, precompiled)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAllPathsAgree:
    def test_corpus_is_large_enough(self, corpus):
        assert len(corpus.test_sessions) >= MIN_SESSIONS

    def test_every_session_agrees_across_all_paths(self, corpus, models):
        checked = 0
        for index, session in enumerate(corpus.test_sessions):
            divergence = _first_divergence(models, session.urls)
            if divergence is not None:
                pytest.fail(_report_divergence(models, session, index))
            checked += 1
        assert checked >= MIN_SESSIONS

    def test_standard_ppm_paths_agree_too(self, corpus, precompiled):
        """The guarantee is model-independent: StandardPPM as well."""
        models = _twins(StandardPPM, corpus.train_sessions, precompiled)
        for index, session in enumerate(corpus.test_sessions[:MIN_SESSIONS]):
            divergence = _first_divergence(models, session.urls)
            if divergence is not None:
                pytest.fail(_report_divergence(models, session, index))


class TestShrinker:
    """The shrinking loop itself must be trustworthy."""

    def test_shrink_finds_minimal_counterexample(self, models):
        """Against a deliberately broken twin, the shrinker converges on a
        1-click session — the smallest input that can still diverge."""

        class _Broken:
            """Wraps the real model but drops every prediction."""

            def __init__(self, inner):
                self._inner = inner

            def predict(self, context, **kwargs):
                return []

            def prediction_cursor(self, max_length):
                return self._inner.prediction_cursor(max_length)

            def predict_cursor(self, cursor, **kwargs):
                return []

        real = models["compact"]
        broken = {"compact": real, "forest": _Broken(real), "buffer": real}
        # Find a session where the real model predicts something.
        urls = None
        for head in list(real.roots)[:50]:
            candidate = (head,)
            if real.predict(candidate, threshold=THRESHOLD, mark_used=False):
                urls = ("padding-click",) + candidate + ("padding-click",)
                break
        assert urls is not None, "fixture model never predicts anything"
        assert _first_divergence(broken, urls) is not None
        minimal = _shrink(broken, urls)
        assert len(minimal) == 1
        assert _first_divergence(broken, minimal) is not None

    def test_no_divergence_reports_none(self, models):
        assert _first_divergence(models, ("A", "B", "C")) is None
