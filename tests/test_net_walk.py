"""The one walk over a list of sources, against its rules written out.

:func:`repro.net.resilience.walk` is the pass every fabric's download
takes: try each source in order, let the source's ``missed`` say what a
404 or a retryable failure means (remember it, forget it, or end the
pass), and raise what the pass remembers when nothing served.
:func:`~repro.net.resilience.retry_rounds` repeats failed passes under a
seeded :class:`~repro.net.resilience.RetryPolicy`.  Here fake sources
with drawn outcomes and replies run under that loop, and a reference of
the rules says what must come out: the payload or the exception (its
type and the source that raised it), which sources each pass touched,
and the ``backoffs`` / ``giveups`` counts.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.errors import NotFoundError, TierOverloadedError, UnavailableError
from repro.net.edge import EdgeStats
from repro.net.resilience import RetryPolicy, Source, walk

#: Outcome → the exception a fake source raises for it.
RAISES = {
    "404": NotFoundError,
    "retryable": UnavailableError,
    "shed": TierOverloadedError,
    "nobody": UnavailableError,
}
OUTCOMES = ("payload", "none", "404", "retryable", "shed")
REPLIES = ("remember", "forget", "reraise")


class _Fake(Source):
    def __init__(self, clock, touched, number, index, outcome, reply):
        self.clock = clock
        self.touched = touched
        self.where = (number, index)
        self.outcome = outcome
        self.reply = reply

    def fetch(self, identity, tag, label):
        self.touched.append(self.where)
        yield from self.clock.advance_gen(0.001, "fake-fetch")
        if self.outcome == "payload":
            return ("payload",) + self.where
        if self.outcome == "none":
            return None
        raise RAISES[self.outcome]("%s %d %d" % ((self.outcome,) + self.where))

    def missed(self, error):
        if self.reply == "reraise":
            return super().missed(error)
        return error if self.reply == "remember" else None


def _reference(passes, max_attempts):
    """``(result, touched, backoffs, giveups)`` by the rules alone."""
    touched, rounds = [], max(1, max_attempts - 1)
    for number, sources in enumerate(passes[:rounds]):
        kept = {}
        for index, (outcome, reply) in enumerate(sources):
            touched.append((number, index))
            if outcome == "payload":
                return ("payload", number, index), touched, number, 0
            if outcome == "none" or reply == "forget":
                continue
            if reply == "reraise":
                kept = {"end": (outcome, number, index)}
                break
            kept["404" if outcome == "404" else "retryable"] = (outcome, number, index)
        result = kept.get("end") or kept.get("404") or kept.get("retryable")
        result = result or ("nobody", None, None)
        if result[0] == "404":
            return result, touched, number, 0
    return result, touched, rounds - 1, 1


def _observed(passes, max_attempts, seed):
    clock = SimClock()
    owner = SimpleNamespace(
        clock=clock,
        stats=EdgeStats(),
        retry_policy=RetryPolicy(
            max_attempts=max_attempts, deadline_s=None, budget_s=None,
            seed=f"walk-{seed}",
        ),
    )
    touched, made = [], []

    def sources():
        number = len(made)
        made.append(number)
        return [
            _Fake(clock, touched, number, index, outcome, reply)
            for index, (outcome, reply) in enumerate(passes[number])
        ]

    try:
        result = clock.drive(
            walk(owner, sources, "identity", "tag", None, "walk-backoff", "nobody")
        )
    except (NotFoundError, UnavailableError) as error:
        kind, *where = (str(error).strip("'\"").split() + [None, None])[:3]
        assert type(error) is RAISES[kind]
        result = (kind,) + tuple(None if w is None else int(w) for w in where)
    assert owner.stats.fetches == 1
    return result, touched, owner.stats.backoffs, owner.stats.giveups


def _same(*sources):
    return [list(sources)] * 3


@given(
    passes=st.lists(
        st.lists(
            st.tuples(st.sampled_from(OUTCOMES), st.sampled_from(REPLIES)),
            min_size=1, max_size=5,
        ),
        min_size=3, max_size=3,
    ),
    max_attempts=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
# The two precedence rules, pinned: tier-1's few derandomised examples
# need not draw a pass that remembers two errors.
@example(_same(("404", "remember"), ("retryable", "remember")), 3, 0)
@example(
    _same(("retryable", "remember"), ("shed", "remember"), ("none", "reraise")), 3, 0
)
def test_walk_follows_its_rules(passes, max_attempts, seed):
    assert _observed(passes, max_attempts, seed) == _reference(passes, max_attempts)
