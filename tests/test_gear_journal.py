"""The write-ahead intent journal: appends, replay, compaction."""

import pytest
from hypothesis import given, strategies as st

from repro.bench.deploy import deploy_with_gear
from repro.common.clock import SimClock
from repro.gear.journal import (
    CHUNK_BEGIN,
    CHUNK_COMMIT,
    FETCH_BEGIN,
    FETCH_COMMIT,
    LINK_BEGIN,
    LINK_COMMIT,
    IntentJournal,
    JournalRecord,
)


class TestAppends:
    def test_records_carry_sequence_and_time(self):
        clock = SimClock()
        journal = IntentJournal(clock)
        journal.fetch_begin("id-a")
        clock.advance(1.5, "work")
        journal.fetch_commit("id-a")
        first, second = journal.records
        assert (first.seq, first.op, first.at_s) == (0, FETCH_BEGIN, 0.0)
        assert second.seq == 1 and second.at_s == 1.5

    def test_appends_cost_no_virtual_time(self):
        # The journaled admission path must stay byte-identical in time
        # to the unjournaled one; records ride the data write stream.
        clock = SimClock()
        journal = IntentJournal(clock)
        journal.fetch_begin("id-a")
        journal.fetch_commit("id-a")
        journal.link_begin("id-a", "/bin/a", "img.gear:v1")
        journal.link_commit("id-a", "/bin/a", "img.gear:v1")
        assert clock.now == 0.0

    def test_clockless_journal_stamps_zero(self):
        journal = IntentJournal()
        journal.fetch_begin("id-a")
        assert journal.records[-1].at_s == 0.0

    def test_link_records_carry_path_and_reference(self):
        journal = IntentJournal()
        journal.link_begin("id-a", "/bin/a", "img.gear:v1")
        record = journal.records[-1]
        assert record.op == LINK_BEGIN
        assert record.path == "/bin/a"
        assert record.reference == "img.gear:v1"


class TestRecordShape:
    def test_records_reject_assignment(self):
        journal = IntentJournal()
        journal.link_begin("id-a", "/bin/a", "img.gear:v1")
        record = journal.records[-1]
        for name in ("seq", "identity", "path", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(record, name, "x")
        assert not hasattr(record, "__dict__")

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = JournalRecord(
            seq=3, op=LINK_BEGIN, identity="id-a", at_s=1.5,
            path="/bin/a", reference="img.gear:v1",
        )
        assert by_keyword == JournalRecord(
            3, LINK_BEGIN, "id-a", 1.5, "/bin/a", "img.gear:v1"
        )
        fetch = JournalRecord(seq=0, op=FETCH_BEGIN, identity="id-a", at_s=0.0)
        assert (fetch.path, fetch.reference) == (None, None)

    def test_a_deploy_keeps_four_records_per_faulted_file(
        self, published_testbed, small_corpus
    ):
        # Retention: columns are a cheaper form of the same facts,
        # not fewer of them.
        image = small_corpus.by_series["nginx"][0]
        result = deploy_with_gear(published_testbed, image)
        files = image.trace.file_count
        assert (result.files_fetched, result.cache_hits) == (files, 0)
        journal = published_testbed.gear_driver.journal
        assert len(journal.records) == journal.appended == 4 * files
        assert [r.seq for r in journal.records] == list(range(4 * files))


def _apply(journal, op, identity, path, reference):
    """Append one record through the public appender for ``op``."""
    appender = getattr(journal, op.replace("-", "_"))
    if op in (FETCH_BEGIN, FETCH_COMMIT):
        appender(identity)
    elif op in (LINK_BEGIN, LINK_COMMIT):
        appender(identity, path, reference)
    else:
        appender(identity, int(path))


class TestRecordsView:
    """``IntentJournal.records`` reads the journal's columns as a sequence
    of :class:`JournalRecord` (DESIGN.md §17)."""

    def _journal(self):
        clock = SimClock()
        journal = IntentJournal(clock)
        journal.fetch_begin("id-a")
        clock.advance(1.0 / 3.0, "work")
        journal.link_begin("id-a", "/bin/a", "img.gear:v1")
        journal.chunk_commit("id-b", 7)
        return journal, [
            JournalRecord(0, FETCH_BEGIN, "id-a", 0.0),
            JournalRecord(
                1, LINK_BEGIN, "id-a", 1.0 / 3.0, "/bin/a", "img.gear:v1"
            ),
            JournalRecord(2, CHUNK_COMMIT, "id-b", 1.0 / 3.0, "7"),
        ]

    def test_reads_like_a_list_of_records(self):
        journal, rows = self._journal()
        records = journal.records
        assert len(records) == len(journal) == 3
        assert records[0] == rows[0] and records[-1] == rows[2]
        assert records[1:] == rows[1:]
        assert records[::-1] == rows[::-1] == list(reversed(records))
        assert list(records) == rows
        assert records == rows and rows == records
        assert records != rows[:2] and records != rows[:2] + rows[:1]
        assert rows[1] in records
        assert isinstance(records[1], JournalRecord)
        for index in (3, -4):
            with pytest.raises(IndexError):
                records[index]

    def test_the_view_is_live_and_compact_empties_every_column(self):
        journal, rows = self._journal()
        records = journal.records
        assert journal.compact() == 3
        assert records == [] and len(records) == 0 and records[:] == []
        assert journal.replay().committed_chunks == {}
        journal.fetch_commit("id-c")
        assert records == [JournalRecord(3, FETCH_COMMIT, "id-c", 1.0 / 3.0)]

    @given(
        st.lists(
            st.one_of(
                st.none(),  # compact()
                st.tuples(
                    st.sampled_from([
                        FETCH_BEGIN, FETCH_COMMIT, LINK_BEGIN, LINK_COMMIT,
                        CHUNK_BEGIN, CHUNK_COMMIT,
                    ]),
                    st.sampled_from(["id-a", "id-b"]),
                    st.sampled_from(["0", "1"]),
                    st.sampled_from(["one.gear:v1", "two.gear:v1"]),
                    st.sampled_from([0.0, 0.125, 1.0 / 3.0]),
                ),
            ),
            max_size=30,
        )
    )
    def test_any_append_and_compact_sequence_matches_a_list(self, steps):
        clock = SimClock()
        journal, model, seq = IntentJournal(clock), [], 0
        for step in steps:
            if step is None:
                assert journal.compact() == len(model)
                model.clear()
                continue
            op, identity, path, reference, delay = step
            clock.advance(delay, "work")
            _apply(journal, op, identity, path, reference)
            linked = op in (LINK_BEGIN, LINK_COMMIT)
            model.append(JournalRecord(
                seq, op, identity, clock.now,
                None if op in (FETCH_BEGIN, FETCH_COMMIT) else path,
                reference if linked else None,
            ))
            seq += 1
            assert journal.records == model and list(journal.records) == model
            assert journal.records[-1] == model[-1]
            assert journal.records[len(model) // 2:] == model[len(model) // 2:]
            assert len(journal) == len(model) and journal.appended == seq
        # The fold over the columns is the fold over the records.
        state = journal.replay()
        begun = {}
        for record in model:
            if record.op == LINK_BEGIN:
                begun[(record.reference, record.path)] = record
            elif record.op == LINK_COMMIT:
                begun.pop((record.reference, record.path), None)
        assert state.open_links == sorted(begun.values())


class TestReplay:
    def test_uncommitted_fetch_is_open(self):
        journal = IntentJournal()
        journal.fetch_begin("id-a")
        state = journal.replay()
        assert state.open_fetches == ["id-a"]
        assert "id-a" not in state.committed_fetches

    def test_committed_fetch_is_closed(self):
        journal = IntentJournal()
        journal.fetch_begin("id-a")
        journal.fetch_commit("id-a")
        state = journal.replay()
        assert state.open_fetches == []
        assert state.committed_fetches == {"id-a"}

    def test_link_commit_closes_the_matching_intent(self):
        journal = IntentJournal()
        journal.link_begin("id-a", "/bin/a", "img.gear:v1")
        journal.link_begin("id-b", "/bin/b", "img.gear:v1")
        journal.link_commit("id-a", "/bin/a", "img.gear:v1")
        state = journal.replay()
        assert [record.identity for record in state.open_links] == ["id-b"]

    def test_same_path_in_two_indexes_is_two_intents(self):
        journal = IntentJournal()
        journal.link_begin("id-a", "/bin/a", "one.gear:v1")
        journal.link_begin("id-a", "/bin/a", "two.gear:v1")
        journal.link_commit("id-a", "/bin/a", "one.gear:v1")
        state = journal.replay()
        assert len(state.open_links) == 1
        assert state.open_links[0].reference == "two.gear:v1"

    def test_open_links_come_back_in_begin_order(self):
        journal = IntentJournal()
        for index in range(5):
            journal.link_begin(f"id-{index}", f"/f{index}", "img.gear:v1")
        state = journal.replay()
        assert [r.seq for r in state.open_links] == sorted(
            r.seq for r in state.open_links
        )

    def test_refetch_after_commit_reopens(self):
        # A committed identity can be fetched again later (e.g. after an
        # eviction); a crash mid-refetch must classify it as open again.
        journal = IntentJournal()
        journal.fetch_begin("id-a")
        journal.fetch_commit("id-a")
        journal.fetch_begin("id-a")
        state = journal.replay()
        assert state.open_fetches == ["id-a"]
        # ...but its earlier commit is still on record.
        assert "id-a" in state.committed_fetches


class TestCompaction:
    def test_compact_drops_everything_and_counts(self):
        journal = IntentJournal()
        journal.fetch_begin("id-a")
        journal.fetch_commit("id-a")
        assert journal.compact() == 2
        assert len(journal) == 0
        assert journal.compactions == 1
        assert journal.appended == 2  # history survives

    def test_sequence_survives_compaction(self):
        journal = IntentJournal()
        journal.fetch_begin("id-a")
        journal.compact()
        journal.fetch_begin("id-b")
        assert journal.records[-1].seq == 1
