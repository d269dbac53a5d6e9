"""The write-ahead journal: framing, rotation, snapshots, replay."""

import json
import zlib

import pytest

from repro.core import journal as jm
from repro.core.journal import (
    Journal,
    JournalCorruption,
    JournalError,
    JournalRecord,
    canonical_json,
    empty_state,
)


def route_op(cluster="A", vni=7, prefix="10.0.0.0/8", scope="local"):
    return "install-route", {
        "cluster": cluster, "vni": vni, "prefix": prefix,
        "action": {"scope": scope, "next_hop_vni": None, "target": None},
    }


def vm_op(cluster="A", vni=7, vm_ip=0x0A000001, version=4, nc_ip=0x0B000001):
    return "install-vm", {
        "cluster": cluster, "vni": vni, "vm_ip": vm_ip, "vm_version": version,
        "binding": {"nc_ip": nc_ip, "nc_version": 4},
    }


class TestRecordFraming:
    def test_roundtrip(self):
        rec = JournalRecord(3, "install-route", {"vni": 7, "prefix": "10.0.0.0/8"})
        assert JournalRecord.decode(rec.encode()) == rec

    def test_payload_with_pipe_characters_survives(self):
        # Journalled keys use "|" internally; the frame splits on the
        # *last* pipe for the CRC and the first two for seq/op.
        rec = JournalRecord(0, "txn", {"key": "7|10.0.0.0/8", "ops": []})
        assert JournalRecord.decode(rec.encode()) == rec

    def test_checksum_flip_detected(self):
        encoded = bytearray(JournalRecord(1, "install-vm", {"vni": 9}).encode())
        pos = encoded.index(b"9")
        encoded[pos:pos + 1] = b"8"
        with pytest.raises(JournalCorruption, match="checksum"):
            JournalRecord.decode(bytes(encoded))

    def test_unparseable_line_detected(self):
        with pytest.raises(JournalCorruption, match="unparseable"):
            JournalRecord.decode(b"not a record\n")

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestAppendAndRotation:
    def test_sequence_is_monotonic(self):
        journal = Journal()
        seqs = [journal.append(*route_op(vni=i)).seq for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert journal.last_seq == 4 and journal.appends == 5

    def test_rotation_bounds_segments(self):
        journal = Journal(segment_bytes=256)
        for i in range(20):
            journal.append(*route_op(vni=i))
        assert journal.rotations > 0
        assert all(len(s.data) <= 256 for s in journal.segments)
        # Rotation loses nothing.
        assert [r.seq for r in journal.records(after_seq=-1)] == list(range(20))

    def test_bad_segment_size_rejected(self):
        with pytest.raises(JournalError):
            Journal(segment_bytes=0)


class TestReplay:
    def test_materialize_applies_installs_and_removes(self):
        journal = Journal()
        journal.append(*route_op(vni=7))
        journal.append(*vm_op(vni=7))
        journal.append("remove-route", {"cluster": "A", "vni": 7,
                                        "prefix": "10.0.0.0/8"})
        state = journal.materialize()
        assert state["routes"]["A"] == {}
        assert state["vms"]["A"]["7|167772161|4"]["nc_ip"] == 0x0B000001

    def test_materialize_is_idempotent(self):
        journal = Journal()
        for i in range(4):
            journal.append(*route_op(vni=i))
        assert journal.materialize() == journal.materialize()

    def test_replay_tolerates_duplicate_effects(self):
        # Upsert/delete semantics: re-installing and re-removing the same
        # entry converges to the same state.
        journal = Journal()
        journal.append(*route_op(vni=7))
        journal.append(*route_op(vni=7))
        journal.append("remove-vm", {"cluster": "A", "vni": 9,
                                     "vm_ip": 1, "vm_version": 4})
        state = journal.materialize()
        assert list(state["routes"]["A"]) == ["7|10.0.0.0/8"]

    def test_unknown_op_raises(self):
        journal = Journal()
        journal.append("frobnicate", {"x": 1})
        with pytest.raises(JournalError, match="unknown journal op"):
            journal.materialize()


class TestSnapshots:
    def test_snapshot_plus_tail_equals_genesis_replay(self):
        genesis = Journal()
        snapped = Journal()
        for i in range(6):
            genesis.append(*route_op(vni=i))
            snapped.append(*route_op(vni=i))
            if i == 2:
                snapped.snapshot(snapped.materialize())
        assert snapped.materialize() == genesis.materialize()

    def test_snapshot_prunes_covered_segments(self):
        journal = Journal(segment_bytes=256)
        for i in range(20):
            journal.append(*route_op(vni=i))
        segments_before = len(journal.segments)
        journal.snapshot(journal.materialize())
        assert len(journal.segments) < segments_before
        # The tail after the snapshot is empty; replay still sees all 20.
        assert journal.records() == []
        assert len(journal.materialize()["routes"]["A"]) == 20

    def test_appends_after_snapshot_land_in_tail(self):
        journal = Journal()
        journal.append(*route_op(vni=1))
        journal.snapshot(journal.materialize())
        journal.append(*route_op(vni=2))
        assert [r.payload["vni"] for r in journal.records()] == [2]
        assert len(journal.materialize()["routes"]["A"]) == 2

    def test_snapshot_is_a_deep_copy(self):
        journal = Journal()
        state = empty_state()
        journal.snapshot(state)
        state["version"] = 99
        assert journal.snapshot_state["version"] == 0

    def test_snapshot_reads_never_alias_the_held_copy(self):
        # The snapshot is held as canonical text: every read decodes a
        # fresh store, so neither snapshot_state nor materialize() can
        # hand a caller the journal's own copy to mutate.
        journal = Journal()
        journal.append(*route_op(vni=1))
        journal.snapshot(journal.materialize())
        before = journal.dump()
        journal.snapshot_state["routes"]["A"].clear()
        journal.materialize()["routes"]["A"].clear()
        assert journal.dump() == before
        assert len(journal.materialize()["routes"]["A"]) == 1

    def test_snapshot_bytes_is_the_canonical_size(self):
        journal = Journal()
        assert journal.snapshot_bytes == 0 and journal.snapshot_state is None
        op, payload = route_op(vni=1, scope="internet")
        payload["action"]["target"] = "igw-\u00e9"  # non-ASCII is escaped
        journal.append(op, payload)
        state = journal.materialize()
        journal.snapshot(state)
        assert journal.snapshot_bytes == len(canonical_json(state).encode("utf-8"))
        assert journal.telemetry()["snapshot_bytes"] == journal.snapshot_bytes


def remove_route_op(cluster="A", vni=7, prefix="10.0.0.0/8"):
    return "remove-route", {"cluster": cluster, "vni": vni, "prefix": prefix}


def snapshot_text(journal):
    """The checkpoint text as ``dump()`` writes it in the SNAP header."""
    header = journal.dump().split(b"\n", 1)[0].decode()
    return header.split("|", 2)[2].rsplit("|", 1)[0]


class TestCompaction:
    """``compact()`` folds the verified tail into the keyed checkpoint."""

    def _checkpointed(self, routes, segment_bytes=16384):
        journal = Journal(segment_bytes=segment_bytes)
        for i in range(routes):
            journal.append(*route_op(vni=i, prefix=f"10.{i % 250}.0.0/16"))
        journal.append("add-tenant", {"vni": 1, "cluster": "A", "profile": {
            "vni": 1, "routes": 1, "vms": 0, "traffic_bps": 1.0}})
        journal.snapshot(journal.materialize())
        return journal

    @staticmethod
    def _tail(journal):
        """A fixed tail: 12 keys written, 4 of them removed again,
        3 checkpointed keys removed, one replaced."""
        for i in range(8):
            journal.append(*route_op(vni=900 + i, prefix="172.16.0.0/24"))
        for i in range(4):
            journal.append(*vm_op(vni=900 + i))
        for i in range(4):
            journal.append(*remove_route_op(vni=900 + i, prefix="172.16.0.0/24"))
        for i in range(3):
            journal.append(*remove_route_op(vni=i, prefix=f"10.{i}.0.0/16"))
        journal.append(*route_op(vni=5, prefix="10.5.0.0/16", scope="internet"))

    def test_compact_equals_a_fresh_snapshot(self):
        journal = self._checkpointed(40)
        self._tail(journal)
        txn = journal.append("txn", {"cluster": "B", "ops": [
            {**route_op(cluster="B")[1], "op": "install-route"}]})
        journal.append("txn-commit", {"txn_seq": txn.seq})
        aborted = journal.append("txn", {"cluster": "C", "ops": [
            {**route_op(cluster="C")[1], "op": "install-route"}]})
        journal.append("txn-abort", {"txn_seq": aborted.seq})
        journal.append("xtxn-commit", {"xid": "s00:1"})
        journal.append("remove-tenant", {"vni": 7, "cluster": "B"})
        expected = journal.materialize()
        journal.compact()
        assert journal.records() == []
        assert snapshot_text(journal) == canonical_json(expected)
        assert journal.snapshot_bytes == len(snapshot_text(journal))
        assert journal.materialize() == expected
        # The emptied cluster "B" keeps its key, as `_apply` leaves it.
        assert expected["routes"]["B"] == {} and "C" not in expected["routes"]

    def test_compact_before_any_checkpoint_is_a_genesis_replay(self):
        journal = Journal()
        self._tail(journal)
        expected = journal.materialize()
        journal.compact()
        assert snapshot_text(journal) == canonical_json(expected)
        assert journal.snapshot_bytes == len(snapshot_text(journal))

    def test_fold_renders_only_the_keys_the_tail_names(self, monkeypatch):
        # Render counts, not timings: with the same tail, a 10x larger
        # checkpoint costs the fold no extra value render and no render
        # of the snapshot text.
        counts = []
        for routes in (50, 500):
            journal = self._checkpointed(routes)
            self._tail(journal)
            calls = {"value": 0, "map": 0}
            value_text, render = jm._Checkpoint.value_text, jm._render

            def counting_value_text(checkpoint, value, _calls=calls):
                _calls["value"] += 1
                return value_text(checkpoint, value)

            def counting_render(entries, _calls=calls):
                _calls["map"] += 1
                return render(entries)

            monkeypatch.setattr(jm._Checkpoint, "value_text", counting_value_text)
            monkeypatch.setattr(jm, "_render", counting_render)
            journal.compact()
            monkeypatch.undo()
            counts.append(calls)
        # 8 routes + 4 VMs written, 4 of the routes removed again: 8
        # survive, plus the replaced checkpoint route.
        assert counts == [{"value": 9, "map": 0}] * 2

    def test_equal_values_of_other_types_keep_their_own_text(self):
        # 1 == 1.0 == True in Python; their JSON texts differ, so the
        # shared value texts must not conflate them, built or folded.
        journal = Journal()
        state = empty_state()
        state["routes"]["A"] = {"1|a": {"x": 1}, "1|b": {"x": True},
                                "1|c": {"x": 1.0}}
        journal.snapshot(state)
        assert snapshot_text(journal) == canonical_json(state)
        for key, value in (("9|d", True), ("9|e", 1.0), ("9|f", 1)):
            op, payload = vm_op()
            journal.append(op, {**payload, "vni": 9, "vm_ip": key[-1],
                                "binding": {"x": value}})
        expected = journal.materialize()
        journal.compact()
        assert snapshot_text(journal) == canonical_json(expected)

    def test_corrupt_tail_record_leaves_the_journal_untouched(self):
        journal = self._checkpointed(20, segment_bytes=512)
        self._tail(journal)
        seq, segments, dump = journal.snapshot_seq, len(journal.segments), journal.dump()
        data = journal.segments[-1].data
        pos = data.rindex(b"internet")
        data[pos:pos + 8] = b"interNet"
        corrupted = journal.dump()
        with pytest.raises(JournalCorruption):
            journal.compact()
        assert journal.snapshot_seq == seq
        assert len(journal.segments) == segments
        assert journal.dump() == corrupted
        assert corrupted.split(b"\n", 1)[0] == dump.split(b"\n", 1)[0]

    def test_unknown_op_leaves_the_checkpoint_untouched(self):
        journal = self._checkpointed(20)
        self._tail(journal)
        journal.append("frobnicate", {"x": 1})
        before = journal.dump()
        with pytest.raises(JournalError, match="unknown journal op"):
            journal.compact()
        assert journal.dump() == before


class TestTransactions:
    def _txn(self, journal, commit):
        _op, payload = route_op(vni=42)
        payload["op"] = "install-route"
        rec = journal.append("txn", {"cluster": "A", "ops": [payload]})
        if commit:
            journal.append("txn-commit", {"txn_seq": rec.seq})
        return rec

    def test_committed_txn_applies(self):
        journal = Journal()
        self._txn(journal, commit=True)
        state = journal.materialize()
        assert "42|10.0.0.0/8" in state["routes"]["A"]
        assert state["version"] == 1

    def test_unterminated_txn_is_skipped(self):
        # A crash between the txn append and the push leaves no commit
        # marker; replay must treat the batch as never-happened.
        journal = Journal()
        self._txn(journal, commit=False)
        assert journal.materialize() == empty_state()

    def test_aborted_txn_is_skipped(self):
        journal = Journal()
        rec = self._txn(journal, commit=False)
        journal.append("txn-abort", {"txn_seq": rec.seq})
        assert journal.materialize() == empty_state()

    def test_commit_for_unknown_txn_raises(self):
        journal = Journal()
        journal.append("txn-commit", {"txn_seq": 99})
        with pytest.raises(JournalError, match="unknown"):
            journal.materialize()


class TestSerialisation:
    def _populated(self):
        journal = Journal(segment_bytes=256)
        for i in range(10):
            journal.append(*route_op(vni=i))
        journal.snapshot(journal.materialize())
        journal.append(*vm_op(vni=3))
        return journal

    def test_dump_load_roundtrip(self):
        journal = self._populated()
        loaded = Journal.load(journal.dump(), segment_bytes=256)
        assert loaded.materialize() == journal.materialize()
        assert loaded.next_seq == journal.next_seq
        assert loaded.snapshot_seq == journal.snapshot_seq
        assert loaded.dump() == journal.dump()

    def test_load_parses_the_snapshot_it_keeps(self):
        # Valid CRC, malformed snapshot JSON: rejected at load time.
        header = "SNAP|3|{not json"
        crc = zlib.crc32(header.encode()) & 0xFFFFFFFF
        with pytest.raises(json.JSONDecodeError):
            Journal.load(f"{header}|{crc:08x}\n".encode())

    def test_load_rejects_a_snapshot_that_is_not_an_intent_store(self):
        # Valid CRC, valid JSON, but nothing a checkpoint can be keyed from.
        for text in ("[]", '{"routes":{}}', '{"routes":{"A":5},"vms":{},'
                     '"tenants":{},"version":0}'):
            header = f"SNAP|3|{text}"
            crc = zlib.crc32(header.encode()) & 0xFFFFFFFF
            with pytest.raises(JournalCorruption, match="intent store"):
                Journal.load(f"{header}|{crc:08x}\n".encode())

    def test_equal_histories_dump_identically(self):
        assert self._populated().dump() == self._populated().dump()

    def test_load_rejects_corrupted_record(self):
        data = bytearray(self._populated().dump())
        pos = data.rindex(b"nc_ip")
        data[pos:pos + 5] = b"nc_iq"
        with pytest.raises(JournalCorruption):
            Journal.load(bytes(data))

    @staticmethod
    def _five(appends=5, segment_bytes=16384):
        journal = Journal(segment_bytes=segment_bytes)
        for i in range(appends):
            journal.append(*route_op(vni=i))
        return journal

    def test_load_drops_a_torn_final_record(self):
        # A crash mid-append leaves the last line without its newline.
        # Under WAL-before-push it was never pushed, so loading drops it.
        # Second case: the torn record is the one that opened a segment.
        four = len(self._five(appends=4).segments[0].data)
        for segment_bytes, segments in ((16384, 1), (four, 2)):
            data = self._five(segment_bytes=segment_bytes).dump()
            want = self._five(4, segment_bytes).dump()
            assert len(self._five(segment_bytes=segment_bytes).segments) == segments
            last = len(self._five().records()[-1].encode())
            for cut in range(1, last):
                loaded = Journal.load(data[:-cut], segment_bytes=segment_bytes)
                assert loaded.dump() == want, (segment_bytes, cut)
                assert loaded.telemetry()["torn_tail_records"] == 1
                assert loaded.append(*route_op(vni=9)).seq == 4
            assert Journal.load(data).telemetry()["torn_tail_records"] == 0

    def test_a_torn_tail_does_not_excuse_a_corrupted_record(self):
        data = bytearray(self._five().dump())
        pos = data.index(b'"vni":1')
        data[pos:pos + 7] = b'"vni":2'
        with pytest.raises(JournalCorruption, match="checksum mismatch"):
            Journal.load(bytes(data[:-5]))

    def test_load_rejects_missing_header(self):
        with pytest.raises(JournalCorruption, match="SNAP"):
            Journal.load(b"SEG|0\n")

    def test_dump_header_checksummed(self):
        data = self._populated().dump()
        snap_line, rest = data.split(b"\n", 1)
        broken = snap_line.replace(b'"version":', b'"versioM":') + b"\n" + rest
        with pytest.raises(JournalCorruption, match="SNAP header"):
            Journal.load(broken)
