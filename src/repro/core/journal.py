"""Write-ahead journal for the controller (§6.1, made crash-safe).

The paper's controller is the single source of truth for table intent;
losing it mid-update is how regions end up half-configured. This module
makes every controller mutation durable-before-visible: a mutation is
first appended to the journal as a checksummed record, and only then
pushed to the gateways. A controller that dies between the append and
the push can be rebuilt by replaying the journal — the rebuilt intent
store is byte-for-byte the pre-crash one, and a full sync against it
leaves ``consistency_check() == []``.

Three durability mechanisms, mirroring production WAL designs:

* **Checksummed records** — each record is one framed line
  ``seq|op|payload|crc32``; decoding verifies the CRC so bit-rotten
  records surface as :class:`JournalCorruption` instead of silently
  corrupt intent. A final line with no newline is a torn append (the
  likeliest crash point); it was never pushed, so :meth:`Journal.load`
  drops it and counts it.
* **Segment rotation** — records land in bounded segments (default 16
  KiB) so pruning after a snapshot is O(segments), not O(records).
* **Snapshots** — :meth:`Journal.snapshot` captures the materialised
  intent at the current sequence number and prunes every segment wholly
  covered by it; :meth:`Journal.compact` then folds only the verified
  tail into that keyed checkpoint, so later checkpoints cost O(tail).
  Recovery replays snapshot + tail, which is equivalent to replaying
  from genesis (tested invariant).

Replay is deterministic and idempotent: records are upserts/deletes
over the intent store, so replaying a tail twice — or replaying on top
of a snapshot that already contains part of it — converges to the same
state.
"""

from __future__ import annotations

import json
import marshal
import zlib
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..net.addr import Prefix
from ..tables.vm_nc import NcBinding
from ..tables.vxlan_routing import RouteAction, Scope
from .splitting import TenantProfile


class JournalError(RuntimeError):
    """Raised on journal misuse (unknown ops, out-of-order appends)."""


class JournalCorruption(JournalError):
    """A record failed its checksum or framing during decode."""


class ControllerCrash(RuntimeError):
    """An injected controller crash (``FaultKind.CONTROLLER_CRASH``).

    Raised between the journal append and the cluster push; whatever the
    controller had not journalled is legitimately lost, everything
    journalled must survive :meth:`~repro.core.controller.Controller.recover`.
    """


#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: dict) -> str:
    """The one true serialisation — sorted keys, no whitespace — so the
    same intent always produces the same bytes (byte-identical replays)."""
    return _CANONICAL.encode(payload)


@dataclass(frozen=True)
class JournalRecord:
    """One journalled mutation: monotonic *seq*, an *op* name, and a
    JSON-serialisable *payload*."""

    seq: int
    op: str
    payload: dict

    def encode(self) -> bytes:
        """Frame the record as ``seq|op|payload|crc32`` + newline."""
        body = f"{self.seq}|{self.op}|{canonical_json(self.payload)}"
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        return f"{body}|{crc:08x}\n".encode("utf-8")

    @classmethod
    def decode(cls, line: bytes) -> "JournalRecord":
        """Parse and checksum-verify one framed line.

        >>> rec = JournalRecord(3, "install-route", {"vni": 7})
        >>> JournalRecord.decode(rec.encode()) == rec
        True
        """
        text = line.decode("utf-8").rstrip("\n")
        try:
            body, crc_text = text.rsplit("|", 1)
            seq_text, op, payload_text = body.split("|", 2)
            crc = int(crc_text, 16)
        except ValueError as exc:
            raise JournalCorruption(f"unparseable record: {text!r}") from exc
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
            raise JournalCorruption(f"checksum mismatch on record seq={seq_text}")
        return cls(int(seq_text), op, json.loads(payload_text))


@dataclass
class Segment:
    """One bounded run of encoded records."""

    index: int
    data: bytearray = field(default_factory=bytearray)
    first_seq: int = -1
    last_seq: int = -1

    def add(self, record: JournalRecord, encoded: bytes) -> None:
        if self.first_seq < 0:
            self.first_seq = record.seq
        self.last_seq = record.seq
        self.data += encoded

    def decode(self) -> List[JournalRecord]:
        """Decode (and checksum-verify) every record in the segment."""
        return [JournalRecord.decode(line + b"\n")
                for line in bytes(self.data).split(b"\n") if line]


# -- intent-state codecs ----------------------------------------------------
#
# The journal stores plain JSON; these helpers translate between the
# controller's rich types and the journalled payloads. Keys are flat
# strings ("vni|prefix", "vni|ip|version") so the state dict itself is
# JSON-round-trippable.


def encode_action(action: RouteAction) -> dict:
    return {"scope": action.scope.value, "next_hop_vni": action.next_hop_vni,
            "target": action.target}


def decode_action(payload: dict) -> RouteAction:
    return RouteAction(Scope(payload["scope"]), payload.get("next_hop_vni"),
                       payload.get("target"))


def encode_binding(binding: NcBinding) -> dict:
    return {"nc_ip": binding.nc_ip, "nc_version": binding.nc_version}


def decode_binding(payload: dict) -> NcBinding:
    return NcBinding(nc_ip=payload["nc_ip"], nc_version=payload["nc_version"])


def encode_profile(profile: TenantProfile) -> dict:
    return {"vni": profile.vni, "routes": profile.routes, "vms": profile.vms,
            "traffic_bps": profile.traffic_bps}


def decode_profile(payload: dict) -> TenantProfile:
    return TenantProfile(payload["vni"], payload["routes"], payload["vms"],
                         payload["traffic_bps"])


def route_key(vni: int, prefix: Prefix) -> str:
    return f"{vni}|{prefix}"


def parse_route_key(key: str) -> Tuple[int, Prefix]:
    vni_text, prefix_text = key.split("|", 1)
    return int(vni_text), Prefix.parse(prefix_text)


def vm_key(vni: int, vm_ip: int, version: int) -> str:
    return f"{vni}|{vm_ip}|{version}"


def parse_vm_key(key: str) -> Tuple[int, int, int]:
    vni_text, ip_text, version_text = key.split("|")
    return int(vni_text), int(ip_text), int(version_text)


def empty_state() -> dict:
    """The genesis intent store: no tenants, no entries."""
    return {"tenants": {}, "routes": {}, "vms": {}, "version": 0}


def _apply(state: dict, record: JournalRecord) -> None:
    """Apply one committed record to the intent store (upsert/delete
    semantics, so replay is idempotent)."""
    op, p = record.op, record.payload
    if op == "add-tenant":
        state["tenants"][str(p["vni"])] = {
            "cluster": p["cluster"], "profile": p["profile"],
        }
        state["version"] += 1
    elif op == "remove-tenant":
        state["tenants"].pop(str(p["vni"]), None)
        prefix_key = f"{p['vni']}|"
        for table in ("routes", "vms"):
            entries = state[table].get(p["cluster"], {})
            for key in [k for k in entries if k.startswith(prefix_key)]:
                del entries[key]
        state["version"] += 1
    elif op == "install-route":
        state["routes"].setdefault(p["cluster"], {})[
            route_key(p["vni"], Prefix.parse(p["prefix"]))] = p["action"]
    elif op == "remove-route":
        state["routes"].get(p["cluster"], {}).pop(
            route_key(p["vni"], Prefix.parse(p["prefix"])), None)
    elif op == "install-vm":
        state["vms"].setdefault(p["cluster"], {})[
            vm_key(p["vni"], p["vm_ip"], p["vm_version"])] = p["binding"]
    elif op == "remove-vm":
        state["vms"].get(p["cluster"], {}).pop(
            vm_key(p["vni"], p["vm_ip"], p["vm_version"]), None)
    elif op == "txn-commit":
        # Reached only through `_committed`, after the txn's staged ops.
        state["version"] += 1
    else:
        raise JournalError(f"unknown journal op {op!r} at seq {record.seq}")


def _committed(records: Iterable[JournalRecord]) -> Iterator[JournalRecord]:
    """The commit-marker staging every replay shares: the records whose
    effect reaches the intent store, in the order `_apply` takes them.

    A ``txn`` record's staged ops come out only when its ``txn-commit``
    marker does, followed by the marker itself (one version bump);
    aborted or unterminated (crashed mid-push) transactions and the
    cross-shard markers yield nothing.
    """
    staged: Dict[int, JournalRecord] = {}
    for record in records:
        op = record.op
        if op == "txn":
            staged[record.seq] = record
        elif op == "txn-commit":
            txn = staged.pop(record.payload["txn_seq"], None)
            if txn is None:
                raise JournalError(
                    f"txn-commit at seq {record.seq} references unknown "
                    f"txn {record.payload['txn_seq']}")
            for op_payload in txn.payload["ops"]:
                yield JournalRecord(txn.seq, op_payload["op"], op_payload)
            yield record
        elif op == "txn-abort":
            staged.pop(record.payload["txn_seq"], None)
        elif op not in Journal.XTXN_OPS:
            # Cross-shard protocol markers carry no intent of their own.
            yield record


# -- the keyed checkpoint ---------------------------------------------------
#
# A snapshot is held keyed rather than as one text: per section and
# cluster a map from entry key to the entry's canonical value text, per
# tenant its canonical text, and the version. The canonical snapshot
# text is derived — rendered in sorted order only when something reads
# it — and its length is kept as the fold goes, so sizing it never
# renders.

#: The keyed entry sections of an intent store.
_SECTIONS = ("routes", "vms")


def _json_safe(text: str) -> bool:
    """True when ``json.dumps(text)`` is *text* in quotes: printable
    ASCII without ``"`` or ``\\`` — every route key, VM key and VNI."""
    return (text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text)


def _quote(key: str) -> str:
    """*key* as a JSON string."""
    return f'"{key}"' if _json_safe(key) else json.dumps(key)


def _render(entries: Dict[str, str]) -> str:
    """One keyed map as canonical JSON (its values are already texts)."""
    keys = sorted(entries)
    if not _json_safe("".join(keys)):
        return "{" + ",".join(f"{json.dumps(key)}:{entries[key]}" for key in keys) + "}"
    # `,"key":value` per entry, laid out by slice assignment, joined once.
    parts = [',"', None, '":', None] * len(keys)
    parts[1::4] = keys
    parts[3::4] = map(entries.__getitem__, keys)
    return "{" + "".join(parts)[1:] + "}"


def _weight(entries: Dict[str, str]) -> int:
    """The rendered size of *entries*' items: Σ len('"key":value,')."""
    keys = "".join(entries)
    quoted = (len(keys) + 2 * len(entries) if _json_safe(keys)
              else sum(len(json.dumps(key)) for key in entries))
    return quoted + sum(map(len, entries.values())) + 2 * len(entries)


class _Overlay(MutableMapping):
    """A write buffer over one checkpoint map while a tail is folded.

    Reads see the map with the buffered writes on top, so `_apply` runs
    on it unchanged; nothing reaches the map before :meth:`commit`, so
    a fold that fails half way leaves the checkpoint whole, and a key
    installed and removed inside one tail is never rendered.
    """

    def __init__(self, held: Dict[str, str]):
        self.held = held
        self.writes: dict = {}
        self.gone: set = set()

    def __getitem__(self, key):
        if key in self.writes:
            return self.writes[key]
        if key in self.gone:
            raise KeyError(key)
        return self.held[key]

    def __setitem__(self, key, value):
        self.writes[key] = value

    def __delitem__(self, key):
        self[key]  # absent keys raise KeyError, as a dict does
        self.writes.pop(key, None)
        if key in self.held:
            self.gone.add(key)

    def __iter__(self):
        yield from self.writes
        for key in self.held:
            if key not in self.gone and key not in self.writes:
                yield key

    def __len__(self):
        return sum(1 for _ in self)

    def commit(self, render: Callable[[object], str]) -> int:
        """Write the buffer into the held map, rendering the surviving
        writes; returns the change in the map's rendered size."""
        held, delta = self.held, 0
        for key in self.gone - self.writes.keys():
            delta -= len(_quote(key)) + len(held.pop(key)) + 2
        for key, value in self.writes.items():
            text = render(value)
            old = held.get(key)
            if old is not None:
                delta += len(text) - len(old)
            else:
                delta += len(_quote(key)) + len(text) + 2
            held[key] = text
        return delta


class _Checkpoint:
    """A snapshot held keyed (see above), with its rendered ``size``."""

    def __init__(self) -> None:
        self.sections: Dict[str, Dict[str, Dict[str, str]]] = {
            section: {} for section in _SECTIONS}
        self.tenants: Dict[str, str] = {}
        self.version = 0
        #: One shared text per distinct value (a shard has a few hundred
        #: action and binding values across its whole table).
        self._texts: Dict[bytes, str] = {}
        #: Rendered size of every entry and tenant item, kept by the fold.
        self.weight = 0
        self._resize()

    @classmethod
    def of(cls, state: dict) -> "_Checkpoint":
        """The checkpoint of an intent store, one text per distinct value."""
        checkpoint = cls()
        text = checkpoint.value_text
        for section in _SECTIONS:
            checkpoint.sections[section] = {
                cluster_id: {key: text(value) for key, value in entries.items()}
                for cluster_id, entries in state[section].items()}
        checkpoint.tenants = {vni: canonical_json(tenant)
                              for vni, tenant in state["tenants"].items()}
        checkpoint.version = state["version"]
        checkpoint.weight = _weight(checkpoint.tenants) + sum(
            _weight(entries) for section in checkpoint.sections.values()
            for entries in section.values())
        checkpoint._resize()
        return checkpoint

    def value_text(self, value) -> str:
        """*value*'s canonical JSON, one shared text per distinct value.

        The memo key is the value's marshal image: built in C and exact
        about types, so ``1``, ``1.0`` and ``True`` never share a text
        (equal images decode to the same value, hence the same JSON)."""
        try:
            key = marshal.dumps(value)
        except ValueError:  # not marshallable: no sharing
            return canonical_json(value)
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = canonical_json(value)
        return text

    def fold(self, records: Iterable[JournalRecord]) -> None:
        """Apply committed *records* with `_apply`'s semantics; only the
        keys they leave present are rendered. Atomic: a record that
        raises leaves the checkpoint as it was."""
        state: dict = {section: {cluster_id: _Overlay(entries)
                                 for cluster_id, entries in held.items()}
                       for section, held in self.sections.items()}
        state["tenants"] = _Overlay(self.tenants)
        state["version"] = self.version
        for record in records:
            _apply(state, record)
        for section in _SECTIONS:
            held = self.sections[section]
            for cluster_id, entries in state[section].items():
                if not isinstance(entries, _Overlay):
                    # A cluster the tail created: `_apply`'s setdefault
                    # put a plain dict there; it stays even if emptied.
                    created, entries = entries, _Overlay(held.setdefault(cluster_id, {}))
                    entries.update(created)
                self.weight += entries.commit(self.value_text)
        self.weight += state["tenants"].commit(canonical_json)
        self.version = state["version"]
        self._resize()

    def _resize(self) -> None:
        """Recompute ``size`` from ``weight``: O(clusters), not O(table).
        Drops value texts no live entry can still be using."""
        size = 40 + len(json.dumps(self.version)) + 1 + (not self.tenants)
        entries = 0
        for section in self.sections.values():
            size += 1 + (not section)
            for cluster_id, held in section.items():
                size += len(_quote(cluster_id)) + 3 + (not held)
                entries += len(held)
        self.size = size + self.weight
        if len(self._texts) > entries:
            self._texts.clear()

    def text(self) -> str:
        """The canonical JSON of the intent store, rendered now."""
        routes, vms = (
            "{" + ",".join(f"{_quote(cluster_id)}:{_render(section[cluster_id])}"
                           for cluster_id in sorted(section)) + "}"
            for section in (self.sections["routes"], self.sections["vms"]))
        return (f'{{"routes":{routes},"tenants":{_render(self.tenants)},'
                f'"version":{json.dumps(self.version)},"vms":{vms}}}')


class Journal:
    """An in-memory write-ahead journal with rotation and snapshots.

    >>> j = Journal()
    >>> _ = j.append("install-route", {"cluster": "A", "vni": 7,
    ...     "prefix": "10.0.0.0/8",
    ...     "action": {"scope": "local", "next_hop_vni": None, "target": None}})
    >>> j.materialize()["routes"]["A"]["7|10.0.0.0/8"]["scope"]
    'local'
    """

    #: Records staged inside an uncommitted transaction never reach
    #: ``materialize`` — only the ops of a txn followed by txn-commit do.
    TXN_OPS = ("txn", "txn-commit", "txn-abort")

    #: Cross-shard transaction markers (``repro.shard``): the coordinator
    #: shard journals the begin/decision records, participants journal
    #: ordinary ``txn`` records tagged with the same ``xid``. The markers
    #: carry no intent of their own — they exist so a recovering region
    #: can resolve another shard's in-doubt transactions.
    XTXN_OPS = ("xtxn-begin", "xtxn-commit", "xtxn-abort")

    def __init__(self, segment_bytes: int = 16384):
        if segment_bytes <= 0:
            raise JournalError("segment_bytes must be positive")
        self.segment_bytes = segment_bytes
        self.segments: List[Segment] = [Segment(0)]
        self.next_seq = 0
        self.snapshot_seq = -1
        #: The latest snapshot, keyed (None before the first one). Its
        #: texts are immutable, so holding them *is* holding a deep copy;
        #: every reader renders or sizes it, none can alias it.
        self._checkpoint: Optional[_Checkpoint] = None
        self.appends = 0
        self.rotations = 0
        self.snapshots = 0
        #: Records the most recent :meth:`materialize` replayed (tail
        #: records after the snapshot floor) — the operator-facing
        #: "how much work would a recovery do right now" number.
        self.last_replay_records = 0
        #: Unterminated final records :meth:`load` dropped (0 or 1).
        self.torn_tail_records = 0

    # -- writing ----------------------------------------------------------

    def append(self, op: str, payload: dict) -> JournalRecord:
        """Durably record one mutation; rotates segments as needed."""
        record = JournalRecord(self.next_seq, op, dict(payload))
        encoded = record.encode()
        segment = self.segments[-1]
        if segment.data and len(segment.data) + len(encoded) > self.segment_bytes:
            segment = Segment(segment.index + 1)
            self.segments.append(segment)
            self.rotations += 1
        segment.add(record, encoded)
        self.next_seq += 1
        self.appends += 1
        return record

    def snapshot(self, state: dict) -> None:
        """Record the materialised intent at the current seq and prune
        every segment wholly covered by it (snapshot + tail stays
        equivalent to a genesis replay). O(table)."""
        self._checkpoint = _Checkpoint.of(state)
        self._prune()

    def compact(self) -> None:
        """Fold the tail into the checkpoint and prune like
        :meth:`snapshot` — O(tail), whatever the table size.

        The tail is decoded once with every checksum verified, staged
        exactly as :meth:`materialize` stages it, and applied with its
        semantics; only keys still present at the end are rendered.
        Before the first checkpoint the fold starts from genesis. A
        corrupt record raises :class:`JournalCorruption` and an unknown
        op :class:`JournalError`, leaving the journal untouched.
        """
        records = self.records()
        checkpoint = self._checkpoint or _Checkpoint()
        checkpoint.fold(_committed(records))
        self._checkpoint = checkpoint
        self._prune()

    def _prune(self) -> None:
        """Move the snapshot floor to the current seq and drop every
        segment wholly below it."""
        self.snapshot_seq = self.next_seq - 1
        kept = [s for s in self.segments if s.last_seq > self.snapshot_seq]
        if not kept:
            kept = [Segment(self.segments[-1].index + 1)]
        self.segments = kept
        self.snapshots += 1

    # -- reading ----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self.next_seq - 1

    @property
    def snapshot_state(self) -> Optional[dict]:
        """The latest snapshot decoded into a fresh intent store (None
        before the first one); mutating it never touches the journal."""
        if self._checkpoint is None:
            return None
        return json.loads(self._checkpoint.text())

    def records(self, after_seq: Optional[int] = None) -> List[JournalRecord]:
        """Decode the records with ``seq > after_seq`` (default: the tail
        after the latest snapshot). Checksums are verified on the way out."""
        floor = self.snapshot_seq if after_seq is None else after_seq
        out: List[JournalRecord] = []
        for segment in self.segments:
            for record in segment.decode():
                if record.seq > floor:
                    out.append(record)
        return out

    def materialize(self) -> dict:
        """Replay snapshot + tail into a fresh intent store.

        Transactions are all-or-nothing: a ``txn`` record's staged ops are
        applied only when its ``txn-commit`` marker is also journalled;
        aborted or unterminated (crashed mid-push) transactions are
        skipped entirely.
        """
        state = self.snapshot_state
        if state is None:
            state = empty_state()
        records = self.records()
        for record in _committed(records):
            _apply(state, record)
        self.last_replay_records = len(records)
        return state

    # -- telemetry --------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Live (unpruned) segments — what compaction must keep bounded."""
        return len(self.segments)

    @property
    def tail_bytes(self) -> int:
        """Encoded bytes in the live segments (the replay tail)."""
        return sum(len(s.data) for s in self.segments)

    def tail_records(self) -> int:
        """Records a recovery would replay on top of the snapshot."""
        return sum(1 for _ in self.records())

    @property
    def snapshot_bytes(self) -> int:
        """Canonical size of the latest snapshot (0 before the first one)
        — the bytes a snapshot "covers" in place of pruned segments.
        O(1): the checkpoint keeps its rendered length as it folds."""
        # The rendered text is ASCII (canonical_json escapes), so chars == bytes.
        return self._checkpoint.size if self._checkpoint is not None else 0

    def telemetry(self) -> dict:
        """The compaction counters an operator (or the shard bench)
        watches: sustained churn with periodic snapshots must keep
        ``segments``/``tail_records``/``tail_bytes`` bounded while
        ``appends`` grows without bound.

        >>> j = Journal(segment_bytes=64)
        >>> for i in range(4):
        ...     _ = j.append("install-route", {"cluster": "A", "vni": i,
        ...         "prefix": "10.0.0.0/8",
        ...         "action": {"scope": "local", "next_hop_vni": None,
        ...                    "target": None}})
        >>> j.snapshot(j.materialize())
        >>> j.telemetry()["segments"]
        1
        >>> j.telemetry()["tail_records"]
        0
        """
        return {
            "appends": self.appends,
            "rotations": self.rotations,
            "snapshots": self.snapshots,
            "segments": self.segment_count,
            "tail_records": self.tail_records(),
            "tail_bytes": self.tail_bytes,
            "snapshot_seq": self.snapshot_seq,
            "snapshot_bytes": self.snapshot_bytes,
            "last_replay_records": self.last_replay_records,
            "torn_tail_records": self.torn_tail_records,
        }

    # -- cross-shard resolution -------------------------------------------

    def in_doubt(self) -> List[JournalRecord]:
        """The prepared-but-unterminated ``txn`` records in the tail —
        transactions whose outcome this journal alone cannot decide.

        For single-shard transactions an unterminated record simply means
        the controller died mid-push and the batch never committed
        (``materialize`` skips it). Cross-shard prepares carry an ``xid``;
        the sharded recovery resolves those against the coordinator
        shard's :meth:`decisions` before replaying.
        """
        staged: Dict[int, JournalRecord] = {}
        for record in self.records():
            if record.op == "txn":
                staged[record.seq] = record
            elif record.op in ("txn-commit", "txn-abort"):
                staged.pop(record.payload["txn_seq"], None)
        return [staged[seq] for seq in sorted(staged)]

    def decisions(self) -> Dict[str, str]:
        """Cross-shard outcomes this journal has decided, ``xid`` ->
        ``"commit"`` | ``"abort"``. Only ``xtxn-commit`` is a durable
        commit; everything else is presumed abort."""
        out: Dict[str, str] = {}
        for record in self.records():
            if record.op == "xtxn-commit":
                out[record.payload["xid"]] = "commit"
            elif record.op == "xtxn-abort":
                out[record.payload["xid"]] = "abort"
        return out

    # -- serialisation ----------------------------------------------------

    def dump(self) -> bytes:
        """Serialise the whole journal to canonical bytes — equal seeds
        and equal operation sequences produce equal dumps."""
        out = bytearray()
        text = self._checkpoint.text() if self._checkpoint is not None else ""
        header = f"SNAP|{self.snapshot_seq}|{text}"
        crc = zlib.crc32(header.encode("utf-8")) & 0xFFFFFFFF
        out += f"{header}|{crc:08x}\n".encode("utf-8")
        for segment in self.segments:
            out += f"SEG|{segment.index}\n".encode("utf-8")
            out += segment.data
        return bytes(out)

    @classmethod
    def load(cls, data: bytes, segment_bytes: int = 16384) -> "Journal":
        """Rebuild a journal from :meth:`dump` bytes, verifying every
        checksum; corruption raises :class:`JournalCorruption`.

        A final record line with no newline is a torn append: under
        write-ahead-before-push it was never acknowledged or pushed, so
        it is dropped and counted in ``torn_tail_records``. A complete
        line that fails its checksum still raises, wherever it is.
        """
        journal = cls(segment_bytes=segment_bytes)
        journal.segments = []
        lines = data.split(b"\n")
        if len(lines) > 1 and lines[-1]:
            lines.pop()
            journal.torn_tail_records = 1
        if not lines or not lines[0].startswith(b"SNAP|"):
            raise JournalCorruption("missing SNAP header")
        header_text = lines[0].decode("utf-8")
        try:
            body, crc_text = header_text.rsplit("|", 1)
            crc = int(crc_text, 16)
        except ValueError as exc:
            raise JournalCorruption("unparseable SNAP header") from exc
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
            raise JournalCorruption("SNAP header checksum mismatch")
        _tag, seq_text, snap_text = body.split("|", 2)
        journal.snapshot_seq = int(seq_text)
        if snap_text:
            # Re-keyed, so whatever wrote the bytes, `dump` and
            # `snapshot_bytes` see canonical text; a malformed snapshot
            # fails here rather than at the first `materialize`.
            state = json.loads(snap_text)
            try:
                journal._checkpoint = _Checkpoint.of(state)
            except (AttributeError, KeyError, TypeError) as exc:
                raise JournalCorruption("SNAP header is not an intent store") from exc
        segment: Optional[Segment] = None
        top_seq = journal.snapshot_seq
        for raw in lines[1:]:
            if not raw:
                continue
            if raw.startswith(b"SEG|"):
                segment = Segment(int(raw.split(b"|", 1)[1]))
                journal.segments.append(segment)
                continue
            if segment is None:
                raise JournalCorruption("record outside any segment")
            record = JournalRecord.decode(raw + b"\n")
            segment.add(record, record.encode())
            top_seq = max(top_seq, record.seq)
        if len(journal.segments) > 1 and not journal.segments[-1].data:
            # Appends never leave an empty segment behind a full one: the
            # record that opened this one was cut off.
            journal.segments.pop()
        if not journal.segments:
            journal.segments = [Segment(0)]
        journal.next_seq = top_seq + 1
        return journal
