"""Struct-of-arrays packet bursts for the columnar data plane.

A :class:`PacketBatch` shreds a burst of :class:`~repro.net.packet.Packet`
objects into parallel columns — VNI, inner src/dst (as 64-bit halves),
protocol, ports, IP version and wire length — once, so the compiled
program (:mod:`repro.dataplane.columnar.compiler`) can run match-action
steps over whole arrays instead of interpreting one packet at a time.

The batch also carries burst-level aggregates that are *program
independent* (they depend only on the packets): the unique
``(VNI, inner dst, version)`` key set with per-lane inverse indices, and
per-VNI packet/byte totals. These are computed lazily and cached, so a
replayed batch (the steady-state benchmark shape) pays for them once.

A batch must be treated as frozen after construction: the executor
scatter-gathers results by lane index and caches aggregates keyed on
the packet list.

>>> from repro.workloads.traffic import build_vxlan_packet
>>> from repro.dataplane.columnar.backend import resolve_backend
>>> pkts = [build_vxlan_packet(vni=7, src_ip=1, dst_ip=2)]
>>> batch = PacketBatch.from_packets(pkts, resolve_backend("python"))
>>> batch.n, batch.vxlan_count, batch.keys[0]
(1, 1, (7, 2, 4))
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...net.headers import ETH_LEN, UDP_LEN, VXLAN_LEN
from ...net.packet import Packet
from .backend import resolve_backend

#: Fixed wire bytes of a VXLAN packet outside the two IP headers, the
#: inner L4 and the inner payload: outer Ethernet + outer UDP + VXLAN
#: header + inner Ethernet (mirrors ``Packet.wire_length`` exactly).
_VXLAN_FIXED_LEN = ETH_LEN + UDP_LEN + VXLAN_LEN + ETH_LEN

_MASK64 = (1 << 64) - 1


class PacketBatch:
    """One burst of packets in struct-of-arrays form."""

    __slots__ = (
        "packets", "n", "backend", "keys", "sizes",
        "vxlan_count", "nonvxlan_lanes",
        # numpy columns (vectorized backends only; None otherwise)
        "vni_col", "src_hi", "src_lo", "dst_hi", "dst_lo",
        "proto_col", "sport_col", "dport_col", "vxlan_mask",
        # python lists (scalar ACL fallback; None on vectorized backends)
        "src_list", "dst_list", "proto_list", "sport_list", "dport_list",
        # lazy burst aggregates
        "_key_index", "_lanes_by_vni",
    )

    def __init__(self):
        raise TypeError("use PacketBatch.from_packets()")

    @classmethod
    def from_packets(cls, packets: Sequence[Packet], backend=None) -> "PacketBatch":
        """Shred *packets* into columns under *backend* (default resolved
        per :func:`repro.dataplane.columnar.backend.resolve_backend`)."""
        if backend is None:
            backend = resolve_backend()
        self = object.__new__(cls)
        packets = list(packets)
        self.packets = packets
        self.n = len(packets)
        self.backend = backend
        keys: List[Optional[tuple]] = []
        sizes: List[int] = []
        nonvxlan: List[int] = []
        vnis: List[int] = []
        srcs: List[int] = []
        dsts: List[int] = []
        protos: List[int] = []
        sports: List[int] = []
        dports: List[int] = []
        is_vx: List[bool] = []
        keys_append = keys.append
        sizes_append = sizes.append
        for i, p in enumerate(packets):
            vector = p._vector
            if vector is not None:
                # An imaged packet (net.packet, "the wire image"): its
                # parsed header vector already is this lane's column values.
                vni, src, dst, proto, sport, dport, version, size, _, _, _ = vector
            else:
                vx = p.vxlan
                if vx is None:
                    keys_append(None)
                    sizes_append(0)
                    nonvxlan.append(i)
                    vnis.append(0)
                    srcs.append(0)
                    dsts.append(0)
                    protos.append(0)
                    sports.append(0)
                    dports.append(0)
                    is_vx.append(False)
                    continue
                inner = p.inner
                iip = inner.ip
                l4 = inner.l4
                vni = vx.vni
                src = iip.src
                dst = iip.dst
                proto = iip.proto
                version = iip.version
                size = (_VXLAN_FIXED_LEN + p.ip.WIRE_LEN + iip.WIRE_LEN
                        + len(inner.payload))
                if l4 is None:
                    sport = dport = 0
                else:
                    size += l4.WIRE_LEN
                    sport = l4.src_port
                    dport = l4.dst_port
            keys_append((vni, dst, version))
            sizes_append(size)
            vnis.append(vni)
            srcs.append(src)
            dsts.append(dst)
            protos.append(proto)
            sports.append(sport)
            dports.append(dport)
            is_vx.append(True)
        self.keys = keys
        self.sizes = sizes
        self.nonvxlan_lanes = nonvxlan
        self.vxlan_count = self.n - len(nonvxlan)
        if backend.vectorized:
            np = backend.np
            self.vni_col = backend.i64(vnis)
            self.src_hi = backend.u64([s >> 64 for s in srcs])
            self.src_lo = backend.u64([s & _MASK64 for s in srcs])
            self.dst_hi = backend.u64([d >> 64 for d in dsts])
            self.dst_lo = backend.u64([d & _MASK64 for d in dsts])
            self.proto_col = backend.i64(protos)
            self.sport_col = backend.i64(sports)
            self.dport_col = backend.i64(dports)
            self.vxlan_mask = np.array(is_vx, dtype=bool)
            self.src_list = self.dst_list = None
            self.proto_list = self.sport_list = self.dport_list = None
        else:
            self.vni_col = self.src_hi = self.src_lo = None
            self.dst_hi = self.dst_lo = None
            self.proto_col = self.sport_col = self.dport_col = None
            self.vxlan_mask = None
            self.src_list = srcs
            self.dst_list = dsts
            self.proto_list = protos
            self.sport_list = sports
            self.dport_list = dports
        self._key_index = None
        self._lanes_by_vni = None
        return self

    # -- burst aggregates (lazy, program independent) -----------------------

    def key_index(self):
        """``(unique_keys, inverse, uniq_counts, uniq_bytes, per_vni)``.

        *unique_keys* lists the distinct ``(vni, dst, version)`` keys in
        first-touch lane order; *inverse* maps each lane to its unique
        index (-1 for non-VXLAN lanes); *uniq_counts*/*uniq_bytes* hold
        per-unique lane counts and byte sums; *per_vni* maps each VNI to
        ``[packets, bytes]`` aggregates in first-touch order (the same
        cell-creation order a per-packet counter walk would produce).
        """
        index = self._key_index
        if index is None:
            from array import array

            seen: dict = {}
            unique_keys: List[tuple] = []
            inverse = array("l")
            inv_append = inverse.append
            uniq_counts: List[int] = []
            uniq_bytes: List[int] = []
            per_vni: dict = {}
            sizes = self.sizes
            for i, key in enumerate(self.keys):
                if key is None:
                    inv_append(-1)
                    continue
                u = seen.get(key)
                size = sizes[i]
                if u is None:
                    u = seen[key] = len(unique_keys)
                    unique_keys.append(key)
                    uniq_counts.append(1)
                    uniq_bytes.append(size)
                else:
                    uniq_counts[u] += 1
                    uniq_bytes[u] += size
                inv_append(u)
                vni = key[0]
                acc = per_vni.get(vni)
                if acc is None:
                    per_vni[vni] = [1, size]
                else:
                    acc[0] += 1
                    acc[1] += size
            index = self._key_index = (
                unique_keys, inverse, uniq_counts, uniq_bytes, per_vni
            )
        return index

    def lanes_by_vni(self) -> dict:
        """VXLAN lanes grouped by VNI, each group in lane order (the
        order a per-packet meter walk would charge them)."""
        groups = self._lanes_by_vni
        if groups is None:
            groups = {}
            for i, key in enumerate(self.keys):
                if key is None:
                    continue
                vni = key[0]
                lanes = groups.get(vni)
                if lanes is None:
                    groups[vni] = [i]
                else:
                    lanes.append(i)
            self._lanes_by_vni = groups
        return groups
