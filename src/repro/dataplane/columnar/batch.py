"""Struct-of-arrays packet bursts for the columnar data plane.

A :class:`PacketBatch` shreds a burst of :class:`~repro.net.packet.Packet`
objects into parallel columns — plain lists of the inner src/dst,
protocol and ports, plus each lane's ``(VNI, inner dst, version)`` key
and wire length — once, so the compiled program
(:mod:`repro.dataplane.columnar.compiler`) can run match-action steps
over whole columns instead of interpreting one packet at a time.

The batch also carries burst-level aggregates that are *program
independent* (they depend only on the packets): the unique
``(VNI, inner dst, version)`` key set with per-lane inverse indices, and
per-VNI packet/byte totals. These are computed lazily and cached, so a
replayed batch (the steady-state benchmark shape) pays for them once.

A batch must be treated as frozen after construction: the executor
scatter-gathers results by lane index and caches aggregates keyed on
the packet list.

>>> from repro.workloads.traffic import build_vxlan_packet
>>> pkts = [build_vxlan_packet(vni=7, src_ip=1, dst_ip=2)]
>>> batch = PacketBatch.from_packets(pkts)
>>> batch.n, batch.vxlan_count, batch.keys[0], batch.dst_list
(1, 1, (7, 2, 4), [2])
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...net.headers import ETH_LEN, UDP_LEN, VXLAN_LEN
from ...net.packet import Packet

#: Fixed wire bytes of a VXLAN packet outside the two IP headers, the
#: inner L4 and the inner payload: outer Ethernet + outer UDP + VXLAN
#: header + inner Ethernet (mirrors ``Packet.wire_length`` exactly).
_VXLAN_FIXED_LEN = ETH_LEN + UDP_LEN + VXLAN_LEN + ETH_LEN


class PacketBatch:
    """One burst of packets in struct-of-arrays form."""

    __slots__ = (
        "packets", "n", "keys", "sizes",
        "vxlan_count", "nonvxlan_lanes",
        # the ACL classifier's columns, one entry per lane
        "src_list", "dst_list", "proto_list", "sport_list", "dport_list",
        # lazy burst aggregates
        "_key_index", "_lanes_by_vni",
    )

    def __init__(self):
        raise TypeError("use PacketBatch.from_packets()")

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """Shred *packets* into columns."""
        self = object.__new__(cls)
        packets = list(packets)
        self.packets = packets
        self.n = len(packets)
        keys: List[Optional[tuple]] = []
        sizes: List[int] = []
        nonvxlan: List[int] = []
        srcs: List[int] = []
        dsts: List[int] = []
        protos: List[int] = []
        sports: List[int] = []
        dports: List[int] = []
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
                    srcs.append(0)
                    dsts.append(0)
                    protos.append(0)
                    sports.append(0)
                    dports.append(0)
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
            srcs.append(src)
            dsts.append(dst)
            protos.append(proto)
            sports.append(sport)
            dports.append(dport)
        self.keys = keys
        self.sizes = sizes
        self.nonvxlan_lanes = nonvxlan
        self.vxlan_count = self.n - len(nonvxlan)
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
