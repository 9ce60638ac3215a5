"""Ethernet frames as they travel the simulated wire.

A :class:`Packet` is the unit moved between EtherLoadGen, Ethernet links and
the NIC model.  Synthetic-mode packets usually carry no byte payload (only a
wire length) to keep multi-million-packet simulations fast; trace-mode and
key-value-store packets carry real bytes that the applications parse.

Per the paper (§IV), the load generator writes a timestamp into each
outgoing packet "at a configurable offset" and compares it against the
current tick on the way back; we carry that timestamp in ``ts_tx`` alongside
an explicit ``ts_offset`` so the byte-level encoding can be exercised too.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from typing import Dict, Optional

ETHER_HEADER_LEN = 14       # dst(6) + src(6) + ethertype/len(2)
ETHER_CRC_LEN = 4
ETHER_MIN_FRAME = 64        # including CRC
ETHER_MAX_FRAME = 1518      # including CRC (standard MTU frame)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_EXPERIMENTAL = 0x88B5   # used for synthetic loadgen frames

_packet_ids = itertools.count()


def serialization_ticks(wire_len: int, bandwidth_bits_per_sec: float) -> int:
    """Wire time of one frame at line rate, in ticks.

    The one formula every wire model uses (local links, cut links and
    switch outputs), so a frame's timing cannot depend on which of them
    carries it.  Wire bits include the 8B preamble + 12B inter-frame gap.
    """
    return round((wire_len + 20) * 8 * 1e12 / bandwidth_bits_per_sec)


class WireTicks(dict):
    """:func:`serialization_ticks` by frame length at one line rate.

    A wire model looks each frame up here (``table[wire_len]``), so a
    length is computed once.  :func:`wire_ticks` hands every wire at a
    rate the same table, which therefore holds at most one entry per
    frame length, however many links a fabric has."""

    def __init__(self, bandwidth_bits_per_sec: float) -> None:
        super().__init__()
        self.bandwidth_bits_per_sec = bandwidth_bits_per_sec

    def __missing__(self, wire_len: int) -> int:
        ticks = self[wire_len] = serialization_ticks(
            wire_len, self.bandwidth_bits_per_sec)
        return ticks


@functools.lru_cache(maxsize=None)
def wire_ticks(bandwidth_bits_per_sec: float) -> WireTicks:
    """The process's one :class:`WireTicks` table for a line rate."""
    return WireTicks(bandwidth_bits_per_sec)


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit MAC address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError(f"MAC out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` notation."""
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC {text!r}")
        return cls(int("".join(f"{int(p, 16):02x}" for p in parts), 16))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacAddress":
        """Parse from the on-wire byte encoding."""
        if len(raw) != 6:
            raise ValueError(f"MAC needs 6 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        """Serialize to the on-wire byte encoding."""
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{b:02x}" for b in raw)


BROADCAST_MAC = MacAddress((1 << 48) - 1)


class Packet:
    """An Ethernet frame on the simulated wire.

    ``wire_len`` includes the Ethernet header and CRC (the length that
    occupies wire bandwidth and NIC FIFO space).  ``data`` is the optional
    payload after the 14-byte Ethernet header; when absent the packet is a
    pure timing token.

    Hand-written rather than a dataclass so the fields can live in
    ``__slots__`` — packets are the single most-allocated object in a run
    and the per-instance dict dominated their footprint.  The constructor
    signature, validation and equality semantics match the previous
    dataclass exactly.
    """

    __slots__ = ("wire_len", "dst", "src", "ethertype", "data", "ts_tx",
                 "ts_offset", "request_id", "meta", "packet_id")

    def __init__(self, wire_len: int,
                 dst: MacAddress = BROADCAST_MAC,
                 src: MacAddress = BROADCAST_MAC,
                 ethertype: int = ETHERTYPE_EXPERIMENTAL,
                 data: Optional[bytes] = None,
                 ts_tx: Optional[int] = None,
                 ts_offset: int = 0,
                 request_id: Optional[int] = None,
                 meta: Optional[Dict[str, object]] = None,
                 packet_id: Optional[int] = None) -> None:
        if wire_len < ETHER_MIN_FRAME:
            raise ValueError(
                f"frame of {wire_len}B below Ethernet minimum "
                f"{ETHER_MIN_FRAME}B")
        if wire_len > ETHER_MAX_FRAME:
            raise ValueError(
                f"frame of {wire_len}B above Ethernet maximum "
                f"{ETHER_MAX_FRAME}B")
        self.wire_len = wire_len
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.data = data
        self.ts_tx = ts_tx              # loadgen departure tick
        self.ts_offset = ts_offset      # byte offset of the timestamp field
        self.request_id = request_id
        self.meta = {} if meta is None else meta
        self.packet_id = (next(_packet_ids) if packet_id is None
                          else packet_id)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return (self.wire_len, self.dst, self.src, self.ethertype,
                self.data, self.ts_tx, self.ts_offset, self.request_id,
                self.meta, self.packet_id) == \
               (other.wire_len, other.dst, other.src, other.ethertype,
                other.data, other.ts_tx, other.ts_offset, other.request_id,
                other.meta, other.packet_id)

    __hash__ = None   # mutable, like the dataclass it replaces

    @property
    def payload_len(self) -> int:
        """Bytes after the Ethernet header, excluding CRC."""
        return self.wire_len - ETHER_HEADER_LEN - ETHER_CRC_LEN

    def response_to(self, wire_len: Optional[int] = None) -> "Packet":
        """Build a reply frame: MACs swapped, timestamp echoed.

        This is what macswap forwarding and request/response servers do;
        echoing ``ts_tx`` and ``request_id`` lets EtherLoadGen match the
        response to its request for RTT measurement.
        """
        return Packet(
            wire_len=wire_len if wire_len is not None else self.wire_len,
            dst=self.src,
            src=self.dst,
            ethertype=self.ethertype,
            data=self.data,
            ts_tx=self.ts_tx,
            ts_offset=self.ts_offset,
            request_id=self.request_id,
            meta=dict(self.meta),
        )

    def to_bytes(self) -> bytes:
        """Serialize to real frame bytes (without CRC).

        Used by the pcap path and by protocol-carrying packets; the timestamp
        (if any) is embedded at ``ts_offset`` within the payload as an 8-byte
        big-endian tick count, exactly as the hardware loadgen model does.
        """
        payload = bytearray(self.data if self.data is not None
                            else bytes(self.payload_len))
        if self.ts_tx is not None:
            end = self.ts_offset + 8
            if end > len(payload):
                payload.extend(bytes(end - len(payload)))
            struct.pack_into(">Q", payload, self.ts_offset, self.ts_tx)
        header = (self.dst.to_bytes() + self.src.to_bytes()
                  + struct.pack(">H", self.ethertype))
        return bytes(header) + bytes(payload)

    @classmethod
    def from_bytes(cls, raw: bytes, has_timestamp: bool = False,
                   ts_offset: int = 0) -> "Packet":
        """Parse frame bytes produced by :meth:`to_bytes` or a pcap trace."""
        if len(raw) < ETHER_HEADER_LEN:
            raise ValueError(f"truncated frame: {len(raw)}B")
        dst = MacAddress.from_bytes(raw[0:6])
        src = MacAddress.from_bytes(raw[6:12])
        ethertype = struct.unpack(">H", raw[12:14])[0]
        payload = raw[ETHER_HEADER_LEN:]
        wire_len = max(len(raw) + ETHER_CRC_LEN, ETHER_MIN_FRAME)
        ts_tx = None
        if has_timestamp and len(payload) >= ts_offset + 8:
            ts_tx = struct.unpack_from(">Q", payload, ts_offset)[0]
        return cls(wire_len=min(wire_len, ETHER_MAX_FRAME), dst=dst, src=src,
                   ethertype=ethertype, data=bytes(payload), ts_tx=ts_tx,
                   ts_offset=ts_offset)

    def __repr__(self) -> str:
        return (f"<Packet #{self.packet_id} {self.wire_len}B "
                f"{self.src}->{self.dst} type={self.ethertype:#06x}>")
