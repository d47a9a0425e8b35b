"""Static source routing with port-coded path fields.

The sender computes the whole route, translates it into port codes, and
packs the codes into one integer bit field.  Each code occupies a fixed
``bits_per_hop`` slot; the first hop sits in the least significant slot, so a
router only ever extracts the low bits, looks up the port, and shifts the
rest of the field right.  An all-zero field means the packet has arrived:
code 0 is the reserved terminator and never names a port.  The slot width
and both lookups come from the spec's one cached port table (see
``topology``), so framing never needs a search.

Every route is the node-0 route to the offset (dst - src) mod n, shifted by
the source.  ``_field``, the one packer, packs and checks an offset's field
from ``metrics._route``'s runs; only a batch run keeps fields (``_field_list``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import CorruptPacketError, RoutingError
from .metrics import BFS_NODE_LIMIT, _check_size, _route, diameter
from .topology import (
    MAX_NODES, CirculantSpec, HopAction, _at_least, _check_int, _check_node, _guard, _int_text,
    port_table,
)


def bits_per_hop(spec: CirculantSpec) -> int:
    """Width of one hop slot: enough bits for codes 0..port_count."""
    return len(port_table(spec)).bit_length()


@dataclass
class SourceRoutedPacket:
    """A path field plus the framing needed to interpret it.

    A packet is a plain, unhashable record.  ``build_packet``,
    ``encode_path`` and ``consume_step`` always return a new one (except
    that ``consume_step`` hands back its argument at the destination), so
    changing one packet's fields never reaches another.

    ``hops_encoded`` is the number of hops written at build time; consuming
    hops shifts ``path_field`` but leaves the framing untouched.
    ``hop_capacity`` is the slot count the field was sized for, so the full
    field width is ``hop_capacity * bits_per_hop`` bits.
    """

    dst: int | None
    path_field: int
    bits_per_hop: int
    hops_encoded: int
    hop_capacity: int

    def bits(self) -> str:
        """Render the field as B-bit groups, most significant hop first.

        Refuses framing wider than any spec's slots or longer than any route
        ``build_packet`` returns (GuardLimitError), and a field with codes
        past its hop slots (CorruptPacketError).
        """
        b, hops, field = self.bits_per_hop, self.hops_encoded, self.path_field
        _at_least("bits per hop", b, 1)
        _at_least("hops encoded", hops, 0)
        _check_int("path field", field)
        _guard("packet", b, MAX_NODES.bit_length(), "slot guard", "bits per hop")
        groups = max(hops, 1)
        _guard("packet", groups, BFS_NODE_LIMIT // 2, "hop guard", "hop slots")
        if field >> (hops * b):  # a negative field has codes in every slot
            raise CorruptPacketError(f"path field has codes past its {hops} hop slots")
        width = groups * b
        text = format(field, f"0{width}b")
        return "|".join(text[i : i + b] for i in range(0, width, b))


def _offset(spec: CirculantSpec, src: int, dst: int) -> int:
    """(dst - src) mod n for two valid nodes: what every route of the pair depends on."""
    _check_node(spec, "source", src)
    _check_node(spec, "destination", dst)
    return (dst - src) % spec.n


def shortest_path(spec: CirculantSpec, src: int, dst: int) -> list[int]:
    """Deterministic shortest path: the node-0 route to dst - src, shifted by src."""
    _check_size(spec)  # the size guard comes before the node checks
    n = spec.n
    offsets = port_table(spec).offsets
    path = [src]
    for code, hops in _route(spec, _offset(spec, src, dst)):
        for _ in range(hops):
            path.append((path[-1] + offsets[code - 1]) % n)
    return path


def path_to_actions(spec: CirculantSpec, path: list[int]) -> list[HopAction]:
    """Translate consecutive node pairs into hop actions."""
    for v in path:
        _check_node(spec, "node", v)
    n = spec.n
    action_of = port_table(spec).by_offset
    actions = []
    for u, v in zip(path, path[1:]):
        off = (v - u) % n
        if off not in action_of:
            raise ValueError(f"nodes {u} and {v} are not adjacent")
        actions.append(action_of[off])
    return actions


def encode_path(
    spec: CirculantSpec,
    actions: list[HopAction],
    dst: int | None = None,
    hop_capacity: int | None = None,
) -> SourceRoutedPacket:
    """Pack hop actions into a path field, first hop in the low bits.

    ``hop_capacity`` defaults to the network diameter, the longest route a
    shortest-path sender ever needs.  More actions than ``bits`` renders
    (BFS_NODE_LIMIT // 2) are refused before any is packed.
    """
    if dst is not None:
        _check_node(spec, "destination", dst)
    _guard("packet", len(actions), BFS_NODE_LIMIT // 2, "hop guard", "hop slots")
    if hop_capacity is None:
        hop_capacity = diameter(spec)
    _check_int("hop capacity", hop_capacity)
    if len(actions) > hop_capacity:
        raise ValueError(f"{len(actions)} hops exceed capacity {hop_capacity}")
    b = bits_per_hop(spec)
    table = port_table(spec)
    field = 0
    for i, action in enumerate(actions):
        field |= table.code(action) << (i * b)
    return SourceRoutedPacket(
        dst=dst,
        path_field=field,
        bits_per_hop=b,
        hops_encoded=len(actions),
        hop_capacity=hop_capacity,
    )


def _by_code(per_port: tuple, code: int):
    if code == 0 or code > len(per_port):
        raise CorruptPacketError(f"hop code {code} outside 1..{len(per_port)}")
    return per_port[code - 1]


def consume_step(
    spec: CirculantSpec, packet: SourceRoutedPacket
) -> tuple[HopAction | None, SourceRoutedPacket]:
    """One router step: next action and the packet with that hop stripped.

    Returns ``(None, packet)`` unchanged when the field is all zero, i.e.
    the packet is at its destination.
    """
    b = bits_per_hop(spec)
    if packet.bits_per_hop != b:
        raise CorruptPacketError(
            f"packet has {packet.bits_per_hop}-bit hop slots, {spec.label} uses {b}"
        )
    field = packet.path_field
    _check_int("path field", field)
    if field < 0:  # shifting a negative field right never reaches 0
        raise CorruptPacketError(f"path field {_int_text(field)} is negative")
    if field == 0:
        return None, packet
    return _by_code(port_table(spec).actions, field & ((1 << b) - 1)), SourceRoutedPacket(
        packet.dst, field >> b, b, packet.hops_encoded, packet.hop_capacity
    )


# Most bytes a full field list may take: 40 per slot, plus 1 per 7 bits of the widest field.
FIELD_LIST_BYTES = 2**22


class _Routes(NamedTuple):
    """What forwarding on the path field needs of one spec, built once per spec."""

    n: int
    offsets: tuple[int, ...]  # hop offset of port code c at index c - 1
    steps: tuple  # the same offsets at index c; index 0, the terminator, is never walked
    bits: int
    mask: int
    capacity: int  # the diameter: the longest route, and the tally's last slot


@lru_cache(maxsize=8)
def _routes(spec: CirculantSpec) -> _Routes:
    offsets = port_table(spec).offsets
    b = bits_per_hop(spec)
    return _Routes(spec.n, offsets, (None, *offsets), b, (1 << b) - 1, diameter(spec))


def _field(spec: CirculantSpec, off: int) -> int:
    """The path field of offset off, packed from ``metrics._route``'s runs, and checked.

    The hop count must fit the capacity (ValueError), no code may lie past
    the hop slots and every run's code must name a port (CorruptPacketError),
    and the runs must lead from 0 to off (RoutingError).
    """
    n, offsets, _, b, mask, capacity = _routes(spec)
    runs = _route(spec, off)
    field = encoded = 0
    for code, hops in runs:  # a run fills hops slots: code * (1 + 2**b + ...)
        field |= code * ((1 << b * hops) - 1) // mask << b * encoded
        encoded += hops
    if encoded > capacity:
        raise ValueError(f"{encoded} hops exceed capacity {capacity}")
    if field >> (encoded * b):
        raise CorruptPacketError(f"path field has codes past its {encoded} hop slots")
    end = sum(hops * _by_code(offsets, code) for code, hops in runs) % n
    if end != off:
        raise RoutingError(f"packet for {off} stopped at {end}")
    return field


@lru_cache(maxsize=8)
def _field_list(spec: CirculantSpec) -> list:
    """Path fields by offset, each None until a batch run packs it; a refused field stays None."""
    return [None] * spec.n


class _Packed(dict):
    """Reads like a field list, but packs a field per read and keeps none."""

    def __init__(self, spec: CirculantSpec):
        self.spec = spec

    def __missing__(self, off: int) -> int:
        return _field(self.spec, off)


def build_packet(
    spec: CirculantSpec, src: int, dst: int, hop_capacity: int | None = None
) -> SourceRoutedPacket:
    """Encode the shortest route src -> dst, sized for hop_capacity (default: the diameter)."""
    field = _field(spec, _offset(spec, src, dst))
    routes = _routes(spec)
    b = routes.bits
    hops = -(-field.bit_length() // b)  # _field left no 0 slot under the top code
    if hop_capacity is None:
        hop_capacity = routes.capacity
    _check_int("hop capacity", hop_capacity)
    if hops > hop_capacity:
        raise ValueError(f"{hops} hops exceed capacity {hop_capacity}")
    return SourceRoutedPacket(dst, field, b, hops, hop_capacity)


def _hop_tally(spec: CirculantSpec, offsets, batch: bool = True) -> dict[int, int]:
    """Walk each offset's path field from node 0; map each hop count to its packets.

    A batch whose full field list fits FIELD_LIST_BYTES fills the spec's
    list; any other run packs each field.  A misdelivery raises RoutingError.
    """
    n, _, steps, b, mask, capacity = _routes(spec)
    listed = batch and n * (40 + capacity * b // 7) <= FIELD_LIST_BYTES
    fields = _field_list(spec) if listed else _Packed(spec)
    counts = [0] * (capacity + 1)
    for off in offsets:
        field = fields[off]
        if field is None:
            field = fields[off] = _field(spec, off)
        node = 0
        hops = 0
        while field:
            node += steps[field & mask]
            field >>= b
            hops += 1
        if node % n != off:
            raise RoutingError(f"packet for {off} stopped at {node % n}")
        counts[hops] += 1
    return {hops: count for hops, count in enumerate(counts) if count}
