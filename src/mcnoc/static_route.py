"""Static source routing with port-coded path fields.

The sender computes the whole route, translates it into port codes, and
packs the codes into one integer bit field.  Each code occupies a fixed
``bits_per_hop`` slot; the first hop sits in the least significant slot, so a
router only ever extracts the low bits, looks up the port, and shifts the
rest of the field right.  An all-zero field means the packet has arrived:
code 0 is the reserved terminator and never names a port.  The slot width
and both lookups (code -> action, hop offset -> action) come from the spec's
one cached port table (see ``topology``), so framing never needs a search.

Every route is the node-0 route to the offset (dst - src) mod n, shifted by
the source: the route a breadth-first search from node 0 records (FIFO,
ascending port codes, first-found predecessor), the least port-code sequence
among the shortest paths.  ``metrics._route`` hands it out per offset as runs
``[(code, hops), ...]`` in ascending code order, from the digit DP on
MC(s, k) or the one cached BFS tree.  ``shortest_path`` expands the runs into
nodes; ``_field`` packs them into a path field, one shift-or per run.  Each
spec keeps one memo from offset to path field (``_routes``, at most
OFFSET_CACHE_SIZE fields and 64 KiB), which admits a field once after
checking every code.  ``build_packet`` frames it per pair and a source-routed
``simulator.run`` walks it from node 0 for every packet.  ``path_to_actions``
and ``encode_path`` encode a caller's own route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import CorruptPacketError, RoutingError
from .metrics import _check_size, _route, diameter
from .topology import CirculantSpec, HopAction, _check_int, _check_node, _int_text, port_table


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
        """Render the field as B-bit groups, most significant hop first."""
        b = self.bits_per_hop
        mask = (1 << b) - 1
        groups = max(self.hops_encoded, 1)
        return "|".join(
            format((self.path_field >> (i * b)) & mask, f"0{b}b")
            for i in range(groups - 1, -1, -1)
        )


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
    shortest-path sender ever needs.
    """
    if dst is not None:
        _check_node(spec, "destination", dst)
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


OFFSET_CACHE_SIZE = 8192


class _Routes(NamedTuple):
    """What forwarding on the path field needs of one spec, built once per spec."""

    n: int
    offsets: tuple[int, ...]  # hop offset of port code c at index c - 1
    steps: tuple  # the same offsets at index c; index 0, the terminator, is never walked
    bits: int
    mask: int
    capacity: int  # the diameter: the longest route, and the tally's last slot
    fields: dict  # offset -> admitted path field, at most limit of them
    limit: int  # fields the memo keeps: at most 64 * OFFSET_CACHE_SIZE bits, at least 1


@lru_cache(maxsize=8)
def _routes(spec: CirculantSpec) -> _Routes:
    offsets = port_table(spec).offsets
    b = bits_per_hop(spec)
    capacity = diameter(spec)
    limit = max(OFFSET_CACHE_SIZE * 64 // max(capacity * b, 64), 1)  # widest field: capacity * b
    return _Routes(spec.n, offsets, (None, *offsets), b, (1 << b) - 1, capacity, {}, limit)


def _field(spec: CirculantSpec, off: int) -> int:
    """The path field of offset off, from the spec's memo or checked in full first.

    A field missing from the memo is packed from the runs of
    ``metrics._route``, one shift-or per run.  Its hop count must fit the
    capacity (ValueError), it may hold no code past its hop slots and every
    code up to the terminator must name a port (CorruptPacketError).  A
    field that passes and leads from 0 to off enters the memo while it holds
    fewer than the spec's limit of fields.  A refused field never does, and
    one that leads elsewhere is returned unstored, so its packet fails
    ``_hop_tally``'s delivery check: a bad encoding cannot reach a later
    call.
    """
    n, offsets, _, b, mask, capacity, fields, limit = _routes(spec)
    field = fields.get(off)
    if field is not None:
        return field
    field = encoded = 0
    for code, hops in _route(spec, off):  # a run fills hops slots: code * (1 + 2**b + ...)
        field |= code * ((1 << b * hops) - 1) // mask << b * encoded
        encoded += hops
    if encoded > capacity:
        raise ValueError(f"{encoded} hops exceed capacity {capacity}")
    if field >> (encoded * b):
        raise CorruptPacketError(f"path field has codes past its {encoded} hop slots")
    end = 0
    rest = field
    while rest:
        end = (end + _by_code(offsets, rest & mask)) % n
        rest >>= b
    if end == off and len(fields) < limit:
        fields[off] = field
    return field


def build_packet(
    spec: CirculantSpec, src: int, dst: int, hop_capacity: int | None = None
) -> SourceRoutedPacket:
    """Encode the shortest route src -> dst, sized for hop_capacity (default: the diameter)."""
    field = _field(spec, _offset(spec, src, dst))
    routes = _routes(spec)
    b = routes.bits
    hops = -(-field.bit_length() // b)  # admission left no 0 slot under the top code
    if hop_capacity is None:
        hop_capacity = routes.capacity
    _check_int("hop capacity", hop_capacity)
    if hops > hop_capacity:
        raise ValueError(f"{hops} hops exceed capacity {hop_capacity}")
    return SourceRoutedPacket(dst, field, b, hops, hop_capacity)


def _hop_tally(spec: CirculantSpec, offsets) -> dict[int, int]:
    """Forward a packet on each offset's field from node 0; map each hop count to its packets.

    Every route is the node-0 route shifted by its source, so the walk from
    0 to the offset stands for the packet.  A memo hit is one dict lookup
    and each hop a bare decode (mask, step, add, shift): ``_field`` checked
    every code.  The node is reduced mod n once, at the delivery check; a
    packet that stops anywhere but its offset raises RoutingError naming
    the reduced node.
    """
    n, _, steps, b, mask, capacity, fields, _ = _routes(spec)
    counts = [0] * (capacity + 1)
    for off in offsets:
        field = fields.get(off)
        if field is None:
            field = _field(spec, off)
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
