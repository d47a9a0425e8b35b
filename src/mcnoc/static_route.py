"""Static source routing with port-coded path fields.

The sender computes the whole route, translates it into port codes, and
packs the codes into one integer bit field.  Each code occupies a fixed
``bits_per_hop`` slot; the first hop sits in the least significant slot, so a
router only ever extracts the low bits, looks up the port, and shifts the
rest of the field right.  An all-zero field means the packet has arrived:
code 0 is the reserved terminator and never names a port.

Routes are node lists (``[src, ..., dst]``), shortest by construction.  They
come from the spec's one cached BFS tree (see ``metrics``), shifted by the
source, so every (src, dst) pair maps to one reproducible path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import CorruptPacketError
from .metrics import _tree, ceil_log2, diameter
from .topology import (
    CirculantSpec,
    HopAction,
    neighbor_offsets,
    port_count,
    port_table,
)


def bits_per_hop(spec: CirculantSpec) -> int:
    """Width of one hop slot: enough bits for codes 0..port_count."""
    return ceil_log2(port_count(spec) + 1)


@dataclass(frozen=True)
class SourceRoutedPacket:
    """A path field plus the framing needed to interpret it.

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


def _tree_path(pred: list[int], node: int, shift: int = 0) -> list[int]:
    """Nodes from the tree's root (its own predecessor) to node, each moved by shift."""
    path = [node]
    while pred[node] != node:
        node = pred[node]
        path.append(node)
    return [(v + shift) % len(pred) for v in reversed(path)]


def shortest_path(spec: CirculantSpec, src: int, dst: int) -> list[int]:
    """Deterministic shortest path: the node-0 tree path to dst - src, shifted by src."""
    n = spec.n
    if not 0 <= src < n:
        raise ValueError(f"source {src} outside 0..{n - 1}")
    if not 0 <= dst < n:
        raise ValueError(f"destination {dst} outside 0..{n - 1}")
    return _tree_path(_tree(spec)[1], (dst - src) % n, src)


def path_to_actions(spec: CirculantSpec, path: list[int]) -> list[HopAction]:
    """Translate consecutive node pairs into hop actions."""
    n = spec.n
    action_of = dict(zip(neighbor_offsets(spec), port_table(spec).actions))
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
    if hop_capacity is None:
        hop_capacity = diameter(spec)
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
    if field == 0:
        return None, packet
    code = field & ((1 << b) - 1)
    table = port_table(spec)
    if code == 0 or code > len(table):
        raise CorruptPacketError(f"hop code {code} outside 1..{len(table)}")
    return table.action(code), replace(packet, path_field=field >> b)


def build_packet(
    spec: CirculantSpec, src: int, dst: int, hop_capacity: int | None = None
) -> SourceRoutedPacket:
    """Compute the shortest route src -> dst and encode it into a packet."""
    actions = path_to_actions(spec, shortest_path(spec, src, dst))
    return encode_path(spec, actions, dst=dst, hop_capacity=hop_capacity)
