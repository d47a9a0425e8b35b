import math
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_circulant
from mcnoc import (
    CorruptPacketError,
    GuardLimitError,
    HopAction,
    SourceRoutedPacket,
    apply_action,
    bfs_distances,
    bits_per_hop,
    build_packet,
    consume_step,
    diameter,
    encode_path,
    make_circulant,
    make_multiplicative,
    neighbor_offsets,
    path_to_actions,
    port_count,
    shortest_path,
)
from mcnoc.metrics import BFS_NODE_LIMIT
from mcnoc.static_route import _offset_packet

small_specs = st.tuples(st.integers(2, 5), st.integers(1, 4)).filter(
    lambda sk: 3 <= sk[0] ** sk[1] <= 700
)


@st.composite
def circulants(draw):
    """General circulants with n <= 200; even n often carries the diametral n/2."""
    n = draw(st.integers(3, 200))
    gens = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    if n % 2 == 0 and draw(st.booleans()):
        gens.add(n // 2)
    if math.gcd(n, *gens) != 1:
        gens.add(1)
    return make_circulant(n, sorted(gens))


def rooted_search_path(spec, src, dst):
    """Path from a fresh BFS rooted at src: FIFO, ascending port codes, first wins."""
    offsets = neighbor_offsets(spec)
    pred = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for off in offsets:
            v = (u + off) % spec.n
            if v not in pred:
                pred[v] = u
                queue.append(v)
    path = [dst]
    while path[-1] != src:
        path.append(pred[path[-1]])
    return path[::-1]


def walk(spec, src, packet):
    """Forward a packet hop by hop; returns (final node, hop count)."""
    node, hops = src, 0
    while True:
        action, packet = consume_step(spec, packet)
        if action is None:
            return node, hops
        node = apply_action(spec, node, action)
        hops += 1


class TestBitsPerHop:
    @pytest.mark.parametrize("s, k, b", [(4, 3, 3), (2, 4, 3), (2, 6, 4), (3, 4, 4)])
    def test_width(self, s, k, b):
        spec = make_multiplicative(s, k)
        assert bits_per_hop(spec) == b
        # codes 0..port_count must fit in b bits
        assert port_count(spec) <= 2**b - 1


class TestShortestPath:
    def test_reference_paths(self):
        assert shortest_path(make_multiplicative(4, 3), 5, 17) == [5, 21, 17]
        assert shortest_path(make_multiplicative(2, 4), 0, 3) == [0, 4, 3]
        assert shortest_path(make_multiplicative(2, 6), 0, 63) == [0, 63]

    def test_same_node(self):
        assert shortest_path(make_multiplicative(2, 4), 7, 7) == [7]

    def test_rejects_bad_nodes(self):
        spec = make_multiplicative(2, 4)
        with pytest.raises(ValueError):
            shortest_path(spec, -1, 3)
        with pytest.raises(ValueError):
            shortest_path(spec, 0, 16)

    def test_deterministic_across_calls(self):
        spec = make_multiplicative(3, 3)
        for src, dst in [(0, 13), (5, 22), (26, 1)]:
            assert shortest_path(spec, src, dst) == shortest_path(spec, src, dst)

    def test_lengths_match_networkx(self):
        spec = make_circulant(30, [2, 3, 7])
        lengths = dict(nx.shortest_path_length(nx_circulant(spec), source=0))
        for dst in range(spec.n):
            assert len(shortest_path(spec, 0, dst)) - 1 == lengths[dst]

    @settings(max_examples=40, deadline=None)
    @given(small_specs, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_path_is_shortest_and_valid(self, sk, a, b):
        spec = make_multiplicative(*sk)
        src, dst = a % spec.n, b % spec.n
        path = shortest_path(spec, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == int(bfs_distances(spec, src)[dst])
        # consecutive nodes must be adjacent; path_to_actions enforces it
        assert len(path_to_actions(spec, path)) == len(path) - 1


class TestTranslationInvariance:
    @settings(max_examples=150, deadline=None)
    @given(circulants(), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_shifted_tree_path_is_the_rooted_search_path(self, spec, a, b):
        src, dst = a % spec.n, b % spec.n
        path = shortest_path(spec, src, dst)
        assert path == rooted_search_path(spec, src, dst)
        assert len(path) - 1 == int(bfs_distances(spec, src)[dst])
        offsets = set(neighbor_offsets(spec))
        assert all((v - u) % spec.n in offsets for u, v in zip(path, path[1:]))

    def test_diametral_generatrix_is_sampled(self):
        # the strategy must reach the single-port n/2 case it exists to cover
        @settings(max_examples=200, deadline=None)
        @given(circulants())
        def collect(spec):
            seen.add(2 * spec.generatrices[-1] == spec.n)

        seen = set()
        collect()
        assert seen == {True, False}


class TestEncoding:
    def test_reference_field(self):
        # route [+16, -4]: codes 2 then 3, first hop in the low bits
        spec = make_multiplicative(4, 3)
        actions = path_to_actions(spec, [5, 21, 17])
        assert actions == [HopAction(2, 1), HopAction(1, -1)]
        packet = encode_path(spec, actions, dst=17)
        assert packet.path_field == 0b011_010
        assert packet.bits() == "011|010"
        assert packet.hops_encoded == 2
        assert packet.dst == 17

    def test_single_hop_through_diametral_port(self):
        spec = make_multiplicative(2, 6)
        packet = build_packet(spec, 0, 63)
        assert packet.bits_per_hop == 4
        assert packet.bits() == "1010"  # code 10: generatrix 1, minus direction

    def test_empty_route(self):
        packet = build_packet(make_multiplicative(2, 4), 3, 3)
        assert packet.path_field == 0 and packet.hops_encoded == 0
        assert packet.bits() == "000"

    def test_capacity_default_is_diameter(self):
        assert build_packet(make_multiplicative(2, 4), 0, 3).hop_capacity == 2
        assert build_packet(make_multiplicative(4, 3), 5, 17).hop_capacity == 5

    def test_capacity_overflow(self):
        spec = make_multiplicative(4, 3)
        with pytest.raises(ValueError):
            build_packet(spec, 0, 21, hop_capacity=1)

    def test_rejects_foreign_action(self):
        with pytest.raises(ValueError):
            encode_path(make_multiplicative(2, 4), [HopAction(3, -1)])

    def test_path_to_actions_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            path_to_actions(make_multiplicative(2, 4), [0, 3])


class TestConsume:
    def test_reference_sequence(self):
        spec = make_multiplicative(4, 3)
        packet = build_packet(spec, 5, 17)
        action, packet = consume_step(spec, packet)
        assert action == HopAction(2, 1)  # +16
        assert packet.bits() == "000|011"
        action, packet = consume_step(spec, packet)
        assert action == HopAction(1, -1)  # -4
        assert packet.bits() == "000|000"
        action, same = consume_step(spec, packet)
        assert action is None and same == packet

    def test_out_of_range_code_is_corrupt(self):
        spec = make_multiplicative(4, 3)
        packet = SourceRoutedPacket(
            dst=None, path_field=7, bits_per_hop=3, hops_encoded=1, hop_capacity=5
        )
        with pytest.raises(CorruptPacketError):
            consume_step(spec, packet)

    def test_zero_code_with_pending_bits_is_corrupt(self):
        spec = make_multiplicative(4, 3)
        packet = SourceRoutedPacket(
            dst=None, path_field=0b001_000, bits_per_hop=3, hops_encoded=2, hop_capacity=5
        )
        with pytest.raises(CorruptPacketError):
            consume_step(spec, packet)

    def test_foreign_framing_is_corrupt(self):
        # a packet framed for 3-bit slots must not decode on a 4-bit-slot router
        packet = build_packet(make_multiplicative(4, 3), 5, 17)
        with pytest.raises(CorruptPacketError, match="3-bit"):
            consume_step(make_multiplicative(2, 6), packet)
        arrived = SourceRoutedPacket(
            dst=None, path_field=0, bits_per_hop=3, hops_encoded=0, hop_capacity=6
        )
        with pytest.raises(CorruptPacketError):
            consume_step(make_multiplicative(2, 6), arrived)

    def test_framing_survives_consumption(self):
        spec = make_multiplicative(2, 6)
        packet = build_packet(spec, 0, 5)
        _, after = consume_step(spec, packet)
        assert after.bits_per_hop == packet.bits_per_hop
        assert after.hop_capacity == packet.hop_capacity
        assert after.hops_encoded == packet.hops_encoded
        assert after.dst == packet.dst


class TestRoundTrip:
    def test_exhaustive_small_spec(self):
        spec = make_multiplicative(3, 3)
        for src in range(spec.n):
            dist = bfs_distances(spec, src)
            for dst in range(spec.n):
                node, hops = walk(spec, src, build_packet(spec, src, dst))
                assert node == dst
                assert hops == int(dist[dst])

    def test_works_on_general_circulants(self):
        spec = make_circulant(12, [1, 3])
        node, hops = walk(spec, 2, build_packet(spec, 2, 9))
        assert node == 9
        assert hops == int(bfs_distances(spec, 2)[9])

    @settings(max_examples=60, deadline=None)
    @given(small_specs, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_random_pairs_round_trip(self, sk, a, b):
        spec = make_multiplicative(*sk)
        src, dst = a % spec.n, b % spec.n
        packet = build_packet(spec, src, dst)
        # framing invariant: nothing above hops_encoded * B
        assert packet.path_field < (1 << (packet.hops_encoded * packet.bits_per_hop)) or (
            packet.hops_encoded == 0 and packet.path_field == 0
        )
        node, hops = walk(spec, src, packet)
        assert node == dst
        assert hops == packet.hops_encoded == int(bfs_distances(spec, src)[dst])


def reference_packet(spec, src, dst, cap=None):
    """The packet the uncached pipeline builds: path, actions, then one encode."""
    return encode_path(spec, path_to_actions(spec, shortest_path(spec, src, dst)), dst, cap)


class TestPacketCache:
    @pytest.mark.parametrize(
        "spec",
        [
            make_multiplicative(4, 3),
            make_multiplicative(2, 6),
            make_multiplicative(3, 3),
            make_multiplicative(5, 2),
            make_circulant(16, [1, 8]),
            make_circulant(30, [2, 3, 15]),
            make_circulant(20, [3, 10]),
        ],
        ids=lambda spec: spec.label,
    )
    def test_every_pair_matches_the_uncached_pipeline(self, spec):
        _offset_packet.cache_clear()
        d = diameter(spec)
        for src in range(spec.n):
            for dst in range(spec.n):
                hops = len(shortest_path(spec, src, dst)) - 1
                # twice per pair: the first offset visit misses, every later call hits
                for cap in (None, None, d + 2, hops, hops):
                    assert build_packet(spec, src, dst, cap) == reference_packet(
                        spec, src, dst, cap
                    )
        info = _offset_packet.cache_info()
        assert info.misses == spec.n
        assert info.hits == 5 * spec.n**2 - spec.n

    @settings(max_examples=150, deadline=None)
    @given(circulants(), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 3))
    def test_general_circulants_match_the_uncached_pipeline(self, spec, a, b, slack):
        src, dst = a % spec.n, b % spec.n
        cap = diameter(spec) + slack
        for _ in range(2):
            assert build_packet(spec, src, dst) == reference_packet(spec, src, dst)
            assert build_packet(spec, src, dst, cap) == reference_packet(spec, src, dst, cap)

    def test_cached_entry_is_translated_per_pair(self):
        # pairs at one offset share an entry but keep their own dst and capacity
        spec = make_multiplicative(4, 3)
        a = build_packet(spec, 5, 17)
        b = build_packet(spec, 6, 18, hop_capacity=9)
        assert (a.dst, a.hop_capacity, b.dst, b.hop_capacity) == (17, 5, 18, 9)
        assert a.path_field == b.path_field and a.hops_encoded == b.hops_encoded

    def test_error_messages_are_unchanged(self):
        spec = make_multiplicative(2, 4)
        with pytest.raises(ValueError, match=r"^source -1 outside 0\.\.15$"):
            build_packet(spec, -1, 3)
        with pytest.raises(ValueError, match=r"^source 16 outside 0\.\.15$"):
            build_packet(spec, 16, 3, hop_capacity=4)
        with pytest.raises(ValueError, match=r"^destination 16 outside 0\.\.15$"):
            build_packet(spec, 0, 16)
        with pytest.raises(ValueError, match=r"^destination -2 outside 0\.\.15$"):
            build_packet(spec, 3, -2, hop_capacity=4)
        with pytest.raises(ValueError, match=r"^2 hops exceed capacity 1$"):
            build_packet(make_multiplicative(4, 3), 5, 17, hop_capacity=1)
        with pytest.raises(ValueError, match=r"^0 hops exceed capacity -1$"):
            build_packet(spec, 4, 4, hop_capacity=-1)

    def test_framing_needs_no_search_above_the_bfs_guard(self):
        spec = make_multiplicative(2, 21)
        assert spec.n > BFS_NODE_LIMIT
        assert bits_per_hop(spec) == 6  # 41 ports: 20 pairs plus the diametral 2**20
        actions = [HopAction(20, 1), HopAction(3, -1), HopAction(0, 1)]
        packet = encode_path(spec, actions, dst=None, hop_capacity=3)
        assert packet.hop_capacity == 3 and packet.hops_encoded == 3
        node, hops = walk(spec, 7, packet)
        assert (node, hops) == ((7 + 2**20 - 8 + 1) % spec.n, 3)
        with pytest.raises(GuardLimitError):
            build_packet(spec, 0, 1)
