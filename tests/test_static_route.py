import dataclasses
import math
from collections import Counter, deque
from functools import lru_cache

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
    TrafficPattern,
    apply_action,
    average_distance,
    bfs_distances,
    bits_per_hop,
    build_packet,
    compare_row,
    consume_step,
    diameter,
    encode_path,
    greedy_path,
    make_circulant,
    make_multiplicative,
    neighbor_offsets,
    next_hop,
    path_to_actions,
    port_count,
    port_table,
    run,
    shortest_path,
    stretch_report,
)
from mcnoc import metrics, static_route
from mcnoc.metrics import BFS_NODE_LIMIT, _bfs, _digit_distances, _tree_path

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
        # the one port table: its offsets, a minimal slot width, its offset map
        actions = port_table(spec).actions
        assert neighbor_offsets(spec) == tuple(apply_action(spec, 0, a) for a in actions)
        b = bits_per_hop(spec)
        assert 2 ** (b - 1) <= port_count(spec) < 2**b
        for a in actions:
            assert path_to_actions(spec, [src, apply_action(spec, src, a)]) == [a]

    def test_diametral_generatrix_is_sampled(self):
        # the strategy must reach the single-port n/2 case it exists to cover
        @settings(max_examples=200, deadline=None)
        @given(circulants())
        def collect(spec):
            seen.add(2 * spec.generatrices[-1] == spec.n)

        seen = set()
        collect()
        assert seen == {True, False}


def port_steps(spec):
    """Hop offsets in port-code order, from the numbering rule alone: largest
    generatrix first, minus before plus, a diametral generatrix once."""
    steps = []
    for g in reversed(spec.generatrices):
        for step in (-g % spec.n, g):
            if step not in steps:
                steps.append(step)
    return steps


def least_code_path(spec, steps, lengths, src):
    """From src, take the least port code that stays on a shortest path, until
    the distance reaches 0; ``lengths[v]`` is v's hop distance to the target."""
    path = [src]
    while lengths[path[-1]]:
        u = path[-1]
        path.append(next((u + d) % spec.n for d in steps if lengths[(u + d) % spec.n] < lengths[u]))
    return path


def multiplicative_specs(limit, ring_limit):
    """Every MC(s, k) with k >= 2 and n <= limit, and the rings MC(s, 1) with s <= ring_limit."""
    specs = [make_multiplicative(s, 1) for s in range(3, ring_limit + 1)]
    for k in range(2, limit.bit_length()):
        s = 2
        while s**k <= limit:
            specs.append(make_multiplicative(s, k))
            s += 1
    return specs


class TestTieRule:
    """``shortest_path`` returns the least port-code sequence among shortest paths."""

    @pytest.mark.parametrize(
        "spec",
        [
            make_multiplicative(2, 5),
            make_multiplicative(3, 3),
            make_multiplicative(4, 3),
            make_multiplicative(6, 2),
            make_multiplicative(7, 2),
            make_multiplicative(10, 1),
            make_circulant(16, [1, 8]),
            make_circulant(30, [2, 3, 15]),
            make_circulant(64, [1, 5, 32]),
            make_circulant(97, [3, 10, 41]),
        ],
        ids=lambda spec: spec.label,
    )
    def test_every_pair_against_networkx_distances(self, spec):
        graph = nx_circulant(spec)
        steps = port_steps(spec)
        for dst in range(spec.n):
            lengths = nx.single_source_shortest_path_length(graph, dst)
            for src in range(spec.n):
                assert shortest_path(spec, src, dst) == least_code_path(spec, steps, lengths, src)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(circulants(), small_specs.map(lambda sk: make_multiplicative(*sk))),
        st.integers(0, 10**6),
    )
    def test_every_source_against_search_distances(self, spec, b):
        dst = b % spec.n
        steps = port_steps(spec)
        lengths = bfs_distances(spec, dst).tolist()
        for src in range(spec.n):
            assert shortest_path(spec, src, dst) == least_code_path(spec, steps, lengths, src)

    def test_digit_dp_is_the_search_up_to_4096_nodes(self):
        # every offset's DP route is the node-0 tree path, as nodes and as the
        # field the public encoder packs, and the DP's diameter and distance
        # total are the tree's
        specs = multiplicative_specs(4096, ring_limit=100)
        assert len(specs) == 98 + 99
        for spec in specs:
            dist, pred = _bfs(spec, 0)
            paths = [_tree_path(pred, x) for x in range(spec.n)]
            assert [shortest_path(spec, 0, x) for x in range(spec.n)] == paths, spec.label
            packets = [encode_path(spec, path_to_actions(spec, path), path[-1]) for path in paths]
            assert [build_packet(spec, 0, x) for x in range(spec.n)] == packets, spec.label
            sums = _digit_distances(spec)
            assert (sums.diameter, sums.total) == (max(dist), sum(dist)), spec.label

    @pytest.mark.parametrize("sk", [(4, 8), (16, 4)])
    def test_digit_dp_is_the_search_on_65536_nodes(self, sk):
        # past the sweep above: every offset's DP route is the tree path of a fresh search
        spec = make_multiplicative(*sk)
        pred = _bfs(spec, 0)[1]
        for x in range(spec.n):
            assert shortest_path(spec, 0, x) == _tree_path(pred, x), (spec.label, x)

    @pytest.mark.parametrize("sk", [(2, 4), (2, 7), (3, 4), (4, 3), (5, 3), (11, 2), (13, 1)])
    def test_multiplicative_specs_read_no_tree(self, monkeypatch, sk):
        spec = make_multiplicative(*sk)
        n = spec.n
        dist, pred = _bfs(spec, 0)
        paths = {(a, b): [(v + a) % n for v in _tree_path(pred, (b - a) % n)]
                 for a in (0, 1, n - 1) for b in range(n)}

        def no_search(spec, src):
            raise AssertionError("ran the BFS")

        # every cached tree is gone, so a tree read would have to search
        metrics._tree.cache_clear()
        monkeypatch.setattr(metrics, "_bfs", no_search)
        static_route._routes.cache_clear()
        _digit_distances.cache_clear()
        assert diameter(spec) == max(dist)
        assert average_distance(spec) == sum(dist) / (n - 1)
        assert compare_row(spec).diameter == max(dist)
        for (a, b), path in paths.items():
            assert shortest_path(spec, a, b) == path
            assert build_packet(spec, a, b) == encode_path(
                spec, path_to_actions(spec, path), b, max(dist)
            )
        report = run(spec, "source_routed", TrafficPattern.all_pairs())
        assert report.max_hops == max(dist)
        assert report.avg_hops == sum(dist) / (n - 1)
        assert run(spec, "greedy", TrafficPattern.all_pairs()) == dataclasses.replace(
            report, mode="greedy"
        )
        for (a, b), path in paths.items():
            if a != b:
                assert len(greedy_path(spec, a, b)) == len(path)
                assert next_hop(spec, a, b).next_node == greedy_path(spec, a, b)[1]
        assert stretch_report(spec).max_stretch == 1.0

    def test_guard_precedes_the_node_checks(self):
        big = make_multiplicative(2, 21)
        assert big.n > BFS_NODE_LIMIT
        with pytest.raises(GuardLimitError, match=r"^MC\(2,21\) has 2097152 nodes, above the "):
            shortest_path(big, 0, 1)
        with pytest.raises(GuardLimitError, match="BFS guard$"):
            shortest_path(big, 0, big.n)
        with pytest.raises(ValueError, match=r"^destination 2097152 outside"):
            build_packet(big, 0, big.n)


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

    def test_bits_refuses_framing_no_packet_has(self):
        with pytest.raises(CorruptPacketError, match="^path field has codes past its 1 hop slots$"):
            SourceRoutedPacket(None, 0b1_010, 3, 1, 1).bits()
        with pytest.raises(CorruptPacketError):
            SourceRoutedPacket(None, -1, 3, 2, 2).bits()
        with pytest.raises(GuardLimitError, match="above the 524288 hop guard$"):
            SourceRoutedPacket(None, 0, 2, BFS_NODE_LIMIT // 2 + 1, 0).bits()
        with pytest.raises(GuardLimitError, match="above the 31 slot guard$"):
            SourceRoutedPacket(None, 0, 32, 1, 0).bits()
        # the longest route build_packet returns, a half turn of the 2**20 ring, renders
        ring = SourceRoutedPacket(None, 0, 2, BFS_NODE_LIMIT // 2, 0)
        assert ring.bits() == "|".join(["00"] * (BFS_NODE_LIMIT // 2))

    def test_capacity_default_is_diameter(self):
        assert build_packet(make_multiplicative(2, 4), 0, 3).hop_capacity == 2
        assert build_packet(make_multiplicative(4, 3), 5, 17).hop_capacity == 5

    def test_capacity_overflow(self):
        spec = make_multiplicative(4, 3)
        with pytest.raises(ValueError):
            build_packet(spec, 0, 21, hop_capacity=1)

    def test_encode_path_refuses_more_hops_than_bits_renders_before_packing(self, monkeypatch):
        # packing is quadratic in the hop count, and bits() would refuse the packet anyway
        def no_packing(spec):
            raise AssertionError("packed")

        monkeypatch.setattr(static_route, "bits_per_hop", no_packing)
        hops = BFS_NODE_LIMIT // 2 + 1
        with pytest.raises(
            GuardLimitError, match="^packet has 524289 hop slots, above the 524288 hop guard$"
        ):
            encode_path(make_multiplicative(2, 4), [HopAction(0, 1)] * hops, hop_capacity=hops + 1)

    def test_rejects_foreign_action(self):
        with pytest.raises(ValueError):
            encode_path(make_multiplicative(2, 4), [HopAction(3, -1)])

    def test_path_to_actions_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            path_to_actions(make_multiplicative(2, 4), [0, 3])

    @pytest.mark.parametrize("path", [[0, 9], [9, 0], [-1, 0], [8]])
    def test_path_to_actions_refuses_nodes_out_of_range(self, path):
        # 9 - 0 = 9 = 1 (mod 8) would otherwise pass for a +1 hop
        with pytest.raises(ValueError) as refused:
            path_to_actions(make_multiplicative(2, 3), path)
        bad = next(v for v in path if not 0 <= v < 8)
        assert str(refused.value) == f"node {bad} outside 0..7"


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
        # MC(2,3) has a diametral port: 5 ports in 3-bit slots leave codes 6 and 7 unused
        for (s, k), code, ports in [((4, 3), 7, 6), ((2, 3), 6, 5), ((2, 3), 7, 5)]:
            packet = SourceRoutedPacket(
                dst=None, path_field=code, bits_per_hop=3, hops_encoded=1, hop_capacity=5
            )
            message = rf"^hop code {code} outside 1\.\.{ports}$"
            with pytest.raises(CorruptPacketError, match=message):
                consume_step(make_multiplicative(s, k), packet)

    def test_zero_code_with_pending_bits_is_corrupt(self):
        spec = make_multiplicative(4, 3)
        packet = SourceRoutedPacket(
            dst=None, path_field=0b001_000, bits_per_hop=3, hops_encoded=2, hop_capacity=5
        )
        with pytest.raises(CorruptPacketError, match=r"^hop code 0 outside 1\.\.6$"):
            consume_step(spec, packet)

    @pytest.mark.parametrize("sk", [(2, 2), (2, 4), (2, 8)])
    def test_negative_field_is_corrupt(self, sk):
        # the all-ones code names a port on these specs, and -1 >> b stays -1,
        # so a decoding walk on a negative field would never end
        spec = make_multiplicative(*sk)
        packet = SourceRoutedPacket(1, -5, bits_per_hop(spec), 1, 1)
        with pytest.raises(CorruptPacketError, match=r"^path field -5 is negative$"):
            consume_step(spec, packet)

    def test_foreign_framing_is_corrupt(self):
        # a packet framed for 3-bit slots must not decode on a 4-bit-slot router
        packet = build_packet(make_multiplicative(4, 3), 5, 17)
        message = r"^packet has 3-bit hop slots, MC\(2,6\) uses 4$"
        with pytest.raises(CorruptPacketError, match=message):
            consume_step(make_multiplicative(2, 6), packet)
        arrived = SourceRoutedPacket(
            dst=None, path_field=0, bits_per_hop=3, hops_encoded=0, hop_capacity=6
        )
        with pytest.raises(CorruptPacketError, match=message):
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


@lru_cache(maxsize=16)
def search_tree(spec):
    """Predecessors of a search from node 0, kept apart from the library's tree cache."""
    return _bfs(spec, 0)[1]


def reference_packet(spec, src, dst, cap=None):
    """The packet the uncached pipeline builds from a node-0 search: path, actions, one encode."""
    path = [(v + src) % spec.n for v in _tree_path(search_tree(spec), (dst - src) % spec.n)]
    return encode_path(spec, path_to_actions(spec, path), dst, cap)


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
    def test_every_pair_matches_the_uncached_pipeline(self, encodes, spec):
        d = diameter(spec)
        for src in range(spec.n):
            for dst in range(spec.n):
                hops = reference_packet(spec, src, dst).hops_encoded
                # each call packs its own field: none is kept between calls
                for cap in (None, None, d + 2, hops, hops):
                    assert build_packet(spec, src, dst, cap) == reference_packet(
                        spec, src, dst, cap
                    )
        # one pack per call, n pairs per offset, and no field list
        assert encodes == Counter({off: 5 * spec.n for off in range(spec.n)})
        assert static_route._field_list.cache_info().currsize == 0

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


class TestPacketsAreRecords:
    @pytest.mark.parametrize(
        "spec, pair, twin",
        [
            (make_multiplicative(4, 3), (5, 17), (40, 52)),
            (make_circulant(30, [2, 3, 15]), (4, 21), (20, 7)),
        ],
        ids=lambda v: v.label if hasattr(v, "label") else None,
    )
    def test_build_packet_returns_a_fresh_packet(self, spec, pair, twin):
        # twin is another pair at the same offset, so it reads the same cache entry
        first = build_packet(spec, *pair)
        second = build_packet(spec, *pair)
        assert first is not second and first == second
        first.path_field, first.dst, first.hop_capacity = 0b111, None, 99
        for src, dst in (pair, twin):
            for cap in (None, diameter(spec) + 1):
                got = build_packet(spec, src, dst, cap)
                assert got is not first
                assert got == reference_packet(spec, src, dst, cap)

    def test_encode_path_returns_a_fresh_packet(self):
        spec = make_multiplicative(4, 3)
        actions = path_to_actions(spec, shortest_path(spec, 5, 17))
        a = encode_path(spec, actions, 17)
        b = encode_path(spec, actions, 17)
        assert a is not b and a == b

    def test_consume_step_leaves_its_argument_alone(self):
        spec = make_multiplicative(4, 3)
        packet = build_packet(spec, 5, 17)
        before = dataclasses.asdict(packet)
        while True:
            action, after = consume_step(spec, packet)
            assert dataclasses.asdict(packet) == before
            if action is None:
                assert after is packet  # at the destination: the same packet, as documented
                break
            assert after is not packet
            packet, before = after, dataclasses.asdict(after)
        assert before["path_field"] == 0

    def test_fields_repr_and_asdict_are_pinned(self):
        names = [f.name for f in dataclasses.fields(SourceRoutedPacket)]
        assert names == ["dst", "path_field", "bits_per_hop", "hops_encoded", "hop_capacity"]
        packet = build_packet(make_multiplicative(4, 3), 5, 17)
        assert repr(packet) == (
            "SourceRoutedPacket(dst=17, path_field=26, bits_per_hop=3, "
            "hops_encoded=2, hop_capacity=5)"
        )
        assert dataclasses.asdict(packet) == {
            "dst": 17, "path_field": 26, "bits_per_hop": 3, "hops_encoded": 2, "hop_capacity": 5
        }

    def test_packets_are_mutable_and_unhashable(self):
        packet = build_packet(make_multiplicative(4, 3), 5, 17)
        with pytest.raises(TypeError, match="unhashable"):
            hash(packet)
        packet.dst = 3
        assert packet.dst == 3
