import builtins
import json
import math
import time
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcnoc import (
    CorruptPacketError,
    GuardLimitError,
    RoutingError,
    SourceRoutedPacket,
    TrafficPattern,
    average_distance,
    bench_route_computation,
    bfs_distances,
    build_packet,
    consume_step,
    diameter,
    greedy_path,
    make_circulant,
    make_multiplicative,
    run,
    shortest_path,
    sim_report_csv,
    sim_report_document,
)
from mcnoc import metrics, simulator, static_route
from mcnoc.simulator import PAIRS, SIM_CSV_HEADER, SimReport
from mcnoc.topology import MAX_NODES


@st.composite
def mc_specs(draw):
    """MC(s, k) up to MAX_NODES nodes; rings stay at or below 1000 nodes, where
    a greedy walk takes one step per hop."""
    k = draw(st.integers(1, MAX_NODES.bit_length() - 1))
    top = 1000 if k == 1 else int(MAX_NODES ** (1 / k)) + 1
    while top**k > MAX_NODES:
        top -= 1
    return make_multiplicative(draw(st.integers(3 if k == 1 else 2, top)), k)


@pytest.fixture
def cold_lists():
    """No cached field list, so a batch run builds its spec's list anew."""
    static_route._field_list.cache_clear()


def listed():
    """How many field lists are cached."""
    return static_route._field_list.cache_info().currsize


def slot_runs(field, hops):
    """One-hop runs (code, 1) of field's first hops 3-bit slots, MC(2,3)'s width; the
    last run holds every higher bit, so it may be a code wider than its slot."""
    return [((field >> 3 * i) & 7, 1) for i in range(hops - 1)] + [(field >> 3 * (hops - 1), 1)]


@st.composite
def circulant_specs(draw):
    """Connected circulants up to 24 nodes, diametral generatrices included."""
    n = draw(st.integers(5, 24))
    gens = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
    assume(math.gcd(n, *gens) == 1)
    return make_circulant(n, sorted(gens))


def walked_histogram(spec, traffic):
    """Hop counts of greedy_path's node lists over the pattern's pairs."""
    return Counter(len(greedy_path(spec, a, b)) - 1 for a, b in traffic.pairs(spec))


def assert_report_is_the_tally(report, tally):
    assert report.hop_histogram == dict(sorted(tally.items()))
    assert report.injected == report.delivered == sum(tally.values())
    assert report.max_hops == report.total_cycles == max(tally, default=0)
    assert report.avg_hops == sum(h * c for h, c in tally.items()) / report.injected


def documented_pairs(n, count, seed):
    """The module docstring's generator, written out, with the draws each pair took:
    x_0 = seed mod 2**32, then x_{t+1} = (1664525 x_t + 1013904223) mod 2**32; src
    from one draw, dst from the next, dst drawn again while it equals src."""
    x = seed % 2**32
    for _ in range(count):
        x = (1664525 * x + 1013904223) % 2**32
        src = x % n
        draws = 1
        while True:
            x = (1664525 * x + 1013904223) % 2**32
            draws += 1
            if x % n != src:
                break
        yield (src, x % n), draws


# redraws on odd n, which an offset stream draws pair by pair at every length:
# (n, seed): the first redraw comes at pair PAIRS - 1
LAST_PAIR_REDRAW = (2**16 + 1, 2**32 + 28846)
# (n, seed): pair 593 draws dst three times
DOUBLE_REDRAW = (PAIRS + 1, 18)
# (n, seed): of 4 * PAIRS pairs on 3**8 nodes, pairs 226 and 717 redraw
INNER_REDRAWS = (3**8, 87)


class TestTrafficPatterns:
    def test_all_pairs_covers_ordered_pairs(self):
        spec = make_multiplicative(2, 3)
        pairs = list(TrafficPattern.all_pairs().pairs(spec))
        assert len(pairs) == spec.n * (spec.n - 1)
        assert len(set(pairs)) == len(pairs)
        assert all(src != dst for src, dst in pairs)

    @pytest.mark.parametrize("spec", [make_multiplicative(2, 3), make_circulant(12, [1, 3])])
    def test_all_pairs_in_nested_loop_order(self, spec):
        n = spec.n
        nested = [(a, b) for a in range(n) for b in range(n) if b != a]
        assert list(TrafficPattern.all_pairs().pairs(spec)) == nested

    def test_random_pairs_reproducible(self):
        spec = make_multiplicative(3, 3)
        a = list(TrafficPattern.random_pairs(100, seed=9).pairs(spec))
        b = list(TrafficPattern.random_pairs(100, seed=9).pairs(spec))
        c = list(TrafficPattern.random_pairs(100, seed=10).pairs(spec))
        assert a == b
        assert a != c
        assert all(0 <= s < spec.n and 0 <= d < spec.n and s != d for s, d in a)

    def test_random_pairs_lcg_values(self):
        # x1 = 1013904223, x2 = 1196435762 for seed 0; mod 16 gives (15, 2)
        spec = make_multiplicative(2, 4)
        pairs = list(TrafficPattern.random_pairs(2, seed=0).pairs(spec))
        assert pairs[0] == (15, 2)
        assert pairs[1] == (3519870697 % 16, 2868466484 % 16)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 4]) | st.integers(3, 5000), st.integers(0, 100),
           st.integers(-(2**40), 2**40))
    def test_random_pairs_are_the_documented_lcg(self, n, count, seed):
        spec = make_circulant(n, [1])
        reference = [pair for pair, _ in documented_pairs(n, count, seed)]
        assert list(TrafficPattern.random_pairs(count, seed).pairs(spec)) == reference

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4, 16, 256, PAIRS - 1, PAIRS, PAIRS + 1, 2**16, 2**16 + 1,
                            2**30, MAX_NODES]),
           st.sampled_from([0, PAIRS - 1, PAIRS, PAIRS + 1, 3 * PAIRS + 7]),
           st.sampled_from([-1, 0]) | st.integers(2**32, 2**80))
    @example(4, PAIRS, -1)
    @example(16, PAIRS + 1, 0)
    @example(256, 3 * PAIRS + 7, 2**40 + 3)
    @example(LAST_PAIR_REDRAW[0], PAIRS, LAST_PAIR_REDRAW[1])
    @example(LAST_PAIR_REDRAW[0], 3 * PAIRS + 7, LAST_PAIR_REDRAW[1])
    @example(DOUBLE_REDRAW[0], 3 * PAIRS + 7, DOUBLE_REDRAW[1])
    def test_blocks_keep_the_documented_lcg(self, n, count, seed):
        # counts around the block size, on both sides of the pair-by-pair
        # rule; an offset stream of at least PAIRS pairs on a power of two
        # from 4 to 2**30, the widest mask under MAX_NODES, is drawn in blocks,
        # and seed -1 starts at 2**32 - 1, the largest state a lane
        # multiplies; x_{t+1} - x_t is odd, so only odd n redraw, pair by
        # pair: n = 3 about one pair in three, PAIRS + 1 about once in n
        spec = make_circulant(n, [1])
        reference = [pair for pair, _ in documented_pairs(n, count, seed)]
        traffic = TrafficPattern.random_pairs(count, seed)
        assert list(traffic.pairs(spec)) == reference
        assert list(traffic._offsets(spec)) == [(dst - src) % n for src, dst in reference]

    def test_the_examples_redraw_where_they_say(self):
        n, seed = LAST_PAIR_REDRAW
        redrawn = [i for i, (_, draws) in enumerate(documented_pairs(n, 2 * PAIRS, seed))
                   if draws > 2]
        assert redrawn[0] == PAIRS - 1 and n >= PAIRS
        n, seed = DOUBLE_REDRAW
        assert [i for i, (_, draws) in enumerate(documented_pairs(n, 2 * PAIRS, seed))
                if draws > 3] == [593]
        n, seed = INNER_REDRAWS
        assert [i for i, (_, draws) in enumerate(documented_pairs(n, 4 * PAIRS, seed))
                if draws > 2] == [226, 717]

    def test_only_a_long_stream_on_a_power_of_two_draws_blocks(self):
        # the lane tables wait for the first block of an offset stream; a
        # stream of fewer than PAIRS pairs, or on a node count that is not a
        # power of two, never builds them, and neither does ``pairs`` at any
        # length; a long stream on a power of two builds them at any size
        small, large = make_multiplicative(3, 3), make_multiplicative(2, 10)
        odd = make_multiplicative(3, 8)
        simulator._lanes.cache_clear()
        for spec, traffic in ((small, TrafficPattern.all_pairs()),
                              (large, TrafficPattern.single(0, 5)),
                              (large, TrafficPattern.random_pairs(0)),
                              (large, TrafficPattern.random_pairs(PAIRS - 1)),
                              (small, TrafficPattern.random_pairs(4 * PAIRS)),
                              (odd, TrafficPattern.random_pairs(4 * PAIRS))):
            run(spec, "greedy", traffic)
        list(TrafficPattern.random_pairs(4 * PAIRS).pairs(make_multiplicative(2, 16)))
        assert simulator._lanes.cache_info().currsize == 0
        run(large, "greedy", TrafficPattern.random_pairs(PAIRS))
        assert simulator._lanes.cache_info().currsize == 1
        simulator._lanes.cache_clear()
        run(make_multiplicative(2, 4), "greedy", TrafficPattern.random_pairs(4 * PAIRS))
        assert simulator._lanes.cache_info().currsize == 1

    def test_pattern_seed_wins_over_run_seed(self):
        spec = make_multiplicative(3, 3)
        own = TrafficPattern.random_pairs(20, seed=5)
        assert list(own.pairs(spec, default_seed=123)) == list(own.pairs(spec, default_seed=7))
        unseeded = TrafficPattern.random_pairs(20)
        assert list(unseeded.pairs(spec, default_seed=5)) == list(own.pairs(spec))

    def test_single_pair_validation(self):
        with pytest.raises(ValueError):
            TrafficPattern.single(3, 3)
        spec = make_multiplicative(2, 3)
        with pytest.raises(ValueError):
            list(TrafficPattern.single(0, 9).pairs(spec))
        assert list(TrafficPattern.single(0, 5).pairs(spec)) == [(0, 5)]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            TrafficPattern.random_pairs(-1)


# every MC(s, k) with k >= 2 that the all-pairs guard admits, and every ring it admits
ALL_PAIRS_SPECS = [
    make_multiplicative(s, k)
    for k in range(1, 9)
    for s in range(3 if k == 1 else 2, simulator.ALL_PAIRS_NODE_LIMIT + 1)
    if s**k <= simulator.ALL_PAIRS_NODE_LIMIT
]
SEEDS = st.integers(-(2**70), 2**70)


class TestOffsetStream:
    """``run`` reads ``_offsets``; ``pairs`` is the oracle for every kind."""

    @settings(max_examples=300, deadline=None)
    @given(mc_specs(), st.integers(0, 300), SEEDS | st.none(), SEEDS)
    @example(make_multiplicative(3, 9), 0, 5, 0)
    @example(make_multiplicative(3, 9), 200, None, -1)
    @example(make_multiplicative(3, 9), 200, 2**64 + 3, 7)
    @example(make_multiplicative(3, 1), 200, -(2**70), 0)  # n = 3 redraws often
    # an offset stream drawn in blocks on a power of two n, and streams on
    # odd n, which redraw, drawn pair by pair, against pairs
    @example(make_multiplicative(2, 12), 3 * PAIRS + 7, None, 5)
    @example(make_multiplicative(3, 8), 4 * PAIRS, INNER_REDRAWS[1], 0)
    @example(make_multiplicative(DOUBLE_REDRAW[0], 1), 3 * PAIRS + 7, DOUBLE_REDRAW[1], 0)
    def test_random_offsets_are_the_offsets_of_the_pairs(self, spec, count, seed, default_seed):
        traffic = TrafficPattern.random_pairs(count, seed)
        n = spec.n
        want = [(dst - src) % n for src, dst in traffic.pairs(spec, default_seed)]
        assert list(traffic._offsets(spec, default_seed)) == want

    @settings(max_examples=200, deadline=None)
    @given(mc_specs(), st.integers(0, MAX_NODES), st.integers(0, MAX_NODES))
    @example(make_multiplicative(3, 9), 19682, 0)  # the pair (19682, 0): offset 1
    def test_single_offset_is_the_offset_of_its_pair(self, spec, a, b):
        n = spec.n
        src = a % n
        traffic = TrafficPattern.single(src, (src + 1 + b % (n - 1)) % n)
        assert list(traffic._offsets(spec)) == [(d - s) % n for s, d in traffic.pairs(spec)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(ALL_PAIRS_SPECS))
    @example(make_multiplicative(3, 5))  # odd n
    @example(make_multiplicative(256, 1))
    def test_all_pairs_offsets_are_n_copies_of_each_offset(self, spec):
        n = spec.n
        offsets = Counter(TrafficPattern.all_pairs()._offsets(spec))
        assert offsets == {off: n for off in range(1, n)}
        assert offsets == Counter((d - s) % n for s, d in TrafficPattern.all_pairs().pairs(spec))

    def test_all_pairs_offsets_are_built_only_within_the_guard(self):
        # one byte per packet: each source's offsets, ascending, up to 256 nodes
        top = make_multiplicative(simulator.ALL_PAIRS_NODE_LIMIT, 1)
        assert TrafficPattern.all_pairs()._offsets(top) == bytes(range(1, 256)) * 256
        ring = make_multiplicative(257, 1)
        refused = r"^MC\(257,1\) has 257 nodes, above the 256 all-pairs guard$"
        with pytest.raises(GuardLimitError, match=refused):
            TrafficPattern.all_pairs()._offsets(ring)
        for mode in simulator.MODES:
            with pytest.raises(GuardLimitError, match=refused):
                run(ring, mode, TrafficPattern.all_pairs())


class TestRun:
    def test_all_pairs_source_routed_reference(self):
        report = run(make_multiplicative(2, 4), "source_routed", TrafficPattern.all_pairs())
        assert report.mode == "source_routed"
        assert report.injected == report.delivered == 240
        assert report.avg_hops == pytest.approx(23 / 15, abs=1e-12)
        assert report.max_hops == report.total_cycles == 2
        assert report.hop_histogram == {1: 112, 2: 128}

    def test_histogram_matches_distance_profile(self):
        spec = make_multiplicative(3, 3)
        report = run(spec, "source_routed", TrafficPattern.all_pairs())
        profile: dict[int, int] = {}
        for src in range(spec.n):
            for d in bfs_distances(spec, src).tolist():
                if d > 0:
                    profile[d] = profile.get(d, 0) + 1
        assert report.hop_histogram == profile

    def test_modes_agree_where_greedy_is_shortest(self):
        # every MC(s, k) with k >= 2 that the all-pairs guard admits: 2 <= s <= 16
        specs = [
            make_multiplicative(s, k)
            for s in range(2, 17)
            for k in range(2, 9)
            if s**k <= simulator.ALL_PAIRS_NODE_LIMIT
        ]
        assert len(specs) == 28
        for spec in specs:
            static = run(spec, "source_routed", TrafficPattern.all_pairs())
            greedy = run(spec, "greedy", TrafficPattern.all_pairs())
            assert static.hop_histogram == greedy.hop_histogram, spec.label
            assert static.avg_hops == greedy.avg_hops
            assert greedy.max_hops == diameter(spec)

    def test_single_pair_run(self):
        spec = make_multiplicative(2, 6)
        report = run(spec, "greedy", TrafficPattern.single(0, 63))
        assert report.injected == report.delivered == 1
        assert report.avg_hops == 1.0
        assert report.hop_histogram == {1: 1}
        assert report.total_cycles == 1

    def test_random_traffic_is_reproducible(self):
        spec = make_multiplicative(3, 3)
        a = run(spec, "greedy", TrafficPattern.random_pairs(50), seed=3)
        b = run(spec, "greedy", TrafficPattern.random_pairs(50), seed=3)
        assert a == b

    def test_empty_traffic(self):
        report = run(make_multiplicative(2, 3), "greedy", TrafficPattern.random_pairs(0))
        assert report.injected == 0
        assert report.avg_hops == 0.0 and report.total_cycles == 0

    def test_source_routed_works_on_general_circulant(self):
        # C(16;1,8) and C(20;3,10) carry a diametral generatrix: one port, two directions
        for n, gens in [(12, [1, 3]), (16, [1, 8]), (20, [3, 10])]:
            spec = make_circulant(n, gens)
            report = run(spec, "source_routed", TrafficPattern.all_pairs())
            assert report.delivered == n * (n - 1)
            assert report.avg_hops == pytest.approx(average_distance(spec), abs=1e-12)

    @pytest.mark.parametrize(
        "field, hops, code",
        [
            (0b001_000, 2, 0),  # a 0 slot (the terminator) under a pending hop
            (6, 1, 6),  # MC(2,3) has 5 ports in 3-bit slots: codes 6 and 7 name none
            (7, 1, 7),
            (0b111_001, 2, 7),  # one good hop, then an unused code
        ],
    )
    def test_corrupt_field_aborts_the_run(self, cold_lists, monkeypatch, field, hops, code):
        spec = make_multiplicative(2, 3)
        packet = SourceRoutedPacket(None, field, 3, hops, 3)
        with pytest.raises(CorruptPacketError) as stepped:
            while packet.path_field:
                packet = consume_step(spec, packet)[1]
        assert str(stepped.value) == f"hop code {code} outside 1..5"
        # the route core hands out the same codes as one-hop runs: (0,1),(1,1) for 0b001_000
        monkeypatch.setattr(static_route, "_route", lambda spec, offset: slot_runs(field, hops))
        with pytest.raises(CorruptPacketError) as walked:
            run(spec, "source_routed", TrafficPattern.single(0, 1))
        assert str(walked.value) == str(stepped.value)

    def test_field_past_its_hop_slots_aborts_the_run(self, cold_lists, monkeypatch):
        # MC(2,3) codes +2, -2, +1 as 3, 2, 5: three hops that do reach 1, as
        # one run whose code is wider than its 3-bit slot
        spec = make_multiplicative(2, 3)
        monkeypatch.setattr(static_route, "_route", lambda spec, offset: [(0b101_010_011, 1)])
        with pytest.raises(CorruptPacketError) as refused:
            run(spec, "source_routed", TrafficPattern.single(0, 1))
        assert str(refused.value) == "path field has codes past its 1 hop slots"

    def test_run_routes_each_offset_once(self, encodes):
        spec = make_multiplicative(4, 3)
        run(spec, "source_routed", TrafficPattern.all_pairs())
        # the batch fills the spec's list: one field per offset it meets
        assert encodes == Counter(range(1, spec.n))
        # the list outlives the run: a second one packs nothing
        encodes.clear()
        run(spec, "source_routed", TrafficPattern.random_pairs(500, seed=3))
        run(spec, "source_routed", TrafficPattern.all_pairs())
        assert encodes == Counter() and listed() == 1

    def test_a_build_packet_sweep_builds_no_list(self, encodes):
        # build_packet packs its pair's field on every call and keeps nothing
        spec = make_multiplicative(4, 3)
        for src, dst in TrafficPattern.all_pairs().pairs(spec):
            build_packet(spec, src, dst)
        assert encodes == Counter({off: spec.n for off in range(1, spec.n)})
        assert listed() == 0
        encodes.clear()
        run(spec, "source_routed", TrafficPattern.all_pairs())
        assert encodes == Counter(range(1, spec.n)) and listed() == 1

    def test_a_batch_packs_each_offset_it_meets_once(self, encodes):
        # n = 19683 is odd: where 8 divides n, the LCG's pairs meet only n / 8 offsets
        spec = make_multiplicative(3, 9)
        traffic = TrafficPattern.random_pairs(20000, seed=5)
        pairs = list(traffic.pairs(spec))
        offsets = Counter((dst - src) % spec.n for src, dst in pairs)
        assert len(offsets) > 8192 and max(offsets.values()) > 1
        report = run(spec, "source_routed", traffic)
        assert encodes == Counter(set(offsets)) and listed() == 1
        tally = Counter(len(shortest_path(spec, src, dst)) - 1 for src, dst in pairs)
        assert_report_is_the_tally(report, tally)
        encodes.clear()
        assert run(spec, "source_routed", traffic) == report
        assert encodes == Counter() and listed() == 1

    def test_a_batch_past_the_byte_bound_packs_every_packet(self, encodes):
        # n = 177147 is odd, and its full list would pass FIELD_LIST_BYTES
        spec = make_multiplicative(3, 11)
        routes = static_route._routes(spec)
        assert spec.n * (40 + routes.capacity * routes.bits // 7) > static_route.FIELD_LIST_BYTES
        traffic = TrafficPattern.random_pairs(20000, seed=5)
        pairs = list(traffic.pairs(spec))
        offsets = Counter((dst - src) % spec.n for src, dst in pairs)
        assert len(offsets) > 8192 and max(offsets.values()) > 1
        report = run(spec, "source_routed", traffic)
        # one field packed per packet, none kept: a second run packs them all again
        assert encodes == offsets and listed() == 0
        tally = Counter(len(shortest_path(spec, src, dst)) - 1 for src, dst in pairs)
        assert_report_is_the_tally(report, tally)
        encodes.clear()
        assert run(spec, "source_routed", traffic) == report
        assert encodes == offsets and listed() == 0

    @pytest.mark.parametrize(
        "packet, error, message",
        [
            # runs (1,1),(7,1): code 7 names no port of MC(2,3)
            (SourceRoutedPacket(None, 0b111_001, 3, 2, 3), CorruptPacketError,
             "hop code 7 outside 1..5"),
            # codes +2, -2, +1 reach 1, as the one run (0b101_010_011, 1)
            (SourceRoutedPacket(None, 0b101_010_011, 3, 1, 2), CorruptPacketError,
             "path field has codes past its 1 hop slots"),
            # the same three hops as the runs (3,1),(2,1),(5,1) on a diameter-2 spec
            (SourceRoutedPacket(None, 0b101_010_011, 3, 3, 3), ValueError,
             "3 hops exceed capacity 2"),
            # the run (3,1): a well-formed field that leads to 2, not 1
            (SourceRoutedPacket(None, 0b011, 3, 1, 2), RoutingError,
             "packet for 1 stopped at 2"),
        ],
    )
    def test_a_refused_field_never_reaches_a_later_run(
        self, cold_lists, monkeypatch, packet, error, message
    ):
        spec = make_multiplicative(2, 3)
        traffic = TrafficPattern.single(0, 1)
        runs = slot_runs(packet.path_field, packet.hops_encoded)
        route = static_route._route
        with monkeypatch.context() as patch:
            patch.setattr(
                static_route, "_route", lambda spec, off: runs if off == 1 else route(spec, off)
            )
            # one packet packs its own field; a batch packs it for its list
            # and refuses it before the list keeps it; build_packet packs it once more
            for pattern in (traffic, TrafficPattern.all_pairs()):
                with pytest.raises(error) as refused:
                    run(spec, "source_routed", pattern)
                assert str(refused.value) == message
            with pytest.raises(error) as built:
                build_packet(spec, 0, 1)
            assert str(built.value) == message
        assert listed() == 1 and static_route._field_list(spec)[1] is None
        for pattern in (traffic, TrafficPattern.all_pairs()):
            tally = Counter(len(shortest_path(spec, a, b)) - 1 for a, b in pattern.pairs(spec))
            assert_report_is_the_tally(run(spec, "source_routed", pattern), tally)

    def test_a_walk_checks_every_delivery_on_a_listed_field(self, cold_lists, monkeypatch):
        # a list that the packer never built (offset 1 holds offset 2's field):
        # the walk itself stops the packet
        spec = make_multiplicative(2, 3)
        fields = [static_route._field(spec, off) for off in range(spec.n)]
        fields[1] = fields[2]
        monkeypatch.setattr(static_route, "_field_list", lambda spec: fields)
        with pytest.raises(RoutingError, match="^packet for 1 stopped at 2$"):
            run(spec, "source_routed", TrafficPattern.all_pairs())

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.builds(make_multiplicative, st.integers(2, 4), st.integers(2, 3)),
            circulant_specs(),
        ),
        st.one_of(
            st.just(TrafficPattern.all_pairs()),
            st.builds(TrafficPattern.random_pairs, st.integers(1, 80), st.integers(0, 2**32 - 1)),
        ),
    )
    @example(make_circulant(16, [1, 8]), TrafficPattern.all_pairs())
    @example(make_circulant(20, [3, 10]), TrafficPattern.all_pairs())
    def test_a_warm_run_equals_a_cold_one(self, spec, traffic):
        static_route._field_list.cache_clear()
        cold = run(spec, "source_routed", traffic)
        warm = run(spec, "source_routed", traffic)
        assert warm == cold
        tally = Counter(len(shortest_path(spec, a, b)) - 1 for a, b in traffic.pairs(spec))
        assert_report_is_the_tally(cold, tally)

    def test_the_router_keeps_the_last_8_specs(self):
        assert static_route._routes.cache_info().maxsize == 8
        assert static_route._field_list.cache_info().maxsize == 8
        assert metrics._ports.cache_info().maxsize == 8

    def test_the_list_holds_the_checked_field_of_each_offset_met(self, cold_lists):
        # every field kept is the one build_packet packs, and only offsets met are kept
        spec = make_multiplicative(2, 16)
        traffic = TrafficPattern.random_pairs(2000, seed=5)
        run(spec, "source_routed", traffic)
        fields = static_route._field_list(spec)
        assert listed() == 1 and len(fields) == spec.n
        kept = {off: field for off, field in enumerate(fields) if field is not None}
        assert set(kept) == set(traffic._offsets(spec))
        assert kept == {off: build_packet(spec, 0, off).path_field for off in kept}

    @pytest.mark.parametrize(
        "sk, lists",
        [
            ((2, 4), True),  # 16 entries of 2 hops of 4 bits
            ((2, 16), True),  # 65536 entries of up to 8 hops of 5 bits: 2.81 MiB
            ((3, 10), True),  # 59049 entries of up to 10 hops of 5 bits
            ((5, 7), True),  # 78125 entries of up to 14 hops of 4 bits
            ((2, 17), False),  # 131072 entries of up to 9 hops of 6 bits
            ((3, 11), False),
            ((5282, 1), True),  # 5282 entries of up to 2641 hops of 2 bits: the longest ring
            ((5283, 1), False),
        ],
    )
    def test_a_list_is_kept_only_within_the_byte_bound(self, cold_lists, sk, lists):
        spec = make_multiplicative(*sk)
        routes = static_route._routes(spec)
        within = spec.n * (40 + routes.capacity * routes.bits // 7) <= static_route.FIELD_LIST_BYTES
        assert within == lists
        run(spec, "source_routed", TrafficPattern.random_pairs(2, seed=5))
        assert listed() == lists

    def test_a_ring_past_the_byte_bound_packs_and_tallies_every_packet(self, encodes):
        # n = 5283 is odd, so the LCG's pairs meet offsets of every residue
        spec = make_multiplicative(5283, 1)
        traffic = TrafficPattern.random_pairs(2000, seed=5)
        pairs = list(traffic.pairs(spec))
        offsets = Counter((dst - src) % spec.n for src, dst in pairs)
        assert max(offsets.values()) > 1
        report = run(spec, "source_routed", traffic)
        assert encodes == offsets and listed() == 0
        tally = Counter(len(shortest_path(spec, src, dst)) - 1 for src, dst in pairs)
        assert_report_is_the_tally(report, tally)

    @pytest.mark.parametrize("sk", [(2, 16), (2, 20)])
    def test_one_shot_calls_build_no_list(self, cold_lists, sk):
        # a single pair packs one field: no call for one packet pays an n-field build
        spec = make_multiplicative(*sk)
        src, dst = 5, spec.n // 3
        report = run(spec, "source_routed", TrafficPattern.single(src, dst))
        packet = build_packet(spec, src, dst)
        path = shortest_path(spec, src, dst)
        assert report.hop_histogram == {packet.hops_encoded: 1} == {len(path) - 1: 1}
        assert listed() == 0

    def test_greedy_needs_multiplicative(self):
        spec = make_circulant(12, [1, 3])
        with pytest.raises(ValueError):
            run(spec, "greedy", TrafficPattern.single(0, 5))

    def test_greedy_checks_the_spec_before_the_traffic(self):
        # even an empty pattern is refused, as source-routed mode reads the
        # diameter before any packet
        spec = make_circulant(12, [1, 3])
        with pytest.raises(ValueError) as refused:
            run(spec, "greedy", TrafficPattern.random_pairs(0))
        assert str(refused.value) == (
            "greedy routing needs a multiplicative circulant, got C(12;1,3)"
        )

    @settings(max_examples=60, deadline=None)
    @given(mc_specs(), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_greedy_histogram_is_the_walked_hop_counts(self, spec, count, seed):
        traffic = TrafficPattern.random_pairs(count, seed=seed)
        report = run(spec, "greedy", traffic)
        assert_report_is_the_tally(report, walked_histogram(spec, traffic))

    @pytest.mark.parametrize("sk", [(2, 4), (3, 3), (4, 3)])
    def test_greedy_all_pairs_is_the_walked_hop_counts(self, sk):
        spec = make_multiplicative(*sk)
        traffic = TrafficPattern.all_pairs()
        report = run(spec, "greedy", traffic)
        assert_report_is_the_tally(report, walked_histogram(spec, traffic))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run(make_multiplicative(2, 3), "dijkstra", TrafficPattern.all_pairs())

    def test_an_unhashable_mode_is_a_value_error(self):
        # the mode is checked against MODES before the router table is read
        with pytest.raises(ValueError, match=r"^mode must be one of .*, got \[\]$"):
            run(make_multiplicative(2, 3), [], TrafficPattern.all_pairs())
        assert set(simulator._TALLIES) <= set(simulator.MODES)

    @pytest.mark.parametrize("mode", simulator.MODES)
    def test_a_run_after_the_first_imports_nothing(self, monkeypatch, mode):
        # a mode's first run imports its router; later runs look it up
        spec = make_multiplicative(2, 4)
        first = run(spec, mode, TrafficPattern.all_pairs())
        imported = []
        real = builtins.__import__

        def recorded(name, *args, **kwargs):
            imported.append(name)
            return real(name, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "__import__", recorded)
            again = run(spec, mode, TrafficPattern.all_pairs())
        assert imported == [] and again == first

    @pytest.mark.parametrize("mode", simulator.MODES)
    def test_all_pairs_guard_refuses_before_the_first_pair(self, monkeypatch, mode):
        ring = make_multiplicative(257, 1)
        assert ring.n == simulator.ALL_PAIRS_NODE_LIMIT + 1

        def no_pairs(self, spec, default_seed=0):
            raise AssertionError("read the traffic")

        with monkeypatch.context() as patch:
            patch.setattr(TrafficPattern, "pairs", no_pairs)
            with pytest.raises(
                GuardLimitError, match=r"^MC\(257,1\) has 257 nodes, above the 256 all-pairs guard$"
            ):
                run(ring, mode, TrafficPattern.all_pairs())
        # random traffic costs time linear in its count, so it stays unguarded
        assert run(ring, mode, TrafficPattern.random_pairs(20, seed=1)).delivered == 20


class TestReportExports:
    def test_csv_round_trip(self):
        spec = make_multiplicative(2, 4)
        report = run(spec, "source_routed", TrafficPattern.all_pairs())
        line = sim_report_csv(spec, report)
        assert line == "source_routed,16,2,4,240,240,1.5333333333333334,2,2"
        fields = dict(zip(SIM_CSV_HEADER.split(","), line.split(",")))
        assert float(fields["avg_hops"]) == report.avg_hops
        assert int(fields["injected"]) == report.injected

    def test_csv_blank_base_for_general_circulant(self):
        spec = make_circulant(12, [1, 3])
        report = run(spec, "source_routed", TrafficPattern.single(0, 5))
        assert sim_report_csv(spec, report).split(",")[2] == ""

    def test_document_is_json_ready(self):
        spec = make_multiplicative(2, 4)
        report = run(spec, "greedy", TrafficPattern.random_pairs(10, seed=1))
        doc = json.loads(json.dumps(sim_report_document(report)))
        assert list(doc) == [f.name for f in fields(SimReport)]
        assert doc["mode"] == "greedy"
        assert doc["injected"] == doc["delivered"] == 10
        assert sum(doc["hop_histogram"].values()) == 10
        assert doc["total_cycles"] == doc["max_hops"]


class TestBench:
    def test_returns_positive_median(self):
        spec = make_multiplicative(2, 3)
        bfs = bench_route_computation(spec, "bfs", repeat=3)
        greedy = bench_route_computation(spec, "greedy", repeat=3)
        assert bfs > 0.0 and greedy > 0.0

    def test_validation(self):
        spec = make_multiplicative(2, 3)
        with pytest.raises(ValueError):
            bench_route_computation(spec, "astar")
        with pytest.raises(ValueError):
            bench_route_computation(spec, "bfs", repeat=0)

    def test_size_guard(self):
        # the all-pairs guard refuses before any route: one bfs sweep of
        # MC(2,9) would take minutes
        for spec in (make_multiplicative(10, 5), make_multiplicative(2, 9)):
            for algo in ("bfs", "greedy"):
                start = time.perf_counter()
                with pytest.raises(GuardLimitError, match="above the 256 all-pairs guard"):
                    bench_route_computation(spec, algo)
                assert time.perf_counter() - start < 1.0

    def test_bfs_sweep_searches_once_per_pair(self, monkeypatch):
        # the bench times one full search per ordered pair, never the cached tree
        roots = []
        search = metrics._bfs

        def counting(spec, src):
            roots.append(src)
            return search(spec, src)

        monkeypatch.setattr(metrics, "_bfs", counting)
        spec = make_multiplicative(2, 4)
        bench_route_computation(spec, "bfs", repeat=2)
        n = spec.n
        assert roots == [src for src in range(n) for _ in range(n - 1)] * 2
