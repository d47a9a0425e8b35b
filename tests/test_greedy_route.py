from bisect import bisect_left, bisect_right
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcnoc import (
    GreedyDecision,
    GuardLimitError,
    RoutingError,
    StretchReport,
    TrafficPattern,
    bfs_distances,
    greedy_path,
    make_circulant,
    make_multiplicative,
    next_hop,
    relative_dest,
    run,
    stretch_report,
)
from mcnoc import greedy_route
from mcnoc.metrics import _digit_hops
from mcnoc.simulator import ALL_PAIRS_NODE_LIMIT
from mcnoc.topology import MAX_NODES

small_specs = st.tuples(st.integers(2, 6), st.integers(1, 4)).filter(
    lambda sk: 3 <= sk[0] ** sk[1] <= 1300
)


@st.composite
def ladder_offsets(draw):
    """(s, k, src, dst) over MC(s, k) up to MAX_NODES nodes; rings stay below
    10**5 nodes, where greedy walks one step per hop."""
    k = draw(st.integers(1, MAX_NODES.bit_length() - 1))
    top = 10**5 if k == 1 else int(MAX_NODES ** (1 / k)) + 1
    while top**k > MAX_NODES:
        top -= 1
    s = draw(st.integers(3 if k == 1 else 2, top))
    n = s**k
    return s, k, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


def cyclic_distance(n, a, b):
    d = (b - a) % n
    return min(d, n - d)


def two_comparison_choice(gens, dd):
    """The generatrix closest to dd, ties to the smaller: g_lo is the largest
    generatrix <= dd, g_hi the next one up (g_lo again at the top)."""
    i = bisect_right(gens, dd) - 1
    g_lo = gens[i]
    g_hi = gens[i + 1] if i + 1 < len(gens) else g_lo
    return g_lo if (dd - g_lo) <= (g_hi - dd) else g_hi


class TestDecision:
    def test_reference_decisions(self):
        spec = make_multiplicative(4, 3)
        # offset 12 sits between generatrices 4 and 16; 16 is closer
        first = next_hop(spec, 5, 17)
        assert first == GreedyDecision(
            direction=1, distance_in_direction=12, g_lo=4, g_hi=16, chosen=16, next_node=21
        )
        # overshot to 21: remaining offset 4 is hit exactly
        second = next_hop(spec, 21, 17)
        assert second.direction == -1
        assert second.distance_in_direction == 4
        assert second.chosen == 4
        assert second.next_node == 17

    def test_direction_tie_prefers_plus(self):
        spec = make_multiplicative(2, 4)  # n = 16
        decision = next_hop(spec, 0, 8)  # offset 8 = n/2 both ways
        assert decision.direction == 1

    def test_generatrix_tie_prefers_smaller(self):
        # offset 3 is equidistant from generatrices 2 and 4
        spec = make_multiplicative(2, 4)
        decision = next_hop(spec, 0, 3)
        assert decision.g_lo == 2 and decision.g_hi == 4
        assert decision.chosen == 2

    def test_beyond_ladder_takes_largest(self):
        spec = make_multiplicative(3, 3)  # gens 1, 3, 9; n = 27
        decision = next_hop(spec, 0, 13)
        assert decision.distance_in_direction == 13
        assert decision.g_lo == decision.g_hi == 9
        assert decision.chosen == 9

    @settings(max_examples=300, deadline=None)
    @given(ladder_offsets())
    def test_chosen_generatrix_is_the_two_comparison_rule(self, case):
        s, k, src, dst = case
        assume(src != dst)
        spec = make_multiplicative(s, k)
        offset = (dst - src) % spec.n
        dd = min(offset, spec.n - offset)
        decision = next_hop(spec, src, dst)
        assert decision.distance_in_direction == dd
        assert decision.chosen == two_comparison_choice(spec.generatrices, dd)

    # MC(2,4) holds the generatrix tie (offset 3 between 2 and 4), MC(3,3) the
    # top of the ladder (offset 13 beyond 9), MC(2,5) the diametral rung
    # (offset 16 = n/2), MC(7,1) a ring with a one-rung ladder
    @pytest.mark.parametrize("sk", [(2, 4), (3, 3), (2, 5), (4, 3), (5, 3), (7, 1)])
    def test_every_distance_of_small_specs(self, sk):
        spec = make_multiplicative(*sk)
        seen = set()
        for offset in range(1, spec.n):
            decision = next_hop(spec, 0, offset)
            dd = decision.distance_in_direction
            want = two_comparison_choice(spec.generatrices, dd)
            assert decision.chosen == want, offset
            assert greedy_path(spec, 0, offset)[1] == decision.next_node
            seen.add(dd)
        assert seen == set(range(1, spec.n // 2 + 1))

    def test_relative_dest(self):
        spec = make_multiplicative(4, 3)
        assert relative_dest(spec, 5, 17) == 12
        assert relative_dest(spec, 17, 5) == 52
        assert relative_dest(spec, 9, 9) == 0
        with pytest.raises(ValueError):
            relative_dest(spec, 64, 0)

    def test_rejects_no_op_and_bad_nodes(self):
        spec = make_multiplicative(4, 3)
        with pytest.raises(ValueError):
            next_hop(spec, 9, 9)
        with pytest.raises(ValueError):
            next_hop(spec, 0, 64)

    def test_rejects_general_circulants(self):
        spec = make_circulant(12, [1, 3])
        with pytest.raises(ValueError):
            next_hop(spec, 0, 5)
        with pytest.raises(ValueError):
            greedy_path(spec, 0, 5)


class TestWalk:
    def test_reference_path(self):
        assert greedy_path(make_multiplicative(4, 3), 5, 17) == [5, 21, 17]

    def test_same_node(self):
        assert greedy_path(make_multiplicative(4, 3), 9, 9) == [9]

    def test_walk_agrees_with_single_steps(self):
        spec = make_multiplicative(5, 3)
        for src, dst in [(0, 111), (7, 3), (124, 60), (88, 89)]:
            path = greedy_path(spec, src, dst)
            node = src
            rebuilt = [node]
            while node != dst:
                node = next_hop(spec, node, dst).next_node
                rebuilt.append(node)
            assert path == rebuilt

    @settings(max_examples=60, deadline=None)
    @given(small_specs, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_terminates_within_initial_offset(self, sk, a, b):
        spec = make_multiplicative(*sk)
        src, dst = a % spec.n, b % spec.n
        path = greedy_path(spec, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 <= cyclic_distance(spec.n, src, dst)

    @settings(max_examples=60, deadline=None)
    @given(small_specs, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_cyclic_distance_strictly_decreases(self, sk, a, b):
        spec = make_multiplicative(*sk)
        src, dst = a % spec.n, b % spec.n
        path = greedy_path(spec, src, dst)
        gaps = [cyclic_distance(spec.n, v, dst) for v in path]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_monotone_exhaustive(self):
        spec = make_multiplicative(4, 3)
        for src in range(spec.n):
            for dst in range(spec.n):
                path = greedy_path(spec, src, dst)
                gaps = [cyclic_distance(spec.n, v, dst) for v in path]
                assert all(x > y for x, y in zip(gaps, gaps[1:]))

    # odd n, the diametral tie dd = n/2, rings, and a general spec
    @pytest.mark.parametrize("sk", [(3, 5), (5, 3), (2, 7), (4, 4), (7, 1), (8, 1), (6, 3)])
    def test_distance_walk_counts_the_node_walk(self, sk):
        spec = make_multiplicative(*sk)
        n = spec.n
        hops_of = greedy_route._hop_counter(spec)
        for src in (0, n - 1):
            for offset in range(n):
                dst = (src + offset) % n
                assert hops_of(offset) == len(greedy_path(spec, src, dst)) - 1

    def test_hop_guard_stops_a_cycling_walk(self, monkeypatch):
        # a ladder of (0, 0) always picks 4 on MC(2,3): distance 1 -> 3 -> 1 -> ...
        spec = make_multiplicative(2, 3)
        monkeypatch.setattr(greedy_route, "_ladder", lambda spec: (0, 0))
        message = "greedy walk from 0 to 1 exceeded 8 hops"
        with pytest.raises(RoutingError) as counted:
            greedy_route._hop_counter(spec)(1)
        assert str(counted.value) == message
        with pytest.raises(RoutingError) as walked:
            run(spec, "greedy", TrafficPattern.single(0, 1))
        assert str(walked.value) == message
        # a batch never walks it: the list build refuses the step 1 -> 3
        with pytest.raises(RoutingError) as built:
            run(spec, "greedy", TrafficPattern.random_pairs(2, seed=1))
        assert str(built.value) == "greedy step from distance 1 goes to 3, not closer"


RING_ORACLE_NODES = 600


def list_specs():
    """Every MC(s, k) with k >= 2 that walks a next-distance list, and the rings
    up to RING_ORACLE_NODES nodes."""
    limit = greedy_route.NEXT_DISTANCE_NODE_LIMIT
    specs = [make_multiplicative(s, 1) for s in range(3, RING_ORACLE_NODES + 1)]
    for k in range(2, limit.bit_length()):
        s = 2
        while s**k <= limit:
            specs.append(make_multiplicative(s, k))
            s += 1
    return specs


@st.composite
def list_offsets(draw):
    """(s, k, offset) over the MC(s, k) that walk a next-distance list."""
    limit = greedy_route.NEXT_DISTANCE_NODE_LIMIT
    k = draw(st.integers(1, limit.bit_length() - 1))
    top = 2
    while (top + 1) ** k <= limit:
        top += 1
    s = draw(st.integers(3 if k == 1 else 2, top))
    return s, k, draw(st.integers(0, s**k - 1))


class TestNextDistances:
    def test_list_is_the_bisection_rule(self):
        assert greedy_route.NEXT_DISTANCE_NODE_LIMIT >= 65_536  # MC(4,8) walks a list
        specs = list_specs()
        assert len(specs) == 598 + 338
        for spec in specs:
            n, gens, ladder = spec.n, spec.generatrices, greedy_route._ladder(spec)
            nxt = greedy_route._next_distances(n, gens, ladder)
            # offset-indexed: offset off steps from its cyclic distance
            dds = [min(off, n - off) for off in range(n)]
            assert nxt == [abs(dd - gens[bisect_left(ladder, dd)]) for dd in dds]
            # so both walks step alike; they count alike on a spread of offsets
            bisect_walk = greedy_route._hop_counter(spec)
            for dst in range(1, n, max(n // 8, 1)):
                hops = bisect_walk(dst)
                assert greedy_route._hop_tally(spec, [dst]) == {hops: 1}, (spec.label, dst)

    def test_only_a_batch_run_builds_a_list(self):
        # one packet walks at most n // 2 hops, fewer than a build fills
        spec = make_multiplicative(4, 8)
        greedy_route._next_distances.cache_clear()
        hops = sum(map(abs, _digit_hops(4, 8, 43690)[1]))
        assert run(spec, "greedy", TrafficPattern.single(0, 43690)).hop_histogram == {hops: 1}
        assert greedy_route._next_distances.cache_info().currsize == 0
        run(spec, "greedy", TrafficPattern.random_pairs(2, seed=1))
        assert greedy_route._next_distances.cache_info().currsize == 1

    def test_list_follows_a_patched_ladder(self):
        # rungs past n // 2 always pick 1, empty rung segments included: every
        # step shrinks by one, so the list is accepted; offsets past 32 mirror
        assert greedy_route._next_distances(64, (1, 4, 16), (32, 32)) == [
            1, *range(32), *range(30, -1, -1)
        ]

    def test_a_step_that_does_not_shrink_is_refused_and_never_cached(self):
        # the cycling ladder of test_hop_guard_stops_a_cycling_walk: distances
        # 0..4 bisect to 1, 4, 4, 4, 4, so distance 1 steps to 3
        greedy_route._next_distances.cache_clear()
        for _ in range(2):
            with pytest.raises(RoutingError) as built:
                greedy_route._next_distances(8, (1, 2, 4), (0, 0))
            assert str(built.value) == "greedy step from distance 1 goes to 3, not closer"
        assert greedy_route._next_distances.cache_info().currsize == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(6, 80).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, n), min_size=1, max_size=5),
                st.lists(st.integers(-2, n), max_size=4),
            )
        )
    )
    @example((8, [1, 8], [3]))  # only dd = n // 2 = 4 fails: it steps to |4 - 8| = 4
    @example((8, [2], []))  # only dd = 1 fails: it steps to |1 - 2| = 1
    def test_the_build_check_is_the_check_of_every_entry(self, case):
        # the build checks only where a run may start; any ladder, sorted or
        # not, is refused exactly when some entry fails to shrink
        n, gens, ladder = case
        gens, ladder = tuple(gens), tuple(ladder[: len(gens) - 1])
        half = n // 2
        want = []
        for g, top in zip(gens, (*ladder, half)):
            want += [abs(d - g) for d in range(len(want), min(top, half) + 1)]
        want += want[n - half - 1 : 0 : -1]  # offset n - dd steps as distance dd
        if any(want[d] >= d for d in range(1, half + 1)):
            with pytest.raises(RoutingError):
                greedy_route._next_distances(n, gens, ladder)
        else:
            assert greedy_route._next_distances(n, gens, ladder) == want

    def test_a_walk_past_the_bound_is_refused(self, monkeypatch):
        # rungs past n // 2 always pick 1: the list shrinks by one per hop, so
        # distance 7 walks 7 hops, past MC(4,3)'s k * (s // 2) = 6
        spec = make_multiplicative(4, 3)
        monkeypatch.setattr(greedy_route, "_ladder", lambda spec: (32, 32))
        assert greedy_route._hop_tally(spec, [6, 58]) == {6: 2}  # 58 is 6 the other way round
        with pytest.raises(RoutingError) as walked:
            run(spec, "greedy", TrafficPattern.all_pairs())
        assert str(walked.value) == "greedy walk from 0 to 7 exceeded 6 hops"

    def test_only_the_tally_slot_is_relabelled(self, monkeypatch):
        # the patched ladder of the test above: offset 7 is the first walk past
        # the bound, and it is named; an IndexError from the offsets themselves
        # is not a walk past the bound and comes through as it was raised
        spec = make_multiplicative(4, 3)
        monkeypatch.setattr(greedy_route, "_ladder", lambda spec: (32, 32))
        with pytest.raises(RoutingError) as walked:
            greedy_route._hop_tally(spec, [6, 58, 7])
        assert str(walked.value) == "greedy walk from 0 to 7 exceeded 6 hops"

        def offsets():
            yield 6
            raise IndexError("offset stream")

        with pytest.raises(IndexError, match="offset stream"):
            greedy_route._hop_tally(spec, offsets())

    @settings(max_examples=300, deadline=None)
    @given(list_offsets())
    def test_list_walk_is_the_digit_dp_distance(self, case):
        s, k, offset = case
        spec = make_multiplicative(s, k)
        assert spec.n <= greedy_route.NEXT_DISTANCE_NODE_LIMIT
        hops = sum(map(abs, _digit_hops(s, k, offset)[1]))
        assert greedy_route._hop_tally(spec, [offset]) == {hops: 1}


# every ring up to 32 nodes, and those either side of 64, 128 and 256: a
# ring's all-pairs walk is about n**3 / 4 hops, 2.7e8 for every ring to 256
ORACLE_RINGS = (*range(3, 33), 63, 64, 65, 127, 128, 129, 255, ALL_PAIRS_NODE_LIMIT)


def all_pairs_specs():
    """Every MC(s, k) with k >= 2 that the all-pairs guard admits, and ORACLE_RINGS."""
    limit = ALL_PAIRS_NODE_LIMIT
    specs = [make_multiplicative(s, 1) for s in ORACLE_RINGS]
    for k in range(2, limit.bit_length()):
        specs += [make_multiplicative(s, k) for s in range(2, limit) if s**k <= limit]
    return specs


class TestTally:
    def test_all_pairs_tally_is_the_bisecting_walk_and_the_digit_dp(self):
        specs = all_pairs_specs()
        assert len(specs) == 38 + 28
        for spec in specs:
            n, s, k = spec.n, spec.s, spec.k
            tally = greedy_route._hop_tally(spec, TrafficPattern.all_pairs()._offsets(spec))
            # the bisecting walk reads the offset alone, so the per-pair Counter
            # is checked where it is cheap and n times node 0's elsewhere
            bisect_walk = greedy_route._hop_counter(spec)
            if n <= 64 or k > 1:
                walked = Counter(
                    bisect_walk((dst - src) % n)
                    for src, dst in TrafficPattern.all_pairs().pairs(spec)
                )
            else:
                walked = Counter({h: n * c for h, c in Counter(
                    bisect_walk(off) for off in range(1, n)).items()})
            dp = Counter(sum(map(abs, _digit_hops(s, k, off)[1])) for off in range(1, n))
            assert tally == walked == {hops: n * count for hops, count in dp.items()}, spec.label

    # sim-greedy's random batches: MC(4,6) x 2000, MC(2,12) x 2000 and MC(4,8) x 1600
    @pytest.mark.parametrize("sk, count", [((4, 6), 2000), ((2, 12), 2000), ((4, 8), 1600)])
    @pytest.mark.parametrize("seed", [1000, 1003, 9000, 9011])
    def test_random_batch_tally_is_the_bisecting_walk(self, sk, count, seed):
        spec = make_multiplicative(*sk)
        traffic = TrafficPattern.random_pairs(count, seed=seed)
        tally = greedy_route._hop_tally(spec, traffic._offsets(spec))
        bisect_walk = greedy_route._hop_counter(spec)
        walked = Counter(bisect_walk((dst - src) % spec.n) for src, dst in traffic.pairs(spec))
        assert tally == walked
        assert sum(tally.values()) == count


class TestHopGuard:
    ring = make_multiplicative(MAX_NODES, 1)  # n = 2**31 - 1: walks up to 2**30 - 1 hops

    def test_long_walks_are_refused_before_a_hop(self):
        limit = greedy_route.GREEDY_HOP_LIMIT
        above = f"has {limit + 1} hops, above the {limit} hop guard"
        with pytest.raises(GuardLimitError) as walked:
            greedy_path(self.ring, 5, limit + 6)
        assert str(walked.value) == f"greedy walk from 5 to {limit + 6} {above}"
        with pytest.raises(GuardLimitError) as counted:
            greedy_route._hop_counter(self.ring)(limit + 1)
        assert str(counted.value) == f"greedy walk from 0 to {limit + 1} {above}"
        with pytest.raises(GuardLimitError):
            run(self.ring, "greedy", TrafficPattern.single(0, 2**30 - 1))

    def test_short_walks_on_the_same_ring_route(self):
        n = self.ring.n
        assert greedy_path(self.ring, 0, 1) == [0, 1]
        assert greedy_path(self.ring, 1, n - 2) == [1, 0, n - 1, n - 2]
        assert greedy_route._hop_counter(self.ring)(2) == 2  # n - 1 to 1
        assert run(self.ring, "greedy", TrafficPattern.single(0, 7)).hop_histogram == {7: 1}

    def test_only_rings_can_pass_the_limit(self):
        # k * (s // 2) bounds every walk on MC(s, k), so within MAX_NODES no
        # spec with k >= 2 needs the guard
        for k in range(2, MAX_NODES.bit_length()):
            s = int(MAX_NODES ** (1 / k)) + 1
            while s**k > MAX_NODES:
                s -= 1
            assert k * (s // 2) <= 46_340 < greedy_route.GREEDY_HOP_LIMIT

    def test_a_walk_at_the_limit_is_taken(self):
        limit = greedy_route.GREEDY_HOP_LIMIT
        hops_of = greedy_route._hop_counter(make_multiplicative(2 * limit + 3, 1))
        assert hops_of(limit) == limit
        with pytest.raises(GuardLimitError):
            hops_of(limit + 1)


def searched_stretch_report(spec):
    """The stretch report rebuilt pair by pair from greedy walks and node-0 search distances."""
    n = spec.n
    dist = bfs_distances(spec, 0).tolist()
    total = worst = 0.0
    for off in range(1, n):  # offset order, as the report sums its average
        ratio = (len(greedy_path(spec, 0, off)) - 1) / dist[off]
        total += ratio
        worst = max(worst, ratio)
    stretched = []
    for src in range(n):
        for dst in range(n):
            hops, best = len(greedy_path(spec, src, dst)) - 1, dist[(dst - src) % n]
            if hops > best:
                stretched.append((src, dst, hops, best))
    stretched.sort(key=lambda t: (-t[2] / t[3], t[0], t[1]))
    return StretchReport(spec.label, n * (n - 1), worst, total / (n - 1), stretched)


class TestStretch:
    @pytest.mark.parametrize("walk", ["greedy", "lower"])
    @pytest.mark.parametrize(
        "sk", [(2, 4), (3, 3), (4, 3), (5, 3), (2, 7), (3, 5), (6, 3), (10, 1)]
    )
    def test_report_equals_the_searched_report(self, monkeypatch, sk, walk):
        spec = make_multiplicative(*sk)
        if walk == "lower":
            # rung j at g_(j+1): a distance equal to a generatrix takes the one
            # below, so walks on k >= 2 are longer than shortest
            monkeypatch.setattr(greedy_route, "_ladder", lambda spec: spec.generatrices[1:])
        report = stretch_report(spec)
        assert report == searched_stretch_report(spec)
        assert bool(report.worst_pairs) == (walk == "lower" and spec.k > 1)

    @pytest.mark.parametrize("sk", [(2, 4), (3, 3), (4, 3)])
    def test_greedy_is_shortest_on_reference_specs(self, sk):
        report = stretch_report(make_multiplicative(*sk))
        assert report.max_stretch == 1.0
        assert report.avg_stretch == 1.0
        assert report.worst_pairs == []
        assert report.pairs == (sk[0] ** sk[1]) * (sk[0] ** sk[1] - 1)

    def test_hop_counts_match_bfs(self):
        spec = make_multiplicative(3, 4)
        for src in (0, 17, 80):
            dist = bfs_distances(spec, src)
            for dst in range(spec.n):
                if dst != src:
                    assert len(greedy_path(spec, src, dst)) - 1 == int(dist[dst])

    @settings(max_examples=300, deadline=None)
    @given(ladder_offsets())
    def test_greedy_hops_equal_the_digit_dp_distance(self, case):
        # a third distance oracle, exact at any size: the least sum |c_j| over
        # hop vectors with sum c_j * s**j = dst - src (mod s**k)
        s, k, src, dst = case
        spec = make_multiplicative(s, k)
        hops = _digit_hops(s, k, (dst - src) % spec.n)[1]
        assert len(greedy_path(spec, src, dst)) - 1 == sum(abs(c) for c in hops)

    def test_size_guard(self):
        with pytest.raises(GuardLimitError):
            stretch_report(make_multiplicative(2, 14))  # 16384 nodes, refused before any walk
        with pytest.raises(GuardLimitError):
            stretch_report(make_multiplicative(10, 5))
