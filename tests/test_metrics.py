import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_circulant
from mcnoc import (
    GuardLimitError,
    TrafficPattern,
    analytic_avg_mc2,
    analytic_diameter_mc2,
    average_distance,
    bfs_distances,
    build_packet,
    ceil_log2,
    compare_row,
    diameter,
    make_circulant,
    make_multiplicative,
    memory_bits,
    mesh_avg,
    mesh_diameter,
    metrics_csv_row,
    run,
)
from mcnoc import metrics
from mcnoc.metrics import BFS_NODE_LIMIT, METRICS_CSV_HEADER

# brute-force distance values, cross-checked against networkx below
DIAMETERS = {
    (2, 4): 2,
    (2, 5): 3,
    (2, 6): 3,
    (3, 3): 3,
    (3, 4): 4,
    (3, 5): 5,
    (3, 6): 6,
    (4, 3): 5,
    (5, 3): 6,
    (5, 4): 8,
    (6, 3): 8,
    (6, 4): 10,
    (7, 4): 12,
}

AVERAGES = {
    (2, 4): 23 / 15,
    (2, 5): 57 / 31,
    (2, 6): 15 / 7,
    (3, 3): 27 / 13,
    (3, 4): 27 / 10,
    (4, 3): 178 / 63,
    (5, 3): 225 / 62,
    (3, 5): 405 / 121,
    (6, 3): 939 / 215,
}


def test_ceil_log2():
    expected = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 1024: 10}
    for x, b in expected.items():
        assert ceil_log2(x) == b
    with pytest.raises(ValueError):
        ceil_log2(0)


class TestBruteForce:
    @pytest.mark.parametrize("sk, d", sorted(DIAMETERS.items()))
    def test_diameter(self, sk, d):
        assert diameter(make_multiplicative(*sk)) == d

    @pytest.mark.parametrize("sk, avg", sorted(AVERAGES.items()))
    def test_average_distance(self, sk, avg):
        assert average_distance(make_multiplicative(*sk)) == pytest.approx(avg, abs=1e-12)

    def test_bfs_rejects_bad_source(self):
        with pytest.raises(ValueError):
            bfs_distances(make_multiplicative(2, 4), 16)

    def test_bfs_guard(self):
        big = make_multiplicative(2, 21)
        assert big.n > BFS_NODE_LIMIT
        for measure in (diameter, average_distance, compare_row):
            with pytest.raises(GuardLimitError):
                measure(big)
        with pytest.raises(GuardLimitError):
            bfs_distances(big, 0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_multiplicative(3, 3),
            lambda: make_multiplicative(4, 3),
            lambda: make_circulant(12, [1, 3]),
            lambda: make_circulant(30, [2, 3, 7]),
        ],
    )
    def test_matches_networkx(self, build):
        spec = build()
        graph = nx_circulant(spec)
        assert diameter(spec) == nx.diameter(graph)
        assert average_distance(spec) == pytest.approx(
            nx.average_shortest_path_length(graph), abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(2, 5), st.integers(1, 4)).filter(lambda sk: sk[0] ** sk[1] >= 3))
    def test_single_source_equals_all_pairs(self, sk):
        # vertex transitivity makes the node-0 profile network-wide
        spec = make_multiplicative(*sk)
        assert diameter(spec) == diameter(spec, all_pairs=True)
        assert average_distance(spec) == pytest.approx(
            average_distance(spec, all_pairs=True), abs=1e-12
        )

    def test_diameter_is_stored_with_the_tree(self, monkeypatch):
        spec = make_multiplicative(4, 3)
        assert diameter(spec) == 5

        def no_scan(*args):
            raise AssertionError("diameter scanned the distances again")

        # later reads, including both default capacities, use the stored value
        monkeypatch.setattr(metrics, "max", no_scan, raising=False)
        assert diameter(spec) == 5
        assert build_packet(spec, 5, 17).hop_capacity == 5
        assert run(spec, "source_routed", TrafficPattern.single(5, 17)).max_hops == 2
        monkeypatch.undo()
        roots = []
        search = metrics._bfs
        monkeypatch.setattr(metrics, "_bfs", lambda spec, src: roots.append(src) or search(spec, src))
        assert diameter(spec, all_pairs=True) == 5
        assert roots == list(range(spec.n))

    def test_profiles_identical_from_every_source(self):
        spec = make_multiplicative(3, 3)
        base = sorted(bfs_distances(spec, 0).tolist())
        for src in range(1, spec.n):
            assert sorted(bfs_distances(spec, src).tolist()) == base


class TestClosedForms:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_diameter_closed_form(self, k):
        assert analytic_diameter_mc2(k) == (k + 1) // 2
        if k >= 2:  # n = 2**1 is below the minimum size
            assert analytic_diameter_mc2(k) == diameter(make_multiplicative(2, k))

    def test_avg_estimate_value(self):
        assert analytic_avg_mc2(6) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            analytic_avg_mc2(1)

    @pytest.mark.parametrize("k", range(6, 13))
    def test_avg_estimate_tracks_brute_force(self, k):
        # k/3 is an estimate: close, converging, but not exact
        brute = average_distance(make_multiplicative(2, k))
        assert abs(analytic_avg_mc2(k) - brute) / brute < 0.07
        assert analytic_avg_mc2(k) != pytest.approx(brute, abs=1e-6)


class TestMeshReference:
    @pytest.mark.parametrize(
        "n, d, avg",
        [
            (16, "6.00", "2.50"),
            (64, "14.00", "5.25"),
            (81, "16.00", "5.93"),
            (625, "48.00", "16.64"),
            (729, "52.00", "17.98"),
            (1296, "70.00", "23.98"),
            (2401, "96.00", "32.65"),
        ],
    )
    def test_formulas_at_reference_sizes(self, n, d, avg):
        assert f"{mesh_diameter(n):.2f}" == d
        assert f"{mesh_avg(n):.2f}" == avg

    def test_degenerate_sizes(self):
        assert mesh_diameter(1) == 0.0
        assert mesh_avg(1) == 0.0
        with pytest.raises(ValueError):
            mesh_diameter(0)


class TestRows:
    def test_compare_row_mc24(self):
        row = compare_row(make_multiplicative(2, 4))
        assert row.label == "MC(2,4)"
        assert row.diameter == 2
        assert row.analytic_diameter == 2
        assert row.analytic_avg == pytest.approx(4 / 3)
        assert metrics_csv_row(row) == '"MC(2,4)",16,2,1.53,6.00,2.50'

    def test_compare_row_without_closed_forms(self):
        row = compare_row(make_multiplicative(4, 3))
        assert row.analytic_diameter is None and row.analytic_avg is None
        assert metrics_csv_row(row) == '"MC(4,3)",64,5,2.83,14.00,5.25'

    def test_csv_header_column_order(self):
        assert METRICS_CSV_HEADER.split(",") == [
            "spec",
            "n",
            "d_circ",
            "l_av_circ",
            "d_mesh",
            "l_av_mesh",
        ]

    def test_csv_row_reparses_despite_comma_in_label(self):
        import csv

        row = compare_row(make_multiplicative(2, 6))
        fields = next(csv.reader([metrics_csv_row(row)]))
        assert fields == ["MC(2,6)", "64", "3", "2.14", "14.00", "5.25"]


class TestMemory:
    def test_reference_budgets(self):
        est = memory_bits(make_multiplicative(2, 4))
        assert (est.per_node_bits, est.total_bits, est.address_bits) == (32, 512, 4)
        est = memory_bits(make_multiplicative(3, 2))
        assert (est.per_node_bits, est.total_bits, est.address_bits) == (19, 171, 4)

    def test_address_width_covers_every_node(self):
        for s in range(2, 11):
            for k in range(1, 7):
                if s**k < 3:
                    continue
                est = memory_bits(make_multiplicative(s, k))
                assert est.address_bits == ceil_log2(s**k)
                assert 2**est.address_bits >= s**k
                assert est.total_bits == s**k * est.per_node_bits

    def test_rejects_general_circulants(self):
        with pytest.raises(ValueError):
            memory_bits(make_circulant(12, [1, 3]))


# The full digit DP as it was before the route tables split it: the oracle
# for every split of the tables below.


def _old_carries(s, r, cost):
    in0, in1 = cost
    return min(in0 + r, in1 + r + 1), min(in0 + s - r, in1 + s - r - 1)


def _old_top(s, v):
    c = v % s
    return c - s if 2 * c >= s else c


def _old_digit_hops(s, k, x):
    digits = []
    for _ in range(k):
        x, r = divmod(x, s)
        digits.append(r)
    costs = [(0, math.inf)]
    for r in digits[:-1]:
        costs.append(_old_carries(s, r, costs[-1]))
    in0, in1 = costs[-1]
    a, b = _old_top(s, digits[-1]), _old_top(s, digits[-1] + 1)
    ta, tb = in0 + abs(a), in1 + abs(b)
    carry = 1 if tb < ta or (tb == ta and (b < 0, abs(b)) > (a < 0, abs(a))) else 0
    hops = [b if carry else a]
    for j in range(k - 2, -1, -1):
        r = digits[j]
        t = 1 - carry
        c = r + t - s * carry
        if costs[j][t] + abs(c) != costs[j + 1][carry]:
            t = carry
            c = r + t - s * carry
        hops.append(c)
        carry = t
    return hops


def split_specs(k):
    """MC(s, k) with n <= 70 000: every s for k >= 3, and s <= 32 for k = 2 (115 specs)."""
    return [(s, k) for s in range(2, 33 if k == 2 else 42) if s**k <= 70_000]


@pytest.mark.parametrize("k", range(2, 17))
def test_split_tables_route_as_the_full_dp_at_every_split(k, monkeypatch):
    # every offset, every split 1 <= m < k: the runs _route reads from the
    # tables split at m are the old DP's hop vector as runs, largest
    # generatrix first, minus first
    for s, k in split_specs(k):
        spec = make_multiplicative(s, k)
        n = spec.n
        code = metrics.neighbor_offsets(spec).index
        ports = [(code(n - g) + 1, code(g) + 1) for g in reversed(spec.generatrices)]
        want = [
            tuple((port[c > 0], abs(c)) for port, c in zip(ports, _old_digit_hops(s, k, x)) if c)
            for x in range(n)
        ]
        for m in range(1, k):
            tables = [None] * s**m, [None] * s ** (k - m), ports[-m:], ports[:-m]
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_halves", lambda spec: tables)
                got = [metrics._route(spec, x) for x in range(n)]
            assert got == want, (s, k, m)


def test_split_specs_are_the_115():
    assert sum(len(split_specs(k)) for k in range(2, 17)) == 115


def test_routes_read_the_tables_split_at_half_the_digits():
    for s, k in [(2, 2), (3, 5), (4, 8), (2, 17)]:
        spec = make_multiplicative(s, k)
        metrics._halves.cache_clear()
        x = spec.n // 3
        metrics._route(spec, x)
        assert metrics._halves.cache_info().currsize == 1
        low, high, low_ports, high_ports = metrics._halves(spec)
        assert metrics._halves.cache_info().hits == 1
        m = k // 2
        assert (len(low), len(high)) == (s**m, s ** (k - m))
        assert (len(low_ports), len(high_ports)) == (m, k - m)
        # one low entry, and the high entries of H and H + 1
        h, r = divmod(x, s**m)
        assert [i for i, entry in enumerate(low) if entry] == [r]
        assert [i for i, entry in enumerate(high) if entry] == sorted([h, (h + 1) % len(high)])


def test_the_route_tables_run_the_node_guard_once_per_spec(monkeypatch):
    # a warm route skips the guard; a refused spec is never cached and raises every time
    checked = []
    check = metrics._check_size
    monkeypatch.setattr(metrics, "_check_size", lambda spec: checked.append(spec) or check(spec))
    metrics._halves.cache_clear()
    spec, big = make_multiplicative(4, 4), make_multiplicative(2, 21)
    for x in range(spec.n):
        metrics._route(spec, x)
    assert checked == [spec]
    for _ in range(2):
        with pytest.raises(GuardLimitError, match="BFS guard$"):
            metrics._route(big, 1)
    assert checked == [spec, big, big]
    assert metrics._halves.cache_info().currsize == 1
    metrics._halves.cache_clear()


@pytest.mark.parametrize("sk", [(3, 5), (2, 16), (101, 3)])
def test_each_high_entry_costs_one_dp_and_each_low_entry_two(sk, monkeypatch):
    # the high table is read at H and H + 1, so a high entry is its own DP
    spec = make_multiplicative(*sk)
    s, k = sk
    fill = s ** (k - k // 2) + 2 * s ** (k // 2)
    calls = []
    dp = metrics._digit_hops
    monkeypatch.setattr(metrics, "_digit_hops", lambda *args: calls.append(args) or dp(*args))
    metrics._halves.cache_clear()
    tables = metrics._halves(spec)
    for high in range(len(tables[1])):
        metrics._half(spec, tables, True, high)
    for low in range(len(tables[0])):
        metrics._half(spec, tables, False, low)
    assert len(calls) == fill
    if spec.n <= 2**16:  # every route reads the filled entries and runs no DP
        for x in range(spec.n):
            metrics._route(spec, x)
        assert len(calls) == fill
    metrics._halves.cache_clear()
