import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_circulant
from mcnoc import (
    GuardLimitError,
    analytic_avg_mc2,
    analytic_diameter_mc2,
    average_distance,
    bfs_distances,
    ceil_log2,
    compare_row,
    diameter,
    make_circulant,
    make_multiplicative,
    memory_bits,
    mesh_avg,
    mesh_diameter,
    metrics_csv_row,
)
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
