import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_circulant
from mcnoc import (
    CirculantSpec,
    GuardLimitError,
    HopAction,
    apply_action,
    build_packet,
    make_circulant,
    make_multiplicative,
    neighbor_offsets,
    neighbors,
    port_count,
    port_table,
    topology_document,
)
from mcnoc.static_route import _offset_packet

small_specs = st.tuples(st.integers(2, 6), st.integers(1, 5)).filter(
    lambda sk: 3 <= sk[0] ** sk[1] <= 2000
)


def spec_from(sk):
    return make_multiplicative(*sk)


class TestConstruction:
    def test_multiplicative_basics(self):
        spec = make_multiplicative(4, 3)
        assert spec.n == 64
        assert spec.generatrices == (1, 4, 16)
        assert spec.k == 3
        assert spec.is_multiplicative
        assert spec.label == "MC(4,3)"

    def test_general_circulant_label(self):
        spec = make_circulant(12, [1, 3])
        assert spec.s is None
        assert not spec.is_multiplicative
        assert spec.label == "C(12;1,3)"

    @pytest.mark.parametrize(
        "n, gens, base",
        [
            (16, (1, 2, 4, 8), 2),
            (64, (1, 4, 16), 4),
            (7, (1,), 7),  # a ring is the k = 1 multiplicative case
            (12, (1, 3), None),  # 12 != 3**2
            (12, (3, 4), None),
            (27, (1, 3, 9), 3),
        ],
    )
    def test_base_inference(self, n, gens, base):
        assert make_circulant(n, gens).s == base

    def test_make_circulant_matches_make_multiplicative(self):
        assert make_circulant(81, [1, 3, 9, 27]) == make_multiplicative(3, 4)

    @pytest.mark.parametrize(
        "n, gens",
        [
            (2, [1]),  # too few nodes
            (10, [0, 1]),  # generatrix below 1
            (10, [1, 6]),  # above n // 2
            (10, [3, 2]),  # not increasing
            (10, [2, 2]),  # duplicate
            (10, [2, 4]),  # gcd 2: disconnected
        ],
    )
    def test_rejects_bad_circulants(self, n, gens):
        with pytest.raises(ValueError):
            make_circulant(n, gens)

    def test_rejects_bad_bases(self):
        with pytest.raises(ValueError):
            make_multiplicative(1, 4)
        with pytest.raises(ValueError):
            make_multiplicative(2, 0)

    def test_rejects_inconsistent_spec_fields(self):
        with pytest.raises(ValueError):
            CirculantSpec(s=None, k=3, n=16, generatrices=(1, 2, 4, 8))
        with pytest.raises(ValueError):
            CirculantSpec(s=2, k=3, n=9, generatrices=(1, 2, 4))
        with pytest.raises(ValueError):
            CirculantSpec(s=3, k=2, n=9, generatrices=(1, 4))

    def test_node_count_guard(self):
        with pytest.raises(GuardLimitError):
            make_multiplicative(2, 40)


class TestPorts:
    def test_port_table_mc43(self):
        # largest generatrix first, minus before plus
        spec = make_multiplicative(4, 3)
        table = port_table(spec)
        offsets = [a.sign * spec.generatrices[a.gen_index] for a in table.actions]
        assert offsets == [-16, 16, -4, 4, -1, 1]
        assert table.code(HopAction(gen_index=2, sign=1)) == 2
        assert table.action(5) == HopAction(gen_index=0, sign=-1)

    def test_port_table_mc24_diametral_collapse(self):
        # 2 * 8 == 16, so generatrix 8 owns a single port with sign +1
        spec = make_multiplicative(2, 4)
        offsets = [
            a.sign * spec.generatrices[a.gen_index] for a in port_table(spec).actions
        ]
        assert offsets == [8, -4, 4, -2, 2, -1, 1]
        assert port_count(spec) == 7

    @pytest.mark.parametrize(
        "s, k, count",
        [(2, 4, 7), (2, 6, 11), (4, 3, 6), (3, 4, 8), (3, 1, 2), (6, 2, 4)],
    )
    def test_port_count(self, s, k, count):
        assert port_count(make_multiplicative(s, k)) == count

    def test_port_table_built_once_per_spec(self):
        assert port_table(make_multiplicative(4, 3)) is port_table(make_multiplicative(4, 3))
        assert port_table(make_multiplicative(4, 3)) is not port_table(make_multiplicative(2, 6))

    def test_code_zero_and_out_of_range_are_not_ports(self):
        table = port_table(make_multiplicative(4, 3))
        for bad in (0, 7, -1):
            with pytest.raises(ValueError):
                table.action(bad)

    def test_neighbors_in_port_order(self):
        spec = make_multiplicative(2, 4)
        assert [v for v, _ in neighbors(spec, 0)] == [8, 12, 4, 14, 2, 15, 1]

    def test_neighbors_rejects_bad_node(self):
        with pytest.raises(ValueError):
            neighbors(make_multiplicative(2, 4), 16)

    @settings(max_examples=40, deadline=None)
    @given(small_specs)
    def test_offsets_distinct_and_match_port_count(self, sk):
        spec = spec_from(sk)
        offs = neighbor_offsets(spec)
        assert len(offs) == port_count(spec) == len(set(offs))

    @settings(max_examples=40, deadline=None)
    @given(small_specs, st.integers(0, 10**6))
    def test_adjacency_is_symmetric(self, sk, raw):
        spec = spec_from(sk)
        v = raw % spec.n
        for u, _ in neighbors(spec, v):
            assert v in [w for w, _ in neighbors(spec, u)]

    @settings(max_examples=40, deadline=None)
    @given(small_specs, st.integers(0, 10**6))
    def test_apply_action_matches_neighbors(self, sk, raw):
        spec = spec_from(sk)
        v = raw % spec.n
        for u, action in neighbors(spec, v):
            assert apply_action(spec, v, action) == u


class TestAgainstNetworkx:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_multiplicative(2, 4),
            lambda: make_multiplicative(4, 3),
            lambda: make_multiplicative(3, 4),
            lambda: make_circulant(12, [1, 3]),
            lambda: make_circulant(20, [2, 5]),
        ],
    )
    def test_adjacency_matches(self, build):
        spec = build()
        graph = nx_circulant(spec)
        for v in range(spec.n):
            assert {u for u, _ in neighbors(spec, v)} == set(graph.neighbors(v))

    def test_degree_equals_port_count(self):
        for spec in (make_multiplicative(2, 4), make_multiplicative(5, 2)):
            graph = nx_circulant(spec)
            assert all(graph.degree(v) == port_count(spec) for v in range(spec.n))


class TestDocument:
    def test_document_shape(self):
        doc = topology_document(make_multiplicative(4, 3))
        assert doc["s"] == 4 and doc["k"] == 3 and doc["n"] == 64
        assert doc["generatrices"] == [1, 4, 16]
        assert doc["ports"] == [
            {"code": 1, "gen": 16, "sign": -1},
            {"code": 2, "gen": 16, "sign": 1},
            {"code": 3, "gen": 4, "sign": -1},
            {"code": 4, "gen": 4, "sign": 1},
            {"code": 5, "gen": 1, "sign": -1},
            {"code": 6, "gen": 1, "sign": 1},
        ]

    def test_document_is_json_ready(self):
        doc = topology_document(make_circulant(12, [1, 3]))
        parsed = json.loads(json.dumps(doc))
        assert parsed["s"] is None
        assert len(parsed["ports"]) == port_count(make_circulant(12, [1, 3]))

    @settings(max_examples=30, deadline=None)
    @given(small_specs)
    def test_document_codes_are_dense(self, sk):
        doc = topology_document(spec_from(sk))
        assert [p["code"] for p in doc["ports"]] == list(range(1, len(doc["ports"]) + 1))
        assert math.gcd(doc["n"], *doc["generatrices"]) == 1


class TestStoredHash:
    def test_equal_specs_share_hash_and_cache_entry(self):
        a, b = make_multiplicative(4, 2), make_circulant(16, [1, 4])
        assert a is not b and a == b and hash(a) == hash(b)
        _offset_packet.cache_clear()
        assert build_packet(a, 0, 5) == build_packet(b, 0, 5)
        info = _offset_packet.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize(
        "spec", [make_multiplicative(4, 2), make_circulant(12, [1, 3])], ids=lambda s: s.label
    )
    def test_hash_survives_copies(self, spec):
        equal = make_circulant(spec.n, list(spec.generatrices))
        for other in (
            pickle.loads(pickle.dumps(spec)),
            copy.copy(spec),
            copy.deepcopy(spec),
            dataclasses.replace(spec),
        ):
            assert other == equal and hash(other) == hash(equal)

    def test_hash_survives_pickle_from_another_process(self):
        # s=None: a hash that folded in hash(None) would differ between processes
        code = (
            "import pickle, sys; from mcnoc import make_circulant; "
            "sys.stdout.buffer.write(pickle.dumps(make_circulant(12, [1, 3])))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=20, check=True
        )
        spec = make_circulant(12, [1, 3])
        assert hash(pickle.loads(proc.stdout)) == hash(spec)
        assert {spec: 1}[pickle.loads(proc.stdout)] == 1

    def test_fields_repr_and_equality_are_unchanged(self):
        spec = make_multiplicative(4, 2)
        assert [f.name for f in dataclasses.fields(spec)] == ["s", "k", "n", "generatrices"]
        assert repr(spec) == "CirculantSpec(s=4, k=2, n=16, generatrices=(1, 4))"
        assert dataclasses.asdict(spec) == {"s": 4, "k": 2, "n": 16, "generatrices": (1, 4)}
        assert spec != dataclasses.replace(spec, s=None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n = 17
