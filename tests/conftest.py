"""Shared helpers: an independent graph model built with networkx, and an
encoder-call counter.

The library never imports networkx; tests use it as a second opinion on
adjacency, distances, and shortest-path lengths.
"""

from collections import Counter

import networkx as nx
import pytest

from mcnoc import CirculantSpec, static_route


def nx_circulant(spec: CirculantSpec) -> nx.Graph:
    return nx.circulant_graph(spec.n, list(spec.generatrices))


@pytest.fixture
def encodes(monkeypatch):
    """Offsets the path-field encoder is asked for, counted, starting from no memo."""
    static_route._routes.cache_clear()
    calls = Counter()
    encode = static_route._offset_packet

    def counted(spec, offset):
        calls[offset] += 1
        return encode(spec, offset)

    monkeypatch.setattr(static_route, "_offset_packet", counted)
    return calls
