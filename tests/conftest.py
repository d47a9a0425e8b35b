"""Shared helpers: an independent graph model built with networkx, and an
encoder-call counter.

The library never imports networkx; tests use it as a second opinion on
adjacency, distances, and shortest-path lengths.
"""

from collections import Counter

import networkx as nx
import pytest

from mcnoc import CirculantSpec, metrics, static_route


def nx_circulant(spec: CirculantSpec) -> nx.Graph:
    return nx.circulant_graph(spec.n, list(spec.generatrices))


@pytest.fixture
def encodes(monkeypatch):
    """Offsets whose runs ``static_route`` asks the route core for, counted,
    starting from no cached field list or port record: one per field packed
    and one per ``shortest_path``."""
    static_route._routes.cache_clear()
    static_route._field_list.cache_clear()
    metrics._ports.cache_clear()
    calls = Counter()
    route = static_route._route

    def counted(spec, offset):
        calls[offset] += 1
        return route(spec, offset)

    monkeypatch.setattr(static_route, "_route", counted)
    return calls
