"""Circulant graph construction and the port model used by the routers.

A circulant C(n; g_1..g_k) has nodes 0..n-1 and edges v <-> (v +- g_j) mod n.
The multiplicative family MC(s, k) is the special case n = s**k with
generatrices (s**0, s**1, ..., s**(k-1)); it is the topology the routing
schemes in this package are specialised for.

Every node exposes the same set of ports.  Ports are numbered 1..port_count
with generatrices taken from largest to smallest and, within a generatrix,
the minus direction before the plus direction.  A generatrix g with
2*g == n reaches the same neighbour in both directions and therefore gets a
single port (recorded with sign +1).  Code 0 is reserved: it never names a
port and acts as the terminator inside source-routed path fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import GuardLimitError

# Refuse to build node sets that no longer fit comfortably in signed 32-bit
# arithmetic; everything downstream assumes plain int node ids.
MAX_NODES = 2**31 - 1

PortCode = int


class HopAction(NamedTuple):
    """One traversal step: which generatrix to take and in which direction."""

    gen_index: int
    sign: int  # +1 or -1


@dataclass(frozen=True)
class CirculantSpec:
    """An immutable description of one circulant instance.

    ``s`` is the multiplicative base, or None for a circulant whose
    generatrices do not form a power ladder.  ``k`` always equals
    ``len(generatrices)``.
    """

    s: int | None
    k: int
    n: int
    generatrices: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got n={self.n}")
        gens = tuple(self.generatrices)
        object.__setattr__(self, "generatrices", gens)
        if not gens:
            raise ValueError("at least one generatrix is required")
        if self.k != len(gens):
            raise ValueError(f"k={self.k} does not match {len(gens)} generatrices")
        prev = 0
        for g in gens:
            if not isinstance(g, int):
                raise ValueError(f"generatrix {g!r} is not an integer")
            if g < 1 or g > self.n // 2:
                raise ValueError(f"generatrix {g} outside 1..{self.n // 2} for n={self.n}")
            if g <= prev:
                raise ValueError("generatrices must be strictly increasing")
            prev = g
        if math.gcd(self.n, *gens) != 1:
            raise ValueError(f"C({self.n}; {list(gens)}) is disconnected")
        if self.s is not None:
            if self.s < 2:
                raise ValueError(f"multiplicative base must be >= 2, got {self.s}")
            if self.n != self.s**self.k:
                raise ValueError(f"n={self.n} is not {self.s}**{self.k}")
            if gens != tuple(self.s**j for j in range(self.k)):
                raise ValueError("generatrices do not form the power ladder of s")
        # Every route cache is keyed on the spec, so hash once.  Equal specs
        # share n and generatrices; leaving out s (maybe None, whose hash
        # varies per process) keeps a pickled hash valid in another process.
        object.__setattr__(self, "_hash", hash((self.n, gens)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_multiplicative(self) -> bool:
        return self.s is not None

    @property
    def label(self) -> str:
        if self.s is not None:
            return f"MC({self.s},{self.k})"
        return f"C({self.n};{','.join(str(g) for g in self.generatrices)})"


def make_multiplicative(s: int, k: int) -> CirculantSpec:
    """Build MC(s, k): n = s**k nodes with generatrices s**0 .. s**(k-1)."""
    if s < 2:
        raise ValueError(f"base s must be >= 2, got {s}")
    if k < 1:
        raise ValueError(f"dimension k must be >= 1, got {k}")
    n = s**k
    if n > MAX_NODES:
        raise GuardLimitError(f"MC({s},{k}) has {n} nodes, above the {MAX_NODES} guard")
    return CirculantSpec(s=s, k=k, n=n, generatrices=tuple(s**j for j in range(k)))


def make_circulant(n: int, generatrices: list[int] | tuple[int, ...]) -> CirculantSpec:
    """Build a general circulant, recognising the multiplicative pattern.

    If the generatrices happen to be (s**0, ..., s**(k-1)) with n == s**k the
    returned spec carries the base so the specialised router accepts it.
    """
    gens = tuple(generatrices)
    s = _infer_base(n, gens)
    return CirculantSpec(s=s, k=len(gens), n=n, generatrices=gens)


def _infer_base(n: int, gens: tuple[int, ...]) -> int | None:
    if not gens or gens[0] != 1:
        return None
    if len(gens) == 1:
        return n  # the ring C(n; 1) is MC(n, 1)
    s = gens[1]
    if s < 2 or n != s ** len(gens):
        return None
    if gens != tuple(s**j for j in range(len(gens))):
        return None
    return s


class PortTable:
    """Bidirectional map between port codes (1-based) and hop actions."""

    def __init__(self, spec: CirculantSpec):
        actions: list[HopAction] = []
        for j in range(spec.k - 1, -1, -1):
            if 2 * spec.generatrices[j] == spec.n:
                # diametral generatrix: both directions land on the same node
                actions.append(HopAction(j, +1))
            else:
                actions.append(HopAction(j, -1))
                actions.append(HopAction(j, +1))
        self._actions = tuple(actions)
        self._code_of = {action: code for code, action in enumerate(actions, start=1)}

    def __len__(self) -> int:
        return len(self._actions)

    @property
    def actions(self) -> tuple[HopAction, ...]:
        """All actions in ascending port-code order (code = index + 1)."""
        return self._actions

    def action(self, code: PortCode) -> HopAction:
        if not 1 <= code <= len(self._actions):
            raise ValueError(f"port code {code} outside 1..{len(self._actions)}")
        return self._actions[code - 1]

    def code(self, action: HopAction) -> PortCode:
        try:
            return self._code_of[action]
        except KeyError:
            raise ValueError(f"{action} is not a port of this topology") from None


@lru_cache(maxsize=256)
def port_table(spec: CirculantSpec) -> PortTable:
    return PortTable(spec)


def port_count(spec: CirculantSpec) -> int:
    """Number of ports per node: 2k, minus one if a generatrix is diametral."""
    return len(port_table(spec))


def apply_action(spec: CirculantSpec, v: int, action: HopAction) -> int:
    """Node reached from v by one hop along the given action."""
    return (v + action.sign * spec.generatrices[action.gen_index]) % spec.n


def neighbor_offsets(spec: CirculantSpec) -> tuple[int, ...]:
    """Hop offsets mod n, one per port, in ascending port-code order."""
    n = spec.n
    return tuple(
        (a.sign * spec.generatrices[a.gen_index]) % n for a in port_table(spec).actions
    )


def neighbors(spec: CirculantSpec, v: int) -> list[tuple[int, HopAction]]:
    """(neighbour, action) pairs of node v in ascending port-code order."""
    if not 0 <= v < spec.n:
        raise ValueError(f"node {v} outside 0..{spec.n - 1}")
    return [(apply_action(spec, v, a), a) for a in port_table(spec).actions]


def topology_document(spec: CirculantSpec) -> dict:
    """JSON-ready description of the instance and its port numbering."""
    return {
        "s": spec.s,
        "k": spec.k,
        "n": spec.n,
        "generatrices": list(spec.generatrices),
        "ports": [
            {"code": code, "gen": spec.generatrices[a.gen_index], "sign": a.sign}
            for code, a in enumerate(port_table(spec).actions, start=1)
        ],
    }
