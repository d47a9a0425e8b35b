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
from functools import cached_property, lru_cache
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
        _at_least("n", self.n, 3)
        if self.n > MAX_NODES:
            raise GuardLimitError(f"n={_int_text(self.n)} is above the {MAX_NODES} node guard")
        gens = tuple(self.generatrices)
        object.__setattr__(self, "generatrices", gens)
        if not gens:
            raise ValueError("at least one generatrix is required")
        if self.k != len(gens):
            raise ValueError(f"k={self.k} does not match {len(gens)} generatrices")
        prev = 0
        for g in gens:
            _check_int("generatrix", g)
            if g < 1 or g > self.n // 2:
                g = _int_text(g)
                raise ValueError(f"generatrix {g} outside 1..{self.n // 2} for n={self.n}")
            if g <= prev:
                raise ValueError("generatrices must be strictly increasing")
            prev = g
        if math.gcd(self.n, *gens) != 1:
            raise ValueError(f"C({self.n}; {list(gens)}) is disconnected")
        if self.s is not None:
            _at_least("multiplicative base", self.s, 2)
            if self.n != self.s**self.k:
                raise ValueError(f"n={self.n} is not {_int_text(self.s)}**{self.k}")
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

    @cached_property  # read by every node-count guard, so built once
    def label(self) -> str:
        if self.s is not None:
            return f"MC({self.s},{self.k})"
        return f"C({self.n};{','.join(str(g) for g in self.generatrices)})"


def _int_text(v: int) -> str:
    """v in decimal, or its bit width where the decimal form passes the int -> str limit."""
    try:
        return str(v)
    except ValueError:
        return f"{'-' if v < 0 else ''}<{v.bit_length()}-bit integer>"


def _check_int(name: str, v) -> None:
    if type(v) is not int:  # bool and float compare like ints but are not integers here
        raise ValueError(f"{name} {v!r} is not an integer")


def _at_least(name: str, v: int, lo: int) -> None:
    _check_int(name, v)
    if v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {_int_text(v)}")


def _check_float(name: str, v: int) -> None:
    """A float formula's int argument must have a float value."""
    try:
        float(v)
    except OverflowError:
        raise ValueError(f"{name} {_int_text(v)} is past the float range") from None


def _guard(label: str, n: int, limit: int, guard: str = "guard", unit: str = "nodes") -> None:
    if n > limit:
        raise GuardLimitError(f"{label} has {_int_text(n)} {unit}, above the {limit} {guard}")


def ceil_log2(x: int) -> int:
    """Smallest integer b with 2**b >= x."""
    _at_least("x", x, 1)
    return (x - 1).bit_length()


def make_multiplicative(s: int, k: int) -> CirculantSpec:
    """Build MC(s, k): n = s**k nodes with generatrices s**0 .. s**(k-1)."""
    _at_least("base s", s, 2)
    _at_least("dimension k", k, 1)
    if k >= MAX_NODES.bit_length() or s > MAX_NODES:
        # s**k >= 2**k > MAX_NODES or s**k >= s > MAX_NODES: refuse before forming s**k
        s, k = _int_text(s), _int_text(k)
        raise GuardLimitError(f"MC({s},{k}) has {s}**{k} nodes, above the {MAX_NODES} guard")
    n = s**k
    _guard(f"MC({s},{k})", n, MAX_NODES)
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
    if type(s) is not int or n != s ** len(gens) or gens != tuple(s**j for j in range(len(gens))):
        return None
    return s


class PortTable:
    """Bidirectional map between port codes (1-based) and hop actions.

    ``actions`` lists every action in ascending port-code order (code =
    index + 1).  ``offsets`` holds each port's hop offset mod n in the same
    order, the same at every node, and ``by_offset`` maps an offset back to
    its action.
    """

    def __init__(self, spec: CirculantSpec):
        actions: list[HopAction] = []
        for j in range(spec.k - 1, -1, -1):
            if 2 * spec.generatrices[j] == spec.n:
                # diametral generatrix: both directions land on the same node
                actions.append(HopAction(j, +1))
            else:
                actions.append(HopAction(j, -1))
                actions.append(HopAction(j, +1))
        self.actions = tuple(actions)
        self._code_of = {action: code for code, action in enumerate(actions, start=1)}
        self.offsets = tuple((a.sign * spec.generatrices[a.gen_index]) % spec.n for a in actions)
        self.by_offset = dict(zip(self.offsets, actions))

    def __len__(self) -> int:
        return len(self.actions)

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
    """Node reached from v by one hop along the given action, which must be a port."""
    _check_node(spec, "node", v)
    table = port_table(spec)
    return (v + table.offsets[table.code(action) - 1]) % spec.n


def neighbor_offsets(spec: CirculantSpec) -> tuple[int, ...]:
    """Hop offsets mod n, one per port, in ascending port-code order."""
    return port_table(spec).offsets


def _check_node(spec: CirculantSpec, name: str, v: int):
    if type(v) is not int:  # _check_int's rule inline: greedy_path checks two nodes per call
        raise ValueError(f"{name} {v!r} is not an integer")
    if not 0 <= v < spec.n:
        raise ValueError(f"{name} {_int_text(v)} outside 0..{spec.n - 1}")


def neighbors(spec: CirculantSpec, v: int) -> list[tuple[int, HopAction]]:
    """(neighbour, action) pairs of node v in ascending port-code order."""
    _check_node(spec, "node", v)
    table = port_table(spec)
    return [((v + off) % spec.n, a) for off, a in zip(table.offsets, table.actions)]


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
