import ast
import dataclasses
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcnoc
from mcnoc import (
    CorruptPacketError,
    GuardLimitError,
    HopAction,
    RoutingError,
    SourceRoutedPacket,
    TrafficPattern,
    analytic_avg_mc2,
    analytic_diameter_mc2,
    apply_action,
    bench_route_computation,
    bfs_distances,
    bits_per_hop,
    build_packet,
    ceil_log2,
    consume_step,
    encode_path,
    greedy_path,
    make_circulant,
    make_multiplicative,
    mesh_avg,
    mesh_diameter,
    neighbors,
    next_hop,
    path_to_actions,
    relative_dest,
    run,
    shortest_path,
)
from mcnoc import simulator

SPEC = make_multiplicative(2, 4)  # n = 16

NODE_ARGUMENTS = [
    ("shortest_path", "source", lambda v: shortest_path(SPEC, v, 3)),
    ("shortest_path", "destination", lambda v: shortest_path(SPEC, 3, v)),
    ("build_packet", "source", lambda v: build_packet(SPEC, v, 3)),
    ("build_packet", "destination", lambda v: build_packet(SPEC, 3, v)),
    ("greedy_path", "source", lambda v: greedy_path(SPEC, v, 3)),
    ("greedy_path", "destination", lambda v: greedy_path(SPEC, 3, v)),
    ("next_hop", "current", lambda v: next_hop(SPEC, v, 3)),
    ("next_hop", "destination", lambda v: next_hop(SPEC, 3, v)),
    ("relative_dest", "current", lambda v: relative_dest(SPEC, v, 3)),
    ("relative_dest", "destination", lambda v: relative_dest(SPEC, 3, v)),
    ("neighbors", "node", lambda v: neighbors(SPEC, v)),
    ("apply_action", "node", lambda v: apply_action(SPEC, v, HopAction(0, 1))),
    ("encode_path", "destination", lambda v: encode_path(SPEC, [], dst=v)),
    ("path_to_actions", "node", lambda v: path_to_actions(SPEC, [v])),
    ("bfs_distances", "source", lambda v: bfs_distances(SPEC, v)),
    ("single.pairs", "source", lambda v: list(TrafficPattern.single(v, 3).pairs(SPEC))),
    ("single.pairs", "destination", lambda v: list(TrafficPattern.single(3, v).pairs(SPEC))),
    # run reads the offset stream, which checks a single pair's nodes as pairs does
    ("run.greedy", "source", lambda v: run(SPEC, "greedy", TrafficPattern.single(v, 3))),
    ("run.greedy", "destination", lambda v: run(SPEC, "greedy", TrafficPattern.single(3, v))),
    ("run.source_routed", "source",
     lambda v: run(SPEC, "source_routed", TrafficPattern.single(v, 3))),
    ("run.source_routed", "destination",
     lambda v: run(SPEC, "source_routed", TrafficPattern.single(3, v))),
]


@pytest.mark.parametrize("bad", [-1, SPEC.n])
@pytest.mark.parametrize(
    "name, call",
    [(name, call) for _, name, call in NODE_ARGUMENTS],
    ids=[f"{entry}-{name}" for entry, name, _ in NODE_ARGUMENTS],
)
def test_node_range_message(name, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {bad} outside 0..15')}$"):
        call(bad)


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5])
@pytest.mark.parametrize(
    "name, call",
    [(name, call) for _, name, call in NODE_ARGUMENTS],
    ids=[f"{entry}-{name}" for entry, name, _ in NODE_ARGUMENTS],
)
def test_node_type_message(name, call, bad):
    # bool and float compare like ints, so a range check alone let them through
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {bad!r} is not an integer')}$"):
        call(bad)


def test_public_names_are_pinned():
    assert sorted(mcnoc.__all__) == [
        "CirculantSpec",
        "CorruptPacketError",
        "GreedyDecision",
        "GuardLimitError",
        "HopAction",
        "MemoryEstimate",
        "MetricsRow",
        "PortCode",
        "RoutingError",
        "SimReport",
        "SourceRoutedPacket",
        "StretchReport",
        "TrafficPattern",
        "analytic_avg_mc2",
        "analytic_diameter_mc2",
        "apply_action",
        "average_distance",
        "bench_route_computation",
        "bfs_distances",
        "bits_per_hop",
        "build_packet",
        "ceil_log2",
        "compare_row",
        "consume_step",
        "diameter",
        "encode_path",
        "greedy_path",
        "make_circulant",
        "make_multiplicative",
        "memory_bits",
        "mesh_avg",
        "mesh_diameter",
        "metrics_csv_row",
        "neighbor_offsets",
        "neighbors",
        "next_hop",
        "path_to_actions",
        "port_count",
        "port_table",
        "relative_dest",
        "run",
        "shortest_path",
        "sim_report_csv",
        "sim_report_document",
        "stretch_report",
        "topology_document",
    ]
    for name in mcnoc.__all__:
        assert hasattr(mcnoc, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mcnoc import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 46
    assert sorted(namespace) == sorted(mcnoc.__all__)


@pytest.mark.parametrize("name", mcnoc.__all__)
def test_public_name_is_its_defining_module_attribute(name):
    value = getattr(mcnoc, name)
    # PortCode is an alias of int, so its __module__ does not name topology
    module = "mcnoc.topology" if name == "PortCode" else value.__module__
    assert module.startswith("mcnoc.")
    assert value is getattr(sys.modules[module], name)


def test_dir_lists_every_public_name():
    assert set(mcnoc.__all__) <= set(dir(mcnoc))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'mcnoc' has no attribute 'no_such_name'$"):
        mcnoc.no_such_name
    assert not hasattr(mcnoc, "no_such_name")
    assert not hasattr(mcnoc, "_bfs")  # a module's private names stay private


def test_a_resolved_name_is_bound_into_the_package(monkeypatch):
    monkeypatch.delitem(vars(mcnoc), "run", raising=False)
    hook = mcnoc.__getattr__
    calls = []
    monkeypatch.setattr(mcnoc, "__getattr__", lambda name: calls.append(name) or hook(name))
    assert mcnoc.run is simulator.run
    assert mcnoc.run is simulator.run
    assert calls == ["run"]


def test_importing_the_package_loads_no_module_until_asked():
    # in a fresh interpreter: `import mcnoc` alone compiles nothing else, and a
    # submodule is still reachable as a plain attribute of the package
    script = (
        "import sys, mcnoc\n"
        "before = sorted(m for m in sys.modules if m.startswith('mcnoc'))\n"
        "metrics = mcnoc.metrics\n"
        "print(before, metrics is sys.modules['mcnoc.metrics'], 'mcnoc.simulator' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['mcnoc'] True False\n"


def test_importtime_lists_each_module_the_package_loads_on_first_use():
    # a public name and a module reached through the package both import
    # through the interpreter's import path, so `-X importtime` times them
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mcnoc; mcnoc.run; mcnoc.metrics"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    timed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"mcnoc", "mcnoc.simulator", "mcnoc.metrics"} <= timed


def test_a_run_loads_only_the_router_of_its_mode():
    # in a fresh interpreter: the simulator alone, or a run refused for its
    # mode, loads no router and no route core; each mode's first run adds
    # what that mode walks, and nothing else
    script = (
        "import sys\n"
        "from mcnoc import simulator, topology\n"
        "def loaded():\n"
        "    return sorted(m[6:] for m in sys.modules if m.startswith('mcnoc.'))\n"
        "spec, traffic = topology.make_multiplicative(2, 4), simulator.TrafficPattern.all_pairs()\n"
        "try:\n"
        "    simulator.run(spec, 'dijkstra', traffic)\n"
        "except ValueError:\n"
        "    print(loaded())\n"
        "simulator.run(spec, 'greedy', traffic)\n"
        "print(loaded())\n"
        "simulator.run(spec, 'source_routed', traffic)\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['errors', 'simulator', 'topology']",
        "['errors', 'greedy_route', 'simulator', 'topology']",
        "['errors', 'greedy_route', 'metrics', 'simulator', 'static_route', 'topology']",
    ]


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mcnoc").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # no linter is a dependency, so this is the dead-import check; a name
    # listed as a string (an export table) counts as used
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert {name: line for name, line in imported.items() if name not in used} == {}


def _names(path: Path) -> set[str]:
    """Every identifier a module defines, imports, reads or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize(
    "name, owners",
    [
        ("_tree", {"metrics.py"}),
        ("_digit_hops", {"metrics.py"}),
        ("_digit_distances", {"metrics.py"}),
        ("_bfs", {"metrics.py"}),  # the uncached sweep asks metrics._search_route
        ("_tree_path", {"metrics.py"}),
    ],
)
def test_only_the_route_core_names_the_tree_and_the_digit_dp(name, owners):
    # metrics chooses between the digit DP and the cached tree; every other
    # module asks it for a route or a distance and never sees either
    assert {path.name for path in SOURCES if name in _names(path)} == owners


def test_one_function_walks_the_next_distance_list():
    # the batch tally is the one list walk in src/; every other greedy walk
    # bisects the ladder, so a second list walk cannot drift from it
    path = next(path for path in SOURCES if path.name == "greedy_route.py")
    readers = {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(name, ast.Name) and name.id == "_next_distances"
            for name in ast.walk(node)
        )
    }
    assert readers == {"_hop_tally"}
    assert [path.name for path in SOURCES if "_next_distances" in _names(path)] == [
        "greedy_route.py"
    ]


LCG_CONSTANTS = {1664525, 1013904223}


def _lcg_writers(node, owner: str, found: Counter) -> Counter:
    """Count each LCG multiplier and increment written as an int constant
    under node, by the innermost function holding it (owner outside any)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            _lcg_writers(child, f"{owner.partition('.')[0]}.{child.name}", found)
            continue
        if (isinstance(child, ast.Constant) and type(child.value) is int
                and child.value in LCG_CONSTANTS):
            found[owner, child.value] += 1
        _lcg_writers(child, owner, found)
    return found


def test_one_function_writes_the_traffic_generator():
    # the recurrence and the redraw rule are written once, for pairs and
    # offsets alike, so the offsets run walks cannot drift from the pairs
    found = Counter()
    for path in SOURCES:
        _lcg_writers(ast.parse(path.read_text()), path.stem, found)
    assert {owner for owner, _ in found} == {"simulator._draws"}
    assert {value for _, value in found} == LCG_CONSTANTS


def test_run_never_reads_the_pairs():
    # run walks the offset stream; pairs stays public for callers of their own
    simulator_py = next(path for path in SOURCES if path.name == "simulator.py")
    run_def = next(node for node in ast.parse(simulator_py.read_text()).body
                   if isinstance(node, ast.FunctionDef) and node.name == "run")
    attributes = {node.attr for node in ast.walk(run_def) if isinstance(node, ast.Attribute)}
    assert "pairs" not in attributes
    assert "_offsets" in attributes


def test_only_topology_words_the_argument_checks():
    # the guard and lower-bound messages are written once, in topology; every
    # other module raises them through its checks and never names the error
    assert {path.stem for path in SOURCES if "GuardLimitError" in _names(path)} == {
        "errors",  # defines it
        "topology",  # raises it
        "cli",  # catches it
    }
    for text in ("must be >=", "nodes, above the"):
        assert {path.stem for path in SOURCES if text in path.read_text()} == {"topology"}


# 10**5000 has 5001 digits, more than str() may print: a message gives its width
WIDE, WIDE_TEXT = 10**5000, "<16610-bit integer>"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TrafficPattern.random_pairs(2.5), "count 2.5 is not an integer"),
        (lambda: TrafficPattern.random_pairs(True), "count True is not an integer"),
        (lambda: TrafficPattern.random_pairs(2, seed=1.5), "seed 1.5 is not an integer"),
        (lambda: TrafficPattern.random_pairs(2, seed=False), "seed False is not an integer"),
        # a pattern built directly, not through its classmethods, checks the same rules
        pytest.param(lambda: TrafficPattern("random_pairs", 2.5), "count 2.5 is not an integer",
                     id="direct-count 2.5"),
        (lambda: TrafficPattern("random_pairs"), "count None is not an integer"),
        pytest.param(lambda: dataclasses.replace(TrafficPattern.random_pairs(3), count=True),
                     "count True is not an integer", id="replace-count True"),
        (lambda: TrafficPattern("single", src=2, dst=2), "single-pair traffic needs src != dst"),
        (lambda: TrafficPattern("bogus"), "unknown traffic kind 'bogus'"),
        # a field the kind does not read is refused, not ignored
        (lambda: TrafficPattern("all_pairs", count=5, src=1, dst=1),
         "all_pairs traffic takes no count"),
        (lambda: TrafficPattern("single", seed=3, src=1, dst=2), "single traffic takes no seed"),
        (lambda: dataclasses.replace(TrafficPattern.random_pairs(3), dst=1),
         "random_pairs traffic takes no dst"),
        (lambda: consume_step(SPEC, SourceRoutedPacket(None, 2.5, bits_per_hop(SPEC), 1, 4)),
         "path field 2.5 is not an integer"),
        (lambda: consume_step(SPEC, SourceRoutedPacket(None, True, bits_per_hop(SPEC), 1, 4)),
         "path field True is not an integer"),
        # bits() checks the framing it reads
        pytest.param(lambda: SourceRoutedPacket(None, 0, 3, 2.5, 0).bits(),
                     "hops encoded 2.5 is not an integer", id="bits-hops encoded 2.5"),
        pytest.param(lambda: SourceRoutedPacket(None, 0, 3, None, 0).bits(),
                     "hops encoded None is not an integer", id="bits-hops encoded None"),
        pytest.param(lambda: SourceRoutedPacket(None, 0, 2.5, 1, 0).bits(),
                     "bits per hop 2.5 is not an integer", id="bits-bits per hop 2.5"),
        pytest.param(lambda: SourceRoutedPacket(None, 2.5, 3, 1, 0).bits(),
                     "path field 2.5 is not an integer", id="bits-path field 2.5"),
        (lambda: encode_path(SPEC, [], hop_capacity="x"), "hop capacity 'x' is not an integer"),
        (lambda: encode_path(SPEC, [], hop_capacity=2.5), "hop capacity 2.5 is not an integer"),
        pytest.param(lambda: build_packet(SPEC, 0, 1, hop_capacity=2.5),
                     "hop capacity 2.5 is not an integer", id="build_packet-hop capacity 2.5"),
        (lambda: run(SPEC, "greedy", TrafficPattern.all_pairs(), seed=1.5),
         "seed 1.5 is not an integer"),
        (lambda: make_circulant(8, [True, 3]), "generatrix True is not an integer"),
        (lambda: make_circulant(8, [1, "2"]), "generatrix '2' is not an integer"),
        (lambda: make_circulant(8.0, [1, 3]), "n 8.0 is not an integer"),
        (lambda: make_multiplicative(True, 3), "base s True is not an integer"),
        (lambda: make_multiplicative(2, 3.0), "dimension k 3.0 is not an integer"),
        (lambda: analytic_diameter_mc2(True), "k True is not an integer"),
        (lambda: analytic_avg_mc2(3.0), "k 3.0 is not an integer"),
        (lambda: mesh_diameter(16.0), "n 16.0 is not an integer"),
        (lambda: mesh_avg(True), "n True is not an integer"),
        # past the float range the formulas refuse instead of raising OverflowError
        pytest.param(lambda: mesh_diameter(WIDE), f"n {WIDE_TEXT} is past the float range",
                     id="mesh_diameter-wide n"),
        pytest.param(lambda: mesh_avg(10**400), f"n {10**400} is past the float range",
                     id="mesh_avg-n 10**400"),
        pytest.param(lambda: analytic_avg_mc2(10**400), f"k {10**400} is past the float range",
                     id="analytic_avg_mc2-k 10**400"),
        (lambda: ceil_log2(2.5), "x 2.5 is not an integer"),
        (lambda: bench_route_computation(SPEC, "greedy", repeat=True),
         "repeat True is not an integer"),
        (lambda: make_multiplicative(2, 1), "n must be >= 3, got 2"),
        (lambda: make_circulant(-WIDE, [1]), f"n must be >= 3, got -{WIDE_TEXT}"),
        (lambda: make_circulant(10, [1, WIDE]), f"generatrix {WIDE_TEXT} outside 1..5 for n=10"),
        (lambda: shortest_path(SPEC, WIDE, 3), f"source {WIDE_TEXT} outside 0..15"),
    ],
)
def test_argument_check_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Library contract: whatever ints a caller passes, a public
# call returns or raises one of these, within two seconds.
REFUSALS = (ValueError, GuardLimitError, RoutingError, CorruptPacketError)
INTS = st.integers() | st.booleans() | st.sampled_from([WIDE, -WIDE, 2**31, -(2**31)])
MC23, MC24 = make_multiplicative(2, 3), make_multiplicative(2, 4)


def _returns_or_refuses(call):
    def overrun(signum, frame):
        raise TimeoutError("call ran past 2 s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(2)
    try:
        return call()
    except REFUSALS:
        return None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLibraryContract:
    @settings(max_examples=200, deadline=None)
    @given(INTS, INTS)
    def test_make_multiplicative(self, s, k):
        _returns_or_refuses(lambda: make_multiplicative(s, k))

    @settings(max_examples=200, deadline=None)
    @given(INTS, st.lists(INTS, max_size=3))
    def test_make_circulant(self, n, gens):
        _returns_or_refuses(lambda: make_circulant(n, gens))

    @settings(max_examples=200, deadline=None)
    @given(INTS, st.none() | INTS)
    def test_random_pairs(self, count, seed):
        _returns_or_refuses(
            lambda: list(islice(TrafficPattern.random_pairs(count, seed).pairs(MC23), 3))
        )

    @settings(max_examples=200, deadline=None)
    @given(INTS, st.none() | INTS)
    def test_random_pairs_built_directly(self, count, seed):
        _returns_or_refuses(
            lambda: list(islice(TrafficPattern("random_pairs", count, seed).pairs(MC23), 3))
        )

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["all_pairs", "random_pairs", "single"]), *[st.none() | INTS] * 4)
    def test_traffic_built_directly(self, kind, count, seed, src, dst):
        pattern = _returns_or_refuses(lambda: TrafficPattern(kind, count, seed, src, dst))
        if pattern is not None:
            # a pattern that builds carries no field its kind ignores
            reads = {"all_pairs": (), "random_pairs": ("count", "seed"), "single": ("src", "dst")}
            unread = {"count", "seed", "src", "dst"}.difference(reads[kind])
            assert all(getattr(pattern, name) is None for name in unread)
            _returns_or_refuses(lambda: list(islice(pattern.pairs(MC23), 3)))

    @settings(max_examples=200, deadline=None)
    @given(INTS, INTS)
    def test_single(self, src, dst):
        _returns_or_refuses(lambda: list(islice(TrafficPattern.single(src, dst).pairs(MC23), 3)))

    @settings(max_examples=100, deadline=None)
    @given(INTS)
    def test_analytic_diameter(self, k):
        _returns_or_refuses(lambda: analytic_diameter_mc2(k))

    @settings(max_examples=100, deadline=None)
    @given(INTS | st.sampled_from([2**1023, 2**1024, 10**400]))
    def test_float_formulas(self, v):
        for formula in (analytic_avg_mc2, mesh_diameter, mesh_avg):
            _returns_or_refuses(lambda: formula(v))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(max_value=1) | st.booleans() | st.just(-WIDE))
    def test_bench_repeat(self, repeat):
        _returns_or_refuses(lambda: bench_route_computation(MC23, "greedy", repeat))

    @settings(max_examples=200, deadline=None)
    @given(st.none() | INTS, INTS, st.just(31) | INTS, st.just(2**19) | INTS, INTS)
    def test_packet_bits(self, dst, field, width, hops, capacity):
        # 31-bit slots are the widest a spec has, and 2**19 hops the longest route
        _returns_or_refuses(lambda: SourceRoutedPacket(dst, field, width, hops, capacity).bits())

    @settings(max_examples=200, deadline=None)
    @given(INTS, st.just(bits_per_hop(MC24)) | INTS)
    def test_consume_step_walk_ends(self, field, width):
        def walk():
            packet = SourceRoutedPacket(None, field, width, 0, 0)
            for _ in range(field.bit_length() // bits_per_hop(MC24) + 2):
                action, packet = consume_step(MC24, packet)
                if action is None:
                    return
            pytest.fail(f"walk on field {field} did not end")

        _returns_or_refuses(walk)
