import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcnoc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child(*args: str, address_space: int | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's src on PYTHONPATH.

    ``address_space`` caps the child's virtual memory in bytes (RLIMIT_AS).
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
        preexec_fn=cap if address_space else None,
    )


class TestGen:
    def test_stdout_document(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--s", "4", "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 64
        assert len(doc["ports"]) == 6
        assert doc["ports"][0] == {"code": 1, "gen": 16, "sign": -1}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "topo.json"
        code, out, _ = run_cli(capsys, "gen", "--s", "2", "--k", "4", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["ports"][0]["gen"] == 8

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "topo.json"
        code, out, err = run_cli(capsys, "gen", "--s", "2", "--k", "4", "--out", str(target))
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestMetrics:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "metrics", "--s", "2", "--k", "4", "--mesh-compare", "--format", "csv"
        )
        assert code == 0
        assert out == 'spec,n,d_circ,l_av_circ,d_mesh,l_av_mesh\n"MC(2,4)",16,2,1.53,6.00,2.50\n'

    def test_json_has_null_closed_forms_for_other_bases(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--s", "3", "--k", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diameter"] == 3
        assert doc["analytic_diameter"] is None

    def test_table_with_mesh(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--s", "2", "--k", "6", "--mesh-compare")
        assert code == 0
        lines = out.splitlines()
        assert "diameter: 3" in lines
        assert "closed_form_diameter: 3" in lines
        assert "mesh_diameter: 14.00" in lines

    def test_table_without_mesh(self, capsys):
        _, out, _ = run_cli(capsys, "metrics", "--s", "2", "--k", "6")
        assert "mesh_diameter" not in out


class TestRoute:
    def test_bfs_with_packet(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "route", "--s", "4", "--k", "3", "--from", "5", "--to", "17",
            "--algo", "bfs", "--show-packet",
        )
        assert code == 0
        assert out.splitlines() == [
            "5 21 17",
            "packet bits=011|010 bits_per_hop=3 hops=2",
        ]

    def test_greedy_with_packet(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "route", "--s", "4", "--k", "3", "--from", "5", "--to", "17",
            "--algo", "greedy", "--show-packet",
        )
        assert code == 0
        assert out.splitlines() == [
            "5 21 17",
            "packet dst_bits=010001 address_bits=6",
        ]

    def test_path_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "route", "--s", "2", "--k", "6", "--from", "0", "--to", "63",
            "--algo", "greedy",
        )
        assert code == 0 and out == "0 63\n"


class TestSimulate:
    def test_all_pairs_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--s", "2", "--k", "4", "--algo", "bfs", "--traffic", "all",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "source_routed"
        assert doc["delivered"] == 240
        assert doc["hop_histogram"] == {"1": 112, "2": 128}

    def test_pair_traffic(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--s", "4", "--k", "3", "--algo", "greedy",
            "--traffic", "pair:5:17",
        )
        assert code == 0
        assert json.loads(out)["max_hops"] == 2

    def test_malformed_traffic(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--s", "2", "--k", "4", "--algo", "bfs", "--traffic", "burst",
        )
        assert code == 1
        assert err.startswith("error:")


class TestMemoryCommand:
    def test_reference_budget(self, capsys):
        code, out, _ = run_cli(capsys, "memory", "--s", "2", "--k", "4")
        assert code == 0
        assert out == "per_node_bits: 32\ntotal_bits: 512\naddress_bits: 4\n"


class TestBenchCommand:
    def test_row_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--s", "2", "--k", "3", "--repeat", "1")
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,bfs_seconds,greedy_seconds"
        n, bfs_s, greedy_s = row.split(",")
        assert n == "8"
        assert float(bfs_s) > 0.0 and float(greedy_s) > 0.0


class TestExitCodes:
    def test_usage_error_from_argparse(self, capsys):
        assert run_cli(capsys, "route", "--s", "2", "--k", "4")[0] == 1  # missing flags
        assert run_cli(capsys, "nonsense")[0] == 1

    def test_usage_error_from_values(self, capsys):
        code, _, err = run_cli(
            capsys, "route", "--s", "2", "--k", "4", "--from", "0", "--to", "99",
            "--algo", "bfs",
        )
        assert code == 1
        assert "outside" in err

    def test_invariant_violation(self, capsys):
        # n = 10**10 trips the node-count guard
        code, _, err = run_cli(capsys, "memory", "--s", "10", "--k", "10")
        assert code == 2
        assert err.startswith("invariant violation:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("route", "--s", "3", "--k", "14", "--from", "0", "--to", "1", "--algo", "bfs"),
            ("metrics", "--s", "2", "--k", "30"),
        ],
    )
    def test_bfs_guard_refuses_promptly(self, argv):
        # in a child process, so a missing guard fails on the timeout instead of hanging
        proc = child("-m", "mcnoc.cli", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("invariant violation:")
        assert "BFS guard" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--s", "3", "--k", "1000000"),
            ("memory", "--s", "9" * 2000, "--k", "30"),
            ("bench", "--s", "2", "--k", "9"),
        ],
    )
    def test_node_count_guard_refuses_promptly(self, argv):
        # s**k would take seconds to form, and its digits overflow the int -> str
        # limit; bench's bfs sweeps of MC(2,9), past the all-pairs guard, would take minutes
        proc = child("-m", "mcnoc.cli", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("invariant violation:")
        assert "guard" in proc.stderr

    @pytest.mark.parametrize(
        "argv, routed",
        [
            (("route", "--from", "0", "--to", "{dst}"), "0 1\n"),
            (("simulate", "--traffic", "pair:0:{dst}"), '"max_hops": 1,'),
        ],
        ids=["route", "simulate"],
    )
    def test_greedy_hop_guard_refuses_promptly(self, argv, routed):
        # on the ring MC(2**31 - 1, 1), 0 -> 2**30 - 1 is a 2**30-hop walk:
        # about 40 GiB of route nodes, or minutes of counting, without the guard
        def greedy(dst):
            ring = ("--s", str(2**31 - 1), "--k", "1", "--algo", "greedy")
            command, *rest = (arg.format(dst=dst) for arg in argv)
            return child("-m", "mcnoc.cli", command, *ring, *rest, address_space=2**30)

        refused = greedy(2**30 - 1)
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert refused.stderr == (
            "invariant violation: greedy walk from 0 to 1073741823 has 1073741823 hops, "
            "above the 1048576 hop guard\n"
        )
        short = greedy(1)  # a short walk on the same ring still routes
        assert short.returncode == 0, short.stderr
        assert routed in short.stdout

    @pytest.mark.parametrize("algo", ["greedy", "bfs"])
    def test_all_pairs_guard_refuses_promptly(self, algo):
        # MC(2,20) all-pairs is about 1.1e12 packets: weeks of work without the guard
        proc = child(
            "-m", "mcnoc.cli", "simulate", "--s", "2", "--k", "20", "--algo", algo,
            "--traffic", "all",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "invariant violation: MC(2,20) has 1048576 nodes, above the 256 all-pairs guard\n"
        )

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--s", "4", "--k", "3"),
            ("metrics", "--s", "2", "--k", "4", "--mesh-compare", "--format", "csv"),
            ("metrics", "--s", "3", "--k", "4", "--format", "json"),
            ("route", "--s", "4", "--k", "3", "--from", "5", "--to", "17",
             "--algo", "bfs", "--show-packet"),
            ("simulate", "--s", "3", "--k", "3", "--algo", "greedy",
             "--traffic", "random:50", "--seed", "7"),
            ("memory", "--s", "3", "--k", "2"),
        ],
    )
    def test_identical_runs_are_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        assert first[1]  # something was printed


def loaded_by_cli_import(module: str) -> str:
    """What a fresh interpreter prints for `module in sys.modules` after `import mcnoc.cli`."""
    proc = child("-c", f"import sys, mcnoc.cli; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def package_modules_loaded_by(*argv: str) -> set[str]:
    """The mcnoc modules a fresh interpreter holds after `import mcnoc.cli` and `main(argv)`.

    With no argv the interpreter only imports the CLI.
    """
    script = (
        "import json, sys, mcnoc.cli\n"
        f"argv = {list(argv)!r}\n"
        "code = mcnoc.cli.main(argv) if argv else 0\n"
        "names = [m for m in sys.modules if m == 'mcnoc' or m.startswith('mcnoc.')]\n"
        "print(json.dumps(sorted(names)))\n"
        "sys.exit(code)\n"
    )
    proc = child("-c", script)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


CLI_IMPORT = {"mcnoc", "mcnoc.cli", "mcnoc.errors", "mcnoc.topology"}
MC24 = ("--s", "2", "--k", "4")


@pytest.mark.parametrize(
    "argv, added",
    [
        ((), set()),
        (("gen", *MC24), set()),
        (("metrics", *MC24, "--format", "json"), {"metrics"}),
        (("memory", *MC24), {"metrics"}),
        (("route", *MC24, "--from", "0", "--to", "5", "--algo", "bfs", "--show-packet"),
         {"metrics", "static_route"}),
        (("route", *MC24, "--from", "0", "--to", "5", "--algo", "greedy", "--show-packet"),
         {"greedy_route"}),
        (("simulate", *MC24, "--algo", "greedy", "--traffic", "pair:0:5"),
         {"greedy_route", "simulator"}),
        (("simulate", *MC24, "--algo", "bfs", "--traffic", "pair:0:5"),
         {"metrics", "simulator", "static_route"}),
        (("bench", *MC24, "--repeat", "1"), {"greedy_route", "metrics", "simulator"}),
    ],
    ids=[
        "import", "gen", "metrics", "memory", "route-bfs", "route-greedy", "simulate",
        "simulate-bfs", "bench",
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, added):
    # every module loaded is compiled from source when bytecode caching is off
    assert package_modules_loaded_by(*argv) == CLI_IMPORT | {f"mcnoc.{m}" for m in added}


def test_a_one_pair_simulate_builds_no_field_list():
    # the one-shot CLI packs its one field; a list would cost n fields
    script = (
        "import mcnoc.cli\n"
        "from mcnoc import static_route\n"
        "code = mcnoc.cli.main(['simulate', '--s', '2', '--k', '14', '--algo', 'bfs',"
        " '--traffic', 'pair:9:12345'])\n"
        "print(code, static_route._field_list.cache_info().currsize)\n"
    )
    proc = child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0"


def test_cli_import_leaves_numpy_out():
    # only bfs_distances needs numpy, and no subcommand calls it
    assert loaded_by_cli_import("numpy") == "False\n"


def test_cli_import_leaves_statistics_out():
    # only bench_route_computation needs statistics, whose import pulls in fractions and decimal
    assert loaded_by_cli_import("statistics") == "False\n"


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Three in four flag values parse as integers: plain decimal, or non-ASCII digits,
# which int() reads.  The rest are empty, carry a decimal point, or are hex.
FORMS = [str] * 8 + [
    lambda v: str(v).translate(ARABIC_INDIC),
    lambda v: "",
    lambda v: f"{v}.0",
    hex,
]


def flag_values(ints):
    """Text for an integer flag, in one of FORMS."""
    return st.builds(lambda form, v: form(v), st.sampled_from(FORMS), ints)


def spec_flags(s_ints, k_ints):
    return st.tuples(flag_values(s_ints), flag_values(k_ints)).map(
        lambda sk: ["--s", sk[0], "--k", sk[1]]
    )


# s <= 64 keeps rings short: a greedy walk on MC(s,1) takes up to s/2 hops, and
# no guard bounds it yet.  Specs above 2**20 nodes reach the BFS guard, and
# above 2**31 - 1 the construction guard.
ANY_SPEC = spec_flags(st.integers(-1, 64), st.integers(0, 7))
# All-pairs traffic is n(n-1) packets (run refuses it above 256 nodes), and bench
# runs a BFS per ordered pair, so both stay at n <= 64 by construction.
SMALL_SPEC = spec_flags(st.integers(-1, 8), st.integers(0, 2))
NODES = flag_values(st.integers(-1, 70))
SEEDS = flag_values(st.integers(-(2**40), 2**40))
TRAFFIC = st.one_of(
    # random:N costs time linear in a count the user chose, so N stays small
    flag_values(st.integers(-1, 50)).map(lambda c: f"random:{c}"),
    st.tuples(NODES, NODES).map(lambda p: f"pair:{p[0]}:{p[1]}"),
    st.sampled_from(["random", "pair:1", "pair:1:2:3", "every", ""]),
)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["gen", "metrics", "route", "simulate", "memory", "bench"]))
    if command == "bench":
        return ["bench", *draw(SMALL_SPEC), "--repeat", draw(flag_values(st.integers(0, 2)))]
    if command != "simulate":
        argv = [command, *draw(ANY_SPEC)]
    elif draw(st.booleans()):
        argv = [command, *draw(SMALL_SPEC), "--traffic", "all"]
    else:
        argv = [command, *draw(ANY_SPEC), "--traffic", draw(TRAFFIC)]
    if command == "metrics":
        argv += draw(st.sampled_from([[], ["--mesh-compare"]]))
        argv += draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
    if command == "route":
        argv += ["--from", draw(NODES), "--to", draw(NODES)]
        argv += draw(st.sampled_from([[], ["--show-packet"]]))
    if command in ("route", "simulate"):
        argv += ["--algo", draw(st.sampled_from(["bfs", "greedy"]))]
    if command == "simulate" and draw(st.booleans()):
        argv += ["--seed", draw(SEEDS)]
    return argv


ERROR_LINE = re.compile(r"^((mcnoc \w+: )?error: |invariant violation: )")


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert sum(1 for line in err.getvalue().splitlines() if ERROR_LINE.match(line)) == 1
