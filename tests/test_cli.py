import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcnoc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "mcnoc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("invariant violation:")
        assert "BFS guard" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--s", "3", "--k", "1000000"),
            ("memory", "--s", "9" * 2000, "--k", "30"),
        ],
    )
    def test_node_count_guard_refuses_promptly(self, argv):
        # s**k would take seconds to form, and its digits overflow the int -> str limit
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "mcnoc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("invariant violation:")
        assert "guard" in proc.stderr

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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, mcnoc.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_out():
    # only bfs_distances needs numpy, and no subcommand calls it
    assert loaded_by_cli_import("numpy") == "False\n"


def test_cli_import_leaves_statistics_out():
    # only bench_route_computation needs statistics, whose import pulls in fractions and decimal
    assert loaded_by_cli_import("statistics") == "False\n"
