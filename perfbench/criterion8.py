"""Print acceptance criterion 8's BFS/greedy ratio table, without asserting it.

    python3 perfbench/criterion8.py

Uses the chain and repeat counts of `test_criterion_08_bench_shape`
unchanged and prints a Markdown table to paste into CHANGES.md.  It is
not a workload, feeds no bound, and always exits 0 when the sweep runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcnoc import bench_route_computation, make_multiplicative  # noqa: E402

CHAIN = [(2, 4), (2, 6), (3, 4), (5, 3), (3, 5), (6, 3)]


def main():
    print("| spec | n | repeat | bfs s | greedy s | bfs/greedy |")
    print("|---|---|---|---|---|---|")
    ratios = []
    for s, k in CHAIN:
        spec = make_multiplicative(s, k)
        repeat = 3 if spec.n <= 125 else 1
        bfs = bench_route_computation(spec, "bfs", repeat=repeat)
        greedy = bench_route_computation(spec, "greedy", repeat=repeat)
        ratios.append(bfs / greedy)
        print(f"| MC({s},{k}) | {spec.n} | {repeat} | {bfs:.4f} | {greedy:.4f} | {bfs / greedy:.1f} |")
    drops = [
        f"MC({s},{k})" for (s, k), before, after in zip(CHAIN[1:], ratios, ratios[1:])
        if after < before
    ]
    print()
    print(f"MC(6,3) ratio >= 50: {'yes' if ratios[-1] >= 50 else 'no'} ({ratios[-1]:.1f})")
    print(f"ratio non-decreasing along the chain: {'no, drops at ' + ', '.join(drops) if drops else 'yes'}")


if __name__ == "__main__":
    main()
