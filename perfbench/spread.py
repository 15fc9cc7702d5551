"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads selectivity sweep --seeds 1 2 3 4 5 --seconds 12

Runs run.py once per (workload, seed) with ``--trace 0``, then prints, per
workload and metric, the median, the quartiles and the spread (IQR over
median) of the values, with the quartiles from
``statistics.quantiles(values, n=4)``. The raw ``wall_s`` that run.py prints
next to its result is summarised the same way, so it can be compared with
``wall_ref``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RAW_WALL = re.compile(r"^wall_s = (\S+) s", re.M)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            line = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and line["correct"]
            row = {name: m["value"] for name, m in line["metrics"].items()}
            row["wall_s (printed only)"] = float(RAW_WALL.search(out.stdout).group(1))
            for name, value in row.items():
                values.setdefault(workload, {}).setdefault(name, []).append(value)
            shown = " ".join(f"{name}={value:.6g}" for name, value in row.items())
            print(f"{workload} seed {seed}: correct={line['correct']} {shown}", flush=True)

    for workload, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            print(f"{workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f} (n={len(vals)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
