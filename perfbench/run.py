"""epdyn benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload selectivity --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The command draws every input from
``--seed``, writes the workload's JSON config, times ``setup_s`` in fresh
interpreters against a reference import (untraced runs only), then runs the
workload's passes in a process of its own (measure.py), checks the outputs
and prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. Lines before it give the machine, every metric with its
within-run spread, the failure count, and any failed check. Scratch files
live under ``.perfbench_work/`` and are removed at exit, except the traced
run's spans, which stay in ``.perfbench_work/trace-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS, config_doc, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Fresh interpreters timed per run with the set-up probe.
SETUP_REPEATS = 4
#: A run must end within 180 s; this leaves room for the set-up probes.
INNER_TIMEOUT_S = 150.0

SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import epdyn.cli; epdyn.cli.load_config(sys.argv[2])"
#: Timed before and after every set-up probe. Import time on a shared host
#: drifts by 30 % between runs minutes apart; a fixed import of epdyn's own
#: dependencies drifts with it, while a compute loop does not (see README).
REF_PROBE = "import numpy, scipy.linalg"
#: Nominal seconds of REF_PROBE, which turns the probe/reference ratio into
#: seconds: about its median on a 2-vCPU Intel Xeon host.
REF_PROBE_S = 0.5


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def time_setup(config_path: str) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters: the set-up probes, and the
    reference imports run before, between and after them."""

    def timed(*argv: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", *argv], check=True, timeout=60)
        return time.perf_counter() - t0

    probes, refs = [], [timed(REF_PROBE)]
    for _ in range(SETUP_REPEATS):
        probes.append(timed(SETUP_PROBE, SRC, config_path))
        refs.append(timed(REF_PROBE))
    return probes, refs


def setup_seconds(probes: list[float], refs: list[float]) -> list[float]:
    """Each probe over the mean of the reference imports around it, in
    seconds at the reference import's nominal REF_PROBE_S."""
    return [REF_PROBE_S * p / (0.5 * (a + b)) for p, a, b in zip(probes, refs, refs[1:])]


def run_inner(argv: list[str]) -> subprocess.CompletedProcess:
    """measure.py in its own session, so a timeout also ends its pool workers."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=INNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nmeasure.py killed after {INNER_TIMEOUT_S:.0f} s"
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "epdyn", "__init__.py")):
        return fail(f"no epdyn sources under {SRC}; run from a full checkout")

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config_doc(make_inputs(args.seed), args.workload), fh, indent=1)
        facts = machine()
        probes, refs = ([], []) if args.trace else time_setup(config_path)
        trace_out = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        inner = run_inner([
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", work,
            "--config", config_path,
            "--trace-out", trace_out,
        ])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if inner.returncode != 0:
        sys.stderr.write(inner.stderr)
        return fail(f"measure.py exited with {inner.returncode}")
    res = json.loads(inner.stdout.strip().splitlines()[-1])

    attempted = res["attempted"]
    failed = min(attempted, res["failed"] + len(res["problems"]))
    correct = failed == 0
    print(json.dumps({"machine": {**facts, **res["versions"]}}))
    for message in res["errors"] + res["problems"]:
        print(f"FAILED CHECK: {message}")
    print(f"fail_frac = {failed / attempted:.6g} frac ({failed} of {attempted} operations failed)")
    for note in res["notes"]:
        print(note)

    if args.trace:
        metrics = res["layers"]
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.9g} {m['unit']}")
        print(f"{res['bases']}; spans in {trace_out}")
    else:
        wall, wall_ref = res["wall_s"], res["wall_ref"]
        setup = setup_seconds(probes, refs)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_ref": {"value": statistics.median(wall_ref), "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mib"], "unit": "MiB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
        print(
            f"setup_s = {metrics['setup_s']['value']:.9g} s (median of {len(setup)}, IQR/median "
            f"{spread(setup):.3f}); raw probe {statistics.median(probes):.6g} s, "
            f"reference import {statistics.median(refs):.6g} s"
        )
        print(
            f"wall_ref = {metrics['wall_ref']['value']:.9g} ref (median of {len(wall_ref)}, "
            f"IQR/median {spread(wall_ref):.3f}); reference loop {statistics.median(res['ref_s']):.6g} s"
        )
        print(f"wall_s = {statistics.median(wall):.9g} s (median of {len(wall)}, IQR/median {spread(wall):.3f})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.9g} MiB")
        print(f"ok_frac = {metrics['ok_frac']['value']:.9g} frac")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
