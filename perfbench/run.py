"""stabwit benchmark: one workload, end-to-end or traced per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact|sample|certify --seed N \\
        --seconds S --trace 0|1

Each workload runs in a fresh child process (child.py) that drives
``stabwit.cli.main(argv)`` in-process as a closed loop: one client, one op
at a time.  The child works through whole rounds of seeded ops until at
least S seconds of op time, MIN_OPS ops and MIN_ROUNDS rounds are done,
checking every op's outputs untimed.

``--trace 0`` prints the end-to-end metrics.  Their times are normalised
by a reference computation timed next to every op (calibrate.py), which
takes out most of the drift in machine speed on a shared host.  Set-up
time is sampled SETUP_SAMPLES times (setup-only children plus the
measuring child) and reported as the median.  ``--trace 1`` runs the
workload twice, untraced then traced, and prints the per-layer metrics of
the traced run together with the tracing overhead; the spans go to
perfbench/out/.  See NOTES.md for the workloads and every metric.

The machine and run description goes to stdout first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

from workloads import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 100  # so that op_p90_ms has at least ten samples beyond it
MIN_ROUNDS = 3  # so that every cell has a median of at least three
SETUP_SAMPLES = 5
BUDGET_S = 165  # the whole run, children included, must end within 180 s
# normalised times are in units where the workload's reference computation
# in calibrate.py takes this long; on the 2-core host the benchmark was
# sized on, each takes 5 to 15 ms depending on load from other tenants
REFERENCE_MS = 10.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _run_child(args, work: Path, deadline_ns: int, setup_only=False,
               trace_file: Path | None = None) -> dict:
    spawn_ns = time.monotonic_ns()
    result = work / f"result-{spawn_ns}.json"
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--min-ops", str(MIN_OPS),
            "--min-rounds", str(MIN_ROUNDS),
            "--work", str(work), "--result", str(result),
            "--spawn-ns", str(spawn_ns), "--deadline-ns", str(deadline_ns)]
    if setup_only:
        argv.append("--setup-only")
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    timeout = max(1.0, (deadline_ns - spawn_ns) / 1e9 + 10.0)
    try:
        proc = subprocess.run(argv, env=dict(os.environ, **CHILD_ENV), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    if data["warmup_errors"]:
        raise BenchError(f"warm-up op failed: {data['warmup_errors']}")
    return data


def _quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
    distribution.  The cells of a workload differ in cost by orders of
    magnitude, so the two ranks nearest a quantile often belong to two
    cells far apart in cost; interpolating between them would read one
    extreme of each cell, where this reads several observations."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ xs)


def _walls_ms(data: dict, normalise: bool) -> list[float]:
    """Each op's wall time; normalised, it is scaled by REFERENCE_MS over
    the mean of the reference times taken just before and just after it."""
    walls = [op[2] / 1e6 for op in data["ops"]]
    if not normalise:
        return walls
    refs = [op[4] / 1e6 for op in data["ops"]] + [data["ref_end_ns"] / 1e6]
    return [wall * 2.0 * REFERENCE_MS / (refs[i] + refs[i + 1])
            for i, wall in enumerate(walls)]


def _op_stats(data: dict, normalise: bool) -> dict:
    """Latency quantiles over all ops; throughput from per-cell medians.

    Every cell ran once per round, so a round at the median latency of each
    cell stands for the run: ops_per_s is the cell count over that round's
    duration.  A burst of load from outside slows one round of a cell, not
    its median."""
    ops = data["ops"]
    walls = _walls_ms(data, normalise)
    by_cell: dict[str, list[float]] = {}
    for op, wall in zip(ops, walls):
        by_cell.setdefault(op[1], []).append(wall)
    round_ms = sum(statistics.median(cell) for cell in by_cell.values())
    stats = {
        "ops_per_s": len(by_cell) / (round_ms / 1e3),
        "op_p50_ms": _quantile(walls, 0.5),
        "op_p90_ms": _quantile(walls, 0.9),
    }
    for kind in sorted({op[0] for op in ops}):
        stats[f"{kind}_p50_ms"] = _quantile(
            [wall for op, wall in zip(ops, walls) if op[0] == kind], 0.5)
    return stats


def _end_to_end(args, work: Path, start_ns: int) -> tuple[dict, dict]:
    deadline = start_ns + int(BUDGET_S * 1e9)
    runs = [_run_child(args, work, deadline, setup_only=True)
            for _ in range(SETUP_SAMPLES - 1)]
    data = _run_child(args, work, deadline)
    runs.append(data)
    stats = _op_stats(data, normalise=True)
    main_kind, aux_kind = KINDS[args.workload]
    metrics = {
        "ops_per_s": stats["ops_per_s"],
        "op_p50_ms": stats["op_p50_ms"],
        "op_p90_ms": stats["op_p90_ms"],
        "main_p50_ms": stats[f"{main_kind}_p50_ms"],
        "aux_p50_ms": stats[f"{aux_kind}_p50_ms"],
        "setup_s": statistics.median(
            r["setup_ns"] / 1e9 * REFERENCE_MS / (r["setup_ref_ns"] / 1e6) for r in runs),
        "peak_rss_mb": data["maxrss_kb"] / 1024,
    }
    data["raw_setup_s"] = statistics.median(r["setup_ns"] for r in runs) / 1e9
    return metrics, data


def _per_layer(args, work: Path, start_ns: int) -> tuple[dict, dict]:
    half = start_ns + int(BUDGET_S / 2 * 1e9)
    untraced = _op_stats(_run_child(args, work, half), normalise=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    data = _run_child(args, work, start_ns + int(BUDGET_S * 1e9),
                      trace_file=trace_file)
    if not data["balanced"]:
        raise BenchError("layer self times plus unattributed time do not add "
                         "up to the traced wall time")
    metrics = dict(data["layer"])
    traced = _op_stats(data, normalise=True)["ops_per_s"]
    metrics["trace.ops_per_s"] = traced
    metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    metrics["trace.overhead_pct"] = 100.0 * (untraced["ops_per_s"] / traced - 1.0)
    print(f"trace file: {trace_file.relative_to(ROOT)}")
    return metrics, data


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _describe(args, data: dict) -> None:
    v = data["versions"]
    nproc = len(os.sched_getaffinity(0))
    print(f"run: workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, closed loop with 1 client")
    print(f"machine: nproc {nproc}, cpu {_cpu_model()}, blas {v['blas']} with "
          f"{v['blas_threads']} thread(s)")
    print(f"software: python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
          f"stabwit {v['stabwit']}, commit {_git_commit()}")
    ops = data["ops"]
    failed = [op for op in ops if op[3]]
    kinds = KINDS[args.workload]
    print(f"ops: {len(ops)} in {data['rounds']} rounds, "
          + ", ".join(f"{k} {sum(op[0] == k for op in ops)}" for k in kinds)
          + f"; failed {len(failed)}, failed_op_frac {len(failed) / len(ops):.6g}")
    for op in failed[:5]:
        print(f"  failed {op[1]}: {op[3][:300]}")
    print(f"reference computation: median {statistics.median(op[4] for op in ops) / 1e6:.4g} ms,"
          f" normalised to {REFERENCE_MS:g} ms")
    for normalise in (True, False):
        stats = _op_stats(data, normalise)
        print(("normalised" if normalise else "raw, not normalised") + ": "
              + ", ".join(f"{name} {stats[name]:.6g}" for name in
                          ["ops_per_s", "op_p50_ms", "op_p90_ms"]
                          + [f"{k}_p50_ms" for k in kinds]))
    if "raw_setup_s" in data:
        print(f"raw, not normalised: setup_s {data['raw_setup_s']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(KINDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start_ns = time.monotonic_ns()

    if not (ROOT / "src" / "stabwit" / "__init__.py").is_file():
        print(f"error: no stabwit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, data = measure(args, work, start_ns)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    _describe(args, data)
    for m in declared:
        print(f"  {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    failed = sum(1 for op in data["ops"] if op[3])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(data["ops"]),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
