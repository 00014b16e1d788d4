"""One workload run in a fresh process.

Started by run.py.  Imports stabwit from the checkout's ``src``, runs one
warm-up op of each command kind, then works through the seeded rounds as
a closed loop (one op at a time, no threads), timing each
``stabwit.cli.main(argv)`` call and checking its outputs untimed.  With
``--setup-only`` it stops after the warm-up.  The result goes to a JSON
file for run.py.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-ops", type=int, required=True)
    p.add_argument("--min-rounds", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--deadline-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", type=Path)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.monotonic_ns()
    import stabwit
    import stabwit.cli
    import_done = time.monotonic_ns()

    import io
    import json
    import os
    import random
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    import numpy
    import scipy

    import calibrate
    import tracing
    import workloads as wl

    if Path(stabwit.__file__).resolve().parent != ROOT / "src" / "stabwit":
        print(f"error: imported stabwit from {stabwit.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_file is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    def invoke(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = stabwit.cli.main(argv)
        return rc, out.getvalue()

    factory = wl.OpFactory(args.work)
    checker = wl.Checker(stabwit, ROOT / "src" / "stabwit" / "schemas")

    def run_op(op, index):
        """Time one op, then check and delete its files; returns the op's
        wall time (ns), its error or None, and the bytes it wrote."""
        if tracer is not None and index >= 0:
            tracer.op, tracer.active = index, True
        start = time.perf_counter_ns()
        try:
            rc, stdout = invoke(op.argv)
        except Exception as exc:  # any escape from the CLI fails this op only
            rc, stdout = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
        error = stdout if rc is None else checker.check(op, rc, stdout)
        size = sum(p.stat().st_size for p in op.outputs if p.exists())
        for path in op.outputs:
            path.unlink(missing_ok=True)
        return wall, error, size

    warm_ns = 0
    warm_errors = []
    for op in wl.warmup_ops(stabwit, args.workload, factory):
        wall, error, _ = run_op(op, -1)
        warm_ns += wall
        if error:
            warm_errors.append(f"{op.kind}: {error}")
    result = {
        "import_ns": import_done - import_start,
        "setup_ns": import_done - args.spawn_ns + warm_ns,
        "setup_ref_ns": sorted(calibrate.reference_ns(args.workload) for _ in range(3))[1],
        "warmup_errors": warm_errors,
    }

    if not args.setup_only:
        rng = random.Random(args.seed)
        inputs = wl.make_inputs(stabwit, args.workload, factory, rng)
        ops = []
        measured_ns = 0
        record_bytes = 0
        rounds = 0
        last_round_ns = 0
        while (measured_ns < args.seconds * 1e9 or len(ops) < args.min_ops
               or rounds < args.min_rounds):
            round_start = time.monotonic_ns()
            if round_start + last_round_ns > args.deadline_ns:
                break
            for op in wl.round_ops(args.workload, factory, rng, inputs):
                ref = calibrate.reference_ns(args.workload)
                wall, error, size = run_op(op, len(ops))
                ops.append([op.kind, op.cell, wall, error, ref])
                measured_ns += wall
                record_bytes += size
            rounds += 1
            last_round_ns = time.monotonic_ns() - round_start
        result.update(
            ops=ops, rounds=rounds, ref_end_ns=calibrate.reference_ns(args.workload),
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "stabwit": stabwit.__version__,
                "blas": _blas_name(numpy),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            })
        if tracer is not None:
            walls = [op[2] for op in ops]
            result["layer"], result["balanced"] = tracing.layer_metrics(
                tracer, walls, result["import_ns"], record_bytes)
            header = {"workload": args.workload, "seed": args.seed,
                      "versions": result["versions"]}
            tracing.write_trace(args.trace_file, tracer, header,
                                [op[:3] for op in ops])

    args.result.write_text(json.dumps(result))
    return 0


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
