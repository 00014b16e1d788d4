"""The benchmark's tracer still finds the names it wraps.

The tracer in ``perfbench/tracing.py`` rebinds public functions in every
``stabwit`` module.  It runs here in a child process, so the rebinding
cannot leak into other tests; a renamed or bypassed traced function then
fails in the test suite instead of in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
from collections import Counter
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from stabwit import cli
tracer = tracing.Tracer()
tracing.install(tracer)
tracer.op, tracer.active = 0, True
code = cli.main(sys.argv[3:])
tracer.active = False
spans = Counter(tracer.names[span[0]] for span in tracer.spans)
print(json.dumps({"code": code, "spans": spans}))
"""


def traced_spans(argv):
    """Exit code and span counts of one traced command line."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench"), *argv],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], result["spans"]


def test_certify_spans_under_the_benchmark_tracer():
    """The three GHZ cuts are one orbit: one cut minimised, two restarts."""
    code, spans = traced_spans(["certify", "--family", "ghz", "--n", "3", "--restarts", "2"])
    assert code == 0
    expected = {"cli.main": 1, "bisep.certify": 1, "bisep.min_over_cut": 1,
                "bisep.see_saw_once": 2}
    assert {name: spans.get(name, 0) for name in expected} == expected


def test_simulate_samples_and_scores_one_pair_of_distributions(tmp_path):
    """The draw and the exact value share one Born distribution per
    setting, built from the generators: no statevector, no rotation."""
    code, spans = traced_spans(["simulate", "--family", "ghz", "--n", "8",
                                "--counts-out", str(tmp_path / "counts")])
    assert code == 0
    expected = {"cli.main": 1, "witnesses.target_state": 0,
                "measurement.outcome_distribution": 0,
                "states.stabilizer_projector_expectation": 0,
                "measurement.counts_save": 2}
    assert {name: spans.get(name, 0) for name in expected} == expected


def test_eval_reads_value_and_threshold_off_one_pair_of_distributions(tmp_path):
    """The value and the threshold share one witness line, read off the
    settings' Born distributions built from the generators: no
    statevector, no rotation."""
    code, spans = traced_spans(["eval", "--family", "ghz", "--n", "8", "--p-noise", "0.2",
                                "--out", str(tmp_path / "eval.json")])
    assert code == 0
    expected = {"cli.main": 1, "witnesses.target_state": 0,
                "measurement.outcome_distribution": 0,
                "states.stabilizer_projector_expectation": 0}
    assert {name: spans.get(name, 0) for name in expected} == expected
