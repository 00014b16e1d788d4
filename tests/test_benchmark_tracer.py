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
code = cli.main(["certify", "--family", "ghz", "--n", "3", "--restarts", "2"])
tracer.active = False
spans = Counter(tracer.names[span[0]] for span in tracer.spans)
print(json.dumps({"code": code, "spans": spans}))
"""


def test_certify_spans_under_the_benchmark_tracer():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    expected = {"cli.main": 1, "bisep.certify": 1, "bisep.min_over_cut": 3,
                "bisep.see_saw_once": 6}
    assert {name: result["spans"].get(name, 0) for name in expected} == expected
