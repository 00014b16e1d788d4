"""Fuzzed counts tables and command lines: the loader raises only the
package's errors, ``simulate --ingest`` exits 0 or 1 with an ``error:``
line, and any command line exits 0, 1 or 2, never with a traceback.
Tables and registers stay at n <= 6 so that no case is slow."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stabwit import CountsTable, StabwitError
from stabwit.cli import main

MAX_N = 6
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)
AXES = st.text(alphabet="xz", max_size=MAX_N)
KEYS = st.text(alphabet="01", max_size=MAX_N) | st.text(max_size=MAX_N)
TABLE_LIKE = st.fixed_dictionaries({}, optional={
    "setting": AXES | JSON_VALUES,
    "shots": st.integers(-2, 50) | JSON_VALUES,
    "counts": st.dictionaries(KEYS, st.integers(-2, 50) | JSON_VALUES, max_size=8)
              | JSON_VALUES,
})
# JSON-like token soup: truncated, unbalanced and deeply nested text
TOKENS = st.sampled_from(['{', '}', '[', ']', ':', ',', '"setting"', '"shots"',
                          '"counts"', '"xxx"', '"zzz"', '"000"', '"111"', '3', '-1',
                          'true', 'null', '1e999', 'NaN', '"\\ud800"'])
TEXTS = (st.lists(TOKENS, max_size=30).map("".join)
         | st.integers(1, 3000).map(lambda depth: "[" * depth))


@st.composite
def ghz_tables(draw):
    """A GHZ setting's table, consistent or with one field perturbed."""
    n = draw(st.integers(2, MAX_N))
    axes = draw(st.sampled_from(["x" * n, "z" * n]))
    counts = draw(st.dictionaries(st.text(alphabet="01", min_size=n, max_size=n),
                                  st.integers(0, 20), min_size=1, max_size=8))
    table = {"setting": axes, "shots": sum(counts.values()), "counts": counts}
    field = draw(st.sampled_from([None, "setting", "shots", "counts"]))
    if field is not None:
        table[field] = draw(JSON_VALUES | AXES | st.integers(-1, 50))
    return table


FILE_CONTENTS = ((ghz_tables() | TABLE_LIKE | JSON_VALUES).map(json.dumps).map(str.encode)
                 | TEXTS.map(str.encode) | st.binary(max_size=40))


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | TABLE_LIKE | ghz_tables())
def test_from_dict_returns_a_table_or_raises_a_package_error(obj):
    try:
        table = CountsTable.from_dict(obj)
    except StabwitError:
        return
    assert sum(table.counts.values()) == table.shots


@settings(max_examples=150, deadline=None)
@given(st.tuples(ghz_tables().map(json.dumps).map(str.encode) | FILE_CONTENTS,
                 ghz_tables().map(json.dumps).map(str.encode) | FILE_CONTENTS))
def test_ingest_of_fuzzed_files_fails_cleanly(contents):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.json", Path(tmp) / "b.json"]
        for path, raw in zip(paths, contents):
            path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--family", "ghz", "--ingest", *map(str, paths)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


# command lines from a small vocabulary: every command, every flag, small
# sizes, out-of-range numbers and junk tokens
COMMANDS = st.sampled_from(["table", "eval", "simulate", "certify", "help", ""])
FLAGS = st.sampled_from(["--family", "--n", "--p-noise", "--shots", "--seed", "--restarts",
                         "--check", "--negate", "--format", "--out", "--counts-out",
                         "--ingest", "--version", "--help", "-n", "--"])
NUMBERS = (st.integers(-2, MAX_N).map(str)
           | st.sampled_from(["2..4", "3..2", "2..", "1..17", "0.5", "1e3", "nan", "-inf",
                              str(2 ** 63), str(2 ** 128), "1" + "0" * 5000]))
VALUES = st.sampled_from(["ghz", "cluster", "both", "json", "csv", "text", "0", "0.1", "1",
                          "1.5", "1000", "0x10", "", " ", "é", "--n=3"])


@st.composite
def command_lines(draw):
    """A command, most often with a valid family and size, then flags with
    up to two values each."""
    argv = [draw(COMMANDS)]
    if draw(st.booleans()) or draw(st.booleans()):
        argv += ["--family", draw(st.sampled_from(["ghz", "cluster"])),
                 "--n", str(draw(st.integers(2, MAX_N)))]
    for _ in range(draw(st.integers(0, 3))):
        argv.append(draw(FLAGS))
        argv += draw(st.lists(NUMBERS | VALUES, max_size=2))
    return argv


def _bounded(argv):
    """The drawn line with its sizes held small: n <= 6, shots <= 1000,
    restarts <= 2, so that no valid case is slow."""
    out = list(argv)
    for i, token in enumerate(out[:-1]):
        value = out[i + 1]
        if value.lstrip("-").isdigit() and len(value) < 30:
            limit = {"--n": MAX_N, "--shots": 1000, "--restarts": 2}.get(token)
            if limit is not None and int(value) > limit:
                out[i + 1] = str(limit)
    return out


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_cli_argument_space_exits_cleanly(argv):
    """Any command line exits 0, 1 or 2 with no traceback; output paths
    point into a temporary directory."""
    argv = _bounded(argv)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(Path(tmp) / "out") if prev in ("--out", "--counts-out") else token
                for prev, token in zip([""] + argv, argv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
