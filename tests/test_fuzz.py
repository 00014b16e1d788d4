"""Fuzzed counts tables: the loader raises only the package's errors, and
``simulate --ingest`` exits 0 or 1 with an ``error:`` line, never a
traceback.  Tables stay at n <= 6 so that no case is slow."""
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
