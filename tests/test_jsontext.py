"""The package's JSON writer against the standard library's indenting encoder."""
import json

from hypothesis import given
from hypothesis import strategies as st

from stabwit import CountsTable, MeasurementSetting
from stabwit.jsontext import dumps

OUTCOME_KEYS = st.text(alphabet="01", min_size=1, max_size=12)
COUNTS = st.dictionaries(OUTCOME_KEYS, st.integers(min_value=0, max_value=10**12),
                         max_size=40)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text())
JSON_VALUES = st.recursive(
    SCALARS | COUNTS,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(), children, max_size=5)
                      | st.dictionaries(st.text(alphabet="ab01", max_size=3),
                                        children | st.integers(), max_size=5)),
    max_leaves=30)


@given(JSON_VALUES)
def test_equals_the_standard_library(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@given(st.dictionaries(st.text(alphabet="01", min_size=1, max_size=6),
                       st.integers(min_value=0) | st.booleans() | st.floats(),
                       max_size=20))
def test_tables_with_other_values_fall_back(obj):
    record = {"counts_a": {"counts": obj, "setting": "zz", "shots": 3}, "estimate": -0.5}
    assert dumps(record) == json.dumps(record, sort_keys=True, indent=2)


def test_escaped_and_non_ascii_keys_fall_back():
    for table in ({"0\n1": 2, "11": 1}, {"é1": 1}, {'"': 1}, {"": 4}, {"1": 1, "": 2},
                  {"01": 1, "10": True}):
        record = {"outer": {"counts": table}}
        assert dumps(record) == json.dumps(record, sort_keys=True, indent=2)


@given(COUNTS, st.randoms(use_true_random=False))
def test_counts_in_any_insertion_order(counts, random):
    """Counts are sorted by key; the keys are unique, so no value is ever
    compared and the order they were inserted in does not show."""
    items = list(counts.items())
    random.shuffle(items)
    shuffled = dict(items)
    record = {"counts": shuffled}
    assert dumps(shuffled) == dumps(counts) == json.dumps(counts, sort_keys=True, indent=2)
    assert dumps(record) == json.dumps(record, sort_keys=True, indent=2)


@given(st.dictionaries(st.text(alphabet="01", min_size=6, max_size=6),
                       st.integers(min_value=1, max_value=10**6), min_size=1, max_size=64),
       st.randoms(use_true_random=False))
def test_counts_table_written_in_key_order(counts, random):
    items = list(counts.items())
    random.shuffle(items)
    table = CountsTable(MeasurementSetting(6, "xzxzxz"), sum(counts.values()), dict(items))
    d = table.to_dict()
    assert list(d["counts"]) == sorted(counts)
    assert dumps(d) == json.dumps(d, sort_keys=True, indent=2)
