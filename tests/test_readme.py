"""The library section of the README runs and names what exists."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_block_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})


def test_library_table_names_exist():
    """Every backticked name in a row of the library table is an attribute
    of that row's module."""
    rows = re.findall(r"^\| `(stabwit\.\w+)`\s*\|(.*)\|$", README.read_text(), re.M)
    assert rows, "README has no library table"
    missing = [f"{module}.{name}" for module, contents in rows
               for name in re.findall(r"`(\w+)`", contents)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the library table names what does not exist: {missing}"
