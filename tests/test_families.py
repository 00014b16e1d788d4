"""The family registry is the one place that describes a family."""
import ast
import json
from importlib import resources
from pathlib import Path

import pytest

import stabwit
from stabwit.families import FAMILIES

FAMILY_NAMES = {"ghz", "cluster"}
REGISTRY_MODULE = "families.py"


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def test_family_names_appear_only_in_the_registry():
    offenders = []
    for path in sorted(Path(stabwit.__file__).parent.glob("*.py")):
        if path.name == REGISTRY_MODULE:
            continue
        tree = ast.parse(path.read_text())
        docs = {id(node) for node in _docstrings(tree)}
        offenders += [f"{path.name}:{node.lineno} {node.value!r}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value in FAMILY_NAMES and id(node) not in docs]
    assert offenders == []


@pytest.mark.parametrize("schema", ["bisep_report", "threshold_report"])
def test_schemas_list_exactly_the_registered_families(schema):
    doc = json.loads(resources.files("stabwit")
                     .joinpath(f"schemas/{schema}.schema.json").read_text())
    assert sorted(doc["properties"]["family"]["enum"]) == sorted(FAMILIES)
