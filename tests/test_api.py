"""The package exports only what its own code, scripts and benchmark use."""
import ast
import types
from pathlib import Path

import stabwit

PACKAGE = Path(stabwit.__file__).parent
ROOT = PACKAGE.parents[1]


def _names_used(path):
    """Every name a file reads, imports or reaches as an attribute.

    A ``def`` or ``class`` line binds its name without using it.  A
    module-level constant read only by the module that assigns it is an
    implementation detail, so reads in the assigning file do not count.
    """
    tree = ast.parse(path.read_text())
    used, assigned = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned |= {t.id for t in targets if isinstance(t, ast.Name)}
    return used - assigned


def test_every_export_has_a_caller_outside_the_tests():
    files = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
             + sorted((ROOT / "scripts").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    used = set().union(*map(_names_used, files))
    exported = [name for name in stabwit.__all__
                if not isinstance(getattr(stabwit, name), types.ModuleType)]
    unused = sorted(set(exported) - used)
    assert not unused, f"exported, but only the tests use {unused}"
