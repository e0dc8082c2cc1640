"""The package's public surface is what it consumes.

Every public top-level function and public method in ``src/uscmem`` must
be referenced somewhere in the package, as a name or an attribute, or be
one of the few library entry points below. A helper only tests call
belongs in ``tests/reference.py``, not in the package.
"""
import ast
from pathlib import Path

import uscmem

PACKAGE = Path(uscmem.__file__).parent

# Entry points the package itself never calls, each with its consumer.
LIBRARY_ENTRY_POINTS = {
    "roundtrip_run": "the library round trip; README usage and the acceptance fixtures",
    "physical_time": "protocol time in seconds; an acceptance criterion",
    "beam_splitter": "two-mode interference; an acceptance criterion",
    "two_mode_index": "addresses the beam splitter's two-mode states",
    "two_mode_vacuum": "the beam splitter's two-mode input",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and public methods of public classes."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_"))
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded and attributes read; re-exports in import lists do not count."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_public_function_is_consumed():
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update((name, path.name) for name in _public_definitions(tree))
        referenced |= _referenced_names(tree)
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name.rpartition(".")[2] not in referenced
                    and name not in LIBRARY_ENTRY_POINTS)
    assert not unused, "no caller in the package: " + ", ".join(unused)


def test_library_entry_points_exist():
    for name in LIBRARY_ENTRY_POINTS:
        assert callable(getattr(uscmem, name)), name
