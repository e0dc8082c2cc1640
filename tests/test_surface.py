"""The package's public surface is what it consumes.

Every public top-level function and public method in ``src/uscmem`` must
be referenced somewhere in the package, or be one of the few library entry
points below. A function counts when it is loaded as a name or read as an
attribute; a method only when it is read as an attribute of something
other than an imported module. A helper only tests call
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


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names loaded, and attributes read off anything but an imported module.

    A method counts as consumed only through an attribute read, so a local
    variable of the same name does not hide it, and neither does an
    attribute of a module such as ``np.linalg.norm``. Re-exports in import
    lists count as neither.
    """
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_function_is_consumed():
    defined, names, attrs = {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update((name, path.name) for name in _public_definitions(tree))
        tree_names, tree_attrs = _references(tree)
        names |= tree_names
        attrs |= tree_attrs

    def consumed(name):
        owner, _, attr = name.rpartition(".")
        return attr in attrs or (not owner and name in names)

    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if not consumed(name) and name not in LIBRARY_ENTRY_POINTS)
    assert not unused, "no caller in the package: " + ", ".join(unused)


def test_library_entry_points_exist():
    for name in LIBRARY_ENTRY_POINTS:
        assert callable(getattr(uscmem, name)), name
