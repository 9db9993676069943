"""The library holds only code that the library itself runs."""
import ast
from collections import Counter
from pathlib import Path

import asdist

SRC = Path(asdist.__file__).resolve().parent
LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# the attribute paths ("main", "TruncatedSeries.pow", ...) in the benchmark's
# TRACED list, read without importing it: library code while it traces them
ENTRY_POINTS = {
    path
    for node in ast.parse(LAYERS.read_text()).body
    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    for _, _, path in ast.literal_eval(node.value)
}


def _statements() -> list:
    """(module, top-level statement) of each src/asdist module but __init__."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            out += [(path.stem, node) for node in tree.body]
    return out


def _names(node) -> set:
    """The names that `node`'s code uses: ast.Name ids, ast.Attribute
    attributes and import aliases, but no text inside a string."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
            if sub.asname:
                out.add(sub.asname)
    return out


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_top_level_definition_is_used_by_the_library():
    """Every top-level function or class of each module of src/asdist but
    __init__.py is named in the code of some other top-level statement of
    those modules, or the benchmark traces it.  Code that only the tests
    use belongs in tests/reference_impl.py.

    The match is by name only, so a name that several modules use for
    different things can hide an unused definition: dirichlet imports
    series.mul as poly_mul, the name of oracle's polynomial product over
    GF."""
    statements = _statements()
    used = [_names(node) for _, node in statements]
    unused = [
        f"{module}.{node.name}"
        for k, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in ENTRY_POINTS
        and not any(node.name in names for m, names in enumerate(used) if m != k)
    ]
    assert not unused, unused


def test_every_method_is_used_by_the_library():
    """Every method or property of a top-level class of src/asdist, dunders
    aside, is used as an attribute (`x.name`) somewhere in those modules
    outside its own body, or the benchmark traces it.  A local variable or
    an imported function of the same name does not count.

    The rule cannot see operators: `a * b` calls __mul__ without naming it,
    so dunders are not checked.  Nor can it tell whose attribute a name is,
    so an unused method hides behind any attribute of the same name:
    `gf.one` would keep a `TruncatedSeries.one`, and `gf.pow` and `gf.mul`
    keep the traced `TruncatedSeries` methods of those names even once the
    benchmark stops tracing them."""
    statements = _statements()
    total = sum((_attributes(node) for _, node in statements), Counter())
    unused = [
        f"{module}.{node.name}.{item.name}"
        for module, node in statements if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and f"{node.name}.{item.name}" not in ENTRY_POINTS
        and total[item.name] == _attributes(item)[item.name]
    ]
    assert not unused, unused
