"""The library holds only code that the library itself runs."""
import ast
from pathlib import Path

import asdist

SRC = Path(asdist.__file__).resolve().parent

# top-level names that no other statement of the library uses but that are
# still library code
ENTRY_POINTS = {
    "principal_parts",  # bench/layers.py traces it
    "zeta_factor_rational",  # bench/layers.py traces it
    "enumerate_classes",  # bench/layers.py traces it
}


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


def test_every_top_level_definition_is_used_by_the_library():
    """Every top-level function or class of each module of src/asdist but
    __init__.py is named in the code of some other top-level statement of
    those modules, or is one of ENTRY_POINTS.  Code that only the tests use
    belongs in tests/reference_impl.py.

    The match is by name only, so a name that several modules use for
    different things can hide an unused definition: dirichlet imports
    series.mul as poly_mul, the name a polynomial product over GF once had
    in oracle."""
    statements = []  # (module, top-level statement)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            statements += [(path.stem, node) for node in tree.body]
    used = [_names(node) for _, node in statements]
    unused = [
        f"{module}.{node.name}"
        for k, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in ENTRY_POINTS
        and not any(node.name in names for m, names in enumerate(used) if m != k)
    ]
    assert not unused, unused
