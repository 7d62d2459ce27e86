"""No module of the package imports another module's underscore name.

A helper whose name starts with an underscore belongs to its module; a
second module that needs it should get a public name for it instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contractgame"


def _imports(tree):
    """(module, name) per name of each import in the tree, at any depth;
    the module is dotted, relative ones with their leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def _in_package(module: str) -> bool:
    return module.startswith(".") or module.split(".")[0] == "contractgame"


def test_no_module_imports_an_underscore_name_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    own = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, name in _imports(tree):
            if not _in_package(module):
                continue
            own.append((path.name, module, name))
            parts = [p for p in module.split(".") if p] + ([name] if name else [])
            private = [p for p in parts if p.startswith("_")]
            assert not private, f"{path.name} imports {private} from {module or '.'}"
    # the package's modules do import each other, so the check has something to see
    assert len(own) > 20, own
