"""Every oscillatory 1D integral runs through ``quadrature._pieces_integral``.

The stages that it chains (Levin collocation, its halving loop, which also
cuts the swing panels, the panel rule and the refiner) are ``quadrature``'s
own: no other module in ``src/oscint`` imports them, so a caller cannot
build a chain of its own beside the shared one.  Each listed stage must
still be defined there, so the list cannot name a stage that is gone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oscint"
STAGES = {"_levin", "_levin_halving", "_kronrod", "_refine"}


def _imported_names(tree: ast.Module):
    """(line, name) of each name an import statement binds, and of each
    attribute read off an imported module (``quadrature._levin``)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name).split(".")[-1] for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield node.lineno, node.attr


def test_no_module_but_quadrature_uses_the_pipeline_stages():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "quadrature.py"
             for line, name in _imported_names(ast.parse(path.read_text(), filename=str(path)))
             if name in STAGES]
    assert not found, found


def test_every_stage_is_defined_in_quadrature():
    tree = ast.parse((PACKAGE / "quadrature.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert STAGES <= defined, sorted(STAGES - defined)
