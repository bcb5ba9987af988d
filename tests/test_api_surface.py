"""Every defaulted parameter of a public function has a caller that sets it.

A parameter with a default that no call in ``src/``, ``bench/`` or ``demos/``
passes has one value in use and belongs in the function body as a constant.
The fields of public dataclasses count as their constructors' parameters.
Tests do not count as callers.  The check is by name: a call ``f(...)`` or
``obj.f(...)`` counts for every public function or method named ``f``, and a
call that splats ``**kwargs`` counts as passing every parameter it could.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oscint"
CALLER_DIRS = ("src", "bench", "demos")

FAMILY_META = ("a family's structural claim: how a user declares the hypothesis "
               "of a phase the family's default does not describe")
# (module, function, parameter) -> why it stays without an in-repo caller
ALLOWED = {
    ("phases", "monomial", "meta"): FAMILY_META,
    ("phases", "polynomial_phase", "meta"): FAMILY_META,
    ("phases", "sine", "meta"): FAMILY_META,
    ("phases", "exponential", "meta"): FAMILY_META,
    ("phases", "monomial_sin", "meta"): FAMILY_META,
    ("phases", "closure_phase", "meta"): FAMILY_META,
    ("phases", "closure_phase", "name"):
        "labels a user's own phase in error messages; the generic form has no other name",
}


def _dataclass_fields(cls: ast.ClassDef) -> tuple[list[str], list[str]]:
    """(constructor parameters, the defaulted ones) of a dataclass; private
    fields and ``field(init=False)`` are not parameters."""
    params, defaulted = [], []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        default = ast.unparse(item.value) if item.value is not None else None
        if item.target.id.startswith("_") or "init=False" in (default or ""):
            continue
        params.append(item.target.id)
        if default is not None:
            defaulted.append(item.target.id)
    return params, defaulted


def _defaulted(fn: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """(positional parameter names, names of the defaulted ones)."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    with_default = positional[len(positional) - len(a.defaults):] if a.defaults else []
    with_default += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, with_default


def _signatures():
    """(module, qualified name, called name, positional parameters, defaulted
    parameters) of public functions, public methods and the constructors of
    public dataclasses."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield (path.stem, node.name, node.name, *_defaulted(node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    yield (path.stem, node.name, node.name, *_dataclass_fields(node))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (path.stem, f"{node.name}.{item.name}", item.name,
                               *_defaulted(item))


def _calls():
    """Every call in the caller trees, as (called name, n positional, keywords, splat)."""
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                kws = {k.arg for k in node.keywords if k.arg is not None}
                splat = any(k.arg is None for k in node.keywords)
                yield name, (None if starred else len(node.args)), kws, splat


def unset_parameters() -> set[tuple[str, str, str]]:
    calls: dict[str, list] = {}
    for name, n_pos, kws, splat in _calls():
        calls.setdefault(name, []).append((n_pos, kws, splat))
    unset = set()
    for module, qualname, short, positional, defaulted in _signatures():
        for param in defaulted:
            idx = positional.index(param) if param in positional else None
            if not any(splat or param in kws
                       or (idx is not None and (n_pos is None or n_pos > idx))
                       for n_pos, kws, splat in calls.get(short, ())):
                unset.add((module, qualname, param))
    return unset


def test_every_defaulted_parameter_has_a_caller():
    unset = unset_parameters() - set(ALLOWED)
    assert not unset, "defaulted parameters no caller sets: " + ", ".join(
        f"{m}.{f}({p}=)" for m, f, p in sorted(unset))


def test_allow_list_is_current():
    # an entry whose parameter gained a caller, or is gone, should leave the list
    stale = set(ALLOWED) - unset_parameters()
    assert not stale, f"allow-list entries no longer needed: {sorted(stale)}"


# os.environ, os.environb, os.getenv and os.getenvb, however os is imported
ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    """A setting read from the environment is a knob no signature or config
    shows; every input reaches oscint through arguments and configs."""
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            reads += [f"{path.name}:{node.lineno} {n}" for n in names if n in ENV_READS]
    assert not reads, "environment reads: " + ", ".join(reads)
