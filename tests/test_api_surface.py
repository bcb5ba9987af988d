"""Every defaulted parameter of a public function has a caller that sets it.

A parameter with a default that no call in ``src/``, ``bench/`` or ``demos/``
passes has one value in use and belongs in the function body as a constant.
The fields of public dataclasses count as their constructors' parameters.
Tests do not count as callers.  The check is by name: a call ``f(...)`` or
``obj.f(...)`` counts for every public function or method named ``f``, and a
call that splats ``**kwargs`` counts as passing every parameter it could.  An
argument whose literal value equals the parameter's default does not count, as
it restates the one value in use; nor does a keyword that copies the
same-named attribute of another object (``beta=phase.beta``), as it passes on
a value set elsewhere.
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


def _literal(node: ast.expr):
    """The value of a literal expression; anything else gets a fresh object,
    equal to no other value."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return object()


def _dataclass_fields(cls: ast.ClassDef) -> tuple[list[str], dict]:
    """(constructor parameters, {defaulted one: its default}) of a dataclass;
    private fields and ``field(init=False)`` are not parameters."""
    params, defaulted = [], {}
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        default = ast.unparse(item.value) if item.value is not None else None
        if item.target.id.startswith("_") or "init=False" in (default or ""):
            continue
        params.append(item.target.id)
        if default is not None:
            defaulted[item.target.id] = _literal(item.value)
    return params, defaulted


def _defaulted(fn: ast.FunctionDef) -> tuple[list[str], dict]:
    """(positional parameter names, {defaulted one: its default})."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    defaulted = dict(zip(positional[len(positional) - len(a.defaults):],
                         map(_literal, a.defaults))) if a.defaults else {}
    defaulted.update((p.arg, _literal(d)) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                     if d is not None)
    return positional, defaulted


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
    """Every call in the caller trees, as (called name, positional values or
    None when one is starred, {keyword: value}, splat); values as ``_literal``."""
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
                pos = None if starred else [_literal(a) for a in node.args]
                kws = {k.arg: _literal(k.value) for k in node.keywords if k.arg is not None
                       and not (isinstance(k.value, ast.Attribute) and k.value.attr == k.arg)}
                splat = any(k.arg is None for k in node.keywords)
                yield name, pos, kws, splat


def _sets(param, idx, default, pos, kws, splat) -> bool:
    """Whether one call passes ``param`` (positional index ``idx`` or None)
    a value other than its default."""
    if splat or (idx is not None and pos is None):
        return True
    if param in kws:
        return kws[param] != default
    return idx is not None and idx < len(pos) and pos[idx] != default


def unset_parameters() -> set[tuple[str, str, str]]:
    calls: dict[str, list] = {}
    for name, *call in _calls():
        calls.setdefault(name, []).append(call)
    unset = set()
    for module, qualname, short, positional, defaulted in _signatures():
        for param, default in defaulted.items():
            idx = positional.index(param) if param in positional else None
            if not any(_sets(param, idx, default, *call) for call in calls.get(short, ())):
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
