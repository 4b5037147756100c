import ast
import importlib.util
import pathlib
import pkgutil

import pytest

import coopcast

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(coopcast.__path__))
ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*ROOT.glob("src/coopcast/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_lists_only_defined_names(name):
    # A function deleted from a module must not stay in its __all__.
    module = importlib.import_module(f"coopcast.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (nor lists in ``__all__``)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # string annotations and __all__ entries
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value.strip('"'))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert _unused_imports("import os\nimport math as m\nprint(m.pi)\n") == ["os (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_imports(source: str) -> list[str]:
    """``_``-prefixed names a module imports from a ``coopcast`` module."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "coopcast")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_are_found():
    source = "from .a import _x, y\nfrom coopcast.b import _z\nfrom os import _exit\n"
    assert _private_imports(source) == ["_x (line 1)", "_z (line 2)"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/coopcast/*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # A module's _-prefixed names are its own: another module that needs one
    # needs a public name.
    assert _private_imports(path.read_text()) == []


def _imported_submodules(source: str) -> set[str]:
    """The ``coopcast`` submodules a module imports, at any depth of its
    syntax tree, so that an import inside a function counts."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["coopcast" if node.level else "", node.module]))
            names = [alias.name for alias in node.names] if base == "coopcast" else []
            modules = [base, *(f"{base}.{name}" for name in names)]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("coopcast."))
    return found & set(SUBMODULES)


def test_imported_submodules_are_found():
    source = (
        "import coopcast.bounds\nfrom .intervals import Interval\n"
        "def f():\n    from . import broadcast, no_such_module\n"
    )
    assert _imported_submodules(source) == {"bounds", "intervals", "broadcast"}


def test_every_submodule_is_reachable_from_the_cli():
    # A module that the command line never imports, directly or through
    # another module, serves no command: it is dead code.
    reached, pending = set(), ["cli"]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(_imported_submodules((ROOT / f"src/coopcast/{name}.py").read_text()))
    assert sorted(set(SUBMODULES) - reached) == []


def test_perfbench_tracer_finds_every_function_it_wraps():
    # The benchmark's tracer wraps each function under the module attribute
    # its caller looks it up by (the reception kernels under ``broadcast``),
    # and skips any it cannot find.  Moving such a lookup must fail here.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench/tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = [importlib.import_module(f"coopcast.{name}") for name in SUBMODULES]
    before = [(module, dict(vars(module))) for module in modules]
    tracer = tracer_module.Tracer()
    wrapped = []
    try:
        tracer_module.install_tracer(tracer)
    finally:
        for module, attrs in before:
            for name, value in attrs.items():
                if getattr(module, name) is not value:
                    wrapped.append(f"{module.__name__}.{name}")
                    setattr(module, name, value)
    assert tracer.missing == []
    assert "coopcast.broadcast.received_phasor" in wrapped
