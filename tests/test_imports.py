"""No unused module-level imports in the package, the tests or the scripts,
no exception class in ``rc2.errors`` that the package neither raises nor
catches, no module-level private function or class in the package that
the package never references, and no defaulted parameter in the package
that no caller passes.

No linter is installed, so these stdlib scans stand in for one.  Exempt from
the import scan are the package's ``__init__``, whose imports are its public
re-exports, and ``from __future__`` imports, which are compiler directives.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path
    for folder in ("src/rc2", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path != ROOT / "src" / "rc2" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unused_names():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def raised_or_caught(source: str) -> set[str]:
    """Names of the exceptions a module raises or names in an ``except``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names |= {exc.id} if isinstance(exc, ast.Name) else set()
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names |= {t.id for t in types if isinstance(t, ast.Name)}
    return names


def test_the_scan_finds_raised_and_caught_names():
    source = "try:\n    raise A('x')\nexcept (B, C):\n    raise\nexcept D as e:\n    raise E from e\n"
    assert raised_or_caught(source) == {"A", "B", "C", "D", "E"}


def test_every_error_class_is_raised_or_caught():
    package = ROOT / "src" / "rc2"
    defined = [
        node.name
        for node in ast.parse((package / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    used = set().union(*(raised_or_caught(path.read_text()) for path in package.glob("*.py")))
    assert "Rc2Error" in defined
    assert [name for name in defined if name not in used] == []


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_private`` function or class
    that no module in ``sources`` (module name -> source) reads by name or
    as an attribute."""
    defined: list[str] = []
    read: set[str] = set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, kinds) and node.name.startswith("_") and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name.partition(".")[2] not in read]


def test_the_scan_finds_unreferenced_private_definitions():
    sources = {
        "a": "def _used(): pass\nclass _Dead: pass\ndef _dead(): pass\ndef public(): pass\n",
        "b": "from a import _used\n_used()\nm._by_attribute()\ndef _by_attribute(): pass\n",
    }
    assert unreferenced_private_definitions(sources) == ["a._Dead", "a._dead"]


def test_every_private_definition_is_referenced():
    package = ROOT / "src" / "rc2"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def unpassed_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function.parameter`` of each defaulted parameter of a function
    in ``package`` (module name -> source) that no call in ``callers`` passes,
    by keyword or by position.

    Calls match by name: a function's own, or its class's for an
    ``__init__``.  A method's position count skips ``self`` unless it is a
    ``staticmethod``.  A call with ``*`` or ``**`` arguments passes them all.
    """
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found: list[str] = []
    for module, source in package.items():
        tree = ast.parse(source)
        owner = {
            item: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, kinds)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, kinds):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            positional = positional[1:] if fn in owner and not static else positional
            first_default = len(positional) - len(fn.args.defaults)
            defaulted = [(a, i) for i, a in enumerate(positional) if i >= first_default]
            keyword_only = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            defaulted += [(a.arg, None) for a, d in keyword_only if d is not None]
            name = owner.get(fn) if fn.name == "__init__" else fn.name
            label = f"{module}.{owner[fn]}.{fn.name}" if fn in owner else f"{module}.{fn.name}"
            for param, index in defaulted:
                if not any(
                    any(k.arg in (param, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index)
                    for call in calls.get(name, [])
                ):
                    found.append(f"{label}.{param}")
    return found


def test_the_scan_finds_defaults_no_call_passes():
    package = {
        "a": (
            "def f(x, y=1, z=2, *, w=3): pass\n"
            "def g(x=0): pass\n"
            "class C:\n"
            "    def __init__(self, a=0, b=0): pass\n"
            "    def m(self, k=0): pass\n"
            "    @staticmethod\n"
            "    def s(k=0): pass\n"
        )
    }
    callers = ["f(1, 2)\nf(0, w=1)\ng(*xs)\nC(b=1)\nobj.m(5)\nC.s()\n"]
    assert unpassed_defaults(package, callers) == ["a.f.z", "a.C.__init__.a", "a.C.s.k"]


def test_every_default_is_passed_somewhere():
    package = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "rc2").glob("*.py"))}
    callers = [
        path.read_text()
        for folder in ("src/rc2", "tests", "scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unpassed_defaults(package, callers) == []
