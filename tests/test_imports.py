"""No unused module-level imports in the package or the tests, no
exception class in ``rc2.errors`` that the package neither raises nor
catches, no module-level private function or class in the package that
the package never references, no module-level public function or class
in the package that no module or README word names, no defaulted
parameter in the package that no caller passes, and no dataclass field
default in the package that every construction overrides.

No linter is installed, so these stdlib scans stand in for one.  Exempt from
the import scan are the package's ``__init__``, whose imports are its public
re-exports, and ``from __future__`` imports, which are compiler directives.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path
    for folder in ("src/rc2", "tests")
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


def calls_by_name(callers: list[str]) -> dict[str, list[ast.Call]]:
    """Every call in ``callers``, by the name or attribute it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Does ``call`` pass ``param``, by keyword or at position ``index``?  A
    call with ``*`` or ``**`` arguments passes them all."""
    return (
        any(k.arg in (param, None) for k in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (index is not None and len(call.args) > index)
    )


def unpassed_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function.parameter`` of each defaulted parameter of a function
    in ``package`` (module name -> source) that no call in ``callers`` passes,
    by keyword or by position.

    Calls match by name: a function's own, or its class's for an
    ``__init__``.  A method's position count skips ``self`` unless it is a
    ``staticmethod``.
    """
    calls = calls_by_name(callers)
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
                if not any(passes(call, param, index) for call in calls.get(name, [])):
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


PACKAGE = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "rc2").glob("*.py"))}
# Every call the package's defaults and fields are checked against.
CALLERS = [
    path.read_text()
    for folder in ("src/rc2", "tests", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
]


def test_every_default_is_passed_somewhere():
    assert unpassed_defaults(PACKAGE, CALLERS) == []


def overridden_field_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module.Class.field`` of each defaulted field of a dataclass in
    ``package`` (module name -> source) that every construction in
    ``callers`` passes, by keyword or by position.

    Constructions match by the class name; a class that nothing constructs
    is not flagged.  A field's position counts the class's own fields.
    """
    calls = calls_by_name(callers)
    found: list[str] = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            # ``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``.
            decorators = [getattr(d, "func", d) for d in node.decorator_list]
            if "dataclass" not in [getattr(d, "id", getattr(d, "attr", None)) for d in decorators]:
                continue
            fields = [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            constructions = calls.get(node.name, [])
            for index, item in enumerate(fields):
                if item.value is not None and constructions and all(
                    passes(call, item.target.id, index) for call in constructions
                ):
                    found.append(f"{module}.{node.name}.{item.target.id}")
    return found


def test_the_scan_finds_field_defaults_every_construction_overrides():
    package = {
        "a": (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class P:\n"
            "    x: int\n"
            "    y: int = 0\n"
            "    z: list = field(default_factory=list)\n"
            "    w: int = 1\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Q:\n"
            "    k: int = 0\n"
            "@dataclass\n"
            "class Unbuilt:\n"
            "    u: int = 0\n"
            "class Plain:\n"
            "    v: int = 0\n"
        )
    }
    callers = ["P(1, 2, z=[])\nP(1, 2, [], w=3)\nm.P(*args)\nm.Q(k=1)\nQ()\nPlain(v=1)\n"]
    assert overridden_field_defaults(package, callers) == ["a.P.y", "a.P.z"]


def test_no_field_default_is_overridden_by_every_construction():
    assert overridden_field_defaults(PACKAGE, CALLERS) == []


def unnamed_public_definitions(package: dict[str, str], readme: str) -> list[str]:
    """``module.name`` of each module-level public function or class in
    ``package`` (module name -> source) that no package module reads by name
    or as an attribute, and that ``readme`` does not name as a whole word."""
    defined: list[str] = []
    read: set[str] = set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, source in package.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, kinds) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    read.update(re.findall(r"\w+", readme))
    return [name for name in defined if name.partition(".")[2] not in read]


def test_the_scan_finds_unnamed_public_definitions():
    package = {
        "a": "def used(): pass\nclass Dead: pass\ndef documented(): pass\ndef _private(): pass\n",
        "b": "from a import used\nused()\nm.by_attribute()\ndef by_attribute(): pass\n",
        "c": "def dead(): pass\n",
    }
    readme = "Call `documented()`; a dead_end names no helper.\n"
    assert unnamed_public_definitions(package, readme) == ["a.Dead", "c.dead"]


def test_every_public_definition_is_named():
    """A public helper that no module or README word names is dead."""
    package = {
        path.stem: path.read_text()
        for path in sorted((ROOT / "src" / "rc2").glob("*.py"))
        if path.name != "__init__.py"
    }
    readme = (ROOT / "README.md").read_text()
    assert unnamed_public_definitions(package, readme) == []
