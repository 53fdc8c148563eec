import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "f2qec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the lints of unused imports and unread private names also cover the tests
LINTED = MODULES + sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, annotations included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations such as "BitMatrix" name their types too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted(name for name in imported if name not in used)


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import comb, sqrt\nprint(sqrt(2))\n") == [
        "comb", "os"]
    assert unused_imports("from a import B\nx: 'B' = 1\n") == []


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_names(source: str) -> set[str]:
    """Names a module defines at its top level: functions, classes and assigned names."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return defined


def unread_private_names(source: str) -> list[str]:
    """Module-level _names (functions, classes, assignments) that the module never reads."""
    read = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in module_names(source)
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_unread_private_name_is_found():
    source = "_A = 1\n_B, C = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n"
    assert unread_private_names(source) == ["_B", "_K", "_f"]
    assert unread_private_names("__all__ = []\n_x: int = 1\nprint(_x)\n") == []


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_package_all_is_exactly_its_imports():
    import f2qec

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(f2qec.__all__) == sorted(imported)
    assert len(set(f2qec.__all__)) == len(f2qec.__all__)
    for name in f2qec.__all__:
        assert getattr(f2qec, name) is not None, name


ROOT = SRC.parent.parent
# the tests do not count as readers: a name that only they read is dead code
# too, unless it is one of the independent oracles that they check against
READERS = sorted(p for folder in (SRC, ROOT / "perfbench") for p in folder.rglob("*.py"))
ORACLES = {"noisy_expansion"}
# the documented reader of the circuit text that emit-circuit writes, half
# of the one circuit-text syntax, though no code path reads a circuit file
MEMBER_EXCEPTIONS = {"Circuit.from_text"}


def public_names(source: str) -> set[str]:
    """Module-level names without a leading _."""
    return {name for name in module_names(source) if not name.startswith("_")}


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and names it imports from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_public_name_reads_are_found():
    assert public_names("A = 1\n_b = 2\ndef f():\n    pass\nclass K:\n    pass\n") == {"A", "f", "K"}
    assert read_names("from m import f\nx = m.K\nA = 1\n") == {"f", "m", "K"}


def public_members(source: str) -> set[str]:
    """Class.name for each def without a leading _ in the body of a module-level
    class without one: methods, properties, classmethods and staticmethods."""
    return {f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def attribute_reads(source: str) -> set[str]:
    """Attribute names a module reads, as in obj.name."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_members(source: str, read: set[str]) -> list[str]:
    """public_members whose name is not in read, but for MEMBER_EXCEPTIONS."""
    return sorted(m for m in public_members(source) - MEMBER_EXCEPTIONS
                  if m.split(".")[1] not in read)


def test_unread_public_members_are_found():
    source = ("class K:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
              "    @property\n    def shape(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "class _P:\n    def error(self):\n        pass\n"
              "def f(k):\n    return k.used()\n")
    assert public_members(source) == {"K.used", "K.unused", "K.shape"}
    assert unread_members(source, attribute_reads(source)) == ["K.shape", "K.unused"]
    # a bare name is not an attribute read
    assert attribute_reads("shape = 1\nprint(shape, k.used)\nk.unused = 2\n") == {"used"}


def test_every_public_name_is_read():
    # a public name that nothing in the package or its benchmark reads is
    # dead code: delete it rather than keep it for a caller to come
    read = set().union(ORACLES, *(read_names(p.read_text()) for p in READERS))
    unread = {path.name: sorted(public_names(path.read_text()) - read) for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}
    # and the same for each public method, property, classmethod or
    # staticmethod of a public class, which is read as an attribute
    attributes = set().union(*(attribute_reads(p.read_text()) for p in READERS))
    unread = {path.name: unread_members(path.read_text(), attributes) for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}
    assert MEMBER_EXCEPTIONS <= set().union(*(public_members(p.read_text()) for p in MODULES))
    # each oracle is still defined, and the tests read it
    tests = set().union(*(read_names(p.read_text()) for p in (ROOT / "tests").glob("*.py")))
    defined = set().union(*(public_names(path.read_text()) for path in MODULES))
    assert ORACLES <= defined & tests


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter, since pytest itself imports dataclasses; numpy and
    # the standard modules that the package imports are loaded first, so
    # only what the package's own import adds is checked
    nodes = [node for path in MODULES for node in ast.walk(ast.parse(path.read_text()))]
    used = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    used |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
    script = (f"import json, sys\nfor name in {sorted(used - {'dataclasses'})!r}:\n"
              "    __import__(name)\n"
              "before = set(sys.modules)\n"
              "import f2qec.cli\n"
              "print(json.dumps(['dataclasses' in before, sorted(set(sys.modules) - before)]))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    preloaded, added = json.loads(out)
    assert not preloaded and "f2qec.cli" in added and "dataclasses" not in added
