"""Every module-level def and class in `src/chanstruct`, and every method
and property of its classes, has a caller, every dataclass field there a
reader, no module but `numerics` writes out a threshold (each reads a
level of `Tolerances`), and none forms a dense Kronecker product with
`np.kron`.

A name counts as used when it is referenced, other than inside its own
definition, somewhere in `src/chanstruct` or `tools/`, or when a module-
level name is exported in `chanstruct.__all__`.  A method is matched by
its name alone, whatever the object it is called on; dunder methods are
called by Python and do not count.  A field counts as read when some
statement of `src/chanstruct` or `tools/` loads it as an attribute
(``x.field``); passing it to the constructor does not count.  Tests do not
count: a routine or a field that only the tests read is an oracle and
belongs in `tests/conftest.py`.
"""

import ast
from pathlib import Path

import chanstruct

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chanstruct").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "tools").glob("*.py"))


def _names(node):
    """Names that ``node`` references: loads, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _units(path):
    """(nodes, own names) of each top-level statement of the module at
    ``path``; a class is split into its header and its members, so that
    neither a member's references to itself nor the class's count."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt.bases + stmt.keywords + stmt.decorator_list, set()
            for item in stmt.body:
                yield [item], {stmt.name, getattr(item, "name", None)}
        else:
            yield [stmt], {getattr(stmt, "name", None)}


def unused_definitions(sources, callers, exported):
    """(module, name) of each top-level def or class, and (module,
    "Class.name") of each non-dunder method or property of a top-level
    class, in ``sources`` that no statement of ``callers`` references by
    name outside its own definition."""
    defined, used = [], set(exported)
    for path in callers:
        for nodes, own in _units(path):
            used.update(n for node in nodes for n in _names(node)
                        if n not in own)
    for path in sources:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defined += [(path.stem, f"{stmt.name}.{item.name}", item.name)
                            for item in stmt.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
    return [(mod, label) for mod, label, name in defined if name not in used]


def test_every_definition_in_src_has_a_caller():
    assert unused_definitions(SOURCES, CALLERS, chanstruct.__all__) == []


def test_a_definition_without_a_caller_is_flagged(tmp_path):
    # a recursive function refers only to itself
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\n"
                   "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
                   "class Exported:\n    pass\n")
    app = tmp_path / "app.py"
    app.write_text("from lib import used\n\nprint(used())\n")
    assert unused_definitions([lib], [lib, app], ["Exported"]) == [
        ("lib", "lonely")]


def test_a_method_without_a_caller_is_flagged(tmp_path):
    # a method that only calls itself and a property that nothing reads;
    # a dunder method, and a method called on any object, count as used
    lib = tmp_path / "lib.py"
    lib.write_text("class Space:\n"
                   "    def __init__(self, n):\n        self.n = n\n\n"
                   "    def used(self):\n        return self.n\n\n"
                   "    def lonely(self, k):\n"
                   "        return self.lonely(k - 1) if k else 0\n\n"
                   "    @property\n    def unread(self):\n        return 1\n")
    app = tmp_path / "app.py"
    app.write_text("from lib import Space\n\nprint(Space(2).used())\n")
    assert unused_definitions([lib], [lib, app], []) == [
        ("lib", "Space.lonely"), ("lib", "Space.unread")]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(sources, callers):
    """(module, class, field) of each annotated field of a top-level
    dataclass in ``sources`` that no statement of ``callers`` loads as an
    attribute."""
    fields, read = [], set()
    for path in callers:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    for path in sources:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt):
                fields += [(path.stem, stmt.name, item.target.id)
                           for item in stmt.body
                           if isinstance(item, ast.AnnAssign)]
    return [field for field in fields if field[2] not in read]


def test_every_dataclass_field_in_src_is_read():
    assert unread_fields(SOURCES, CALLERS) == []


def test_a_field_only_constructed_is_flagged(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("from dataclasses import dataclass\n\n\n"
                   "@dataclass(frozen=True)\n"
                   "class Report:\n    value: int\n    extra: int\n\n\n"
                   "def make():\n    return Report(value=1, extra=2)\n")
    app = tmp_path / "app.py"
    app.write_text("from lib import make\n\nprint(make().value)\n")
    assert unread_fields([lib], [lib, app]) == [("lib", "Report", "extra")]


def small_float_literals(sources):
    """(module, line, value) of each float literal in (0, 1e-3) in
    ``sources``: a threshold written out rather than read from a level of
    ``Tolerances``."""
    return [(path.stem, node.lineno, node.value) for path in sources
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float) and 0 < node.value < 1e-3]


def test_thresholds_outside_numerics_are_tolerance_levels():
    # numerics holds the default eq_tol and GRAM_CANDIDATE_CUTOFF
    assert small_float_literals(
        [p for p in SOURCES if p.name != "numerics.py"]) == []


def test_a_written_out_threshold_is_flagged(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def ok(x, tol):\n    return x < tol.check_tol * 1e3\n\n\n"
                   "def bad(x):\n    return -1e-9 < x < 0.5 * 1e-7\n")
    assert small_float_literals([lib]) == [("lib", 6, 1e-9), ("lib", 6, 1e-7)]


def kron_calls(sources):
    """(module, line) of each use of ``np.kron`` in ``sources``: a dense
    Kronecker product, where the code holds a Kronecker sum by its split
    (``numerics.kron_blocks``) or applies its factors."""
    return [(path.stem, node.lineno) for path in sources
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "kron"]


def test_no_dense_kronecker_product_in_src():
    assert kron_calls(SOURCES) == []


def test_a_dense_kronecker_product_is_flagged(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("import numpy as np\n\n\n"
                   "def gram(S, eye):\n"
                   "    return np.kron(S.T, eye) + kron_blocks(S, eye)\n")
    assert kron_calls([lib]) == [("lib", 5)]
