"""Source-level invariants, checked with `ast`: the package does no
`fractions` arithmetic, the category, presheaf and site layers enumerate
through `fincat.assignments` and not `itertools.product`, the morphism
and module checks test whole matrices instead of mapping elements one at
a time, only `catalog` and `cli` read or write JSON, no module imports a
name it never uses, and `cli.main` catches only the package's own
exceptions and file errors.  Two guards import the package instead: every
AST node class is in the child table that every walk over formulas reads,
and every exception class is of exactly one `GroundworkError` kind."""
import ast
import dataclasses
import importlib
import pathlib

import pytest

from groundwork import (Failure, GroundworkError, InputError, ResourceCap,
                        mttchk)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groundwork"
MODULES = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def unused_imports(tree):
    """Names bound by an import that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def product_uses(tree):
    """Lines that reach `itertools.product`, by attribute or by import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "product" and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "itertools":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and \
                node.module == "itertools" and \
                any(a.name == "product" for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


ELEMENTWISE = ("normal_form", "apply", "act")


def elementwise_calls(tree, qualname):
    """Lines where the function `qualname` ("f" or "Class.f") calls
    normal_form, apply or act, as a method or by name."""
    *owner, name = qualname.split(".")
    scope = tree
    if owner:
        scope = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                     and n.name == owner[0])
    func = next(n for n in scope.body if isinstance(n, ast.FunctionDef)
                and n.name == name)
    lines = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else \
                f.id if isinstance(f, ast.Name) else None
            if called in ELEMENTWISE:
                lines.append(node.lineno)
    return sorted(lines)


def rel(path):
    return str(path.relative_to(ROOT))


def test_scanner_sees_modules():
    names = {rel(p) for p in MODULES}
    assert "src/groundwork/latpair.py" in names
    assert "tests/test_invariants.py" in names


def test_scanner_flags_unused_and_fractions():
    tree = ast.parse("from fractions import Fraction\nimport os\n"
                     "from __future__ import annotations\nos.sep\n")
    assert unused_imports(tree) == [(1, "Fraction")]
    assert "fractions" in set(imported_modules(tree))


def test_scanner_flags_itertools_product():
    tree = ast.parse("import itertools\nfrom itertools import product\n"
                     "itertools.product([1], [2])\nx.product\n"
                     "itertools.combinations([1], 1)\n"
                     "'itertools.product'\n")
    assert product_uses(tree) == [2, 3]


def test_scanner_flags_elementwise_calls():
    tree = ast.parse("class F:\n"
                     "    def check(self):\n"
                     "        self.target.normal_form(x)\n"
                     "        apply(y)\n"
                     "        self.matrix.mul_vec(x)\n"
                     "    def other(self):\n"
                     "        M.act(r, m)\n"
                     "def law(M):\n"
                     "    return M.act(r, m) + f.apply\n")
    assert elementwise_calls(tree, "F.check") == [3, 4]
    assert elementwise_calls(tree, "law") == [9]


@pytest.mark.parametrize("module,qualname", [
    ("fpgroup.py", "FpMorphism.is_well_defined"),
    ("fpgroup.py", "FpMorphism.agrees_with"),
    ("fpgroup.py", "FpMorphism.is_zero"),
    ("modres.py", "validate_module"),
])
def test_checks_test_whole_matrices(module, qualname):
    tree = ast.parse((PACKAGE / module).read_text())
    assert elementwise_calls(tree, qualname) == []


@pytest.mark.parametrize("name", ["fincat.py", "presheaf.py", "site.py"])
def test_enumerators_use_the_shared_search(name):
    assert product_uses(ast.parse((PACKAGE / name).read_text())) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=rel)
def test_package_imports_no_fractions(path):
    tree = ast.parse(path.read_text())
    assert not {m for m in imported_modules(tree)
                if m.split(".")[0] == "fractions"}


def test_only_catalog_and_cli_import_json():
    """The payload schema lives in `catalog`; `cli` reads files and writes
    `--format json` reports."""
    importers = {rel(p) for p in PACKAGE.rglob("*.py")
                 if "json" in set(imported_modules(ast.parse(p.read_text())))}
    assert importers == {"src/groundwork/catalog.py", "src/groundwork/cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=rel)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_every_mttchk_node_class_is_in_the_child_table():
    """A node class missing from the table would be skipped silently by
    every walk; a sub-node field missing from its entry likewise."""
    results = {mttchk.Formula, mttchk.AbstractSort, mttchk.SeparationVerdict}
    leaves = {mttchk.Var, mttchk.Const}
    classes = {c for c in vars(mttchk).values()
               if isinstance(c, type) and dataclasses.is_dataclass(c)
               and c.__module__ == mttchk.__name__}
    assert classes - results - leaves == set(mttchk._CHILDREN)
    for cls, children in mttchk._CHILDREN.items():
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        assert set(children) <= set(fields), cls
        assert all(t is str for name, t in fields.items()
                   if name not in children), cls


def test_every_exception_class_is_of_one_kind():
    """`cli.main` reads a `GroundworkError`'s exit code from its kind, so
    a class outside the kinds would escape as a traceback."""
    kinds = (InputError, Failure, ResourceCap)
    classes = set()
    for path in PACKAGE.rglob("*.py"):
        name = "groundwork" + ("" if path.stem == "__init__"
                               else "." + path.stem)
        classes |= {c for c in vars(importlib.import_module(name)).values()
                    if isinstance(c, type) and issubclass(c, BaseException)
                    and c.__module__ == name}
    assert len(classes) > 20
    for cls in classes - {GroundworkError}:
        assert sum(issubclass(cls, k) for k in kinds) == 1, cls


def test_cli_main_catches_only_package_and_file_errors():
    """Any other exception is a bug and must propagate, not be reported
    as a semantic failure or an input error."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    caught = {ast.unparse(t) for h in handlers
              for t in (h.type.elts if isinstance(h.type, ast.Tuple)
                        else [h.type])}
    assert len(handlers) <= 2
    assert caught == {"GroundworkError", "OSError", "UnicodeDecodeError",
                      "json.JSONDecodeError"}
