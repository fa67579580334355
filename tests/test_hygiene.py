"""Source hygiene checks that need no linter: every module of the package
uses each name it imports (`__init__.py` is skipped, since it imports names
only to re-export them), every top-level name, public method and export is
read by a module of the package other than `__init__.py`, only
`space.py` reads the real-metric slack, only `facetables.py` knows how a
face table is laid out, only the combination constructor of `cochains.py`
calls `facetables.linear`, only `cochains.py` builds a check record, face
tables and CSR rows are the one value representation, the command line
loads no optional heavy module, and no module calls the builtin hash(),
whose values belong to the interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coarsecohom"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def _top_level_names(tree) -> dict:
    """{name: line} of the functions, classes and constants a module
    defines at its top level, and of the public methods of its classes."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                names.update((item.name, item.lineno) for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


# Exported names that only the test suite reads: scaled_metric builds the
# real-metric test spaces.
_EXPORTED_FOR_TESTS = {"scaled_metric"}

# Public methods that only the test suite reads: within is the pointwise
# form of the one within-R rule that near applies to whole rows.
_METHODS_FOR_TESTS = {"within"}


def test_every_top_level_name_is_used():
    # a top-level name, public method or export that no module of the
    # package but `__init__` reads is dead code; cli.main is the entry point
    import coarsecohom
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    trees.pop("__init__.py")
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    alive = read | _EXPORTED_FOR_TESTS | _METHODS_FOR_TESTS
    dead = [f"{name}:{line}: {ident}" for name, tree in trees.items()
            for ident, line in sorted(_top_level_names(tree).items())
            if ident not in alive and (name, ident) != ("cli.py", "main")]
    assert dead == []
    submodules = {p.stem for p in PACKAGE.glob("*.py")}
    unread = [ident for ident in coarsecohom.__all__
              if ident not in alive and ident not in submodules]
    assert unread == []


def test_only_space_reads_the_real_metric_slack():
    # "within R" is FiniteMetricSpace.radius_bound / near; a module that
    # reads the slack itself has copied the rule out again
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [getattr(node, "id", None), getattr(node, "attr", None)])
            if "REAL_METRIC_SLACK" in names:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers
    assert {hit.split(":")[0] for hit in readers} == {"space.py"}


def test_only_facetables_knows_the_table_layout():
    # a face table's `vals` array, its width and its buffers are one
    # module's decision; a module that reads them has copied it out again
    layout = {"vals", "table_buffer", "finish", "width_of"}
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [getattr(node, "id", None), getattr(node, "attr", None)])
            readers += [f"{path.name}:{node.lineno}: {name}"
                        for name in layout.intersection(names)]
    assert readers
    assert [hit for hit in readers
            if not hit.startswith("facetables.py:")] == []


def _linear_calls(node, path: Path) -> list:
    return [f"{path.name}:{call.lineno}" for call in ast.walk(node)
            if isinstance(call, ast.Call) and "linear" in (
                getattr(call.func, "id", None),
                getattr(call.func, "attr", None))]


def test_only_the_combination_constructor_calls_linear():
    # D, d, s, sums, differences and scalings are term lists of one
    # constructor; a second caller of facetables.linear is a hand-written
    # table rule again
    calls, constructor = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += _linear_calls(tree, path)
        if path.name == "cochains.py":
            constructor += [hit for node in ast.walk(tree)
                            if isinstance(node, ast.FunctionDef)
                            and node.name == "_combination"
                            for hit in _linear_calls(node, path)]
    assert [hit for hit in calls if hit not in constructor] == []
    assert len(constructor) == 1


# Serialisable dataclasses that are no check: the profile's rows and table,
# and its decay verdict with the inputs it was read from.
_NOT_CHECKS = {"ProfileRow", "ProfileTable", "DecayDiagnostic"}


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (getattr(decorator, "id", None) == "dataclass"
            or getattr(decorator, "attr", None) == "dataclass")


def _check_builders(path: Path) -> list:
    """The dataclasses with a to_json, other than _NOT_CHECKS, and the dict
    literals with a "check" key, of one module."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.ClassDef) and node.name not in _NOT_CHECKS
                and any(map(_is_dataclass, node.decorator_list))
                and any(isinstance(item, ast.FunctionDef)
                        and item.name == "to_json" for item in node.body)):
            hits.append(f"{path.name}:{node.lineno}: class {node.name}")
        elif isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "check"
                for key in node.keys):
            hits.append(f"{path.name}:{node.lineno}: {{\"check\": ...}}")
    return hits


def test_only_cochains_builds_check_records():
    # every verdict is one cochains.Check; a second report class or a check
    # dict built by hand is a near-copy of its to_json
    assert _check_builders(PACKAGE / "cochains.py")
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "cochains.py" for hit in _check_builders(path)]
    assert hits == []


def test_cli_import_loads_no_scipy_or_numba():
    # numpy is the one dependency, and importing it is the start-up cost
    code = ("import sys, coarsecohom.cli; print(sorted({m.split('.')[0] "
            "for m in sys.modules} & {'scipy', 'numba'}))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"


def test_no_module_calls_builtin_hash():
    # hash() of ints and tuples is the interpreter's own, so a value built
    # on it is not reproducible across implementations; the random leaves
    # hash with randomgen's documented mixer instead
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# The pointwise value classes that face tables and CSR rows replaced.
_VALUE_CLASSES = {"SupportedVector", "PairVector"}
_COEFFICIENT_NAMES = {"L1", "L1_ZERO", "SCALAR", "MODULES", "PRUNE_TOL",
                      "ZERO_SUM_TOL"}


def test_tables_and_csr_rows_are_the_one_value_representation():
    # a value is a face-table row or a CSR row: no module defines or
    # imports a class of its own for one, a cochain is no callable with a
    # rule or a memo, and coefficients holds only the module tags and the
    # tolerances
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [getattr(node, "id", None), getattr(node, "attr", None),
                      getattr(node, "name", None)])
            hits += [f"{path.name}:{node.lineno}: {name}"
                     for name in _VALUE_CLASSES.intersection(names)]
    assert hits == []
    from coarsecohom import coefficients
    from coarsecohom.cochains import Cochain
    assert {"rule", "memoize", "_memo"}.isdisjoint(Cochain.__slots__)
    assert "__call__" not in vars(Cochain)
    assert Cochain.__init__.__code__.co_varnames[:8] == (
        "self", "space", "p", "q", "module", "fill", "name", "terms")
    tree = ast.parse((PACKAGE / "coefficients.py").read_text())
    defined = [target.id for node in tree.body
               if isinstance(node, ast.Assign) for target in node.targets]
    others = [node for node in tree.body
              if not isinstance(node, (ast.Assign, ast.ImportFrom))
              and not (isinstance(node, ast.Expr)
                       and isinstance(node.value, ast.Constant))]
    assert set(defined) == _COEFFICIENT_NAMES and others == []
    public = {name for name in vars(coefficients) if not name.startswith("_")}
    assert public == _COEFFICIENT_NAMES | {"annotations"}
