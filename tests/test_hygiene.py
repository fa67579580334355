"""Source hygiene checks that need no linter: every module of the package
uses each name it imports (`__init__.py` is skipped, since it imports names
only to re-export them), every top-level name and every export is read by
a module of the package other than `__init__.py`, only
`space.py` reads the real-metric slack, the command line loads no optional
heavy module, and the numpy port of the tuple hash matches this
interpreter's hash()."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from coarsecohom.randomgen import (_hash_state, _row_hashes, _term_hashes,
                                   _tuple_hash)

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
    defines at its top level."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


# Exported names that only the test suite reads: scaled_metric builds the
# real-metric test spaces, and zero is the additive identity of the
# coefficient modules.
_EXPORTED_FOR_TESTS = {"scaled_metric", "zero"}


def test_every_top_level_name_is_used():
    # a top-level name or an export that no module of the package but
    # `__init__` reads is dead code; cli.main is the entry point
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
    alive = read | _EXPORTED_FOR_TESTS
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


def test_tuple_hash_port_matches_builtin_hash():
    # The random cochains hash (base, xs, ys, t) with the builtin hash();
    # the audits fill their tables through randomgen's numpy port of it.
    # An interpreter whose tuple hash differs must fail here, loudly.
    rng = random.Random(20261018)
    bases = [0, 1, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61, 2 ** 64 - 1]
    for k in range(12_000):
        base = bases[k] if k < len(bases) else rng.choice(
            [rng.randrange(2 ** 64), rng.randrange(2 ** 61 - 1, 2 ** 64),
             rng.randrange(1000)])
        xs = tuple(rng.randrange(5000) for _ in range(rng.randrange(4)))
        ys = tuple(rng.randrange(5000) for _ in range(rng.randrange(4)))
        t = rng.randrange(4)
        hx = _row_hashes(np.array([xs], dtype=np.int64).reshape(1, len(xs)))
        hy = _row_hashes(np.array([ys], dtype=np.int64).reshape(1, len(ys)))
        assert int(hx[0]) == hash(xs) and int(hy[0]) == hash(ys)
        want = hash((base, xs, ys, t))
        assert int(_tuple_hash([hash(base), hx, hy, t], 1)[0]) == want
        # the leaves hash (base, xs, ys) once, then each term t
        state = _hash_state([hash(base), hx, hy], 1)
        assert int(_tuple_hash([t], 1, state, 3)[0]) == want
        # the fills hash every term at once: a (terms, faces) array
        terms = _term_hashes(state, 3, 4)
        assert terms.shape == (4, 1)
        assert [int(h) for h in terms[:, 0]] == [
            hash((base, xs, ys, u)) for u in range(4)]
    # many faces at once, for both leaf kinds: (base, xs, ys, t) and
    # (base, ys, t)
    for xlen, ylen in ((1, 0), (2, 1), (1, 3), (3, 2)):
        faces = np.array([[rng.randrange(5000) for _ in range(xlen + ylen)]
                          for _ in range(300)], dtype=np.int64)
        base = rng.randrange(2 ** 64)
        hx, hy = _row_hashes(faces[:, :xlen]), _row_hashes(faces[:, xlen:])
        with_x = _term_hashes(_hash_state([hash(base), hx, hy], 300), 3, 5)
        no_x = _term_hashes(_hash_state([hash(base), hy], 300), 2, 5)
        assert with_x.shape == no_x.shape == (5, 300)
        for i, row in enumerate(faces.tolist()):
            xs, ys = tuple(row[:xlen]), tuple(row[xlen:])
            for t in range(5):
                assert int(with_x[t, i]) == hash((base, xs, ys, t))
                assert int(no_x[t, i]) == hash((base, ys, t))
