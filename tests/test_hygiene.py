"""Source checks over the ``lram`` package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lram
from lram import cli, errors

MODULES = sorted(Path(lram.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``from __future__`` excepted)."""
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
    return sorted(name for name in imported if name not in used)


def test_unused_import_is_found():
    source = "from . import numerics, perturbed\nimport numpy as np\n\nnp.zeros(numerics.N)\n"
    assert unused_imports(source) == ["perturbed"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_constants(sources) -> list[str]:
    """Module-level UPPER_CASE names assigned in ``sources`` that none of them reads.

    A read is a loaded name or an attribute of that name (``numerics.SYM_TOL``).
    """
    assigned, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned.update(t.id for t in targets if isinstance(t, ast.Name)
                                and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(assigned - read)


def test_unread_constant_is_found():
    sources = ["TOL = 1e-8\nLIMIT: int = 3\nlower = 1\n", "from . import a\n\na.LIMIT + 1\n"]
    assert unread_constants(sources) == ["TOL"]


def test_every_constant_is_read():
    assert unread_constants([p.read_text() for p in MODULES]) == []


def test_every_error_class_is_raised_or_a_base():
    source = "\n".join(p.read_text() for p in MODULES if p.name != "errors.py")
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    bases = {base for cls in classes for base in cls.__bases__}
    unused = [cls.__name__ for cls in classes
              if not re.search(rf"\b{cls.__name__}\b", source) and cls not in bases]
    assert unused == []


def documented_keys(readme: str) -> set[str]:
    """Keys named by the README's "Config keys and defaults" section.

    Those are the backticked names in the first column of its table and on
    its "Common:" line.
    """
    section = readme.split("### Config keys and defaults", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        elif line.startswith("Common:"):
            keys.update(re.findall(r"`(\w+)`", line))
    return keys


def test_documented_keys_are_read_from_table_and_common_line():
    readme = ("### Config keys and defaults\n\nCommon: `seed` (1).\n\n| key | default |\n"
              "|---|---|\n| `a`, `b` (spde) | `c` |\n\n## Outputs\n\n| `d` | 1 |\n")
    assert documented_keys(readme) == {"seed", "a", "b"}


def test_readme_documents_every_config_key():
    keys = set().union(*(cli.schema(name) for name in cli.CONFIGS))
    assert documented_keys(README.read_text()) == keys


def test_cli_import_loads_no_csgraph():
    # the band routes import scipy.sparse.csgraph where they order a band: eagerly it
    # adds about 1 MB and 5 ms to every start of lram
    code = "import sys, lram.cli; print('scipy.sparse.csgraph' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
