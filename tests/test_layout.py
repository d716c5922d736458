"""Source layout of the package, read with ``ast``: no module imports a name it
never uses, and the linear-stability layer is closed form, importing from no
rdcert module but ``profiles``.  Importing the package leaves
``scipy.integrate`` unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rdcert"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")

# what deleting the simulated growth-rate experiment from the stability module
# would leave behind if its imports stayed
LEFTOVER_IMPORTS = ("from .grid import Field, Grid1D\n"
                    "from .profiles import KineticsSpec, TimeProfile\n"
                    "from .solver import SystemSpec, simulate\n")


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def unused_imports(tree: ast.Module) -> list:
    """The names an import binds, anywhere in the module, that the module
    never reads; a name listed in ``__all__`` counts as read."""
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def rdcert_imports(tree: ast.Module) -> set:
    """The rdcert modules a module imports from, by their name in the package."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module is None:  # from . import module
                    modules.update(alias.name for alias in node.names)
                else:
                    modules.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "rdcert":
                modules.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[1] for alias in node.names
                           if alias.name.startswith("rdcert."))
    return modules


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    assert unused_imports(parse(name)) == []


def test_stability_imports_only_profiles():
    assert rdcert_imports(parse("stability.py")) == {"profiles"}


def test_the_checks_catch_leftover_imports():
    # imports at the end of a module still bind their names
    tree = ast.parse((SRC / "stability.py").read_text() + LEFTOVER_IMPORTS)
    assert unused_imports(tree) == ["Field", "Grid1D", "KineticsSpec", "SystemSpec",
                                    "TimeProfile", "simulate"]
    assert rdcert_imports(tree) == {"grid", "profiles", "solver"}


def test_import_leaves_scipy_integrate_unloaded():
    # nothing in the package integrates with scipy, and loading it costs
    # every CLI process tens of milliseconds
    code = ("import sys, rdcert; "
            "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
