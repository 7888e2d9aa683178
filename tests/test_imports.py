"""Importing a module loads only the package modules it uses, and each
module lists its public names in ``__all__``."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import freecurves

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _loaded_after(statement: str, names=("freecurves",)) -> list[str]:
    """The entries in ``sys.modules`` of the packages ``names`` after
    ``statement`` runs in a fresh interpreter."""
    probe = (
        f"import sys; {statement}; "
        f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {names!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.split()


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import freecurves", ["freecurves"]),
        (
            "import freecurves.nodal",
            [
                "freecurves",
                "freecurves.errors",
                "freecurves.nodal",
                "freecurves.splitting",
            ],
        ),
    ],
)
def test_import_loads_only_what_it_uses(statement, loaded):
    assert _loaded_after(statement) == loaded


def test_command_start_up_loads_neither_dataclasses_nor_inspect():
    # the value classes subclass errors.Value; dataclasses would load
    # inspect and build every class's methods through exec at import
    assert _loaded_after("import freecurves.cli", ("dataclasses", "inspect")) == []
    for path in (SRC / "freecurves").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_value_fields_are_stored_by_value_init_alone():
    # a checked constructor passes its fields to Value.__init__ and puts
    # what it keeps outside them in __dict__; object.__setattr__ is a
    # second path round the frozen base
    for path in (SRC / "freecurves").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                assert ast.unparse(node.value) != "object", f"{path.name}:{node.lineno}"


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(freecurves.__path__))
)
def test_exports_every_public_name(name):
    # every public function and class a module defines is in its __all__;
    # anything else listed is a module constant, never a name it imports
    module = importlib.import_module(f"freecurves.{name}")
    defined = {
        key
        for key, value in vars(module).items()
        if not key.startswith("_")
        and getattr(value, "__module__", None) == module.__name__
    }
    exported = set(module.__all__)
    assert defined <= exported
    assert all(key.isupper() for key in exported - defined)
