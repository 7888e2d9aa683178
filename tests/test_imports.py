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


def test_cli_reads_no_private_name_of_another_module():
    # the commands go through each module's public entries: cli.py imports
    # no underscore name from the package, and reads none as an attribute
    # of a package module or of a name it imports from one
    tree = ast.parse((SRC / "freecurves" / "cli.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "freecurves"
        ):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
            assert not any(p.startswith("_") for p in parts), ast.unparse(node)
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "freecurves":
                    assert "._" not in alias.name, alias.name
                    imported.add((alias.asname or alias.name).split(".")[0])
    assert {"variety", "cnt", "DomainError"} <= imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            assert not (isinstance(root, ast.Name) and root.id in imported), (
                f"cli.py:{node.lineno}: {ast.unparse(node)}"
            )
