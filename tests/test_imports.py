"""Importing a module loads only the package modules it uses, and each
module lists its public names in ``__all__``."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import freecurves

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _loaded_after(statement: str) -> list[str]:
    """The package's entries in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    probe = (
        f"import sys; {statement}; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'freecurves'))"
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
