"""Importing a module loads only the package modules it uses."""

import os
import pathlib
import subprocess
import sys

import pytest

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
