"""The package's layering, pinned: which modules each import loads.

Each module is imported in a fresh interpreter, which then lists the
``anticycle`` modules it holds.  The package root carries no names, so a
module loads only what it imports itself: the quadratic forms and the
Picard group stand alone, the cycle engine builds on both, surgery and the
twistor verdict build on the engine but not on each other, and only the
config reader and the command line load everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ENGINE = {"cycles", "pic0", "qform"}
EVERYTHING = ENGINE | {"birational", "twistor", "config_io", "cli"}

LOADED = {
    "qform": {"qform"},
    "pic0": {"pic0"},
    "cycles": ENGINE,
    "birational": ENGINE | {"birational"},
    "twistor": ENGINE | {"twistor"},
    "config_io": EVERYTHING - {"cli"},
    "cli": EVERYTHING,
}

_LIST_LOADED = (
    "import importlib, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(' '.join(sorted(n for n in sys.modules if n.split('.')[0] == 'anticycle')))\n"
)


@pytest.mark.parametrize("module", sorted(LOADED))
def test_import_loads_only_its_layers(module):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-c", _LIST_LOADED, f"anticycle.{module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    expected = {"anticycle"} | {f"anticycle.{name}" for name in LOADED[module]}
    assert set(completed.stdout.split()) == expected
