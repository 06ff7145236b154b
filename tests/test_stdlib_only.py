"""The package promises no runtime dependencies: importing it pulls in the standard library only."""

import subprocess
import sys
from pathlib import Path

import towerbound

_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import towerbound
for info in pkgutil.walk_packages(towerbound.__path__, "towerbound."):
    if info.name != "towerbound.__main__":  # importing it runs the CLI
        importlib.import_module(info.name)
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - {"towerbound"} - set(sys.stdlib_module_names))))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(towerbound.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert done.stdout.split() == []
