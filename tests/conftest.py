"""Test set-up: child processes import gmcint from this checkout.

pyproject's `pythonpath = ["src"]` puts src on sys.path for the test
process only; the tests that run `python -m gmcint.cli` in a subprocess
need it on PYTHONPATH too, so that plain `pytest` works uninstalled.
"""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
