"""Loads every module of ``wdsres`` before any test runs.

``import wdsres`` loads a submodule only when one of its names is first
used, while collecting the full suite loads them all.  Loading them here
gives a test run alone the same modules as the full suite: hypothesis mixes
the constants of every loaded module of the checkout into its draws, and
``perfbench/tests`` checks that tracing rebinds and restores the functions
of every loaded module.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import wdsres.catalog  # noqa: E402,F401
import wdsres.cli  # noqa: E402,F401
