"""The benchmark workloads' report bytes against the digests recorded in
``perfbench/expected.json``, so that a change of output fails the suite."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def test_default_seed_reports_match_the_recorded_digests(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())
    assert run.reference_digests(tmp_path) == expected
