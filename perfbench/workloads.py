"""The benchmark's workloads: their inputs, their CLI calls and their output checks.

Each workload is a closed loop with one client: one ``wdsres`` command
line at a time, run in-process through the click entry point, the next
one starting when the previous one has written its report.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import netgen

MC_GRID = (14, 14)
MC_REPLICATES = 2
MC_HORIZON = 24
SUPPLY_GRID = (5, 5)
STRUCTURAL_GRID = (7, 7)
MAX_K = 2


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run ``wdsres <argv>`` in this process; return (exit code, captured output)."""
    from wdsres.cli import main

    sink = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main.main(args=argv, prog_name="wdsres", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, sink.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    networks: dict[str, tuple[int, int]]
    commands: Callable[[Path, int], list[list[str]]]
    outputs: tuple[str, ...]
    check: Callable[[Path], list[str]]
    spec: Callable[[int], dict] | None = None  # the scenario, for workloads that run one
    has_pool: bool = False  # whether --workers changes how the CLI runs

    def write_inputs(self, directory: Path, seed: int) -> list[Path]:
        """Generate this workload's input files for ``seed``; return the networks."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = [
            netgen.write_network(directory / f"{stem}.json", rows, cols, seed)
            for stem, (rows, cols) in self.networks.items()
        ]
        if self.spec is not None:
            (directory / "spec.json").write_text(json.dumps(self.spec(seed), indent=1) + "\n")
        return paths

    def run(self, directory: Path, workers: int = 2) -> list[str]:
        """Run every command once; return a problem per failed command."""
        return run_commands(self.commands(directory, workers))

    def report_bytes(self, directory: Path) -> bytes:
        return read_reports(directory, self.outputs)

    def verify(self, directory: Path) -> tuple[list[str], bytes]:
        """Check the reports of the last run; return the problems and the report bytes."""
        try:
            return self.check(directory), self.report_bytes(directory)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{self.name}: unreadable report: {exc!r}"], b""


def run_commands(commands: list[list[str]]) -> list[str]:
    """Run each command line in turn; return a problem per command that failed."""
    problems = []
    for argv in commands:
        try:
            code, text = invoke(argv)
        except Exception:  # a traceback out of the CLI is a failed run, not a benchmark crash
            code, text = "a traceback", traceback.format_exc()
        if code != 0:
            problems.append(f"wdsres {' '.join(argv[:2])} exited {code}: {text.strip()[-300:]}")
    return problems


def read_reports(directory: Path, names: tuple[str, ...]) -> bytes:
    """The named report files, concatenated in order."""
    return b"".join((directory / name).read_bytes() for name in names)


def mc_spec(seed: int) -> dict:
    """One random failure of three pipes and an all-junction surge whose window overlaps it.

    The surge asks for 2.5 times the design demand while the two sources
    together deliver twice it, so supply binds during the surge.
    """
    return {
        "events": [
            {"kind": "pipe_failure", "onset": 6, "repair": 14, "count": 3},
            {"kind": "demand_scale", "onset": 10, "repair": 18, "factor": 2.5},
        ],
        "seed": seed,
        "horizon": MC_HORIZON,
    }


def _mc_commands(d: Path, workers: int) -> list[list[str]]:
    return [[
        "scenario", "mc", "--network", str(d / "mc.json"), "--spec", str(d / "spec.json"),
        "--n", str(MC_REPLICATES), "--metric", "zhuang", "--workers", str(workers),
        "--out", str(d / "mc-report.json"),
    ]]


def _mc_check(d: Path) -> list[str]:
    report = json.loads((d / "mc-report.json").read_text())
    values = report["values"]
    problems = []
    if report["n"] != MC_REPLICATES or len(values) != MC_REPLICATES:
        problems.append(f"mc-sweep: expected {MC_REPLICATES} replicate values, got {len(values)}")
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append(f"mc-sweep: zhuang value outside [0, 1]: {values}")
    return problems


def _supply_commands(d: Path, workers: int) -> list[list[str]]:
    return [[
        "metric", "buffering", "--network", str(d / "supply.json"), "--threshold", "0.99",
        "--max-k", str(MAX_K), "--out", str(d / "supply-report.json"),
    ]]


def _buffering_check(path: Path) -> list[str]:
    value = json.loads(path.read_text())["value"]
    if not 0 <= value <= MAX_K:
        return [f"{path.name}: buffering k={value} outside [0, {MAX_K}]"]
    if value != MAX_K:
        # the grid is 4-edge-connected and every pipe can carry the full
        # demand, so every pair of failures must pass
        return [f"{path.name}: buffering k={value}, expected the full depth {MAX_K}"]
    return []


def _structural_commands(d: Path, workers: int) -> list[list[str]]:
    return [
        [
            "metric", "herrera", "--network", str(d / "structural.json"), "--K", "5",
            "--trim", "0.1", "--nodes-out", str(d / "nodes.csv"),
            "--out", str(d / "herrera-report.json"),
        ],
        [
            "metric", "buffering", "--network", str(d / "structural.json"),
            "--max-k", str(MAX_K), "--out", str(d / "connectivity-report.json"),
        ],
    ]


def _structural_check(d: Path) -> list[str]:
    network = json.loads((d / "structural.json").read_text())
    junctions = sorted(j["id"] for j in network["junctions"])
    with (d / "nodes.csv").open(newline="") as handle:
        rows = sorted(row[0] for row in list(csv.reader(handle))[1:])
    report = json.loads((d / "herrera-report.json").read_text())
    problems = []
    if rows != junctions or sorted(report["nodes"]) != junctions:
        problems.append(f"herrera: {len(rows)} rows, expected one per junction ({len(junctions)})")
    return problems + _buffering_check(d / "connectivity-report.json")


CATALOG_OUTPUTS = ("counts.json", "matrix.csv", "labels.csv", "tree.json", "tree.txt")


def catalog_commands(d: Path) -> list[list[str]]:
    """The meta-analysis of the bundled 59-row catalog: counts, correlate, cluster, dendrogram."""
    return [
        ["catalog", "counts", "--out", str(d / "counts.json")],
        ["catalog", "correlate", "--out", str(d / "matrix.csv")],
        ["catalog", "cluster", "--k", "5", "--out", str(d / "labels.csv")],
        ["catalog", "dendrogram", "--k", "5", "--out", str(d / "tree.json"), "--text"],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-sweep",
            {"mc": MC_GRID},
            _mc_commands,
            ("mc-report.json",),
            _mc_check,
            spec=mc_spec,
            has_pool=True,
        ),
        Workload(
            "supply-buffering",
            {"supply": SUPPLY_GRID},
            _supply_commands,
            ("supply-report.json",),
            lambda d: _buffering_check(d / "supply-report.json"),
        ),
        Workload(
            "structural",
            {"structural": STRUCTURAL_GRID},
            _structural_commands,
            ("herrera-report.json", "nodes.csv", "connectivity-report.json"),
            _structural_check,
        ),
    )
}
