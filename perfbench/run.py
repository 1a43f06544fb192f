"""Benchmark of the ``wdsres`` CLI on generated grid networks.

    python3 perfbench/run.py --workload mc-sweep --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload's CLI calls run untraced in a
closed loop for ``--seconds`` and the end-to-end metrics are reported;
with ``--trace 1`` a separate run traces the calls into each ``wdsres``
module and reports the per-layer metrics.  Every run checks its outputs.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--print-digests`` prints the sha256 of every workload's reports on the
default seed, the values ``expected.json`` holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
DEFAULT_SEED = 0
MIN_SETUP_PROBES = 15
REFERENCE_ITERATIONS = 240_000
REFERENCE_S = 0.02  # the time reference_loop() is rescaled to; about its idle-core time
PROBE_TIMEOUT_S = 60
MIN_TRACED_ROUNDS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
COUNTS = (
    "network.reachable_calls",
    "scenario.apply_calls",
    "hydraulics.alloc_calls",
    "hydraulics.alloc_distinct_states",
    "hydraulics.series_builds",
    "performance.feasibility_calls",
    "graphmetrics.ksp_calls",
    "graphmetrics.node_index_calls",
)
TIMES = (
    "network.load_s",
    "network.reachable_s",
    "scenario.apply_self_s",
    "hydraulics.alloc_s",
    "hydraulics.series_s",
    "performance.buffering_s",
    "performance.reduce_s",
    "graphmetrics.ksp_s",
    "cli.other_s",
)
RATIOS = (
    "hydraulics.alloc_useful_ratio",
    "graphmetrics.node_index_useful_ratio",
    "scenario.pool_speedup",
    "trace.overhead_ratio",
)
CATALOG_TIMES = ("catalog.pipeline_s", "wardclust.ward_linkage_s")
PER_LAYER_UNITS = {
    **{name: "count" for name in COUNTS},
    **{name: "s" for name in TIMES + CATALOG_TIMES},
    **{name: "ratio" for name in RATIOS},
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return (f"  {name:<38} median {q2:.6g} {unit}  quartiles {q1:.6g}..{q3:.6g}  "
            f"range {min(values):.6g}..{max(values):.6g}  n={len(values)}")


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: a yardstick of the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def host_scaled(timed) -> tuple[float, float]:
    """Call ``timed()``, which returns seconds; return them raw and rescaled to host speed.

    Other tenants of a shared host slow it down by up to half for minutes
    at a time.  Timing ``reference_loop`` right before and right after the
    sample and dividing by their mean cancels that drift; multiplying by
    ``REFERENCE_S`` keeps the unit seconds.
    """
    before = reference_loop()
    seconds = timed()
    after = reference_loop()
    return seconds, seconds * REFERENCE_S / ((before + after) / 2)


def setup_time(networks: list[Path]) -> float:
    """Set-up time of one fresh process: import ``wdsres`` and load the networks."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, networks)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def check_full_demand(networks: list[Path]) -> list[str]:
    """The intact generated networks must deliver their whole design demand."""
    from wdsres import allocate_flows, load_network

    problems = []
    for path in networks:
        alloc = allocate_flows(load_network(path))
        if abs(alloc.total_delivered - alloc.total_demand) > 1e-9 * alloc.total_demand:
            problems.append(f"{path.name}: intact network delivers {alloc.total_delivered!r} "
                            f"of {alloc.total_demand!r}")
    return problems


def reference_digests(directory: Path) -> dict[str, str]:
    """sha256 of each workload's reports (and the catalog pipeline's) on the default seed."""
    digests = {}
    for name, workload in WORKLOADS.items():
        d = directory / name
        workload.write_inputs(d, DEFAULT_SEED)
        problems = workload.run(d) or workload.verify(d)[0]
        if problems:
            raise RuntimeError("; ".join(problems))
        digests[name] = hashlib.sha256(workload.report_bytes(d)).hexdigest()
    problems, digests["catalog"] = catalog_run(directory / "catalog")
    if problems:
        raise RuntimeError("; ".join(problems))
    return digests


def catalog_run(d: Path) -> tuple[list[str], str]:
    """Run the catalog meta-analysis; return its problems and the sha256 of its reports."""
    d.mkdir(parents=True, exist_ok=True)
    problems = workloads.run_commands(workloads.catalog_commands(d))
    if problems:
        return problems, ""
    try:
        return [], hashlib.sha256(workloads.read_reports(d, workloads.CATALOG_OUTPUTS)).hexdigest()
    except OSError as exc:
        return [f"catalog: unreadable report: {exc!r}"], ""


def reference_check(loop: Loop, d: Path, expected: dict) -> list[str]:
    """Byte-for-byte check of the workload and the catalog pipeline on the default seed.

    The workload's reference run counts as a run of ``loop``; the catalog's
    problems are returned.
    """
    workload = loop.workload
    workload.write_inputs(d, DEFAULT_SEED)
    problems = workload.run(d)
    if not problems:
        problems, reports = workload.verify(d)
        if not problems and hashlib.sha256(reports).hexdigest() != expected[workload.name]:
            problems.append(f"{workload.name}: default-seed reports differ from expected.json")
    loop.record(problems)
    catalog_problems, digest = catalog_run(d / "catalog")
    if not catalog_problems and digest != expected["catalog"]:
        catalog_problems.append("catalog: reports differ from expected.json")
    return catalog_problems


class Loop:
    """Closed-loop runs of one workload, each timed and checked."""

    def __init__(self, workload, directory: Path):
        self.workload = workload
        self.directory = directory
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_reports: bytes | None = None

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def once(self, workers: int) -> float:
        """Run and check the workload once; return the wall time of its CLI calls."""
        start = time.perf_counter()
        problems = self.workload.run(self.directory, workers)
        wall = time.perf_counter() - start
        if not problems:
            problems, reports = self.workload.verify(self.directory)
            if self.first_reports is None:
                self.first_reports = reports
            elif reports != self.first_reports:
                problems.append(f"reports changed between runs (workers={workers})")
        self.record(problems)
        return wall


def measure(loop: Loop, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of untraced runs for ``seconds``."""
    workload = loop.workload
    networks = workload.write_inputs(loop.directory, seed)
    setup_time(networks)  # warms the file cache; not counted
    problems = check_full_demand(networks)
    loop.once(workers=2)  # warm-up; checked but not timed
    raw = {"wall_s": [], "setup_s": []}
    scaled = {"wall_s": [], "setup_s": []}

    def sample(name: str, timed) -> None:
        seconds, rescaled = host_scaled(timed)
        raw[name].append(seconds)
        scaled[name].append(rescaled)

    start = time.perf_counter()
    deadline = start + seconds
    while not scaled["wall_s"] or time.perf_counter() < deadline:
        sample("wall_s", lambda: loop.once(workers=2))
        # spread the set-up probes evenly over the run
        elapsed = (time.perf_counter() - start) / max(seconds, 1e-9)
        if len(scaled["setup_s"]) < MIN_SETUP_PROBES * elapsed:
            sample("setup_s", lambda: setup_time(networks))
    while len(scaled["setup_s"]) < MIN_SETUP_PROBES:
        sample("setup_s", lambda: setup_time(networks))
    if workload.has_pool:
        # criterion 7 on a large network: the worker count must not change a byte
        loop.once(workers=1)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name in scaled:
        print(describe(name, scaled[name], "s"))
        print(describe(f"({name} before rescaling)", raw[name], "s"))
    print(f"  peak_rss_mb {peak_mb:.1f} MB; runs attempted {loop.attempted}, failed {loop.failed}")
    metrics = {
        "wall_s": statistics.median(scaled["wall_s"]),
        "setup_s": statistics.median(scaled["setup_s"]),
        "peak_rss_mb": peak_mb,
        "success_rate": (loop.attempted - loop.failed) / loop.attempted,
    }
    return metrics, problems


def layer_values(recorder: tracing.Recorder, wall: float) -> dict[str, float]:
    """Per-layer counts and times of one traced workload run."""
    spans = recorder.spans
    calls, busy = tracing.totals(spans)
    alloc_keys = recorder.keys.get("hydraulics.alloc", set())
    top = sum(s.duration for s in spans if s.parent < 0)
    return {
        "network.load_s": busy["network.load"],
        "network.reachable_calls": calls["network.reachable"],
        "network.reachable_s": busy["network.reachable"],
        "scenario.apply_calls": calls["scenario.apply"],
        "scenario.apply_self_s": tracing.self_time(spans, "scenario.apply"),
        "hydraulics.alloc_calls": calls["hydraulics.alloc"],
        "hydraulics.alloc_s": busy["hydraulics.alloc"],
        "hydraulics.alloc_distinct_states": len(alloc_keys),
        "hydraulics.series_builds": calls["hydraulics.series"],
        "hydraulics.series_s": busy["hydraulics.series"],
        "performance.feasibility_calls": calls["performance.feasibility"],
        "performance.buffering_s": busy["performance.buffering"],
        "performance.reduce_s": busy["performance.reduce"],
        "graphmetrics.ksp_calls": calls["graphmetrics.ksp"],
        "graphmetrics.ksp_s": busy["graphmetrics.ksp"],
        "graphmetrics.node_index_calls": calls["graphmetrics.node_index"],
        "cli.other_s": wall - top,
    }


def traced(recorder: tracing.Recorder, timed_run) -> float:
    """Call ``timed_run`` with every layer traced into ``recorder``; return its result."""
    installed = tracing.install(recorder)
    try:
        return timed_run()
    finally:
        installed.remove()


def write_spans(path: Path, recorder: tracing.Recorder) -> None:
    with path.open("w") as handle:
        for s in recorder.spans:
            handle.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


def measure_layers(loop: Loop, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of traced runs, alternated with untraced ones for ``seconds``."""
    workload = loop.workload
    networks = workload.write_inputs(loop.directory, seed)
    problems = check_full_demand(networks)
    untraced = {1: [], 2: []}
    traced_walls, rounds, recorder = [], [], None
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        for workers in (1, 2) if workload.has_pool else (1,):
            untraced[workers].append(loop.once(workers))
        recorder = tracing.Recorder()
        wall = traced(recorder, lambda: loop.once(workers=1))
        traced_walls.append(wall)
        rounds.append(layer_values(recorder, wall))
    write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl", recorder)

    for name in COUNTS:
        if len({r[name] for r in rounds}) != 1:
            values = [r[name] for r in rounds]
            problems.append(f"count {name} differs between traced runs: {values}")
    metrics = {name: rounds[-1][name] for name in COUNTS}
    metrics.update({name: statistics.median(r[name] for r in rounds) for name in TIMES})
    for name in TIMES:
        if any(r[name] for r in rounds):
            print(describe(name, [r[name] for r in rounds], "s"))

    # 0 where a workload makes no such calls or has no worker pool
    alloc_calls = metrics["hydraulics.alloc_calls"]
    metrics["hydraulics.alloc_useful_ratio"] = (
        metrics["hydraulics.alloc_distinct_states"] / alloc_calls if alloc_calls else 0.0
    )
    node_calls = metrics["graphmetrics.node_index_calls"]
    junctions = sum(rows * cols for rows, cols in workload.networks.values())
    metrics["graphmetrics.node_index_useful_ratio"] = junctions / node_calls if node_calls else 0.0
    serial = statistics.median(untraced[1])
    metrics["scenario.pool_speedup"] = (
        serial / statistics.median(untraced[2]) if workload.has_pool else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / serial
    metrics.update(catalog_layers(loop.directory / "catalog", problems))
    print(f"  {len(rounds)} traced rounds; "
          + ", ".join(f"{n}={metrics[n]:.6g}" for n in COUNTS + RATIOS + CATALOG_TIMES))
    return metrics, problems


def catalog_layers(d: Path, problems: list[str], repeats: int = 5) -> dict[str, float]:
    """Traced runs of the catalog meta-analysis, which no workload exercises."""
    d.mkdir(parents=True, exist_ok=True)
    commands = workloads.catalog_commands(d)

    def timed_run() -> float:
        start = time.perf_counter()
        problems.extend(workloads.run_commands(commands))
        return time.perf_counter() - start

    walls, ward = [], []
    for _ in range(repeats):
        recorder = tracing.Recorder()
        walls.append(traced(recorder, timed_run))
        ward.append(tracing.totals(recorder.spans)[1]["wardclust.ward_linkage"])
    return {"catalog.pipeline_s": statistics.median(walls),
            "wardclust.ward_linkage_s": statistics.median(ward)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.print_digests and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "wdsres" / "__init__.py").is_file():
        print(f"error: no wdsres sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        if args.print_digests:
            print(json.dumps(reference_digests(tmp), indent=2, sort_keys=True))
            return 0
        loop = Loop(WORKLOADS[args.workload], tmp / "run")
        expected = json.loads((HERE / "expected.json").read_text())
        problems = reference_check(loop, tmp / "reference", expected)
        print(f"{args.workload} seed {args.seed} trace {args.trace}: {args.seconds:g} s")
        metrics, more = (measure_layers if args.trace else measure)(loop, args.seed, args.seconds)
        problems += more + loop.problems
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
