"""Shared fixtures: small networks with hand-checkable structure."""

from __future__ import annotations

import sys
import tempfile
from math import inf
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wdsres import hydraulics
from wdsres.hydraulics import HydraulicSeries
from wdsres.network import Junction, Network, Pipe, Pump, Source

# even with no example database, hypothesis caches the constants it collects
# from the checkout's modules under its home directory, which defaults to
# .hypothesis/ in the working directory; the cache only saves reparsing, so a
# temporary home, removed at exit, draws the same examples
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
# every property test draws the same examples in every run, keeps no
# example database and has no time limit per example; a test sets only its
# own max_examples
settings.register_profile("wdsres", derandomize=True, database=None, deadline=None)
settings.load_profile("wdsres")
# hypothesis mixes the constants of every loaded module of the checkout (test
# files aside) into its draws, so the suite loads them all up front (the
# package's in the root conftest.py): a test then draws the same examples
# whether it runs alone or in the full suite
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402,F401  (it loads netgen, tracing and workloads)


def make_pipe(pid, a, b, length=100.0, diameter=0.1, friction=0.02,
              repair_rate=0.0, capacity=1.0):
    return Pipe(pid, (a, b), length, diameter, friction, repair_rate, capacity)


def make_network(junctions, sources, pipes, pumps=()):
    return Network(tuple(junctions), tuple(sources), tuple(pumps), tuple(pipes))


def torus_network(rows, cols):
    """A rows x cols grid wrapped into a torus, fed by two sources.

    Every junction has four pipes (five where a source attaches), the torus
    is 4-edge-connected and four pipes leave the sources, so it survives
    any three pipe failures.
    """
    def jid(r, c):
        return f"J{r % rows}_{c % cols}"

    junctions = [Junction(jid(r, c), 0.0, 0.01, 30.0) for r in range(rows) for c in range(cols)]
    half_r, half_c = rows // 2, cols // 2
    pipes = [make_pipe("s1", "R1", jid(0, 0)), make_pipe("s2", "R1", jid(half_r, half_c)),
             make_pipe("s3", "R2", jid(0, half_c)), make_pipe("s4", "R2", jid(half_r, 0))]
    for r in range(rows):
        for c in range(cols):
            pipes.append(make_pipe(f"h{r}_{c}", jid(r, c), jid(r, c + 1)))
            pipes.append(make_pipe(f"v{r}_{c}", jid(r, c), jid(r + 1, c)))
    return make_network(junctions, [Source("R1", 100.0, 1.0), Source("R2", 100.0, 1.0)], pipes)


@pytest.fixture
def ring_network():
    """One source, three junctions, four pipes forming a single loop."""
    return make_network(
        junctions=[
            Junction("J1", 0.0, 0.01, 30.0),
            Junction("J2", 0.0, 0.01, 30.0),
            Junction("J3", 0.0, 0.01, 30.0),
        ],
        sources=[Source("R1", 100.0, 0.05)],
        pipes=[
            make_pipe("p1", "R1", "J1"),
            make_pipe("p2", "J1", "J2"),
            make_pipe("p3", "J2", "J3"),
            make_pipe("p4", "J3", "R1"),
        ],
    )


@pytest.fixture
def tree_network():
    """A chain R1 - J1 - J2: every pipe is a bridge."""
    return make_network(
        junctions=[Junction("J1", 0.0, 0.01, 30.0), Junction("J2", 0.0, 0.01, 30.0)],
        sources=[Source("R1", 100.0, 0.05)],
        pipes=[make_pipe("p1", "R1", "J1"), make_pipe("p2", "J1", "J2")],
    )


@pytest.fixture
def minimal_network():
    return make_network(
        junctions=[Junction("J1", 0.0, 0.01, 30.0)],
        sources=[Source("R1", 100.0, 0.05)],
        pipes=[make_pipe("p1", "R1", "J1")],
    )


@pytest.fixture
def tight_ring():
    """Ring whose pipe capacities bind before the demands do."""
    return make_network(
        junctions=[
            Junction("J1", 0.0, 0.01, 30.0),
            Junction("J2", 0.0, 0.01, 30.0),
            Junction("J3", 0.0, 0.01, 30.0),
        ],
        sources=[Source("R1", 100.0, 0.05)],
        pipes=[
            make_pipe("p1", "R1", "J1", capacity=0.012),
            make_pipe("p2", "J1", "J2", capacity=0.004),
            make_pipe("p3", "J2", "J3", capacity=0.004),
            make_pipe("p4", "J3", "R1", capacity=0.012),
        ],
    )


@pytest.fixture
def mesh_network():
    """Two sources, five junctions, a parallel pair and several loops."""
    return make_network(
        junctions=[
            Junction("A", 0.0, 0.01, 30.0),
            Junction("B", 0.0, 0.02, 30.0),
            Junction("C", 0.0, 0.0, 30.0),
            Junction("D", 0.0, 0.01, 30.0),
            Junction("E", 0.0, 0.005, 30.0),
        ],
        sources=[Source("S1", 100.0, 0.05), Source("S2", 90.0, 0.05)],
        pipes=[
            make_pipe("p1", "S1", "A", length=100.0),
            make_pipe("p2", "S1", "A", length=150.0),  # parallel to p1
            make_pipe("p3", "A", "B", length=200.0),
            make_pipe("p4", "B", "C", length=100.0),
            make_pipe("p5", "C", "S2", length=100.0),
            make_pipe("p6", "A", "C", length=400.0),
            make_pipe("p7", "B", "D", length=100.0),
            make_pipe("p8", "D", "E", length=50.0),
        ],
    )


@pytest.fixture
def two_route_network():
    """Direct route of resistance 40 and a two-hop route of resistance 80."""
    return make_network(
        junctions=[Junction("A", 0.0, 0.01, 30.0), Junction("B", 0.0, 0.0, 30.0)],
        sources=[Source("S", 100.0, 0.05)],
        pipes=[
            make_pipe("d1", "S", "A", length=200.0),          # 0.02*200/0.1 = 40
            make_pipe("e1", "S", "B", length=200.0),          # 40
            make_pipe("e2", "B", "A", length=200.0),          # 40, so S-B-A = 80
        ],
    )


@pytest.fixture
def pump_network():
    """Minimal network plus one pump delivering 0.3 m4/s of specific power."""
    from wdsres.performance import GAMMA_W

    return make_network(
        junctions=[Junction("J1", 0.0, 0.01, 30.0)],
        sources=[Source("R1", 100.0, 0.01)],
        pipes=[make_pipe("p1", "R1", "J1")],
        pumps=[Pump("b1", 0.3 * GAMMA_W)],
    )


def make_series(node_ids, delivered, demand, head=None, required_head=None):
    delivered = np.asarray(delivered, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if head is None:
        head = np.full_like(delivered, 40.0)
    if required_head is None:
        required_head = np.full_like(delivered, 30.0)
    return HydraulicSeries(tuple(node_ids), delivered, demand, head, required_head)


@pytest.fixture
def zhuang_series():
    """Two nodes, two steps; delivered 33 of 40 flow units (x 1e-3 m3/s)."""
    return make_series(
        ("n1", "n2"),
        delivered=[[0.005, 0.010], [0.008, 0.010]],
        demand=[[0.010, 0.010], [0.010, 0.010]],
    )


@pytest.fixture
def hashimoto_series():
    """Single node; system ratios thresholded at 0.9 give SSFSSFFSSS."""
    ratios = [1.0, 0.95, 0.85, 1.0, 0.92, 0.6, 0.89, 0.95, 1.0, 0.9]
    delivered = [[0.01 * r] for r in ratios]
    demand = [[0.01]] * len(ratios)
    return make_series(("n1",), delivered, demand)


@pytest.fixture
def kernel_runs(monkeypatch):
    """A list that grows by one on each max-flow run of the kernel."""
    runs = []
    kernel = hydraulics._edmonds_karp

    def counted(*args):
        if args[5] == inf:
            runs.append(args)
        return kernel(*args)

    monkeypatch.setattr(hydraulics, "_edmonds_karp", counted)
    return runs


@pytest.fixture
def push_calls(monkeypatch):
    """A list that grows by one on each capped push of the kernel."""
    calls = []
    kernel = hydraulics._edmonds_karp

    def counted(*args):
        if args[5] != inf:
            calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(hydraulics, "_edmonds_karp", counted)
    return calls
