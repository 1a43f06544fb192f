"""Seeded grid-network generator for the benchmark.

A network is a ``rows x cols`` grid of junctions whose rows and columns
wrap around (a torus), fed by two sources that each attach to two
junctions on opposite sides of the grid.  The wrap-around gives every
junction four pipes, so no pair of pipe failures can cut a junction off a
source; ``metric buffering --max-k 2`` therefore enumerates every pair.

The seed changes only the numbers (demands, heads, lengths, diameters,
friction, repair rates), never the topology or the ids.  Pipe geometry
varies within a few percent, so the K cheapest routes keep about the same
number of hops and every seed costs the program about the same work; with
resistances spread over two orders of magnitude the Herrera path search
did a quarter more or less work from one seed to the next.

Capacities are sized from the design demand D: every pipe can carry D and
each source alone can deliver D.  The intact network meets its full
design demand, so the max-flow surrogate finds about one augmenting path
per junction instead of stopping at a throttled source pipe.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def junction_id(rows: int, cols: int, r: int, c: int) -> str:
    return f"J{(r % rows) * cols + (c % cols):04d}"


def grid_network(rows: int, cols: int, seed: int) -> dict:
    """The network document (the documented JSON layout, m3/s units)."""
    if rows < 3 or cols < 3:
        raise ValueError("a wrap-around grid needs at least 3 rows and 3 columns")
    rng = random.Random(f"grid-{rows}x{cols}-{seed}")
    junctions = [
        {
            "id": junction_id(rows, cols, r, c),
            "elevation": round(rng.uniform(0.0, 20.0), 3),
            "design_demand": round(rng.uniform(0.5e-3, 1.5e-3), 7),
            "required_head": round(rng.uniform(15.0, 30.0), 3),
        }
        for r in range(rows)
        for c in range(cols)
    ]
    total_demand = sum(j["design_demand"] for j in junctions)

    ends = []
    for r in range(rows):
        for c in range(cols):
            ends.append((junction_id(rows, cols, r, c), junction_id(rows, cols, r, c + 1)))
            ends.append((junction_id(rows, cols, r, c), junction_id(rows, cols, r + 1, c)))
    mid_r, mid_c = rows // 2, cols // 2
    feeds = {
        "S0": (junction_id(rows, cols, 0, 0), junction_id(rows, cols, 1, 1)),
        "S1": (
            junction_id(rows, cols, mid_r, mid_c),
            junction_id(rows, cols, mid_r + 1, mid_c + 1),
        ),
    }
    for sid, (a, b) in feeds.items():
        ends.append((sid, a))
        ends.append((sid, b))

    pipes = [
        {
            "id": f"P{i:04d}",
            "endpoints": [a, b],
            "length": round(rng.uniform(95.0, 105.0), 3),
            "diameter": round(rng.uniform(0.24, 0.26), 5),
            "friction_factor": round(rng.uniform(0.019, 0.021), 6),
            "repair_rate": round(rng.uniform(1e-4, 1e-3), 6),
            "capacity": total_demand,
        }
        for i, (a, b) in enumerate(ends)
    ]
    sources = [
        {"id": sid, "total_head": round(rng.uniform(60.0, 80.0), 2), "outflow": total_demand}
        for sid in feeds
    ]
    return {"units": "m3s", "junctions": junctions, "sources": sources, "pumps": [], "pipes": pipes}


def network_bytes(rows: int, cols: int, seed: int) -> bytes:
    return (json.dumps(grid_network(rows, cols, seed), indent=1) + "\n").encode()


def write_network(path: Path, rows: int, cols: int, seed: int) -> Path:
    path.write_bytes(network_bytes(rows, cols, seed))
    return path
