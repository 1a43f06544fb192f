"""Byte digests of the heavy commands on networks of 900 and 3600 junctions.

The goldens elsewhere cover fixtures of about ten nodes and grids of up
to 14x14.  These pin the reports of ``metric herrera``, connectivity and
supply ``metric buffering`` and ``scenario mc`` on the benchmark's 30x30
wrap-around grid (seed 0), so a change that keeps the small answers but
moves a bit at scale fails the suite.  Supply buffering at ``--max-k 1``
keeps nothing from one level to the next, so more supply cases run on
the 14x14 grid (seed 0): at ``--max-k 2``, where its search takes about a
tenth of a second, and at ``--max-k 3``, whose last level starts from
composed certificates.  ``metric herrera`` runs on the 60x60 grid (seed 0,
3600 junctions) as well, two orders of magnitude beyond the fixtures, and
so does connectivity buffering at ``--max-k 3``; those two cases take
longer than all the others together.  ``scenario run`` and
``scenario mc`` run on the 60x60 grid too, with the same spec, in about a
second each, and so do supply buffering's ``--max-k 1`` and ``--max-k 2``
searches.  The scenario fails
300 random pipes, enough to cut junctions off in every replicate, so the
four zhuang values differ and the digest pins the interpolated quantiles
too.  The 30x30 zhuang run also hashes its ``--replicates-csv`` file.

On those grids every buffering answer is the cap.  So connectivity
``metric buffering --max-k 3`` runs on thinned 30x30 and 60x60 grids too
(:func:`thinned_network`, seed 0), where a few junctions keep three pipes
and the answer is below the cap, and ``metric herrera`` on the thinned
30x30 grid.  Each thinned buffering case also checks that its value lies
strictly between 0 and ``max_k``, so a generator change that brings back
the trivial answer fails.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from wdsres.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import netgen  # noqa: E402


def thinned_network(rows: int, cols: int, seed: int) -> dict:
    """``netgen.grid_network`` with some junction-to-junction pipes dropped.

    Those pipes are taken in a seeded order, and each is dropped if both of
    its ends keep at least three pipes, until a quarter of them is dropped
    or none is left.  The source feeds, the values and the ids of the other
    pipes are the grid's.
    """
    doc = netgen.grid_network(rows, cols, seed)
    sources = {s["id"] for s in doc["sources"]}
    pipes = doc["pipes"]
    inner = [i for i, p in enumerate(pipes) if sources.isdisjoint(p["endpoints"])]
    random.Random(f"thinned-{rows}x{cols}-{seed}").shuffle(inner)
    degree = Counter(end for p in pipes for end in p["endpoints"])
    dropped = set()
    for i in inner:
        if len(dropped) == len(inner) // 4:
            break
        a, b = pipes[i]["endpoints"]
        if degree[a] > 3 and degree[b] > 3:
            degree[a] -= 1
            degree[b] -= 1
            dropped.add(i)
    doc["pipes"] = [p for i, p in enumerate(pipes) if i not in dropped]
    return doc


SPEC = {
    "events": [
        {"kind": "pipe_failure", "onset": 6, "repair": 14, "count": 300},
        {"kind": "demand_scale", "onset": 10, "repair": 18, "factor": 2.5},
    ],
    "seed": 0,
    "horizon": 24,
}

# command line (``{name}`` is a file in the run's directory), files to hash
CASES = {
    "herrera": (["metric", "herrera", "--network", "{net}", "--K", "5", "--trim", "0.1",
                 "--nodes-out", "{nodes}", "--out", "{report}"], ("report", "nodes")),
    "herrera_60": (["metric", "herrera", "--network", "{net60}", "--K", "5", "--trim", "0.1",
                    "--nodes-out", "{nodes}", "--out", "{report}"], ("report", "nodes")),
    "buffering": (["metric", "buffering", "--network", "{net}", "--max-k", "3",
                   "--out", "{report}"], ("report",)),
    "buffering_60": (["metric", "buffering", "--network", "{net60}", "--max-k", "3",
                      "--out", "{report}"], ("report",)),
    "buffering_thin": (["metric", "buffering", "--network", "{thin}", "--max-k", "3",
                        "--out", "{report}"], ("report",)),
    "buffering_thin_60": (["metric", "buffering", "--network", "{thin60}", "--max-k", "3",
                           "--out", "{report}"], ("report",)),
    "herrera_thin": (["metric", "herrera", "--network", "{thin}", "--K", "5", "--trim", "0.1",
                      "--nodes-out", "{nodes}", "--out", "{report}"], ("report", "nodes")),
    "supply": (["metric", "buffering", "--network", "{net}", "--threshold", "0.99",
                "--max-k", "1", "--out", "{report}"], ("report",)),
    "supply_k2": (["metric", "buffering", "--network", "{net14}", "--threshold", "0.99",
                   "--max-k", "2", "--out", "{report}"], ("report",)),
    "supply_k3": (["metric", "buffering", "--network", "{net14}", "--threshold", "0.99",
                   "--max-k", "3", "--out", "{report}"], ("report",)),
    "supply_60": (["metric", "buffering", "--network", "{net60}", "--threshold", "0.99",
                   "--max-k", "1", "--out", "{report}"], ("report",)),
    "supply_60_k2": (["metric", "buffering", "--network", "{net60}", "--threshold", "0.99",
                      "--max-k", "2", "--out", "{report}"], ("report",)),
    "mc": (["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "4",
            "--metric", "zhuang", "--replicates-csv", "{replicates}", "--out", "{report}"],
           ("report", "replicates")),
    "mc_hashimoto": (["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "4",
                      "--metric", "hashimoto", "--threshold", "0.9", "--out", "{report}"],
                     ("report",)),
    "mc_60": (["scenario", "mc", "--network", "{net60}", "--spec", "{spec}", "--n", "4",
               "--metric", "zhuang", "--out", "{report}"], ("report",)),
    # "stdout" hashes what the command printed
    "run": (["scenario", "run", "--network", "{net}", "--spec", "{spec}",
             "--out", "{series}"], ("series", "stdout")),
    "run_60": (["scenario", "run", "--network", "{net60}", "--spec", "{spec}",
                "--out", "{series}"], ("series", "stdout")),
}

# the connectivity cases on thinned grids, whose answer is below --max-k 3
BELOW_THE_CAP = {"buffering_thin", "buffering_thin_60"}

GOLDEN = {
    "herrera": {"report": "59494090bcdd1025b1d8169b2a3bbd7988dbb059dd3c6147b512bc2602634d86",
                "nodes": "42ffc8fd79da4b6aa680aa20e96f5cd8ecf2e472d9a3dbcd8c38b0e9dcaa4042"},
    "herrera_60": {
        "report": "c8047b4f5f3815ace437befd5e64a71a3c49671f3841384f7c408645a7aad783",
        "nodes": "87ca58d2f29352058a628a34fb1a912b4998a7015a269b340ea2107bcd2294a0"},
    "buffering": {"report": "c66223ca290f51bcade3b32d20f8af04448db8c1334bd738f3736c265818803d"},
    "buffering_60": {
        "report": "a90431817f1cca56fe1058f76795d7861287246e504b3294ec02f6eeb38de239"},
    "buffering_thin": {
        "report": "8992cae9ae152abed4f74252bb4e8d4e330d441c831fb940cb236f366555dbd5"},
    "buffering_thin_60": {
        "report": "2fadde827ad7a68a2333989e9936180916758b0272f574e2430f5d6a7ff09bcf"},
    "herrera_thin": {
        "report": "316696f4b83babe095f739c03ee56227ca7649527bacff699aa20be62f475c0f",
        "nodes": "c63a61540c619956873f32460c400be5f703ea1e1c8c1c007d9d6a803ee66554"},
    "mc": {"report": "b73ca278369ea0ac60af3b719defba8db701185fd240d5c975f5a3a2c232c8eb",
           "replicates": "ea262dfd81277d448f2d06ed679fc6447113cfdf36f78f3e8cae34a553d4f7a6"},
    "mc_60": {"report": "5d14dd9289a25316c41db4fd3626bd35554b8da5e122551b27710d760b84d61e"},
    "mc_hashimoto": {
        "report": "3b8c8c1332b88de161fe2292a4faac3be4a56722ad3845c9ff926ec027484039"},
    "supply": {"report": "973d7bf91922aa3b4e7501d374ba6078f5a82e70febba5ef00b59b9e36878766"},
    "supply_k2": {
        "report": "085ac8469d6a07ce64c425b920157a573b67c6a8bfa7ce474277b0e1978f5a61"},
    "supply_k3": {
        "report": "f0a11d4500e2dcce7ec693ffbc3b6db158a701437afd2f4c107c32a268cf5c01"},
    "supply_60": {
        "report": "c93c61b5512635eae514e5f12e3b88c724844d42bc99f8c9235ce757fc54271a"},
    "supply_60_k2": {
        "report": "401e962df59393c137f180b6b3948e463281b34433bd8cabbbdf3bfee681c95e"},
    "run": {"series": "79c16657c0f27fc9ac26970db3e952b0cf5913f3bd3b820ae844c30839ac4550",
            "stdout": "b6484e101f555cfc6bde9cbf067a462c854effc7d11dfb6077a73496fd6b5ddf"},
    "run_60": {"series": "be1d09a7cf9565f06a43b004713134a724987957676dc013eb273b212c7ef97d",
               "stdout": "ff96a8406ef13e5f2fbfa1e200c16d146ea04f1a7393f6199c7c30b62b07969c"},
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scale")
    net = netgen.write_network(directory / "net.json", 30, 30, 0)
    net14 = netgen.write_network(directory / "net14.json", 14, 14, 0)
    net60 = netgen.write_network(directory / "net60.json", 60, 60, 0)
    thinned = {}
    for name, size in (("thin", 30), ("thin60", 60)):
        thinned[name] = directory / f"{name}.json"
        thinned[name].write_text(json.dumps(thinned_network(size, size, 0), indent=1) + "\n")
    spec = directory / "spec.json"
    spec.write_text(json.dumps(SPEC))
    return {"net": net, "net14": net14, "net60": net60, "spec": spec, **thinned}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_the_recorded_digests(inputs, tmp_path, case):
    args, hashed = CASES[case]
    paths = inputs | {"report": tmp_path / "report.json", "nodes": tmp_path / "nodes.csv",
                      "series": tmp_path / "series.csv", "replicates": tmp_path / "reps.csv"}
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 0, result.output
    digests = {
        name: hashlib.sha256(result.stdout_bytes if name == "stdout"
                             else paths[name].read_bytes()).hexdigest()
        for name in hashed
    }
    assert digests == GOLDEN[case]
    if case in BELOW_THE_CAP:
        assert 0 < json.loads(paths["report"].read_text())["value"] < 3
