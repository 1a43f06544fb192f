"""Byte goldens: the sha256 of every ``metric`` report, of ``list-metrics`` and
of the ``catalog correlate`` matrix, printed and written with ``--out``.

The inputs are the shared fixtures written to files.  Any change to a
report's bytes (a key, a float's repr, the JSON layout) changes its hash,
so a refactor of how reports are built must leave every hash in place.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from wdsres.cli import main
from wdsres.hydraulics import save_series
from wdsres.network import save_network
from wdsres.scoremetrics import load_checklist

from .conftest import make_series

# command line (``{name}`` is an input file), file to hash or None for stdout
CASES = {
    "todini": (["metric", "todini", "--network", "{net}", "--series", "{state}"], None),
    "zhuang": (["metric", "zhuang", "--series", "{zhuang}"], None),
    "hashimoto": (["metric", "hashimoto", "--series", "{hashimoto}",
                   "--threshold", "0.9"], None),
    "hashimoto_per_node": (["metric", "hashimoto", "--series", "{zhuang}",
                            "--threshold", "0.9", "--per-node"], None),
    "flow_resilience": (["metric", "flow_resilience", "--network", "{net}",
                         "--series", "{state}"], None),
    "user_severity": (["metric", "user_severity", "--series", "{state}",
                       "--node", "J2"], None),
    "herrera": (["metric", "herrera", "--network", "{net}", "--K", "2",
                 "--nodes-out", "{nodes}"], None),
    "herrera_nodes": (["metric", "herrera", "--network", "{net}", "--K", "2",
                       "--nodes-out", "{nodes}"], "nodes"),
    "buffering": (["metric", "buffering", "--network", "{net}"], None),
    "buffering_supply": (["metric", "buffering", "--network", "{net}",
                          "--threshold", "0.9", "--max-k", "1"], None),
    "balaei": (["metric", "balaei", "--indicators", "{indicators}"], None),
    "wpr": (["metric", "wpr", "--answers", "{answers}"], None),
    "list_metrics": (["list-metrics"], None),
    "correlate": (["catalog", "correlate"], None),
    "correlate_out": (["catalog", "correlate", "--out", "{matrix}"], "matrix"),
}

GOLDEN = {
    "balaei": "c10bfa75d2427b0445aabe3a375de7dbeac79d5d864da70fdf443a4bdf6da7d5",
    "buffering": "c825d3ff6302308b728de1c29efc45da503bcfd74c668a139a6e0e275a0b79b0",
    "buffering_supply": "d5f5908f767b46cfed647a916276db5d894966eea9448fbbe8a73d56bac71b42",
    "correlate": "b25d93f3efda3bbbeb8f0db49fbeaff581eeefcd5ce539011c5f1de3f74efd2b",
    "correlate_out": "b25d93f3efda3bbbeb8f0db49fbeaff581eeefcd5ce539011c5f1de3f74efd2b",
    "flow_resilience": "fc343f878eda7bab730592efcaa4f11e58bf0c663fe531e62087e47fac530ce4",
    "hashimoto": "63f1144acef7e9db17f77ea5a6739743aec39cbc558e1794e5e4778d4221047b",
    "hashimoto_per_node": "aee802465b4ba2eb41c1b895254393690da7dfa9db53b138a7c533e981053b60",
    "herrera": "c4972e45981a5288699af1168bece88a923a32067b812f885e4ea1ae99f9fdf8",
    "herrera_nodes": "688ce9b8594f2e4ff62a270226e60b525fef0abeecd08f2d23e7389d61fd05ec",
    "list_metrics": "9a8cb18e4e1ddc0f2e819e2e4376d916f69bf941040e593e5676a779066c3b73",
    "todini": "bd4c271a679eb1908a25a12864631650077542578d527042f5723cbd6772727d",
    "user_severity": "af51bbb6b84caea60336f5fe9b06b3fe6500f1206be39a61ee4d4c5e9eb12bf9",
    "wpr": "c9efac5da420235b009c285a79297d8b1a1e35abcf2d5237d2044bc0493491e4",
    "zhuang": "3f75ae0b34ac2554d3171fbb622327e0079d3063060de05d63d65fb48ba38b35",
}


@pytest.fixture
def files(tmp_path, ring_network, zhuang_series, hashimoto_series):
    paths = {name: tmp_path / name for name in
             ("net", "state", "zhuang", "hashimoto", "nodes", "indicators", "answers",
              "matrix")}
    save_network(ring_network, paths["net"])
    save_series(make_series(("J1", "J2", "J3"), [[0.01, 0.006, 0.01]],
                            [[0.01, 0.01, 0.01]], head=[[40.0, 35.0, 41.5]]),
                paths["state"])
    save_series(zhuang_series, paths["zhuang"])
    save_series(hashimoto_series, paths["hashimoto"])
    paths["indicators"].write_text(
        "name,raw,max_observed,weight\na,0.5,1.0,1\nb,0.3,0.7,2.5\n"
    )
    names = load_checklist().names()
    paths["answers"].write_text(json.dumps({n: i % 3 != 0 for i, n in enumerate(names)}))
    return paths


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden(files, case):
    args, target = CASES[case]
    result = CliRunner().invoke(main, [a.format(**files) for a in args])
    assert result.exit_code == 0, result.output
    data = files[target].read_bytes() if target else result.stdout.encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[case]
