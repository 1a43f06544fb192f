"""The input boundary: every loader turns an unreadable file into exit 1."""

import json

import pytest
from click.testing import CliRunner

from wdsres.catalog import dendrogram_import, load_catalog
from wdsres.cli import main
from wdsres.errors import ValidationError
from wdsres.hydraulics import load_series
from wdsres.inputs import read_csv
from wdsres.network import is_finite_number, load_network
from wdsres.scenario import load_scenario
from wdsres.scoremetrics import load_answers, load_checklist, load_indicators

JSON_LOADERS = (load_network, load_scenario, dendrogram_import, load_checklist, load_answers)
CSV_LOADERS = (load_series, load_catalog, load_indicators)

NOT_UTF8 = b"\xff\xfe\x00"
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
LONG_INT = b"1" * 5000  # beyond the digit limit of int()
BIG_CELL = b"a" * 200_000 + b"\n"


def _write(tmp_path, case):
    """Path of the input for ``case``: absent, a directory or a file of bytes."""
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes({"not-utf8": NOT_UTF8, "empty": b"",
                          "deep": DEEP_JSON, "long-int": LONG_INT, "big-cell": BIG_CELL}[case])
    return path


COMMON = ("missing", "directory", "not-utf8", "empty")
BOUNDARY_CASES = [
    *((loader, case) for loader in JSON_LOADERS for case in (*COMMON, "deep", "long-int")),
    *((loader, case) for loader in CSV_LOADERS for case in (*COMMON, "big-cell")),
]


@pytest.mark.parametrize(
    "loader, case", BOUNDARY_CASES, ids=[f"{f.__name__}-{c}" for f, c in BOUNDARY_CASES]
)
def test_unreadable_input_raises_validation_error(tmp_path, loader, case):
    with pytest.raises(ValidationError):
        loader(_write(tmp_path, case))


@pytest.mark.parametrize("argv, case", [
    (["metric", "buffering", "--network"], "directory"),
    (["metric", "buffering", "--network"], "not-utf8"),
    (["metric", "buffering", "--network"], "deep"),
    (["metric", "zhuang", "--series"], "directory"),
    (["metric", "zhuang", "--series"], "not-utf8"),
    (["metric", "zhuang", "--series"], "big-cell"),
    (["metric", "wpr", "--answers", "unused.json", "--checklist"], "directory"),
    (["metric", "wpr", "--answers", "unused.json", "--checklist"], "not-utf8"),
    (["metric", "wpr", "--answers", "unused.json", "--checklist"], "deep"),
])
def test_cli_exits_one_on_unreadable_input(tmp_path, argv, case):
    result = CliRunner().invoke(main, [*argv, str(_write(tmp_path, case))])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output


class TestReadCsv:
    HEADER = ("a", "b")

    def test_rows_with_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b\n1,2\n\n , \n3,\"x\r\ny\"\n")
        assert read_csv(path, self.HEADER, "test") == [(2, ["1", "2"]), (5, ["3", "x\r\ny"])]

    def test_header_and_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,c\n1,2\n")
        with pytest.raises(ValidationError, match="header must be a,b"):
            read_csv(path, self.HEADER, "test")
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(ValidationError, match=r"t.csv:2: expected 2 columns"):
            read_csv(path, self.HEADER, "test")

    def test_indicator_header_is_stripped(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(" name , raw , max_observed , weight \na,1,2,1\n")
        assert [i.name for i in load_indicators(path)] == ["a"]


def test_finite_number_helper_still_importable_from_network():
    assert is_finite_number(1.5) and not is_finite_number(float("nan"))


def test_dendrogram_must_be_an_object(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps([1]))
    with pytest.raises(ValidationError, match="JSON object"):
        dendrogram_import(path)
